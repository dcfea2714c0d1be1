"""Acceptance suite: eight gated criteria, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.
Tolerances and runtime budgets are fixed here, not tuned at runtime; the
Monte-Carlo floors were frozen after one calibration run of the independent
oracles (direct-summation convolution, brute-force scans, the encoder as
its own decode oracle).
"""

import time

import numpy as np
import pytest

from conftest import (
    FISH_ANNOTATIONS,
    brute_force_classify,
    brute_force_neighbors,
    cleanup,
    compress_token,
    fish_table,
    make_annotated_corpus,
    make_surrogate_table,
    unbind_slot,
    write_annotation_file,
    write_vector_file,
)
from holovec import hrr
from holovec.analysis import (
    classify_neighborhoods,
    k_nearest,
    pairwise_cosine_stats,
    sample_orthogonality,
)
from holovec.cli import main
from holovec.decoder import decode_and_score
from holovec.encoder import AnnotatedToken, build_vocabulary
from holovec.selftest import (
    FIXTURE_ORTHOGONALITY_FLOOR,
    NER_ACCURACY_FLOOR,
    POS_ACCURACY_FLOOR,
    synthetic_corpus,
    synthetic_embeddings,
)


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num}] {name}: {status} ({detail})")


def rel_err(actual, expected) -> float:
    scale = max(float(np.max(np.abs(expected))), 1e-300)
    return float(np.max(np.abs(np.asarray(actual) - np.asarray(expected)))) / scale


def test_criterion_1_convolution_correctness():
    start = time.perf_counter()
    worst = 0.0
    for n in (3, 4, 128, 300, 1000):
        rng = np.random.default_rng(1000 + n)
        for _ in range(100):
            a = hrr.random_vector(rng, n)
            b = hrr.random_vector(rng, n)
            worst = max(
                worst, rel_err(hrr.circular_convolve_fft(a, b), hrr.circular_convolve(a, b))
            )
    hand = hrr.circular_convolve([1, 2, 3], [4, 5, 6])
    exact = bool(np.array_equal(hand, [31.0, 31.0, 28.0]))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-9 and exact and elapsed < 5.0
    _report(
        1,
        "convolution correctness",
        ok,
        f"max fft/naive rel err {worst:.2e} over 500 pairs, hand case exact={exact}, "
        f"{elapsed:.2f}s < 5s",
    )
    assert worst < 1e-9
    assert exact
    assert elapsed < 5.0


def test_criterion_2_algebraic_properties():
    start = time.perf_counter()
    n, trials = 300, 1000
    rng = np.random.default_rng(2000)
    delta = np.zeros(n)
    delta[0] = 1.0
    worst_comm = worst_lin = worst_delta = worst_sum = 0.0
    for trial in range(trials):
        a = hrr.random_vector(rng, n)
        b = hrr.random_vector(rng, n)
        c = hrr.random_vector(rng, n)
        conv = hrr.circular_convolve if trial < 100 else hrr.circular_convolve_fft
        ab = conv(a, b)
        worst_comm = max(worst_comm, rel_err(conv(b, a), ab))
        worst_lin = max(worst_lin, rel_err(conv(a, b + c), ab + conv(a, c)))
        worst_delta = max(worst_delta, rel_err(conv(delta, b), b))
        # summation-error scale: the total absolute mass entering the sum
        scale = max(1.0, float(np.sum(np.abs(a)) * np.sum(np.abs(b))))
        worst_sum = max(
            worst_sum, abs(float(np.sum(ab)) - float(np.sum(a) * np.sum(b))) / scale
        )
    elapsed = time.perf_counter() - start
    worst_all = max(worst_comm, worst_lin, worst_delta, worst_sum)
    ok = worst_all < 1e-9 and elapsed < 5.0
    _report(
        2,
        "algebraic properties",
        ok,
        f"1000 trials at n=300 (first 100 on the direct path): commutativity "
        f"{worst_comm:.1e}, linearity {worst_lin:.1e}, delta {worst_delta:.1e}, "
        f"sum identity {worst_sum:.1e}, all < 1e-9; {elapsed:.2f}s < 5s",
    )
    assert worst_all < 1e-9
    assert elapsed < 5.0


def test_criterion_3_codebook_orthogonality(default_codebook):
    start = time.perf_counter()
    stats = pairwise_cosine_stats(default_codebook.all_vectors(), threshold=0.25)
    elapsed = time.perf_counter() - start
    ok = stats.fraction_below >= 0.95 and elapsed < 1.0
    _report(
        3,
        "codebook orthogonality",
        ok,
        f"{stats.fraction_below:.4f} of {stats.pairs} pairs |cos| < 0.25 "
        f"(max {stats.max_abs_cosine:.4f}), floor 0.95; {elapsed:.2f}s < 1s",
    )
    assert stats.pairs == 74 * 73 // 2
    assert stats.fraction_below >= 0.95
    assert elapsed < 1.0


def test_criterion_4_round_trip_decoding(default_codebook):
    start = time.perf_counter()
    cb = default_codebook
    rng = np.random.default_rng(4000)
    table = synthetic_embeddings(600, 300, rng)
    corpus = synthetic_corpus(sorted(table), cb, 1000, rng)
    vocab = build_vocabulary(corpus, table, cb)
    _, (pos_ok, pos_total, ner_ok, ner_total) = decode_and_score(vocab, cb)
    pos_acc = pos_ok / pos_total
    ner_acc = ner_ok / ner_total if ner_total else None

    # wrong-slot unbinding must look like a random query to the cleanup memory
    wrong_sims, random_sims = [], []
    for _ in range(1000):
        filler = hrr.random_vector(rng, 300)
        vec, m = compress_token(
            AnnotatedToken("x", "NN"), {"x": filler}, cb
        )
        estimate = unbind_slot(vec, cb.slot_labels["ner"], m, cb.frame_label)
        wrong_sims.append(cleanup(estimate, cb.pos_table)[1])
        random_sims.append(cleanup(hrr.random_vector(rng, 300), cb.pos_table)[1])
    wrong, rand = np.array(wrong_sims), np.array(random_sims)
    overlap = abs(wrong.mean() - rand.mean()) <= 0.015 and 0.5 < wrong.std() / rand.std() < 2.0

    elapsed = time.perf_counter() - start
    ok = (
        pos_acc >= POS_ACCURACY_FLOOR
        and ner_acc is not None
        and ner_acc >= NER_ACCURACY_FLOOR
        and overlap
        and elapsed < 30.0
    )
    _report(
        4,
        "round-trip decoding",
        ok,
        f"POS {pos_acc:.4f} / NER {ner_acc:.4f} over {len(vocab)} entries, floors 0.95; "
        f"wrong-slot mean {wrong.mean():.4f} vs random {rand.mean():.4f} "
        f"(|diff| <= 0.015); {elapsed:.2f}s < 30s",
    )
    assert pos_acc >= POS_ACCURACY_FLOOR
    assert ner_acc is not None and ner_acc >= NER_ACCURACY_FLOOR
    assert overlap
    assert elapsed < 30.0


def test_criterion_5_orthogonality_methodology(default_codebook):
    start = time.perf_counter()
    cb = default_codebook
    table = make_surrogate_table(5000, 300, seed=5000)
    corpus = make_annotated_corpus(
        sorted(table),
        cb.pos_tags,
        cb.ner_types,
        seed=5001,
        oov_words=100,
    )
    vocab = build_vocabulary(corpus, table, cb)
    assert len(vocab) >= 10_000  # enough keys for an unclamped 5000-pair sample
    report = sample_orthogonality(vocab.as_space(), sample_size=5000, threshold=0.25, seed=5002)
    original = sample_orthogonality(
        table, sample_size=2500, threshold=0.25, seed=5002
    )
    elapsed = time.perf_counter() - start
    ok = report.fraction_below >= FIXTURE_ORTHOGONALITY_FLOOR and elapsed < 30.0
    _report(
        5,
        "orthogonality methodology at desk scale",
        ok,
        f"compressed fraction {report.fraction_below:.4f} over {report.sample_pairs} "
        f"disjoint pairs (floor 0.90); original-space fraction "
        f"{original.fraction_below:.4f} for context; {len(vocab)} keys; "
        f"{elapsed:.2f}s < 30s",
    )
    assert report.fraction_below >= FIXTURE_ORTHOGONALITY_FLOOR
    assert elapsed < 30.0


def test_criterion_6_neighborhood_methodology():
    start = time.perf_counter()
    rng = np.random.default_rng(6000)
    fixture100 = {f"k{i:04d}": hrr.random_vector(rng, 16) for i in range(100)}
    cores = ["k0011", "k0042", "k0077"]

    identity = classify_neighborhoods(fixture100, dict(fixture100), cores, k=10)
    identity_ok = (
        identity.fraction_same_position == pytest.approx(1.0)
        and identity.fraction_shifted == 0.0
        and identity.fraction_disjoint == 0.0
    )

    reversal_ok = True
    for core in cores:
        reversed_space = {
            key: (vec if key == core else -vec) for key, vec in fixture100.items()
        }
        rep = classify_neighborhoods(fixture100, reversed_space, [core], k=10)
        oracle = brute_force_classify(fixture100, reversed_space, [core], 10)
        reversal_ok &= rep.fraction_disjoint == pytest.approx(1.0)
        reversal_ok &= (
            rep.fraction_same_position,
            rep.fraction_shifted,
            rep.fraction_disjoint,
        ) == pytest.approx(oracle)

    noisy = {key: vec + 0.4 * rng.normal(size=16) for key, vec in fixture100.items()}
    mixed = classify_neighborhoods(fixture100, noisy, cores, k=10)
    total = (
        mixed.fraction_same_position + mixed.fraction_shifted + mixed.fraction_disjoint
    )
    sum_ok = abs(total - 1.0) < 1e-9
    oracle = brute_force_classify(fixture100, noisy, cores, 10)
    mixed_ok = (
        mixed.fraction_same_position,
        mixed.fraction_shifted,
        mixed.fraction_disjoint,
    ) == pytest.approx(oracle)

    fixture500 = {f"k{i:04d}": hrr.random_vector(rng, 32) for i in range(500)}
    knn_ok = True
    for core in ("k0000", "k0250", "k0499"):
        fast = [key for key, _ in k_nearest(fixture500, core, k=10)]
        slow = [key for key, _ in brute_force_neighbors(fixture500, core, 10)]
        knn_ok &= fast == slow

    elapsed = time.perf_counter() - start
    ok = identity_ok and reversal_ok and sum_ok and mixed_ok and knn_ok and elapsed < 30.0
    _report(
        6,
        "neighborhood methodology",
        ok,
        f"identity (1,0,0): {identity_ok}; similarity reversal (0,0,1) vs oracle: "
        f"{reversal_ok}; fractions sum to 1 within 1e-9: {sum_ok}; mixed case matches "
        f"oracle: {mixed_ok}; k_nearest == exhaustive on 500 keys: {knn_ok}; "
        f"{elapsed:.2f}s < 30s",
    )
    assert identity_ok and reversal_ok and sum_ok and mixed_ok and knn_ok
    assert elapsed < 30.0


def test_criterion_7_vocabulary_growth_mechanics(default_codebook):
    start = time.perf_counter()
    cb = default_codebook
    vocab = build_vocabulary(FISH_ANNOTATIONS, fish_table(300), cb)
    fish_ok = set(vocab.keys) == {"fishVB", "fishNN", "fishNNPPERSON"}

    m_ok = all(
        (m == 4) == (ner_type is not None)
        for m, ner_type in zip(vocab.component_counts, vocab.ner_types)
    )
    growth_ok = vocab.stats.distinct_keys >= vocab.stats.distinct_word_types
    for seed in (70, 71, 72):
        corpus = make_annotated_corpus(
            [f"w{i}" for i in range(50)], cb.pos_tags, cb.ner_types, seed=seed
        )
        sweep = build_vocabulary(corpus, {}, cb)
        growth_ok &= sweep.stats.distinct_keys >= sweep.stats.distinct_word_types
        m_ok &= all(
            (m == 4) == (ner_type is not None)
            for m, ner_type in zip(sweep.component_counts, sweep.ner_types)
        )
    elapsed = time.perf_counter() - start
    ok = fish_ok and m_ok and growth_ok and elapsed < 1.0
    _report(
        7,
        "vocabulary-growth mechanics",
        ok,
        f"fish keys exact: {fish_ok}; m=4 iff NER: {m_ok}; keys >= word types on "
        f"every corpus: {growth_ok}; {elapsed:.2f}s < 1s",
    )
    assert fish_ok and m_ok and growth_ok
    assert elapsed < 1.0


def _pipeline_run(root, seed: int) -> None:
    root.mkdir()
    table = make_surrogate_table(40, 300, seed=8000, n_clusters=8)
    corpus = make_annotated_corpus(sorted(table), ["NN", "VB"], ["ORG"], seed=8001)
    write_vector_file(root / "emb.txt", table)
    write_annotation_file(root / "ann.tsv", corpus)
    (root / "cores.txt").write_text("\n".join(sorted(table)[:3]) + "\n")
    assert main(["build-codebook", str(root / "cb.json"), "--seed", str(seed)]) == 0
    assert main(
        [
            "compress",
            str(root / "cb.json"),
            str(root / "emb.txt"),
            str(root / "ann.tsv"),
            str(root / "vocab.txt"),
        ]
    ) == 0
    assert main(
        [
            "analyze",
            "orthogonality",
            str(root / "vocab.txt"),
            "--out",
            str(root / "orth.json"),
            "--sample-size",
            "30",
            "--seed",
            str(seed),
        ]
    ) == 0
    assert main(
        [
            "analyze",
            "neighborhoods",
            str(root / "emb.txt"),
            str(root / "vocab.txt"),
            str(root / "vocab.txt.meta.json"),
            "--cores",
            str(root / "cores.txt"),
            "--k",
            "5",
            "--out",
            str(root / "nbr.json"),
        ]
    ) == 0


def test_criterion_8_reproducibility(tmp_path, capsys):
    start = time.perf_counter()
    _pipeline_run(tmp_path / "run1", seed=42)
    _pipeline_run(tmp_path / "run2", seed=42)
    _pipeline_run(tmp_path / "run3", seed=43)
    files = ["cb.json", "vocab.txt", "vocab.txt.meta.json", "orth.json", "nbr.json"]
    identical = all(
        (tmp_path / "run1" / name).read_bytes() == (tmp_path / "run2" / name).read_bytes()
        for name in files
    )
    seed_changes = (tmp_path / "run1" / "cb.json").read_bytes() != (
        tmp_path / "run3" / "cb.json"
    ).read_bytes()
    elapsed = time.perf_counter() - start
    capsys.readouterr()  # drop the pipelines' own stdout from the captured stream
    ok = identical and seed_changes and elapsed < 60.0
    _report(
        8,
        "reproducibility",
        ok,
        f"same seed -> byte-identical codebook/vocabulary/reports: {identical}; "
        f"seed change alters the codebook: {seed_changes}; {elapsed:.2f}s < 60s",
    )
    assert identical
    assert seed_changes
    assert elapsed < 60.0
