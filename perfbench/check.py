"""Output checks for the holovec benchmark, computed apart from the program.

Every expected value is derived from the generated inputs held in memory and
from the codebook read with plain ``json``; the program's outputs are parsed
here with numpy alone. Circular convolution and correlation are the
benchmark's own (real FFT products), and top-k lists come from a brute-force
scan with a lexicographic tie-break.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from gen import DIMENSION, Inputs

# two results whose cosines differ by less than this may rank either way
TIE = 1e-9


class CheckFailed(Exception):
    pass


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def convolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.fft.irfft(np.fft.rfft(a) * np.fft.rfft(b), n=DIMENSION)


def correlate(a: np.ndarray, t: np.ndarray) -> np.ndarray:
    return np.fft.irfft(np.conj(np.fft.rfft(a)) * np.fft.rfft(t), n=DIMENSION)


def unit_rows(matrix: np.ndarray) -> np.ndarray:
    return matrix / np.linalg.norm(matrix, axis=-1, keepdims=True)


@dataclass
class Codebook:
    frame: np.ndarray
    slots: dict[str, np.ndarray]
    pos_tags: list[str]
    ner_types: list[str]
    pos: np.ndarray  # fillers in sorted-tag order, as cleanup scans them
    ner: np.ndarray
    unknown: np.ndarray
    pos_sorted: list[str]
    ner_sorted: list[str]


def read_codebook(path: Path, seed: int) -> Codebook:
    doc = json.loads(path.read_text(encoding="utf-8"))
    require(doc.get("format") == "holovec-codebook", f"{path}: wrong format field")
    require(doc.get("dimension") == DIMENSION and doc.get("seed") == seed,
            f"{path}: dimension/seed {doc.get('dimension')}/{doc.get('seed')}")
    pos_tags, ner_types, vectors = doc["pos_tags"], doc["ner_types"], doc["vectors"]
    require((len(pos_tags), len(ner_types)) == (50, 19), f"{path}: not the default tag sets")
    names = (["frame", "slot:token", "slot:pos", "slot:ner", "unknown"]
             + [f"pos:{t}" for t in pos_tags] + [f"ner:{t}" for t in ner_types])
    require(sorted(vectors) == sorted(names), f"{path}: vector names differ from the tag lists")
    arr = {name: np.array(vectors[name], dtype=np.float64) for name in names}
    stacked = np.stack(list(arr.values()))
    require(stacked.shape == (len(names), DIMENSION) and np.all(np.isfinite(stacked)),
            f"{path}: vectors are not {len(names)} finite rows of {DIMENSION}")
    # label vectors are drawn from N(0, 1/n): mean squared norm near 1
    require(0.8 < float(np.mean(np.sum(stacked**2, axis=1))) < 1.2, f"{path}: label norms off")
    pos_sorted, ner_sorted = sorted(pos_tags), sorted(ner_types)
    return Codebook(
        frame=arr["frame"],
        slots={s: arr[f"slot:{s}"] for s in ("token", "pos", "ner")},
        pos_tags=pos_tags,
        ner_types=ner_types,
        pos=np.stack([arr[f"pos:{t}"] for t in pos_sorted]),
        ner=np.stack([arr[f"ner:{t}"] for t in ner_sorted]),
        unknown=arr["unknown"],
        pos_sorted=pos_sorted,
        ner_sorted=ner_sorted,
    )


def read_vector_file(path: Path) -> tuple[list[str], np.ndarray]:
    keys, rows = [], []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            fields = line.rstrip("\n").split(" ")
            keys.append(fields[0])
            rows.append(fields[1:])
    matrix = np.array(rows, dtype=np.float64)
    require(matrix.ndim == 2 and matrix.shape[1] == DIMENSION, f"{path}: not {DIMENSION} values a row")
    return keys, matrix


# ---------------------------------------------------------------------------
# compress
# ---------------------------------------------------------------------------


@dataclass
class Vocabulary:
    keys: list[str]
    matrix: np.ndarray
    meta: dict[str, dict]


def expected_entries(inputs: Inputs) -> dict[str, dict]:
    """Per composite key, in first-occurrence order, what the sidecar must say."""
    entries: dict[str, dict] = {}
    for surface, pos, ner in inputs.tokens:
        key = surface.lower() + pos + (ner or "")
        if key in entries:
            continue
        if surface in inputs.table:
            source = "exact"
        elif surface.lower() in inputs.table:
            source = "lowercased"
        else:
            source = "unknown"
        entries[key] = {
            "component_count": 4 if ner else 3,
            "filler_source": source,
            "word_type": surface.lower(),
            "pos_tag": pos,
            "ner_type": ner,
            "_surface": surface,
        }
    return entries


def check_vocabulary(vectors_path: Path, sidecar_path: Path, inputs: Inputs, cb: Codebook) -> Vocabulary:
    expected = expected_entries(inputs)
    keys, got = read_vector_file(vectors_path)
    require(keys == list(expected), f"{vectors_path}: keys differ from the corpus's composite keys")
    doc = json.loads(sidecar_path.read_text(encoding="utf-8"))
    require(doc.get("format") == "holovec-vocabulary-meta" and doc.get("dimension") == DIMENSION,
            f"{sidecar_path}: wrong format or dimension")
    meta = doc["entries"]
    require(list(meta) == keys, f"{sidecar_path}: entry keys differ from the vector file")
    for key, want in expected.items():
        facts = {name: value for name, value in want.items() if not name.startswith("_")}
        require(meta[key] == facts, f"{sidecar_path}: entry {key!r} is {meta[key]}, expected {facts}")
    types = len({s.lower() for s, _, _ in inputs.tokens})
    stats = {
        "input_tokens": len(inputs.tokens),
        "distinct_word_types": types,
        "distinct_keys": len(expected),
        "growth_ratio": len(expected) / types,
        "unknown_filler_entries": sum(e["filler_source"] == "unknown" for e in expected.values()),
    }
    require(doc["stats"] == stats, f"{sidecar_path}: stats {doc['stats']}, expected {stats}")

    # (frame + T*e + P*p [+ N*n]) / m with the benchmark's own convolution
    def filler(surface: str) -> np.ndarray:
        vec = inputs.table.get(surface)
        if vec is None:
            vec = inputs.table.get(surface.lower(), cb.unknown)
        return vec

    entries = list(expected.values())
    fillers = np.stack([filler(e["_surface"]) for e in entries])
    pos_terms = {t: convolve(cb.slots["pos"], cb.pos[i]) for i, t in enumerate(cb.pos_sorted)}
    ner_terms = {t: convolve(cb.slots["ner"], cb.ner[i]) for i, t in enumerate(cb.ner_sorted)}
    zero = np.zeros(DIMENSION)
    tags = np.stack([pos_terms[e["pos_tag"]] for e in entries])
    ners = np.stack([ner_terms[e["ner_type"]] if e["ner_type"] else zero for e in entries])
    m = np.array([e["component_count"] for e in entries], dtype=np.float64)[:, None]
    want = (cb.frame + convolve(cb.slots["token"], fillers) + tags + ners) / m
    scale = np.max(np.abs(want), axis=1)
    worst = np.max(np.max(np.abs(got - want), axis=1) / scale)
    require(worst <= 1e-9, f"{vectors_path}: vectors deviate from the encoding formula by {worst:.2e}")
    return Vocabulary(keys=keys, matrix=got, meta=meta)


# ---------------------------------------------------------------------------
# decode
# ---------------------------------------------------------------------------


def _cleanup(queries: np.ndarray, fillers: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Argmax cosine per row (first maximum), its cosine and the top-1/top-2 margin."""
    sims = unit_rows(queries) @ unit_rows(fillers).T
    best = np.argmax(sims, axis=1)
    top2 = np.sort(sims, axis=1)[:, -2:]
    return best, sims[np.arange(len(sims)), best], top2[:, 1] - top2[:, 0]


def check_decode(path: Path, stdout: str, vocab: Vocabulary, cb: Codebook, with_sidecar: bool) -> None:
    lines = path.read_text(encoding="utf-8").splitlines()
    require(lines[0] == "#key\tm\tpos\tpos_similarity\tner\tner_similarity", f"{path}: header {lines[0]!r}")
    rows = [line.split("\t") for line in lines[1:]]
    require([r[0] for r in rows] == vocab.keys, f"{path}: rows are not the vocabulary's keys in order")
    residual = vocab.matrix  # without the sidecar m is unknown: no frame subtraction
    if with_sidecar:
        m = np.array([vocab.meta[k]["component_count"] for k in vocab.keys], dtype=np.float64)[:, None]
        residual = m * vocab.matrix - cb.frame
    slots = {"pos": (cb.slots["pos"], cb.pos, cb.pos_sorted), "ner": (cb.slots["ner"], cb.ner, cb.ner_sorted)}
    decoded = {}
    for name, (slot, fillers, names) in slots.items():
        best, sims, margin = _cleanup(correlate(slot, residual), fillers)
        decoded[name] = ([names[i] for i in best], sims, margin)

    pos_ok = ner_ok = ner_total = 0
    for i, (key, m_text, pos, pos_sim, ner, ner_sim) in enumerate(rows):
        entry = vocab.meta[key]
        with_ner = entry["component_count"] == 4 or not with_sidecar
        require(m_text == (str(entry["component_count"]) if with_sidecar else "-"), f"{path}: {key} m {m_text}")
        for slot, tag, sim, wanted in (("pos", pos, pos_sim, True), ("ner", ner, ner_sim, with_ner)):
            if not wanted:
                require((tag, sim) == ("-", "-"), f"{path}: {key} has an NER result for m=3")
                continue
            names, sims, margin = decoded[slot]
            if margin[i] >= TIE:
                require(tag == names[i], f"{path}: {key} {slot} decodes to {tag}, expected {names[i]}")
                require(abs(float(sim) - sims[i]) <= 6e-7, f"{path}: {key} {slot} similarity {sim}, expected {sims[i]:.6f}")
        pos_ok += pos == entry["pos_tag"]
        if with_sidecar and entry["component_count"] == 4:
            ner_total += 1
            ner_ok += ner == entry["ner_type"]
    if with_sidecar:
        require(f"({pos_ok}/{len(rows)})" in stdout, f"{path}: POS accuracy line does not count {pos_ok}/{len(rows)}")
        require(f"({ner_ok}/{ner_total})" in stdout, f"{path}: NER accuracy line does not count {ner_ok}/{ner_total}")


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------


def check_orthogonality(path: Path, keys: int, norm5: bool) -> None:
    doc = json.loads(path.read_text(encoding="utf-8"))
    requested = doc["requested_sample_size"]
    pairs = doc["sample_pairs"]
    require(pairs == min(requested, keys // 2) and doc["clamped"] == (requested > keys // 2),
            f"{path}: {pairs} pairs for {requested} requested over {keys} keys")
    counts = doc["histogram"]["counts"]
    require(len(counts) == 20 and sum(counts) == pairs, f"{path}: histogram counts sum to {sum(counts)}, not {pairs}")
    # the threshold 0.25 is the edge of the fifth 0.05-wide bucket
    below = doc["fraction_below"] * pairs
    require(doc["threshold"] == 0.25 and abs(sum(counts[:5]) - below) < 0.5,
            f"{path}: {sum(counts[:5])} pairs in the buckets below 0.25, fraction_below says {below:.1f}")
    if norm5:
        require(doc["fraction_below"] >= 0.90, f"{path}: fraction_below {doc['fraction_below']} < 0.90")


def _top(candidates: list[str], sims: np.ndarray, k: int) -> list[tuple[str, float]]:
    order = np.lexsort((np.arange(len(sims)), -sims))[:k]  # candidates are sorted
    return [(candidates[i], float(sims[i])) for i in order]


def same_ranking(got: list, want: list[tuple[str, float]], true_sim: dict[str, float], what: str) -> None:
    """``got`` is a valid top-k: its keys carry the expected cosine rank by rank, up to ties."""
    require(len(got) == len(want), f"{what}: {len(got)} neighbors, expected {len(want)}")
    require(len({key for key, _ in got}) == len(got), f"{what}: repeated neighbor")
    for (key, sim), (want_key, want_sim) in zip(got, want):
        require(key in true_sim and abs(true_sim[key] - sim) <= TIE, f"{what}: {key} cosine {sim}")
        require(key == want_key or abs(true_sim[key] - want_sim) <= TIE,
                f"{what}: {key} where the brute-force scan ranks {want_key}")


def check_neighborhoods(path: Path, inputs: Inputs, vocab: Vocabulary, k: int) -> None:
    doc = json.loads(path.read_text(encoding="utf-8"))
    cores = sorted(set(inputs.cores))
    require(doc["k"] == k and doc["core_tokens"] == cores, f"{path}: k or core list differs")
    word_of = {key: vocab.meta[key]["word_type"] for key in vocab.keys}
    words = sorted(set(word_of.values()) & set(inputs.table))
    original = unit_rows(np.stack([inputs.table[w] for w in words]))
    comp_rows = [(word_of[key], key, i) for i, key in enumerate(vocab.keys) if word_of[key] in inputs.table]
    comp_rows.sort()
    comp = unit_rows(vocab.matrix[[i for _, _, i in comp_rows]])
    starts = np.flatnonzero([j == 0 or comp_rows[j - 1][0] != w for j, (w, _, _) in enumerate(comp_rows)])
    first_key_row = {comp_rows[j][0]: j for j in starts}
    core_index = {w: i for i, w in enumerate(words)}
    orig_sims = original[[core_index[c] for c in cores]] @ original.T
    comp_sims = comp[[first_key_row[c] for c in cores]] @ comp.T
    rep_sims = np.maximum.reduceat(comp_sims, starts, axis=1)  # best composite key per word

    same = shifted = disjoint = total = 0
    for ci, (core, entry) in enumerate(zip(cores, doc["cores"])):
        require(entry["core"] == core, f"{path}: core {entry['core']} out of order")
        others = [w for w in words if w != core]
        keep = np.arange(len(words)) != core_index[core]
        lists = []
        for side, sims in (("original", orig_sims[ci][keep]), ("compressed", rep_sims[ci][keep])):
            got = [(n["key"], n["cosine"]) for n in entry[f"{side}_neighbors"]]
            same_ranking(got, _top(others, sims, k), dict(zip(others, sims.tolist())), f"{path}: {core} {side}")
            lists.append([key for key, _ in got])
        top_o, top_c = lists
        here_same = sum(1 for i, key in enumerate(top_o) if i < len(top_c) and top_c[i] == key)
        here_shifted = len(set(top_o) & set(top_c)) - here_same
        counts = {"same_position": here_same, "shifted": here_shifted, "disjoint": len(top_o) - here_same - here_shifted}
        require(entry["counts"] == counts and entry["k_effective"] == len(top_o), f"{path}: {core} counts {entry['counts']}")
        same, shifted, disjoint, total = same + here_same, shifted + here_shifted, disjoint + counts["disjoint"], total + len(top_o)
    fractions = doc["fractions"]
    require(abs(sum(fractions.values()) - 1.0) <= 1e-9, f"{path}: fractions sum to {sum(fractions.values())}")
    for name, count in (("same_position", same), ("shifted", shifted), ("disjoint", disjoint)):
        require(abs(fractions[name] - count / total) <= 1e-12, f"{path}: fraction {name} {fractions[name]}")


def check_knn(results: list[tuple[str, list]], vocab: Vocabulary, k: int) -> None:
    order = sorted(range(len(vocab.keys)), key=vocab.keys.__getitem__)
    keys = [vocab.keys[i] for i in order]
    unit = unit_rows(vocab.matrix[order])
    row = {key: i for i, key in enumerate(keys)}
    for query, got in results:
        keep = np.arange(len(keys)) != row[query]
        others = [key for key in keys if key != query]
        sims = (unit @ unit[row[query]])[keep]
        same_ranking(got, _top(others, sims, k), dict(zip(others, sims.tolist())), f"k_nearest({query!r})")

