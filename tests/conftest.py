"""Shared fixtures: codebooks, fish corpus, and GloVe-like surrogate embeddings."""

from __future__ import annotations

import numpy as np
import pytest

from holovec.codebook import Codebook, build_codebook
from holovec.decoder import decode_vocabulary
from holovec.encoder import AnnotatedToken, build_vocabulary, composite_key
from holovec.errors import DimensionMismatchError


def _as_vector(x) -> np.ndarray:
    v = np.asarray(x, dtype=np.float64)
    if v.ndim != 1 or v.shape[0] == 0:
        raise ValueError(f"expected a non-empty 1-D vector, got shape {v.shape}")
    return v


def superpose(vectors, divisor: int) -> np.ndarray:
    """Oracle for composition: element-wise sum of equal-length vectors divided by ``divisor``."""
    vecs = [_as_vector(v) for v in vectors]
    if not vecs:
        raise ValueError("superpose() requires at least one vector")
    if divisor < 1:
        raise ValueError(f"divisor must be a positive integer, got {divisor}")
    lengths = {v.shape[0] for v in vecs}
    if len(lengths) != 1:
        raise DimensionMismatchError(f"vector lengths differ: {sorted(lengths)}")
    return np.sum(vecs, axis=0) / divisor


def cosine_similarity(a, b) -> float:
    """Oracle: dot(a, b) / (||a|| * ||b||); a zero-norm input raises ValueError."""
    a, b = _as_vector(a), _as_vector(b)
    if a.shape != b.shape:
        raise DimensionMismatchError(f"vector lengths differ: {a.shape[0]} vs {b.shape[0]}")
    na = float(np.linalg.norm(a))
    nb = float(np.linalg.norm(b))
    if na == 0.0 or nb == 0.0:
        raise ValueError("cosine similarity is undefined for a zero-norm vector")
    return float(np.dot(a, b) / (na * nb))


def circular_correlate(a, t) -> np.ndarray:
    """Oracle for unbinding: circular correlation by direct summation,
    out[j] = sum_k a[k] * t[(k + j) mod n]."""
    a, t = _as_vector(a), _as_vector(t)
    if a.shape != t.shape:
        raise DimensionMismatchError(f"vector lengths differ: {a.shape[0]} vs {t.shape[0]}")
    n = a.shape[0]
    jk = (np.arange(n)[:, None] + np.arange(n)[None, :]) % n
    return t[jk] @ a


def unbind_slot(compressed, slot_label, m, frame_label) -> np.ndarray:
    """Oracle for one slot's filler estimate: correlate(slot, m * compressed - frame),
    by the direct-sum `circular_correlate`."""
    return circular_correlate(slot_label, m * _as_vector(compressed) - frame_label)


def compress_token(token, table, cb) -> tuple[np.ndarray, int]:
    """One token as (vector, component count m): a one-token `build_vocabulary`."""
    entry = build_vocabulary([token], table, cb).entries[composite_key(token)]
    return entry.vector, entry.component_count


def decode_attributes(compressed, m, cb):
    """One vector's POS tag, and NER type where m is 4: a one-row `decode_vocabulary`."""
    return decode_vocabulary([compressed], [m], cb)[0]


def with_vectors(cb: Codebook, edits: dict[str, np.ndarray]) -> Codebook:
    """A new codebook: ``cb`` with the vectors of some layout names replaced."""
    named = {**cb.all_vectors(), **edits}
    return Codebook(cb.seed, cb.pos_tags, cb.ner_types, np.stack(list(named.values())))


@pytest.fixture(scope="session")
def default_codebook():
    return build_codebook()


@pytest.fixture(scope="session")
def small_codebook():
    """Cheap low-dimensional codebook for plumbing tests (not accuracy tests)."""
    return build_codebook(["NN", "VB", "NNP", "JJ", "DT"], ["PERSON", "ORG"], dimension=16, seed=3)


FISH_ANNOTATIONS = [
    AnnotatedToken("fish", "VB", None, line=1),
    AnnotatedToken("fish", "NN", None, line=2),
    AnnotatedToken("Fish", "NNP", "PERSON", line=3),
]


def fish_table(dimension: int, seed: int = 101) -> dict[str, np.ndarray]:
    rng = np.random.default_rng(seed)
    return {"fish": rng.normal(0.0, np.sqrt(1.0 / dimension), dimension)}


def make_surrogate_table(
    n_words: int,
    dimension: int,
    seed: int,
    n_clusters: int = 400,
    common_weight: float = 0.08,
    cluster_weight: float = 0.50,
) -> dict[str, np.ndarray]:
    """Dense vectors with pre-trained-embedding statistics.

    Not quasi-orthogonal by construction: every vector shares a common
    direction (anisotropy), words fall into semantic clusters with high
    within-cluster cosine, and norms are lognormal around 5 like the large
    GloVe models. Used wherever a test needs realistic filler statistics.
    """
    rng = np.random.default_rng(seed)
    common = rng.normal(0.0, 1.0, dimension)
    common /= np.linalg.norm(common)
    centers = rng.normal(0.0, 1.0, (n_clusters, dimension))
    centers /= np.linalg.norm(centers, axis=1, keepdims=True)
    cluster_of = rng.integers(0, n_clusters, n_words)
    noise = rng.normal(0.0, 1.0, (n_words, dimension))
    noise /= np.linalg.norm(noise, axis=1, keepdims=True)
    directions = (
        np.sqrt(common_weight) * common
        + np.sqrt(cluster_weight) * centers[cluster_of]
        + np.sqrt(1.0 - common_weight - cluster_weight) * noise
    )
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    norms = np.exp(rng.normal(np.log(5.2), 0.25, n_words))
    vectors = directions * norms[:, None]
    return {f"w{i:05d}": vectors[i] for i in range(n_words)}


def make_annotated_corpus(
    words: list[str],
    pos_tags: list[str],
    ner_types: list[str],
    seed: int,
    profiles_per_word: tuple[int, int] = (2, 3),
    ner_fraction: float = 0.15,
    oov_words: int = 0,
) -> list[AnnotatedToken]:
    """Give each word a few random (POS, NER) usage profiles, plus optional OOV tokens."""
    rng = np.random.default_rng(seed)
    tokens = []
    line = 0
    surfaces = list(words) + [f"oov{i:05d}" for i in range(oov_words)]
    for surface in surfaces:
        for _ in range(int(rng.integers(profiles_per_word[0], profiles_per_word[1] + 1))):
            line += 1
            ner = None
            if rng.random() < ner_fraction:
                ner = ner_types[int(rng.integers(len(ner_types)))]
            tokens.append(
                AnnotatedToken(
                    surface=surface,
                    pos_tag=pos_tags[int(rng.integers(len(pos_tags)))],
                    ner_type=ner,
                    line=line,
                )
            )
    return tokens


def brute_force_neighbors(space, core, k):
    """Oracle: all pairwise cosines via the raw formula, sorted by (-cos, key)."""
    sims = []
    for key, vec in space.items():
        if key == core:
            continue
        a, b = np.asarray(space[core]), np.asarray(vec)
        cos = float(np.dot(a, b) / (np.linalg.norm(a) * np.linalg.norm(b)))
        sims.append((key, cos))
    sims.sort(key=lambda pair: (-pair[1], pair[0]))
    return sims[:k]


def brute_force_classify(original, compressed, cores, k):
    """Oracle for the identity-keyed case: classify by the definition."""
    same = shifted = disjoint = denom = 0
    for core in sorted(set(cores)):
        top_a = [key for key, _ in brute_force_neighbors(original, core, k)]
        top_b = [key for key, _ in brute_force_neighbors(compressed, core, k)]
        denom += len(top_a)
        inter = set(top_a) & set(top_b)
        same_here = sum(1 for key in inter if top_a.index(key) == top_b.index(key))
        same += same_here
        shifted += len(inter) - same_here
        disjoint += len(top_a) - len(inter)
    return same / denom, shifted / denom, disjoint / denom


def sorted_top_rows(sims: np.ndarray, exclude: int, k: int) -> np.ndarray:
    """Oracle for top-k selection: rows of the k largest ``sims`` but ``exclude``,
    by a stable sort of every row, so exact ties go to the smaller row."""
    order = np.argsort(-sims, kind="stable")
    return order[order != exclude][:k]


def row_cosines(unit: np.ndarray, query: np.ndarray) -> np.ndarray:
    """Every row's cosine to ``query`` by the fixed-order per-row product that
    `analysis` scores neighbors with, so a row's bits do not depend on where it sits."""
    return np.einsum("ij,j->i", unit, query)


def reference_neighborhoods(original, compressed, core, k, key_to_word):
    """Oracle: one core's top-k in both spaces, by a loop over the words.

    Returns (original neighbors, word-level compressed neighbors, the
    composite key representing each word). Each word is represented by the
    first of its sorted composite keys with the highest cosine (as one
    matrix-vector product screens it) to the core word's first composite
    key. Neighbors are ranked by their `row_cosines`.
    """

    def unit_rows(space, keys):
        matrix = np.stack([np.asarray(space[key], dtype=np.float64) for key in keys])
        return matrix / np.linalg.norm(matrix, axis=1)[:, None]

    def top(keys, sims):
        order = np.argsort(-sims, kind="stable")[:k]
        return [(keys[i], float(sims[i])) for i in order]

    orig_keys = sorted(original)
    orig_unit = unit_rows(original, orig_keys)
    row = orig_keys.index(core)
    sims = row_cosines(orig_unit, orig_unit[row])
    orig_nbrs = top([key for key in orig_keys if key != core], np.delete(sims, row))

    comp_keys = sorted(compressed)
    comp_unit = unit_rows(compressed, comp_keys)
    comp_index = {key: i for i, key in enumerate(comp_keys)}
    word_to_keys = {}
    for key in comp_keys:
        word_to_keys.setdefault(key_to_word[key], []).append(key)
    reps = {core: word_to_keys[core][0]}
    sims_all = comp_unit @ comp_unit[comp_index[reps[core]]]
    words = [w for w in sorted(word_to_keys) if w != core]
    for word in words:
        local = sims_all[[comp_index[key] for key in word_to_keys[word]]]
        best = int(np.argmax(local))  # first max == lexicographically first key
        reps[word] = word_to_keys[word][best]
    rep_rows = comp_unit[[comp_index[reps[word]] for word in words]]
    rep_sims = row_cosines(rep_rows, comp_unit[comp_index[reps[core]]])
    return orig_nbrs, top(words, rep_sims), reps


def vector_text(entries: dict[str, np.ndarray]) -> str:
    """Oracle for the text vector format: every record built, then joined into one string."""
    lines = []
    for key, vec in entries.items():
        values = " ".join(repr(v) for v in vec.tolist())
        lines.append(f"{key} {values}\n")
    return "".join(lines)


def write_vector_file(path, entries: dict[str, np.ndarray]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for key, vec in entries.items():
            fh.write(key + " " + " ".join(repr(v) for v in np.asarray(vec).tolist()) + "\n")


def write_annotation_file(path, tokens: list[AnnotatedToken]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for t in tokens:
            fh.write(f"{t.surface}\t{t.pos_tag}\t{t.ner_type or '-'}\n")
