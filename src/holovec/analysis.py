"""Orthogonality statistics and neighborhood-preservation analysis.

Two methodologies over key -> vector spaces: sampled disjoint-pair cosine
statistics (how close to orthogonal a vocabulary is), and top-k neighborhood
comparison between an original and a compressed space (how well semantic
neighborhoods survive compression). Scans are exact; vocabularies at desk
scale do not need approximate indexing.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from ._fileio import atomic_write_text
from .codebook import DEFAULT_SEED
from .errors import UnknownKeyError

__all__ = [
    "DEFAULT_K",
    "DEFAULT_SAMPLE_SIZE",
    "DEFAULT_THRESHOLD",
    "HISTOGRAM_BUCKET_WIDTH",
    "NeighborRecord",
    "CoreNeighborhood",
    "NeighborhoodReport",
    "OrthogonalityReport",
    "PairwiseStats",
    "classify_neighborhoods",
    "k_nearest",
    "pairwise_cosine_stats",
    "sample_orthogonality",
]

DEFAULT_K = 10
DEFAULT_THRESHOLD = 0.25
DEFAULT_SAMPLE_SIZE = 100_000
HISTOGRAM_BUCKET_WIDTH = 0.05

SAME_POSITION = "same_position"
SHIFTED = "shifted"
DISJOINT = "disjoint"


def _as_space(space) -> dict[str, np.ndarray]:
    if hasattr(space, "as_space"):
        return space.as_space()
    return dict(space)


def _normalized_matrix(keys: Sequence[str], space: Mapping[str, np.ndarray]) -> np.ndarray:
    matrix = np.stack([np.asarray(space[k], dtype=np.float64) for k in keys])
    norms = np.linalg.norm(matrix, axis=1)
    zero = np.nonzero(norms == 0.0)[0]
    if zero.size:
        raise ValueError(f"vector {keys[zero[0]]!r} has zero norm")
    return matrix / norms[:, None]


# ---------------------------------------------------------------------------
# Orthogonality
# ---------------------------------------------------------------------------


@dataclass
class OrthogonalityReport:
    sample_pairs: int
    requested_sample_size: int
    clamped: bool
    threshold: float
    fraction_below: float
    histogram_counts: list[int]
    seed: int

    def to_json_dict(self) -> dict:
        edges = [round(i * HISTOGRAM_BUCKET_WIDTH, 2) for i in range(len(self.histogram_counts) + 1)]
        return {
            "format": "holovec-orthogonality-report",
            "format_version": 1,
            "sample_pairs": self.sample_pairs,
            "requested_sample_size": self.requested_sample_size,
            "clamped": self.clamped,
            "threshold": self.threshold,
            "fraction_below": self.fraction_below,
            "seed": self.seed,
            "histogram": {
                "bucket_width": HISTOGRAM_BUCKET_WIDTH,
                "edges": edges,
                "counts": self.histogram_counts,
            },
        }

    def write(self, path: str | Path) -> None:
        atomic_write_text(path, json.dumps(self.to_json_dict(), separators=(",", ":")) + "\n")


def sample_orthogonality(
    space,
    sample_size: int = DEFAULT_SAMPLE_SIZE,
    threshold: float = DEFAULT_THRESHOLD,
    seed: int = DEFAULT_SEED,
) -> OrthogonalityReport:
    """Pair two disjoint uniform key samples index-wise and score |cosine|.

    A sample size larger than half the space is clamped (and flagged), so
    the two lists stay disjoint by construction.
    """
    vectors = _as_space(space)
    if len(vectors) < 2:
        raise ValueError(f"orthogonality sampling needs >= 2 vectors, got {len(vectors)}")
    if sample_size < 1:
        raise ValueError(f"sample_size must be >= 1, got {sample_size}")
    keys = sorted(vectors)
    half = len(keys) // 2
    clamped = sample_size > half
    size = min(sample_size, half)

    rng = np.random.default_rng(seed)
    picked = rng.choice(len(keys), size=2 * size, replace=False)
    first, second = picked[:size], picked[size:]

    normalized = _normalized_matrix(keys, vectors)
    cosines = np.abs(np.sum(normalized[first] * normalized[second], axis=1))
    cosines = np.clip(cosines, 0.0, 1.0)
    counts, _ = np.histogram(cosines, bins=np.linspace(0.0, 1.0, 21))
    return OrthogonalityReport(
        sample_pairs=size,
        requested_sample_size=sample_size,
        clamped=clamped,
        threshold=threshold,
        fraction_below=float(np.mean(cosines < threshold)),
        histogram_counts=[int(c) for c in counts],
        seed=seed,
    )


@dataclass
class PairwiseStats:
    pairs: int
    fraction_below: float
    max_abs_cosine: float


def pairwise_cosine_stats(
    space, threshold: float = DEFAULT_THRESHOLD, max_keys: int = 20_000
) -> PairwiseStats:
    """Exhaustive all-pairs |cosine| statistics; refused above ``max_keys``."""
    vectors = _as_space(space)
    if len(vectors) < 2:
        raise ValueError(f"pairwise scan needs >= 2 vectors, got {len(vectors)}")
    if len(vectors) > max_keys:
        raise ValueError(
            f"exhaustive scan over {len(vectors)} keys exceeds the {max_keys}-key limit; "
            "use sample_orthogonality instead"
        )
    keys = sorted(vectors)
    normalized = _normalized_matrix(keys, vectors)
    gram = normalized @ normalized.T
    upper = np.abs(gram[np.triu_indices(len(keys), 1)])
    return PairwiseStats(
        pairs=int(upper.size),
        fraction_below=float(np.mean(upper < threshold)),
        max_abs_cosine=float(upper.max()),
    )


# ---------------------------------------------------------------------------
# Neighborhoods
# ---------------------------------------------------------------------------


def _rank_top(keys: Sequence[str], sims: np.ndarray, k: int) -> list[tuple[str, float]]:
    # keys are lexicographically sorted, so a stable sort breaks ties by key
    order = np.argsort(-sims, kind="stable")[:k]
    return [(keys[i], float(sims[i])) for i in order]


def k_nearest(space, core: str, k: int = DEFAULT_K) -> list[tuple[str, float]]:
    """The k keys nearest to ``core`` by cosine, excluding the core itself.

    Ordered by non-increasing cosine; exact ties resolve to the
    lexicographically smaller key. Returns fewer than k entries only when
    the space itself is smaller.
    """
    vectors = _as_space(space)
    if core not in vectors:
        raise UnknownKeyError(f"core {core!r} is not in the space")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    keys = sorted(key for key in vectors if key != core)
    if not keys:
        return []
    query = np.asarray(vectors[core], dtype=np.float64)
    qnorm = float(np.linalg.norm(query))
    if qnorm == 0.0:
        raise ValueError(f"core {core!r} has zero norm")
    normalized = _normalized_matrix(keys, vectors)
    sims = normalized @ (query / qnorm)
    return _rank_top(keys, sims, k)


@dataclass
class NeighborRecord:
    key: str
    rank_original: int | None
    rank_compressed: int | None
    classification: str


@dataclass
class CoreNeighborhood:
    core: str
    records: list[NeighborRecord]
    original_neighbors: list[tuple[str, float]]
    compressed_neighbors: list[tuple[str, float]]
    original_cosine_matrix: list[list[float]]
    compressed_cosine_matrix: list[list[float]]
    same_position: int
    shifted: int
    disjoint: int
    k_effective: int


@dataclass
class NeighborhoodReport:
    k: int
    core_tokens: list[str]
    fraction_same_position: float
    fraction_shifted: float
    fraction_disjoint: float
    cores: list[CoreNeighborhood] = field(repr=False)

    def to_json_dict(self) -> dict:
        return {
            "format": "holovec-neighborhood-report",
            "format_version": 1,
            "k": self.k,
            "core_tokens": self.core_tokens,
            "fractions": {
                SAME_POSITION: self.fraction_same_position,
                SHIFTED: self.fraction_shifted,
                DISJOINT: self.fraction_disjoint,
            },
            "cores": [
                {
                    "core": c.core,
                    "k_effective": c.k_effective,
                    "counts": {
                        SAME_POSITION: c.same_position,
                        SHIFTED: c.shifted,
                        DISJOINT: c.disjoint,
                    },
                    "neighbors": [
                        {
                            "key": r.key,
                            "rank_original": r.rank_original,
                            "rank_compressed": r.rank_compressed,
                            "class": r.classification,
                        }
                        for r in c.records
                    ],
                    "original_neighbors": [
                        {"key": key, "cosine": sim} for key, sim in c.original_neighbors
                    ],
                    "compressed_neighbors": [
                        {"key": key, "cosine": sim} for key, sim in c.compressed_neighbors
                    ],
                    "original_cosine_matrix": {
                        "labels": [c.core] + [key for key, _ in c.original_neighbors],
                        "matrix": c.original_cosine_matrix,
                    },
                    "compressed_cosine_matrix": {
                        "labels": [c.core] + [key for key, _ in c.compressed_neighbors],
                        "matrix": c.compressed_cosine_matrix,
                    },
                }
                for c in self.cores
            ],
        }

    def write(self, path: str | Path) -> None:
        atomic_write_text(path, json.dumps(self.to_json_dict(), separators=(",", ":")) + "\n")


def _cosine_matrix(vectors: list[np.ndarray]) -> list[list[float]]:
    matrix = np.stack(vectors)
    norms = np.linalg.norm(matrix, axis=1, keepdims=True)
    normalized = matrix / norms
    return (normalized @ normalized.T).tolist()


def _classify_core(
    core: str,
    orig_keys: list[str],
    orig_normalized: np.ndarray,
    orig_index: dict[str, int],
    comp_normalized: np.ndarray,
    comp_index: dict[str, int],
    word_to_keys: dict[str, list[str]],
    k: int,
) -> CoreNeighborhood:
    # original-space neighborhood
    core_row = orig_index[core]
    sims = orig_normalized @ orig_normalized[core_row]
    cand_keys = [key for key in orig_keys if key != core]
    orig_nbrs = _rank_top(cand_keys, np.delete(sims, core_row), k)

    # compressed-space neighborhood: each word is represented by its composite
    # vector most similar to the core's own (lexicographically first) vector
    core_key = word_to_keys[core][0]
    unit = comp_normalized[comp_index[core_key]]
    sims_all = comp_normalized @ unit

    words = [w for w in sorted(word_to_keys) if w != core]
    rep_sims = np.empty(len(words))
    rep_rows = np.empty(len(words), dtype=np.intp)
    for i, word in enumerate(words):
        rows = [comp_index[key] for key in word_to_keys[word]]
        local = sims_all[rows]
        best = int(np.argmax(local))  # first max == lexicographically first key
        rep_sims[i] = local[best]
        rep_rows[i] = rows[best]
    rep_of = {word: comp_normalized[row] for word, row in zip(words, rep_rows)}
    comp_nbrs = _rank_top(words, rep_sims, k)

    rank_orig = {key: i + 1 for i, (key, _) in enumerate(orig_nbrs)}
    rank_comp = {key: i + 1 for i, (key, _) in enumerate(comp_nbrs)}
    records = []
    same = shifted = 0
    for key, _ in orig_nbrs:
        ro, rc = rank_orig[key], rank_comp.get(key)
        if rc is None:
            records.append(NeighborRecord(key, ro, None, DISJOINT))
        elif ro == rc:
            same += 1
            records.append(NeighborRecord(key, ro, rc, SAME_POSITION))
        else:
            shifted += 1
            records.append(NeighborRecord(key, ro, rc, SHIFTED))
    for key, _ in comp_nbrs:
        if key not in rank_orig:
            records.append(NeighborRecord(key, None, rank_comp[key], DISJOINT))

    k_eff = len(orig_nbrs)
    disjoint = k_eff - (same + shifted)

    orig_vectors = [orig_normalized[orig_index[core]]] + [
        orig_normalized[orig_index[key]] for key, _ in orig_nbrs
    ]
    comp_vectors = [unit] + [rep_of[key] for key, _ in comp_nbrs]
    return CoreNeighborhood(
        core=core,
        records=records,
        original_neighbors=orig_nbrs,
        compressed_neighbors=comp_nbrs,
        original_cosine_matrix=_cosine_matrix(orig_vectors),
        compressed_cosine_matrix=_cosine_matrix(comp_vectors),
        same_position=same,
        shifted=shifted,
        disjoint=disjoint,
        k_effective=k_eff,
    )


def classify_neighborhoods(
    original,
    compressed,
    cores: Sequence[str],
    k: int = DEFAULT_K,
    compressed_key_to_word: Mapping[str, str] | None = None,
) -> NeighborhoodReport:
    """Compare top-k neighborhoods of each core in both spaces.

    A neighbor key in both lists at the same rank counts as same-position;
    in both lists at different ranks as shifted; the remainder of each
    neighborhood pair is disjoint, counted once per pair. Fractions are
    aggregated over cores x k and sum to 1.

    When ``compressed_key_to_word`` maps composite keys to word types, the
    compressed space is compared at the word level: per core, each word is
    represented by its composite vector with the highest cosine to the
    core's vector (the core itself uses its lexicographically first
    composite key). Both spaces must then resolve the same word set.
    """
    orig_space = _as_space(original)
    comp_space = _as_space(compressed)
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if not cores:
        raise ValueError("classify_neighborhoods() requires at least one core")
    core_list = sorted(set(cores))

    if compressed_key_to_word is None:
        word_to_keys = {key: [key] for key in comp_space}
    else:
        word_to_keys = {}
        for key in comp_space:
            word = compressed_key_to_word.get(key)
            if word is None:
                raise UnknownKeyError(f"composite key {key!r} has no word-type mapping")
            word_to_keys.setdefault(word, []).append(key)
        for keys in word_to_keys.values():
            keys.sort()

    orig_words = set(orig_space)
    comp_words = set(word_to_keys)
    if orig_words != comp_words:
        offender = sorted(orig_words.symmetric_difference(comp_words))[0]
        raise UnknownKeyError(f"key {offender!r} is not resolvable in both spaces")
    for core in core_list:
        if core not in orig_words:
            raise UnknownKeyError(f"core {core!r} is not resolvable in both spaces")

    orig_keys = sorted(orig_space)
    orig_index = {key: i for i, key in enumerate(orig_keys)}
    orig_normalized = _normalized_matrix(orig_keys, orig_space)
    comp_keys = sorted(comp_space)
    comp_index = {key: i for i, key in enumerate(comp_keys)}
    comp_normalized = _normalized_matrix(comp_keys, comp_space)

    results = [
        _classify_core(
            core,
            orig_keys,
            orig_normalized,
            orig_index,
            comp_normalized,
            comp_index,
            word_to_keys,
            k,
        )
        for core in core_list
    ]

    denominator = sum(c.k_effective for c in results)
    if denominator == 0:
        raise ValueError("neighborhoods are empty: the spaces have no candidates")
    same = sum(c.same_position for c in results)
    shifted = sum(c.shifted for c in results)
    disjoint = sum(c.disjoint for c in results)
    return NeighborhoodReport(
        k=k,
        core_tokens=core_list,
        fraction_same_position=same / denominator,
        fraction_shifted=shifted / denominator,
        fraction_disjoint=disjoint / denominator,
        cores=results,
    )
