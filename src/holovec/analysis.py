"""Orthogonality statistics and neighborhood-preservation analysis.

Two methodologies over key -> vector spaces: sampled disjoint-pair cosine
statistics (how close to orthogonal a vocabulary is), and top-k neighborhood
comparison between an original and a compressed space (how well semantic
neighborhoods survive compression).

Every analysis reads a `codebook.VectorSpace`: the keys in sorted order
plus one matrix of unit-norm rows, built once on first use. Scans are exact
matrix-vector products over that matrix; vocabularies at desk scale do not
need approximate indexing. Building the space once and reusing it makes
repeated `k_nearest` queries cost one product each, plus an exact re-score of
the few rows at the top-k boundary. The product only screens: it reads
`VectorSpace.screen`, a float32 copy of the unit rows built once per space
(half the matrix's bytes again in memory). A partition, not a sort, finds the
boundary, and rows within the screen's rounding error of it are scored again
in float64 by a per-row product whose summation order is fixed. So results
are exact, the same as those of a float64 screen, identical vectors tie
exactly, and ties go to the smaller key.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from ._fileio import write_document
from .codebook import BLOCK_ROWS, DEFAULT_SEED, VectorSpace
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
    "VectorSpace",
    "classify_neighborhoods",
    "k_nearest",
    "pairwise_cosine_stats",
    "sample_orthogonality",
]

DEFAULT_K = 10
DEFAULT_THRESHOLD = 0.25
DEFAULT_SAMPLE_SIZE = 100_000
HISTOGRAM_BUCKET_WIDTH = 0.05
_MAX_PAIRWISE_KEYS = 20_000  # the most `pairwise_cosine_stats` scans: 2 * 10**8 pairs

SAME_POSITION = "same_position"
SHIFTED = "shifted"
DISJOINT = "disjoint"


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
        write_document(path, "holovec-orthogonality-report", self.to_json_dict())


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
    space = VectorSpace.of(space)
    if len(space) < 2:
        raise ValueError(f"orthogonality sampling needs >= 2 vectors, got {len(space)}")
    if sample_size < 1:
        raise ValueError(f"sample_size must be >= 1, got {sample_size}")
    if not np.isfinite(threshold):  # a report cannot hold NaN or infinity
        raise ValueError(f"threshold must be a finite number, got {threshold}")
    half = len(space) // 2
    clamped = sample_size > half
    size = min(sample_size, half)

    rng = np.random.default_rng(seed)
    picked = rng.choice(len(space), size=2 * size, replace=False)
    first, second = picked[:size], picked[size:]

    unit = space.unit
    cosines = np.empty(size)
    for start in range(0, size, BLOCK_ROWS):
        pairs = slice(start, start + BLOCK_ROWS)
        cosines[pairs] = np.sum(unit[first[pairs]] * unit[second[pairs]], axis=1)
    cosines = np.clip(np.abs(cosines), 0.0, 1.0)
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


def pairwise_cosine_stats(space, threshold: float = DEFAULT_THRESHOLD) -> PairwiseStats:
    """Exhaustive all-pairs |cosine| statistics; refused above 20,000 keys.

    The strict upper triangle of the cosine matrix is reduced one block of
    `BLOCK_ROWS` rows at a time, so memory is O(`BLOCK_ROWS` * n) for n keys,
    not O(n**2).
    """
    space = VectorSpace.of(space)
    if len(space) < 2:
        raise ValueError(f"pairwise scan needs >= 2 vectors, got {len(space)}")
    if len(space) > _MAX_PAIRWISE_KEYS:
        raise ValueError(
            f"exhaustive scan over {len(space)} keys exceeds the {_MAX_PAIRWISE_KEYS}-key "
            "limit; use sample_orthogonality instead"
        )
    if not np.isfinite(threshold):
        raise ValueError(f"threshold must be a finite number, got {threshold}")
    unit = space.unit
    below, largest = 0, 0.0
    for start in range(0, len(unit), BLOCK_ROWS):
        block = unit[start : start + BLOCK_ROWS] @ unit[start:].T
        # row i of the block is key start + i; keep the columns past it
        above = np.arange(block.shape[1]) > np.arange(len(block))[:, None]
        upper = np.abs(block[above])
        below += int(np.count_nonzero(upper < threshold))
        largest = float(upper.max(initial=largest))
    pairs = len(unit) * (len(unit) - 1) // 2
    return PairwiseStats(pairs=pairs, fraction_below=below / pairs, max_abs_cosine=largest)


# ---------------------------------------------------------------------------
# Neighborhoods
# ---------------------------------------------------------------------------


def _top_rows(
    sims: np.ndarray,
    exclude: int,
    k: int,
    unit: np.ndarray,
    query: np.ndarray,
    rows: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Positions of the k largest cosines to ``query``, leaving out ``exclude``,
    and those cosines.

    ``sims`` screens: it is one BLAS product of ``query`` with the rows of
    ``unit`` (row ``rows[i]`` at position i, or row i when ``rows`` is None),
    in float64 or over both rounded to float32. BLAS sums a row in an order
    that depends on where the row sits, so two identical rows can screen one
    bit apart. Only the positions near the top-k boundary are re-scored in
    float64, with a per-row product whose order is fixed, and the k are
    picked by those scores. Positions follow sorted keys, so the stable sort
    breaks exact ties by key.

    Any computed dot product of two n-vectors of norm 1 lies within
    gamma_n(u) = n*u/(1 - n*u) of the exact one, u the unit roundoff,
    whatever the order of summation (Higham, Accuracy and Stability of
    Numerical Algorithms, sec. 3.1). A re-scored cosine is thus within
    gamma_n(u64) of the exact one, u64 = 2**-53. A float64 screen is within
    gamma_n(u64) too. A float32 screen first rounds both unit rows, which
    moves their dot product by at most about 2*u32, u32 = 2**-24, and then
    sums in float32, which adds gamma_n(u32), about n*u32: it lies within
    about (n + 2)*u32 of the exact cosine. Call that screen error d. At least
    k positions besides ``exclude`` screen at or above the (k+1)-th largest
    screened cosine, so each winner re-scores at most d + gamma_n(u64), and
    screens at most 2*d + 2*gamma_n(u64), below it.

    The slack is 4*n*eps of the screen's dtype. In float64 that is 8*n*u64,
    twice the 4*gamma_n(u64) needed, which covers rows whose norms are a few
    ulps off 1. In float32 it is 8*n*u32. That exceeds the 2*(n + 2)*u32
    needed by (6*n - 4)*u32, a factor of 2 or more for every n >= 2, the
    dimension floor, and at least 8*u32. The spare covers what the estimate
    leaves out: 2*gamma_n(u64), terms of order n**2*u32**2, values that
    become subnormal in float32, which add at most n*2**-149 absolute error,
    and the float32 rounding of the threshold ``boundary - slack``, at most
    u32.
    """
    count = len(sims)
    if k + 1 < count:
        cut = count - k - 1
        boundary = np.partition(sims, cut)[cut]
        slack = 4 * len(query) * np.finfo(sims.dtype).eps
        picked = np.flatnonzero(sims >= boundary - slack)
    else:
        picked = np.arange(count)
    picked = picked[picked != exclude]
    exact = np.einsum("ij,j->i", unit[picked if rows is None else rows[picked]], query)
    order = np.argsort(-exact, kind="stable")[:k]
    return picked[order], exact[order]


def k_nearest(space, core: str, k: int = DEFAULT_K) -> list[tuple[str, float]]:
    """The k keys nearest to ``core`` by cosine, excluding the core itself.

    Ordered by non-increasing cosine; exact ties resolve to the
    lexicographically smaller key. Returns fewer than k entries only when
    the space itself is smaller. Pass a `VectorSpace` built once (such as
    ``vocab.as_space()``) to run many queries over one normalised matrix.
    """
    space = VectorSpace.of(space)
    row = space.index.get(core)
    if row is None:
        raise UnknownKeyError(f"core {core!r} is not in the space")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return _nearest(space, row, k)[1]


def _nearest(space: VectorSpace, row: int, k: int) -> tuple[np.ndarray, list[tuple[str, float]]]:
    """Rows of the k keys nearest to key ``row``, and those keys with their cosines.

    The query is the key's own unit row, so `k_nearest` and the original side
    of `classify_neighborhoods` score a key the same, bit for bit. The rows
    are screened in float32 and the boundary rows re-scored in float64.
    """
    screen = space.screen
    rows, cosines = _top_rows(screen @ screen[row], row, k, space.unit, space.unit[row])
    return rows, list(zip([space.sorted_keys[i] for i in rows], cosines.tolist()))


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
        write_document(path, "holovec-neighborhood-report", self.to_json_dict())


def _cosine_matrix(unit_rows: np.ndarray) -> list[list[float]]:
    return (unit_rows @ unit_rows.T).tolist()


def _classify_core(
    core_row: int,
    orig: VectorSpace,
    comp: VectorSpace,
    segments: tuple[np.ndarray, np.ndarray, np.ndarray],
    k: int,
) -> CoreNeighborhood:
    words = orig.sorted_keys  # word i owns segment i
    seg_rows, starts, seg_word = segments
    orig_rows, orig_nbrs = _nearest(orig, core_row, k)

    # compressed-space neighborhood: each word is represented by its composite
    # vector most similar to the core's own (lexicographically first) vector;
    # of equally similar composites, the first in the segment (smallest key)
    anchor = seg_rows[starts[core_row]]
    query = comp.unit[anchor]
    seg_sims = (comp.unit @ query)[seg_rows]
    best = np.maximum.reduceat(seg_sims, starts)
    at_best = np.flatnonzero(seg_sims == best[seg_word])
    reps = seg_rows[at_best[np.searchsorted(at_best, starts)]]
    comp_words, cosines = _top_rows(best, core_row, k, comp.unit, query, reps)
    comp_nbrs = list(zip([words[i] for i in comp_words], cosines.tolist()))

    rank_orig = {key: rank for rank, (key, _) in enumerate(orig_nbrs, 1)}
    rank_comp = {key: rank for rank, (key, _) in enumerate(comp_nbrs, 1)}
    records = []
    for key, ro in rank_orig.items():
        rc = rank_comp.get(key)
        kind = DISJOINT if rc is None else SAME_POSITION if ro == rc else SHIFTED
        records.append(NeighborRecord(key, ro, rc, kind))
    records += [
        NeighborRecord(key, None, rc, DISJOINT)
        for key, rc in rank_comp.items()
        if key not in rank_orig
    ]
    same = sum(r.classification == SAME_POSITION for r in records)
    shifted = sum(r.classification == SHIFTED for r in records)
    k_eff = len(orig_nbrs)
    disjoint = k_eff - (same + shifted)
    return CoreNeighborhood(
        core=words[core_row],
        records=records,
        original_neighbors=orig_nbrs,
        compressed_neighbors=comp_nbrs,
        original_cosine_matrix=_cosine_matrix(orig.unit[np.r_[core_row, orig_rows]]),
        compressed_cosine_matrix=_cosine_matrix(
            comp.unit[np.r_[anchor, reps[comp_words]]]
        ),
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
    orig = VectorSpace.of(original)
    comp = VectorSpace.of(compressed)
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if not cores:
        raise ValueError("classify_neighborhoods() requires at least one core")
    core_list = sorted(set(cores))

    word_rows: dict[str, list[int]] = {}
    for row, key in enumerate(comp.sorted_keys):
        word = key if compressed_key_to_word is None else compressed_key_to_word.get(key)
        if word is None:
            raise UnknownKeyError(f"composite key {key!r} has no word-type mapping")
        word_rows.setdefault(word, []).append(row)

    if orig.index.keys() != word_rows.keys():
        offender = sorted(orig.index.keys() ^ word_rows.keys())[0]
        raise UnknownKeyError(f"key {offender!r} is not resolvable in both spaces")
    for core in core_list:
        if core not in orig.index:
            raise UnknownKeyError(f"core {core!r} is not resolvable in both spaces")

    # composite rows grouped by word, words in sorted order and keys sorted within
    lengths = [len(word_rows[word]) for word in orig.sorted_keys]
    segments = (
        np.array([row for word in orig.sorted_keys for row in word_rows[word]]),
        np.cumsum([0] + lengths[:-1]),
        np.repeat(np.arange(len(lengths)), lengths),
    )
    results = [_classify_core(orig.index[core], orig, comp, segments, k) for core in core_list]

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
