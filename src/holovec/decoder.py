"""Recover POS, NER, and token identity from compressed vectors; this module owns cleanup.

Unbinding multiplies the compressed vector back up by its component count,
subtracts the frame label (known, so removing it cuts noise), and
correlates with the slot label; cleanup against a candidate set then names
the filler. `decode_vocabulary` (POS and NER) and `decode_token_identity`
(the token) do both for blocks of vectors at once, in one helper, against
the candidates' unit rows, derived once per call. All functions are pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

import numpy as np

from . import hrr
from .codebook import BLOCK_ROWS, SLOT_TOKEN, Codebook, VectorSpace
from .encoder import CompressedVocabulary
from .errors import DimensionMismatchError

__all__ = [
    "DecodedToken",
    "decode_and_score",
    "decode_token_identity",
    "decode_vocabulary",
]

# the vectors to decode, and their component counts
_Rows = Sequence[np.ndarray] | np.ndarray
_Counts = Sequence[int] | np.ndarray


@dataclass(frozen=True)
class DecodedToken:
    pos_tag: str
    pos_similarity: float
    ner_type: str | None = None
    ner_similarity: float | None = None


def _residuals(
    vectors: _Rows, m: _Counts | None, cb: Codebook
) -> Iterator[tuple[np.ndarray, np.ndarray | None]]:
    """Yield each block of `BLOCK_ROWS` vectors as what unbinding correlates, and its
    counts: m * vector - frame for component counts ``m`` (3 or 4 per vector), or,
    with ``m`` None, the vector as it is and counts None.
    """
    if m is not None:
        m = np.asarray(m)
        if m.shape != (len(vectors),):
            raise ValueError(f"{len(vectors)} vectors but component counts of shape {m.shape}")
        bad = m[(m != 3) & (m != 4)]
        if bad.size:
            raise ValueError(f"component count must be 3 or 4, got {bad[0]}")
    for start in range(0, len(vectors), BLOCK_ROWS):
        rows = np.asarray(vectors[start : start + BLOCK_ROWS], dtype=np.float64)
        if rows.ndim != 2 or rows.shape[1] != cb.dimension:
            raise DimensionMismatchError(
                f"vectors of shape {rows.shape[1:]} differ from codebook dimension {cb.dimension}"
            )
        if m is None:
            yield rows, None
        else:
            counts = m[start : start + BLOCK_ROWS]
            yield counts[:, None] * rows - cb.frame_label, counts


def _cleanup(
    slot_label: np.ndarray, residual: np.ndarray, unit: np.ndarray, keys: Sequence[str]
) -> tuple[list[str], np.ndarray]:
    """Unbind ``slot_label`` from each ``residual`` row and name the nearest of ``keys`` by
    cosine, over their ``unit`` rows in the same order, with that cosine; the first of
    equal maxima wins."""
    estimates = hrr.circular_correlate_fft(slot_label, residual)
    norms = np.linalg.norm(estimates, axis=1)
    if np.any(norms == 0.0):
        raise ValueError("an unbound slot estimate has zero norm")
    sims = (estimates @ unit.T) / norms[:, None]
    best = np.argmax(sims, axis=1)
    return [keys[i] for i in best], sims[np.arange(len(best)), best]


def decode_vocabulary(vectors: _Rows, m: _Counts | None, cb: Codebook) -> list[DecodedToken]:
    """Decode the POS tag, and the NER type, of every vector, in blocks.

    With component counts ``m`` (3 or 4 per vector) the frame is removed
    from m * vector before unbinding, and the NER type is decoded only
    where m is 4. With ``m`` None the counts are unknown: vectors are
    unbound as they are, and both tags are decoded for every vector.
    """
    pos, ner = cb.pos_table, cb.ner_table
    pos_unit, ner_unit = pos.unit_rows(), ner.unit_rows()  # once for every block
    decoded: list[DecodedToken] = []
    for residual, counts in _residuals(vectors, m, cb):
        tagged = np.arange(len(residual)) if counts is None else np.flatnonzero(counts == 4)
        pos_tags, pos_sims = _cleanup(pos.slot_label, residual, pos_unit, pos.sorted_keys)
        ner_types: list[str | None] = [None] * len(residual)
        ner_sims: list[float | None] = [None] * len(residual)
        if tagged.size:
            found, sims = _cleanup(ner.slot_label, residual[tagged], ner_unit, ner.sorted_keys)
            for i, tag, sim in zip(tagged, found, sims):
                ner_types[i], ner_sims[i] = tag, float(sim)
        decoded += map(DecodedToken, pos_tags, map(float, pos_sims), ner_types, ner_sims)
    return decoded


def decode_and_score(
    vocab: CompressedVocabulary, cb: Codebook
) -> tuple[list[DecodedToken], tuple[int, int, int, int]]:
    """Decode every key with its own m, and score it against its own tags.

    Returns the decoded keys in vocabulary order, and the hit counts
    (POS hits, keys, NER hits, m=4 keys): POS is scored on every key, NER
    only where one was bound.
    """
    decoded = decode_vocabulary(vocab.vectors, vocab.component_counts, cb)
    pos_ok = sum(d.pos_tag == tag for d, tag in zip(decoded, vocab.pos_tags))
    tagged = [(d, ner) for d, ner in zip(decoded, vocab.ner_types) if ner is not None]
    ner_ok = sum(d.ner_type == ner for d, ner in tagged)
    return decoded, (pos_ok, len(decoded), ner_ok, len(tagged))


def decode_token_identity(
    vectors: _Rows, m: _Counts | None, cb: Codebook, table: Mapping[str, np.ndarray]
) -> list[tuple[str, float]]:
    """Best-matching table key for each vector's token slot, with its similarity.

    ``vectors`` and ``m`` are as for `decode_vocabulary`; the table is read through
    `VectorSpace.of`. No thresholding happens here: pre-trained embeddings are not
    quasi-orthogonal, so identity decoding is noisier than attribute decoding.
    """
    space = VectorSpace.of(table)
    if not space:
        raise ValueError("decode_token_identity() requires a non-empty embedding table")
    if space.dimension != cb.dimension:
        raise DimensionMismatchError(
            f"embedding dimension {space.dimension} differs from codebook dimension {cb.dimension}"
        )
    unit = space.unit_rows()  # once for every block
    found: list[tuple[str, float]] = []
    for residual, _ in _residuals(vectors, m, cb):
        keys, sims = _cleanup(cb.slot_labels[SLOT_TOKEN], residual, unit, space.sorted_keys)
        found += zip(keys, sims.tolist())
    return found
