"""Recover POS and NER tags from compressed vectors; this module owns cleanup.

Unbinding multiplies the compressed vector back up by its component count,
subtracts the frame label (known, so removing it cuts noise), and
correlates with the slot label; cleanup against a tag set's fillers then
names the tag. `decode_vocabulary` does both for blocks of vectors at once,
against each filler table's unit rows, derived once per call. All functions
are pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import hrr
from .codebook import BLOCK_ROWS, Codebook, FillerTable
from .encoder import CompressedVocabulary
from .errors import DimensionMismatchError

__all__ = ["DecodedToken", "decode_and_score", "decode_vocabulary"]


@dataclass(frozen=True)
class DecodedToken:
    pos_tag: str
    pos_similarity: float
    ner_type: str | None = None
    ner_similarity: float | None = None


def _cleanup(
    table: FillerTable, unit: np.ndarray, residual: np.ndarray
) -> tuple[list[str], np.ndarray]:
    """Unbind the table's slot label from each ``residual`` row and name the nearest of its
    tags by cosine, over its ``unit`` rows, with that cosine; the first of equal maxima wins."""
    estimates = hrr.circular_correlate_fft(table.slot_label, residual)
    norms = np.linalg.norm(estimates, axis=1)
    if np.any(norms == 0.0):
        raise ValueError("an unbound slot estimate has zero norm")
    sims = (estimates @ unit.T) / norms[:, None]
    best = np.argmax(sims, axis=1)
    return [table.sorted_keys[i] for i in best], sims[np.arange(len(best)), best]


def decode_vocabulary(
    vectors: Sequence[np.ndarray] | np.ndarray,
    m: Sequence[int] | np.ndarray | None,
    cb: Codebook,
) -> list[DecodedToken]:
    """Decode the POS tag, and the NER type, of every vector, in blocks of `BLOCK_ROWS`.

    With component counts ``m`` (3 or 4 per vector) the frame is removed
    from m * vector before unbinding, and the NER type is decoded only
    where m is 4. With ``m`` None the counts are unknown: vectors are
    unbound as they are, and both tags are decoded for every vector.
    """
    pos, ner = cb.pos_table, cb.ner_table
    pos_unit, ner_unit = pos.unit_rows(), ner.unit_rows()  # once for every block
    if m is not None:
        m = np.asarray(m)
        if m.shape != (len(vectors),):
            raise ValueError(f"{len(vectors)} vectors but component counts of shape {m.shape}")
        bad = m[(m != 3) & (m != 4)]
        if bad.size:
            raise ValueError(f"component count must be 3 or 4, got {bad[0]}")
    decoded: list[DecodedToken] = []
    for start in range(0, len(vectors), BLOCK_ROWS):
        rows = np.asarray(vectors[start : start + BLOCK_ROWS], dtype=np.float64)
        if rows.ndim != 2 or rows.shape[1] != cb.dimension:
            raise DimensionMismatchError(
                f"vectors of shape {rows.shape[1:]} differ from codebook dimension {cb.dimension}"
            )
        if m is None:
            residual, tagged = rows, np.arange(len(rows))
        else:
            counts = m[start : start + BLOCK_ROWS]
            residual, tagged = counts[:, None] * rows - cb.frame_label, np.flatnonzero(counts == 4)
        pos_tags, pos_sims = _cleanup(pos, pos_unit, residual)
        ner_types: list[str | None] = [None] * len(residual)
        ner_sims: list[float | None] = [None] * len(residual)
        if tagged.size:
            found, sims = _cleanup(ner, ner_unit, residual[tagged])
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
