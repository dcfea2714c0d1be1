"""Recover POS, NER, and token identity from compressed vectors.

Unbinding multiplies the compressed vector back up by its component count,
subtracts the frame label (known, so removing it cuts noise), and
correlates with the slot label; cleanup against a candidate set then names
the filler. `decode_vocabulary` does this for blocks of vectors at once: one
batched correlation per slot and one product with the codebook's
unit-normalised filler matrix. All functions are pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import hrr
from .codebook import BLOCK_ROWS, SLOT_TOKEN, Codebook, cleanup, cleanup_rows
from .encoder import CompressedVocabulary, EmbeddingTable
from .errors import DimensionMismatchError

__all__ = [
    "DecodedToken",
    "decode_and_score",
    "decode_attributes",
    "decode_token_identity",
    "decode_vocabulary",
    "unbind_slot",
]


@dataclass(frozen=True)
class DecodedToken:
    pos_tag: str
    pos_similarity: float
    ner_type: str | None = None
    ner_similarity: float | None = None


def unbind_slot(
    compressed: np.ndarray,
    slot_label: np.ndarray,
    m: int,
    frame_label: np.ndarray,
) -> np.ndarray:
    """Estimate a slot's filler: correlate(slot, m * compressed - frame).

    The result is the filler plus crosstalk noise from the other bindings;
    it is not normalized because cleanup's cosine is scale-invariant.
    """
    if m < 1:
        raise ValueError(f"component count must be >= 1, got {m}")
    compressed = np.asarray(compressed, dtype=np.float64)
    return hrr.circular_correlate_fft(slot_label, m * compressed - frame_label)


def decode_vocabulary(
    vectors: Sequence[np.ndarray] | np.ndarray,
    m: Sequence[int] | np.ndarray | None,
    cb: Codebook,
) -> list[DecodedToken]:
    """Decode the POS tag, and the NER type, of every vector, in blocks.

    With component counts ``m`` (3 or 4 per vector) the frame is removed
    from m * vector before unbinding, and the NER type is decoded only
    where m is 4. With ``m`` None the counts are unknown: vectors are
    unbound as they are, and both tags are decoded for every vector.
    """
    if m is not None:
        m = np.asarray(m)
        if m.shape != (len(vectors),):
            raise ValueError(f"{len(vectors)} vectors but component counts of shape {m.shape}")
        bad = m[(m != 3) & (m != 4)]
        if bad.size:
            raise ValueError(f"component count must be 3 or 4, got {bad[0]}")
    pos, ner = cb.pos_table, cb.ner_table
    decoded: list[DecodedToken] = []
    for start in range(0, len(vectors), BLOCK_ROWS):
        rows = np.asarray(vectors[start : start + BLOCK_ROWS], dtype=np.float64)
        if rows.ndim != 2 or rows.shape[1] != cb.dimension:
            raise DimensionMismatchError(
                f"vectors of shape {rows.shape[1:]} differ from codebook dimension {cb.dimension}"
            )
        if m is None:
            residual = rows
            tagged = np.arange(len(rows))
        else:
            counts = m[start : start + BLOCK_ROWS]
            residual = counts[:, None] * rows - cb.frame_label
            tagged = np.flatnonzero(counts == 4)
        pos_tags, pos_sims = cleanup_rows(hrr.circular_correlate_fft(pos.slot_label, residual), pos)
        ner_types: list[str | None] = [None] * len(rows)
        ner_sims: list[float | None] = [None] * len(rows)
        if tagged.size:
            found, sims = cleanup_rows(
                hrr.circular_correlate_fft(ner.slot_label, residual[tagged]), ner
            )
            for i, tag, sim in zip(tagged, found, sims):
                ner_types[i], ner_sims[i] = tag, float(sim)
        decoded += [
            DecodedToken(*fields)
            for fields in zip(pos_tags, map(float, pos_sims), ner_types, ner_sims)
        ]
    return decoded


def decode_and_score(
    vocab: CompressedVocabulary, cb: Codebook
) -> tuple[list[DecodedToken], tuple[int, int, int, int]]:
    """Decode every entry with its own m, and score it against its own tags.

    Returns the decoded entries in vocabulary order, and the hit counts
    (POS hits, entries, NER hits, m=4 entries): POS is scored on every
    entry, NER only where one was bound.
    """
    entries = list(vocab.entries.values())
    decoded = decode_vocabulary(
        [e.vector for e in entries], [e.component_count for e in entries], cb
    )
    pairs = list(zip(entries, decoded))
    tagged = [(e, d) for e, d in pairs if e.component_count == 4]
    pos_ok = sum(d.pos_tag == e.pos_tag for e, d in pairs)
    ner_ok = sum(d.ner_type == e.ner_type for e, d in tagged)
    return decoded, (pos_ok, len(pairs), ner_ok, len(tagged))


def decode_attributes(compressed: np.ndarray, m: int, cb: Codebook) -> DecodedToken:
    """Decode the POS tag, and the NER type when m indicates one was bound."""
    return decode_vocabulary([compressed], [m], cb)[0]


def decode_token_identity(
    compressed: np.ndarray, m: int, cb: Codebook, table: EmbeddingTable
) -> tuple[str, float]:
    """Best-matching table entry for the token slot, with its similarity.

    No thresholding happens here; the caller judges whether the similarity
    is convincing. Pre-trained embeddings are not mutually quasi-orthogonal,
    so identity decoding is noisier than attribute decoding. Cleanup runs
    over ``table.space``, normalised on the first call and then reused.
    """
    query = unbind_slot(compressed, cb.slot_labels[SLOT_TOKEN], m, cb.frame_label)
    return cleanup(query, table.space)
