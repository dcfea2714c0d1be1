"""Recover POS, NER, and token identity from compressed vectors.

Unbinding multiplies the compressed vector back up by its component count,
subtracts the frame label (known, so removing it cuts noise), and
correlates with the slot label; cleanup against a candidate set then names
the filler. `decode_vocabulary` (POS and NER) and `decode_token_identity`
(the token) do this for blocks of vectors at once: one batched correlation
per slot and one product with a unit-normalised candidate matrix. All
functions are pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

import numpy as np

from . import hrr
from .codebook import BLOCK_ROWS, SLOT_TOKEN, Codebook, VectorSpace, cleanup_rows
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


def decode_vocabulary(vectors: _Rows, m: _Counts | None, cb: Codebook) -> list[DecodedToken]:
    """Decode the POS tag, and the NER type, of every vector, in blocks.

    With component counts ``m`` (3 or 4 per vector) the frame is removed
    from m * vector before unbinding, and the NER type is decoded only
    where m is 4. With ``m`` None the counts are unknown: vectors are
    unbound as they are, and both tags are decoded for every vector.
    """
    pos, ner = cb.pos_table, cb.ner_table
    decoded: list[DecodedToken] = []
    for residual, counts in _residuals(vectors, m, cb):
        tagged = np.arange(len(residual)) if counts is None else np.flatnonzero(counts == 4)
        pos_tags, pos_sims = cleanup_rows(hrr.circular_correlate_fft(pos.slot_label, residual), pos)
        ner_types: list[str | None] = [None] * len(residual)
        ner_sims: list[float | None] = [None] * len(residual)
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
    dimension = space.unit.shape[1]
    if dimension != cb.dimension:
        raise DimensionMismatchError(
            f"embedding dimension {dimension} differs from codebook dimension {cb.dimension}"
        )
    slot = cb.slot_labels[SLOT_TOKEN]
    found: list[tuple[str, float]] = []
    for residual, _ in _residuals(vectors, m, cb):
        keys, sims = cleanup_rows(hrr.circular_correlate_fft(slot, residual), space)
        found += zip(keys, sims.tolist())
    return found
