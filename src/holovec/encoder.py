"""Compressed-vocabulary construction from an embedding table plus annotations.

Each annotated token (surface, POS tag, optional NER type) becomes one
fixed-dimension vector: a frame label plus slot-label bindings for the
token embedding, the POS filler, and the NER filler when present, averaged
over the number of summands. Tokens sharing the lowercased surface, POS
tag, and NER type collapse onto one composite key.

Binding is linear, so a block of tokens is encoded at once: the token
fillers of the block are bound to the token slot in one batched transform,
and the POS and NER terms are gathered from the codebook's precomputed
bound terms.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping

import numpy as np

from . import hrr
from ._fileio import atomic_write_lines, read_document, read_lines, write_document
from .codebook import BLOCK_ROWS, SLOT_TOKEN, Codebook, VectorSpace
from .errors import (
    DimensionMismatchError,
    IntegrityError,
    ParseError,
    UnknownTagError,
)

__all__ = [
    "AnnotatedToken",
    "BLOCK_ROWS",
    "BuildStats",
    "CompressedVocabulary",
    "FILLER_EXACT",
    "FILLER_LOWERCASED",
    "FILLER_UNKNOWN",
    "VocabEntry",
    "build_vocabulary",
    "composite_key",
    "load_vocabulary",
    "lookup_filler",
    "read_annotations",
    "read_embeddings",
    "read_vectors",
    "write_sidecar",
    "write_vectors",
    "write_vocabulary",
]

FILLER_EXACT = "exact"
FILLER_LOWERCASED = "lowercased"
FILLER_UNKNOWN = "unknown"

_SIDECAR_FORMAT = "holovec-vocabulary-meta"
# the JSON types each sidecar record field may take
_ENTRY_FIELDS = {
    "component_count": (int,),
    "filler_source": (str,),
    "word_type": (str,),
    "pos_tag": (str,),
    "ner_type": (str, type(None)),
}
_STATS_FIELDS = dict.fromkeys(
    ("input_tokens", "distinct_word_types", "distinct_keys", "unknown_filler_entries"), (int,)
)
_TYPE_NAMES = {int: "an integer", str: "a string", type(None): "null"}


@dataclass(frozen=True)
class AnnotatedToken:
    """One token occurrence; ``line`` is source-file provenance for diagnostics."""

    surface: str
    pos_tag: str
    ner_type: str | None = None
    line: int | None = None

    def __post_init__(self):
        if not self.surface:
            raise ValueError("token surface must be non-empty")
        # the vector format ends a key at a space and a record at a line
        # break, and a reader drops a byte-order mark that starts the file
        if " " in self.surface:
            raise ValueError(f"surface {self.surface!r} contains a space")
        if "\n" in self.surface or "\r" in self.surface:
            raise ValueError(f"surface {self.surface!r} contains a line break")
        if self.surface.startswith("\ufeff"):
            raise ValueError(f"surface {self.surface!r} starts with a byte-order mark")
        if not self.pos_tag:
            raise ValueError(f"token {self.surface!r} has an empty POS tag")
        if self.ner_type == "":
            raise ValueError(f"token {self.surface!r} has an empty NER type")


@dataclass(frozen=True)
class VocabEntry:
    vector: np.ndarray
    filler_source: str
    word_type: str
    pos_tag: str
    ner_type: str | None

    @property
    def component_count(self) -> int:
        """m, the summands averaged into the vector: frame, token and POS, plus NER when set."""
        return 3 if self.ner_type is None else 4


@dataclass
class BuildStats:
    input_tokens: int = 0
    distinct_word_types: int = 0
    distinct_keys: int = 0
    unknown_filler_entries: int = 0

    @property
    def growth_ratio(self) -> float | None:
        if self.distinct_word_types == 0:
            return None
        return self.distinct_keys / self.distinct_word_types


@dataclass
class CompressedVocabulary:
    """Entries by composite key; ``stats`` is computed from them and ``input_tokens``."""

    dimension: int
    entries: dict[str, VocabEntry] = field(default_factory=dict)
    input_tokens: int = 0

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def stats(self) -> BuildStats:
        return BuildStats(input_tokens=self.input_tokens, **_entry_counts(self.entries))

    def as_space(self) -> VectorSpace:
        """Snapshot of the key -> vector map for similarity scans.

        Each call builds a new `VectorSpace`; build it once and reuse it
        across queries, so the space is sorted and normalised only once.
        """
        return VectorSpace({key: entry.vector for key, entry in self.entries.items()})


def composite_key(token: AnnotatedToken) -> str:
    """Lowercased surface, then POS tag, then NER type, with no separators."""
    return token.surface.lower() + token.pos_tag + (token.ner_type or "")


def lookup_filler(
    surface: str, table: Mapping[str, np.ndarray], cb: Codebook
) -> tuple[np.ndarray, str]:
    """Resolve the token filler: exact-case hit, then lowercase, then unknown; a hit
    whose shape is not ``(cb.dimension,)`` raises `DimensionMismatchError`."""
    vec, source = table.get(surface), FILLER_EXACT
    if vec is None:
        vec, source = table.get(surface.lower()), FILLER_LOWERCASED
    if vec is None:
        return cb.unknown_token, FILLER_UNKNOWN
    shape = np.shape(vec)
    if shape != (cb.dimension,):
        found = shape[0] if len(shape) == 1 else shape
        raise DimensionMismatchError(
            f"embedding dimension {found} differs from codebook dimension {cb.dimension}"
        )
    return vec, source


def _tag_rows(token: AnnotatedToken, cb: Codebook) -> tuple[int, int | None]:
    """Rows of the token's POS and NER bound terms in the codebook's tables."""
    pos_row = cb.pos_table.index.get(token.pos_tag)
    ner_row = None if token.ner_type is None else cb.ner_table.index.get(token.ner_type)
    checks = (("POS tag", token.pos_tag, pos_row), ("NER type", token.ner_type, ner_row))
    for kind, tag, row in checks:
        if tag is not None and row is None:
            where = f"line {token.line}" if token.line is not None else "token"
            raise UnknownTagError(f"{where}: {kind} {tag!r} is not in the codebook")
    return pos_row, ner_row


def _bind_rows(
    fillers: np.ndarray, tag_rows: list[tuple[int, int | None]], cb: Codebook
) -> np.ndarray:
    """Compress a block: per row, (frame + T⊛filler + P⊛pos [+ N⊛ner]) / m.

    The terms are summed left to right, so a row comes out bit-identical
    whatever block it is bound in.
    """
    pos_rows = [pos for pos, _ in tag_rows]
    tagged = [i for i, (_, ner) in enumerate(tag_rows) if ner is not None]
    out = hrr.circular_convolve_fft(cb.slot_labels[SLOT_TOKEN], fillers)
    out += cb.frame_label
    out += cb.pos_table.bound[pos_rows]
    out[tagged] += cb.ner_table.bound[[tag_rows[i][1] for i in tagged]]
    counts = np.full(len(tag_rows), 3)
    counts[tagged] = 4
    out /= counts[:, None]
    return out


def build_vocabulary(
    tokens: Iterable[AnnotatedToken],
    table: Mapping[str, np.ndarray],
    cb: Codebook,
) -> CompressedVocabulary:
    """One entry per distinct composite key; the first occurrence wins.

    Vectors are computed once per key, in blocks of `BLOCK_ROWS` keys, so
    the result is independent of stream order beyond which occurrence is
    first. Every table vector bound must have the codebook's dimension.
    """

    firsts: dict[str, tuple[AnnotatedToken, tuple[int, int | None]]] = {}
    total = 0
    for token in tokens:
        total += 1
        tag_rows = _tag_rows(token, cb)  # validate tags eagerly, with line diagnostics
        key = composite_key(token)
        if key not in firsts:
            firsts[key] = (token, tag_rows)

    items = list(firsts.items())
    entries: dict[str, VocabEntry] = {}
    for start in range(0, len(items), BLOCK_ROWS):
        block = items[start : start + BLOCK_ROWS]
        found = [lookup_filler(token.surface, table, cb) for _, (token, _) in block]
        vectors = _bind_rows(
            np.stack([filler for filler, _ in found]), [rows for _, (_, rows) in block], cb
        )
        for (key, (token, _)), (_, source), vector in zip(block, found, vectors):
            entries[key] = VocabEntry(
                vector, source, token.surface.lower(), token.pos_tag, token.ner_type
            )
    return CompressedVocabulary(cb.dimension, entries, input_tokens=total)


def _entry_counts(entries: dict[str, VocabEntry]) -> dict[str, int]:
    """The build stats that follow from the entries: all of them but ``input_tokens``."""
    return {
        "distinct_word_types": len({e.word_type for e in entries.values()}),
        "distinct_keys": len(entries),
        "unknown_filler_entries": sum(e.filler_source == FILLER_UNKNOWN for e in entries.values()),
    }


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------


def _is_number(field: str) -> bool:
    try:
        float(field)
    except ValueError:
        return False
    return True


def read_vectors(
    path: str | Path, expected_dimension: int | None = None
) -> tuple[int, dict[str, np.ndarray]]:
    """Read a text vector file: ``key v1 v2 ... vn`` per line, single spaces.

    A first line of exactly two non-negative integers is a word2vec text
    header, ``count dimension``: the dimension is taken from it and the
    record count checked against it. Otherwise the dimension is inferred
    from the first record unless ``expected_dimension`` pins it. Once the
    dimension n is known, a record's values are its last n fields and its
    key is the fields before them joined by single spaces, unless one of
    those after the first reads as a number: such a record has too many
    values. Lines come from `read_lines`, so a leading byte-order mark is
    skipped, and a malformed line, bytes that are not UTF-8 included, is
    reported by number.
    """
    path = Path(path)
    dimension = expected_dimension
    declared = None
    entries: dict[str, np.ndarray] = {}
    for lineno, line in read_lines(path):
        fields = line.split(" ")
        if lineno == 1 and len(fields) == 2 and all(f.isascii() and f.isdigit() for f in fields):
            declared, header_dimension = int(fields[0]), int(fields[1])
            if dimension is not None and header_dimension != dimension:
                raise ParseError(
                    f"{path}:1: header declares dimension {header_dimension}, expected {dimension}"
                )
            dimension = header_dimension
            continue
        if len(fields) < 2:
            raise ParseError(f"{path}:{lineno}: expected 'key value...' fields")
        if not fields[0]:
            raise ParseError(f"{path}:{lineno}: empty key")
        if dimension is None:
            dimension = len(fields) - 1
        # GloVe 840B has keys with spaces, so the key is every field before
        # the last n; a number among its words marks too many values instead
        split = len(fields) - dimension
        if split < 1 or dimension < 1 or any(map(_is_number, fields[1:split])):
            raise ParseError(
                f"{path}:{lineno}: expected {dimension} values, got {len(fields) - 1}"
            )
        key = " ".join(fields[:split])
        try:
            vec = np.asarray(fields[split:], dtype=np.float64)
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: non-numeric value ({exc})") from exc
        if not np.all(np.isfinite(vec)):
            raise ParseError(f"{path}:{lineno}: non-finite value")
        if key in entries:
            raise IntegrityError(f"{path}:{lineno}: duplicate key {key!r}")
        entries[key] = vec
    if declared is not None and declared != len(entries):
        raise ParseError(f"{path}: header declares {declared} records, file has {len(entries)}")
    if dimension is None:
        raise ParseError(f"{path}: file contains no records")
    return dimension, entries


def read_embeddings(path: str | Path) -> dict[str, np.ndarray]:
    """The table of a text vector file: each key's vector, as `read_vectors` reads them."""
    return read_vectors(path)[1]


def write_vectors(path: str | Path, entries: dict[str, np.ndarray]) -> None:
    """Write the text vector format with full-precision decimal values, one record at a time."""
    atomic_write_lines(
        path, (f"{key} {' '.join(map(repr, vec.tolist()))}\n" for key, vec in entries.items())
    )


def read_annotations(path: str | Path) -> list[AnnotatedToken]:
    """Read tab-separated annotations: surface, POS tag, NER type or ``-``.

    Lines come from `read_lines`. Blank and whitespace-only lines and a
    leading byte-order mark are ignored; every token keeps its 1-based line
    number, and a line `AnnotatedToken` rejects is reported with it.
    """
    path = Path(path)
    tokens: list[AnnotatedToken] = []
    for lineno, line in read_lines(path):
        if not line.strip():
            continue
        fields = line.split("\t")
        if len(fields) != 3:
            raise ParseError(
                f"{path}:{lineno}: expected 3 tab-separated fields, got {len(fields)}"
            )
        surface, pos_tag, ner = fields
        try:
            tokens.append(
                AnnotatedToken(
                    surface=surface,
                    pos_tag=pos_tag,
                    ner_type=None if ner == "-" else ner,
                    line=lineno,
                )
            )
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: {exc}") from exc
    return tokens


def write_vocabulary(path: str | Path, vocab: CompressedVocabulary) -> None:
    """Write compressed vectors keyed by composite key, in build order.

    A vector whose shape is not ``(vocab.dimension,)``, or that holds a NaN or
    an infinity, raises `IntegrityError` before any file is written.
    """
    for key, entry in vocab.entries.items():
        shape, where = np.shape(entry.vector), f"{path}: entry {key!r}: vector"
        if shape != (vocab.dimension,):
            raise IntegrityError(f"{where} has shape {shape}, expected ({vocab.dimension},)")
        if not np.isfinite(entry.vector).all():
            raise IntegrityError(f"{where} holds a NaN or an infinity")
    write_vectors(path, {key: entry.vector for key, entry in vocab.entries.items()})


def write_sidecar(path: str | Path, vocab: CompressedVocabulary) -> None:
    """Write the vocabulary metadata document (per-key facts plus build stats); an entry
    `load_vocabulary` would reject raises its `IntegrityError` before any file is written."""
    records = {
        key: {name: getattr(e, name) for name in _ENTRY_FIELDS}
        for key, e in vocab.entries.items()
    }
    for key, record in records.items():
        _check_entry(key, record, f"{path}: entry {key!r}")
    st = vocab.stats
    body = {
        "dimension": vocab.dimension,
        "stats": {
            "input_tokens": st.input_tokens,
            "distinct_word_types": st.distinct_word_types,
            "distinct_keys": st.distinct_keys,
            "growth_ratio": st.growth_ratio,
            "unknown_filler_entries": st.unknown_filler_entries,
        },
        "entries": records,
    }
    write_document(path, _SIDECAR_FORMAT, body)


def _check_record(record, fields: dict[str, tuple[type, ...]], where: str) -> None:
    """Raise `IntegrityError` unless ``record`` is an object with every field, of its types."""
    if type(record) is not dict:
        raise IntegrityError(f"{where}: must be an object")
    for name, types in fields.items():
        if name not in record:
            raise IntegrityError(f"{where}: missing field {name!r}")
        if type(record[name]) not in types:
            expected = " or ".join(_TYPE_NAMES[t] for t in types)
            raise IntegrityError(f"{where}: {name} must be {expected}")


def _check_entry(key: str, entry, where: str) -> None:
    """Check an entry's fields and types, its component count, and its key.

    m must be 3 without an NER type and 4 with one, and ``key`` must be
    ``word_type + pos_tag + (ner_type or "")``.
    """
    _check_record(entry, _ENTRY_FIELDS, where)
    m, ner_type = entry["component_count"], entry["ner_type"]
    expected = 3 if ner_type is None else 4
    if m != expected:
        bound = "no NER type" if ner_type is None else f"NER type {ner_type!r}"
        raise IntegrityError(f"{where}: component_count must be {expected} with {bound}, got {m}")
    if entry["filler_source"] not in (FILLER_EXACT, FILLER_LOWERCASED, FILLER_UNKNOWN):
        raise IntegrityError(f"{where}: unknown filler_source {entry['filler_source']!r}")
    spelled = entry["word_type"] + entry["pos_tag"] + (ner_type or "")
    if key != spelled:
        raise IntegrityError(f"{where}: word_type + pos_tag + ner_type spell {spelled!r}")


def load_vocabulary(
    vectors_path: str | Path, sidecar_path: str | Path
) -> CompressedVocabulary:
    """Rebuild a CompressedVocabulary from its vector file and sidecar.

    The sidecar is read and checked first. When it lists no entries, an
    empty vector file reads as the empty vocabulary of the sidecar's dimension.
    """
    doc = read_document(sidecar_path, _SIDECAR_FORMAT, ("dimension", "stats", "entries"))
    declared, meta, st = doc["dimension"], doc["entries"], doc["stats"]
    if type(declared) is not int or declared < 1:
        raise IntegrityError(f"{sidecar_path}: dimension must be a positive integer")
    _check_record(st, _STATS_FIELDS, f"{sidecar_path}: stats")
    _check_record(meta, {}, f"{sidecar_path}: entries")
    for key, entry in meta.items():
        _check_entry(key, entry, f"{sidecar_path}: entry {key!r}")

    dimension, vectors = read_vectors(vectors_path, None if meta else declared)
    if declared != dimension:
        raise IntegrityError(
            f"{sidecar_path}: declares dimension {declared}, vector file has {dimension}"
        )
    missing = set(vectors) - set(meta)
    if missing:
        raise IntegrityError(
            f"{sidecar_path}: no metadata for key {sorted(missing)[0]!r}"
        )
    extra = set(meta) - set(vectors)
    if extra:
        raise IntegrityError(
            f"{sidecar_path}: metadata for absent key {sorted(extra)[0]!r}"
        )
    # component_count was checked against ner_type, from which the entry derives it
    entries = {
        key: VocabEntry(vec, **{n: meta[key][n] for n in _ENTRY_FIELDS if n != "component_count"})
        for key, vec in vectors.items()
    }
    for name, count in _entry_counts(entries).items():
        if st[name] != count:
            raise IntegrityError(
                f"{sidecar_path}: stats: {name} is {st[name]}, entries give {count}"
            )
    return CompressedVocabulary(dimension, entries, input_tokens=st["input_tokens"])
