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

A vocabulary is held as columns, with no object per key: a tuple of keys,
one read-only matrix with a row per key, and a tuple per sidecar field. The
vector file is read into one matrix too, which a `VectorSpace` maps by key.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Mapping

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
    "BuildStats",
    "CompressedVocabulary",
    "FILLER_EXACT",
    "FILLER_LOWERCASED",
    "FILLER_UNKNOWN",
    "build_vocabulary",
    "composite_key",
    "load_vocabulary",
    "lookup_filler",
    "read_annotations",
    "read_vectors",
    "write_sidecar",
    "write_vocabulary",
]

FILLER_EXACT = "exact"
FILLER_LOWERCASED = "lowercased"
FILLER_UNKNOWN = "unknown"
_FILLER_SOURCES = (FILLER_EXACT, FILLER_LOWERCASED, FILLER_UNKNOWN)

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
# a vocabulary's columns: one item per key, in the keys' order
_COLUMNS = ("keys", "word_types", "pos_tags", "ner_types", "filler_sources")
# the sidecar record fields that are columns, in the columns' order
_COLUMN_FIELDS = ("word_type", "pos_tag", "ner_type", "filler_source")


def _key_fault(key: str) -> str | None:
    """Why the text vector format cannot hold ``key``, or None: it ends a key at a space and
    a record at a line break, and a reader drops a byte-order mark that starts the file."""
    faults = {
        "is empty": not key,
        "contains a space": " " in key,
        "contains a line break": "\n" in key or "\r" in key,
        "starts with a byte-order mark": key.startswith("\ufeff"),
    }
    return next((fault for fault, found in faults.items() if found), None)


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
        fault = _key_fault(self.surface)
        if fault:
            raise ValueError(f"surface {self.surface!r} {fault}")
        if not self.pos_tag:
            raise ValueError(f"token {self.surface!r} has an empty POS tag")
        if self.ner_type == "":
            raise ValueError(f"token {self.surface!r} has an empty NER type")


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


@dataclass(frozen=True, eq=False)
class CompressedVocabulary:
    """Columns, item i of each for key i: ``vectors`` row i, and the sidecar fields.

    The columns are stored as tuples and ``vectors`` as a read-only float64
    matrix, a copy of one that can still be written. `ValueError` is raised
    unless every column has one item per row and the keys are distinct.
    """

    keys: tuple[str, ...]
    vectors: np.ndarray
    word_types: tuple[str, ...]
    pos_tags: tuple[str, ...]
    ner_types: tuple[str | None, ...]
    filler_sources: tuple[str, ...]
    input_tokens: int = 0

    def __post_init__(self) -> None:
        vectors = np.asarray(self.vectors, dtype=np.float64)
        if vectors.flags.writeable:
            vectors = vectors.copy()
            vectors.flags.writeable = False
        if vectors.ndim != 2:
            raise ValueError(f"vectors must be a matrix, got shape {vectors.shape}")
        columns = {name: tuple(getattr(self, name)) for name in _COLUMNS}
        for name, column in columns.items():
            if len(column) != len(vectors):
                raise ValueError(f"{len(vectors)} vectors but {len(column)} {name}")
        if len(set(columns["keys"])) != len(vectors):
            raise ValueError("keys must be distinct")
        for name, value in {**columns, "vectors": vectors}.items():  # the dataclass is frozen
            object.__setattr__(self, name, value)

    def __len__(self) -> int:
        return len(self.keys)

    @property
    def dimension(self) -> int:
        return self.vectors.shape[1]

    @property
    def component_counts(self) -> np.ndarray:
        """m per key, from its NER type: 3 summands (frame, token, POS) without one, 4 with."""
        return np.array([3 if ner is None else 4 for ner in self.ner_types])

    @property
    def stats(self) -> BuildStats:
        unknown = self.filler_sources.count(FILLER_UNKNOWN)
        return BuildStats(self.input_tokens, len(set(self.word_types)), len(self.keys), unknown)

    def as_space(self) -> VectorSpace:
        """The keys, in vocabulary order, over this matrix, for similarity scans.

        Each call builds a new `VectorSpace`; build it once and reuse it
        across queries, so its keys are sorted, and its norms and screen
        computed, only once.
        """
        return VectorSpace(dict(zip(self.keys, range(len(self.keys)))), self.vectors)


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
    """One key per distinct composite key; the first occurrence wins.

    Vectors are computed once per key, in blocks of `BLOCK_ROWS` keys, so
    the result is independent of stream order beyond which occurrence is
    first. They are written into one read-only float64 matrix, one row per
    key in first-occurrence order, and the first occurrence gives each key's
    column items, each distinct value one string object: the codebook's own for
    the tags. Every table vector bound must have the codebook's dimension.
    """

    firsts: dict[str, tuple[AnnotatedToken, tuple[int, int | None]]] = {}
    total = 0
    for token in tokens:
        total += 1
        tag_rows = _tag_rows(token, cb)  # validate tags eagerly, with line diagnostics
        key = composite_key(token)
        if key not in firsts:
            firsts[key] = (token, tag_rows)

    matrix = np.empty((len(firsts), cb.dimension))
    sources: list[str] = []
    picked = list(firsts.values())  # each key's first token and its tag rows
    for start in range(0, len(picked), BLOCK_ROWS):
        block = picked[start : start + BLOCK_ROWS]
        found = [lookup_filler(token.surface, table, cb) for token, _ in block]
        matrix[start : start + len(block)] = _bind_rows(
            np.stack([filler for filler, _ in found]), [rows for _, rows in block], cb
        )
        sources += [source for _, source in found]
    matrix.flags.writeable = False
    # one string object per distinct value: the codebook's tags, and a dict's word types
    words: dict[str, str] = {}
    word_types = tuple(words.setdefault(w, w) for w in (t.surface.lower() for t, _ in picked))
    pos_keys, ner_keys = cb.pos_table.sorted_keys, cb.ner_table.sorted_keys
    pos_tags = tuple(pos_keys[pos] for _, (pos, _) in picked)
    ner_types = tuple(None if ner is None else ner_keys[ner] for _, (_, ner) in picked)
    columns = (word_types, pos_tags, ner_types, tuple(sources))
    return CompressedVocabulary(tuple(firsts), matrix, *columns, input_tokens=total)


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------


def _is_number(field: str) -> bool:
    try:
        float(field)
    except ValueError:
        return False
    return True


def read_vectors(path: str | Path) -> VectorSpace:
    """Read a text vector file: ``key v1 v2 ... vn`` per line, single spaces.

    Spaces that end a line are dropped first, as the word2vec C tool and
    fastText end every record with one, and a line left empty is skipped.
    A first line of exactly two non-negative integers is a word2vec text
    header, ``count dimension``: the dimension is taken from it and the
    record count checked against it. Otherwise the dimension is that of the
    first record. Once the dimension n is known, a record's values are its
    last n fields and its key is the fields before them joined by single
    spaces, unless one of those after the first reads as a number: such a
    record has too many values. Lines come from `read_lines`, so a leading
    byte-order mark is skipped, and a malformed line, bytes that are not
    UTF-8 included, is reported by number. A file with no records, with a
    header or without, reads as an empty table. The reader takes no
    dimension: whatever uses the vectors checks theirs.

    The values are stored once, in one read-only float64 matrix with a row
    per record in file order. The table is a `VectorSpace` of the keys, in
    file order, over that matrix, which every search of it reuses: a key's
    value is a view of its row. The matrix is sized from the header, or else
    estimated from the file's size, and grown in place if it falls short.
    """
    path = Path(path)
    dimension = declared = None
    rows: dict[str, int] = {}
    matrix = None
    for lineno, line in read_lines(path):
        line = line.rstrip(" ")
        if not line:
            continue
        fields = line.split(" ")
        if lineno == 1 and len(fields) == 2 and all(f.isascii() and f.isdigit() for f in fields):
            declared, dimension = int(fields[0]), int(fields[1])
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
        if key in rows:
            raise IntegrityError(f"{path}:{lineno}: duplicate key {key!r}")
        if matrix is None:
            matrix = np.empty((_expected_records(path, len(line), declared, dimension), dimension))
        if len(rows) == len(matrix):
            matrix.resize((len(matrix) * 5 // 4 + 16, dimension), refcheck=False)
        matrix[len(rows)] = vec
        rows[key] = len(rows)
    if declared is not None and declared != len(rows):
        raise ParseError(f"{path}: header declares {declared} records, file has {len(rows)}")
    matrix = np.empty((0, dimension or 0)) if matrix is None else matrix  # None: no records
    matrix.resize((len(rows), matrix.shape[1]), refcheck=False)
    matrix.flags.writeable = False
    return VectorSpace(rows, matrix)


def _expected_records(path: Path, first_record: int, declared: int | None, dimension: int) -> int:
    """Rows to allocate for a vector file's records, given the first record's length.

    A record takes at least 2n + 2 bytes for n values, which bounds the count
    from the file's size. Within that bound it is the header's count, or else
    the file's size over the first record's, plus a quarter. Rows allocated
    but never written are not touched, and `read_vectors` gives them back.
    """
    size = path.stat().st_size
    most = size // (2 * dimension + 2) + 1
    if declared is not None:
        return min(declared, most)
    return min(most, size * 5 // (4 * (first_record + 1)) + 1)


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
    """Write the text vector format, one record per key in build order, each value the
    shortest decimal that reads back as its float.

    A key the format cannot hold, or a vector that holds a NaN or an
    infinity, raises `IntegrityError` when its record comes up, and no file
    lands.
    """

    def records() -> Iterator[str]:
        for key, vec in zip(vocab.keys, vocab.vectors):
            where = f"{path}: entry {key!r}"
            fault = _key_fault(key)
            if fault:
                raise IntegrityError(f"{where}: key {fault}")
            if not np.isfinite(vec).all():
                raise IntegrityError(f"{where}: vector holds a NaN or an infinity")
            yield f"{key} {' '.join(map(repr, vec.tolist()))}\n"

    atomic_write_lines(path, records())


def write_sidecar(path: str | Path, vocab: CompressedVocabulary) -> None:
    """Write the vocabulary metadata document (per-key facts plus build stats); an entry
    `load_vocabulary` would reject raises its `IntegrityError` before any file is written."""
    counts = vocab.component_counts.tolist()
    columns = (counts, vocab.filler_sources, vocab.word_types, vocab.pos_tags, vocab.ner_types)
    records = {key: dict(zip(_ENTRY_FIELDS, row)) for key, *row in zip(vocab.keys, *columns)}
    for key, record in records.items():
        _check_entry(key, record, f"{path}: entry {key!r}")
    st = vocab.stats
    names = "input_tokens distinct_word_types distinct_keys growth_ratio unknown_filler_entries"
    stats = {name: getattr(st, name) for name in names.split()}
    body = {"dimension": vocab.dimension, "stats": stats, "entries": records}
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
    if entry["filler_source"] not in _FILLER_SOURCES:
        raise IntegrityError(f"{where}: unknown filler_source {entry['filler_source']!r}")
    spelled = entry["word_type"] + entry["pos_tag"] + (ner_type or "")
    if key != spelled:
        raise IntegrityError(f"{where}: word_type + pos_tag + ner_type spell {spelled!r}")


def load_vocabulary(
    vectors_path: str | Path, sidecar_path: str | Path
) -> CompressedVocabulary:
    """Rebuild a CompressedVocabulary from its vector file and sidecar.

    The sidecar is read and checked first, then the vector file is read with
    `read_vectors`, whose vectors must have the sidecar's dimension and
    whose keys must be the sidecar's, in any order. Equal items of a column
    are one string object. An empty vector file with a sidecar of no entries
    is the empty vocabulary of the sidecar's dimension.
    """
    doc = read_document(sidecar_path, _SIDECAR_FORMAT, ("dimension", "stats", "entries"))
    declared, meta, st = doc["dimension"], doc["entries"], doc["stats"]
    if type(declared) is not int or declared < 1:
        raise IntegrityError(f"{sidecar_path}: dimension must be a positive integer")
    _check_record(st, _STATS_FIELDS, f"{sidecar_path}: stats")
    _check_record(meta, {}, f"{sidecar_path}: entries")
    # each checked record gives way to its column items, so the records are gone before
    # the vector file's matrix is allocated; one dict shares each distinct string
    shared = {source: source for source in _FILLER_SOURCES}
    for key, entry in meta.items():
        _check_entry(key, entry, f"{sidecar_path}: entry {key!r}")
        meta[key] = tuple(shared.setdefault(entry[name], entry[name]) for name in _COLUMN_FIELDS)

    table = read_vectors(vectors_path)
    if table and table.matrix.shape[1] != declared:
        mismatch = f"declares dimension {declared}, vector file has {table.matrix.shape[1]}"
        raise IntegrityError(f"{sidecar_path}: {mismatch}")
    missing = table.keys() - meta.keys()
    if missing:
        raise IntegrityError(f"{sidecar_path}: no metadata for key {sorted(missing)[0]!r}")
    extra = meta.keys() - table.keys()
    if extra:
        raise IntegrityError(f"{sidecar_path}: metadata for absent key {sorted(extra)[0]!r}")
    # the columns in file order; component_count, checked against ner_type, is derived
    keys, vectors = tuple(table), table.matrix if table else np.empty((0, declared))
    columns = (tuple(meta[key][i] for key in keys) for i in range(len(_COLUMN_FIELDS)))
    vocab = CompressedVocabulary(keys, vectors, *columns, input_tokens=st["input_tokens"])
    for name, count in vars(vocab.stats).items():  # input_tokens is the sidecar's own
        if st[name] != count:
            raise IntegrityError(
                f"{sidecar_path}: stats: {name} is {st[name]}, entries give {count}"
            )
    return vocab
