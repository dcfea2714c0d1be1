"""Label-vector codebook: deterministic generation and persistence.

A codebook holds every random label vector the encoder needs: one frame
label, three slot labels (token, pos, ner), one filler per POS tag, one
filler per NER type, and the unknown-token vector. All of them are drawn
from a single seeded generator in a fixed order, so (seed, dimension, tag
lists) reproduce the codebook bit for bit.

`VectorSpace` is the one type for keys over vectors: keys over rows of one
float64 matrix holding each vector once, searched in sorted key order. Each
tag set's `FillerTable` is one, over the codebook's own matrix: the memory
that `decoder` cleans a slot's estimate up against. A vector file is read
into one, and the analyses search it and the compressed space as spaces.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from importlib import resources
from pathlib import Path
from types import MappingProxyType
from typing import Iterator, Mapping, Sequence

import numpy as np

from . import hrr
from ._fileio import read_document, read_lines, write_document
from .errors import IntegrityError, ParseError

__all__ = [
    "BLOCK_ROWS",
    "Codebook",
    "DEFAULT_DIMENSION",
    "DEFAULT_SEED",
    "FillerTable",
    "SLOT_NER",
    "SLOT_POS",
    "SLOT_TOKEN",
    "VectorSpace",
    "build_codebook",
    "default_ner_types",
    "default_pos_tags",
    "load_codebook",
    "read_tag_list",
    "save_codebook",
]

DEFAULT_DIMENSION = 300
DEFAULT_SEED = 42

SLOT_TOKEN = "token"
SLOT_POS = "pos"
SLOT_NER = "ner"

# rows per batched bind, unbind or row reduction: bounds the size of the temporaries
BLOCK_ROWS = 128

_FORMAT_NAME = "holovec-codebook"
_SLOTS = (SLOT_TOKEN, SLOT_POS, SLOT_NER)


def read_tag_list(path: str | Path) -> list[str]:
    r"""Read one entry per line; blank lines, surrounding whitespace and a BOM ignored.

    Lines end where `read_lines` ends them, at ``\n``, ``\r\n`` or ``\r``.
    """
    tags = [line.strip() for _, line in read_lines(path) if line.strip()]
    if not tags:
        raise ParseError(f"{path}: list is empty")
    return tags


def _shipped_tags(name: str) -> list[str]:
    with resources.as_file(resources.files(__package__) / "data" / name) as path:
        return read_tag_list(path)


def default_pos_tags() -> list[str]:
    """The shipped 50-entry fine-grained English POS tagset."""
    return _shipped_tags("pos_tags.txt")


def default_ner_types() -> list[str]:
    """The shipped 19-entry named-entity typeset."""
    return _shipped_tags("ner_types.txt")


class VectorSpace(Mapping[str, np.ndarray]):
    """Read-only mapping of keys, in the order given, to rows of one read-only 2-D float64
    ``matrix``: a key's value is a view of its row; `of` stacks any other mapping into one.

    A search reads the keys in sorted order, so the first of several equal
    maxima over a row of cosines is the lexicographically smallest key: every
    search breaks exact ties that way. ``sorted_keys``, a tuple, ``index``,
    key -> sorted position, a read-only mapping, the rows' L2 ``norms`` and
    the float32 ``screen`` are built on first use and kept for every later
    search, so a zero-norm vector raises in the search that needs it. No unit
    matrix is kept: `unit_rows` and `cosines` divide by the norms where a
    search needs them.
    """

    def __init__(self, rows: Mapping[str, int], matrix: np.ndarray):
        if matrix.ndim != 2 or matrix.dtype != np.float64 or matrix.flags.writeable:
            raise ValueError("a vector space's matrix must be read-only float64 and 2-D")
        self.matrix = matrix
        self._rows = MappingProxyType(dict(rows))

    @classmethod
    def of(cls, vectors: Mapping[str, np.ndarray]) -> VectorSpace:
        """``vectors`` itself if it is a `VectorSpace`, else its vectors stacked once, in
        sorted key order, into a new read-only matrix."""
        if isinstance(vectors, VectorSpace):
            return vectors
        keys = sorted(vectors)
        stacked = [vectors[key] for key in keys]
        matrix = np.stack(stacked, dtype=np.float64) if stacked else np.empty((0, 0))
        matrix.flags.writeable = False
        return cls(dict(zip(keys, range(len(keys)))), matrix)

    def __getitem__(self, key: str) -> np.ndarray:
        return self.matrix[self._rows[key]]

    def __iter__(self) -> Iterator[str]:
        return iter(self._rows)

    def __len__(self) -> int:
        return len(self._rows)

    @property
    def dimension(self) -> int:
        """The length of each vector."""
        return self.matrix.shape[1]

    @cached_property
    def sorted_keys(self) -> tuple[str, ...]:
        return tuple(sorted(self._rows))

    @cached_property
    def index(self) -> Mapping[str, int]:
        return MappingProxyType({key: pos for pos, key in enumerate(self.sorted_keys)})

    @cached_property
    def _order(self) -> np.ndarray:  # the matrix row of each key, in sorted key order
        return np.array([self._rows[key] for key in self.sorted_keys], dtype=np.intp)

    @cached_property
    def norms(self) -> np.ndarray:
        """The L2 norm of each row, in sorted key order; a zero norm raises `ValueError`."""
        norms = np.empty(len(self))
        for start in range(0, len(self), BLOCK_ROWS):
            block = self.matrix.take(self._order[start : start + BLOCK_ROWS], axis=0)
            block *= block  # the sum of squares of `np.linalg.norm`, in the block's own copy
            norms[start : start + BLOCK_ROWS] = np.sqrt(np.add.reduce(block, axis=1))
        zero = np.flatnonzero(norms == 0.0)
        if zero.size:
            raise ValueError(f"vector {self.sorted_keys[zero[0]]!r} has zero norm")
        norms.flags.writeable = False
        return norms

    def unit_rows(self, rows=None) -> np.ndarray:
        """float64 rows of unit L2 norm, by one gather and one division in place: every row in
        sorted key order when ``rows`` is None, else those rows (an index, index array or slice)."""
        rows = slice(None) if rows is None else rows
        unit = self.matrix.take(self._order[rows], axis=0)
        unit /= self.norms[rows, None]
        return unit

    def cosines(self, query: np.ndarray) -> np.ndarray:
        """float64 cosines of every row with the unit ``query``, in sorted key order, to screen
        rows with: one product of the matrix with ``query``, divided by the norms, no unit row."""
        return (self.matrix @ query).take(self._order) / self.norms

    @cached_property
    def screen(self) -> np.ndarray:
        """The unit rows rounded to float32, built a block at a time, so no float64 copy
        of every row is made: for a search to screen rows with."""
        screen = np.empty((len(self), self.dimension), dtype=np.float32)
        for start in range(0, len(self), BLOCK_ROWS):
            screen[start : start + BLOCK_ROWS] = self.unit_rows(slice(start, start + BLOCK_ROWS))
        screen.flags.writeable = False
        return screen


class FillerTable(VectorSpace):
    """One tag set's fillers as a cleanup memory, plus their bound terms.

    ``bound`` holds slot ⊛ filler per tag, computed on first use, in sorted
    tag order, so ``index`` locates a tag in both: the encoder
    gathers bound terms with it and the decoder cleans up against the unit rows.
    """

    def __init__(self, slot_label: np.ndarray, rows: Mapping[str, int], matrix: np.ndarray):
        super().__init__(rows, matrix)
        self.slot_label = slot_label

    @cached_property
    def bound(self) -> np.ndarray:
        bound = hrr.circular_convolve_fft(self.slot_label, self.matrix[self._order])
        bound.flags.writeable = False
        return bound


@dataclass(frozen=True, eq=False)
class Codebook:
    """Immutable after construction: every array and mapping it holds is read-only.

    ``pos_tags`` and ``ner_types`` are stored as tuples of the tags given, and
    ``vectors`` as a float64 copy of the rows given, one per `_layout` name in draw
    order; the labels and the rows of the filler tables, built on first use, are
    views of it. A layout or a value `load_codebook` would reject raises `ValueError`.
    """

    seed: int
    pos_tags: tuple[str, ...]
    ner_types: tuple[str, ...]
    vectors: np.ndarray

    def __post_init__(self) -> None:
        _check_tags(self.pos_tags, "POS tag")
        _check_tags(self.ner_types, "NER type")
        _check_key_suffixes(self.pos_tags, self.ner_types)
        layout = _layout(self.pos_tags, self.ner_types)
        rows, shape = len(layout), np.shape(self.vectors)
        if len(shape) != 2 or shape[0] != rows:
            raise ValueError(f"vectors must be {rows} rows, one per layout name, got shape {shape}")
        if shape[1] < 2:
            raise ValueError(f"dimension must be >= 2, got {shape[1]}")
        vectors = np.array(self.vectors, dtype=np.float64)
        finite = np.isfinite(vectors).all(axis=1)
        if not finite.all():  # JSON cannot hold it, so `save_codebook` could not write it
            raise ValueError(f"vector {layout[np.argmin(finite)]!r} contains non-finite values")
        vectors.flags.writeable = False
        named = dict(zip(layout, vectors))
        derived = {
            "pos_tags": tuple(self.pos_tags),
            "ner_types": tuple(self.ner_types),
            "vectors": vectors,
            "dimension": shape[1],
            "vector_count": shape[0],
            "frame_label": named["frame"],
            "slot_labels": MappingProxyType({slot: named[f"slot:{slot}"] for slot in _SLOTS}),
            "unknown_token": named["unknown"],
        }
        for name, value in derived.items():  # the dataclass is frozen
            object.__setattr__(self, name, value)

    def all_vectors(self) -> dict[str, np.ndarray]:
        """Every vector under its persistent name, in draw order."""
        return dict(zip(_layout(self.pos_tags, self.ner_types), self.vectors))

    @cached_property
    def pos_table(self) -> FillerTable:
        return self._filler_table(SLOT_POS, self.pos_tags)

    @cached_property
    def ner_table(self) -> FillerTable:
        return self._filler_table(SLOT_NER, self.ner_types)

    def _filler_table(self, slot: str, tags: tuple[str, ...]) -> FillerTable:
        """The fillers of ``tags`` as a table over the codebook's own rows, not a copy."""
        rows = {name: row for row, name in enumerate(_layout(self.pos_tags, self.ner_types))}
        fillers = {tag: rows[f"{slot}:{tag}"] for tag in tags}
        return FillerTable(self.slot_labels[slot], fillers, self.vectors)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Codebook):
            return NotImplemented
        tags = (self.seed, self.pos_tags, self.ner_types)
        return tags == (other.seed, other.pos_tags, other.ner_types) and np.array_equal(
            self.vectors, other.vectors
        )


def _layout(pos_tags: Sequence[str], ner_types: Sequence[str]) -> list[str]:
    """The persistent name of every codebook vector, in draw order."""
    return [
        "frame",
        *(f"slot:{slot}" for slot in _SLOTS),
        *(f"pos:{tag}" for tag in pos_tags),
        *(f"ner:{typ}" for typ in ner_types),
        "unknown",
    ]


def _check_tags(tags: Sequence[str], kind: str) -> None:
    if not isinstance(tags, (list, tuple)) or not all(isinstance(tag, str) for tag in tags):
        raise ValueError(f"{kind} list is not a list of strings")
    if not tags:
        raise ValueError(f"{kind} list must not be empty")
    seen = set()
    for tag in tags:
        if not tag:
            raise ValueError(f"{kind} list contains an empty tag")
        if any(ch.isspace() for ch in tag):
            raise ValueError(f"{kind} {tag!r} contains whitespace")
        if tag in seen:
            raise ValueError(f"duplicate {kind}: {tag!r}")
        seen.add(tag)


def _tagging(pos_tag: str, ner_type: str | None) -> str:
    return f"POS tag {pos_tag!r}" + (f" with NER type {ner_type!r}" if ner_type else "")


def _check_key_suffixes(pos_tags: Sequence[str], ner_types: Sequence[str]) -> None:
    """Raise ValueError if two differently tagged tokens can share a composite key.

    A key is the lowercased word, then the POS tag, then the NER type or
    nothing. Two keys coincide when two (POS, NER) pairs spell one suffix, or
    when one suffix is another with a prefix that a lowercased word can end in.
    """
    suffixes: dict[str, tuple[str, str | None]] = {}
    for pos_tag in pos_tags:
        for ner_type in (None, *ner_types):
            suffix = pos_tag + (ner_type or "")
            first = suffixes.setdefault(suffix, (pos_tag, ner_type))
            if first != (pos_tag, ner_type):
                raise ValueError(
                    f"{_tagging(*first)} and {_tagging(pos_tag, ner_type)} "
                    f"both end composite keys in {suffix!r}"
                )
    for suffix, tagging in suffixes.items():
        for cut in range(1, len(suffix)):
            rest = suffix[cut:]
            if rest in suffixes and suffix[:cut] == suffix[:cut].lower():
                raise ValueError(
                    f"a word ending in {suffix[:cut]!r} with {_tagging(*suffixes[rest])} has "
                    f"the composite key of the word without it with {_tagging(*tagging)}"
                )


def build_codebook(
    pos_tags: Sequence[str] | None = None,
    ner_types: Sequence[str] | None = None,
    dimension: int = DEFAULT_DIMENSION,
    seed: int = DEFAULT_SEED,
) -> Codebook:
    """Draw every label vector from one seeded generator.

    Draw order is fixed and part of the reproducibility contract: frame,
    token slot, pos slot, ner slot, POS fillers in list order, NER fillers
    in list order, unknown-token vector last (`_layout`).
    """
    if dimension < 2:  # here, before the draw; the Codebook checks the rest
        raise ValueError(f"dimension must be >= 2, got {dimension}")
    pos_tags = tuple(default_pos_tags() if pos_tags is None else pos_tags)
    ner_types = tuple(default_ner_types() if ner_types is None else ner_types)
    rng = np.random.default_rng(seed)
    vectors = np.stack([hrr.random_vector(rng, dimension) for _ in _layout(pos_tags, ner_types)])
    return Codebook(seed, pos_tags, ner_types, vectors)


def save_codebook(cb: Codebook, destination: str | Path) -> None:
    """Serialize to a single JSON document; floats keep full precision.

    Python renders each float as the shortest decimal string that parses
    back to the identical bits, so load(save(cb)) == cb exactly.
    """
    body = {
        "dimension": cb.dimension,
        "seed": cb.seed,
        "pos_tags": cb.pos_tags,
        "ner_types": cb.ner_types,
        "vectors": {name: vec.tolist() for name, vec in cb.all_vectors().items()},
    }
    write_document(destination, _FORMAT_NAME, body)


def _vector_from_doc(vectors: dict, name: str, dimension: int, source: str) -> np.ndarray:
    if name not in vectors:
        raise ParseError(f"{source}: missing vector {name!r}")
    raw = vectors[name]
    if not isinstance(raw, list):
        raise ParseError(f"{source}: vector {name!r} is not an array")
    if not all(type(value) in (int, float) for value in raw):
        raise IntegrityError(f"{source}: vector {name!r} has a non-numeric value")
    try:
        vec = np.asarray(raw, dtype=np.float64)
    except OverflowError:  # an integer beyond float64's range
        raise IntegrityError(f"{source}: vector {name!r} contains non-finite values") from None
    if vec.ndim != 1 or vec.shape[0] != dimension:
        raise IntegrityError(
            f"{source}: vector {name!r} has length {vec.shape[0] if vec.ndim == 1 else '?'}, "
            f"declared dimension is {dimension}"
        )
    return vec


def load_codebook(source: str | Path) -> Codebook:
    """Parse and validate a codebook document written by `save_codebook`."""
    fields = ("dimension", "seed", "pos_tags", "ner_types", "vectors")
    doc = read_document(source, _FORMAT_NAME, fields)
    dimension, seed, pos_tags, ner_types, vectors = (doc[field] for field in fields)
    if not isinstance(dimension, int) or dimension < 2:
        raise IntegrityError(f"{source}: dimension must be an integer >= 2")
    if type(seed) is not int:
        raise IntegrityError(f"{source}: seed must be an integer")
    try:  # the layout below needs two lists of strings
        _check_tags(pos_tags, "POS tag")
        _check_tags(ner_types, "NER type")
    except ValueError as exc:
        raise IntegrityError(f"{source}: {exc}") from exc
    if not isinstance(vectors, dict):
        raise IntegrityError(f"{source}: vectors is not an object")

    layout = _layout(pos_tags, ner_types)
    extras = set(vectors) - set(layout)
    if extras:
        raise IntegrityError(f"{source}: unexpected vectors {sorted(extras)}")
    rows = np.stack([_vector_from_doc(vectors, name, dimension, str(source)) for name in layout])
    try:
        return Codebook(seed, pos_tags, ner_types, rows)
    except ValueError as exc:
        raise IntegrityError(f"{source}: {exc}") from exc
