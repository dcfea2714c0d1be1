"""Label-vector codebook: deterministic generation, persistence, cleanup lookup.

A codebook holds every random label vector the encoder needs: one frame
label, three slot labels (token, pos, ner), one filler per POS tag, one
filler per NER type, and the unknown-token vector. All of them are drawn
from a single seeded generator in a fixed order, so (seed, dimension, tag
lists) reproduce the codebook bit for bit.

`VectorSpace` is the one cleanup memory of the package: keys in sorted
order and a matrix of unit-norm rows. Each tag set's `FillerTable` is one,
so cleanup of a decoded estimate is one product with its ``unit`` matrix;
the analyses search the compressed space through the same structure.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from importlib import resources
from pathlib import Path
from types import MappingProxyType
from typing import Iterator, Mapping

import numpy as np

from . import hrr
from ._fileio import read_document, read_lines, write_document
from .errors import DimensionMismatchError, IntegrityError, ParseError

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
    "cleanup",
    "cleanup_rows",
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
    """Read-only snapshot of a key -> vector mapping, iterated in sorted key order.

    Holds references to the given vectors, not copies. `unit` stacks them
    into rows of unit L2 norm on first use, so a zero-norm vector raises
    there, in the search that needs it, not when the space is built.
    `screen`, the same rows in float32, is also built on first use. Rows
    follow the sorted keys, so the first of several equal maxima over a row
    of cosines is the lexicographically smallest key: every search breaks
    exact ties that way.
    """

    def __init__(self, vectors: Mapping[str, np.ndarray]):
        self.sorted_keys = sorted(vectors)
        self.index = {key: row for row, key in enumerate(self.sorted_keys)}
        self._vectors = [vectors[key] for key in self.sorted_keys]

    @classmethod
    def of(cls, space) -> VectorSpace:
        """``space`` itself, a vocabulary's ``as_space()``, or a snapshot of a mapping."""
        if isinstance(space, VectorSpace):
            return space
        if hasattr(space, "as_space"):
            return space.as_space()
        return cls(space)

    def __getitem__(self, key: str) -> np.ndarray:
        return self._vectors[self.index[key]]

    def __iter__(self) -> Iterator[str]:
        return iter(self.sorted_keys)

    def __len__(self) -> int:
        return len(self.sorted_keys)

    @cached_property
    def unit(self) -> np.ndarray:
        """float64 rows of unit L2 norm, one per key in sorted order."""
        matrix = np.stack(self._vectors, dtype=np.float64)
        norms = np.empty(len(matrix))
        for start in range(0, len(matrix), BLOCK_ROWS):
            norms[start : start + BLOCK_ROWS] = np.linalg.norm(
                matrix[start : start + BLOCK_ROWS], axis=1
            )
        zero = np.flatnonzero(norms == 0.0)
        if zero.size:
            raise ValueError(f"vector {self.sorted_keys[zero[0]]!r} has zero norm")
        matrix /= norms[:, None]
        matrix.flags.writeable = False
        return matrix

    @cached_property
    def screen(self) -> np.ndarray:
        """`unit` rounded to float32: half its bytes, for a search to screen rows with."""
        matrix = self.unit.astype(np.float32)
        matrix.flags.writeable = False
        return matrix


class FillerTable(VectorSpace):
    """One tag set's fillers as a cleanup memory, plus their bound terms.

    ``bound`` holds slot ⊛ filler per tag, computed on first use, in the
    row order of ``unit``, so ``index`` locates a tag in both: the encoder
    gathers bound terms with it and the decoder cleans up against ``unit``.
    """

    def __init__(self, slot_label: np.ndarray, fillers: Mapping[str, np.ndarray]) -> None:
        super().__init__(fillers)
        self.slot_label = slot_label

    @cached_property
    def bound(self) -> np.ndarray:
        bound = hrr.circular_convolve_fft(self.slot_label, np.stack(self._vectors))
        bound.flags.writeable = False
        return bound


@dataclass(frozen=True, eq=False)
class Codebook:
    """Immutable after construction: every array and mapping it holds is read-only.

    ``vectors`` is a float64 copy of the rows given, one per `_layout` name in draw
    order; the labels and the rows of the filler tables, built on first use, are
    views of it. A layout `load_codebook` would reject raises `ValueError`.
    """

    seed: int
    pos_tags: list[str]
    ner_types: list[str]
    vectors: np.ndarray

    def __post_init__(self) -> None:
        _check_tags(self.pos_tags, "POS tag")
        _check_tags(self.ner_types, "NER type")
        _check_key_suffixes(self.pos_tags, self.ner_types)
        rows = len(_layout(self.pos_tags, self.ner_types))
        shape = np.shape(self.vectors)
        if len(shape) != 2 or shape[0] != rows:
            raise ValueError(f"vectors must be {rows} rows, one per layout name, got shape {shape}")
        if shape[1] < 2:
            raise ValueError(f"dimension must be >= 2, got {shape[1]}")
        vectors = np.array(self.vectors, dtype=np.float64)
        vectors.flags.writeable = False
        named = dict(zip(_layout(self.pos_tags, self.ner_types), vectors))
        derived = {
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
        named = self.all_vectors()
        fillers = {tag: named[f"pos:{tag}"] for tag in self.pos_tags}
        return FillerTable(self.slot_labels[SLOT_POS], fillers)

    @cached_property
    def ner_table(self) -> FillerTable:
        named = self.all_vectors()
        fillers = {typ: named[f"ner:{typ}"] for typ in self.ner_types}
        return FillerTable(self.slot_labels[SLOT_NER], fillers)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Codebook):
            return NotImplemented
        tags = (self.seed, self.pos_tags, self.ner_types)
        return tags == (other.seed, other.pos_tags, other.ner_types) and np.array_equal(
            self.vectors, other.vectors
        )


def _layout(pos_tags: list[str], ner_types: list[str]) -> list[str]:
    """The persistent name of every codebook vector, in draw order."""
    return [
        "frame",
        *(f"slot:{slot}" for slot in _SLOTS),
        *(f"pos:{tag}" for tag in pos_tags),
        *(f"ner:{typ}" for typ in ner_types),
        "unknown",
    ]


def _check_tags(tags: list[str], kind: str) -> None:
    if not isinstance(tags, list) or not all(isinstance(tag, str) for tag in tags):
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


def _check_key_suffixes(pos_tags: list[str], ner_types: list[str]) -> None:
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
    pos_tags: list[str] | None = None,
    ner_types: list[str] | None = None,
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
    pos_tags = default_pos_tags() if pos_tags is None else list(pos_tags)
    ner_types = default_ner_types() if ner_types is None else list(ner_types)
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
    if not np.all(np.isfinite(vec)):
        raise IntegrityError(f"{source}: vector {name!r} contains non-finite values")
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


def cleanup_rows(queries: np.ndarray, space: VectorSpace) -> tuple[list[str], np.ndarray]:
    """For each query row, the nearest key of ``space`` by cosine, and that cosine."""
    norms = np.linalg.norm(queries, axis=1)
    if np.any(norms == 0.0):
        raise ValueError("cleanup() query has zero norm")
    sims = (queries @ space.unit.T) / norms[:, None]
    best = np.argmax(sims, axis=1)
    return [space.sorted_keys[i] for i in best], sims[np.arange(len(best)), best]


def cleanup(query, candidates: Mapping[str, np.ndarray]) -> tuple[str, float]:
    """Nearest candidate by cosine, independent of the candidates' insertion order.

    Pass a `VectorSpace` built once to clean up many queries against one
    normalised matrix.
    """
    space = VectorSpace.of(candidates)
    if not space:
        raise ValueError("cleanup() requires a non-empty candidate set")
    q = np.asarray(query, dtype=np.float64)
    if space.unit.shape[1] != q.shape[0]:
        raise DimensionMismatchError(
            f"candidate length {space.unit.shape[1]} differs from query length {q.shape[0]}"
        )
    found, sims = cleanup_rows(q[None, :], space)
    return found[0], float(sims[0])
