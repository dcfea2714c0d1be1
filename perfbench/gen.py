"""Seeded input generator for the holovec benchmark.

Writes the files the program reads (embeddings, TSV corpus, core list) and
returns the same data in memory, so the output checks never parse the
inputs back through the program. Uses numpy only; nothing from holovec.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

DIMENSION = 300


@dataclass(frozen=True)
class Spec:
    """Make-up of one workload's inputs. Sizes do not depend on the seed."""

    words: int
    tokens: int  # corpus tokens when ``profiles`` is None
    norm: str  # "gauss5": N(0, 25/n) per value; "unit": N(0, 1/n); "glove": clustered
    ner_fraction: float
    cores: int
    knn_queries: int  # k_nearest queries per round
    profiles: tuple[int, int] | None = None  # (lo, hi) composite keys per word
    capitalized: float = 0.05  # share of tokens written with a capital first letter
    oov: float = 0.02  # share of tokens whose surface has no embedding
    word2vec_header: bool = False  # add the fixed word2vec-header compress


@dataclass
class Inputs:
    table: dict[str, np.ndarray]
    tokens: list[tuple[str, str, str | None]]  # (surface, pos, ner or None)
    cores: list[str]
    queries: list[str]  # composite keys for k_nearest
    paths: dict[str, Path] = field(default_factory=dict)


def _gauss(rng: np.random.Generator, words: int, scale: float) -> np.ndarray:
    return scale * rng.normal(0.0, np.sqrt(1.0 / DIMENSION), (words, DIMENSION))


def _glove_like(rng: np.random.Generator, words: int) -> np.ndarray:
    """Shared direction, semantic clusters and lognormal norms around 5."""
    clusters = max(1, words // 10)
    common = rng.normal(0.0, 1.0, DIMENSION)
    common /= np.linalg.norm(common)
    centers = rng.normal(0.0, 1.0, (clusters, DIMENSION))
    centers /= np.linalg.norm(centers, axis=1, keepdims=True)
    noise = rng.normal(0.0, 1.0, (words, DIMENSION))
    noise /= np.linalg.norm(noise, axis=1, keepdims=True)
    directions = (
        np.sqrt(0.08) * common
        + np.sqrt(0.50) * centers[rng.integers(0, clusters, words)]
        + np.sqrt(0.42) * noise
    )
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    return directions * np.exp(rng.normal(np.log(5.2), 0.25, words))[:, None]


def _surface(word: str, rng: np.random.Generator, spec: Spec) -> str:
    r = rng.random()
    if r < spec.oov:
        return "x" + word[1:]  # no embedding: the filler falls back to unknown
    if r < spec.oov + spec.capitalized:
        return word.capitalize()  # found only after lowercasing
    return word


def _tag(rng, pos_tags, ner_types, ner_fraction) -> tuple[str, str | None]:
    pos = pos_tags[int(rng.integers(len(pos_tags)))]
    ner = ner_types[int(rng.integers(len(ner_types)))] if rng.random() < ner_fraction else None
    return pos, ner


def generate(
    spec: Spec, seed: int, pos_tags: list[str], ner_types: list[str]
) -> Inputs:
    rng = np.random.default_rng(seed)
    if spec.norm == "glove":
        matrix = _glove_like(rng, spec.words)
    else:
        matrix = _gauss(rng, spec.words, 5.0 if spec.norm == "gauss5" else 1.0)
    names = [f"w{i:05d}" for i in range(spec.words)]
    table = dict(zip(names, matrix))

    tokens = []
    if spec.profiles is None:
        for _ in range(spec.tokens):
            word = names[int(rng.integers(spec.words))]
            tokens.append((_surface(word, rng, spec), *_tag(rng, pos_tags, ner_types, spec.ner_fraction)))
    else:
        lo, hi = spec.profiles
        for word in names:
            for _ in range(int(rng.integers(lo, hi + 1))):
                tokens.append((_surface(word, rng, spec), *_tag(rng, pos_tags, ner_types, spec.ner_fraction)))
        rng.shuffle(tokens)

    # cores must be in the embeddings and in the compressed vocabulary
    in_both = sorted({s.lower() for s, _, _ in tokens} & set(table))
    cores = sorted(rng.choice(in_both, size=spec.cores, replace=False).tolist())
    keys = sorted({s.lower() + p + (n or "") for s, p, n in tokens})
    queries = rng.choice(keys, size=spec.knn_queries, replace=True).tolist()
    return Inputs(table=table, tokens=tokens, cores=cores, queries=queries)


def word2vec_inputs(pos_tags: list[str], ner_types: list[str]) -> Inputs:
    """Fixed inputs (seed 0, whatever the workload seed) in word2vec text form."""
    spec = Spec(words=50, tokens=100, norm="unit", ner_fraction=0.5, cores=1,
                knn_queries=0, capitalized=0.0, oov=0.0)
    return generate(spec, 0, pos_tags, ner_types)


def write_vectors(path: Path, table: dict[str, np.ndarray], header: bool = False) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        if header:
            fh.write(f"{len(table)} {DIMENSION}\n")
        for key, vec in table.items():
            fh.write(key + " " + " ".join(map(repr, vec.tolist())) + "\n")


def write_inputs(inputs: Inputs, directory: Path, prefix: str = "", header: bool = False) -> None:
    paths = {
        "embeddings": directory / f"{prefix}embeddings.txt",
        "corpus": directory / f"{prefix}corpus.tsv",
        "cores": directory / f"{prefix}cores.txt",
    }
    write_vectors(paths["embeddings"], inputs.table, header=header)
    with open(paths["corpus"], "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(f"{s}\t{p}\t{n or '-'}\n" for s, p, n in inputs.tokens)
    paths["cores"].write_text("".join(c + "\n" for c in inputs.cores), encoding="utf-8")
    inputs.paths = paths
