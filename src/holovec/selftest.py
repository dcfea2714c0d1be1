"""Synthetic end-to-end round-trip checks with frozen regression floors.

The floors were calibrated once against the encoder acting as its own
oracle (build a synthetic vocabulary, decode every entry, measure) and are
regression gates, not aspirations: observed accuracy at n=300 is ~1.0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import hrr
from .analysis import pairwise_cosine_stats, sample_orthogonality
from .codebook import DEFAULT_DIMENSION, DEFAULT_SEED, Codebook, build_codebook
from .decoder import decode_and_score
from .encoder import AnnotatedToken, build_vocabulary

__all__ = [
    "CheckResult",
    "FIXTURE_ORTHOGONALITY_FLOOR",
    "NER_ACCURACY_FLOOR",
    "POS_ACCURACY_FLOOR",
    "run_self_test",
    "synthetic_corpus",
    "synthetic_embeddings",
]

POS_ACCURACY_FLOOR = 0.95
NER_ACCURACY_FLOOR = 0.95
# corpora over realistic (correlated, large-norm) embeddings keep less margin
FIXTURE_ORTHOGONALITY_FLOOR = 0.90
CODEBOOK_ORTHOGONALITY_FLOOR = 0.95
# size of the synthetic corpus the round-trip checks run on
_WORDS = 500
_TOKENS = 1000


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"self-test {self.name}: {status} ({self.detail})"


def synthetic_embeddings(
    n_words: int,
    dimension: int,
    rng: np.random.Generator,
) -> dict[str, np.ndarray]:
    """Quasi-orthogonal random fillers of expected unit norm, one per generated surface form.

    Unit-norm fillers keep binding crosstalk low (best decoding); pre-trained
    embeddings carry norms around 5, which is what makes the shared frame
    label negligible in pairwise cosines of the compressed space.
    """
    return {f"w{i:05d}": hrr.random_vector(rng, dimension) for i in range(n_words)}


def synthetic_corpus(
    surfaces: list[str],
    cb: Codebook,
    n_tokens: int,
    rng: np.random.Generator,
) -> list[AnnotatedToken]:
    """Random tokens over ``surfaces`` and the codebook's tags; about half carry an NER type."""
    pos_tags = cb.pos_tags
    ner_types = cb.ner_types
    tokens = []
    for i in range(n_tokens):
        surface = surfaces[int(rng.integers(len(surfaces)))]
        pos_tag = pos_tags[int(rng.integers(len(pos_tags)))]
        ner_type = None
        if rng.random() < 0.5:
            ner_type = ner_types[int(rng.integers(len(ner_types)))]
        tokens.append(
            AnnotatedToken(surface=surface, pos_tag=pos_tag, ner_type=ner_type, line=i + 1)
        )
    return tokens


def run_self_test(
    dimension: int = DEFAULT_DIMENSION,
    seed: int = DEFAULT_SEED,
) -> list[CheckResult]:
    """Codebook -> synthetic corpus -> compress -> decode -> analyze."""
    results: list[CheckResult] = []
    cb = build_codebook(dimension=dimension, seed=seed)

    stats = pairwise_cosine_stats(cb.all_vectors())
    results.append(
        CheckResult(
            "codebook orthogonality",
            stats.fraction_below >= CODEBOOK_ORTHOGONALITY_FLOOR,
            f"{stats.fraction_below:.4f} of {stats.pairs} pairs |cos| < 0.25, "
            f"floor {CODEBOOK_ORTHOGONALITY_FLOOR}",
        )
    )

    rng = np.random.default_rng(seed + 1)
    worst = 0.0
    for _ in range(20):
        a = hrr.random_vector(rng, dimension)
        b = hrr.random_vector(rng, dimension)
        fast = hrr.circular_convolve_fft(a, b)
        naive = hrr.circular_convolve(a, b)
        scale = float(np.max(np.abs(naive))) or 1.0
        worst = max(worst, float(np.max(np.abs(fast - naive))) / scale)
    results.append(
        CheckResult(
            "fft/naive convolution agreement",
            worst < 1e-9,
            f"max relative deviation {worst:.2e}, bound 1e-9",
        )
    )

    table = synthetic_embeddings(_WORDS, dimension, rng)
    corpus = synthetic_corpus(sorted(table), cb, _TOKENS, rng)
    vocab = build_vocabulary(corpus, table, cb)
    _, (pos_ok, pos_total, ner_ok, ner_total) = decode_and_score(vocab, cb)
    pos_acc = pos_ok / pos_total
    ner_acc = ner_ok / ner_total if ner_total else None
    results.append(
        CheckResult(
            "round-trip POS decoding",
            pos_acc >= POS_ACCURACY_FLOOR,
            f"accuracy {pos_acc:.4f} over {len(vocab)} entries, floor {POS_ACCURACY_FLOOR}",
        )
    )
    results.append(
        CheckResult(
            "round-trip NER decoding",
            ner_acc is not None and ner_acc >= NER_ACCURACY_FLOOR,
            f"accuracy {'n/a' if ner_acc is None else f'{ner_acc:.4f}'}, "
            f"floor {NER_ACCURACY_FLOOR}",
        )
    )

    # orthogonality of the compressed space is a property of embedding-scale
    # filler norms; rebuild the same corpus over norm-5 fillers to measure it
    scaled = {w: 5.0 * v for w, v in table.items()}
    scaled_space = build_vocabulary(corpus, scaled, cb).as_space()
    report = sample_orthogonality(scaled_space, sample_size=len(scaled_space) // 2, seed=seed)
    results.append(
        CheckResult(
            "compressed-vocabulary orthogonality",
            report.fraction_below >= FIXTURE_ORTHOGONALITY_FLOOR,
            f"fraction {report.fraction_below:.4f} over {report.sample_pairs} pairs, "
            f"floor {FIXTURE_ORTHOGONALITY_FLOOR}",
        )
    )
    return results
