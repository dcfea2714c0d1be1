"""Dense-vector algebra for holographic reduced representations.

Binding is circular convolution and unbinding is circular correlation
(the encoder composes bound terms by an element-wise sum scaled by the
number of summands). All operations are pure functions over float64 arrays
and never mutate their inputs.

Both transforms multiply real-FFT spectra. They take stacks of rows (the
last axis is the vector) and broadcast over the leading axes, so one call
binds or unbinds a whole block; each row of the result is bit-identical to
the same row transformed alone. Convolution also has a direct-summation
form over 1-D vectors that follows the defining sum term by term, kept as
the reference that `self-test` checks the FFT against.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatchError

__all__ = [
    "circular_convolve",
    "circular_convolve_fft",
    "circular_correlate_fft",
    "random_vector",
]


def _paired_rows(a, b) -> tuple[np.ndarray, np.ndarray]:
    va = np.asarray(a, dtype=np.float64)
    vb = np.asarray(b, dtype=np.float64)
    for v in (va, vb):
        if v.ndim == 0 or v.shape[-1] == 0:
            raise ValueError(f"expected non-empty vectors along the last axis, got shape {v.shape}")
    if va.shape[-1] != vb.shape[-1]:
        raise DimensionMismatchError(
            f"vector lengths differ: {va.shape[-1]} vs {vb.shape[-1]}"
        )
    return va, vb


def circular_convolve(a, b) -> np.ndarray:
    """Circular convolution by direct summation.

    out[j] = sum_k a[k] * b[(j - k) mod n]. Commutative, dimension
    preserving; the sum of the output equals sum(a) * sum(b).
    """
    a, b = _paired_rows(a, b)
    for v in (a, b):
        if v.ndim != 1:
            raise ValueError(f"expected a 1-D vector, got shape {v.shape}")
    n = a.shape[0]
    jk = (np.arange(n)[:, None] - np.arange(n)[None, :]) % n
    return b[jk] @ a


def circular_convolve_fft(a, b) -> np.ndarray:
    """Circular convolution via real FFTs; equals `circular_convolve` to ~1e-12.

    ``a`` and ``b`` are vectors or stacks of rows that broadcast against
    each other over their leading axes.
    """
    a, b = _paired_rows(a, b)
    return np.fft.irfft(np.fft.rfft(a) * np.fft.rfft(b), n=a.shape[-1])


def circular_correlate_fft(a, t) -> np.ndarray:
    """Circular correlation via real FFTs: the approximate inverse of binding.

    out[j] = sum_k a[k] * t[(k + j) mod n]. When t = circular_convolve(a, x)
    and a is drawn from N(0, 1/n), the result is x plus zero-mean crosstalk
    noise, recoverable by cleanup against a candidate set. Broadcasts over
    leading axes like `circular_convolve_fft`.
    """
    a, t = _paired_rows(a, t)
    return np.fft.irfft(np.conj(np.fft.rfft(a)) * np.fft.rfft(t), n=a.shape[-1])


def random_vector(rng: np.random.Generator, n: int) -> np.ndarray:
    """n independent draws from N(0, 1/n), so E||v||^2 = 1.

    The caller owns the generator; advancing its state is the only side
    effect, which keeps draw sequences reproducible from a seed.
    """
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    return rng.normal(0.0, np.sqrt(1.0 / n), size=n)
