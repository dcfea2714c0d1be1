"""Unit and property tests for the dense-vector algebra."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import circular_correlate, cosine_similarity, superpose
from holovec import hrr
from holovec.errors import DimensionMismatchError


def rel_err(actual, expected):
    scale = max(float(np.max(np.abs(expected))), 1e-300)
    return float(np.max(np.abs(np.asarray(actual) - np.asarray(expected)))) / scale


class TestCircularConvolve:
    def test_delta_at_zero_is_identity(self):
        out = hrr.circular_convolve([1, 0, 0], [4, 5, 6])
        np.testing.assert_array_equal(out, [4.0, 5.0, 6.0])

    def test_delta_at_one_shifts(self):
        out = hrr.circular_convolve([0, 1, 0], [4, 5, 6])
        np.testing.assert_array_equal(out, [6.0, 4.0, 5.0])

    def test_hand_expanded_case(self):
        out = hrr.circular_convolve([1, 2, 3], [4, 5, 6])
        np.testing.assert_array_equal(out, [31.0, 31.0, 28.0])
        assert out.sum() == 6 * 15

    def test_length_mismatch_rejected(self):
        with pytest.raises(DimensionMismatchError):
            hrr.circular_convolve([1, 2], [1, 2, 3])

    def test_length_one(self):
        np.testing.assert_array_equal(hrr.circular_convolve([3.0], [4.0]), [12.0])


@pytest.mark.parametrize("fn", [hrr.circular_convolve, circular_correlate])
class TestDirectSumInputs:
    def test_two_dimensional_input_rejected(self, fn):
        with pytest.raises(ValueError, match=r"1-D vector, got shape \(2, 3\)"):
            fn(np.ones((2, 3)), np.ones(3))
        with pytest.raises(ValueError, match=r"1-D vector, got shape \(2, 3\)"):
            fn(np.ones(3), np.ones((2, 3)))

    def test_empty_vector_rejected(self, fn):
        with pytest.raises(ValueError):
            fn([], [])
        with pytest.raises(ValueError):
            fn([], [1.0])


class TestCircularConvolveFft:
    def test_matches_naive_on_hand_case(self):
        out = hrr.circular_convolve_fft([1, 2, 3], [4, 5, 6])
        assert rel_err(out, [31, 31, 28]) < 1e-9

    def test_identity_power_of_two(self):
        out = hrr.circular_convolve_fft([1, 0, 0, 0], [7, 8, 9, 10])
        assert rel_err(out, [7, 8, 9, 10]) < 1e-9

    @pytest.mark.parametrize("n", [3, 4, 128, 300, 1000])
    def test_matches_naive_random(self, n):
        rng = np.random.default_rng(n)
        for _ in range(10):
            a = hrr.random_vector(rng, n)
            b = hrr.random_vector(rng, n)
            assert rel_err(hrr.circular_convolve_fft(a, b), hrr.circular_convolve(a, b)) < 1e-9

    def test_length_mismatch_rejected(self):
        with pytest.raises(DimensionMismatchError):
            hrr.circular_convolve_fft([1, 2], [1, 2, 3])


class TestStackedRows:
    @pytest.mark.parametrize("fn", [hrr.circular_convolve_fft, hrr.circular_correlate_fft])
    def test_each_row_is_bit_identical_to_the_row_alone(self, fn):
        rng = np.random.default_rng(9)
        a = hrr.random_vector(rng, 300)
        rows = 5.0 * rng.normal(size=(257, 300))
        stacked = fn(a, rows)
        assert stacked.shape == rows.shape
        for row, out in zip(rows, stacked):
            np.testing.assert_array_equal(out, fn(a, row))

    @pytest.mark.parametrize(
        "fn, oracle",
        [
            (hrr.circular_convolve_fft, hrr.circular_convolve),
            (hrr.circular_correlate_fft, circular_correlate),
        ],
    )
    def test_stack_against_stack_matches_the_direct_sums(self, fn, oracle):
        rng = np.random.default_rng(10)
        a = rng.normal(size=(2, 3, 16))
        b = rng.normal(size=(2, 3, 16))
        out = fn(a, b)
        assert out.shape == (2, 3, 16)
        for i in np.ndindex(2, 3):
            assert rel_err(out[i], oracle(a[i], b[i])) < 1e-9

    def test_last_axis_mismatch_rejected(self):
        with pytest.raises(DimensionMismatchError):
            hrr.circular_convolve_fft(np.ones(4), np.ones((3, 5)))

    def test_scalar_rejected(self):
        with pytest.raises(ValueError):
            hrr.circular_correlate_fft(1.0, np.ones(3))


class TestCircularCorrelate:
    def test_delta_at_zero_is_identity(self):
        np.testing.assert_array_equal(circular_correlate([1, 0, 0], [4, 5, 6]), [4.0, 5.0, 6.0])

    def test_inverts_the_shift_example(self):
        # (0,1,0) convolved with (4,5,6) gave (6,4,5); correlation undoes it
        np.testing.assert_array_equal(circular_correlate([0, 1, 0], [6, 4, 5]), [4.0, 5.0, 6.0])

    def test_fft_matches_naive(self):
        rng = np.random.default_rng(8)
        for n in (3, 4, 128, 300):
            a = hrr.random_vector(rng, n)
            t = hrr.random_vector(rng, n)
            assert rel_err(hrr.circular_correlate_fft(a, t), circular_correlate(a, t)) < 1e-9

    def test_recovers_bound_filler_above_distractors(self):
        # the approximate-inverse property: correlate(a, a (x) x) ~ x
        rng = np.random.default_rng(21)
        n, trials = 300, 1000
        cosines = []
        distractor_cosines = []
        for _ in range(trials):
            a = hrr.random_vector(rng, n)
            x = hrr.random_vector(rng, n)
            recovered = hrr.circular_correlate_fft(a, hrr.circular_convolve_fft(a, x))
            cosines.append(cosine_similarity(recovered, x))
            distractor_cosines.append(
                cosine_similarity(recovered, hrr.random_vector(rng, n))
            )
        cosines = np.array(cosines)
        # calibrated: mean 0.713 +- 0.036, min 0.543 over 2000 trials
        assert cosines.mean() > 0.65
        assert np.mean(cosines > 0.5) >= 0.99
        assert cosines.mean() > np.abs(distractor_cosines).mean() + 0.5


class TestSuperpose:
    def test_mean_of_two(self):
        np.testing.assert_array_equal(superpose([[1, 2], [3, 4]], 2), [2.0, 3.0])

    def test_singleton(self):
        np.testing.assert_array_equal(superpose([[1, 2]], 1), [1.0, 2.0])

    def test_mean_of_progression(self):
        np.testing.assert_array_equal(superpose([[1, 1], [2, 2], [3, 3]], 3), [2.0, 2.0])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            superpose([], 1)

    def test_mismatch_rejected(self):
        with pytest.raises(DimensionMismatchError):
            superpose([[1, 2], [1, 2, 3]], 2)

    def test_bad_divisor_rejected(self):
        with pytest.raises(ValueError):
            superpose([[1, 2]], 0)


class TestCosineSimilarity:
    def test_parallel(self):
        assert cosine_similarity([1, 0], [1, 0]) == 1.0

    def test_orthogonal(self):
        assert cosine_similarity([1, 0], [0, 1]) == 0.0

    def test_antiparallel(self):
        assert cosine_similarity([1, 0], [-1, 0]) == -1.0

    def test_zero_norm_rejected(self):
        with pytest.raises(ValueError):
            cosine_similarity([0, 0], [1, 0])
        with pytest.raises(ValueError):
            cosine_similarity([1, 0], [0, 0])

    def test_scale_invariant(self):
        rng = np.random.default_rng(4)
        a, b = rng.normal(size=20), rng.normal(size=20)
        assert cosine_similarity(a, b) == pytest.approx(
            cosine_similarity(3.5 * a, 0.2 * b), abs=1e-12
        )


class TestRandomVector:
    def test_reproducible_bitwise(self):
        gen_a, gen_b = np.random.default_rng(9), np.random.default_rng(9)
        for _ in range(5):
            np.testing.assert_array_equal(
                hrr.random_vector(gen_a, 300), hrr.random_vector(gen_b, 300)
            )

    def test_different_seeds_differ(self):
        v1 = hrr.random_vector(np.random.default_rng(1), 300)
        v2 = hrr.random_vector(np.random.default_rng(2), 300)
        assert not np.array_equal(v1, v2)

    def test_coordinate_means_near_zero(self):
        rng = np.random.default_rng(10)
        draws = np.stack([hrr.random_vector(rng, 300) for _ in range(10_000)])
        # 4 sigma / sqrt(N) = 4 * (1/sqrt(300)) / 100 = 0.0023 << 0.02
        assert np.max(np.abs(draws.mean(axis=0))) < 0.02

    def test_mean_squared_norm_is_one(self):
        rng = np.random.default_rng(11)
        draws = np.stack([hrr.random_vector(rng, 300) for _ in range(10_000)])
        msn = float(np.mean(np.sum(draws**2, axis=1)))
        assert abs(msn - 1.0) < 0.05

    def test_random_pairs_are_quasi_orthogonal(self):
        rng = np.random.default_rng(12)
        a = np.stack([hrr.random_vector(rng, 300) for _ in range(10_000)])
        b = np.stack([hrr.random_vector(rng, 300) for _ in range(10_000)])
        cos = np.sum(a * b, axis=1) / (
            np.linalg.norm(a, axis=1) * np.linalg.norm(b, axis=1)
        )
        assert np.mean(np.abs(cos) < 0.25) >= 0.93

    def test_bad_dimension_rejected(self):
        with pytest.raises(ValueError):
            hrr.random_vector(np.random.default_rng(0), 0)


finite_vectors = arrays(
    np.float64,
    st.shared(st.integers(min_value=1, max_value=24), key="n"),
    elements=st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
)


class TestAlgebraicProperties:
    @given(a=finite_vectors, b=finite_vectors)
    @settings(max_examples=100, deadline=None)
    def test_commutative(self, a, b):
        scale = max(1.0, float(np.sum(np.abs(a)) * np.sum(np.abs(b))))
        diff = np.max(np.abs(hrr.circular_convolve(a, b) - hrr.circular_convolve(b, a)))
        assert diff <= 1e-9 * scale

    @given(a=finite_vectors, b=finite_vectors, c=finite_vectors)
    @settings(max_examples=100, deadline=None)
    def test_linear_in_second_argument(self, a, b, c):
        scale = max(1.0, float(np.sum(np.abs(a)) * (np.sum(np.abs(b)) + np.sum(np.abs(c)))))
        lhs = hrr.circular_convolve(a, b + c)
        rhs = hrr.circular_convolve(a, b) + hrr.circular_convolve(a, c)
        assert np.max(np.abs(lhs - rhs)) <= 1e-9 * scale

    @given(a=finite_vectors, b=finite_vectors)
    @settings(max_examples=100, deadline=None)
    def test_sum_identity(self, a, b):
        scale = max(1.0, float(np.sum(np.abs(a)) * np.sum(np.abs(b))))
        total = float(np.sum(hrr.circular_convolve(a, b)))
        assert abs(total - float(np.sum(a) * np.sum(b))) <= 1e-9 * scale

    @given(b=finite_vectors)
    @settings(max_examples=100, deadline=None)
    def test_delta_identity(self, b):
        delta = np.zeros_like(b)
        delta[0] = 1.0
        np.testing.assert_array_equal(hrr.circular_convolve(delta, b), b)
