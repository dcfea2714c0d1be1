"""Analysis tests: orthogonality sampling, exact k-NN, neighborhood classification.

Every ranking result is cross-checked against a brute-force reimplementation
that shares no code with the library path.
"""

import numpy as np
import pytest

from conftest import brute_force_classify, brute_force_neighbors
from holovec import hrr
from holovec.analysis import (
    classify_neighborhoods,
    k_nearest,
    pairwise_cosine_stats,
    sample_orthogonality,
)
from holovec.errors import UnknownKeyError


def random_space(n_keys, dimension, seed):
    rng = np.random.default_rng(seed)
    return {f"k{i:04d}": hrr.random_vector(rng, dimension) for i in range(n_keys)}


class TestSampleOrthogonality:
    def test_identical_vectors_give_zero(self):
        space = {f"c{i}": np.array([1.0, 2.0, 3.0]) for i in range(10)}
        report = sample_orthogonality(space, sample_size=5, seed=1)
        assert report.fraction_below == 0.0

    def test_random_space_is_quasi_orthogonal(self):
        space = random_space(10_000, 300, seed=2)
        report = sample_orthogonality(space, sample_size=5000, seed=3)
        assert report.sample_pairs == 5000
        assert report.fraction_below >= 0.93

    def test_matches_brute_force_recomputation(self):
        space = random_space(40, 16, seed=4)
        report = sample_orthogonality(space, sample_size=20, threshold=0.3, seed=5)
        # replay the documented sampling procedure independently
        keys = sorted(space)
        picked = np.random.default_rng(5).choice(len(keys), size=40, replace=False)
        first, second = picked[:20], picked[20:]
        assert not set(first) & set(second)
        cosines = [
            abs(hrr.cosine_similarity(space[keys[i]], space[keys[j]]))
            for i, j in zip(first, second)
        ]
        expected = np.mean([c < 0.3 for c in cosines])
        assert report.fraction_below == pytest.approx(expected)

    def test_histogram_is_consistent_with_fraction(self):
        space = random_space(2000, 64, seed=6)
        report = sample_orthogonality(space, sample_size=1000, threshold=0.25, seed=7)
        assert sum(report.histogram_counts) == report.sample_pairs
        below = sum(report.histogram_counts[:5])  # buckets up to 0.25
        assert below / report.sample_pairs == pytest.approx(report.fraction_below, abs=1e-12)

    def test_reproducible_and_seed_sensitive(self):
        space = random_space(200, 32, seed=8)
        r1 = sample_orthogonality(space, sample_size=50, seed=9)
        r2 = sample_orthogonality(space, sample_size=50, seed=9)
        r3 = sample_orthogonality(space, sample_size=50, seed=10)
        assert r1 == r2
        assert r1.histogram_counts != r3.histogram_counts or r1.fraction_below != r3.fraction_below

    def test_oversized_request_is_clamped_and_flagged(self):
        space = random_space(10, 8, seed=11)
        report = sample_orthogonality(space, sample_size=1000, seed=12)
        assert report.clamped
        assert report.sample_pairs == 5
        assert report.requested_sample_size == 1000

    def test_too_small_space_rejected(self):
        with pytest.raises(ValueError):
            sample_orthogonality({"a": np.ones(4)}, sample_size=1)

    def test_report_round_trips_to_json(self, tmp_path):
        import json

        space = random_space(50, 16, seed=13)
        report = sample_orthogonality(space, sample_size=10, seed=14)
        path = tmp_path / "report.json"
        report.write(path)
        doc = json.loads(path.read_text())
        assert doc["fraction_below"] == report.fraction_below
        assert doc["histogram"]["counts"] == report.histogram_counts
        assert doc["seed"] == 14


class TestPairwiseStats:
    def test_matches_brute_force(self):
        space = random_space(30, 12, seed=15)
        stats = pairwise_cosine_stats(space, threshold=0.4)
        keys = sorted(space)
        cosines = [
            abs(hrr.cosine_similarity(space[a], space[b]))
            for i, a in enumerate(keys)
            for b in keys[i + 1 :]
        ]
        assert stats.pairs == len(cosines) == 30 * 29 // 2
        assert stats.max_abs_cosine == pytest.approx(max(cosines))
        assert stats.fraction_below == pytest.approx(np.mean([c < 0.4 for c in cosines]))

    def test_refuses_oversized_spaces(self):
        space = random_space(30, 4, seed=16)
        with pytest.raises(ValueError, match="exhaustive"):
            pairwise_cosine_stats(space, max_keys=10)


class TestKNearest:
    def test_two_dimensional_hand_case(self):
        space = {"a": np.array([1.0, 0.0]), "b": np.array([0.9, 0.1]), "c": np.array([0.0, 1.0])}
        result = k_nearest(space, "a", k=2)
        assert [key for key, _ in result] == ["b", "c"]

    def test_k_larger_than_space_returns_everything(self):
        space = random_space(5, 8, seed=17)
        result = k_nearest(space, "k0000", k=100)
        assert len(result) == 4
        sims = [s for _, s in result]
        assert sims == sorted(sims, reverse=True)

    def test_matches_brute_force_on_500_keys(self):
        space = random_space(500, 32, seed=18)
        for core in ("k0000", "k0123", "k0499"):
            fast = k_nearest(space, core, k=10)
            slow = brute_force_neighbors(space, core, 10)
            assert [key for key, _ in fast] == [key for key, _ in slow]
            np.testing.assert_allclose(
                [s for _, s in fast], [s for _, s in slow], atol=1e-12
            )

    def test_duplicate_of_core_ranks_first_with_cosine_one(self):
        space = random_space(50, 16, seed=19)
        space["zz_clone"] = space["k0007"].copy()
        result = k_nearest(space, "k0007", k=3)
        assert result[0][0] == "zz_clone"
        assert result[0][1] == pytest.approx(1.0)

    def test_exact_ties_break_lexicographically(self):
        v = np.array([1.0, 1.0])
        space = {"core": v, "delta": v.copy(), "bravo": v.copy(), "alpha": np.array([1.0, 0.0])}
        result = k_nearest(space, "core", k=3)
        assert [key for key, _ in result] == ["bravo", "delta", "alpha"]

    def test_absent_core_rejected(self):
        with pytest.raises(UnknownKeyError, match="nope"):
            k_nearest(random_space(5, 4, seed=20), "nope", k=1)

    def test_bad_k_rejected(self):
        with pytest.raises(ValueError):
            k_nearest(random_space(5, 4, seed=21), "k0000", k=0)


class TestClassifyNeighborhoods:
    def test_identical_spaces_are_all_same_position(self):
        space = random_space(100, 16, seed=22)
        cores = ["k0001", "k0050", "k0099"]
        report = classify_neighborhoods(space, dict(space), cores, k=10)
        assert report.fraction_same_position == pytest.approx(1.0)
        assert report.fraction_shifted == 0.0
        assert report.fraction_disjoint == 0.0

    def test_whole_space_negation_is_a_cosine_isometry(self):
        # negating every vector leaves all cosines unchanged, so the
        # neighborhoods are identical, not reversed
        space = random_space(100, 16, seed=23)
        negated = {key: -vec for key, vec in space.items()}
        cores = ["k0010", "k0020"]
        report = classify_neighborhoods(space, negated, cores, k=10)
        oracle = brute_force_classify(space, negated, cores, 10)
        assert report.fraction_same_position == pytest.approx(1.0)
        assert (
            report.fraction_same_position,
            report.fraction_shifted,
            report.fraction_disjoint,
        ) == pytest.approx(oracle)

    def test_similarity_reversal_is_fully_disjoint(self):
        # negating every vector except the core's flips the sign of every
        # core-to-candidate cosine: nearest become farthest
        space = random_space(100, 16, seed=23)
        for core in ("k0010", "k0020"):
            reversed_space = {
                key: (vec if key == core else -vec) for key, vec in space.items()
            }
            report = classify_neighborhoods(space, reversed_space, [core], k=10)
            oracle = brute_force_classify(space, reversed_space, [core], 10)
            assert report.fraction_disjoint == pytest.approx(1.0)
            assert (
                report.fraction_same_position,
                report.fraction_shifted,
                report.fraction_disjoint,
            ) == pytest.approx(oracle)

    def test_matches_brute_force_on_random_pair_of_spaces(self):
        original = random_space(100, 16, seed=24)
        # perturb: half the vectors get noise, producing a mix of all classes
        rng = np.random.default_rng(25)
        compressed = {
            key: vec + (0.4 * rng.normal(size=16) if i % 2 else 0.0)
            for i, (key, vec) in enumerate(original.items())
        }
        cores = ["k0003", "k0033", "k0066", "k0090"]
        report = classify_neighborhoods(original, compressed, cores, k=10)
        oracle = brute_force_classify(original, compressed, cores, 10)
        got = (
            report.fraction_same_position,
            report.fraction_shifted,
            report.fraction_disjoint,
        )
        assert got == pytest.approx(oracle)

    def test_fractions_sum_to_one(self):
        original = random_space(60, 8, seed=26)
        rng = np.random.default_rng(27)
        compressed = {key: vec + 0.3 * rng.normal(size=8) for key, vec in original.items()}
        report = classify_neighborhoods(original, compressed, ["k0000", "k0042"], k=7)
        total = (
            report.fraction_same_position
            + report.fraction_shifted
            + report.fraction_disjoint
        )
        assert abs(total - 1.0) < 1e-9

    def test_core_order_is_irrelevant(self):
        original = random_space(50, 8, seed=28)
        rng = np.random.default_rng(29)
        compressed = {key: vec + 0.2 * rng.normal(size=8) for key, vec in original.items()}
        cores = ["k0005", "k0010", "k0015"]
        fwd = classify_neighborhoods(original, compressed, cores, k=5)
        rev = classify_neighborhoods(original, compressed, list(reversed(cores)), k=5)
        assert fwd.core_tokens == rev.core_tokens
        assert fwd.fraction_same_position == rev.fraction_same_position
        assert fwd.fraction_shifted == rev.fraction_shifted

    def test_k_clamps_to_the_space_size(self):
        space = random_space(5, 8, seed=35)
        rng = np.random.default_rng(36)
        other = {key: vec + 0.2 * rng.normal(size=8) for key, vec in space.items()}
        report = classify_neighborhoods(space, other, ["k0000"], k=10)
        core = report.cores[0]
        assert core.k_effective == 4
        assert len(core.original_neighbors) == 4
        total = (
            report.fraction_same_position
            + report.fraction_shifted
            + report.fraction_disjoint
        )
        assert abs(total - 1.0) < 1e-9

    def test_mismatched_universes_rejected(self):
        original = random_space(10, 4, seed=32)
        compressed = dict(original)
        del compressed["k0003"]
        with pytest.raises(UnknownKeyError, match="k0003"):
            classify_neighborhoods(original, compressed, ["k0000"], k=2)

    def test_missing_core_rejected(self):
        space = random_space(10, 4, seed=33)
        with pytest.raises(UnknownKeyError):
            classify_neighborhoods(space, dict(space), ["absent"], k=2)


class TestWordLevelProjection:
    def test_representative_is_the_closest_composite(self):
        # word 'b' has two composite keys; the better one must represent it
        core_vec = np.array([1.0, 0.0, 0.0])
        good = np.array([0.9, 0.1, 0.0])
        bad = np.array([0.0, 0.0, 1.0])
        other = np.array([0.5, 0.5, 0.0])
        original = {
            "a": core_vec,
            "b": np.array([0.8, 0.2, 0.0]),
            "c": np.array([0.4, 0.6, 0.0]),
        }
        compressed = {"aNN": core_vec, "bNN": bad, "bVB": good, "cNN": other}
        mapping = {"aNN": "a", "bNN": "b", "bVB": "b", "cNN": "c"}
        report = classify_neighborhoods(
            original, compressed, ["a"], k=2, compressed_key_to_word=mapping
        )
        core = report.cores[0]
        comp_keys = [key for key, _ in core.compressed_neighbors]
        comp_sims = dict(core.compressed_neighbors)
        assert comp_keys[0] == "b"  # via bVB, cosine ~0.994
        assert comp_sims["b"] == pytest.approx(
            float(np.dot(core_vec, good) / (np.linalg.norm(core_vec) * np.linalg.norm(good)))
        )

    def test_core_uses_its_first_composite_key(self):
        # core word 'a' has two composite vectors pointing different ways;
        # the lexicographically first key (aAA) must anchor the neighborhood
        original = {
            "a": np.array([1.0, 0.0]),
            "b": np.array([0.9, 0.1]),
            "c": np.array([0.0, 1.0]),
        }
        compressed = {
            "aAA": np.array([0.0, 1.0]),   # anchor
            "aZZ": np.array([1.0, 0.0]),
            "bNN": np.array([0.1, 0.9]),   # near the anchor
            "cNN": np.array([1.0, 0.05]),  # far from the anchor
        }
        mapping = {"aAA": "a", "aZZ": "a", "bNN": "b", "cNN": "c"}
        report = classify_neighborhoods(
            original, compressed, ["a"], k=1, compressed_key_to_word=mapping
        )
        assert [key for key, _ in report.cores[0].compressed_neighbors] == ["b"]

    def test_unmapped_composite_key_rejected(self):
        original = {"a": np.ones(3), "b": np.full(3, 2.0)}
        compressed = {"aNN": np.ones(3), "bNN": np.full(3, 2.0)}
        with pytest.raises(UnknownKeyError, match="bNN"):
            classify_neighborhoods(
                original, compressed, ["a"], k=1, compressed_key_to_word={"aNN": "a"}
            )

    def test_word_level_disjoint_counting(self):
        # same-word composites collapse; fractions still sum to one
        rng = np.random.default_rng(34)
        words = [f"w{i}" for i in range(30)]
        original = {w: rng.normal(size=8) for w in words}
        compressed = {}
        mapping = {}
        for w in words:
            for suffix in ("NN", "VB"):
                key = w + suffix
                compressed[key] = original[w] + 0.3 * rng.normal(size=8)
                mapping[key] = w
        report = classify_neighborhoods(
            original, compressed, ["w0", "w7"], k=5, compressed_key_to_word=mapping
        )
        total = (
            report.fraction_same_position
            + report.fraction_shifted
            + report.fraction_disjoint
        )
        assert abs(total - 1.0) < 1e-9
        for core in report.cores:
            assert len(core.compressed_neighbors) == 5
            assert all(" " not in key for key, _ in core.compressed_neighbors)
