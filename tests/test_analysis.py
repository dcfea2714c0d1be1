"""Analysis tests: orthogonality sampling, exact k-NN, neighborhood classification.

Every ranking result is cross-checked against a brute-force reimplementation
that shares no code with the library path.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import (
    brute_force_classify,
    brute_force_neighbors,
    cosine_similarity,
    reference_neighborhoods,
    row_cosines,
    sorted_top_rows,
    write_vector_file,
)
from holovec import hrr
from holovec.analysis import (
    _top_rows,
    classify_neighborhoods,
    k_nearest,
    pairwise_cosine_stats,
    sample_orthogonality,
)
from holovec.codebook import VectorSpace, build_codebook
from holovec.encoder import (
    CompressedVocabulary,
    build_vocabulary,
    read_vectors,
)
from holovec.errors import UnknownKeyError
from holovec.selftest import synthetic_corpus, synthetic_embeddings


def random_space(n_keys, dimension, seed):
    rng = np.random.default_rng(seed)
    return {f"k{i:04d}": hrr.random_vector(rng, dimension) for i in range(n_keys)}


def bits(neighbors):
    """(key, exact float bits) pairs: tells -0.0 from 0.0 and any last-bit change."""
    return [(key, float(sim).hex()) for key, sim in neighbors]


def spaces_of_every_kind():
    """Two random spaces, of dimension 24 and 300, and a compressed vocabulary."""
    cb = build_codebook(dimension=64, seed=5)
    rng = np.random.default_rng(6)
    table = {w: 5.0 * v for w, v in synthetic_embeddings(150, 64, rng).items()}
    vocab = build_vocabulary(synthetic_corpus(sorted(table), cb, 400, rng), table, cb)
    return [random_space(200, 24, seed=7), random_space(150, 300, seed=8), vocab.as_space()]


def unit_rows(space) -> np.ndarray:
    """The rows of ``space`` in sorted key order, each divided by its norm."""
    matrix = np.stack([np.asarray(space[key], dtype=np.float64) for key in sorted(space)])
    return matrix / np.linalg.norm(matrix, axis=1)[:, None]


def exact_neighbors(space, core, k):
    """Oracle: a stable sort of every key's fixed-order float64 cosine to ``core``."""
    keys, unit = sorted(space), unit_rows(space)
    row = keys.index(core)
    exact = row_cosines(unit, unit[row])
    return [(keys[i], float(exact[i])) for i in sorted_top_rows(exact, row, k)]


def nonzero_vectors(dim):
    # small integer entries make many exact cosine ties, within and across words
    return arrays(np.float64, dim, elements=st.integers(-2, 2).map(float)).filter(np.any)


@st.composite
def word_level_spaces(draw):
    """Original and compressed spaces over the same words, 1-3 composite keys a word."""
    vector = nonzero_vectors(draw(st.integers(2, 4)))
    words = [f"w{i}" for i in range(draw(st.integers(2, 9)))]
    original = {word: draw(vector) for word in words}
    compressed, key_to_word, drawn = {}, {}, []
    for word in words:
        tags = draw(st.lists(st.sampled_from(["JJ", "NN", "VB"]), min_size=1, unique=True))
        for tag in tags:
            # reuse an earlier vector now and then: exact ties of identical vectors
            if drawn and draw(st.booleans()):
                vec = draw(st.sampled_from(drawn)).copy()
            else:
                vec = draw(vector)
            drawn.append(vec)
            compressed[word + tag] = vec
            key_to_word[word + tag] = word
    cores = draw(st.lists(st.sampled_from(words), min_size=1, max_size=3))
    k = draw(st.integers(1, len(words)))
    return original, compressed, key_to_word, cores, k


@st.composite
def plain_spaces(draw):
    vector = nonzero_vectors(draw(st.integers(2, 4)))
    n_keys = draw(st.integers(1, 12))
    return {f"k{i:02d}": draw(vector) for i in range(n_keys)}


@st.composite
def selections(draw, jitter=False):
    """Unit rows, many of them exact duplicates, a query, k and the row to leave out.

    k runs past the row count, where no partition is possible, and the left-out
    row is drawn by its rank, often next to the top-k boundary. With
    ``jitter``, each entry moves by up to two float32 ulps of 1, so duplicates
    become rows whose cosines differ below float32's resolution.
    """
    distinct = draw(st.lists(nonzero_vectors(draw(st.integers(2, 6))), min_size=1, max_size=12))
    picks = draw(st.lists(st.integers(0, len(distinct) - 1), min_size=1, max_size=40))
    matrix = np.stack([distinct[i] for i in picks])
    if jitter:
        steps = draw(arrays(np.float64, matrix.shape, elements=st.integers(-2, 2).map(float)))
        matrix = matrix + steps * 2.0**-23
    unit = matrix / np.linalg.norm(matrix, axis=1)[:, None]
    n = len(unit)
    k = draw(st.integers(1, n + 1))
    query = unit[draw(st.integers(0, n - 1))]
    rank = draw(st.integers(0, n - 1) | st.integers(max(k - 2, 0), min(k + 1, n - 1)))
    return unit, query, k, rank


def space_with_twins(rng, n_keys, dimension=300):
    """Random unit rows whose last 2-5 keys hold one vector close to the first key's.

    The twins sit where a BLAS matrix-vector product may sum some of them with
    another kernel than the rest.
    """
    matrix = rng.normal(size=(n_keys, dimension))
    matrix /= np.linalg.norm(matrix, axis=1, keepdims=True)
    twin = matrix[0] + 0.5 * rng.normal(size=dimension) / np.sqrt(dimension)
    group = int(rng.integers(2, 6))
    matrix[n_keys - group :] = twin / np.linalg.norm(twin)
    keys = [f"k{i:04d}" for i in range(n_keys)]
    return dict(zip(keys, matrix)), keys[n_keys - group :]


def twins_in_key_order(neighbors, twins) -> int:
    """How many of ``twins`` are among ``neighbors``, having checked that they
    are the first twins by key, adjacent, and share one cosine."""
    keys = [key for key, _ in neighbors]
    at = [i for i, key in enumerate(keys) if key in twins]
    assert at and keys[at[0] : at[-1] + 1] == twins[: len(at)]
    assert len({neighbors[i][1].hex() for i in at}) == 1
    return len(at)


class TestVectorSpace:
    def test_is_a_read_only_mapping_of_references_searched_in_sorted_order(self):
        matrix = np.array([[0.0, 2.0], [3.0, 4.0]])
        matrix.flags.writeable = False
        vectors = VectorSpace({"b": 0, "a": 1}, matrix)
        space = VectorSpace.of(vectors)
        assert list(space) == ["b", "a"] and len(space) == 2  # the keys in the order given
        assert space.sorted_keys == ("a", "b")
        assert np.shares_memory(space["a"], vectors["a"])
        assert space["a"].tobytes() == vectors["a"].tobytes()
        assert "a" in space and "z" not in space
        assert {key: vec.tobytes() for key, vec in space.items()} == {
            "a": vectors["a"].tobytes(),
            "b": vectors["b"].tobytes(),
        }
        assert space.index == {"a": 0, "b": 1}
        np.testing.assert_array_equal(space.unit_rows(), [[0.6, 0.8], [0.0, 1.0]])
        assert space.norms is space.norms
        assert not space.norms.flags.writeable
        with pytest.raises(TypeError):
            space["c"] = np.ones(2)

    def test_holds_the_matrix_its_vectors_are_rows_of(self):
        matrix = np.arange(1.0, 13.0).reshape(4, 3).copy()
        matrix.flags.writeable = False
        subset = VectorSpace({"d": 3, "a": 0, "c": 2}, matrix)
        assert subset.matrix is matrix and list(subset) == ["d", "a", "c"]
        space = VectorSpace.of(subset)
        for key, vec in subset.items():
            assert np.shares_memory(space[key], matrix)
            assert space[key].tobytes() == vec.tobytes()
        assert not space["a"].flags.writeable
        # a space holds its matrix as it is given, so it takes only a read-only float64 one
        float32 = matrix.astype(np.float32)
        float32.flags.writeable = False
        for other in (matrix.copy(), float32, matrix[0]):  # a row's values are scalars
            with pytest.raises(ValueError, match="must be read-only float64 and 2-D"):
                VectorSpace({"a": 0}, other)

    def test_stacks_any_other_mapping_once_into_a_read_only_copy(self):
        writable = np.arange(1.0, 7.0).reshape(2, 3)
        read_only = writable.copy()
        read_only.flags.writeable = False
        for vectors in (
            {"b": np.array([1.0, 2.0, 3.0]), "a": np.array([4.0, 5.0, 6.0])},
            {"b": writable[0], "a": writable[1]},  # a writable matrix may change
            {"b": read_only[0], "a": read_only[1]},  # row views of a read-only matrix
            {"b": [1, 2, 3], "a": [4, 5, 6]},
        ):
            space = VectorSpace.of(vectors)
            for key, vec in vectors.items():
                assert not np.shares_memory(space[key], np.asarray(vec))
                assert space[key].tobytes() == np.asarray(vec, dtype=np.float64).tobytes()
                assert not space[key].flags.writeable
            assert space["a"].base is space["b"].base  # rows of one matrix

    def test_keeps_no_unit_matrix(self):
        space = VectorSpace.of(random_space(300, 16, seed=4))
        k_nearest(space, "k0007", k=5)
        held = {name for name, value in vars(space).items() if isinstance(value, np.ndarray)}
        # the vectors, each key's row in sorted key order, their norms and the float32 screen
        assert held == {"matrix", "_order", "norms", "screen"}

    @pytest.mark.parametrize("rows", [127, 128, 129])
    def test_unit_rows_equal_the_one_shot_formula(self, rows):
        space = VectorSpace.of(random_space(rows, 300, seed=rows))
        matrix = np.stack([space[key] for key in space])
        expected = matrix / np.linalg.norm(matrix, axis=1)[:, None]
        unit = space.unit_rows()
        assert unit.tobytes() == expected.tobytes()
        # an index, an index array and a slice read the same bits as all the rows
        picked = np.array([rows - 1, 0, 3])
        assert space.unit_rows(rows - 1).tobytes() == unit[rows - 1].tobytes()
        assert space.unit_rows(picked).tobytes() == unit[picked].tobytes()
        assert space.unit_rows(slice(3, None)).tobytes() == unit[3:].tobytes()

    def test_unit_is_built_without_full_size_temporaries(self):
        space = VectorSpace.of(random_space(2000, 300, seed=13))
        tracemalloc.start()
        try:
            unit = space.unit_rows()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the matrix itself, plus norms and one block's temporaries
        assert peak < 1.25 * unit.nbytes

    def test_a_space_and_its_queries_allocate_no_copy_of_the_matrix(self, tmp_path):
        rng = np.random.default_rng(21)
        path = tmp_path / "vectors.txt"
        write_vector_file(path, {f"k{i:04d}": rng.normal(size=300) for i in range(4000)})
        table = read_vectors(path)
        tracemalloc.start()
        try:
            space = VectorSpace.of(table)
            for key in list(table)[:100]:
                k_nearest(space, key, k=10)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        matrix = table["k0000"].base
        assert space["k0000"].base is matrix  # the space shares the matrix it was given
        # beside the screen, only keys, norms and one block's temporaries: a unit
        # matrix, or any other float64 copy of the vectors, would be all of the matrix
        assert peak - space.screen.nbytes < 0.25 * matrix.nbytes

    def test_screen_is_the_unit_rows_in_float32_built_once(self):
        space = VectorSpace.of(random_space(50, 16, seed=12))
        screen = space.screen
        assert screen.dtype == np.float32 and screen.shape == (50, 16)
        assert screen.tobytes() == space.unit_rows().astype(np.float32).tobytes()
        assert not screen.flags.writeable
        k_nearest(space, "k0003", k=5)
        k_nearest(space, "k0040", k=5)
        assert space.screen is screen

    def test_cosines_screen_the_raw_rows_in_sorted_key_order(self):
        matrix = np.random.default_rng(14).normal(size=(6, 16))
        matrix.flags.writeable = False
        space = VectorSpace({"c": 4, "a": 1, "b": 3}, matrix)  # three of six rows
        query = space.unit_rows(2)
        rows = matrix[[1, 3, 4]]
        screened = space.cosines(query)
        assert screened.dtype == np.float64 and screened.shape == (3,)
        np.testing.assert_allclose(screened, rows @ query / np.linalg.norm(rows, axis=1), atol=1e-15)
        np.testing.assert_allclose(screened, space.unit_rows() @ query, atol=1e-15)

    def test_of_passes_a_space_through_and_wraps_the_rest(self):
        space = VectorSpace.of({"a": np.ones(2)})
        assert VectorSpace.of(space) is space
        assert isinstance(VectorSpace.of({"a": np.ones(2)}), VectorSpace)

    def test_a_table_is_searched_as_it_is(self, tmp_path):
        write_vector_file(tmp_path / "vectors.txt", random_space(300, 16, seed=22))
        table = read_vectors(tmp_path / "vectors.txt")
        assert VectorSpace.of(table) is table
        first = k_nearest(table, "k0007", k=10)
        index, norms, screen = table.index, table.norms, table.screen
        second = k_nearest(table, "k0123", k=10)
        assert table.index is index and table.norms is norms and table.screen is screen
        stacked = VectorSpace.of(dict(table))
        assert bits(first) == bits(k_nearest(stacked, "k0007", k=10))
        assert bits(second) == bits(k_nearest(stacked, "k0123", k=10))

    def test_rows_in_any_order_are_searched_in_sorted_key_order(self, tmp_path):
        vectors = random_space(200, 24, seed=23)
        keys = list(vectors)
        shuffled = {keys[i]: vectors[keys[i]] for i in np.random.default_rng(24).permutation(200)}
        assert list(shuffled) != sorted(vectors)
        spaces = []
        for name, given in (("sorted.txt", vectors), ("shuffled.txt", shuffled)):
            write_vector_file(tmp_path / name, given)
            spaces.append(read_vectors(tmp_path / name))
            assert list(spaces[-1]) == list(given)
        ordered, scrambled = spaces
        for core in list(vectors)[::7]:
            assert bits(k_nearest(scrambled, core, 10)) == bits(k_nearest(ordered, core, 10))
        reports = [sample_orthogonality(space, sample_size=60, seed=25) for space in spaces]
        assert reports[0].to_json_dict() == reports[1].to_json_dict()

    def test_vocabulary_as_space_is_a_snapshot(self):
        matrix = np.array([np.full(3, 1.0), np.full(3, 2.0)])
        matrix.flags.writeable = False
        columns = (("z", "a"), ("NN", "NN"), (None, None), ("exact", "exact"))
        vocab = CompressedVocabulary(("zNN", "aNN"), matrix, *columns)
        assert vocab.vectors is matrix  # a read-only matrix is held, not copied
        space = vocab.as_space()
        assert isinstance(space, VectorSpace)
        assert list(space) == ["zNN", "aNN"] and space.sorted_keys == ("aNN", "zNN")
        assert np.shares_memory(space["zNN"], matrix)
        assert space["zNN"].tobytes() == matrix[0].tobytes()
        assert vocab.as_space() is not space

    def test_zero_norm_raises_in_the_analysis_not_in_as_space(self):
        keys, vectors = ("aNN", "bNN", "cNN"), np.array([np.ones(3), np.zeros(3), np.arange(3.0)])
        columns = (("a", "b", "c"), ("NN",) * 3, (None,) * 3, ("exact",) * 3)
        space = CompressedVocabulary(keys, vectors, *columns).as_space()
        plain = dict(zip(keys, vectors))
        calls = [
            (lambda s: k_nearest(s, "aNN", k=1), "vector 'bNN' has zero norm"),
            (lambda s: k_nearest(s, "bNN", k=1), "vector 'bNN' has zero norm"),
            (lambda s: sample_orthogonality(s, sample_size=1), "vector 'bNN' has zero norm"),
            (lambda s: pairwise_cosine_stats(s), "vector 'bNN' has zero norm"),
            (lambda s: classify_neighborhoods(s, s, ["aNN"], k=1), "vector 'bNN' has zero norm"),
        ]
        for call, message in calls:
            for target in (space, plain, space):  # a failed build is not cached
                with pytest.raises(ValueError, match=message):
                    call(target)


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
            abs(cosine_similarity(space[keys[i]], space[keys[j]]))
            for i, j in zip(first, second)
        ]
        expected = np.mean([c < 0.3 for c in cosines])
        assert report.fraction_below == pytest.approx(expected)

    @pytest.mark.parametrize("size", [127, 128, 129, 257])
    def test_blocked_cosines_equal_the_one_shot_formula(self, size):
        space = VectorSpace.of(random_space(600, 16, seed=11))
        picked = np.random.default_rng(12).choice(600, size=2 * size, replace=False)
        unit = space.unit_rows()
        cosines = np.clip(np.abs(np.sum(unit[picked[:size]] * unit[picked[size:]], axis=1)), 0, 1)
        # a cosine one bit off lands on the other side of c or of the next float above c
        for c in cosines[:: max(1, size // 16)]:
            for threshold in (c, np.nextafter(c, 2.0)):
                report = sample_orthogonality(space, sample_size=size, threshold=threshold, seed=12)
                assert report.fraction_below == float(np.mean(cosines < threshold))
        counts, _ = np.histogram(cosines, bins=np.linspace(0.0, 1.0, 21))
        assert report.histogram_counts == counts.tolist()

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

    def test_zero_sample_size_rejected(self):
        with pytest.raises(ValueError, match=r"^sample_size must be >= 1, got 0$"):
            sample_orthogonality(random_space(10, 4, seed=11), sample_size=0)

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

    @pytest.mark.parametrize("threshold", [float("nan"), float("inf"), -float("inf")])
    def test_a_threshold_that_is_not_finite_is_rejected(self, threshold):
        with pytest.raises(ValueError, match=f"^threshold must be a finite number, got {threshold}$"):
            sample_orthogonality(random_space(10, 4, seed=17), sample_size=3, threshold=threshold)


class TestPairwiseStats:
    def test_matches_brute_force(self):
        space = random_space(30, 12, seed=15)
        stats = pairwise_cosine_stats(space, threshold=0.4)
        keys = sorted(space)
        cosines = [
            abs(cosine_similarity(space[a], space[b]))
            for i, a in enumerate(keys)
            for b in keys[i + 1 :]
        ]
        assert stats.pairs == len(cosines) == 30 * 29 // 2
        assert stats.max_abs_cosine == pytest.approx(max(cosines))
        assert stats.fraction_below == pytest.approx(np.mean([c < 0.4 for c in cosines]))

    @pytest.mark.parametrize("n_keys", [2, 127, 128, 129, 300])
    def test_blocked_scan_equals_the_full_gram(self, n_keys):
        space = random_space(n_keys, 64, seed=n_keys)
        unit = unit_rows(space)
        upper = np.abs((unit @ unit.T)[np.triu_indices(n_keys, 1)])
        stats = pairwise_cosine_stats(space, threshold=0.1)
        assert stats.pairs == upper.size
        assert stats.fraction_below == float(np.mean(upper < 0.1))
        # a block's product may round a cosine one ulp off the full product's
        assert abs(stats.max_abs_cosine - upper.max()) <= np.spacing(upper.max())

    def test_scan_is_built_without_the_full_gram(self):
        space = VectorSpace.of(random_space(3000, 64, seed=14))
        space.norms  # built before the measurement
        tracemalloc.start()
        try:
            pairwise_cosine_stats(space)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the full 3,000 x 3,000 gram alone is 72 MB
        assert peak < 20e6

    def test_one_vector_rejected(self):
        with pytest.raises(ValueError, match=r"^pairwise scan needs >= 2 vectors, got 1$"):
            pairwise_cosine_stats(random_space(1, 4, seed=15))

    def test_refuses_oversized_spaces(self):
        # the refusal comes before any row is stacked, so the keys' size does not matter
        space = random_space(20_001, 2, seed=16)
        with pytest.raises(ValueError, match="exhaustive scan over 20001 keys exceeds the 20000-key"):
            pairwise_cosine_stats(space)

    @pytest.mark.parametrize("threshold", [float("nan"), float("inf")])
    def test_a_threshold_that_is_not_finite_is_rejected(self, threshold):
        with pytest.raises(ValueError, match=f"^threshold must be a finite number, got {threshold}$"):
            pairwise_cosine_stats(random_space(10, 4, seed=18), threshold=threshold)


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
        with pytest.raises(UnknownKeyError, match="nope"):
            k_nearest(VectorSpace.of(random_space(5, 4, seed=20)), "nope", k=1)

    @settings(max_examples=150, deadline=None)
    @given(plain_spaces(), st.integers(1, 12))
    def test_vector_space_gives_the_plain_dict_result_bit_for_bit(self, space, k):
        shared = VectorSpace.of(space)
        for core in space:
            assert bits(k_nearest(shared, core, k)) == bits(k_nearest(space, core, k))

    def test_one_space_serves_many_queries(self):
        space = random_space(300, 24, seed=37)
        shared = VectorSpace.of(space)
        for core in list(space)[::10]:
            fast = k_nearest(shared, core, k=10)
            slow = brute_force_neighbors(space, core, 10)
            assert [key for key, _ in fast] == [key for key, _ in slow]
            np.testing.assert_allclose([s for _, s in fast], [s for _, s in slow], atol=1e-12)

    def test_bad_k_rejected(self):
        with pytest.raises(ValueError):
            k_nearest(random_space(5, 4, seed=21), "k0000", k=0)

    def test_equals_the_original_side_of_classify_neighborhoods_bit_for_bit(self):
        for space in map(VectorSpace.of, spaces_of_every_kind()):
            for k in (1, 10):
                for core in space:
                    report = classify_neighborhoods(space, space, [core], k=k)
                    assert bits(k_nearest(space, core, k)) == bits(
                        report.cores[0].original_neighbors
                    )

    def test_rows_closer_than_float32_resolution_rank_in_exact_order(self):
        rng = np.random.default_rng(43)
        dimension = 300
        core = rng.normal(size=dimension)
        core /= np.linalg.norm(core)
        space = {"core": core}
        # 40 rows at cosines 0.5 + i * 1e-9 to the core, steps far below
        # float32's ulp there (6e-8), in shuffled key order, among 400 random rows
        for i, key in zip(range(40), rng.permutation(40)):
            other = rng.normal(size=dimension)
            other -= (other @ core) * core
            other /= np.linalg.norm(other)
            cosine = 0.5 + i * 1e-9
            space[f"band{key:02d}"] = cosine * core + np.sqrt(1 - cosine**2) * other
        space.update(random_space(400, dimension, seed=44))
        shared = VectorSpace.of(space)
        row = shared.index["core"]
        for k in (1, 10, 25):
            want = exact_neighbors(space, "core", k)
            assert all(key.startswith("band") for key, _ in want)
            assert bits(k_nearest(shared, "core", k)) == bits(want)
            # the float32 screen alone cannot tell the band's rows apart
            screened = sorted_top_rows(shared.screen @ shared.screen[row], row, k)
            assert [shared.sorted_keys[i] for i in screened] != [key for key, _ in want]

    def test_matches_the_exact_ranking_for_every_key(self):
        for space in map(VectorSpace.of, spaces_of_every_kind()):
            for k in (1, 10):
                for core in space:
                    assert bits(k_nearest(space, core, k)) == bits(exact_neighbors(space, core, k))

    def test_identical_vectors_tie_in_key_order(self):
        rng = np.random.default_rng(40)
        for _ in range(60):
            space, twins = space_with_twins(rng, int(rng.integers(1000, 2201)))
            assert twins_in_key_order(k_nearest(space, "k0000", k=10), twins) == len(twins)
            # the top-k boundary splits the group: the smaller keys stay
            assert twins_in_key_order(k_nearest(space, "k0000", k=len(twins) - 1), twins)


class TestTopRows:
    @settings(max_examples=300, deadline=None)
    @given(selections())
    def test_picks_what_a_full_sort_of_the_exact_cosines_picks(self, drawn):
        unit, query, k, rank = drawn
        exact = row_cosines(unit, query)
        exclude = int(np.argsort(-exact, kind="stable")[rank])
        sims = unit @ query
        rows, cosines = _top_rows(sims, exclude, k, unit.__getitem__, query)
        want = sorted_top_rows(exact, exclude, k)
        assert rows.tolist() == want.tolist()
        assert [c.hex() for c in cosines.tolist()] == [c.hex() for c in exact[want].tolist()]
        if np.all(np.diff(np.sort(sims)) > 1e-9):  # no near-ties: the screen alone agrees
            assert rows.tolist() == sorted_top_rows(sims, exclude, k).tolist()

    @settings(max_examples=300, deadline=None)
    @given(selections(jitter=True))
    def test_a_float32_screen_picks_what_a_full_sort_of_the_exact_cosines_picks(self, drawn):
        unit, query, k, rank = drawn
        exact = row_cosines(unit, query)
        exclude = int(np.argsort(-exact, kind="stable")[rank])
        sims = unit.astype(np.float32) @ query.astype(np.float32)
        rows, cosines = _top_rows(sims, exclude, k, unit.__getitem__, query)
        want = sorted_top_rows(exact, exclude, k)
        assert rows.tolist() == want.tolist()
        assert [c.hex() for c in cosines.tolist()] == [c.hex() for c in exact[want].tolist()]

    @pytest.mark.parametrize("k", [4, 5, 9])
    def test_k_past_the_boundary_ranks_every_other_row(self, k):
        unit = VectorSpace.of(random_space(4, 8, seed=41)).unit_rows()[[0, 1, 2, 1, 3]]
        rows, cosines = _top_rows(unit @ unit[4], 4, k, unit.__getitem__, unit[4])
        assert rows.tolist() == sorted_top_rows(row_cosines(unit, unit[4]), 4, k).tolist()
        at = rows.tolist().index(1)  # row 3 repeats row 1: equal, and after it
        assert len(rows) == 4 and rows[at + 1] == 3 and cosines[at] == cosines[at + 1]

    @pytest.mark.parametrize("dimension", [7, 64, 300, 301])
    def test_a_rows_cosine_does_not_depend_on_where_it_sits(self, dimension):
        rng = np.random.default_rng(dimension)
        for _ in range(20):
            others = VectorSpace.of(
                random_space(14, dimension, seed=int(rng.integers(1 << 30)))
            ).unit_rows()
            row, query = others[0], others[13]
            alone = row_cosines(row[None, :], query)[0].hex()
            for at in range(13):
                unit = others.copy()
                unit[at] = row
                rows, cosines = _top_rows(unit @ query, 13, 13, unit.__getitem__, query)
                assert cosines[rows.tolist().index(at)].hex() == alone


class TestClassifyNeighborhoods:
    def test_identical_vectors_tie_in_key_order_on_both_sides(self):
        rng = np.random.default_rng(42)
        for k in [10, 1] * 30:  # k = 1 splits every group at the boundary
            n_keys = int(rng.integers(1000, 2201))
            original, original_twins = space_with_twins(rng, n_keys)
            compressed, compressed_twins = space_with_twins(rng, n_keys)
            [core] = classify_neighborhoods(original, compressed, ["k0000"], k=k).cores
            for side, twins in (
                (core.original_neighbors, original_twins),
                (core.compressed_neighbors, compressed_twins),
            ):
                assert twins_in_key_order(side, twins) == min(k, len(twins))

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

    def test_bad_k_and_no_cores_rejected(self):
        space = random_space(5, 4, seed=34)
        with pytest.raises(ValueError, match=r"^k must be >= 1, got 0$"):
            classify_neighborhoods(space, space, ["k0000"], k=0)
        message = r"^classify_neighborhoods\(\) requires at least one core$"
        with pytest.raises(ValueError, match=message):
            classify_neighborhoods(space, space, [], k=1)

    def test_a_one_word_space_has_empty_neighborhoods(self):
        space = random_space(1, 4, seed=34)
        message = r"^neighborhoods are empty: the spaces have no candidates$"
        with pytest.raises(ValueError, match=message):
            classify_neighborhoods(space, space, ["k0000"], k=1)

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

    @settings(max_examples=200, deadline=None)
    @given(word_level_spaces())
    def test_matches_the_per_word_loop(self, drawn):
        original, compressed, key_to_word, cores, k = drawn
        report = classify_neighborhoods(
            original, compressed, cores, k=k, compressed_key_to_word=key_to_word
        )
        assert report.core_tokens == sorted(set(cores))
        for core in report.cores:
            orig_nbrs, comp_nbrs, reps = reference_neighborhoods(
                original, compressed, core.core, k, key_to_word
            )
            assert bits(core.original_neighbors) == bits(orig_nbrs)
            assert bits(core.compressed_neighbors) == bits(comp_nbrs)
            # the matrix tells which composite represents each word, not only its cosine
            rows = [compressed[reps[word]] for word in [core.core] + [w for w, _ in comp_nbrs]]
            units = np.array([row / np.linalg.norm(row) for row in rows])
            np.testing.assert_allclose(core.compressed_cosine_matrix, units @ units.T, atol=1e-12)

    def test_composites_at_one_cosine_tie_on_the_float64_screen(self):
        # w0JJ and w0NN are both at cosine -1/sqrt(5) to the anchor w1JJ; screened as raw
        # rows times the anchor's unit row over the rows' norms, both read -fl(1/sqrt(5))
        # exactly, so w0JJ, the smaller key, represents w0; unit rows of the two would
        # screen one bit apart, and pick w0NN
        original = {"w0": np.array([1.0, 0.0, 0.0, 0.0]), "w1": np.array([0.0, 1.0, 0.0, 0.0])}
        compressed = {
            "w0JJ": np.array([1.0, 0.0, 0.0, 0.0]),
            "w0NN": np.array([-1.0, 2.0, 0.0, 2.0]),
            "w1JJ": np.array([-1.0, 0.0, 0.0, -2.0]),
        }
        mapping = {key: key[:2] for key in compressed}
        [core] = classify_neighborhoods(
            original, compressed, ["w1"], k=1, compressed_key_to_word=mapping
        ).cores
        _, comp_nbrs, reps = reference_neighborhoods(original, compressed, "w1", 1, mapping)
        assert reps["w0"] == "w0JJ"
        assert bits(core.compressed_neighbors) == bits(comp_nbrs)
        assert core.compressed_cosine_matrix[1][1] == 1.0  # w0JJ's unit row, (1, 0, 0, 0)

    def test_allocates_no_block_the_size_of_the_compressed_matrix(self):
        rng = np.random.default_rng(38)
        words = [f"w{i:03d}" for i in range(500)]
        # wide rows, so the matrix (8 MB) dwarfs the report's own objects (~0.6 MB)
        original = VectorSpace.of({word: rng.normal(size=1000) for word in words})
        composites = {word + tag: rng.normal(size=1000) for word in words for tag in ("JJ", "NN")}
        compressed = VectorSpace.of(composites)
        mapping = {key: key[:4] for key in composites}
        original.screen, compressed.norms  # each space's own, built before the trace
        tracemalloc.start()
        try:
            classify_neighborhoods(
                original, compressed, words[:20], k=10, compressed_key_to_word=mapping
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # a unit copy of the compressed rows, or any float64 copy of them, is all of it
        assert peak < 0.25 * len(compressed) * compressed.dimension * 8

    def test_ties_between_and_within_words_go_to_the_smaller_key(self):
        core_vec = np.array([1.0, 0.0])
        original = {"a": core_vec, "b": np.array([0.0, 1.0]), "c": np.array([0.0, 1.0])}
        compressed = {
            "aNN": core_vec,
            "bNN": np.array([1.0, 1.0]),  # ties bVB: represents b, as the smaller key
            "bVB": np.array([1.0, -1.0]),
            "cJJ": np.array([2.0, 2.0]),  # ties b's representative: c ranks after b
        }
        mapping = {key: key[0] for key in compressed}
        report = classify_neighborhoods(
            original, compressed, ["a"], k=2, compressed_key_to_word=mapping
        )
        core = report.cores[0]
        assert [key for key, _ in core.compressed_neighbors] == ["b", "c"]
        assert core.compressed_neighbors[0][1] == core.compressed_neighbors[1][1]
        # b's row is bNN, parallel to cJJ, not bVB, which is orthogonal to it
        assert core.compressed_cosine_matrix[1][2] == pytest.approx(1.0)
