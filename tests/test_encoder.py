"""Encoder tests: composite keys, filler lookup, compression, vocabulary builds, file I/O."""

import json
import tempfile
import tracemalloc
from dataclasses import replace
from pathlib import Path
from types import MappingProxyType

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import (
    FISH_ANNOTATIONS,
    compress_token,
    fish_table,
    make_annotated_corpus,
    make_surrogate_table,
    superpose,
    vector_text,
)
from holovec import hrr
from holovec._fileio import atomic_writes
from holovec.codebook import VectorSpace, build_codebook
from holovec.encoder import (
    BLOCK_ROWS,
    FILLER_EXACT,
    FILLER_LOWERCASED,
    FILLER_UNKNOWN,
    AnnotatedToken,
    BuildStats,
    CompressedVocabulary,
    VocabEntry,
    build_vocabulary,
    composite_key,
    load_vocabulary,
    lookup_filler,
    read_annotations,
    read_embeddings,
    read_vectors,
    write_sidecar,
    write_vectors,
    write_vocabulary,
)
from holovec.errors import (
    DimensionMismatchError,
    IntegrityError,
    ParseError,
    UnknownTagError,
)


DROP = object()  # a sidecar edit that deletes the field


class TestCompositeKey:
    def test_verb_use(self):
        assert composite_key(AnnotatedToken("fish", "VB")) == "fishVB"

    def test_noun_use(self):
        assert composite_key(AnnotatedToken("fish", "NN")) == "fishNN"

    def test_proper_noun_with_entity_lowercases_the_surface(self):
        assert composite_key(AnnotatedToken("Fish", "NNP", "PERSON")) == "fishNNPPERSON"

    def test_pure_function(self):
        t = AnnotatedToken("Run", "VB")
        assert composite_key(t) == composite_key(AnnotatedToken("Run", "VB"))


class TestAnnotatedToken:
    def test_empty_surface_rejected(self):
        with pytest.raises(ValueError):
            AnnotatedToken("", "NN")

    def test_empty_pos_rejected(self):
        with pytest.raises(ValueError):
            AnnotatedToken("fish", "")

    def test_empty_ner_rejected(self):
        with pytest.raises(ValueError):
            AnnotatedToken("fish", "NN", "")

    @pytest.mark.parametrize(
        "surface, message",
        [
            ("new york", "surface 'new york' contains a space"),
            ("new\nyork", "surface 'new\\nyork' contains a line break"),
            ("york\r", "surface 'york\\r' contains a line break"),
            ("\ufeffnew", "surface '\\ufeffnew' starts with a byte-order mark"),
        ],
    )
    def test_surface_the_vector_format_cannot_hold_is_rejected(self, surface, message):
        with pytest.raises(ValueError) as info:
            AnnotatedToken(surface, "NNP", "GPE")
        assert str(info.value) == message

    def test_other_whitespace_and_a_later_bom_are_kept(self):
        for surface in ("a\tb", "a\u00a0b", "a\u2028b", "a\ufeff"):
            assert AnnotatedToken(surface, "NN").surface == surface


class TestLookupFiller:
    def test_exact_hit(self, small_codebook):
        table = {"Fish": np.ones(16), "fish": np.full(16, 2.0)}
        vec, source = lookup_filler("Fish", table, small_codebook)
        assert source == FILLER_EXACT
        np.testing.assert_array_equal(vec, np.ones(16))

    def test_lowercase_fallback(self, small_codebook):
        table = {"the": np.ones(16)}
        vec, source = lookup_filler("The", table, small_codebook)
        assert source == FILLER_LOWERCASED
        np.testing.assert_array_equal(vec, np.ones(16))

    def test_unknown_fallback_is_total(self, small_codebook):
        table = {}
        vec, source = lookup_filler("zyzzyva", table, small_codebook)
        assert source == FILLER_UNKNOWN
        np.testing.assert_array_equal(vec, small_codebook.unknown_token)


class TestCompressToken:
    def test_matches_hand_built_frame_with_entity(self, default_codebook):
        # independent route: naive convolution and explicit arithmetic
        cb = default_codebook
        rng = np.random.default_rng(13)
        ibm = hrr.random_vector(rng, 300)
        table = {"IBM": ibm}
        token = AnnotatedToken("IBM", "NNP", "ORG")
        vec, m = compress_token(token, table, cb)
        assert m == 4
        expected = (
            cb.frame_label
            + hrr.circular_convolve(cb.slot_labels["token"], ibm)
            + hrr.circular_convolve(cb.slot_labels["pos"], cb.pos_table["NNP"])
            + hrr.circular_convolve(cb.slot_labels["ner"], cb.ner_table["ORG"])
        ) / 4
        np.testing.assert_allclose(vec, expected, rtol=1e-9, atol=1e-12)

    def test_entityless_token_divides_by_three(self, default_codebook):
        cb = default_codebook
        rng = np.random.default_rng(14)
        filler = hrr.random_vector(rng, 300)
        table = {"run": filler}
        vec, m = compress_token(AnnotatedToken("run", "VB"), table, cb)
        assert m == 3
        expected = (
            cb.frame_label
            + hrr.circular_convolve(cb.slot_labels["token"], filler)
            + hrr.circular_convolve(cb.slot_labels["pos"], cb.pos_table["VB"])
        ) / 3
        np.testing.assert_allclose(vec, expected, rtol=1e-9, atol=1e-12)

    def test_deterministic_regardless_of_call_order(self, small_codebook):
        table = {"fish": np.arange(16, dtype=float)}
        a = compress_token(AnnotatedToken("fish", "NN"), table, small_codebook)
        b = compress_token(AnnotatedToken("FISH", "NN"), table, small_codebook)
        # same key, same filler (lowercase hit): identical vectors
        np.testing.assert_array_equal(a[0], b[0])

    def test_unknown_pos_tag_named_in_error(self, small_codebook):
        table = {}
        with pytest.raises(UnknownTagError, match="XYZ"):
            compress_token(AnnotatedToken("fish", "XYZ"), table, small_codebook)

    def test_unknown_ner_type_named_in_error(self, small_codebook):
        table = {}
        with pytest.raises(UnknownTagError, match="PLANET"):
            compress_token(AnnotatedToken("fish", "NN", "PLANET"), table, small_codebook)

    def test_dimension_mismatch_rejected(self, small_codebook):
        table = {"fish": np.ones(8)}
        with pytest.raises(DimensionMismatchError):
            compress_token(AnnotatedToken("fish", "NN"), table, small_codebook)

    def test_output_keeps_the_input_dimension(self, small_codebook):
        table = {"fish": np.ones(16)}
        vec, _ = compress_token(AnnotatedToken("fish", "NN"), table, small_codebook)
        assert vec.shape == (16,)


class TestBuildVocabulary:
    def test_the_dimension_comes_from_the_vectors_bound(self, small_codebook):
        tokens = [AnnotatedToken("known", "NN"), AnnotatedToken("mystery", "VB")]
        for table in ({"known": np.ones(8)}, {"other": np.ones(16), "known": np.ones(8)}):
            with pytest.raises(DimensionMismatchError) as info:
                build_vocabulary(tokens, table, small_codebook)
            assert str(info.value) == "embedding dimension 8 differs from codebook dimension 16"
        # a vector that no token binds is not read
        vocab = build_vocabulary(tokens, {"known": np.ones(16), "other": np.ones(8)}, small_codebook)
        assert [e.filler_source for e in vocab.entries.values()] == [FILLER_EXACT, FILLER_UNKNOWN]

    def test_any_mapping_is_a_table(self, small_codebook):
        tokens = [AnnotatedToken("Known", "NN"), AnnotatedToken("mystery", "VB", "ORG")]
        table = {"known": np.arange(16.0)}
        built = build_vocabulary(tokens, table, small_codebook)
        for other in (MappingProxyType(table), VectorSpace(table)):
            vocab = build_vocabulary(tokens, other, small_codebook)
            assert list(vocab.entries) == list(built.entries)
            for key, entry in vocab.entries.items():
                assert entry.vector.tobytes() == built.entries[key].vector.tobytes()
                assert entry.filler_source == built.entries[key].filler_source

    def test_fish_fixture(self, default_codebook):
        vocab = build_vocabulary(FISH_ANNOTATIONS, fish_table(300), default_codebook)
        assert set(vocab.entries) == {"fishVB", "fishNN", "fishNNPPERSON"}
        assert vocab.stats.input_tokens == 3
        assert vocab.stats.distinct_word_types == 1
        assert vocab.stats.distinct_keys == 3
        assert vocab.stats.growth_ratio == pytest.approx(3.0)
        assert vocab.entries["fishNNPPERSON"].component_count == 4
        assert vocab.entries["fishVB"].component_count == 3

    def test_empty_stream(self, small_codebook):
        vocab = build_vocabulary([], {}, small_codebook)
        assert len(vocab) == 0
        assert vocab.stats.input_tokens == 0
        assert vocab.stats.growth_ratio is None

    def test_repeated_token_collapses_to_one_entry(self, small_codebook):
        table = {"fish": np.ones(16)}
        tokens = [AnnotatedToken("fish", "NN")] * 1000
        vocab = build_vocabulary(tokens, table, small_codebook)
        assert len(vocab) == 1
        assert vocab.stats.input_tokens == 1000

    def test_component_count_is_four_exactly_for_entity_keys(self, small_codebook):
        table = {"a": np.ones(16)}
        tokens = [
            AnnotatedToken("a", "NN"),
            AnnotatedToken("a", "NN", "ORG"),
            AnnotatedToken("a", "NNP", "PERSON"),
        ]
        vocab = build_vocabulary(tokens, table, small_codebook)
        for key, entry in vocab.entries.items():
            assert (entry.component_count == 4) == (entry.ner_type is not None), key

    def test_unknown_tag_error_carries_line_number(self, small_codebook):
        tokens = [
            AnnotatedToken("ok", "NN", line=1),
            AnnotatedToken("bad", "QQQ", line=2),
        ]
        with pytest.raises(UnknownTagError, match="line 2"):
            build_vocabulary(tokens, {}, small_codebook)

    def test_unknown_filler_entries_counted(self, small_codebook):
        table = {"known": np.ones(16)}
        tokens = [AnnotatedToken("known", "NN"), AnnotatedToken("mystery", "NN")]
        vocab = build_vocabulary(tokens, table, small_codebook)
        assert vocab.stats.unknown_filler_entries == 1
        assert vocab.entries["mysteryNN"].filler_source == FILLER_UNKNOWN

    def test_vectors_match_compress_token(self, small_codebook):
        table = {"a": np.ones(16), "b": np.arange(16, dtype=float)}
        tokens = [
            AnnotatedToken("a", "NN"),
            AnnotatedToken("b", "VB", "ORG"),
            AnnotatedToken("c", "JJ"),
        ]
        vocab = build_vocabulary(tokens, table, small_codebook)
        for token in tokens:
            vec, m = compress_token(token, table, small_codebook)
            entry = vocab.entries[composite_key(token)]
            np.testing.assert_array_equal(entry.vector, vec)
            assert entry.component_count == m

    def test_growth_bounds(self, small_codebook):
        corpus = make_annotated_corpus(
            [f"w{i}" for i in range(30)],
            small_codebook.pos_tags,
            small_codebook.ner_types,
            seed=11,
            profiles_per_word=(1, 4),
        )
        table = {}
        vocab = build_vocabulary(corpus, table, small_codebook)
        st = vocab.stats
        n_pos = len(small_codebook.pos_tags)
        n_ner = len(small_codebook.ner_types)
        assert st.distinct_keys >= st.distinct_word_types
        assert st.distinct_keys <= st.distinct_word_types * n_pos * (n_ner + 1)

    def test_mean_squared_norm_tracks_component_count(self, default_codebook):
        # unit-expected-norm fillers: ||compressed||^2 concentrates near 1/m
        rng = np.random.default_rng(31)
        table = {f"w{i}": hrr.random_vector(rng, 300) for i in range(60)}
        plain = [AnnotatedToken(f"w{i}", "NN") for i in range(60)]
        tagged = [AnnotatedToken(f"w{i}", "NN", "ORG") for i in range(60)]
        for tokens, m in ((plain, 3), (tagged, 4)):
            vocab = build_vocabulary(tokens, table, default_codebook)
            msn = float(np.mean([np.sum(e.vector**2) for e in vocab.entries.values()]))
            assert 0.8 / m <= msn <= 1.2 / m


class TestBatchedBuild:
    """`build_vocabulary` binds blocks of keys at once; the direct sums are the oracle."""

    @given(
        n=st.shared(st.integers(min_value=2, max_value=24), key="dim"),
        words=arrays(
            np.float64,
            st.shared(st.integers(min_value=2, max_value=24), key="dim").map(lambda n: (6, n)),
            elements=st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
        ),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=10, deadline=None)
    def test_rows_match_the_direct_sums_across_a_block_boundary(self, n, words, seed):
        cb = build_codebook(dimension=n, seed=seed)
        table = {f"w{i}": vec for i, vec in enumerate(words)}
        rng = np.random.default_rng(seed)
        # BLOCK_ROWS + 1 distinct keys over known, capitalised and unknown surfaces
        surfaces = ["w0", "w1", "w2", "w3", "w4", "w5", "oov0", "oov1"]
        ner_choices = [None, *cb.ner_types]
        combos = set()
        while len(combos) < BLOCK_ROWS + 1:
            combos.add((
                int(rng.integers(len(surfaces))),
                int(rng.integers(len(cb.pos_tags))),
                int(rng.integers(len(ner_choices))),
            ))
        tokens = []
        for line, (w, p, e) in enumerate(sorted(combos, key=lambda c: rng.random()), 1):
            surface = surfaces[w].upper() if rng.random() < 0.3 else surfaces[w]
            tokens.append(AnnotatedToken(surface, cb.pos_tags[p], ner_choices[e], line=line))
        tokens += tokens[:40]  # repeats collapse onto their first occurrence

        vocab = build_vocabulary(tokens, table, cb)
        assert len(vocab) == BLOCK_ROWS + 1
        firsts = {}
        for token in tokens:
            firsts.setdefault(composite_key(token), token)
        for key, entry in vocab.entries.items():
            token = firsts[key]
            filler, source = lookup_filler(token.surface, table, cb)
            terms = [
                cb.frame_label,
                hrr.circular_convolve(cb.slot_labels["token"], filler),
                hrr.circular_convolve(cb.slot_labels["pos"], cb.pos_table[token.pos_tag]),
            ]
            if token.ner_type is not None:
                ner_filler = cb.ner_table[token.ner_type]
                terms.append(hrr.circular_convolve(cb.slot_labels["ner"], ner_filler))
            expected = sum(terms) / len(terms)
            scale = max(float(np.max(np.abs(t))) for t in terms)
            assert float(np.max(np.abs(entry.vector - expected))) <= 1e-12 * scale, key
            assert entry.component_count == len(terms)
            assert entry.filler_source == source
            # the scalar formula, term by term in the same order: equal to the last bit
            fast = [cb.frame_label] + [
                hrr.circular_convolve_fft(cb.slot_labels[slot], vec)
                for slot, vec in (
                    ("token", filler),
                    ("pos", cb.pos_table[token.pos_tag]),
                    ("ner", cb.ner_table.get(token.ner_type)),
                )
                if vec is not None
            ]
            np.testing.assert_array_equal(entry.vector, superpose(fast, len(fast)))
            vec, _ = compress_token(token, table, cb)
            np.testing.assert_array_equal(entry.vector, vec)


class TestVectorFiles:
    def test_round_trip_bitwise(self, tmp_path):
        rng = np.random.default_rng(17)
        entries = {f"k{i}": rng.normal(size=12) for i in range(20)}
        path = tmp_path / "vecs.txt"
        write_vectors(path, entries)
        dimension, loaded = read_vectors(path)
        assert dimension == 12
        assert list(loaded) == list(entries)
        for key in entries:
            np.testing.assert_array_equal(loaded[key], entries[key])

    def test_wrong_arity_names_the_line(self, tmp_path):
        path = tmp_path / "vecs.txt"
        path.write_text("a 1.0 2.0\nb 1.0 2.0 3.0\n")
        with pytest.raises(ParseError, match=":2"):
            read_vectors(path)

    def test_non_numeric_names_the_line(self, tmp_path):
        path = tmp_path / "vecs.txt"
        path.write_text("a 1.0 2.0\nb 1.0 oops\n")
        with pytest.raises(ParseError, match=":2"):
            read_vectors(path)

    def test_duplicate_key_is_integrity_error(self, tmp_path):
        path = tmp_path / "vecs.txt"
        path.write_text("a 1.0 2.0\na 3.0 4.0\n")
        with pytest.raises(IntegrityError, match="duplicate"):
            read_vectors(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "vecs.txt"
        path.write_text("")
        with pytest.raises(ParseError):
            read_vectors(path)

    def test_expected_dimension_enforced(self, tmp_path):
        path = tmp_path / "vecs.txt"
        path.write_text("a 1.0 2.0\n")
        with pytest.raises(ParseError, match=":1"):
            read_vectors(path, expected_dimension=5)

    def test_word2vec_header_sets_the_dimension(self, tmp_path):
        path = tmp_path / "vecs.txt"
        path.write_text("2 3\na 1.0 2.0 3.0\nb 4.0 5.0 6.0\n")
        dimension, loaded = read_vectors(path)
        assert dimension == 3
        assert list(loaded) == ["a", "b"]
        np.testing.assert_array_equal(loaded["b"], [4.0, 5.0, 6.0])

    def test_word2vec_header_count_is_checked(self, tmp_path):
        path = tmp_path / "vecs.txt"
        path.write_text("3 2\na 1.0 2.0\nb 3.0 4.0\n")
        with pytest.raises(ParseError, match="header declares 3 records, file has 2"):
            read_vectors(path)

    def test_word2vec_header_dimension_is_enforced(self, tmp_path):
        path = tmp_path / "vecs.txt"
        path.write_text("2 3\na 1.0 2.0\nb 3.0 4.0\n")
        with pytest.raises(ParseError, match=":2: expected 3 values, got 2"):
            read_vectors(path)
        with pytest.raises(ParseError, match=":1: header declares dimension 3, expected 2"):
            read_vectors(path, expected_dimension=2)

    def test_first_record_with_a_numeric_value_is_not_a_header(self, tmp_path):
        path = tmp_path / "vecs.txt"
        path.write_text("7 1.5\n8 2.5\n")
        dimension, loaded = read_vectors(path)
        assert dimension == 1
        assert list(loaded) == ["7", "8"]

    def test_utf8_bom_is_not_part_of_the_first_key(self, tmp_path):
        path = tmp_path / "vecs.txt"
        path.write_text("\ufeffnew 1.0 2.0\nyork 3.0 4.0\n", encoding="utf-8")
        dimension, loaded = read_vectors(path)
        assert dimension == 2
        assert list(loaded) == ["new", "york"]
        path.write_text("\ufeff2 2\nnew 1.0 2.0\nyork 3.0 4.0\n", encoding="utf-8")
        assert list(read_vectors(path)[1]) == ["new", "york"]

    @pytest.mark.parametrize(
        "header, expected_dimension",
        [("", None), ("5 3\n", None), ("", 3)],
        ids=["earlier-record", "header", "expected-dimension"],
    )
    def test_keys_with_spaces_take_the_last_n_fields_as_values(
        self, tmp_path, header, expected_dimension
    ):
        # GloVe 840B has keys such as ". . ." and "at name@domain.com"
        records = {
            ". . .": "4.0 5.0 6.0",
            "at name@domain.com": "7.0 8.0 9.0",
            "x  y": "1.5 -2.5 3.5",
            "inf .": "0.0 0.0 1.0",
            "a": "1.0 2.0 3.0",
        }
        keys = list(records)
        if not header and expected_dimension is None:
            keys = keys[-1:] + keys[:-1]  # the dimension comes from a plain first record
        path = tmp_path / "vecs.txt"
        path.write_text(header + "".join(f"{key} {records[key]}\n" for key in keys))
        dimension, loaded = read_vectors(path, expected_dimension)
        assert dimension == 3
        assert list(loaded) == keys
        for key, values in records.items():
            np.testing.assert_array_equal(loaded[key], [float(v) for v in values.split(" ")])

    @pytest.mark.parametrize(
        "record, got",
        [("b 1.0 2.0", 2), ("b c 1.0", 2), ("b 9 1.0 2.0 3.0", 4), ("b c nan 1.0 2.0 3.0", 5)],
    )
    def test_a_record_of_the_wrong_length_still_names_the_line(self, tmp_path, record, got):
        path = tmp_path / "vecs.txt"
        path.write_text(f"a 1.0 2.0 3.0\n{record}\n")
        with pytest.raises(ParseError, match=f":2: expected 3 values, got {got}$"):
            read_vectors(path)

    def test_blank_lines_are_skipped_and_counted(self, tmp_path):
        path = tmp_path / "vecs.txt"
        path.write_text("\na 1.0 2.0\n\r\n\nb 3.0 4.0\n\n")
        dimension, loaded = read_vectors(path)
        assert (dimension, list(loaded)) == (2, ["a", "b"])
        path.write_text("\na 1.0 2.0\n\r\n\nb 3.0\n")
        with pytest.raises(ParseError) as info:
            read_vectors(path)
        assert str(info.value) == f"{path}:5: expected 2 values, got 1"

    @pytest.mark.parametrize(
        "record, message",
        [
            ("b", "expected 'key value...' fields"),
            (" 1.0 2.0", "empty key"),
            ("b nan 2.0", "non-finite value"),
            ("b 1.0 inf", "non-finite value"),
            ("b -inf 2.0", "non-finite value"),
        ],
    )
    def test_a_rejected_record_is_one_line_naming_it(self, tmp_path, record, message):
        path = tmp_path / "vecs.txt"
        path.write_text(f"a 1.0 2.0\n\n{record}\n")
        with pytest.raises(ParseError) as info:
            read_vectors(path)
        assert str(info.value) == f"{path}:3: {message}"

    def test_read_embeddings_wraps_read_vectors(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("cat 1.0 0.0\ndog 0.0 1.0\n")
        table = read_embeddings(path)
        assert {key: vec.tolist() for key, vec in table.items()} == {
            "cat": [1.0, 0.0],
            "dog": [0.0, 1.0],
        }


class TestStreamedVocabularyWrite:
    @pytest.fixture(scope="class")
    def vocab(self, default_codebook):
        table = make_surrogate_table(1000, 300, seed=23, n_clusters=50)
        corpus = make_annotated_corpus(
            sorted(table), ["NN", "VB", "NNP", "JJ"], ["ORG", "PERSON"], seed=24
        )
        vocab = build_vocabulary(corpus, table, default_codebook)
        assert len(vocab) >= 2000 and vocab.dimension == 300
        return vocab

    def test_writes_the_bytes_of_the_whole_text_formatter(self, tmp_path, vocab):
        path = tmp_path / "vocab.txt"
        write_vocabulary(path, vocab)
        vectors = {key: entry.vector for key, entry in vocab.entries.items()}
        assert path.read_bytes() == vector_text(vectors).encode("utf-8")

    def test_peak_memory_is_a_sliver_of_the_file(self, tmp_path, vocab):
        path = tmp_path / "vocab.txt"
        tracemalloc.start()
        try:
            write_vocabulary(path, vocab)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # building the file whole held it three times over: lines, joined text, bytes
        assert peak < 0.05 * path.stat().st_size


class TestAnnotationFiles:
    def test_reads_tokens_with_line_numbers(self, tmp_path):
        path = tmp_path / "ann.tsv"
        path.write_text("fish\tVB\t-\n\nFish\tNNP\tPERSON\n")
        tokens = read_annotations(path)
        assert [t.line for t in tokens] == [1, 3]
        assert tokens[0].ner_type is None
        assert tokens[1].ner_type == "PERSON"

    def test_wrong_field_count_names_the_line(self, tmp_path):
        path = tmp_path / "ann.tsv"
        path.write_text("fish\tVB\t-\nfish\tVB\n")
        with pytest.raises(ParseError, match=":2"):
            read_annotations(path)

    def test_utf8_bom_is_not_part_of_the_first_surface(self, tmp_path):
        path = tmp_path / "ann.tsv"
        path.write_text("\ufeffnew\tNNP\t-\nyork\tNNP\tGPE\n", encoding="utf-8")
        tokens = read_annotations(path)
        assert [t.surface for t in tokens] == ["new", "york"]
        assert tokens[0].line == 1

    def test_surface_with_a_space_names_the_line(self, tmp_path):
        path = tmp_path / "ann.tsv"
        path.write_text("york\tNNP\tGPE\nnew york\tNNP\tGPE\n")
        with pytest.raises(ParseError, match=r":2: surface 'new york' contains a space"):
            read_annotations(path)

    def test_empty_surface_names_the_line(self, tmp_path):
        path = tmp_path / "ann.tsv"
        path.write_text("\tVB\t-\n")
        with pytest.raises(ParseError, match=":1"):
            read_annotations(path)


class TestVocabularyPersistence:
    def test_full_round_trip(self, tmp_path, default_codebook):
        vocab = build_vocabulary(FISH_ANNOTATIONS, fish_table(300), default_codebook)
        vec_path = tmp_path / "vocab.txt"
        meta_path = tmp_path / "vocab.meta.json"
        write_vocabulary(vec_path, vocab)
        write_sidecar(meta_path, vocab)
        loaded = load_vocabulary(vec_path, meta_path)
        assert loaded.dimension == vocab.dimension
        assert list(loaded.entries) == list(vocab.entries)
        for key, entry in vocab.entries.items():
            got = loaded.entries[key]
            np.testing.assert_array_equal(got.vector, entry.vector)
            assert got.component_count == entry.component_count
            assert got.filler_source == entry.filler_source
            assert got.word_type == entry.word_type
            assert got.pos_tag == entry.pos_tag
            assert got.ner_type == entry.ner_type
        assert loaded.stats.growth_ratio == pytest.approx(3.0)

    @settings(max_examples=150, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(
                st.text(min_size=1, max_size=8),
                st.sampled_from(["NN", "VB", "NNP", "JJ", "DT"]),
                st.sampled_from([None, "PERSON", "ORG"]),
                st.booleans(),
            ),
            min_size=1,
            max_size=8,
        ),
        seed=st.integers(0, 2**16),
        dropped=st.sets(st.integers(0, 7)),
    )
    def test_whatever_build_vocabulary_accepts_round_trips(
        self, small_codebook, rows, seed, dropped
    ):
        """Also after the entries are edited: ``dropped`` picks entries deleted before writing."""
        tokens = []
        for line, (surface, pos, ner, _) in enumerate(rows, 1):
            try:
                tokens.append(AnnotatedToken(surface, pos, ner, line=line))
            except ValueError:
                continue
        rng = np.random.default_rng(seed)
        embedded = {row[0] for row in rows if row[3]}
        table = {s: rng.normal(size=16) for s in sorted(embedded)}
        vocab = build_vocabulary(tokens, table, small_codebook)
        for i, key in enumerate(list(vocab.entries)):
            if i in dropped:
                del vocab.entries[key]
        with tempfile.TemporaryDirectory() as tmp:
            vec_path, meta_path = Path(tmp) / "vocab.txt", Path(tmp) / "vocab.meta.json"
            write_vocabulary(vec_path, vocab)
            write_sidecar(meta_path, vocab)
            loaded = load_vocabulary(vec_path, meta_path)
        assert list(loaded.entries) == list(vocab.entries)
        for key, entry in vocab.entries.items():
            got = loaded.entries[key]
            assert got.vector.tobytes() == entry.vector.tobytes()
            assert replace(got, vector=None) == replace(entry, vector=None)
        assert loaded.stats == vocab.stats
        assert loaded.input_tokens == vocab.input_tokens == len(tokens)

    def test_an_entry_built_in_code_round_trips_with_its_derived_count(self, tmp_path):
        entry = VocabEntry(np.ones(16), FILLER_EXACT, "york", "NNP", "GPE")
        assert entry.component_count == 4
        vocab = CompressedVocabulary(16, {"yorkNNPGPE": entry})
        vec_path, meta_path = tmp_path / "v.txt", tmp_path / "v.txt.meta.json"
        write_vocabulary(vec_path, vocab)
        write_sidecar(meta_path, vocab)
        loaded = load_vocabulary(vec_path, meta_path)
        assert loaded.entries["yorkNNPGPE"].component_count == 4
        assert replace(loaded.entries["yorkNNPGPE"], vector=None) == replace(entry, vector=None)
        assert loaded.stats == vocab.stats == BuildStats(0, 1, 1, 0)

    def test_a_key_its_entry_does_not_spell_is_refused_before_any_file_lands(self, tmp_path):
        entry = VocabEntry(np.ones(16), FILLER_EXACT, "york", "VB", None)
        vocab = CompressedVocabulary(16, {"fishNN": entry})
        vec_path, meta_path = tmp_path / "v.txt", tmp_path / "v.txt.meta.json"
        with pytest.raises(IntegrityError) as info, atomic_writes():
            write_vocabulary(vec_path, vocab)
            write_sidecar(meta_path, vocab)
        assert str(info.value) == (
            f"{meta_path}: entry 'fishNN': word_type + pos_tag + ner_type spell 'yorkVB'"
        )
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "vector, message",
        [
            (np.ones(3), "vector has shape (3,), expected (16,)"),
            (np.ones((1, 16)), "vector has shape (1, 16), expected (16,)"),
            (np.full(16, np.nan), "vector holds a NaN or an infinity"),
            (np.append(np.ones(15), -np.inf), "vector holds a NaN or an infinity"),
        ],
    )
    def test_a_vector_load_vocabulary_rejects_is_refused_before_any_file_lands(
        self, tmp_path, vector, message
    ):
        entries = {
            "yorkNNP": VocabEntry(np.ones(16), FILLER_EXACT, "york", "NNP", None),
            "fishNN": VocabEntry(vector, FILLER_EXACT, "fish", "NN", None),
        }
        vocab = CompressedVocabulary(16, entries)
        vec_path, meta_path = tmp_path / "v.txt", tmp_path / "v.txt.meta.json"
        with pytest.raises(IntegrityError) as info, atomic_writes():
            write_vocabulary(vec_path, vocab)
            write_sidecar(meta_path, vocab)
        assert str(info.value) == f"{vec_path}: entry 'fishNN': {message}"
        assert list(tmp_path.iterdir()) == []

    def test_sidecar_for_missing_key_is_integrity_error(self, tmp_path, default_codebook):
        vocab = build_vocabulary(FISH_ANNOTATIONS, fish_table(300), default_codebook)
        vec_path = tmp_path / "vocab.txt"
        meta_path = tmp_path / "vocab.meta.json"
        write_vocabulary(vec_path, vocab)
        write_sidecar(meta_path, vocab)
        doc = json.loads(meta_path.read_text())
        del doc["entries"]["fishVB"]
        meta_path.write_text(json.dumps(doc))
        with pytest.raises(IntegrityError, match="fishVB"):
            load_vocabulary(vec_path, meta_path)

    def test_sidecar_dimension_mismatch_is_integrity_error(self, tmp_path, default_codebook):
        vocab = build_vocabulary(FISH_ANNOTATIONS, fish_table(300), default_codebook)
        vec_path = tmp_path / "vocab.txt"
        meta_path = tmp_path / "vocab.meta.json"
        write_vocabulary(vec_path, vocab)
        write_sidecar(meta_path, vocab)
        doc = json.loads(meta_path.read_text())
        doc["dimension"] = 299
        meta_path.write_text(json.dumps(doc))
        with pytest.raises(IntegrityError, match="dimension"):
            load_vocabulary(vec_path, meta_path)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            (("entries", "fishNN", "word_type"), DROP, "entry 'fishNN': missing field 'word_type'"),
            (("entries", "fishNN"), None, "entry 'fishNN': must be an object"),
            (
                ("entries", "fishNN", "component_count"),
                "3",
                "entry 'fishNN': component_count must be an integer",
            ),
            (
                ("entries", "fishNN", "component_count"),
                True,
                "entry 'fishNN': component_count must be an integer",
            ),
            (("entries", "fishNN", "pos_tag"), 7, "entry 'fishNN': pos_tag must be a string"),
            (
                ("entries", "fishNN", "ner_type"),
                0,
                "entry 'fishNN': ner_type must be a string or null",
            ),
            (
                ("entries", "fishNN", "ner_type"),
                "ORG",
                "entry 'fishNN': component_count must be 4 with NER type 'ORG', got 3",
            ),
            (
                ("entries", "fishNN", "filler_source"),
                "guessed",
                "entry 'fishNN': unknown filler_source 'guessed'",
            ),
            (("stats", "input_tokens"), DROP, "stats: missing field 'input_tokens'"),
            (("stats", "distinct_keys"), 3.0, "stats: distinct_keys must be an integer"),
            (("stats",), [], "stats: must be an object"),
            (("entries",), [], "entries: must be an object"),
            (("dimension",), "300", "dimension must be a positive integer"),
            (("stats", "distinct_keys"), 5, "stats: distinct_keys is 5, entries give 3"),
            (
                ("stats", "distinct_word_types"),
                3,
                "stats: distinct_word_types is 3, entries give 1",
            ),
            (
                ("stats", "unknown_filler_entries"),
                2,
                "stats: unknown_filler_entries is 2, entries give 0",
            ),
            (
                ("entries", "birdNN"),
                {
                    "component_count": 3,
                    "filler_source": "exact",
                    "word_type": "bird",
                    "pos_tag": "NN",
                    "ner_type": None,
                },
                "metadata for absent key 'birdNN'",
            ),
        ],
    )
    def test_malformed_sidecar_is_one_integrity_error(
        self, tmp_path, default_codebook, field, value, message
    ):
        vocab = build_vocabulary(FISH_ANNOTATIONS, fish_table(300), default_codebook)
        vec_path, meta_path = tmp_path / "vocab.txt", tmp_path / "vocab.meta.json"
        write_vocabulary(vec_path, vocab)
        write_sidecar(meta_path, vocab)
        doc = json.loads(meta_path.read_text())
        *parents, last = field
        record = doc
        for name in parents:
            record = record[name]
        if value is DROP:
            del record[last]
        else:
            record[last] = value
        meta_path.write_text(json.dumps(doc))
        with pytest.raises(IntegrityError) as info:
            load_vocabulary(vec_path, meta_path)
        assert str(info.value) == f"{meta_path}: {message}"

    def test_empty_vocabulary_round_trips(self, tmp_path, small_codebook):
        vocab = build_vocabulary([], {}, small_codebook)
        vec_path, meta_path = tmp_path / "vocab.txt", tmp_path / "vocab.meta.json"
        write_vocabulary(vec_path, vocab)
        write_sidecar(meta_path, vocab)
        assert vec_path.read_text() == ""
        loaded = load_vocabulary(vec_path, meta_path)
        assert (loaded.dimension, loaded.entries, loaded.stats) == (16, {}, vocab.stats)

    def test_empty_sidecar_still_checks_the_vector_file(self, tmp_path, small_codebook):
        vec_path, meta_path = tmp_path / "vocab.txt", tmp_path / "vocab.meta.json"
        write_sidecar(meta_path, build_vocabulary([], {}, small_codebook))
        vec_path.write_text("fishNN " + " ".join(["0.5"] * 16) + "\n")
        with pytest.raises(IntegrityError, match="no metadata for key 'fishNN'"):
            load_vocabulary(vec_path, meta_path)
        vec_path.write_text("fishNN 0.5 0.5\n")
        with pytest.raises(ParseError, match=r"vocab\.txt:1: expected 16 values, got 2"):
            load_vocabulary(vec_path, meta_path)
