"""Encoder tests: composite keys, filler lookup, compression, vocabulary builds, file I/O."""

import contextlib
import json
import tempfile
import tracemalloc
from dataclasses import FrozenInstanceError
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
    write_vector_file,
)
from holovec import encoder, hrr
from holovec._fileio import atomic_writes
from holovec.codebook import BLOCK_ROWS, VectorSpace, VectorTable, build_codebook
from holovec.encoder import (
    FILLER_EXACT,
    FILLER_LOWERCASED,
    FILLER_UNKNOWN,
    AnnotatedToken,
    BuildStats,
    CompressedVocabulary,
    build_vocabulary,
    composite_key,
    load_vocabulary,
    lookup_filler,
    read_annotations,
    read_vectors,
    write_sidecar,
    write_vocabulary,
)
from holovec.errors import (
    DimensionMismatchError,
    IntegrityError,
    ParseError,
    UnknownTagError,
)


DROP = object()  # a sidecar edit that deletes the field


def code_vocabulary(rows, vectors) -> CompressedVocabulary:
    """A vocabulary built in code: one (key, word type, POS tag, NER type) per row of
    ``vectors``, every filler exact."""
    keys, word_types, pos_tags, ner_types = zip(*rows)
    return CompressedVocabulary(
        keys, vectors, word_types, pos_tags, ner_types, (FILLER_EXACT,) * len(rows)
    )


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
        assert vocab.filler_sources == (FILLER_EXACT, FILLER_UNKNOWN)

    def test_any_mapping_is_a_table(self, small_codebook):
        tokens = [AnnotatedToken("Known", "NN"), AnnotatedToken("mystery", "VB", "ORG")]
        table = {"known": np.arange(16.0)}
        built = build_vocabulary(tokens, table, small_codebook)
        read_only = np.arange(16.0)[None]
        read_only.flags.writeable = False
        for other in (
            MappingProxyType(table),
            VectorSpace(table),
            VectorTable({"known": 0}, read_only),
        ):
            vocab = build_vocabulary(tokens, other, small_codebook)
            assert vocab.keys == built.keys
            assert vocab.vectors.tobytes() == built.vectors.tobytes()
            assert vocab.filler_sources == built.filler_sources

    def test_fish_fixture(self, default_codebook):
        vocab = build_vocabulary(FISH_ANNOTATIONS, fish_table(300), default_codebook)
        assert set(vocab.keys) == {"fishVB", "fishNN", "fishNNPPERSON"}
        assert vocab.stats.input_tokens == 3
        assert vocab.stats.distinct_word_types == 1
        assert vocab.stats.distinct_keys == 3
        assert vocab.stats.growth_ratio == pytest.approx(3.0)
        counts = dict(zip(vocab.keys, vocab.component_counts.tolist()))
        assert counts["fishNNPPERSON"] == 4
        assert counts["fishVB"] == 3

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
        for key, m, ner_type in zip(vocab.keys, vocab.component_counts, vocab.ner_types):
            assert (m == 4) == (ner_type is not None), key

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
        assert vocab.filler_sources[vocab.keys.index("mysteryNN")] == FILLER_UNKNOWN

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
            row = vocab.keys.index(composite_key(token))
            np.testing.assert_array_equal(vocab.vectors[row], vec)
            assert vocab.component_counts[row] == m

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
            msn = float(np.mean([np.sum(vector**2) for vector in vocab.vectors]))
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
        columns = (vocab.keys, vocab.vectors, vocab.component_counts, vocab.filler_sources)
        for key, vector, m, filler_source in zip(*columns):
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
            assert float(np.max(np.abs(vector - expected))) <= 1e-12 * scale, key
            assert m == len(terms)
            assert filler_source == source
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
            np.testing.assert_array_equal(vector, superpose(fast, len(fast)))
            vec, _ = compress_token(token, table, cb)
            np.testing.assert_array_equal(vector, vec)


class TestVectorFiles:
    def test_round_trip_bitwise(self, tmp_path):
        rng = np.random.default_rng(17)
        entries = {f"k{i}": rng.normal(size=12) for i in range(20)}
        path = tmp_path / "vecs.txt"
        write_vector_file(path, entries)
        loaded = read_vectors(path)
        assert list(loaded) == list(entries)
        assert all(vec.shape == (12,) for vec in loaded.values())
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

    @pytest.mark.parametrize("text", ["", "\n\n \n", "0 3\n"], ids=["empty", "blank", "header"])
    def test_a_file_with_no_records_reads_as_an_empty_table(self, tmp_path, text):
        path = tmp_path / "vecs.txt"
        path.write_text(text)
        assert read_vectors(path) == {}

    def test_word2vec_header_sets_the_dimension(self, tmp_path):
        path = tmp_path / "vecs.txt"
        path.write_text("2 3\na 1.0 2.0 3.0\nb 4.0 5.0 6.0\n")
        loaded = read_vectors(path)
        assert list(loaded) == ["a", "b"]
        assert loaded["a"].shape == (3,)
        np.testing.assert_array_equal(loaded["b"], [4.0, 5.0, 6.0])

    def test_word2vec_header_count_is_checked(self, tmp_path):
        path = tmp_path / "vecs.txt"
        path.write_text("3 2\na 1.0 2.0\nb 3.0 4.0\n")
        with pytest.raises(ParseError, match="header declares 3 records, file has 2"):
            read_vectors(path)

    @pytest.mark.parametrize("declared", [0, 1])
    def test_a_header_that_declares_too_few_records_is_reported(self, tmp_path, declared):
        # the matrix sized from the header grows to hold the records
        path = tmp_path / "vecs.txt"
        path.write_text(f"{declared} 2\na 1.0 2.0\nb 3.0 4.0\n")
        with pytest.raises(ParseError, match=f"header declares {declared} records, file has 2$"):
            read_vectors(path)

    def test_word2vec_header_dimension_is_enforced(self, tmp_path):
        path = tmp_path / "vecs.txt"
        path.write_text("2 3\na 1.0 2.0\nb 3.0 4.0\n")
        with pytest.raises(ParseError, match=":2: expected 3 values, got 2"):
            read_vectors(path)

    def test_first_record_with_a_numeric_value_is_not_a_header(self, tmp_path):
        path = tmp_path / "vecs.txt"
        path.write_text("7 1.5\n8 2.5\n")
        loaded = read_vectors(path)
        assert list(loaded) == ["7", "8"]
        assert loaded["7"].shape == (1,)

    def test_utf8_bom_is_not_part_of_the_first_key(self, tmp_path):
        path = tmp_path / "vecs.txt"
        path.write_text("\ufeffnew 1.0 2.0\nyork 3.0 4.0\n", encoding="utf-8")
        loaded = read_vectors(path)
        assert list(loaded) == ["new", "york"]
        assert loaded["new"].shape == (2,)
        path.write_text("\ufeff2 2\nnew 1.0 2.0\nyork 3.0 4.0\n", encoding="utf-8")
        assert list(read_vectors(path)) == ["new", "york"]

    @pytest.mark.parametrize("header", ["", "5 3\n"], ids=["earlier-record", "header"])
    def test_keys_with_spaces_take_the_last_n_fields_as_values(self, tmp_path, header):
        # GloVe 840B has keys such as ". . ." and "at name@domain.com"
        records = {
            ". . .": "4.0 5.0 6.0",
            "at name@domain.com": "7.0 8.0 9.0",
            "x  y": "1.5 -2.5 3.5",
            "inf .": "0.0 0.0 1.0",
            "a": "1.0 2.0 3.0",
        }
        keys = list(records)
        if not header:
            keys = keys[-1:] + keys[:-1]  # the dimension comes from a plain first record
        path = tmp_path / "vecs.txt"
        path.write_text(header + "".join(f"{key} {records[key]}\n" for key in keys))
        loaded = read_vectors(path)
        assert list(loaded) == keys
        assert all(vec.shape == (3,) for vec in loaded.values())
        for key, values in records.items():
            np.testing.assert_array_equal(loaded[key], [float(v) for v in values.split(" ")])

    @pytest.mark.parametrize(
        "header, values",
        [
            # word2vec.c prints each value with "%lf ", fastText's .vec writer "v[j] << ' '"
            ("2 3\n", ["0.100000", "-0.250000", "3.000000"]),
            ("2 3\n", ["0.1", "-0.25", "3"]),
            ("2 3 \n", ["0.1", "-0.25", "3"]),
            ("", ["0.1", "-2.5e-05", "1234.5678"]),
        ],
        ids=["word2vec-c", "fasttext", "spaced-header", "glove-style"],
    )
    def test_records_that_end_in_a_space_read_bit_exactly(self, tmp_path, header, values):
        path = tmp_path / "vecs.txt"
        path.write_text(header + f"the {' '.join(values)} \nof {' '.join(values[::-1])} \n")
        loaded = read_vectors(path)
        assert list(loaded) == ["the", "of"]
        expected = np.array([float(v) for v in values])
        assert loaded["the"].tobytes() == expected.tobytes()
        assert loaded["of"].tobytes() == expected[::-1].tobytes()

    def test_a_key_with_spaces_and_a_trailing_space_keeps_its_spaces(self, tmp_path):
        path = tmp_path / "vecs.txt"
        path.write_text("a 1.0 2.0 3.0 \n. . . 4.0 5.0 6.0 \nx  y -0.5 0.25 7.0  \n")
        loaded = read_vectors(path)
        assert list(loaded) == ["a", ". . .", "x  y"]
        assert loaded[". . ."].tobytes() == np.array([4.0, 5.0, 6.0]).tobytes()
        assert loaded["x  y"].tobytes() == np.array([-0.5, 0.25, 7.0]).tobytes()

    def test_a_line_of_only_spaces_is_skipped_and_counted(self, tmp_path):
        path = tmp_path / "vecs.txt"
        path.write_text("a 1.0 2.0\n   \nb 3.0 4.0\n")
        loaded = read_vectors(path)
        assert list(loaded) == ["a", "b"]
        assert loaded["b"].tobytes() == np.array([3.0, 4.0]).tobytes()
        path.write_text("a 1.0 2.0\n   \nb 3.0\n")
        with pytest.raises(ParseError) as info:
            read_vectors(path)
        assert str(info.value) == f"{path}:3: expected 2 values, got 1"

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
        loaded = read_vectors(path)
        assert list(loaded) == ["a", "b"] and loaded["a"].shape == (2,)
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

    def test_the_values_are_read_only_rows_of_one_float64_matrix(self, tmp_path):
        rng = np.random.default_rng(18)
        entries = {f"k{i}": rng.normal(size=5) for i in range(40)}
        path = tmp_path / "vecs.txt"
        write_vector_file(path, entries)
        loaded = read_vectors(path)
        matrix = loaded["k0"].base
        assert matrix.dtype == np.float64 and matrix.shape == (40, 5)
        assert not matrix.flags.writeable
        for row, (key, vec) in enumerate(loaded.items()):
            assert vec.base is matrix and np.shares_memory(vec, matrix[row])
            assert not vec.flags.writeable
            assert vec.tobytes() == entries[key].tobytes()

    def test_a_read_holds_no_second_copy_of_its_values(self, tmp_path):
        rng = np.random.default_rng(19)
        path = tmp_path / "vecs.txt"
        write_vector_file(path, {f"w{i}": rng.normal(size=300) for i in range(2000)})
        tracemalloc.start()
        try:
            loaded = read_vectors(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        matrix = loaded["w0"].base
        assert matrix.shape == (2000, 300)
        assert peak < 2.1 * matrix.nbytes

    def test_a_word2vec_header_sizes_the_matrix_exactly(self, tmp_path):
        rng = np.random.default_rng(20)
        table = {f"w{i}": rng.normal(size=300) for i in range(1000)}
        path = tmp_path / "vecs.txt"
        write_vector_file(path, table)
        path.write_text("1000 300\n" + path.read_text())
        tracemalloc.start()
        try:
            loaded = read_vectors(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # no row to spare: the rest is the keys and one line's fields
        assert peak < 1.1 * loaded["w0"].base.nbytes
        assert [vec.tobytes() for vec in loaded.values()] == [v.tobytes() for v in table.values()]

    def test_a_file_longer_than_its_first_record_suggests_grows_the_matrix(self, tmp_path):
        # a long first record makes the size estimate fall short, so the matrix grows
        records = ["first " + " ".join(["-1.2345678901234567"] * 4)]
        records += [f"k{i} {i}.0 1.0 2.0 3.0" for i in range(200)]
        path = tmp_path / "vecs.txt"
        path.write_text("\n".join(records) + "\n")
        loaded = read_vectors(path)
        assert len(loaded) == 201 and loaded["k0"].shape == (4,)
        assert loaded["first"].tolist() == [-1.2345678901234567] * 4
        assert loaded["k199"].tolist() == [199.0, 1.0, 2.0, 3.0]
        assert loaded["first"].base is loaded["k199"].base
        assert loaded["first"].base.shape == (201, 4)

    @pytest.mark.parametrize(
        "record, message",
        [
            ("b", "expected 'key value...' fields"),
            (" 1.0 2.0 3.0 4.0", "empty key"),
            ("b 1.0 2.0", "expected 4 values, got 2"),
            ("b 1.0 2.0 oops 4.0", "non-numeric value"),
            ("b 1.0 nan 3.0 4.0", "non-finite value"),
            ("k7 1.0 2.0 3.0 4.0", "duplicate key 'k7'"),
        ],
    )
    def test_every_parse_error_names_its_line_after_the_matrix_grows(
        self, tmp_path, record, message
    ):
        records = ["first " + " ".join(["-1.2345678901234567"] * 4)]
        records += [f"k{i} {i}.0 1.0 2.0 3.0" for i in range(200)]
        path = tmp_path / "vecs.txt"
        path.write_text("\n".join(records + [record]) + "\n")
        with pytest.raises((ParseError, IntegrityError)) as info:
            read_vectors(path)
        assert str(info.value).startswith(f"{path}:202: {message}")


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
        vectors = dict(zip(vocab.keys, vocab.vectors))
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

    def test_a_whitespace_only_line_is_skipped_and_keeps_its_number(self, tmp_path):
        path = tmp_path / "ann.tsv"
        path.write_text("fish\tVB\t-\n \t \nFish\tNNP\tPERSON\nfish\tNN\n")
        with pytest.raises(ParseError, match=r"ann\.tsv:4: expected 3 tab-separated fields"):
            read_annotations(path)
        path.write_text("fish\tVB\t-\n \t \nFish\tNNP\tPERSON\n")
        assert [(t.surface, t.line) for t in read_annotations(path)] == [("fish", 1), ("Fish", 3)]

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
        assert loaded.keys == vocab.keys
        np.testing.assert_array_equal(loaded.vectors, vocab.vectors)
        np.testing.assert_array_equal(loaded.component_counts, vocab.component_counts)
        assert loaded.filler_sources == vocab.filler_sources
        assert loaded.word_types == vocab.word_types
        assert loaded.pos_tags == vocab.pos_tags
        assert loaded.ner_types == vocab.ner_types
        assert loaded.stats.growth_ratio == pytest.approx(3.0)

    def test_equal_column_items_are_one_object(self, tmp_path, small_codebook):
        cb = small_codebook
        lines = ["fish\tNN\t-", "Fish\tNNP\tPERSON", "fish\tVB\t-", "york\tNN\t-",
                 "York\tNNP\tORG", "bird\tNNP\tPERSON", "bird\tNN\tORG", "York\tVB\tORG"]
        (tmp_path / "corpus.tsv").write_text("".join(line + "\n" for line in lines))
        tokens = read_annotations(tmp_path / "corpus.tsv")  # every field its own string
        table = {"fish": np.ones(16), "York": np.ones(16)}
        built = build_vocabulary(tokens, table, cb)
        write_vocabulary(tmp_path / "vocab.txt", built)
        write_sidecar(tmp_path / "vocab.meta.json", built)
        loaded = load_vocabulary(tmp_path / "vocab.txt", tmp_path / "vocab.meta.json")
        for vocab in (built, loaded):
            for name in ("word_types", "pos_tags", "ner_types", "filler_sources"):
                column, first = getattr(vocab, name), {}
                assert len(set(column)) < len(column), name  # values repeat
                assert all(first.setdefault(item, item) is item for item in column), name
            constants = (FILLER_EXACT, FILLER_LOWERCASED, FILLER_UNKNOWN)
            assert all(any(s is c for c in constants) for s in vocab.filler_sources)
            assert set(vocab.filler_sources) == set(constants)
        assert all(any(tag is t for t in cb.pos_tags) for tag in built.pos_tags)
        assert all(any(ner is t for t in cb.ner_types) for ner in built.ner_types if ner)

    def test_a_sidecar_in_another_order_than_the_vector_file_loads(
        self, tmp_path, default_codebook
    ):
        vocab = build_vocabulary(FISH_ANNOTATIONS, fish_table(300), default_codebook)
        write_vocabulary(tmp_path / "vocab.txt", vocab)
        meta_path = tmp_path / "vocab.meta.json"
        write_sidecar(meta_path, vocab)
        doc = json.loads(meta_path.read_text())
        doc["entries"] = dict(reversed(doc["entries"].items()))
        meta_path.write_text(json.dumps(doc))
        loaded = load_vocabulary(tmp_path / "vocab.txt", meta_path)
        assert loaded.keys == vocab.keys
        for name in ("word_types", "pos_tags", "ner_types", "filler_sources"):
            assert getattr(loaded, name) == getattr(vocab, name), name

    def test_a_loaded_space_keeps_its_keys_and_index_read_only(self, tmp_path, default_codebook):
        vocab = build_vocabulary(FISH_ANNOTATIONS, fish_table(300), default_codebook)
        write_vocabulary(tmp_path / "vocab.txt", vocab)
        write_sidecar(tmp_path / "vocab.meta.json", vocab)
        loaded = load_vocabulary(tmp_path / "vocab.txt", tmp_path / "vocab.meta.json")
        for space in (vocab.as_space(), loaded.as_space()):
            with pytest.raises(TypeError):
                space.index["fishNN"] = space.index["fishVB"]
            with pytest.raises(TypeError):
                space.sorted_keys[0] = "fishVB"
            assert space.index == {"fishNN": 0, "fishNNPPERSON": 1, "fishVB": 2}
            assert space.sorted_keys == ("fishNN", "fishNNPPERSON", "fishVB")

    def test_a_loaded_vocabulary_and_both_spaces_hold_the_matrix_read_vectors_filled(
        self, tmp_path, default_codebook, monkeypatch
    ):
        vocab = build_vocabulary(FISH_ANNOTATIONS, fish_table(300), default_codebook)
        write_vocabulary(tmp_path / "vocab.txt", vocab)
        write_sidecar(tmp_path / "vocab.meta.json", vocab)
        tables = []

        def reading(path):
            tables.append(read_vectors(path))
            return tables[-1]

        monkeypatch.setattr(encoder, "read_vectors", reading)
        loaded = load_vocabulary(tmp_path / "vocab.txt", tmp_path / "vocab.meta.json")
        [table] = tables
        assert loaded.vectors is table.matrix
        for space in (loaded.as_space(), VectorSpace(table)):
            for key in loaded.keys:
                assert np.shares_memory(space[key], table.matrix)
                assert space[key].tobytes() == table[key].tobytes()

    def test_a_vocabulary_cannot_be_edited_into_files_load_vocabulary_rejects(
        self, tmp_path, small_codebook
    ):
        tokens = [AnnotatedToken("fish", "NN"), AnnotatedToken("york", "NNP", "ORG")]
        keys, vectors = ["fishNN", "yorkNNP"], np.ones((2, 16))
        columns = (["fish", "york"], ["NN", "NNP"], [None, None], [FILLER_EXACT] * 2)
        in_code = CompressedVocabulary(keys, vectors, *columns)
        # lists and a writable matrix are copied: editing them later changes nothing
        keys.append("birdNN")
        vectors[0, 0] = np.nan
        for vocab in (build_vocabulary(tokens, {}, small_codebook), in_code):
            for name in ("keys", "word_types", "pos_tags", "ner_types", "filler_sources"):
                assert type(getattr(vocab, name)) is tuple, name
            assert not vocab.vectors.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                vocab.vectors[0, 0] = np.nan
            with pytest.raises(FrozenInstanceError):
                vocab.keys = ("birdNN",)
        assert in_code.keys == ("fishNN", "yorkNNP")
        assert np.isfinite(in_code.vectors).all()
        write_vocabulary(tmp_path / "v.txt", in_code)
        write_sidecar(tmp_path / "v.meta.json", in_code)
        assert load_vocabulary(tmp_path / "v.txt", tmp_path / "v.meta.json").keys == in_code.keys

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"vectors": np.ones(16)}, "vectors must be a matrix, got shape (16,)"),
            ({"vectors": np.ones((3, 16))}, "3 vectors but 2 keys"),
            ({"pos_tags": ("NN",)}, "2 vectors but 1 pos_tags"),
            ({"filler_sources": ()}, "2 vectors but 0 filler_sources"),
            ({"keys": ("fishNN", "fishNN")}, "keys must be distinct"),
        ],
    )
    def test_columns_that_do_not_line_up_raise_value_error(self, change, message):
        columns = {
            "keys": ("fishNN", "yorkNNP"),
            "vectors": np.ones((2, 16)),
            "word_types": ("fish", "york"),
            "pos_tags": ("NN", "NNP"),
            "ner_types": (None, None),
            "filler_sources": (FILLER_EXACT, FILLER_EXACT),
        }
        with pytest.raises(ValueError) as info:
            CompressedVocabulary(**{**columns, **change})
        assert str(info.value) == message

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
        """Also for a vocabulary built in code from some of its keys: ``dropped`` picks the
        rows left out."""
        tokens = []
        for line, (surface, pos, ner, _) in enumerate(rows, 1):
            try:
                tokens.append(AnnotatedToken(surface, pos, ner, line=line))
            except ValueError:
                continue
        rng = np.random.default_rng(seed)
        embedded = {row[0] for row in rows if row[3]}
        table = {s: rng.normal(size=16) for s in sorted(embedded)}
        built = build_vocabulary(tokens, table, small_codebook)
        kept = [row for row in range(len(built)) if row not in dropped]

        def column(values: tuple) -> tuple:
            return tuple(values[row] for row in kept)

        vocab = CompressedVocabulary(
            column(built.keys),
            built.vectors[kept],
            column(built.word_types),
            column(built.pos_tags),
            column(built.ner_types),
            column(built.filler_sources),
            built.input_tokens,
        )
        with tempfile.TemporaryDirectory() as tmp:
            vec_path, meta_path = Path(tmp) / "vocab.txt", Path(tmp) / "vocab.meta.json"
            write_vocabulary(vec_path, vocab)
            write_sidecar(meta_path, vocab)
            loaded = load_vocabulary(vec_path, meta_path)
        assert loaded.keys == vocab.keys
        assert loaded.vectors.tobytes() == vocab.vectors.tobytes()
        for name in ("word_types", "pos_tags", "ner_types", "filler_sources"):
            assert getattr(loaded, name) == getattr(vocab, name), name
        assert loaded.component_counts.tolist() == vocab.component_counts.tolist()
        assert loaded.stats == vocab.stats
        assert loaded.input_tokens == vocab.input_tokens == len(tokens)

    def test_an_entry_built_in_code_round_trips_with_its_derived_count(self, tmp_path):
        vocab = code_vocabulary([("yorkNNPGPE", "york", "NNP", "GPE")], np.ones((1, 16)))
        assert vocab.component_counts.tolist() == [4]
        vec_path, meta_path = tmp_path / "v.txt", tmp_path / "v.txt.meta.json"
        write_vocabulary(vec_path, vocab)
        write_sidecar(meta_path, vocab)
        loaded = load_vocabulary(vec_path, meta_path)
        assert loaded.component_counts.tolist() == [4]
        for name in ("keys", "word_types", "pos_tags", "ner_types", "filler_sources"):
            assert getattr(loaded, name) == getattr(vocab, name), name
        assert loaded.stats == vocab.stats == BuildStats(0, 1, 1, 0)

    def test_a_key_its_entry_does_not_spell_is_refused_before_any_file_lands(self, tmp_path):
        vocab = code_vocabulary([("fishNN", "york", "VB", None)], np.ones((1, 16)))
        vec_path, meta_path = tmp_path / "v.txt", tmp_path / "v.txt.meta.json"
        with pytest.raises(IntegrityError) as info, atomic_writes():
            write_vocabulary(vec_path, vocab)
            write_sidecar(meta_path, vocab)
        assert str(info.value) == (
            f"{meta_path}: entry 'fishNN': word_type + pos_tag + ner_type spell 'yorkVB'"
        )
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "vector",
        [np.full(16, np.nan), np.append(np.ones(15), -np.inf)],
    )
    def test_a_vector_load_vocabulary_rejects_is_refused_before_any_file_lands(
        self, tmp_path, vector
    ):
        rows = [("yorkNNP", "york", "NNP", None), ("fishNN", "fish", "NN", None)]
        vocab = code_vocabulary(rows, np.stack([np.ones(16), vector]))
        vec_path, meta_path = tmp_path / "v.txt", tmp_path / "v.txt.meta.json"
        with pytest.raises(IntegrityError) as info, atomic_writes():
            write_vocabulary(vec_path, vocab)
            write_sidecar(meta_path, vocab)
        assert str(info.value) == f"{vec_path}: entry 'fishNN': vector holds a NaN or an infinity"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "key, fault",
        [
            ("", "is empty"),
            ("new yorkNNP", "contains a space"),
            ("new\nyorkNNP", "contains a line break"),
            ("new\ryorkNNP", "contains a line break"),
            ("\ufeffyorkNNP", "starts with a byte-order mark"),
        ],
    )
    def test_a_key_the_vector_format_cannot_hold_is_refused(self, tmp_path, key, fault):
        rows = [("fishNN", "fish", "NN", None), (key, key[:-3], "NNP", None)]
        vec_path = tmp_path / "v.txt"
        with pytest.raises(IntegrityError) as info:
            write_vocabulary(vec_path, code_vocabulary(rows, np.ones((2, 16))))
        assert str(info.value) == f"{vec_path}: entry {key!r}: key {fault}"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("block", [contextlib.nullcontext, atomic_writes])
    def test_a_refused_write_leaves_an_existing_file_byte_identical(self, tmp_path, block):
        # the bad record comes after a good one that differs from the file's, so a
        # write that failed mid-stream in place would change the file
        fish, york = ("fishNN", "fish", "NN", None), ("yorkNNP", "york", "NNP", None)
        vec_path = tmp_path / "v.txt"
        write_vocabulary(vec_path, code_vocabulary([fish], np.ones((1, 16))))
        before = vec_path.read_bytes()
        vocab = code_vocabulary([fish, york], np.stack([np.ones(16) / 3, np.full(16, np.nan)]))
        with pytest.raises(IntegrityError, match="'yorkNNP': vector holds a NaN"), block():
            write_vocabulary(vec_path, vocab)
        assert vec_path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [vec_path]

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

    def test_a_key_given_twice_in_the_sidecar_is_refused(self, tmp_path, small_codebook):
        vocab = build_vocabulary([AnnotatedToken("york", "NN")], {}, small_codebook)
        vec_path, meta_path = tmp_path / "vocab.txt", tmp_path / "vocab.meta.json"
        write_vocabulary(vec_path, vocab)
        write_sidecar(meta_path, vocab)
        text = meta_path.read_text()
        assert text.count('"filler_source":"unknown"') == 1
        # an exact-filler record ahead of the one written, which the reader kept before
        record = (
            '"yorkNN":{"component_count":3,"filler_source":"exact",'
            '"word_type":"york","pos_tag":"NN","ner_type":null},'
        )
        meta_path.write_text(text.replace('"entries":{', '"entries":{' + record, 1))
        with pytest.raises(ParseError) as info:
            load_vocabulary(vec_path, meta_path)
        assert str(info.value) == f"{meta_path}: duplicate member 'yorkNN'"

    def test_a_bad_sidecar_is_reported_before_the_vector_file_is_read(
        self, tmp_path, small_codebook
    ):
        meta_path = tmp_path / "vocab.meta.json"
        vocab = build_vocabulary([AnnotatedToken("york", "NN")], {}, small_codebook)
        write_sidecar(meta_path, vocab)
        doc = json.loads(meta_path.read_text())
        doc["entries"]["yorkNN"]["filler_source"] = "guessed"
        meta_path.write_text(json.dumps(doc))
        with pytest.raises(IntegrityError) as info:
            load_vocabulary(tmp_path / "absent.txt", meta_path)
        assert str(info.value) == f"{meta_path}: entry 'yorkNN': unknown filler_source 'guessed'"

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
        assert (loaded.dimension, loaded.keys, loaded.stats) == (16, (), vocab.stats)

    def test_empty_sidecar_still_checks_the_vector_file(self, tmp_path, small_codebook):
        vec_path, meta_path = tmp_path / "vocab.txt", tmp_path / "vocab.meta.json"
        write_sidecar(meta_path, build_vocabulary([], {}, small_codebook))
        vec_path.write_text("fishNN " + " ".join(["0.5"] * 16) + "\n")
        with pytest.raises(IntegrityError, match="no metadata for key 'fishNN'"):
            load_vocabulary(vec_path, meta_path)
        vec_path.write_text("fishNN 0.5 0.5\n")
        with pytest.raises(IntegrityError) as info:
            load_vocabulary(vec_path, meta_path)
        assert str(info.value) == f"{meta_path}: declares dimension 16, vector file has 2"
