"""Codebook generation, persistence, and cleanup-memory tests."""

import json

import numpy as np
import pytest

from conftest import cleanup, compress_token, cosine_similarity, superpose, with_vectors
from holovec import hrr
from holovec.codebook import (
    Codebook,
    FillerTable,
    VectorSpace,
    build_codebook,
    default_ner_types,
    default_pos_tags,
    load_codebook,
    read_tag_list,
    save_codebook,
)
from holovec.encoder import AnnotatedToken, composite_key
from holovec.errors import DimensionMismatchError, IntegrityError, ParseError


class TestDefaults:
    def test_default_tag_set_sizes(self):
        assert len(default_pos_tags()) == 50
        assert len(default_ner_types()) == 19

    def test_default_codebook_has_74_vectors(self, default_codebook):
        assert default_codebook.vector_count == 74
        assert len(default_codebook.all_vectors()) == 74
        assert default_codebook.dimension == 300


class TestBuild:
    def test_deterministic_bitwise(self):
        cb1 = build_codebook(["NN", "VB"], ["ORG"], dimension=64, seed=99)
        cb2 = build_codebook(["NN", "VB"], ["ORG"], dimension=64, seed=99)
        assert cb1 == cb2

    def test_seed_changes_vectors(self):
        cb1 = build_codebook(["NN"], ["ORG"], dimension=64, seed=1)
        cb2 = build_codebook(["NN"], ["ORG"], dimension=64, seed=2)
        assert not np.array_equal(cb1.frame_label, cb2.frame_label)

    def test_draw_order_isolates_earlier_vectors(self):
        # vectors drawn before the NER fillers must not depend on the NER list
        cb1 = build_codebook(["NN", "VB"], ["ORG"], dimension=32, seed=5)
        cb2 = build_codebook(["NN", "VB"], ["ORG", "PERSON"], dimension=32, seed=5)
        np.testing.assert_array_equal(cb1.frame_label, cb2.frame_label)
        np.testing.assert_array_equal(cb1.pos_table["VB"], cb2.pos_table["VB"])
        np.testing.assert_array_equal(cb1.ner_table["ORG"], cb2.ner_table["ORG"])

    def test_every_vector_has_the_declared_dimension(self, default_codebook):
        for name, vec in default_codebook.all_vectors().items():
            assert vec.shape == (300,), name

    def test_duplicate_tag_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            build_codebook(["NN", "NN"], ["ORG"], dimension=16)
        with pytest.raises(ValueError, match="duplicate"):
            build_codebook(["NN"], ["ORG", "ORG"], dimension=16)

    def test_tag_with_whitespace_rejected(self):
        with pytest.raises(ValueError, match=r"^POS tag 'NN P' contains whitespace$"):
            build_codebook(["NN", "NN P"], ["ORG"], dimension=16)
        with pytest.raises(ValueError, match=r"^NER type 'OR\\tG' contains whitespace$"):
            build_codebook(["NN"], ["OR\tG"], dimension=16)

    @pytest.mark.parametrize(
        "pos_tags, ner_types, token_a, token_b, message",
        [
            (
                ["NN", "NNP"],
                ["PERSON", "PPERSON"],
                AnnotatedToken("Fish", "NN", "PPERSON"),
                AnnotatedToken("fish", "NNP", "PERSON"),
                "POS tag 'NN' with NER type 'PPERSON' and POS tag 'NNP' with NER type 'PERSON' "
                "both end composite keys in 'NNPPERSON'",
            ),
            (
                ["NN", "xNN"],
                ["ORG"],
                AnnotatedToken("Box", "NN"),
                AnnotatedToken("bo", "xNN"),
                "a word ending in 'x' with POS tag 'NN' has the composite key of the word "
                "without it with POS tag 'xNN'",
            ),
            (
                ["NN", "-NN"],
                ["ORG"],
                AnnotatedToken("A-", "NN"),
                AnnotatedToken("a", "-NN"),
                "a word ending in '-' with POS tag 'NN' has the composite key of the word "
                "without it with POS tag '-NN'",
            ),
        ],
    )
    def test_tags_that_let_two_tokens_share_a_key_rejected(
        self, pos_tags, ner_types, token_a, token_b, message
    ):
        assert composite_key(token_a) == composite_key(token_b)
        with pytest.raises(ValueError) as info:
            build_codebook(pos_tags, ner_types, dimension=16)
        assert str(info.value) == message

    def test_a_prefix_no_lowercased_word_ends_in_is_allowed(self):
        cb = build_codebook(["NN", "XNN"], ["ORG"], dimension=16)
        assert cb.pos_tags == ("NN", "XNN")

    def test_small_dimension_rejected(self):
        with pytest.raises(ValueError):
            build_codebook(["NN"], ["ORG"], dimension=1)

    def test_empty_tag_list_rejected(self):
        with pytest.raises(ValueError):
            build_codebook([], ["ORG"], dimension=16)

    def test_quasi_orthogonality_of_default_codebook(self, default_codebook):
        vectors = list(default_codebook.all_vectors().values())
        below = total = 0
        for i in range(len(vectors)):
            for j in range(i + 1, len(vectors)):
                total += 1
                below += int(abs(cosine_similarity(vectors[i], vectors[j])) < 0.25)
        assert total == 74 * 73 // 2
        assert below / total >= 0.95


class TestPersistence:
    def test_round_trip_bitwise(self, tmp_path, default_codebook):
        path = tmp_path / "cb.json"
        save_codebook(default_codebook, path)
        assert load_codebook(path) == default_codebook

    def test_round_trip_preserves_seed_and_order(self, tmp_path):
        cb = build_codebook(["VB", "NN", "DT"], ["GPE", "ORG"], dimension=24, seed=1234)
        path = tmp_path / "cb.json"
        save_codebook(cb, path)
        loaded = load_codebook(path)
        assert loaded.seed == 1234
        assert loaded.pos_tags == ("VB", "NN", "DT")
        assert loaded.ner_types == ("GPE", "ORG")

    def test_a_leading_byte_order_mark_is_skipped(self, tmp_path, small_codebook):
        path = tmp_path / "cb.json"
        save_codebook(small_codebook, path)
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        assert load_codebook(path) == small_codebook

    @pytest.mark.parametrize(
        "before, after, member",
        [
            ('"seed":3,', '"seed":1,"seed":3,', "seed"),  # read as seed 3 before
            ('"vectors":{', '"vectors":{"unknown":[0.5],', "unknown"),
        ],
        ids=["seed", "vector"],
    )
    def test_a_member_named_twice_is_refused(self, tmp_path, small_codebook, before, after, member):
        path = tmp_path / "cb.json"
        save_codebook(small_codebook, path)
        text = path.read_text()
        assert text.count(before) == 1
        path.write_text(text.replace(before, after))
        with pytest.raises(ParseError) as info:
            load_codebook(path)
        assert str(info.value) == f"{path}: duplicate member {member!r}"

    def test_tag_with_whitespace_is_integrity_error(self, tmp_path):
        cb = build_codebook(["NN", "VB"], ["ORG"], dimension=16, seed=7)
        path = tmp_path / "cb.json"
        save_codebook(cb, path)
        doc = json.loads(path.read_text())
        doc["pos_tags"] = ["NN P", "VB"]
        doc["vectors"]["pos:NN P"] = doc["vectors"].pop("pos:NN")
        path.write_text(json.dumps(doc))
        with pytest.raises(IntegrityError, match=r"cb\.json: POS tag 'NN P' contains whitespace"):
            load_codebook(path)

    def test_tags_that_let_two_tokens_share_a_key_are_integrity_error(self, tmp_path):
        cb = build_codebook(["NN", "NNP"], ["PERSON", "QPERSON"], dimension=16, seed=7)
        path = tmp_path / "cb.json"
        save_codebook(cb, path)
        doc = json.loads(path.read_text())
        doc["ner_types"] = ["PERSON", "PPERSON"]
        doc["vectors"]["ner:PPERSON"] = doc["vectors"].pop("ner:QPERSON")
        path.write_text(json.dumps(doc))
        with pytest.raises(IntegrityError) as info:
            load_codebook(path)
        assert str(info.value) == (
            f"{path}: POS tag 'NN' with NER type 'PPERSON' and POS tag 'NNP' "
            "with NER type 'PERSON' both end composite keys in 'NNPPERSON'"
        )

    def test_truncated_vector_is_integrity_error(self, tmp_path):
        cb = build_codebook(["NN"], ["ORG"], dimension=16, seed=7)
        path = tmp_path / "cb.json"
        save_codebook(cb, path)
        doc = json.loads(path.read_text())
        doc["vectors"]["pos:NN"] = doc["vectors"]["pos:NN"][:-1]
        path.write_text(json.dumps(doc))
        with pytest.raises(IntegrityError, match="pos:NN"):
            load_codebook(path)

    def test_dimension_mismatch_is_integrity_error(self, tmp_path):
        cb = build_codebook(["NN"], ["ORG"], dimension=16, seed=7)
        path = tmp_path / "cb.json"
        save_codebook(cb, path)
        doc = json.loads(path.read_text())
        doc["dimension"] = 32
        path.write_text(json.dumps(doc))
        with pytest.raises(IntegrityError):
            load_codebook(path)

    def test_missing_field_is_parse_error(self, tmp_path):
        cb = build_codebook(["NN"], ["ORG"], dimension=16, seed=7)
        path = tmp_path / "cb.json"
        save_codebook(cb, path)
        doc = json.loads(path.read_text())
        del doc["seed"]
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError, match="seed"):
            load_codebook(path)

    def test_missing_vector_is_parse_error(self, tmp_path):
        cb = build_codebook(["NN"], ["ORG"], dimension=16, seed=7)
        path = tmp_path / "cb.json"
        save_codebook(cb, path)
        doc = json.loads(path.read_text())
        del doc["vectors"]["unknown"]
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError, match="unknown"):
            load_codebook(path)

    def test_garbage_is_parse_error(self, tmp_path):
        path = tmp_path / "cb.json"
        path.write_text("not json{")
        with pytest.raises(ParseError):
            load_codebook(path)

    def test_non_integer_seed_is_integrity_error(self, tmp_path):
        cb = build_codebook(["NN"], ["ORG"], dimension=16, seed=7)
        path = tmp_path / "cb.json"
        save_codebook(cb, path)
        doc = json.loads(path.read_text())
        for seed in ("seven", False):
            doc["seed"] = seed
            path.write_text(json.dumps(doc))
            with pytest.raises(IntegrityError, match="seed"):
                load_codebook(path)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("pos_tags", [1, 2], r"cb\.json: POS tag list is not a list of strings"),
            ("pos_tags", "NN", r"cb\.json: POS tag list is not a list of strings"),
            ("ner_types", {"ORG": 1}, r"cb\.json: NER type list is not a list of strings"),
            ("vectors", [], r"cb\.json: vectors is not an object"),
            ("vectors", 5, r"cb\.json: vectors is not an object"),
            ("dimension", 1, r"cb\.json: dimension must be an integer >= 2$"),
            ("pos_tags", ["NN", ""], r"cb\.json: POS tag list contains an empty tag$"),
        ],
    )
    def test_mistyped_field_is_integrity_error(self, tmp_path, field, value, message):
        path = tmp_path / "cb.json"
        save_codebook(build_codebook(["NN"], ["ORG"], dimension=16, seed=7), path)
        doc = json.loads(path.read_text())
        doc[field] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(IntegrityError, match=message):
            load_codebook(path)

    @pytest.mark.parametrize(
        "name, value, error, message",
        [
            ("pos:NN", {"0": 1.0}, ParseError, "vector 'pos:NN' is not an array"),
            (
                "pos:NN",
                [1.0] * 15 + [float("nan")],
                IntegrityError,
                "vector 'pos:NN' contains non-finite values",
            ),
            ("pos:VB", [1.0] * 16, IntegrityError, "unexpected vectors ['pos:VB']"),
            ("frame", [True] * 16, IntegrityError, "vector 'frame' has a non-numeric value"),
            ("frame", ["1.5"] * 16, IntegrityError, "vector 'frame' has a non-numeric value"),
            ("frame", ["x"] * 16, IntegrityError, "vector 'frame' has a non-numeric value"),
            ("frame", [10**400] * 16, IntegrityError, "vector 'frame' contains non-finite values"),
        ],
    )
    def test_bad_vector_is_one_error_naming_it(self, tmp_path, name, value, error, message):
        path = tmp_path / "cb.json"
        save_codebook(build_codebook(["NN"], ["ORG"], dimension=16, seed=7), path)
        doc = json.loads(path.read_text())
        doc["vectors"][name] = value
        path.write_text(json.dumps(doc))  # a float NaN is written as the JSON extension NaN
        with pytest.raises(error) as info:
            load_codebook(path)
        assert str(info.value) == f"{path}: {message}"

    def test_vectors_follow_one_layout(self):
        cb = build_codebook(["VB", "NN"], ["ORG"], dimension=16, seed=3)
        names = ["frame", "slot:token", "slot:pos", "slot:ner", "pos:VB", "pos:NN", "ner:ORG", "unknown"]
        assert list(cb.all_vectors()) == names
        rng = np.random.default_rng(3)
        for name, vec in cb.all_vectors().items():  # one draw per name, in that order
            assert vec.tobytes() == hrr.random_vector(rng, 16).tobytes(), name
        assert cb.vector_count == len(names)

    def test_a_codebook_equals_no_other_type(self, small_codebook):
        assert small_codebook.__eq__(small_codebook.vectors) is NotImplemented
        assert small_codebook != small_codebook.vectors.tolist()
        assert small_codebook != "codebook"

    def test_tag_order_is_part_of_equality(self):
        cb = build_codebook(["VB", "NN"], ["ORG"], dimension=16, seed=3)
        named = cb.all_vectors()
        swapped = [
            "frame", "slot:token", "slot:pos", "slot:ner", "pos:NN", "pos:VB", "ner:ORG", "unknown"
        ]
        reordered = Codebook(3, ["NN", "VB"], ["ORG"], np.stack([named[name] for name in swapped]))
        # the same vector under every name, but the POS tags in another order
        assert reordered.all_vectors().keys() == named.keys()
        for name, vec in reordered.all_vectors().items():
            assert vec.tobytes() == named[name].tobytes(), name
        assert reordered != cb
        assert build_codebook(["VB", "NN"], ["ORG"], dimension=16, seed=3) == cb

    @pytest.mark.parametrize(
        "pos_tags, ner_types, edit, message",
        [
            (["N N", "VB"], ["ORG"], np.asarray, "POS tag 'N N' contains whitespace"),
            (["NN", "VB"], ["ORG", "ORG"], np.asarray, "duplicate NER type: 'ORG'"),
            (["NN", "NNORG"], ["ORG"], np.asarray, "both end composite keys in 'NNORG'"),
            (["NN", "VB"], ["ORG"], lambda v: np.vstack([v, v[:1]]), r"got shape \(9, 16\)"),
            (["NN", "VB"], ["ORG"], lambda v: v[:-1], r"got shape \(7, 16\)"),
            (["NN", "VB"], ["ORG"], np.ravel, r"got shape \(128,\)"),
            (["NN", "VB"], ["ORG"], lambda v: v[:, :1], "dimension must be >= 2, got 1"),
        ],
    )
    def test_a_layout_load_codebook_rejects_is_rejected_on_construction(
        self, pos_tags, ner_types, edit, message
    ):
        vectors = build_codebook(["NN", "VB"], ["ORG"], dimension=16, seed=1).vectors
        with pytest.raises(ValueError, match=message):
            Codebook(1, pos_tags, ner_types, edit(vectors))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", ["frame", "pos:VB", "unknown"])
    def test_a_non_finite_value_is_rejected_on_construction(self, name, value):
        cb = build_codebook(["NN", "VB"], ["ORG"], dimension=16, seed=1)
        vectors = cb.vectors.copy()
        vectors[list(cb.all_vectors()).index(name), 5] = value
        # as `load_codebook` refuses it, not later, in `save_codebook`'s JSON encoder
        with pytest.raises(ValueError, match=rf"^vector '{name}' contains non-finite values$"):
            Codebook(cb.seed, cb.pos_tags, cb.ner_types, vectors)

    def test_a_filler_set_in_code_saves_loads_and_encodes_alike(self, tmp_path):
        cb = build_codebook(["NN", "VB", "DT"], ["ORG"], dimension=64, seed=3)
        cb = with_vectors(cb, {"pos:VB": cb.pos_table["DT"]})
        assert cb.pos_table["VB"].tobytes() == cb.pos_table["DT"].tobytes()
        save_codebook(cb, tmp_path / "cb.json")
        loaded = load_codebook(tmp_path / "cb.json")
        assert loaded == cb
        table = {"x": np.random.default_rng(3).normal(0.0, np.sqrt(1 / 8), 64)}
        token = AnnotatedToken("x", "VB")
        assert compress_token(token, table, loaded)[0].tobytes() == (
            compress_token(token, table, cb)[0].tobytes()
        )

    def test_read_tag_list(self, tmp_path):
        path = tmp_path / "tags.txt"
        path.write_text("NN\n\n  VB  \nDT\n")
        assert read_tag_list(path) == ["NN", "VB", "DT"]
        empty = tmp_path / "empty.txt"
        empty.write_text("\n\n")
        with pytest.raises(ParseError):
            read_tag_list(empty)

    def test_read_tag_list_skips_a_bom(self, tmp_path):
        path = tmp_path / "tags.txt"
        path.write_text("\ufeffNN\r\nVB\r\n", encoding="utf-8")
        assert read_tag_list(path) == ["NN", "VB"]

    def test_read_tag_list_ends_entries_only_at_line_breaks(self, tmp_path):
        path = tmp_path / "tags.txt"
        path.write_text("NN\x0bVB\rDT\x85JJ\u2028\n\x1cRB\n", encoding="utf-8", newline="")
        tags = read_tag_list(path)
        assert tags == ["NN\x0bVB", "DT\x85JJ", "RB"]
        with pytest.raises(ValueError, match=r"POS tag 'NN\\x0bVB' contains whitespace"):
            build_codebook(tags, ["ORG"], dimension=16)


class TestReadOnly:
    def test_every_array_reachable_from_a_codebook_is_read_only(self):
        cb = build_codebook(["NN", "VB"], ["ORG"], dimension=16, seed=3)
        arrays = [cb.vectors, cb.frame_label, cb.unknown_token, *cb.slot_labels.values()]
        arrays += [*cb.all_vectors().values()]
        for table in (cb.pos_table, cb.ner_table):
            arrays += [*table.values(), table.slot_label, table.bound, table.norms, table.screen]
        for array in arrays:
            assert not array.flags.writeable
        for write in (
            lambda: cb.vectors.__setitem__((0, 0), 1.0),
            lambda: cb.frame_label.__setitem__(0, 1.0),
            lambda: cb.pos_table["VB"].__setitem__(slice(None), 0.0),
            lambda: cb.slot_labels["token"].__setitem__(0, 1.0),
        ):
            with pytest.raises(ValueError, match="read-only"):
                write()

    def test_names_and_attributes_cannot_be_rebound(self):
        cb = build_codebook(["NN", "VB"], ["ORG"], dimension=16, seed=3)
        with pytest.raises(TypeError):
            cb.slot_labels["token"] = np.ones(16)
        for name in ("vectors", "frame_label", "unknown_token", "slot_labels", "pos_table"):
            with pytest.raises(AttributeError):
                setattr(cb, name, np.ones(16))
        assert cb == build_codebook(["NN", "VB"], ["ORG"], dimension=16, seed=3)

    def test_the_tag_sets_are_tuples_and_save_what_load_accepts(self, tmp_path):
        cb = build_codebook(["NN", "VB"], ["ORG"], dimension=16, seed=3)
        assert (cb.pos_tags, cb.ner_types) == (("NN", "VB"), ("ORG",))
        with pytest.raises(AttributeError):
            cb.pos_tags.append("JJ")
        save_codebook(cb, tmp_path / "cb.json")
        assert load_codebook(tmp_path / "cb.json") == cb
        pos_tags, ner_types = ["NN", "VB"], ["ORG"]
        given = Codebook(3, pos_tags, ner_types, cb.vectors)
        pos_tags.append("JJ")
        ner_types.clear()
        assert (given.pos_tags, given.ner_types) == (("NN", "VB"), ("ORG",))
        assert given == cb

    def test_the_codebook_keeps_its_own_float64_copy(self):
        rows = build_codebook(["NN", "VB"], ["ORG"], dimension=16, seed=3).vectors.copy()
        cb = Codebook(3, ["NN", "VB"], ["ORG"], rows)
        rows[:] = 0.0
        assert cb == build_codebook(["NN", "VB"], ["ORG"], dimension=16, seed=3)
        integers = Codebook(3, ["NN", "VB"], ["ORG"], np.ones((8, 16), dtype=int))
        assert integers.vectors.dtype == np.float64

    def test_the_labels_are_views_of_the_vectors(self, small_codebook):
        cb = small_codebook
        for vec in (cb.frame_label, cb.unknown_token, *cb.slot_labels.values()):
            assert vec.base is cb.vectors
        for table in (cb.pos_table, cb.ner_table):
            assert all(vec.base is cb.vectors for vec in table.values())


class TestFillerTable:
    def test_keys_and_index_are_read_only(self, small_codebook):
        for table in (small_codebook.pos_table, small_codebook.ner_table):
            first, last = table.sorted_keys[0], table.sorted_keys[-1]
            with pytest.raises(TypeError):
                table.index[first] = table.index[last]
            with pytest.raises(TypeError):
                table.sorted_keys[0] = last
            assert table.index[first] == 0 and table.sorted_keys[0] == first
        assert small_codebook.pos_table.sorted_keys == ("DT", "JJ", "NN", "NNP", "VB")

    def test_is_the_cleanup_memory_of_its_fillers(self, small_codebook):
        table = small_codebook.pos_table
        assert isinstance(table, VectorSpace)
        assert list(table.sorted_keys) == sorted(small_codebook.pos_tags)
        assert table.slot_label is small_codebook.slot_labels["pos"]
        named = small_codebook.all_vectors()
        for tag in small_codebook.pos_tags:
            filler = table[tag]  # a view of the codebook's row for the tag
            assert np.shares_memory(filler, small_codebook.vectors)
            assert filler.tobytes() == named[f"pos:{tag}"].tobytes()
            unit = table.unit_rows(table.index[tag])
            np.testing.assert_allclose(unit, filler / np.linalg.norm(filler), rtol=0, atol=1e-15)

    def test_bound_rows_follow_the_index_bit_for_bit(self, default_codebook):
        for table in (default_codebook.pos_table, default_codebook.ner_table):
            assert table.bound is table.bound
            for tag, filler in table.items():
                alone = hrr.circular_convolve_fft(table.slot_label, filler)
                assert table.bound[table.index[tag]].tobytes() == alone.tobytes()

    def test_adds_only_its_slot_label_and_bound_terms(self):
        assert "__init__" in vars(FillerTable)
        assert {name for name in vars(FillerTable) if not name.startswith("_")} == {"bound"}


class TestCleanup:
    def test_exact_member_is_returned(self, small_codebook):
        key, sim = cleanup(small_codebook.pos_table["VB"], small_codebook.pos_table)
        assert key == "VB"
        assert sim == pytest.approx(1.0, abs=1e-12)

    def test_small_perturbation_keeps_the_winner(self, small_codebook):
        rng = np.random.default_rng(0)
        target = small_codebook.pos_table["NNP"]
        noise = rng.normal(size=target.shape)
        noise *= 0.01 * np.linalg.norm(target) / np.linalg.norm(noise)
        key, _ = cleanup(target + noise, small_codebook.pos_table)
        assert key == "NNP"

    def test_every_member_cleans_to_itself(self, default_codebook):
        for tag in default_codebook.pos_tags:
            key, _ = cleanup(default_codebook.pos_table[tag], default_codebook.pos_table)
            assert key == tag

    def test_tie_breaks_to_smaller_key(self):
        v = np.array([1.0, 2.0, 3.0])
        candidates = {"zeta": v.copy(), "alpha": v.copy(), "mid": np.array([3.0, 2.0, 1.0])}
        key, sim = cleanup(v, candidates)
        assert key == "alpha"
        assert sim == pytest.approx(1.0)

    def test_insertion_order_is_irrelevant(self):
        rng = np.random.default_rng(3)
        vecs = {f"k{i}": rng.normal(size=8) for i in range(10)}
        query = rng.normal(size=8)
        forward = cleanup(query, dict(sorted(vecs.items())))
        backward = cleanup(query, dict(sorted(vecs.items(), reverse=True)))
        assert forward == backward

    def test_a_space_built_once_gives_the_mapping_result(self, default_codebook):
        rng = np.random.default_rng(11)
        fillers = dict(default_codebook.ner_table)
        space = VectorSpace.of(fillers)
        for _ in range(20):
            query = rng.normal(size=default_codebook.dimension)
            assert cleanup(query, space) == cleanup(query, fillers)
            assert cleanup(query, default_codebook.ner_table) == cleanup(query, fillers)

    def test_empty_candidates_rejected(self):
        with pytest.raises(ValueError):
            cleanup(np.ones(3), {})

    def test_zero_norm_query_rejected(self):
        with pytest.raises(ValueError):
            cleanup(np.zeros(3), {"a": np.ones(3)})

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(DimensionMismatchError):
            cleanup(np.ones(3), {"a": np.ones(4)})

    def test_pos_slot_cleanup_on_constructed_tokens(self, default_codebook):
        # decode without frame subtraction: correlate(pos slot, m * compressed)
        cb = default_codebook
        rng = np.random.default_rng(77)
        tags = cb.pos_tags
        hits = 0
        trials = 1000
        for _ in range(trials):
            tag = tags[int(rng.integers(len(tags)))]
            filler = hrr.random_vector(rng, cb.dimension)
            compressed = superpose(
                [
                    cb.frame_label,
                    hrr.circular_convolve_fft(cb.slot_labels["token"], filler),
                    hrr.circular_convolve_fft(cb.slot_labels["pos"], cb.pos_table[tag]),
                ],
                3,
            )
            query = hrr.circular_correlate_fft(cb.slot_labels["pos"], 3 * compressed)
            key, _ = cleanup(query, cb.pos_table)
            hits += int(key == tag)
        assert hits / trials >= 0.95
