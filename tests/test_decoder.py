"""Decoder tests: unbinding, attribute recovery, the token slot, dimension trends."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    circular_correlate,
    cleanup,
    compress_token,
    cosine_similarity,
    decode_attributes,
    superpose,
    unbind_slot,
    with_vectors,
)
from holovec import hrr
from holovec.codebook import BLOCK_ROWS, VectorSpace, build_codebook
from holovec.decoder import decode_and_score, decode_vocabulary
from holovec.encoder import AnnotatedToken, CompressedVocabulary, build_vocabulary
from holovec.errors import DimensionMismatchError
from holovec.selftest import synthetic_corpus, synthetic_embeddings


def _accuracy(dimension: int, seed: int, n_tokens: int = 300):
    cb = build_codebook(dimension=dimension, seed=seed)
    rng = np.random.default_rng(seed + 1)
    table = synthetic_embeddings(200, dimension, rng)
    corpus = synthetic_corpus(sorted(table), cb, n_tokens, rng)
    vocab = build_vocabulary(corpus, table, cb)
    pos_ok = ner_ok = ner_total = 0
    for vector, m, pos_tag, ner_type in zip(
        vocab.vectors, vocab.component_counts, vocab.pos_tags, vocab.ner_types
    ):
        decoded = decode_attributes(vector, m, cb)
        pos_ok += int(decoded.pos_tag == pos_tag)
        if m == 4:
            ner_total += 1
            ner_ok += int(decoded.ner_type == ner_type)
    return pos_ok / len(vocab), (ner_ok / ner_total if ner_total else None)


class TestUnbindSlot:
    def test_lone_binding_beats_distractors(self):
        rng = np.random.default_rng(55)
        n, trials, wins = 300, 1000, 0
        for _ in range(trials):
            frame = hrr.random_vector(rng, n)
            slot = hrr.random_vector(rng, n)
            filler = hrr.random_vector(rng, n)
            compressed = superpose(
                [frame, hrr.circular_convolve_fft(slot, filler)], 2
            )
            estimate = unbind_slot(compressed, slot, 2, frame)
            sim = cosine_similarity(estimate, filler)
            distractors = np.stack([hrr.random_vector(rng, n) for _ in range(100)])
            unit = estimate / np.linalg.norm(estimate)
            d_sims = (distractors / np.linalg.norm(distractors, axis=1, keepdims=True)) @ unit
            wins += int(sim > d_sims.max())
        assert wins / trials >= 0.99

    def test_pos_slot_of_the_entity_frame_decodes(self, default_codebook):
        cb = default_codebook
        rng = np.random.default_rng(56)
        table = {"IBM": hrr.random_vector(rng, 300)}
        vec, m = compress_token(AnnotatedToken("IBM", "NNP", "ORG"), table, cb)
        estimate = unbind_slot(vec, cb.slot_labels["pos"], m, cb.frame_label)
        key, _ = cleanup(estimate, cb.pos_table)
        assert key == "NNP"
        estimate = unbind_slot(vec, cb.slot_labels["ner"], m, cb.frame_label)
        key, _ = cleanup(estimate, cb.ner_table)
        assert key == "ORG"

    def test_wrong_slot_is_indistinguishable_from_random(self, default_codebook):
        # unbinding a slot that was never bound should look like a random query
        cb = default_codebook
        rng = np.random.default_rng(57)
        wrong_sims, random_sims = [], []
        for _ in range(300):
            filler = hrr.random_vector(rng, 300)
            tag = cb.pos_tags[int(rng.integers(len(cb.pos_tags)))]
            vec, m = compress_token(
                AnnotatedToken("x", "NN"),
                {"x": filler},
                cb,
            )
            estimate = unbind_slot(vec, cb.slot_labels["ner"], m, cb.frame_label)
            wrong_sims.append(cleanup(estimate, cb.pos_table)[1])
            random_sims.append(cleanup(hrr.random_vector(rng, 300), cb.pos_table)[1])
        wrong, rand = np.array(wrong_sims), np.array(random_sims)
        # calibrated: both distributions sit at 0.128 +- 0.025
        assert abs(wrong.mean() - rand.mean()) < 0.02
        assert 0.5 < wrong.std() / rand.std() < 2.0


class TestDecodeAttributes:
    def test_synthetic_round_trip_accuracy(self):
        pos_acc, ner_acc = _accuracy(dimension=300, seed=60)
        assert pos_acc >= 0.95
        assert ner_acc is not None and ner_acc >= 0.95

    def test_accuracy_grows_with_dimension(self):
        accs = [_accuracy(dimension=n, seed=61, n_tokens=200)[0] for n in (32, 100, 300)]
        assert accs[0] <= accs[1] + 0.02 and accs[1] <= accs[2] + 0.02
        assert accs[2] - accs[0] >= 0.05

    def test_three_component_entry_has_no_entity(self, default_codebook):
        cb = default_codebook
        rng = np.random.default_rng(62)
        table = {"run": hrr.random_vector(rng, 300)}
        vec, m = compress_token(AnnotatedToken("run", "VB"), table, cb)
        decoded = decode_attributes(vec, m, cb)
        assert m == 3
        assert decoded.ner_type is None
        assert decoded.ner_similarity is None
        assert -1.0 <= decoded.pos_similarity <= 1.0

    def test_invalid_component_count_rejected(self, small_codebook):
        with pytest.raises(ValueError):
            decode_attributes(np.ones(16), 5, small_codebook)

    def test_inputs_not_mutated(self, default_codebook):
        cb = default_codebook
        rng = np.random.default_rng(63)
        table = {"a": hrr.random_vector(rng, 300)}
        vec, m = compress_token(AnnotatedToken("a", "NN", "ORG"), table, cb)
        before = vec.copy()
        first = decode_attributes(vec, m, cb)
        second = decode_attributes(vec, m, cb)
        np.testing.assert_array_equal(vec, before)
        assert first == second


class TestDecodeVocabulary:
    """The batched decoder against per-row cleanup of the direct-sum correlation."""

    @given(
        n=st.integers(min_value=8, max_value=40),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        with_m=st.booleans(),
        scale=st.sampled_from([0.01, 1.0, 5.0, 300.0]),
    )
    @settings(max_examples=12, deadline=None)
    def test_matches_per_row_cleanup_across_a_block_boundary(self, n, seed, with_m, scale):
        cb = build_codebook(dimension=n, seed=seed)
        rng = np.random.default_rng(seed)
        vectors = scale * rng.normal(size=(BLOCK_ROWS + 1, n))
        m = rng.integers(3, 5, size=len(vectors))
        decoded = decode_vocabulary(vectors, m if with_m else None, cb)
        assert len(decoded) == len(vectors)
        for vec, count, got in zip(vectors, m, decoded):
            residual = count * vec - cb.frame_label if with_m else vec
            pos, pos_sim = cleanup(circular_correlate(cb.slot_labels["pos"], residual), cb.pos_table)
            assert got.pos_tag == pos
            assert got.pos_similarity == pytest.approx(pos_sim, abs=1e-12)
            if with_m and count == 3:
                assert (got.ner_type, got.ner_similarity) == (None, None)
                continue
            ner, ner_sim = cleanup(circular_correlate(cb.slot_labels["ner"], residual), cb.ner_table)
            assert got.ner_type == ner
            assert got.ner_similarity == pytest.approx(ner_sim, abs=1e-12)

    def test_identical_fillers_tie_to_the_smaller_key(self):
        cb = build_codebook(["NN", "VB", "NNP", "JJ", "DT"], ["PERSON", "ORG"], dimension=300, seed=3)
        # first and last in sorted order, so the tie spans the whole scan
        cb = with_vectors(cb, {"pos:VB": cb.pos_table["DT"], "ner:PERSON": cb.ner_table["ORG"]})
        table = {"x": np.zeros(300)}
        vec, m = compress_token(AnnotatedToken("x", "VB", "PERSON"), table, cb)
        vectors = [vec] * (BLOCK_ROWS + 1)
        for counts in ([m] * len(vectors), None):
            for got in decode_vocabulary(vectors, counts, cb):
                assert (got.pos_tag, got.ner_type) == ("DT", "ORG")
        assert decode_attributes(vec, m, cb).pos_tag == cleanup(
            unbind_slot(vec, cb.slot_labels["pos"], m, cb.frame_label), cb.pos_table
        )[0]

    def test_single_rows_agree_with_the_batch(self, default_codebook):
        # the cosines of a one-row product may differ from a block's in the last bit
        cb = default_codebook
        rng = np.random.default_rng(68)
        vectors = rng.normal(size=(5, 300))
        counts = [3, 4, 4, 3, 4]
        batched = decode_vocabulary(vectors, counts, cb)
        for vec, count, got in zip(vectors, counts, batched):
            alone = decode_attributes(vec, count, cb)
            assert (alone.pos_tag, alone.ner_type) == (got.pos_tag, got.ner_type)
            assert alone.pos_similarity == pytest.approx(got.pos_similarity, abs=1e-15)
            assert alone.ner_similarity == pytest.approx(got.ner_similarity, abs=1e-15)

    def test_empty_input(self, small_codebook):
        assert decode_vocabulary([], [], small_codebook) == []
        assert decode_vocabulary([], None, small_codebook) == []

    def test_bad_component_count_rejected(self, small_codebook):
        with pytest.raises(ValueError, match="3 or 4, got 2"):
            decode_vocabulary(np.ones((2, 16)), [3, 2], small_codebook)
        with pytest.raises(ValueError):
            decode_vocabulary(np.ones((2, 16)), [3], small_codebook)

    def test_counts_of_another_shape_name_both(self, small_codebook):
        for counts in ([3], np.full((2, 1), 3)):
            shape = np.shape(counts)
            with pytest.raises(ValueError) as info:
                decode_vocabulary(np.ones((2, 16)), counts, small_codebook)
            assert str(info.value) == f"2 vectors but component counts of shape {shape}"

    def test_dimension_mismatch_rejected(self, small_codebook):
        with pytest.raises(DimensionMismatchError):
            decode_vocabulary(np.ones((2, 8)), None, small_codebook)

    def test_vectors_of_another_dimension_name_both(self, small_codebook):
        with pytest.raises(DimensionMismatchError) as info:
            decode_vocabulary(np.ones((2, 8)), [3, 4], small_codebook)
        assert str(info.value) == "vectors of shape (8,) differ from codebook dimension 16"

    def test_a_list_of_rows_decodes_as_its_matrix(self, default_codebook):
        cb = default_codebook
        rng = np.random.default_rng(72)
        vectors = rng.normal(size=(BLOCK_ROWS + 3, 300))
        counts = rng.integers(3, 5, size=len(vectors))
        for m in (counts, None):
            want = decode_vocabulary(vectors, m, cb)
            listed = None if m is None else [int(c) for c in m]
            assert decode_vocabulary(list(vectors), listed, cb) == want

    def test_zero_norm_query_rejected(self, small_codebook):
        with pytest.raises(ValueError, match="zero norm"):
            decode_vocabulary(np.zeros((1, 16)), None, small_codebook)

    def test_each_table_is_normalised_once_per_call(self, default_codebook, monkeypatch):
        cb = default_codebook
        rng = np.random.default_rng(71)
        vectors = rng.normal(size=(2 * BLOCK_ROWS + 1, 300))
        counts = rng.integers(3, 5, size=len(vectors))
        expected = [decode_vocabulary(vectors, m, cb) for m in (counts, None)]
        derived = []
        unit_rows = VectorSpace.unit_rows

        def counted(self, rows=None):
            if rows is None:  # every row: a table's whole cleanup memory
                derived.append(self)
            return unit_rows(self, rows)

        monkeypatch.setattr(VectorSpace, "unit_rows", counted)
        for m, want in zip((counts, None), expected):
            derived.clear()
            assert decode_vocabulary(vectors, m, cb) == want
            assert [id(table) for table in derived] == [id(cb.pos_table), id(cb.ner_table)]

    def test_zero_norm_filler_rejected_at_decode_not_at_compress(self):
        cb = build_codebook(["NN", "VB"], ["ORG"], dimension=16, seed=4)
        cb = with_vectors(cb, {"pos:VB": np.zeros(16)})
        vec, m = compress_token(AnnotatedToken("x", "NN"), {}, cb)
        with pytest.raises(ValueError, match="'VB' has zero norm"):
            decode_attributes(vec, m, cb)


class TestDecodeAndScore:
    def test_counts_match_a_per_entry_loop(self):
        cb = build_codebook(dimension=64, seed=9)
        rng = np.random.default_rng(10)
        table = synthetic_embeddings(150, 64, rng, norm_scale=5.0)
        corpus = synthetic_corpus(sorted(table), cb, 400, rng)
        vocab = build_vocabulary(corpus, table, cb)
        decoded, hits = decode_and_score(vocab, cb)
        counts = vocab.component_counts
        assert decoded == decode_vocabulary(list(vocab.vectors), counts.tolist(), cb)
        pos_ok = ner_ok = ner_total = 0
        for got, m, pos_tag, ner_type in zip(decoded, counts, vocab.pos_tags, vocab.ner_types):
            pos_ok += got.pos_tag == pos_tag
            if m == 4:
                ner_total += 1
                ner_ok += got.ner_type == ner_type
        assert hits == (pos_ok, len(vocab), ner_ok, ner_total)
        assert 0 < pos_ok < len(vocab) and 0 < ner_ok < ner_total  # misses are counted

    def test_no_entity_entries_give_no_ner_total(self, small_codebook):
        tokens = [AnnotatedToken("a", "NN"), AnnotatedToken("b", "VB")]
        vocab = build_vocabulary(tokens, {}, small_codebook)
        _, hits = decode_and_score(vocab, small_codebook)
        assert hits[1:] == (2, 0, 0)
        empty = CompressedVocabulary((), np.empty((0, 16)), (), (), (), ())
        assert decode_and_score(empty, small_codebook) == ([], (0, 0, 0, 0))


class TestTokenSlot:
    """The token's own slot: its estimate by the direct-sum correlation, cleaned up against
    the embedding table, names the token."""

    @staticmethod
    def _nearest(vec, m, cb, table):
        return cleanup(unbind_slot(vec, cb.slot_labels["token"], m, cb.frame_label), table)

    def test_true_token_ranks_first(self, default_codebook):
        cb = default_codebook
        rng = np.random.default_rng(64)
        table = synthetic_embeddings(200, 300, rng)
        surface = "w00042"
        vec, m = compress_token(AnnotatedToken(surface, "NNP", "ORG"), table, cb)
        key, sim = self._nearest(vec, m, cb, table)
        assert key == surface
        assert sim > 0.3

    def test_absent_token_still_returns_best_match(self, default_codebook):
        cb = default_codebook
        rng = np.random.default_rng(65)
        table = synthetic_embeddings(50, 300, rng)
        vec, m = compress_token(AnnotatedToken("w00007", "NN"), table, cb)
        reduced = {k: v for k, v in table.items() if k != "w00007"}
        key, sim = self._nearest(vec, m, cb, reduced)
        assert key in reduced
        assert -1.0 <= sim <= 1.0

    def test_unknown_filler_matches_the_unknown_vector(self, default_codebook):
        cb = default_codebook
        rng = np.random.default_rng(66)
        table = synthetic_embeddings(50, 300, rng)
        vec, m = compress_token(AnnotatedToken("notintable", "NN"), table, cb)
        candidates = {**table, "<unknown>": cb.unknown_token}
        key, _ = self._nearest(vec, m, cb, candidates)
        assert key == "<unknown>"

    def test_full_record_combines_attributes_and_identity(self, default_codebook):
        cb = default_codebook
        rng = np.random.default_rng(67)
        table = synthetic_embeddings(100, 300, rng)
        vec, m = compress_token(AnnotatedToken("w00003", "VB"), table, cb)
        decoded = decode_attributes(vec, m, cb)
        key, sim = self._nearest(vec, m, cb, table)
        assert key == "w00003"
        assert decoded.pos_tag == "VB"
        assert -1.0 <= sim <= 1.0
