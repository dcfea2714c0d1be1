"""The JSON document layer: every document's envelope, written and checked in one place."""

import json

import pytest

from conftest import FISH_ANNOTATIONS, fish_table, make_surrogate_table
from holovec._fileio import (
    FORMAT_VERSION,
    atomic_write_lines,
    atomic_write_text,
    read_document,
    write_document,
)
from holovec.analysis import classify_neighborhoods, sample_orthogonality
from holovec.codebook import build_codebook, load_codebook, save_codebook
from holovec.encoder import build_vocabulary, load_vocabulary, write_sidecar, write_vocabulary
from holovec.errors import ParseError


def _codebook(path, cb):
    save_codebook(cb, path)
    return "holovec-codebook", {
        "dimension": cb.dimension,
        "seed": cb.seed,
        "pos_tags": cb.pos_tags,
        "ner_types": cb.ner_types,
        "vectors": {name: vec.tolist() for name, vec in cb.all_vectors().items()},
    }


def _sidecar(path, cb):
    vocab = build_vocabulary(FISH_ANNOTATIONS, fish_table(300), cb)
    write_sidecar(path, vocab)
    entries = {
        key: {
            "component_count": e.component_count,
            "filler_source": e.filler_source,
            "word_type": e.word_type,
            "pos_tag": e.pos_tag,
            "ner_type": e.ner_type,
        }
        for key, e in vocab.entries.items()
    }
    stats = {
        "input_tokens": 3,
        "distinct_word_types": 1,
        "distinct_keys": 3,
        "growth_ratio": 3.0,
        "unknown_filler_entries": 0,
    }
    return "holovec-vocabulary-meta", {"dimension": 300, "stats": stats, "entries": entries}


def _orthogonality(path, cb):
    report = sample_orthogonality(cb.all_vectors(), sample_size=20, seed=3)
    report.write(path)
    return "holovec-orthogonality-report", report.to_json_dict()


def _neighborhoods(path, cb):
    table = make_surrogate_table(30, 16, seed=5, n_clusters=4).entries
    report = classify_neighborhoods(table, table, sorted(table)[:3], k=4)
    report.write(path)
    return "holovec-neighborhood-report", report.to_json_dict()


@pytest.mark.parametrize("write", [_codebook, _sidecar, _orthogonality, _neighborhoods])
def test_each_document_round_trips(tmp_path, default_codebook, write):
    path = tmp_path / "doc.json"
    format_name, body = write(path, default_codebook)
    text = path.read_text(encoding="utf-8")
    assert text.endswith("}\n") and text.count("\n") == 1
    assert text.startswith(f'{{"format":"{format_name}","format_version":1,')
    assert read_document(path, format_name, tuple(body)) == {
        "format": format_name,
        "format_version": FORMAT_VERSION,
        **body,
    }


def test_write_document_puts_the_envelope_first_and_writes_compactly(tmp_path):
    path = tmp_path / "doc.json"
    write_document(path, "holovec-test", {"a": [1, 2.5], "b": None})
    assert path.read_text() == '{"format":"holovec-test","format_version":1,"a":[1,2.5],"b":null}\n'
    assert read_document(path, "holovec-test", ("a",))["b"] is None


ENVELOPE = {"format": "holovec-test", "format_version": 1, "a": 1}


@pytest.mark.parametrize(
    "text, message",
    [
        ("not json{", "not valid JSON"),
        ("[1, 2]", "top-level value is not an object"),
        (
            json.dumps({**ENVELOPE, "format": "holovec-codebook"}),
            "format is 'holovec-codebook', expected 'holovec-test'",
        ),
        (json.dumps({"format_version": 1, "a": 1}), "format is None, expected 'holovec-test'"),
        (json.dumps({**ENVELOPE, "format_version": 2}), "format_version is 2, expected 1"),
        (json.dumps({**ENVELOPE, "format_version": "1"}), "format_version is '1', expected 1"),
        (json.dumps({**ENVELOPE, "format_version": 1.0}), "format_version is 1.0, expected 1"),
        (json.dumps({**ENVELOPE, "format_version": True}), "format_version is True, expected 1"),
        (json.dumps({"format": "holovec-test", "a": 1}), "format_version is None, expected 1"),
        (json.dumps({"format": "holovec-test", "format_version": 1}), "missing field 'a'"),
    ],
)
def test_a_bad_document_is_one_line_naming_the_path(tmp_path, text, message):
    path = tmp_path / "doc.json"
    path.write_text(text)
    with pytest.raises(ParseError) as info:
        read_document(path, "holovec-test", ("a",))
    assert str(info.value).startswith(f"{path}: {message}")
    assert "\n" not in str(info.value)


def test_undecodable_bytes_are_a_parse_error(tmp_path):
    path = tmp_path / "doc.json"
    path.write_bytes(b'{"format": "\xff"}')
    with pytest.raises(ParseError, match=r"doc\.json: not valid JSON"):
        read_document(path, "holovec-test", ())


def test_the_loaders_reject_another_version(tmp_path, small_codebook):
    cb_path = tmp_path / "cb.json"
    save_codebook(small_codebook, cb_path)
    vocab = build_vocabulary(FISH_ANNOTATIONS, fish_table(16), small_codebook)
    vec_path, meta_path = tmp_path / "vocab.txt", tmp_path / "vocab.meta.json"
    write_vocabulary(vec_path, vocab)
    write_sidecar(meta_path, vocab)
    for path in (cb_path, meta_path):
        doc = json.loads(path.read_text())
        path.write_text(json.dumps({**doc, "format_version": 2}))
    with pytest.raises(ParseError, match=r"cb\.json: format_version is 2, expected 1"):
        load_codebook(cb_path)
    with pytest.raises(ParseError, match=r"vocab\.meta\.json: format_version is 2, expected 1"):
        load_vocabulary(vec_path, meta_path)


def test_atomic_write_lines_writes_the_chunks_in_order(tmp_path):
    lines, text = tmp_path / "lines.txt", tmp_path / "text.txt"
    atomic_write_lines(lines, (f"{i} \u00e9\n" for i in range(3)))
    atomic_write_text(text, "0 \u00e9\n1 \u00e9\n2 \u00e9\n")
    assert lines.read_bytes() == text.read_bytes() == "0 é\n1 é\n2 é\n".encode("utf-8")


def test_a_chunk_that_raises_leaves_the_target_and_no_temp_file(tmp_path):
    path = tmp_path / "vocab.txt"
    path.write_bytes(b"old contents\n")

    def chunks():
        yield "a 1.0\n" * 5000  # past the write buffer, so the temp file holds bytes
        raise RuntimeError("record 2 failed")

    with pytest.raises(RuntimeError, match="record 2 failed"):
        atomic_write_lines(path, chunks())
    assert path.read_bytes() == b"old contents\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["vocab.txt"]
