"""The file layer: every text input read, every output written and every document's
envelope checked in one place."""

import json
import os
import tracemalloc

import pytest

from conftest import FISH_ANNOTATIONS, fish_table, make_surrogate_table
from holovec import _fileio
from holovec._fileio import (
    FORMAT_VERSION,
    atomic_write_lines,
    atomic_write_text,
    atomic_writes,
    read_document,
    read_lines,
    write_document,
)
from holovec.analysis import classify_neighborhoods, sample_orthogonality
from holovec.codebook import build_codebook, load_codebook, save_codebook
from holovec.encoder import (
    build_vocabulary,
    load_vocabulary,
    read_vectors,
    write_sidecar,
    write_vocabulary,
)
from holovec.errors import ParseError


def _codebook(path, cb):
    save_codebook(cb, path)
    return "holovec-codebook", {
        "dimension": cb.dimension,
        "seed": cb.seed,
        "pos_tags": list(cb.pos_tags),
        "ner_types": list(cb.ner_types),
        "vectors": {name: vec.tolist() for name, vec in cb.all_vectors().items()},
    }


def _sidecar(path, cb):
    vocab = build_vocabulary(FISH_ANNOTATIONS, fish_table(300), cb)
    write_sidecar(path, vocab)
    entries = {
        key: {
            "component_count": m,
            "filler_source": source,
            "word_type": word_type,
            "pos_tag": pos_tag,
            "ner_type": ner_type,
        }
        for key, m, source, word_type, pos_tag, ner_type in zip(
            vocab.keys,
            vocab.component_counts.tolist(),
            vocab.filler_sources,
            vocab.word_types,
            vocab.pos_tags,
            vocab.ner_types,
        )
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
    table = make_surrogate_table(30, 16, seed=5, n_clusters=4)
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
        pytest.param(
            '{"a": ' + "9" * 5000 + "}",
            "not valid JSON (Exceeds the limit (4300 digits)",
            id="an-integer-of-5000-digits",
        ),
    ],
)
def test_a_bad_document_is_one_line_naming_the_path(tmp_path, text, message):
    path = tmp_path / "doc.json"
    path.write_text(text)
    with pytest.raises(ParseError) as info:
        read_document(path, "holovec-test", ("a",))
    assert str(info.value).startswith(f"{path}: {message}")
    assert "\n" not in str(info.value)


def test_a_leading_byte_order_mark_is_skipped(tmp_path):
    path = tmp_path / "doc.json"
    path.write_text("\ufeff" + json.dumps(ENVELOPE), encoding="utf-8")
    assert read_document(path, "holovec-test", ("a",)) == ENVELOPE


@pytest.mark.parametrize(
    "text, member",
    [
        ('{"format": "holovec-test", "format_version": 1, "a": 1, "a": 2}', "a"),
        ('{"format": "holovec-test", "format_version": 1, "a": {"b": 1, "c": 2, "b": 1}}', "b"),
        ('{"format": "holovec-test", "format": "holovec-test", "format_version": 1}', "format"),
    ],
    ids=["top-level", "nested", "envelope"],
)
def test_a_member_named_twice_is_one_line_naming_the_path_and_the_name(tmp_path, text, member):
    path = tmp_path / "doc.json"
    path.write_text(text)
    with pytest.raises(ParseError) as info:
        read_document(path, "holovec-test", ("a",))
    assert str(info.value) == f"{path}: duplicate member {member!r}"


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


def test_read_lines_numbers_every_line_and_yields_the_non_empty_ones(tmp_path):
    path = tmp_path / "in.txt"
    text = "\ufeffa b\r\n\nc\rd\n \r\n\u00e9\x0bf\x85g\u2028\n\u6f22\u5b57 \U0001f600\r"
    path.write_bytes(text.encode("utf-8"))
    assert list(read_lines(path)) == [
        (1, "a b"),
        (3, "c"),
        (4, "d"),
        (5, " "),
        (6, "\u00e9\x0bf\x85g\u2028"),  # only \n, \r\n and \r end a line
        (7, "\u6f22\u5b57 \U0001f600"),
    ]


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
def test_a_byte_that_is_not_utf8_is_reported_on_its_line(tmp_path, newline):
    # the bad line lies ~12 KB into the file, past the first 8 KB chunk the file
    # is read in, and every line before it is yielded before it raises
    lines = [f"w{i:04d} 0.5 \u00e9".encode("utf-8") for i in range(1, 1001)]
    lines[899] = b"caf\xe9 0.5 0.5"
    path = tmp_path / "in.txt"
    path.write_bytes(b"\xef\xbb\xbf" + newline.encode().join(lines) + newline.encode())
    seen = []
    with pytest.raises(ParseError) as info:
        for lineno, _ in read_lines(path):
            seen.append(lineno)
    assert str(info.value) == f"{path}:900: not valid UTF-8 (invalid continuation byte)"
    assert seen == list(range(1, 900))


@pytest.mark.parametrize(
    "data, lineno, reason",
    [
        (b"ok\n\xff\n", 2, "invalid start byte"),
        (b"ok\nab\xc3\r\nok\n", 2, "invalid continuation byte"),
        (b"ok\nok\nab\xe2\x82", 3, "unexpected end of data"),
        (b"ok\n\xed\xa0\x80\n", 2, "invalid continuation byte"),
        (b"ok\n\xc0\xaf\n", 2, "invalid start byte"),
        (b"ok\r\xf0\x9f\x98\rok\r", 2, "invalid continuation byte"),
    ],
    ids=[
        "bad-start",
        "cut-before-a-line-break",
        "cut-at-the-end",
        "encoded-surrogate",
        "overlong",
        "cut-before-a-cr",
    ],
)
def test_the_reason_is_the_decoders(tmp_path, data, lineno, reason):
    path = tmp_path / "in.txt"
    path.write_bytes(data)
    with pytest.raises(ParseError) as info:
        list(read_lines(path))
    assert str(info.value) == f"{path}:{lineno}: not valid UTF-8 ({reason})"


def test_a_file_is_opened_once_also_when_a_byte_is_bad(tmp_path, monkeypatch):
    opened = []

    def counting_open(*args, **kwargs):
        opened.append(args[0])
        return open(*args, **kwargs)

    monkeypatch.setattr(_fileio, "open", counting_open, raising=False)
    good, bad = tmp_path / "good.txt", tmp_path / "bad.txt"
    good.write_bytes("a\n\u00e9\n".encode("utf-8"))
    bad.write_bytes(b"a\nb\xff\nc\n")
    assert list(read_lines(good)) == [(1, "a"), (2, "\u00e9")]
    with pytest.raises(ParseError, match=r":2: not valid UTF-8 \(invalid start byte\)"):
        list(read_lines(bad))
    assert opened == [good, bad]


def test_faults_are_reported_in_line_order(tmp_path):
    # the short record on line 2 comes before the bad byte on line 3
    path = tmp_path / "vectors.txt"
    path.write_bytes(b"a 0.1 0.2\nb 0.1\nc\xff 0.1 0.2\n")
    with pytest.raises(ParseError) as info:
        read_vectors(path)
    assert str(info.value) == f"{path}:2: expected 2 values, got 1"


def test_finding_the_bad_line_streams_the_file(tmp_path):
    path = tmp_path / "in.txt"
    line = b"w " + b" ".join([b"0.123456789"] * 30) + b"\n"
    path.write_bytes(line * 12_000 + b"\xff\n")  # 4 MB before the bad byte
    tracemalloc.start()
    try:
        with pytest.raises(ParseError, match=r":12001: not valid UTF-8"):
            for _ in read_lines(path):
                pass
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)], ids=["022", "077"])
def test_outputs_get_the_mode_a_plain_write_gives(tmp_path, umask, mode):
    cb = build_codebook(["NN", "VB", "NNP"], ["PERSON"], dimension=16, seed=3)
    vocab = build_vocabulary(FISH_ANNOTATIONS, fish_table(16), cb)
    report = sample_orthogonality(cb.all_vectors(), sample_size=20, seed=3)
    (tmp_path / "vocab.txt").write_text("old\n")
    os.chmod(tmp_path / "vocab.txt", 0o600 if mode == 0o644 else 0o644)
    previous = os.umask(umask)
    try:
        write_vocabulary(tmp_path / "vocab.txt", vocab)
        write_sidecar(tmp_path / "vocab.txt.meta.json", vocab)
        report.write(tmp_path / "orth.json")
    finally:
        os.umask(previous)
    modes = {p.name: p.stat().st_mode & 0o777 for p in tmp_path.iterdir()}
    assert modes == dict.fromkeys(["vocab.txt", "vocab.txt.meta.json", "orth.json"], mode)


def test_a_write_into_a_missing_directory_names_the_destination(tmp_path):
    path = tmp_path / "missing" / "vocab.txt.meta.json"
    with pytest.raises(FileNotFoundError) as info:
        atomic_write_lines(path, ["{}\n"])
    assert str(info.value) == f"[Errno 2] No such file or directory: '{path}'"
    assert list(tmp_path.iterdir()) == []


def test_files_written_in_one_block_land_together(tmp_path):
    first, second = tmp_path / "vocab.txt", tmp_path / "vocab.txt.meta.json"
    with atomic_writes():
        atomic_write_lines(first, ["a 1.0\n"])
        write_document(second, "holovec-test", {"a": 1})
        assert sorted(p.name.endswith(".tmp") for p in tmp_path.iterdir()) == [True, True]
    assert first.read_text() == "a 1.0\n"
    assert json.loads(second.read_text())["a"] == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["vocab.txt", "vocab.txt.meta.json"]


@pytest.mark.parametrize("failing", ["chunk", "open"])
def test_a_failed_file_in_a_block_lands_none_of_them(tmp_path, failing):
    first = tmp_path / "vocab.txt"
    first.write_bytes(b"old contents\n")
    second = tmp_path / ("other.txt" if failing == "chunk" else "missing/meta.json")

    def chunks():
        yield "b 2.0\n" * 5000  # past the write buffer, so the temp file holds bytes
        raise RuntimeError("record 2 failed")

    with pytest.raises(RuntimeError if failing == "chunk" else FileNotFoundError):
        with atomic_writes():
            atomic_write_lines(first, ["a 1.0\n" * 5000])
            atomic_write_lines(second, chunks())
    assert first.read_bytes() == b"old contents\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["vocab.txt"]


def test_a_second_file_to_one_path_in_a_block_is_refused_and_lands_nothing(tmp_path):
    path, other = tmp_path / "out.txt", tmp_path / "other.txt"
    path.write_bytes(b"old contents\n")
    (tmp_path / "sub").mkdir()
    respelled = tmp_path / "sub" / ".." / "out.txt"
    with pytest.raises(ValueError) as info:
        with atomic_writes():
            atomic_write_lines(path, ["a 1.0\n"])
            atomic_write_text(other, "b 2.0\n")
            atomic_write_text(respelled, "{}\n")
    assert str(info.value) == f"{respelled}: already the path of another output"
    assert path.read_bytes() == b"old contents\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.txt", "sub"]


def test_an_error_after_the_writes_in_a_block_lands_none_of_them(tmp_path):
    path = tmp_path / "vocab.txt"
    with pytest.raises(KeyError):
        with atomic_writes():
            atomic_write_text(path, "a 1.0\n")
            raise KeyError("later step")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_a_document_holding_a_non_finite_number_is_refused_before_any_file(tmp_path, value):
    path = tmp_path / "report.json"
    with pytest.raises(ValueError, match="not JSON compliant"):
        write_document(path, "holovec-test", {"threshold": value})
    assert list(tmp_path.iterdir()) == []
