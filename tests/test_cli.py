"""End-to-end CLI tests: every subcommand, failure exits, reproducibility."""

import json
import os
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    make_annotated_corpus,
    make_surrogate_table,
    write_annotation_file,
    write_vector_file,
)
from holovec import cli
from holovec.cli import main
from holovec.codebook import VectorSpace, load_codebook
from holovec.decoder import decode_vocabulary


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def fish_setup(tmp_path):
    rng = np.random.default_rng(40)
    write_vector_file(tmp_path / "emb.txt", {"fish": rng.normal(size=32)})
    (tmp_path / "ann.tsv").write_text("fish\tVB\t-\nfish\tNN\t-\nFish\tNNP\tPERSON\n")
    return tmp_path


@pytest.fixture()
def pipeline_setup(tmp_path):
    """A 60-word surrogate corpus compressed at n=32, ready for decode/analyze."""
    table = make_surrogate_table(60, 32, seed=41, n_clusters=12)
    words = sorted(table)
    corpus = make_annotated_corpus(words, ["NN", "VB", "NNP"], ["ORG", "PERSON"], seed=42)
    write_vector_file(tmp_path / "emb.txt", table)
    write_annotation_file(tmp_path / "ann.tsv", corpus)
    (tmp_path / "cores.txt").write_text("\n".join(words[:5]) + "\n")
    code = main(
        ["build-codebook", str(tmp_path / "cb.json"), "--dim", "32", "--seed", "7"]
    )
    assert code == 0
    code = main(
        [
            "compress",
            str(tmp_path / "cb.json"),
            str(tmp_path / "emb.txt"),
            str(tmp_path / "ann.tsv"),
            str(tmp_path / "vocab.txt"),
        ]
    )
    assert code == 0
    return tmp_path


class TestBuildCodebook:
    def test_defaults_give_74_vectors(self, tmp_path, capsys):
        out_path = tmp_path / "cb.json"
        code, out, _ = run(capsys, "build-codebook", str(out_path), "--dim", "32")
        assert code == 0
        assert "vectors: 74" in out
        assert "max pairwise |cosine|" in out
        assert load_codebook(out_path).vector_count == 74

    def test_custom_tag_lists(self, tmp_path, capsys):
        (tmp_path / "pos.txt").write_text("NN\nVB\nJJ\nRB\nDT\n")
        (tmp_path / "ner.txt").write_text("ORG\nPERSON\n")
        out_path = tmp_path / "cb.json"
        code, out, _ = run(
            capsys,
            "build-codebook",
            str(out_path),
            "--dim",
            "16",
            "--pos-tags",
            str(tmp_path / "pos.txt"),
            "--ner-types",
            str(tmp_path / "ner.txt"),
        )
        assert code == 0
        assert "vectors: 12" in out  # 1 + 3 + 5 + 2 + 1

    def test_bom_prefixed_tag_lists_read_as_their_tags(self, tmp_path, capsys):
        (tmp_path / "pos.txt").write_text("\ufeffNN\nVB\n", encoding="utf-8")
        (tmp_path / "ner.txt").write_text("\ufeffORG\n", encoding="utf-8")
        out_path = tmp_path / "cb.json"
        code, _, _ = run(
            capsys,
            "build-codebook",
            str(out_path),
            "--dim",
            "16",
            "--pos-tags",
            str(tmp_path / "pos.txt"),
            "--ner-types",
            str(tmp_path / "ner.txt"),
        )
        assert code == 0
        cb = load_codebook(out_path)
        assert (cb.pos_tags, cb.ner_types) == (("NN", "VB"), ("ORG",))

    def test_tag_with_whitespace_exits_one(self, tmp_path, capsys):
        (tmp_path / "pos.txt").write_text("NN\nNN P\n")
        out_path = tmp_path / "cb.json"
        code, out, err = run(
            capsys, "build-codebook", str(out_path), "--pos-tags", str(tmp_path / "pos.txt")
        )
        assert code == 1
        assert out == ""
        assert err == "error: POS tag 'NN P' contains whitespace\n"
        assert not out_path.exists()

    @pytest.mark.parametrize("command", [["build-codebook", "cb.json"], ["self-test"]])
    @pytest.mark.parametrize("dim", ["1", "0", "-3"])
    def test_dimension_below_two_exits_one_with_one_line(self, tmp_path, capsys, command, dim):
        argv = [str(tmp_path / arg) if arg.endswith(".json") else arg for arg in command]
        code, out, err = run(capsys, *argv, "--dim", dim)
        assert (code, out, err) == (1, "", f"error: dimension must be >= 2, got {dim}\n")
        assert not (tmp_path / "cb.json").exists()

    def test_unreadable_tag_file_exits_one_naming_the_path(self, tmp_path, capsys):
        missing = tmp_path / "no_such_tags.txt"
        out_path = tmp_path / "cb.json"
        code, _, err = run(
            capsys, "build-codebook", str(out_path), "--pos-tags", str(missing)
        )
        assert code == 1
        assert "no_such_tags.txt" in err
        assert not out_path.exists()


class TestCompress:
    def test_fish_fixture_statistics(self, fish_setup, capsys):
        tmp = fish_setup
        assert main(["build-codebook", str(tmp / "cb.json"), "--dim", "32"]) == 0
        capsys.readouterr()
        code, out, _ = run(
            capsys,
            "compress",
            str(tmp / "cb.json"),
            str(tmp / "emb.txt"),
            str(tmp / "ann.tsv"),
            str(tmp / "vocab.txt"),
        )
        assert code == 0
        assert "distinct word types: 1" in out
        assert "distinct keys:       3" in out
        assert "growth ratio:        3.0000" in out
        keys = [line.split(" ")[0] for line in (tmp / "vocab.txt").read_text().splitlines()]
        assert set(keys) == {"fishVB", "fishNN", "fishNNPPERSON"}
        sidecar = json.loads((tmp / "vocab.txt.meta.json").read_text())
        assert sidecar["entries"]["fishNNPPERSON"]["component_count"] == 4

    def test_word2vec_header_gives_the_same_vocabulary(self, fish_setup, capsys):
        tmp = fish_setup
        emb = (tmp / "emb.txt").read_text()
        (tmp / "w2v.txt").write_text("1 32\n" + emb)
        assert main(["build-codebook", str(tmp / "cb.json"), "--dim", "32"]) == 0
        for embeddings, out in (("emb.txt", "plain.txt"), ("w2v.txt", "w2v_vocab.txt")):
            args = [str(tmp / "cb.json"), str(tmp / embeddings), str(tmp / "ann.tsv"), str(tmp / out)]
            assert main(["compress", *args]) == 0
        capsys.readouterr()
        assert (tmp / "w2v_vocab.txt").read_bytes() == (tmp / "plain.txt").read_bytes()

    def test_records_that_end_in_a_space_give_the_same_vocabulary(self, fish_setup, capsys):
        # the word2vec C tool and fastText end every record with a space
        tmp = fish_setup
        emb = (tmp / "emb.txt").read_text()
        (tmp / "spaced.txt").write_text("1 32\n" + emb.replace("\n", " \n"))
        assert main(["build-codebook", str(tmp / "cb.json"), "--dim", "32"]) == 0
        for embeddings, out in (("emb.txt", "plain.txt"), ("spaced.txt", "spaced_vocab.txt")):
            args = [str(tmp / "cb.json"), str(tmp / embeddings), str(tmp / "ann.tsv"), str(tmp / out)]
            assert main(["compress", *args]) == 0
        capsys.readouterr()
        assert (tmp / "spaced_vocab.txt").read_bytes() == (tmp / "plain.txt").read_bytes()
        sidecar = json.loads((tmp / "spaced_vocab.txt.meta.json").read_text())
        assert sidecar["stats"]["unknown_filler_entries"] == 0

    def test_an_empty_embeddings_file_builds_every_key_from_the_unknown_filler(
        self, fish_setup, capsys
    ):
        tmp = fish_setup
        (tmp / "empty.txt").write_text("")
        write_vector_file(tmp / "other.txt", {"zebra": np.ones(32)})
        assert main(["build-codebook", str(tmp / "cb.json"), "--dim", "32"]) == 0
        for embeddings in ("empty.txt", "other.txt"):
            args = [str(tmp / "cb.json"), str(tmp / embeddings), str(tmp / "ann.tsv")]
            assert main(["compress", *args, str(tmp / f"{embeddings}.vocab")]) == 0
        out = capsys.readouterr().out
        assert out.count("unknown fillers:     3\n") == 2
        sidecar = json.loads((tmp / "empty.txt.vocab.meta.json").read_text())
        assert {e["filler_source"] for e in sidecar["entries"].values()} == {"unknown"}
        assert (tmp / "empty.txt.vocab").read_bytes() == (tmp / "other.txt.vocab").read_bytes()

    def test_one_path_for_both_outputs_exits_one_and_lands_nothing(
        self, fish_setup, capsys, monkeypatch
    ):
        tmp = fish_setup
        assert main(["build-codebook", str(tmp / "cb.json"), "--dim", "32"]) == 0
        (tmp / "out.txt").write_bytes(b"old vocabulary\n")
        before = sorted(p.name for p in tmp.iterdir())
        monkeypatch.chdir(tmp)
        capsys.readouterr()
        code, out, err = run(
            capsys, "compress", "cb.json", "emb.txt", "ann.tsv", "out.txt", "--sidecar", "./out.txt"
        )
        assert (code, out) == (1, "")
        assert err == "error: out.txt: already the path of another output\n"
        assert (tmp / "out.txt").read_bytes() == b"old vocabulary\n"
        assert sorted(p.name for p in tmp.iterdir()) == before

    def test_empty_annotations_report_null_growth(self, tmp_path, capsys):
        rng = np.random.default_rng(43)
        write_vector_file(tmp_path / "emb.txt", {"a": rng.normal(size=16)})
        (tmp_path / "ann.tsv").write_text("\n")
        assert main(["build-codebook", str(tmp_path / "cb.json"), "--dim", "16"]) == 0
        capsys.readouterr()
        code, out, _ = run(
            capsys,
            "compress",
            str(tmp_path / "cb.json"),
            str(tmp_path / "emb.txt"),
            str(tmp_path / "ann.tsv"),
            str(tmp_path / "vocab.txt"),
        )
        assert code == 0
        assert "growth ratio:        null" in out

    def test_dimension_mismatch_exits_before_output(self, tmp_path, capsys):
        rng = np.random.default_rng(44)
        write_vector_file(tmp_path / "emb.txt", {"a": rng.normal(size=8)})
        (tmp_path / "ann.tsv").write_text("a\tNN\t-\n")
        assert main(["build-codebook", str(tmp_path / "cb.json"), "--dim", "16"]) == 0
        capsys.readouterr()
        code, _, err = run(
            capsys,
            "compress",
            str(tmp_path / "cb.json"),
            str(tmp_path / "emb.txt"),
            str(tmp_path / "ann.tsv"),
            str(tmp_path / "vocab.txt"),
        )
        assert code == 1
        assert "dimension" in err
        assert not (tmp_path / "vocab.txt").exists()
        assert not (tmp_path / "vocab.txt.meta.json").exists()

    @pytest.mark.parametrize("existing", [False, True])
    def test_a_sidecar_that_cannot_be_written_leaves_no_vocabulary(
        self, fish_setup, capsys, existing
    ):
        tmp = fish_setup
        assert main(["build-codebook", str(tmp / "cb.json"), "--dim", "32"]) == 0
        if existing:
            (tmp / "vocab.txt").write_bytes(b"old vocabulary\n")
        before = sorted(p.name for p in tmp.iterdir())
        capsys.readouterr()
        sidecar = tmp / "missing" / "meta.json"
        code, out, err = run(
            capsys,
            "compress",
            str(tmp / "cb.json"),
            str(tmp / "emb.txt"),
            str(tmp / "ann.tsv"),
            str(tmp / "vocab.txt"),
            "--sidecar",
            str(sidecar),
        )
        assert code == 1
        assert out == ""
        assert err == f"error: [Errno 2] No such file or directory: '{sidecar}'\n"
        assert sorted(p.name for p in tmp.iterdir()) == before
        if existing:
            assert (tmp / "vocab.txt").read_bytes() == b"old vocabulary\n"

    def test_the_embedding_table_is_freed_before_the_vocabulary_is_written(
        self, pipeline_setup, capsys, monkeypatch
    ):
        tmp = pipeline_setup
        read_vectors, write_vocabulary = cli.read_vectors, cli.write_vocabulary
        refs, alive = [], []

        def reading(path):
            table = read_vectors(path)
            refs.append(weakref.ref(next(iter(table.values())).base))
            return table

        def writing(path, vocab):
            alive.append(refs[0]() is not None)
            write_vocabulary(path, vocab)

        monkeypatch.setattr(cli, "read_vectors", reading)
        monkeypatch.setattr(cli, "write_vocabulary", writing)
        args = [str(tmp / name) for name in ("cb.json", "emb.txt", "ann.tsv", "out.txt")]
        code, _, err = run(capsys, "compress", *args)
        assert (code, err) == (0, "")
        assert alive == [False]

    def test_dimension_mismatch_is_the_library_message(self, tmp_path, capsys):
        write_vector_file(tmp_path / "emb.txt", {"a": np.ones(8)})
        (tmp_path / "ann.tsv").write_text("a\tNN\t-\n")
        assert main(["build-codebook", str(tmp_path / "cb.json"), "--dim", "16"]) == 0
        args = [str(tmp_path / name) for name in ("cb.json", "emb.txt", "ann.tsv", "vocab.txt")]
        capsys.readouterr()
        code, _, err = run(capsys, "compress", *args)
        assert (code, err) == (1, "error: embedding dimension 8 differs from codebook dimension 16\n")

    def test_unknown_tag_exits_one_with_line_number(self, tmp_path, capsys):
        rng = np.random.default_rng(45)
        write_vector_file(tmp_path / "emb.txt", {"a": rng.normal(size=16)})
        (tmp_path / "ann.tsv").write_text("a\tNN\t-\na\tBOGUS\t-\n")
        assert main(["build-codebook", str(tmp_path / "cb.json"), "--dim", "16"]) == 0
        capsys.readouterr()
        code, _, err = run(
            capsys,
            "compress",
            str(tmp_path / "cb.json"),
            str(tmp_path / "emb.txt"),
            str(tmp_path / "ann.tsv"),
            str(tmp_path / "vocab.txt"),
        )
        assert code == 1
        assert f"{tmp_path / 'ann.tsv'}:2: POS tag 'BOGUS'" in err

    @pytest.mark.parametrize(
        "line, kind", [("fish\tQQ\t-\n", "POS tag 'QQ'"), ("fish\tNN\tBOGUS\n", "NER type 'BOGUS'")]
    )
    def test_an_unknown_tag_names_the_annotations_file_and_lands_nothing(
        self, fish_setup, capsys, line, kind
    ):
        (fish_setup / "ann.tsv").write_text(line)
        assert main(["build-codebook", str(fish_setup / "cb.json"), "--dim", "32"]) == 0
        args = [str(fish_setup / name) for name in ("cb.json", "emb.txt", "ann.tsv", "out.txt")]
        capsys.readouterr()
        code, out, err = run(capsys, "compress", *args)
        assert (code, out) == (1, "")
        assert err == f"error: {fish_setup / 'ann.tsv'}:1: {kind} is not in the codebook\n"
        assert {path.name for path in fish_setup.iterdir()} == {"ann.tsv", "cb.json", "emb.txt"}


    def test_surface_with_a_space_exits_one_before_output(self, tmp_path, capsys):
        rng = np.random.default_rng(46)
        write_vector_file(tmp_path / "emb.txt", {"york": rng.normal(size=16)})
        (tmp_path / "ann.tsv").write_text("york\tNNP\tGPE\nnew york\tNNP\tGPE\n")
        assert main(["build-codebook", str(tmp_path / "cb.json"), "--dim", "16"]) == 0
        capsys.readouterr()
        code, out, err = run(
            capsys,
            "compress",
            str(tmp_path / "cb.json"),
            str(tmp_path / "emb.txt"),
            str(tmp_path / "ann.tsv"),
            str(tmp_path / "vocab.txt"),
        )
        assert code == 1
        assert out == ""
        assert err == f"error: {tmp_path / 'ann.tsv'}:2: surface 'new york' contains a space\n"
        assert not (tmp_path / "vocab.txt").exists()
        assert not (tmp_path / "vocab.txt.meta.json").exists()

    def test_utf8_bom_inputs_read_as_their_text(self, tmp_path, capsys):
        rng = np.random.default_rng(47)
        values = " ".join(repr(v) for v in rng.normal(size=16).tolist())
        (tmp_path / "emb.txt").write_text(f"\ufeffnew {values}\n", encoding="utf-8")
        (tmp_path / "ann.tsv").write_text("\ufeffnew\tNNP\t-\n", encoding="utf-8")
        assert main(["build-codebook", str(tmp_path / "cb.json"), "--dim", "16"]) == 0
        args = [str(tmp_path / name) for name in ("cb.json", "emb.txt", "ann.tsv", "vocab.txt")]
        assert main(["compress", *args]) == 0
        capsys.readouterr()
        assert (tmp_path / "vocab.txt").read_text(encoding="utf-8").startswith("newNNP ")
        sidecar = json.loads((tmp_path / "vocab.txt.meta.json").read_text())
        assert list(sidecar["entries"]) == ["newNNP"]
        assert sidecar["entries"]["newNNP"]["filler_source"] == "exact"


class TestDecode:
    def test_with_sidecar_reports_accuracy(self, pipeline_setup, capsys):
        tmp = pipeline_setup
        capsys.readouterr()
        code, out, _ = run(
            capsys,
            "decode",
            str(tmp / "cb.json"),
            str(tmp / "vocab.txt"),
            "--sidecar",
            str(tmp / "vocab.txt.meta.json"),
            "--out",
            str(tmp / "decoded.tsv"),
        )
        assert code == 0
        assert "POS accuracy:" in out
        assert "NER accuracy:" in out
        rows = (tmp / "decoded.tsv").read_text().splitlines()
        assert rows[0].startswith("#key")
        assert len(rows) - 1 == len((tmp / "vocab.txt").read_text().splitlines())

    def test_accuracy_counts_the_written_rows_decoding_once(
        self, pipeline_setup, capsys, monkeypatch
    ):
        from holovec import cli, decoder

        calls = []

        def counted(*args, **kwargs):
            calls.append(len(args[0]))
            return decode_vocabulary(*args, **kwargs)

        monkeypatch.setattr(decoder, "decode_vocabulary", counted)
        monkeypatch.setattr(cli, "decode_vocabulary", counted)
        tmp = pipeline_setup
        capsys.readouterr()
        meta = tmp / "vocab.txt.meta.json"
        code, out, _ = run(
            capsys,
            "decode",
            str(tmp / "cb.json"),
            str(tmp / "vocab.txt"),
            "--sidecar",
            str(meta),
            "--out",
            str(tmp / "decoded.tsv"),
        )
        assert code == 0
        truth = json.loads(meta.read_text())["entries"]
        assert calls == [len(truth)]
        rows = [line.split("\t") for line in (tmp / "decoded.tsv").read_text().splitlines()[1:]]
        pos_ok = sum(row[2] == truth[row[0]]["pos_tag"] for row in rows)
        tagged = [row for row in rows if row[1] == "4"]
        ner_ok = sum(row[4] == truth[row[0]]["ner_type"] for row in tagged)
        assert out.splitlines()[1:] == [
            f"POS accuracy: {pos_ok / len(rows):.4f} ({pos_ok}/{len(rows)})",
            f"NER accuracy: {ner_ok / len(tagged):.4f} ({ner_ok}/{len(tagged)})",
        ]

    def test_without_sidecar_no_accuracy(self, pipeline_setup, capsys):
        tmp = pipeline_setup
        capsys.readouterr()
        code, out, _ = run(capsys, "decode", str(tmp / "cb.json"), str(tmp / "vocab.txt"))
        assert code == 0
        assert "accuracy" not in out.lower()
        assert out.startswith("#key")

    @pytest.mark.parametrize("sidecar", [False, True])
    def test_stdout_and_out_get_the_same_rows(self, pipeline_setup, capsys, sidecar):
        tmp = pipeline_setup
        argv = ["decode", str(tmp / "cb.json"), str(tmp / "vocab.txt")]
        if sidecar:
            argv += ["--sidecar", str(tmp / "vocab.txt.meta.json")]
        capsys.readouterr()
        code, to_stdout, _ = run(capsys, *argv)
        assert code == 0
        code, to_file, _ = run(capsys, *argv, "--out", str(tmp / "decoded.tsv"))
        assert code == 0
        table = (tmp / "decoded.tsv").read_bytes().decode("utf-8")
        assert to_file.startswith(f"decoded attributes written to {tmp / 'decoded.tsv'}\n")
        accuracy = to_file.split("\n", 1)[1]
        assert (accuracy != "") == sidecar
        assert to_stdout == table + accuracy

    def test_codebook_of_another_dimension_exits_one(self, pipeline_setup, capsys):
        tmp = pipeline_setup
        assert main(["build-codebook", str(tmp / "cb16.json"), "--dim", "16"]) == 0
        capsys.readouterr()
        code, out, err = run(
            capsys,
            "decode",
            str(tmp / "cb16.json"),
            str(tmp / "vocab.txt"),
            "--sidecar",
            str(tmp / "vocab.txt.meta.json"),
            "--out",
            str(tmp / "decoded.tsv"),
        )
        assert (code, out) == (1, "")
        assert err == "error: vocabulary dimension 32 differs from codebook dimension 16\n"
        assert not (tmp / "decoded.tsv").exists()

    def test_a_bare_decode_with_a_codebook_of_another_dimension_exits_one(
        self, pipeline_setup, capsys
    ):
        tmp = pipeline_setup
        assert main(["build-codebook", str(tmp / "cb16.json"), "--dim", "16"]) == 0
        capsys.readouterr()
        code, out, err = run(
            capsys,
            "decode",
            str(tmp / "cb16.json"),
            str(tmp / "vocab.txt"),
            "--out",
            str(tmp / "decoded.tsv"),
        )
        assert (code, out) == (1, "")
        assert err == "error: vectors of shape (32,) differ from codebook dimension 16\n"
        assert not (tmp / "decoded.tsv").exists()

    def test_corrupt_vector_length_names_the_line(self, pipeline_setup, capsys):
        tmp = pipeline_setup
        lines = (tmp / "vocab.txt").read_text().splitlines()
        fields = lines[2].split(" ")
        lines[2] = " ".join(fields[:-3])  # drop 3 values mid-file
        (tmp / "vocab.txt").write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        code, _, err = run(capsys, "decode", str(tmp / "cb.json"), str(tmp / "vocab.txt"))
        assert code == 1
        assert ":3" in err


class TestAnalyze:
    def test_orthogonality_report(self, pipeline_setup, capsys):
        tmp = pipeline_setup
        capsys.readouterr()
        code, out, _ = run(
            capsys,
            "analyze",
            "orthogonality",
            str(tmp / "vocab.txt"),
            "--out",
            str(tmp / "orth.json"),
            "--sample-size",
            "40",
            "--seed",
            "5",
        )
        assert code == 0
        doc = json.loads((tmp / "orth.json").read_text())
        assert doc["format"] == "holovec-orthogonality-report"
        assert doc["sample_pairs"] == 40
        assert 0.0 <= doc["fraction_below"] <= 1.0
        assert sum(doc["histogram"]["counts"]) == 40
        assert "fraction with |cosine| < 0.25" in out

    def test_orthogonality_of_an_empty_vector_file_exits_one(self, tmp_path, capsys):
        (tmp_path / "vocab.txt").write_text("")
        code, out, err = run(
            capsys,
            "analyze",
            "orthogonality",
            str(tmp_path / "vocab.txt"),
            "--out",
            str(tmp_path / "orth.json"),
        )
        assert (code, out) == (1, "")
        assert err == "error: orthogonality sampling needs >= 2 vectors, got 0\n"
        assert not (tmp_path / "orth.json").exists()

    @pytest.mark.parametrize("threshold", ["nan", "inf"])
    def test_a_threshold_that_is_not_finite_exits_one_without_a_report(
        self, pipeline_setup, capsys, threshold
    ):
        tmp = pipeline_setup
        code, out, err = run(
            capsys,
            "analyze",
            "orthogonality",
            str(tmp / "vocab.txt"),
            "--out",
            str(tmp / "orth.json"),
            "--threshold",
            threshold,
        )
        assert code == 1
        assert out == ""
        assert err == f"error: threshold must be a finite number, got {threshold}\n"
        assert not (tmp / "orth.json").exists()

    def test_neighborhood_report_fractions_sum_to_one(self, pipeline_setup, capsys):
        tmp = pipeline_setup
        capsys.readouterr()
        code, out, _ = run(
            capsys,
            "analyze",
            "neighborhoods",
            str(tmp / "emb.txt"),
            str(tmp / "vocab.txt"),
            str(tmp / "vocab.txt.meta.json"),
            "--cores",
            str(tmp / "cores.txt"),
            "--k",
            "10",
            "--out",
            str(tmp / "nbr.json"),
        )
        assert code == 0
        doc = json.loads((tmp / "nbr.json").read_text())
        fr = doc["fractions"]
        assert abs(fr["same_position"] + fr["shifted"] + fr["disjoint"] - 1.0) < 1e-9
        assert len(doc["cores"]) == 5
        for core in doc["cores"]:
            assert len(core["original_neighbors"]) == 10
            labels = core["original_cosine_matrix"]["labels"]
            matrix = core["original_cosine_matrix"]["matrix"]
            assert len(labels) == len(matrix) == 11

    def test_neighborhoods_compares_spaces_over_the_matrices_it_read(
        self, pipeline_setup, capsys, monkeypatch
    ):
        tmp = pipeline_setup
        read, load, classify = cli.read_vectors, cli.load_vocabulary, cli.classify_neighborhoods
        matrices, spaces = [], []

        def reading(path):
            table = read(path)
            matrices.append(table.matrix)
            return table

        def loading(*paths):
            vocab = load(*paths)
            matrices.append(vocab.vectors)
            return vocab

        def classifying(original, compressed, *args, **kwargs):
            spaces.extend((original, compressed))
            return classify(original, compressed, *args, **kwargs)

        monkeypatch.setattr(cli, "read_vectors", reading)
        monkeypatch.setattr(cli, "load_vocabulary", loading)
        monkeypatch.setattr(cli, "classify_neighborhoods", classifying)
        inputs = [str(tmp / name) for name in ("emb.txt", "vocab.txt", "vocab.txt.meta.json")]
        code, _, err = run(
            capsys,
            "analyze",
            "neighborhoods",
            *inputs,
            "--cores",
            str(tmp / "cores.txt"),
            "--out",
            str(tmp / "nbr.json"),
        )
        assert (code, err) == (0, "")
        assert len(spaces) == len(matrices) == 2
        for space, matrix in zip(spaces, matrices):  # the embeddings, then the vocabulary
            assert isinstance(space, VectorSpace) and len(space) > 0
            assert all(np.shares_memory(space[key], matrix) for key in space)

    def test_bom_prefixed_cores_file_reads_as_its_words(self, pipeline_setup, capsys):
        tmp = pipeline_setup
        words = (tmp / "cores.txt").read_text().split()
        (tmp / "cores.txt").write_text("\ufeff" + "\r\n".join(words) + "\r\n", encoding="utf-8")
        capsys.readouterr()
        code, _, err = run(
            capsys,
            "analyze",
            "neighborhoods",
            str(tmp / "emb.txt"),
            str(tmp / "vocab.txt"),
            str(tmp / "vocab.txt.meta.json"),
            "--cores",
            str(tmp / "cores.txt"),
            "--out",
            str(tmp / "nbr.json"),
        )
        assert (code, err) == (0, "")
        assert json.loads((tmp / "nbr.json").read_text())["core_tokens"] == sorted(words)

    def test_empty_cores_file_exits_one(self, pipeline_setup, capsys):
        tmp = pipeline_setup
        (tmp / "cores.txt").write_text("\n  \n")
        capsys.readouterr()
        code, _, err = run(
            capsys,
            "analyze",
            "neighborhoods",
            str(tmp / "emb.txt"),
            str(tmp / "vocab.txt"),
            str(tmp / "vocab.txt.meta.json"),
            "--cores",
            str(tmp / "cores.txt"),
            "--out",
            str(tmp / "nbr.json"),
        )
        assert code == 1
        assert err == f"error: {tmp / 'cores.txt'}: list is empty\n"
        assert not (tmp / "nbr.json").exists()

    def test_absent_core_word_exits_one_naming_it(self, pipeline_setup, capsys):
        tmp = pipeline_setup
        (tmp / "cores.txt").write_text("definitelymissing\n")
        capsys.readouterr()
        code, _, err = run(
            capsys,
            "analyze",
            "neighborhoods",
            str(tmp / "emb.txt"),
            str(tmp / "vocab.txt"),
            str(tmp / "vocab.txt.meta.json"),
            "--cores",
            str(tmp / "cores.txt"),
            "--out",
            str(tmp / "nbr.json"),
        )
        assert code == 1
        assert "definitelymissing" in err
        assert not (tmp / "nbr.json").exists()


    def test_core_word_outside_the_vocabulary_exits_one_naming_it(self, pipeline_setup, capsys):
        tmp = pipeline_setup
        with open(tmp / "emb.txt", "a", encoding="utf-8") as fh:
            fh.write("unannotated " + " ".join(["0.5"] * 32) + "\n")
        (tmp / "cores.txt").write_text("unannotated\n")
        capsys.readouterr()
        code, _, err = run(
            capsys,
            "analyze",
            "neighborhoods",
            str(tmp / "emb.txt"),
            str(tmp / "vocab.txt"),
            str(tmp / "vocab.txt.meta.json"),
            "--cores",
            str(tmp / "cores.txt"),
            "--out",
            str(tmp / "nbr.json"),
        )
        assert code == 1
        assert err == "error: core word 'unannotated' is not in the compressed vocabulary\n"
        assert not (tmp / "nbr.json").exists()


class TestTextInputs:
    """Every text input is read by one reader: BOM, CRLF and bad bytes alike."""

    @pytest.mark.parametrize("name", ["emb.txt", "ann.tsv", "pos.txt", "cores.txt"])
    def test_a_byte_that_is_not_utf8_exits_one_naming_its_line(
        self, pipeline_setup, capsys, name
    ):
        tmp = pipeline_setup
        (tmp / "pos.txt").write_text("".join(f"T{i:05d}\n" for i in range(3000)))
        (tmp / "ann.tsv").write_text((tmp / "ann.tsv").read_text() * 20)
        (tmp / "cores.txt").write_text((tmp / "cores.txt").read_text() * 500)
        p = {
            file: str(tmp / file)
            for file in ("cb.json", "emb.txt", "ann.tsv", "vocab.txt", "pos.txt", "cores.txt")
        }
        compress = ["compress", p["cb.json"], p["emb.txt"], p["ann.tsv"], str(tmp / "out.txt")]
        argv = {
            "emb.txt": compress,
            "ann.tsv": compress,
            "pos.txt": ["build-codebook", str(tmp / "out.json"), "--pos-tags", p["pos.txt"]],
            "cores.txt": [
                "analyze",
                "neighborhoods",
                p["emb.txt"],
                p["vocab.txt"],
                p["vocab.txt"] + ".meta.json",
                "--cores",
                p["cores.txt"],
                "--out",
                str(tmp / "out.json"),
            ],
        }[name]
        path = tmp / name
        lines = path.read_bytes().splitlines(keepends=True)
        lineno = len(lines) - 1
        # past the first chunk the file is read in, so the line named is the one
        # that holds the byte, not the one where a read happened to end
        assert sum(map(len, lines[: lineno - 1])) > 16_384
        lines[lineno - 1] = b"caf\xe9" + lines[lineno - 1]
        path.write_bytes(b"".join(lines))
        code, out, err = run(capsys, *argv)
        message = f"error: {path}:{lineno}: not valid UTF-8 (invalid continuation byte)\n"
        assert (code, out, err) == (1, "", message)
        assert not (tmp / "out.txt").exists() and not (tmp / "out.json").exists()

    def test_bom_and_crlf_inputs_give_the_same_vocabulary(self, pipeline_setup, capsys):
        tmp = pipeline_setup
        for name in ("emb.txt", "ann.tsv"):
            text = (tmp / name).read_text(encoding="utf-8")
            (tmp / f"crlf-{name}").write_bytes(("\ufeff" + text.replace("\n", "\r\n")).encode())
        argv = [str(tmp / name) for name in ("cb.json", "crlf-emb.txt", "crlf-ann.tsv", "out.txt")]
        assert main(["compress", *argv]) == 0
        for suffix in ("", ".meta.json"):
            written = (tmp / f"out.txt{suffix}").read_bytes()
            assert written == (tmp / f"vocab.txt{suffix}").read_bytes()

    def test_every_file_opened_names_its_encoding(self, tmp_path):
        # a file opened without an encoding would read or write in the locale's
        # encoding; under these flags that open raises, and the step exits 1
        rng = np.random.default_rng(44)
        words = ["caf\u00e9", "fish", "tea"]
        write_vector_file(tmp_path / "emb.txt", {w: rng.normal(size=16) for w in words})
        (tmp_path / "ann.tsv").write_text(
            "caf\u00e9\tNN\t-\nfish\tVB\t-\ntea\tNN\tORG\n", encoding="utf-8"
        )
        (tmp_path / "cores.txt").write_text("caf\u00e9\n", encoding="utf-8")
        cb, emb, ann, cores, vocab, decoded, report = (
            str(tmp_path / name)
            for name in ("cb.json", "emb.txt", "ann.tsv", "cores.txt", "vocab.txt", "d.tsv", "r")
        )
        meta = vocab + ".meta.json"
        steps = [
            ["build-codebook", cb, "--dim", "16"],
            ["compress", cb, emb, ann, vocab],
            ["decode", cb, vocab, "--sidecar", meta, "--out", decoded],
            ["analyze", "orthogonality", vocab, "--out", report],
            ["analyze", "neighborhoods", emb, vocab, meta, "--cores", cores, "--out", report],
        ]
        flags = ["-X", "warn_default_encoding", "-W", "error::EncodingWarning"]
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        for argv in steps:
            done = subprocess.run(
                [sys.executable, *flags, "-m", "holovec.cli", *argv],
                capture_output=True,
                encoding="utf-8",
                env=env,
            )
            assert (argv[0], done.returncode, done.stderr) == (argv[0], 0, "")
        assert "caf\u00e9" in (tmp_path / "d.tsv").read_text(encoding="utf-8")


class TestSelfTest:
    def test_passes_at_default_scale(self, capsys):
        code, out, _ = run(capsys, "self-test")
        assert code == 0
        assert out.count("PASS") == 5
        assert "FAIL" not in out


class TestReproducibility:
    def _pipeline(self, root, seed):
        root.mkdir()
        table = make_surrogate_table(40, 32, seed=50, n_clusters=8)
        corpus = make_annotated_corpus(
            sorted(table), ["NN", "VB"], ["ORG"], seed=51
        )
        write_vector_file(root / "emb.txt", table)
        write_annotation_file(root / "ann.tsv", corpus)
        (root / "cores.txt").write_text("\n".join(sorted(table)[:3]) + "\n")
        assert main(
            ["build-codebook", str(root / "cb.json"), "--dim", "32", "--seed", str(seed)]
        ) == 0
        assert main(
            [
                "compress",
                str(root / "cb.json"),
                str(root / "emb.txt"),
                str(root / "ann.tsv"),
                str(root / "vocab.txt"),
            ]
        ) == 0
        assert main(
            [
                "analyze",
                "orthogonality",
                str(root / "vocab.txt"),
                "--out",
                str(root / "orth.json"),
                "--sample-size",
                "20",
                "--seed",
                str(seed),
            ]
        ) == 0
        assert main(
            [
                "analyze",
                "neighborhoods",
                str(root / "emb.txt"),
                str(root / "vocab.txt"),
                str(root / "vocab.txt.meta.json"),
                "--cores",
                str(root / "cores.txt"),
                "--out",
                str(root / "nbr.json"),
            ]
        ) == 0

    def test_identical_seeds_give_byte_identical_outputs(self, tmp_path, capsys):
        self._pipeline(tmp_path / "run1", seed=77)
        self._pipeline(tmp_path / "run2", seed=77)
        for name in ("cb.json", "vocab.txt", "vocab.txt.meta.json", "orth.json", "nbr.json"):
            first = (tmp_path / "run1" / name).read_bytes()
            second = (tmp_path / "run2" / name).read_bytes()
            assert first == second, name

    def test_seed_change_changes_the_codebook(self, tmp_path, capsys):
        self._pipeline(tmp_path / "run1", seed=77)
        self._pipeline(tmp_path / "run2", seed=78)
        assert (tmp_path / "run1" / "cb.json").read_bytes() != (
            tmp_path / "run2" / "cb.json"
        ).read_bytes()

    def test_no_temp_files_left_behind(self, pipeline_setup):
        leftovers = [p.name for p in pipeline_setup.iterdir() if p.suffix == ".tmp"]
        assert leftovers == []


def _edit_json(path, edit):
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))


class TestMalformedDocuments:
    """A codebook or sidecar the readers reject exits 1 with one line naming the file."""

    @pytest.fixture()
    def compressed(self, fish_setup, capsys):
        tmp = fish_setup
        assert main(["build-codebook", str(tmp / "cb.json"), "--dim", "32"]) == 0
        args = [str(tmp / name) for name in ("cb.json", "emb.txt", "ann.tsv", "vocab.txt")]
        assert main(["compress", *args]) == 0
        capsys.readouterr()
        return tmp

    def _decode_error(self, capsys, tmp, edit):
        meta = tmp / "vocab.txt.meta.json"
        _edit_json(meta, edit)
        args = [str(tmp / "cb.json"), str(tmp / "vocab.txt"), "--sidecar", str(meta)]
        code, _, err = run(capsys, "decode", *args)
        assert code == 1
        return err

    def test_entry_without_component_count(self, compressed, capsys):
        err = self._decode_error(
            capsys, compressed, lambda doc: doc["entries"]["fishNN"].pop("component_count")
        )
        meta = compressed / "vocab.txt.meta.json"
        assert err == f"error: {meta}: entry 'fishNN': missing field 'component_count'\n"

    def test_entry_that_is_a_list(self, compressed, capsys):
        err = self._decode_error(
            capsys, compressed, lambda doc: doc["entries"].__setitem__("fishNN", [3, "exact"])
        )
        meta = compressed / "vocab.txt.meta.json"
        assert err == f"error: {meta}: entry 'fishNN': must be an object\n"

    def test_stats_that_is_a_list(self, compressed, capsys):
        err = self._decode_error(capsys, compressed, lambda doc: doc.__setitem__("stats", [3, 1]))
        assert err == f"error: {compressed / 'vocab.txt.meta.json'}: stats: must be an object\n"

    def test_four_components_without_an_ner_type(self, compressed, capsys):
        err = self._decode_error(
            capsys,
            compressed,
            lambda doc: doc["entries"]["fishNN"].__setitem__("component_count", 4),
        )
        meta = compressed / "vocab.txt.meta.json"
        assert err == (
            f"error: {meta}: entry 'fishNN': component_count must be 3 with no NER type, got 4\n"
        )

    def test_five_components(self, compressed, capsys):
        err = self._decode_error(
            capsys,
            compressed,
            lambda doc: doc["entries"]["fishNNPPERSON"].__setitem__("component_count", 5),
        )
        meta = compressed / "vocab.txt.meta.json"
        assert err == (
            f"error: {meta}: entry 'fishNNPPERSON': component_count must be 4 "
            "with NER type 'PERSON', got 5\n"
        )

    def test_entry_whose_tags_spell_another_key(self, compressed, capsys):
        err = self._decode_error(
            capsys,
            compressed,
            lambda doc: doc["entries"]["fishNN"].update(word_type="york", pos_tag="VB"),
        )
        meta = compressed / "vocab.txt.meta.json"
        assert err == (
            f"error: {meta}: entry 'fishNN': word_type + pos_tag + ner_type spell 'yorkVB'\n"
        )

    def test_sidecar_of_another_version(self, compressed, capsys):
        err = self._decode_error(
            capsys, compressed, lambda doc: doc.__setitem__("format_version", 2)
        )
        meta = compressed / "vocab.txt.meta.json"
        assert err == f"error: {meta}: format_version is 2, expected 1\n"

    def test_codebook_of_another_version(self, compressed, capsys):
        tmp = compressed
        _edit_json(tmp / "cb.json", lambda doc: doc.__setitem__("format_version", 2))
        args = [str(tmp / name) for name in ("cb.json", "emb.txt", "ann.tsv", "out.txt")]
        code, _, err = run(capsys, "compress", *args)
        assert code == 1
        assert err == f"error: {tmp / 'cb.json'}: format_version is 2, expected 1\n"
        assert not (tmp / "out.txt").exists()

    def test_an_empty_vocabulary_decodes(self, tmp_path, capsys):
        write_vector_file(tmp_path / "emb.txt", {"a": np.ones(16)})
        (tmp_path / "ann.tsv").write_text("")
        assert main(["build-codebook", str(tmp_path / "cb.json"), "--dim", "16"]) == 0
        args = [str(tmp_path / name) for name in ("cb.json", "emb.txt", "ann.tsv", "vocab.txt")]
        assert main(["compress", *args]) == 0
        assert (tmp_path / "vocab.txt").read_text() == ""
        capsys.readouterr()
        code, out, err = run(
            capsys,
            "decode",
            str(tmp_path / "cb.json"),
            str(tmp_path / "vocab.txt"),
            "--sidecar",
            str(tmp_path / "vocab.txt.meta.json"),
            "--out",
            str(tmp_path / "decoded.tsv"),
        )
        assert (code, err) == (0, "")
        assert (tmp_path / "decoded.tsv").read_text().splitlines() == [
            "#key\tm\tpos\tpos_similarity\tner\tner_similarity"
        ]
        assert "(0/0)" in out
        assert "POS accuracy: n/a (0/0)" in out.splitlines()
