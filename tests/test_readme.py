"""The README names only what the package exports, and its Library examples run."""

import re
from pathlib import Path

import pytest

import holovec
from conftest import FISH_ANNOTATIONS, fish_table, write_annotation_file, write_vector_file
from holovec import hrr

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def test_every_hv_name_resolves():
    names = sorted(set(re.findall(r"\bhv\.([A-Za-z_]\w*)", README)))
    assert names
    assert [name for name in names if not hasattr(holovec, name)] == []


def test_the_core_algebra_sentence_names_hrr_exports():
    sentence = re.search(r"Core algebra lives in `holovec\.hrr`:(.*?)\.\s", README, re.DOTALL)
    assert sentence is not None
    names = re.findall(r"`([^`]+)`", sentence.group(1))
    assert names
    assert [name for name in names if name not in hrr.__all__] == []


def test_the_library_examples_run_in_order(tmp_path, monkeypatch):
    write_vector_file(tmp_path / "embeddings.txt", fish_table(300))
    write_annotation_file(tmp_path / "corpus.tsv", FISH_ANNOTATIONS)
    monkeypatch.chdir(tmp_path)
    section = README.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"^```python\n(.*?)^```$", section, re.DOTALL | re.MULTILINE)
    assert len(blocks) == 2
    namespace = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)
    # one row and a block of three may round a cosine in the last bits apart
    decoded, batched = namespace["decoded"], namespace["all_decoded"][2]
    assert (decoded.pos_tag, decoded.ner_type) == (batched.pos_tag, batched.ner_type)
    assert decoded.pos_similarity == pytest.approx(batched.pos_similarity, abs=1e-15)
    assert namespace["tag"] == namespace["decoded"].pos_tag == "NNP"
