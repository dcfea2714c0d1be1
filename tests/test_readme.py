"""The README names only what the package exports."""

import re
from pathlib import Path

import holovec
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
