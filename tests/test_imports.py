"""Imports: the JSON document format is spelled out in one module, ``holovec._fileio``."""

import ast
import pkgutil
from pathlib import Path

import holovec


def _imported_modules(source: str) -> set[str]:
    """Top-level names of the absolute imports in ``source``."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_only_fileio_imports_json():
    package = Path(holovec.__file__).parent
    modules = [info.name for info in pkgutil.iter_modules([str(package)])]
    assert "_fileio" in modules
    importers = [
        name
        for name in modules
        if "json" in _imported_modules((package / f"{name}.py").read_text(encoding="utf-8"))
    ]
    assert importers == ["_fileio"]


def test_the_check_sees_every_import_form():
    forms = (
        "import json",
        "import os, json as j",
        "from json import dumps",
        "def f():\n    import json.decoder",
    )
    for source in forms:
        assert "json" in _imported_modules(source)
    assert "json" not in _imported_modules("from . import hrr\nfrom .json import x")
