"""Imports and calls: the JSON document format and the opening of files are spelled out
in one module, ``holovec._fileio``."""

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


def _calls_open(source: str) -> bool:
    """Whether ``source`` calls the builtin ``open``, by name or through ``io`` or ``builtins``."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id == "open":
                return True
            if (
                isinstance(func, ast.Attribute)
                and func.attr == "open"
                and isinstance(func.value, ast.Name)
                and func.value.id in ("io", "builtins")
            ):
                return True
    return False


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


def test_only_fileio_opens_files():
    # every text input goes through _fileio.read_lines, so BOM, line breaks and
    # encoding errors are handled in one place
    package = Path(holovec.__file__).parent
    modules = [info.name for info in pkgutil.iter_modules([str(package)])]
    openers = [
        name
        for name in modules
        if _calls_open((package / f"{name}.py").read_text(encoding="utf-8"))
    ]
    assert openers == ["_fileio"]


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


def test_the_open_check_sees_every_call_form():
    forms = (
        "open(p)",
        "with open(p, encoding='utf-8') as fh:\n    pass",
        "import io\nio.open(p)",
        "import builtins\nbuiltins.open(p)",
        "def f():\n    return [line for line in open(p)]",
    )
    for source in forms:
        assert _calls_open(source)
    for source in ("os.open(p, os.O_RDONLY)", "opener(p)"):
        assert not _calls_open(source)
