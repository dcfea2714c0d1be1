"""Export lists: each ``__all__`` lists every public function and class its module defines,
and every name it lists exists. A library module lists only names it defines itself; the
package ``__init__`` re-exports them."""

import ast
import importlib
import inspect
import pkgutil

import pytest

import holovec

MODULES = [
    importlib.import_module(f"holovec.{info.name}")
    for info in pkgutil.iter_modules(holovec.__path__)
]
EXPORTING = [module for module in MODULES if hasattr(module, "__all__")]


def _defined_at_top_level(module) -> set[str]:
    """Names a module's own top-level statements define: functions, classes, assignments."""
    names = set()
    for node in ast.parse(inspect.getsource(module)).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return names


def test_the_library_modules_define_all():
    library = ["_fileio", "analysis", "codebook", "decoder", "encoder", "hrr", "selftest"]
    exporting = {module.__name__ for module in EXPORTING}
    assert [name for name in library if f"holovec.{name}" not in exporting] == []


@pytest.mark.parametrize("module", [holovec, *EXPORTING], ids=lambda m: m.__name__)
def test_every_listed_name_exists(module):
    assert len(module.__all__) == len(set(module.__all__))
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []


@pytest.mark.parametrize("module", EXPORTING, ids=lambda m: m.__name__)
def test_every_listed_name_is_defined_in_its_module(module):
    defined = _defined_at_top_level(module)
    assert [name for name in module.__all__ if name not in defined] == []


@pytest.mark.parametrize("module", EXPORTING, ids=lambda m: m.__name__)
def test_every_public_function_and_class_is_listed(module):
    defined = [
        name
        for name, obj in vars(module).items()
        if not name.startswith("_")
        and (inspect.isfunction(obj) or inspect.isclass(obj))
        and obj.__module__ == module.__name__
    ]
    assert [name for name in defined if name not in module.__all__] == []
