"""Export lists: each ``__all__`` lists every public function and class its module defines,
and every name it lists exists."""

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
def test_every_public_function_and_class_is_listed(module):
    defined = [
        name
        for name, obj in vars(module).items()
        if not name.startswith("_")
        and (inspect.isfunction(obj) or inspect.isclass(obj))
        and obj.__module__ == module.__name__
    ]
    assert [name for name in defined if name not in module.__all__] == []
