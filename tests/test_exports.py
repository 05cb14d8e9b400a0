"""Every exported name of the package and its modules resolves."""

import importlib
import pkgutil

import pytest

import freedeconv

MODULES = [
    importlib.import_module(f"freedeconv.{info.name}")
    for info in pkgutil.iter_modules(freedeconv.__path__)
    if info.name != "__main__"  # importing it would run the CLI
]


@pytest.mark.parametrize(
    "module", [freedeconv] + MODULES, ids=lambda mod: mod.__name__
)
def test_every_exported_name_resolves(module):
    exported = getattr(module, "__all__", None)
    assert exported is not None, f"{module.__name__} declares no __all__"
    assert len(exported) == len(set(exported)), "duplicate __all__ entries"
    missing = [name for name in exported if not hasattr(module, name)]
    assert missing == []
