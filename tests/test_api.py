import importlib
import pkgutil

import pytest

import nextjump

MODULES = ["nextjump"] + [f"nextjump.{m.name}"
                          for m in pkgutil.iter_modules(nextjump.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve_without_duplicates(name):
    mod = importlib.import_module(name)
    exported = mod.__all__
    assert len(exported) == len(set(exported))
    assert [n for n in exported if not hasattr(mod, n)] == []
