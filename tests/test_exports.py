"""Every name in a module's ``__all__`` resolves, so a deletion leaves no stale export."""

import importlib
import pkgutil

import pytest

import mixedgp

MODULES = sorted(m.name for m in pkgutil.iter_modules(mixedgp.__path__, "mixedgp."))


@pytest.mark.parametrize("name", MODULES)
def test_exported_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert [n for n in exported if not hasattr(module, n)] == []
    assert len(set(exported)) == len(exported)
    exec(f"from {name} import *", {})
