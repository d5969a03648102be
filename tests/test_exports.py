"""Every name a module exports resolves, so a deletion that forgets an
``__all__`` entry fails here rather than in a user's import."""

import importlib
import pkgutil

import pytest

import modgal

MODULES = ["modgal"] + [f"modgal.{m.name}" for m in pkgutil.iter_modules(modgal.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_export_exists(name):
    module = importlib.import_module(name)
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []
