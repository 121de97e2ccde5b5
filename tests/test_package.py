"""Structural checks on the logeuler package."""

import importlib
import pkgutil

import pytest

import logeuler

MODULES = sorted(m.name for m in pkgutil.iter_modules(logeuler.__path__, "logeuler."))


@pytest.mark.parametrize("name", MODULES)
def test_every_export_is_defined(name):
    # a name deleted from a module but left in its __all__ breaks
    # "from logeuler.<module> import *" only when someone tries it
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []
