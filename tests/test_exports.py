"""Every name a rasqp module exports must exist, so a deletion cannot leave a stale export."""

import importlib
import pkgutil

import pytest

import rasqp

MODULES = ["rasqp"] + [f"rasqp.{m.name}" for m in pkgutil.iter_modules(rasqp.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"
