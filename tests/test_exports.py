import importlib
import pkgutil

import pytest

import fracepi

MODULES = ["fracepi"] + [f"fracepi.{info.name}" for info in pkgutil.iter_modules(fracepi.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []


def test_star_import():
    namespace = {}
    exec("from fracepi import *", namespace)
    assert set(fracepi.__all__) <= set(namespace)
