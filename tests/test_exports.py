import importlib
import pkgutil

import pytest

import rbmatch

MODULES = sorted(info.name for info in pkgutil.iter_modules(rbmatch.__path__))


def test_modules_found():
    assert {"estimators", "exact1d", "montecarlo", "network", "types"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    # a stale entry fails only on ``from rbmatch.<module> import *``
    module = importlib.import_module(f"rbmatch.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []
