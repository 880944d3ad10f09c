import importlib
import importlib.util
import pathlib
import pkgutil
import sys
import types

import pytest

import rbmatch

MODULES = sorted(info.name for info in pkgutil.iter_modules(rbmatch.__path__))
LIBRARY_MODULES = [name for name in MODULES if name != "cli"]  # cli is not re-exported
TRACER = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def test_modules_found():
    assert {"estimators", "exact1d", "montecarlo", "network", "types"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    # a stale entry fails only on ``from rbmatch.<module> import *``
    module = importlib.import_module(f"rbmatch.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []


def test_package_exports_exactly_the_library_modules_all():
    # submodules are left out: whether ``rbmatch.cli`` is bound depends on
    # which tests imported it first
    exported = {
        name
        for name, value in vars(rbmatch).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    declared = set()
    for name in LIBRARY_MODULES:
        declared.update(importlib.import_module(f"rbmatch.{name}").__all__)
    assert exported == declared


def test_every_traced_entry_point_resolves(monkeypatch):
    # the benchmark's tracer skips a target it cannot find, so its metric goes
    # absent; a refactor that drops a traced entry point fails here instead
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ untouched
    spec = importlib.util.spec_from_file_location("_bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for name, (module_name, path, _cells) in tracer.TARGETS.items():
        owner = importlib.import_module(module_name)
        *owners, attr = path.split(".")
        for part in owners:
            owner = getattr(owner, part, None)
        if owners:  # a class member is patched on the class, so it must be defined there
            found = None if owner is None else vars(owner).get(attr)
        else:
            found = getattr(owner, attr, None)
        if found is None:
            missing.append(name)
    assert tracer.TARGETS
    assert missing == []
