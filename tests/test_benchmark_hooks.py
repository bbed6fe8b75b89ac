"""The benchmark wraps named functions of ``ccc`` and empties its caches by name.

Those names live in ``perfbench/``; renaming or deleting one in the program
would break the benchmark without failing any other test.  The benchmark files
are imported by path and only read.
"""

import importlib
import importlib.util
import sys
from pathlib import Path


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(name: str, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))  # sweep.py imports its sibling reference.py
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ untouched
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_functions_exist(monkeypatch):
    tracer = load("tracer", monkeypatch)
    hooks = [
        (module, fname)
        for table in (tracer.SPANNED, tracer.COUNTED)
        for module, names in table.items()
        for fname in names
    ]
    assert hooks
    for module, fname in hooks:
        assert callable(getattr(importlib.import_module(f"ccc.{module}"), fname, None)), (module, fname)


def test_cleared_caches_exist(monkeypatch):
    sweep = load("sweep", monkeypatch)
    assert sweep.CACHES
    for module, attr in sweep.CACHES.values():
        cache = getattr(importlib.import_module(f"ccc.{module}"), attr, None)
        assert hasattr(cache, "cache_clear") and hasattr(cache, "cache_info"), (module, attr)
