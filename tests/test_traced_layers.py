"""The layers the benchmark traces (bench/tracing.py) must exist in ffk.

The tracer wraps each listed function in its ffk module and each listed
method on its fiber class; a renamed or moved layer would otherwise only
show up when the benchmark runs.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _tracing(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("ffk_bench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, mod)  # dataclasses look it up
    spec.loader.exec_module(mod)
    return mod


def test_traced_functions_resolve(monkeypatch):
    tracing = _tracing(monkeypatch)
    for modname, names in tracing.FUNCTIONS.items():
        mod = importlib.import_module(f"ffk.{modname}")
        for name in names:
            assert callable(getattr(mod, name, None)), f"ffk.{modname}.{name}"


def test_traced_methods_resolve(monkeypatch):
    tracing = _tracing(monkeypatch)
    fiber = importlib.import_module("ffk.fiber")
    for span, (cls_name, meth) in tracing.METHODS.items():
        cls = getattr(fiber, cls_name, None)
        assert cls is not None and callable(vars(cls).get(meth)), span
