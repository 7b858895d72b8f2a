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


def test_every_traced_verify_layer_is_reached(monkeypatch, capsys):
    # a layer that is no longer called reads 0 in the per-layer metrics and fails nothing
    # there, so `ffk fiber` and `ffk divisors` must reach every traced verify function
    tracing = _tracing(monkeypatch)
    import ffk.cli

    calls = dict.fromkeys(tracing.FUNCTIONS["verify"], 0)
    mods = [mod for name, mod in sys.modules.items() if name == "ffk" or name.startswith("ffk.")]
    for name in calls:
        orig = getattr(importlib.import_module("ffk.verify"), name)

        def counted(*args, _orig=orig, _name=name, **kwargs):
            calls[_name] += 1
            return _orig(*args, **kwargs)

        for mod in mods:
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    monkeypatch.setattr(mod, attr, counted)
    for command in ("fiber", "divisors"):
        assert ffk.cli.main([command, "--p", "5", "--m", "3"]) == 0
    capsys.readouterr()
    assert all(calls.values()), calls
