"""The layers the benchmark traces (bench/tracing.py) must exist in ffk and be called.

The tracer wraps each listed function in its ffk module and each listed
method on its fiber class; a renamed, moved or no longer called layer would
otherwise only show up when the benchmark runs.
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


def _fiber_large_pass():
    """The API sequence of the fiber-large workload, on a small fiber."""
    from ffk import divisors, fiber, model

    built = model.build_config(5, 3)
    assert all(c.passed for c in fiber.validate(built.config))
    divisors.semipos_check(built, (2, 3))
    gs = divisors.g_s(built, (2, 3))
    divisors.beta_s(built, (2, 3))
    divisors.per_prime_geometric(built, (2, 3))
    fiber.pair(built.config, gs, gs)


def test_every_traced_layer_is_reached(monkeypatch, capsys, tmp_path):
    # a layer that is no longer called reads 0 in the per-layer metrics and fails nothing
    # there, so the calls the four workloads make, on small inputs, must reach every
    # traced function and method. The solver's factor is reached by `validate`, so also
    # on the API path, which bench/test_bench.py traces for that span
    tracing = _tracing(monkeypatch)
    import ffk.cli

    calls = {
        "fiber": lambda: ffk.cli.main(["fiber", "--p", "5", "--m", "3"]),
        "divisors": lambda: ffk.cli.main(["divisors", "--p", "5", "--m", "3"]),
        "bounds": lambda: ffk.cli.main(["bounds", "--N", "15"]),
        "scan": lambda: ffk.cli.main(["scan", "--max-N", "200", "--out",
                                      str(tmp_path / "scan.csv")]),
        "fiber-large": _fiber_large_pass,
    }
    tracer = tracing.Tracer()
    for run, call in enumerate(calls.values()):
        with tracer.installed(run):
            assert call() in (0, None)
    capsys.readouterr()
    reached = {name: {s.name for s in tracer.spans if s.run == run}
               for run, name in enumerate(calls)}
    layers = {f"{mod}.{fn}" for mod, names in tracing.FUNCTIONS.items() for fn in names}
    layers |= set(tracing.METHODS)
    assert layers - set().union(*reached.values()) == set()
    assert "fiber.GaugeSolver.factor" in reached["fiber-large"] & reached["divisors"]
