"""Per-layer spans recorded from outside the `ffk` package.

`Tracer.installed()` replaces each listed public function with a timing
wrapper in every `ffk` module namespace that binds it (`pair`, for example,
is bound in fiber, divisors, verify, cli and the package itself), and the two
`GaugeSolver` methods on the class. On exit every original attribute is put
back. Spans stay in memory as (name, start, end, parent, run id) and are
written out once, at the end of the run.
"""

from __future__ import annotations

import cProfile
import json
import os
import pstats
import statistics
import sys
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from time import perf_counter

#: module -> public functions wrapped wherever any ffk module binds them
FUNCTIONS = {
    "polyarith": ("double_root_count",),
    "model": ("build_config", "i_c_matches_pairing"),
    "fiber": ("validate", "pair", "pair_profile"),
    "divisors": ("v_divisor", "beta_s", "per_prime_geometric", "semipos_check", "u_s_probe"),
    "bounds": ("bound_report", "factor_odd_squarefree", "scan_rows"),
    "verify": ("suite_fiber", "suite_divisor", "suite_beta", "suite_cycles",
               "gauge_reproduction", "representative_relation_full"),
    "cli": ("main",),
}
#: span name -> (class, method); factoring happens in GaugeSolver.__init__
METHODS = {
    "fiber.GaugeSolver.factor": ("GaugeSolver", "__init__"),
    "fiber.GaugeSolver.solve": ("GaugeSolver", "solve"),
}
SUITES = ("suite_fiber", "suite_divisor", "suite_beta", "suite_cycles")


def _size(name: str, result):
    """(work count, failed count) carried by a span, where the layer has one."""
    if name == "model.build_config":
        return result.config.n_components, 0
    if name == "bounds.scan_rows":
        return len(result), 0
    if name.startswith("verify.suite_"):
        return len(result), sum(1 for c in result if not c.passed)
    return None


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span in Tracer.spans, -1 at top level
    run: int
    size: tuple | None = None
    error: str | None = None


def ffk_modules():
    return [mod for name, mod in sorted(sys.modules.items())
            if (name == "ffk" or name.startswith("ffk.")) and mod is not None]


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.run = 0

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = Span(name, 0.0, 0.0, stack[-1] if stack else -1, self.run)
            stack.append(len(spans))
            spans.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = perf_counter()
                stack.pop()
            span.size = _size(name, result)
            return result

        return traced

    @contextmanager
    def installed(self, run: int):
        """Wrap every listed layer for the duration of the block; always restore."""
        self.run = run
        mods = {mod.__name__.split(".")[-1]: mod for mod in ffk_modules()}
        saved = []  # (owner, attribute, original)
        try:
            for modname, names in FUNCTIONS.items():
                for fname in names:
                    orig = getattr(mods[modname], fname)
                    wrapper = self._wrap(f"{modname}.{fname}", orig)
                    for mod in mods.values():
                        for attr, value in list(vars(mod).items()):
                            if value is orig:
                                saved.append((mod, attr, orig))
                                setattr(mod, attr, wrapper)
            for span_name, (cls_name, meth) in METHODS.items():
                cls = getattr(mods["fiber"], cls_name)
                orig = vars(cls)[meth]
                saved.append((cls, meth, orig))
                setattr(cls, meth, self._wrap(span_name, orig))
            yield self
        finally:
            for owner, attr, orig in reversed(saved):
                setattr(owner, attr, orig)

    def write(self, path: str, header: dict) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------


def _self_times(spans: list[Span], run: int) -> dict[str, float]:
    """Self time per layer in one pass: each span's duration minus its direct children's."""
    child = defaultdict(float)
    for span in spans:
        if span.parent >= 0:
            child[span.parent] += span.end - span.start
    out = defaultdict(float)
    for idx, span in enumerate(spans):
        if span.run == run:
            out[span.name] += span.end - span.start - child[idx]
    return out


def layer_metrics(spans: list[Span], run: int) -> dict[str, float]:
    """The per-layer metrics of one traced pass, computed from its spans."""
    calls, busy, self_s = defaultdict(int), defaultdict(float), _self_times(spans, run)
    size, failed, rejected = defaultdict(int), defaultdict(int), defaultdict(float)
    for span in spans:
        if span.run != run:
            continue
        dur = span.end - span.start
        calls[span.name] += 1
        busy[span.name] += dur
        if span.size:
            size[span.name] += span.size[0]
            failed[span.name] += span.size[1]
        if span.error == "CapExceeded":
            rejected[span.name] += dur

    out = {}
    for name in ("polyarith.double_root_count", "model.build_config", "fiber.GaugeSolver.factor",
                 "fiber.GaugeSolver.solve", "fiber.pair", "divisors.v_divisor"):
        out[f"{name}.calls"] = calls[name]
    for name in ("polyarith.double_root_count", "model.build_config",
                 "model.i_c_matches_pairing", "fiber.GaugeSolver.factor",
                 "fiber.GaugeSolver.solve", "fiber.validate", "fiber.pair", "fiber.pair_profile",
                 "divisors.v_divisor", "divisors.beta_s", "divisors.per_prime_geometric",
                 "divisors.semipos_check", "divisors.u_s_probe", "bounds.scan_rows",
                 *(f"verify.{n}" for n in FUNCTIONS["verify"])):
        out[f"{name}.busy_s"] = busy[name]
    out["model.build_config.components"] = size["model.build_config"]
    out["model.build_config.rejected_busy_s"] = rejected["model.build_config"]
    factors = calls["fiber.GaugeSolver.factor"]
    out["fiber.solves_per_factor"] = calls["fiber.GaugeSolver.solve"] / factors if factors else 0.0
    out["bounds.bound_report.self_s"] = self_s["bounds.bound_report"]
    out["bounds.factor_odd_squarefree.calls"] = calls["bounds.factor_odd_squarefree"]
    out["bounds.scan_rows.rows"] = size["bounds.scan_rows"]
    out["verify.checks"] = sum(size[f"verify.{n}"] for n in SUITES)
    out["verify.checks_failed"] = sum(failed[f"verify.{n}"] for n in SUITES)
    out["cli.main.self_s"] = self_s["cli.main"]
    return out


def top_self(spans: list[Span], run: int, n: int = 3) -> list:
    """The `n` layers with the largest self time in one pass, largest first."""
    ranked = sorted(_self_times(spans, run).items(), key=lambda kv: -kv[1])
    return [[name, round(s, 4)] for name, s in ranked[:n]]


def fractions_self_share(fn) -> float:
    """Share of self time inside fractions.py while `fn()` runs under cProfile."""
    prof = cProfile.Profile()
    prof.runcall(fn)
    stats = pstats.Stats(prof).stats
    total = sum(v[2] for v in stats.values())
    inside = sum(v[2] for (path, _, _), v in stats.items()
                 if os.path.basename(path) == "fractions.py")
    return inside / total if total else 0.0


def median_metrics(per_pass: list[dict]) -> dict[str, float]:
    return {key: statistics.median(d[key] for d in per_pass) for key in per_pass[0]}
