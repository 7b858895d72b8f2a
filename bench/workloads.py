"""Seeded inputs, operations and reference checks for the benchmark workloads.

Every workload is a closed loop with one client: the next operation starts
when the previous one has returned. A pass is a fixed amount of work whose
cost does not depend on the seed; the seed only picks which equivalent inputs
a pass uses (pool order, cusps, primes within a stratum, max-N within a
narrow band), so runs with different seeds measure the same work.

An operation fails on an unexpected exit code, on an exception, or on output
that differs from the golden references in refs.json.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
from dataclasses import dataclass

import speed
from ffk import cli, divisors, fiber, model
from ffk.fiber import COMPONENT_CAP_ENV

REFS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "refs.json")

#: small odd primes q for N = q*p in bounds-large-p
SMALL_Q = (3, 5, 7, 11, 13)
#: bounds-large-p draws one large prime per stratum, so each pass does the same O(p^2) work
STRATA = 6
KAPPAS = ("1.5", "0.5")


@dataclass(frozen=True)
class Sizes:
    check_pool: tuple  # (p, m) fibers for fiber-check: one with s=2, one with s=0
    large: tuple  # (p, m) for fiber-large, also the over-cap fiber of the reject probe
    prime_range: tuple  # large primes for bounds-large-p
    scan_centre: int
    scan_step: int


FULL = Sizes(((7, 3), (3, 7)), (7, 23), (1500, 2500), 150_000, 250)
SMOKE = Sizes(((7, 3), (5, 3)), (7, 5), (100, 200), 3_000, 50)


def scan_candidates(sizes: Sizes) -> list[int]:
    return [sizes.scan_centre + k * sizes.scan_step for k in range(-4, 5)]


def primes_in(lo: int, hi: int) -> list[int]:
    return [n for n in range(lo | 1, hi + 1, 2) if all(n % d for d in range(3, int(n**0.5) + 1, 2))]


def rat(x) -> str:
    return f"{x.numerator}/{x.denominator}"


def load_refs() -> dict:
    with open(REFS_PATH) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


class Tally:
    """Counts operations attempted and failed; keeps the first few failure reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def op(self, kind: str, check, detail: str = "") -> None:
        """Run one operation; `check` returns its problems, empty when correct."""
        self.attempted += 1
        try:
            problems = check()
        except Exception as exc:  # any crash of the program under test is a failed operation
            problems = [f"{type(exc).__name__}: {exc}"]
        if problems:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(f"{kind} {detail}: {problems[0]}")


def run_cli(argv, cap: int | None = None) -> tuple[int, str]:
    """Call `ffk.cli.main` in-process; return its exit code and stdout."""
    out = io.StringIO()
    old = os.environ.get(COMPONENT_CAP_ENV)
    if cap is not None:
        os.environ[COMPONENT_CAP_ENV] = str(cap)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = cli.main([str(a) for a in argv])
            except SystemExit as exc:
                code = exc.code
    finally:
        if cap is not None:
            if old is None:
                del os.environ[COMPONENT_CAP_ENV]
            else:
                os.environ[COMPONENT_CAP_ENV] = old
    return code, out.getvalue()


def _diff(what: str, got, want) -> list[str]:
    return [] if got == want else [f"{what}: got {got!r}, want {want!r}"]


def _checks(doc) -> list:
    return [[c["name"], c["pass"]] for c in doc["checks"]]


DIVISOR_FIELDS = ("lambda", "nu", "v_s_self", "g_s_self", "beta_s", "per_prime_geometric",
                  "semipositivity_min")


def check_fiber_cli(p: int, m: int, ref: dict) -> list[str]:
    code, out = run_cli(["fiber", "--p", p, "--m", m])
    if code != 0:
        return [f"exit {code}"]
    doc = json.loads(out)
    got = doc["results"]["fibers"][0]
    return (_diff("census", got["census"], ref["census"])
            + _diff("n_components", got["n_components"], ref["n_components"])
            + _diff("checks", _checks(doc), ref["fiber_checks"]))


def check_divisors_cli(p: int, m: int, cusp: tuple, ref: dict) -> list[str]:
    code, out = run_cli(["divisors", "--p", p, "--m", m, "--cusp", f"{cusp[0]},{cusp[1]}"])
    if code != 0:
        return [f"exit {code}"]
    doc = json.loads(out)
    got = doc["results"]["fibers"][0]
    problems = _diff("checks", _checks(doc), ref["divisor_checks"])
    for key in DIVISOR_FIELDS:
        problems += _diff(key, got[key], ref["divisors"][key])
    return problems


def check_build(state: dict, p: int, m: int, ref: dict) -> list[str]:
    built = state["model"] = model.build_config(p, m)
    return (_diff("census", built.census(), ref["census"])
            + _diff("n_components", built.config.n_components, ref["n_components"]))


def check_validate(built, ref: dict) -> list[str]:
    got = [[c.name, c.passed] for c in fiber.validate(built.config)]
    return _diff("validate", got, ref["validate_checks"])


def check_cusp(built, cusp: tuple, ref: dict) -> list[str]:
    want = ref["divisors"]
    semis = divisors.semipos_check(built, cusp)
    gs = divisors.g_s(built, cusp)
    return (_diff("beta_s", rat(divisors.beta_s(built, cusp)), want["beta_s"])
            + _diff("per_prime_geometric", rat(divisors.per_prime_geometric(built, cusp)),
                    want["per_prime_geometric"])
            + _diff("g_s_self", rat(fiber.pair(built.config, gs, gs)), want["g_s_self"])
            + _diff("semipositivity_min", rat(min(v for _, v in semis)),
                    want["semipositivity_min"]))


def check_reject(p: int, m: int, ref: dict) -> list[str]:
    """An `ffk fiber` request over the component cap must exit 3."""
    code, _ = run_cli(["fiber", "--p", p, "--m", m], cap=ref["n_components"] - 1)
    return _diff("exit code", code, 3)


def check_bounds(q: int, p: int, kappa: bool, refs: dict) -> list[str]:
    argv = ["bounds", "--N", q * p]
    argv += ["--kappa1", KAPPAS[0], "--kappa2", KAPPAS[1]] if kappa else []
    code, out = run_cli(argv)
    if code != 0:
        return [f"exit {code}"]
    doc = json.loads(out)
    got = doc["results"]
    problems = _diff("N", got["N"], q * p)
    problems += _diff("primes", [r["p"] for r in got["primes"]], sorted((q, p)))
    for r in got["primes"]:
        problems += _diff(f"s({r['p']})", r["s"], refs["s"][str(r["p"])])
        problems += _diff(f"rho({r['p']})", r["rho"], r["m"] * r["s"])
    problems += _diff("conditional", got["upper_is_conditional"], kappa)
    problems += _diff("upper present", got["upper_bound"] is not None, kappa)
    problems += _diff("checks pass", all(c["pass"] for c in doc["checks"]), True)
    return problems


def check_scan(max_n: int, path: str, refs: dict) -> list[str]:
    try:
        code, out = run_cli(["scan", "--max-N", max_n, "--out", path])
        if code != 0:
            return [f"exit {code}"]
        with open(path, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.remove(path)
    got = json.loads(out)["results"]
    want = refs["scan"][str(max_n)]
    return (_diff("rows", got["rows"], want["rows"])
            + _diff("all_strict", got["all_strict"], True)
            + _diff("csv sha256", digest, want["sha256"]))


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


class Workload:
    """Seeded inputs plus `run_pass`, one fixed-size unit of the workload's work."""

    name = ""
    #: how the core's sampled speed is weighted for this workload (see speed.py)
    speed_weights = speed.FRACTION_LIKE

    def __init__(self, seed: int, refs: dict, sizes: Sizes, out_dir: str):
        self.rng = random.Random(f"{self.name}:{seed}")
        self.refs = refs
        self.sizes = sizes
        self.out_dir = out_dir
        self.draws: list = []  # the inputs each pass drew, for provenance

    def passes_left(self) -> int:
        return 1 << 30

    def run_pass(self, tally: Tally, reject: bool = False) -> None:
        """One pass; with `reject`, also the over-cap request the probes time."""
        self._pass(tally)
        if reject:
            p, m = self.sizes.large
            tally.op("reject", lambda: check_reject(p, m, self.fiber_ref(p, m)))

    def fiber_ref(self, p: int, m: int) -> dict:
        return self.refs["fibers"][f"{p},{m}"]

    def _pass(self, tally: Tally) -> None:
        raise NotImplementedError


class FiberCheck(Workload):
    """`ffk fiber` then `ffk divisors` on every pool fiber, in seeded order, seeded cusp."""

    name = "fiber-check"

    def _pass(self, tally):
        for p, m in self.rng.sample(self.sizes.check_pool, len(self.sizes.check_pool)):
            cusp = (self.rng.randint(1, 3 * m), self.rng.randint(1, p))
            self.draws.append([p, m, list(cusp)])
            ref = self.fiber_ref(p, m)
            tally.op(f"fiber {p},{m}", lambda: check_fiber_cli(p, m, ref))
            tally.op(f"divisors {p},{m}", lambda: check_divisors_cli(p, m, cusp, ref),
                     f"cusp={cusp}")


class FiberLarge(Workload):
    """API path on one large fiber: build, validate, then the identities at a seeded cusp.

    No cusp repeats within a run; every cusp must give the same beta_s, Q(N,p) and G_S^2.
    """

    name = "fiber-large"

    def __init__(self, *args):
        super().__init__(*args)
        p, m = self.sizes.large
        self.cusps = self.rng.sample([(i, k) for i in range(1, 3 * m + 1) for k in range(1, p + 1)],
                                     3 * m * p)

    def passes_left(self):
        return len(self.cusps)

    def _pass(self, tally):
        p, m = self.sizes.large
        ref = self.fiber_ref(p, m)
        cusp = self.cusps.pop()
        self.draws.append(list(cusp))
        state = {}
        tally.op("build_config", lambda: check_build(state, p, m, ref))
        built = state.get("model")
        if built is None:
            return
        tally.op("validate", lambda: check_validate(built, ref))
        tally.op("cusp", lambda: check_cusp(built, cusp, ref), f"cusp={cusp}")


class BoundsLargeP(Workload):
    """`ffk bounds --N q*p` for one unused large prime p per stratum; one call with kappas."""

    name = "bounds-large-p"
    speed_weights = speed.INTEGER_LIKE

    def __init__(self, *args):
        super().__init__(*args)
        primes = primes_in(*self.sizes.prime_range)
        cut = [len(primes) * i // STRATA for i in range(STRATA + 1)]
        self.strata = [self.rng.sample(primes[a:b], b - a) for a, b in zip(cut, cut[1:])]

    def passes_left(self):
        return min(len(s) for s in self.strata)

    def _pass(self, tally):
        kappa_at = self.rng.randrange(STRATA)
        for idx, stratum in enumerate(self.strata):
            p, q = stratum.pop(), self.rng.choice(SMALL_Q)
            self.draws.append(q * p)
            kappa = idx == kappa_at
            tally.op("bounds", lambda: check_bounds(q, p, kappa, self.refs), f"N={q}*{p}")


class Scan(Workload):
    """`ffk scan --max-N X` to a file in the output directory, X seeded in a narrow band."""

    name = "scan"

    def _pass(self, tally):
        max_n = self.rng.choice(scan_candidates(self.sizes))
        self.draws.append(max_n)
        path = os.path.join(self.out_dir, f"scan-{os.getpid()}.csv")
        tally.op("scan", lambda: check_scan(max_n, path, self.refs), f"max-N={max_n}")


WORKLOADS = {cls.name: cls for cls in (FiberCheck, FiberLarge, BoundsLargeP, Scan)}
