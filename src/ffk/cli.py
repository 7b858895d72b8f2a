"""Command-line front end.

Exit codes: 0 ok, 2 bad parameters, 3 resource cap exceeded, 4 mathematical
contract violation, 5 I/O error. All JSON output is deterministic: sorted
keys, canonical labels, rationals as "numerator/denominator" strings in
lowest terms.
"""

from __future__ import annotations

import argparse
import json
import os
import stat
import sys
import tempfile
from contextlib import contextmanager
from functools import cache

from . import bounds, divisors, polyarith, verify
from .errors import CapExceeded, MathContractError, ParameterError
from .fiber import CheckResult, i_c_values
from .model import FermatParams, build_config

SCHEMA_VERSION = "1"


def rat(x) -> str:
    """A Fraction (or int) as "numerator/denominator"."""
    return f"{x.numerator}/{x.denominator}"


def envelope(command: str, inputs: dict, results: dict, checks=()) -> dict:
    """The document every JSON command prints; emit renders its Fractions."""
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "inputs": inputs,
        "results": results,
        "checks": [
            {"name": c.name, "pass": bool(c.passed), "detail": c.detail} for c in checks
        ],
    }


def emit(doc: dict) -> None:
    """doc to stdout as sorted, indented JSON, each Fraction as rat(x)."""
    json.dump(doc, sys.stdout, sort_keys=True, indent=2, default=rat)
    sys.stdout.write("\n")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_rho(args) -> int:
    p = args.p
    roots = polyarith.double_roots(p)
    results = {
        "p": p,
        "s": len(roots),
        "rho_over_m": len(roots),
        "double_roots_mod_p": roots,
    }
    emit(envelope("rho", {"p": p}, results))
    return 0


def _fiber_payload(model) -> dict:
    params = model.params
    checks = list(verify.suite_fiber([model])) + list(verify.suite_cycles([model]))
    transversal = next(c.passed for c in checks if c.name.startswith("transversality identity"))
    return {
        "p": params.p,
        "m": params.m,
        "s": params.s,
        "N": params.n,
        "genus": params.genus,
        "census": model.census(),
        "n_components": model.config.n_components,
        "n_cusps": len(model.cusps),
        "transversality": transversal,
    }, checks


def _fiber_csv(model) -> str:
    """One CSV line per component of the fiber; cmd_fiber writes the header once.

    These are the lines csv.writer would write: no field can need quoting.
    """
    config = model.config
    return "".join(
        f"{lab.kind},{lab.i},{lab.k},{lab.j},{d},{g},{sq},{ic}\n"
        for lab, d, g, sq, ic in zip(config.labels, config.multiplicities, config.genera,
                                     config.self_ints, i_c_values(config))
    )


def _resolve_pm(args) -> list[tuple[int, int]]:
    if args.N is not None:
        if args.p is not None or args.m is not None:
            raise ParameterError("give either --N or --p/--m, not both")
        primes = bounds.factor_odd_squarefree(args.N)
        return [(p, args.N // p) for p in primes]
    if args.p is None or args.m is None:
        raise ParameterError("either --N or both --p and --m are required")
    return [(args.p, args.m)]


def cmd_fiber(args) -> int:
    pairs = _resolve_pm(args)
    subreports = []
    all_checks = []
    rows = ["kind,i,k,j,multiplicity,genus,self_intersection,i_c\n"]
    for p, m in pairs:
        model = build_config(p, m, args.s)
        payload, checks = _fiber_payload(model)
        subreports.append(payload)
        all_checks.extend(checks)
        if args.format == "csv":
            rows.append(_fiber_csv(model))
    if args.format == "csv":
        sys.stdout.write("".join(rows))
    else:
        inputs = {"N": args.N, "p": args.p, "m": args.m, "s": args.s}
        emit(envelope("fiber", inputs, {"fibers": subreports}, all_checks))
    return 0 if all(c.passed for c in all_checks) else 4


def cmd_divisors(args) -> int:
    pairs = _resolve_pm(args)
    cusp = tuple(args.cusp) if args.cusp else (1, 1)
    for p, m in pairs:  # a cusp out of range exits before any fiber is built
        FermatParams(p, m, 0).cusp_end(*cusp)
    subreports = []
    all_checks = []
    identity_checks = []
    for p, m in pairs:
        model = build_config(p, m)
        params = model.params
        ln = divisors.lambda_nu(params)
        vs_self, gs_self = divisors.cusp_squares(model, cusp)
        semis = divisors.semipos_check(model, cusp)
        payload = {
            "p": p,
            "m": m,
            "N": params.n,
            "lambda": ln.lam,
            "nu": ln.nu,
            "v_s_self": vs_self,
            "g_s_self": gs_self,
            "beta_s": divisors.beta_s(model, cusp),
            "per_prime_geometric": divisors.per_prime_geometric(model, cusp),
            "semipositivity_min": min(v for _, v in semis),
            "cusp": list(cusp),
        }
        checks = verify.suite_divisor([model]) + verify.suite_beta([model])
        subreports.append(payload)
        identity_checks.extend(checks)
        all_checks.extend(checks + divisors.u_s_probe(model, cusp))
    inputs = {"N": args.N, "p": args.p, "m": args.m, "cusp": list(cusp)}
    emit(envelope("divisors", inputs, {"fibers": subreports}, all_checks))
    failing = [c for c in identity_checks if not c.passed]
    if failing:
        raise MathContractError(f"identity failed: {failing[0].name}")
    return 0


def _bounds_payload(report) -> dict:
    return {
        "N": report.n,
        "genus": report.genus,
        "phi": report.phi,
        "primes": [
            {
                "p": r.p,
                "m": r.m,
                "s": r.s,
                "rho": r.rho,
                "q_np": r.q,
                "beta_sp": r.beta_sp,
                "alpha": r.alpha,
            }
            for r in report.primes
        ],
        "geometric_terms": [{"p": p, "coeff": c} for p, c in report.geometric_terms],
        "geometric_float": report.geometric_float,
        "lower_bound": report.lower,
        "simple_lower": report.simple,
        "mertens_diag": report.mertens,
        "upper_bound": report.upper,
        "upper_is_conditional": report.conditional,
    }


def cmd_bounds(args) -> int:
    report = bounds.bound_report(args.N, args.kappa1, args.kappa2)
    if args.format == "csv":
        # the lines csv.writer would write: no field can need quoting
        sys.stdout.write("N,genus,phi,p,m,s,rho,q_np,beta_sp,alpha,geometric_coeff,lower_bound,"
                         "simple_lower,mertens_diag,upper_bound,upper_is_conditional\n")
        upper = "" if report.upper is None else repr(report.upper)
        geo = dict(report.geometric_terms)
        for r in report.primes:
            sys.stdout.write(f"{report.n},{report.genus},{report.phi},{r.p},{r.m},{r.s},{r.rho},"
                             f"{rat(r.q)},{rat(r.beta_sp)},{r.alpha},{rat(geo[r.p])},"
                             f"{report.lower!r},{report.simple!r},{report.mertens!r},{upper},"
                             f"{report.conditional}\n")
    else:
        checks = [
            CheckResult(
                "lower bound exceeds simplified lower bound",
                report.lower > report.simple,
                f"{report.lower} vs {report.simple}",
            )
        ]
        emit(envelope("bounds", {"N": args.N, "kappa1": args.kappa1, "kappa2": args.kappa2},
                      _bounds_payload(report), checks))
    return 0


@contextmanager
def _replaced_on_success(path: str):
    """A text file that replaces `path` only if the block completes; on any
    exception whatever was at `path` is left as it was. A path that exists
    and is not a regular file (a device, a pipe) is written in place."""
    target = os.path.realpath(path)
    if os.path.exists(target) and not os.path.isfile(target):
        with open(target, "w", newline="") as fh:
            yield fh
        return
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(target), prefix=".ffk-", suffix=".tmp")
    try:
        with open(fd, "w", newline="") as fh:
            yield fh
        if os.path.exists(target):
            mode = os.stat(target).st_mode
        else:
            umask = os.umask(0)
            os.umask(umask)
            mode = 0o666 & ~umask
        os.chmod(tmp, stat.S_IMODE(mode))
        os.replace(tmp, target)
    except BaseException:
        os.unlink(tmp)
        raise


def cmd_scan(args) -> int:
    rows = 0
    all_strict = True
    with _replaced_on_success(args.out) as fh:
        # the lines csv.writer would write: no field can need quoting
        fh.write("N,phi,geometric_coeffs,lower_bound,simple_lower,ratio\n")
        for n, phi, terms, lower, simple, ratio in bounds.scan(args.max_N):
            coeffs = ";".join([f"{p}:{a}/{b}" for p, a, b in terms])
            fh.write(f"{n},{phi},{coeffs},{lower!r},{simple!r},{ratio!r}\n")
            rows += 1
            all_strict = all_strict and ratio > 1
    results = {
        "rows": rows,
        "max_N": args.max_N,
        "out": args.out,
        "all_strict": all_strict,
    }
    if not rows:
        results["warning"] = "no odd squarefree composite N <= max-N"
    emit(envelope("scan", {"max_N": args.max_N, "out": args.out}, results))
    return 0


def cmd_verify(args) -> int:
    checks = verify.run_suites(args.suite)
    emit(envelope("verify", {"suite": args.suite},
                  {"total": len(checks), "failed": sum(1 for c in checks if not c.passed)},
                  checks))
    for c in checks:
        if not c.passed:
            print(f"FIRST FAILURE: {c.name}: {c.detail}", file=sys.stderr)
            return 4
    return 0


# ---------------------------------------------------------------------------
# parser / entry point
# ---------------------------------------------------------------------------


def _cusp_arg(text: str) -> tuple[int, int]:
    try:
        i, k = (int(v) for v in text.split(","))
        return (i, k)
    except ValueError:
        raise argparse.ArgumentTypeError("cusp must be 'i,k'") from None


@cache
def build_parser() -> argparse.ArgumentParser:
    """The ffk parser, built on the first call and shared by every later one."""
    ap = argparse.ArgumentParser(
        prog="ffk",
        description="Special fibers of minimal regular Fermat models: exact "
        "intersection identities and dualizing-sheaf bounds.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("rho", help="double-root count of the splitting polynomial mod p")
    sp.add_argument("--p", type=int, required=True)
    sp.set_defaults(fn=cmd_rho)

    for name, fn in (("fiber", cmd_fiber), ("divisors", cmd_divisors)):
        sp = sub.add_parser(name)
        sp.add_argument("--N", type=int)
        sp.add_argument("--p", type=int)
        sp.add_argument("--m", type=int)
        if name == "fiber":
            sp.add_argument("--s", type=int, default=None, help="override the double-root count")
            sp.add_argument("--format", choices=("json", "csv"), default="json")
        else:
            sp.add_argument("--cusp", type=_cusp_arg, default=None, metavar="i,k")
        sp.set_defaults(fn=fn)

    sp = sub.add_parser("bounds")
    sp.add_argument("--N", type=int, required=True)
    sp.add_argument("--kappa1", type=float, default=None)
    sp.add_argument("--kappa2", type=float, default=None)
    sp.add_argument("--format", choices=("json", "csv"), default="json")
    sp.set_defaults(fn=cmd_bounds)

    sp = sub.add_parser("scan")
    sp.add_argument("--max-N", dest="max_N", type=int, required=True)
    sp.add_argument("--out", required=True)
    sp.set_defaults(fn=cmd_scan)

    sp = sub.add_parser("verify")
    sp.add_argument("--suite", choices=("all", "polynomial", "fiber", "divisor", "bounds"),
                    default="all")
    sp.set_defaults(fn=cmd_verify)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ParameterError as exc:
        print(f"parameter error: {exc}", file=sys.stderr)
        return 2
    except CapExceeded as exc:
        print(f"resource cap exceeded: {exc}", file=sys.stderr)
        return 3
    except MathContractError as exc:
        print(f"mathematical contract violation: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
