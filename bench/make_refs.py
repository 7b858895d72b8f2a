"""Record the golden references in refs.json from the current ffk sources.

    python3 bench/make_refs.py

The references pin exact outputs: census and check names per fiber, beta_s,
Q(N,p) and G_S^2 as "num/den", s(p) from the gcd path for every prime the
bounds workload can draw, and a digest of every scan CSV the scan workload
can request. They were recorded once and a run compares against them, so a
change that alters an output shows up as failed operations. Re-record only
when an output is meant to change, and say so in the change.
"""

from __future__ import annotations

import hashlib
import json
import os

from run import OUT_DIR, import_ffk

import_ffk()

import workloads  # noqa: E402
from ffk import divisors, fiber, model, pair, polyarith  # noqa: E402
from workloads import DIVISOR_FIELDS, FULL, SMALL_Q, SMOKE, rat, run_cli  # noqa: E402


def cli_json(argv) -> dict:
    code, out = run_cli(argv)
    if code != 0:
        raise SystemExit(f"ffk {' '.join(map(str, argv))} exited {code}")
    return json.loads(out)


def checks(doc) -> list:
    return [[c["name"], c["pass"]] for c in doc["checks"]]


def check_fiber_ref(p: int, m: int) -> dict:
    """Reference for fiber-check: CLI outputs, asserted equal at two far-apart cusps."""
    doc = cli_json(["fiber", "--p", p, "--m", m])
    fib = doc["results"]["fibers"][0]
    per_cusp = []
    for cusp in ((1, 1), (3 * m, p)):
        div = cli_json(["divisors", "--p", p, "--m", m, "--cusp", f"{cusp[0]},{cusp[1]}"])
        got = div["results"]["fibers"][0]
        per_cusp.append(({k: got[k] for k in DIVISOR_FIELDS}, checks(div)))
    if per_cusp[0] != per_cusp[1]:
        raise SystemExit(f"divisors output at ({p},{m}) depends on the cusp")
    return {"census": fib["census"], "n_components": fib["n_components"],
            "fiber_checks": checks(doc), "divisors": per_cusp[0][0],
            "divisor_checks": per_cusp[0][1]}


def large_fiber_ref(p: int, m: int) -> dict:
    """Reference for fiber-large and the reject probe: API outputs at cusp (1, 1)."""
    built = model.build_config(p, m)
    gs = divisors.g_s(built)
    return {
        "census": built.census(),
        "n_components": built.config.n_components,
        "validate_checks": [[c.name, c.passed] for c in fiber.validate(built.config)],
        "divisors": {
            "beta_s": rat(divisors.beta_s(built)),
            "per_prime_geometric": rat(divisors.per_prime_geometric(built)),
            "g_s_self": rat(pair(built.config, gs, gs)),
            "semipositivity_min": rat(min(v for _, v in divisors.semipos_check(built))),
        },
    }


def scan_ref(max_n: int, path: str) -> dict:
    doc = cli_json(["scan", "--max-N", max_n, "--out", path])
    with open(path, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    os.remove(path)
    return {"rows": doc["results"]["rows"], "sha256": digest}


def main() -> None:
    refs = {"fibers": {}, "s": {}, "scan": {}}
    for sizes in (SMOKE, FULL):
        for p, m in sizes.check_pool:
            refs["fibers"][f"{p},{m}"] = check_fiber_ref(p, m)
            print("fiber", p, m, flush=True)
        refs["fibers"][f"{sizes.large[0]},{sizes.large[1]}"] = large_fiber_ref(*sizes.large)
        print("large", sizes.large, flush=True)
        for p in sorted(set(workloads.primes_in(*sizes.prime_range)) | set(SMALL_Q)):
            refs["s"][str(p)] = polyarith.double_root_count(p)
        print("s", sizes.prime_range, flush=True)
        os.makedirs(OUT_DIR, exist_ok=True)
        for max_n in workloads.scan_candidates(sizes):
            refs["scan"][str(max_n)] = scan_ref(max_n, os.path.join(OUT_DIR, "ref.csv"))
        print("scan", sizes.scan_centre, flush=True)
    with open(workloads.REFS_PATH, "w") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
