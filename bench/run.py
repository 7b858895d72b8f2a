"""Benchmark for ffk: drives the CLI and the public API the way users do.

Run from the root of a checkout:

    python3 bench/run.py --workload fiber-check --seed 1 --seconds 25 --trace 0

The seed makes the inputs; the same seed gives the same inputs. With
`--trace 0` the run reports the end-to-end metrics of BENCHMARK.json, its
times scaled to a nominal core speed sampled while it works (see speed.py);
with `--trace 1` the per-layer metrics, from spans recorded around the package's
public functions (see tracing.py) and a separate cProfile pass. The last line
of stdout is one JSON object with the keys correct, attempted, failed and
metrics; the line before it records where and on what the run was made.
`--smoke` swaps in small inputs so that a run takes seconds.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from time import perf_counter

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
#: least number of fresh interpreters per run that time set-up and the over-cap
#: reject; one starts before every pass
PROBES = 5


def import_ffk():
    """Import ffk from this checkout's src/ and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "ffk", "__init__.py")):
        raise SystemExit(f"error: no ffk sources under {SRC}")
    sys.path.insert(0, SRC)
    import ffk

    if os.path.dirname(os.path.dirname(os.path.abspath(ffk.__file__))) != SRC:
        raise SystemExit(f"error: imported ffk from {ffk.__file__}, not from {SRC}")
    return ffk


def setup(args):
    """Everything before the first operation: import, references, seeded inputs."""
    import_ffk()
    import workloads

    refs = workloads.load_refs()
    sizes = workloads.SMOKE if args.smoke else workloads.FULL
    wl = workloads.WORKLOADS[args.workload](args.seed, refs, sizes, OUT_DIR)
    return workloads, wl


def provenance(args, loadavg: str) -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), "")
    except OSError:
        pass
    digest = hashlib.sha256()
    for name in sorted(os.listdir(os.path.join(SRC, "ffk"))):
        if name.endswith(".py"):
            with open(os.path.join(SRC, "ffk", name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu or platform.processor(),
        "commit": git_commit(),
        "src_sha256": digest.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "loadavg_at_start": loadavg,
    }


def git_commit() -> str:
    """HEAD's commit id, read from .git without running git; 'unknown' outside a repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            return next((ln.split()[0] for ln in fh if ln.rstrip().endswith(" " + ref)), "unknown")
    except OSError:
        return "unknown"


def read_loadavg() -> str:
    try:
        with open("/proc/loadavg") as fh:
            return fh.read().strip()
    except OSError:
        return ""


# ---------------------------------------------------------------------------
# probes: set-up time and the reject path, each in a fresh interpreter
# ---------------------------------------------------------------------------


def probe(args) -> None:
    """Child side: set-up since `--t0`, then one over-cap request, with the speed sampled."""
    import speed

    with speed.Sampler(interval=0.005) as sampler:
        workloads, wl = setup(args)
        ready = perf_counter()
        setup_s = time.time() - args.t0
        p, m = wl.sizes.large
        ref = wl.fiber_ref(p, m)
        tally = workloads.Tally()
        tally.op("reject", lambda: workloads.check_reject(p, m, ref))
        done = perf_counter()
    print(json.dumps({"setup": [ready - setup_s, ready], "reject": [ready, done],
                      "samples": sampler.samples, "failed": tally.failed,
                      "errors": tally.errors}))


def run_probe(args) -> dict:
    argv = [sys.executable, os.path.abspath(__file__), "--probe", "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds)]
    argv += ["--smoke"] if args.smoke else []
    t0 = time.time()
    proc = subprocess.run(argv + ["--t0", repr(t0)], capture_output=True, text=True, timeout=120,
                          cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"probe exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def timed_run(args, workloads, wl) -> tuple[dict, dict]:
    """Untraced run: the end-to-end metrics.

    Times are scaled to a nominal core speed (see speed.py); the raw wall
    times go to the line before the result.
    """
    import speed

    start = perf_counter()
    tally = workloads.Tally()
    passes, probes = [], []
    with speed.Sampler() as sampler:
        while True:
            with sampler.paused():
                probes.append(run_probe(args))
            t = perf_counter()
            wl.run_pass(tally)
            passes.append((t, perf_counter()))
            spent = perf_counter() - start
            if wl.passes_left() < 1 or spent + statistics.median(b - a for a, b in passes) > args.seconds:
                break
    while len(probes) < PROBES:
        probes.append(run_probe(args))
    for pr in probes:
        tally.attempted += 1
        tally.failed += pr["failed"]
        tally.errors += pr["errors"]
    walls = [speed.work_s(sampler.samples, a, b, wl.speed_weights) for a, b in passes]
    # set-up (imports, JSON) and the over-cap request are the same allocation-heavy
    # work on every workload, so they are weighted alike
    setups = [speed.work_s(pr["samples"], *pr["setup"], speed.FRACTION_LIKE) for pr in probes]
    rejects = [speed.work_s(pr["samples"], *pr["reject"], speed.FRACTION_LIKE) for pr in probes]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {
        "setup_s": metric(statistics.median(setups), "s"),
        "wall_s": metric(statistics.median(walls), "s"),
        "reject_s": metric(statistics.median(rejects), "s"),
        "peak_rss_mb": metric(rss_mb, "MB"),
        "ok_share": metric(1 - tally.failed / tally.attempted, "fraction"),
    }
    extra = {"passes": len(walls), "pass_work_s": walls, "pass_wall_s": [b - a for a, b in passes],
             "samples": len(sampler.samples), "errors": tally.errors,
             "setup_work_s": setups,
             "setup_wall_s": [pr["setup"][1] - pr["setup"][0] for pr in probes],
             "reject_work_s": rejects,
             "reject_wall_s": [pr["reject"][1] - pr["reject"][0] for pr in probes]}
    return result(tally, metrics), extra


def traced_run(args, workloads, wl, header: dict) -> tuple[dict, dict]:
    """Traced run: untraced and traced passes alternate, then one cProfile pass."""
    import tracing

    start = perf_counter()
    tally = workloads.Tally()
    tracer = tracing.Tracer()
    plain, traced, per_pass = [], [], []
    while True:
        t = perf_counter()
        wl.run_pass(tally, reject=True)
        plain.append(perf_counter() - t)
        run = len(traced)
        with tracer.installed(run):
            t = perf_counter()
            wl.run_pass(tally, reject=True)
            traced.append(perf_counter() - t)
        per_pass.append(tracing.layer_metrics(tracer.spans, run))
        spent = perf_counter() - start
        if wl.passes_left() < 3 or spent + 2 * statistics.median(traced) > args.seconds:
            break
    layers = tracing.median_metrics(per_pass)
    layers["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    layers["fractions.self_share"] = tracing.fractions_self_share(
        lambda: wl.run_pass(tally, reject=True))
    units = {e["name"]: e["unit"] for e in benchmark_spec()["per_layer"]}
    metrics = {name: metric(layers[name], unit) for name, unit in units.items()}
    spans_path = os.path.join(OUT_DIR, f"spans-{args.workload}-{args.seed}.jsonl")
    tracer.write(spans_path, {**header, "draws": wl.draws})
    extra = {"passes": len(traced), "spans": os.path.relpath(spans_path, ROOT),
             "top_self_s": tracing.top_self(tracer.spans, 0), "errors": tally.errors}
    return result(tally, metrics), extra


def result(tally, metrics: dict) -> dict:
    return {"correct": tally.failed == 0, "attempted": tally.attempted, "failed": tally.failed,
            "metrics": metrics}


def benchmark_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("fiber-check", "fiber-large", "bounds-large-p", "scan"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="small inputs; a run takes seconds")
    ap.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--t0", type=float, help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.probe:
        probe(args)
        return 0
    loadavg = read_loadavg()
    workloads, wl = setup(args)
    os.makedirs(OUT_DIR, exist_ok=True)
    header = provenance(args, loadavg)
    if args.trace:
        res, extra = traced_run(args, workloads, wl, header)
    else:
        res, extra = timed_run(args, workloads, wl)
    print(json.dumps({"provenance": header, "draws": wl.draws, **extra}, sort_keys=True))
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
