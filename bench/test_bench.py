"""Tests of the benchmark itself, on the small smoke inputs.

    python3 -m pytest -q bench
"""

from __future__ import annotations

import copy
import json
import os
import signal
import subprocess
import sys
import time

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH)

import run  # noqa: E402

run.import_ffk()

import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import SMOKE, Tally  # noqa: E402

SPEC = run.benchmark_spec()


def bench(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=170, cwd=run.ROOT, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload,trace", [(w["name"], 0) for w in SPEC["workloads"]]
                         + [("scan", 1), ("fiber-large", 1)])
def test_emitted_metrics_match_spec(workload, trace):
    res = bench(workload, trace)
    assert sorted(res) == ["attempted", "correct", "failed", "metrics"]
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in res["metrics"].items()} == {e["name"]: e["unit"] for e in spec}


def corrupt_fiber_census(refs):
    refs["fibers"]["5,3"]["census"]["Fm"] = 2


def corrupt_beta(refs):
    refs["fibers"]["7,5"]["divisors"]["beta_s"] = "0/1"


def corrupt_s(refs):
    refs["s"] = {p: s + 1 for p, s in refs["s"].items()}


def corrupt_scan(refs):
    for ref in refs["scan"].values():
        ref["sha256"] = "0" * 64


@pytest.mark.parametrize("workload,corrupt,want_failed", [
    ("fiber-check", corrupt_fiber_census, 1),
    ("fiber-large", corrupt_beta, 1),
    ("bounds-large-p", corrupt_s, 6),
    ("scan", corrupt_scan, 1),
])
def test_corrupted_reference_is_a_failed_operation(workload, corrupt, want_failed, tmp_path):
    refs = copy.deepcopy(workloads.load_refs())
    corrupt(refs)
    wl = workloads.WORKLOADS[workload](3, refs, SMOKE, str(tmp_path))
    tally = Tally()
    wl.run_pass(tally)
    assert tally.failed == want_failed, tally.errors


def test_reject_passes_only_on_exit_3():
    ref = workloads.load_refs()["fibers"]["7,5"]
    assert workloads.check_reject(7, 5, ref) == []
    assert workloads.check_reject(7, 5, dict(ref, n_components=ref["n_components"] + 1)) != []


def snapshot():
    mods = tracing.ffk_modules()
    cls = vars(run.import_ffk().fiber.GaugeSolver)
    return {m.__name__: dict(vars(m)) for m in mods}, dict(cls)


def same(a, b) -> bool:
    return a.keys() == b.keys() and all(a[k] is b[k] for k in a)


def test_traced_run_restores_every_ffk_attribute(tmp_path):
    mods_before, cls_before = snapshot()
    tracer = tracing.Tracer()
    refs = workloads.load_refs()
    for run_id, name in enumerate(("fiber-large", "scan")):
        with tracer.installed(run_id):
            workloads.WORKLOADS[name](3, refs, SMOKE, str(tmp_path)).run_pass(Tally(), reject=True)
    with pytest.raises(RuntimeError):
        with tracer.installed(2):
            raise RuntimeError("restore on error too")
    mods_after, cls_after = snapshot()
    assert mods_before.keys() == mods_after.keys()
    assert all(same(mods_before[k], mods_after[k]) for k in mods_before)
    assert same(cls_before, cls_after)
    names = {s.name for s in tracer.spans}
    assert {"fiber.pair", "fiber.GaugeSolver.factor", "model.build_config", "cli.main",
            "bounds.scan_rows", "divisors.beta_s"} <= names


def test_self_time_subtracts_direct_children():
    S = tracing.Span
    spans = [S("cli.main", 0.0, 10.0, -1, 0), S("bounds.bound_report", 1.0, 6.0, 0, 0),
             S("polyarith.double_root_count", 2.0, 5.0, 1, 0),
             S("model.build_config", 7.0, 8.0, 0, 0, error="CapExceeded"),
             S("cli.main", 0.0, 4.0, -1, 1)]
    got = tracing.layer_metrics(spans, 0)
    assert got["cli.main.self_s"] == 4.0
    assert got["bounds.bound_report.self_s"] == 2.0
    assert got["polyarith.double_root_count.busy_s"] == 3.0
    assert got["model.build_config.rejected_busy_s"] == 1.0
    assert got["model.build_config.components"] == 0
    assert tracing.top_self(spans, 0, 1) == [["cli.main", 4.0]]


def test_work_s_scales_by_sampled_speed():
    ints, fracs = speed.NOMINAL
    half = [(t, 2 * ints, 2 * fracs) for t in (1.0, 2.0, 3.0)]  # every sample at half speed
    kernel = 3 * 2 * (ints + fracs)
    for weights in (speed.FRACTION_LIKE, speed.INTEGER_LIKE):
        assert speed.speed(half[0], weights) == pytest.approx(0.5)
        assert speed.work_s(half, 0.5, 4.5, weights) == pytest.approx((4.0 - kernel) / 2)
        assert speed.work_s(half, 5.0, 6.0, weights) == 1.0  # no sample inside: the raw interval


def test_sampler_samples_and_restores_the_alarm_handler():
    before = signal.getsignal(signal.SIGALRM)
    with speed.Sampler(interval=0.002) as sampler:
        deadline = time.perf_counter() + 0.1
        while time.perf_counter() < deadline:
            pass
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(sampler.samples) >= 10
    assert all(s[1] > 0 and s[2] > 0 for s in sampler.samples)
