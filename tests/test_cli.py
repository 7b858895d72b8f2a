import csv
import gc
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ffk.cli as cli
import ffk.divisors
from ffk import bounds, polyarith, verify
from ffk.errors import MathContractError
from ffk.fiber import i_c_values


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out) if out.strip().startswith("{") else None, err


def test_rho_5(capsys):
    code, doc, _ = run_json(capsys, "rho", "--p", "5")
    assert code == 0
    assert doc["schema_version"] == "1"
    assert doc["results"]["s"] == 0


def test_rho_7(capsys):
    code, doc, _ = run_json(capsys, "rho", "--p", "7")
    assert code == 0
    assert doc["results"]["s"] == 2
    assert doc["results"]["double_roots_mod_p"] == [3, 5]


def test_rho_scans_once(capsys, monkeypatch):
    calls = []
    scan = polyarith.double_roots

    def counted(p):
        calls.append(p)
        return scan(p)

    monkeypatch.setattr(polyarith, "double_roots", counted)
    code, doc, _ = run_json(capsys, "rho", "--p", "7")
    assert code == 0 and doc["results"]["s"] == 2
    assert calls == [7]


def test_rho_bad_p(capsys):
    code, _, err = run(capsys, "rho", "--p", "4")
    assert code == 2
    assert "parameter error" in err


@pytest.mark.parametrize("p, code, calls", [("4", 2, 1), ("10000001", 3, 0),
                                            ("1000000000000000003", 3, 0)])
def test_rho_checks_the_cap_before_primality(capsys, monkeypatch, p, code, calls):
    # the cap comes first: 10000001 = 11 * 909091 is over it, so it exits 3, not 2, and a
    # refused p never reaches the trial division (by sqrt(p), 10^9 steps at 10^18 + 3)
    seen = []
    factorize = polyarith.factorize

    def counted(n):
        seen.append(n)
        return factorize(n)

    monkeypatch.setattr(polyarith, "factorize", counted)
    got, out, err = run(capsys, "rho", "--p", p)
    assert (got, out, len(seen)) == (code, "", calls)
    assert len(err.splitlines()) == 1


def run_bounded(argv, monkeypatch):
    """cli.main(argv) as (exit code, stdout, stderr). It fails at once, instead of hanging,
    on a trial division past the double-root cap: factorize of a larger n, or that of N
    in factor_odd_squarefree to a larger limit."""
    factorize, small_factors = polyarith.factorize, polyarith._small_factors
    cap = polyarith.DOUBLE_ROOT_CAP

    def bounded(n):
        assert n <= cap, f"factorize({n})"
        return factorize(n)

    def limited(n, limit):
        assert limit <= cap, f"trial division of {n} up to {limit}"
        return small_factors(n, limit)

    monkeypatch.setattr(polyarith, "factorize", bounded)
    monkeypatch.setattr(polyarith, "_small_factors", limited)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def assert_well_formed(code, out, err):
    """An exit code the CLI documents, one stderr line and no traceback on a failure,
    and an empty stdout or one JSON document."""
    assert code in (0, 2, 3, 4, 5)
    if code:
        assert len(err.splitlines()) == 1 and "Traceback" not in err, err
    assert out == "" or isinstance(json.loads(out), dict)


BIG = 10**18 + 3  # a prime: trial division by sqrt would take 5 * 10^8 steps


@pytest.mark.parametrize("argv, code", [
    (f"fiber --p 3 --m {BIG}", 3),  # the cusp quotient's 3m cells are over the cap
    (f"divisors --p {BIG} --m 3", 3),
    ("fiber --p 10000001 --m 3", 3),  # composite, but over the cap first: 3, not 2
    ("divisors --p 10000001 --m 3", 3),
    (f"fiber --p {BIG} --m 4", 2),  # parity and size come before the caps
    ("fiber --p 4 --m 3", 2),
    ("divisors --p 9 --m 5", 2),
    (f"bounds --N {3 * BIG}", 3),  # the cofactor BIG is left above 10^14
    (f"fiber --N {3 * BIG}", 3),
    (f"divisors --N {3 * BIG}", 3),
    (f"bounds --N {BIG}", 3),
    (f"bounds --N {9 * BIG}", 2),  # the factors found, 3 and 3, hold a square
    (f"bounds --N {2 * BIG}", 2),
    ("bounds --N 10000019", 2),  # a prime below 10^14 is known to be one
])
def test_refusals_take_bounded_work(monkeypatch, argv, code):
    # the caps come before any trial division, and that of N stops at the double-root cap
    got, out, err = run_bounded(argv.split(), monkeypatch)
    assert (got, out) == (code, "")
    assert_well_formed(got, out, err)


# small odd primes and large odd numbers, so that builds and both caps are reached
ARGV_INTS = st.one_of(st.sampled_from([3, 5, 7, 11, 13]), st.integers(-3, 40),
                      st.integers(-10, 10**30), st.integers(1, 10**30).map(lambda x: 2 * x + 1))


@settings(max_examples=150, deadline=None)
@given(st.one_of(
    st.tuples(st.just("rho"), ARGV_INTS.filter(
        lambda p: p <= 3000 or p > polyarith.DOUBLE_ROOT_CAP or not polyarith.is_prime(p))),
    st.tuples(st.sampled_from(["fiber", "divisors"]), ARGV_INTS, ARGV_INTS)))
def test_every_argv_exits_with_bounded_work(args):
    # rho skips the primes in (3000, 10^7], whose s(p) is work, not a refusal; under a
    # 300-component cap no fiber or divisor command builds more than 300 components
    argv = [args[0], "--p", str(args[1])] + (["--m", str(args[2])] if len(args) > 2 else [])
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("FFK_COMPONENT_CAP", "300")
        code, out, err = run_bounded(argv, mp)
    assert_well_formed(code, out, err)


def test_fiber_json(capsys):
    code, doc, _ = run_json(capsys, "fiber", "--p", "5", "--m", "3")
    assert code == 0
    fib = doc["results"]["fibers"][0]
    assert fib["census"]["Ldelta"] == 18
    assert fib["transversality"] is True
    assert all(c["pass"] for c in doc["checks"])


def test_fiber_runs_transversality_check_once(capsys, monkeypatch):
    # the payload's "transversality" is the suite_fiber check's result, not a second run
    calls = []
    check = ffk.verify.transversality_check

    def counted(model):
        calls.append(model)
        return check(model)

    for mod in (ffk.verify, cli):
        monkeypatch.setattr(mod, "transversality_check", counted, raising=False)
    code, doc, _ = run_json(capsys, "fiber", "--p", "5", "--m", "3")
    assert code == 0
    assert doc["results"]["fibers"][0]["transversality"] is True
    assert len(calls) == 1

    monkeypatch.setattr(ffk.verify, "transversality_check", lambda model: False)
    code, doc, _ = run_json(capsys, "fiber", "--p", "5", "--m", "3")
    assert code == 4
    assert doc["results"]["fibers"][0]["transversality"] is False


def test_fiber_gamma_rows(capsys):
    code, doc, _ = run_json(capsys, "fiber", "--p", "7", "--m", "3")
    assert code == 0
    fib = doc["results"]["fibers"][0]
    assert fib["census"]["Lgamma"] == 18
    assert fib["census"]["LgammaLeaf"] == 126


def test_fiber_n15_two_subreports(capsys):
    code, doc, _ = run_json(capsys, "fiber", "--N", "15")
    assert code == 0
    ps = [f["p"] for f in doc["results"]["fibers"]]
    assert sorted(ps) == [3, 5]


def test_fiber_csv_matches_json(capsys):
    code, doc, _ = run_json(capsys, "fiber", "--p", "5", "--m", "3")
    assert code == 0
    census = doc["results"]["fibers"][0]["census"]
    code, out, _ = run(capsys, "fiber", "--p", "5", "--m", "3", "--format", "csv")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == doc["results"]["fibers"][0]["n_components"]
    by_kind = {}
    for r in rows:
        by_kind[r["kind"]] = by_kind.get(r["kind"], 0) + 1
    assert by_kind == {k: v for k, v in census.items() if v}
    chain = next(r for r in rows if r["kind"] == "Chain")
    assert set(chain) == {"kind", "i", "k", "j", "multiplicity", "genus",
                          "self_intersection", "i_c"}


@pytest.mark.parametrize("argv, pairs", [(("--p", "5", "--m", "3"), [(5, 3)]),
                                         (("--N", "15"), [(3, 5), (5, 3)])])
def test_fiber_csv_matches_csv_writer(capsys, models, argv, pairs):
    """The lines ffk fiber writes are the ones csv.writer makes of each model.config."""
    code, out, _ = run(capsys, "fiber", *argv, "--format", "csv")
    assert code == 0
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["kind", "i", "k", "j", "multiplicity", "genus", "self_intersection", "i_c"])
    for pm in pairs:
        config = models[pm].config
        for label, *row in zip(config.labels, config.multiplicities, config.genera,
                               config.self_ints, i_c_values(config)):
            w.writerow([label.kind, label.i, label.k, label.j, *row])
    assert out == buf.getvalue()


def test_fiber_bad_params(capsys):
    assert run(capsys, "fiber", "--N", "9")[0] == 2
    assert run(capsys, "fiber", "--p", "5")[0] == 2
    assert run(capsys, "fiber", "--N", "15", "--p", "5", "--m", "3")[0] == 2


def test_fiber_cap(capsys, monkeypatch):
    monkeypatch.setenv("FFK_COMPONENT_CAP", "10")
    code, _, err = run(capsys, "fiber", "--p", "5", "--m", "3")
    assert code == 3
    assert "cap" in err


def test_divisors_payload(capsys):
    code, doc, _ = run_json(capsys, "divisors", "--p", "5", "--m", "3")
    assert code == 0
    fib = doc["results"]["fibers"][0]
    assert fib["g_s_self"] == "-11/15"
    assert fib["beta_s"] == "4413/11648"
    assert fib["per_prime_geometric"] == "133/60"
    assert fib["lambda"] == "-1/400"
    assert fib["nu"] == "1/150"


def test_divisors_cusp_independence(capsys):
    code, doc1, _ = run_json(capsys, "divisors", "--p", "5", "--m", "3")
    code2, doc2, _ = run_json(capsys, "divisors", "--p", "5", "--m", "3",
                              "--cusp", "2,3")
    assert code == code2 == 0
    a = doc1["results"]["fibers"][0]
    b = doc2["results"]["fibers"][0]
    assert a["beta_s"] == b["beta_s"]
    assert a["g_s_self"] == b["g_s_self"]


def test_one_parser_serves_every_call_without_leaking_options(capsys):
    # the parser is built once per process; each call still starts from the defaults
    assert cli.build_parser() is cli.build_parser()
    code, out, _ = run(capsys, "fiber", "--p", "7", "--m", "3", "--s", "0", "--format", "csv")
    assert code == 0 and not out.startswith("{")
    code, doc, _ = run_json(capsys, "fiber", "--p", "7", "--m", "3")
    assert code == 0 and doc["results"]["fibers"][0]["s"] == 2
    code, doc, _ = run_json(capsys, "divisors", "--p", "5", "--m", "3", "--cusp", "2,3")
    assert code == 0 and doc["results"]["fibers"][0]["cusp"] == [2, 3]
    code, doc, _ = run_json(capsys, "divisors", "--p", "5", "--m", "3")
    assert code == 0 and doc["results"]["fibers"][0]["cusp"] == [1, 1]


def test_parser_is_built_on_the_first_call_not_at_import():
    src = str(Path(cli.__file__).parents[1])
    code = ("import ffk.cli as c; n = c.build_parser.cache_info().currsize; "
            "c.main(['rho', '--p', '5']); print(n, c.build_parser.cache_info().currsize)")
    proc = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, check=True)
    assert proc.stdout.splitlines()[-1] == "0 1"


def test_divisors_bad_cusp_exits_2(capsys):
    # (5,3) has cusps (i, k) with 1 <= i <= 9 and 1 <= k <= 5
    for cusp in ("10,1", "0,1", "1,6"):
        code, out, err = run(capsys, "divisors", "--p", "5", "--m", "3", "--cusp", cusp)
        assert code == 2
        assert out == ""
        assert f"cusp ({cusp})" in err and "1 <= i <= 9" in err and "1 <= k <= 5" in err


def test_divisors_rejects_a_bad_cusp_before_building_the_fiber(capsys, monkeypatch):
    # the range check needs only (p, m), so an over-range cusp never pays for a large fiber
    def boom(*args):
        raise AssertionError("build_config called for a bad cusp")

    monkeypatch.setattr(cli, "build_config", boom)
    code, out, err = run(capsys, "divisors", "--p", "3", "--m", "331", "--cusp", "9999,1")
    assert (code, out) == (2, "")
    assert "cusp (9999,1) out of range: need 1 <= i <= 993 and 1 <= k <= 3" in err
    code, out, err = run(capsys, "divisors", "--N", "15", "--cusp", "1,6")
    assert (code, out) == (2, "") and "cusp (1,6)" in err


def test_divisors_exit_4_on_contract_violation(capsys, monkeypatch):
    def boom(model, cusp=(1, 1)):
        raise MathContractError("beta_S mismatch (seeded)")

    monkeypatch.setattr(ffk.divisors, "beta_s", boom)
    monkeypatch.setattr(cli.divisors, "beta_s", boom)
    code, _, err = run(capsys, "divisors", "--p", "5", "--m", "3")
    assert code == 4
    assert "contract violation" in err


def test_divisors_exit_code_ignores_the_u_s_probe(capsys, monkeypatch):
    def failing_probe(model, cusp=(1, 1)):
        return [verify.CheckResult("candidate probe (seeded)", False, "seeded")]

    monkeypatch.setattr(cli.divisors, "u_s_probe", failing_probe)
    code, doc, _ = run_json(capsys, "divisors", "--p", "5", "--m", "3")
    assert code == 0
    assert doc["checks"][-1] == {"name": "candidate probe (seeded)", "pass": False,
                                 "detail": "seeded"}

    real_suite_beta = verify.suite_beta

    def failing_suite_beta(models):
        return real_suite_beta(models) + [verify.CheckResult("beta check (seeded)", False)]

    monkeypatch.setattr(cli.verify, "suite_beta", failing_suite_beta)
    code, _, err = run(capsys, "divisors", "--p", "5", "--m", "3")
    assert code == 4
    assert "identity failed: beta check (seeded)" in err


def test_bounds_json(capsys):
    code, doc, _ = run_json(capsys, "bounds", "--N", "15")
    assert code == 0
    res = doc["results"]
    assert res["upper_bound"] is None
    assert res["lower_bound"] > res["simple_lower"]
    assert {t["p"]: t["coeff"] for t in res["geometric_terms"]} == {
        3: "407/45", 5: "133/30",
    }
    assert doc["checks"][0]["pass"]


def test_bounds_large_prime_smoke(capsys):
    # N = 3 * 99991; 99991 = 1 (mod 6), so s >= 2 (no wall-clock gate)
    code, doc, _ = run_json(capsys, "bounds", "--N", "299973")
    assert code == 0
    s = {rec["p"]: rec["s"] for rec in doc["results"]["primes"]}
    assert s[99991] >= 2


def test_bounds_conditional_upper(capsys):
    code, doc, _ = run_json(capsys, "bounds", "--N", "15",
                            "--kappa1", "1", "--kappa2", "1")
    assert code == 0
    assert doc["results"]["upper_is_conditional"] is True
    assert doc["results"]["upper_bound"] > 0


@pytest.mark.parametrize("kappas", [("inf", "1"), ("1e308", "1e308")])
def test_bounds_rejects_infinite_upper(capsys, kappas):
    code, out, err = run(capsys, "bounds", "--N", "15", "--kappa1", kappas[0], "--kappa2", kappas[1])
    assert code == 2
    assert out == ""
    assert "not finite" in err


def test_bounds_squareful_rejected(capsys):
    assert run(capsys, "bounds", "--N", "25")[0] == 2


def test_bounds_csv_round_trip(capsys):
    code, doc, _ = run_json(capsys, "bounds", "--N", "15")
    code2, out, _ = run(capsys, "bounds", "--N", "15", "--format", "csv")
    assert code == code2 == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 2
    jres = doc["results"]
    jp = {str(r["p"]): r for r in jres["primes"]}
    geo = {str(t["p"]): t["coeff"] for t in jres["geometric_terms"]}
    for row in rows:
        j = jp[row["p"]]
        assert row["q_np"] == j["q_np"]
        assert row["beta_sp"] == j["beta_sp"]
        assert int(row["alpha"]) == j["alpha"]
        assert row["geometric_coeff"] == geo[row["p"]]
        assert float(row["lower_bound"]) == jres["lower_bound"]
        assert float(row["simple_lower"]) == jres["simple_lower"]
        assert float(row["mertens_diag"]) == jres["mertens_diag"]


@pytest.mark.parametrize("n, kappa", [(15, None), (105, 1.0)])
def test_bounds_csv_matches_csv_writer(capsys, n, kappa):
    """The lines ffk bounds writes are the ones csv.writer makes of bound_report."""
    flags = () if kappa is None else ("--kappa1", f"{kappa:g}", "--kappa2", f"{kappa:g}")
    code, out, _ = run(capsys, "bounds", "--N", str(n), *flags, "--format", "csv")
    assert code == 0
    report = bounds.bound_report(n, kappa, kappa)
    geo = dict(report.geometric_terms)
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["N", "genus", "phi", "p", "m", "s", "rho", "q_np", "beta_sp", "alpha",
                "geometric_coeff", "lower_bound", "simple_lower", "mertens_diag",
                "upper_bound", "upper_is_conditional"])
    for r in report.primes:
        w.writerow([report.n, report.genus, report.phi, r.p, r.m, r.s, r.rho, cli.rat(r.q),
                    cli.rat(r.beta_sp), r.alpha, cli.rat(geo[r.p]), report.lower, report.simple,
                    report.mertens, "" if report.upper is None else report.upper,
                    report.conditional])
    assert out == buf.getvalue()


def test_scan(tmp_path, capsys):
    out_file = tmp_path / "scan.csv"
    code, doc, _ = run_json(capsys, "scan", "--max-N", "100", "--out", str(out_file))
    assert code == 0
    assert doc["results"]["rows"] == 16
    rows = list(csv.DictReader(out_file.open()))
    assert [int(r["N"]) for r in rows] == [15, 21, 33, 35, 39, 51, 55, 57, 65,
                                           69, 77, 85, 87, 91, 93, 95]
    assert all(float(r["ratio"]) > 1 for r in rows)
    # exact coefficients survive the CSV round trip
    first = rows[0]["geometric_coeffs"].split(";")
    assert first == ["3:407/45", "5:133/30"]


def test_scan_small_max(tmp_path, capsys):
    out_file = tmp_path / "scan.csv"
    code, doc, _ = run_json(capsys, "scan", "--max-N", "10", "--out", str(out_file))
    assert code == 0
    assert doc["results"]["rows"] == 0
    assert "warning" in doc["results"]


def test_scan_io_error(capsys):
    code, _, err = run(capsys, "scan", "--max-N", "20", "--out",
                       "/nonexistent-dir/scan.csv")
    assert code == 5
    assert "i/o error" in err


@pytest.mark.parametrize("max_n", [5000, 10])
def test_scan_csv_matches_csv_writer(tmp_path, capsys, max_n):
    """The lines ffk scan writes are the ones csv.writer makes of scan_rows."""
    out_file = tmp_path / "scan.csv"
    code, _, _ = run(capsys, "scan", "--max-N", str(max_n), "--out", str(out_file))
    assert code == 0
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["N", "phi", "geometric_coeffs", "lower_bound", "simple_lower", "ratio"])
    for n, phi, terms, lower, simple, ratio in bounds.scan_rows(max_n):
        coeffs = ";".join(f"{p}:{cli.rat(Fraction(a, b))}" for p, a, b in terms)
        w.writerow([n, phi, coeffs, lower, simple, ratio])
    assert out_file.read_bytes() == buf.getvalue().encode()


#: SHA-256 of the `ffk scan --max-N 20000` CSV, recorded before the scan rows
#: were computed in integers and streamed to the file
SCAN_20000_SHA256 = "cfb8ab91810399885a0d9c9cbd27950be2406bdb9070cbfbf3142618d7d5d0f2"


def test_scan_csv_pinned(tmp_path, capsys):
    out_file = tmp_path / "scan.csv"
    code, doc, _ = run_json(capsys, "scan", "--max-N", "20000", "--out", str(out_file))
    assert code == 0
    assert doc["results"] == {"all_strict": True, "max_N": 20000, "out": str(out_file),
                              "rows": 5842}
    assert hashlib.sha256(out_file.read_bytes()).hexdigest() == SCAN_20000_SHA256


#: SHA-256 of the `ffk scan --max-N 150000` CSV (46,945 rows, the benchmark's
#: range), recorded from the dict-row scan before the per-N closed-form parts
#: were hoisted out of the per-prime loop and the rows became tuples
SCAN_150000_SHA256 = "de5c99938e27975b7ccbbe61fd3b68429a912a035c991a3fef9a122f39f0da6c"


def test_scan_csv_pinned_bench_range(tmp_path, capsys):
    out_file = tmp_path / "scan.csv"
    code, doc, _ = run_json(capsys, "scan", "--max-N", "150000", "--out", str(out_file))
    assert code == 0
    assert doc["results"]["rows"] == 46945 and doc["results"]["all_strict"]
    assert hashlib.sha256(out_file.read_bytes()).hexdigest() == SCAN_150000_SHA256


def test_scan_contract_failure_leaves_no_file(tmp_path, capsys, monkeypatch):
    simple = bounds._simple
    monkeypatch.setattr(bounds, "_simple",
                        lambda n, phi: math.inf if n == 1155 else simple(n, phi))
    out_file = tmp_path / "scan.csv"
    code, out, err = run(capsys, "scan", "--max-N", "2000", "--out", str(out_file))
    assert code == 4
    assert "N=1155" in err
    assert out == ""
    assert not out_file.exists()


def test_scan_failure_keeps_existing_file(tmp_path, capsys, monkeypatch):
    """Exit 4, or an interrupt, mid-scan leaves an earlier file at --out as it
    was, and no temporary file behind."""
    simple = bounds._simple

    def failing(exc):
        def _simple(n, phi):
            if n == 1155:
                raise exc
            return simple(n, phi)
        return _simple

    out_file = tmp_path / "scan.csv"
    out_file.write_bytes(b"earlier bytes\n")
    monkeypatch.setattr(bounds, "_simple", failing(MathContractError("N=1155")))
    code, out, _ = run(capsys, "scan", "--max-N", "2000", "--out", str(out_file))
    assert code == 4 and out == ""
    monkeypatch.setattr(bounds, "_simple", failing(KeyboardInterrupt()))
    with pytest.raises(KeyboardInterrupt):
        cli.main(["scan", "--max-N", "2000", "--out", str(out_file)])
    assert out_file.read_bytes() == b"earlier bytes\n"
    assert [f.name for f in tmp_path.iterdir()] == ["scan.csv"]


def test_scan_replaces_existing_file_keeping_its_mode(tmp_path, capsys):
    out_file = tmp_path / "scan.csv"
    out_file.write_bytes(b"earlier bytes\n")
    out_file.chmod(0o640)
    link = tmp_path / "link.csv"
    link.symlink_to(out_file)
    code, doc, _ = run_json(capsys, "scan", "--max-N", "100", "--out", str(link))
    assert code == 0 and doc["results"]["rows"] == 16
    assert link.is_symlink()
    assert out_file.read_text().splitlines()[1].startswith("15,8,3:407/45;5:133/30,")
    assert out_file.stat().st_mode & 0o777 == 0o640
    assert sorted(f.name for f in tmp_path.iterdir()) == ["link.csv", "scan.csv"]


def test_scan_streams_through_scan_rows(tmp_path, capsys, monkeypatch):
    """ffk scan takes its rows from bounds.scan_rows, one block of N at a time."""
    sizes = []
    scan_rows = bounds.scan_rows

    def counted(*args):
        rows = scan_rows(*args)
        sizes.append(len(rows))
        return rows

    monkeypatch.setattr(bounds, "scan_rows", counted)
    code, doc, _ = run_json(capsys, "scan", "--max-N", "20000",
                            "--out", str(tmp_path / "scan.csv"))
    assert code == 0
    assert len(sizes) == -(-(20000 - 14) // bounds.SCAN_BLOCK)
    assert sum(sizes) == doc["results"]["rows"] == 5842


def test_scan_memory_flat(tmp_path, capsys):
    """Rows are written as they are made: the traced peak of a 60,000 scan
    (18,255 rows) stays far below the 18 MB a held row list takes."""
    tracemalloc.start()
    try:
        code = cli.main(["scan", "--max-N", "60000", "--out", str(tmp_path / "scan.csv")])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert code == 0
    assert peak < 2 * 2**20


def traced_peak(fn) -> int:
    """The tracemalloc peak of fn(), from a full collection, which also empties
    the interpreter's free lists so that every measurement starts alike."""
    gc.collect()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_scan_holds_one_block(tmp_path, capsys):
    """The traced peak of a 150,000 scan stays within 256 KiB of the peak of
    its largest scan_rows block call (about 0.55 MB): the rows of one block
    are dropped before the next block is computed. A loop that keeps the
    previous block while the next is computed peaks about one block higher."""
    max_n, width = 150000, bounds.SCAN_BLOCK
    last = 15 + (max_n - 15) // width * width
    block = max(traced_peak(lambda lo=lo: bounds.scan_rows(min(lo + width - 1, max_n), lo))
                for lo in (last - width, last))
    out = str(tmp_path / "scan.csv")
    peak = traced_peak(lambda: cli.main(["scan", "--max-N", str(max_n), "--out", out]))
    capsys.readouterr()
    assert peak < block + 256 * 2**10


def test_verify_polynomial(capsys):
    code, doc, _ = run_json(capsys, "verify", "--suite", "polynomial")
    assert code == 0
    assert doc["results"]["failed"] == 0


@pytest.mark.parametrize("suite, builds", [("all", 1), ("divisor", 1), ("polynomial", 0)])
def test_run_suites_builds_the_models_once(monkeypatch, suite, builds):
    # every suite of one run_suites call reads the same acceptance models
    built, given = [], []
    monkeypatch.setattr(verify, "build_config", lambda p, m: built.append((p, m)) or (p, m))
    monkeypatch.setattr(verify, "suite_polynomial", lambda: [])
    for name in ("suite_fiber", "suite_divisor", "suite_beta", "suite_cycles", "suite_bounds"):
        monkeypatch.setattr(verify, name, lambda models=None: given.append(models) or [])
    verify.run_suites(suite)
    assert built == builds * list(verify.ACCEPTANCE_PAIRS)
    assert given == [built] * len(given)


def test_json_deterministic(capsys):
    _, out1, _ = run(capsys, "divisors", "--p", "5", "--m", "3")
    _, out2, _ = run(capsys, "divisors", "--p", "5", "--m", "3")
    assert out1 == out2


def test_cli_import_leaves_csv_unloaded():
    # every CSV is written as lines, so no ffk process needs the csv module
    src = str(Path(cli.__file__).parents[1])
    proc = subprocess.run([sys.executable, "-c", "import sys, ffk.cli; print('csv' in sys.modules)"],
                          env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
                          check=True)
    assert proc.stdout == "False\n"


def test_rational_serialization():
    assert cli.rat(Fraction(-6, 8)) == "-3/4"
    assert cli.rat(Fraction(5)) == "5/1"


#: SHA-256 and exit code of stdout for a fixed set of commands. The first six
#: were recorded before the tree solver replaced the general sparse
#: elimination, the next four before the duplicated beta closed form, cusp
#: lookup, semipositivity loop and number-theory helpers were merged, and the
#: next two before the divisor core moved to integer numerators. The
#: `fiber --N 15 --format csv` digest was re-recorded when its last column was
#: renamed from `degree_in_graph` to `i_c`; its rows are unchanged. The
#: `bounds --N 105 --kappa1 1 --kappa2 1 --format csv` digest, the one CSV with
#: a filled upper_bound column, was recorded while the bounds and fiber CSVs
#: were still written by csv.writer. The `divisors --p 7 --m 11` digest (4,280
#: components) was recorded while `suite_divisor` paired and solved every V_D
#: against the whole fiber. The two `fiber --p 7 --m 23` digests (19,160
#: components, JSON and CSV) were recorded while `build_config` filled a pairs
#: dict and every whole-fiber check called `i_c` once per component. The
#: `divisors --p 11 --m 13` digest (6,540 components, arms of p = 11 chains) was
#: recorded while the divisor sweep still solved every t_D - t_Fm
GOLDEN_CLI = json.loads((Path(__file__).parent / "golden_cli.json").read_text())


def _reject_constant(name):
    raise ValueError(f"stdout is not standard JSON: it holds {name}")


@pytest.mark.parametrize("case", GOLDEN_CLI, ids=lambda case: " ".join(case["argv"]))
def test_golden_cli_stdout(capsys, monkeypatch, case):
    monkeypatch.delenv("FFK_COMPONENT_CAP", raising=False)
    code, out, _ = run(capsys, *case["argv"])
    assert code == case["exit_code"]
    if "csv" not in case["argv"]:
        json.loads(out, parse_constant=_reject_constant)
    assert hashlib.sha256(out.encode()).hexdigest() == case["stdout_sha256"]
