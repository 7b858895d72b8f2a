"""Acceptance suite: one test per exit criterion, with a pass/fail line each.

Criteria 1-6 each run their identity suite from ffk.verify on the session
models and add the pinned values that no suite checks. Budgets are
wall-clock seconds; all identity checks are exact (no tolerances anywhere
except the stated float agreement for assembled logarithms).
"""

import dataclasses
import json
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ffk import divisors, verify
from ffk.errors import MathContractError
from ffk.fiber import CheckResult, FiberConfig, QDivisor, pair, validate
from ffk.model import FermatLabel, FermatModel
from conftest import fiber_edges
from test_fiber import COLUMN, NOT_ORTHOGONAL_TREES, columns, p_a_divisor


def _report(num: int, name: str, ok: bool, elapsed: float, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    extra = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num} [{name}]: {status} in {elapsed:.2f}s{extra}")
    assert ok, f"criterion {num} ({name}) failed{extra}"


def _criterion(num: int, name: str, t0: float, checks, budget: float | None = None):
    """Every CheckResult passed, within `budget` seconds of t0 when one is set."""
    elapsed = time.monotonic() - t0
    failed = [c for c in checks if not c.passed]
    detail = f"{failed[0].name}: {failed[0].detail}" if failed else ""
    ok = not failed and (budget is None or elapsed < budget)
    _report(num, name, ok, elapsed, detail)


def test_criterion_1_polynomials():
    t0 = time.monotonic()
    _criterion(1, "polynomial suite", t0, verify.suite_polynomial(), budget=5.0)


def test_suites_check_exactly_the_models_given():
    # an empty list is no models, not the acceptance set
    for suite in (verify.suite_fiber, verify.suite_divisor, verify.suite_beta, verify.suite_cycles):
        assert suite([]) == []
    assert [c.name for c in verify.suite_bounds([], scan_to=15)] == [
        "strict lower/simple inequality for all N <= 15"]


def test_criterion_2_configuration(models):
    t0 = time.monotonic()
    _criterion(2, "configuration suite", t0, verify.suite_fiber(list(models.values())),
               budget=10.0)


def test_criterion_3_divisors(models):
    t0 = time.monotonic()
    _criterion(3, "divisor suite", t0, verify.suite_divisor(list(models.values())),
               budget=60.0)


def test_criterion_4_beta_g(models):
    t0 = time.monotonic()
    checks = verify.suite_beta(list(models.values()))
    m15, m21 = models[(5, 3)], models[(7, 3)]
    gs15, gs21 = divisors.g_s(m15), divisors.g_s(m21)
    checks += [
        CheckResult("beta at N=15 is 4413/11648",
                    divisors.beta_s(m15) == Fraction(4413, 11648)),
        CheckResult("G_S^2 at N=15 is -11/15", pair(m15.config, gs15, gs15) == Fraction(-11, 15)),
        CheckResult("G_S^2 at N=21 is -5/7", pair(m21.config, gs21, gs21) == Fraction(-5, 7)),
    ]
    _criterion(4, "beta/G suite", t0, checks)


def test_criterion_5_bounds(models):
    t0 = time.monotonic()
    checks = verify.suite_bounds(list(models.values()), scan_to=10**5)
    checks.append(CheckResult("Q(15,5) is 133/60",
                              divisors.per_prime_geometric(models[(5, 3)]) == Fraction(133, 60)))
    _criterion(5, "bounds suite", t0, checks, budget=60.0)


def test_criterion_6_fundamental_cycles(models):
    t0 = time.monotonic()
    _criterion(6, "fundamental-cycle suite", t0, verify.suite_cycles(list(models.values())))


def _mutated(model, mode: str) -> FermatModel:
    cfg = model.config
    cols = columns(cfg)
    edges = dict(fiber_edges(cfg))
    victim = model.cid(FermatLabel("Ldelta", i=1))
    if mode == "adjacency":
        key = (min(model.fm, victim), max(model.fm, victim))
        del edges[key]
    elif mode in COLUMN:
        cols[COLUMN[mode]][victim] += 1
    bad_cfg = FiberConfig(*cols, edges, cfg.genus)
    return dataclasses.replace(model, config=bad_cfg)


def _divisor_suite_raises(model) -> bool:
    """A divisor identity raises, or a full-graph oracle check of beta_S or Q(N,p) fails.

    beta_s and per_prime_geometric read the cusp quotient, not model.config, so
    a defect in the built graph reaches them only through the oracle suites.
    """
    try:
        for cid, label in enumerate(model.config.labels[:40]):
            vc = divisors.v_divisor(model, cid)
            if pair(model.config, vc, vc) != divisors.v_self_closed(model.params, label):
                return True
        divisors.beta_s(model)
        divisors.per_prime_geometric(model)
        oracle = verify.suite_beta([model]) + verify.suite_bounds([model], scan_to=15)
    except MathContractError:
        return True
    return not all(c.passed for c in oracle)


def _doubled_edge(model) -> FiberConfig:
    # one extra Ldelta-Ldelta edge, listed as both (a, b) and (b, a): its count is 2
    edges = dict(fiber_edges(model.config))
    a, b = (model.cid(FermatLabel("Ldelta", i=i)) for i in (1, 2))
    edges[(a, b)] = edges[(b, a)] = 1
    return FiberConfig(*columns(model.config), edges, model.config.genus)


def _pinned_validate_configs(models) -> dict[str, FiberConfig]:
    out = dict(NOT_ORTHOGONAL_TREES)
    for mode in ("self_int", "adjacency", "multiplicity"):
        out[f"(5,3) {mode}"] = _mutated(models[(5, 3)], mode).config
    out["(5,3) doubled edge"] = _doubled_edge(models[(5, 3)])
    return out


#: validate output and sorted edge list of each pinned config, recorded before
#: the edge store and the orthogonality pass of fiber.py were rewritten
GOLDEN_VALIDATE = json.loads((Path(__file__).parent / "golden_validate.json").read_text())


def test_validate_output_is_pinned(models):
    configs = _pinned_validate_configs(models)
    assert sorted(configs) == sorted(GOLDEN_VALIDATE)
    for name, cfg in configs.items():
        want = GOLDEN_VALIDATE[name]
        assert [[c.name, c.passed, c.detail] for c in validate(cfg)] == want["validate"], name
        assert [[a, b, cnt] for (a, b), cnt in sorted(fiber_edges(cfg))] == want["edges"], name


def test_criterion_7_mutation_sensitivity(models):
    t0 = time.monotonic()
    base = models[(5, 3)]
    ok = True
    detail = ""
    for mode in ("self_int", "adjacency", "multiplicity"):
        bad = _mutated(base, mode)
        caught_validate = not all(c.passed for c in validate(bad.config))
        caught_divisors = _divisor_suite_raises(bad)
        if not (caught_validate or caught_divisors):
            ok, detail = False, f"defect {mode} not caught"
            break
    if ok:
        # the CLI maps MathContractError onto exit code 4
        import ffk.cli as cli

        def boom(*a, **k):
            raise MathContractError("seeded defect")

        orig = divisors.beta_s
        divisors.beta_s = boom
        cli.divisors.beta_s = boom
        try:
            code = cli.main(["divisors", "--p", "5", "--m", "3"])
        finally:
            divisors.beta_s = orig
            cli.divisors.beta_s = orig
        if code != 4:
            ok, detail = False, f"CLI exit code {code} != 4"
    elapsed = time.monotonic() - t0
    _report(7, "mutation sensitivity", ok, elapsed, detail)


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_random_mutation_is_caught(models, data):
    # one random change to the (5,3) fiber: validate or a divisor identity must see it
    base = models[(5, 3)]
    cols = columns(base.config)
    n = base.config.n_components
    edges = dict(fiber_edges(base.config))
    mode = data.draw(st.sampled_from(
        ("self_int", "multiplicity", "genus", "add_edge", "remove_edge")), label="mode")
    if mode == "remove_edge":
        del edges[data.draw(st.sampled_from(sorted(edges)), label="edge")]
    elif mode == "add_edge":
        a = data.draw(st.integers(0, n - 1), label="a")
        b = data.draw(st.integers(0, n - 1).filter(lambda b: b != a), label="b")
        key = (min(a, b), max(a, b))
        edges[key] = edges.get(key, 0) + 1
    else:
        cid = data.draw(st.integers(0, n - 1), label="component")
        col = cols[COLUMN[mode]]
        old = col[cid]
        low = {"self_int": old - 3, "multiplicity": 1, "genus": 0}[mode]
        col[cid] = data.draw(st.integers(low, old + 3).filter(lambda v: v != old), label=mode)
    bad = dataclasses.replace(base, config=FiberConfig(*cols, edges, base.config.genus))
    caught = not all(chk.passed for chk in validate(bad.config)) or _divisor_suite_raises(bad)
    assert caught, f"random {mode} defect not caught"


MUTATIONS = ("genus+1", "self_int+1", "self_int-1", "multiplicity+1", "drop_edge", "add_edge")


def _single_field_mutants(model, mode: str):
    """`mode` applied, one at a time, at components or edges spread over the fiber."""
    cfg = model.config
    cols, edges = columns(cfg), dict(fiber_edges(cfg))
    n = cfg.n_components
    if mode == "drop_edge":
        keys = sorted(edges)
        for key in (keys[0], keys[len(keys) // 2], keys[-1]):
            yield FiberConfig(*cols, {k: v for k, v in edges.items() if k != key}, cfg.genus)
    elif mode == "add_edge":
        for a, b in ((0, n - 1), (model.fm, n // 2), (model.lxyz(1), model.lxyz(2))):
            key = (min(a, b), max(a, b))
            yield FiberConfig(*cols, {**edges, key: edges.get(key, 0) + 1}, cfg.genus)
    else:
        col, delta = cols[COLUMN[mode[:-2]]], int(mode[-2:])
        for cid in (0, model.fm, n // 2, n - 1):
            col[cid] += delta  # FiberConfig copies the columns, so undo it after the yield
            yield FiberConfig(*cols, edges, cfg.genus)
            col[cid] -= delta


@pytest.mark.parametrize("mode", MUTATIONS)
@pytest.mark.parametrize("pm", [(5, 3), (7, 3), (3, 5)], ids=lambda pm: f"{pm[0]},{pm[1]}")
def test_every_suite_reports_a_single_field_mutant(models, pm, mode):
    # checks return data: on a broken fiber every suite reports, none raises, and one fails
    base = models[pm]
    for cfg in _single_field_mutants(base, mode):
        bad = dataclasses.replace(base, config=cfg)
        checks = []
        for suite in (verify.suite_fiber, verify.suite_divisor, verify.suite_beta,
                      verify.suite_cycles):
            got = suite([bad])
            assert got and all(isinstance(c, CheckResult) for c in got), suite.__name__
            checks += got
        assert not all(c.passed for c in checks), f"{mode} on {pm} not caught"


def _cycles_reference(model):
    """suite_cycles' verdict from one QDivisor and one p_a_divisor per fundamental cycle."""
    config, m = model.config, model.params.m
    cycles = [range(end, end + m - 1) for end in model.cusps]
    cycles += [(cid,) for cid, label in enumerate(config.labels) if label.kind == "LgammaLeaf"]
    return all(p_a_divisor(config, QDivisor.from_numerators(dict.fromkeys(z, 1), 1)) == 0
               for z in cycles)


@pytest.mark.parametrize("mode", [None, *MUTATIONS])
def test_suite_cycles_matches_the_p_a_reference(models, mode):
    verdicts = []
    for base in models.values():
        cfgs = [base.config] if mode is None else _single_field_mutants(base, mode)
        for cfg in cfgs:
            model = dataclasses.replace(base, config=cfg)
            [chk] = verify.suite_cycles([model])
            assert chk.passed == _cycles_reference(model), (model.params, mode)
            verdicts.append(chk.passed)
    if mode is None:
        assert all(verdicts)
    elif mode in ("genus+1", "drop_edge"):  # at chain end 0 or its edge (0, 1): p_a moves
        assert not all(verdicts)


@pytest.mark.parametrize("mode", ["self_int+1", "self_int-1"])
@pytest.mark.parametrize("pm", [(5, 3), (7, 3), (3, 5)], ids=lambda pm: f"{pm[0]},{pm[1]}")
def test_a_wrong_self_intersection_fails_orthogonality_not_suite_cycles(models, pm, mode):
    # C^2 cancels in D^2 + K.D, as K.C = -C^2 + 2g_C - 2, so p_a cannot see it;
    # orthogonality, d_C C^2 + I_C = 0, is the check that does
    base = models[pm]
    name = f"fiber orthogonality (F.C = 0 for all C) (p={pm[0]}, m={pm[1]})"
    for cfg in _single_field_mutants(base, mode):
        bad = dataclasses.replace(base, config=cfg)
        assert not {c.name: c.passed for c in verify.suite_fiber([bad])}[name]
        assert [c.passed for c in verify.suite_cycles([bad])] == [True]


@pytest.mark.parametrize("pm", [(5, 3), (7, 3), (3, 5)], ids=lambda pm: f"{pm[0]},{pm[1]}")
def test_a_chain_end_of_multiplicity_two_fails_the_cusp_check(models, pm):
    # the cusp check reads the multiplicities: Chain(1,1,1), id 0, at multiplicity 2 is no
    # mult-1 chain end, so the cusp sections no longer biject with them
    base = models[pm]
    cols = columns(base.config)
    cols[COLUMN["multiplicity"]][0] = 2
    bad = dataclasses.replace(base, config=FiberConfig(*cols, dict(fiber_edges(base.config)),
                                                       base.config.genus))
    tag = f"(p={pm[0]}, m={pm[1]})"
    got = {c.name: c.passed for c in verify.suite_fiber([bad])}
    assert not got[f"cusp sections biject with mult-1 chain ends {tag}"]
    assert not got[f"fiber orthogonality (F.C = 0 for all C) {tag}"]
    assert all({c.name: c.passed for c in verify.suite_fiber([base])}.values())
