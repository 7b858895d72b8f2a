import dataclasses
from fractions import Fraction
from itertools import cycle, product
from math import lcm

import pytest

from ffk import divisors
from ffk.divisors import (
    beta_s,
    g_s,
    lambda_nu,
    mu_chain,
    per_prime_geometric,
    semipos_check,
    u_s,
    u_s_probe,
    v_divisor,
    v_s,
    v_self_closed,
    vs_pair_closed,
)
from ffk.errors import MathContractError, NoSolutionError
from ffk.fiber import (
    FiberConfig,
    GaugeSolver,
    QDivisor,
    _a_values,
    canonical_pair,
    pair,
    pair_profile,
    pairing_divisor,
)
from ffk.model import FermatLabel, build_config
from ffk.verify import (
    _fm_targets,
    gauge_reproduction,
    representative_relation_full,
    suite_beta,
    suite_bounds,
    suite_divisor,
)
from conftest import fiber_edges
from test_acceptance import MUTATIONS, _single_field_mutants
from test_fiber import COLUMN, columns, solve_at


def test_lambda_nu_values(model53, model35):
    ln = lambda_nu(model53.params)
    assert (ln.lam, ln.nu) == (Fraction(-1, 400), Fraction(1, 150))
    assert ln.total == Fraction(1, 240)
    assert lambda_nu(dataclasses.replace(model53.params)) is ln  # built once per params
    ln35 = lambda_nu(model35.params)
    assert (ln35.lam, ln35.nu) == (Fraction(-1, 1296), Fraction(1, 270))


def test_lambda_nu_signs(models):
    for model in models.values():
        ln = lambda_nu(model.params)
        assert ln.lam < 0 < ln.nu


def test_v_fm(model53):
    vd = v_divisor(model53, model53.fm)
    assert vd == QDivisor.single(model53.fm, Fraction(3, 180))


def v_divisor_reference(model, cid):
    """V_D built whole, as v_divisor built it before the base and own-part split."""
    params = model.params
    p, m, n = params.p, params.m, params.n
    lab = model.config.labels[cid]
    two_g2 = 2 * params.genus - 2
    r = lab.j if lab.kind == "Chain" else 1
    den = lcm(two_g2, 2 * n, r * m)
    num = {model.fm: (p - 2) * (den // two_g2)}
    if lab.kind == "Fm":
        pass
    elif lab.kind == "Ldelta":
        num[cid] = den // p
    elif lab.kind in ("Lgamma", "LgammaLeaf"):
        num[model.lgamma(lab.i)] = den // p
        num.update(dict.fromkeys(model.leaves(lab.i), den // (2 * p)))
        if lab.kind == "LgammaLeaf":
            num[cid] += den // 2
    elif lab.kind in ("LXYZ", "Chain"):
        num[model.lxyz(lab.i)] = den // p
        arm = model.chain_arm(lab.i)
        num.update(zip(arm, cycle([j * (den // n) for j in range(1, m)])))  # Chain(j,k,i): j/N
        if lab.kind == "Chain":
            kk = lab.k
            for j, c in enumerate(arm[(kk - 1) * (m - 1):kk * (m - 1)], 1):
                num[c] += j * (m - r) * (den // (r * m)) if j < r else (m - j) * (den // m)
    else:  # pragma: no cover
        raise MathContractError(f"unknown component kind {lab.kind}")
    return QDivisor.from_numerators(num, den)


def test_v_divisor_matches_the_whole_divisor_reference(models):
    # V_B + H_D is the V_D the closed form builds whole, for every D
    for model in [*models.values(), build_config(7, 11)]:
        for cid in range(model.config.n_components):
            assert v_divisor(model, cid) == v_divisor_reference(model, cid), (model.params, cid)


def test_v_ldelta(model53):
    ld = model53.cid(FermatLabel("Ldelta", i=2))
    vd = v_divisor(model53, ld)
    want = QDivisor({model53.fm: Fraction(3, 180), ld: Fraction(1, 5)})
    assert vd == want


def test_v_s_coefficients(model53):
    # chain coefficients of V_S: (j - jp + N)/N on the cusp chain, j/N elsewhere
    vs = v_s(model53, (1, 1))
    assert vs.coeff(model53.chain(1, 1, 1)) == Fraction(11, 15)
    assert vs.coeff(model53.chain(2, 1, 1)) == Fraction(7, 15)
    assert vs.coeff(model53.chain(1, 2, 1)) == Fraction(1, 15)
    assert vs.coeff(model53.chain(2, 4, 1)) == Fraction(2, 15)
    assert vs.coeff(model53.lxyz(1)) == Fraction(1, 5)
    assert vs.coeff(model53.fm) == Fraction(3, 180)
    assert mu_chain(model53.params, 1, 1) == Fraction(11, 15)
    assert mu_chain(model53.params, 2, 3) == Fraction(2, 15)


def test_representative_relation_full(model53, model73):
    for model in (model53, model73):
        relation, closed, solved = representative_relation_full(model)
        assert relation.name == "representative pairing relation (all pairs)"
        assert closed.name == "self/cross closed forms"
        assert solved.name == "gauged solver reproduces representatives"
        assert relation.passed and closed.passed and solved.passed


def test_v_s_property(model53):
    # (S + V_S . C) = a_C/(2g-2) for every component
    cfg = model53.config
    vs = v_s(model53)
    two_g2 = 2 * model53.params.genus - 2
    prof = pair_profile(cfg, vs)
    target = model53.chain(1, 1, 1)
    for cid, a in enumerate(_a_values(cfg, range(cfg.n_components))):
        sc = 1 if cid == target else 0
        assert prof.get(cid, Fraction(0)) + sc == Fraction(a, two_g2)


def _v_self(model, cid):
    """V_D^2 from the graph pairing, asserted equal to its closed form."""
    vd = v_divisor(model, cid)
    got = pair(model.config, vd, vd)
    assert got == v_self_closed(model.params, model.config.labels[cid])
    return got


def test_v_self_examples(model53):
    ln = lambda_nu(model53.params)
    assert _v_self(model53, model53.fm) == ln.lam
    assert _v_self(model53, model53.chain(1, 1, 1)) == Fraction(1, 240) - Fraction(11, 15)
    assert _v_self(model53, model53.chain(1, 1, 1)) == Fraction(-35, 48)


def test_v_self_leaf(model73):
    ln = lambda_nu(model73.params)
    got = _v_self(model73, model73.leaf(2, 3))
    assert got == ln.lam + ln.nu - Fraction(1 + 7, 2 * 7)


def test_closed_forms_match_graph(models):
    for model in models.values():
        cfg = model.config
        vs = v_s(model)
        for cid, label in enumerate(cfg.labels):
            vc = v_divisor(model, cid)
            assert pair(cfg, vc, vc) == v_self_closed(model.params, label)
            assert pair(cfg, vs, vc) == vs_pair_closed(model.params, label)


def test_closed_forms_are_constant_on_each_closed_form_class(models):
    # the divisor sweep evaluates the closed forms once per class, so a class fixes both
    for model in models.values():
        seen = {}
        for label in model.config.labels:
            forms = v_self_closed(model.params, label), vs_pair_closed(model.params, label)
            assert seen.setdefault(divisors.closed_form_class(label), forms) == forms


def _mutant(model, changes):
    """model with delta added to the field of component cid, for each (cid, field, delta)."""
    cfg = model.config
    cols = columns(cfg)
    for cid, field, delta in changes:
        cols[COLUMN[field]][cid] += delta
    return dataclasses.replace(model, config=FiberConfig(*cols, dict(fiber_edges(cfg)), cfg.genus))


def test_suite_divisor_flags_mutated_graph(model53):
    cfg = model53.config
    cid = model53.cid(FermatLabel("Ldelta", i=1))
    bad = _mutant(model53, [(cid, "self_int", -1)])
    checks = {c.name: c for c in suite_divisor([bad])}
    closed = checks["self/cross closed forms (p=5, m=3)"]
    assert not closed.passed and closed.detail == f"V_D^2 fails for D={cfg.labels[cid]}"
    # the relation and the closed forms share one sweep, but each keeps its own first failure
    relation = checks["representative pairing relation (all pairs) (p=5, m=3)"]
    assert not relation.passed and relation.detail == "fails for D=Chain(j=1,k=1,i=1)"
    # the solver rejects the non-orthogonal config; the suite reports it, it does not raise
    assert not checks["gauged solver reproduces representatives (p=5, m=3)"].passed


def test_gauge_reproduces_representatives(model53):
    # the solver factors and solves t_Fm at the gauge: w_Fm is V_Fm, so w_Fm - V_Fm is empty
    v_fm = v_divisor(model53, model53.fm)
    solver, rest, detail = gauge_reproduction(model53, v_fm, _fm_targets(model53))
    assert solver.gauge_cid == model53.fm and rest == QDivisor() and detail == ""
    # V_D = solve(t_D - t_Fm) + w_Fm, with t_D - t_Fm = Fm/d_Fm - D/d_D (d_Fm = p = 5)
    for cid in (0, model53.lxyz(2), model53.cid(FermatLabel("Ldelta", i=3))):
        d = model53.config.multiplicities[cid]
        step = QDivisor({model53.fm: Fraction(1, 5), cid: Fraction(-1, d)})
        assert solver.solve(step) + v_fm == v_divisor(model53, cid)


def test_gauge_reproduction_reports_incompatible_targets(model53):
    # one genus + 1 keeps the fiber orthogonal but breaks adjunction, so no target has a
    # solution: the check names the first D and the solver's reason, it does not raise
    bad = _mutant(model53, [(model53.fm, "genus", 1)])
    solver, rest, detail = gauge_reproduction(bad, v_divisor(bad, bad.fm), _fm_targets(bad))
    # sum d_C t_C is d_Fm (a_Fm's increase 2)/(2g-2)
    excess = Fraction(2 * bad.config.multiplicities[bad.fm], 2 * model53.params.genus - 2)
    assert solver is None and rest is None
    assert detail == ("fails for D=Chain(j=1,k=1,i=1): no solution: targets are not "
                      f"orthogonal to the fiber (sum d_C t_C = {excess})")


def _whole_fiber_representatives(model):
    """(D's label, V_D, t_D) for every D, t_D = sum_C (a_C/(2g-2) - delta_{D,C}/d_D) C, dense."""
    cfg = model.config
    base = QDivisor.from_numerators(
        dict(enumerate(_a_values(cfg, range(cfg.n_components)))), 2 * model.params.genus - 2)
    for cid, (label, d) in enumerate(zip(cfg.labels, cfg.multiplicities)):
        yield label, v_divisor(model, cid), base - QDivisor.from_numerators({cid: 1}, d)


def suite_divisor_reference(model):
    """The divisor suite as a whole-fiber sweep: the reference for `suite_divisor`.

    Each V_D is paired in full against its dense t_D, V_D^2 and (V_S . V_D) are
    read off that full profile and V_S's, and each t_D is solved in full at the
    gauge. Returns (name, passed, detail) for each check, in suite order.
    """
    cfg, params = model.config, model.params
    vs_profile = pairing_divisor(cfg, v_s(model))
    relation = closed = ""
    for label, vd, want in _whole_fiber_representatives(model):
        prof = pairing_divisor(cfg, vd)
        if not relation and prof != want:
            relation = f"fails for D={label}"
        if not closed and vd.dot(prof) != v_self_closed(params, label):
            closed = f"V_D^2 fails for D={label}"
        if not closed and vd.dot(vs_profile) != vs_pair_closed(params, label):
            closed = f"(V_S.V_D) fails for D={label}"
        if relation and closed:
            break
    solved = ""
    try:
        solver = GaugeSolver(cfg, model.fm)
    except MathContractError as exc:
        solved = str(exc)
    else:
        gauge_val = Fraction(params.p - 2, 2 * params.genus - 2)
        for label, vd, targets in _whole_fiber_representatives(model):
            try:
                if solve_at(solver, targets, gauge_val) != vd:
                    solved = f"fails for D={label}"
                    break
            except NoSolutionError as exc:
                solved = f"fails for D={label}: {exc}"
                break
    tag = f"(p={params.p}, m={params.m})"
    return [(f"representative pairing relation (all pairs) {tag}", not relation, relation),
            (f"self/cross closed forms {tag}", not closed, closed),
            (f"gauged solver reproduces representatives {tag}", not solved, solved)]


def _suite_divisor_triples(model):
    return [(c.name, c.passed, c.detail) for c in suite_divisor([model])]


def test_suite_divisor_matches_the_whole_fiber_reference(models):
    for model in models.values():
        want = suite_divisor_reference(model)
        assert all(passed for _, passed, _ in want)
        assert _suite_divisor_triples(model) == want, model.params


@pytest.mark.parametrize("mode", MUTATIONS)
@pytest.mark.parametrize("pm", [(5, 3), (7, 3), (3, 5)], ids=lambda pm: f"{pm[0]},{pm[1]}")
def test_suite_divisor_matches_the_reference_on_single_field_mutants(models, pm, mode):
    base = models[pm]
    for cfg in _single_field_mutants(base, mode):
        bad = dataclasses.replace(base, config=cfg)
        assert _suite_divisor_triples(bad) == suite_divisor_reference(bad), (pm, mode)


def test_suite_divisor_matches_the_reference_on_self_int_and_genus_mutants(model53):
    fm = model53.fm
    ldeltas = [model53.cid(FermatLabel("Ldelta", i=i)) for i in range(1, 6)]
    mutants = (
        # the two mutants the tests above pin: a non-orthogonal fiber and an unsolvable one
        [(ldeltas[0], "self_int", -1)],
        [(fm, "genus", 1)],
        # genus moved from Fm (d = 5) to five Ldelta (d = 1): sum d_C a_C is unchanged, so
        # every t_D stays solvable, but t_Fm changes and V_Fm no longer solves it
        [(fm, "genus", -1)] + [(cid, "genus", 1) for cid in ldeltas],
    )
    for changes in mutants:
        bad = _mutant(model53, changes)
        want = suite_divisor_reference(bad)
        assert not all(passed for _, passed, _ in want)
        assert _suite_divisor_triples(bad) == want


def count_solves(monkeypatch, calls):
    """Count GaugeSolver.solve calls in calls["solve"]."""
    solve = GaugeSolver.solve

    def counted(self, targets):
        calls["solve"] += 1
        return solve(self, targets)

    monkeypatch.setattr(GaugeSolver, "solve", counted)


def test_suite_divisor_builds_each_base_once_and_each_own_part_once(model73, monkeypatch):
    # one sweep builds each base once, 1 + 3m + n_gamma of them, and each D's own part once;
    # V_S is one v_divisor call, which builds one more of each; one factorization, one
    # solve (t_Fm's: every other solution comes from the tree), no pair
    import ffk.divisors
    import ffk.verify

    n, m, n_gamma = model73.config.n_components, model73.params.m, model73.census()["Lgamma"]
    assert len({divisors.v_own(model73, cid)[0] for cid in range(n)}) == 1 + 3 * m + n_gamma
    calls = dict.fromkeys(("v_divisor", "v_base", "v_own", "pair", "factor", "solve"), 0)
    for mod, name in ((ffk.divisors, "v_divisor"), (ffk.divisors, "v_base"),
                      (ffk.divisors, "v_own"), (ffk.verify, "pair")):
        def counted(*args, _orig=getattr(mod, name), _name=name):
            calls[_name] += 1
            return _orig(*args)

        monkeypatch.setattr(mod, name, counted)
    factor = GaugeSolver.__init__

    def counted_factor(self, *args):
        calls["factor"] += 1
        factor(self, *args)

    monkeypatch.setattr(GaugeSolver, "__init__", counted_factor)
    count_solves(monkeypatch, calls)
    checks = suite_divisor([model73])
    assert all(c.passed for c in checks)
    assert n == 280 and n_gamma == 18
    assert calls == {"v_divisor": 1, "v_base": 1 + 3 * m + n_gamma + 1, "v_own": n + 1,
                     "pair": 0, "factor": 1, "solve": 1}


def test_suite_divisor_spreads_each_base_and_own_part_once(monkeypatch):
    # the support one sweep hands to _spread is V_Fm's one entry, each G_B = V_B - V_Fm
    # once and each H_D once, under n m; pairing a whole arm per D would be about n p m.
    # It solves t_Fm alone: a solve per D would walk a whole arm for each chain D
    import ffk.fiber
    import ffk.verify

    model = build_config(7, 11)
    n = model.config.n_components
    v_fm = divisors.v_base(model, model.fm)
    bases, owns, _ = zip(*(divisors.v_own(model, cid) for cid in range(n)))
    sum_g = sum(len((divisors.v_base(model, b) - v_fm).numerators()) for b in set(bases))
    sum_h = sum(map(len, owns))
    spread, orig = [], ffk.fiber._spread
    for mod in (ffk.fiber, ffk.verify):
        monkeypatch.setattr(mod, "_spread",
                            lambda config, num: spread.append(len(num)) or orig(config, num))
    calls = {"solve": 0}
    count_solves(monkeypatch, calls)
    assert all(c.passed for c in representative_relation_full(model))
    assert n == 4280 and sum(spread) <= 1 + sum_g + sum_h < n * model.params.m
    assert calls == {"solve": 1}


PM_MUTANTS = [(5, 3), (7, 3), (3, 5)]


@pytest.mark.parametrize("pm", PM_MUTANTS, ids=lambda pm: f"{pm[0]},{pm[1]}")
@pytest.mark.parametrize("mutant", ["one_edge", "every_solve"])
def test_suite_divisor_matches_the_reference_when_only_the_solver_fails(models, pm, mutant,
                                                                        monkeypatch):
    # one_edge: the factor's step on the edge from LXYZ(2) down to Chain(m-1,1,2) is off by
    # one, as a wrong edge weight would make it, so the solver is wrong for every t_D with D
    # on that chain, whose least id is its end Chain(1,1,2). every_solve: the divisor LXYZ(2)
    # added to every solve, t_Fm's included, an error that does not depend on the targets;
    # w_Fm - V_Fm then holds it too, and the check fails at D = 0
    model = models[pm]
    lxyz, top = model.lxyz(2), model.chain(model.params.m - 1, 1, 2)
    factor, solve = GaugeSolver.__init__, GaugeSolver.solve

    def off_edge(self, *args):
        factor(self, *args)
        i = self._below.index(top)
        assert self._parents[i] == lxyz
        self._steps[i] += 1

    if mutant == "one_edge":
        monkeypatch.setattr(GaugeSolver, "__init__", off_edge)
        first = model.config.labels[model.chain(1, 1, 2)]
    else:
        monkeypatch.setattr(GaugeSolver, "solve",
                            lambda self, targets: solve(self, targets) + QDivisor.single(lxyz))
        first = model.config.labels[0]
    want = suite_divisor_reference(model)
    assert [(passed, detail) for _, passed, detail in want] == [
        (True, ""), (True, ""), (False, f"fails for D={first}")]
    assert _suite_divisor_triples(model) == want


@pytest.mark.parametrize("pm", PM_MUTANTS, ids=lambda pm: f"{pm[0]},{pm[1]}")
def test_suite_divisor_reference_catches_a_solver_off_on_one_branch(models, pm, monkeypatch):
    # a solver that is off on one branch whenever the targets ask for a negative value at
    # LXYZ(2): of the dense t_D only D = LXYZ(2)'s does. suite_divisor solves t_Fm alone and
    # takes every other solution from the tree (fiber._branch_steps), so this wrong solve is
    # the reference's to catch, solving every t_D through the production solver
    model = models[pm]
    lxyz = model.lxyz(2)
    solve = GaugeSolver.solve

    def off(self, targets):
        out = solve(self, targets)
        return out + QDivisor.single(lxyz) if targets.coeff(lxyz) < 0 else out

    monkeypatch.setattr(GaugeSolver, "solve", off)
    assert suite_divisor_reference(model)[2][1:] == (False, "fails for D=LXYZ(2)")


@pytest.mark.parametrize("pm", PM_MUTANTS, ids=lambda pm: f"{pm[0]},{pm[1]}")
@pytest.mark.parametrize("kind", ["Chain", "Fm", "LXYZ"])
def test_suite_divisor_matches_the_reference_when_only_a_closed_form_fails(models, pm, kind,
                                                                           monkeypatch):
    # (V_S . V_D) off by 1/N for every D of one kind: the relation and the solver still pass,
    # and the closed-form check names the first D of that kind
    model = models[pm]
    closed = divisors.vs_pair_closed

    def off_for_one_kind(params, lab):
        return closed(params, lab) + Fraction(lab.kind == kind, params.n)

    monkeypatch.setattr(divisors, "vs_pair_closed", off_for_one_kind)
    monkeypatch.setitem(globals(), "vs_pair_closed", off_for_one_kind)
    first = next(label for label in model.config.labels if label.kind == kind)
    want = suite_divisor_reference(model)
    assert [(passed, detail) for _, passed, detail in want] == [
        (True, ""), (False, f"(V_S.V_D) fails for D={first}"), (True, "")]
    assert _suite_divisor_triples(model) == want


@pytest.mark.parametrize("pm", PM_MUTANTS, ids=lambda pm: f"{pm[0]},{pm[1]}")
@pytest.mark.parametrize("part", ["own", "base"])
def test_suite_divisor_matches_the_reference_when_one_part_is_off(models, pm, part, monkeypatch):
    # own: the correction at j = r of D = Chain(r, 2, 2), r = m - 1, is off by 1/N; base:
    # V_LXYZ(2)'s j/N at Chain(1, 1, 2) is, so every D of that base is off. v_divisor adds
    # the two parts, so the reference sees the same V_D, and the relation names the first D
    model = models[pm]
    m, n = model.params.m, model.params.n
    name, key, first = {"own": ("v_own", model.chain(m - 1, 2, 2), model.chain(m - 1, 2, 2)),
                        "base": ("v_base", model.lxyz(2), model.chain(1, 1, 2))}[part]
    part_of = getattr(divisors, name)

    def off(model_, cid):
        out, what = part_of(model_, cid), QDivisor.from_numerators({first: 1}, n)
        if cid != key:
            return out
        if name == "v_base":
            return out + what
        own = QDivisor.from_numerators(*out[1:]) + what
        return out[0], own.numerators(), own.denominator

    monkeypatch.setattr(divisors, name, off)
    want = suite_divisor_reference(model)
    assert want[0][1:] == (False, f"fails for D={model.config.labels[first]}")
    assert _suite_divisor_triples(model) == want


def test_suite_beta_builds_v_fm_once_and_each_v_s_once(model53, monkeypatch):
    # G_S = V_S - V_Fm and U_S = u_s(model, V_S) reuse one V_Fm and the three cusps' V_S
    import ffk.divisors

    calls = []
    v_divisor = ffk.divisors.v_divisor
    monkeypatch.setattr(ffk.divisors, "v_divisor",
                        lambda model, cid: calls.append(cid) or v_divisor(model, cid))
    checks = suite_beta([model53])
    assert all(c.passed for c in checks)
    assert len(calls) == len(set(calls)) == 4


def test_suite_bounds_builds_v_s_once(model53, model73, monkeypatch):
    # G_S = V_S - V_Fm reuses the one V_S: two v_divisor calls per model
    import ffk.divisors

    calls = []
    v_divisor = ffk.divisors.v_divisor
    monkeypatch.setattr(ffk.divisors, "v_divisor",
                        lambda model, cid: calls.append(cid) or v_divisor(model, cid))
    checks = suite_bounds([model53, model73], scan_to=200)
    assert all(c.passed for c in checks)
    assert calls == [model53.cusp(1, 1), model53.fm, model73.cusp(1, 1), model73.fm]


def test_u_s_identities(model53):
    params = model53.params
    ln = lambda_nu(params)
    b = params.n * ln.total
    us = u_s(model53, v_s(model53))
    assert canonical_pair(model53.config, us) == (2 * params.m - 3) * b
    assert canonical_pair(model53.config, us) == Fraction(3, 16)
    x = v_s(model53).scale(2) + us
    assert pair(model53.config, x, x) == -b * b == Fraction(-1, 256)


def test_u_s_identities_all(models):
    for model in models.values():
        params = model.params
        b = params.n * lambda_nu(params).total
        us = u_s(model, v_s(model))
        assert canonical_pair(model.config, us) == (2 * params.m - 3) * b
        x = v_s(model).scale(2) + us
        assert pair(model.config, x, x) == -b * b


@pytest.mark.parametrize("pm, cusps", [((5, 3), [(1, 1), (2, 3), (9, 5)]),
                                       ((7, 3), [(1, 1), (4, 2), (9, 7)]),
                                       ((3, 7), [(1, 1), (11, 2), (21, 3)])])
def test_u_s_matches_divisor_algebra(models, pm, cusps):
    # the defining algebra (lambda+nu)(2F + p Fm) - 2 V_S, one QDivisor operation at a time
    model = models[pm]
    total = lambda_nu(model.params).total
    x = model.config.fiber_divisor().scale(2) + QDivisor.single(model.fm, model.params.p)
    for cusp in cusps:
        want = x.scale(total) - v_s(model, cusp).scale(2)
        got = u_s(model, v_s(model, cusp))
        assert got == want
        assert list(got.numerators()) == list(want.numerators())


def test_semipositivity(models):
    for model in models.values():
        vals = dict(semipos_check(model))
        assert min(vals.values()) >= 0
        # equality exactly on the chain and leaf cells, as the u_s docstring states
        for cell, v in vals.items():
            assert (v == 0) == (cell.kind in ("Chain", "LgammaLeaf")), cell
        params = model.params
        ln = lambda_nu(params)
        g = params.genus
        want_delta = (params.p - 2) * Fraction(g, g - 1) - params.p * ln.total
        if model.census()["Ldelta"]:
            assert vals[FermatLabel("Ldelta", 1)] == want_delta


@pytest.mark.parametrize("quantity", [beta_s, semipos_check])
def test_cusp_quantities_read_the_one_u_s_evaluator(model53, monkeypatch, quantity):
    calls = []

    def recording(*args, _values=divisors.u_s_values):
        calls.append(args)
        return _values(*args)

    monkeypatch.setattr(divisors, "u_s_values", recording)
    quantity(model53, (1, 1))
    assert len(calls) == 1


def test_beta_values(model53, model35):
    assert beta_s(model53) == Fraction(4413, 11648)
    # the two closed forms must agree at (p=3, m=5) as well
    params = model35.params
    b = params.n * lambda_nu(params).total
    want = b * (b * Fraction(params.genus - 1, params.genus) + 4 * params.m - 6)
    assert beta_s(model35) == want


def test_beta_cusp_independence(models):
    for model in models.values():
        p, m = model.params.p, model.params.m
        cusps = [(1, 1), (2, 3), (3 * m, p)]
        betas = {beta_s(model, c) for c in cusps}
        assert len(betas) == 1
        gsq = {pair(model.config, g_s(model, c), g_s(model, c)) for c in cusps}
        assert len(gsq) == 1


def test_beta_positive(models):
    for model in models.values():
        assert beta_s(model) > 0


def test_g_s_values(model53, model73):
    gs = g_s(model53)
    assert pair(model53.config, gs, gs) == Fraction(-11, 15)
    gs73 = g_s(model73)
    assert pair(model73.config, gs73, gs73) == Fraction(-5, 7)


def test_g_s_pairing_profile(model53):
    # (S + G_S . C) = 0 away from Fm, 1/p at Fm
    gs = g_s(model53)
    prof = pair_profile(model53.config, gs)
    target = model53.chain(1, 1, 1)
    assert prof == {model53.fm: Fraction(1, 5), target: Fraction(-1)}


def test_per_prime_geometric(model53, model35):
    assert per_prime_geometric(model53) == Fraction(133, 60)
    assert per_prime_geometric(model35) == Fraction(407, 180)


def test_per_prime_geometric_positive(models):
    for model in models.values():
        assert per_prime_geometric(model) > 0


def test_u_s_probe_reports(model53):
    results = {c.name: c for c in u_s_probe(model53)}
    assert results["u_s[adopted]"].passed
    # the printed per-family expansion fails the global identities
    assert not results["u_s[expansion]"].passed
    assert "pair_with_Ldelta=-1" in results["u_s[expansion]"].detail
    assert not results["u_s[weighted-vc]"].passed


def test_u_s_probe_makes_a_fixed_number_of_pairing_calls(models, monkeypatch):
    # every candidate is a cell divisor: each pairing runs on the cusp quotient, never on
    # the graph, and no representative V_C is built, so the probe is the same at every cusp
    import ffk.divisors

    calls = []
    for name in ("pair", "pairing_divisor"):
        def counted(config, *args, _orig=getattr(ffk.divisors, name), _name=name):
            calls.append((_name, config.sizes is not None))
            return _orig(config, *args)

        monkeypatch.setattr(ffk.divisors, name, counted)

    def no_v_divisor(*args):
        raise AssertionError("u_s_probe built a representative V_C")

    monkeypatch.setattr(ffk.divisors, "v_divisor", no_v_divisor)
    counts = []
    for pm in ((5, 3), (5, 7)):
        calls.clear()
        u_s_probe(models[pm])
        counts.append(len(calls))
        assert all(on_quotient for _, on_quotient in calls), calls
    assert counts[0] == counts[1] <= 12
    assert counts[0] < models[(5, 3)].config.n_components
    model = models[(5, 7)]
    want = u_s_probe(model)
    for cusp in product(range(1, 3 * 7 + 1), range(1, 5 + 1)):
        assert u_s_probe(model, cusp) == want, cusp


def test_chain_divisor_high_r():
    # r >= 2 representatives still satisfy the defining relation
    model = build_config(3, 7)
    cid = model.chain(4, 2, 5)
    vd = v_divisor(model, cid)
    prof = pair_profile(model.config, vd)
    two_g2 = 2 * model.params.genus - 2
    for c, a in enumerate(_a_values(model.config, range(model.config.n_components))):
        want = Fraction(a, two_g2)
        if c == cid:
            want -= Fraction(1, 4)
        assert prof.get(c, Fraction(0)) == want
