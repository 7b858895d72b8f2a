"""Identity suites: every exact claim the package encodes, as pass/fail checks.

The CLI's verify command runs these, and acceptance criteria 1-6 each run
one of them on the acceptance models. Checks return data (CheckResult), they
do not raise, so a single run reports every failure at once.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import itemgetter

from . import bounds, divisors, polyarith
from .errors import MathContractError, NoSolutionError, ParameterError
from .fiber import (
    CheckResult,
    GaugeSolver,
    QDivisor,
    _a_values,
    _branch_steps,
    _combined,
    _dot,
    _spread,
    i_c_values,
    pair,
    pair_profile,
    validate,
)
from .model import (
    FermatModel,
    build_config,
    expected_census,
    i_c_matches_pairing,
    transversality_check,
)

#: the (p, m) pairs the acceptance suites run on
ACCEPTANCE_PAIRS = ((3, 5), (5, 3), (3, 7), (7, 3), (5, 7), (7, 5), (3, 11), (11, 3))


# ---------------------------------------------------------------------------
# polynomial suite
# ---------------------------------------------------------------------------


def suite_polynomial() -> list[CheckResult]:
    out = []

    psi5 = polyarith.capital_psi(5)
    out.append(CheckResult("PsiCap(5) = a^2 - a + 1, also mod 5",
                           psi5 == (1, -1, 1) and polyarith.FpPoly(5, psi5).coeffs == (1, 4, 1)))

    psi7 = polyarith.FpPoly(7, polyarith.capital_psi(7))
    # (a+2)^2 (a+4)^2 over F_7 is monic, so "up to a unit" is equality of monic forms
    factor = polyarith.FpPoly(7, (2, 1)) * polyarith.FpPoly(7, (2, 1))
    factor = factor * polyarith.FpPoly(7, (4, 1)) * polyarith.FpPoly(7, (4, 1))
    out.append(CheckResult("PsiCap(7) mod 7 = unit*(a+2)^2 (a+4)^2", psi7.monic() == factor))

    for p, want in ((3, 0), (5, 0), (7, 2)):
        got = polyarith.double_root_count(p)
        out.append(CheckResult(f"double_root_count({p}) = {want}", got == want,
                               "" if got == want else f"got {got}"))

    mismatch = ""
    for p in range(3, polyarith.ORACLE_BOUND, 2):
        if not polyarith.is_prime(p):
            continue
        try:
            want = polyarith.double_roots_gcd(p)
        except MathContractError as exc:
            mismatch = str(exc)
            break
        got = polyarith.double_roots(p)
        if got != want:
            mismatch = f"p={p}: fast path {got}, gcd oracle {want}"
            break
    out.append(CheckResult(f"double_roots == gcd oracle for p < {polyarith.ORACLE_BOUND}",
                           not mismatch, mismatch))

    out.extend(CheckResult(f"splitting identity for (p, m) = ({p}, {m})",
                           polyarith.fermat_split_check(p, m)) for p, m in ACCEPTANCE_PAIRS)
    return out


# ---------------------------------------------------------------------------
# fiber/configuration suite
# ---------------------------------------------------------------------------


def suite_fiber(models: list[FermatModel]) -> list[CheckResult]:
    """Census, validate, transversality, I_C and cusp checks for each given model."""
    out = []
    for model in models:
        p, m, s = model.params.p, model.params.m, model.params.s
        tag = f"(p={p}, m={m})"

        want, got = expected_census(p, m, s), model.census()
        out.append(CheckResult(f"census {tag}", got == want,
                               "" if got == want else f"got {got}, want {want}"))
        out += [_retag(chk, tag) for chk in validate(model.config)]
        out.append(CheckResult(f"transversality identity {tag}", transversality_check(model)))
        out.append(CheckResult(f"I_C = (C . F - d_C C) for all C {tag}",
                               i_c_matches_pairing(model)))

        ics = i_c_values(model.config)
        ic_ok = (
            all(ics[model.chain(j, 1, 1)] == 2 * j for j in range(1, m))
            and ics[model.lxyz(1)] == p + p * (m - 1)
            and ics[model.fm] == m * m * p
        )
        out.append(CheckResult(f"I_C table values {tag}", ic_ok))

        mult = model.config.multiplicities
        ends = {cid for cid, lab in enumerate(model.config.labels)
                if lab.kind == "Chain" and lab.j == 1 and mult[cid] == 1}
        out.append(CheckResult(f"cusp sections biject with mult-1 chain ends {tag}",
                               set(model.cusps) == ends and len(model.cusps) == 3 * model.params.n))
    return out


# ---------------------------------------------------------------------------
# divisor suite
# ---------------------------------------------------------------------------


def _fm_targets(model: FermatModel) -> QDivisor:
    """t_Fm = sum_C (a_C/(2g-2) - delta_{Fm,C}/d_Fm) C, the relation's targets for D = Fm."""
    config = model.config
    two_g2 = 2 * model.params.genus - 2
    d_fm = config.multiplicities[model.fm]
    den = lcm(two_g2, d_fm)
    k = den // two_g2
    num = dict(enumerate(a * k for a in _a_values(config, range(config.n_components))))
    num[model.fm] -= den // d_fm
    return QDivisor.from_numerators(num, den)


def gauge_reproduction(model: FermatModel, v_fm: QDivisor, t_fm: QDivisor):
    """(GaugeSolver(config, Fm), w_Fm - V_Fm, ""), w_Fm = solve(t_Fm) + (c/d_Fm) F.

    w_Fm solves t_Fm with Fm coefficient c = (p-2)/(2g-2), V_Fm's. The solver reproduces
    V_D iff solve(t_D - t_Fm) is V_D - w_Fm; the sweep checks that edge by edge, solving
    t_Fm alone. Returns (None, None, detail) instead on a fiber the solver cannot factor,
    or on a NoSolutionError for t_Fm: every t_D - t_Fm is orthogonal to the fiber, so
    every t_D raises it, and the check fails at component 0 with the same sum d_C t_C.
    """
    config, params = model.config, model.params
    try:
        solver = GaugeSolver(config, model.fm)
    except MathContractError as exc:
        return None, None, str(exc)
    try:
        w_fm = solver.solve(t_fm)
    except NoSolutionError as exc:
        return None, None, f"fails for D={config.label(0)}: {exc}"
    d_fm = config.multiplicities[model.fm]
    shift = config.fiber_divisor().scale(Fraction(params.p - 2, (2 * params.genus - 2) * d_fm))
    return solver, w_fm + shift - v_fm, ""


def representative_relation_full(model: FermatModel) -> tuple[CheckResult, ...]:
    """The relation for every pair (D, C), the closed forms and the solver, in one sweep.

    V_D = V_B + H_D (divisors.v_own), and with prof(V) = sum_C (V . C) C the sweep pairs
    G_B = V_B - V_Fm once per base and only H_D per D, in integers. With step = t_D - t_Fm
    = Fm/d_Fm - D/d_D, prof(V_D) = t_D iff prof(H_D) = step + S_B, S_B = t_Fm - prof(V_Fm)
    - prof(G_B); V_D^2 = B.prof(B) + 2 H_D.prof(B) + H_D.prof(H_D), the pairing being
    symmetric; (V_S.V_D) = V_S.prof(B) + V_S.prof(H_D). The solver check is the factor,
    the t_Fm solve and, on each edge P -> D of the tree under Fm, solve(t_D - t_P) = F|_A/w
    (fiber._branch_steps), so E_D = V_D - w_Fm - solve(step) is E_P + (V_D - V_P) - F|_A/w
    from E_Fm = V_Fm - w_Fm; the solver reproduces V_D iff E_D = 0. The sweep follows the
    solver's depth-first order, holding B, H and E of D's ancestors on a stack, or id order
    if the factor fails. Each check keeps its least failing D, n while none fails.
    """
    config, fm, params, n = model.config, model.fm, model.params, model.config.n_components
    labels, mult = config.labels, config.multiplicities
    v_fm, t_fm, vs = divisors.v_base(model, fm), _fm_targets(model), divisors.v_s(model)
    solver, rest, solved = gauge_reproduction(model, v_fm, t_fm)
    vfm, fm_den, d_fm = v_fm.numerators(), v_fm.denominator, mult[fm]
    fm_prof = _spread(config, vfm)
    miss = t_fm - QDivisor.from_numerators(fm_prof, fm_den)  # empty on a good fiber
    miss, vs, vs_den = (miss.numerators(), miss.denominator), vs.numerators(), vs.denominator
    fm_self, vs_fm = _dot(vfm, fm_prof), _dot(vs, fm_prof)

    def base(vb):
        """G_B and prof(G_B) over one den, S_B, B . prof(B) and V_S . prof(B)."""
        g, den = _combined(-1, (vb.numerators(), vb.denominator), (vfm, fm_den))
        g = dict(filter(itemgetter(1), g.items()))  # without Fm
        prof, k = _spread(config, g), den // fm_den  # k prof(V_Fm) is over den
        s, sden = _combined(-1, miss, (prof, den))
        return (g, den, prof, k, (dict(filter(itemgetter(1), s.items())), sden),
                fm_self * k * k + 2 * _dot(g, fm_prof) * k + _dot(g, prof),  # over den^2
                vs_fm * k + _dot(prof, vs))

    bases, forms, relation, closed, solved_at = {fm: base(v_fm)}, {}, n, (n, ""), n
    stack = solver and [(None, fm, ({}, 1), QDivisor() - rest)]  # (D, B, H_D, E_D), D's parent
    for cid, par, f_a in _branch_steps(solver) if solver else ((c, 0, 0) for c in range(n)):
        label = labels[cid]
        bid, h, hden = divisors.v_own(model, cid)
        if bid not in bases:
            bases[bid] = base(divisors.v_base(model, bid))
        g, den, prof, k, s_b, b_sq, b_vs = bases[bid]
        h_prof = _spread(config, h)
        if cid < relation and any(_combined(-1, (h_prof, hden), ({fm: 1}, d_fm),
                                            ({cid: -1}, mult[cid]), s_b)[0].values()):
            relation = cid
        if cid < closed[0]:
            key = divisors.closed_form_class(label)
            if key not in forms:
                forms[key] = (divisors.v_self_closed(params, label),
                              divisors.vs_pair_closed(params, label))
            (want_sq, want_vs), bh = forms[key], den * hden
            h_b = _dot(h, fm_prof) * k + _dot(h, prof)  # H_D . prof(B), over bh
            sq = b_sq * hden * hden + 2 * h_b * bh + _dot(h, h_prof) * den * den
            if sq * want_sq.denominator != want_sq.numerator * bh * bh:
                closed = cid, "V_D^2"
            elif ((b_vs * hden + _dot(h_prof, vs) * den) * want_vs.denominator
                  != want_vs.numerator * vs_den * bh):
                closed = cid, "(V_S.V_D)"
        if solver:
            while stack[-1][0] != par:
                stack.pop()
            _, pbid, p_own, e = stack[-1]
            whole, parts = (h, hden), [p_own, f_a]
            if bid != pbid:  # V_D - V_P holds G_D - G_P too
                whole, parts = _combined(1, whole, (g, den)), parts + [bases[pbid][:2]]
            delta = _combined(-1, whole, *parts)  # zero on a good fiber
            e = e + QDivisor.from_numerators(*delta) if any(delta[0].values()) else e
            stack.append((cid, bid, (h, hden), e))
            solved_at = cid if e and cid < solved_at else solved_at
        elif relation < n and closed[0] < n:
            break
    names = ("representative pairing relation (all pairs)", "self/cross closed forms",
             "gauged solver reproduces representatives")
    fails = (relation < n and f"fails for D={labels[relation]}",
             closed[0] < n and f"{closed[1]} fails for D={labels[closed[0]]}",
             solved or solved_at < n and f"fails for D={labels[solved_at]}")
    return tuple(CheckResult(name, not fail, fail or "") for name, fail in zip(names, fails))


def suite_divisor(models: list[FermatModel]) -> list[CheckResult]:
    """One sweep over each given model's components: relation, closed forms and solver."""
    return [_retag(chk, f"(p={model.params.p}, m={model.params.m})")
            for model in models for chk in representative_relation_full(model)]


def suite_beta(models: list[FermatModel]) -> list[CheckResult]:
    """beta, G_S^2 and the U_S identities on the full graph of each given model, at three cusps.

    Builds V_Fm once per model and V_S once per cusp; U_S is u_s of that V_S and
    G_S = V_S - V_Fm, so each model takes four v_divisor calls.
    """
    out = []
    for model in models:
        params = model.params
        p, m, n = params.p, params.m, params.n
        tag = f"(p={p}, m={m})"
        config = model.config
        cusps = [(1, 1), (2, 3), (3, p)]

        v_fm = divisors.v_divisor(model, model.fm)
        v_ss = [divisors.v_s(model, c) for c in cusps]
        # (2V_S+U_S)^2 and (K . U_S) feed both the beta check and the identity checks
        values = [divisors.u_s_values(config, vs, divisors.u_s(model, vs), model.cusp(*c))
                  for c, vs in zip(cusps, v_ss)]
        try:
            betas = [divisors.beta_graph(params, sq, canonical) for sq, canonical, _ in values]
            beta_ok = len(set(betas)) == 1
            detail = ""
        except MathContractError as exc:
            beta_ok, betas, detail = False, [], str(exc)
        out.append(CheckResult(f"beta graph = closed form, all cusps {tag}", beta_ok, detail))

        if betas:
            closed69 = bounds.beta_sp_closed(n, p)
            out.append(CheckResult(f"beta equals alpha-polynomial closed form {tag}",
                                   betas[0] == closed69,
                                   "" if betas[0] == closed69 else f"{betas[0]} != {closed69}"))

        g_ss = [vs - v_fm for vs in v_ss]
        want_gs = -Fraction(n - p + 1, n)
        out.append(CheckResult(f"G_S^2 = -(N-p+1)/N, all cusps {tag}",
                               all(pair(config, gs, gs) == want_gs for gs in g_ss)))

        squares, canonicals, minima = zip(*(divisors.u_s_identities(params, v) for v in values))
        out.append(CheckResult(f"square identity for 2V_S+U_S {tag}", all(squares)))
        out.append(CheckResult(f"canonical pairing of U_S {tag}", all(canonicals)))
        out.append(CheckResult(f"semipositivity at every component {tag}", min(minima) >= 0))

        es_ok = True
        for c, gs in zip(cusps, g_ss):
            prof = pair_profile(config, gs)
            want = {model.fm: Fraction(1, p), model.cusp(*c): Fraction(-1)}
            es_ok &= prof == want
        out.append(CheckResult(f"(S + G_S) pairing profile {tag}", es_ok))
    return out


def _retag(chk: CheckResult, tag: str) -> CheckResult:
    return CheckResult(f"{chk.name} {tag}", chk.passed, chk.detail)


# ---------------------------------------------------------------------------
# fundamental cycles
# ---------------------------------------------------------------------------


def suite_cycles(models: list[FermatModel]) -> list[CheckResult]:
    """The fundamental cycles of each given model have arithmetic genus 0.

    Each chain Chain(1..m-1, k, i) is the id run from its end in model.cusps
    (the model docstring); each leaf is found by its label. A model whose
    config does not carry the docstring's labels fails the check. A cycle D, the
    sum of its run, has p_a = 1 + (D^2 + K.D)/2 with D^2 = sum C^2 plus twice the points
    inside the run and K.C = -C^2 + 2g_C - 2, so D^2 + K.D reads the genera, not C^2: a
    wrong self-intersection passes here; fiber orthogonality sees it.
    """
    out = []
    for model in models:
        p, m = model.params.p, model.params.m
        config = model.config
        genera, nbrs = config.genera, config._nbrs
        try:
            cycles = [range(end, end + m - 1) for end in model.cusps]
        except ParameterError:
            cycles = None
        else:
            cycles += [range(cid, cid + 1) for cid, lab in enumerate(config.labels)
                       if lab.kind == "LgammaLeaf"]
        ok = cycles is not None and all(
            sum(2 * genera[cid] - 2
                + sum(cnt for x, cnt in nbrs[cid].items() if run.start <= x < run.stop)
                for cid in run) == -2
            for run in cycles)
        out.append(CheckResult(f"fundamental cycles have p_a = 0 (p={p}, m={m})", ok))
    return out


# ---------------------------------------------------------------------------
# bounds suite
# ---------------------------------------------------------------------------


def suite_bounds(models: list[FermatModel], scan_to: int = 10**4) -> list[CheckResult]:
    """Q(N,p) and beta closed forms for each given model, then the scan up to
    scan_to, streamed through bounds.scan so that one block of rows is held.

    G_S = V_S - V_Fm is formed from the one V_S, so each model takes two
    v_divisor calls.
    """
    out = []
    for model in models:
        params = model.params
        n, p = params.n, params.p
        tag = f"(p={p}, m={params.m})"
        vs = divisors.v_s(model)
        gs = divisors.g_s(model, vs=vs)
        try:
            graph = divisors.geometric_graph(params, pair(model.config, vs, vs),
                                             pair(model.config, gs, gs))
            ok = graph == bounds.q_np(n, p)
            detail = ""
        except MathContractError as exc:
            ok, detail = False, str(exc)
        out.append(CheckResult(f"per-prime geometric = Q(N,p) {tag}", ok, detail))
        out.append(CheckResult(f"beta closed forms agree {tag}",
                               bounds.beta_sp_closed(n, p) == divisors.beta_closed(params)))
    name = f"strict lower/simple inequality for all N <= {scan_to}"
    rows = 0
    strict = True
    try:
        for *_, ratio in bounds.scan(scan_to):
            rows += 1
            strict = strict and ratio > 1
        out.append(CheckResult(name, strict, f"{rows} values of N"))
    except MathContractError as exc:
        out.append(CheckResult(name, False, str(exc)))
    return out


#: each suite, given the acceptance models built once per run_suites call
SUITES = {
    "polynomial": lambda models: suite_polynomial(),
    "fiber": lambda models: suite_fiber(models),
    "divisor": lambda models: suite_divisor(models) + suite_beta(models) + suite_cycles(models),
    "bounds": lambda models: suite_bounds(models),
}


def run_suites(which: str = "all") -> list[CheckResult]:
    if which == "all":
        names = list(SUITES)
    elif which in SUITES:
        names = [which]
    else:
        raise ParameterError(f"unknown suite {which!r}; choose from all, " + ", ".join(SUITES))
    models = [] if names == ["polynomial"] else [build_config(p, m) for p, m in ACCEPTANCE_PAIRS]
    results = []
    for name in names:
        results.extend(SUITES[name](models))
    return results
