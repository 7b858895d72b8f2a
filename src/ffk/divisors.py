"""Vertical Q-divisors on a Fermat fiber and their exact intersection identities.

For every component D there is a representative V_D with

    (V_D . C) = a_C/(2g-2) - delta_{D,C}/d_D        for all components C,

anchored by V_Fm = (p-2)/(2g-2) Fm. The cusp divisor V_S, the auxiliary
divisor U_S, and the pullback shadow G_S = V_S - V_Fm drive the per-prime
quantities entering the dualizing-sheaf bounds. Everything here is exact; a
mismatch between a closed form and the graph pairing raises, it never rounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import cycle
from math import lcm

from .bounds import q_np
from .errors import MathContractError
from .fiber import (
    CheckResult,
    QDivisor,
    a_number,
    canonical_pair,
    pair,
    pairing_divisor,
)
from .model import FermatLabel, FermatModel, FermatParams


@dataclass(frozen=True)
class LambdaNu:
    """The two base rationals of the divisor calculus: lambda < 0 < nu."""

    lam: Fraction
    nu: Fraction

    def __post_init__(self):
        if not self.lam < 0 < self.nu:
            raise MathContractError(f"expected lambda < 0 < nu, got {self}")

    @property
    def total(self) -> Fraction:
        return self.lam + self.nu


def lambda_nu(params: FermatParams) -> LambdaNu:
    p, m, g = params.p, params.m, params.genus
    lam = -Fraction(m * (p - 2), 2 * (g - 1)) ** 2
    nu = Fraction(p - 2, p * (g - 1))
    return LambdaNu(lam, nu)


def beta_closed(params: FermatParams) -> Fraction:
    """beta_{S,p} in closed form: N(lambda+nu)(N(lambda+nu)(g-1)/g + 4m - 6)."""
    g = params.genus
    b = params.n * lambda_nu(params).total
    return b * (b * Fraction(g - 1, g) + 4 * params.m - 6)


def mu_chain(params: FermatParams, j: int, k: int) -> Fraction:
    """Chain coefficient of V_S: (j - jp + N)/N on the cusp chain, j/N elsewhere."""
    n = params.n
    if k == 1:
        return Fraction(j - j * params.p + n, n)
    return Fraction(j, n)


# ---------------------------------------------------------------------------
# the component representatives
# ---------------------------------------------------------------------------


def v_divisor(model: FermatModel, cid: int) -> QDivisor:
    """The representative V_D for component D, gauged by its Fm coefficient.

    Satisfies (V_D . C) = a_C/(2g-2) - delta_{D,C}/d_D exactly, for every C.
    Built as integer numerators over lcm(2g-2, 2N, r m), r = j for Chain(j,k,i).
    """
    params = model.params
    p, m, n = params.p, params.m, params.n
    lab: FermatLabel = model.config.component(cid).label
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


def v_self_closed(model: FermatModel, cid: int) -> Fraction:
    """Closed form for V_D^2, by the kind of D."""
    params = model.params
    ln = lambda_nu(params)
    p, n = params.p, params.n
    lab: FermatLabel = model.config.component(cid).label
    base = ln.lam + ln.nu
    if lab.kind == "Fm":
        return ln.lam
    if lab.kind == "Ldelta":
        return base - Fraction(1, p)
    if lab.kind == "Lgamma":
        return base - Fraction(1, 2 * p)
    if lab.kind == "LgammaLeaf":
        return base - Fraction(1 + p, 2 * p)
    if lab.kind == "LXYZ":
        return base - Fraction(1, n)
    r = lab.j
    return base - mu_chain(params, r, 1) / r


def vs_pair_closed(model: FermatModel, cid: int, cusp: tuple[int, int] = (1, 1)) -> Fraction:
    """Closed form for (V_S . V_D), cusp at Chain(1, k, i)."""
    params = model.params
    ci, ck = cusp
    ln = lambda_nu(params)
    lab: FermatLabel = model.config.component(cid).label
    if lab.kind == "Fm":
        return ln.lam + ln.nu / 2
    base = ln.lam + ln.nu
    if lab.kind in ("Ldelta", "Lgamma", "LgammaLeaf"):
        return base
    if lab.kind == "LXYZ":
        return base - (Fraction(1, params.n) if lab.i == ci else 0)
    r = lab.j
    if lab.i != ci:
        return base
    out = base - Fraction(1, params.n)
    if lab.k == ck:
        out -= Fraction(params.m - r, r * params.m)
    return out


# ---------------------------------------------------------------------------
# cusp divisors
# ---------------------------------------------------------------------------


def v_s(model: FermatModel, cusp: tuple[int, int] = (1, 1)) -> QDivisor:
    """V_S = V_{Chain(1,k,i)} for the cusp meeting that chain end."""
    return v_divisor(model, model.cusp(*cusp).target)


def g_s(model: FermatModel, cusp: tuple[int, int] = (1, 1)) -> QDivisor:
    """G_S = V_S - V_Fm: the vertical shadow of the cusp section.

    (S + G_S . C) = 0 for every C except Fm, where it is 1/p.
    """
    return v_s(model, cusp) - v_divisor(model, model.fm)


def u_s(model: FermatModel, cusp: tuple[int, int] = (1, 1)) -> QDivisor:
    """The auxiliary divisor U_S = (lambda+nu)(2 F + p Fm) - 2 V_S.

    This is the unique natural divisor satisfying all the stated global
    identities at once: (2V_S + U_S)^2 = -(N(lambda+nu))^2, the canonical
    pairing (K . U_S) = (2m-3) N (lambda+nu), and semipositivity
    a_C + 2(S . C) - (U_S . C) >= 0 with equality exactly on the chain and
    leaf components. See u_s_probe for the printed alternatives.

    With lambda+nu = a/b and V_S = sum v_C/e C, the numerators over b e are
    a e (2 d_C + p [C = Fm]) - 2 b v_C, built in one pass and normalised once.
    """
    total = lambda_nu(model.params).total
    vs = v_s(model, cusp)
    e = vs.denominator
    ae, b = total.numerator * e, total.denominator
    num = {c.cid: 2 * ae * c.multiplicity for c in model.config.components}
    num[model.fm] += ae * model.params.p
    for cid, v in vs.numerators().items():
        num[cid] -= 2 * b * v
    return QDivisor.from_numerators(num, b * e)


def _semipositivity(model: FermatModel, us: QDivisor, cusp: tuple[int, int]):
    """Numerators of a_C + 2(S.C) - (U.C) by component id, and their common denominator."""
    config = model.config
    target = model.cusp(*cusp).target
    prof = pairing_divisor(config, us)
    den, get = prof.denominator, prof.numerators().get
    vals = [
        (a_number(config, c.cid) + 2 * (c.cid == target)) * den - get(c.cid, 0)
        for c in config.components
    ]
    return vals, den


def semipos_check(model: FermatModel, cusp: tuple[int, int] = (1, 1)):
    """Values a_C + 2(S.C) - (U_S.C) per component; all must be >= 0."""
    vals, den = _semipositivity(model, u_s(model, cusp), cusp)
    return [(cid, Fraction(v, den)) for cid, v in enumerate(vals)]


def _square_and_canonical(config, vs: QDivisor, us: QDivisor) -> tuple[Fraction, Fraction]:
    """(2V_S + U)^2 and (K . U)."""
    x = vs.scale(2) + us
    return pair(config, x, x), canonical_pair(config, us)


def u_s_values(
    model: FermatModel, vs: QDivisor, us: QDivisor, cusp: tuple[int, int]
) -> tuple[Fraction, Fraction, Fraction]:
    """(2V_S + U)^2, (K . U) and min_C a_C + 2(S.C) - (U.C) for a divisor U, given V_S."""
    vals, den = _semipositivity(model, us, cusp)
    return (*_square_and_canonical(model.config, vs, us), Fraction(min(vals), den))


def u_s_identities(
    params: FermatParams, values: tuple[Fraction, Fraction, Fraction]
) -> tuple[bool, bool, Fraction]:
    """Judge u_s_values against the identities stated for U_S.

    Returns whether (2V_S + U)^2 = -(N(lambda+nu))^2, whether
    (K . U) = (2m-3) N (lambda+nu), and the semipositivity minimum.
    """
    square, canonical, semi = values
    b = params.n * lambda_nu(params).total
    return square == -b * b, canonical == (2 * params.m - 3) * b, semi


def beta_graph(params: FermatParams, square: Fraction, canonical: Fraction) -> Fraction:
    """(1-g)/g (2V_S+U_S)^2 + 2 (K . U_S), asserted equal to beta_closed."""
    g = params.genus
    graph = Fraction(1 - g, g) * square + 2 * canonical
    closed = beta_closed(params)
    if graph != closed:
        raise MathContractError(
            f"beta_S mismatch: graph {graph}, closed form {closed}"
        )
    return graph


def beta_s(model: FermatModel, cusp: tuple[int, int] = (1, 1)) -> Fraction:
    """Per-prime lower-bound quantity beta_{S,p}.

    Computed from the graph as (1-g)/g (2V_S+U_S)^2 + 2 (K . U_S) and from
    beta_closed; both must agree exactly.
    """
    vs, us = v_s(model, cusp), u_s(model, cusp)
    return beta_graph(model.params, *_square_and_canonical(model.config, vs, us))


def per_prime_geometric(model: FermatModel, cusp: tuple[int, int] = (1, 1)) -> Fraction:
    """-2g G_S^2 + (2g-2) V_S^2, asserted equal to the closed rational Q(N,p)."""
    params = model.params
    g, n, p = params.genus, params.n, params.p
    config = model.config
    gs = g_s(model, cusp)
    vs = v_s(model, cusp)
    graph = -2 * g * pair(config, gs, gs) + (2 * g - 2) * pair(config, vs, vs)
    closed = q_np(n, p)
    if graph != closed:
        raise MathContractError(
            f"per-prime geometric mismatch: graph {graph}, closed form {closed}"
        )
    return graph


# ---------------------------------------------------------------------------
# consistency probe for the U_S candidates
# ---------------------------------------------------------------------------


def u_s_candidates(model: FermatModel, cusp: tuple[int, int] = (1, 1)) -> dict[str, QDivisor]:
    """The candidate U_S definitions the source text offers, plus the adopted one.

    'expansion': the explicit per-family expansion (the printed list, with the
    chain corrections it carries); 'weighted-vc': sum_C d_C (2(V_C.V_S) - V_C^2) C;
    'adopted': the definition u_s() uses.
    """
    params = model.params
    p, m, n = params.p, params.m, params.n
    config = model.config
    vs = v_s(model, cusp)
    ci, ck = cusp

    expansion: dict[int, Fraction] = {}
    for c in config.components:
        lab: FermatLabel = c.label
        if lab.kind == "Ldelta" or lab.kind == "Lgamma":
            expansion[c.cid] = Fraction(1, p)
        elif lab.kind == "LgammaLeaf":
            expansion[c.cid] = Fraction(1 + p, p)
        elif lab.kind == "LXYZ":
            expansion[c.cid] = Fraction(1, p) - (Fraction(2, p) if lab.i == ci else 0)
        elif lab.kind == "Chain":
            j = lab.j
            val = j * mu_chain(params, j, 1)
            if lab.i == ci:
                val -= Fraction(2 * j, n)
                if lab.k == ck:
                    val -= Fraction(2 * (m - j), m)
            expansion[c.cid] = val

    # (V_C . V_S) is a dot product with V_S's pairing profile, taken once; V_C^2
    # follows from the representative relation (V_C . D) = a_D/(2g-2) - delta_{C,D}/d_C,
    # which suite_divisor checks for every pair (C, D)
    vs_profile = pairing_divisor(config, vs)
    two_g2 = 2 * params.genus - 2
    weighted: dict[int, Fraction] = {}
    for c in config.components:
        vc = v_divisor(model, c.cid)
        vc_sq = canonical_pair(config, vc) / two_g2 - vc.coeff(c.cid) / c.multiplicity
        t = 2 * vc.dot(vs_profile) - vc_sq
        if t:
            weighted[c.cid] = c.multiplicity * t

    return {
        "expansion": QDivisor(expansion),
        "weighted-vc": QDivisor(weighted),
        "adopted": u_s(model, cusp),
    }


def u_s_probe(model: FermatModel, cusp: tuple[int, int] = (1, 1)) -> list[CheckResult]:
    """Evaluate each U_S candidate against the stated identities.

    Reports, per candidate: the square identity for 2V_S + U_S, the canonical
    pairing value, the pairing against a multiplicity-one self -p component,
    and semipositivity.
    """
    config = model.config
    vs = v_s(model, cusp)
    deltas = [c.cid for c in config.components if c.label.kind == "Ldelta"]
    results = []
    for name, cand in u_s_candidates(model, cusp).items():
        sq_ok, ku_ok, semi = u_s_identities(model.params, u_s_values(model, vs, cand, cusp))
        ld = pair(config, cand, QDivisor.single(deltas[0])) if deltas else None
        results.append(
            CheckResult(
                f"u_s[{name}]",
                sq_ok and ku_ok and semi >= 0,
                f"square={'ok' if sq_ok else 'FAIL'} canonical={'ok' if ku_ok else 'FAIL'} "
                f"semipos_min={semi} pair_with_Ldelta={ld}",
            )
        )
    return results
