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

from .bounds import q_np
from .errors import MathContractError
from .fiber import (
    CheckResult,
    QDivisor,
    a_number,
    canonical_pair,
    pair,
    pair_component,
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
    """
    params = model.params
    p, m, n = params.p, params.m, params.n
    lab: FermatLabel = model.config.component(cid).label
    coeffs = {model.fm: Fraction(p - 2, 2 * params.genus - 2)}
    if lab.kind == "Fm":
        pass
    elif lab.kind == "Ldelta":
        coeffs[cid] = Fraction(1, p)
    elif lab.kind in ("Lgamma", "LgammaLeaf"):
        i = lab.i
        coeffs[model.lgamma(i)] = Fraction(1, p)
        for j in range(1, p + 1):
            coeffs[model.leaf(j, i)] = Fraction(1, 2 * p)
        if lab.kind == "LgammaLeaf":
            coeffs[cid] = coeffs[cid] + Fraction(1, 2)
    elif lab.kind in ("LXYZ", "Chain"):
        i = lab.i
        coeffs[model.lxyz(i)] = Fraction(1, p)
        for j in range(1, m):
            for k in range(1, p + 1):
                coeffs[model.chain(j, k, i)] = Fraction(j, n)
        if lab.kind == "Chain":
            r, kk = lab.j, lab.k
            for j in range(1, r):
                coeffs[model.chain(j, kk, i)] += Fraction(j * (m - r), r * m)
            for j in range(r, m):
                coeffs[model.chain(j, kk, i)] += Fraction(m - j, m)
    else:  # pragma: no cover
        raise MathContractError(f"unknown component kind {lab.kind}")
    return QDivisor(coeffs)


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


def v_self(model: FermatModel, cid: int) -> Fraction:
    """V_D^2: the closed form, asserted equal to the graph pairing."""
    vd = v_divisor(model, cid)
    got = pair(model.config, vd, vd)
    want = v_self_closed(model, cid)
    if got != want:
        raise MathContractError(
            f"V_D^2 mismatch for D={model.config.component(cid).label}: "
            f"graph {got}, closed form {want}"
        )
    return got


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
    """
    params = model.params
    ln = lambda_nu(params)
    fpi = model.config.fiber_divisor()
    x = fpi.scale(2 * ln.total) + QDivisor.single(model.fm, params.p * ln.total)
    return x - v_s(model, cusp).scale(2)


def _semipositivity(model: FermatModel, us: QDivisor, cusp: tuple[int, int]):
    """Values a_C + 2(S.C) - (U.C) per component, for a given divisor U."""
    config = model.config
    target = model.cusp(*cusp).target
    out = []
    for c in config.components:
        val = (
            a_number(config, c.cid)
            + 2 * (1 if c.cid == target else 0)
            - pair_component(config, us, c.cid)
        )
        out.append((c.cid, val))
    return out


def semipos_check(model: FermatModel, cusp: tuple[int, int] = (1, 1)):
    """Values a_C + 2(S.C) - (U_S.C) per component; all must be >= 0."""
    return _semipositivity(model, u_s(model, cusp), cusp)


def u_s_identities(
    model: FermatModel, vs: QDivisor, us: QDivisor, cusp: tuple[int, int]
) -> tuple[bool, bool, Fraction]:
    """Evaluate a divisor U against the identities stated for U_S, given V_S.

    Returns whether (2V_S + U)^2 = -(N(lambda+nu))^2, whether
    (K . U) = (2m-3) N (lambda+nu), and min_C a_C + 2(S.C) - (U.C).
    """
    params = model.params
    config = model.config
    b = params.n * lambda_nu(params).total
    x = vs.scale(2) + us
    return (
        pair(config, x, x) == -b * b,
        canonical_pair(config, us) == (2 * params.m - 3) * b,
        min(v for _, v in _semipositivity(model, us, cusp)),
    )


def beta_s(model: FermatModel, cusp: tuple[int, int] = (1, 1)) -> Fraction:
    """Per-prime lower-bound quantity beta_{S,p}.

    Computed from the graph as (1-g)/g (2V_S+U_S)^2 + 2 (K . U_S) and from
    beta_closed; both must agree exactly.
    """
    params = model.params
    g = params.genus
    vs = v_s(model, cusp)
    us = u_s(model, cusp)
    x = vs.scale(2) + us
    graph = Fraction(1 - g, g) * pair(model.config, x, x) + 2 * canonical_pair(
        model.config, us
    )
    closed = beta_closed(params)
    if graph != closed:
        raise MathContractError(
            f"beta_S mismatch: graph {graph}, closed form {closed}"
        )
    return graph


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

    weighted: dict[int, Fraction] = {}
    for c in config.components:
        vc = v_divisor(model, c.cid)
        t = 2 * pair(config, vc, vs) - pair(config, vc, vc)
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
        sq_ok, ku_ok, semi = u_s_identities(model, vs, cand, cusp)
        ld = pair_component(config, cand, deltas[0]) if deltas else None
        results.append(
            CheckResult(
                f"u_s[{name}]",
                sq_ok and ku_ok and semi >= 0,
                f"square={'ok' if sq_ok else 'FAIL'} canonical={'ok' if ku_ok else 'FAIL'} "
                f"semipos_min={semi} pair_with_Ldelta={ld}",
            )
        )
    return results
