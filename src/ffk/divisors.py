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
from functools import cache, cached_property
from itertools import cycle, repeat
from math import lcm

from .bounds import q_np
from .errors import MathContractError
from .fiber import (
    CheckResult,
    FiberConfig,
    QDivisor,
    _a_values,
    _combined,
    canonical_pair,
    pair,
    pairing_divisor,
)
from .model import FermatLabel, FermatModel, FermatParams, cusp_quotient


@dataclass(frozen=True)
class LambdaNu:
    """The two base rationals of the divisor calculus: lambda < 0 < nu."""

    lam: Fraction
    nu: Fraction

    def __post_init__(self):
        if not self.lam < 0 < self.nu:
            raise MathContractError(f"expected lambda < 0 < nu, got {self}")

    @cached_property
    def total(self) -> Fraction:
        return self.lam + self.nu


@cache
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


def v_base(model: FermatModel, bid: int) -> QDivisor:
    """V_B for a base B = Fm, Lgamma(i) or LXYZ(i): (p-2)/(2g-2) on Fm and, unless B is
    Fm, 1/p on B and 1/(2p) on each leaf of Lgamma(i) or j/N on each Chain(j,k,i)."""
    params, lab = model.params, model.config.label(bid)
    p, m, n, two_g2 = params.p, params.m, params.n, 2 * params.genus - 2
    den = lcm(two_g2, 2 * n)
    num = {model.fm: (p - 2) * (den // two_g2)}
    if lab.kind != "Fm":
        num[bid] = den // p
        num.update(dict.fromkeys(model.leaves(lab.i), den // (2 * p)) if lab.kind == "Lgamma"
                   else zip(model.chain_arm(lab.i), cycle([j * (den // n) for j in range(1, m)])))
    return QDivisor.from_numerators(num, den)


def v_own(model: FermatModel, cid: int) -> tuple[int, dict[int, int], int]:
    """(B, numerators, den) of H_D = V_D - V_B, D = cid: Fm, Lgamma(i) and LXYZ(i) are bases,
    each its own with H_D empty; an Ldelta has the base Fm and H_D 1/p on itself, a leaf of
    Lgamma(i) that base and 1/2 on itself, and Chain(r,k,i) the base LXYZ(i) and j(m-r)/(rm)
    at level j < r and (m-j)/m at j >= r on chain k."""
    lab = model.config.label(cid)
    if lab.kind == "Ldelta":
        return model.fm, {cid: 1}, model.params.p
    if lab.kind == "LgammaLeaf":
        return model.lgamma(lab.i), {cid: 1}, 2
    if lab.kind != "Chain":
        return cid, {}, 1
    m, r = model.params.m, lab.j
    first = cid - r + 1  # Chain(1, k, i), by the id layout of the model docstring
    return model.lxyz(lab.i), {c: j * (m - r) if j < r else (m - j) * r
                               for j, c in enumerate(range(first, first + m - 1), 1)}, r * m


def v_divisor(model: FermatModel, cid: int) -> QDivisor:
    """The representative V_D = V_B + H_D, from v_own(D), for component D: it satisfies
    (V_D . C) = a_C/(2g-2) - delta_{D,C}/d_D exactly, for every C."""
    bid, own, den = v_own(model, cid)
    return v_base(model, bid) + QDivisor.from_numerators(own, den)


def closed_form_class(label: FermatLabel) -> tuple:
    """All that v_self_closed and vs_pair_closed read of a label: one class, one value each."""
    return label.kind, label.j, label.i == 1, label.k == 1


def v_self_closed(params: FermatParams, label: FermatLabel) -> Fraction:
    """Closed form for V_D^2, D labelled `label`: by its kind, and its level j on a Chain."""
    ln = lambda_nu(params)
    p, n, kind = params.p, params.n, label.kind
    base = ln.lam + ln.nu
    if kind == "Fm":
        return ln.lam
    if kind == "Ldelta":
        return base - Fraction(1, p)
    if kind == "Lgamma":
        return base - Fraction(1, 2 * p)
    if kind == "LgammaLeaf":
        return base - Fraction(1 + p, 2 * p)
    if kind == "LXYZ":
        return base - Fraction(1, n)
    return base - mu_chain(params, label.j, 1) / label.j


def vs_pair_closed(params: FermatParams, lab: FermatLabel) -> Fraction:
    """Closed form for (V_S . V_D), D labelled `lab`, for the cusp (1, 1) of v_s(model)."""
    ln = lambda_nu(params)
    if lab.kind == "Fm":
        return ln.lam + ln.nu / 2
    base = ln.lam + ln.nu
    if lab.kind in ("Ldelta", "Lgamma", "LgammaLeaf"):
        return base
    if lab.kind == "LXYZ":
        return base - (Fraction(1, params.n) if lab.i == 1 else 0)
    r = lab.j
    if lab.i != 1:
        return base
    out = base - Fraction(1, params.n)
    if lab.k == 1:
        out -= Fraction(params.m - r, r * params.m)
    return out


# ---------------------------------------------------------------------------
# cusp divisors
# ---------------------------------------------------------------------------


def v_s(model: FermatModel, cusp: tuple[int, int] = (1, 1)) -> QDivisor:
    """V_S = V_{Chain(1,k,i)} for the cusp meeting that chain end."""
    return v_divisor(model, model.cusp(*cusp))


def g_s(model: FermatModel, cusp: tuple[int, int] = (1, 1), vs: QDivisor | None = None) -> QDivisor:
    """G_S = V_S - V_Fm: the vertical shadow of the cusp section.

    (S + G_S . C) = 0 for every C except Fm, where it is 1/p. A caller that
    holds vs = v_s(model, cusp) passes it, and it is not built again.
    """
    if vs is None:
        vs = v_s(model, cusp)
    return vs - v_divisor(model, model.fm)


def u_s(model: FermatModel, vs: QDivisor) -> QDivisor:
    """The auxiliary divisor U_S = (lambda+nu)(2 F + p Fm) - 2 V_S, given vs = v_s(model, cusp).

    This is the unique natural divisor satisfying all the stated global
    identities at once: (2V_S + U_S)^2 = -(N(lambda+nu))^2, the canonical
    pairing (K . U_S) = (2m-3) N (lambda+nu), and semipositivity
    a_C + 2(S . C) - (U_S . C) >= 0 with equality exactly on the chain and
    leaf components. Built here on the full graph, the oracle; beta_s,
    semipos_check and u_s_probe build the same divisor on the cells of the cusp
    quotient. u_s_probe weighs it against the printed alternatives.
    """
    return _u_of(model.params, vs, model.config.multiplicities, model.fm)


def _u_of(params: FermatParams, vs: QDivisor, mult, fm: int) -> QDivisor:
    """(lambda+nu)(2F + p Fm) - 2V_S, F = sum d_C C, `mult` holding the components' or cells' d_C.

    With lambda+nu = a/b, the pair (a (2 d_C + p [C = Fm]), b) combined with V_S at sign
    -2, in one pass and normalised once.
    """
    a, b = lambda_nu(params).total.as_integer_ratio()
    num = {cid: 2 * a * d for cid, d in enumerate(mult)}
    num[fm] += a * params.p
    return QDivisor.from_numerators(*_combined(-2, (num, b), (vs.numerators(), vs.denominator)))


def _on_cells(model: FermatModel, cusp: tuple[int, int]):
    """cusp_quotient(model.params, cusp), with V_Fm, V_S and U_S on its cells.

    Raises MathContractError unless the cells hold as many components as
    model.config. V_S is v_divisor at the cusp chain end: (p-2)/(2g-2) on Fm,
    1/p on LXYZ(i) and mu_chain on the chains of arm i, the first 2(m-1)
    cells. A cell's coefficient is that of each of its components, so the
    fiber kernels pair these exactly.
    """
    params = model.params
    q = cusp_quotient(params, cusp)
    if sum(q.sizes) != model.config.n_components:
        raise MathContractError(f"cusp quotient has {sum(q.sizes)} components, "
                                f"the fiber {model.config.n_components}")
    fm = 3 * (params.m - 1)
    v_fm = QDivisor.single(fm, Fraction(params.p - 2, 2 * params.genus - 2))
    vs = {fm + 1: Fraction(1, params.p)}  # LXYZ(i)
    vs.update((cid, mu_chain(params, lab.j, 1 if lab.k == cusp[1] else 2))
              for cid, lab in enumerate(q.labels[:2 * (params.m - 1)]))
    vs = v_fm + QDivisor(vs)
    return q, v_fm, vs, _u_of(params, vs, q.multiplicities, fm)


def semipos_check(model: FermatModel, cusp: tuple[int, int] = (1, 1)):
    """(cell label, a_C + 2(S.C) - (U_S.C)) per non-empty cell; every value must be >= 0.

    Each label is the FermatLabel of one component of its cell, and the value
    is shared by every component C of the cell (cusp_quotient(model.params,
    cusp) lists the cells, at most 3(m-1)+6); it is the semipositivity value
    of u_s_values on the quotient, whose cell 0 the cusp section meets,
    reading model.params and the cusp, not the graph. suite_beta runs
    u_s_values on the graph, as the oracle.
    """
    q, _, vs, us = _on_cells(model, cusp)
    nums, den = u_s_values(q, vs, us, 0)[2]
    return [(lab, Fraction(v, den)) for lab, v in zip(q.labels, nums)]


def u_s_values(
    config: FiberConfig, vs: QDivisor, u: QDivisor, target: int
) -> tuple[Fraction, Fraction, tuple[list[int], int]]:
    """(2V_S + U)^2, (K . U) and the semipositivity values of a divisor U, given V_S.

    Works on any FiberConfig whose vertex `target` the cusp section S meets:
    the full graph (sizes None, target the cusp chain end) or the cusp
    quotient (target its cusp cell). The semipositivity value at vertex c is
    a_C + 2(S.C) - (U.C) = ((K.[c]) - (U.[c]))/|c| + 2[c = target], shared by
    the |c| components C of c. The values come as integer numerators over one
    denominator, in vertex order, so the minimum is an integer minimum. This is
    the one evaluator of these identities: beta_s, semipos_check, u_s_probe and
    suite_beta all read it.
    """
    x = vs.scale(2) + u
    prof = pairing_divisor(config, u)
    den, get = prof.denominator, prof.numerators().get
    scale = lcm(*config.sizes or (1,))  # clears the 1/|c| of every vertex
    a_vals = _a_values(config, range(config.n_components))
    num = [(a * den - get(cid, 0)) * (scale // k)
           for cid, (a, k) in enumerate(zip(a_vals, config.sizes or repeat(1)))]
    num[target] += 2 * den * scale
    return pair(config, x, x), canonical_pair(config, u), (num, den * scale)


def u_s_identities(
    params: FermatParams, values: tuple[Fraction, Fraction, tuple[list[int], int]]
) -> tuple[bool, bool, Fraction]:
    """Judge u_s_values against the identities stated for U_S.

    Returns whether (2V_S + U)^2 = -(N(lambda+nu))^2, whether
    (K . U) = (2m-3) N (lambda+nu), and the semipositivity minimum.
    """
    square, canonical, (semis, den) = values
    b = params.n * lambda_nu(params).total
    return square == -b * b, canonical == (2 * params.m - 3) * b, Fraction(min(semis), den)


def beta_graph(params: FermatParams, square: Fraction, canonical: Fraction) -> Fraction:
    """(1-g)/g (2V_S+U_S)^2 + 2 (K . U_S) from given pairings, asserted equal to beta_closed."""
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

    beta_graph of the (2V_S+U_S)^2 and (K . U_S) that u_s_values reads on the
    cells of cusp_quotient(model.params, cusp), from model.params and the cusp,
    not the graph; it must equal beta_closed exactly. suite_beta evaluates the
    graph, as the oracle.
    """
    q, _, vs, us = _on_cells(model, cusp)
    return beta_graph(model.params, *u_s_values(q, vs, us, 0)[:2])


def cusp_squares(model: FermatModel, cusp: tuple[int, int] = (1, 1)) -> tuple[Fraction, Fraction]:
    """(V_S^2, G_S^2) on the cusp quotient, from model.params and the cusp."""
    q, v_fm, vs, _ = _on_cells(model, cusp)
    gs = vs - v_fm
    return pair(q, vs, vs), pair(q, gs, gs)


def per_prime_geometric(model: FermatModel, cusp: tuple[int, int] = (1, 1)) -> Fraction:
    """-2g G_S^2 + (2g-2) V_S^2 on the cusp quotient, asserted equal to Q(N,p).

    Reads model.params and the cusp, not the graph (cusp_quotient(model.params,
    cusp) lists the cells); suite_bounds evaluates the squares on the graph, as
    the oracle.
    """
    return geometric_graph(model.params, *cusp_squares(model, cusp))


def geometric_graph(params: FermatParams, vs_self: Fraction, gs_self: Fraction) -> Fraction:
    """-2g G_S^2 + (2g-2) V_S^2 from given squares, asserted equal to the closed Q(N,p)."""
    g = params.genus
    graph = -2 * g * gs_self + (2 * g - 2) * vs_self
    closed = q_np(params.n, params.p)
    if graph != closed:
        raise MathContractError(
            f"per-prime geometric mismatch: graph {graph}, closed form {closed}"
        )
    return graph


# ---------------------------------------------------------------------------
# consistency probe for the U_S candidates
# ---------------------------------------------------------------------------


def u_s_probe(model: FermatModel, cusp: tuple[int, int] = (1, 1)) -> list[CheckResult]:
    """Evaluate each U_S candidate the source text offers against the stated identities.

    Every candidate is constant on cells, so each is built on the cells of
    cusp_quotient(model.params, cusp) from each cell's FermatLabel, never from
    the graph; the cusp chain is the cells with (i, k) = cusp and its arm those
    with i = cusp[0]. 'expansion' is the explicit per-family expansion (the
    printed list, with the chain corrections it carries); 'weighted-vc',
    sum_C d_C (2(V_C.V_S) - V_C^2) C; 'adopted', the U_S of u_s(). Reports, per
    candidate: the square identity for 2V_S + U_S, the canonical pairing value,
    the pairing (U . [Ldelta])/|Ldelta| against one Ldelta (a multiplicity-one
    self -p component), and semipositivity.
    """
    params = model.params
    p, m, n = params.p, params.m, params.n
    q, _, vs, us = _on_cells(model, cusp)
    # (V_C . V_S) = (K . V_S)/(2g-2) - (V_S)_C/d_C is the representative relation,
    # which suite_divisor checks for every pair; V_C^2 is the closed form by label
    vs_k = canonical_pair(q, vs) / (2 * params.genus - 2)
    expansion, weighted = {}, {}
    for cid, (lab, d) in enumerate(zip(q.labels, q.multiplicities)):
        if lab.kind == "Chain":
            j = lab.j
            expansion[cid] = (j * mu_chain(params, j, 1) - Fraction(2 * j, n) * (lab.i == cusp[0])
                              - Fraction(2 * (m - j), m) * ((lab.i, lab.k) == cusp))
        elif lab.kind == "LXYZ":
            expansion[cid] = Fraction(-1 if lab.i == cusp[0] else 1, p)
        elif lab.kind != "Fm":
            expansion[cid] = Fraction(1 + p if lab.kind == "LgammaLeaf" else 1, p)
        weighted[cid] = (d * (2 * vs_k - v_self_closed(params, lab))
                         - 2 * vs.coeff(cid))
    ldelta = next((cid for cid, lab in enumerate(q.labels) if lab.kind == "Ldelta"), None)
    results = []
    for name, cand in (("expansion", QDivisor(expansion)), ("weighted-vc", QDivisor(weighted)),
                       ("adopted", us)):
        sq_ok, ku_ok, semi = u_s_identities(params, u_s_values(q, vs, cand, 0))
        ld = None if ldelta is None else pair(q, cand, QDivisor.single(ldelta)) / q.sizes[ldelta]
        results.append(CheckResult(f"u_s[{name}]", sq_ok and ku_ok and semi >= 0,
                                   f"square={'ok' if sq_ok else 'FAIL'} "
                                   f"canonical={'ok' if ku_ok else 'FAIL'} "
                                   f"semipos_min={semi} pair_with_Ldelta={ld}"))
    return results
