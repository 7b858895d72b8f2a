"""The cusp quotient against the full graph it stands for.

`beta_s`, `per_prime_geometric`, `semipos_check`, `cusp_squares` and
`u_s_probe` read only the cusp quotient (`model.cusp_quotient`), built from
(p, m, s) and the cusp alone. The oracle here assigns every built
component to its cell from its FermatLabel alone, walks every edge of the
built fiber once, and checks that the partition is equitable with the
quotient's sizes, shapes and neighbour counts b(c, c'), and that every
quotient value equals its full-graph evaluation; the U_S candidates of
`u_s_probe` are built here component by component, as the probe built them
before it moved to the quotient. The quotient is a FiberConfig
with one vertex of size |c| per cell, so the fiber kernels, `validate` and
`GaugeSolver` run on it unchanged; the tests below hold them to the graph too,
and run them on a quotient whose fiber is far over the component cap.
"""

import dataclasses
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ffk import divisors
from ffk.bounds import q_np
from ffk.errors import CapExceeded, MathContractError, ParameterError
from ffk.fiber import (
    COMPONENT_CAP_ENV,
    CheckResult,
    FiberConfig,
    GaugeSolver,
    QDivisor,
    _a_values,
    canonical_pair,
    pair,
    pairing_divisor,
    validate,
)
from ffk.model import FermatLabel, FermatParams, build_config, cusp_quotient, expected_census
from test_fiber import columns, solve_at

QUOTIENT_FUNCTIONS = (divisors.beta_s, divisors.per_prime_geometric, divisors.semipos_check,
                      divisors.cusp_squares, divisors.u_s_probe)


def cell_of(label, cusp, params) -> FermatLabel:
    """The representative label of a component's cell under the stabiliser of the cusp
    chain, from its label alone: the cusp chain, arm i through k' = k mod p + 1, the other
    arms through i' = i mod 3m + 1, LXYZ(i) and LXYZ(i'), and the first of every other kind."""
    ci, ck = cusp
    other_i = ci % (3 * params.m) + 1
    if label.kind == "Chain":
        if label.i != ci:
            return FermatLabel("Chain", other_i, ck, label.j)
        return FermatLabel("Chain", ci, ck if label.k == ck else ck % params.p + 1, label.j)
    if label.kind == "LXYZ":
        return FermatLabel("LXYZ", ci if label.i == ci else other_i)
    if label.kind == "Fm":
        return label
    return FermatLabel(label.kind, 1, 0, 1 if label.kind == "LgammaLeaf" else 0)


def graph_semipositivity(model, cusp) -> list[Fraction]:
    """a_C + 2(S.C) - (U_S.C) for every component, paired on the full graph."""
    config = model.config
    prof = pairing_divisor(config, divisors.u_s(model, divisors.v_s(model, cusp)))
    target = model.cusp(*cusp)
    return [a + 2 * (cid == target) - prof.coeff(cid)
            for cid, a in enumerate(_a_values(config, range(config.n_components)))]


def assert_quotient_matches_graph(model, cusp):
    config, params = model.config, model.params
    q = cusp_quotient(params, cusp)
    cells = [cell_of(label, cusp, params) for label in config.labels]
    labels = dict(enumerate(q.labels))
    ids = {label: c for c, label in labels.items()}

    # the ids the cell divisors are built on: the cusp chain end, Fm and LXYZ(i)
    fm = 3 * (params.m - 1)
    assert [q.labels[c] for c in (0, fm, fm + 1)] == [
        FermatLabel("Chain", *cusp, 1), FermatLabel("Fm"), FermatLabel("LXYZ", cusp[0])]

    # cells and their sizes; a cell's self_int is [c]^2 = |c| C^2
    assert Counter(cells) == {labels[c]: size for c, size in enumerate(q.sizes)}
    assert q.n_components <= 3 * (params.m - 1) + 6
    for cid, cell in enumerate(cells):
        c = ids[cell]
        assert (config.multiplicities[cid], config.genera[cid], config.self_ints[cid] * q.sizes[c]
                ) == (q.multiplicities[c], q.genera[c], q.self_ints[c]), config.labels[cid]

    # one walk over the edges: every component of a cell c meets w(c, c')/|c| components of c'
    met = [Counter() for _ in cells]
    for (a, b), cnt in config.edges():
        met[a][cells[b]] += cnt
        met[b][cells[a]] += cnt
    for label, cell, seen in zip(config.labels, cells, met):
        size = q.sizes[ids[cell]]
        want = {labels[c2]: Fraction(w, size) for c2, w in q._nbrs[ids[cell]].items()}
        assert dict(seen) == want, (label, cell)

    # V_S and U_S are constant on cells
    vs, gs = divisors.v_s(model, cusp), divisors.g_s(model, cusp)
    us = divisors.u_s(model, vs)
    for div in (vs, us):
        by_cell = {}
        for cid, cell in enumerate(cells):
            assert by_cell.setdefault(cell, div.coeff(cid)) == div.coeff(cid), cell

    # every quotient value equals its full-graph evaluation
    square, canonical, (semis, den) = divisors.u_s_values(config, vs, us, model.cusp(*cusp))
    vs_self, gs_self = pair(config, vs, vs), pair(config, gs, gs)
    assert divisors.cusp_squares(model, cusp) == (vs_self, gs_self)
    assert divisors.beta_s(model, cusp) == divisors.beta_graph(params, square, canonical)
    assert divisors.per_prime_geometric(model, cusp) == divisors.geometric_graph(
        params, vs_self, gs_self)
    semis_on_cells = divisors.semipos_check(model, cusp)
    assert [cell for cell, _ in semis_on_cells] == list(q.labels)
    by_cell = dict(semis_on_cells)
    on_graph = graph_semipositivity(model, cusp)
    assert [by_cell[cell] for cell in cells] == on_graph
    assert [Fraction(v, den) for v in semis] == on_graph


def graph_candidates(model, cusp) -> dict[str, QDivisor]:
    """The U_S candidates of u_s_probe, built component by component on the full graph.

    'expansion' from each label; 'weighted-vc' pairs each representative V_C with
    one pairing profile of V_S and the adjunction numbers; 'adopted' is u_s.
    """
    params, config = model.params, model.config
    p, m, n = params.p, params.m, params.n
    ci, ck = cusp
    expansion = {}
    for cid, lab in enumerate(config.labels):
        if lab.kind in ("Ldelta", "Lgamma"):
            expansion[cid] = Fraction(1, p)
        elif lab.kind == "LgammaLeaf":
            expansion[cid] = Fraction(1 + p, p)
        elif lab.kind == "LXYZ":
            expansion[cid] = Fraction(1, p) - (Fraction(2, p) if lab.i == ci else 0)
        elif lab.kind == "Chain":
            val = lab.j * divisors.mu_chain(params, lab.j, 1)
            if lab.i == ci:
                val -= Fraction(2 * lab.j, n)
                if lab.k == ck:
                    val -= Fraction(2 * (m - lab.j), m)
            expansion[cid] = val

    # V_C^2 = (K . V_C)/(2g-2) - (V_C)_C/d_C by the representative relation, so
    # 2(V_C . V_S) - V_C^2 = (V_C dot w) + (V_C)_C/d_C, w = sum_D (2(V_S . D) - a_D/(2g-2)) D
    k_div = QDivisor.from_numerators(dict(enumerate(_a_values(config, range(config.n_components)))),
                                     2 * params.genus - 2)
    vs = divisors.v_s(model, cusp)
    w = pairing_divisor(config, vs).scale(2) - k_div
    weighted = {}
    for cid, d in enumerate(config.multiplicities):
        vc = divisors.v_divisor(model, cid)
        weighted[cid] = d * vc.dot(w) + vc.coeff(cid)
    return {"expansion": QDivisor(expansion), "weighted-vc": QDivisor(weighted),
            "adopted": divisors.u_s(model, vs)}


def graph_probe(model, cusp, candidates) -> list[CheckResult]:
    """u_s_probe's report, evaluated on the full graph with Ldelta(1) as the Ldelta."""
    params, config = model.params, model.config
    vs, target = divisors.v_s(model, cusp), model.cusp(*cusp)
    ldelta = model.cid(FermatLabel("Ldelta", i=1)) if model.census()["Ldelta"] else None
    out = []
    for name, cand in candidates.items():
        values = divisors.u_s_values(config, vs, cand, target)
        sq_ok, ku_ok, semi = divisors.u_s_identities(params, values)
        ld = None if ldelta is None else pair(config, cand, QDivisor.single(ldelta))
        out.append(CheckResult(f"u_s[{name}]", sq_ok and ku_ok and semi >= 0,
                               f"square={'ok' if sq_ok else 'FAIL'} "
                               f"canonical={'ok' if ku_ok else 'FAIL'} "
                               f"semipos_min={semi} pair_with_Ldelta={ld}"))
    return out


def assert_probe_matches_graph(model, cusp):
    """u_s_probe reports what the graph does, and each candidate it builds on the cells
    lifts to the graph candidate, which is therefore constant on cells."""
    on_cells = []

    def recording(config, vs, u, target, _values=divisors.u_s_values):
        on_cells.append(u)
        return _values(config, vs, u, target)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(divisors, "u_s_values", recording)
        report = divisors.u_s_probe(model, cusp)
    candidates = graph_candidates(model, cusp)
    assert report == graph_probe(model, cusp, candidates)

    ids = {label: cid for cid, label in enumerate(cusp_quotient(model.params, cusp).labels)}
    cells = [ids[cell_of(label, cusp, model.params)] for label in model.config.labels]
    assert len(on_cells) == len(candidates)
    for (name, cand), cell_cand in zip(candidates.items(), on_cells):
        get = cell_cand.numerators().get
        lift = QDivisor.from_numerators({cid: get(c, 0) for cid, c in enumerate(cells)},
                                        cell_cand.denominator)
        assert cand == lift, name


def assert_cell_divisors_match_the_graph(model, cusp, d, e):
    """Cell coefficients d, e (0 past the end) pair on the quotient as their lifts on the graph.

    A lift gives every component its cell's coefficient; the quotient's (D . [c])
    is |c| times the graph's (D . C) on every component C of c.
    """
    config, q = model.config, cusp_quotient(model.params, cusp)
    ids = {label: cid for cid, label in enumerate(q.labels)}
    cells = [ids[cell_of(label, cusp, model.params)] for label in config.labels]
    D, E = (QDivisor(zip(range(len(ids)), x)) for x in (d, e))

    def lift(X):
        return QDivisor({cid: X.coeff(c) for cid, c in enumerate(cells)})

    assert pair(q, D, E) == pair(config, lift(D), lift(E))
    assert canonical_pair(q, D) == canonical_pair(config, lift(D))
    on_q, on_graph = pairing_divisor(q, D), pairing_divisor(config, lift(D))
    assert [on_q.coeff(c) / q.sizes[c] for c in cells] == [
        on_graph.coeff(cid) for cid in range(len(cells))]


def _cusps(p: int, m: int):
    return [(1, 1), (3 * m, p), ((3 * m + 1) // 2, (p + 1) // 2)]


def test_acceptance_pairs_match_the_graph(models):
    for (p, m), model in models.items():
        for cusp in _cusps(p, m):
            assert_quotient_matches_graph(model, cusp)
            assert_probe_matches_graph(model, cusp)


@pytest.mark.parametrize("pm", [(7, 11), (7, 23)])
def test_large_fibers_match_the_graph(pm):
    model = build_config(*pm)
    for cusp in _cusps(*pm):
        assert_quotient_matches_graph(model, cusp)
        if pm == (7, 11):  # at (7,23) the 19,160 graph representatives add ~0.8 s per cusp
            assert_probe_matches_graph(model, cusp)


def _valid(p: int, m: int) -> bool:
    try:
        FermatParams(p, m, 0)
    except ParameterError:
        return False
    return True


#: (p, m) whose s = 0 fiber has fewer than 5,000 components
SMALL_PM = [(p, m) for p in (3, 5, 7, 11, 13) for m in range(3, 40, 2)
            if _valid(p, m) and sum(expected_census(p, m, 0).values()) < 5000]


@st.composite
def synthetic_fibers(draw):
    """(p, m, s, cusp) with a synthetic 0 <= 2s <= p-3 and fewer than 5,000 components."""
    p, m = draw(st.sampled_from(SMALL_PM))
    s = draw(st.integers(0, (p - 3) // 2).filter(
        lambda s: sum(expected_census(p, m, s).values()) < 5000))
    cusp = (draw(st.integers(1, 3 * m)), draw(st.integers(1, p)))
    return p, m, s, cusp


#: integer cell coefficients, in cell order; cells past the end of the list get 0
cell_coefficients = st.lists(st.integers(-9, 9), max_size=3 * (max(m for _, m in SMALL_PM) - 1) + 6)


@settings(max_examples=40, deadline=None)
@given(synthetic_fibers(), cell_coefficients, cell_coefficients)
@example((3, 5, 0, (7, 2)), [1, -2, 3], [])  # p = 3: no Ldelta, no Lgamma
@example((5, 7, 0, (1, 5)), [0, 4, -1, 2] * 6, [3] * 30)  # s = 0: no Lgamma, no leaves
@example((7, 5, 2, (15, 1)), [-5, 0, 7] * 6, [2, -9] * 9)  # 2s = p-3: no Ldelta
@example((11, 3, 1, (4, 6)), list(range(-6, 6)), [1] * 12)  # every cell present
def test_synthetic_fibers_match_the_graph(fiber, d, e):
    p, m, s, cusp = fiber
    model = build_config(p, m, s)
    assert_quotient_matches_graph(model, cusp)
    assert_probe_matches_graph(model, cusp)
    assert_cell_divisors_match_the_graph(model, cusp, d, e)


def _quotients(models):
    """(model, cusp, quotient) on the acceptance pairs and on (7,23), at three cusps each."""
    for (p, m), model in {**models, (7, 23): build_config(7, 23)}.items():
        for cusp in _cusps(p, m):
            yield model, cusp, cusp_quotient(model.params, cusp)


def test_validate_passes_on_the_quotient(models):
    for model, cusp, q in _quotients(models):
        assert [chk.passed for chk in validate(q)] == [True] * 4, (model.params, cusp)
        # sizes enter the adjunction sum: one size off by one fails it, unless 2g_C - 2 = 0
        for i, (label, genus) in enumerate(zip(q.labels, q.genera)):
            sizes = [k + (cid == i) for cid, k in enumerate(q.sizes)]
            bad = FiberConfig(*columns(q), dict(q.edges()), q.genus, sizes)
            assert all(chk.passed for chk in validate(bad)) == (genus == 1), (label, cusp)


def test_gauged_solver_on_the_quotient_reproduces_v_s(models):
    # (V_S . [c]) = |c| a_C/(2g-2) - [c = cusp cell], pinned at V_S's Fm coefficient (p-2)/(2g-2)
    for model, cusp, q in _quotients(models):
        two_g2 = 2 * model.params.genus - 2
        _, v_fm, vs, _ = divisors._on_cells(model, cusp)
        targets = QDivisor({cid: Fraction(a, two_g2) - (cid == 0)
                            for cid, a in enumerate(_a_values(q, range(q.n_components)))})
        (fm, gauge), = v_fm.items()
        assert solve_at(GaugeSolver(q, fm), targets, gauge) == vs, (model.params, cusp)


def test_quotient_past_the_component_cap(monkeypatch):
    # the (7,401) fiber has 5,942,420 components: no graph, but its quotient of 1,205 cells
    monkeypatch.delenv(COMPONENT_CAP_ENV, raising=False)
    params = FermatParams(7, 401, 2)
    with pytest.raises(CapExceeded):
        build_config(7, 401, 2)
    q = cusp_quotient(params, (1, 1))
    assert q.n_components == 1205
    assert sum(q.sizes) == sum(expected_census(7, 401, 2).values())
    assert [chk.passed for chk in validate(q)] == [True] * 4

    # V_S from its targets |c| a_c/(2g-2) - [c = 0], pinned at (p-2)/(2g-2) on Fm
    two_g2 = 2 * params.genus - 2
    fm = q.labels.index(FermatLabel("Fm"))
    gauge = Fraction(params.p - 2, two_g2)
    targets = QDivisor({cid: Fraction(a, two_g2) - (cid == 0)
                        for cid, a in enumerate(_a_values(q, range(q.n_components)))})
    vs = solve_at(GaugeSolver(q, fm), targets, gauge)
    gs = vs - QDivisor.single(fm, gauge)
    assert divisors.geometric_graph(params, pair(q, vs, vs), pair(q, gs, gs)) == q_np(2807, 7)


@pytest.mark.parametrize("pms, gone", [((3, 5, 0), {"Ldelta", "Lgamma", "LgammaLeaf"}),
                                       ((5, 7, 0), {"Lgamma", "LgammaLeaf"}),
                                       ((7, 5, 2), {"Ldelta"})])
def test_empty_cells_are_dropped(pms, gone):
    q = cusp_quotient(FermatParams(*pms), (1, 1))
    assert not gone & {label.kind for label in q.labels}
    assert q.n_components == 3 * (pms[1] - 1) + 6 - len(gone)
    assert 0 not in q.sizes


@pytest.mark.parametrize("fn", QUOTIENT_FUNCTIONS, ids=lambda fn: fn.__name__)
def test_bad_cusp_raises_parameter_error(model53, fn):
    p, m = model53.params.p, model53.params.m
    for cusp in ((0, 1), (3 * m + 1, 1), (1, p + 1), (1.5, 1), (1, 2.0), (True, 1), ("1", 1)):
        with pytest.raises(ParameterError):
            fn(model53, cusp)


def test_component_count_guard(model53, model35):
    # a model whose config is not the fiber its params describe
    bad = dataclasses.replace(model53, config=model35.config)
    with pytest.raises(MathContractError, match="cusp quotient"):
        divisors.beta_s(bad)
    # the census is the config's, not read from the model's params
    assert bad.census() == model35.census() != expected_census(5, 3, 0)
