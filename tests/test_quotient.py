"""The cusp quotient against the full graph it stands for.

`beta_s`, `per_prime_geometric`, `semipos_check` and `cusp_squares` read only
the cusp quotient (`model.cusp_quotient`). The oracle here assigns every built
component to its cell from its FermatLabel alone, walks every edge of the
built fiber once, and checks that the partition is equitable with the
quotient's sizes, shapes and neighbour counts b(c, c'), and that every
quotient value equals its full-graph evaluation.
"""

import dataclasses
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ffk import divisors
from ffk.errors import MathContractError, ParameterError
from ffk.fiber import a_number, pair, pairing_divisor
from ffk.model import FermatParams, build_config, cusp_quotient, expected_census

QUOTIENT_FUNCTIONS = (divisors.beta_s, divisors.per_prime_geometric, divisors.semipos_check,
                      divisors.cusp_squares)


def cell_of(label, cusp) -> tuple:
    """The cell of a component under the stabiliser of the cusp chain, from its label alone."""
    ci, ck = cusp
    if label.kind == "Chain":
        where = "cusp" if (label.i, label.k) == (ci, ck) else "arm" if label.i == ci else "other"
        return ("Chain", where, label.j)
    if label.kind == "LXYZ":
        return ("LXYZ", "cusp" if label.i == ci else "other")
    return (label.kind,)


def graph_semipositivity(model, cusp) -> list[Fraction]:
    """a_C + 2(S.C) - (U_S.C) for every component, paired on the full graph."""
    config = model.config
    prof = pairing_divisor(config, divisors.u_s(model, cusp))
    target = model.cusp(*cusp)
    return [a_number(config, c.cid) + 2 * (c.cid == target) - prof.coeff(c.cid)
            for c in config.components]


def assert_quotient_matches_graph(model, cusp):
    config, params = model.config, model.params
    q = cusp_quotient(model, cusp)
    cells = [cell_of(c.label, cusp) for c in config.components]
    labels = {c.cid: c.label for c in q.cells}

    # cells and their sizes
    assert Counter(cells) == {labels[c]: size for c, size in enumerate(q.sizes)}
    assert len(q.cells) <= 3 * (params.m - 1) + 6
    for comp, cell in zip(config.components, cells):
        shape = q.cells[q.ids[cell]]
        assert (comp.multiplicity, comp.genus, comp.self_int) == (
            shape.multiplicity, shape.genus, shape.self_int), comp.label

    # one walk over the edges: every component of a cell meets b(c, c') components of c'
    met = [Counter() for _ in config.components]
    for (a, b), cnt in config.edges():
        met[a][cells[b]] += cnt
        met[b][cells[a]] += cnt
    for comp, cell, seen in zip(config.components, cells, met):
        want = {labels[c2]: b for c2, b in q.nbrs[q.ids[cell]].items()}
        assert dict(seen) == want, (comp.label, cell)

    # V_S and U_S are constant on cells
    vs, us, gs = divisors.v_s(model, cusp), divisors.u_s(model, cusp), divisors.g_s(model, cusp)
    for div in (vs, us):
        by_cell = {}
        for cid, cell in enumerate(cells):
            assert by_cell.setdefault(cell, div.coeff(cid)) == div.coeff(cid), cell

    # every quotient value equals its full-graph evaluation
    square, canonical, semi_min = divisors.u_s_values(model, vs, us, cusp)
    vs_self, gs_self = pair(config, vs, vs), pair(config, gs, gs)
    assert divisors.cusp_squares(model, cusp) == (vs_self, gs_self)
    assert divisors.beta_s(model, cusp) == divisors.beta_graph(params, square, canonical)
    assert divisors.per_prime_geometric(model, cusp) == divisors.geometric_graph(
        params, vs_self, gs_self)
    semis = divisors.semipos_check(model, cusp)
    assert [cell for cell, _ in semis] == [c.label for c in q.cells]
    by_cell = dict(semis)
    assert [by_cell[cell] for cell in cells] == graph_semipositivity(model, cusp)
    assert min(by_cell.values()) == semi_min


def _cusps(p: int, m: int):
    return [(1, 1), (3 * m, p), ((3 * m + 1) // 2, (p + 1) // 2)]


def test_acceptance_pairs_match_the_graph(models):
    for (p, m), model in models.items():
        for cusp in _cusps(p, m):
            assert_quotient_matches_graph(model, cusp)


@pytest.mark.parametrize("pm", [(7, 11), (7, 23)])
def test_large_fibers_match_the_graph(pm):
    model = build_config(*pm)
    for cusp in _cusps(*pm):
        assert_quotient_matches_graph(model, cusp)


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


@settings(max_examples=40, deadline=None)
@given(synthetic_fibers())
@example((3, 5, 0, (7, 2)))  # p = 3: no Ldelta, no Lgamma
@example((5, 7, 0, (1, 5)))  # s = 0: no Lgamma, no leaves
@example((7, 5, 2, (15, 1)))  # 2s = p-3: no Ldelta
@example((11, 3, 1, (4, 6)))  # every cell present
def test_synthetic_fibers_match_the_graph(fiber):
    p, m, s, cusp = fiber
    assert_quotient_matches_graph(build_config(p, m, s), cusp)


@pytest.mark.parametrize("pms, gone", [((3, 5, 0), {"Ldelta", "Lgamma", "LgammaLeaf"}),
                                       ((5, 7, 0), {"Lgamma", "LgammaLeaf"}),
                                       ((7, 5, 2), {"Ldelta"})])
def test_empty_cells_are_dropped(pms, gone):
    q = cusp_quotient(build_config(*pms), (1, 1))
    assert not gone & {c.label[0] for c in q.cells}
    assert len(q.cells) == 3 * (pms[1] - 1) + 6 - len(gone)
    assert 0 not in q.sizes


@pytest.mark.parametrize("fn", QUOTIENT_FUNCTIONS, ids=lambda fn: fn.__name__)
def test_bad_cusp_raises_parameter_error(model53, fn):
    p, m = model53.params.p, model53.params.m
    for cusp in ((0, 1), (3 * m + 1, 1), (1, p + 1)):
        with pytest.raises(ParameterError):
            fn(model53, cusp)


def test_component_count_guard(model53, model35):
    # a model whose config is not the fiber its params describe
    bad = dataclasses.replace(model53, config=model35.config)
    with pytest.raises(MathContractError, match="cusp quotient"):
        divisors.beta_s(bad)
