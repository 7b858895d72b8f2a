import dataclasses
from fractions import Fraction
from math import gcd, lcm
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ffk.errors import MathContractError, NoSolutionError, ParameterError
from ffk.fiber import (
    Component,
    FiberConfig,
    GaugeSolver,
    QDivisor,
    _a_values,
    _branch_steps,
    _combined,
    _spread,
    _tree,
    canonical_pair,
    i_c_values,
    pair,
    pair_profile,
    pairing_divisor,
    validate,
)
from ffk.model import FermatLabel, build_config
from ffk.verify import _fm_targets


def _pair_cc(config, a, b):
    """Intersection number of two components, read from the component and its neighbour map."""
    return config.component(a).self_int if a == b else config._nbrs[a].get(b, 0)


def p_a_divisor(config, D):
    """Arithmetic genus 1 + (D^2 + K.D)/2 of an effective nonzero integral divisor D.

    The reference for suite_cycles' one pass per cycle: D^2 is D's coefficients
    dotted with its pairing profile, and K.D sums adjunction numbers.
    """
    if not D:
        raise ParameterError("p_a is undefined for the zero divisor")
    num = D.numerators()
    if D.denominator != 1 or min(num.values()) < 1:
        raise ParameterError("p_a requires integral coefficients >= 1")
    prof = _spread(config, num)
    d2 = sum(v * prof[cid] for cid, v in num.items())
    return Fraction(2 + d2 + sum(map(mul, num.values(), _a_values(config, num))), 2)


def dense_solve_oracle(config, targets, gauge):
    """Independent dense Gaussian elimination over Fraction."""
    n = config.n_components
    rows = []
    for cid in range(n):
        row = [Fraction(_pair_cc(config, cid, j)) for j in range(n)]
        row.append(Fraction(targets.get(cid, 0)))
        rows.append(row)
    grow = [Fraction(0)] * (n + 1)
    grow[gauge[0]] = Fraction(1)
    grow[n] = Fraction(gauge[1])
    rows.append(grow)
    # forward elimination with partial pivoting by first nonzero
    piv = []
    r = 0
    for col in range(n):
        sel = next((i for i in range(r, len(rows)) if rows[i][col] != 0), None)
        if sel is None:
            continue
        rows[r], rows[sel] = rows[sel], rows[r]
        pr = rows[r]
        for i in range(len(rows)):
            if i != r and rows[i][col] != 0:
                f = rows[i][col] / pr[col]
                rows[i] = [a - f * b for a, b in zip(rows[i], pr)]
        piv.append(col)
        r += 1
    assert all(all(v == 0 for v in row) for row in rows[r:])
    out = {}
    for i, col in enumerate(piv):
        out[col] = rows[i][n] / rows[i][col]
    return QDivisor(out)


def solve_at(solver, targets, value):
    """The solution whose gauge coefficient is `value`: solve(targets) + (value/d_gauge) F."""
    cfg = solver.config
    shift = Fraction(value) / cfg.component(solver.gauge_cid).multiplicity
    return solver.solve(targets) + cfg.fiber_divisor().scale(shift)


@pytest.fixture(scope="module")
def cfg53(model53):
    return model53.config


def test_qdivisor_coefficients():
    third = Fraction(1, 3)
    D = QDivisor({0: third, 1: 2, 2: 0, 3: Fraction(0)})
    assert dict(D.items()) == {0: third, 1: Fraction(2)}
    assert D.denominator == 3 and dict(D.numerators()) == {0: 1, 1: 6}  # least shared denominator
    assert type(D.coeff(1)) is Fraction
    assert D == QDivisor({0: third, 1: Fraction(2)})


COEFFS = st.fractions(min_value=-30, max_value=30, max_denominator=12)


def _reference(coeffs):
    """The plain dict[int, Fraction] a QDivisor stands for."""
    return {cid: Fraction(v) for cid, v in coeffs.items() if v != 0}


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_qdivisor_matches_fraction_dict_reference(data):
    sparse = st.dictionaries(st.integers(min_value=0, max_value=9), COEFFS, max_size=7)
    a, b = data.draw(sparse), data.draw(sparse)
    k = data.draw(COEFFS)
    A, B = QDivisor(a), QDivisor(b)
    ra, rb = _reference(a), _reference(b)

    assert dict(A.items()) == ra
    assert all(A.coeff(cid) == ra.get(cid, 0) for cid in range(-1, 11))
    both = ra.keys() | rb.keys()
    assert dict((A + B).items()) == _reference({c: ra.get(c, 0) + rb.get(c, 0) for c in both})
    assert dict((A - B).items()) == _reference({c: ra.get(c, 0) - rb.get(c, 0) for c in both})
    assert dict(A.scale(k).items()) == _reference({c: v * k for c, v in ra.items()})

    # normal form: the least denominator, so equal divisors are equal structurally
    assert A.denominator == lcm(*(v.denominator for v in ra.values()))
    assert gcd(A.denominator, *A.numerators().values()) == 1
    if k:
        assert A.scale(k).scale(1 / k) == A
    assert (A + B) - B == A
    assert QDivisor(list(a.items())[::-1]) == A
    order = data.draw(st.permutations(sorted(ra)))
    built = QDivisor()
    for cid in order:
        built = built + QDivisor.single(cid, ra[cid])
    assert built == A
    assert QDivisor.from_numerators({c: 6 * v for c, v in A.numerators().items()},
                                    6 * A.denominator) == A


@settings(max_examples=100, deadline=None)
@given(st.integers(-3, 3),
       st.lists(st.tuples(st.dictionaries(st.integers(0, 9), st.integers(-20, 20), max_size=6),
                          st.integers(1, 12)), min_size=1, max_size=5))
def test_combined_matches_fraction_sums(sign, pairs):
    # first + sign * (sum of rest) over the lcm of the dens, every key of every pair kept
    num, den = _combined(sign, *pairs)
    assert den == lcm(*(d for _, d in pairs))
    assert num.keys() == {cid for n, _ in pairs for cid in n}
    want = {cid: Fraction(pairs[0][0].get(cid, 0), pairs[0][1])
            + sign * sum(Fraction(n.get(cid, 0), d) for n, d in pairs[1:]) for cid in num}
    assert {cid: Fraction(v, den) for cid, v in num.items()} == want


def test_pair_fiber_orthogonality(model53):
    cfg = model53.config
    fpi = cfg.fiber_divisor()
    assert all(pair(cfg, fpi, QDivisor.single(cid)) == 0 for cid in range(cfg.n_components))


def test_pair_examples(model53):
    cfg = model53.config
    fm_div = QDivisor.single(model53.fm)
    lxyz = QDivisor.single(model53.lxyz(2))
    assert pair(cfg, fm_div, lxyz) == 1  # single transversal point
    l1 = QDivisor.single(model53.chain(1, 1, 1))
    assert pair(cfg, l1, l1) == -2


def test_pair_unknown_component(model53):
    with pytest.raises(ParameterError):
        pair(model53.config, QDivisor.single(10**6), QDivisor.single(0))
    with pytest.raises(ParameterError):
        pair(model53.config, QDivisor.single(-1), QDivisor.single(0))


@pytest.mark.parametrize("bad", [-1, "n"])
def test_pairing_kernels_reject_unknown_ids(model53, bad):
    cfg = model53.config
    bad = cfg.n_components if bad == "n" else bad
    D = QDivisor({bad: 1, 0: 2})
    with pytest.raises(ParameterError):
        pair(cfg, D, D)
    with pytest.raises(ParameterError):
        pair(cfg, D, cfg.fiber_divisor())
    with pytest.raises(ParameterError):
        pair(cfg, cfg.fiber_divisor(), QDivisor.single(bad))
    # pair spreads its first operand; the unknown id is in the second
    with pytest.raises(ParameterError):
        pair(cfg, QDivisor.single(0), QDivisor({bad: 1, 1: 1}))
    with pytest.raises(ParameterError):
        pair(cfg, QDivisor(), QDivisor.single(bad))
    with pytest.raises(ParameterError):
        pairing_divisor(cfg, D)


def test_orthogonality_is_computed_once_per_config(monkeypatch):
    # one whole-fiber I_C pass serves validate and the solver's factor; a second
    # pass in either of them fails this
    import ffk.fiber

    passes = []
    kernel = ffk.fiber.i_c_values

    def counted(config):
        passes.append(config)
        return kernel(config)

    cfg = build_config(7, 3).config
    monkeypatch.setattr(ffk.fiber, "i_c_values", counted)
    assert all(c.passed for c in validate(cfg))
    GaugeSolver(cfg, 0)
    GaugeSolver(cfg, 5)
    assert passes == [cfg]


def test_validate_factors_once_and_never_solves(model53, monkeypatch):
    # the kernel check is the factor at component 0, whose one `_tree` walk does the
    # refusing: one GaugeSolver, one walk, no solve
    import ffk.fiber

    walks, factors, solves = [], [], []
    tree, factor, solve = ffk.fiber._tree, GaugeSolver.__init__, GaugeSolver.solve

    def counted_tree(config, root):
        walks.append(root)
        return tree(config, root)

    def counted_factor(self, config, gauge_cid):
        factors.append(gauge_cid)
        factor(self, config, gauge_cid)

    def counted_solve(self, targets):
        solves.append(targets)
        return solve(self, targets)

    monkeypatch.setattr(ffk.fiber, "_tree", counted_tree)
    monkeypatch.setattr(GaugeSolver, "__init__", counted_factor)
    monkeypatch.setattr(GaugeSolver, "solve", counted_solve)
    assert all(c.passed for c in validate(model53.config))
    assert walks == factors == [0] and solves == []
    bad = NOT_ORTHOGONAL_TREES["cycle"]
    assert not {c.name: c.passed for c in validate(bad)}["kernel spanned by multiplicity vector"]
    assert walks == factors == [0, 0] and solves == []


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_pair_symmetric_bilinear(model53, data):
    cfg = model53.config
    n = cfg.n_components
    coeff = st.fractions(min_value=-30, max_value=30, max_denominator=12)
    sparse = st.dictionaries(st.integers(min_value=0, max_value=n - 1), coeff, max_size=6)
    D = QDivisor(data.draw(sparse))
    E = QDivisor(data.draw(sparse))
    F = QDivisor(data.draw(sparse))
    t = data.draw(coeff)
    assert pair(cfg, D, E) == pair(cfg, E, D)
    assert pair(cfg, D + E.scale(t), F) == pair(cfg, D, F) + t * pair(cfg, E, F)


def test_pair_profile_matches_pair(model53):
    cfg = model53.config
    D = QDivisor({model53.fm: Fraction(1, 3), model53.lxyz(1): Fraction(-2)})
    prof = pair_profile(cfg, D)
    for cid in range(cfg.n_components):
        assert prof.get(cid, Fraction(0)) == pair(cfg, D, QDivisor.single(cid))


def test_a_number_values(model53):
    p, m = 5, 3
    a = _a_values(model53.config, range(model53.config.n_components))
    assert a[model53.cid(FermatLabel("Ldelta", i=1))] == p - 2
    assert a[model53.chain(1, 2, 3)] == 0
    assert a[model53.fm] == 2 * m * m - 3 * m


def test_canonical_pair_fiber(model53):
    cfg = model53.config
    g = model53.params.genus
    assert canonical_pair(cfg, cfg.fiber_divisor()) == 2 * g - 2
    assert canonical_pair(cfg, QDivisor()) == 0


def test_adjunction_sum(models):
    for model in models.values():
        cfg = model.config
        a = _a_values(cfg, range(cfg.n_components))
        total = sum(c.multiplicity * a_c for c, a_c in zip(cfg.components, a))
        assert total == 2 * model.params.genus - 2


def test_p_a_divisor(model53):
    cfg = model53.config
    assert p_a_divisor(cfg, QDivisor.single(model53.cid(FermatLabel("Ldelta", i=3)))) == 0
    chain = QDivisor({model53.chain(j, 1, 1): Fraction(1) for j in (1, 2)})
    assert p_a_divisor(cfg, chain) == 0
    assert p_a_divisor(cfg, QDivisor.single(model53.fm)) == 1  # (m-1)(m-2)/2 for m=3
    with pytest.raises(ParameterError):
        p_a_divisor(cfg, QDivisor())
    with pytest.raises(ParameterError):
        p_a_divisor(cfg, QDivisor.single(model53.fm, Fraction(1, 2)))


def test_validate_clean(model53):
    assert all(c.passed for c in validate(model53.config))


def _mutate_self_int(cfg, cid, delta):
    comps = list(cfg.components)
    comps[cid] = dataclasses.replace(comps[cid], self_int=comps[cid].self_int + delta)
    return FiberConfig(comps, dict(cfg.edges()), cfg.genus)


def test_validate_detects_self_int_mutation(model53):
    bad = _mutate_self_int(model53.config, model53.lxyz(1), +1)
    results = {c.name: c for c in validate(bad)}
    assert not results["fiber orthogonality (F.C = 0 for all C)"].passed
    assert "LXYZ(1)" in results["fiber orthogonality (F.C = 0 for all C)"].detail


def test_validate_detects_genus_mutation(model53):
    cfg = model53.config
    comps = list(cfg.components)
    comps[model53.fm] = dataclasses.replace(comps[model53.fm], genus=0)
    bad = FiberConfig(comps, dict(cfg.edges()), cfg.genus)
    results = {c.name: c for c in validate(bad)}
    assert not results["sum d_C a_C = 2g - 2"].passed


def test_validate_detects_dropped_adjacency(model53):
    cfg = model53.config
    edges = dict(cfg.edges())
    ld = model53.cid(FermatLabel("Ldelta", i=1))
    key = (min(model53.fm, ld), max(model53.fm, ld))
    del edges[key]
    bad = FiberConfig(cfg.components, edges, cfg.genus)
    results = {c.name: c for c in validate(bad)}
    assert not results["fiber orthogonality (F.C = 0 for all C)"].passed


def test_solve_gauge_zero(model53):
    got = GaugeSolver(model53.config, model53.fm).solve(QDivisor())
    assert got == QDivisor()


def test_solve_gauge_kernel_multiple(model53):
    cfg = model53.config
    p = model53.params.p
    q = Fraction(7, 11)
    got = solve_at(GaugeSolver(cfg, model53.fm), QDivisor(), q * p)
    assert got == cfg.fiber_divisor().scale(q) == dense_solve_oracle(cfg, {}, (model53.fm, q * p))


def test_solve_gauge_matches_dense_oracle(model53):
    # representative-relation targets, checked against an independent dense solver
    cfg = model53.config
    two_g2 = 2 * model53.params.genus - 2
    targets = {
        cid: Fraction(a, two_g2) for cid, a in enumerate(_a_values(cfg, range(cfg.n_components)))
    }
    targets[model53.fm] -= Fraction(1, model53.params.p)
    gauge = (model53.fm, Fraction(model53.params.p - 2, two_g2))
    got = solve_at(GaugeSolver(cfg, gauge[0]), QDivisor(targets), gauge[1])
    want = dense_solve_oracle(cfg, targets, gauge)
    assert got == want
    prof = pair_profile(cfg, got)
    for cid in range(cfg.n_components):
        assert prof.get(cid, Fraction(0)) == targets.get(cid, Fraction(0))


def test_solve_gauge_incompatible_targets(model53):
    with pytest.raises(NoSolutionError):
        GaugeSolver(model53.config, model53.fm).solve(QDivisor.single(model53.fm))


def test_solves_on_one_solver_do_not_depend_on_earlier_solves(model53):
    # a solve reads only the factor, so it gives what a fresh solver gives after a refused,
    # a full or a one-branch solve; a full one solves t_D = t_Fm + step, with a target in
    # every branch under Fm
    cfg, fm = model53.config, model53.fm
    ldelta = model53.cid(FermatLabel("Ldelta", i=1))
    steps = [QDivisor.single(fm, Fraction(1, cfg.component(fm).multiplicity))
             - QDivisor.single(cid, Fraction(1, cfg.component(cid).multiplicity))
             for cid in (0, model53.lxyz(2), ldelta)]
    t_fm = _fm_targets(model53)
    solver = GaugeSolver(cfg, fm)
    assert len(solver.solve(t_fm).numerators()) == cfg.n_components - 1
    for step in steps + steps[::-1]:
        with pytest.raises(NoSolutionError):
            solver.solve(QDivisor.single(0))
        assert solver.solve(step) == GaugeSolver(cfg, fm).solve(step)
        assert solver.solve(t_fm + step) == GaugeSolver(cfg, fm).solve(t_fm + step)


def test_solve_gauge_extra_rank_deficiency():
    comps = [Component("A", 1, 0, 0), Component("B", 1, 0, 0)]
    cfg = FiberConfig(comps, {}, genus=2)
    with pytest.raises(MathContractError):
        GaugeSolver(cfg, 0).solve(QDivisor())


@st.composite
def orthogonal_trees(draw):
    """A random tree of up to 9 components on which fiber orthogonality holds.

    Each edge meets k * lcm(d_C, d_P) times, so every self-intersection
    -sum(e d_nbr) / d_C is an integer.
    """
    n = draw(st.integers(min_value=1, max_value=9))
    mult = draw(st.lists(st.integers(min_value=1, max_value=6), min_size=n, max_size=n))
    edges = {}
    self_int = [0] * n
    for cid in range(1, n):
        par = draw(st.integers(min_value=0, max_value=cid - 1))
        e = draw(st.integers(min_value=1, max_value=2)) * lcm(mult[par], mult[cid])
        edges[(par, cid)] = e
        self_int[par] -= e * mult[cid] // mult[par]
        self_int[cid] -= e * mult[par] // mult[cid]
    comps = [Component(f"T{cid}", mult[cid], 0, self_int[cid]) for cid in range(n)]
    return FiberConfig(comps, edges, genus=1)


@settings(max_examples=60, deadline=None)
@given(orthogonal_trees(), st.data())
def test_solve_gauge_matches_dense_oracle_on_random_trees(cfg, data):
    n = cfg.n_components
    coeff = st.fractions(min_value=-20, max_value=20, max_denominator=30)
    targets = data.draw(st.dictionaries(st.integers(min_value=0, max_value=n - 1), coeff))
    fix = data.draw(st.integers(min_value=0, max_value=n - 1))
    rest = sum(cfg.component(cid).multiplicity * v for cid, v in targets.items() if cid != fix)
    targets[fix] = -Fraction(rest) / cfg.component(fix).multiplicity
    gauge = (data.draw(st.integers(min_value=0, max_value=n - 1)), data.draw(coeff))
    got = solve_at(GaugeSolver(cfg, gauge[0]), QDivisor(targets), gauge[1])
    assert got == dense_solve_oracle(cfg, targets, gauge)


def _branch_tops(cfg, root):
    """{C: the neighbour of root whose side of the tree holds C}, for every C but root."""
    top = {nbr: nbr for nbr in cfg._nbrs[root]}
    queue = list(top)
    for cid in queue:
        for nbr in cfg._nbrs[cid]:
            if nbr != root and nbr not in top:
                top[nbr] = top[cid]
                queue.append(nbr)
    return top


@settings(max_examples=60, deadline=None)
@given(orthogonal_trees(), st.data())
def test_solve_sparse_targets_matches_dense_oracle_at_every_root(cfg, data):
    n = cfg.n_components
    mult = [c.multiplicity for c in cfg.components]
    node = st.integers(min_value=0, max_value=n - 1)
    a, b = data.draw(node, label="a"), data.draw(node, label="b")
    two_point = QDivisor.single(a, Fraction(1, mult[a])) - QDivisor.single(b, Fraction(1, mult[b]))
    sparse = data.draw(st.dictionaries(node, COEFFS, max_size=3), label="sparse")
    fix = data.draw(node, label="fix")
    sparse[fix] = -Fraction(sum(mult[cid] * v for cid, v in sparse.items() if cid != fix)) / mult[fix]
    gauge = data.draw(COEFFS.filter(bool), label="gauge")
    for root in range(n):
        solver = GaugeSolver(cfg, root)
        for targets in (dict(two_point.items()), sparse):
            for value in (Fraction(0), gauge):
                got = solve_at(solver, QDivisor(targets), value)
                assert got == dense_solve_oracle(cfg, targets, (root, value)), (root, targets, value)
        # the solution stays inside the branches that hold a and b: a branch without a
        # target has every F_C = 0, so its y_C all equal the gauge's, 0
        top = _branch_tops(cfg, root)
        reached = {top[cid] for cid in (a, b) if cid != root}
        assert {top.get(cid) for cid, _ in solver.solve(two_point).items()} <= reached


def _below_edge(cfg, par, cid):
    """The components on cid's side of the edge (par, cid)."""
    side, queue = {cid}, [cid]
    for c in queue:
        for nbr in cfg._nbrs[c]:
            if nbr != par and nbr not in side:
                side.add(nbr)
                queue.append(nbr)
    return side


@settings(max_examples=40, deadline=None)
@given(orthogonal_trees())
def test_an_edge_solves_to_the_fiber_below_it_at_every_root(cfg):
    # rooted at r, the gauge-0 solution of P/d_P - D/d_D for a tree edge (P, D), D the end
    # away from r, is F restricted to D's side A over w = e d_D d_P; the divisor sweep walks
    # this identity, so the dense oracle checks it first, and then _branch_steps' listing
    mult = [c.multiplicity for c in cfg.components]
    for root in range(cfg.n_components):
        want = {}
        for (a, b), e in cfg.edges():
            par, cid = (a, b) if root not in _below_edge(cfg, a, b) else (b, a)
            side = _below_edge(cfg, par, cid)
            fa = QDivisor({c: Fraction(mult[c], e * mult[cid] * mult[par]) for c in side})
            targets = {par: Fraction(1, mult[par]), cid: Fraction(-1, mult[cid])}
            assert dense_solve_oracle(cfg, targets, (root, 0)) == fa, (root, par, cid)
            want[cid] = par, fa
        solver = GaugeSolver(cfg, root)
        steps = _branch_steps(solver)
        assert next(steps) == (root, None, ({}, solver._scale))
        got = {cid: (par, QDivisor.from_numerators(*f_a)) for cid, par, f_a in steps}
        assert got == want


def check_tree(cfg, root):
    """`_tree(cfg, root)` is a depth-first order of every component from root, with parents."""
    order, parent = _tree(cfg, root)
    assert sorted(order) == list(range(cfg.n_components)) and order[0] == root
    assert parent[root] == root
    position = {cid: i for i, cid in enumerate(order)}
    for i, cid in enumerate(order[1:], 1):
        assert parent[cid] in cfg._nbrs[cid] and position[parent[cid]] < i
        # depth-first: cid comes right after its parent or after a subtree under an
        # earlier sibling, so the component before it descends from its parent
        up = order[i - 1]
        while up != parent[cid]:
            assert up != root, (order, cid)
            up = parent[up]


@settings(max_examples=60, deadline=None)
@given(orthogonal_trees(), st.data())
def test_factor_implies_the_kernel_is_the_fiber_divisor(cfg, data):
    # validate's kernel check is the factor, whose refusals are `_tree`'s: wherever
    # `_tree(cfg, r)` and GaugeSolver(cfg, r) accept, the homogeneous system pinned to d_r
    # at r has F as its one solution
    root = data.draw(st.integers(min_value=0, max_value=cfg.n_components - 1))
    check_tree(cfg, root)
    GaugeSolver(cfg, root)
    want = dense_solve_oracle(cfg, {}, (root, cfg.component(root).multiplicity))
    assert want == cfg.fiber_divisor()


def test_factor_implies_the_kernel_is_the_fiber_divisor_on_a_built_fiber(model53):
    cfg = model53.config
    for root in (0, model53.fm):
        check_tree(cfg, root)
        GaugeSolver(cfg, root)
        want = dense_solve_oracle(cfg, {}, (root, cfg.component(root).multiplicity))
        assert want == cfg.fiber_divisor()


@settings(max_examples=60, deadline=None)
@given(orthogonal_trees(), st.data())
def test_pairing_kernels_match_dense_pairing_on_random_trees(cfg, data):
    n = cfg.n_components
    sparse = st.dictionaries(st.integers(min_value=0, max_value=n - 1), COEFFS, max_size=n)
    D, E, F = (QDivisor(data.draw(sparse)) for _ in range(3))
    t = data.draw(COEFFS)
    matrix = [[_pair_cc(cfg, i, j) for j in range(n)] for i in range(n)]
    dense = [sum(D.coeff(i) * matrix[i][j] for i in range(n)) for j in range(n)]

    assert pair_profile(cfg, D) == {j: v for j, v in enumerate(dense) if v}
    assert [pair(cfg, D, QDivisor.single(j)) for j in range(n)] == dense
    assert pair(cfg, D, E) == sum(E.coeff(j) * dense[j] for j in range(n))
    assert pair(cfg, D, E) == pair(cfg, E, D)
    assert pair(cfg, D + E.scale(t), F) == pair(cfg, D, F) + t * pair(cfg, E, F)


def _small_config(comps, edges):
    """Components given as (multiplicity, self-intersection), all of genus 0."""
    return FiberConfig(
        [Component(f"C{cid}", d, 0, s) for cid, (d, s) in enumerate(comps)], edges, genus=1
    )


NOT_ORTHOGONAL_TREES = {
    # orthogonal, but the three components form a cycle
    "cycle": _small_config([(1, -2)] * 3, {(0, 1): 1, (1, 2): 1, (0, 2): 1}),
    # two orthogonal pieces with no edge between them
    "disconnected": _small_config([(1, -1)] * 4, {(0, 1): 1, (2, 3): 1}),
    # a chain whose last component has the wrong self-intersection
    "non-orthogonal": _small_config([(1, -1), (1, -2), (1, -2)], {(0, 1): 1, (1, 2): 1}),
}


@pytest.mark.parametrize("kind", sorted(NOT_ORTHOGONAL_TREES))
def test_solver_rejects_configs_that_are_not_orthogonal_trees(kind):
    cfg = NOT_ORTHOGONAL_TREES[kind]
    with pytest.raises(MathContractError) as refused:
        GaugeSolver(cfg, 0)
    results = {c.name: c for c in validate(cfg)}
    kernel = results["kernel spanned by multiplicity vector"]
    assert not kernel.passed
    assert kernel.detail == str(refused.value) != ""


def test_empty_configs_build_with_or_without_sizes():
    assert FiberConfig([], {}, 1).n_components == 0
    assert FiberConfig([], {}, 1, sizes=[]).n_components == 0
    with pytest.raises(ParameterError):
        FiberConfig([Component("A", 1, 0, -1)], {}, 1, sizes=[0])


@pytest.mark.parametrize("sizes", [None, []], ids=["no-sizes", "empty-sizes"])
def test_validate_reports_an_empty_fiber_and_raises_nothing(sizes):
    cfg = FiberConfig([], {}, 1, sizes=sizes)
    results = validate(cfg)
    assert len(results) == 4
    failed = [c for c in results if not c.passed]
    assert [c.name for c in failed] == ["kernel spanned by multiplicity vector"]
    with pytest.raises(MathContractError) as refused:
        GaugeSolver(cfg, 0)
    assert failed[0].detail == str(refused.value) == "fiber has no components"


@pytest.mark.parametrize("pairings,sizes", [
    ({(0, 1): 1, (1, 0): -1}, None),
    ({(0, 1): 0.5}, None),
    ({(0, 1): Fraction(1)}, None),
    ({(0, 1): 1}, [1, 1.0]),
    ({(0, 1): 1}, [1, Fraction(2)]),
], ids=["negative-count", "float-count", "fraction-count", "float-size", "fraction-size"])
def test_fiber_config_takes_only_int_counts_and_sizes(pairings, sizes):
    comps = [Component("A", 1, 0, -1), Component("B", 1, 0, -1)]
    with pytest.raises(ParameterError):
        FiberConfig(comps, pairings, 0, sizes=sizes)
    zero = FiberConfig(comps, {(0, 1): 0}, 0)
    assert list(zero.edges()) == [] and zero._nbrs[0] == {}


@pytest.mark.parametrize("coeff", [0.1, 1.0, "1/2"])
def test_qdivisor_takes_only_exact_coefficients(coeff):
    with pytest.raises(ParameterError, match="must be an int or a Fraction"):
        QDivisor({0: coeff})


@pytest.mark.parametrize("k", [0.1, 1.0, "1/2"])
def test_qdivisor_scales_only_by_exact_factors(k):
    with pytest.raises(ParameterError, match="scale factor must be an int or a Fraction"):
        QDivisor({0: 1}).scale(k)
    assert QDivisor({0: 1}).scale(Fraction(1, 10)) == QDivisor({0: Fraction(1, 10)})


def test_component_cap(monkeypatch):
    monkeypatch.setenv("FFK_COMPONENT_CAP", "1")
    from ffk.errors import CapExceeded

    comps = [Component("A", 1, 0, -1), Component("B", 1, 0, -1)]
    with pytest.raises(CapExceeded):
        FiberConfig(comps, {(0, 1): 1}, genus=1)
    monkeypatch.setenv("FFK_COMPONENT_CAP", "one")
    with pytest.raises(ParameterError, match="bad FFK_COMPONENT_CAP value: 'one'"):
        FiberConfig(comps, {(0, 1): 1}, genus=1)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_reduced_genus_zero_tree_has_pa_zero(data):
    # any reduced connected tree of genus-0 components has arithmetic genus 0
    n = data.draw(st.integers(min_value=1, max_value=9))
    comps = []
    edges = {}
    for cid in range(n):
        self_int = data.draw(st.integers(min_value=-9, max_value=-1))
        comps.append(Component(f"T{cid}", 1, 0, self_int))
        if cid:
            parent = data.draw(st.integers(min_value=0, max_value=cid - 1))
            edges[(parent, cid)] = 1
    cfg = FiberConfig(comps, edges, genus=0)
    z = QDivisor({cid: Fraction(1) for cid in range(n)})
    assert p_a_divisor(cfg, z) == 0


@pytest.mark.parametrize("fields", [
    ("A", 1.5, 0, -1.25), ("A", 1, 0, -1.25), ("A", 1, 0.5, -2), ("A", Fraction(2), 0, -2),
], ids=["float-multiplicity", "float-self-int", "float-genus", "fraction-multiplicity"])
def test_component_takes_only_int_fields(fields):
    with pytest.raises(ParameterError, match="must be an int"):
        Component(*fields)


def test_fiber_config_takes_only_an_int_genus():
    c = Component("A", 1, 0, 0)
    with pytest.raises(ParameterError, match="genus must be an int, got 0.5"):
        FiberConfig([c], {}, 0.5)
    assert FiberConfig([c], {}, 0).genus == 0


def _maps(cfg):
    """Every neighbour map, in id order and in its own insertion order."""
    return [list(nbrs.items()) for nbrs in cfg._nbrs]


def test_fiber_config_takes_pairings_as_a_stream(model73):
    cfg = model73.config
    edges = list(cfg.edges())
    from_dict = FiberConfig(cfg.components, dict(edges), cfg.genus)
    from_stream = FiberConfig(cfg.components, iter(edges), cfg.genus)
    assert _maps(from_stream) == _maps(from_dict)
    assert [sorted(row) for row in _maps(from_stream)] == [sorted(row) for row in _maps(cfg)]
    # mirrored and repeated pairs are summed, and zero counts make no edge
    comps = [Component(x, 1, 0, -1) for x in "ABC"]
    stream = [((0, 1), 1), ((1, 0), 2), ((0, 1), 3), ((1, 2), 0)]
    assert _maps(FiberConfig(comps, stream, 0)) == _maps(FiberConfig(comps, {(0, 1): 6}, 0))
    assert _maps(FiberConfig(comps, stream, 0)) == [[(1, 6)], [(0, 6)], []]


@pytest.mark.parametrize("pairings", [
    {(1, 1): 1}, {(0, 3): 1}, {(-1, 0): 1}, {(0, 1): -1}, {(0, 1): 0.5}, {(0, 1): Fraction(1)},
], ids=["diagonal", "id-too-large", "negative-id", "negative-count", "float-count",
        "fraction-count"])
def test_fiber_config_stream_raises_as_the_mapping_does(pairings):
    comps = [Component(x, 1, 0, -1) for x in "ABC"]
    with pytest.raises(ParameterError) as from_dict:
        FiberConfig(comps, pairings, 0)
    with pytest.raises(ParameterError) as from_stream:
        FiberConfig(comps, iter(pairings.items()), 0)
    assert str(from_stream.value) == str(from_dict.value)


def _i_c(cfg, cid):
    """I_C of one component, looked up in its own neighbour map."""
    return sum(cfg.components[nbr].multiplicity * cnt for nbr, cnt in cfg._nbrs[cid].items())


def _first_offender(cfg):
    """The first C with d_C C^2 + I_C != 0, from one _i_c look-up per component."""
    return next((c for cid, c in enumerate(cfg.components)
                 if c.multiplicity * c.self_int + _i_c(cfg, cid)), None)


@settings(max_examples=60, deadline=None)
@given(orthogonal_trees(), st.data())
def test_i_c_pass_matches_single_look_ups(cfg, data):
    n = cfg.n_components
    assert i_c_values(cfg) == [_i_c(cfg, cid) for cid in range(n)]
    assert cfg.non_orthogonal is None
    # a mutant with one self-intersection, multiplicity or edge count changed
    comps, edges = list(cfg.components), dict(cfg.edges())
    kinds = ["self_int", "multiplicity"] + (["edge"] if edges else [])
    kind = data.draw(st.sampled_from(kinds), label="kind")
    delta = data.draw(st.integers(min_value=1, max_value=3), label="delta")
    if kind == "edge":
        key = data.draw(st.sampled_from(sorted(edges)), label="edge")
        edges[key] += delta
    else:
        cid = data.draw(st.integers(min_value=0, max_value=n - 1), label="cid")
        comps[cid] = dataclasses.replace(comps[cid], **{kind: getattr(comps[cid], kind) + delta})
    bad = FiberConfig(comps, edges.items(), cfg.genus)
    assert i_c_values(bad) == [_i_c(bad, cid) for cid in range(n)]
    assert bad.non_orthogonal is _first_offender(bad)


@settings(max_examples=60, deadline=None)
@given(orthogonal_trees(), st.data())
def test_p_a_divisor_is_the_adjunction_formula(cfg, data):
    n = cfg.n_components
    node = st.integers(min_value=0, max_value=n - 1)
    sized = data.draw(st.booleans(), label="sized")
    if sized:
        sizes = data.draw(st.lists(st.integers(min_value=1, max_value=4), min_size=n, max_size=n))
        cfg = FiberConfig(cfg.components, cfg.edges(), cfg.genus, sizes)
    D = QDivisor(data.draw(st.dictionaries(node, st.integers(min_value=1, max_value=5),
                                           min_size=1), label="D"))
    assert p_a_divisor(cfg, D) == 1 + (pair(cfg, D, D) + canonical_pair(cfg, D)) / 2
    cid = data.draw(node, label="cid")
    for bad in (QDivisor(), D + QDivisor.single(cid, Fraction(1, 2)),
                D - QDivisor.single(cid, D.coeff(cid) + 1)):
        with pytest.raises(ParameterError):
            p_a_divisor(cfg, bad)

