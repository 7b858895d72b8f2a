import dataclasses
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest

from ffk import polyarith
from ffk.divisors import beta_s, g_s, per_prime_geometric, semipos_check
from ffk.errors import CapExceeded, ParameterError
from ffk.fiber import FiberConfig, QDivisor, _tree, i_c_values, pair, validate
from ffk.model import (
    _LAYOUT,
    FermatLabel,
    FermatLabels,
    FermatModel,
    FermatParams,
    build_config,
    cusp_quotient,
    expected_census,
    genus_formula,
    i_c_matches_pairing,
    transversality_check,
)
from ffk.verify import ACCEPTANCE_PAIRS, representative_relation_full, suite_cycles
from conftest import fiber_edges
from test_fiber import columns


def test_census_5_3(model53):
    assert model53.census() == {
        "Fm": 1, "LXYZ": 9, "Chain": 90, "Lgamma": 0, "LgammaLeaf": 0, "Ldelta": 18,
    }
    assert model53.config.n_components == 118


def test_census_7_3(model73):
    # census with the closure count rho = m*s = 6: the squared factors
    # of the composed polynomial give m*rho gamma-lines, each with p leaves,
    # leaving m^2(p-3) - 2*m*rho delta-lines (here zero).
    assert model73.params.m * model73.params.s == 6
    assert model73.census() == {
        "Fm": 1, "LXYZ": 9, "Chain": 126, "Lgamma": 18, "LgammaLeaf": 126, "Ldelta": 0,
    }


def test_census_3_5(model35):
    census = model35.census()
    assert census["Ldelta"] == 0 and census["Lgamma"] == 0
    assert census["Chain"] == 3 * 5 * 3 * 4 and census["LXYZ"] == 15


def test_census_synthetic_s():
    # s is an explicit knob for synthetic configurations
    m = build_config(7, 3, s=1)
    assert m.census()["Lgamma"] == 9
    assert m.census()["LgammaLeaf"] == 63
    assert m.census()["Ldelta"] == 9 * 4 - 2 * 9


def test_multiplicities_and_selfints(model73):
    cfg = model73.config

    def row(cid):
        return cfg.multiplicities[cid], cfg.genera[cid], cfg.self_ints[cid]

    assert row(model73.fm) == (7, 1, -9)
    assert row(model73.lgamma(4)) == (2, 0, -7)
    assert row(model73.leaf(2, 4)) == (1, 0, -2)


def test_param_validation():
    with pytest.raises(ParameterError, match="prime exponent"):
        FermatParams(5, 1, 0)
    with pytest.raises(ParameterError):
        FermatParams(5, 4, 0)  # even m
    with pytest.raises(ParameterError):
        FermatParams(3, 15, 0)  # gcd(p, m) != 1
    with pytest.raises(ParameterError):
        FermatParams(7, 45, 0)  # m squareful
    with pytest.raises(ParameterError):
        FermatParams(4, 3, 0)  # p not prime
    with pytest.raises(ParameterError):
        FermatParams(5, 3, 2)  # 2s > p-3


@pytest.mark.parametrize("p, m, s, name", [
    (7, 3.0, None, "m"), (7.0, 3, None, "p"), (7, 3, 2.0, "s"), (7, 3, True, "s"),
    (True, 3, None, "p"), (7, Fraction(3), 0, "m"),
], ids=["float-m", "float-p", "float-s", "bool-s", "bool-p", "fraction-m"])
def test_params_take_only_ints(monkeypatch, p, m, s, name):
    # refused before any trial division, so neither the model nor its census is built
    def refused(n):
        raise AssertionError(f"trial division of {n!r}")

    monkeypatch.setattr(polyarith, "factorize", refused)
    for make in (FermatParams, build_config):
        with pytest.raises(ParameterError, match=f"^{name} must be an int, got "):
            make(p, m, s)


def test_genus_formula():
    assert genus_formula(15) == 91
    assert genus_formula(3) == 1
    assert genus_formula(21) == 190
    with pytest.raises(ParameterError):
        genus_formula(2)


def test_i_c_values(model53):
    ics = i_c_values(model53.config)
    for j in (1, 2):
        assert ics[model53.chain(j, 2, 4)] == 2 * j
    assert ics[model53.lxyz(3)] == 5 + 5 * 2
    assert ics[model53.fm] == 9 * 5
    assert ics[model53.cid(FermatLabel("Ldelta", i=1))] == 5


def test_i_c_gamma(model73):
    ics = i_c_values(model73.config)
    assert ics[model73.lgamma(1)] == 2 * 7
    assert ics[model73.leaf(1, 1)] == 2


def test_transversality(models):
    for model in models.values():
        assert transversality_check(model)
        p, m = model.params.p, model.params.m
        assert 2 * model.params.genus - 2 == m * m * p * p - 3 * m * p


def test_transversality_detects_mutation(model53):
    cfg = model53.config
    edges = dict(fiber_edges(cfg))
    ld = model53.cid(FermatLabel("Ldelta", i=2))
    key = (min(model53.fm, ld), max(model53.fm, ld))
    del edges[key]
    bad_cfg = FiberConfig(*columns(cfg), edges, cfg.genus)
    bad = dataclasses.replace(model53, config=bad_cfg)
    assert not transversality_check(bad)


def test_i_c_pairing_equality(models, monkeypatch):
    # every (F . C) comes from one pairing_divisor(config, F), not one pairing per component
    import ffk.fiber
    import ffk.model

    calls = []

    def counted(*args):
        calls.append(args)
        return ffk.fiber.pairing_divisor(*args)

    monkeypatch.setattr(ffk.model, "pairing_divisor", counted, raising=False)
    for model in models.values():
        calls.clear()
        assert i_c_matches_pairing(model)
        assert len(calls) == 1


def test_cusp_sections(models):
    for model in models.values():
        n = model.params.n
        assert len(model.cusps) == 3 * n
        targets = list(model.cusps)
        assert len(set(targets)) == 3 * n
        for t in targets:
            lab = model.config.labels[t]
            assert lab.kind == "Chain" and lab.j == 1
            assert model.cusp(lab.i, lab.k) == t
        # each multiplicity-one chain end is hit exactly once
        ends = {cid for cid, lab in enumerate(model.config.labels)
                if lab.kind == "Chain" and lab.j == 1}
        assert set(targets) == ends


def test_labels_deterministic(model53):
    again = build_config(5, 3, 0)
    labels = list(again.config.labels)
    assert labels == list(model53.config.labels)
    assert [str(lab) for lab in labels] == list(map(str, model53.config.labels))
    assert labels == sorted(labels)


def test_label_str():
    assert str(FermatLabel("Fm")) == "Fm"
    assert str(FermatLabel("LXYZ", i=2)) == "LXYZ(2)"
    assert str(FermatLabel("Chain", i=1, k=2, j=1)) == "Chain(j=1,k=2,i=1)"
    assert str(FermatLabel("LgammaLeaf", i=3, j=4)) == "LgammaLeaf(j=4,i=3)"


def test_label_is_its_tuple():
    lab = FermatLabel("Chain", i=1, k=2, j=3)
    kind, i, k, j = lab
    assert lab == ("Chain", 1, 2, 3) == (kind, i, k, j) and len(lab) == 4
    assert FermatLabel("Fm") == ("Fm", 0, 0, 0) and hash(lab) == hash(("Chain", 1, 2, 3))


@pytest.mark.parametrize("p, m, s", [(3, 5, 0), (7, 3, 1), (7, 5, 2), (5, 7, 0)])
def test_fermat_labels_index_as_a_tuple_does(p, m, s):
    labels = FermatLabels(p, m, s)
    ref, n = tuple(labels), len(labels)
    assert n == sum(expected_census(p, m, s).values())
    for cid in (0, 1, n // 2, n - 1, -1, -2, -n // 2, -n):
        assert labels[cid] == ref[cid] and type(labels[cid]) is FermatLabel
    for cut in (slice(None), slice(3, 9, 2), slice(None, None, -1), slice(-5, None),
                slice(n, None), slice(5, 2), slice(-n - 3, 2), slice(None, None, -7)):
        assert labels[cut] == ref[cut]
    for bad in (n, -n - 1):
        with pytest.raises(IndexError):
            labels[bad]
    with pytest.raises(TypeError):
        labels[1.0]
    assert labels == FermatLabels(p, m, s) != FermatLabels(p, m + 2, s)
    with pytest.raises(dataclasses.FrozenInstanceError):
        labels.p = 5


def test_component_cap(monkeypatch):
    monkeypatch.setenv("FFK_COMPONENT_CAP", "50")
    with pytest.raises(CapExceeded):
        build_config(5, 3)


def test_component_cap_fires_before_any_component_is_built(monkeypatch):
    def no_alloc(*args, **kwargs):
        raise AssertionError("a label was made before the cap check")

    # the labels are the first column build_config makes
    monkeypatch.setattr("ffk.model.FermatLabels", no_alloc)
    monkeypatch.setenv("FFK_COMPONENT_CAP", "19159")
    with pytest.raises(CapExceeded, match="19160 components exceed the component cap 19159"):
        build_config(7, 23)
    monkeypatch.undo()
    monkeypatch.setenv("FFK_COMPONENT_CAP", "118")
    assert build_config(5, 3).config.n_components == 118


def _no_double_roots(p):
    raise AssertionError("s(p) was computed")


def test_component_cap_fires_before_s_is_computed(monkeypatch):
    monkeypatch.setattr("ffk.polyarith.double_root_count", _no_double_roots)
    monkeypatch.setenv("FFK_COMPONENT_CAP", "50")
    with pytest.raises(CapExceeded, match="component cap 50"):
        build_config(7, 3)
    monkeypatch.delenv("FFK_COMPONENT_CAP")
    with pytest.raises(CapExceeded):
        build_config(99991, 3)  # the s = 0 census alone is 2.7e6 components


@pytest.mark.parametrize("s, want", [(None, [7, 23, 7]), (2, [7, 23])])
def test_build_trial_divides_m_once_and_p_at_most_twice(monkeypatch, s, want):
    # p and m by FermatParams, and p again by s(p)'s own check when s is derived
    seen, factorize = [], polyarith.factorize

    def spy(n):
        seen.append(n)
        return factorize(n)

    monkeypatch.setattr(polyarith, "factorize", spy)
    assert build_config(7, 23, s).params.s == 2
    assert seen == want


def test_build_validate_and_census_make_no_component(monkeypatch):
    # the store is columns only: after the build, validate, the census and the cusp
    # identities, a config holds its columns, its int link lists, no extra edge and its
    # cached orthogonality verdict, and no object per component; the build, validate
    # and the census make no label either (with FermatLabel unset, making one raises
    # TypeError)
    monkeypatch.setattr("ffk.model.FermatLabel", None)
    for p, m, s in ((3, 5, None), (7, 3, None), (11, 3, 4), (13, 3, 0), (7, 23, None)):
        model = build_config(p, m, s)
        assert all(chk.passed for chk in validate(model.config))
        assert model.census() == expected_census(p, m, model.params.s)
    monkeypatch.undo()
    beta_s(model), per_prime_geometric(model), g_s(model), semipos_check(model)
    cfg = model.config
    assert sorted(vars(cfg)) == ["_extra", "_first", "_nxt", "_up", "_upc", "genera", "genus",
                                 "labels", "multiplicities", "non_orthogonal", "self_ints",
                                 "sizes"]
    assert {type(v) for col in (cfg.multiplicities, cfg.genera, cfg.self_ints) for v in col} == {int}
    assert {type(v) for col in (cfg._up, cfg._upc, cfg._first, cfg._nxt) for v in col} == {int}
    assert cfg._extra == {}
    assert isinstance(cfg.labels, FermatLabels) and cfg.labels == FermatLabels(7, 23, 2)


def test_bad_parameters_fail_before_s_is_computed(monkeypatch):
    monkeypatch.setattr("ffk.polyarith.double_root_count", _no_double_roots)
    with pytest.raises(ParameterError, match="m must be odd"):
        build_config(99991, 4)


def test_suite_cycles_reads_chains_as_id_runs(models, monkeypatch):
    model = models[(7, 3)]
    calls = []

    def recording(self, *args, _chain=FermatModel.chain):
        calls.append(args)
        return _chain(self, *args)

    monkeypatch.setattr(FermatModel, "chain", recording)
    assert [chk.passed for chk in suite_cycles([model])] == [True]
    assert calls == []
    # a config whose labels do not match the model's ids fails the check, it does not raise
    cols = columns(model.config)
    cols[0][model.fm] = FermatLabel("LXYZ", i=99)
    bad = dataclasses.replace(model, config=FiberConfig(*cols, dict(fiber_edges(model.config)),
                                                        model.config.genus))
    assert [chk.passed for chk in suite_cycles([bad])] == [False]


def test_fiber_divisor_orthogonal_on_all(models):
    for model in models.values():
        cfg = model.config
        fpi = cfg.fiber_divisor()
        assert all(pair(cfg, fpi, QDivisor.single(cid)) == 0 for cid in range(cfg.n_components))


@pytest.mark.parametrize("pm, label", [
    pytest.param((5, 3), FermatLabel("Ldelta", i=99), id="ldelta-past-count"),
    pytest.param((3, 5), FermatLabel("Ldelta", i=1), id="ldelta-at-p3"),
    pytest.param((5, 3), FermatLabel("Chain", i=1, k=1, j=3), id="chain-j-m"),
    pytest.param((5, 3), FermatLabel("Chain", i=1, k=1, j=0), id="chain-j-0"),
    pytest.param((5, 3), FermatLabel("Chain", i=1, k=6, j=1), id="chain-k-p+1"),
    pytest.param((5, 3), FermatLabel("Chain", i=10, k=1, j=1), id="chain-i-3m+1"),
    pytest.param((5, 3), FermatLabel("LXYZ", i=0), id="lxyz-0"),
    pytest.param((5, 3), FermatLabel("LXYZ", i=10), id="lxyz-3m+1"),
    pytest.param((5, 3), FermatLabel("Lgamma", i=1), id="lgamma-at-s0"),
    pytest.param((5, 3), FermatLabel("LgammaLeaf", i=1, j=1), id="leaf-at-s0"),
    pytest.param((7, 3), FermatLabel("LgammaLeaf", i=1, j=8), id="leaf-j-p+1"),
    pytest.param((5, 3), FermatLabel("Fm", i=1), id="fm-i-1"),
    pytest.param((5, 3), FermatLabel("Curve"), id="unknown-kind"),
    pytest.param((5, 3), 5, id="an-int"),
    pytest.param((5, 3), None, id="none"),
    pytest.param((5, 3), ("LXYZ", "1", 0, 0), id="str-field"),
    pytest.param((5, 3), ("Chain", 1, 1, None), id="none-field"),
])
def test_unknown_label_lookup(models, pm, label):
    # whatever the label, index raises ValueError, as tuple.index does, and cid ParameterError
    with pytest.raises(ValueError):
        models[pm].config.labels.index(label)
    with pytest.raises(ParameterError, match="no component labelled"):
        models[pm].cid(label)


def test_cid_decodes_no_label_and_the_sweep_about_two_a_component(models, monkeypatch):
    # cid is labels.index: the closed form, with no label decoded; the divisor sweep
    # decodes D in its loop and in v_own, and little else (3.0 and 3.1 when cid decoded)
    decodes, kinds, getitem = [], set(), FermatLabels.__getitem__

    def spy(self, cid):
        decodes.append(cid)
        return getitem(self, cid)

    monkeypatch.setattr(FermatLabels, "__getitem__", spy)
    for pm in ((5, 3), (7, 3)):  # every kind: (5,3) has no Lgamma, (7,3) no Ldelta
        model = models[pm]
        for label in {lab.kind: lab for lab in model.config.labels}.values():
            kinds.add(label.kind)
            assert model.cid(label) == list(model.config.labels).index(label)
        with pytest.raises(ParameterError):
            model.cid(FermatLabel("LXYZ", 3 * pm[1] + 1))
        model.lxyz(1), model.chain(1, 2, 3), model.cusp(2, 1), model.fm
        assert decodes == []
        assert all(chk.passed for chk in representative_relation_full(model))
        assert len(decodes) <= 2.2 * model.config.n_components, pm
        decodes.clear()
    assert kinds == set(_LAYOUT)


def _build_by_sorted_labels(p, m, s):
    """The fiber built without closed-form ids: sorted labels, edges looked up by label.

    Its counts and shapes are the census table's, written out here a second time."""
    census = {"Lgamma": m * m * s, "Ldelta": m * m * (p - 3) - 2 * m * m * s}
    labels = [FermatLabel("Fm")]
    labels += [FermatLabel("LXYZ", i=i) for i in range(1, 3 * m + 1)]
    labels += [FermatLabel("Chain", i=i, k=k, j=j)
               for i in range(1, 3 * m + 1) for k in range(1, p + 1) for j in range(1, m)]
    labels += [FermatLabel("Lgamma", i=i) for i in range(1, census["Lgamma"] + 1)]
    labels += [FermatLabel("LgammaLeaf", i=i, j=j)
               for i in range(1, census["Lgamma"] + 1) for j in range(1, p + 1)]
    labels += [FermatLabel("Ldelta", i=i) for i in range(1, census["Ldelta"] + 1)]
    labels.sort()
    by_label = {lab: cid for cid, lab in enumerate(labels)}
    shape = {"Fm": (p, genus_formula(m), -m * m), "LXYZ": (m, 0, -p), "Lgamma": (2, 0, -p),
             "LgammaLeaf": (1, 0, -2), "Ldelta": (1, 0, -p)}
    mult, genera, self_ints = zip(*((lab.j, 0, -2) if lab.kind == "Chain" else shape[lab.kind]
                                    for lab in labels))

    def cid(kind, **kw):
        return by_label[FermatLabel(kind, **kw)]

    pairs = {}
    for i in range(1, 3 * m + 1):
        pairs[(cid("LXYZ", i=i), cid("Fm"))] = 1
        for k in range(1, p + 1):
            for j in range(1, m - 1):
                pairs[(cid("Chain", i=i, k=k, j=j), cid("Chain", i=i, k=k, j=j + 1))] = 1
            pairs[(cid("Chain", i=i, k=k, j=m - 1), cid("LXYZ", i=i))] = 1
    for i in range(1, census["Lgamma"] + 1):
        pairs[(cid("Lgamma", i=i), cid("Fm"))] = 1
        for j in range(1, p + 1):
            pairs[(cid("LgammaLeaf", i=i, j=j), cid("Lgamma", i=i))] = 1
    for i in range(1, census["Ldelta"] + 1):
        pairs[(cid("Ldelta", i=i), cid("Fm"))] = 1
    cusps = tuple(cid("Chain", i=i, k=k, j=1)
                  for i in range(1, 3 * m + 1) for k in range(1, p + 1))
    cfg = FiberConfig(labels, mult, genera, self_ints, pairs, genus_formula(p * m))
    return tuple(labels), by_label, cfg, cusps


# every acceptance (p, m) (p = 3 among them), then synthetic s at each census edge:
# s = 0 (no Lgamma) and 2s = p - 3 (no Ldelta), and one with every kind
@pytest.mark.parametrize("p, m, s", [(p, m, None) for p, m in ACCEPTANCE_PAIRS] + [
    (7, 23, None), (11, 3, 4), (13, 3, 0), (7, 5, 0), (13, 3, 5), (7, 3, 1)])
def test_closed_form_ids_match_sorted_label_build(p, m, s):
    model = build_config(p, m, s)
    labels, by_label, cfg, cusps = _build_by_sorted_labels(p, m, model.params.s)
    assert [model.cid(lab) for lab in labels] == [by_label[lab] for lab in labels]
    # the labels made on demand: streamed and decoded alike, the sorted labels, each
    # the inverse of cid, and counted by kind as the census the layout gives
    got = model.config.labels
    n = len(got)
    assert list(got) == [got[cid] for cid in range(n)] == list(labels)
    assert [got.index(got[cid]) for cid in range(n)] == list(range(n))
    assert [model.cid(got[cid]) for cid in range(n)] == list(range(n))
    # every field of every kind has its range: a label past one names no component
    n_gamma, n_delta = model.census()["Lgamma"], model.census()["Ldelta"]
    bad = [FermatLabel("Chain", i, k, j) for i, k, j in (
        (1, 1, 0), (1, 1, m), (1, p + 1, 1), (1, 0, 1), (3 * m + 1, 1, 1), (0, 1, 1))]
    bad += [FermatLabel("Fm", 1), FermatLabel("Fm", 0, 1), FermatLabel("Fm", 0, 0, 1),
            FermatLabel("LXYZ", 0), FermatLabel("LXYZ", 3 * m + 1), FermatLabel("LXYZ", 1, 1),
            FermatLabel("Ldelta", n_delta + 1), FermatLabel("Ldelta", 0),
            FermatLabel("Ldelta", 1, 0, 1), FermatLabel("Lgamma", n_gamma + 1),
            FermatLabel("Lgamma", 0), FermatLabel("Lgamma", 1, 1),
            FermatLabel("LgammaLeaf", n_gamma + 1, 0, 1), FermatLabel("LgammaLeaf", 1, 0, 0),
            FermatLabel("LgammaLeaf", 1, 0, p + 1), FermatLabel("LgammaLeaf", 1, 1, 1),
            FermatLabel("Curve"), FermatLabel("LXYZ", 1.5), FermatLabel("Chain", 1, 1, 1.5)]
    for label in bad:
        with pytest.raises(ValueError):
            got.index(label)
        with pytest.raises(ParameterError, match="no component labelled"):
            model.cid(label)
    # on a hand-built tuple, cid finds a label wherever it sits
    flipped = dataclasses.replace(model, config=FiberConfig(
        labels[::-1], *columns(cfg)[1:], {}, cfg.genus))
    for cid in (0, 1, n // 2, n - 1):
        assert flipped.cid(labels[cid]) == n - 1 - cid
    assert Counter(lab.kind for lab in got) == Counter(model.census())
    # the reference build's tuple of labels is counted label by label
    assert dataclasses.replace(model, config=cfg).census() == model.census()
    assert columns(model.config) == columns(cfg)
    assert sorted(fiber_edges(model.config)) == sorted(fiber_edges(cfg))
    # the same neighbour order too, so every sparse kernel walks the graph alike
    assert ([list(model.config.neighbours(cid)) for cid in range(n)]
            == [list(cfg.neighbours(cid)) for cid in range(n)])
    assert tuple(model.cusps) == cusps
    assert model.config.genus == cfg.genus


@pytest.mark.parametrize("p, m, s", [(p, m, None) for p, m in ACCEPTANCE_PAIRS] + [
    (7, 23, None), (7, 5, 0), (13, 3, 5), (7, 3, 1)])
def test_built_fibers_are_stored_as_the_tree_under_fm(p, m, s):
    # the builds name every edge child first, so each edge is the link of its end away
    # from Fm, Fm is the one component with no link, and no edge is extra
    model = build_config(p, m, s)
    fibers = [(model.config, model.fm)]
    fibers += [(cusp_quotient(model.params, cusp), 3 * (m - 1))
               for cusp in ((1, 1), (2, 1), (3, p))]
    for cfg, fm in fibers:
        parent = _tree(cfg, fm)[1]
        parent[fm] = -1
        assert cfg._extra == {} and cfg._up == parent, cfg.labels[fm]


def test_build_memory_per_component():
    # the edges stream into the link lists, so no edge table lives beside them at
    # the peak, each edge is stored once (313 bytes a component retained with one
    # neighbour map per component), the components are int columns, not one object
    # per component (448 at the peak when they were), and no label is stored (396
    # with one FermatLabel per component); 19,160 components
    s = polyarith.double_root_count(7)
    build_config(7, 3, s)
    tracemalloc.start()
    try:
        model = build_config(7, 23, s)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    n = model.config.n_components
    assert peak <= 120 * n, peak / n
    assert retained <= 120 * n, retained / n
