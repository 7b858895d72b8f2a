"""Exact intersection theory on a single special fiber.

A fiber is a weighted graph: vertices are irreducible components carrying
multiplicity, genus and self-intersection; off-diagonal pairings count
transversal intersection points. A vertex of size k, a cell of an equitable
partition, stands for the reduced divisor [c] of k disjoint components of one
multiplicity and genus: its self_int is [c]^2 and its pairings count points of
[c] on its neighbours' divisors, so every kernel below is exact on divisors
constant on cells. All arithmetic is exact over Q.
"""

from __future__ import annotations

import os
from collections.abc import Iterable, Mapping, MutableSequence, Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, reduce
from itertools import repeat
from math import gcd, lcm
from operator import add, floordiv, itemgetter, mul
from types import MappingProxyType
from typing import Any

from .errors import CapExceeded, MathContractError, NoSolutionError, ParameterError

DEFAULT_COMPONENT_CAP = 10**6
COMPONENT_CAP_ENV = "FFK_COMPONENT_CAP"


def check_component_cap(n: int) -> None:
    """Raise CapExceeded if n exceeds the component cap: FFK_COMPONENT_CAP if set, else the default."""
    raw = os.environ.get(COMPONENT_CAP_ENV)
    try:
        limit = DEFAULT_COMPONENT_CAP if raw is None else int(raw)
    except ValueError as exc:
        raise ParameterError(f"bad {COMPONENT_CAP_ENV} value: {raw!r}") from exc
    if n > limit:
        raise CapExceeded(f"{n} components exceed the component cap {limit}")


_FIELDS = ("multiplicity", "genus", "self_int")


def _combined(sign: int, first: tuple[Mapping[int, int], int],
              *rest: tuple[Mapping[int, int], int]) -> tuple[dict[int, int], int]:
    """first + sign * (sum of rest), each an (integer numerators, den) pair, as (integer
    numerators, lcm of the dens): the one kernel for integer divisor sums. Not normalised,
    and zeros are kept: a sum is zero iff `any(numerators.values())` is False."""
    num, fden = first
    den = lcm(fden, *(pden for _, pden in rest))
    out = dict(zip(num, map(mul, num.values(), repeat(den // fden))))
    get = out.get
    for pnum, pden in rest:
        k = sign * (den // pden)
        for cid, v in pnum.items():
            out[cid] = get(cid, 0) + v * k
    return out, den


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


class QDivisor:
    """Vertical Q-divisor: integer numerators over one shared positive denominator.

    The form is normal: zero numerators are dropped and the denominator is the
    least one that makes every numerator an integer, so equality is
    structural. `Fraction`s are made only at the boundary (`coeff`, `items`,
    `repr`, `dot`); integer code reads `numerators()` and `denominator`.
    """

    __slots__ = ("_num", "_den")

    def __init__(self, coeffs: Mapping[int, Fraction] | Iterable[tuple[int, Fraction]] = ()):
        coeffs = dict(coeffs)
        for cid, v in coeffs.items():
            if type(v) is not int and not isinstance(v, Fraction):  # a bool too
                raise ParameterError(f"coefficient of {cid} must be an int or a Fraction, got {v!r}")
        vals = {cid: Fraction(v) for cid, v in coeffs.items() if v != 0}
        den = lcm(*(v.denominator for v in vals.values()))
        self._num = {cid: v.numerator * (den // v.denominator) for cid, v in vals.items()}
        self._den = den

    @classmethod
    def from_numerators(cls, num: Mapping[int, int], den: int) -> "QDivisor":
        """The divisor sum num[C]/den C, for integers num[C] and den > 0."""
        if den < 1:
            raise ParameterError(f"denominator must be >= 1, got {den}")
        num = dict(filter(itemgetter(1), num.items()))
        # not gcd(den, *values): CPython 3.11 parks each freed 20-tuple on a free
        # list that allocation never draws from, up to 2000 of them (400 KB)
        g = reduce(gcd, num.values(), den)
        out = cls.__new__(cls)
        out._num = dict(zip(num, map(floordiv, num.values(), repeat(g)))) if g > 1 else num
        out._den = den // g
        return out

    @classmethod
    def single(cls, cid: int, coeff=1) -> "QDivisor":
        return cls({cid: coeff})

    @property
    def denominator(self) -> int:
        return self._den

    def numerators(self) -> Mapping[int, int]:
        """Read-only view of the integer numerators, keyed by component id."""
        return MappingProxyType(self._num)

    def coeff(self, cid: int) -> Fraction:
        return Fraction(self._num.get(cid, 0), self._den)

    def items(self) -> list[tuple[int, Fraction]]:
        den = self._den
        return [(cid, Fraction(v, den)) for cid, v in self._num.items()]

    def __bool__(self) -> bool:
        return bool(self._num)

    def __eq__(self, other) -> bool:
        return isinstance(other, QDivisor) and self._den == other._den and self._num == other._num

    def _combine(self, other: "QDivisor", sign: int) -> "QDivisor":
        return QDivisor.from_numerators(*_combined(sign, (self._num, self._den),
                                                   (other._num, other._den)))

    def __add__(self, other: "QDivisor") -> "QDivisor":
        return self._combine(other, 1)

    def __sub__(self, other: "QDivisor") -> "QDivisor":
        return self._combine(other, -1)

    def scale(self, k: int | Fraction) -> "QDivisor":
        if type(k) is not int and not isinstance(k, Fraction):  # a bool too
            raise ParameterError(f"scale factor must be an int or a Fraction, got {k!r}")
        k = Fraction(k)
        return QDivisor.from_numerators(
            {cid: v * k.numerator for cid, v in self._num.items()}, self._den * k.denominator
        )

    def dot(self, other: "QDivisor") -> Fraction:
        """sum_C (coefficient in self) (coefficient in other), over the support of self."""
        return Fraction(_dot(self._num, other._num), self._den * other._den)

    def __repr__(self) -> str:
        inner = ", ".join(f"{cid}: {v}" for cid, v in sorted(self.items()))
        return f"QDivisor({{{inner}}})"


#: off-diagonal pairing counts, as FiberConfig takes them
Pairings = Mapping[tuple[int, int], int] | Iterable[tuple[tuple[int, int], int]]


class FiberConfig:
    """Immutable weighted intersection graph of one special fiber.

    The components are stored as columns: `labels` and the int tuples
    `multiplicities`, `genera` and `self_ints`, a component's id being its position
    in each; a bad field (a bool too) raises ParameterError naming the first
    offending row's label. `labels` is kept as given when it is a Sequence that is
    not a MutableSequence (model.FermatLabels makes each label from its id) and is
    copied to a tuple otherwise; it is read only to name a component. `pairings`
    holds the off-diagonal entries: (i, j) -> number of transversal intersection
    points, as a mapping or, as `dict()` takes them, an iterable of ((i, j),
    count) pairs; counts given as both (i, j) and (j, i), or for one pair more
    than once, are summed. Each edge is stored once: `_up[c]` and `_upc[c]` are
    the component c links to and the link's count (-1 and 0 for none); `_first[c]`,
    then `_nxt` of each, list the components linking to c. A new edge is its first
    end's link, else its second end's, else, both ends linked, an `_extra` edge, in
    a neighbour map at each end. Model's builds name each edge child first, so they
    are stored as the tree rooted at Fm with no extra edge. Whole-fiber facts that
    never change, such as the first non-orthogonal component, are computed once.
    `sizes` holds each vertex's size (module docstring); None, the default, means
    every vertex is one component. `n_components` counts vertices either way.
    """

    def __init__(self, labels: Iterable[Any], multiplicities: Iterable[int],
                 genera: Iterable[int], self_ints: Iterable[int], pairings: Pairings,
                 genus: int, sizes: Iterable[int] | None = None):
        if not isinstance(labels, Sequence) or isinstance(labels, MutableSequence):
            labels = tuple(labels)
        n = len(labels)
        check_component_cap(n)
        cols = tuple(map(tuple, (multiplicities, genera, self_ints)))
        if any(len(col) != n for col in cols):
            raise ParameterError("every column must give one entry per label")
        if not (all(set(map(type, col)) <= {int} for col in cols)  # a bool is refused
                and min(cols[0], default=1) >= 1 and min(cols[1], default=0) >= 0):
            for label, *row in zip(labels, *cols):  # raise at the first offending row
                for field, v in zip(_FIELDS, row):
                    if type(v) is not int:
                        raise ParameterError(f"component {label}: {field} must be an int, "
                                             f"got {v!r}")
                if row[0] < 1:
                    raise ParameterError(f"component {label}: multiplicity must be >= 1")
                if row[1] < 0:
                    raise ParameterError(f"component {label}: genus must be >= 0")
        if type(genus) is not int:
            raise ParameterError(f"genus must be an int, got {genus!r}")
        up, upc, first, nxt = [-1] * n, [0] * n, [-1] * n, [-1] * n
        extra: dict[int, dict[int, int]] = {}
        for (a, b), cnt in pairings.items() if isinstance(pairings, Mapping) else pairings:
            try:  # a non-int id fails a comparison or a type test; a bool id is 0 or 1
                if not (1 < a < n and 1 < b < n and a != b and type(a) is int is type(b)):
                    if a == b:
                        raise ParameterError("diagonal entries belong to the self_ints column")
                    if not (type(a) is int is type(b) and 0 <= a < n and 0 <= b < n):
                        raise TypeError
                if type(cnt) is not int or cnt < 0:
                    raise ParameterError(f"pairing ({a}, {b}): count must be an int >= 0, "
                                         f"got {cnt!r}")
            except TypeError:
                raise ParameterError(f"unknown component id in pairing ({a!r}, {b!r})") from None
            if not cnt:  # a zero count stores nothing
                continue
            if up[a] == b:
                upc[a] += cnt
            elif up[b] == a:
                upc[b] += cnt
            elif up[a] < 0:
                up[a], upc[a], nxt[a], first[b] = b, cnt, first[b], a
            elif up[b] < 0:
                up[b], upc[b], nxt[b], first[a] = a, cnt, first[a], b
            else:
                ea, eb = extra.setdefault(a, {}), extra.setdefault(b, {})
                ea[b] = eb[a] = ea.get(b, 0) + cnt
        sizes = None if sizes is None else tuple(sizes)
        if sizes is not None and (len(sizes) != n
                                  or any(type(k) is not int or k < 1 for k in sizes)):
            raise ParameterError("sizes must give every component a size >= 1")
        self.labels, (self.multiplicities, self.genera, self.self_ints) = labels, cols
        self.genus, self.sizes = genus, sizes
        self._up, self._upc, self._first, self._nxt, self._extra = up, upc, first, nxt, extra

    @property
    def n_components(self) -> int:
        return len(self.multiplicities)

    def label(self, cid: int) -> Any:
        _check_ids(self, (cid,))
        return self.labels[cid]

    def fiber_divisor(self) -> QDivisor:
        return QDivisor.from_numerators(dict(enumerate(self.multiplicities)), 1)

    def neighbours(self, cid: int) -> dict[int, int]:
        """{C: count} for each C that `cid` meets: its link, the links in, its extra edges."""
        up, upc, nxt, extra = self._up, self._upc, self._nxt, self._extra
        if not 0 <= cid < len(up):
            _check_ids(self, (cid,))  # raises
        out = {} if up[cid] < 0 else {up[cid]: upc[cid]}
        x = self._first[cid]
        while x >= 0:
            out[x] = upc[x]
            x = nxt[x]
        if extra and cid in extra:
            out.update(extra[cid])
        return out

    @cached_property
    def non_orthogonal(self) -> int | None:
        """The id of the first C with (F . C) = d_C C^2 + I_C != 0, or None; computed once.

        At a vertex of size k the sum is (F . [c]) = k (F . C), C^2 being [c]^2."""
        dc2 = map(mul, self.multiplicities, self.self_ints)
        return next((cid for cid, f in enumerate(map(add, dc2, i_c_values(self))) if f), None)


def _check_ids(config: FiberConfig, ids) -> None:
    """Raise ParameterError unless every id in `ids` names a component, so callers may index."""
    if ids:
        lo, hi = min(ids), max(ids)
        if lo < 0 or hi >= len(config.multiplicities):
            raise ParameterError(f"unknown component id {lo if lo < 0 else hi}")


# ---------------------------------------------------------------------------
# pairing operations
# ---------------------------------------------------------------------------


def _spread(config: FiberConfig, num: Mapping[int, int]) -> dict[int, int]:
    """{C: den * (D . C)} for every C that D meets, where `num` holds D's numerators over den.

    Each component of D's support hands its pairing to its neighbours and to itself.
    """
    _check_ids(config, num)
    self_ints, extra = config.self_ints, config._extra
    up, upc, first, nxt = config._up, config._upc, config._first, config._nxt
    out: dict[int, int] = {}
    get = out.get
    for c, v in num.items():
        x = up[c]
        if x >= 0:
            out[x] = get(x, 0) + v * upc[c]
        x = first[c]
        while x >= 0:
            out[x] = get(x, 0) + v * upc[x]
            x = nxt[x]
        if c in extra:
            for x, cnt in extra[c].items():
                out[x] = get(x, 0) + v * cnt
        out[c] = get(c, 0) + v * self_ints[c]
    return out


def _dot(num: Mapping[int, int], other: Mapping[int, int]) -> int:
    """sum_C num[C] other[C], over the keys of num: the integer core of QDivisor.dot."""
    return sum(map(mul, num.values(), map(other.get, num, repeat(0))))


def _branch_steps(solver: "GaugeSolver"):
    """(C, P, F|_A / w) for every C, in the solver's depth-first order, where P is C's
    parent, A C's subtree and w = e d_C d_P: the gauge-0 solution of P/d_P - C/d_C
    (GaugeSolver), as the pair ({A: d_A K // w}, K) that `_combined` takes, K the
    solver's scale. The gauge component comes first, as (gauge, None, ({}, K)). Read
    from the solver's own steps, so a wrong factor shows in the listing too."""
    below, parents, scale = solver._below, solver._parents, solver._scale
    mult = solver.config.multiplicities
    size = [1] * len(mult)  # of each subtree, summed up the tree
    for cid, par in zip(reversed(below), reversed(parents)):
        size[par] += size[cid]
    yield solver.gauge_cid, None, ({}, scale)
    for i, (cid, par, step) in enumerate(zip(below, parents, solver._steps)):
        ids = below[i:i + size[cid]]
        yield cid, par, (dict(zip(ids, map(mul, map(mult.__getitem__, ids), repeat(step)))),
                         scale)


def pair(config: FiberConfig, D: QDivisor, E: QDivisor) -> Fraction:
    """Bilinear extension of the component pairing; symmetric in D, E.

    Spreads D into its pairing divisor and dots the result with E.
    """
    _check_ids(config, E._num)
    return pairing_divisor(config, D).dot(E)


def pairing_divisor(config: FiberConfig, D: QDivisor) -> QDivisor:
    """sum_C (D . C) C: the pairing of D with every component, as a divisor.

    Sparse: touches only the support of D and its graph neighborhood.
    """
    return QDivisor.from_numerators(_spread(config, D._num), D._den)


def pair_profile(config: FiberConfig, D: QDivisor) -> dict[int, Fraction]:
    """All nonzero values of (D . C), keyed by component id."""
    return dict(pairing_divisor(config, D).items())


def i_c_values(config: FiberConfig) -> list[int]:
    """[I_C for every C] in id order, one pass scattering each link to both of its ends:
    neighbour multiplicities weighted by points, so that (F . C) = d_C C^2 + I_C; at
    size k, I = (F . [c]) - d_C [c]^2. An extra edge is read at each end."""
    mult = config.multiplicities
    out = [0] * len(mult)
    for c, x, cnt in zip(range(len(mult)), config._up, config._upc):
        if cnt:  # a link's count is >= 1
            out[c] += mult[x] * cnt
            out[x] += mult[c] * cnt
    for c, nbrs in config._extra.items():
        out[c] += sum(map(mul, map(mult.__getitem__, nbrs), nbrs.values()))
    return out


def _a_values(config: FiberConfig, ids) -> list[int]:
    """[(K . C) for C in ids], each by adjunction: -C^2 + 2 g_C - 2, and at size k
    (K . [c]) = -[c]^2 + k(2g_C - 2). The ids must be valid."""
    genera, self_ints, sizes = config.genera, config.self_ints, config.sizes
    ks = repeat(1) if sizes is None else map(sizes.__getitem__, ids)
    return [k * (2 * genera[c] - 2) - self_ints[c] for c, k in zip(ids, ks)]


def canonical_pair(config: FiberConfig, D: QDivisor) -> Fraction:
    """(K . D) via adjunction, without constructing a canonical divisor."""
    num = D._num
    _check_ids(config, num)
    return Fraction(sum(map(mul, num.values(), _a_values(config, num))), D._den)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def _tree(config: FiberConfig, root: int) -> tuple[list[int], list[int]]:
    """The depth-first pre-order from `root`, each subtree one run of it, and every
    component's parent, `root` its own. Raises MathContractError unless the fiber is
    nonempty, connected, of n - 1 edges and orthogonal to F, checked in that order."""
    up, first, nxt, extra = config._up, config._first, config._nxt, config._extra
    n = len(up)
    if not n:
        raise MathContractError("fiber has no components")
    _check_ids(config, (root,))
    parent = [-1] * n
    parent[root] = root
    order, stack = [], [root]
    while stack:
        cid = stack.pop()
        order.append(cid)
        x = up[cid]
        if x >= 0 and parent[x] < 0:
            parent[x] = cid
            stack.append(x)
        x = first[cid]
        while x >= 0:
            if parent[x] < 0:
                parent[x] = cid
                stack.append(x)
            x = nxt[x]
        if extra and cid in extra:
            for x in extra[cid]:
                if parent[x] < 0:
                    parent[x] = cid
                    stack.append(x)
    if len(order) < n:
        raise MathContractError(f"fiber graph is disconnected: {n - len(order)} of {n} "
                                f"components are unreachable from {config.labels[root]}")
    n_edges = n - up.count(-1) + sum(map(len, extra.values())) // 2
    if n_edges != n - 1:
        raise MathContractError(f"fiber graph is not a tree: {n_edges} edges on {n} components")
    bad = config.non_orthogonal
    if bad is not None:
        raise MathContractError(f"fiber orthogonality fails at component {config.labels[bad]}")
    return order, parent


def validate(config: FiberConfig) -> list[CheckResult]:
    """Structural checks: symmetry, fiber orthogonality, kernel, adjunction sum.

    The kernel check is the factor GaugeSolver(config, 0), with no solve: its
    `_tree` walk refuses, and gives the detail for, a fiber that is not a
    connected tree orthogonal to F. Such a tree has, in y_C = x_C / d_C, minus a
    weighted Laplacian as pairing, whose kernel is the constants, Q F (a cyclic
    fiber fails, though its kernel is Q F too). Failures are reported as
    data, never raised. A link is stored once, so the symmetry check reads what can
    still break, nothing on a built fiber: that no extra edge is also a link, and
    that the two entries of each extra edge agree. The adjunction sum is
    (K . F) = sum d_C a_C, read from the columns and size-weighted like the rest.
    """
    up, extra = config._up, config._extra
    sym_ok = all(up[a] != b and up[b] != a and extra.get(b, {}).get(a) == cnt
                 for a, nbrs in extra.items() for b, cnt in nbrs.items())
    bad = config.non_orthogonal
    results = [CheckResult("pairing matrix symmetric", sym_ok),
               CheckResult("fiber orthogonality (F.C = 0 for all C)", bad is None,
                           "" if bad is None else f"fails at component {config.labels[bad]}")]

    detail = ""
    try:
        GaugeSolver(config, 0)
    except MathContractError as exc:
        detail = str(exc)
    results.append(CheckResult("kernel spanned by multiplicity vector", not detail, detail))

    a_vals = _a_values(config, range(config.n_components))
    total, want = sum(map(mul, config.multiplicities, a_vals)), 2 * config.genus - 2
    results.append(CheckResult("sum d_C a_C = 2g - 2", total == want,
                               "" if total == want else f"got {total}, want {want}"))
    return results


# ---------------------------------------------------------------------------
# gauged solver
# ---------------------------------------------------------------------------


class GaugeSolver:
    """Factor-once solver for (V . C) = t_C with the gauge coefficient pinned to 0.

    Every fiber `model` builds is a tree, and fiber orthogonality turns the
    pairing system into a weighted graph Laplacian: with y_C = x_C / d_C,
    d_C t_C = sum over neighbours P of e d_C d_P (y_P - y_C), whose kernel is Q F:
    the solution with gauge coefficient g is the returned V plus (g / d_gauge) F.
    Rooted at the gauge component, the equations of the subtree below C sum to
    one edge term, so y_C = y_P - F_C / (e d_C d_P) with F_C = sum of d_v t_v
    over that subtree. A solve is one post-order pass for the F_C and one
    pre-order pass for the y_C, both in integers scaled by den * K, where den is
    the targets' denominator and K the lcm of the edge weights e d_C d_P. The
    scaled vector d_C y_C becomes the returned QDivisor's numerators over den * K.
    For the targets P/d_P - C/d_C of one edge, F_v is -1 at C and 0 elsewhere, so
    y is 1/(e d_C d_P) on C's subtree and 0 off it: the solution is F restricted to
    that subtree over e d_C d_P. `_branch_steps` lists it for every edge without a
    solve, so the divisor sweep checks every V_D with one solve, t_Fm's.

    Each pass runs over the whole tree, in one length-n list that a solve
    allocates: the d_C t_C are summed into the F_C in post-order, and each F_C is
    overwritten by y_C in pre-order, a parent's y before its children read it.
    The gauge component's sum is sum d_C t_C, which the compatibility check
    makes 0, so its y is 0 as the gauge asks.

    `_tree` checks and orders the tree, refusing with MathContractError a
    config that is empty, disconnected, not n - 1 edges or not orthogonal to
    F. The constructor then builds everything a solve reads, so a solver is
    complete when it is constructed.
    """

    def __init__(self, config: FiberConfig, gauge_cid: int):
        order, parent = _tree(config, gauge_cid)
        self.config = config
        self.gauge_cid = gauge_cid
        mult, up, upc = config.multiplicities, config._up, config._upc

        # component, parent and K // (e d_C d_P), in depth-first order, root excluded
        below = order[1:]
        parents = [parent[cid] for cid in below]
        weights = [(upc[cid] if up[cid] == par else upc[par] if up[par] == cid
                    else config._extra[cid][par]) * mult[cid] * mult[par]
                   for cid, par in zip(below, parents)]
        scale = lcm(*set(weights))
        self._scale = scale
        self._below = below
        self._parents = parents
        self._steps = [scale // w for w in weights]

    def solve(self, targets: QDivisor) -> QDivisor:
        """The V with (V . C) = targets.coeff(C) for every C and gauge coefficient 0.

        Targets must be orthogonal to the kernel: sum d_C t_C = 0.
        """
        mult, num, den = self.config.multiplicities, targets._num, targets._den
        _check_ids(self.config, num)
        compat = sum(map(mul, map(mult.__getitem__, num), num.values()))
        if compat:
            raise NoSolutionError(
                "no solution: targets are not orthogonal to the fiber "
                f"(sum d_C t_C = {Fraction(compat, den)})"
            )
        acc = [0] * len(mult)  # den * d_C t_C, then den * F_C, then den * K * y_C
        for cid, v in num.items():
            acc[cid] = mult[cid] * v
        below, parents = self._below, self._parents
        for cid, par in zip(reversed(below), reversed(parents)):
            acc[par] += acc[cid]
        coeffs = {}
        for cid, par, step in zip(below, parents, self._steps):
            acc[cid] = v = acc[par] - acc[cid] * step
            if v:
                coeffs[cid] = mult[cid] * v
        return QDivisor.from_numerators(coeffs, den * self._scale)
