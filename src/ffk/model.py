"""Construction of the Fermat special-fiber configuration for N = p*m.

Component census for the minimal regular model at a prime above p (writing
s for the number of F_p-rational double roots of the splitting polynomial,
so the closure count is rho = m*s):

    Chain(j,k,i)   3mp per level j in [1, m-1]   mult j   genus 0          self -2
    LXYZ(i)        3m                            mult m   genus 0          self -p
    Lgamma(i)      m*rho = m^2 s                 mult 2   genus 0          self -p
    LgammaLeaf(j,i) p*m*rho = p m^2 s            mult 1   genus 0          self -2
    Ldelta(i)      m^2 (p-3) - 2 m rho           mult 1   genus 0          self -p
    Fm             1                             mult p   genus (m-1)(m-2)/2  self -m^2

Adjacency is a tree: chains hang off each LXYZ, leaves off each Lgamma, and
LXYZ/Lgamma/Ldelta all meet Fm, every intersection a single transversal point.
Each multiplicity-one chain end Chain(1,k,i) is met by exactly one cusp section.

Component ids follow the label order (kind, i, k, j), so each id is closed
form. With c = 3mp(m-1) Chain components and the census counts n_delta of
Ldelta and n_gamma of Lgamma:

    Chain(j,k,i)     ((i-1)p + k-1)(m-1) + j-1
    Fm               c
    LXYZ(i)          c + i
    Ldelta(i)        c + 3m + i
    Lgamma(i)        c + 3m + n_delta + i
    LgammaLeaf(j,i)  c + 3m + n_delta + n_gamma + (i-1)p + j

Both tables are one in the code, _table: a row per kind in id order, its (i, k, j) box
and shape. A built config stores no label: its labels are a FermatLabels, the one codec
of the layout, which makes each label from its id on demand and each id from its label.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate, chain, product, repeat
from operator import mul
from typing import NamedTuple

from . import polyarith
from .bounds import genus_formula
from .errors import ParameterError
from .fiber import (
    FiberConfig,
    check_component_cap,
    i_c_values,
    pairing_divisor,
)

_LAYOUT = ("Chain", "Fm", "LXYZ", "Ldelta", "Lgamma", "LgammaLeaf")  # the kinds in id order
_new = tuple.__new__  # makes a FermatLabel from its (kind, i, k, j) with no Python frame


class FermatLabel(NamedTuple):
    """Canonical component label; sort order (kind, i, k, j) is the id order.

    A tuple: it equals, and unpacks as, its (kind, i, k, j).
    """

    kind: str
    i: int = 0
    k: int = 0
    j: int = 0

    def __str__(self) -> str:
        if self.kind == "Fm":
            return "Fm"
        if self.kind in ("LXYZ", "Lgamma", "Ldelta"):
            return f"{self.kind}({self.i})"
        if self.kind == "LgammaLeaf":
            return f"LgammaLeaf(j={self.j},i={self.i})"
        return f"Chain(j={self.j},k={self.k},i={self.i})"


@dataclass(frozen=True, slots=True)
class FermatLabels(Sequence):
    """The labels of the (p, m, s) fiber in id order: the one codec of the id layout.

    Each kind's ids run from its first id, the census before it, over its box in _table
    in row-major (i, k, j) order: the offsets of the module docstring. Indexing decodes an
    id, taking negative ids and slices as a tuple does; index(label) encodes, its inverse
    in O(1); iteration streams the labels in id order. No label is stored. (p, m, s) are
    taken as FermatParams has validated them.
    """

    p: int
    m: int
    s: int
    _ids: range = field(init=False, repr=False, compare=False)
    _firsts: tuple[int, ...] = field(init=False, repr=False, compare=False)
    _rows: tuple[tuple, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        firsts = [0, *accumulate(expected_census(self.p, self.m, self.s).values())]
        object.__setattr__(self, "_ids", range(firsts.pop()))
        object.__setattr__(self, "_firsts", tuple(firsts))
        object.__setattr__(self, "_rows", tuple(  # (kind, first, i0, ni, k0, nk, j0, nj, shape)
            (kind, first, *i, *k, *j, shape)
            for (kind, i, k, j, shape), first in zip(_table(self.p, self.m, self.s), firsts)))

    def __len__(self) -> int:
        return len(self._ids)

    def __getitem__(self, cid):
        c = self._ids[cid]  # raises as a tuple index does; a range for a slice
        if c.__class__ is range:
            return tuple(map(self.__getitem__, c))
        # the last kind whose first id is c or less: an empty kind shares the next one's
        kind, first, i0, _, k0, nk, j0, nj, _ = self._rows[bisect_right(self._firsts, c) - 1]
        c -= first
        return _new(FermatLabel, (kind, i0 + c // nj // nk, k0 + c // nj % nk, j0 + c % nj))

    def index(self, label) -> int:
        """The id of `label`, the inverse of indexing, in O(1); ValueError, as tuple.index
        raises, for anything but a (kind, i, k, j) of the layout with ints in its box."""
        try:
            kind, i, k, j = label
            _, first, i0, ni, k0, nk, j0, nj, _ = self._rows[_LAYOUT.index(kind)]
            i, k, j = i - i0, k - k0, j - j0
            cid = first + (i * nk + k) * nj + j
            if 0 <= i < ni and 0 <= k < nk and 0 <= j < nj and type(cid) is int:
                return cid
        except TypeError:
            pass
        raise ValueError(f"{label!r} names no component of {self!r}")

    def __iter__(self):
        return map(_new, repeat(FermatLabel), chain.from_iterable(
            product([kind], range(i0, i0 + ni), range(k0, k0 + nk), range(j0, j0 + nj))
            for kind, _, i0, ni, k0, nk, j0, nj, _ in self._rows))


@dataclass(frozen=True)
class FermatParams:
    """Validated parameters (p, m, s) with N = p*m odd squarefree composite.

    s None derives s = s(p) from the polynomial arithmetic, once (p, m) is valid and
    the s = 0 census, a lower bound (each unit of s adds m^2 (p-1) components),
    is within the component cap, so an over-cap (p, m) never computes s.
    """

    p: int
    m: int
    s: int | None

    def __post_init__(self):
        """Types (int, not bool; s may be None), parity and size, then the caps (p's in
        require_odd_prime, and m's cusp quotient of at least 3m cells), before p and m are
        trial-divided, in at most sqrt(cap) steps; each is trial-divided once."""
        for name, v in (("p", self.p), ("m", self.m), ("s", 0 if self.s is None else self.s)):
            if type(v) is not int:  # a bool too
                raise ParameterError(f"{name} must be an int, got {v!r}")
        if self.m == 1:
            raise ParameterError("m = 1 (prime exponent) uses a different minimal model; "
                                 "not supported")
        if self.m < 3 or self.m % 2 == 0:
            raise ParameterError(f"m must be odd and >= 3, got {self.m}")
        polyarith.require_odd_prime(self.p)
        if self.m % self.p == 0:
            raise ParameterError(f"gcd(p, m) must be 1, got p={self.p}, m={self.m}")
        check_component_cap(3 * self.m)
        factors = polyarith.factorize(self.m)
        if len(set(factors)) < len(factors):
            raise ParameterError(f"N = p*m must be squarefree; m={self.m} is not")
        if self.s is None:
            check_component_cap(sum(expected_census(self.p, self.m, 0).values()))
            # s(p) satisfies 0 <= 2s <= p-3, polyarith checks it
            object.__setattr__(self, "s", polyarith.double_root_count(self.p))
        elif not 0 <= 2 * self.s <= self.p - 3:
            raise ParameterError(f"s={self.s} violates 0 <= 2s <= p-3 for p={self.p}")

    @property
    def n(self) -> int:
        return self.p * self.m

    @property
    def genus(self) -> int:
        return genus_formula(self.n)

    def cusp_end(self, i: int, k: int) -> FermatLabel:
        """Chain(1, k, i), the chain end the cusp section (i, k) meets; checks ints in range."""
        if not (type(i) is int is type(k) and 1 <= i <= 3 * self.m and 1 <= k <= self.p):
            raise ParameterError(f"cusp ({i!r},{k!r}) out of range: need 1 <= i <= "
                                 f"{3 * self.m} and 1 <= k <= {self.p}")
        return FermatLabel("Chain", i, k, 1)


@dataclass(frozen=True)
class FermatModel:
    """A built configuration and its parameters; every id is a closed form in (p, m, s).

    cid looks a label up with config.labels.index: on FermatLabels the closed form of
    the module docstring, with no label decoded.
    """

    params: FermatParams
    config: FiberConfig

    def cid(self, label: FermatLabel) -> int:
        try:
            return self.config.labels.index(label)
        except ValueError:
            raise ParameterError(f"no component labelled {label}") from None

    @cached_property
    def fm(self) -> int:
        return self.cid(FermatLabel("Fm"))

    def lxyz(self, i: int) -> int:
        return self.cid(FermatLabel("LXYZ", i=i))

    def chain(self, j: int, k: int, i: int) -> int:
        return self.cid(FermatLabel("Chain", i=i, k=k, j=j))

    def chain_arm(self, i: int) -> range:
        """Ids of every Chain(j, k, i) for this i: one contiguous run (module docstring).

        Chain(j, k, i) is at offset (k-1)(m-1) + j-1 in the run.
        """
        first = self.chain(1, 1, i)
        return range(first, first + self.params.p * (self.params.m - 1))

    def lgamma(self, i: int) -> int:
        return self.cid(FermatLabel("Lgamma", i=i))

    def leaf(self, j: int, i: int) -> int:
        return self.cid(FermatLabel("LgammaLeaf", i=i, j=j))

    def leaves(self, i: int) -> range:
        """Ids of LgammaLeaf(j, i) for j = 1..p: one contiguous run (module docstring)."""
        first = self.leaf(1, i)
        return range(first, first + self.params.p)

    @property
    def cusps(self) -> range:
        """Ids of the chain ends Chain(1, k, i), one per cusp section, in id order."""
        return range(0, self.fm, self.params.m - 1)

    def cusp(self, i: int, k: int) -> int:
        """Id of Chain(1, k, i), the chain end the cusp section (i, k) meets."""
        return self.cid(self.params.cusp_end(i, k))

    def census(self) -> dict[str, int]:
        """Component count per kind: the table's when the config holds FermatLabels, else
        counted label by label (a config built some other way, as by a test)."""
        labels = self.config.labels
        if isinstance(labels, FermatLabels):
            return expected_census(labels.p, labels.m, labels.s)
        out = dict.fromkeys(_LAYOUT, 0)
        for label in labels:
            out[label.kind] += 1
        return out


def _table(p: int, m: int, s: int) -> tuple[tuple, ...]:
    """The module docstring's tables, a row per kind in id order: (kind, i, k, j, shape).
    i, k and j are box sides (least value, count): a kind's ids run over its box in
    row-major (i, k, j) order, ni nk nj of them. The shape is (multiplicity, genus,
    self-intersection); a multiplicity None is the level j, as for Chain(j, k, i)."""
    arms, gammas, one = (1, 3 * m), (1, m * m * s), (0, 1)  # Lgamma count m rho
    return (("Chain", arms, (1, p), (1, m - 1), (None, 0, -2)),
            ("Fm", one, one, one, (p, genus_formula(m), -m * m)),
            ("LXYZ", arms, one, one, (m, 0, -p)),
            ("Ldelta", (1, m * m * (p - 3) - 2 * m * m * s), one, one, (1, 0, -p)),
            ("Lgamma", gammas, one, one, (2, 0, -p)),
            ("LgammaLeaf", gammas, one, (1, p), (1, 0, -2)))


def expected_census(p: int, m: int, s: int) -> dict[str, int]:
    """Component count per kind, in id order: the size of each kind's box in _table."""
    return {kind: ni * nk * nj for kind, (_, ni), (_, nk), (_, nj), _ in _table(p, m, s)}


def build_config(p: int, m: int, s: int | None = None) -> FermatModel:
    """Build the special-fiber configuration for given (p, m, s).

    s (the double-root count) is an explicit parameter so synthetic
    configurations can be exercised; pass None to derive it from the
    polynomial arithmetic (FermatParams). The component cap is checked against
    the census before any label or column is made. The labels are FermatLabels,
    made from the ids on demand, and the columns are read from their rows, so no
    object per component is made.
    """
    params = FermatParams(p, m, s)
    check_component_cap(sum(expected_census(p, m, params.s).values()))
    labels = FermatLabels(p, m, params.s)
    # each kind's (multiplicity, genus, self-intersection) runs over its box, a None as
    # the levels j; the lists bind each value before the columns are consumed
    runs = zip(*([repeat(v, ni * nk * nj) if v is not None else
                  chain.from_iterable(repeat(range(j0, j0 + nj), ni * nk)) for v in shape]
                 for _, _, _, ni, _, nk, j0, nj, shape in labels._rows))
    return FermatModel(params, FiberConfig(labels, *map(chain.from_iterable, runs),
                                           _edges(labels), params.genus))


def _edges(labels: FermatLabels):
    """Every edge ((a, b), 1) of the fiber `labels` lays out, ids from their offsets.

    Arm by arm, then each Lgamma with its leaves, then the Ldelta; each hub's
    id is one int, shared by all of its edges. FiberConfig consumes the stream
    as it comes, so no edge table exists beside the neighbour maps.
    """
    _, fm, _, ldelta, lgamma, leaf = labels._firsts  # the first id of each kind
    p, length = labels.p, labels.m - 1  # length: Chain(1..m-1, k, i)
    for i in range(1, 3 * labels.m + 1):
        lx = fm + i
        yield (lx, fm), 1
        for first in range((i - 1) * p * length, i * p * length, length):  # Chain(1, k, i)
            for c in range(first, first + length - 1):
                yield (c, c + 1), 1
            yield (first + length - 1, lx), 1
    for lg, first in zip(range(lgamma, leaf), range(leaf, len(labels), p)):  # leaves of lg
        yield (lg, fm), 1
        for c in range(first, first + p):
            yield (c, lg), 1
    for ld in range(ldelta, lgamma):
        yield (ld, fm), 1


def cusp_quotient(params: FermatParams, cusp: tuple[int, int]) -> FiberConfig:
    """The cells of the fiber under the stabiliser of the cusp chain, from (p, m, s) alone.

    A cell is labelled by one of its components. For the cusp at Chain(1, k, i),
    with k' = k mod p + 1 and i' = i mod 3m + 1, the 3(m-1)+6 cells are, in id
    order, for each level j: Chain(j, k, i) on the cusp chain (one component;
    cell 0 is the end the cusp meets), Chain(j, k', i) on the other p-1 chains
    of arm i, Chain(j, k, i') on the other 3m-1 arms; then Fm, at id 3(m-1),
    LXYZ(i), LXYZ(i') for the other LXYZ, and Ldelta(1), Lgamma(1) and
    LgammaLeaf(j=1,i=1) for all of their kind. The sizes do not depend on the
    cusp. Empty cells are dropped: Ldelta when 2s = p-3, Lgamma and its leaves
    when s = 0. The cusp is checked by params.cusp_end and no graph is built, so
    fibers over the component cap have quotients too. Cell c is a vertex of size
    |c|: [c]^2 = |c| C_c^2, a cell being an independent set, and [c].[c'] =
    |c| b(c, c'), with b(c, c') the components of c' one component of c meets;
    equitable, so it is symmetric.
    """
    end = params.cusp_end(*cusp)
    p, m, i, k = params.p, params.m, end.i, end.k
    census = expected_census(p, m, params.s)
    shape = {row[0]: row[-1] for row in _table(p, m, params.s)}
    other_i = i % (3 * m) + 1
    cusp_c, arm, other = ([FermatLabel("Chain", ii, kk, j) for j in range(1, m)]
                          for ii, kk in ((i, k), (i, k % p + 1), (other_i, k)))
    fm, lx, lx_other = FermatLabel("Fm"), FermatLabel("LXYZ", i), FermatLabel("LXYZ", other_i)
    ld, lg = FermatLabel("Ldelta", 1), FermatLabel("Lgamma", 1)
    leaf = FermatLabel("LgammaLeaf", 1, 0, 1)
    sizes = {**dict.fromkeys(cusp_c, 1), **dict.fromkeys(arm, p - 1),
             **dict.fromkeys(other, p * (3 * m - 1)), fm: 1, lx: 1, lx_other: 3 * m - 1}
    sizes.update((lab, census[lab.kind]) for lab in (ld, lg, leaf))
    ids = {label: c for c, label in enumerate(x for x, n in sizes.items() if n)}
    d, g, sq = zip(*((d or lab.j, g, sq) for lab in ids for d, g, sq in [shape[lab.kind]]))
    # each component of b meets one of a, so [a].[b] = |b|
    meets = [(fm, lx), (fm, lx_other), (fm, ld), (fm, lg), (lg, leaf), (lx, cusp_c[-1]),
             (lx, arm[-1]), (lx_other, other[-1])]
    meets += [ab for run in (cusp_c, arm, other) for ab in zip(run, run[1:])]
    return FiberConfig(
        ids, d, g, map(mul, map(sizes.get, ids), sq),
        {(ids[a], ids[b]): sizes[b] for a, b in meets if a in ids and b in ids},
        params.genus, map(sizes.get, ids))


def transversality_check(model: FermatModel) -> bool:
    """Exact check of 2g - 2 = sum I_C + 2 p g_a(F_m) - 2 sum d_C.

    Equivalent, for these fibers, to 2g - 2 = m^2 p^2 - 3 m p.
    """
    config = model.config
    p, m = model.params.p, model.params.m
    total_ic = sum(i_c_values(config))
    total_d = sum(config.multiplicities)
    g_fm = genus_formula(m)
    lhs = 2 * model.params.genus - 2
    if lhs != total_ic + 2 * p * g_fm - 2 * total_d:
        return False
    return lhs == m * m * p * p - 3 * m * p


def i_c_matches_pairing(model: FermatModel) -> bool:
    """Transversality makes I_C = (C . F - d_C C) an equality for every C.

    By bilinearity (C . F - d_C C) = (C . F) - d_C C^2, and one pairing pass
    gives every (F . C); F is integral, so each (F . C) is a numerator over 1.
    The I_C come from one i_c_values pass. It passes by construction on every
    FiberConfig: the pairing kernel sums at C the neighbour counts times
    multiplicities that i_c_values sums, plus d_C C^2. It stays so that the list
    of reported checks is unchanged.
    """
    config = model.config
    get = pairing_divisor(config, config.fiber_divisor()).numerators().get
    dc2 = map(mul, config.multiplicities, config.self_ints)
    return all(ic == get(cid, 0) - d for cid, (d, ic) in enumerate(zip(dc2, i_c_values(config))))
