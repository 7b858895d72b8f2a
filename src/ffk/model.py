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
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property

from . import polyarith
from .bounds import genus_formula
from .errors import ParameterError
from .fiber import (
    Component,
    FiberConfig,
    check_component_cap,
    i_c_values,
    pairing_divisor,
)

KINDS = ("Fm", "LXYZ", "Chain", "Lgamma", "LgammaLeaf", "Ldelta")


@dataclass(frozen=True, order=True, slots=True)
class FermatLabel:
    """Canonical component label; sort order (kind, i, k, j) is the id order."""

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


@dataclass(frozen=True)
class FermatParams:
    """Validated parameters (p, m, s) with N = p*m odd squarefree composite."""

    p: int
    m: int
    s: int

    def __post_init__(self):
        """Parity and size, then the caps (p's in require_odd_prime, and m's cusp quotient of
        at least 3m cells), before p and m are trial-divided, in at most sqrt(cap) steps."""
        if self.m == 1:
            raise ParameterError(
                "m = 1 (prime exponent) uses a different minimal model; not supported"
            )
        if self.m < 3 or self.m % 2 == 0:
            raise ParameterError(f"m must be odd and >= 3, got {self.m}")
        polyarith.require_odd_prime(self.p)
        if self.m % self.p == 0:
            raise ParameterError(f"gcd(p, m) must be 1, got p={self.p}, m={self.m}")
        check_component_cap(3 * self.m)
        factors = polyarith.factorize(self.m)
        if len(set(factors)) < len(factors):
            raise ParameterError(f"N = p*m must be squarefree; m={self.m} is not")
        if not 0 <= 2 * self.s <= self.p - 3:
            raise ParameterError(
                f"s={self.s} violates 0 <= 2s <= p-3 for p={self.p}"
            )

    @property
    def n(self) -> int:
        return self.p * self.m

    @property
    def genus(self) -> int:
        return genus_formula(self.n)

    def cusp_end(self, i: int, k: int) -> FermatLabel:
        """Chain(1, k, i), the chain end the cusp section (i, k) meets; checks the range."""
        if not (1 <= i <= 3 * self.m and 1 <= k <= self.p):
            raise ParameterError(f"cusp ({i},{k}) out of range: need 1 <= i <= "
                                 f"{3 * self.m} and 1 <= k <= {self.p}")
        return FermatLabel("Chain", i, k, 1)


@dataclass(frozen=True)
class FermatModel:
    """A built configuration and its parameters; every id is a closed form in (p, m, s).

    Labels are not indexed: cid computes the id from the offsets of the module
    docstring and accepts it only if the built component there carries the label.
    """

    params: FermatParams
    config: FiberConfig

    def cid(self, label: FermatLabel) -> int:
        p, m = self.params.p, self.params.m
        first = _first_ids(p, m, self.params.s)
        kind, i = label.kind, label.i
        if kind == "Chain":
            cid = ((i - 1) * p + label.k - 1) * (m - 1) + label.j - 1
        elif kind == "LgammaLeaf":
            cid = first[kind] + (i - 1) * p + label.j
        else:
            cid = first[kind] + i if kind in first else -1
        comps = self.config.components
        if 0 <= cid < len(comps) and comps[cid].label == label:
            return cid
        raise ParameterError(f"no component labelled {label}")

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
        out = dict.fromkeys(KINDS, 0)
        for c in self.config.components:
            out[c.label.kind] += 1
        return out


def expected_census(p: int, m: int, s: int) -> dict[str, int]:
    """Component count per kind, from the census table above."""
    rho = m * s
    return {
        "Fm": 1,
        "LXYZ": 3 * m,
        "Chain": 3 * m * p * (m - 1),
        "Lgamma": m * rho,
        "LgammaLeaf": p * m * rho,
        "Ldelta": m * m * (p - 3) - 2 * m * rho,
    }


@cache
def _first_ids(p: int, m: int, s: int) -> dict[str, int]:
    """The offsets of the module docstring, by kind; read-only.

    X(i) has id first[X] + i for X = Fm (i = 0), LXYZ, Ldelta and Lgamma, and
    LgammaLeaf(j, i) has id first["LgammaLeaf"] + (i-1)p + j.
    """
    census = expected_census(p, m, s)
    fm = census["Chain"]
    ldelta0 = fm + 3 * m
    lgamma0 = ldelta0 + census["Ldelta"]
    return {"Fm": fm, "LXYZ": fm, "Ldelta": ldelta0, "Lgamma": lgamma0,
            "LgammaLeaf": lgamma0 + census["Lgamma"]}


def _shapes(p: int, m: int) -> dict[str, tuple[int, int, int]]:
    """(multiplicity, genus, self-intersection) by kind; a Chain(j) has (j, 0, -2)."""
    return {
        "Fm": (p, genus_formula(m), -m * m),
        "LXYZ": (m, 0, -p),
        "Ldelta": (1, 0, -p),
        "Lgamma": (2, 0, -p),
        "LgammaLeaf": (1, 0, -2),
    }


def build_config(p: int, m: int, s: int | None = None) -> FermatModel:
    """Build the special-fiber configuration for given (p, m, s).

    s (the double-root count) is an explicit parameter so synthetic
    configurations can be exercised; pass None to derive it from the
    polynomial arithmetic. The component cap is checked against the census
    before any component is created; when s is derived, it is first checked
    against the s = 0 census, a lower bound (each unit of s adds m^2 (p-1)
    components), so an over-cap (p, m) never computes s.
    """
    if s is None:
        FermatParams(p, m, 0)  # validates (p, m)
        check_component_cap(sum(expected_census(p, m, 0).values()))
        s = polyarith.double_root_count(p)
    params = FermatParams(p, m, s)
    census = expected_census(p, m, s)
    check_component_cap(sum(census.values()))
    n_gamma, n_delta = census["Lgamma"], census["Ldelta"]

    # components in id order: Chain(j, k, i) in label order, then the other kinds
    chains = (FermatLabel("Chain", i, k, j)
              for i in range(1, 3 * m + 1) for k in range(1, p + 1) for j in range(1, m))
    comps = [Component(lab, lab.j, 0, -2) for lab in chains]
    rest = [FermatLabel("Fm")]
    rest += [FermatLabel("LXYZ", i) for i in range(1, 3 * m + 1)]
    rest += [FermatLabel("Ldelta", i) for i in range(1, n_delta + 1)]
    rest += [FermatLabel("Lgamma", i) for i in range(1, n_gamma + 1)]
    rest += [FermatLabel("LgammaLeaf", i, 0, j)
             for i in range(1, n_gamma + 1) for j in range(1, p + 1)]
    shape = _shapes(p, m)
    comps += [Component(lab, *shape[lab.kind]) for lab in rest]
    return FermatModel(params, FiberConfig(comps, _edges(p, m, s), params.genus))


def _edges(p: int, m: int, s: int):
    """Every edge ((a, b), 1) of the (p, m, s) fiber, ids from the module docstring.

    Arm by arm, then each Lgamma with its leaves, then the Ldelta; each hub's
    id is one int, shared by all of its edges. FiberConfig consumes the stream
    as it comes, so no edge table exists beside the neighbour maps.
    """
    census = expected_census(p, m, s)
    fm, ldelta0, lgamma0, leaf0 = map(_first_ids(p, m, s).get,
                                      ("Fm", "Ldelta", "Lgamma", "LgammaLeaf"))
    length = m - 1  # components Chain(1..m-1, k, i) of one chain
    for i in range(1, 3 * m + 1):
        lx = fm + i
        yield (lx, fm), 1
        for first in range((i - 1) * p * length, i * p * length, length):  # Chain(1, k, i)
            for c in range(first, first + length - 1):
                yield (c, c + 1), 1
            yield (first + length - 1, lx), 1
    for i in range(1, census["Lgamma"] + 1):
        lg = lgamma0 + i
        yield (lg, fm), 1
        for leaf in range(leaf0 + (i - 1) * p + 1, leaf0 + i * p + 1):
            yield (leaf, lg), 1
    for i in range(1, census["Ldelta"] + 1):
        yield (ldelta0 + i, fm), 1


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
    census, shape = expected_census(p, m, params.s), _shapes(p, m)
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
    cells = []
    for label in ids:
        d, g, sq = (label.j, 0, -2) if label.kind == "Chain" else shape[label.kind]
        cells.append(Component(label, d, g, sizes[label] * sq))
    # each component of b meets one of a, so [a].[b] = |b|
    meets = [(fm, lx), (fm, lx_other), (fm, ld), (fm, lg), (lg, leaf), (lx, cusp_c[-1]),
             (lx, arm[-1]), (lx_other, other[-1])]
    meets += [ab for run in (cusp_c, arm, other) for ab in zip(run, run[1:])]
    return FiberConfig(cells, {(ids[a], ids[b]): sizes[b] for a, b in meets
                               if a in ids and b in ids},
                       params.genus, map(sizes.get, ids))


def transversality_check(model: FermatModel) -> bool:
    """Exact check of 2g - 2 = sum I_C + 2 p g_a(F_m) - 2 sum d_C.

    Equivalent, for these fibers, to 2g - 2 = m^2 p^2 - 3 m p.
    """
    config = model.config
    p, m = model.params.p, model.params.m
    total_ic = sum(i_c_values(config))
    total_d = sum(c.multiplicity for c in config.components)
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
    return all(
        ic == get(cid, 0) - c.multiplicity * c.self_int
        for cid, (c, ic) in enumerate(zip(config.components, i_c_values(config)))
    )
