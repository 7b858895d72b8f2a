"""Integer and finite-field polynomial arithmetic behind the splitting identity.

The curve X^N + Y^N - 1 with N = p*m factors p-adically as
F_m^p + p*psi(X^m, Y^m) where psi(a,b) = (a^p + b^p - 1 - (a+b-1)^p)/p.
This module builds psi, the diagonal psi(a, 1-a) = a(a-1)*PsiCap(a), and the
multiplicity structure of PsiCap mod p that controls the component census of
the special fiber.
"""

from __future__ import annotations

import sys
from collections import Counter
from itertools import accumulate
from math import comb, factorial

from .errors import CapExceeded, MathContractError, ParameterError

#: degree cap for the full bivariate splitting check (memory guard)
SPLIT_CAP = 2000

#: verify checks double_roots against its O(p^2) oracle double_roots_gcd for
#: every prime below this bound
ORACLE_BOUND = 500

#: largest p for double_roots, whose two C int tables take 8 bytes per residue
#: (80 MB at the cap)
DOUBLE_ROOT_CAP = 10**7


def _small_factors(n: int, limit: int) -> tuple[list[int], int]:
    """(prime factors of n >= 1, ascending, with multiplicity; 1), by trial division up to
    `limit`, or, if that leaves a cofactor above limit^2, (the factors found; the cofactor)."""
    primes = []
    d = 2
    while d * d <= n:
        if d > limit:
            return primes, n
        while n % d == 0:
            primes.append(d)
            n //= d
        d += 1 if d == 2 else 2
    return primes + [n] if n > 1 else primes, 1


def factorize(n: int) -> list[int]:
    """Prime factors of an int n >= 1, ascending, with multiplicity, by trial division."""
    if type(n) is not int:
        raise ParameterError(f"n must be an int, got {n!r}")
    return _small_factors(n, n)[0]


def is_prime(n: int) -> bool:
    return factorize(n) == [n]  # [] for every n < 2


def require_odd_prime(p: int) -> None:
    """ParameterError unless p is an int (a bool is not), before any comparison; then
    CapExceeded for any p above DOUBLE_ROOT_CAP, checked before the trial division that
    tests p, which so takes at most sqrt(cap) steps; ParameterError unless p is an odd prime."""
    if type(p) is not int:
        raise ParameterError(f"p must be an int, got {p!r}")
    if p > DOUBLE_ROOT_CAP:
        raise CapExceeded(f"p = {p} exceeds the double-root cap {DOUBLE_ROOT_CAP}")
    if not is_prime(p) or p == 2:
        raise ParameterError(f"p must be an odd prime, got {p}")


def trinomial_pow(n: int) -> dict[tuple[int, int], int]:
    """(a + b - 1)^n expanded by the multinomial theorem, as {(i, j): coefficient}."""
    terms = {}
    fn = factorial(n)
    for i in range(n + 1):
        for j in range(n + 1 - i):
            k = n - i - j
            c = fn // (factorial(i) * factorial(j) * factorial(k))
            terms[(i, j)] = c if k % 2 == 0 else -c
    return terms


def psi_poly(p: int) -> dict[tuple[int, int], int]:
    """psi(a,b) = (a^p + b^p - 1 - (a+b-1)^p)/p as {(i, j): coefficient}, no coefficient 0."""
    require_odd_prime(p)
    num = Counter({(p, 0): 1, (0, p): 1, (0, 0): -1})
    num.subtract(trinomial_pow(p))
    if any(c % p for c in num.values()):
        raise MathContractError(f"polynomial not divisible by {p}")
    return {key: c // p for key, c in num.items() if c}


def psi_diag(p: int) -> tuple[int, ...]:
    """psi(a, 1-a) = (a^p + (1-a)^p - 1)/p by direct expansion, coefficients from a^0 up."""
    require_odd_prime(p)
    num = [comb(p, k) * (-1) ** k for k in range(p + 1)]  # (1-a)^p
    num[p] += 1
    num[0] -= 1
    if any(v % p for v in num):
        raise MathContractError(f"polynomial not divisible by {p}")
    while num and num[-1] == 0:
        num.pop()
    return tuple(v // p for v in num)


def capital_psi(p: int) -> tuple[int, ...]:
    """PsiCap with psi(a, 1-a) = a(a-1)*PsiCap(a); monic of degree p-3.

    Drops the factor a, then divides by a - 1 synthetically: the running sums
    of the coefficients from the top are the quotient's, and the last one is
    the remainder psi_diag(1).
    """
    f = psi_diag(p)
    *sums, rem = accumulate(reversed(f[1:]))
    if f[0] or rem:
        raise MathContractError("nonzero remainder in exact division")
    if len(sums) - 1 != p - 3:
        raise MathContractError(
            f"PsiCap for p={p} has degree {len(sums) - 1}, expected {p - 3}"
        )
    return tuple(reversed(sums))


# ---------------------------------------------------------------------------
# F_p polynomials
# ---------------------------------------------------------------------------


class FpPoly:
    """Dense univariate polynomial over F_p; gcds are returned monic."""

    __slots__ = ("p", "coeffs")

    def __init__(self, p: int, coeffs):
        self.p = p
        c = [v % p for v in coeffs]
        while c and c[-1] == 0:
            c.pop()
        self.coeffs = tuple(c)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FpPoly)
            and self.p == other.p
            and self.coeffs == other.coeffs
        )

    def monic(self) -> "FpPoly":
        if not self:
            return self
        inv = pow(self.coeffs[-1], -1, self.p)
        return FpPoly(self.p, [v * inv for v in self.coeffs])

    def __mul__(self, other: "FpPoly") -> "FpPoly":
        if not self or not other:
            return FpPoly(self.p, ())
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] = (out[i + j] + a * b) % self.p
        return FpPoly(self.p, out)

    def __mod__(self, other: "FpPoly") -> "FpPoly":
        if not other:
            raise ZeroDivisionError
        p = self.p
        rem = list(self.coeffs)
        dc = other.coeffs
        inv = pow(dc[-1], -1, p)
        # the leading entry is reduced where it is read, the rest once by FpPoly
        for i in range(len(rem) - len(dc), -1, -1):
            factor = rem[i + len(dc) - 1] * inv % p
            if factor:
                for j, d in enumerate(dc):
                    rem[i + j] -= factor * d
        return FpPoly(p, rem)

    def gcd(self, other: "FpPoly") -> "FpPoly":
        a, b = self, other
        while b:
            a, b = b, a % b
        return a.monic()

    def derivative(self) -> "FpPoly":
        return FpPoly(self.p, [i * v for i, v in enumerate(self.coeffs)][1:])

    def __call__(self, x: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = (acc * x + c) % self.p
        return acc

    def roots_in_fp(self) -> list[int]:
        """Distinct roots in F_p, by enumeration."""
        if not self:
            raise ValueError("zero polynomial")
        return [x for x in range(self.p) if self(x) == 0]


def double_roots(p: int) -> list[int]:
    """The multiplicity-2 roots of PsiCap mod p, as elements of [2, p).

    They are the a in [2, p-1] with a^p + (1-a)^p = 1 (mod p^2). This is
    exact for every odd prime p. Work mod p with
    psi_diag(a) = (a^p + (1-a)^p - 1)/p = a(a-1) PsiCap(a):

    * psi_diag'(a) = a^(p-1) - (1-a)^(p-1). A root of it over the algebraic
      closure is neither 0 nor 1 and has (a/(1-a))^(p-1) = 1, so a/(1-a) and
      hence a lie in F_p. Every repeated root of PsiCap is F_p-rational, and
      since psi_diag' vanishes on all of F_p minus {0, 1}, every F_p-root of
      PsiCap other than 0, 1 is repeated.
    * psi_diag''(a) = -(a^(p-2) + (1-a)^(p-2)) = -1/(a(1-a)) is nonzero
      there, so each repeated root has multiplicity exactly 2.
    * PsiCap(0) = PsiCap(1) = 1, so a = 0, 1 never count.

    So the F_p-roots a of PsiCap are exactly the double roots, and a is one
    iff p^2 divides a^p + (1-a)^p - 1, i.e. a^p - (a-1)^p = 1 (mod p^2).

    The test runs on Fermat quotients q(a) = (a^(p-1) - 1)/p mod p. As
    a^p = a(1 + p q(a)) (mod p^2), a^p - (a-1)^p = 1 + p(a q(a) - (a-1) q(a-1))
    (mod p^2), so a is a double root iff a q(a) = (a-1) q(a-1) (mod p), with
    q(1) = 0. q is completely additive, q(bc) = q(b) + q(c) (mod p) (E. Lehmer,
    Ann. of Math. 39 (1938)), so one walk up a = 2..p-1 calls pow only at
    the primes and takes q(d) + q(a/d) at a composite a from a prime factor
    d < a read off a sieve. The sieve and the q table are C int tables, 8
    bytes per residue together; require_odd_prime refuses p above DOUBLE_ROOT_CAP, prime
    or not, before they are allocated. double_roots_gcd is the independent gcd(f, f')
    oracle for this count. The contract 0 <= 2s <= p-3 on s = len(roots) is checked
    here, so every caller gets it.
    """
    require_odd_prime(p)
    # factor[a] is a prime factor d < a of a, else 0, and q[a] is q(a): C int
    # tables, bytearrays viewed as "i", 4 bytes an entry
    factor = memoryview(bytearray(4 * p)).cast("i")
    d = 2
    while d * d < p:
        if not factor[d]:
            count = len(range(d * d, p, d))
            factor[d * d::d] = memoryview(d.to_bytes(4, sys.byteorder) * count).cast("i")
        d += 1
    q = memoryview(bytearray(4 * p)).cast("i")
    p2, e = p * p, p - 1
    prev = 0  # 1 * q(1)
    roots = []
    for a in range(2, p):
        d = factor[a]
        if d:
            qa = q[d] + q[a // d]
            if qa >= p:
                qa -= p
        else:  # a is prime: a^(p-1) = 1 + p q(a) (mod p^2)
            qa = pow(a, e, p2) // p
        q[a] = qa
        cur = a * qa % p
        if cur == prev:
            roots.append(a)
        prev = cur
    s = len(roots)
    if not 0 <= 2 * s <= p - 3:
        raise MathContractError(
            f"multiplicity contract violation: 2s = {2 * s} outside [0, {p - 3}] for p={p}"
        )
    return roots


def double_root_count(p: int) -> int:
    """s(p): the number of double roots of PsiCap mod p; 0 <= 2s <= p-3."""
    return len(double_roots(p))


def double_roots_gcd(p: int) -> list[int]:
    """Oracle for double_roots: the roots of gcd(f, f') with f = PsiCap mod p.

    O(p^2); run it below ORACLE_BOUND. Raises MathContractError if a repeated
    factor of f has multiplicity >= 3 or is not a product of F_p-rational
    linear factors.
    """
    require_odd_prime(p)
    f = FpPoly(p, capital_psi(p))
    # deg f = p-3 < p, so gcd(f, f') = prod q_i^(e_i - 1) classically
    rep = f.gcd(f.derivative())
    if rep.degree <= 0:
        return []
    if rep.gcd(rep.derivative()).degree > 0:
        raise MathContractError(
            f"multiplicity contract violation: PsiCap mod {p} has a factor of multiplicity >= 3"
        )
    roots = rep.roots_in_fp()
    if len(roots) != rep.degree:
        raise MathContractError(
            f"multiplicity contract violation: repeated factor of PsiCap mod {p} "
            "is not a product of F_p-rational linear factors"
        )
    return roots


def fermat_split_check(p: int, m: int) -> bool:
    """Exact check of X^N + Y^N - 1 = (X^m + Y^m - 1)^p + p*psi(X^m, Y^m), with the power
    expanded here by binomials, apart from psi_poly's trinomial_pow, so the two must agree."""
    require_odd_prime(p)
    if type(m) is not int or m < 1:
        raise ParameterError(f"m must be a positive int, got {m!r}")
    n = p * m
    if n > SPLIT_CAP:
        raise CapExceeded(f"degree N = {n} exceeds the splitting-check cap {SPLIT_CAP}")
    try:
        psi = psi_poly(p)
    except MathContractError:
        return False
    rhs = Counter({(i * m, j * m): p * c for (i, j), c in psi.items()})
    rhs.update({(i * m, j * m): comb(p, i + j) * comb(i + j, i) * (-1) ** (p - i - j)
                for i in range(p + 1) for j in range(p + 1 - i)})
    return {key: c for key, c in rhs.items() if c} == {(n, 0): 1, (0, n): 1, (0, 0): -1}
