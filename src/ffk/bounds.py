"""Global bound assembly over all primes dividing N.

Exact rational per-prime coefficients are kept alongside the float64
assembly: floats only appear at the final multiplication by log p, so any
consumer can re-evaluate the exact data at arbitrary precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from . import polyarith
from .errors import CapExceeded, MathContractError, ParameterError


def genus_formula(n: int) -> int:
    """Genus (N-1)(N-2)/2 of the degree-N Fermat curve."""
    if n < 3:
        raise ParameterError(f"N must be >= 3, got {n}")
    return (n - 1) * (n - 2) // 2


def factor_odd_squarefree(n: int) -> list[int]:
    """Prime factors of N, requiring N odd, squarefree and composite; CapExceeded if trial
    division up to DOUBLE_ROOT_CAP leaves a cofactor, once the factors found hold no square."""
    if n < 3:
        raise ParameterError(f"N must be >= 3, got {n}")
    if n % 2 == 0:
        raise ParameterError(f"N must be odd, got {n}")
    primes, rest = polyarith._small_factors(n, polyarith.DOUBLE_ROOT_CAP)
    for d, e in zip(primes, primes[1:]):
        if d == e:
            raise ParameterError(f"N = {n} is squareful (divisible by {d}^2)")
    if rest > 1:
        raise CapExceeded(f"N = {n} has a prime factor that exceeds the double-root cap "
                          f"{polyarith.DOUBLE_ROOT_CAP}")
    if len(primes) < 2:
        raise ParameterError(f"N = {n} is prime; a composite exponent is required")
    return primes


def euler_phi(primes: list[int]) -> int:
    """Euler phi of a squarefree number with the given prime factors."""
    out = 1
    for p in primes:
        out *= p - 1
    return out


def _n_parts(n: int) -> tuple[int, int, int]:
    """The parts of Q(N, p) and beta_{S,p} that do not depend on p: the
    p-free part 3N^2 - 10N - 6 of Q's numerator, Q's denominator N(N-3), and
    beta's denominator over p, (N-1)(N-2)(N-3)^3."""
    return n * (3 * n - 10) - 6, n * (n - 3), (n - 1) * (n - 2) * (n - 3) ** 3


def _q_num(n: int, q0: int, p: int, m: int) -> int:
    """Numerator of Q(N, p) over N(N-3), with N = mp and q0 from _n_parts:
    3N^2 - 2Np - 10N + 6p - 6 - 4m^2 + 12m."""
    return q0 + 2 * p * (3 - n) + 4 * m * (3 - m)


def q_np(n: int, p: int) -> Fraction:
    """Exact per-prime geometric coefficient Q(N, p)."""
    q0, q_den, _ = _n_parts(n)
    return Fraction(_q_num(n, q0, p, n // p), q_den)


def _alpha_reduced(m: int, p: int) -> int:
    """alpha(mp, p) / p^2, in Horner form in m."""
    return ((p * p * (4 * p * m - 6 * p - 24) * m + (37 * p + 44) * p - 4) * m - 72 * p - 12) * m + 36


def alpha(n: int, p: int) -> int:
    """alpha(N, p) for a prime p dividing N."""
    return p * p * _alpha_reduced(n // p, p)


def _beta_num(n: int, p: int, m: int) -> int:
    """Numerator of beta_{S,p} over p (N-1)(N-2)(N-3)^3, with N = mp.
    alpha(N, p) = p^2 a(m, p) and Np + 2N - 6p = p(mp + 2m - 6) cancel p^3."""
    return _alpha_reduced(m, p) * (n + 2 * m - 6) * (p - 2)


def beta_sp_closed(n: int, p: int) -> Fraction:
    """Per-prime lower-bound quantity in closed form."""
    return Fraction(_beta_num(n, p, n // p), _n_parts(n)[2] * p)


def _per_prime(n: int, primes: list[int], phi: int) -> tuple[list[tuple[int, int, int]], float]:
    """Exact coefficients phi/(p-1) Q(N,p) of log p, as reduced (p, num, den)
    triples, and the float64 lower bound phi sum_p beta_{S,p}/(p-1) log p.

    The parts of both closed forms that do not depend on p are computed once
    per N (_n_parts); each prime adds only its own factors. N is squarefree,
    so k = phi/(p-1) is an integer. Int true division rounds correctly
    whatever the pair's common factors, so each lower-bound term k num / den
    is the same float as float(Fraction(k num, den)), and num / den of a
    coefficient is float(Fraction(num, den)).
    """
    q0, q_den, b_den = _n_parts(n)
    terms = []
    lower = []
    for p in primes:
        m = n // p
        k = phi // (p - 1)
        num = k * _q_num(n, q0, p, m)
        g = math.gcd(num, q_den)
        terms.append((p, num // g, q_den // g))
        lower.append(k * _beta_num(n, p, m) / (b_den * p) * math.log(p))
    return terms, math.fsum(lower)


def _simple(n: int, phi: int) -> float:
    return phi * math.log(n) / (5 * n * n)


def _check_strict(n: int, lower: float, simple: float) -> None:
    if not lower > simple:
        raise MathContractError(
            f"lower-bound inequality fails at N={n}: {lower} <= {simple}"
        )


@dataclass(frozen=True)
class PrimeRecord:
    p: int
    m: int
    s: int
    rho: int
    q: Fraction
    beta_sp: Fraction
    alpha: int


@dataclass(frozen=True)
class BoundReport:
    n: int
    genus: int
    phi: int
    primes: tuple[PrimeRecord, ...]
    geometric_terms: tuple[tuple[int, Fraction], ...]
    geometric_float: float
    lower: float
    simple: float
    mertens: float
    upper: float | None = None
    conditional: bool = field(default=False)


def bound_report(n: int, kappa1: float | None = None, kappa2: float | None = None) -> BoundReport:
    """Assemble the full per-N report; the upper bound only if kappas given.

    The only per-N assembly. The conditional upper bound is
    (2g-2)(phi(N)(kappa1 log N + kappa2) + geometric term), for positive kappas;
    kappas whose bound is not a finite float raise ParameterError.
    """
    primes = factor_odd_squarefree(n)
    phi = euler_phi(primes)
    records = []
    for p in primes:
        s = polyarith.double_root_count(p)
        m = n // p
        records.append(
            PrimeRecord(p, m, s, m * s, q_np(n, p), beta_sp_closed(n, p), alpha(n, p))
        )
    terms, lower = _per_prime(n, primes, phi)
    geo = math.fsum(num / den * math.log(p) for p, num, den in terms)
    genus = genus_formula(n)
    upper = None
    conditional = False
    if kappa1 is not None or kappa2 is not None:
        if kappa1 is None or kappa2 is None:
            raise ParameterError("kappa1 and kappa2 must be given together")
        if not (kappa1 > 0 and kappa2 > 0):
            raise ParameterError("kappa1 and kappa2 must be positive")
        upper = (2 * genus - 2) * (phi * (kappa1 * math.log(n) + kappa2) + geo)
        if not math.isfinite(upper):
            raise ParameterError(f"upper bound is not finite for kappa1={kappa1}, kappa2={kappa2}")
        conditional = True
    simple = _simple(n, phi)
    _check_strict(n, lower, simple)
    return BoundReport(
        n=n,
        genus=genus,
        phi=phi,
        primes=tuple(records),
        geometric_terms=tuple((p, Fraction(num, den)) for p, num, den in terms),
        geometric_float=geo,
        lower=lower,
        simple=simple,
        mertens=math.fsum(math.log(p) / (p - 1) for p in primes),
        upper=upper,
        conditional=conditional,
    )


# ---------------------------------------------------------------------------
# range scans
# ---------------------------------------------------------------------------


#: values of N per `scan_rows` call in `scan`: 500 to 700 rows, about 0.55 MB
SCAN_BLOCK = 1 << 11


def _odd_primes(limit: int) -> list[int]:
    """Odd primes <= limit."""
    sieve = bytearray([1]) * (limit + 1)
    for q in range(3, math.isqrt(limit) + 1, 2):
        if sieve[q]:
            sieve[q * q::2 * q] = bytes(len(range(q * q, limit + 1, 2 * q)))
    return [q for q in range(3, limit + 1, 2) if sieve[q]]


def odd_squarefree_composites(max_n: int, start: int = 3):
    """Yield (N, prime factors) for odd squarefree composite N, start <= N <= max_n."""
    lo = max(start, 3) | 1
    if lo > max_n:
        return
    # A segmented sieve over the odd n = lo + 2i: each odd prime q <= sqrt(max_n)
    # is divided out of its multiples once, and rest[i] = 0 marks q^2 | n. What
    # is left is 1 or the one prime factor above sqrt(max_n).
    rest = list(range(lo, max_n + 1, 2))
    small = [[] for _ in rest]
    for q in _odd_primes(math.isqrt(max_n)):
        first = -(-lo // q) * q
        if not first & 1:
            first += q
        for i in range((first - lo) // 2, len(rest), q):
            r = rest[i] // q
            if r % q:
                rest[i] = r
                small[i].append(q)
            else:
                rest[i] = 0
    for i, r in enumerate(rest):
        if r:
            primes = small[i]
            if r > 1:
                primes.append(r)
            if len(primes) >= 2:
                yield lo + 2 * i, primes


def scan_rows(max_n: int, start: int = 15) -> list[tuple]:
    """One row (N, phi, coeffs, lower, simple, ratio) per odd squarefree
    composite N with start <= N <= max_n, in increasing N, with the strict
    lower/simple inequality asserted per row; coeffs are _per_prime's
    reduced (p, num, den) triples."""
    rows = []
    for n, primes in odd_squarefree_composites(max_n, start):
        phi = euler_phi(primes)
        terms, lower = _per_prime(n, primes, phi)
        simple = _simple(n, phi)
        _check_strict(n, lower, simple)
        rows.append((n, phi, terms, lower, simple, lower / simple))
    return rows


def scan(max_n: int):
    """Yield the rows of scan_rows(max_n), one scan_rows call per SCAN_BLOCK
    values of N; `yield from` drops each block before the next is computed,
    so memory stays flat in max_n."""
    for lo in range(15, max_n + 1, SCAN_BLOCK):
        yield from scan_rows(min(lo + SCAN_BLOCK - 1, max_n), lo)
