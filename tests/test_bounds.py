import hashlib
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ffk import bounds, polyarith
from ffk.bounds import (
    alpha,
    beta_sp_closed,
    bound_report,
    euler_phi,
    factor_odd_squarefree,
    odd_squarefree_composites,
    q_np,
    scan_rows,
)
from ffk.divisors import lambda_nu, per_prime_geometric
from ffk.errors import ParameterError


def alpha_oracle(n: int, p: int) -> int:
    """alpha(N, p) as the polynomial in N and p, before N = mp was substituted."""
    return (
        4 * n**4 * p
        - 6 * n**3 * p**2
        - 24 * n**3 * p
        + 37 * n**2 * p**2
        + 44 * n**2 * p
        - 72 * n * p**2
        - 4 * n**2
        - 12 * n * p
        + 36 * p**2
    )


def q_oracle(n: int, p: int) -> Fraction:
    """Q(N, p) as the polynomial in N and p over N(N-3)p^2, before N = mp was
    substituted."""
    return Fraction(
        3 * n**2 * p**2 - 2 * n * p**3 - 10 * n * p**2 + 6 * p**3 - 6 * p**2 - 4 * n**2 + 12 * n * p,
        n * (n - 3) * p**2,
    )


def beta_oracle(n: int, p: int) -> Fraction:
    """beta_{S,p} as the unreduced quotient over (N-1)(N-2)(N-3)^3 p^4."""
    return Fraction(
        alpha_oracle(n, p) * (n * p + 2 * n - 6 * p) * (p - 2),
        (n - 1) * (n - 2) * (n - 3) ** 3 * p**4,
    )


def test_factorization():
    assert factor_odd_squarefree(15) == [3, 5]
    assert factor_odd_squarefree(105) == [3, 5, 7]
    with pytest.raises(ParameterError, match="squareful"):
        factor_odd_squarefree(9)
    with pytest.raises(ParameterError, match="odd"):
        factor_odd_squarefree(30)
    with pytest.raises(ParameterError, match="prime"):
        factor_odd_squarefree(17)
    with pytest.raises(ParameterError):
        factor_odd_squarefree(1)


def test_euler_phi():
    assert euler_phi([3, 5]) == 8
    assert euler_phi([3, 5, 7]) == 48
    assert euler_phi([3]) == 2


def test_q_values():
    assert q_np(15, 5) == Fraction(133, 60)
    assert q_np(15, 3) == Fraction(407, 180)


def test_q_matches_graph(models):
    for (p, m), model in models.items():
        assert q_np(p * m, p) == per_prime_geometric(model)


def test_alpha_values():
    assert alpha(15, 5) == 330975
    # spelled-out evaluation at (15, 3)
    want = (4 * 50625 * 3 - 6 * 3375 * 9 - 24 * 3375 * 3 + 37 * 225 * 9
            + 44 * 225 * 3 - 72 * 15 * 9 - 900 - 540 + 324)
    assert alpha(15, 3) == want


def test_alpha_positive_scan():
    for n, primes in odd_squarefree_composites(3000):
        for p in primes:
            assert alpha(n, p) > 0


@settings(max_examples=300, deadline=None)
@given(p=st.sampled_from(bounds._odd_primes(10**4)), m=st.integers(3, 10**7),
       k=st.integers(1, 10**15))
def test_reduced_beta_matches_oracle(p, m, k):
    """The p^4-free beta_{S,p} is the unreduced quotient, and its float terms
    k num / den round exactly as the exact rational does."""
    n = m * p
    num, den = bounds._beta_num(n, p, m), bounds._n_parts(n)[2] * p
    want = beta_oracle(n, p)
    assert Fraction(num, den) == want
    assert alpha(n, p) == alpha_oracle(n, p)
    assert (k * num / den).hex() == float(Fraction(k) * want).hex()


def test_beta_closed_values(models):
    assert beta_sp_closed(15, 5) == Fraction(4413, 11648)
    assert beta_sp_closed(21, 3) > 0
    # equality of the two closed forms on every acceptance configuration
    for (p, m), model in models.items():
        params = model.params
        b = params.n * lambda_nu(params).total
        prop57 = b * (b * Fraction(params.genus - 1, params.genus) + 4 * m - 6)
        assert beta_sp_closed(p * m, p) == prop57


def test_geometric_contribution():
    rep = bound_report(15)
    terms, total = rep.geometric_terms, rep.geometric_float
    assert dict(terms) == {3: Fraction(407, 45), 5: Fraction(133, 30)}
    want = float(Fraction(407, 45)) * math.log(3) + float(Fraction(133, 30)) * math.log(5)
    assert math.isclose(total, want, rel_tol=1e-15)
    assert all(c > 0 for _, c in terms)


def test_upper_bound():
    up = bound_report(15, 1.0, 1.0).upper
    geo = bound_report(15).geometric_float
    assert math.isclose(up, 180 * (8 * (math.log(15) + 1) + geo), rel_tol=1e-15)
    # strictly increasing in both kappas
    assert bound_report(15, 2.0, 1.0).upper > up
    assert bound_report(15, 1.0, 2.0).upper > up
    with pytest.raises(ParameterError):
        bound_report(15, 0.0, 0.0)
    with pytest.raises(ParameterError):
        bound_report(15, 1.0, 0.0)


@pytest.mark.parametrize("kappas", [(math.inf, 1.0), (1e308, 1e308)])
def test_upper_bound_must_be_finite(kappas):
    # an infinite bound would be written as the non-JSON token Infinity
    with pytest.raises(ParameterError, match="not finite"):
        bound_report(15, *kappas)


def test_lower_bound_assembly():
    # independent assembly in a different summation order
    want = 8 * (float(beta_sp_closed(15, 3) / 2) * math.log(3)
                + float(beta_sp_closed(15, 5) / 4) * math.log(5))
    got = bound_report(15).lower
    assert math.isclose(got, want, rel_tol=4e-16)  # <= 4 ulp
    assert got > 0


def test_simple_lower():
    assert math.isclose(bound_report(15).simple, 8 * math.log(15) / 1125, rel_tol=1e-15)
    assert abs(bound_report(15).simple - 0.01926) < 5e-6
    assert abs(bound_report(33).simple - 0.01284) < 5e-6


def test_lower_exceeds_simple():
    for n in (15, 21, 33, 105):
        rep = bound_report(n)
        assert rep.lower > rep.simple


def test_mertens():
    got = bound_report(15).mertens
    assert math.isclose(got, math.log(3) / 2 + math.log(5) / 4, rel_tol=1e-15)
    assert abs(got - 0.9516) < 1e-4  # quoted value is truncated, not rounded
    assert math.isclose(bound_report(105).mertens - got, math.log(7) / 6, rel_tol=1e-12)
    for n, _ in odd_squarefree_composites(500):
        assert bound_report(n).mertens < math.log(n)


def test_bound_report():
    rep = bound_report(15)
    assert rep.upper is None and not rep.conditional
    assert rep.phi == 8 and rep.genus == 91
    assert [r.p for r in rep.primes] == [3, 5]
    assert rep.primes[1].beta_sp == Fraction(4413, 11648)
    assert rep.primes[1].s == 0 and rep.primes[1].rho == 0
    rep2 = bound_report(15, 1.0, 1.0)
    assert rep2.conditional and rep2.upper is not None
    with pytest.raises(ParameterError):
        bound_report(15, 1.0, None)


#: SHA-256 of "N,geometric_float,lower,upper\n" (floats as float.hex, upper
#: empty without kappas) over every admissible N <= 3000 and kappas none,
#: (1.0, 1.0) and (0.75, 2.5), recorded while the coefficients were Fractions
BOUND_REPORT_3000_SHA256 = "afa23ba452513d29a22a643d524c00593bebf5224c0fa78f24e5263495d330ad"


def test_bound_report_boundary():
    """bound_report returns Fractions and the same floats, bit for bit, as when
    its kernel computed in Fractions."""
    digest = hashlib.sha256()
    for n, primes in odd_squarefree_composites(3000):
        phi = euler_phi(primes)
        for kappas in ((), (1.0, 1.0), (0.75, 2.5)):
            rep = bound_report(n, *kappas)
            assert [p for p, _ in rep.geometric_terms] == primes
            for (p, c), r in zip(rep.geometric_terms, rep.primes, strict=True):
                assert type(c) is Fraction and c == Fraction(phi, p - 1) * q_np(n, p)
                assert r.alpha == alpha_oracle(n, p) and r.beta_sp == beta_oracle(n, p)
            upper = "" if rep.upper is None else rep.upper.hex()
            digest.update(f"{n},{rep.geometric_float.hex()},{rep.lower.hex()},{upper}\n".encode())
    assert digest.hexdigest() == BOUND_REPORT_3000_SHA256


def test_report_rho_field():
    rep = bound_report(21)
    by_p = {r.p: r for r in rep.primes}
    assert by_p[7].s == 2 and by_p[7].rho == 2 * 3  # m * s with m = 3
    assert by_p[3].s == 0


def test_scan_list():
    ns = [n for n, _ in odd_squarefree_composites(100)]
    assert ns == [15, 21, 33, 35, 39, 51, 55, 57, 65, 69, 77, 85, 87, 91, 93, 95]
    assert list(odd_squarefree_composites(10)) == []


def test_scan_rows():
    rows = scan_rows(100)
    assert len(rows) == 16
    assert all(ratio > 1 for *_, ratio in rows)
    n, phi, first_coeffs, *_ = rows[0]
    assert n == 15 and phi == 8
    coeffs = {3: Fraction(407, 45), 5: Fraction(133, 30)}
    assert coeffs == {p: Fraction(8, p - 1) * q_np(15, p) for p in (3, 5)}
    assert first_coeffs == [(p, c.numerator, c.denominator) for p, c in coeffs.items()]


def test_sieve_matches_factorize():
    """The segmented sieve against trial division on every odd N, over the
    whole range and over segments that start anywhere."""
    want = []
    for n in range(3, 20001, 2):
        primes = polyarith.factorize(n)
        if len(primes) >= 2 and len(set(primes)) == len(primes):
            want.append((n, primes))
    assert list(odd_squarefree_composites(20000)) == want
    for start in (4, 15, 1000, 1001, 9801, 19999, 20000):
        assert list(odd_squarefree_composites(20000, start)) == [w for w in want if w[0] >= start]
    assert list(odd_squarefree_composites(1155, 1155)) == [(1155, [3, 5, 7, 11])]


@pytest.mark.parametrize("block", [64, 2048, 10**6])
def test_scan_blocks_match_scan_rows(monkeypatch, block):
    """scan() yields the rows of scan_rows() whatever the block width."""
    want = scan_rows(5000)
    monkeypatch.setattr(bounds, "SCAN_BLOCK", block)
    assert list(bounds.scan(5000)) == want
    assert scan_rows(5000, 2001) == [r for r in want if r[0] >= 2001]


def test_scan_rows_match_fraction_reference():
    """Every scan row to 20,000, bit for bit against an all-Fraction evaluation."""
    rows = scan_rows(20000)
    assert len(rows) == 5842
    for (row_n, row_phi, row_coeffs, row_lower, row_simple, row_ratio), (n, primes) in zip(
            rows, odd_squarefree_composites(20000), strict=True):
        phi = euler_phi(primes)
        lower = math.fsum(float(Fraction(phi, p - 1) * beta_oracle(n, p)) * math.log(p)
                          for p in primes)
        simple = phi * math.log(n) / (5 * n * n)
        assert row_n == n and row_phi == phi
        assert row_lower.hex() == lower.hex()
        assert row_simple.hex() == simple.hex()
        assert row_ratio.hex() == (lower / simple).hex()
        coeffs = [(p, Fraction(phi, p - 1) * q_np(n, p)) for p in primes]
        assert row_coeffs == [(p, c.numerator, c.denominator) for p, c in coeffs]


def reference_row(n: int, primes: list[int]) -> tuple:
    """A scan row from the oracles, every exact quantity a Fraction."""
    phi = math.prod(p - 1 for p in primes)
    coeffs = [Fraction(phi, p - 1) * q_oracle(n, p) for p in primes]
    lower = math.fsum(float(Fraction(phi, p - 1) * beta_oracle(n, p)) * math.log(p)
                      for p in primes)
    simple = phi * math.log(n) / (5 * n * n)
    return (n, phi, [(p, c.numerator, c.denominator) for p, c in zip(primes, coeffs)],
            lower.hex(), simple.hex(), (lower / simple).hex())


@settings(max_examples=100, deadline=None)
@given(lo=st.integers(15, 10**7))
@example(lo=3 * 5 * 7 * 11 * 13 * 17 - 200)
def test_scan_rows_match_fraction_reference_large_n(lo):
    """Every row of a 400-wide window up to 10^7 (N with up to 6 primes,
    coefficient denominators near 2^46) against the oracles, with its N found
    by trial division; bound_report on the window's N with the smallest
    largest prime (so that s(p) stays cheap) against the same oracles."""
    window = []
    for n in range(lo | 1, lo + 401, 2):
        primes = polyarith.factorize(n)
        if len(primes) >= 2 and len(set(primes)) == len(primes):
            window.append((n, primes))
    rows = scan_rows(lo + 400, lo)
    assert [(n, phi, coeffs, lower.hex(), simple.hex(), ratio.hex())
            for n, phi, coeffs, lower, simple, ratio in rows] == [
        reference_row(n, primes) for n, primes in window]
    n, primes = min(window, key=lambda w: w[1][-1])
    rep = bound_report(n)
    want = reference_row(n, primes)
    assert (rep.lower.hex(), rep.simple.hex()) == want[3:5]
    assert [(p, c.numerator, c.denominator) for p, c in rep.geometric_terms] == want[2]
    for r in rep.primes:
        assert (r.q, r.beta_sp, r.alpha) == (q_oracle(n, r.p), beta_oracle(n, r.p),
                                             alpha_oracle(n, r.p))
