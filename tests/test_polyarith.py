import math
import re
import tracemalloc
from itertools import count

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ffk import cli, polyarith, verify
from ffk.errors import CapExceeded, MathContractError, ParameterError
from ffk.polyarith import (
    DOUBLE_ROOT_CAP,
    ORACLE_BOUND,
    FpPoly,
    _small_factors,
    capital_psi,
    double_root_count,
    double_roots,
    double_roots_gcd,
    factorize,
    is_prime,
    fermat_split_check,
    psi_diag,
    psi_poly,
    require_odd_prime,
    trinomial_pow,
)

PRIMES_TO_101 = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59,
                 61, 67, 71, 73, 79, 83, 89, 97, 101]


def slow_trinomial_pow(n):
    """Independent oracle: (a+b-1)^n by repeated naive multiplication."""
    acc = {(0, 0): 1}
    base = {(1, 0): 1, (0, 1): 1, (0, 0): -1}
    for _ in range(n):
        nxt = {}
        for (i1, j1), c1 in acc.items():
            for (i2, j2), c2 in base.items():
                k = (i1 + i2, j1 + j2)
                nxt[k] = nxt.get(k, 0) + c1 * c2
        acc = {k: v for k, v in nxt.items() if v}
    return acc


def _poly_add(a, b):
    """Sum of two coefficient lists."""
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, v in enumerate(b):
        out[i] += v
    return out


def _poly_mul(a, b):
    """Product of two nonempty coefficient lists."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def substitute_diag(f: dict) -> tuple[int, ...]:
    """Independent oracle for psi_diag: f(a, 1-a), with (1-a)^j by repeated multiplication."""
    acc, powers = [], [[1]]
    for (i, j), c in sorted(f.items()):
        while len(powers) <= j:
            powers.append(_poly_mul(powers[-1], [1, -1]))
        acc = _poly_add(acc, _poly_mul([0] * i + [c], powers[j]))
    while acc and acc[-1] == 0:
        acc.pop()
    return tuple(acc)


def test_psi_poly_p3_explicit():
    # oracle: -a^2 b - a b^2 + a^2 + 2ab + b^2 - a - b
    want = {(2, 1): -1, (1, 2): -1, (2, 0): 1, (1, 1): 2, (0, 2): 1,
            (1, 0): -1, (0, 1): -1}
    assert psi_poly(3) == want


@pytest.mark.parametrize("p", PRIMES_TO_101)
def test_psi_defining_identity(p):
    # p*psi + (a+b-1)^p - a^p - b^p + 1 = 0, against the naive-power oracle
    lhs = {key: p * c for key, c in psi_poly(p).items()}
    for key, c in [*slow_trinomial_pow(p).items(), ((p, 0), -1), ((0, p), -1), ((0, 0), 1)]:
        lhs[key] = lhs.get(key, 0) + c
    assert all(c == 0 for c in lhs.values())


@pytest.mark.parametrize("p", PRIMES_TO_101)
def test_psi_and_trinomial_pow_store_no_zero(p):
    assert 0 not in psi_poly(p).values() and 0 not in trinomial_pow(p).values()


@pytest.mark.parametrize("p", PRIMES_TO_101)
def test_psi_poly_is_the_slow_oracle_dict(p):
    num = {key: -c for key, c in slow_trinomial_pow(p).items()}
    for key, c in (((p, 0), 1), ((0, p), 1), ((0, 0), -1)):
        num[key] = num.get(key, 0) + c
    assert all(c % p == 0 for c in num.values())
    assert psi_poly(p) == {key: c // p for key, c in num.items() if c}


def test_psi_value_at_one_one():
    assert sum(psi_poly(5).values()) == 0  # the value at (1, 1) is the coefficient sum


@pytest.mark.parametrize("p", [4, 9, 2, 1, 15])
def test_psi_rejects_non_odd_primes(p):
    with pytest.raises(ParameterError):
        psi_poly(p)


@pytest.mark.parametrize("call,arg", [
    (require_odd_prime, 7.0), (require_odd_prime, "7"), (require_odd_prime, True),
    (is_prime, 7.0), (is_prime, "7"), (factorize, 7.5), (factorize, True), (double_root_count, 7.0),
    (double_roots, 7.0), (psi_diag, 7.0), (psi_poly, 5.0), (capital_psi, 7.0),
    (double_roots_gcd, 7.0),
], ids=lambda v: getattr(v, "__name__", repr(v)))
def test_a_non_int_is_refused(call, arg):
    # the type test comes before any comparison, so neither a TypeError nor a pass
    with pytest.raises(ParameterError, match=re.escape(f"must be an int, got {arg!r}")):
        call(arg)


def test_psi_diag_explicit():
    assert psi_diag(3) == (0, -1, 1)  # a^2 - a
    assert psi_diag(5) == (0, -1, 2, -2, 1)  # a^4 - 2a^3 + 2a^2 - a


@pytest.mark.parametrize("p", PRIMES_TO_101)
def test_psi_diag_two_paths_agree(p):
    assert substitute_diag(psi_poly(p)) == psi_diag(p)


@pytest.mark.parametrize("p", [5, 7, 11])
def test_psi_diag_shape(p):
    f = psi_diag(p)
    assert len(f) - 1 == p - 1
    assert f[0] == 0  # constant term
    assert sum(f) == 0  # f(1)


def test_capital_psi_small_values():
    assert capital_psi(3) == (1,)
    assert capital_psi(5) == (1, -1, 1)  # a^2 - a + 1
    assert FpPoly(5, capital_psi(5)).coeffs == (1, 4, 1)


def test_capital_psi_7_factors_mod_7():
    got = FpPoly(7, capital_psi(7))
    want = FpPoly(7, (2, 1)) * FpPoly(7, (2, 1)) * FpPoly(7, (4, 1)) * FpPoly(7, (4, 1))
    # equality up to a unit of F_7
    u = got.coeffs[-1] * pow(want.coeffs[-1], -1, 7) % 7
    assert got.coeffs == tuple(u * c % 7 for c in want.coeffs)


@pytest.mark.parametrize("p", PRIMES_TO_101)
def test_capital_psi_degree(p):
    assert len(capital_psi(p)) - 1 == p - 3


@pytest.mark.parametrize("p", PRIMES_TO_101)
def test_capital_psi_times_a_a_minus_1_is_psi_diag(p):
    assert tuple(_poly_mul([0, -1, 1], capital_psi(p))) == psi_diag(p)


@pytest.mark.parametrize("diag,match", [
    ((1, -1, 1), "nonzero remainder"),  # constant term 1
    ((0, -1, 2), "nonzero remainder"),  # psi_diag(1) = 1
    ((0, -1, 1), "has degree 0, expected 2"),  # a^2 - a: PsiCap = 1
], ids=["constant-term", "remainder", "degree"])
def test_capital_psi_contracts(monkeypatch, diag, match):
    monkeypatch.setattr(polyarith, "psi_diag", lambda p: diag)
    with pytest.raises(MathContractError, match=match):
        capital_psi(5)


def double_roots_pow(p):
    """Reference for double_roots: a^p - (a-1)^p = 1 (mod p^2), one modular power per residue."""
    p2 = p * p
    prev = 1  # 1^p
    roots = []
    for a in range(2, p):
        cur = pow(a, p, p2)
        if (cur - prev) % p2 == 1:
            roots.append(a)
        prev = cur
    return roots


def fermat_quotient(a, p):
    return (pow(a, p - 1, p * p) - 1) // p


def test_double_root_counts():
    assert double_root_count(3) == 0
    assert double_root_count(5) == 0
    assert double_root_count(7) == 2
    assert double_roots(7) == [3, 5]  # representatives of -4, -2


@pytest.mark.parametrize("p", PRIMES_TO_101)
def test_double_root_count_bound(p):
    s = double_root_count(p)
    assert 0 <= 2 * s <= p - 3


@pytest.mark.parametrize("p", PRIMES_TO_101)
def test_repeated_part_is_exactly_squared(p):
    # gcd(Psi, Psi') is squarefree, splits over F_p, and its square divides Psi
    f = FpPoly(p, capital_psi(p))
    rep = f.gcd(f.derivative())
    if rep.degree > 0:
        assert rep.gcd(rep.derivative()).degree == 0
        assert not f % (rep * rep)
        assert len(rep.roots_in_fp()) == rep.degree


@pytest.mark.parametrize("p,m", [(3, 5), (5, 3), (3, 7), (7, 3), (5, 7), (7, 5),
                                 (3, 11), (11, 3)])
def test_fermat_split(p, m):
    assert fermat_split_check(p, m)


def _add_to_trinomial_pow(monkeypatch, extra):
    right = polyarith.trinomial_pow
    def wrong(n):
        terms = right(n)
        terms[(1, 1)] += extra(n)
        return terms
    monkeypatch.setattr(polyarith, "trinomial_pow", wrong)


@pytest.mark.parametrize("p,m", [(7, 3), (7, 5)])
def test_fermat_split_fails_on_a_wrong_power(monkeypatch, p, m):
    # 7n ab is a multiple of p, so psi_poly still divides exactly
    _add_to_trinomial_pow(monkeypatch, lambda n: 7 * n)
    assert not fermat_split_check(p, m)


def test_split_check_reports_a_psi_that_p_does_not_divide(monkeypatch):
    _add_to_trinomial_pow(monkeypatch, lambda n: 1)
    results = verify.suite_polynomial()
    split = [r for r in results if r.name.startswith("splitting identity")]
    assert len(split) == len(verify.ACCEPTANCE_PAIRS)
    assert not any(r.passed for r in split)
    assert all(r.passed for r in results if r not in split)


def test_fermat_split_cap():
    with pytest.raises(CapExceeded, match="2000"):
        fermat_split_check(3, 667)


@pytest.mark.parametrize("m", [True, 2.0, 0])
def test_fermat_split_refuses_an_m_that_is_not_a_positive_int(m):
    with pytest.raises(ParameterError, match=re.escape(f"m must be a positive int, got {m!r}")):
        fermat_split_check(3, m)


def test_factorize_and_is_prime():
    for n in range(1, 1000):
        primes = factorize(n)
        assert math.prod(primes) == n and primes == sorted(primes)
        assert is_prime(n) == (n > 1 and all(n % d for d in range(2, n)))
        assert all(is_prime(q) for q in primes)
    assert not is_prime(0) and not is_prime(-7)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 10**12), st.integers(1, 1000))
def test_small_factors_stop_at_the_limit(n, limit):
    # either every prime factor, the cofactor 1, or the factors up to limit and a
    # cofactor above limit^2 with no divisor in [2, limit]
    primes, rest = _small_factors(n, limit)
    assert math.prod(primes) * rest == n and primes == sorted(primes)
    if rest == 1:
        assert all(is_prime(q) for q in primes)
    else:
        assert rest > limit * limit and all(q <= limit for q in primes)
        assert math.gcd(rest, math.factorial(limit)) == 1


def test_fppoly_gcd_monic():
    f = FpPoly(7, (1, 0, 1)) * FpPoly(7, (3, 1))
    g = FpPoly(7, (3, 1)) * FpPoly(7, (5, 1))
    assert f.gcd(g).coeffs == (3, 1)


def fppoly_mod_reference(f, g):
    """Reference for FpPoly.__mod__: long division reducing every entry at each step."""
    p, rem, dc = f.p, list(f.coeffs), g.coeffs
    inv = pow(dc[-1], -1, p)
    for i in range(len(rem) - len(dc), -1, -1):
        factor = rem[i + len(dc) - 1] * inv % p
        if factor:
            for j, d in enumerate(dc):
                rem[i + j] = (rem[i + j] - factor * d) % p
    return FpPoly(p, rem)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(PRIMES_TO_101), st.lists(st.integers(-10**4, 10**4), max_size=40),
       st.lists(st.integers(-10**4, 10**4), min_size=1, max_size=40))
def test_fppoly_mod_matches_the_reference(p, f, g):
    f, g = FpPoly(p, f), FpPoly(p, g)
    if not g:
        with pytest.raises(ZeroDivisionError):
            f % g
        return
    got = f % g
    assert got == fppoly_mod_reference(f, g)
    assert got.degree < g.degree and all(0 <= c < p for c in got.coeffs)


def test_double_roots_match_gcd_oracle():
    # the fast Fermat-quotient count against the gcd(f, f') oracle, as root lists
    for p in range(3, ORACLE_BOUND):
        if is_prime(p):
            assert double_roots(p) == double_roots_gcd(p), p


def test_double_roots_include_sixth_roots_of_unity():
    # for p = 1 (mod 6), (a^2 - a + 1)^2 divides a^p + (1-a)^p - 1 over Z and
    # a^2 - a + 1 has two distinct roots in F_p, so s(p) >= 2
    for p in range(7, 3000, 6):
        if is_prime(p):
            roots = double_roots(p)
            assert double_root_count(p) == len(roots) >= 2, p
            sixth = [a for a in range(p) if (a * a - a + 1) % p == 0]
            assert len(sixth) == 2 and set(sixth) <= set(roots), p


def test_double_roots_match_the_pow_reference():
    # the Fermat-quotient walk against one modular power per residue
    for p in [*range(3, 5000), 99991]:
        if is_prime(p):
            assert double_roots(p) == double_roots_pow(p), p


odd_primes = st.integers(3, 10**7).map(lambda n: next(q for q in count(n) if is_prime(q)))


@settings(max_examples=200, deadline=None)
@given(odd_primes, st.integers(1, 10**7), st.integers(1, 10**7))
def test_fermat_quotient_is_additive(p, a, b):
    # Lehmer's q(ab) = q(a) + q(b) (mod p), the premise of the walk
    a, b = a % (p - 1) + 1, b % (p - 1) + 1
    assert fermat_quotient(a * b, p) % p == (fermat_quotient(a, p) + fermat_quotient(b, p)) % p


def test_double_root_cap_fires_before_the_tables_exist():
    p = 10000019  # the least prime above the cap
    assert DOUBLE_ROOT_CAP == 10**7 and is_prime(p)
    tracemalloc.start()
    try:
        with pytest.raises(CapExceeded, match=f"p = {p} exceeds the double-root cap {DOUBLE_ROOT_CAP}"):
            double_roots(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_double_root_tables_take_8_bytes_per_residue():
    p = 20011
    tracemalloc.start()
    try:
        assert double_roots(p) == [9472, 10540]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the two tables; the sieve's fill at d = 2 (2 bytes per residue) is freed before q is made
    assert 8 * p <= peak < 10 * p


@pytest.mark.parametrize("argv", [["rho", "--p", "10000019"], ["bounds", "--N", str(3 * 10000019)]],
                         ids=["rho", "bounds"])
def test_cli_exits_3_over_the_double_root_cap(capsys, argv):
    assert cli.main(argv) == 3
    assert "exceeds the double-root cap" in capsys.readouterr().err
