import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nevdiff.zfield import (
    RZ_ONE,
    RZ_ZERO,
    ratz,
    wpoly_gcd_degree,
    zp_add,
    zp_divexact,
    zp_eval,
    zp_gcd,
    zp_mul,
    zp_normal,
    zp_primitive,
    zp_text,
)

coeffs = st.lists(st.integers(-9, 9), min_size=0, max_size=5).map(tuple)
zpolys = st.lists(st.integers(-20, 20), max_size=4).map(zp_normal)
nonzero_zpolys = zpolys.filter(bool)
constants = st.integers(-20, 20).map(lambda k: zp_normal((k,)))


# ---------------------------------------------------------------------------
# reference implementations: Euclid over Q with Fractions, and Euclid in w
# over the field of rational functions with RatZ coefficients


def _frac_divmod(a: list, b: list) -> tuple:
    r = list(a)
    q = [Fraction(0)] * max(1, len(a) - len(b) + 1)
    db = len(b) - 1
    lead = b[-1]
    while len(r) - 1 >= db and any(r):
        while r and r[-1] == 0:
            r.pop()
        if len(r) - 1 < db:
            break
        shift = len(r) - 1 - db
        factor = r[-1] / lead
        q[shift] += factor
        for i, cb in enumerate(b):
            r[shift + i] -= factor * cb
        r.pop()
    return q, r


def fraction_gcd(a, b):
    fa = [Fraction(c) for c in a]
    fb = [Fraction(c) for c in b]
    while any(fb):
        _, rem = _frac_divmod(fa, fb)
        while rem and rem[-1] == 0:
            rem.pop()
        fa, fb = fb, rem
    if not any(fa):
        return ()
    denom = math.lcm(*(f.denominator for f in fa))
    return zp_primitive(zp_normal(int(f * denom) for f in fa))


def ratz_euclid_gcd_degree(a, b):
    def trim(p):
        p = list(p)
        while p and p[-1].is_zero:
            p.pop()
        return p

    fa, fb = trim(a), trim(b)
    while fb:
        r = list(fa)
        while len(r) >= len(fb):
            factor = r[-1] / fb[-1]
            shift_by = len(r) - len(fb)
            for i, cb in enumerate(fb):
                r[shift_by + i] = r[shift_by + i] - factor * cb
            r.pop()
            r = trim(r)
            if not r:
                break
        fa, fb = fb, trim(r)
    return len(fa) - 1


def test_gcd_of_shared_factor():
    a = zp_mul((1, 1), (2, 0, 1))  # (z+1)(z^2+2)
    b = zp_mul((1, 1), (-3, 1))  # (z+1)(z-3)
    assert zp_gcd(a, b) == (1, 1)


def test_gcd_coprime_is_constant():
    assert zp_gcd((1, 1), (2, 1)) == (1,)


def test_divexact_roundtrip():
    a = (6, 5, 1)  # (z+2)(z+3)
    assert zp_divexact(a, (2, 1)) == (3, 1)
    with pytest.raises(ArithmeticError):
        zp_divexact((1, 1), (0, 1))
    with pytest.raises(ArithmeticError):
        zp_divexact((0, 3), (0, 2))  # 3z/2z: no remainder, but not integral


def test_ratz_reduction():
    r = ratz((2, 2), (4,))  # (2z+2)/4 -> (z+1)/2
    assert r.num == (1, 1) and r.den == (2,)
    r2 = ratz((1, 1), (2, 3, 1))  # (z+1)/((z+1)(z+2))
    assert r2.num == (1,) and r2.den == (2, 1)


def test_ratz_sign_canonical():
    r = ratz((1,), (-2,))
    assert r.den == (2,) and r.num == (-1,)


def test_ratz_arithmetic():
    half = ratz((1,), (2,))
    third = ratz((1,), (3,))
    assert half + third == ratz((5,), (6,))
    assert half * third == ratz((1,), (6,))
    assert (half - half) == RZ_ZERO
    assert (half / half) == RZ_ONE
    # 1/(z(z-1)) + 1/(z(z+1)) = 2z/(z(z^2-1)): the sum shares z with the
    # gcd of the denominators
    a = ratz((1,), zp_mul((0, 1), (-1, 1)))
    b = ratz((1,), zp_mul((0, 1), (1, 1)))
    assert a + b == ratz((2,), (-1, 0, 1))
    assert a - a == RZ_ZERO


def test_zp_text_shapes():
    assert zp_text((1, 0, 1)) == "z^2+1"
    assert zp_text((0, 2)) == "2*z"
    assert zp_text((-3,)) == "-3"
    assert zp_text(()) == "0"


@given(coeffs, coeffs)
def test_add_matches_pointwise(a, b):
    s = zp_add(a, b)
    for z in (0.5, 2.0, -1.5):
        assert zp_eval(s, z) == pytest.approx(zp_eval(a, z) + zp_eval(b, z))


@given(coeffs, coeffs)
def test_mul_matches_pointwise(a, b):
    p = zp_mul(a, b)
    for z in (0.5, -2.0):
        assert zp_eval(p, z) == pytest.approx(zp_eval(a, z) * zp_eval(b, z))


@given(coeffs, coeffs, coeffs)
def test_ratz_field_laws(a, b, c):
    x = ratz(a) if any(a) else RZ_ZERO
    y = ratz(b) if any(b) else RZ_ZERO
    z = ratz(c) if any(c) else RZ_ZERO
    assert (x + y) * z == x * z + y * z
    assert x + y == y + x


@given(zpolys, zpolys, zpolys)
def test_gcd_matches_fraction_euclid_on_planted_factor(f, g, h):
    a, b = zp_mul(f, g), zp_mul(f, h)
    got = zp_gcd(a, b)
    assert got == fraction_gcd(a, b)
    if f:
        zp_divexact(got, zp_primitive(f))  # the planted factor divides the gcd


@given(zpolys, constants)
def test_gcd_with_zero_or_constant_side(a, k):
    for x, y in ((a, k), (k, a), (a, ()), ((), a)):
        assert zp_gcd(x, y) == fraction_gcd(x, y)


@given(zpolys, nonzero_zpolys)
def test_divexact_inverts_mul(a, b):
    assert zp_divexact(zp_mul(a, b), b) == a


@given(zpolys, nonzero_zpolys.filter(lambda b: len(b) > 1), nonzero_zpolys)
def test_divexact_raises_when_inexact(a, b, r):
    rem = zp_normal(r[: len(b) - 1]) or (1,)
    with pytest.raises(ArithmeticError):
        zp_divexact(zp_add(zp_mul(a, b), rem), b)
    with pytest.raises(ArithmeticError):
        zp_divexact(b, tuple(2 * c for c in b))  # exact over Q, not over Z


@given(zpolys, zpolys, nonzero_zpolys)
def test_ratz_is_canonical(f, n, d):
    num, den = zp_mul(f, n), zp_mul(f, d) or d
    r = ratz(num, den)
    assert r.den and r.den[-1] > 0
    if not r.num:
        assert r == RZ_ZERO
        return
    assert math.gcd(*r.num, *r.den) == 1
    assert len(fraction_gcd(r.num, r.den)) == 1
    assert zp_mul(r.num, den) == zp_mul(num, r.den)


@given(zpolys, zpolys, nonzero_zpolys, zpolys, nonzero_zpolys, nonzero_zpolys)
def test_ratz_product_cancels_crosswise(f, n1, d1, n2, d2, g):
    # f is planted across the operands, g along the first one
    a = ratz(zp_mul(n1, f), zp_mul(d1, g)) if zp_mul(n1, f) else RZ_ZERO
    b = ratz(zp_mul(n2, g), zp_mul(d2, f) or d2) if zp_mul(n2, g) else RZ_ZERO
    assert a * b == ratz(zp_mul(a.num, b.num), zp_mul(a.den, b.den))
    assert b * a == a * b


@given(zpolys, nonzero_zpolys, zpolys, nonzero_zpolys, nonzero_zpolys)
def test_ratz_sum_over_the_gcd_of_the_denominators(n1, d1, n2, d2, g):
    # g is planted in both denominators
    a = ratz(n1, zp_mul(d1, g))
    b = ratz(n2, zp_mul(d2, g))
    expected = ratz(zp_add(zp_mul(a.num, b.den), zp_mul(b.num, a.den)), zp_mul(a.den, b.den))
    assert a + b == expected
    assert b + a == expected


def _ratfuns():
    nums = st.lists(st.integers(-6, 6), min_size=1, max_size=3).map(zp_normal)
    dens = st.sampled_from([(1,), (2,), (-1, 1), (3, 2), (1, 0, 1)])
    return st.builds(lambda n, d: ratz(n, d) if n else RZ_ZERO, nums, dens)


def _wpolys(max_degree):
    return st.lists(_ratfuns(), min_size=1, max_size=max_degree + 1).filter(
        lambda p: not p[-1].is_zero
    )


def _wmul(a, b):
    out = [RZ_ZERO] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return out


@settings(deadline=None)
@given(_wpolys(2), _wpolys(2), _wpolys(2))
def test_w_gcd_degree_matches_ratz_euclid(f, g, h):
    a, b = _wmul(f, g), _wmul(f, h)
    got = wpoly_gcd_degree(a, b)
    assert got == ratz_euclid_gcd_degree(a, b)
    assert got >= len(f) - 1


def test_fraction_coeff_helper():
    assert Fraction(1, 2) + Fraction(1, 3) == Fraction(5, 6)
