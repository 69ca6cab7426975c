"""Exact univariate polynomials and rational functions in z.

A polynomial is a tuple of integer coefficients in ascending order of power,
with no trailing zeros; the empty tuple is the zero polynomial.  A rational
function is a reduced pair num/den of such tuples; `wpoly_gcd_degree` works
on polynomials in w whose coefficients are such rational functions.
Everything here is exact and integer-only (fraction-free); no floats enter.
"""

from __future__ import annotations

import functools
import math
import operator
from typing import Callable, Iterable, List, NamedTuple, Sequence, Tuple, TypeVar

ZPoly = Tuple[int, ...]

ZP_ZERO: ZPoly = ()
ZP_ONE: ZPoly = (1,)


def zp_normal(coeffs: Iterable[int]) -> ZPoly:
    if type(coeffs) is tuple and (not coeffs or coeffs[-1]):
        return coeffs
    out = list(coeffs)
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def zp_degree(p: ZPoly) -> int:
    """Degree, with -1 for the zero polynomial."""
    return len(p) - 1


def zp_add(a: ZPoly, b: ZPoly) -> ZPoly:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    # only equal lengths can cancel the top coefficient
    return zp_normal(out) if len(a) == len(b) else tuple(out)


def zp_neg(a: ZPoly) -> ZPoly:
    return tuple(-c for c in a)


def zp_sub(a: ZPoly, b: ZPoly) -> ZPoly:
    return zp_add(a, zp_neg(b))


def zp_mul(a: ZPoly, b: ZPoly) -> ZPoly:
    if not a or not b:
        return ZP_ZERO
    if len(a) == 1:
        a, b = b, a
    if len(b) == 1:
        c = b[0]
        return tuple(c * x for x in a) if c else ZP_ZERO
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca == 0:
            continue
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return zp_normal(out)


def zp_pow(a: ZPoly, n: int) -> ZPoly:
    if n < 0:
        raise ValueError("negative power")
    if a and not any(a[:-1]):  # a monomial c*z^m
        return (0,) * ((len(a) - 1) * n) + (a[-1] ** n,)
    out = ZP_ONE
    while n:  # repeated squaring
        if n & 1:
            out = zp_mul(out, a)
        n >>= 1
        if n:
            a = zp_mul(a, a)
    return out


def zp_eval(a: ZPoly, z: complex) -> complex:
    acc: complex = 0
    for c in reversed(a):
        acc = acc * z + c
    return acc


def zp_primitive(a: ZPoly) -> ZPoly:
    """Divide out the content; leading coefficient made positive."""
    if not a:
        return ZP_ZERO
    g = math.gcd(*a)
    if a[-1] < 0:
        g = -g
    return tuple(c // g for c in a)


C = TypeVar("C")


def prs_last(
    a: Sequence[C],
    b: Sequence[C],
    mul: Callable[[C, C], C],
    sub: Callable[[C, C], C],
    primitive: Callable[[List[C]], Sequence[C]],
) -> Sequence[C]:
    """Last nonzero term of the primitive pseudo-remainder sequence of a, b.

    a and b are ascending coefficient lists over an integral domain D with no
    trailing zeros (a coefficient is zero when it is falsy); `primitive`
    divides a list by its content in D.  The result is a gcd of a and b over
    the fraction field of D, up to a unit.  The sequence stops at the first
    nonzero constant remainder, where the gcd is already known to be a unit
    (Knuth, TAOCP vol. 2, 4.6.1, Algorithm E).
    """
    if len(a) < len(b):
        a, b = b, a
    while b:
        if len(b) == 1:
            return b
        lead, db = b[-1], len(b) - 1
        r = list(a)
        while len(r) > db:
            top = r.pop()
            shift = len(r) - db
            r = [mul(lead, x) for x in r]
            for i in range(db):
                r[shift + i] = sub(r[shift + i], mul(top, b[i]))
            while r and not r[-1]:
                r.pop()
        a, b = b, primitive(r)
    return a


def zp_gcd(a: ZPoly, b: ZPoly) -> ZPoly:
    """Primitive gcd with positive leading coefficient."""
    return prs_last(zp_primitive(a), zp_primitive(b), operator.mul, operator.sub, zp_primitive)


def zp_divexact(a: ZPoly, b: ZPoly) -> ZPoly:
    """Exact quotient a/b in Z[z]; raises if b does not divide a there.

    For a primitive b this is division over Q: by Gauss's lemma the quotient
    of an exact division is then integral.
    """
    lead, db = b[-1], len(b) - 1
    r = list(a)
    q = [0] * max(0, len(r) - db)
    while len(r) > db:
        top = r.pop()
        if not top:
            continue
        k, m = divmod(top, lead)
        if m:
            raise ArithmeticError("quotient not integral")
        shift = len(r) - db
        q[shift] = k
        for i in range(db):
            r[shift + i] -= k * b[i]
    if any(r):
        raise ArithmeticError("inexact polynomial division")
    return zp_normal(q)


def zp_text(a: ZPoly) -> str:
    """Canonical text, descending powers: 'z^2+1', '2*z', '-3', '0'."""
    if not a:
        return "0"
    parts = []
    for k in range(len(a) - 1, -1, -1):
        c = a[k]
        if c == 0:
            continue
        sign = "-" if c < 0 else ("+" if parts else "")
        mag = abs(c)
        if k == 0:
            body = str(mag)
        elif k == 1:
            body = "z" if mag == 1 else f"{mag}*z"
        else:
            body = f"z^{k}" if mag == 1 else f"{mag}*z^{k}"
        parts.append(sign + body)
    return "".join(parts)


class RatZ(NamedTuple):
    """Reduced rational function num/den with integer-coefficient parts.

    Canonical form: den not zero, gcd(num, den) constant, joint content 1,
    den's leading coefficient positive.  Construct through `ratz`.
    """

    num: ZPoly
    den: ZPoly

    @property
    def is_zero(self) -> bool:
        return not self.num

    @property
    def is_one(self) -> bool:
        return self.num == ZP_ONE and self.den == ZP_ONE

    def __add__(self, other: "RatZ") -> "RatZ":
        # Henrici's sum: with g = gcd(d1, d2), the numerator
        # t = n1*(d2/g) + n2*(d1/g) is coprime to d1/g and d2/g, so only
        # gcd(t, g) is left to cancel
        (n1, d1), (n2, d2) = self, other
        g = zp_gcd(d1, d2) if len(d1) > 1 and len(d2) > 1 else ZP_ONE
        if len(g) > 1:
            d1, d2 = zp_divexact(d1, g), zp_divexact(d2, g)
        t = zp_add(zp_mul(n1, d2), zp_mul(n2, d1))
        if not t:
            return RZ_ZERO
        t, g = _cancel(t, g)
        return _primitive(t, zp_mul(zp_mul(d1, d2), g))

    def __neg__(self) -> "RatZ":
        return RatZ(zp_neg(self.num), self.den)

    def __sub__(self, other: "RatZ") -> "RatZ":
        return self + (-other)

    def __mul__(self, other: "RatZ") -> "RatZ":
        if self.is_zero or other.is_zero:
            return RZ_ZERO
        # cancelling crosswise keeps every gcd at a factor's degree; both
        # operands are reduced, so the products then share only constants
        n1, d2 = _cancel(self.num, other.den)
        n2, d1 = _cancel(other.num, self.den)
        return _primitive(zp_mul(n1, n2), zp_mul(d1, d2))

    def __truediv__(self, other: "RatZ") -> "RatZ":
        if other.is_zero:
            raise ZeroDivisionError("division by zero rational function")
        return ratz(zp_mul(self.num, other.den), zp_mul(self.den, other.num))

    def text(self) -> str:
        if self.den == ZP_ONE:
            return zp_text(self.num)
        return f"({zp_text(self.num)})/({zp_text(self.den)})"


def ratz(num: Iterable[int], den: Iterable[int] = (1,)) -> RatZ:
    n = zp_normal(num)
    d = zp_normal(den)
    if not d:
        raise ZeroDivisionError("zero denominator")
    if not n:
        return RatZ(ZP_ZERO, ZP_ONE)
    return _primitive(*_cancel(n, d))


def _cancel(n: ZPoly, d: ZPoly) -> Tuple[ZPoly, ZPoly]:
    """n and d divided by their gcd; a constant side shares only constants."""
    if len(n) > 1 and len(d) > 1:
        g = zp_gcd(n, d)
        if len(g) > 1:
            return zp_divexact(n, g), zp_divexact(d, g)
    return n, d


def _primitive(n: ZPoly, d: ZPoly) -> RatZ:
    """n/d with joint content 1 and a positive leading coefficient of d."""
    c = math.gcd(*n, *d)
    if d[-1] < 0:
        c = -c
    if c != 1:
        n = tuple(x // c for x in n)
        d = tuple(x // c for x in d)
    return RatZ(n, d)


RZ_ZERO = RatZ(ZP_ZERO, ZP_ONE)
RZ_ONE = RatZ(ZP_ONE, ZP_ONE)


# polynomials in w over Q(z), as ascending coefficient lists


def _clear_denominators(p: List[RatZ]) -> List[ZPoly]:
    """p times the product of its coefficients' distinct denominators: a
    polynomial in w over Z[z]."""
    dens = {c.den for c in p}
    if dens == {ZP_ONE}:
        return [c.num for c in p]
    mult = functools.reduce(zp_mul, dens)
    return [zp_mul(c.num, zp_divexact(mult, c.den)) for c in p]


def _w_primitive(p: List[ZPoly]) -> List[ZPoly]:
    """p divided by its content in Z[z], the gcd of its coefficients."""
    k = math.gcd(*(x for c in p for x in c))
    g = ZP_ZERO
    for c in p:
        if c:
            g = zp_gcd(g, c)
            if g == ZP_ONE:  # the gcd of a primitive 1 with anything is 1
                break
    if k != 1:
        p = [tuple(x // k for x in c) for c in p]
    return p if g == ZP_ONE else [zp_divexact(c, g) for c in p]


def _coprime_at_a_point(a: List[ZPoly], b: List[ZPoly]) -> bool:
    """True when a and b, polynomials in w over Z[z], are coprime over Q
    once z is set to the first integer z0 >= 0 where neither leading
    coefficient vanishes.  A common factor of positive degree in w keeps its
    degree at such a z0, so True proves a and b coprime over Q(z); False
    proves nothing."""
    for z0 in range(len(a[-1]) + len(b[-1]) - 1):  # more points than roots of both leads
        a0 = tuple(zp_eval(c, z0) for c in a)
        b0 = tuple(zp_eval(c, z0) for c in b)
        if a0[-1] and b0[-1]:
            return len(zp_gcd(a0, b0)) == 1
    return False


def wpoly_gcd_degree(a: List[RatZ], b: List[RatZ]) -> int:
    """Degree in w of gcd(a, b) over the field of rational functions in z;
    a and b have no trailing zeros."""
    a_int, b_int = _clear_denominators(a), _clear_denominators(b)
    if _coprime_at_a_point(a_int, b_int):
        return 0
    g = prs_last(_w_primitive(a_int), _w_primitive(b_int), zp_mul, zp_sub, _w_primitive)
    return len(g) - 1
