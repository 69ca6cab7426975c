"""Parser and printer for the textual equation DSL.

An equation is `P = Q`, `P = (Q)/(U)`, or `(U)*(P) = Q`, where each side is
built from `w`, shifted variables `w(z+c)` (c a nonzero rational/decimal
literal, optionally complex like `2+i` or `1/2*i`), symbolic coefficients
(identifiers, optional `!=0` side condition), brace-delimited rational
functions of z like `{(z^2+1)/(z-2)}`, products, powers, and parenthesized
sub-polynomials.  Division appears only once, at the top level of the
right-hand side.

An equation is either symbolic (identifier coefficients) or numeric (braced
coefficients); mixing the two is rejected.  `w`, `z` and `i` are reserved
words.  Parsing is total: any input yields an equation or a `ParseError`.
"""

from __future__ import annotations

import enum
import functools
import math
from fractions import Fraction
from typing import Dict, List, NamedTuple, Optional, Tuple

from .diffpoly import (
    DiffPolynomial,
    Shift,
    SymbolicCoeff,
    constant_poly,
    normalize,
)
from .zfield import (
    RZ_ONE,
    RZ_ZERO,
    RatZ,
    ZP_ONE,
    ZP_ZERO,
    ZPoly,
    prs_last,
    ratz,
    zp_add,
    zp_divexact,
    zp_gcd,
    zp_mul,
    zp_neg,
    zp_normal,
    zp_pow,
    zp_sub,
)

RESERVED = {"w", "z", "i"}


class ParseError(Exception):
    """Base class for every error the parser can raise."""


class EquationSyntaxError(ParseError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class ZeroShift(ParseError):
    """`w(z+0)` is not a shift; shifts must be nonzero."""


class MixedMode(ParseError):
    """Symbolic and numeric coefficients mixed in one equation."""


class ShiftInUQ(ParseError):
    """The numerator or denominator mentions a shifted variable."""


class DegenerateEquation(ParseError):
    """The numerator or denominator is identically zero."""


class DuplicateSymbolName(ParseError):
    """A symbolic coefficient name is used more than once."""


class CommonFactor(Exception):
    """Numerator and denominator share a nonconstant factor in w."""


class Coprimality(enum.Enum):
    VERIFIED = "verified"
    ASSERTED = "asserted"
    UNCHECKED = "unchecked"


class ClunieEquation(NamedTuple):
    """A validated triple: denominator * lhs = numerator.

    All three polynomials share one shift list; numerator and denominator
    involve only the unshifted variable.  Coefficients are small functions of
    any solution by convention (`small_coefficients`); the DSL records this
    as metadata rather than expressing it.
    """

    lhs: DiffPolynomial
    numerator: DiffPolynomial
    denominator: DiffPolynomial
    coprimality: Coprimality = Coprimality.UNCHECKED
    note: Optional[str] = None
    small_coefficients: bool = True

    @property
    def shifts(self) -> Tuple[Shift, ...]:
        return self.lhs.shifts

    @property
    def is_symbolic(self) -> bool:
        return (
            self.lhs.is_symbolic
            or self.numerator.is_symbolic
            or self.denominator.is_symbolic
        )


# ---------------------------------------------------------------------------
# tokenizer


class _Tok(NamedTuple):
    kind: str  # IDENT NUMBER OP NEQZERO END
    text: str
    pos: int


_OPS = set("+-*/^(){}=")


def _tokenize(text: str) -> List[_Tok]:
    toks: List[_Tok] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(_Tok("IDENT", text[i:j], i))
            i = j
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            if j < n and text[j] == "." and j + 1 < n and text[j + 1].isdigit():
                j += 1
                while j < n and text[j].isdigit():
                    j += 1
            toks.append(_Tok("NUMBER", text[i:j], i))
            i = j
            continue
        if ch == "!":
            if text[i : i + 3] == "!=0":
                toks.append(_Tok("NEQZERO", "!=0", i))
                i += 3
                continue
            raise EquationSyntaxError("expected '!=0'", i)
        if ch in _OPS:
            toks.append(_Tok("OP", ch, i))
            i += 1
            continue
        raise EquationSyntaxError(f"unexpected character {ch!r}", i)
    toks.append(_Tok("END", "", n))
    return toks


# ---------------------------------------------------------------------------
# raw parse structures (pre-expansion)


class _RawTerm:
    __slots__ = ("sign", "symbol", "numeric", "saw_numeric", "exps", "groups")

    def __init__(self, sign: int = 1):
        self.sign = sign
        self.symbol: Optional[Tuple[str, bool, int]] = None  # name, nonzero flag, position
        self.numeric: RatZ = RZ_ONE
        self.saw_numeric = False
        self.exps: Dict[int, int] = {}  # slot -> exponent
        self.groups: List[Tuple[_RawPoly, int]] = []


class _RawPoly:
    __slots__ = ("terms",)

    def __init__(self):
        self.terms: List[_RawTerm] = []


class _Ctx:
    __slots__ = ("shift_slots", "shift_order", "symbolic_pos", "numeric_pos")

    def __init__(self):
        self.shift_slots: Dict[Tuple[Fraction, Fraction], int] = {}
        self.shift_order: List[Tuple[Fraction, Fraction]] = []
        self.symbolic_pos: Optional[int] = None
        self.numeric_pos: Optional[int] = None

    def slot_for(self, re: Fraction, im: Fraction) -> int:
        key = (re, im)
        if key not in self.shift_slots:
            self.shift_slots[key] = len(self.shift_order) + 1
            self.shift_order.append(key)
        return self.shift_slots[key]


class _Parser:
    def __init__(self, text: str, ctx: _Ctx):
        self.toks = _tokenize(text)
        self.k = 0
        self.ctx = ctx

    # --- token helpers

    def peek(self, ahead: int = 0) -> _Tok:
        return self.toks[min(self.k + ahead, len(self.toks) - 1)]

    def take(self) -> _Tok:
        t = self.toks[self.k]
        if t.kind != "END":
            self.k += 1
        return t

    def expect_op(self, ch: str) -> _Tok:
        t = self.take()
        if t.kind != "OP" or t.text != ch:
            raise EquationSyntaxError(f"expected {ch!r}", t.pos)
        return t

    def at_op(self, ch: str) -> bool:
        t = self.peek()
        return t.kind == "OP" and t.text == ch

    # --- numbers and shift literals

    def _number_fraction(self) -> Fraction:
        t = self.take()
        if t.kind != "NUMBER":
            raise EquationSyntaxError("expected a number", t.pos)
        val = Fraction(t.text)
        if self.at_op("/") and self.peek(1).kind == "NUMBER":
            self.take()
            den = self.take()
            if "." in den.text:
                raise EquationSyntaxError("rational literal wants integers", den.pos)
            if int(den.text) == 0:
                raise EquationSyntaxError("zero denominator in literal", den.pos)
            val = val / Fraction(den.text)
        return val

    def _imag_unit(self) -> bool:
        t = self.peek()
        return t.kind == "IDENT" and t.text == "i"

    def _shift_literal(self, sign: int) -> Tuple[Fraction, Fraction]:
        # after the mandatory sign inside "w(z...)"
        if self._imag_unit():
            self.take()
            return Fraction(0), Fraction(sign)
        mag = self._number_fraction()
        if self.at_op("*") and self.peek(1).kind == "IDENT" and self.peek(1).text == "i":
            self.take()
            self.take()
            return Fraction(0), sign * mag
        if self._imag_unit():
            self.take()
            return Fraction(0), sign * mag
        re = sign * mag
        if self.at_op("+") or self.at_op("-"):
            sign2 = 1 if self.take().text == "+" else -1
            if self._imag_unit():
                self.take()
                return re, Fraction(sign2)
            mag2 = self._number_fraction()
            if self.at_op("*"):
                self.take()
            t = self.take()
            if t.kind != "IDENT" or t.text != "i":
                raise EquationSyntaxError("expected imaginary unit 'i'", t.pos)
            return re, sign2 * mag2
        return re, Fraction(0)

    # --- braced rational functions of z

    def _zatom(self) -> Tuple[int, ...]:
        t = self.take()
        if t.kind == "IDENT" and t.text == "z":
            return (0, 1)
        if t.kind == "NUMBER":
            if "." in t.text:
                raise EquationSyntaxError("integer coefficients only in braces", t.pos)
            return zp_normal((int(t.text),))
        if t.kind == "OP" and t.text == "(":
            inner = self._zexpr()
            self.expect_op(")")
            return inner
        raise EquationSyntaxError("expected z, an integer, or '('", t.pos)

    def _zfactor(self) -> Tuple[int, ...]:
        base = self._zatom()
        if self.at_op("^"):
            self.take()
            t = self.take()
            if t.kind != "NUMBER" or "." in t.text:
                raise EquationSyntaxError("expected a natural-number power", t.pos)
            return zp_pow(base, int(t.text))
        return base

    def _zterm(self) -> Tuple[int, ...]:
        acc = self._zfactor()
        while self.at_op("*"):
            self.take()
            acc = zp_mul(acc, self._zfactor())
        return acc

    def _zexpr(self) -> Tuple[int, ...]:
        sign = 1
        if self.at_op("+") or self.at_op("-"):
            sign = 1 if self.take().text == "+" else -1
        acc = self._zterm()
        if sign < 0:
            acc = zp_neg(acc)
        while self.at_op("+") or self.at_op("-"):
            s = 1 if self.take().text == "+" else -1
            t = self._zterm()
            acc = zp_add(acc, t if s > 0 else zp_neg(t))
        return acc

    def _braced_ratfun(self) -> RatZ:
        open_tok = self.expect_op("{")
        num = self._zexpr()
        den: Tuple[int, ...] = ZP_ONE
        if self.at_op("/"):
            self.take()
            den = self._zexpr()
        close = self.take()
        if close.kind != "OP" or close.text != "}":
            raise EquationSyntaxError("expected '}'", close.pos)
        if not zp_normal(den):
            raise EquationSyntaxError("zero denominator in coefficient", open_tok.pos)
        return ratz(num, den)

    # --- polynomial layer

    def parse_poly(self) -> _RawPoly:
        poly = _RawPoly()
        sign = 1
        if self.at_op("+") or self.at_op("-"):
            sign = 1 if self.take().text == "+" else -1
        poly.terms.append(self._term(sign))
        while self.at_op("+") or self.at_op("-"):
            s = 1 if self.take().text == "+" else -1
            poly.terms.append(self._term(s))
        return poly

    def _term(self, sign: int) -> _RawTerm:
        term = _RawTerm(sign=sign)
        self._factor(term)
        while self.at_op("*"):
            self.take()
            self._factor(term)
        return term

    def _factor(self, term: _RawTerm) -> None:
        t = self.peek()
        if t.kind == "IDENT" and t.text == "w":
            self.take()
            slot = 0
            if self.at_op("("):
                slot = self._shift_suffix()
            power = self._power_suffix()
            term.exps[slot] = term.exps.get(slot, 0) + power
            return
        if t.kind == "IDENT":
            if t.text in RESERVED:
                raise EquationSyntaxError(f"{t.text!r} is reserved", t.pos)
            self.take()
            nonzero = False
            if self.peek().kind == "NEQZERO":
                self.take()
                nonzero = True
            if self.at_op("^"):
                raise EquationSyntaxError("symbolic coefficients cannot be powered", t.pos)
            if term.symbol is not None:
                raise EquationSyntaxError("at most one symbolic coefficient per term", t.pos)
            term.symbol = (t.text, nonzero, t.pos)
            if self.ctx.symbolic_pos is None:
                self.ctx.symbolic_pos = t.pos
            return
        if t.kind == "OP" and t.text == "{":
            coeff = self._braced_ratfun()
            if self.ctx.numeric_pos is None:
                self.ctx.numeric_pos = t.pos
            power = self._power_suffix()
            for _ in range(power):
                term.numeric = term.numeric * coeff
            term.saw_numeric = True
            return
        if t.kind == "OP" and t.text == "(":
            self.take()
            inner = self.parse_poly()
            self.expect_op(")")
            power = self._power_suffix()
            term.groups.append((inner, power))
            return
        if t.kind == "NUMBER":
            raise EquationSyntaxError("bare numbers are not atoms; write {n}", t.pos)
        raise EquationSyntaxError("expected a factor", t.pos)

    def _shift_suffix(self) -> int:
        open_tok = self.expect_op("(")
        t = self.take()
        if t.kind != "IDENT" or t.text != "z":
            raise EquationSyntaxError("expected 'z' in shift", t.pos)
        t = self.take()
        if t.kind != "OP" or t.text not in "+-":
            raise EquationSyntaxError("expected '+' or '-' after 'z'", t.pos)
        re, im = self._shift_literal(1 if t.text == "+" else -1)
        self.expect_op(")")
        if re == 0 and im == 0:
            raise ZeroShift("shift w(z+0) is not allowed; shifts must be nonzero")
        del open_tok
        return self.ctx.slot_for(re, im)

    def _power_suffix(self) -> int:
        if not self.at_op("^"):
            return 1
        self.take()
        t = self.take()
        if t.kind != "NUMBER" or "." in t.text:
            raise EquationSyntaxError("expected a natural-number power", t.pos)
        return int(t.text)


# ---------------------------------------------------------------------------
# expansion of raw terms into flat (coefficient, exponent-map) lists


def _flat_mul(a: List[Tuple[int, Optional[Tuple[str, bool, int]], RatZ, Dict[int, int]]],
              b: List[Tuple[int, Optional[Tuple[str, bool, int]], RatZ, Dict[int, int]]]):
    out = []
    for sa, syma, numa, expa in a:
        for sb, symb, numb, expb in b:
            if syma is not None and symb is not None:
                raise EquationSyntaxError(
                    "product of two symbolic coefficients in one term", symb[2]
                )
            sym = syma if syma is not None else symb
            exps = dict(expa)
            for slot, e in expb.items():
                exps[slot] = exps.get(slot, 0) + e
            out.append((sa * sb, sym, numa * numb, exps))
    return out


def _expand(poly: _RawPoly):
    flat = []
    for term in poly.terms:
        acc = [(term.sign, term.symbol, term.numeric, dict(term.exps))]
        for group, power in term.groups:
            gflat = _expand(group)
            for _ in range(power):
                acc = _flat_mul(acc, gflat)
        flat.extend(acc)
    return flat


def _materialize(flat, shifts: Tuple[Shift, ...]) -> DiffPolynomial:
    width = 1 + len(shifts)
    terms = []
    for sign, sym, num, exps in flat:
        idx = tuple(exps.get(slot, 0) for slot in range(width))
        if sym is not None:
            if not num.is_one:
                raise MixedMode("symbolic term carries a numeric factor")
            name, nonzero, _ = sym
            coeff: object = SymbolicCoeff(name, nonzero=nonzero, negated=sign < 0)
        else:
            coeff = num if sign > 0 else -num
        terms.append((coeff, idx))
    return normalize(shifts, terms)


def _collect_symbols(flat, registry: Dict[str, int]) -> None:
    for _, sym, _, _ in flat:
        if sym is None:
            continue
        name, _, pos = sym
        if name in registry:
            raise DuplicateSymbolName(
                f"coefficient name {name!r} is used more than once"
            )
        registry[name] = pos


def _canonical_shift_order(shifts: Tuple[Shift, ...]) -> Tuple[int, ...]:
    # Slot numbering must not depend on textual appearance order, or the
    # printed form would not reparse to the same structure; shifts are
    # numbered by value, largest (re, im) first.
    return tuple(
        sorted(range(len(shifts)), key=lambda k: (shifts[k].re, shifts[k].im), reverse=True)
    )


def _renumber(poly: DiffPolynomial, order: Tuple[int, ...], shifts: Tuple[Shift, ...]) -> DiffPolynomial:
    new_shifts = tuple(
        Shift(shifts[old].re, shifts[old].im, index=new + 1)
        for new, old in enumerate(order)
    )
    remap = {old: new for new, old in enumerate(order)}
    terms = []
    for coeff, idx in poly.terms:
        new_idx = [idx[0]] + [0] * len(shifts)
        for old_slot in range(1, len(idx)):
            new_idx[1 + remap[old_slot - 1]] = idx[old_slot]
        terms.append((coeff, tuple(new_idx)))
    return normalize(new_shifts, terms)


# ---------------------------------------------------------------------------
# public entry points


def _split_direct_product(poly: _RawPoly) -> Optional[Tuple[_RawPoly, _RawPoly]]:
    # Accept `(U)*(P) = Q` when the left side is exactly two parenthesized
    # groups and the first expands to a w-only polynomial.
    if len(poly.terms) != 1:
        return None
    term = poly.terms[0]
    if term.sign != 1 or term.symbol or term.saw_numeric or term.exps:
        return None
    if len(term.groups) != 2:
        return None
    (g1, p1), (g2, p2) = term.groups
    if p1 != 1 or p2 != 1:
        return None
    first_flat = _expand(g1)
    if any(any(slot != 0 for slot in exps) for _, _, _, exps in first_flat):
        return None
    return g1, g2


def parse_equation(text: str) -> ClunieEquation:
    """Parse one equation; shifts are numbered in order of first appearance."""
    ctx = _Ctx()
    parser = _Parser(text, ctx)
    lhs_raw = parser.parse_poly()
    parser.expect_op("=")

    rhs_raw = parser.parse_poly()
    den_raw: Optional[_RawPoly] = None
    if parser.at_op("/"):
        slash = parser.take()
        bare_group = (
            len(rhs_raw.terms) == 1
            and rhs_raw.terms[0].sign == 1
            and rhs_raw.terms[0].symbol is None
            and not rhs_raw.terms[0].saw_numeric
            and not rhs_raw.terms[0].exps
            and len(rhs_raw.terms[0].groups) == 1
            and rhs_raw.terms[0].groups[0][1] == 1
        )
        if not bare_group:
            raise EquationSyntaxError("division must be (poly)/(poly)", slash.pos)
        rhs_raw = rhs_raw.terms[0].groups[0][0]
        parser.expect_op("(")
        den_raw = parser.parse_poly()
        parser.expect_op(")")
    trailing = parser.peek()
    if trailing.kind != "END":
        raise EquationSyntaxError("unexpected trailing input", trailing.pos)

    if den_raw is None:
        split = _split_direct_product(lhs_raw)
        if split is not None:
            den_raw, lhs_raw = split

    lhs_flat = _expand(lhs_raw)
    num_flat = _expand(rhs_raw)
    den_flat = _expand(den_raw) if den_raw is not None else None

    if ctx.symbolic_pos is not None and ctx.numeric_pos is not None:
        raise MixedMode(
            "symbolic and numeric coefficients in one equation "
            f"(positions {ctx.symbolic_pos} and {ctx.numeric_pos})"
        )

    registry: Dict[str, int] = {}
    for flat in (lhs_flat, num_flat) + ((den_flat,) if den_flat is not None else ()):
        _collect_symbols(flat, registry)

    shifts = tuple(
        Shift(re, im, index=k + 1) for k, (re, im) in enumerate(ctx.shift_order)
    )
    order = _canonical_shift_order(shifts)
    lhs = _renumber(_materialize(lhs_flat, shifts), order, shifts)
    numerator = _renumber(_materialize(num_flat, shifts), order, shifts)
    denominator = _renumber(
        _materialize(den_flat, shifts)
        if den_flat is not None
        else constant_poly(RZ_ONE, shifts),
        order,
        shifts,
    )

    if not numerator.is_plain() or not denominator.is_plain():
        raise ShiftInUQ("numerator and denominator must involve only w(z)")
    if numerator.is_empty:
        raise DegenerateEquation("numerator vanishes identically")
    if denominator.is_empty:
        raise DegenerateEquation("denominator vanishes identically")
    return ClunieEquation(lhs=lhs, numerator=numerator, denominator=denominator)


def parse_polynomial(text: str) -> DiffPolynomial:
    """Parse a lone difference polynomial (no '=')."""
    ctx = _Ctx()
    parser = _Parser(text, ctx)
    raw = parser.parse_poly()
    trailing = parser.peek()
    if trailing.kind != "END":
        raise EquationSyntaxError("unexpected trailing input", trailing.pos)
    flat = _expand(raw)
    shifts = tuple(
        Shift(re, im, index=k + 1) for k, (re, im) in enumerate(ctx.shift_order)
    )
    order = _canonical_shift_order(shifts)
    return _renumber(_materialize(flat, shifts), order, shifts)


def validate_no_common_factors(eq: ClunieEquation) -> ClunieEquation:
    """Verify gcd_w(denominator, numerator) is constant, or record a caveat.

    Numeric equations get an exact gcd over the rational-function field in z;
    symbolic equations cannot be decided and are marked Asserted.
    """
    if eq.denominator.is_symbolic or eq.numerator.is_symbolic:
        return eq._replace(
            coprimality=Coprimality.ASSERTED,
            note="symbolic coefficients: coprimality asserted, not computed",
        )
    u = _plain_coeff_list(eq.denominator)
    q = _plain_coeff_list(eq.numerator)
    g_deg = _wpoly_gcd_degree(u, q)
    if g_deg > 0:
        raise CommonFactor(
            f"numerator and denominator share a factor of degree {g_deg} in w"
        )
    return eq._replace(coprimality=Coprimality.VERIFIED, note=None)


def _plain_coeff_list(p: DiffPolynomial) -> List[RatZ]:
    deg = max(idx[0] for _, idx in p.terms)
    out = [RZ_ZERO] * (deg + 1)
    for coeff, idx in p.terms:
        out[idx[0]] = coeff
    return out


def _clear_denominators(p: List[RatZ]) -> List[ZPoly]:
    """p times the product of its coefficients' distinct denominators: a
    polynomial in w over Z[z]."""
    mult = functools.reduce(zp_mul, {c.den for c in p})
    return [zp_mul(c.num, zp_divexact(mult, c.den)) for c in p]


def _w_primitive(p: List[ZPoly]) -> List[ZPoly]:
    """p divided by its content in Z[z], the gcd of its coefficients."""
    k = math.gcd(*(x for c in p for x in c))
    g = functools.reduce(zp_gcd, (c for c in p if c), ZP_ZERO)
    return [zp_divexact(tuple(x // k for x in c), g) for c in p]


def _wpoly_gcd_degree(a: List[RatZ], b: List[RatZ]) -> int:
    """Degree in w of gcd(a, b) over the field of rational functions in z;
    a and b have no trailing zeros."""
    g = prs_last(
        _w_primitive(_clear_denominators(a)),
        _w_primitive(_clear_denominators(b)),
        zp_mul,
        zp_sub,
        _w_primitive,
    )
    return len(g) - 1


# ---------------------------------------------------------------------------
# parse helpers for the model mini-language of `charfn`


def parse_shift_constant(text: str) -> Tuple[Fraction, Fraction]:
    """(re, im) of a shift literal such as `1`, `i`, `2+i` or `1/3-2/5*i`."""
    parser = _Parser("w(z+" + text + ")", _Ctx())
    parser.take()
    parser._shift_suffix()
    if parser.peek().kind != "END":
        raise ValueError(f"trailing input in shift constant {text!r}")
    return parser.ctx.shift_order[0]


def parse_zpoly(text: str) -> ZPoly:
    """An integer polynomial in z written as inside braces, e.g. `z^2-1`."""
    parser = _Parser("{" + text + "}", _Ctx())
    rf = parser._braced_ratfun()
    if parser.peek().kind != "END":
        raise ValueError(f"trailing input in polynomial {text!r}")
    if rf.den != ZP_ONE:
        raise ValueError("exponent polynomial cannot have a denominator")
    return rf.num


def parse_braced_quotient(text: str) -> Tuple[ZPoly, ZPoly]:
    """Numerator and denominator of `{a}` or `{a}/{b}`, b a polynomial in z.

    a's own denominator multiplies b; nothing is cancelled.
    """
    parser = _Parser(text, _Ctx())
    num = parser._braced_ratfun()
    den = ZP_ONE
    if parser.at_op("/"):
        parser.take()
        rf = parser._braced_ratfun()
        if rf.den != ZP_ONE:
            raise ValueError("nested denominators in rational spec")
        den = rf.num
    if parser.peek().kind != "END":
        raise ValueError(f"trailing input in rational spec {text!r}")
    return num.num, zp_mul(den, num.den)


# ---------------------------------------------------------------------------
# canonical printing


def _frac_text(f: Fraction) -> str:
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"


def shift_text(s: Shift) -> str:
    re, im = s.re, s.im
    parts = []
    if re != 0:
        parts.append(("+" if re > 0 else "-") + _frac_text(abs(re)))
    if im != 0:
        mag = abs(im)
        body = "i" if mag == 1 else f"{_frac_text(mag)}*i"
        parts.append(("+" if im > 0 else "-") + body)
    return f"w(z{''.join(parts)})"


def _var_text(idx, shifts: Tuple[Shift, ...]) -> List[str]:
    out = []
    for slot, e in enumerate(idx):
        if e == 0:
            continue
        base = "w" if slot == 0 else shift_text(shifts[slot - 1])
        out.append(base if e == 1 else f"{base}^{e}")
    return out


def _term_text(coeff, idx, shifts) -> Tuple[str, str]:
    # returns (sign, body)
    vars_ = _var_text(idx, shifts)
    if isinstance(coeff, SymbolicCoeff):
        sign = "-" if coeff.negated else "+"
        name = coeff.name + ("!=0" if coeff.nonzero else "")
        return sign, "*".join([name] + vars_)
    neg = coeff.num[-1] < 0 if coeff.num else False
    mag = -coeff if neg else coeff
    sign = "-" if neg else "+"
    if mag.is_one and vars_:
        return sign, "*".join(vars_)
    return sign, "*".join(["{" + mag.text() + "}"] + vars_)


def poly_text(p: DiffPolynomial) -> str:
    if p.is_empty:
        return "{0}"
    pieces = []
    for k, (coeff, idx) in enumerate(p.terms):
        sign, body = _term_text(coeff, idx, p.shifts)
        if k == 0:
            pieces.append(body if sign == "+" else "-" + body)
        else:
            pieces.append(sign + body)
    return "".join(pieces)


def to_canonical_text(eq: ClunieEquation) -> str:
    """Render so that parsing the result reproduces the equation exactly."""
    u = eq.denominator
    is_one = (
        len(u.terms) == 1
        and not isinstance(u.terms[0][0], SymbolicCoeff)
        and u.terms[0][0].is_one
        and all(e == 0 for e in u.terms[0][1])
    )
    left = poly_text(eq.lhs)
    if is_one:
        return f"{left} = {poly_text(eq.numerator)}"
    return f"{left} = ({poly_text(eq.numerator)})/({poly_text(eq.denominator)})"
