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
import re
from fractions import Fraction
from typing import Dict, List, NamedTuple, Optional, Tuple

from . import Refused, Rejected, diffpoly
from .diffpoly import (
    DiffPolynomial,
    Shift,
    SymbolicCoeff,
    normalize,
    shift_key,
)
from .zfield import (
    RZ_ONE,
    RZ_ZERO,
    RatZ,
    ZP_ONE,
    ZP_ZERO,
    ZPoly,
    ratz,
    wpoly_gcd_degree,
    zp_add,
    zp_mul,
    zp_neg,
    zp_pow,
    zp_sub,
)

RESERVED = {"w", "z", "i"}


class ParseError(Refused):
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


class SymbolicDuplicate(ParseError, diffpoly.SymbolicDuplicate):
    """Two symbolic terms share a multi-index, named in the order the shifts
    appear in the text."""


class CommonFactor(Rejected):
    """Numerator and denominator share a nonconstant factor in w."""


class Coprimality(enum.Enum):
    VERIFIED = "verified"
    ASSERTED = "asserted"
    UNCHECKED = "unchecked"


class ClunieEquation(NamedTuple):
    """A validated triple: denominator * lhs = numerator.

    All three polynomials share one shift list; numerator and denominator
    involve only the unshifted variable.  Coefficients are small functions of
    any solution by convention, which the DSL does not express.
    """

    lhs: DiffPolynomial
    numerator: DiffPolynomial
    denominator: DiffPolynomial
    coprimality: Coprimality = Coprimality.UNCHECKED


# ---------------------------------------------------------------------------
# tokenizer


class _Tok(NamedTuple):
    kind: str  # IDENT NUMBER OP NEQZERO END
    text: str
    pos: int


_OPS = frozenset("+-*/^(){}=")
_SIGNS = {"+": 1, "-": -1}
# For str patterns `\w` is exactly `isalnum() or "_"` and `\d` exactly
# `isdecimal()`, the digits that int() and Fraction() read.
_WORD_REST = re.compile(r"\w*")
_NUMBER = re.compile(r"\d+(?:\.\d+)?")
_new_tok = tuple.__new__  # skips the NamedTuple's Python-level __new__


def _tokenize(text: str) -> Tuple[List[_Tok], List[str]]:
    """The tokens, and beside them each token's operator character ('' when
    the token is not an operator), so that an operator test is one index."""
    toks: List[_Tok] = []
    ops: List[str] = []
    tok, op = toks.append, ops.append
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch in _OPS:
            tok(_new_tok(_Tok, ("OP", ch, i)))
            op(ch)
            i += 1
            continue
        if ch.isspace():
            i += 1
            continue
        if ch.isalpha() or ch == "_":
            j = _WORD_REST.match(text, i + 1).end()
            tok(_new_tok(_Tok, ("IDENT", text[i:j], i)))
        elif ch.isdecimal():
            j = _NUMBER.match(text, i).end()
            tok(_new_tok(_Tok, ("NUMBER", text[i:j], i)))
        elif ch == "!":
            if text[i : i + 3] != "!=0":
                raise EquationSyntaxError("expected '!=0'", i)
            j = i + 3
            tok(_new_tok(_Tok, ("NEQZERO", "!=0", i)))
        else:
            raise EquationSyntaxError(f"unexpected character {ch!r}", i)
        op("")
        i = j
    tok(_new_tok(_Tok, ("END", "", n)))
    op("")
    return toks, ops


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
        self.groups: List[Tuple[List[_RawTerm], int, int]] = []  # group, power, position


class _Ctx:
    __slots__ = ("shift_slots", "shift_order", "symbolic_pos", "numeric_pos")

    def __init__(self):
        self.shift_slots: Dict[Tuple[int, int, int, int], int] = {}  # by shift_key
        self.shift_order: List[Tuple[Fraction, Fraction]] = []
        self.symbolic_pos: Optional[int] = None
        self.numeric_pos: Optional[int] = None

    def slot_for(self, re: Fraction, im: Fraction) -> int:
        key = shift_key(re, im)
        slot = self.shift_slots.get(key)
        if slot is None:
            slot = self.shift_slots[key] = len(self.shift_order) + 1
            self.shift_order.append((re, im))
        return slot


# The largest exponent, and the largest degree in z, that a coefficient in
# braces may reach; the parser refuses a larger one before computing it.  The
# gcd that reduces a braced quotient grows about as the cube of the degree:
# {(z+1)^256/(z+2)^256} takes 0.13 s, {(z+1)^1000/(z+2)^1000} took 14 s.
Z_DEGREE_CAP = 256
# The largest group power, and the largest degree in w of a term, that the
# parser expands.  The w-gcd of the coprimality check grows about as the square
# of the degree: (w^3000+{1})/(w+{2}) takes 0.4 s, (w^30000+{1})/(w+{2}) 19 s.
W_DEGREE_CAP = 256
# The most term products that expanding the groups of one term may make:
# (w+{1})^180 makes 32580 of them in about 0.4 s.
EXPANSION_CAP = 2**15
# The deepest nesting of parentheses, and of `shift:` wrappers in a model spec:
# a deeper one is refused before it recurses into Python's recursion limit.
NESTING_CAP = 100


def _int(t: _Tok) -> int:
    try:
        return int(t.text)
    except ValueError:  # more digits than int() converts
        raise EquationSyntaxError("number too long", t.pos) from None


def _fraction(t: _Tok) -> Fraction:
    if "." not in t.text:
        return Fraction(_int(t))
    try:
        return Fraction(t.text)
    except ValueError:
        raise EquationSyntaxError("number too long", t.pos) from None


def _z_degree(r: RatZ) -> int:
    return max(len(r.num), len(r.den)) - 1


def _check_z_degree(degree: int, pos: int) -> None:
    if degree > Z_DEGREE_CAP:
        raise EquationSyntaxError(
            f"coefficient of degree {degree} in z exceeds {Z_DEGREE_CAP}", pos
        )


def _check_w_degree(degree: int, pos: int) -> None:
    if degree > W_DEGREE_CAP:
        raise EquationSyntaxError(f"term of degree {degree} in w exceeds {W_DEGREE_CAP}", pos)


def _check_z_power(degree: int, power: int, pos: int) -> None:
    """Refuse the `power` of a coefficient of `degree` in z past the cap."""
    if power > Z_DEGREE_CAP:
        raise EquationSyntaxError(f"power {power} in a coefficient exceeds {Z_DEGREE_CAP}", pos)
    _check_z_degree(degree * power, pos)


class _Parser:
    def __init__(self, text: str, ctx: _Ctx):
        self.toks, self.ops = _tokenize(text)
        self.k = 0
        self.last = len(self.toks) - 1  # the END token, which is never passed
        self.ctx = ctx
        self.depth = 0  # open parentheses around the current token

    # --- token helpers

    def peek(self, ahead: int = 0) -> _Tok:
        return self.toks[min(self.k + ahead, self.last)]

    def take(self) -> _Tok:
        k = self.k
        if k < self.last:
            self.k = k + 1
        return self.toks[k]

    def expect_op(self, ch: str) -> _Tok:
        k = self.k
        if self.ops[k] != ch:
            raise EquationSyntaxError(f"expected {ch!r}", self.toks[k].pos)
        self.k = k + 1
        return self.toks[k]

    def at_op(self, ch: str) -> bool:
        return self.ops[self.k] == ch

    def open_paren(self, pos: int) -> None:
        """Enter a group whose '(' is at `pos`, refusing one past the cap."""
        self.depth += 1
        if self.depth > NESTING_CAP:
            raise EquationSyntaxError(f"parentheses nested deeper than {NESTING_CAP}", pos)

    def take_sign(self) -> int:
        """1 or -1 for a '+' or '-' taken here, 0 when there is none."""
        sign = _SIGNS.get(self.ops[self.k], 0)
        if sign:
            self.k += 1
        return sign

    # --- numbers and shift literals

    def _number_fraction(self) -> Fraction:
        t = self.take()
        if t.kind != "NUMBER":
            raise EquationSyntaxError("expected a number", t.pos)
        val = _fraction(t)
        if self.ops[self.k] == "/" and self.peek(1).kind == "NUMBER":
            self.k += 1
            den = self.take()
            if "." in den.text:
                raise EquationSyntaxError("rational literal wants integers", den.pos)
            d = _int(den)
            if d == 0:
                raise EquationSyntaxError("zero denominator in literal", den.pos)
            val = val / d
        return val

    def _imag_unit(self) -> bool:
        t = self.toks[self.k]
        return t.kind == "IDENT" and t.text == "i"

    def _shift_literal(self, sign: int) -> Tuple[Fraction, Fraction]:
        # after the sign of its first part: the mandatory one inside "w(z...)",
        # or the optional one of a shift constant
        if self._imag_unit():
            self.k += 1
            return Fraction(0), Fraction(sign)
        mag = self._number_fraction()
        if self.ops[self.k] == "*" and self.peek(1).kind == "IDENT" and self.peek(1).text == "i":
            self.k += 2
            return Fraction(0), sign * mag
        if self._imag_unit():
            self.k += 1
            return Fraction(0), sign * mag
        re = sign * mag
        sign2 = self.take_sign()
        if sign2:
            if self._imag_unit():
                self.k += 1
                return re, Fraction(sign2)
            mag2 = self._number_fraction()
            if self.ops[self.k] == "*":
                self.k += 1
            t = self.take()
            if t.kind != "IDENT" or t.text != "i":
                raise EquationSyntaxError("expected imaginary unit 'i'", t.pos)
            return re, sign2 * mag2
        return re, Fraction(0)

    # --- braced rational functions of z

    def _zfactor(self) -> ZPoly:
        t = self.take()
        if t.text == "z" and t.kind == "IDENT":
            base: ZPoly = (0, 1)
        elif t.kind == "NUMBER":
            if "." in t.text:
                raise EquationSyntaxError("integer coefficients only in braces", t.pos)
            c = _int(t)
            base = (c,) if c else ZP_ZERO
        elif t.text == "(":
            self.open_paren(t.pos)
            base = self._zexpr()
            self.expect_op(")")
            self.depth -= 1
        else:
            raise EquationSyntaxError("expected z, an integer, or '('", t.pos)
        power, pos = self._power_suffix()
        if power == 1:
            return base
        _check_z_power(len(base) - 1, power, pos)
        return zp_pow(base, power)

    def _zterm(self) -> ZPoly:
        acc = self._zfactor()
        while self.ops[self.k] == "*":
            self.k += 1
            pos = self.toks[self.k].pos
            factor = self._zfactor()
            _check_z_degree(len(acc) + len(factor) - 2, pos)
            acc = zp_mul(acc, factor)
        return acc

    def _zexpr(self) -> ZPoly:
        sign = self.take_sign()
        acc = self._zterm()
        if sign < 0:
            acc = zp_neg(acc)
        while True:
            s = self.take_sign()
            if not s:
                return acc
            t = self._zterm()
            acc = zp_add(acc, t) if s > 0 else zp_sub(acc, t)

    def _braced_ratfun(self) -> RatZ:
        open_tok = self.expect_op("{")
        num = self._zexpr()
        den: ZPoly = ZP_ONE
        if self.ops[self.k] == "/":
            self.k += 1
            den = self._zexpr()
        close = self.take()
        if close.kind != "OP" or close.text != "}":
            raise EquationSyntaxError("expected '}'", close.pos)
        if not den:
            raise EquationSyntaxError("zero denominator in coefficient", open_tok.pos)
        return ratz(num, den)

    # --- polynomial layer

    def parse_poly(self) -> List[_RawTerm]:
        terms = [self._term(self.take_sign() or 1)]
        while True:
            s = self.take_sign()
            if not s:
                return terms
            terms.append(self._term(s))

    def _term(self, sign: int) -> _RawTerm:
        term = _RawTerm(sign=sign)
        self._factor(term)
        while self.ops[self.k] == "*":
            self.k += 1
            self._factor(term)
        return term

    def _factor(self, term: _RawTerm) -> None:
        kind, text, pos = self.toks[self.k]
        if kind == "IDENT":
            if text == "w":
                self.k += 1
                slot = self._shift_suffix() if self.ops[self.k] == "(" else 0
                power, at = self._power_suffix()
                term.exps[slot] = term.exps.get(slot, 0) + power
                _check_w_degree(sum(term.exps.values()), at)
                return
            if text in RESERVED:
                raise EquationSyntaxError(f"{text!r} is reserved", pos)
            self.k += 1
            nonzero = self.toks[self.k].kind == "NEQZERO"
            if nonzero:
                self.k += 1
            if self.ops[self.k] == "^":
                raise EquationSyntaxError("symbolic coefficients cannot be powered", pos)
            if term.symbol is not None:
                raise EquationSyntaxError("at most one symbolic coefficient per term", pos)
            term.symbol = (text, nonzero, pos)
            if self.ctx.symbolic_pos is None:
                self.ctx.symbolic_pos = pos
            return
        if text == "{":
            coeff = self._braced_ratfun()
            if self.ctx.numeric_pos is None:
                self.ctx.numeric_pos = pos
            power, at = self._power_suffix()
            if power != 1:
                _check_z_power(_z_degree(coeff), power, at)
                # a power of a reduced num/den is reduced
                coeff = RatZ(zp_pow(coeff.num, power), zp_pow(coeff.den, power))
            if term.saw_numeric:
                _check_z_degree(_z_degree(term.numeric) + _z_degree(coeff), pos)
                coeff = term.numeric * coeff
            term.numeric = coeff
            term.saw_numeric = True
            return
        if text == "(":
            self.open_paren(pos)
            self.k += 1
            inner = self.parse_poly()
            self.expect_op(")")
            self.depth -= 1
            power, at = self._power_suffix()
            if power > W_DEGREE_CAP:
                raise EquationSyntaxError(f"power {power} of a group exceeds {W_DEGREE_CAP}", at)
            term.groups.append((inner, power, pos))
            return
        if kind == "NUMBER":
            raise EquationSyntaxError("bare numbers are not atoms; write {n}", pos)
        raise EquationSyntaxError("expected a factor", pos)

    def _shift_suffix(self) -> int:
        self.expect_op("(")
        t = self.take()
        if t.kind != "IDENT" or t.text != "z":
            raise EquationSyntaxError("expected 'z' in shift", t.pos)
        sign = self.take_sign()
        if not sign:
            raise EquationSyntaxError("expected '+' or '-' after 'z'", self.toks[self.k].pos)
        re, im = self._shift_literal(sign)
        self.expect_op(")")
        if re == 0 and im == 0:
            raise ZeroShift("shift w(z+0) is not allowed; shifts must be nonzero")
        return self.ctx.slot_for(re, im)

    def _power_suffix(self) -> Tuple[int, int]:
        """The power after a factor (1 when there is none) and its position."""
        if self.ops[self.k] != "^":
            return 1, self.toks[self.k].pos
        self.k += 1
        t = self.take()
        if t.kind != "NUMBER" or "." in t.text:
            raise EquationSyntaxError("expected a natural-number power", t.pos)
        return _int(t), t.pos


# ---------------------------------------------------------------------------
# expansion of raw terms into flat (sign, symbol, numeric, exponent-map) lists


def _flat_mul(a: List[Tuple[int, Optional[Tuple[str, bool, int]], RatZ, Dict[int, int]]],
              b: List[Tuple[int, Optional[Tuple[str, bool, int]], RatZ, Dict[int, int]]],
              pos: int):
    """The terms of a*b, each numeric one added into the first numeric term
    of the same exponents.  Symbolic terms and zero sums stay where they are,
    so `normalize` meets the same symbolic duplicates as in the product taken
    term by term, and a group power keeps as few terms as its expansion.
    Refuses, at `pos`, a product past either degree cap before computing it."""
    out = []
    first: Dict[Tuple[Tuple[int, int], ...], int] = {}
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
            _check_w_degree(sum(exps.values()), pos)
            _check_z_degree(_z_degree(numa) + _z_degree(numb), pos)
            sign, num = sa * sb, numa * numb
            if sym is None:
                key = tuple(sorted(item for item in exps.items() if item[1]))
                k = first.get(key)
                if k is not None:
                    sign0, _, num0, exps0 = out[k]
                    total = (num0 if sign0 > 0 else -num0) + (num if sign > 0 else -num)
                    out[k] = (1, None, total, exps0)
                    continue
                first[key] = len(out)
            out.append((sign, sym, num, exps))
    return out


def _expand(poly: List[_RawTerm]):
    flat = []
    for term in poly:
        acc = [(term.sign, term.symbol, term.numeric, dict(term.exps))]
        made = 0
        for group, power, pos in term.groups:
            gflat = _expand(group)
            for _ in range(power):
                made += len(acc) * len(gflat)
                if made > EXPANSION_CAP:
                    raise EquationSyntaxError(
                        f"expanding a group makes more than {EXPANSION_CAP} terms", pos
                    )
                acc = _flat_mul(acc, gflat, pos)
        flat.extend(acc)
    return flat


def _canonical_shifts(ctx: _Ctx) -> Tuple[Tuple[Shift, ...], List[int]]:
    """The shifts numbered by value, largest (re, im) first, and for each slot
    in order of first appearance (0 for w itself) its canonical slot."""
    # Slot numbering must not depend on textual appearance order, or the
    # printed form would not reparse to the same structure.
    appearance = ctx.shift_order
    order = sorted(range(len(appearance)), key=appearance.__getitem__, reverse=True)
    slots = [0] * (len(order) + 1)
    for new, old in enumerate(order):
        slots[old + 1] = new + 1
    shifts = tuple(Shift(*appearance[old], index=new + 1) for new, old in enumerate(order))
    return shifts, slots


def _materialize(flat, shifts: Tuple[Shift, ...], slots: List[int]) -> DiffPolynomial:
    """The normalized polynomial of `flat`, whose exponent maps are keyed by
    appearance slot, with multi-indices in canonical slot order."""
    width = len(slots)
    terms = []
    for sign, sym, num, exps in flat:
        idx = [0] * width
        for slot, e in exps.items():
            idx[slots[slot]] = e
        if sym is not None:
            # like numeric terms merged inside a group, as in a*(w*(w+w))
            if not num.is_one:
                raise MixedMode("symbolic term carries a numeric factor")
            name, nonzero, _ = sym
            coeff: object = SymbolicCoeff(name, nonzero=nonzero, negated=sign < 0)
        else:
            coeff = num if sign > 0 else -num
        terms.append((coeff, tuple(idx)))
    try:
        return normalize(shifts, terms)
    except diffpoly.SymbolicDuplicate as exc:
        # name the multi-index in the order the shifts appear in the text
        raise SymbolicDuplicate(tuple(exc.index[slot] for slot in slots)) from None


# ---------------------------------------------------------------------------
# public entry points


def _end_of_input(parser: _Parser) -> None:
    trailing = parser.peek()
    if trailing.kind != "END":
        raise EquationSyntaxError("unexpected trailing input", trailing.pos)


def _finish(ctx: _Ctx, flats: List[list]) -> List[DiffPolynomial]:
    """The polynomials of the expanded sides `flats`."""
    if ctx.symbolic_pos is not None and ctx.numeric_pos is not None:
        raise MixedMode(
            "symbolic and numeric coefficients in one equation "
            f"(positions {ctx.symbolic_pos} and {ctx.numeric_pos})"
        )
    names = set()
    for flat in flats:
        for _, sym, _, _ in flat:
            if sym is None:
                continue
            if sym[0] in names:
                raise DuplicateSymbolName(f"coefficient name {sym[0]!r} is used more than once")
            names.add(sym[0])
    shifts, slots = _canonical_shifts(ctx)
    return [_materialize(flat, shifts, slots) for flat in flats]


def _bare_groups(poly: List[_RawTerm]) -> List[List[_RawTerm]]:
    """The groups of `poly` when it is one term made only of parenthesized
    groups without powers, else none."""
    term = poly[0]
    if len(poly) != 1 or term.sign != 1 or term.symbol or term.saw_numeric or term.exps:
        return []
    if any(power != 1 for _, power, _ in term.groups):
        return []
    return [group for group, _, _ in term.groups]


_UNIT_FLAT = [(1, None, RZ_ONE, {})]


def _equation_sides(lhs_raw: List[_RawTerm], num_raw: List[_RawTerm],
                    den_raw: Optional[List[_RawTerm]]):
    """The expanded lhs, numerator and denominator, expanded in that order.
    Without a denominator, a left side that is exactly `(U)*(P)` with U
    expanding to a w-only polynomial reads as `(U)*(P) = Q`: U, expanded
    first, is the denominator and P the lhs."""
    if den_raw is not None:
        return [_expand(lhs_raw), _expand(num_raw), _expand(den_raw)]
    den_flat = _UNIT_FLAT
    groups = _bare_groups(lhs_raw)
    if len(groups) == 2:
        first_flat = _expand(groups[0])
        if not any(any(slot != 0 for slot in exps) for _, _, _, exps in first_flat):
            den_flat, lhs_raw = first_flat, groups[1]
    return [_expand(lhs_raw), _expand(num_raw), den_flat]


def parse_equation(text: str) -> ClunieEquation:
    """Parse one equation; shifts are numbered in order of first appearance."""
    parser = _Parser(text, _Ctx())
    lhs_raw = parser.parse_poly()
    parser.expect_op("=")

    rhs_raw = parser.parse_poly()
    den_raw: Optional[List[_RawTerm]] = None
    if parser.at_op("/"):
        slash = parser.take()
        groups = _bare_groups(rhs_raw)
        if len(groups) != 1:
            raise EquationSyntaxError("division must be (poly)/(poly)", slash.pos)
        rhs_raw = groups[0]
        parser.expect_op("(")
        den_raw = parser.parse_poly()
        parser.expect_op(")")

    _end_of_input(parser)
    lhs, numerator, denominator = _finish(parser.ctx, _equation_sides(lhs_raw, rhs_raw, den_raw))
    if not numerator.is_plain() or not denominator.is_plain():
        raise ShiftInUQ("numerator and denominator must involve only w(z)")
    if numerator.is_empty:
        raise DegenerateEquation("numerator vanishes identically")
    if denominator.is_empty:
        raise DegenerateEquation("denominator vanishes identically")
    return ClunieEquation(lhs=lhs, numerator=numerator, denominator=denominator)


def parse_polynomial(text: str) -> DiffPolynomial:
    """Parse a lone difference polynomial (no '=')."""
    parser = _Parser(text, _Ctx())
    raw = parser.parse_poly()
    _end_of_input(parser)
    (poly,) = _finish(parser.ctx, [_expand(raw)])
    return poly


def validate_no_common_factors(eq: ClunieEquation) -> ClunieEquation:
    """Verify gcd_w(denominator, numerator) is constant, or record a caveat.

    Numeric equations get an exact gcd over the rational-function field in z;
    symbolic equations cannot be decided and are marked Asserted.
    """
    if eq.denominator.is_symbolic or eq.numerator.is_symbolic:
        return eq._replace(coprimality=Coprimality.ASSERTED)
    u = _plain_coeff_list(eq.denominator)
    q = _plain_coeff_list(eq.numerator)
    g_deg = wpoly_gcd_degree(u, q)
    if g_deg > 0:
        raise CommonFactor(
            f"numerator and denominator share a factor of degree {g_deg} in w"
        )
    return eq._replace(coprimality=Coprimality.VERIFIED)


def _plain_coeff_list(p: DiffPolynomial) -> List[RatZ]:
    deg = max(idx[0] for _, idx in p.terms)
    out = [RZ_ZERO] * (deg + 1)
    for coeff, idx in p.terms:
        out[idx[0]] = coeff
    return out


# ---------------------------------------------------------------------------
# parse helpers for the model mini-language of `charfn`


def _spec_end(parser: _Parser, what: str, text: str) -> None:
    if parser.peek().kind != "END":
        raise ValueError(f"trailing input in {what} {text!r}")


def parse_shift_constant(text: str) -> Tuple[Fraction, Fraction]:
    """(re, im) of a shift literal such as `1`, `-i`, `2+i` or `1/3-2/5*i`."""
    parser = _Parser(text, _Ctx())
    re, im = parser._shift_literal(parser.take_sign() or 1)
    _spec_end(parser, "shift constant", text)
    if re == 0 and im == 0:
        raise ZeroShift(f"shift constant {text!r} is zero; shifts must be nonzero")
    return re, im


def parse_zpoly(text: str) -> ZPoly:
    """An integer polynomial in z written as inside braces, e.g. `z^2-1`."""
    parser = _Parser(text, _Ctx())
    poly = parser._zexpr()
    if parser.at_op("/"):
        raise ValueError("exponent polynomial cannot have a denominator")
    _spec_end(parser, "polynomial", text)
    return poly


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
    _spec_end(parser, "rational spec", text)
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
    return sign, "*".join([f"{{{mag.text()}}}"] + vars_)


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
    left = poly_text(eq.lhs)
    if u.terms == ((RZ_ONE, (0,) * (1 + len(u.shifts))),):
        return f"{left} = {poly_text(eq.numerator)}"
    return f"{left} = ({poly_text(eq.numerator)})/({poly_text(eq.denominator)})"
