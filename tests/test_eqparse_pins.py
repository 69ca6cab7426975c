"""Pinned parser output: structures, canonical text and refusal messages.

The digests and messages below were recorded from the parser before its
front end (tokenizer, exact arithmetic, slot numbering) was rewritten for
speed.  Any change to a parsed structure, a printed form, a coprimality
verdict or an error message shows up here.  An equation is hashed as its
four fields; the equation digests were re-recorded in that form from the
same parser, when the equation record still carried a constant
small-coefficients flag and a note that only restated its coprimality.
"""

from __future__ import annotations

import hashlib
import os
import random
import sys

import pytest

from nevdiff.diffpoly import DiffPolyError
from nevdiff.eqparse import (
    CommonFactor,
    ParseError,
    parse_equation,
    parse_polynomial,
    to_canonical_text,
    validate_no_common_factors,
)

from helpers import random_equation

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import workloads  # noqa: E402

# Valid inputs beyond the benchmark's three shapes: groups and their powers,
# the direct-product form, complex and decimal shifts in non-canonical
# order, coefficient powers, symbolic side conditions.
EXTRA_EQUATIONS = (
    "(w+{1})^3*w(z+1) = {z}",
    "(w-{1})^2*(w(z+1)+w)^2 = {1}",
    "(w+{2})*(w(z-1)*w(z+1)) = {z^2}*w+{1}",
    "(w+b0!=0)*(w(z+1/2)*w(z-1/2)) = w*(a1*w+a0)",
    "w(z-2+3*i)*w(z+i)^2+w(z+0.5)*w = ({(z^2+1)/(z-2)}^2*w^3+{-7})/(w^2+{z}^3*w+{1/z})",
    "w(z-1)*w(z+1)+w(z-1)-w(z+1) = (w^2+{z-1}*{z+1})/(w-{(z+3)/(z^2+1)})",
    "{2*z}*w(z-i)*w(z+1)+{(z)/(z^2-1)}*w(z-i)^2 = ({3}*w^2+{1})/(w+{z})",
    "w(z+1)*(w(z-1)+w)-w(z+1)*w = {1/2}*w^2+{-1/2}",
    "w(z+1)^2-w(z-1)^2 = (w^3+{1})/(w^2-{z}*w+{z^2})",
    "a*w(z+1)+b!=0*w(z-1)^2-c*w = (d*w^2+e)/(f*w+g!=0)",
    "-w(z+1)*w(z-1/3+2/5*i) = -w^2",
    "w(z+1)*w = ({z}^0*w^2+{1})/(w+{0}+{1})",
)

EXTRA_POLYNOMIALS = (
    "w(z-1)*w(z+1)+(w+{1})^2",
    "w(z+i)^3-w(z-i)*{z^2-1}",
    "a*w(z+1)+b*w",
)

# Refused inputs with their exact exception class and message.
REFUSALS = (
    ("a*w(z-1)+b*w(z-1)+w(z+1) = c", "SymbolicDuplicate",
     "two symbolic terms share multi-index (0, 1, 0)"),
    ("w(z+0)*w = {1}", "ZeroShift",
     "shift w(z+0) is not allowed; shifts must be nonzero"),
    ("a*w(z+1) = {2}*w", "MixedMode",
     "symbolic and numeric coefficients in one equation (positions 0 and 11)"),
    ("w(z+1)*w = w(z+1)", "ShiftInUQ",
     "numerator and denominator must involve only w(z)"),
    ("w(z+1) = (w)/({1}-{1})", "DegenerateEquation",
     "denominator vanishes identically"),
    ("w(z+1) = {1}-{1}", "DegenerateEquation", "numerator vanishes identically"),
    ("a*w(z+1) = a*w", "DuplicateSymbolName",
     "coefficient name 'a' is used more than once"),
    ("w(z+1) = w + ", "EquationSyntaxError", "expected a factor (at position 13)"),
    ("2*w = w(z+1)", "EquationSyntaxError",
     "bare numbers are not atoms; write {n} (at position 0)"),
    ("w(z+1) = z*w", "EquationSyntaxError", "'z' is reserved (at position 9)"),
    ("w(z+1) = a^2*w", "EquationSyntaxError",
     "symbolic coefficients cannot be powered (at position 9)"),
    ("w(z+1) = a*b*w", "EquationSyntaxError",
     "at most one symbolic coefficient per term (at position 11)"),
    ("w(z+1) = (a+w)*(b+w)", "EquationSyntaxError",
     "product of two symbolic coefficients in one term (at position 16)"),
    ("w(z+1) = {z^1.5}", "EquationSyntaxError",
     "expected a natural-number power (at position 12)"),
    ("w(z+1) = {1.5}*w", "EquationSyntaxError",
     "integer coefficients only in braces (at position 10)"),
    ("w(z+1/0) = w", "EquationSyntaxError", "zero denominator in literal (at position 6)"),
    ("w(z+1/2.0) = w", "EquationSyntaxError",
     "rational literal wants integers (at position 6)"),
    ("w(z+1) = {1/(z-z)}*w", "EquationSyntaxError",
     "zero denominator in coefficient (at position 9)"),
    ("w(z+1) = w # 1", "EquationSyntaxError", "unexpected character '#' (at position 11)"),
    ("w(z+1) = a! *w", "EquationSyntaxError", "expected '!=0' (at position 10)"),
    ("w(z+1) = {1}/{2}", "EquationSyntaxError",
     "division must be (poly)/(poly) (at position 12)"),
    ("w(z+1) = w)", "EquationSyntaxError", "unexpected trailing input (at position 10)"),
    ("w(z+1+2) = w", "EquationSyntaxError", "expected imaginary unit 'i' (at position 7)"),
    ("w(z*1) = w", "EquationSyntaxError", "expected '+' or '-' after 'z' (at position 3)"),
    ("w(y+1) = w", "EquationSyntaxError", "expected 'z' in shift (at position 2)"),
    ("w(z+1) = {z+}", "EquationSyntaxError",
     "expected z, an integer, or '(' (at position 12)"),
    ("w(z+1) = {z", "EquationSyntaxError", "expected '}' (at position 11)"),
    ("w(z+1) = a*{1}*w", "MixedMode",
     "symbolic and numeric coefficients in one equation (positions 9 and 11)"),
    ("w*w(z+1) = ({1}*w^2-{1})/(w+{1})", "CommonFactor",
     "numerator and denominator share a factor of degree 1 in w"),
    ("w(z+1) = ((w+{z})^2*(w-{1}))/((w+{z})*(w^2+{1}))", "CommonFactor",
     "numerator and denominator share a factor of degree 1 in w"),
    ("w(z+1) = ((w^2-{z^2})^2)/((w-{z})^2*(w+{1}))", "CommonFactor",
     "numerator and denominator share a factor of degree 2 in w"),
)


def _fields(eq):
    return eq.lhs, eq.numerator, eq.denominator, eq.coprimality


def _outcome(text: str) -> str:
    """The parse and coprimality outcome of one equation, as one string."""
    try:
        eq = parse_equation(text)
        out = repr(_fields(eq)) + "\n" + to_canonical_text(eq) + "\n"
        return out + repr(_fields(validate_no_common_factors(eq)))
    except (ParseError, CommonFactor, DiffPolyError) as exc:
        return f"{type(exc).__name__}: {exc}"


def _digest(texts) -> str:
    h = hashlib.sha256()
    for text in texts:
        h.update(_outcome(text).encode() + b"\0")
    return h.hexdigest()


CLASSIFY_BATCH_DIGESTS = {
    0: "68d28c407b51b9c8b053ad78382c111029ad35da205cce32a28feefd75770a80",
    1: "0d281248948c522cc975a1f85c67842ec586084fe7c579910ddc20f1f335ed43",
    2: "872062c242beec0304cac0b79f6eff44e20b19ac303a92a54d0dab6f3331668c",
    3: "8bbb078cdd62fb6bac8dd0aadc88279f37ea375996786475d372ae3e5373aaa1",
    4: "624320be94e44ca9d27717796a857898d52505cd1dc1f3b2229079f51bf6d273",
    5: "24fcdc3c2ad0d95a19c0a9c606a438587fa4568abc016aaf68f8c1554110caf2",
}


@pytest.mark.parametrize("seed", sorted(CLASSIFY_BATCH_DIGESTS))
def test_classify_batch_outcomes_are_pinned(seed):
    texts = [text for text, _ in workloads.classify_batch(seed)]
    assert _digest(texts) == CLASSIFY_BATCH_DIGESTS[seed]


RANDOM_AND_EXTRA_DIGEST = "b94fab3bef7948a0ed28f9369e14a50c356742689ac7f97f373a5508d770a64c"


def _random_and_extra_texts():
    rng = random.Random(20181)
    texts = [to_canonical_text(random_equation(rng)) for _ in range(200)]
    return texts + list(EXTRA_EQUATIONS)


def test_random_and_extra_equations_are_pinned():
    assert _digest(_random_and_extra_texts()) == RANDOM_AND_EXTRA_DIGEST


POLYNOMIAL_REPRS = (
    "DiffPolynomial(shifts=(Shift(re=Fraction(1, 1), im=Fraction(0, 1), index=1), "
    "Shift(re=Fraction(-1, 1), im=Fraction(0, 1), index=2)), "
    "terms=((RatZ(num=(1,), den=(1,)), (2, 0, 0)), (RatZ(num=(2,), den=(1,)), (1, 0, 0)), "
    "(RatZ(num=(1,), den=(1,)), (0, 1, 1)), (RatZ(num=(1,), den=(1,)), (0, 0, 0))))",
    "DiffPolynomial(shifts=(Shift(re=Fraction(0, 1), im=Fraction(1, 1), index=1), "
    "Shift(re=Fraction(0, 1), im=Fraction(-1, 1), index=2)), "
    "terms=((RatZ(num=(1,), den=(1,)), (0, 3, 0)), (RatZ(num=(1, 0, -1), den=(1,)), (0, 0, 1))))",
    "DiffPolynomial(shifts=(Shift(re=Fraction(1, 1), im=Fraction(0, 1), index=1),), "
    "terms=((SymbolicCoeff(name='b', nonzero=False, negated=False), (1, 0)), "
    "(SymbolicCoeff(name='a', nonzero=False, negated=False), (0, 1))))",
)


def test_polynomials_are_pinned():
    assert tuple(repr(parse_polynomial(t)) for t in EXTRA_POLYNOMIALS) == POLYNOMIAL_REPRS


@pytest.mark.parametrize("text,kind,message", REFUSALS)
def test_refusal_messages_are_pinned(text, kind, message):
    assert _outcome(text) == f"{kind}: {message}"
