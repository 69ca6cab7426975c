import math
import random
import re
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nevdiff import diffpoly as dp
from nevdiff.diffpoly import Shift
from nevdiff.eqparse import (
    Z_DEGREE_CAP,
    CommonFactor,
    Coprimality,
    DegenerateEquation,
    DuplicateSymbolName,
    EquationSyntaxError,
    MixedMode,
    ParseError,
    ShiftInUQ,
    ZeroShift,
    parse_braced_quotient,
    parse_equation,
    parse_polynomial,
    parse_shift_constant,
    parse_zpoly,
    shift_text,
    to_canonical_text,
    validate_no_common_factors,
)
from nevdiff.zfield import RatZ, zp_mul

from helpers import random_equation

BENCH_EQ = "w(z+1)*w(z-1)+w(z+1)*w+w*w(z-1) = (a2*w^2+a1*w+a0)/(w^2+b1*w+b0)"


def test_parse_benchmark_family():
    eq = parse_equation(BENCH_EQ)
    assert dp.total_degree(eq.denominator) == 2
    assert dp.total_degree(eq.numerator) == 2
    assert dp.order_at_zero(eq.numerator) == 0
    assert eq.coprimality is Coprimality.UNCHECKED


def test_parse_trivial_shift_equation():
    eq = parse_equation("w(z+1) = w")
    assert dp.total_degree(eq.denominator) == 0
    assert len(eq.denominator.terms) == 1
    assert dp.total_degree(eq.numerator) == 1
    assert dp.weight(eq.lhs) == 1


def test_zero_shift_rejected():
    with pytest.raises(ZeroShift):
        parse_equation("w(z+0)*w = {1}")


def test_shift_literals():
    # slots are numbered canonically by value, largest (re, im) first
    eq = parse_equation("w(z+1/2)*w(z-2+3*i)*w(z+i) = w")
    keys = [(s.re, s.im) for s in eq.lhs.shifts]
    from fractions import Fraction as F

    assert keys == [(F(1, 2), F(0)), (F(0), F(1)), (F(-2), F(3))]


def test_decimal_shift_is_exact():
    eq = parse_equation("w(z+0.5) = w")
    from fractions import Fraction as F

    assert (eq.lhs.shifts[0].re, eq.lhs.shifts[0].im) == (F(1, 2), F(0))


def test_mixed_mode_rejected():
    with pytest.raises(MixedMode):
        parse_equation("a*w(z+1) = {2}*w")


def test_shift_in_numerator_rejected():
    with pytest.raises(ShiftInUQ):
        parse_equation("w(z+1)*w = w(z+1)")


def test_shift_in_denominator_rejected():
    with pytest.raises(ShiftInUQ):
        parse_equation("w(z+1)*w = (w)/(w(z+1))")


def test_degenerate_denominator():
    with pytest.raises(DegenerateEquation):
        parse_equation("w(z+1) = (w)/({1}-{1})")


def test_duplicate_symbol_rejected():
    with pytest.raises(DuplicateSymbolName):
        parse_equation("a*w(z+1) = a*w")


def test_syntax_error_position():
    with pytest.raises(EquationSyntaxError) as err:
        parse_equation("w(z+1) = w + ")
    assert err.value.position >= 12


def test_bare_number_rejected():
    with pytest.raises(EquationSyntaxError):
        parse_equation("2*w = w(z+1)")


def test_direct_product_form():
    eq = parse_equation("(w+b0)*(w(z+1)*w(z-1)+w(z+1)*w+w*w(z-1)) = w*(a1*w+a0)")
    assert dp.total_degree(eq.denominator) == 1
    assert dp.total_degree(eq.lhs) == 2
    assert dp.order_at_zero(eq.numerator) == 1


def test_gcd_common_factor():
    eq = parse_equation("w*w(z+1/2) = ({1}*w^2-{1})/(w+{1})")
    with pytest.raises(CommonFactor):
        validate_no_common_factors(eq)


def test_gcd_coprime_verified():
    eq = parse_equation("w*w(z+1/2) = (w+{1})/(w^2)")
    assert validate_no_common_factors(eq).coprimality is Coprimality.VERIFIED


def test_gcd_symbolic_asserted():
    eq = parse_equation("w*w(z+1) = (w*(a1*w+a0))/(w+b0)")
    out = validate_no_common_factors(eq)
    assert out.coprimality is Coprimality.ASSERTED


def test_numeric_coefficient_roundtrip():
    eq = parse_equation("{(z^2+1)/(z-2)}*w(z+1)*w = {3}*w^2+{1}")
    txt = to_canonical_text(eq)
    assert "{(z^2+1)/(z-2)}" in txt
    assert parse_equation(txt) == eq


def test_canonical_text_idempotent():
    eq = parse_equation(BENCH_EQ)
    txt = to_canonical_text(eq)
    assert parse_equation(txt) == eq
    assert to_canonical_text(parse_equation(txt)) == txt


def test_roundtrip_random_equations():
    rng = random.Random(97)
    for _ in range(300):
        eq = random_equation(rng)
        txt = to_canonical_text(eq)
        eq2 = parse_equation(txt)
        assert eq2 == eq
        assert to_canonical_text(eq2) == txt


@given(st.text(max_size=60))
@settings(max_examples=400)
def test_parse_total_on_fuzz(text):
    try:
        parse_equation(text)
    except ParseError:
        pass


@given(st.text(alphabet="wz()+-*/^{}=!0123456789.abi ", max_size=40))
@example("b=a0-a")
@settings(max_examples=400)
def test_parse_total_on_grammar_alphabet(text):
    try:
        parse_equation(text)
    except ParseError:
        pass


@pytest.mark.parametrize("text", ["b=a0-a", "w=a0-a"])
def test_symbolic_duplicate_is_a_parse_error(text):
    # two symbolic terms on w^0 once the right side moves over; the error is
    # still a diffpoly.SymbolicDuplicate for callers that catch that
    with pytest.raises(ParseError, match=r"^two symbolic terms share multi-index \(0,\)$") as err:
        parse_equation(text)
    assert isinstance(err.value, dp.SymbolicDuplicate)


# Characters that str.isdigit() accepts but int() and Fraction() do not: the
# tokenizer reads only decimal digits, so each is an unexpected character.
@pytest.mark.parametrize(
    "text, position",
    [("w = {z^\u00b2}", 7), ("w(z+\u00b2) = {1}", 4), ("w^\u00b2 = {1}", 2)],
)
def test_non_decimal_digits_are_syntax_errors(text, position):
    with pytest.raises(EquationSyntaxError) as err:
        parse_equation(text)
    assert err.value.position == position
    assert str(err.value) == f"unexpected character '\u00b2' (at position {position})"


@pytest.mark.parametrize(
    "text", ["w(z+" + "1" * 5000 + ") = w", "w = {" + "1" * 5000 + "}", "w(z+1." + "5" * 5000 + ") = w"]
)
def test_numbers_past_the_int_digit_limit_are_syntax_errors(text):
    with pytest.raises(EquationSyntaxError, match=r"^number too long \(at position [45]\)$"):
        parse_equation(text)


def test_product_of_high_degree_coefficients_reduces_fast():
    # every gcd of the product is taken at a factor's degree, 64, not 128
    t0 = time.perf_counter()
    eq = parse_equation("w = {(z+1)^64/(z-1)^64}*{(z+2)^64/(z+3)^64}*w")
    assert time.perf_counter() - t0 < 1.0
    (coeff, _), = eq.numerator.terms
    assert coeff == RatZ(*_expanded(((1, 1), (2, 1)), ((-1, 1), (3, 1)), 64))


def test_power_of_a_sum_over_shared_denominators_reduces_fast():
    # each sum in the group's expansion is taken over the gcd of its
    # operands' denominators, not over their product
    t0 = time.perf_counter()
    eq = parse_equation("w(z+1)*w = ({1/(z-1)}+{1/(z-2)}+{1/(z-3)})^40*w^2")
    assert time.perf_counter() - t0 < 1.0
    (coeff, _), = eq.numerator.terms
    # the sum is (3z^2-12z+11)/((z-1)(z-2)(z-3))
    assert coeff == RatZ(*_expanded(((11, -12, 3),), ((-1, 1), (-2, 1), (-3, 1)), 40))


def _expanded(num_factors, den_factors, power):
    """The product of the factors' powers, as (num, den) of a RatZ."""
    def product(factors):
        out = (1,)
        for f in factors:
            for _ in range(power):
                out = zp_mul(out, f)
        return out
    return product(num_factors), product(den_factors)


def test_group_power_merges_like_terms():
    t0 = time.perf_counter()
    p = parse_polynomial("(w+{1})^40")
    assert time.perf_counter() - t0 < 1.0
    assert p.terms == tuple(
        (RatZ((math.comb(40, k),), (1,)), (k,)) for k in range(40, -1, -1)
    )


def test_merged_zero_sum_still_meets_a_symbolic_duplicate():
    # the product's two w*w(z+1) terms sum to zero; the symbolic term beside
    # them is still a duplicate, as in the unmerged expansion
    with pytest.raises(dp.SymbolicDuplicate, match=r"multi-index \(1, 1\)$"):
        parse_equation("(w+w(z+1))*(w-w(z+1))+a*w*w(z+1) = b")


@pytest.mark.parametrize(
    "text, message",
    [
        ("w = {z^100000}", "power 100000 in a coefficient exceeds 256 (at position 7)"),
        ("w = {z^99999999}", "power 99999999 in a coefficient exceeds 256 (at position 7)"),
        ("w = {2^99999999}", "power 99999999 in a coefficient exceeds 256 (at position 7)"),
        ("w = {(z^2+1)/(z-1)}^200", "coefficient of degree 400 in z exceeds 256 (at position 20)"),
        ("w = {(z^2+1)^200}", "coefficient of degree 400 in z exceeds 256 (at position 13)"),
        ("w = {z^200*z^57}", "coefficient of degree 257 in z exceeds 256 (at position 11)"),
        ("w = {z^200}*{z^57}*w", "coefficient of degree 257 in z exceeds 256 (at position 12)"),
        ("w(z+1) = ({(z+1)^256}*w+{1})^20",
         "coefficient of degree 512 in z exceeds 256 (at position 9)"),
        ("w(z+1) = (w)^99999999", "power 99999999 of a group exceeds 256 (at position 13)"),
        ("w^99999999999999999999 = {1}",
         "term of degree 99999999999999999999 in w exceeds 256 (at position 2)"),
        ("w = (w^200)^2", "term of degree 400 in w exceeds 256 (at position 4)"),
        ("w = (" + "+".join(f"w(z+{k})" for k in range(1, 201)) + ")^2",
         "expanding a group makes more than 32768 terms (at position 4)"),
    ],
)
def test_z_degree_past_the_cap_is_refused_before_it_is_computed(text, message):
    assert Z_DEGREE_CAP == 256
    t0 = time.perf_counter()
    with pytest.raises(EquationSyntaxError) as err:
        parse_equation(text)
    assert time.perf_counter() - t0 < 1.0
    assert str(err.value) == message


def test_z_powers_at_the_cap_are_exact():
    t0 = time.perf_counter()
    eq = parse_equation("w(z+1) = {(z+1)/(z-1)}^200*w+{z^256}")
    assert time.perf_counter() - t0 < 1.0
    (c200, _), (c256, _) = eq.numerator.terms
    assert c200 == RatZ(
        tuple(math.comb(200, k) for k in range(201)),
        tuple((-1) ** (200 - k) * math.comb(200, k) for k in range(201)),
    )
    assert c256 == RatZ((0,) * 256 + (1,), (1,))


def test_polynomial_parser_rejects_equation():
    with pytest.raises(EquationSyntaxError):
        parse_polynomial("w = w")


def test_model_language_helpers():
    assert parse_shift_constant("1/3-2/5*i") == (Fraction(1, 3), Fraction(-2, 5))
    assert parse_zpoly("z^2-1") == (-1, 0, 1)
    # {a}/{b}: a's denominator moves into b, nothing cancels
    assert parse_braced_quotient("{(z+1)/(z-2)}/{z}") == ((1, 1), (0, -2, 1))
    assert parse_braced_quotient("{z}") == ((0, 1), (1,))
    with pytest.raises(ValueError, match="cannot have a denominator"):
        parse_zpoly("1/z")
    with pytest.raises(ValueError, match="nested denominators"):
        parse_braced_quotient("{1}/{1/z}")
    with pytest.raises(ValueError, match="trailing input"):
        parse_braced_quotient("{z}x")
    for junk in ("z}junk", "z}/{2", "z}{z"):
        with pytest.raises(ValueError, match="trailing input in polynomial"):
            parse_zpoly(junk)
    for junk in ("1)*w", "1)^2", "1)*w(z+1", "2+i)+w(z+3"):
        with pytest.raises(ValueError, match="trailing input in shift constant"):
            parse_shift_constant(junk)
    with pytest.raises(ZeroShift):
        parse_shift_constant("0")


_PARTS = st.fractions(min_value=-20, max_value=20, max_denominator=30)


@given(_PARTS, _PARTS)
@example(Fraction(-1), Fraction(0))
@example(Fraction(0), Fraction(-1))
@settings(max_examples=200)
def test_shift_constants_of_either_sign_round_trip(re_part, im_part):
    if re_part == 0 and im_part == 0:
        return
    # shift_text writes w(z+c) or w(z-c); the constant is c with its sign
    text = shift_text(Shift(re_part, im_part, 1))[3:-1]
    assert parse_shift_constant(text) == (re_part, im_part)


_AT = re.compile(r"\(at position (\d+)\)")


@given(st.text(alphabet="0123456789+-*/^(){}zi.!=wx ", max_size=30))
@example("")
@example("+")
@example("z+")
@settings(max_examples=300)
def test_spec_reader_positions_point_into_the_text(text):
    for reader in (parse_shift_constant, parse_zpoly, parse_braced_quotient):
        try:
            reader(text)
        except (ParseError, ValueError) as exc:
            for k in _AT.findall(str(exc)):
                assert 0 <= int(k) <= len(text), (reader.__name__, text, str(exc))


def test_spec_readers_read_the_users_text():
    assert parse_shift_constant("-1") == (Fraction(-1), Fraction(0))
    assert parse_shift_constant("-i") == (Fraction(0), Fraction(-1))
    assert parse_shift_constant("-1/2*i") == (Fraction(0), Fraction(-1, 2))
    assert parse_shift_constant("+2-i") == (Fraction(2), Fraction(-1))
    with pytest.raises(ZeroShift, match="shift constant '-0' is zero"):
        parse_shift_constant("-0")
    with pytest.raises(EquationSyntaxError, match=r"expected a number \(at position 1\)"):
        parse_shift_constant("--1")
    with pytest.raises(EquationSyntaxError, match=r"\(at position 2\)"):
        parse_zpoly("z+")


@pytest.mark.parametrize("text, error, message", [
    ("a*w(z+1)*w(z-1)+{2}*w(z+1)*w+c*w*w(z-1)", MixedMode,
     "symbolic and numeric coefficients in one equation (positions 0 and 16)"),
    ("a*{2}*w", MixedMode, "symbolic and numeric coefficients in one equation (positions 0 and 2)"),
    ("a*w(z+1)+a*w", DuplicateSymbolName, "coefficient name 'a' is used more than once"),
    ("a*w*(w+w(z+1))", DuplicateSymbolName, "coefficient name 'a' is used more than once"),
    # no brace, but a nested group merges w+w into {2}*w
    ("a*(w*(w+w))", MixedMode, "symbolic term carries a numeric factor"),
    ("a*(w*(w-w-w))", MixedMode, "symbolic term carries a numeric factor"),
    ("a*(w*(w-w))", MixedMode, "symbolic term carries a numeric factor"),
])
def test_polynomial_reader_refuses_as_the_equation_reader(text, error, message):
    with pytest.raises(error) as info:
        parse_polynomial(text)
    assert str(info.value) == message
    with pytest.raises(error) as info:
        parse_equation(text + " = w")
    assert str(info.value) == message
