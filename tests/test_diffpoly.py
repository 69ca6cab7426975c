from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nevdiff import diffpoly as dp
from nevdiff.diffpoly import (
    BadIndex,
    EmptyPolynomial,
    Shift,
    SymbolicCoeff,
    SymbolicDuplicate,
    normalize,
    shift,
)
from nevdiff.eqparse import parse_polynomial
from nevdiff.zfield import RZ_ONE, ratz

BENCH = "w*w(z+1)+w*w(z-1)+w(z+1)*w(z-1)"


def two_shifts():
    return (shift(1, 0, 1), shift(-1, 0, 2))


def test_normalize_idempotent():
    p = parse_polynomial(BENCH)
    again = normalize(p.shifts, p.terms)
    assert again == p


def test_normalize_merges_numeric_duplicates():
    s = two_shifts()
    p = normalize(s, [(ratz((2,)), (1, 0, 0)), (ratz((3,)), (1, 0, 0))])
    assert p.terms == ((ratz((5,)), (1, 0, 0)),)


def test_normalize_drops_zero():
    s = two_shifts()
    p = normalize(s, [(ratz((0,)), (1, 0, 0))])
    assert p.is_empty


def test_normalize_rejects_symbolic_duplicate():
    s = two_shifts()
    with pytest.raises(SymbolicDuplicate):
        normalize(s, [(SymbolicCoeff("a"), (1, 0, 0)), (SymbolicCoeff("b"), (1, 0, 0))])


def test_zero_shift_rejected():
    with pytest.raises(ValueError):
        Shift(Fraction(0), Fraction(0), 1)


def test_benchmark_degree_data():
    p = parse_polynomial(BENCH)
    assert dp.total_degree(p) == 2
    assert dp.shift_degree(p, 1) == 1
    assert dp.shift_degree(p, 2) == 1
    assert dp.unshifted_degree(p) == 1
    assert dp.weight(p) == 2
    assert dp.shifted_degree(p) == 2
    assert dp.order_at_zero(p) == 0
    assert dp.is_homogeneous(p)


def test_total_degree_mixed():
    # one term of degree 3+1, one of degree 2
    p = parse_polynomial("a*w^3*w(z+1)+b*w(z-1)^2")
    assert dp.total_degree(p) == 4


def test_constant_poly_degree_zero():
    p = parse_polynomial("a0")
    assert dp.total_degree(p) == 0


def test_shift_degree_per_term_max():
    p = parse_polynomial("a*w(z+1)^2*w(z-1)+b*w(z+1)")
    assert dp.shift_degree(p, 1) == 2
    assert dp.shift_degree(p, 2) == 1


def test_pure_power_shift_degrees():
    p = parse_polynomial("w^5+w(z+1)*0^0" if False else "w^5+{0}*w(z+1)")
    # the zero-coefficient shifted term is dropped; slot survives
    assert dp.unshifted_degree(p) == 5
    assert dp.shift_degree(p, 1) == 0


def test_bad_index():
    p = parse_polynomial(BENCH)
    with pytest.raises(BadIndex):
        dp.shift_degree(p, 3)


def test_weight_vs_shifted_degree_gap():
    p = parse_polynomial("a*w(z+1)^2*w+b*w(z-1)^3*w")
    assert dp.weight(p) == 5
    assert dp.shifted_degree(p) == 3


def test_zero_weight():
    p = parse_polynomial("w^4")
    assert dp.weight(p) == 0
    assert dp.shifted_degree(p) == 0


def test_order_at_zero_cases():
    assert dp.order_at_zero(parse_polynomial(BENCH)) == 0
    assert dp.order_at_zero(parse_polynomial("w^2*(a1*w+a0)")) == 2
    assert dp.order_at_zero(parse_polynomial("a2*w^2+a1*w+a0!=0")) == 0


def test_empty_polynomial_errors():
    p = normalize(two_shifts(), [])
    for op in (dp.total_degree, dp.weight, dp.order_at_zero, dp.is_homogeneous):
        with pytest.raises(EmptyPolynomial):
            op(p)


def test_homogeneity():
    assert dp.is_homogeneous(parse_polynomial(BENCH))
    assert not dp.is_homogeneous(parse_polynomial("w(z+1)+w^2"))
    assert dp.is_homogeneous(parse_polynomial("w(z+1)*w^3"))


# -- invariants ------------------------------------------------------------

exponent_tuples = st.lists(
    st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4)),
    min_size=1,
    max_size=5,
    unique=True,
)


@given(exponent_tuples)
@settings(max_examples=200)
def test_degree_functional_inequalities(indices):
    p = normalize(two_shifts(), [(RZ_ONE, idx) for idx in indices])
    assert dp.weight(p) >= dp.shifted_degree(p)
    assert dp.unshifted_degree(p) <= dp.total_degree(p)
    assert dp.order_at_zero(p) <= dp.unshifted_degree(p)


@given(exponent_tuples, st.randoms(use_true_random=False))
@settings(max_examples=100)
def test_reorder_and_scale_invariance(indices, rng):
    terms = [(ratz((k + 1,)), idx) for k, idx in enumerate(indices)]
    p = normalize(two_shifts(), terms)
    shuffled = list(terms)
    rng.shuffle(shuffled)
    q = normalize(two_shifts(), shuffled)
    assert p == q
    scaled = normalize(p.shifts, [(c * ratz((7,), (3,)), idx) for c, idx in p.terms])
    for op in (dp.total_degree, dp.weight, dp.shifted_degree, dp.unshifted_degree,
               dp.order_at_zero):
        assert op(scaled) == op(p)


@given(exponent_tuples)
@settings(max_examples=200)
def test_homogeneous_weight_identity(indices):
    total = sum(indices[0])
    homog = [idx for idx in indices if sum(idx) == total]
    p = normalize(two_shifts(), [(RZ_ONE, idx) for idx in homog])
    assert dp.is_homogeneous(p)
    min_unshifted = min(idx[0] for idx in homog)
    assert dp.shifted_degree(p) == dp.total_degree(p) - min_unshifted
    if dp.order_at_zero(p) == 0:
        assert dp.shifted_degree(p) == dp.total_degree(p)
