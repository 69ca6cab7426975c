import math
import random
from fractions import Fraction as F

import pytest

from nevdiff import charfn as cf
from nevdiff.zfield import zp_add, zp_mul, zp_scale

F0, F1 = F(0), F(1)

Z_POLY = cf.RationalFn((F0, F1), (F1,))  # f(z) = z
INV_SHIFT = cf.RationalFn((F1,), (F(-1), F1))  # f(z) = 1/(z-1)
EXP_Z = cf.ExpPoly((F0, F1))  # e^z


# -- divisors -------------------------------------------------------------------


def test_zeros_poles_simple_pole():
    assert INV_SHIFT.poles(2.0) == [(1 + 0j, 1)]
    assert INV_SHIFT.zeros(2.0) == []


def test_zeros_poles_ring():
    prod = cf.CanonicalProduct(((8.0, 4),))
    pts = prod.zeros(10.0)
    assert len(pts) == 4
    assert all(m == 1 for _, m in pts)
    assert sorted(round(abs(z), 9) for z, _ in pts) == [8.0] * 4
    assert prod.poles(10.0) == []


def test_zeros_poles_entire_double_exponential():
    assert cf.ExpExp().zeros(100.0) == [] and cf.ExpExp().poles(100.0) == []


def test_root_isolation_multiplicity():
    sq = cf.RationalFn((F0, F0, F1), (F1,))  # z^2
    assert sq.zeros(1.0) == [(0j, 2)]


# -- counting -------------------------------------------------------------------


def test_counting_simple_pole_log_r():
    for r in (1.0, 2.0, 7.5, 100.0):
        assert cf.counting_N(INV_SHIFT, r, of="poles") == pytest.approx(math.log(r))


def test_counting_origin_zero():
    sq = cf.RationalFn((F0, F0, F1), (F1,))
    assert cf.counting_N(sq, 5.0, of="zeros") == pytest.approx(2 * math.log(5.0))


def test_counting_ring_level():
    prod = cf.CanonicalProduct(((8.0, 4),))
    assert cf.counting_N(prod, 16.0, of="zeros") == pytest.approx(4 * math.log(2.0))


def test_counting_shifted_ring_matches_bruteforce():
    prod = cf.CanonicalProduct(((8.0, 4), (16.0, 9)))
    shifted = cf.Shifted(prod, 2 + 1j)
    r = 14.0
    brute = 0.0
    for z, m in shifted.zeros(r):
        if abs(z) > 1e-12:
            brute += m * math.log(r / abs(z))
    assert cf.counting_N(shifted, r, of="zeros") == pytest.approx(brute, rel=1e-12)


def _counting_reference(model, r, of):
    """Sum of m log(r/|z|) over the materialised divisor, origin points as
    m log r."""
    pts = model.zeros(r) if of == "zeros" else model.poles(r)
    return math.fsum(
        m * math.log(r / abs(z)) if abs(z) > 1e-12 else m * math.log(r) for z, m in pts
    )


PRODUCT3 = cf.CanonicalProduct(((8.0, 1), (16.0, 300), (32.0, 5000)))


@pytest.mark.parametrize(
    "model",
    [
        PRODUCT3,
        cf.Shifted(PRODUCT3, 1.0),
        cf.Shifted(PRODUCT3, 1j),
        cf.Shifted(PRODUCT3, 2 + 1j),
        cf.Quotient(cf.Shifted(PRODUCT3, 3.0), PRODUCT3),
        cf.PowerModel(PRODUCT3, -2),
        cf.RationalFn((F(-2), F0, F1), (F0, F0, F(-1), F1)),  # (z^2-2)/(z^2 (z-1))
    ],
    ids=lambda m: m.label[:40],
)
def test_counting_index_matches_oracle(model):
    # ring radii exactly, and just either side of the shifted ring 32 - |c|
    # (its nearest point) and 32 + |c| (its farthest)
    radii = [1.0, 8.0, 16.0, 32.0, 33.0, 40.0, 70.0]
    for c_abs in (1.0, math.sqrt(5.0), 3.0):
        for edge in (32.0 - c_abs, 32.0 + c_abs):
            radii += [edge * (1 - 1e-9), edge * (1 + 1e-9)]
    for of in ("zeros", "poles"):
        for r in radii:
            got = cf.counting_N(model, r, of=of)
            want = _counting_reference(model, r, of)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12), (of, r)


def test_pole_ring_nudges_only_on_the_ring():
    quotient = cf.Quotient(cf.Shifted(PRODUCT3, 3.0), PRODUCT3)
    assert cf.proximity_m(quotient, 31.5).radius == 31.5
    assert cf.proximity_m(quotient, 32.0).radius == 32.0 * (1.0 + 1e-9)


# -- proximity ------------------------------------------------------------------


def test_proximity_identity_function():
    for r in (2.0, 10.0, 100.0):
        mean = cf.proximity_m(Z_POLY, r)
        assert abs(mean.value - math.log(r)) <= 1e-9


def test_proximity_exponential():
    for r in (5.0, 50.0):
        mean = cf.proximity_m(EXP_Z, r)
        assert abs(mean.value * math.pi / r - 1.0) <= 1e-6


def test_proximity_double_exponential_shift_factor():
    f = cf.ExpExp()
    for r in (3.0, 4.0, 5.0):
        base = cf.proximity_m(f, r)
        shifted = cf.proximity_m(cf.Shifted(f, 1.0), r)
        assert abs(shifted.value / base.value - math.e) <= 1e-4


def test_proximity_error_bounds_doubled_run():
    for model, r in ((EXP_Z, 37.0), (INV_SHIFT, 9.0), (cf.ExpExp(), 4.0)):
        a = cf._circle_mean_pos(model, r, base_panels=64)
        b = cf._circle_mean_pos(model, r, base_panels=128)
        assert abs(a.value - b.value) <= a.error + b.error + 1e-15


def test_pole_on_circle_perturbs():
    mean = cf.proximity_m(INV_SHIFT, 1.0)
    assert mean.radius > 1.0
    assert mean.radius == pytest.approx(1.0, rel=1e-8)


# -- characteristic -------------------------------------------------------------


def test_characteristic_additive():
    s = cf.characteristic_T(INV_SHIFT, 25.0)
    assert s.T == s.m + s.N


def test_characteristic_identity_function():
    s = cf.characteristic_T(Z_POLY, 50.0)
    assert s.T == pytest.approx(math.log(50.0), abs=1e-9)
    assert s.N == 0.0


def test_characteristic_exponential():
    s = cf.characteristic_T(EXP_Z, 40.0)
    assert s.T == pytest.approx(40.0 / math.pi, rel=1e-8)


def test_rational_degree_law():
    # five random monic rationals assembled from unit-modulus quadratic
    # factors z^2 + a z + 1 (and z itself), so the finite-radius constant of
    # T(r) vanishes and T(r)/log r approaches the degree cleanly
    rng = random.Random(424242)

    def build(factors, with_z):
        poly = (1,)
        for a in factors:
            poly = zp_mul(poly, (1, a, 1))
        if with_z:
            poly = zp_mul(poly, (0, 1))
        return poly

    for _ in range(5):
        num_as = [rng.choice((-1, 1)) for _ in range(rng.randint(1, 2))]
        den_as = [0 for _ in range(rng.randint(0, 1))]
        num = build(num_as, with_z=rng.random() < 0.5)
        den = build(den_as, with_z=False)
        f = cf.RationalFn(tuple(F(c) for c in num), tuple(F(c) for c in den))
        s = cf.characteristic_T(f, 1e4)
        assert s.T / math.log(1e4) == pytest.approx(f.degree, rel=0.02)


def test_characteristic_monotone_and_log_convex():
    prod, _ = cf.build_example_product(2, 1)
    grid = [20.0 * 1.3**k for k in range(10)]
    samples = [cf.characteristic_T(prod, r).T for r in grid]
    assert all(b >= a - 1e-9 for a, b in zip(samples, samples[1:]))
    ns = [cf.counting_N(prod, r, of="zeros") for r in grid]
    for a, b in zip(ns, ns[2:]):
        mid = cf.counting_N(prod, math.sqrt(grid[ns.index(a)] * grid[ns.index(a) + 2]), of="zeros")
        assert mid <= (a + b) / 2 + 1e-9


# -- shift inequalities ------------------------------------------------------------


def test_shift_check_closed_form_pole():
    rows = cf.shift_inequality_sweep(INV_SHIFT, 1.0, 20.0, 2000.0, 1.2)
    assert all(r.counting_ok and r.char_ok for r in rows)
    # both sides closed form: N(r, f_1) = log r, N(r+1, f) = log(r+1)
    first = rows[0]
    assert first.counting_lhs == pytest.approx(math.log(first.r))


def test_shift_check_zero_shift_trivial():
    # factor 1, base constant N(1) = 0: the gap is exactly zero
    row = cf.shift_inequality_check(INV_SHIFT, 0.0, 50.0)
    assert row.counting_ok and row.char_ok
    assert row.counting_slack_used == pytest.approx(0.0, abs=1e-12)


def test_shift_check_three_level_product():
    prod, _ = cf.build_example_product(3, 1)
    rows = cf.shift_inequality_sweep(prod, 2 + 1j, 20.0, 200.0, 1.25)
    assert rows[0].counting_kind == "zeros"
    assert all(r.counting_ok and r.char_ok for r in rows)


def test_triangle_inequality_for_proximity():
    for model, c, r in (
        (INV_SHIFT, 1.0, 30.0),
        (EXP_Z, 2.0, 15.0),
        (cf.CanonicalProduct(((8.0, 4),)), 1j, 40.0),
    ):
        shifted = cf.Shifted(model, c)
        lhs = cf.proximity_m(shifted, r)
        m_base = cf.proximity_m(model, r)
        m_quot = cf.log_diff_m(model, c, r)
        tol = lhs.error + m_base.error + m_quot.error + 1e-9
        assert lhs.value <= m_base.value + m_quot.value + tol
        # symmetric form through the reciprocal quotient
        m_quot_rev = cf.proximity_m(cf.Quotient(model, shifted), r)
        tol_rev = lhs.error + m_base.error + m_quot_rev.error + 1e-9
        assert m_base.value <= lhs.value + m_quot_rev.value + tol_rev


# -- logarithmic differences ---------------------------------------------------------


def test_log_diff_constant_quotient():
    mean = cf.log_diff_m(EXP_Z, 1.0, 30.0)
    assert mean.value == pytest.approx(1.0, abs=1e-9)


def test_log_diff_identity_model():
    mean = cf.log_diff_m(Z_POLY, 1.0, 100.0)
    assert 0.0 < mean.value <= math.log(2.0)
    far = cf.log_diff_m(Z_POLY, 1.0, 1e6)
    assert far.value < mean.value


def test_log_diff_vs_bound_rational():
    for r in (20.0, 80.0, 320.0):
        mean = cf.log_diff_m(INV_SHIFT, 1j, r)
        t = cf.characteristic_T(INV_SHIFT, r).T
        rhs = cf.logdiff_bound_rhs(t, r, 1.0, 0.25, 1.0)
        if rhs is not None:
            assert mean.value <= rhs


def test_verify_logdiff_exponential_clean():
    rep = cf.verify_logdiff_bound(EXP_Z, 1.0, 0.25, 1.0, 1e3)
    assert rep.exceptions.is_empty
    assert not rep.negative_control


def test_verify_logdiff_zero_shift():
    rep = cf.verify_logdiff_bound(EXP_Z, 0.0, 0.25, 1.0, 1e3)
    assert rep.exceptions.is_empty


def test_verify_logdiff_double_exponential_flagged():
    rep = cf.verify_logdiff_bound(
        cf.ExpExp(), 1.0, 0.25, 1.0, 40.0, r_min=3.0, ratio=1.2
    )
    assert rep.negative_control


# -- the separating product -----------------------------------------------------------


def test_build_product_levels():
    model, cert = cf.build_example_product(2, 1)
    assert model.levels[0] == (8.0, 1)
    assert model.levels[1][0] == 16.0
    # smallest integer above 4 * 16 * log(16)^2 = 491.98...
    assert model.levels[1][1] == 492
    assert all(ok for *_, ok in cert.rows)
    assert cert.doubling_ok and cert.base_ok


def test_build_product_single_level():
    model, _ = cf.build_example_product(1, 3)
    assert model.levels == ((8.0, 3),)


def test_build_product_counts_increase():
    model, _ = cf.build_example_product(3, 1)
    counts = [nk for _, nk in model.levels]
    assert counts == sorted(counts)
    assert counts[2] == 757963


def test_build_product_overflow():
    with pytest.raises(cf.Overflow):
        cf.build_example_product(4, 1)


def test_product_report_degenerate_level_one():
    model, _ = cf.build_example_product(1, 2)
    rows = cf.example_product_report(model, 1, samples=3)
    assert len(rows) == 3  # diagnostic only, no separation expected


def test_product_report_separation_at_level_two():
    model, _ = cf.build_example_product(2, 1)
    rows = cf.example_product_report(model, 2)
    assert all(r.separation_ratio >= 0.95 for r in rows)
    assert all(r.smallness_ratio <= 0.05 for r in rows)


def test_product_trend_improves_with_depth():
    m2, _ = cf.build_example_product(2, 1)
    m3, _ = cf.build_example_product(3, 1)
    rows2 = cf.example_product_report(m2, 2)
    rows3 = cf.example_product_report(m3, 3)
    for a, b in zip(rows2, rows3):
        assert b.separation_ratio > a.separation_ratio
        assert b.smallness_ratio < a.smallness_ratio


# -- finite-order residuals ---------------------------------------------------------


def test_residual_fit_simple_pole():
    fit = cf.shift_identity_finite_order(INV_SHIFT, 1.0, 1e4)
    assert not fit.all_zero
    assert fit.fitted_exponent is not None and fit.fitted_exponent <= 0.0


def test_residual_fit_polynomial_no_poles():
    fit = cf.shift_identity_finite_order(Z_POLY, 1.0, 1e3, of="poles")
    assert fit.all_zero


def test_residual_fit_product_zeros():
    prod, _ = cf.build_example_product(2, 1)
    fit = cf.shift_identity_finite_order(prod, 1.0, 1e4, of="zeros")
    assert fit.fitted_exponent is not None
    assert fit.fitted_exponent < fit.order_estimate + 1.0


# -- degree law under composition ------------------------------------------------------


def test_valiron_degree_law_composition():
    # R(w) = (w^2 + 1)/(w - 2) composed with f = (z^2 + 3)/(z + 1)
    fn, fd = (3, 0, 1), (1, 1)
    comp_num = zp_add(zp_mul(fn, fn), zp_mul(fd, fd))
    comp_den = zp_mul(fd, zp_add(fn, zp_scale(fd, -2)))
    f = cf.RationalFn((F(3), F0, F1), (F1, F1))
    rf = cf.RationalFn(tuple(F(c) for c in comp_num), tuple(F(c) for c in comp_den))
    r = 1e4
    ratio = cf.characteristic_T(rf, r).T / cf.characteristic_T(f, r).T
    assert ratio == pytest.approx(2.0, rel=0.02)


# -- mini-language ---------------------------------------------------------------------


def test_model_spec_rational():
    m = cf.model_from_spec("rational:{1}/{z-1}")
    assert isinstance(m, cf.RationalFn)
    assert cf.counting_N(m, 10.0, of="poles") == pytest.approx(math.log(10.0))


def test_model_spec_product_and_shift():
    m = cf.model_from_spec("shift:2+i:product:s=2,n1=1")
    assert isinstance(m, cf.Shifted)
    assert m.c == 2 + 1j


def test_model_spec_exp_forms():
    assert isinstance(cf.model_from_spec("exp:z"), cf.ExpPoly)
    assert isinstance(cf.model_from_spec("expexp"), cf.ExpExp)
    with pytest.raises(ValueError):
        cf.model_from_spec("mystery:1")


def test_quadrature_deterministic():
    a = cf.proximity_m(EXP_Z, 33.0)
    b = cf.proximity_m(EXP_Z, 33.0)
    assert a.value == b.value and a.error == b.error
