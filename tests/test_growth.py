import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nevdiff import growth as g

from helpers import edrei_fuchs_bound


def test_growth_functions_compare_by_type_and_arguments():
    assert g.PowerGrowth(2) == g.PowerGrowth(2.0) != g.PowerGrowth(3)
    assert g.ExpRootGrowth(0.5) == g.ExpRootGrowth(0.5) != g.ExpRootGrowth(0.25)
    assert g.PowerGrowth(2) != g.ExpRootGrowth(2) and g.PowerGrowth(2) != (2,)
    assert g.PureExpGrowth() == g.PureExpGrowth()
    assert hash(g.PowerGrowth(2)) == hash(g.PowerGrowth(2.0))
    assert repr(g.ExpRootGrowth(0.5)) == "ExpRootGrowth(alpha=0.5)"


def test_phi_eps_formula_oracle():
    r = math.e**10
    got = g.phi_eps(g.PowerGrowth(2), 1.0, r)
    assert got == pytest.approx(r / (math.log(20.0) ** 2 * 20.0), rel=1e-12)


def test_phi_eps_domain_guard():
    with pytest.raises(g.TooSmall):
        g.phi_eps(g.PowerGrowth(2), 1.0, 1.1)


def test_phi_eps_monotone_in_eps():
    r = 1e6
    T = g.PowerGrowth(2)
    assert g.phi_eps(T, 0.5, r) >= g.phi_eps(T, 1.5, r)


# -- scans --------------------------------------------------------------------


def test_additive_scan_certifies_minimal_hyper_type():
    for T in (g.PowerGrowth(2), g.PowerGrowth(5), g.ExpRootGrowth(0.5)):
        res = g.scan_additive_shift(T, 0.25, 1e4)
        assert res.certified, T.label
        assert res.report.lower_density <= 0.05


def test_additive_scan_negative_control():
    res = g.scan_additive_shift(g.PureExpGrowth(), 0.25, 1e4)
    assert not res.certified
    assert not res.window_divergent


def test_additive_scan_delta_guard():
    with pytest.raises(ValueError):
        g.scan_additive_shift(g.PowerGrowth(2), 0.7, 100.0)


def test_windowed_scan_power():
    res = g.scan_windowed_shift(g.PowerGrowth(5), 0.5, 1.0, 1e4)
    assert res.certified
    doubled = g.scan_windowed_shift(g.PowerGrowth(5), 0.5, 1.0, 2e4)
    assert doubled.report.log_measure <= res.report.log_measure + 0.1


def test_windowed_scan_guards_recorded():
    res = g.scan_windowed_shift(g.PowerGrowth(5), 0.5, 1.0, 1e3)
    assert res.skipped, "guard region must be recorded"


class RunningIntegral(g.GrowthFunction):
    """T(r) = r - 1, the running integral of A(t)/t for A(t) = t."""

    def log_value(self, r):
        return math.log(max(r - 1.0, 1e-12))


def test_windowed_scan_running_integral_instance():
    res = g.scan_windowed_shift(RunningIntegral(), 0.5, 1.0, 1e4)
    assert res.exceptions.intervals == ()


def test_fixed_shift_scan():
    res = g.scan_fixed_shift(g.PowerGrowth(3), 1.0, 8.0, 1e4)
    assert res.exceptions.intervals == ()


# -- exception sets and densities ----------------------------------------------


def test_exception_set_validation():
    with pytest.raises(ValueError):
        g.ExceptionSet(((2.0, 1.0),), 10.0)
    with pytest.raises(ValueError):
        g.ExceptionSet(((1.0, 3.0), (2.0, 4.0)), 10.0)


def test_densities_full_interval():
    rep = g.densities(g.ExceptionSet(((1.0, 1e6),), 1e6))
    assert rep.lower_density == pytest.approx(1.0, abs=1e-4)
    assert rep.upper_density == pytest.approx(1.0, abs=1e-4)


def test_densities_empty():
    rep = g.densities(g.ExceptionSet((), 100.0))
    assert rep == g.DensityReport(0.0, 0.0, 0.0, 0.0)


def test_densities_dyadic_example():
    ivs = tuple((float(2**k), float(2**k + 1)) for k in range(20))
    rep = g.densities(g.ExceptionSet(ivs, float(2**20)))
    assert rep.linear_measure == pytest.approx(20.0)
    assert rep.upper_density < 1e-4
    bigger = tuple((float(2**k), float(2**k + 1)) for k in range(24))
    rep2 = g.densities(g.ExceptionSet(bigger, float(2**24)))
    assert rep2.upper_density < rep.upper_density


def test_log_measure_ordering():
    es = g.ExceptionSet(((2.0, 4.0), (8.0, 9.0)), 100.0)
    assert g.log_measure(es) <= g.linear_measure(es)
    assert g.log_measure(es) == pytest.approx(math.log(2.0) + math.log(9.0 / 8.0))


@given(
    st.lists(
        st.tuples(st.floats(1.0, 500.0), st.floats(0.1, 30.0)),
        min_size=0,
        max_size=8,
    )
)
@settings(max_examples=150)
def test_density_report_invariants(raw):
    horizon = 1000.0
    start = 1.0
    ivs = []
    for gap, width in sorted(raw):
        a = max(start, gap)
        b = min(a + width, horizon)
        if b > a:
            ivs.append((a, b))
            start = b + 1e-9
    es = g.ExceptionSet(tuple(ivs), horizon)
    rep = g.densities(es)
    assert 0.0 <= rep.lower_density <= rep.upper_density <= 1.0 + 1e-12
    assert rep.log_measure <= rep.linear_measure + 1e-12


# -- covering bound -------------------------------------------------------------


def test_covering_bound_log_window():
    # psi(r) = log T(e^r) for T = r^3, with the reciprocal-log-square window
    def psi(r):
        return 3.0 * r

    def varphi(t):
        t = max(t, 1.2)
        return 1.0 / (t * math.log(t) ** 2)

    measured, bound = edrei_fuchs_bound(psi, varphi, 2.0, 1000.0)
    assert measured <= bound + 1e-6 * max(1.0, abs(bound))


def test_covering_bound_zero_window():
    assert edrei_fuchs_bound(lambda r: r, lambda t: 0.0, 2.0, 50.0) == (0.0, 0.0)


def test_covering_bound_constant_psi():
    measured, _ = edrei_fuchs_bound(lambda r: 5.0, lambda t: 1.0, 2.0, 50.0)
    assert measured == 0.0


def test_covering_bound_near_tight():
    measured, bound = edrei_fuchs_bound(
        lambda r: r * r, lambda t: 0.5 / math.sqrt(max(t, 1e-12)), 4.0, 100.0
    )
    assert measured <= bound + 1e-6 * bound
    assert measured == pytest.approx(96.0, abs=1e-3)


def test_covering_bound_monotonicity_guard():
    with pytest.raises(ValueError, match="psi must be non-decreasing"):
        edrei_fuchs_bound(lambda r: -r, lambda t: 1.0, 2.0, 10.0)
    with pytest.raises(ValueError, match="varphi must be non-increasing"):
        edrei_fuchs_bound(lambda r: r, lambda t: t, 2.0, 10.0)
