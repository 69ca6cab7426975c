"""Which error a numeric table reports, and that no scan parameter ends in a
traceback: a table raises the error a scan in radius order meets first,
whichever of its columns stops there."""

import contextlib
import io
import math
import re
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nevdiff import charfn as cf
from nevdiff import growth as g
from nevdiff.cli import main


def _stop_columns(monkeypatch, stops):
    """End the quadrature column of each model type named in `stops` at its
    first radius at or above the stop, with an error naming the column."""
    real = cf._means_prefix

    def means_prefix(model, radii, tol_unit, *args, **kwargs):
        means, err = real(model, radii, tol_unit, *args, **kwargs)
        name = type(model).__name__
        cut = next((j for j, r in enumerate(radii) if name in stops and r >= stops[name]),
                   len(radii))
        if cut < len(means):
            return means[:cut], cf.NumericalBreakdown(f"{name} at r={radii[cut]:.6f}")
        return means, err

    monkeypatch.setattr(cf, "_means_prefix", means_prefix)


def _raised(call):
    with pytest.raises(cf.NumericalBreakdown) as info:
        call()
    name, r = re.fullmatch(r"(\w+) at r=([\d.]+)", str(info.value)).groups()
    return name, float(r)


# rows at r = 20, 30, 45, 67.5, 100; the far column is f at r0 = 3, then at r + 1
@pytest.mark.parametrize(
    "stops, first",
    [
        ({"Shifted": 60.0, "RationalFn": 40.0}, ("RationalFn", 46.0)),  # far, row 2
        ({"Shifted": 40.0, "RationalFn": 60.0}, ("Shifted", 45.0)),  # lhs, row 2
        ({"RationalFn": 60.0}, ("RationalFn", 68.5)),  # far, row 3
        ({"Shifted": 60.0, "RationalFn": 2.0}, ("RationalFn", 3.0)),  # far at r0
    ],
)
def test_shift_table_raises_the_first_error_by_radius(monkeypatch, stops, first):
    _stop_columns(monkeypatch, stops)
    model = cf.model_from_spec("rational:{1}/{z-1}")
    got = _raised(lambda: cf.shift_inequality_sweep(model, 1 + 0j, 20.0, 100.0, 1.5))
    assert got == pytest.approx(first)


# radii 10, 15, 22.5, 33.75, 50.625, ... up to 200; T(r, e^z) = r/pi > e on all
@pytest.mark.parametrize(
    "stops, first",
    [
        ({"ExpPoly": 60.0, "Quotient": 30.0}, ("Quotient", 33.75)),  # m first
        ({"ExpPoly": 30.0, "Quotient": 60.0}, ("ExpPoly", 33.75)),  # T first
        ({"ExpPoly": 40.0, "Quotient": 40.0}, ("ExpPoly", 50.625)),  # T, m never there
    ],
)
def test_logdiff_scan_raises_the_first_error_by_radius(monkeypatch, stops, first):
    _stop_columns(monkeypatch, stops)
    model = cf.model_from_spec("exp:z")
    got = _raised(lambda: cf.verify_logdiff_bound(model, 1 + 0j, 0.25, 1.0, 200.0,
                                                  r_min=10.0, ratio=1.5))
    assert got == pytest.approx(first)


# the level-2 window: radii 15.5 + k * 0.096875, k = 0..5
@pytest.mark.parametrize(
    "stops, first",
    [
        ({"CanonicalProduct": 15.6, "Shifted": 15.7, "Quotient": 15.8},
         ("CanonicalProduct", 15.69375)),
        ({"CanonicalProduct": 15.8, "Shifted": 15.6, "Quotient": 15.55},
         ("Quotient", 15.596875)),
        ({"CanonicalProduct": 15.8, "Shifted": 15.6}, ("Shifted", 15.69375)),
        ({"Quotient": 15.55}, ("Quotient", 15.596875)),
        ({"Shifted": 15.9, "Quotient": 15.9}, ("Shifted", 15.984375)),
    ],
)
def test_product_table_raises_the_first_error_by_radius(monkeypatch, stops, first):
    _stop_columns(monkeypatch, stops)
    model, _ = cf.build_example_product(2)
    got = _raised(lambda: cf.example_product_report(model, 2))
    assert got == pytest.approx(first)


class StackedPoles(cf.MeromorphicModel):
    """Poles at 5 and at the two radii that 5 is nudged to, so that the
    circle |z| = 5 stays on a pole after 3 nudges."""

    def log_abs(self, z):
        return np.zeros(z.shape)

    def divisor_blocks(self, kind, offset=0j):
        mags = [5.0, 5.0 * (1.0 + 1e-9)]
        mags.append(mags[-1] * (1.0 + 1e-9))
        return [(complex(m) - offset, 1) for m in mags if kind == "poles"], ()


# radii 3, 4, 5, 6: the pole nudge stops at 5, and the quadrature runs on the
# radii before it
@pytest.mark.parametrize(
    "stops, first",
    [
        ({"StackedPoles": 4.0}, "StackedPoles at r=4.000000"),  # quadrature first
        ({"StackedPoles": 5.0}, "poles stayed on |z| = 5 after 3 nudges"),
        ({}, "poles stayed on |z| = 5 after 3 nudges"),
    ],
)
def test_characteristic_raises_a_quadrature_stop_before_a_pole_on_the_circle(
    monkeypatch, stops, first
):
    _stop_columns(monkeypatch, stops)
    with pytest.raises(cf.NumericalBreakdown) as info:
        cf.characteristic_samples(StackedPoles(), [3.0, 4.0, 5.0, 6.0])
    assert str(info.value) == first
    assert isinstance(info.value, cf.PoleOnCircle) == first.startswith("poles")


def test_windows_past_the_float_range_are_numerical_breakdowns():
    # (log log T)^(1+eps) underflows to 0 just above T = e, overflows at r = 5
    with pytest.raises(cf.NumericalBreakdown, match=r"^log-log window .* at r=1.25$"):
        g.phi_eps(g.PowerGrowth(5), 1000.0, 1.25)
    with pytest.raises(cf.NumericalBreakdown, match=r"^log-log window .* at r=5$"):
        g.phi_eps(g.PowerGrowth(5), 1000.0, 5.0)
    with pytest.raises(cf.NumericalBreakdown, match=r"^slow-growth pressure .* at r=10$"):
        g.pressure(10.0, 5.0 * math.log(10.0), 1000.0)
    assert g.pressure(10.0, 2.0, 1.0) == math.log(10.0) ** 2.0 * 2.0 / 10.0


def test_a_guard_past_the_float_range_skips_every_radius():
    # 2^(1/(1-delta)) overflows for delta within 2^-10 of 1: no window clears it
    res = g.scan_windowed_shift(g.PureExpGrowth(), 0.99999, 0.0, 100.0)
    assert res.rows == () and len(res.skipped) == len(g.geometric_grid(1.0, 100.0, 1.01))
    assert not res.certified


# exp:z, radii 10, 15, 22.5, 33.75, 50.625, 75.9375, ...: at eps = 500 the
# pressure overflows first at r = 75.9375
@pytest.mark.parametrize(
    "stops, first",
    [
        ({"Quotient": 30.0}, "Quotient at r=33.750000"),  # m before the pressure
        ({}, "slow-growth pressure overflows at r=75.9375"),
        # m is not computed where the pressure stopped
        ({"Quotient": 70.0}, "slow-growth pressure overflows at r=75.9375"),
        ({"ExpPoly": 70.0}, "ExpPoly at r=75.937500"),  # T before the pressure
        ({"ExpPoly": 100.0}, "slow-growth pressure overflows at r=75.9375"),  # T later
    ],
)
def test_logdiff_pressure_is_a_column_between_t_and_m(monkeypatch, stops, first):
    _stop_columns(monkeypatch, stops)
    model = cf.model_from_spec("exp:z")
    with pytest.raises(cf.NumericalBreakdown) as info:
        cf.verify_logdiff_bound(model, 1 + 0j, 0.25, 500.0, 200.0, r_min=10.0, ratio=1.5)
    assert str(info.value) == first


_DELTA_MAX = {"density": 0.5, "logmeasure": 1.0, "fixed": 0.5}
_GROWTHS = st.one_of(st.just("exp"),
                     st.floats(0.01, 10.0).map(lambda rho: f"power:{rho!r}"),
                     st.floats(0.01, 1.0).map(lambda alpha: f"exproot:{alpha!r}"))


@st.composite
def _scan_argv(draw):
    eps, horizon = draw(st.floats(0.0, 2000.0)), draw(st.floats(1.0, 1e3))
    if draw(st.booleans()):
        variant = draw(st.sampled_from(sorted(_DELTA_MAX)))
        head = ["growth-scan", "--growth", draw(_GROWTHS), "--variant", variant]
        delta = draw(st.floats(0.0, _DELTA_MAX[variant], exclude_min=True, exclude_max=True))
    else:
        head = ["logdiff-check", "--model", draw(st.sampled_from(["exp:z", "rational:{z^2-2}"])),
                "--ratio", repr(draw(st.floats(1.05, 2.0)))]
        delta = draw(st.floats(0.0, 0.5, exclude_min=True, exclude_max=True))
    return head + ["--delta", repr(delta), "--eps", repr(eps), "--horizon", repr(horizon)]


_CONSTANTS = ["0", "1", "-1", "i", "-i", "2+i", "1/2", "-1/2*i", "1e3"]
_POLYS = ["0", "z-z", "z", "-z", "z^2+3*z", "1", "z-1"]


@st.composite
def _model_spec(draw):
    kind = draw(st.sampled_from(["exp", "rational", "product"]))
    if kind == "exp":
        spec = "exp:" + draw(st.sampled_from(_POLYS))
    elif kind == "rational":
        spec = f"rational:{{{draw(st.sampled_from(_POLYS))}}}/{{{draw(st.sampled_from(_POLYS))}}}"
    else:
        spec = f"product:s={draw(st.integers(1, 2))}"
    for c in draw(st.lists(st.sampled_from(_CONSTANTS), max_size=2)):
        spec = f"shift:{c}:{spec}"
    return spec


@st.composite
def _spec_argv(draw):
    sub = draw(st.sampled_from(["characteristic", "shift-check", "logdiff-check"]))
    argv = [sub, "--model", draw(_model_spec())]
    r_min = draw(st.sampled_from([1.5, 3.0, 10.0]))
    top = r_min * 1.5 ** draw(st.integers(0, 8))
    argv += ["--r-min", repr(r_min), "--ratio", "1.5",
             "--horizon" if sub == "logdiff-check" else "--r-max", repr(top)]
    if sub != "characteristic":
        argv.append("--c=" + ",".join(draw(st.lists(st.sampled_from(_CONSTANTS),
                                                     min_size=1, max_size=2))))
    return argv


# model specs, signed shift constants and the zero polynomial included
@given(st.one_of(_scan_argv(), _spec_argv()))
@settings(max_examples=120, deadline=None)
def test_scan_parameters_end_in_a_report_or_one_error_line(argv):
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(err):
        code = main(argv + ["--out", f"{tmp}/report.csv"])
    assert code in (0, 1, 2)
    if code == 1:
        assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n"), err.getvalue()
