import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nevdiff.poleprop import (
    Overflow,
    chain,
    chain_report_rows,
    counting_lower_bounds,
    growth_lower_bound,
)


def test_exact_rational_bounds():
    ch = chain(1, 7)
    assert list(ch.bounds) == [Fraction(3, 2) ** n for n in range(8)]


def test_ceiling_hand_oracle():
    # iterate ceil(3c/2) by hand: 1, 2, 3, 5, 8, 12, 18, 27
    ch = chain(1, 7)
    assert list(ch.ceilings) == [1, 2, 3, 5, 8, 12, 18, 27]


def test_bounds_scale_linearly():
    a = chain(1, 10)
    b = chain(2, 10)
    assert all(2 * x == y for x, y in zip(a.bounds, b.bounds))


def test_ceilings_dominate_bounds():
    ch = chain(3, 40)
    for b, c in zip(ch.bounds, ch.ceilings):
        assert c >= b
        assert c >= math.ceil(b)


def test_ceiling_loss_bound():
    ch = chain(1, 60)
    for prev, nxt in zip(ch.ceilings, ch.ceilings[1:]):
        assert Fraction(nxt, prev) >= Fraction(3, 2) - Fraction(1, prev)


def test_bounds_dominate_cubic_eventually():
    ch = chain(1, 200)
    ok = [n for n in range(1, 201) if ch.bounds[n] > n**3]
    threshold = next(n for n in range(1, 201) if all(m in ok for m in range(n, 201)))
    assert threshold <= 200
    assert all(ch.bounds[n] > n**3 for n in range(threshold, 201))
    assert threshold == 24  # exact crossover for the 3/2 ratio


def test_overflow_guard():
    with pytest.raises(Overflow):
        chain(1, 4000)


def test_skip_points_hold_flat():
    ch = chain(1, 5, skip_points=(2,))
    assert ch.bounds[2] == ch.bounds[1]
    assert ch.skipped == (2,)


def test_growth_lower_bound_holds_on_chain():
    ch = chain(1, 20)
    d, k = growth_lower_bound(ch)
    assert d == pytest.approx(1.5)
    assert k > 0
    lows = counting_lower_bounds(ch)
    for n in range(1, ch.steps + 1):
        assert lows[n] >= k * d ** (1.0 + n) - 1e-12


def test_growth_constant_scales_linearly():
    _, k1 = growth_lower_bound(chain(1, 20))
    _, k2 = growth_lower_bound(chain(2, 20))
    assert k2 == pytest.approx(2 * k1, rel=1e-12)


def test_growth_single_point():
    d, k = growth_lower_bound(chain(1, 0))
    assert d == pytest.approx(1.5)
    assert k == 0.0


def test_report_rows_shape():
    rows = chain_report_rows(chain(1, 4))
    assert [r[0] for r in rows] == [0, 1, 2, 3, 4]
    assert rows[2][1] == "9/4"
    assert rows[4][2] == 8


@given(st.integers(1, 9), st.integers(1, 60))
@settings(max_examples=80)
def test_chain_growth_property(k0, steps):
    ch = chain(k0, steps)
    assert all(b < c for b, c in zip(ch.bounds, ch.bounds[1:]))
    assert all(ch.ceilings[n] >= ch.bounds[n] for n in range(steps + 1))
