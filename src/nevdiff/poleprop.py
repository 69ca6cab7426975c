"""Pole-order propagation along an integer progression, exactly.

When the benchmark left side equals a plain cubic in w, a pole of order k at
some point forces a pole of order at least (3/2)k one step along the
progression, and so on: pole orders grow geometrically, which pushes the
counting function above K*(3/2)^r and rules the equation out for slowly
growing solutions.  Bounds are kept as exact rationals so the geometric law
is assertable bit for bit.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Sequence, Tuple

from . import Refused

STEP_RATIO = Fraction(3, 2)  # the quadratic-vs-cubic propagation ratio
# k0 * ratio^steps may not exceed this, which keeps every bound, its
# counting sum and ratio^(1+n) in growth_lower_bound well inside the float
# range
MAX_BOUND = 1e300


class Overflow(Refused):
    """The chain would outgrow the float range."""


class PoleChain(NamedTuple):
    """Exact lower bounds (3/2)^n * k0 for pole orders along a progression.

    `ceilings` iterates the integer version c_{n+1} = ceil(3 c_n / 2);
    `skipped` lists progression indices where a coefficient degeneracy was
    assumed and the multiplicative step withheld.
    """

    k0: int
    bounds: Tuple[Fraction, ...]
    ceilings: Tuple[int, ...]
    skipped: Tuple[int, ...] = ()

    @property
    def steps(self) -> int:
        return len(self.bounds) - 1


def chain(k0: int, steps: int, *, skip_points: Sequence[int] = ()) -> PoleChain:
    """Build the chain of exact bounds and integer ceilings."""
    if k0 < 1:
        raise ValueError("initial pole order must be at least 1")
    if steps < 0:
        raise ValueError("steps must be non-negative")
    if math.log(k0) + steps * math.log(STEP_RATIO) > math.log(MAX_BOUND):
        raise Overflow(f"{steps} steps from k0={k0} exceed the float range")
    skip = set(skip_points)
    outside = [n for n in skip if not 1 <= n <= steps]
    if outside:
        raise ValueError(f"skip step {min(outside)} is outside 1..{steps}")
    bounds = [Fraction(k0)]
    ceilings = [k0]
    for n in range(1, steps + 1):
        if n in skip:
            bounds.append(bounds[-1])
            ceilings.append(ceilings[-1])
            continue
        bounds.append(bounds[-1] * STEP_RATIO)
        ceilings.append(-((-ceilings[-1] * STEP_RATIO.numerator) // STEP_RATIO.denominator))
    return PoleChain(
        k0=k0,
        bounds=tuple(bounds),
        ceilings=tuple(ceilings),
        skipped=tuple(sorted(skip)),
    )


def counting_lower_bounds(ch: PoleChain) -> Tuple[float, ...]:
    """Lower bounds for the integrated counting function at radius 1+n.

    Uses n(t) >= bounds[m] for t >= 1+m and integrates dt/t stepwise.
    """
    out = [0.0]
    acc = 0.0
    for m in range(ch.steps):
        step = math.log((1.0 + m + 1) / (1.0 + m))
        acc += float(ch.bounds[m]) * step
        out.append(acc)
    return tuple(out)


def growth_lower_bound(ch: PoleChain) -> Tuple[float, float]:
    """Fit (D, K) with the chain's counting bound >= K * D^(1+n) throughout.

    D is the chain's step ratio; K is the largest constant the chain
    supports, so the returned pair re-checks against every chain point.
    """
    d = float(STEP_RATIO)
    n_low = counting_lower_bounds(ch)
    k = min((n_low[n] / d ** (1.0 + n) for n in range(1, ch.steps + 1)), default=0.0)
    return d, k


def chain_report_rows(ch: PoleChain) -> Tuple[Tuple[int, str, int, float], ...]:
    """Rows (n, exact bound, ceiling, cumulative counting lower bound)."""
    n_low = counting_lower_bounds(ch)
    return tuple(
        (n, str(ch.bounds[n]), ch.ceilings[n], n_low[n]) for n in range(ch.steps + 1)
    )
