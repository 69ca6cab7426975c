"""Growth-lemma engine: shift-stability scans for log-convex growth data.

For a non-decreasing function T, log-convex in log r, the scans here measure
where the displayed shift inequalities fail on a geometric grid, report the
failure set's densities and logarithmic measure, and certify slow-growth
hypotheses by trend.  Limits are not computable, so each report pairs the
horizon value with a doubling-stability surrogate.
"""

from __future__ import annotations

import math
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple

E = math.e
# the largest density of the exception set a certified scan may show
MAX_EXCEPTION_DENSITY = 0.05


class GrowthError(Exception):
    pass


class TooSmall(GrowthError):
    """T(r) <= e, outside the domain of the log-log window."""


class HypothesisViolation(GrowthError):
    """A monotonicity or convexity requirement fails on the grid."""


# ---------------------------------------------------------------------------
# growth functions


class Model:
    """A function given by its constructor arguments, whose names `_fields`
    lists: they alone define equality, hashing and repr.  Instances are
    never changed after construction."""

    _fields: Tuple[str, ...] = ()

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({args})"


class GrowthFunction(Model):
    """Positive growth data; fast-growing cases work through `log_value`."""

    label = "growth"

    def value(self, r: float) -> float:
        raise NotImplementedError

    def log_value(self, r: float) -> float:
        return math.log(self.value(r))


class PowerGrowth(GrowthFunction):
    _fields = ("rho",)

    def __init__(self, rho: float):
        self.rho = rho

    def value(self, r: float) -> float:
        return r**self.rho

    def log_value(self, r: float) -> float:
        return self.rho * math.log(r)

    @property
    def label(self) -> str:
        return f"power:{self.rho:g}"


class ExpRootGrowth(GrowthFunction):
    """T(r) = exp(r^alpha)."""

    _fields = ("alpha",)

    def __init__(self, alpha: float):
        self.alpha = alpha

    def value(self, r: float) -> float:
        return math.exp(r**self.alpha)

    def log_value(self, r: float) -> float:
        return r**self.alpha

    @property
    def label(self) -> str:
        return f"exproot:{self.alpha:g}"


class PureExpGrowth(GrowthFunction):
    def value(self, r: float) -> float:
        return math.exp(r)

    def log_value(self, r: float) -> float:
        return r

    label = "exp"


# radii in the largest grid a scan builds
MAX_GRID_RADII = 10**6


def geometric_grid(r_min: float, r_max: float, ratio: float) -> List[float]:
    if ratio <= 1:
        raise ValueError("grid ratio must exceed 1")
    if r_min <= 0:
        raise ValueError(f"grid start must be positive, got {r_min}")
    if r_max < r_min:
        raise ValueError(f"grid end {r_max:g} is below its start {r_min:g}")
    if r_max > r_min and math.log(r_max / r_min) / math.log(ratio) > MAX_GRID_RADII:
        raise ValueError(
            f"grid from {r_min:g} to {r_max:g} at ratio {ratio} needs more than "
            f"{MAX_GRID_RADII} radii; use a larger ratio"
        )
    out = []
    r = r_min
    while r < r_max:
        out.append(r)
        r *= ratio
    out.append(r_max)
    return out


# ---------------------------------------------------------------------------
# exception sets and densities


class _ExceptionSetFields(NamedTuple):
    intervals: Tuple[Tuple[float, float], ...]
    horizon: float


class ExceptionSet(_ExceptionSetFields):
    __slots__ = ()

    def __new__(cls, intervals: Tuple[Tuple[float, float], ...], horizon: float) -> "ExceptionSet":
        prev = 1.0
        for a, b in intervals:
            if a < prev - 1e-12 or b < a or b > horizon + 1e-9:
                raise ValueError("intervals must be disjoint, ordered, within horizon")
            prev = b
        return super().__new__(cls, intervals, horizon)

    @property
    def is_empty(self) -> bool:
        return not self.intervals


class DensityReport(NamedTuple):
    lower_density: float
    upper_density: float
    linear_measure: float
    log_measure: float


def exception_set_from_grid(
    grid: Sequence[float], failing: Sequence[bool], horizon: float
) -> ExceptionSet:
    """Failing grid points cover their grid cell; adjacent cells merge."""
    intervals: List[Tuple[float, float]] = []
    for k, bad in enumerate(failing):
        if not bad:
            continue
        a = grid[k]
        b = grid[k + 1] if k + 1 < len(grid) else horizon
        b = min(b, horizon)
        if intervals and a <= intervals[-1][1] + 1e-12:
            intervals[-1] = (intervals[-1][0], max(intervals[-1][1], b))
        else:
            intervals.append((a, b))
    return ExceptionSet(tuple(intervals), horizon)


def linear_measure(es: ExceptionSet) -> float:
    return math.fsum(b - a for a, b in es.intervals)


def log_measure(es: ExceptionSet) -> float:
    return math.fsum(math.log(b / a) for a, b in es.intervals if a > 0)


def _measure_up_to(es: ExceptionSet, r: float) -> float:
    return math.fsum(min(b, r) - a for a, b in es.intervals if a < r)


def densities(es: ExceptionSet) -> DensityReport:
    """Density estimates at the horizon.

    The liminf/limsup surrogates are the extremes of |E ∩ [1,r]| / r over
    the top half [horizon/2, horizon]; the true limits need r -> oo, so
    callers pair this with a doubling-stability check.
    """
    horizon = es.horizon
    window_lo = max(1.0, horizon / 2)
    probes = {window_lo, horizon}
    for a, b in es.intervals:
        for p in (a, b):
            if window_lo <= p <= horizon:
                probes.add(p)
    vals = [( _measure_up_to(es, r) / r) for r in sorted(probes)]
    return DensityReport(
        lower_density=min(vals),
        upper_density=max(vals),
        linear_measure=linear_measure(es),
        log_measure=log_measure(es),
    )


# ---------------------------------------------------------------------------
# shift-window functionals


def phi(T: GrowthFunction, r: float) -> float:
    """Running maximum of t / max(1, log T(t)) over [1, r]."""
    if r < 1:
        raise ValueError("phi is defined on [1, oo)")
    best = 0.0
    for t in geometric_grid(1.0, r, 1.0005):
        v = t / max(1.0, T.log_value(t))
        if v > best:
            best = v
    return best


def phi_eps(T: GrowthFunction, eps: float, r: float) -> float:
    """r / ((log log T(r))^(1+eps) * log T(r)); needs T(r) > e."""
    lt = T.log_value(r)
    if lt <= 1.0:
        raise TooSmall(f"T({r:g}) <= e")
    return r / (math.log(lt) ** (1.0 + eps) * lt)


# ---------------------------------------------------------------------------
# scans


class ScanRow(NamedTuple):
    r: float
    lhs: float
    rhs: float
    ok: bool


class ScanResult(NamedTuple):
    rows: Tuple[ScanRow, ...]
    exceptions: ExceptionSet
    report: DensityReport
    skipped: Tuple[float, ...]  # grid points where a guard failed
    window_divergent: bool  # does the slow-growth hypothesis hold along the grid?
    certified: bool


def _scan(
    grid: Sequence[float], horizon: float, check: Callable[[float], Optional[ScanRow]]
) -> Tuple[Tuple[ScanRow, ...], ExceptionSet, DensityReport, Tuple[float, ...]]:
    """Run `check` at each grid radius, in order: a row, or None where a guard
    of the lemma fails and the radius is skipped.  Returns the rows, the
    exception set of the failing rows, its densities and the skipped radii."""
    rows: List[ScanRow] = []
    failing: List[bool] = []
    skipped: List[float] = []
    for r in grid:
        row = check(r)
        if row is None:
            skipped.append(r)
        else:
            rows.append(row)
        failing.append(row is not None and not row.ok)
    es = exception_set_from_grid(grid, failing, horizon)
    return tuple(rows), es, densities(es), tuple(skipped)


def decays(values: Sequence[float]) -> bool:
    """Trend test on a quantity sampled along a grid: at least four samples,
    and the last at most half the one a quarter of the way through."""
    return len(values) >= 4 and values[-1] <= 0.5 * values[len(values) // 4]


def scan_additive_shift(T: GrowthFunction, delta: float, horizon: float) -> ScanResult:
    """Check T(r + window^delta) <= T(r) + 4*window^(delta-1/2)*T(r).

    The window is the running max of t/max(1, log T(t)).  Certification of a
    vanishing failure density additionally requires the window to diverge
    along the grid, which is the testable face of the slow-growth
    hypothesis; a bounded window (e.g. T = e^r) must not certify.
    """
    if not 0 < delta < 0.5:
        raise ValueError("delta must lie in (0, 1/2)")
    grid = geometric_grid(1.0, horizon, 1.01)
    window_at: List[float] = []

    def check(r: float) -> ScanRow:
        best = max(window_at[-1] if window_at else 0.0, r / max(1.0, T.log_value(r)))
        window_at.append(best)
        log_lhs = T.log_value(r + best**delta)
        log_rhs = T.log_value(r) + math.log1p(4.0 * best ** (delta - 0.5))
        return ScanRow(r, log_lhs, log_rhs, log_lhs <= log_rhs)

    rows, es, rep, skipped = _scan(grid, horizon, check)
    # compare the window at the horizon against its value a quarter through
    quarter = window_at[len(grid) // 4]
    divergent = window_at[-1] >= 2.0 * quarter and window_at[-1] > 4.0
    return ScanResult(rows, es, rep, skipped, divergent,
                      divergent and rep.lower_density <= MAX_EXCEPTION_DENSITY)


def scan_windowed_shift(T: GrowthFunction, delta: float, eps: float, horizon: float) -> ScanResult:
    """Check both T(r + window^delta) <= T(r)*(1 + 4e*window^(delta-1)) and
    T(r + window) <= e*T(r) for the log-log window.

    Grid points where T(r) <= e, window <= 2^(1/(1-delta)) or window >= r are
    guard failures of the lemma and recorded as skipped, not failures.
    """
    if not 0 < delta < 1:
        raise ValueError("delta must lie in (0, 1)")
    grid = geometric_grid(1.0, horizon, 1.01)
    guard = 2.0 ** (1.0 / (1.0 - delta))
    # testable face of the hypothesis (log r)^(1+eps) log T(r) / r -> 0,
    # sampled wherever T(r) > e
    pressures: List[float] = []

    def check(r: float) -> Optional[ScanRow]:
        try:
            w = phi_eps(T, eps, r)
        except TooSmall:
            return None
        pressures.append(math.log(r) ** (1.0 + eps) * T.log_value(r) / r)
        if w <= guard or w >= r:
            return None
        gap1 = T.log_value(r + w**delta) - T.log_value(r) - math.log1p(
            4.0 * E * w ** (delta - 1.0)
        )
        gap2 = T.log_value(r + w) - T.log_value(r) - 1.0
        return ScanRow(r, max(gap1, gap2), 0.0, gap1 <= 0 and gap2 <= 0)

    rows, es, rep, skipped = _scan(grid, horizon, check)
    divergent = decays(pressures)
    # a grid on which every radius was skipped tested nothing
    certified = divergent and bool(rows) and rep.log_measure < math.inf
    return ScanResult(rows, es, rep, skipped, divergent, certified)


def scan_fixed_shift(T: GrowthFunction, h: float, K: float, horizon: float) -> ScanResult:
    """Finite-order branch: T(r+h) <= T(r) + 4*h*K*T(r)/r with caller's K."""
    if not h > 0:  # a zero shift holds vacuously
        raise ValueError(f"h must be positive, got {h:g}")
    if not K >= 0:
        raise ValueError(f"K must be non-negative, got {K:g}")
    grid = geometric_grid(1.0, horizon, 1.01)

    def check(r: float) -> ScanRow:
        log_lhs = T.log_value(r + h)
        log_rhs = T.log_value(r) + math.log1p(4.0 * h * K / r)
        return ScanRow(r, log_lhs, log_rhs, log_lhs <= log_rhs)

    rows, es, rep, skipped = _scan(grid, horizon, check)
    # finite logarithmic measure implies zero density, which is what a
    # finite grid can show
    return ScanResult(rows, es, rep, skipped, True, rep.upper_density <= MAX_EXCEPTION_DENSITY)


# ---------------------------------------------------------------------------
# covering bound for slow landings (classical Edrei–Fuchs lemma)


class CoveringBound(NamedTuple):
    measured: float
    bound: float
    rows: Tuple[ScanRow, ...]


def edrei_fuchs_bound(
    psi: Callable[[float], float], varphi: Callable[[float], float], a: float, A: float
) -> CoveringBound:
    """Measure {r in [a, A]: psi(r + varphi(psi(r))) >= psi(r) + 1} and bound
    it by the integral of varphi over [psi(a)-1, psi(A)].

    psi must be non-decreasing and varphi non-increasing on the scanned
    range (checked on the grid).
    """
    if not a < A:
        raise ValueError("need a < A")
    grid = geometric_grid(a, A, 1.005)
    psi_vals = [psi(r) for r in grid]
    for x, y in zip(psi_vals, psi_vals[1:]):
        if y < x - 1e-12 * max(1.0, abs(x)):
            raise HypothesisViolation("psi must be non-decreasing")
    phis = [varphi(v) for v in psi_vals]
    for x, y in zip(phis, phis[1:]):
        if y > x + 1e-12 * max(1.0, abs(x)):
            raise HypothesisViolation("varphi must be non-increasing along psi")

    def lands_slow(r: float) -> bool:
        p = psi(r)
        return psi(r + varphi(p)) >= p + 1.0

    flags = [lands_slow(r) for r in grid]
    measured = 0.0
    rows = []
    for k in range(len(grid) - 1):
        lo, hi = grid[k], grid[k + 1]
        fl, fr = flags[k], flags[k + 1]
        if fl and fr:
            measured += hi - lo
        elif fl != fr:
            # refine the transition point by bisection
            x0, x1 = lo, hi
            for _ in range(60):
                mid = 0.5 * (x0 + x1)
                if lands_slow(mid) == fl:
                    x0 = mid
                else:
                    x1 = mid
            measured += (x0 - lo) if fl else (hi - x1)
        rows.append(ScanRow(lo, 1.0 if fl else 0.0, 1.0, True))
    bound = _integrate(varphi, psi_vals[0] - 1.0, psi_vals[-1], 1e-6)
    return CoveringBound(measured=measured, bound=bound, rows=tuple(rows))


def _integrate(f: Callable[[float], float], lo: float, hi: float, rel_tol: float) -> float:
    if hi <= lo:
        return 0.0

    def simpson(x0: float, x2: float, f0: float, f1: float, f2: float) -> float:
        return (x2 - x0) / 6.0 * (f0 + 4.0 * f1 + f2)

    total = 0.0
    stack = [(lo, hi, f(lo), f(0.5 * (lo + hi)), f(hi), 40)]
    while stack:
        x0, x2, f0, f1, f2, depth = stack.pop()
        xm = 0.5 * (x0 + x2)
        xl, xr = 0.5 * (x0 + xm), 0.5 * (xm + x2)
        fl, fr = f(xl), f(xr)
        whole = simpson(x0, x2, f0, f1, f2)
        left = simpson(x0, xm, f0, fl, f1)
        right = simpson(xm, x2, f1, fr, f2)
        if depth <= 0 or abs(left + right - whole) <= 15.0 * rel_tol * max(
            abs(left + right), 1e-300
        ):
            total += left + right + (left + right - whole) / 15.0
        else:
            stack.append((x0, xm, f0, fl, f1, depth - 1))
            stack.append((xm, x2, f1, fr, f2, depth - 1))
    return total
