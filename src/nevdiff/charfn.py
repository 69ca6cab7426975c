"""Numerical Nevanlinna characteristic engine over concrete model functions.

Counting data comes from explicit divisors in closed form, so it carries no
quadrature error; only the circle average of log+ |f| is numerical.  All
model evaluation happens in log space (never exponentiating the function
itself), which keeps canonical products with hundreds of thousands of ring
zeros computable: a ring factor 1 - (z/r_k)^(n_k) is evaluated through
n_k * log|z/r_k| with an exact middle branch, and rings too oscillatory to
resolve are replaced by their circle-mean log+ |w|, which is exact in the
mean by the classical average of log|1 - rho*e^{i phi}|.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .growth import (
    DensityReport,
    ExceptionSet,
    densities,
    exception_set_from_grid,
    geometric_grid,
)

TWO_PI = 2.0 * math.pi
LOG2 = math.log(2.0)
BOUND_CONSTANT = 436.0 * math.e  # explicit constant of the log-difference bound

# |log|w|| beyond this, 1-w is numerically 1 or w (error under 1e-17)
_EXACT_BAND = 40.0
# rings with at least this many zeros are averaged instead of resolved
_RIPPLE_AVERAGE_N = 4096


class CharFnError(Exception):
    pass


class RootIsolationFailure(CharFnError):
    pass


class PoleOnCircle(CharFnError):
    """A divisor point sits on the integration circle after 3 nudges."""


class QuadratureNonConvergence(CharFnError):
    pass


class Overflow(CharFnError):
    """A product level wants more zeros than the configured cap."""


# ---------------------------------------------------------------------------
# models


# (|z - offset|, multiplicity) float arrays of a divisor's points
Magnitudes = Tuple[np.ndarray, np.ndarray]


class MeromorphicModel:
    """A concrete function given by stable log-modulus and explicit divisors."""

    label = "model"

    def log_abs(self, z: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def zeros(self, radius: float) -> List[Tuple[complex, int]]:
        return []

    def poles(self, radius: float) -> List[Tuple[complex, int]]:
        return []

    def divisor_magnitudes(self, kind: str, offset: complex = 0j) -> Magnitudes:
        """Magnitudes of the whole finite zero ("zeros") or pole ("poles")
        divisor moved by -offset, in no particular order."""
        pts = self.zeros(math.inf) if kind == "zeros" else self.poles(math.inf)
        return (
            np.array([abs(z - offset) for z, _ in pts], dtype=float),
            np.array([m for _, m in pts], dtype=float),
        )

    def band_error(self, r: float, offset: complex = 0j) -> float:
        """Quadrature error bound on circle r from rings evaluated by their
        circle mean, with the divisor moved by -offset."""
        return 0.0

    def seed_angles(self, r: float) -> List[float]:
        """Angles where the integrand may have structure near circle r."""
        return []


_OTHER_KIND = {"zeros": "poles", "poles": "zeros"}


def _poly_floats(coeffs: Sequence[Fraction]) -> np.ndarray:
    return np.array([float(c) for c in coeffs], dtype=float)


def _polyval(coeffs: np.ndarray, z: np.ndarray) -> np.ndarray:
    acc = np.zeros_like(z)
    for c in coeffs[::-1]:
        acc = acc * z + c
    return acc


def _cluster_roots(roots: np.ndarray) -> List[Tuple[complex, int]]:
    if not np.all(np.isfinite(roots)):
        raise RootIsolationFailure("non-finite root from companion matrix")
    items = sorted((complex(z) for z in roots), key=lambda z: (abs(z), z.real, z.imag))
    out: List[Tuple[complex, int]] = []
    for z in items:
        if out and abs(z - out[-1][0]) <= 1e-7 * max(1.0, abs(z)):
            zprev, m = out[-1]
            out[-1] = ((zprev * m + z) / (m + 1), m + 1)
        else:
            out.append((z, 1))
    # snap near-origin clusters to the origin so n(0) is exact
    snapped = []
    for z, m in out:
        snapped.append((0j if abs(z) <= 1e-9 else z, m))
    return snapped


@dataclass(frozen=True)
class RationalFn(MeromorphicModel):
    """num/den with exact rational coefficients, ascending powers, coprime."""

    num: Tuple[Fraction, ...]
    den: Tuple[Fraction, ...]

    def __post_init__(self):
        if not any(self.num) or not any(self.den):
            raise ValueError("numerator and denominator must be nonzero")
        _require_coprime(self.num, self.den)

    @property
    def label(self) -> str:
        return f"rational:{{{_poly_text_frac(self.num)}}}/{{{_poly_text_frac(self.den)}}}"

    @property
    def degree(self) -> int:
        return max(_frac_degree(self.num), _frac_degree(self.den))

    def log_abs(self, z: np.ndarray) -> np.ndarray:
        with np.errstate(divide="ignore"):
            return np.log(np.abs(_polyval(_poly_floats(self.num), z))) - np.log(
                np.abs(_polyval(_poly_floats(self.den), z))
            )

    def zeros(self, radius: float) -> List[Tuple[complex, int]]:
        return [(z, m) for z, m in _poly_roots(self.num) if abs(z) <= radius]

    def poles(self, radius: float) -> List[Tuple[complex, int]]:
        return [(z, m) for z, m in _poly_roots(self.den) if abs(z) <= radius]

    def seed_angles(self, r: float) -> List[float]:
        out = []
        for z, _ in _poly_roots(self.num) + _poly_roots(self.den):
            if abs(abs(z) - r) <= 0.1 * r and z != 0:
                out.append(math.atan2(z.imag, z.real))
        return out


def _frac_degree(coeffs: Sequence[Fraction]) -> int:
    deg = -1
    for k, c in enumerate(coeffs):
        if c != 0:
            deg = k
    return deg


def _poly_text_frac(coeffs: Sequence[Fraction]) -> str:
    from .zfield import zp_text

    denom = 1
    for c in coeffs:
        denom = denom * c.denominator // math.gcd(denom, c.denominator)
    ints = tuple(int(c * denom) for c in coeffs)
    txt = zp_text(ints)
    return txt if denom == 1 else f"({txt})/{denom}"


def _require_coprime(num: Sequence[Fraction], den: Sequence[Fraction]) -> None:
    from .zfield import zp_gcd, zp_degree, zp_normal

    def clear(coeffs):
        d = 1
        for c in coeffs:
            d = d * c.denominator // math.gcd(d, c.denominator)
        return zp_normal(int(c * d) for c in coeffs)

    g = zp_gcd(clear(num), clear(den))
    if zp_degree(g) > 0:
        raise ValueError("numerator and denominator share a polynomial factor")


@lru_cache(maxsize=256)
def _poly_roots_cached(coeffs: Tuple[Fraction, ...]) -> Tuple[Tuple[complex, int], ...]:
    floats = [float(c) for c in coeffs]
    while floats and floats[-1] == 0.0:
        floats.pop()
    if len(floats) <= 1:
        return ()
    roots = np.roots(floats[::-1])
    return tuple(_cluster_roots(roots))


def _poly_roots(coeffs: Tuple[Fraction, ...]) -> List[Tuple[complex, int]]:
    return list(_poly_roots_cached(coeffs))


@dataclass(frozen=True)
class CanonicalProduct(MeromorphicModel):
    """Finite product of ring factors 1 - (z/r_k)^(n_k).

    Levels must satisfy r_1 > 6 and r_{k+1} >= 2 r_k, so rings are well
    separated and the zero set at level k is exactly the n_k-th roots of
    unity scaled by r_k.
    """

    levels: Tuple[Tuple[float, int], ...]

    def __post_init__(self):
        if not self.levels:
            raise ValueError("need at least one level")
        if self.levels[0][0] <= 6:
            raise ValueError("first ring radius must exceed 6")
        for (r0, _), (r1, _) in zip(self.levels, self.levels[1:]):
            if r1 < 2 * r0:
                raise ValueError("ring radii must at least double")
        for _, n in self.levels:
            if n < 1:
                raise ValueError("ring multiplicities are positive integers")

    @property
    def label(self) -> str:
        return "product:" + ",".join(f"({rk:g},{nk})" for rk, nk in self.levels)

    def log_abs(self, z: np.ndarray) -> np.ndarray:
        out = np.zeros(z.shape, dtype=float)
        for rk, nk in self.levels:
            out += _ring_log_abs(z, rk, nk)
        return out

    def zeros(self, radius: float) -> List[Tuple[complex, int]]:
        pts: List[Tuple[complex, int]] = []
        for rk, nk in self.levels:
            if rk <= radius:
                angles = TWO_PI * np.arange(nk) / nk
                for a in angles:
                    pts.append((rk * complex(math.cos(a), math.sin(a)), 1))
        return pts

    def divisor_magnitudes(self, kind: str, offset: complex = 0j) -> Magnitudes:
        if kind == "poles":
            return np.array([], dtype=float), np.array([], dtype=float)
        if offset == 0:
            # one block per ring: all n_k zeros sit at |z| = r_k
            return (
                np.array([rk for rk, _ in self.levels], dtype=float),
                np.array([nk for _, nk in self.levels], dtype=float),
            )
        parts = []
        for rk, nk in self.levels:
            angles = TWO_PI * np.arange(nk) / nk
            parts.append(np.abs(rk * np.exp(1j * angles) - offset))
        mags = np.concatenate(parts)
        return mags, np.ones_like(mags)

    def band_error(self, r: float, offset: complex = 0j) -> float:
        total = 0.0
        for rk, nk in self.levels:
            if nk < _RIPPLE_AVERAGE_N:
                continue
            span_lo, span_hi = r - abs(offset), r + abs(offset)
            band = rk * _EXACT_BAND / nk
            if span_lo <= rk + band and span_hi >= rk - band:
                # two transversal crossings, each an arc of order band wide
                arc = min(TWO_PI, 16.0 * band / max(r, 1.0))
                total += 2.0 * arc * 0.7
        return total

    def seed_angles(self, r: float) -> List[float]:
        out: List[float] = []
        for rk, nk in self.levels:
            if abs(rk - r) <= 0.1 * r and nk <= 256:
                out.extend((TWO_PI * j / nk) for j in range(nk))
        return out


def _ring_log_abs(z: np.ndarray, rk: float, nk: int) -> np.ndarray:
    with np.errstate(divide="ignore", invalid="ignore"):
        t = nk * (np.log(np.abs(z)) - math.log(rk))
    t = np.where(np.isnan(t), -np.inf, t)
    out = np.where(t >= _EXACT_BAND, t, 0.0)
    mid = (t > -_EXACT_BAND) & (t < _EXACT_BAND)
    if np.any(mid):
        if nk >= _RIPPLE_AVERAGE_N:
            out = np.where(mid, np.maximum(t, 0.0), out)
        else:
            w = np.exp(nk * np.log(z[mid] / rk))
            with np.errstate(divide="ignore"):
                vals = np.log(np.abs(1.0 - w))
            out = out.copy()
            out[mid] = vals
    return out


@dataclass(frozen=True)
class ExpPoly(MeromorphicModel):
    """exp(p(z)) for a polynomial p with rational coefficients."""

    exponent: Tuple[Fraction, ...]

    @property
    def label(self) -> str:
        return f"exp:{_poly_text_frac(self.exponent)}"

    def log_abs(self, z: np.ndarray) -> np.ndarray:
        return _polyval(_poly_floats(self.exponent), z).real


@dataclass(frozen=True)
class ExpExp(MeromorphicModel):
    """exp(exp(z)); zero-free and pole-free, hyper-order one."""

    label = "expexp"

    def log_abs(self, z: np.ndarray) -> np.ndarray:
        return np.exp(z.real) * np.cos(z.imag)


@dataclass(frozen=True)
class Shifted(MeromorphicModel):
    base: MeromorphicModel
    c: complex

    @property
    def label(self) -> str:
        return f"shift:{self.c}:{self.base.label}"

    def log_abs(self, z: np.ndarray) -> np.ndarray:
        return self.base.log_abs(z + self.c)

    def zeros(self, radius: float) -> List[Tuple[complex, int]]:
        return [
            (z - self.c, m)
            for z, m in self.base.zeros(radius + abs(self.c))
            if abs(z - self.c) <= radius
        ]

    def poles(self, radius: float) -> List[Tuple[complex, int]]:
        return [
            (z - self.c, m)
            for z, m in self.base.poles(radius + abs(self.c))
            if abs(z - self.c) <= radius
        ]

    def divisor_magnitudes(self, kind: str, offset: complex = 0j) -> Magnitudes:
        return self.base.divisor_magnitudes(kind, offset + self.c)

    def band_error(self, r: float, offset: complex = 0j) -> float:
        return self.base.band_error(r, offset + self.c)

    def seed_angles(self, r: float) -> List[float]:
        out: List[float] = []
        base = self.base
        if isinstance(base, CanonicalProduct):
            for rk, nk in base.levels:
                if nk <= 256:
                    for z, _ in _ring_points(rk, nk):
                        q = z - self.c
                        if abs(abs(q) - r) <= 0.1 * r and q != 0:
                            out.append(math.atan2(q.imag, q.real))
                else:
                    out.extend(_ring_crossing_angles(r, self.c, rk))
            return out
        for z, _ in base.zeros(r + abs(self.c)) + base.poles(r + abs(self.c)):
            q = z - self.c
            if abs(abs(q) - r) <= 0.1 * r and q != 0:
                out.append(math.atan2(q.imag, q.real))
        return out


def _ring_points(rk: float, nk: int) -> List[Tuple[complex, int]]:
    return [
        (rk * cmath.exp(2j * math.pi * j / nk), 1) for j in range(nk)
    ]


def _ring_crossing_angles(r: float, c: complex, rk: float) -> List[float]:
    # angles where |r e^{i theta} + c| = rk
    ac = abs(c)
    if ac == 0:
        return []
    u = (rk * rk - r * r - ac * ac) / (2.0 * r * ac)
    if abs(u) > 1.0:
        return []
    base = math.atan2(c.imag, c.real)
    d = math.acos(u)
    return [base + d, base - d]


@dataclass(frozen=True)
class PowerModel(MeromorphicModel):
    base: MeromorphicModel
    k: int

    @property
    def label(self) -> str:
        return f"pow:{self.k}:{self.base.label}"

    def log_abs(self, z: np.ndarray) -> np.ndarray:
        return self.k * self.base.log_abs(z)

    def zeros(self, radius: float) -> List[Tuple[complex, int]]:
        src = self.base.zeros(radius) if self.k > 0 else self.base.poles(radius)
        return [(z, abs(self.k) * m) for z, m in src]

    def poles(self, radius: float) -> List[Tuple[complex, int]]:
        src = self.base.poles(radius) if self.k > 0 else self.base.zeros(radius)
        return [(z, abs(self.k) * m) for z, m in src]

    def divisor_magnitudes(self, kind: str, offset: complex = 0j) -> Magnitudes:
        base_kind = kind if self.k > 0 else _OTHER_KIND[kind]
        mags, mults = self.base.divisor_magnitudes(base_kind, offset)
        return mags, abs(self.k) * mults

    def band_error(self, r: float, offset: complex = 0j) -> float:
        return abs(self.k) * self.base.band_error(r, offset)

    def seed_angles(self, r: float) -> List[float]:
        return self.base.seed_angles(r)


@dataclass(frozen=True)
class Quotient(MeromorphicModel):
    """num/den evaluated jointly in log space (never a ratio of averages)."""

    num: MeromorphicModel
    den: MeromorphicModel

    @property
    def label(self) -> str:
        return f"quot:({self.num.label})/({self.den.label})"

    def log_abs(self, z: np.ndarray) -> np.ndarray:
        return self.num.log_abs(z) - self.den.log_abs(z)

    def zeros(self, radius: float) -> List[Tuple[complex, int]]:
        return self.num.zeros(radius) + self.den.poles(radius)

    def poles(self, radius: float) -> List[Tuple[complex, int]]:
        return self.num.poles(radius) + self.den.zeros(radius)

    def divisor_magnitudes(self, kind: str, offset: complex = 0j) -> Magnitudes:
        num_mags, num_mults = self.num.divisor_magnitudes(kind, offset)
        den_mags, den_mults = self.den.divisor_magnitudes(_OTHER_KIND[kind], offset)
        return np.concatenate([num_mags, den_mags]), np.concatenate([num_mults, den_mults])

    def band_error(self, r: float, offset: complex = 0j) -> float:
        return self.num.band_error(r, offset) + self.den.band_error(r, offset)

    def seed_angles(self, r: float) -> List[float]:
        return self.num.seed_angles(r) + self.den.seed_angles(r)


# ---------------------------------------------------------------------------
# adaptive circle quadrature


@dataclass(frozen=True)
class CircleMean:
    value: float
    error: float
    radius: float
    evaluations: int


def _circle_mean_pos(
    model: MeromorphicModel,
    r: float,
    *,
    tol_unit: float = 1e-8,
    base_panels: int = 64,
    max_panels: int = 400_000,
) -> CircleMean:
    """Adaptive-Simpson mean over the circle of max(0, log|f|).

    The absolute target is tol_unit per unit of integrand scale; panel
    boundaries are seeded at divisor angles near the circle.  Accepted
    contributions are combined with exact summation, so results are
    byte-stable regardless of refinement order.
    """

    def f(theta: np.ndarray) -> np.ndarray:
        zs = r * np.exp(1j * theta)
        return np.maximum(model.log_abs(zs), 0.0)

    seeds = sorted(a % TWO_PI for a in model.seed_angles(r))
    bounds = sorted(set(np.linspace(0.0, TWO_PI, base_panels + 1)) | set(seeds))
    bounds = np.array(bounds, dtype=float)
    widths = np.diff(bounds)
    keep = widths > 1e-15
    a = bounds[:-1][keep]
    h = widths[keep]

    probe = f(np.linspace(0.0, TWO_PI, 257))
    scale = max(1.0, float(np.max(probe)))
    tol_total = tol_unit * scale * TWO_PI
    h_min = TWO_PI * 2.0**-42

    f0 = f(a)
    f1 = f(a + 0.5 * h)
    f2 = f(a + h)
    accepted: List[float] = []
    err_parts: List[float] = []
    evals = 257 + 3 * len(a)
    while len(a):
        if evals > max_panels * 4:
            raise QuadratureNonConvergence(
                f"budget exhausted at r={r:g} ({evals} evaluations)"
            )
        xl = a + 0.25 * h
        xr = a + 0.75 * h
        fl = f(xl)
        fr = f(xr)
        evals += 2 * len(a)
        s1 = h / 6.0 * (f0 + 4.0 * f1 + f2)
        s2 = h / 12.0 * (f0 + 4.0 * fl + 2.0 * f1 + 4.0 * fr + f2)
        err = np.abs(s2 - s1) / 15.0
        ok = (err <= tol_total * h / TWO_PI) | (h <= h_min)
        for v, e in zip(s2[ok] + (s2[ok] - s1[ok]) / 15.0, err[ok]):
            accepted.append(float(v))
            err_parts.append(float(e))
        bad = ~ok
        a_bad, h_bad = a[bad], h[bad]
        mid_bad = f1[bad]
        # left half runs (a, a+h/2) with end value at the old midpoint;
        # right half runs (a+h/2, a+h) starting there
        a = np.concatenate([a_bad, a_bad + 0.5 * h_bad])
        h = np.concatenate([0.5 * h_bad, 0.5 * h_bad])
        f0 = np.concatenate([f0[bad], mid_bad])
        f2 = np.concatenate([mid_bad, f2[bad]])
        f1 = np.concatenate([fl[bad], fr[bad]])
        if len(a) > max_panels:
            raise QuadratureNonConvergence(f"too many panels at r={r:g}")
    value = math.fsum(accepted) / TWO_PI
    error = (math.fsum(err_parts) + 1e-16 * scale) / TWO_PI
    error += model.band_error(r) / TWO_PI
    return CircleMean(value=value, error=error, radius=r, evaluations=evals)


# ---------------------------------------------------------------------------
# counting and characteristic


@lru_cache(maxsize=512)
def _counting_arrays(model: MeromorphicModel, kind: str):
    """One index over the model's whole divisor of one kind: sorted
    magnitudes with prefix sums for O(log n) counting queries at any radius,
    plus the multiplicity at the origin."""
    mags, mults = model.divisor_magnitudes(kind)
    at_origin = mags <= 1e-12
    n0 = float(mults[at_origin].sum())
    mags, mults = mags[~at_origin], mults[~at_origin]
    # stable: a shifted ring is a few monotone runs, which timsort merges
    order = np.argsort(mags, kind="stable")
    mags, mults = mags[order], mults[order]
    prefix_m = np.concatenate([[0.0], np.cumsum(mults)])
    prefix_mlog = np.concatenate([[0.0], np.cumsum(mults * np.log(mags))])
    return mags, prefix_m, prefix_mlog, n0


def counting_N(model: MeromorphicModel, r: float, of: str = "poles") -> float:
    """Integrated counting function from the divisor, in closed form."""
    if r < 1.0:
        raise ValueError("counting is reported for r >= 1")
    if of not in ("poles", "zeros"):
        raise ValueError("of must be 'poles' or 'zeros'")
    mags, prefix_m, prefix_mlog, n0 = _counting_arrays(model, of)
    k = int(np.searchsorted(mags, r, side="right"))
    total = prefix_m[k] * math.log(r) - prefix_mlog[k]
    return float(total + n0 * math.log(r))


@dataclass(frozen=True)
class CharacteristicSample:
    r: float
    m: float
    N: float
    T: float
    quad_error: float


def _perturb_off_divisor(model: MeromorphicModel, r: float) -> float:
    pole_mags = _counting_arrays(model, "poles")[0]
    for _ in range(3):
        # the first pole magnitude at or above r - 1e-12 r, if any, decides
        k = pole_mags.searchsorted(r - 1e-12 * r)
        if k == len(pole_mags) or pole_mags[k] > r + 1e-12 * r:
            return r
        r = r * (1.0 + 1e-9)
    raise PoleOnCircle(f"poles stayed on |z| = {r:g} after 3 nudges")


def proximity_m(
    model: MeromorphicModel, r: float, *, tol_unit: float = 1e-8
) -> CircleMean:
    """Circle mean of log+ |f|; the radius nudges off any pole on the circle."""
    r_used = _perturb_off_divisor(model, r)
    return _circle_mean_pos(model, r_used, tol_unit=tol_unit)


def characteristic_T(
    model: MeromorphicModel, r: float, *, tol_unit: float = 1e-8
) -> CharacteristicSample:
    r_used = _perturb_off_divisor(model, r)
    mean = _circle_mean_pos(model, r_used, tol_unit=tol_unit)
    n_val = counting_N(model, r_used, of="poles")
    return CharacteristicSample(
        r=r_used, m=mean.value, N=n_val, T=mean.value + n_val, quad_error=mean.error
    )


# ---------------------------------------------------------------------------
# shift inequalities


@dataclass(frozen=True)
class ShiftCheckRow:
    """Both displayed shift inequalities at one radius.

    The additive constant of each inequality is instantiated as the value of
    the same quantity measured at the base radius 1 + 2|c|, plus a fixed
    slack of log 2; `*_slack_used` shows how much of that log 2 the point
    consumed (negative means headroom).
    """

    r: float
    c: complex
    counting_kind: str
    counting_lhs: float
    counting_main: float
    counting_slack_used: float
    counting_ok: bool
    char_lhs: float
    char_main: float
    char_slack_used: float
    char_ok: bool
    quad_error: float


def _counting_kind_default(model: MeromorphicModel, probe_radius: float) -> str:
    return "poles" if model.poles(probe_radius) else "zeros"


def _counting_factor(c_abs: float, r: float) -> float:
    if c_abs == 0.0:
        return 1.0
    return 1.0 + c_abs / r + (1.0 + c_abs) * math.log1p(c_abs) / math.log(r + c_abs)


def _char_factor(c_abs: float, r: float) -> float:
    if c_abs == 0.0:
        return 1.0
    return 1.0 + (2.0 + c_abs) * math.log1p(c_abs) / math.log(r + c_abs)


def shift_inequality_check(
    model: MeromorphicModel,
    c: complex,
    r: float,
    *,
    of: Optional[str] = None,
    tol_unit: float = 1e-8,
    _base_cache: Optional[dict] = None,
) -> ShiftCheckRow:
    """Compare counting and characteristic of the shift against the bounds
    built from the unshifted function at radius r + |c|."""
    c_abs = abs(c)
    if r <= 1.0 + c_abs:
        raise ValueError("need r > 1 + |c|")
    kind = of or _counting_kind_default(model, r + c_abs + 1.0)
    shifted = Shifted(model, c)
    r0 = 1.0 + 2.0 * c_abs

    cache = _base_cache if _base_cache is not None else {}
    key = (model, complex(c), kind)
    if key not in cache:
        base_n = counting_N(model, r0, of=kind)
        base_mean = proximity_m(model, r0, tol_unit=tol_unit)
        base_t = base_mean.value + counting_N(model, r0, of="poles")
        cache[key] = (base_n, base_t)
    const_n, const_t = cache[key]

    lhs_n = counting_N(shifted, r, of=kind)
    main_n = _counting_factor(c_abs, r) * counting_N(model, r + c_abs, of=kind)
    used_n = lhs_n - main_n - const_n

    lhs_mean = proximity_m(shifted, r, tol_unit=tol_unit)
    lhs_t = lhs_mean.value + counting_N(shifted, r, of="poles")
    far_mean = proximity_m(model, r + c_abs, tol_unit=tol_unit)
    far_t = far_mean.value + counting_N(model, r + c_abs, of="poles")
    main_t = _char_factor(c_abs, r) * far_t
    err_t = lhs_mean.error + _char_factor(c_abs, r) * far_mean.error
    used_t = lhs_t - main_t - const_t
    return ShiftCheckRow(
        r=r,
        c=c,
        counting_kind=kind,
        counting_lhs=lhs_n,
        counting_main=main_n,
        counting_slack_used=used_n,
        counting_ok=used_n <= LOG2,
        char_lhs=lhs_t,
        char_main=main_t,
        char_slack_used=used_t,
        char_ok=used_t <= LOG2 + err_t,
        quad_error=err_t,
    )


def shift_inequality_sweep(
    model: MeromorphicModel,
    c: complex,
    r_min: float,
    r_max: float,
    ratio: float = 1.05,
    *,
    of: Optional[str] = None,
    tol_unit: float = 1e-8,
) -> List[ShiftCheckRow]:
    cache: dict = {}
    rows = []
    for r in geometric_grid(r_min, r_max, ratio):
        rows.append(
            shift_inequality_check(
                model, c, r, of=of, tol_unit=tol_unit, _base_cache=cache
            )
        )
    return rows


# ---------------------------------------------------------------------------
# logarithmic differences


def log_diff_m(
    model: MeromorphicModel, c: complex, r: float, *, tol_unit: float = 1e-8
) -> CircleMean:
    """m(r, f(z+c)/f(z)) evaluated jointly in log space."""
    quotient = Quotient(Shifted(model, c), model)
    return proximity_m(quotient, r, tol_unit=tol_unit)


@dataclass(frozen=True)
class LogDiffReport:
    rows: Tuple[Tuple[float, float, float, bool], ...]  # r, lhs, rhs, ok
    skipped: Tuple[float, ...]
    exceptions: ExceptionSet
    report: DensityReport
    hypothesis_decays: bool
    negative_control: bool


def logdiff_bound_rhs(t_value: float, r: float, c_abs: float, delta: float, eps: float) -> Optional[float]:
    if t_value <= math.e:
        return None
    lt = math.log(t_value)
    window = (math.log(lt) ** (1.0 + eps)) * lt / r
    return BOUND_CONSTANT * (1.0 + c_abs) * window**delta * t_value


def verify_logdiff_bound(
    model: MeromorphicModel,
    c: complex,
    delta: float,
    eps: float,
    horizon: float,
    *,
    r_min: float = 10.0,
    ratio: float = 1.05,
    tol_unit: float = 1e-8,
) -> LogDiffReport:
    """Scan the explicit log-difference bound on a geometric grid.

    Points with T(r) <= e are outside the bound's domain and recorded as
    skipped.  When the slow-growth hypothesis fails on the data (pressure
    (log r)^(1+eps) log T / r not decaying), the scan is flagged as a
    negative control and is diagnostic only.
    """
    if not 0 < delta < 0.5:
        raise ValueError("delta must lie in (0, 1/2)")
    c_abs = abs(c)
    grid = geometric_grid(r_min, horizon, ratio)
    rows = []
    skipped = []
    failing = []
    pressures = []
    for r in grid:
        sample = characteristic_T(model, r, tol_unit=tol_unit)
        rhs = logdiff_bound_rhs(sample.T, r, c_abs, delta, eps)
        if rhs is None:
            skipped.append(r)
            failing.append(False)
            continue
        lt = math.log(sample.T)
        pressures.append(math.log(r) ** (1.0 + eps) * lt / r)
        lhs = log_diff_m(model, c, r, tol_unit=tol_unit).value
        ok = lhs <= rhs
        rows.append((r, lhs, rhs, ok))
        failing.append(not ok)
    es = exception_set_from_grid(grid, failing, horizon)
    rep = densities(es)
    decays = (
        len(pressures) >= 4 and pressures[-1] <= 0.5 * pressures[len(pressures) // 4]
    )
    return LogDiffReport(
        rows=tuple(rows),
        skipped=tuple(skipped),
        exceptions=es,
        report=rep,
        hypothesis_decays=decays,
        negative_control=not decays,
    )


# ---------------------------------------------------------------------------
# the separating product example


@dataclass(frozen=True)
class ProductCertificate:
    rows: Tuple[Tuple[int, float, int, float, bool], ...]  # k, r_k, n_k, threshold, ok
    doubling_ok: bool
    base_ok: bool
    finite_order_ok: bool  # log n_k / log r_k stays bounded on the built range


def build_example_product(
    s_max: int, n1: int = 1, *, cap: int = 10_000_000
) -> Tuple[CanonicalProduct, ProductCertificate]:
    """Rings r_k = 8 * 2^(k-1); each n_k is the smallest integer strictly
    above 4 r_k (log r_k)^2 * (sum of earlier counts)."""
    if s_max < 1:
        raise ValueError("need at least one level")
    if n1 < 1:
        raise ValueError("n1 must be a positive integer")
    levels: List[Tuple[float, int]] = []
    rows = []
    total = 0
    rk = 8.0
    for k in range(1, s_max + 1):
        if k == 1:
            nk = n1
            threshold = 0.0
        else:
            threshold = 4.0 * rk * math.log(rk) ** 2 * total
            nk = math.floor(threshold) + 1
        if nk > cap:
            raise Overflow(f"level {k} wants {nk} zeros (cap {cap})")
        levels.append((rk, nk))
        rows.append((k, rk, nk, threshold, nk > threshold))
        total += nk
        rk *= 2.0
    ratios = [math.log(nk) / math.log(rk) for rk, nk in levels if nk > 1]
    cert = ProductCertificate(
        rows=tuple(rows),
        doubling_ok=all(b >= 2 * a for (a, _), (b, _) in zip(levels, levels[1:])),
        base_ok=levels[0][0] > 6.0,
        finite_order_ok=(not ratios) or max(ratios) < 8.0,
    )
    return CanonicalProduct(tuple(levels)), cert


@dataclass(frozen=True)
class ProductWindowRow:
    r: float
    t_base: float
    t_shifted: float
    m_quotient: float
    separation_ratio: float  # m(r, f_c/f) / T(r, f_c)
    smallness_ratio: float  # T(r, f) / T(r, f_c)


def example_product_report(
    model: CanonicalProduct,
    s: int,
    c: complex = 3.0 + 0j,
    *,
    samples: int = 6,
    tol_unit: float = 1e-8,
) -> List[ProductWindowRow]:
    """Table over the window [r_s - 1/2, r_s).

    The top of the window sits on the level-s zero ring, where the quotient
    integrand has that ring's zeros as poles on the circle; the grid stops a
    small guard short of it.
    """
    if not 1 <= s <= len(model.levels):
        raise ValueError("level index out of range")
    rs = model.levels[s - 1][0]
    guard = max(1.0 / 64.0, 2.0 * rs * _EXACT_BAND / model.levels[s - 1][1] / 1000.0)
    lo, hi = rs - 0.5, rs - guard
    shifted = Shifted(model, c)
    rows = []
    for k in range(samples):
        r = lo + (hi - lo) * k / (samples - 1)
        t_base = characteristic_T(model, r, tol_unit=tol_unit)
        t_shift = characteristic_T(shifted, r, tol_unit=tol_unit)
        m_quot = log_diff_m(model, c, r, tol_unit=tol_unit)
        rows.append(
            ProductWindowRow(
                r=r,
                t_base=t_base.T,
                t_shifted=t_shift.T,
                m_quotient=m_quot.value,
                separation_ratio=m_quot.value / t_shift.T,
                smallness_ratio=t_base.T / t_shift.T,
            )
        )
    return rows


# ---------------------------------------------------------------------------
# finite-order shift residuals


@dataclass(frozen=True)
class ResidualFit:
    rows: Tuple[Tuple[float, float], ...]  # r, residual
    all_zero: bool
    fitted_exponent: Optional[float]
    order_estimate: float


def shift_identity_finite_order(
    model: MeromorphicModel,
    c: complex,
    horizon: float,
    *,
    of: str = "poles",
    r_min: float = 4.0,
    ratio: float = 1.3,
) -> ResidualFit:
    """Fit the decay exponent of N(r + |c|) - N(r) against r on a log grid."""
    c_abs = abs(c)
    grid = geometric_grid(max(r_min, 1.0 + 2.0 * c_abs), horizon, ratio)
    rows = []
    for r in grid:
        resid = counting_N(model, r + c_abs, of=of) - counting_N(model, r, of=of)
        rows.append((r, resid))
    positive = [(r, v) for r, v in rows if v > 0]
    n_tail = [counting_N(model, r, of=of) for r in grid[-5:]]
    if n_tail[-1] > 1e-12:
        order_estimate = max(
            0.0,
            (math.log(n_tail[-1]) - math.log(max(n_tail[0], 1e-12)))
            / (math.log(grid[-1]) - math.log(grid[-5])),
        )
    else:
        order_estimate = 0.0
    if not positive:
        return ResidualFit(tuple(rows), True, None, order_estimate)
    xs = np.log([r for r, _ in positive])
    ys = np.log([v for _, v in positive])
    slope = float(np.polyfit(xs, ys, 1)[0]) if len(positive) >= 2 else 0.0
    return ResidualFit(tuple(rows), False, slope, order_estimate)


# ---------------------------------------------------------------------------
# model mini-language


def model_from_spec(spec: str) -> MeromorphicModel:
    """Build a model from the CLI mini-language.

    Forms: `rational:{num}/{den}` (braced integer polynomials in z, den
    optional), `product:s=K,n1=N`, `exp:poly` (e.g. `exp:z`), `expexp`,
    any of them wrapped by `shift:c:` with c a shift literal like `1`,
    `i`, or `2+i`.
    """
    text = spec.strip()
    if text.startswith("shift:"):
        rest = text[len("shift:") :]
        head, sep, tail = rest.partition(":")
        if not sep:
            raise ValueError("shift wrapper needs shift:c:<model>")
        return Shifted(model_from_spec(tail), _parse_shift_constant(head))
    if text.startswith("rational:"):
        body = text[len("rational:") :]
        return _parse_rational_spec(body)
    if text.startswith("product:"):
        body = text[len("product:") :]
        s_val, n1_val = 2, 1
        for part in body.split(","):
            k, _, v = part.partition("=")
            if k.strip() == "s":
                s_val = int(v)
            elif k.strip() == "n1":
                n1_val = int(v)
            else:
                raise ValueError(f"unknown product parameter {k!r}")
        model, _ = build_example_product(s_val, n1_val)
        return model
    if text.startswith("exp:"):
        body = text[len("exp:") :]
        coeffs = _parse_zpoly_text(body)
        return ExpPoly(tuple(Fraction(c) for c in coeffs))
    if text == "expexp":
        return ExpExp()
    raise ValueError(f"unknown model spec {spec!r}")


def _parse_shift_constant(text: str) -> complex:
    from .eqparse import _Ctx, _Parser

    parser = _Parser("w(z+" + text + ")", _Ctx())
    poly = parser.parse_poly()
    del poly
    ctx = parser.ctx
    if len(ctx.shift_order) != 1:
        raise ValueError(f"bad shift constant {text!r}")
    re, im = ctx.shift_order[0]
    return complex(re) + 1j * complex(im)


def _parse_rational_spec(body: str) -> RationalFn:
    from .eqparse import _Ctx, _Parser

    parser = _Parser(body, _Ctx())
    num = parser._braced_ratfun()
    den_poly: Tuple[int, ...] = (1,)
    num_poly = num.num
    extra_den = num.den
    if parser.at_op("/"):
        parser.take()
        den = parser._braced_ratfun()
        den_poly = den.num
        if den.den != (1,):
            raise ValueError("nested denominators in rational spec")
    if parser.peek().kind != "END":
        raise ValueError(f"trailing input in rational spec {body!r}")
    from .zfield import zp_mul

    den_full = zp_mul(den_poly, extra_den)
    return RationalFn(
        tuple(Fraction(c) for c in num_poly), tuple(Fraction(c) for c in den_full)
    )


def _parse_zpoly_text(text: str) -> Tuple[int, ...]:
    from .eqparse import _Ctx, _Parser

    parser = _Parser("{" + text + "}", _Ctx())
    rf = parser._braced_ratfun()
    if rf.den != (1,):
        raise ValueError("exponent polynomial cannot have a denominator")
    return rf.num
