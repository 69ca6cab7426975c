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
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .growth import (
    Model,
    ScanResult,
    ScanRow,
    decays,
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


class NumericalBreakdown(CharFnError):
    """The numerics failed on an input, not the mathematics: the integrand
    left the float range, a root or a quadrature did not converge, or a
    divisor point stayed on the circle."""


class RootIsolationFailure(NumericalBreakdown):
    pass


class PoleOnCircle(NumericalBreakdown):
    """A divisor point sits on the integration circle after 3 nudges."""


class QuadratureNonConvergence(NumericalBreakdown):
    pass


# ---------------------------------------------------------------------------
# models


class Ring(NamedTuple):
    """The n points R e^{2 pi i j/n} - offset, each of multiplicity mult."""

    R: float
    n: int
    mult: float
    offset: complex


# a divisor of one kind moved by -offset: its points as (z - offset,
# multiplicity) pairs, and its rings
Divisor = Tuple[List[Tuple[complex, float]], Tuple[Ring, ...]]

_KINDS = ("zeros", "poles")
_OTHER_KIND = {"zeros": "poles", "poles": "zeros"}


class MeromorphicModel(Model):
    """A concrete function given by a stable log-modulus and its divisor.

    A model defines `log_abs` and `divisor_blocks`; its point listings, the
    seed angles of its quadrature and the error bar of its averaged rings
    are all read off the blocks of both kinds.
    """

    label = "model"

    def log_abs(self, z: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def divisor_blocks(self, kind: str, offset: complex = 0j) -> Divisor:
        """The whole finite zero ("zeros") or pole ("poles") divisor moved
        by -offset, points in no particular order."""
        return [], ()

    # Fraction hashing is slow, and scans look models up by hash per radius
    @cached_property
    def _hash(self) -> int:
        return hash(self._key())

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _blocks(self) -> Dict[str, Divisor]:
        return {kind: self.divisor_blocks(kind) for kind in _KINDS}

    def zeros(self, radius: float) -> List[Tuple[complex, float]]:
        return self._listing("zeros", radius)

    def poles(self, radius: float) -> List[Tuple[complex, float]]:
        return self._listing("poles", radius)

    def _listing(self, kind: str, radius: float) -> List[Tuple[complex, float]]:
        """The divisor points of one kind in |z| <= radius, with the points
        of every ring that reaches the disc."""
        points, rings = self._blocks[kind]
        rings = [ring for ring in rings if ring.R - abs(ring.offset) <= radius]
        inside = sum(ring.n for ring in rings)
        if inside > _DIRECT_MAX:
            raise ValueError(f"listing the {inside} {kind} in |z| <= {radius:g} "
                             f"exceeds {_DIRECT_MAX} points")
        out = [(q, m) for q, m in points if abs(q) <= radius]
        for ring in rings:
            q = _ring_array(ring)
            # an unshifted ring lies on |z| = R <= radius, up to rounding
            if ring.offset != 0:
                q = q[np.abs(q) <= radius]
            out.extend((z, ring.mult) for z in q.tolist())
        return out

    @cached_property
    def _averaged(self) -> List[Tuple[int, float, float, float]]:
        """(kind index, R, |offset|, band) of the rings that `log_abs`
        evaluates by their circle mean, kind by kind."""
        return [
            (k, R, abs(c), R * _EXACT_BAND / n)
            for k, kind in enumerate(_KINDS) for R, n, _, c in self._blocks[kind][1]
            if n >= _RIPPLE_AVERAGE_N
        ]

    def band_error(self, r: float) -> float:
        """Quadrature error bound on circle r from the rings evaluated by
        their circle mean: each whose band the circle meets adds two
        transversal crossings, each an arc of order band wide."""
        sums = [0.0, 0.0]  # zeros, poles
        for k, R, ac, band in self._averaged:
            if r - ac <= R + band and r + ac >= R - band:
                sums[k] += 2.0 * min(TWO_PI, 16.0 * band / max(r, 1.0)) * 0.7
        return sums[0] + sums[1]

    @cached_property
    def _seed_parts(self) -> Tuple[List[Tuple[float, float]], List[Tuple[float, float, float]]]:
        """(|q|, arg q) of the divisor points q of both kinds, those of rings
        of at most 256 points included, and (R, |c|, arg c) of the larger
        rings shifted by c."""
        points, crossing = [], []
        for kind in _KINDS:
            listed, rings = self._blocks[kind]
            qs = [q for q, _ in listed]
            for R, n, _, c in rings:
                if c == 0 and n <= 256:
                    # angles as exact fractions of a turn
                    points.extend((R, TWO_PI * j / n) for j in range(n))
                elif n <= 256:
                    qs.extend(R * cmath.exp(2j * math.pi * j / n) - c for j in range(n))
                elif c != 0:
                    crossing.append((R, abs(c), math.atan2(c.imag, c.real)))
            points.extend((abs(q), math.atan2(q.imag, q.real)) for q in qs if q != 0)
        return points, crossing

    def seeded_radii(self, radii: Sequence[float]) -> List[int]:
        """The indices of the radii whose `seed_angles` may be non-empty,
        from one search of the sorted point magnitudes (a little wider than
        10%): every radius when a larger shifted ring crosses circles."""
        points, crossing = self._seed_parts
        if crossing:
            return list(range(len(radii)))
        mags = np.sort([q_abs for q_abs, _ in points])
        rb = np.array(radii, dtype=float)
        near = mags.searchsorted(1.11 * rb, "right") > mags.searchsorted(0.89 * rb)
        return np.flatnonzero(near).tolist()

    def seed_angles(self, r: float) -> List[float]:
        """Angles where the integrand may have structure near circle r: the
        divisor points within 10% of r, those of rings of at most 256 points
        included, and the two angles where a larger shifted ring crosses
        the circle."""
        points, crossing = self._seed_parts
        out = [a for q_abs, a in points if abs(q_abs - r) <= 0.1 * r]
        for R, ac, arg_c in crossing:
            # where |r e^{i theta} + c| = R
            u = (R * R - r * r - ac * ac) / (2.0 * r * ac)
            if abs(u) <= 1.0:
                d = math.acos(u)
                out += [arg_c + d, arg_c - d]
        return out


def _ring_array(ring: Ring) -> np.ndarray:
    """The ring's points as a complex array."""
    R, n, _, c = ring
    return R * np.exp(1j * (TWO_PI * np.arange(n) / n)) - c


def _poly_floats(coeffs: Sequence[Fraction]) -> np.ndarray:
    return np.array([float(c) for c in coeffs], dtype=float)


def _polyval(coeffs: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Horner from the leading coefficient: for finite z, c * z is bit for
    bit (0 * z + c) * z, so this is the loop started from zero."""
    acc = coeffs[-1] * z + coeffs[-2] if len(coeffs) > 1 else 0.0 * z + coeffs[0]
    for c in coeffs[-3::-1]:
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


class RationalFn(MeromorphicModel):
    """num/den with exact rational coefficients, ascending powers, coprime."""

    _fields = ("num", "den")

    def __init__(self, num: Tuple[Fraction, ...], den: Tuple[Fraction, ...]):
        if not any(num) or not any(den):
            raise ValueError("numerator and denominator must be nonzero")
        _require_coprime(num, den)
        self.num = num
        self.den = den

    @property
    def label(self) -> str:
        return f"rational:{{{_poly_text_frac(self.num)}}}/{{{_poly_text_frac(self.den)}}}"

    @property
    def degree(self) -> int:
        return max(_frac_degree(self.num), _frac_degree(self.den))

    @cached_property
    def _floats(self) -> Tuple[np.ndarray, np.ndarray]:
        return _poly_floats(self.num), _poly_floats(self.den)

    @cached_property
    def _roots(self) -> Tuple[Tuple[Tuple[complex, int], ...], ...]:
        """(zeros, poles) as clustered (point, multiplicity) pairs."""
        return _poly_roots(self.num), _poly_roots(self.den)

    def log_abs(self, z: np.ndarray) -> np.ndarray:
        num, den = self._floats
        with np.errstate(divide="ignore"):
            out = np.log(np.abs(_polyval(num, z)))
            # log|1| = 0, and x - 0.0 is x
            return out if self.den == (1,) else out - np.log(np.abs(_polyval(den, z)))

    def divisor_blocks(self, kind: str, offset: complex = 0j) -> Divisor:
        return [(z - offset, m) for z, m in self._roots[_KINDS.index(kind)]], ()


def _frac_degree(coeffs: Sequence[Fraction]) -> int:
    deg = -1
    for k, c in enumerate(coeffs):
        if c != 0:
            deg = k
    return deg


def _cleared(coeffs: Sequence[Fraction]) -> Tuple[Tuple[int, ...], int]:
    """The coefficients times their least common denominator, and that."""
    denom = 1
    for c in coeffs:
        denom = denom * c.denominator // math.gcd(denom, c.denominator)
    return tuple(int(c * denom) for c in coeffs), denom


def _poly_text_frac(coeffs: Sequence[Fraction]) -> str:
    from .zfield import zp_text

    ints, denom = _cleared(coeffs)
    txt = zp_text(ints)
    return txt if denom == 1 else f"({txt})/{denom}"


def _require_coprime(num: Sequence[Fraction], den: Sequence[Fraction]) -> None:
    from .zfield import zp_gcd, zp_degree, zp_normal

    g = zp_gcd(zp_normal(_cleared(num)[0]), zp_normal(_cleared(den)[0]))
    if zp_degree(g) > 0:
        raise ValueError("numerator and denominator share a polynomial factor")


def _poly_roots(coeffs: Tuple[Fraction, ...]) -> Tuple[Tuple[complex, int], ...]:
    floats = [float(c) for c in coeffs]
    while floats and floats[-1] == 0.0:
        floats.pop()
    if len(floats) <= 1:
        return ()
    roots = np.roots(floats[::-1])
    return tuple(_cluster_roots(roots))


class CanonicalProduct(MeromorphicModel):
    """Finite product of ring factors 1 - (z/r_k)^(n_k).

    Levels must satisfy r_1 > 6 and r_{k+1} >= 2 r_k, so rings are well
    separated and the zero set at level k is exactly the n_k-th roots of
    unity scaled by r_k.
    """

    _fields = ("levels",)

    def __init__(self, levels: Tuple[Tuple[float, int], ...]):
        if not levels:
            raise ValueError("need at least one level")
        if levels[0][0] <= 6:
            raise ValueError("first ring radius must exceed 6")
        for (r0, _), (r1, _) in zip(levels, levels[1:]):
            if r1 < 2 * r0:
                raise ValueError("ring radii must at least double")
        for _, n in levels:
            if n < 1:
                raise ValueError("ring multiplicities are positive integers")
        self.levels = levels

    @property
    def label(self) -> str:
        return "product:" + ",".join(f"({rk:g},{nk})" for rk, nk in self.levels)

    def log_abs(self, z: np.ndarray) -> np.ndarray:
        out = np.zeros(z.shape, dtype=float)
        if out.size == 0:
            return out
        with np.errstate(divide="ignore"):
            log_r = np.log(np.abs(z))
        # a NaN point reads as z = 0, where every factor is 1
        log_r = np.fmax(log_r, -np.inf)
        lo, hi = log_r.min(), log_r.max()
        for rk, nk in self.levels:
            _add_ring_log_abs(out, z, log_r, lo, hi, rk, nk)
        return out

    def divisor_blocks(self, kind: str, offset: complex = 0j) -> Divisor:
        if kind == "poles":
            return [], ()
        return [], tuple(Ring(rk, nk, 1.0, offset) for rk, nk in self.levels)


def _add_ring_log_abs(out: np.ndarray, z: np.ndarray, log_r: np.ndarray,
                      lo: float, hi: float, rk: float, nk: int) -> None:
    """Adds the ring's log|1 - (z/rk)^nk| to out.  log_r is log|z| with NaN
    read as -inf, and lo, hi are its extremes.

    With t = nk (log|z| - log rk), a point takes t where t >= the band, 0
    where t <= -band and the factor itself in between; a ring averaged over
    its ripple takes max(t, 0).  t_lo and t_hi bound every point's t
    exactly, since subtracting a constant and scaling by nk > 0 are
    monotone under rounding, so a call wholly on one side of the band or
    inside it needs no per-point test."""
    log_rk = math.log(rk)
    t_lo, t_hi = nk * (lo - log_rk), nk * (hi - log_rk)
    if t_hi <= -_EXACT_BAND:
        return
    if nk >= _RIPPLE_AVERAGE_N or t_lo >= _EXACT_BAND:
        # max(t, 0) is also t above the band and 0 below it
        out += np.maximum(nk * (log_r - log_rk), 0.0)
    elif t_lo > -_EXACT_BAND and t_hi < _EXACT_BAND:
        out += _ring_factor(z, rk, nk)
    else:
        t = nk * (log_r - log_rk)
        ring = np.where(t >= _EXACT_BAND, t, 0.0)
        mid = (t > -_EXACT_BAND) & (t < _EXACT_BAND)
        ring[mid] = _ring_factor(z[mid], rk, nk)
        out += ring


def _ring_factor(z: np.ndarray, rk: float, nk: int) -> np.ndarray:
    # an integer power, not exp(nk log(z/rk)): for nk = 1 it is z/rk itself
    with np.errstate(divide="ignore"):
        return np.log(np.abs(1.0 - (z / rk) ** nk))


class ExpPoly(MeromorphicModel):
    """exp(p(z)) for a polynomial p with rational coefficients."""

    _fields = ("exponent",)

    def __init__(self, exponent: Tuple[Fraction, ...]):
        self.exponent = exponent

    @property
    def label(self) -> str:
        return f"exp:{_poly_text_frac(self.exponent)}"

    @cached_property
    def _floats(self) -> np.ndarray:
        return _poly_floats(self.exponent)

    def log_abs(self, z: np.ndarray) -> np.ndarray:
        return _polyval(self._floats, z).real


class ExpExp(MeromorphicModel):
    """exp(exp(z)); zero-free and pole-free, hyper-order one."""

    label = "expexp"

    def log_abs(self, z: np.ndarray) -> np.ndarray:
        return np.exp(z.real) * np.cos(z.imag)


class Shifted(MeromorphicModel):
    _fields = ("base", "c")

    def __init__(self, base: MeromorphicModel, c: complex):
        self.base = base
        self.c = c

    @property
    def label(self) -> str:
        return f"shift:{self.c}:{self.base.label}"

    def log_abs(self, z: np.ndarray) -> np.ndarray:
        return self.base.log_abs(z + self.c)

    def divisor_blocks(self, kind: str, offset: complex = 0j) -> Divisor:
        return self.base.divisor_blocks(kind, offset + self.c)


class Quotient(MeromorphicModel):
    """num/den evaluated jointly in log space (never a ratio of averages)."""

    _fields = ("num", "den")

    def __init__(self, num: MeromorphicModel, den: MeromorphicModel):
        self.num = num
        self.den = den

    @property
    def label(self) -> str:
        return f"quot:({self.num.label})/({self.den.label})"

    def log_abs(self, z: np.ndarray) -> np.ndarray:
        return self.num.log_abs(z) - self.den.log_abs(z)

    def divisor_blocks(self, kind: str, offset: complex = 0j) -> Divisor:
        num_points, num_rings = self.num.divisor_blocks(kind, offset)
        den_points, den_rings = self.den.divisor_blocks(_OTHER_KIND[kind], offset)
        return num_points + den_points, num_rings + den_rings


# ---------------------------------------------------------------------------
# adaptive circle quadrature


class CircleMean(NamedTuple):
    value: float
    error: float
    radius: float
    evaluations: int


# panels narrower than this are accepted as they are
_H_MIN = TWO_PI * 2.0**-42
# a block of radii starts with at most this many evaluation points (or one
# radius); it bounds the frontier arrays and so the peak memory of a scan
_BLOCK_POINTS = 16384
# probe rows per model call: 15 * 257 complex points are 61,680 bytes, so
# every temporary of the call stays under malloc's 128 KiB mmap threshold and
# reuses freed heap instead of faulting in fresh pages
_CHUNK_ROWS = 15

# the means of the longest prefix of the radii that succeeds, and the error
# of the radius after it (None when every radius succeeds)
MeansPrefix = Tuple[List[CircleMean], Optional[CharFnError]]


def circle_means(
    model: MeromorphicModel,
    radii: Sequence[float],
    *,
    tol_unit: float,
    base_panels: int = 64,
    max_panels: int = 400_000,
) -> List[CircleMean]:
    """Adaptive-Simpson means over the circles |z| = r of max(0, log|f|).

    The absolute target is tol_unit per unit of integrand scale, set per
    circle; panel boundaries are seeded at divisor angles near the circle.
    At 64 base panels the scale probe is also the first two Simpson rounds of
    every circle with no seeds.
    Every round evaluates the live panels of a whole block of circles
    together (the first in chunks of circles), but each circle keeps its own
    scale, tolerance, acceptance, budget and panel cap, and its accepted
    panels are summed correctly rounded, bit for bit as math.fsum sums them
    (`_fsums`, which calls fsum only near ties and at extreme magnitudes), so
    each mean is the one its circle gets alone, whatever the refinement order.
    Raises the error of the first failing radius in the order given.
    """
    means, err = _means_prefix(model, radii, tol_unit, base_panels, max_panels)
    if err is not None:
        raise err
    return means


def _means_prefix(
    model: MeromorphicModel,
    radii: Sequence[float],
    tol_unit: float,
    base_panels: int = 64,
    max_panels: int = 400_000,
) -> MeansPrefix:
    base = _BASE if base_panels == len(_BASE[0]) else _initial_panels([], base_panels)
    panels = [base] * len(radii)
    for j in model.seeded_radii(radii):
        seeds = model.seed_angles(radii[j])
        if seeds:
            panels[j] = _initial_panels(seeds, base_panels)
    # the points each circle evaluates before its first refinement round
    points_at = [len(_PROBE) + (0 if p is _BASE else 3 * len(p[0])) for p in panels]
    means: List[CircleMean] = []
    start = 0
    while start < len(radii):
        stop, points = start + 1, points_at[start]
        while stop < len(radii):
            points += points_at[stop]
            if points > _BLOCK_POINTS:
                break
            stop += 1
        block, err = _block_means(
            model, radii[start:stop], panels[start:stop], tol_unit, max_panels
        )
        means.extend(block)
        if err is not None:
            return means, err
        start = stop
    return means, None


def _initial_panels(seeds: Sequence[float], base_panels: int) -> Tuple[np.ndarray, np.ndarray]:
    """Left ends and widths of the base panels split at the seed angles."""
    seeds = sorted(a % TWO_PI for a in seeds)
    bounds = sorted(set(np.linspace(0.0, TWO_PI, base_panels + 1)) | set(seeds))
    bounds = np.array(bounds, dtype=float)
    widths = np.diff(bounds)
    keep = widths > 1e-15
    return bounds[:-1][keep], widths[keep]


# the default base panels and their five-point Simpson grid: a, a+h/4, a+h/2
# and a+3h/4 of each panel, then the last right end, in the refinement's own
# arithmetic.  The grid is the probe that sets every circle's integrand scale,
# and for a circle whose panels are these it is also its first two Simpson
# rounds: np.diff is exact here (Sterbenz), so a + h is the next panel's a.
_BASE = _initial_panels([], 64)
_PROBE = np.append(
    (_BASE[0][:, None] + _BASE[1][:, None] * np.array([0.0, 0.25, 0.5, 0.75])).ravel(),
    _BASE[0][-1] + _BASE[1][-1],
)
# r * _UNIT is bit for bit r * np.exp(1j * _PROBE)
_UNIT = np.exp(1j * _PROBE)


def _integrand(model: MeromorphicModel, z: np.ndarray) -> np.ndarray:
    # overflow shows as a non-finite value, which the caller reports
    with np.errstate(over="ignore", invalid="ignore"):
        return np.maximum(model.log_abs(z), 0.0)


def _simpson(h, tol, f0, fl, f1, fr, f2):
    """Each panel's extrapolated five-point Simpson value, its error estimate
    and whether it is accepted against tol (per full turn)."""
    # overflow shows as a non-finite value or error, which the caller reports
    with np.errstate(over="ignore", invalid="ignore"):
        s1 = h / 6.0 * (f0 + 4.0 * f1 + f2)
        s2 = h / 12.0 * (f0 + 4.0 * fl + 2.0 * f1 + 4.0 * fr + f2)
        err = np.abs(s2 - s1) / 15.0
        ok = (err <= tol * h / TWO_PI) | (h <= _H_MIN)
        return s2 + (s2 - s1) / 15.0, err, ok


def _fsums(x: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """`math.fsum` of each run of x, bit for bit (run i is the next counts[i]
    >= 1 values): error-free extraction (Rump, Ogita & Oishi, SIAM J. Sci.
    Comput. 31 (2008)) below sigma, a power of two >= (n + 2) sum|x|, and
    fsum itself, with its result or exception, where r is not provably its:
    near ties, magnitudes under 2^-960, overflow, NaN or inf."""
    starts = np.cumsum(counts) - counts
    with np.errstate(over="ignore", invalid="ignore"):
        size = np.add.reduceat(np.abs(x), starts)  # >= max |x|, rounding included
        sigma = np.repeat(np.ldexp(1.0, np.frexp(counts + 1.0)[1] + np.frexp(size)[1]), counts)
        q = (sigma + x) - sigma
        lo = x - q
        tau, c = np.add.reduceat(q, starts), np.add.reduceat(lo, starts)
        bound = np.add.reduceat(np.abs(lo), starts) * (counts * 2.0**-52)
        r = tau + c
        back = r - tau  # TwoSum: r + t is exactly tau + c
        slack = np.abs((tau - (r - back)) + (c - back)) + bound
        # r is fsum's if the exact sum is inside r's rounding interval
        half = np.spacing(np.abs(r)) * np.where(np.abs(np.frexp(r)[0]) == 0.5, 0.25, 0.5)
        good = (slack < half) & (np.minimum(np.abs(r), size) >= 2.0**-960) & (size < math.inf)
    # a run of zeros, -0.0 too, sums to +0.0 as in fsum
    for j in np.flatnonzero(~good & (size != 0.0)).tolist():
        r[j] = math.fsum(x[starts[j] : starts[j] + counts[j]].tolist())
    return r


def _halves(a, h, rid, f0, fl, f1, fr, f2):
    """The halves of rejected panels as (a, h, rid, f0, f1, f2): the left one
    ends at the old midpoint, where the right one starts, and the old quarter
    points are their midpoints."""
    pairs = (a, a + 0.5 * h), (0.5 * h, 0.5 * h), (rid, rid), (f0, f1), (fl, fr), (f1, f2)
    return tuple(np.concatenate(pair) for pair in pairs)


def _block_means(
    model: MeromorphicModel,
    radii: Sequence[float],
    panels: Sequence[Tuple[np.ndarray, np.ndarray]],
    tol_unit: float,
    max_panels: int,
) -> MeansPrefix:
    """Adaptive Simpson on a block of circles.

    The probe rows are evaluated _CHUNK_ROWS circles per model call, and each
    seeded circle's panel ends and midpoints with the last chunk.  A circle
    whose panels are `_BASE` runs its first round densely on its probe row,
    and its rejected panels, already split, join the frontier of (circle
    `rid`, panel) pairs, where every panel still needs its quarter points.
    Every round's accepted panels are summed per circle once, at the end, by
    one `_fsums` call.  A failing circle drops itself and every later circle
    before the next Simpson arithmetic; an earlier one that fails later in
    the refinement still takes precedence, as it would in a scan in order.
    """
    nb = len(radii)
    rb = np.array(radii, dtype=float)
    failures: dict = {}

    def fail(bad: np.ndarray, error: type, text: str) -> None:
        for j in np.flatnonzero(bad):
            failures.setdefault(int(j), error(text.format(r=radii[j], n=int(evals[j]))))

    def nonfinite(point_rid: np.ndarray, values: np.ndarray, what: str = "integrand") -> None:
        hit = np.bincount(point_rid[~np.isfinite(values)], minlength=nb) > 0
        fail(hit, NumericalBreakdown, f"non-finite {what} at r={{r:g}}")

    def over_budget(live: np.ndarray) -> None:
        text = "budget exhausted at r={r:g} ({n} evaluations)"
        fail(live & (evals > max_panels * 4), QuadratureNonConvergence, text)

    def over_cap(rid: np.ndarray) -> None:
        hit = np.bincount(rid, minlength=nb) > max_panels
        fail(hit, QuadratureNonConvergence, "too many panels at r={r:g}")

    probed = np.array([p is _BASE for p in panels])
    seeded = np.flatnonzero(~probed)
    rid = np.repeat(seeded, [len(panels[j][0]) for j in seeded])
    a, h = (np.concatenate([np.zeros(0)] + [panels[j][k] for j in seeded]) for k in (0, 1))
    rid3 = np.tile(rid, 3)
    g = np.empty((nb, len(_PROBE)))
    last = (nb - 1) // _CHUNK_ROWS * _CHUNK_ROWS
    for lo in range(0, last, _CHUNK_ROWS):
        z = (rb[lo : lo + _CHUNK_ROWS, None] * _UNIT).ravel()
        g[lo : lo + _CHUNK_ROWS] = _integrand(model, z).reshape(_CHUNK_ROWS, -1)
    z = rb[rid3] * np.exp(1j * np.concatenate([a, a + 0.5 * h, a + h]))
    vals = _integrand(model, np.concatenate([(rb[last:, None] * _UNIT).ravel(), z]))
    g[last:] = vals[: g[last:].size].reshape(nb - last, -1)
    vals = vals[g[last:].size :]
    f0, f1, f2 = np.split(vals, 3)
    evals = len(_PROBE) + 3 * np.bincount(rid, minlength=nb)
    # values are >= 0 or NaN, so a row's max is finite exactly when the row is
    peak = g.max(axis=1)
    nonfinite(np.arange(nb), peak)
    nonfinite(rid3, vals)
    scale = np.maximum(1.0, peak)
    tol = tol_unit * scale * TWO_PI
    over_budget(np.ones(nb, dtype=bool))

    accepted = [(rid[:0], a[:0], a[:0])]  # (circle, value, error) per panel
    # the probed circles before the first failure: their first round reads
    # f0, fl, f1, fr, f2 of every base panel as strided views of the probe
    rows = np.flatnonzero(probed[: min(failures, default=nb)])
    if len(rows):
        grid = g if len(rows) == nb else g[rows]
        f = [grid[:, k:-1:4] for k in range(4)] + [grid[:, 4::4]]
        s, err, ok = _simpson(_BASE[1], tol[rows, None], *f)
        cells = np.broadcast_to(rows[:, None], s.shape)
        nonfinite(cells, s, "panel value")  # a finite value has a finite error
        accepted.append((cells[ok], s[ok], err[ok]))
        row, col = np.nonzero(~ok)
        split = _halves(_BASE[0][col], _BASE[1][col], rows[row], *(fk[row, col] for fk in f))
        over_cap(split[2])
        frontier = zip((a, h, rid, f0, f1, f2), split)
        a, h, rid, f0, f1, f2 = (np.concatenate(pair) for pair in frontier)

    while len(a):
        over_budget(np.bincount(rid, minlength=nb) > 0)
        if failures:
            keep = rid < min(failures)
            a, h, rid, f0, f1, f2 = (x[keep] for x in (a, h, rid, f0, f1, f2))
            if not len(a):
                break
        both = np.concatenate([rid, rid])
        quarters = np.concatenate([a + 0.25 * h, a + 0.75 * h])
        vals = _integrand(model, rb[both] * np.exp(1j * quarters))
        fl, fr = np.split(vals, 2)
        evals += np.bincount(both, minlength=nb)
        s, err, ok = _simpson(h, tol[rid], f0, fl, f1, fr, f2)
        accepted.append((rid[ok], s[ok], err[ok]))
        nonfinite(both, vals)
        nonfinite(rid, s, "panel value")
        bad = ~ok
        a, h, rid, f0, f1, f2 = _halves(*(x[bad] for x in (a, h, rid, f0, fl, f1, fr, f2)))
        over_cap(rid)

    done = min(failures, default=nb)
    # one stable sort puts each circle's accepted panels together, in order
    acc, values, errors = (np.concatenate(parts) for parts in zip(*accepted))
    counts = np.bincount(acc, minlength=nb)[:done]
    order = np.argsort(acc, kind="stable")[: counts.sum()]
    sums = _fsums(np.concatenate([values[order], errors[order]]), np.concatenate([counts, counts]))
    value = sums[:done] / TWO_PI
    error = (sums[done:] + 1e-16 * scale[:done]) / TWO_PI
    if model._averaged:
        error += np.array([model.band_error(r) for r in radii[:done]]) / TWO_PI
    means = list(map(CircleMean._make, zip(
        value.tolist(), error.tolist(), radii[:done], evals[:done].tolist()
    )))
    return means, failures.get(done)


# ---------------------------------------------------------------------------
# counting and characteristic


@lru_cache(maxsize=512)
def _counting_arrays(model: MeromorphicModel, kind: str):
    """One index over the model's whole divisor of one kind: sorted point
    magnitudes with prefix sums for O(log n) counting queries at any radius,
    the multiplicity at the origin, and the rings counted in closed form.

    An unshifted ring is one point of multiplicity n.  The series of a ring
    with R/2 < |offset| < 2R converges too slowly, so its points go into the
    index instead."""
    points, rings = model._blocks[kind]
    for R, n, _, c in rings:  # before any ring is materialised
        if n > _DIRECT_MAX and 0.5 < abs(c) / R < 2.0:
            raise ValueError(f"counting a ring of more than {_DIRECT_MAX} points shifted "
                             f"by |c|={abs(c):g} needs |c| <= R/2 or |c| >= 2R")
    mags = [np.array([abs(q) for q, _ in points], dtype=float)]
    mults = [np.array([m for _, m in points], dtype=float)]
    closed = []
    for ring in rings:
        R, n, mult, c = ring
        if c == 0:
            mags.append(np.array([R]))
            mults.append(np.array([n * mult]))
        elif 0.5 < abs(c) / R < 2.0:
            mags.append(np.abs(_ring_array(ring)))
            mults.append(np.full(n, mult))
        else:
            closed.append(ring)
    mags, mults = np.concatenate(mags), np.concatenate(mults)
    at_origin = mags <= 1e-12
    n0 = float(mults[at_origin].sum())
    mags, mults = mags[~at_origin], mults[~at_origin]
    # stable: a shifted ring is a few monotone runs, which timsort merges
    order = np.argsort(mags, kind="stable")
    mags, mults = mags[order], mults[order]
    prefix_m = np.concatenate([[0.0], np.cumsum(mults)])
    prefix_mlog = np.concatenate([[0.0], np.cumsum(mults * np.log(mags))])
    return mags, prefix_m, prefix_mlog, n0, tuple(closed)


def counting_N(model: MeromorphicModel, r: float, of: str = "poles") -> float:
    """Integrated counting function from the divisor, in closed form."""
    return _counting_grid(model, [r], of)[0]


def _counting_grid(model: MeromorphicModel, radii: Sequence[float], of: str) -> List[float]:
    """counting_N at every radius: the points' part from one search over the
    grid, each ring's part per radius."""
    if any(r < 1.0 for r in radii):
        raise ValueError("counting is reported for r >= 1")
    if of not in ("poles", "zeros"):
        raise ValueError("of must be 'poles' or 'zeros'")
    mags, prefix_m, prefix_mlog, n0, rings = _counting_arrays(model, of)
    k = np.searchsorted(mags, radii, side="right")
    out = []
    for r, m, mlog in zip(radii, prefix_m[k].tolist(), prefix_mlog[k].tolist()):
        log_r = math.log(r)
        ring_part = sum(ring.mult * _ring_counting(ring, r) for ring in rings)
        out.append(m * log_r - mlog + n0 * log_r + ring_part)
    return out


# a ring's series stops below _SERIES_TOL; no more than _DIRECT_MAX points
# are ever materialised
_SERIES_TOL, _DIRECT_MAX = 1e-19, 10_000_000


def _arc(ring: Ring, r: float) -> Tuple[int, int]:
    """(j0, L): the points a_j = R w^j - c (w = e^{2 pi i/n}) of the ring
    with |a_j| < r are j = j0, ..., j0 + L - 1, up to points with |a_j| = r
    within rounding, which add log(r/|a_j|) = 0 to the count."""
    R, n, _, c = ring
    ac = abs(c)
    if r >= R + ac:
        return 0, n
    if r <= abs(R - ac):
        return 0, 0
    # |a_j| < r on one arc of angles around arg c
    cos_half = (R * R + ac * ac - r * r) / (2.0 * R * ac)
    half = math.acos(max(-1.0, min(1.0, cos_half))) * n / TWO_PI
    mid = cmath.phase(c) * n / TWO_PI
    j0 = math.ceil(mid - half)
    return j0, min(n, math.floor(mid + half) - j0 + 1)


def _sin_pi(p: int, n: int) -> float:
    """sin(pi p/n), the angle reduced in integers so that it is exactly 0
    at multiples of n and accurate to the last bit near them."""
    p %= 2 * n
    half = p % n
    s = math.sin(math.pi * min(half, n - half) / n)
    return -s if p >= n else s


def _ring_counting(ring: Ring, r: float) -> float:
    """Sum of log(r/|a_j|) over the points of the ring inside |z| < r."""
    R, n, _, c = ring
    j0, L = _arc(ring, r)
    if L == 0:
        return 0.0
    # log|a_j| = log B - Re sum_k y^k w^(-jk) / k, with B = R and y = c/R
    # when |c| <= R/2, B = |c| and y = R/conj(c) when |c| >= 2R; over the
    # arc the sum of w^(-jk) is geometric
    base, y = (R, c / R) if abs(c) < R else (abs(c), R / c.conjugate())
    total = L * math.log(r / base)
    terms = math.ceil(math.log(_SERIES_TOL) / math.log(abs(y)))
    # over the whole ring only the k that n divides are left
    step = n if L == n else 1
    for k in range(step, terms + 1, step):
        if k % n == 0:
            geometric = L
        else:
            # e^(-i pi k (2 j0 + L - 1)/n) sin(pi k L/n) / sin(pi k/n)
            phase = -k * (2 * j0 + L - 1) % (2 * n)
            geometric = cmath.exp(1j * math.pi * phase / n) * (
                _sin_pi(k * L, n) / _sin_pi(k, n)
            )
        total += (y**k * geometric).real / k
    return total


class CharacteristicSample(NamedTuple):
    r: float
    m: float
    N: float
    T: float
    quad_error: float


def _off_poles(
    model: MeromorphicModel, radii: Sequence[float]
) -> Tuple[List[float], Optional[PoleOnCircle]]:
    """The radii nudged off the poles, in order, up to the first that stays
    on one after 3 nudges and its error."""
    if not radii:  # a scan of no radii builds no pole index
        return [], None
    pole_mags, *_, rings = _counting_arrays(model, "poles")
    # the first pole magnitude at or above r (1 - 1e-12) decides for the
    # points, so one search over the grid finds the radii that need a nudge;
    # a ring has a pole in [lo, hi] if its arcs at lo and hi differ, which
    # is checked per radius
    rb = np.array(radii, dtype=float)
    k = pole_mags.searchsorted(rb - 1e-12 * rb)
    near = np.append(pole_mags, np.inf)[k] <= rb + 1e-12 * rb
    used = list(radii)
    for j in range(len(radii)) if rings else np.flatnonzero(near).tolist():
        r = radii[j]
        for _ in range(3):
            lo, hi = r - 1e-12 * r, r + 1e-12 * r
            i = pole_mags.searchsorted(lo)
            if (i == len(pole_mags) or pole_mags[i] > hi) and not any(
                _arc(ring, lo)[1] != _arc(ring, hi)[1] for ring in rings
            ):
                break
            r = r * (1.0 + 1e-9)
        else:
            return used[:j], PoleOnCircle(f"poles stayed on |z| = {r:g} after 3 nudges")
        used[j] = r
    return used, None


def proximity_m(
    model: MeromorphicModel, r: float, *, tol_unit: float = 1e-8
) -> CircleMean:
    """Circle mean of log+ |f|; the radius nudges off any pole on the circle."""
    means, err = _proximity_prefix(model, [r], tol_unit)
    if err is not None:
        raise err
    return means[0]


def characteristic_T(
    model: MeromorphicModel, r: float, *, tol_unit: float = 1e-8
) -> CharacteristicSample:
    return characteristic_samples(model, [r], tol_unit=tol_unit)[0]


def characteristic_samples(
    model: MeromorphicModel, radii: Sequence[float], *, tol_unit: float = 1e-8
) -> List[CharacteristicSample]:
    """characteristic_T at every radius; raises for the first that fails."""
    samples, err = _characteristic_prefix(model, radii, tol_unit)
    if err is not None:
        raise err
    return samples


def _proximity_prefix(
    model: MeromorphicModel, radii: Sequence[float], tol_unit: float
) -> MeansPrefix:
    """proximity_m over radii in order, up to the first radius that fails."""
    used, err = _off_poles(model, radii)
    means, mean_err = _means_prefix(model, used, tol_unit)
    return means, (mean_err if len(means) < len(used) else err)


def _characteristic_prefix(
    model: MeromorphicModel, radii: Sequence[float], tol_unit: float
) -> Tuple[List[CharacteristicSample], Optional[CharFnError]]:
    """characteristic_T over radii in order, up to the first radius that fails."""
    means, err = _proximity_prefix(model, radii, tol_unit)
    counts = _counting_grid(model, [mean.radius for mean in means], "poles")
    samples = [
        CharacteristicSample(
            r=mean.radius, m=mean.value, N=n_val, T=mean.value + n_val, quad_error=mean.error
        )
        for mean, n_val in zip(means, counts)
    ]
    return samples, err


# ---------------------------------------------------------------------------
# shift inequalities


class ShiftCheckRow(NamedTuple):
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


def _counting_factor(c_abs: float, r: float) -> float:
    if c_abs == 0.0:
        return 1.0
    return 1.0 + c_abs / r + (1.0 + c_abs) * math.log1p(c_abs) / math.log(r + c_abs)


def _char_factor(c_abs: float, r: float) -> float:
    if c_abs == 0.0:
        return 1.0
    return 1.0 + (2.0 + c_abs) * math.log1p(c_abs) / math.log(r + c_abs)


def shift_inequality_sweep(
    model: MeromorphicModel,
    c: complex,
    r_min: float,
    r_max: float,
    ratio: float = 1.05,
    *,
    tol_unit: float = 1e-8,
) -> List[ShiftCheckRow]:
    return _shift_rows(model, c, geometric_grid(r_min, r_max, ratio), tol_unit)


def _shift_rows(
    model: MeromorphicModel, c: complex, radii: Sequence[float], tol_unit: float
) -> List[ShiftCheckRow]:
    c_abs = abs(c)
    if any(r <= 1.0 + c_abs for r in radii):
        raise ValueError("need r > 1 + |c|")
    shifted = Shifted(model, c)
    lhs_means, lhs_err = _proximity_prefix(shifted, radii, tol_unit)
    # the additive constants are the same quantities at the base radius
    # r0 = 1 + 2|c|, the far grid's first radius; a scan meets r0 before any row
    far = [1.0 + 2.0 * c_abs] + [r + c_abs for r in radii]
    far_means, far_err = _proximity_prefix(model, far[: len(lhs_means) + 1], tol_unit)
    if not far_means:
        raise far_err
    done = radii[: len(far_means) - 1]
    # the poles, if any lie in the disc a little past r + |c|
    kinds = ["poles" if model.poles(r + c_abs + 1.0) else "zeros" for r in done]
    # per kind in use: N(r, f_c) over the grid, and N(r0, f) then N(r + |c|, f)
    counts = {
        kind: (
            _counting_grid(shifted, done, kind),
            _counting_grid(model, far[: len(far_means)], kind),
        )
        for kind in dict.fromkeys(kinds + ["poles"])
    }
    const_t = far_means[0].value + counts["poles"][1][0]
    rows = []
    for i, r in enumerate(radii):
        # raise what a scan in radius order meets first
        if i == len(lhs_means):
            raise lhs_err
        if i + 1 == len(far_means):
            raise far_err
        lhs_mean, far_mean = lhs_means[i], far_means[i + 1]
        kind = kinds[i]
        (lhs_ns, base_ns), (lhs_ps, base_ps) = counts[kind], counts["poles"]

        lhs_n = lhs_ns[i]
        main_n = _counting_factor(c_abs, r) * base_ns[i + 1]
        used_n = lhs_n - main_n - base_ns[0]

        lhs_t = lhs_mean.value + lhs_ps[i]
        far_t = far_mean.value + base_ps[i + 1]
        main_t = _char_factor(c_abs, r) * far_t
        err_t = lhs_mean.error + _char_factor(c_abs, r) * far_mean.error
        used_t = lhs_t - main_t - const_t
        rows.append(
            ShiftCheckRow(
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


def logdiff_bound_rhs(t_value: float, r: float, c_abs: float, delta: float, eps: float) -> Optional[float]:
    if t_value <= math.e:
        return None
    lt = math.log(t_value)
    try:
        window = (math.log(lt) ** (1.0 + eps)) * lt / r
    except OverflowError:
        raise NumericalBreakdown(f"log-difference bound overflows at r={r:g}") from None
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
) -> ScanResult:
    """Scan the explicit log-difference bound on a geometric grid.

    Points with T(r) <= e are outside the bound's domain and recorded as
    skipped.  `window_divergent` records whether the slow-growth hypothesis
    holds on the data (pressure (log r)^(1+eps) log T / r decaying); when it
    does not, the scan is a negative control and diagnostic only.  The scan
    is certified when the hypothesis holds and the exception set has finite
    logarithmic measure.
    """
    if not 0 < delta < 0.5:
        raise ValueError("delta must lie in (0, 1/2)")
    c_abs = abs(c)
    grid = geometric_grid(r_min, horizon, ratio)
    samples, t_err = _characteristic_prefix(model, grid, tol_unit)
    rhs_all = [logdiff_bound_rhs(s.T, r, c_abs, delta, eps) for s, r in zip(samples, grid)]
    quotient = Quotient(Shifted(model, c), model)
    m_means, m_err = _proximity_prefix(
        quotient, [r for r, rhs in zip(grid, rhs_all) if rhs is not None], tol_unit
    )
    rows = []
    skipped = []
    failing = []
    pressures = []
    for i, r in enumerate(grid):
        # raise what a scan in radius order, T before m, meets first
        if i == len(samples):
            raise t_err
        rhs = rhs_all[i]
        if rhs is None:
            skipped.append(r)
            failing.append(False)
            continue
        lt = math.log(samples[i].T)
        pressures.append(math.log(r) ** (1.0 + eps) * lt / r)
        if len(rows) == len(m_means):
            raise m_err
        lhs = m_means[len(rows)].value
        rows.append(ScanRow(r, lhs, rhs, lhs <= rhs))
        failing.append(not rows[-1].ok)
    es = exception_set_from_grid(grid, failing, horizon)
    rep = densities(es)
    hypothesis = decays(pressures)
    return ScanResult(
        rows=tuple(rows),
        exceptions=es,
        report=rep,
        skipped=tuple(skipped),
        window_divergent=hypothesis,
        certified=hypothesis and rep.log_measure < math.inf,
    )


# ---------------------------------------------------------------------------
# the separating product example


class ProductCertificate(NamedTuple):
    rows: Tuple[Tuple[int, float, int, float, bool], ...]  # k, r_k, n_k, threshold, ok
    doubling_ok: bool
    base_ok: bool


def build_example_product(s_max: int, n1: int = 1) -> Tuple[CanonicalProduct, ProductCertificate]:
    """Rings r_k = 8 * 2^(k-1); each n_k is the smallest integer strictly
    above 4 r_k (log r_k)^2 * (sum of earlier counts).

    Refuses the first level with log n_k / log r_k >= 8, before any later
    n_k is computed, so the counts stay far inside the float range.
    """
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
        ratio = math.log(nk) / math.log(rk)
        if ratio >= 8.0:
            raise CharFnError(
                f"finite-order guard: level {k} has log n_k / log r_k = {ratio:.3g} >= 8"
            )
        levels.append((rk, nk))
        rows.append((k, rk, nk, threshold, nk > threshold))
        total += nk
        rk *= 2.0
    cert = ProductCertificate(
        rows=tuple(rows),
        doubling_ok=all(b >= 2 * a for (a, _), (b, _) in zip(levels, levels[1:])),
        base_ok=levels[0][0] > 6.0,
    )
    return CanonicalProduct(tuple(levels)), cert


class ProductWindowRow(NamedTuple):
    r: float
    t_base: float
    t_shifted: float
    m_quotient: float
    separation_ratio: float  # m(r, f_c/f) / T(r, f_c)
    smallness_ratio: float  # T(r, f) / T(r, f_c)


def example_product_report(
    model: CanonicalProduct, s: int, *, samples: int = 6, tol_unit: float = 1e-8
) -> List[ProductWindowRow]:
    """Table over the window [r_s - 1/2, r_s) for the shift c = 3.

    The top of the window sits on the level-s zero ring, where the quotient
    integrand has that ring's zeros as poles on the circle; the grid stops a
    small guard short of it.
    """
    if samples < 2:
        raise ValueError(f"samples must be at least 2, got {samples}")
    if not 1 <= s <= len(model.levels):
        raise ValueError("level index out of range")
    rs = model.levels[s - 1][0]
    guard = max(1.0 / 64.0, 2.0 * rs * _EXACT_BAND / model.levels[s - 1][1] / 1000.0)
    lo, hi = rs - 0.5, rs - guard
    grid = [lo + (hi - lo) * k / (samples - 1) for k in range(samples)]
    shifted = Shifted(model, 3.0 + 0j)
    base, base_err = _characteristic_prefix(model, grid, tol_unit)
    shift, shift_err = _characteristic_prefix(shifted, grid[: len(base)], tol_unit)
    quot, quot_err = _proximity_prefix(Quotient(shifted, model), grid[: len(shift)], tol_unit)
    # raise what the rows in order meet first, T(r, f) before T(r, f_c)
    # before m(r, f_c/f): the first column that stops where the quotient does
    for done, err in ((len(base), base_err), (len(shift), shift_err), (len(quot), quot_err)):
        if done == len(quot) < len(grid):
            raise err
    return [
        ProductWindowRow(
            r=r,
            t_base=t_base.T,
            t_shifted=t_shift.T,
            m_quotient=m_quot.value,
            separation_ratio=m_quot.value / t_shift.T,
            smallness_ratio=t_base.T / t_shift.T,
        )
        for r, t_base, t_shift, m_quot in zip(grid, base, shift, quot)
    ]


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
        from .eqparse import parse_braced_quotient

        num, den = parse_braced_quotient(text[len("rational:") :])
        return RationalFn(tuple(Fraction(c) for c in num), tuple(Fraction(c) for c in den))
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
        from .eqparse import parse_zpoly

        coeffs = parse_zpoly(body)
        return ExpPoly(tuple(Fraction(c) for c in coeffs))
    if text == "expexp":
        return ExpExp()
    raise ValueError(f"unknown model spec {spec!r}")


def _parse_shift_constant(text: str) -> complex:
    from .eqparse import parse_shift_constant

    re, im = parse_shift_constant(text)
    return complex(re) + 1j * complex(im)
