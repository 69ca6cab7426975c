import cmath
import hashlib
import math
import random
import re
import warnings
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nevdiff import charfn as cf
from nevdiff.zfield import zp_add, zp_mul

from helpers import circle_means

F0, F1 = F(0), F(1)

Z_POLY = cf.RationalFn((F0, F1), (F1,))  # f(z) = z
INV_SHIFT = cf.RationalFn((F1,), (F(-1), F1))  # f(z) = 1/(z-1)
EXP_Z = cf.ExpPoly((F0, F1))  # e^z
ONE = cf.RationalFn((F1,), (F1,))


def _inverse(model):
    """1/model: its poles are the model's zeros."""
    return cf.Quotient(ONE, model)


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
        _inverse(PRODUCT3),
        cf.RationalFn((F(-2), F0, F1), (F0, F0, F(-1), F1)),  # (z^2-2)/(z^2 (z-1))
    ],
    ids=[name[:40] for name in (
        "product:(8,1),(16,300),(32,5000)",
        "shift:1.0:product:(8,1),(16,300),(32,5000)",
        "shift:1j:product:(8,1),(16,300),(32,5000)",
        "shift:(2+1j):product:(8,1),(16,300),(32,5000)",
        "quot:(shift:3.0:product:(8,1),(16,300),(32,5000))/(product:(8,1),(16,300),(32,5000))",
        "quot:(rational:{1}/{1})/(product:(8,1),(16,300),(32,5000))",
        "rational:{z^2-2}/{z^3-z^2}",
    )],
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


def _counting_one_radius(model, r, of):
    """counting_N as it was computed one radius at a time."""
    mags, prefix_m, prefix_mlog, n0, rings = cf._counting_arrays(model, of)
    k = int(np.searchsorted(mags, r, side="right"))
    total = prefix_m[k] * math.log(r) - prefix_mlog[k]
    return float(total + n0 * math.log(r)) + sum(cf._ring_counting(ring, r) for ring in rings)


@pytest.mark.parametrize(
    "model",
    [
        cf.model_from_spec("shift:2+i:product:s=3"),
        cf.model_from_spec("rational:{z^2-2}/{z^4-5*z^3+6*z^2}"),  # poles 0, 0, 2, 3
        # its rings of 300 and 5000 points are in the point index
        cf.Shifted(PRODUCT3, 20.0),
    ],
    ids=[name[:30] for name in (
        "shift:(2+1j):product:(8,1),(16,492),(32,757963)",
        "rational:{z^2-2}/{z^4-5*z^3+6*z^2}",
        "shift:20.0:product:(8,1),(16,300),(32,5000)",
    )],
)
def test_counting_grid_is_counting_n_bit_for_bit(model):
    # ring radii and pole magnitudes exactly, and just either side of them
    radii = [1.0, 1.0 + 1e-12, 2.0, 7.0, 8.0, 16.0, 32.0, 33.0, 100.0, 1e4]
    radii += [edge * (1 + d) for edge in (8.0, 16.0, 32.0) for d in (-1e-9, 1e-9)]
    radii += [abs(32 - 2 - 1j) * 1.5, 1.5] + _grid(1.0, 1e4, 200)
    for of in ("zeros", "poles"):
        want = [_counting_one_radius(model, r, of).hex() for r in radii]
        assert [n.hex() for n in cf._counting_grid(model, radii, of)] == want
        assert [cf.counting_N(model, r, of=of).hex() for r in radii] == want
    for s in cf.characteristic_samples(model, radii[2:5]):
        assert s.N.hex() == _counting_one_radius(model, s.r, "poles").hex()


def test_counting_below_radius_one_is_refused():
    model = cf.model_from_spec("rational:{z^2-2}/{z^3-z^2}")
    for call in (
        lambda: cf.counting_N(model, 0.5),
        lambda: cf._counting_grid(model, [2.0, 0.5], "poles"),
        lambda: cf.characteristic_samples(model, [2.0, 0.5]),
    ):
        with pytest.raises(ValueError, match=r"^counting is reported for r >= 1$"):
            call()


def test_pole_ring_nudges_only_on_the_ring():
    quotient = cf.Quotient(cf.Shifted(PRODUCT3, 3.0), PRODUCT3)
    assert cf.proximity_m(quotient, 31.5).radius == 31.5
    assert cf.proximity_m(quotient, 32.0).radius == 32.0 * (1.0 + 1e-9)


# rings of n = 1 and 3 points, where n divides k inside the series, of 492,
# and of 5000 points, which the quadrature averages
RINGS = cf.CanonicalProduct(((8.0, 1), (16.0, 3), (32.0, 492), (64.0, 5000)))
# |c| < R/2 and |c| > 2R for every ring, and within a factor 2 of some ring,
# which goes into the point index (c = 8 and 16 put a point at 0)
SHIFTS = (1j, 3.0, 2.5 - 1.5j, 8.0, 16.0, 20 + 5j, 40.0, 100.0, 250 + 150j)


def _crossing_radii(c):
    """Radii across every ring crossing |R - |c|| < r < R + |c|, and just
    either side of both ends."""
    radii = []
    for R, _ in RINGS.levels:
        lo, hi = abs(R - abs(c)), R + abs(c)
        radii += [lo + (hi - lo) * t / 24 for t in range(1, 24)]
        radii += [edge * (1 + d) for edge in (lo, hi) for d in (-1e-9, 1e-9)]
    return sorted(r for r in radii if r >= 1.0)


@pytest.mark.parametrize("c", SHIFTS, ids=str)
def test_ring_counting_matches_materialised_points(c):
    # the closed form's absolute error is about 1e-16 L |log(r/R)| for an
    # arc of L points, so a value that a barely entered arc makes near 0 is
    # pinned to 1e-13 absolute
    for model in (cf.Shifted(RINGS, c), _inverse(cf.Shifted(RINGS, c))):
        of = "zeros" if isinstance(model, cf.Shifted) else "poles"
        pts = model.zeros(math.inf) if of == "zeros" else model.poles(math.inf)
        mags = [(abs(z), m) for z, m in pts]
        for r in _crossing_radii(c):
            got = cf.counting_N(model, r, of=of)
            want = math.fsum(
                m * math.log(r / a) if a > 1e-12 else m * math.log(r) for a, m in mags if a <= r
            )
            assert got == pytest.approx(want, rel=1e-13, abs=1e-13), (of, r)


@pytest.mark.parametrize("c", [2 + 1j, 3.0], ids=str)
def test_ring_counting_on_the_separating_product(c):
    # the s=3 product's ring of 757,963 zeros at 32, across its crossing
    model = cf.Shifted(cf.build_example_product(3, 1)[0], c)
    pts = model.zeros(math.inf)
    mags = np.abs(np.array([z for z, _ in pts]))
    lo, hi = 32.0 - abs(c), 32.0 + abs(c)
    for r in [lo + (hi - lo) * t / 16 for t in range(1, 16)] + [hi * (1 + 1e-9)]:
        got = cf.counting_N(model, r, of="zeros")
        want = math.fsum(np.log(r / mags[mags <= r]).tolist())
        assert got == pytest.approx(want, rel=1e-13), r


def test_sin_pi_is_exact_at_multiples_of_n():
    n = 757963
    for p in (0, n, 2 * n, 63 * n, -5 * n):
        assert cf._sin_pi(p, n) == 0.0
    assert cf._sin_pi(63 * n + 1, n) == -math.sin(math.pi / n)
    assert cf._sin_pi(n - 1, n) == math.sin(math.pi / n)


def test_huge_ring_is_refused_where_it_would_be_materialised():
    model, _ = cf.build_example_product(4)
    # a ring of 3,358,333,174 zeros at 64 within a factor 2 of the shift
    # would go into the point index
    with pytest.raises(ValueError, match=r"needs \|c\| <= R/2 or \|c\| >= 2R"):
        cf.counting_N(cf.Shifted(model, 40.0), 70.0, of="zeros")
    # the same ring far from the shift is counted in closed form
    assert math.isfinite(cf.counting_N(cf.Shifted(model, 3.0), 65.0, of="zeros"))
    # listing its zeros is refused
    with pytest.raises(ValueError, match="exceeds 10000000 points"):
        model.zeros(64.0)
    # a shift of a shift seeds from the rings, as the shift by the sum does
    nested = cf.Shifted(cf.Shifted(model, 1.0), 1.0)
    assert nested.seed_angles(62.0) == cf.Shifted(model, 2.0).seed_angles(62.0)


# -- the divisor view ------------------------------------------------------------

# sha256 prefixes of sorted(seed_angles(r)) and band_error(r) as hex at every
# radius of PIN_RADII, then of both counting indexes: the bytes of their
# arrays and each closed-form ring as its (R, n, offset).  The arrays and
# rings are those of the composites that still computed their own seeds,
# bars and points; the rings were re-recorded as tuples, in place of the
# repr of a ring record that also carried a multiplicity of 1.0
DIVISOR_PINS = {
    "r1": "32c339fc66c414bd",
    "shift:1:r1": "35db2b70abd2477b",
    "logdiff:1:r1": "63f521576cb74f4f",
    "inverse:1:r1": "77120cef3fde839d",
    "shift:i:r1": "abd53773cfca2842",
    "logdiff:i:r1": "901acc1abe0c3817",
    "inverse:i:r1": "c8e8c7468c5e64ea",
    "shift:2+i:r1": "baf65ce94e2d7c1e",
    "logdiff:2+i:r1": "e4c985bddda77323",
    "inverse:2+i:r1": "c052c9630a92944e",
    "shift:3:r1": "da4102ebc97205a6",
    "logdiff:3:r1": "f518c82c726f0763",
    "inverse:3:r1": "45ebe4361b43e857",
    "r2": "553bd585424e9667",
    "shift:1:r2": "280ffb2c02c9a7a0",
    "logdiff:1:r2": "0ff68cfef74b2644",
    "inverse:1:r2": "9627bea25eb74512",
    "shift:i:r2": "7454d2555be1caef",
    "logdiff:i:r2": "a8d2709d5e5933b9",
    "inverse:i:r2": "e4395bab3b51ad85",
    "shift:2+i:r2": "c08fcbdcc62c8fa0",
    "logdiff:2+i:r2": "583b8505beed2833",
    "inverse:2+i:r2": "6266d8f0d37c54bd",
    "shift:3:r2": "389671b2c4501436",
    "logdiff:3:r2": "72c44d9f4f43e8a6",
    "inverse:3:r2": "20008861e3c03138",
    "p2": "386d0d4d7e8e5c04",
    "shift:1:p2": "ced0127fd03a299b",
    "logdiff:1:p2": "c32e3505f146bc01",
    "inverse:1:p2": "fa5331d76b8655f3",
    "shift:i:p2": "4491ef1fe8da9810",
    "logdiff:i:p2": "047d832b11fe16bf",
    "inverse:i:p2": "b6795d794be70691",
    "shift:2+i:p2": "08b73215842b2da5",
    "logdiff:2+i:p2": "ccbfc3af21f50010",
    "inverse:2+i:p2": "71a87f07c46cf467",
    "shift:3:p2": "74a078b1fe158481",
    "logdiff:3:p2": "99a371daf18bc8dc",
    "inverse:3:p2": "3fb7bc9a458b6d4b",
    "p3": "fdd617a2020e0a83",
    "shift:1:p3": "7c5c29504701abd6",
    "logdiff:1:p3": "2cb3f2069af4f275",
    "inverse:1:p3": "772c860727a3354b",
    "shift:i:p3": "56225d58f6fa9ee8",
    "logdiff:i:p3": "5006d44fff306563",
    "inverse:i:p3": "f376c9d0b6bf3d2c",
    "shift:2+i:p3": "731411296cd4ac42",
    "logdiff:2+i:p3": "a5b6971108ebba98",
    "inverse:2+i:p3": "482f1df1ae8ebd57",
    "shift:3:p3": "74fd59577261c002",
    "logdiff:3:p3": "f912af682446463a",
    "inverse:3:p3": "88dbfd7fb06f8c3c",
}
PIN_BASES = {
    "r1": cf.model_from_spec("rational:{1}/{z-1}"),
    "r2": cf.model_from_spec("rational:{z^2+1}/{z-2}"),
    "p2": cf.model_from_spec("product:s=2"),
    "p3": cf.model_from_spec("product:s=3"),
}
PIN_SHIFTS = {"1": 1 + 0j, "i": 1j, "2+i": 2 + 1j, "3": 3 + 0j}
# inside, on and across the rings at 8, 16 and 32 and their crossings
PIN_RADII = [1.5, 2.5, 5.5, 7.3, 8.0, 8.8, 10.5, 12.0, 14.2, 15.5, 16.0, 16.9, 18.6, 22.0,
             29.5, 31.0, 32.0, 33.3, 34.9, 40.0]


def _pin_models():
    for b, model in PIN_BASES.items():
        yield b, model
        for s, c in PIN_SHIFTS.items():
            shifted = cf.Shifted(model, c)
            yield f"shift:{s}:{b}", shifted
            yield f"logdiff:{s}:{b}", cf.Quotient(shifted, model)
            yield f"inverse:{s}:{b}", _inverse(shifted)


def _divisor_digest(model):
    h = hashlib.sha256()
    for r in PIN_RADII:
        h.update(" ".join(a.hex() for a in sorted(model.seed_angles(r))).encode())
        h.update(model.band_error(r).hex().encode())
    for kind in ("zeros", "poles"):
        mags, prefix_m, prefix_mlog, n0, rings = cf._counting_arrays(model, kind)
        for a in (mags, prefix_m, prefix_mlog):
            h.update(np.ascontiguousarray(a, dtype=float).tobytes())
        h.update(float(n0).hex().encode())
        h.update(repr([(ring.R, ring.n, ring.offset) for ring in rings]).encode())
    return h.hexdigest()[:16]


def test_divisor_view_is_pinned():
    got = {name: _divisor_digest(model) for name, model in _pin_models()}
    assert got == DIVISOR_PINS


@pytest.mark.parametrize("b", sorted(PIN_BASES))
def test_nested_shift_seeds_as_the_shift_by_the_sum(b):
    nested = cf.Shifted(cf.Shifted(PIN_BASES[b], 1.0), 2 + 1j)
    single = cf.Shifted(PIN_BASES[b], 3 + 1j)
    for r in PIN_RADII:
        assert nested.seed_angles(r) == single.seed_angles(r)
        assert nested.band_error(r) == single.band_error(r)


def test_composites_define_only_their_function_and_blocks():
    for cls in (cf.Shifted, cf.Quotient):
        methods = {k for k, v in vars(cls).items() if callable(v) or isinstance(v, property)}
        assert methods <= {"__init__", "log_abs", "divisor_blocks"}
    for cls in (cf.RationalFn, cf.CanonicalProduct):
        assert not {"zeros", "poles", "band_error", "seed_angles"} & set(vars(cls))


def test_shifted_pole_ring_nudges_only_on_the_ring():
    # poles at 32 e^{2 pi i j/5000} - 3; j = 1250 sits at 32i - 3
    model = _inverse(cf.Shifted(PRODUCT3, 3.0))
    through = abs(32j - 3.0)
    assert cf.proximity_m(model, through).radius == through * (1.0 + 1e-9)
    # the nearest point, 29, and the farthest, 35
    assert cf.proximity_m(model, 29.0).radius == 29.0 * (1.0 + 1e-9)
    assert cf.proximity_m(model, 35.0).radius == 35.0 * (1.0 + 1e-9)
    # halfway between the magnitudes of points 1250 and 1251
    between = 0.5 * (through + abs(32 * cmath.exp(2j * math.pi * 1251 / 5000) - 3.0))
    assert cf.proximity_m(model, between).radius == between
    # the same for a shift within a factor 2 of the ring, whose points are
    # in the point index: j = 1250 sits at 32i - 20
    model = _inverse(cf.Shifted(PRODUCT3, 20.0))
    through = abs(32j - 20.0)
    assert cf.proximity_m(model, through).radius == through * (1.0 + 1e-9)
    between = 0.5 * (through + abs(32 * cmath.exp(2j * math.pi * 1251 / 5000) - 20.0))
    assert cf.proximity_m(model, between).radius == between


# -- model evaluation ----------------------------------------------------------------

S3 = cf.build_example_product(3, 1)[0]  # rings (8, 1), (16, 492), (32, 757963)


def _reference_log_abs(levels, z):
    """Each ring on its own over every point, added in order."""
    out = np.zeros(z.shape)
    for rk, nk in levels:
        with np.errstate(divide="ignore", invalid="ignore"):
            t = nk * (np.log(np.abs(z)) - math.log(rk))
        t = np.where(np.isnan(t), -np.inf, t)
        ring = np.where(t >= cf._EXACT_BAND, t, 0.0)
        mid = (t > -cf._EXACT_BAND) & (t < cf._EXACT_BAND)
        if nk >= cf._RIPPLE_AVERAGE_N:
            ring = np.where(mid, np.maximum(t, 0.0), ring)
        else:
            with np.errstate(divide="ignore"):
                ring[mid] = np.log(np.abs(1.0 - (z[mid] / rk) ** nk))
        out += ring
    return out


def _radius_at_t(rk, t):
    """|z| with log|z| - log rk == t exactly, for a ring with n = 1."""
    x = rk * math.exp(t)
    for _ in range(100):
        if np.log(x) - math.log(rk) == t:
            return x
        x = np.nextafter(x, np.inf if np.log(x) - math.log(rk) < t else 0.0)
    raise AssertionError(f"no float radius at t = {t}")


def _circle(r, n=257):
    return r * np.exp(1j * np.linspace(0.0, cf.TWO_PI, n))


AT_PLUS_40 = _radius_at_t(8.0, cf._EXACT_BAND)
AT_MINUS_40 = _radius_at_t(8.0, -cf._EXACT_BAND)
# one log_abs call each; "inside", "outside" and "straddles" name where the
# chunk lies against a ring's band, t = n (log|z| - log r) in (-40, 40)
LOG_ABS_CHUNKS = {
    "ring16-inside": _circle(16.0),
    "ring16-outside": _circle(20.0),
    "ring16-straddles": np.exp(np.linspace(np.log(14.0), np.log(18.0), 301)) * (0.6 + 0.8j),
    "ring16-below-and-inside": _circle(14.0, 64) * np.linspace(1.0, 16.5 / 14.0, 64),
    "ripple-straddles": _circle(32.0 * (1 + 1e-5)) * np.linspace(0.9999, 1.0001, 257),
    "ring8-t-plus-40": AT_PLUS_40 * np.array([1.0, 1j, -1.0, -1j]),
    "ring8-t-minus-40": AT_MINUS_40 * np.array([1.0, 1j, -1.0]),
    "ring8-t-both": np.array([AT_PLUS_40, -1j * AT_MINUS_40, 8.0 + 1e-3j, 16.1]),
    "ring8-t-minus-40-and-inside": np.array([AT_MINUS_40, 9.0j]),
    "nan-and-inside": np.array([complex(np.nan, 0.0), 9.0, 16.0 * np.exp(0.01j)]),
    "zero-nan-inf": np.array([0.0, np.nan, np.inf, complex(np.nan, 1.0), complex(1.0, -np.inf),
                              9.0, 16.0 * np.exp(0.01j)]),
    "zero-and-nan": np.array([0.0, complex(np.nan, np.nan), 0.0]),
    "infinite": np.array([np.inf, complex(0.0, np.inf)]),
    "empty": np.zeros(0, dtype=complex),
    "two-dimensional": _circle(16.0 * (1 + 1e-3), 256).reshape(16, 16),
}


@pytest.mark.parametrize("name", LOG_ABS_CHUNKS)
def test_product_log_abs_is_the_per_ring_evaluation_bit_for_bit(name):
    z = LOG_ABS_CHUNKS[name]
    got = S3.log_abs(z)
    want = _reference_log_abs(S3.levels, z)
    assert got.shape == z.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("name", LOG_ABS_CHUNKS)
def test_product_log_abs_takes_only_band_points_through_the_power(monkeypatch, name):
    z = LOG_ABS_CHUNKS[name]
    sizes = {}
    ring_factor = cf._ring_factor

    def recording(z, rk, nk):
        sizes.setdefault(nk, []).append(z.size)
        return ring_factor(z, rk, nk)

    monkeypatch.setattr(cf, "_ring_factor", recording)
    S3.log_abs(z)
    for rk, nk in S3.levels:
        with np.errstate(divide="ignore", invalid="ignore"):
            t = nk * (np.log(np.abs(z)) - math.log(rk))
        in_band = int(np.sum((t > -cf._EXACT_BAND) & (t < cf._EXACT_BAND)))
        # one call per resolved ring with points in its band, none otherwise
        resolved = nk < cf._RIPPLE_AVERAGE_N and in_band
        assert sizes.get(nk, []) == ([in_band] if resolved else [])


def test_product_log_abs_against_mpmath():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40
    model = cf.build_example_product(2, 1)[0]  # rings (8, 1), (16, 492)
    assert model.levels == ((8.0, 1), (16.0, 492))

    def oracle(z):
        zz = mpmath.mpc(z.real, z.imag)
        w16 = (zz / 16) ** 492
        value = mpmath.log(abs((1 - zz / 8) * (1 - w16)))
        return float(value), float(abs(w16) / abs(1 - w16))

    rng = np.random.default_rng(2018)
    near8 = 8.0 + 10.0 ** rng.uniform(-6, -2, 120) * np.exp(1j * rng.uniform(0, cf.TWO_PI, 120))
    t = rng.uniform(-45.0, 45.0, 240)
    band16 = 16.0 * np.exp(t / 492) * np.exp(1j * rng.uniform(0, cf.TWO_PI, 240))
    zeros16 = 16.0 * np.exp(2j * np.pi * rng.integers(0, 492, 60) / 492)
    band16 = np.concatenate([band16, zeros16 + 10.0 ** rng.uniform(-8, -3, 60)])
    eps = np.finfo(float).eps
    for z, got in zip(near8, model.log_abs(near8)):
        want, _ = oracle(z)
        assert abs(got - want) <= 1e-13, z
    for z, got in zip(band16, model.log_abs(band16)):
        want, gain = oracle(z)
        # (z/16)**492 carries a relative error of order 492 eps, which
        # log|1 - w| multiplies by |w| / |1 - w|
        assert abs(got - want) <= 1e-13 + 4 * 492 * eps * gain, z


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
        a = circle_means(model, [r], tol_unit=1e-8, base_panels=64)[0]
        b = circle_means(model, [r], tol_unit=1e-8, base_panels=128)[0]
        assert abs(a.value - b.value) <= a.error + b.error + 1e-15


NEAR_POLES = cf.RationalFn((F1,), (F(-25), F0, F1))  # 1/(z^2 - 25)
SMALL_RING = cf.CanonicalProduct(((8.0, 5), (16.0, 300)))  # ring 8 seeds angles
QUADRATIC = cf.RationalFn((F(-2), F0, F1), (F0, F0, F(-1), F1))


def _grid(lo, hi, n):
    return [lo * (hi / lo) ** (k / (n - 1)) for k in range(n)]


# 80 radii span two blocks, unseeded circles too, which evaluate only the
# probe first
BLOCK_IDS = [name[:30] for name in (
    "rational:{1}/{z^2-25}",
    "exp:(z^2+3*z)/3",
    "expexp",
    "product:(8,5),(16,300)",
    "shift:(2+1j):product:(8,5),(16,300)",
    "quot:(shift:1j:rational:{z^2-2}/{z^3-z^2})/(rational:{z^2-2}/{z^3-z^2})",
    "quot:(rational:{1}/{1})/(rational:{1}/{z^2-25})",
    "shift:1.0:expexp",
)]
BLOCK_CASES = [
    (NEAR_POLES, _grid(3.0, 7.0, 78) + [4.99, 5.01]),
    (cf.ExpPoly((F0, F1, F(1, 3))), _grid(0.5, 30.0, 80)),
    (cf.ExpExp(), _grid(0.5, 8.0, 80)),
    (SMALL_RING, _grid(6.0, 20.0, 80)),
    (cf.Shifted(SMALL_RING, 2 + 1j), _grid(6.0, 20.0, 80)),
    (cf.Quotient(cf.Shifted(QUADRATIC, 1j), QUADRATIC), _grid(0.9, 1e4, 80)),
    (_inverse(NEAR_POLES), _grid(3.0, 7.0, 78) + [4.99, 5.01]),
    (cf.Shifted(cf.ExpExp(), 1.0), _grid(0.5, 6.0, 80)),
]


@pytest.mark.parametrize(
    "model, radii", BLOCK_CASES, ids=BLOCK_IDS
)
def test_circle_means_block_matches_each_circle_alone(monkeypatch, model, radii):
    blocks = []
    block_means = cf._block_means

    def counting(*args, **kwargs):
        blocks.append(len(args[1]))
        return block_means(*args, **kwargs)

    monkeypatch.setattr(cf, "_block_means", counting)
    block = circle_means(model, radii, tol_unit=1e-8)
    # the radii span several blocks
    assert len(blocks) >= 2 and sum(blocks) == len(radii)
    alone = [circle_means(model, [r], tol_unit=1e-8)[0] for r in radii]
    for got, want in zip(block, alone):
        assert got.radius == want.radius
        assert got.value == want.value
        assert got.error == want.error
        assert got.evaluations == want.evaluations
    # the radii mix long refinements with short ones
    evaluations = [m.evaluations for m in block]
    assert max(evaluations) > min(evaluations)


def _record_sizes(monkeypatch, cls):
    """The size of every argument of cls.log_abs from now on."""
    sizes = []
    log_abs = cls.log_abs

    def recording(self, z):
        sizes.append(z.size)
        return log_abs(self, z)

    monkeypatch.setattr(cls, "log_abs", recording)
    return sizes


def test_probe_rows_are_evaluated_in_chunks(monkeypatch):
    # a chunk's complex points stay under 64 KiB
    assert cf._CHUNK_ROWS * len(cf._PROBE) * 16 < 65536
    radii = _grid(0.5, 3.0, 32) + [4.99, 5.01, 4.95]
    seeded = [r for r in radii if NEAR_POLES.seed_angles(r)]
    assert seeded == radii[32:]
    alone = [circle_means(NEAR_POLES, [r], tol_unit=1e-8)[0] for r in radii]
    sizes = _record_sizes(monkeypatch, cf.RationalFn)
    assert circle_means(NEAR_POLES, radii, tol_unit=1e-8) == alone
    # one block: rows 0-14, rows 15-29, then rows 30-34 with the seeded
    # circles' panel ends and midpoints
    panels = sum(len(cf._initial_panels(NEAR_POLES.seed_angles(r), 64)[0]) for r in seeded)
    assert sizes[:3] == [15 * 257, 15 * 257, 5 * 257 + 3 * panels]


def test_block_of_at_most_15_circles_makes_one_model_call(monkeypatch):
    radii = _grid(1.0, 60.0, 16)
    sizes = _record_sizes(monkeypatch, cf.ExpPoly)
    # every circle is accepted in its first round
    assert [m.evaluations for m in circle_means(EXP_Z, radii[:15], tol_unit=1e-8)] == [257] * 15
    assert sizes == [15 * 257]
    sizes.clear()
    circle_means(EXP_Z, radii, tol_unit=1e-8)
    assert sizes == [15 * 257, 257]


# the scale probe is the first two Simpson rounds of a circle with no seed
# angles; a seeded circle evaluates its own panels.  Values and errors were
# taken from the quadrature that evaluated the probe separately.  The shifted
# ring's errors are those of its ring of 5 zeros evaluated as (z/8)**5, which
# numpy computes by multiplication (it does for integer powers below 100).
SQUARE_LESS_TWO = cf.RationalFn((F(-2), F0, F1), (F1,))
SHIFT_QUOTIENT = cf.Quotient(cf.Shifted(SQUARE_LESS_TWO, 1.0), SQUARE_LESS_TWO)
SHIFTED_RING = cf.Shifted(SMALL_RING, 2 + 1j)
PINNED_NAMES = {
    EXP_Z: "exp:z",
    SHIFT_QUOTIENT: "quot:(shift:1.0:rational:{z^2-2}/{1})/(rational:{z^2-2}/{1})",
    SHIFTED_RING: "shift:(2+1j):product:(8,5),(16,300)",
    cf.ExpExp(): "expexp",
}
PINNED_MEANS = [
    # model, r, base panels, seeded, value, error, evaluations
    (EXP_Z, 5.0, 64, False, "0x1.976fc893c2daep+0", "0x1.b91c6c06f5e23p-29", 257),
    (EXP_Z, 37.0, 64, False, "0x1.78e0ffef143dap+3", "0x1.9807171e3e40fp-26", 257),
    (SHIFT_QUOTIENT, 1.5, 64, True, "0x1.e76a093941ceep-2", "0x1.0b18454720f78p-27", 1097),
    (SHIFT_QUOTIENT, 2.4, 64, True, "0x1.ec75b045a3eedp-3", "0x1.79347f22d94c9p-30", 721),
    (SHIFT_QUOTIENT, 7.0, 64, False, "0x1.6fada90dd6864p-4", "0x1.7aa964a86233dp-32", 337),
    (SHIFTED_RING, 3.0, 64, False, "0x1.c07ec8ff05f90p-7", "0x1.6b3c7138dbe1fp-30", 489),
    (SHIFTED_RING, 8.0, 64, True, "0x1.124dde799ac57p-1", "0x1.f5a2dcf5535d3p-29", 1246),
    (SHIFTED_RING, 15.0, 64, True, "0x1.14bfa4bcfbd74p+3", "0x1.3bd166b7d0b8fp-24", 2655),
    (cf.ExpExp(), 2.0, 64, False, "0x1.239c4a02b3205p+0", "0x1.69674ea38f894p-27", 505),
    (cf.ExpExp(), 4.0, 64, False, "0x1.0a6d215457ef3p+2", "0x1.7b0a264e35f0cp-26", 457),
    (EXP_Z, 37.0, 128, False, "0x1.78e0ffef14fa7p+3", "0x1.97ef88295fb50p-30", 897),
    (SHIFT_QUOTIENT, 1.5, 128, True, "0x1.e76a0939002cbp-2", "0x1.2b41ae830e9dcp-28", 1265),
    (SHIFT_QUOTIENT, 7.0, 128, False, "0x1.6fada90dd3f4ap-4", "0x1.7dc701f8c8eb9p-36", 969),
]


@pytest.mark.parametrize(
    "model, r, base_panels, seeded, value, error, evaluations",
    PINNED_MEANS,
    ids=[f"{PINNED_NAMES[m][:20]}-r{r}-{bp}" for m, r, bp, *_ in PINNED_MEANS],
)
def test_circle_mean_pinned_bits(model, r, base_panels, seeded, value, error, evaluations):
    assert bool(model.seed_angles(r)) == seeded
    mean = circle_means(model, [r], tol_unit=1e-8, base_panels=base_panels)[0]
    assert mean.value.hex() == value
    assert mean.error.hex() == error
    assert mean.evaluations == evaluations


def test_block_of_whole_refined_and_seeded_circles_matches_each_alone(monkeypatch):
    radii = _grid(6.0, 20.0, 24)
    blocks = []
    block_means = cf._block_means

    def counting(*args, **kwargs):
        blocks.append(len(args[1]))
        return block_means(*args, **kwargs)

    monkeypatch.setattr(cf, "_block_means", counting)
    block = circle_means(SMALL_RING, radii, tol_unit=1e-8)
    assert blocks == [len(radii)]
    # rows summed whole, rows that refine, and circles with seed angles
    kinds = {
        "seeded" if SMALL_RING.seed_angles(m.radius) else
        "whole" if m.evaluations == len(cf._PROBE) else "refined"
        for m in block
    }
    assert kinds == {"seeded", "whole", "refined"}
    assert block == [circle_means(SMALL_RING, [r], tol_unit=1e-8)[0] for r in radii]


@pytest.mark.parametrize(
    "model, radii", BLOCK_CASES, ids=BLOCK_IDS
)
def test_seed_search_picks_every_seeded_radius(model, radii):
    # and the radii at the edges of the 10% window of every seed point
    edges = [q / k for q, _ in model._seed_parts[0] for k in (0.9, 1.1)]
    radii = radii + edges + [math.nextafter(r, d) for r in edges for d in (0.0, math.inf)]
    seeded = {j for j, r in enumerate(radii) if model.seed_angles(r)}
    assert seeded <= set(model.seeded_radii(radii))


def test_scan_far_from_the_divisor_asks_for_no_seeds_or_bars(monkeypatch):
    calls = {"seed_angles": 0, "band_error": 0}
    for name in calls:
        method = getattr(cf.MeromorphicModel, name)

        def counting(self, r, name=name, method=method):
            calls[name] += 1
            return method(self, r)

        monkeypatch.setattr(cf.MeromorphicModel, name, counting)
    grid = cf.geometric_grid(10.0, 1e6, 1.01)
    for model in (SQUARE_LESS_TWO, cf.Quotient(cf.Shifted(SQUARE_LESS_TWO, 1.0), SQUARE_LESS_TWO)):
        assert len(circle_means(model, grid, tol_unit=1e-8)) == len(grid)
    assert calls == {"seed_angles": 0, "band_error": 0}


_finite = st.floats(-1e6, 1e6, allow_nan=False)


@given(
    st.lists(_finite, min_size=1, max_size=5),
    st.lists(st.builds(complex, _finite, _finite), min_size=1, max_size=20),
)
@settings(max_examples=200, deadline=None)
def test_polyval_from_the_leading_coefficient_is_the_zero_start_horner(coeffs, points):
    coeffs, z = np.array(coeffs), np.array(points)
    acc = np.zeros_like(z)
    for c in coeffs[::-1]:
        acc = acc * z + c
    with np.errstate(all="ignore"):
        got = cf._polyval(coeffs, z)
    assert got.tobytes() == acc.tobytes()


def _signed(magnitudes):
    return st.builds(lambda m, sign: sign * m, magnitudes, st.sampled_from([1.0, -1.0]))


# the pieces a run of _fsums is made of: ordinary magnitudes, zeros of both
# signs, subnormals, pieces around ties at 1 - 2^-54 and 1 + 2^-53 (with
# 2^55 to cancel), magnitudes whose sums overflow, and non-finite values
_SUM_PIECES = [
    _signed(st.floats(1e-300, 1e300)),
    st.sampled_from([0.0, -0.0]),
    _signed(st.floats(5e-324, 2.0**-1022, exclude_max=True)),
    st.sampled_from([0.75, 1.0] + [sign * 2.0**e for e in (-54, -106, -108, 55)
                                   for sign in (1, -1)]),
    _signed(st.sampled_from([1.7e308, 1e292, 2.0**971])),
    st.sampled_from([math.inf, -math.inf, math.nan]),
]
_RUNS = st.lists(
    st.one_of([st.lists(p, min_size=1, max_size=40) for p in _SUM_PIECES]
              + [st.lists(st.one_of(_SUM_PIECES), min_size=1, max_size=40)]),
    min_size=1, max_size=6,
)


@given(_RUNS)
@example([[1e308, 1e308]])
@example([[1.7e308, 1e292, -1.7e308]])
@example([[-0.0], [-0.0, -0.0], [0.0, -0.0]])
@example([[1.0, 2.0**-54], [1.0, -(2.0**-54)], [1.0, 2.0**-54, 2.0**-106]])
# just past a tie below a power of two, and a sum of the low parts that
# rounds across a tie after cancellation
@example([[1.0, -(2.0**-54), -(2.0**-108)]])
@example([[-(2.0**55), -7 * 2.0**-92, 5 * 2.0**-54, 2.0**55, 0.75, 7 * 2.0**-62, -(2.0**-71),
            5 * 2.0**-107]])
@settings(max_examples=300, deadline=None)
def test_fsums_are_fsum_bit_for_bit(runs):
    x = np.array([v for run in runs for v in run])
    counts = np.array([len(run) for run in runs])
    want = []
    for run in runs:
        try:
            want.append(math.fsum(run).hex())
        except (OverflowError, ValueError) as exc:
            # the first run fsum refuses is the one the whole call refuses
            with pytest.raises(type(exc), match=re.escape(str(exc))):
                cf._fsums(x, counts)
            return
    assert [v.hex() for v in cf._fsums(x, counts).tolist()] == want


@pytest.mark.parametrize("model", [Z_POLY, SQUARE_LESS_TWO, QUADRATIC, NEAR_POLES])
def test_rational_log_abs_is_the_two_polyval_path(model):
    z = np.concatenate([[0j, 2**0.5, -(2**0.5)], cf._UNIT * 3.0, cf._UNIT * 1e5])
    num, den = model._floats
    with np.errstate(divide="ignore"):
        want = np.log(np.abs(cf._polyval(num, z))) - np.log(np.abs(cf._polyval(den, z)))
        assert model.log_abs(z).tobytes() == want.tobytes()


def test_unseeded_circle_accepted_in_first_round_evaluates_only_the_probe():
    assert not EXP_Z.seed_angles(5.0)
    mean = circle_means(EXP_Z, [5.0], tol_unit=1e-8)[0]
    assert mean.evaluations == len(cf._PROBE) == 257


def test_probe_is_the_five_point_grid_of_the_base_panels():
    a, h = cf._initial_panels([], 64)
    ends = np.append(a, cf.TWO_PI)
    for j in range(65):
        assert cf._PROBE[4 * j] == ends[j]
    for j in range(64):
        assert cf._PROBE[4 * j + 2] == a[j] + 0.5 * h[j]
        assert cf._PROBE[4 * j + 4] == a[j] + h[j]


def test_unit_probe_points_are_bit_for_bit_the_exponential():
    assert cf._UNIT.view(np.uint64).tolist() == np.exp(1j * cf._PROBE).view(np.uint64).tolist()
    for r in (0.5, 7.0, 37.0, 1e6):
        want = r * np.exp(1j * cf._PROBE)
        assert (r * cf._UNIT).view(np.uint64).tolist() == want.view(np.uint64).tolist()


# Failures in an unseeded circle's first round, which reads the probe.  The
# expected messages and bits were taken from the quadrature that ran that
# round on the one-dimensional frontier.
Z_CUBED = cf.ExpPoly((F0, F0, F0, F1))  # e^{z^3}: 34 base panels rejected at r = 2
EXPEXP_OVER_POLES = cf.Quotient(cf.ExpExp(), NEAR_POLES)


def test_unseeded_circle_over_budget_in_its_first_round():
    with pytest.raises(cf.QuadratureNonConvergence) as info:
        circle_means(EXP_Z, [5.0], tol_unit=1e-8, max_panels=64)
    assert str(info.value) == "budget exhausted at r=5 (257 evaluations)"
    assert circle_means(EXP_Z, [5.0], tol_unit=1e-8, max_panels=65)[0].evaluations == 257


@pytest.mark.parametrize(
    "max_panels, message",
    [
        (64, "budget exhausted at r=2 (257 evaluations)"),
        (65, "too many panels at r=2"),
        (67, "too many panels at r=2"),
        (68, "budget exhausted at r=2 (393 evaluations)"),
    ],
)
def test_panel_cap_right_after_the_first_round(max_panels, message):
    assert not Z_CUBED.seed_angles(2.0)
    with pytest.raises(cf.QuadratureNonConvergence) as info:
        circle_means(Z_CUBED, [2.0], tol_unit=1e-8, max_panels=max_panels)
    assert str(info.value) == message


def test_block_of_probed_and_seeded_circles_fails_in_order():
    radii = [3.0, 4.9, 800.0, 6.0]
    assert [bool(EXPEXP_OVER_POLES.seed_angles(r)) for r in radii] == [False, True, False, False]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # r = 800 overflows in its probe, but r = 4.9 runs on and exhausts
        # its budget several rounds later
        with pytest.raises(cf.QuadratureNonConvergence) as info:
            circle_means(EXPEXP_OVER_POLES, [4.9, 800.0], tol_unit=1e-8, max_panels=200)
        means, err = cf._means_prefix(EXPEXP_OVER_POLES, radii, 1e-8, 64, 300)
    assert str(info.value) == "budget exhausted at r=4.9 (809 evaluations)"
    assert isinstance(err, cf.NumericalBreakdown)
    assert str(err) == "non-finite integrand at r=800"
    assert [(m.value.hex(), m.error.hex(), m.evaluations) for m in means] == [
        ("0x1.1502799fd38afp+2", "0x1.741369f78f4bdp-25", 577),
        ("0x1.57a538f9bbca0p+3", "0x1.d66e45d3cec00p-23", 1057),
    ]


def test_failures_across_a_chunk_boundary():
    # r = 4.9 is the last row of the first chunk, but its panels are evaluated
    # in the second, with the probe of r = 800, which overflows
    radii = _grid(2.0, 4.0, 14) + [4.9, 800.0, 6.0]
    seeded = [bool(EXPEXP_OVER_POLES.seed_angles(r)) for r in radii]
    assert seeded == [False] * 14 + [True, False, False]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        means, err = cf._means_prefix(EXPEXP_OVER_POLES, radii, 1e-8, 64, 200)
        assert len(means) == 14
        assert str(err) == "budget exhausted at r=4.9 (809 evaluations)"
        means, err = cf._means_prefix(EXPEXP_OVER_POLES, radii, 1e-8, 64, 300)
    assert isinstance(err, cf.NumericalBreakdown)
    assert str(err) == "non-finite integrand at r=800"
    # the means were taken from the quadrature that made one model call
    assert [(m.value.hex(), m.error.hex(), m.evaluations) for m in means[12:]] == [
        ("0x1.6b6aa588be393p+2", "0x1.6e64a4a6d8e35p-24", 609),
        ("0x1.91ea0bdb53e09p+2", "0x1.5de6c58cc4bfdp-24", 609),
        ("0x1.57a538f9bbca0p+3", "0x1.d66e45d3cec00p-23", 1057),
    ]


def test_block_raises_for_the_first_failing_radius_in_order():
    # alone, r = 4.95 exhausts the budget in fewer rounds than r = 4.9
    radii = [3.0, 4.9, 4.95, 6.0]
    with pytest.raises(cf.QuadratureNonConvergence, match=r"at r=4\.9 "):
        circle_means(NEAR_POLES, radii, tol_unit=1e-8, max_panels=200)
    with pytest.raises(cf.QuadratureNonConvergence, match=r"at r=4\.95 "):
        circle_means(NEAR_POLES, [3.0, 4.95, 6.0], tol_unit=1e-8, max_panels=200)


def test_budget_applies_only_to_circles_still_refining():
    # alone, r = 4.95 ends over the budget of 4 * 266 evaluations one round
    # before r = 4.92 ends
    means = circle_means(NEAR_POLES, [4.95, 4.92], tol_unit=1e-8, max_panels=266)
    assert means[0].evaluations > 4 * 266


def test_overflowing_integrand_is_a_numerical_breakdown():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(cf.NumericalBreakdown, match=r"r=800\b"):
            circle_means(cf.ExpExp(), [5.0, 800.0, 900.0], tol_unit=1e-8)


def test_pole_on_circle_perturbs():
    mean = cf.proximity_m(INV_SHIFT, 1.0)
    assert mean.radius > 1.0
    assert mean.radius == pytest.approx(1.0, rel=1e-8)


# Radii on a pole magnitude or on a shifted pole ring's crossings, nudged by
# the whole grid at once; the expected radii were taken from the nudge that
# searched the pole index one radius at a time.
THROUGH = abs(32j - 3.0)  # point 1250 of the ring 32 e^{2 pi i j/5000}, shifted by -3
GRID_NUDGES = [
    (NEAR_POLES, [4.0, 5.0, 5.0 * (1 + 1e-9), 6.0, 25.0],
     ["0x1.0000000000000p+2", "0x1.400000055e63cp+2", "0x1.400000055e63cp+2",
      "0x1.8000000000000p+2", "0x1.9000000000000p+4"]),
    (_inverse(cf.Shifted(PRODUCT3, 3.0)),
     [THROUGH, 29.0, 0.5 * (THROUGH + abs(32 * cmath.exp(2j * math.pi * 1251 / 5000) - 3.0)),
      31.5, 35.0],
     ["0x1.011f5eb9919c4p+5", "0x1.d0000007c8dd7p+4", "0x1.012336986c292p+5",
      "0x1.f800000000000p+4", "0x1.18000004b2974p+5"]),
    (cf.Quotient(cf.Shifted(PRODUCT3, 3.0), PRODUCT3), [16.0, 31.5, 32.0, 33.0],
     ["0x1.000000044b830p+4", "0x1.f800000000000p+4", "0x1.000000044b830p+5",
      "0x1.0800000000000p+5"]),
]


@pytest.mark.parametrize(
    "model, radii, nudged", GRID_NUDGES, ids=[name[:30] for name in (
        "rational:{1}/{z^2-25}",
        "quot:(rational:{1}/{1})/(shift:3.0:product:(8,1),(16,300),(32,5000))",
        "quot:(shift:3.0:product:(8,1),(16,300),(32,5000))/(product:(8,1),(16,300),(32,5000))",
    )]
)
def test_grid_nudges_the_radii_on_poles(model, radii, nudged):
    used, err = cf._off_poles(model, radii)
    assert err is None
    assert [r.hex() for r in used] == nudged


def test_grid_nudge_on_characteristic_samples():
    samples = cf.characteristic_samples(NEAR_POLES, [4.0, 5.0, 6.0])
    assert [s.r.hex() for s in samples] == [
        "0x1.0000000000000p+2", "0x1.400000055e63cp+2", "0x1.8000000000000p+2"
    ]


class StackedPoles(cf.MeromorphicModel):
    """Poles at 5 and at the two radii that 5 is nudged to, so that the
    circle |z| = 5 stays on a pole after 3 nudges."""

    def log_abs(self, z):
        return np.zeros(z.shape)

    def divisor_blocks(self, kind, offset=0j):
        if kind == "zeros":
            return [], ()
        mags = [5.0, 5.0 * (1.0 + 1e-9)]
        mags.append(mags[-1] * (1.0 + 1e-9))
        return [(complex(m) - offset, 1) for m in mags], ()


def test_pole_that_stays_on_the_circle_ends_the_grid():
    samples, err = cf._characteristic_prefix(StackedPoles(), [4.0, 5.0, 6.0], 1e-8)
    assert [s.r for s in samples] == [4.0]
    assert isinstance(err, cf.PoleOnCircle)
    assert str(err) == "poles stayed on |z| = 5 after 3 nudges"
    with pytest.raises(cf.PoleOnCircle, match=r"^poles stayed on \|z\| = 5 after 3 nudges$"):
        cf.proximity_m(StackedPoles(), 5.0)


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
        degree = max(len(num), len(den)) - 1
        assert s.T / math.log(1e4) == pytest.approx(degree, rel=0.02)


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
    [row] = cf.shift_inequality_sweep(INV_SHIFT, 0.0, 50.0, 50.0)
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
    assert rep.window_divergent


def test_verify_logdiff_zero_shift():
    rep = cf.verify_logdiff_bound(EXP_Z, 0.0, 0.25, 1.0, 1e3)
    assert rep.exceptions.is_empty


def test_verify_logdiff_double_exponential_flagged():
    rep = cf.verify_logdiff_bound(
        cf.ExpExp(), 1.0, 0.25, 1.0, 40.0, r_min=3.0, ratio=1.2
    )
    assert not rep.window_divergent


# -- the separating product -----------------------------------------------------------


def test_build_product_levels():
    model, cert = cf.build_example_product(2, 1)
    assert model.levels[0] == (8.0, 1)
    assert model.levels[1][0] == 16.0
    # smallest integer above 4 * 16 * log(16)^2 = 491.98...
    assert model.levels[1][1] == 492
    assert all(ok for *_, ok in cert)


@pytest.mark.parametrize("levels, message", [
    ((), "need at least one level"),
    (((6.0, 1),), "first ring radius must exceed 6"),
    (((8.0, 1), (15.9, 2)), "ring radii must at least double"),
    (((8.0, 1), (16.0, 0)), "ring multiplicities are positive integers"),
])
def test_canonical_product_refuses_bad_levels(levels, message):
    with pytest.raises(ValueError, match=message):
        cf.CanonicalProduct(levels)


def test_build_product_single_level():
    model, _ = cf.build_example_product(1, 3)
    assert model.levels == ((8.0, 3),)


def test_build_product_counts_increase():
    model, _ = cf.build_example_product(3, 1)
    counts = [nk for _, nk in model.levels]
    assert counts == sorted(counts)
    assert counts[2] == 757963


def test_build_product_overflow():
    # the finite-order guard refuses level 7 before n_8 is computed, so no
    # depth can overflow a float
    for s in (7, 10_000):
        with pytest.raises(cf.CharFnError, match=r"level 7 has log n_k / log r_k = 8\.49 >= 8"):
            cf.build_example_product(s, 1)
    with pytest.raises(cf.CharFnError, match=r"level 1 has log n_k / log r_k = 9\.97"):
        cf.build_example_product(2, 10**9)
    model, cert = cf.build_example_product(4, 1)
    assert model.levels[3] == (64.0, 3358333174)
    assert all(ok for *_, ok in cert)


def test_product_report_degenerate_level_one():
    model, _ = cf.build_example_product(1, 2)
    rows = cf.example_product_report(model, 1, samples=3)
    assert len(rows) == 3  # diagnostic only, no separation expected


@pytest.mark.xfail(
    strict=True,
    reason="a ring of 256 < n < 4096 zeros gets no seed angles, so the 257-point "
    "probe aliases its ripple",
)
def test_product_example_last_row_against_a_dense_oracle():
    # the last row of `product-example --levels 2`, a guard of 1/64 inside
    # the n = 492 ring at 16; the midpoint rule on 2^20 points converges
    # there to about 1e-9 and reads 0.738433, where the mean is 0.724926
    model, _ = cf.build_example_product(2, 1)
    r = 16.0 - 1.0 / 64.0
    theta = cf.TWO_PI * (np.arange(2**20) + 0.5) / 2**20
    oracle = np.maximum(model.log_abs(r * np.exp(1j * theta)), 0.0).mean()
    mean = cf.proximity_m(model, r)
    assert abs(mean.value - oracle) <= mean.error


@pytest.mark.parametrize("samples", [2, 6])
def test_product_report_is_three_grid_calls_equal_to_its_one_radius_rows(
    monkeypatch, samples
):
    model, _ = cf.build_example_product(2, 1)
    calls = []
    prefix = cf._means_prefix

    def counting(model, radii, *args):
        calls.append(len(radii))
        return prefix(model, radii, *args)

    monkeypatch.setattr(cf, "_means_prefix", counting)
    rows = cf.example_product_report(model, 2, samples=samples)
    assert calls == [samples] * 3
    for row in rows:
        t_base = cf.characteristic_T(model, row.r).T
        t_shift = cf.characteristic_T(cf.Shifted(model, 3.0), row.r).T
        m_quot = cf.log_diff_m(model, 3.0, row.r).value
        assert (row.t_base, row.t_shifted, row.m_quotient) == (t_base, t_shift, m_quot)


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


# -- degree law under composition ------------------------------------------------------


def test_valiron_degree_law_composition():
    # R(w) = (w^2 + 1)/(w - 2) composed with f = (z^2 + 3)/(z + 1)
    fn, fd = (3, 0, 1), (1, 1)
    comp_num = zp_add(zp_mul(fn, fn), zp_mul(fd, fd))
    comp_den = zp_mul(fd, zp_add(fn, tuple(-2 * c for c in fd)))
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


def test_models_compare_by_type_and_arguments():
    a = cf.Shifted(PRODUCT3, 1.0)
    b = cf.Shifted(cf.CanonicalProduct(PRODUCT3.levels), 1.0)
    assert a == b and hash(a) == hash(b)
    assert a != cf.Shifted(PRODUCT3, 2.0)
    # a tuple, and another model type, with the same arguments
    assert a != (PRODUCT3, 1.0) and a != cf.Quotient(PRODUCT3, 1.0)
    assert cf.Quotient(ONE, EXP_Z) != cf.Quotient(EXP_Z, ONE)
    assert cf.ExpExp() == cf.ExpExp() != EXP_Z
    assert cf.RationalFn((F1,), (F1,)) == ONE and hash(cf.RationalFn((F1,), (F1,))) == hash(ONE)
    assert repr(cf.Shifted(cf.CanonicalProduct(((8.0, 1),)), 1.0)) == (
        "Shifted(base=CanonicalProduct(levels=((8.0, 1),)), c=1.0)"
    )
    # an equal model reuses the counting index that an earlier one built
    cf._counting_arrays.cache_clear()
    cf.counting_N(cf.Shifted(PRODUCT3, 2.0), 40.0, of="zeros")
    cf.counting_N(cf.Shifted(cf.CanonicalProduct(PRODUCT3.levels), 2.0), 40.0, of="zeros")
    assert cf._counting_arrays.cache_info().misses == 1
