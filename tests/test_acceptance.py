"""Acceptance suite: one test per criterion, each at its stated tolerance.

Every test prints a single PASS line (visible under `pytest -s` or in the
captured output) and enforces its runtime budget.
"""

import json
import math
import random
import time
from fractions import Fraction as F
from pathlib import Path

import pytest

from nevdiff import charfn as cf
from nevdiff import clunie
from nevdiff import diffpoly as dp
from nevdiff import growth as g
from nevdiff import poleprop
from nevdiff.cli import main as cli_main
from nevdiff.diffpoly import Shift, SymbolicCoeff, normalize
from nevdiff.eqparse import ClunieEquation, parse_equation, to_canonical_text
from nevdiff.zfield import RZ_ONE

from helpers import edrei_fuchs_bound, random_equation

DATA = Path(__file__).parent / "data"


class Budget:
    def __init__(self, seconds: float):
        self.limit = seconds
        self.start = time.monotonic()

    def check(self) -> float:
        elapsed = time.monotonic() - self.start
        assert elapsed < self.limit, f"runtime {elapsed:.1f}s over budget {self.limit}s"
        return elapsed


def done(n: int, text: str, budget: Budget) -> None:
    elapsed = budget.check()
    print(f"ACCEPTANCE {n}: PASS ({elapsed:.2f}s) - {text}")


# -- 1 ---------------------------------------------------------------------


def test_acceptance_01_degree_calculus_exact():
    budget = Budget(1.0)
    p = clunie.benchmark_lhs()
    assert dp.total_degree(p) == 2
    assert dp.weight(p) == 2
    assert dp.unshifted_degree(p) == 1
    done(1, "benchmark degree data (2, 2, 1) exact", budget)


# -- 2 ---------------------------------------------------------------------


def _random_homogeneous_lhs(rng: random.Random):
    while True:
        total = rng.randint(2, 4)
        n_shifts = rng.randint(1, 3)
        width = n_shifts + 1
        terms = set()
        for _ in range(rng.randint(2, 5)):
            cuts = sorted(rng.randint(0, total) for _ in range(width - 1))
            terms.add(tuple(b - a for a, b in zip([0] + cuts, cuts + [total])))
        shifts = tuple(
            Shift(F(k + 1), F(0), index=k + 1) for k in range(n_shifts)
        )
        p = normalize(shifts, [(RZ_ONE, idx) for idx in terms])
        if p.is_empty or clunie.lhs_hypothesis_violations(p):
            continue
        return p


def _generic_plain_poly(shifts, degree: int, valuation: int, prefix: str):
    width = 1 + len(shifts)
    terms = []
    for k in range(valuation, degree + 1):
        idx = (k,) + (0,) * (width - 1)
        terms.append((SymbolicCoeff(f"{prefix}{k}", nonzero=k in (valuation, degree)), idx))
    return normalize(shifts, terms)


def test_acceptance_02_admissibility_oracle_equivalence():
    budget = Budget(10.0)
    rng = random.Random(20260808)
    lhs_list = [clunie.benchmark_lhs()] + [_random_homogeneous_lhs(rng) for _ in range(5)]
    checked = 0
    for p in lhs_list:
        kh = dp.weight(p)
        lam0 = dp.unshifted_degree(p)
        for ord0 in range(0, 7):
            for deg_q in range(ord0, 7):
                for deg_u in range(0, 7):
                    numerator = _generic_plain_poly(p.shifts, deg_q, ord0, "a")
                    denominator = _generic_plain_poly(p.shifts, deg_u, 0, "b")
                    eq = ClunieEquation(lhs=p, numerator=numerator, denominator=denominator)
                    formula = clunie.admissible(eq).ok
                    # independent brute force: both inequalities spelled out
                    if ord0 < lam0:
                        den_room = kh + ord0
                    else:
                        den_room = kh + lam0
                    oracle = (deg_q <= kh + lam0) and (deg_u <= den_room)
                    assert formula == oracle, (ord0, deg_q, deg_u)
                    checked += 1
    assert checked == 6 * 7 * 7 * 7 - 6 * sum(1 for o in range(7) for q in range(7) if q < o) * 7
    done(2, f"admissibility formula == brute force on {checked} triples", budget)


# -- 3 ---------------------------------------------------------------------


def test_acceptance_03_enumeration_and_reduction_golden():
    budget = Budget(1.0)
    p = clunie.benchmark_lhs()
    fams = clunie.enumerate_families(p)
    assert len(fams) == 14
    by_case = {}
    for f in fams:
        by_case.setdefault(f.case, []).append(f.pole_margin)
    assert sorted(by_case["I"]) == [0, 1, 1, 2]
    assert sorted(by_case["II"]) == [-1, 0, 0, 1, 2]
    assert sorted(by_case["III"]) == [-2, -1, -1, 0, 1]
    assert len(by_case["I"]) == 4 and len(by_case["II"]) == 5 and len(by_case["III"]) == 5
    assert clunie.render_families(fams, p).encode() == (DATA / "families_14.txt").read_bytes()
    out = clunie.reduce_families(fams, p)
    assert len(out.kept) == 9
    assert clunie.render_families(out.kept, p).encode() == (DATA / "families_9.txt").read_bytes()
    done(3, "14 families (4/5/5) and 9 reduced families, golden bytes equal", budget)


# -- 4 ---------------------------------------------------------------------


def test_acceptance_04_numerics_baselines():
    budget = Budget(5.0)
    f_id = cf.RationalFn((F(0), F(1)), (F(1),))
    for r in (2.0, 10.0, 100.0):
        assert abs(cf.proximity_m(f_id, r).value - math.log(r)) <= 1e-8
    f_exp = cf.ExpPoly((F(0), F(1)))
    for r in (5.0, 50.0):
        assert abs(cf.proximity_m(f_exp, r).value * math.pi / r - 1.0) <= 1e-6
    f_pole = cf.RationalFn((F(1),), (F(-1), F(1)))
    for r in (1.0, 3.0, 50.0):
        assert cf.counting_N(f_pole, r, of="poles") == math.log(r)
    done(4, "m(r,z), m(r,e^z), N(r,1/(z-1)) baselines", budget)


# -- 5 ---------------------------------------------------------------------


def test_acceptance_05_double_exponential_shift_factor():
    budget = Budget(30.0)
    f = cf.ExpExp()
    for r in (3.0, 4.0, 5.0):
        base = cf.proximity_m(f, r).value
        shifted = cf.proximity_m(cf.Shifted(f, 1.0), r).value
        assert abs(shifted / base - math.e) <= 0.01
    done(5, "m(r, f(z+1))/m(r, f) = e within 0.01 for f = e^{e^z}", budget)


# -- 6 ---------------------------------------------------------------------


def _acceptance_deg5_rational(rng: random.Random) -> cf.RationalFn:
    while True:
        num = tuple(F(rng.randint(-9, 9)) for _ in range(5)) + (F(rng.randint(1, 9)),)
        den = tuple(F(rng.randint(-9, 9)) for _ in range(2)) + (F(rng.randint(1, 9)),)
        try:
            return cf.RationalFn(num, den)
        except ValueError:
            continue


def test_acceptance_06_shift_inequality_sweeps():
    budget = Budget(120.0)
    rng = random.Random(20260808)
    prod, _ = cf.build_example_product(2, 1)
    models = [
        cf.RationalFn((F(1),), (F(-1), F(1))),
        _acceptance_deg5_rational(rng),
        prod,
    ]
    shifts = (1.0, 1j, 2 + 1j)
    failures = 0
    points = 0
    for model in models:
        for c in shifts:
            rows = cf.shift_inequality_sweep(model, c, 20.0, 2000.0, 1.05)
            for row in rows:
                points += 1
                if not (row.counting_ok and row.char_ok):
                    failures += 1
    assert failures == 0
    done(6, f"shift inequality holds at all {points} grid points, 3 models x 3 shifts", budget)


# -- 7 ---------------------------------------------------------------------


def test_acceptance_07_logdiff_bound_exception_measure():
    budget = Budget(120.0)
    models = [
        cf.ExpPoly((F(0), F(1))),
        cf.RationalFn((F(-2), F(0), F(1)), (F(1),)),
        cf.RationalFn((F(1), F(0), F(0), F(0), F(0), F(2)), (F(3), F(1))),
    ]
    for model in models:
        rep = cf.verify_logdiff_bound(model, 1.0, 0.25, 1.0, 1e4)
        assert rep.window_divergent
        lm = g.log_measure(rep.exceptions)
        assert lm <= 1.0
        rep2 = cf.verify_logdiff_bound(model, 1.0, 0.25, 1.0, 2e4)
        lm2 = g.log_measure(rep2.exceptions)
        assert lm2 <= max(1.1 * lm, 1.0)
    done(7, "log-difference exception sets: log measure <= 1.0, stable under doubling", budget)


# -- 8 ---------------------------------------------------------------------


def test_acceptance_08_product_example_window():
    budget = Budget(300.0)
    oracle = json.loads((DATA / "product_example_oracle.json").read_text())
    thresholds = oracle["thresholds"]
    m2, _ = cf.build_example_product(2, 1)
    rows2 = cf.example_product_report(m2, 2)
    assert all(r.separation_ratio > thresholds["min_separation_s2"] for r in rows2)
    assert all(r.smallness_ratio < thresholds["max_smallness_s2"] for r in rows2)
    m3, _ = cf.build_example_product(3, 1)
    rows3 = cf.example_product_report(m3, 3)
    m4, _ = cf.build_example_product(4, 1)
    rows4 = cf.example_product_report(m4, 4)
    for shallow, deep in ((rows2, rows3), (rows3, rows4)):
        for a, b in zip(shallow, deep):
            assert b.separation_ratio > a.separation_ratio
            assert b.smallness_ratio < a.smallness_ratio
    done(8, "window ratios beat recorded thresholds; s=2 < s=3 < s=4 strictly on every row", budget)


# -- 9 ---------------------------------------------------------------------


def test_acceptance_09_growth_lemma_scans():
    budget = Budget(60.0)
    for T in (g.PowerGrowth(2), g.PowerGrowth(5), g.ExpRootGrowth(0.5)):
        res = g.scan_additive_shift(T, 0.25, 1e4)
        assert res.report.lower_density <= 0.05, T.label
        assert res.certified, T.label
    control = g.scan_additive_shift(g.PureExpGrowth(), 0.25, 1e4)
    assert not control.certified

    instances = [
        (lambda r: 3.0 * r, lambda t: 1.0 / (max(t, 1.2) * math.log(max(t, 1.2)) ** 2), 2.0, 1000.0),
        (lambda r: r * r, lambda t: 0.5 / math.sqrt(max(t, 1e-12)), 4.0, 100.0),
        (lambda r: 2.0 * r, lambda t: 0.25, 2.0, 500.0),
    ]
    for psi, varphi, a, b in instances:
        measured, bound = edrei_fuchs_bound(psi, varphi, a, b)
        assert bound - measured >= -1e-6 * max(1.0, abs(bound))
    done(9, "additive-shift scans certify; pure exp fails; covering bounds hold", budget)


# -- 10 --------------------------------------------------------------------


def test_acceptance_10_pole_chains_exact():
    budget = Budget(1.0)
    ch = poleprop.chain(1, 100)
    for n in range(101):
        assert ch.bounds[n] == F(3, 2) ** n
    assert list(poleprop.chain(1, 7).ceilings) == [1, 2, 3, 5, 8, 12, 18, 27]
    done(10, "(3/2)^n bounds exact to n=100; ceiling prefix matches hand oracle", budget)


# -- 11 --------------------------------------------------------------------


def test_acceptance_11_property_suites(tmp_path):
    budget = Budget(120.0)
    rng = random.Random(20260808)
    for _ in range(1000):
        eq = random_equation(rng)
        txt = to_canonical_text(eq)
        assert parse_equation(txt) == eq

    rational = cf.RationalFn((F(1), F(2)), (F(-1), F(0), F(1)))
    prod, _ = cf.build_example_product(2, 1)
    models = [
        cf.RationalFn((F(0), F(1)), (F(1),)),
        cf.ExpPoly((F(0), F(1))),
        rational,
        prod,
    ]
    for model in models:
        grid = [6.0 * 1.4**k for k in range(8)]
        samples = [cf.characteristic_T(model, r) for r in grid]
        for s in samples:
            assert s.T == s.m + s.N
        kind = "poles" if model.poles(grid[-1]) else "zeros"
        ns = [cf.counting_N(model, r, of=kind) for r in grid]
        for k in range(len(grid) - 2):
            mid = cf.counting_N(model, math.sqrt(grid[k] * grid[k + 2]), of=kind)
            assert mid <= (ns[k] + ns[k + 2]) / 2 + 1e-9

    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        code = cli_main([
            "characteristic", "--model", "rational:{z^2+1}/{z-2}",
            "--r-min", "5", "--r-max", "500", "--ratio", "1.2",
            "--out", str(path),
        ])
        assert code == 0
    assert a.read_bytes() == b.read_bytes()
    done(11, "1000 parser round-trips; T = m + N and log-convexity; byte-stable reports", budget)
