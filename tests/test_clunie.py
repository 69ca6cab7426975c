import itertools
import random
from fractions import Fraction
from pathlib import Path

import pytest

from nevdiff import clunie
from nevdiff import diffpoly as dp
from nevdiff.clunie import (
    DegreeProfile,
    HypothesesViolated,
    WrongBenchmark,
    admissible,
    benchmark_lhs,
    degree_profile,
    enumerate_families,
    is_benchmark,
    profile_verdict,
    reduce_families,
    render_families,
)
from nevdiff.eqparse import parse_equation, parse_polynomial

DATA = Path(__file__).parent / "data"

BENCH = "w(z+1)*w(z-1)+w(z+1)*w+w*w(z-1)"


def bench_profile(deg_u, deg_q, ord0):
    return DegreeProfile.from_counts(2, 2, 2, 1, 0, deg_u, deg_q, ord0)


def bench_eq(rhs: str) -> str:
    return f"{BENCH} = {rhs}"


# -- degree profiles ---------------------------------------------------------


def test_profile_full_denominator():
    eq = parse_equation(bench_eq("(a2*w^2+a1*w+a0)/(w^2+b1*w+b0)"))
    prof = degree_profile(eq)
    assert prof.reduced_degree == 4
    assert prof.pole_margin == 2
    assert prof.zero_margin == 2


def test_profile_pure_square():
    eq = parse_equation(bench_eq("a2*w^2"))
    prof = degree_profile(eq)
    assert prof.reduced_degree == 0
    assert prof.pole_margin == -2


def test_profile_constant_numerator():
    eq = parse_equation(bench_eq("a0"))
    prof = degree_profile(eq)
    assert prof.reduced_degree == 2
    assert prof.pole_margin == 0
    assert prof.zero_margin == 0


# -- hypotheses ---------------------------------------------------------------


def test_hypotheses_benchmark_clean():
    eq = parse_equation(bench_eq("a0"))
    assert clunie.check_hypotheses(eq) == ()


def test_hypotheses_unshifted_degree():
    eq = parse_equation("w(z+1)+w = a0")
    assert "unshifted-degree-equals-total" in clunie.check_hypotheses(eq)


def test_hypotheses_inhomogeneous():
    eq = parse_equation("w(z+1)*w+w = a0")
    assert "not-homogeneous" in clunie.check_hypotheses(eq)


# -- admissibility -------------------------------------------------------------


def test_admissible_bounds_for_benchmark():
    # weight 2, unshifted degree 1: numerator degree caps at 3 and the
    # denominator at 2 + min(1, numerator valuation)
    ok = parse_equation(bench_eq("a3*w^3+a2*w^2+a1*w+a0"))
    assert clunie.admissible(ok).ok
    too_big = parse_equation(bench_eq("a4*w^4+a0"))
    assert not clunie.admissible(too_big).ok
    deep_den = parse_equation(bench_eq("(w*(a2*w^2+a1*w+a0))/(w^3+b2*w^2+b1*w+b0)"))
    assert clunie.admissible(deep_den).ok


def test_admissible_reports_valiron_cap():
    rep = clunie.admissible(parse_equation(bench_eq("a0")))
    assert rep.valiron_cap == 3
    assert rep.valiron_degree <= rep.valiron_cap


def test_admissible_requires_hypotheses():
    with pytest.raises(HypothesesViolated):
        clunie.admissible(parse_equation("w(z+1)+w = a0"))


def test_admissibility_matches_bruteforce_oracle():
    # oracle: weight >= max(deg Q - unshifted, deg U - min(unshifted, val Q))
    rng = random.Random(5150)
    polys = [benchmark_lhs()]
    while len(polys) < 6:
        total = rng.randint(2, 4)
        n_shifts = rng.randint(1, 2)
        width = n_shifts + 1
        terms = set()
        while len(terms) < rng.randint(2, 4):
            cuts = sorted(rng.randint(0, total) for _ in range(width - 1))
            idx = tuple(
                b - a for a, b in zip([0] + cuts, cuts + [total])
            )
            terms.add(idx)
        shift_vals = [(Fraction(k + 1), Fraction(0)) for k in range(n_shifts)]
        shifts = tuple(
            dp.Shift(re, im, index=k + 1) for k, (re, im) in enumerate(shift_vals)
        )
        from nevdiff.zfield import RZ_ONE

        p = dp.normalize(shifts, [(RZ_ONE, idx) for idx in terms])
        if clunie.lhs_hypothesis_violations(p):
            continue
        polys.append(p)
    for p in polys:
        kh = dp.weight(p)
        lam0 = dp.unshifted_degree(p)
        degp = dp.total_degree(p)
        for ord0 in range(0, 7):
            for deg_q in range(ord0, 7):
                for deg_u in range(0, 7):
                    oracle = kh >= max(deg_q - lam0, deg_u - min(lam0, ord0))
                    prof = DegreeProfile.from_counts(
                        lhs_degree=degp,
                        lhs_weight=kh,
                        lhs_shifted_degree=dp.shifted_degree(p),
                        lhs_unshifted_degree=lam0,
                        lhs_valuation=0,
                        denominator_degree=deg_u,
                        numerator_degree=deg_q,
                        numerator_valuation=ord0,
                    )
                    assert clunie._admissibility(prof).ok == oracle


# -- verdicts -----------------------------------------------------------------


def test_verdict_identity_case():
    eq = parse_equation(bench_eq("(a2*w^2+a1*w+a0)/(w^2+b1*w+b0)"))
    v = profile_verdict(degree_profile(eq), benchmark=is_benchmark(eq.lhs))
    assert v.pole_density_bound == Fraction(1)
    assert v.zero_density_bound == Fraction(1)
    assert v.forces_identity


def test_verdict_half_density():
    eq = parse_equation(bench_eq("(a3*w^3+a2*w^2+a1*w+a0)/(w+b0)"))
    v = profile_verdict(degree_profile(eq), benchmark=is_benchmark(eq.lhs))
    assert v.pole_density_bound == Fraction(1, 2)
    assert v.zero_density_bound == Fraction(1, 2)
    assert not v.forces_identity


def test_verdict_no_density_conclusions():
    eq = parse_equation(bench_eq("w*(a1*w+a0)"))
    v = profile_verdict(degree_profile(eq), benchmark=is_benchmark(eq.lhs))
    assert v.pole_density_bound is None
    assert v.zero_density_bound is None


def test_verdict_rules_out_when_inadmissible():
    eq = parse_equation(bench_eq("a4*w^4+a0"))
    v = profile_verdict(degree_profile(eq), benchmark=is_benchmark(eq.lhs))
    assert v.admissible is False
    assert v.ruled_out == "degree-bound"


def test_benchmark_rules_on_profiles():
    def ruled_out(deg_u, deg_q, ord0):
        return profile_verdict(bench_profile(deg_u, deg_q, ord0), benchmark=True).ruled_out

    assert ruled_out(0, 3, 0) == clunie.CUBIC_RHS_GROWTH
    assert ruled_out(0, 2, 0) is None
    assert ruled_out(1, 3, 0) == clunie.CUBIC_NUMERATOR_PROXIMITY
    assert ruled_out(3, 3, 1) == clunie.DENOMINATOR_REWRITE
    assert profile_verdict(bench_profile(0, 3, 0)).ruled_out is None


def test_verdict_carries_the_admissibility_report():
    for rhs in ("a3*w^3+a0", "a4*w^4+a0", "(a2*w^2+a1*w+a0)/(w^2+b1*w+b0)"):
        eq = parse_equation(bench_eq(rhs))
        v = profile_verdict(degree_profile(eq), benchmark=True)
        assert v.admissibility == admissible(eq)
        assert v.admissible == v.admissibility.ok


def test_identity_closed_form_matches_margin_scan():
    # exhaustive over all benchmark triples: the closed-form identity
    # condition agrees with pole_margin == weight
    for ord0, deg_q, deg_u in itertools.product(range(4), range(4), range(4)):
        if ord0 > deg_q:
            continue
        prof = DegreeProfile.from_counts(2, 2, 2, 1, 0, deg_u, deg_q, ord0)
        if not clunie._admissibility(prof).ok:
            continue
        identity = (
            prof.numerator_valuation <= prof.lhs_unshifted_degree
            and prof.lhs_weight == prof.denominator_degree - prof.numerator_valuation
            and prof.denominator_degree - prof.numerator_valuation
            >= prof.numerator_degree - prof.lhs_unshifted_degree
        )
        assert identity == (prof.pole_margin == prof.lhs_weight)


def test_margin_never_exceeds_weight_when_admissible():
    for ord0, deg_q, deg_u in itertools.product(range(5), range(7), range(7)):
        if ord0 > deg_q:
            continue
        prof = DegreeProfile.from_counts(2, 2, 2, 1, 0, deg_u, deg_q, ord0)
        if clunie._admissibility(prof).ok:
            assert prof.pole_margin <= prof.lhs_weight


def test_scaling_coefficients_changes_nothing():
    from nevdiff.zfield import ratz

    eq = parse_equation("w(z+1)*w(z-1)+w(z+1)*w+w*w(z-1) = ({3}*w^2+{1})/(w^2+{2})")
    p = eq.numerator
    scaled_num = dp.normalize(p.shifts, [(c * ratz((7,), (2,)), idx) for c, idx in p.terms])
    eq2 = eq._replace(numerator=scaled_num)
    assert degree_profile(eq) == degree_profile(eq2)
    assert profile_verdict(degree_profile(eq2)) == profile_verdict(degree_profile(eq))


# -- families ------------------------------------------------------------------


def test_enumeration_counts_and_margins():
    fams = enumerate_families(benchmark_lhs())
    assert len(fams) == 14
    per_case = {}
    for f in fams:
        per_case.setdefault(f.case, []).append(f.pole_margin)
    assert sorted(per_case["I"]) == [0, 1, 1, 2]
    assert sorted(per_case["II"]) == [-1, 0, 0, 1, 2]
    assert sorted(per_case["III"]) == [-2, -1, -1, 0, 1]


def test_enumeration_matches_triple_oracle():
    # independent triple loop over the admissibility inequality
    p = benchmark_lhs()
    fams = enumerate_families(p)
    kh, lam0 = 2, 1
    oracle = set()
    for ord0 in range(0, 4):
        for deg_q in range(ord0, 4):
            for deg_u in range(0, 4):
                if kh >= max(deg_q - lam0, deg_u - min(lam0, ord0)):
                    oracle.add((ord0, deg_q, deg_u))
    # the (ord0 Q, deg Q, deg U) each family covers
    covered = [(o, q, f.denominator_degree) for f in fams
               for q in range(f.numerator_degree_min, f.numerator_degree_max + 1)
               for o in range(f.ord0_min, min(f.ord0_max, q) + 1)]
    assert len(covered) == len(set(covered)), "families overlap"
    assert set(covered) == oracle


def test_enumeration_stable():
    a = enumerate_families(benchmark_lhs())
    b = enumerate_families(parse_polynomial(BENCH))
    assert a == b


def test_enumeration_golden_file():
    text = render_families(enumerate_families(benchmark_lhs()), benchmark_lhs())
    assert text.encode() == (DATA / "families_14.txt").read_bytes()


def test_reduction_golden_file():
    p = benchmark_lhs()
    out = reduce_families(enumerate_families(p), p)
    assert len(out.kept) == 9
    text = render_families(out.kept, p)
    assert text.encode() == (DATA / "families_9.txt").read_bytes()


def test_reduction_removals():
    p = benchmark_lhs()
    out = reduce_families(enumerate_families(p), p)
    reasons = {}
    for fam, why in out.removed:
        reasons.setdefault(why, []).append((fam.denominator_degree, fam.numerator_degree_max))
    assert sorted(reasons[clunie.DENOMINATOR_REWRITE]) == [(3, 3), (3, 3)]
    assert sorted(reasons[clunie.CUBIC_RHS_GROWTH]) == [(0, 3), (0, 3), (0, 3)]
    # positive-margin families with cubic numerators got capped at 2
    assert len(out.truncated) == 3
    for before, after in out.truncated:
        assert before.pole_margin > 0
        assert before.numerator_degree_max == 3
        assert after.numerator_degree_max == 2


def test_reduction_refused_off_benchmark():
    p = parse_polynomial("w(z+1)*w(z-1)")
    fams = enumerate_families(p)
    with pytest.raises(WrongBenchmark):
        reduce_families(fams, p)


def test_family_equations_classify_back():
    # each rendered family equation, parsed and profiled, reproduces the
    # family's pole margin and case valuation
    p = benchmark_lhs()
    for fam in enumerate_families(p):
        eq = parse_equation(clunie.family_equation_text(fam, p))
        prof = degree_profile(eq)
        assert prof.pole_margin == fam.pole_margin
        assert prof.numerator_valuation == fam.ord0_min
        assert prof.denominator_degree == fam.denominator_degree
        assert prof.numerator_degree == fam.numerator_degree_max
