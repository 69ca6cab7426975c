"""Classification of Clunie-type equations by exact degree bookkeeping.

Given `denominator * lhs = numerator` with a homogeneous difference
polynomial on the left and plain polynomials in w on the right, the degree
data of the three parts decides how dense the poles and zeros of any
admissible slowly-growing meromorphic solution must be.  This module
computes that degree data, tests the admissibility inequality, derives the
value-distribution verdict, enumerates all maximal equation families for a
given left side, and applies the three growth-based exclusion rules that cut
the benchmark list from 14 families to 9.

Every quantity here is an exact integer or rational; conclusions are always
modulo small-function error terms.  The exclusion rules further assume that
the solution has hyper-order at most one and minimal hyper-type.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import groupby
from typing import Callable, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from . import Rejected
from . import diffpoly as dp
from .diffpoly import DiffPolynomial
from .eqparse import ClunieEquation, parse_polynomial, poly_text


class HypothesesViolated(Rejected):
    def __init__(self, violations: Sequence[str]):
        super().__init__("hypotheses violated: " + ", ".join(violations))
        self.violations = tuple(violations)


class WrongBenchmark(Rejected):
    """The reduction rules apply only to the benchmark left side."""


# Exclusion reason tags.
DEGREE_BOUND = "degree-bound"
CUBIC_RHS_GROWTH = "cubic-rhs-growth"
DENOMINATOR_REWRITE = "denominator-rewrite"
CUBIC_NUMERATOR_PROXIMITY = "cubic-numerator-proximity"


class DegreeProfile(NamedTuple):
    """All degree functionals of one equation.

    `reduced_degree` is the total degree in w of the rational function
    obtained by moving the full lhs power of w to the right side;
    `pole_margin` and `zero_margin` are its excesses over the lhs total
    degree and the lhs weight, and drive the two density conclusions.
    """

    lhs_degree: int
    lhs_weight: int
    lhs_shifted_degree: int
    lhs_unshifted_degree: int
    lhs_valuation: int
    denominator_degree: int
    numerator_degree: int
    numerator_valuation: int
    reduced_degree: int
    pole_margin: int
    zero_margin: int

    @staticmethod
    def from_counts(
        lhs_degree: int,
        lhs_weight: int,
        lhs_shifted_degree: int,
        lhs_unshifted_degree: int,
        lhs_valuation: int,
        denominator_degree: int,
        numerator_degree: int,
        numerator_valuation: int,
    ) -> "DegreeProfile":
        reduced = max(numerator_degree, lhs_degree + denominator_degree) - min(
            lhs_degree, numerator_valuation
        )
        return DegreeProfile(
            lhs_degree=lhs_degree,
            lhs_weight=lhs_weight,
            lhs_shifted_degree=lhs_shifted_degree,
            lhs_unshifted_degree=lhs_unshifted_degree,
            lhs_valuation=lhs_valuation,
            denominator_degree=denominator_degree,
            numerator_degree=numerator_degree,
            numerator_valuation=numerator_valuation,
            reduced_degree=reduced,
            pole_margin=reduced - lhs_degree,
            zero_margin=reduced - lhs_weight,
        )


class AdmissibilityReport(NamedTuple):
    ok: bool
    lhs_weight: int
    required: int  # max{deg Q - unshifted deg, deg U - min{unshifted deg, val Q}}
    valiron_degree: int  # max{deg Q, deg U}, the degree of the rational rhs
    valiron_cap: int  # lhs weight + unshifted degree


class Verdict(NamedTuple):
    admissibility: AdmissibilityReport
    admissible: bool
    pole_density_bound: Optional[Fraction] = None  # lower bound for N(r,w)/T(r,w)
    zero_density_bound: Optional[Fraction] = None  # lower bound for N(r,1/w)/T(r,w)
    forces_identity: bool = False  # N(r,w) = N(r,1/w) = T(r,w) up to small terms
    ruled_out: Optional[str] = None


class FamilySpec(NamedTuple):
    """A maximal equation family: degree caps plus nonzero side conditions."""

    case: str
    ord0_min: int
    ord0_max: int
    denominator_degree: int
    numerator_degree_min: int
    numerator_degree_max: int
    pole_margin: int
    side_conditions: Tuple[str, ...]


class ReductionOutcome(NamedTuple):
    kept: Tuple[FamilySpec, ...]
    removed: Tuple[Tuple[FamilySpec, str], ...]
    truncated: Tuple[Tuple[FamilySpec, FamilySpec], ...]


BENCHMARK_TEXT = "w*w(z+1)+w*w(z-1)+w(z+1)*w(z-1)"


def benchmark_lhs() -> DiffPolynomial:
    """The two-shift quadratic left side the exclusion rules are keyed to."""
    return parse_polynomial(BENCHMARK_TEXT)


def is_benchmark(p: DiffPolynomial) -> bool:
    if len(p.shifts) != 2:
        return False
    values = {s.key for s in p.shifts}
    if values != {(Fraction(1), Fraction(0)), (Fraction(-1), Fraction(0))}:
        return False
    exps = sorted(idx for _, idx in p.terms)
    return exps == [(0, 1, 1), (1, 0, 1), (1, 1, 0)]


def degree_profile(eq: ClunieEquation) -> DegreeProfile:
    return DegreeProfile.from_counts(
        lhs_degree=dp.total_degree(eq.lhs),
        lhs_weight=dp.weight(eq.lhs),
        lhs_shifted_degree=dp.shifted_degree(eq.lhs),
        lhs_unshifted_degree=dp.unshifted_degree(eq.lhs),
        lhs_valuation=dp.order_at_zero(eq.lhs),
        denominator_degree=dp.total_degree(eq.denominator),
        numerator_degree=dp.total_degree(eq.numerator),
        numerator_valuation=dp.order_at_zero(eq.numerator),
    )


def lhs_hypothesis_violations(p: DiffPolynomial) -> Tuple[str, ...]:
    out = []
    if not dp.is_homogeneous(p):
        out.append("not-homogeneous")
    if dp.order_at_zero(p) != 0:
        out.append("unshifted-valuation-nonzero")
    if dp.unshifted_degree(p) >= dp.total_degree(p):
        out.append("unshifted-degree-equals-total")
    return tuple(out)


def check_hypotheses(eq: ClunieEquation) -> Tuple[str, ...]:
    """Violations of the classification hypotheses; empty means applicable."""
    out = list(lhs_hypothesis_violations(eq.lhs))
    if not eq.numerator.is_plain():
        out.append("shift-in-numerator")
    if not eq.denominator.is_plain():
        out.append("shift-in-denominator")
    return tuple(out)


def admissible(eq: ClunieEquation) -> AdmissibilityReport:
    """Test the weight inequality a solvable equation must satisfy.

    Also reports the cruder check that the rational right side has degree at
    most lhs weight + unshifted degree.
    """
    violations = check_hypotheses(eq)
    if violations:
        raise HypothesesViolated(violations)
    return _admissibility(degree_profile(eq))


def _admissibility(prof: DegreeProfile) -> AdmissibilityReport:
    required = max(
        prof.numerator_degree - prof.lhs_unshifted_degree,
        prof.denominator_degree - min(prof.lhs_unshifted_degree, prof.numerator_valuation),
    )
    return AdmissibilityReport(
        ok=prof.lhs_weight >= required,
        lhs_weight=prof.lhs_weight,
        required=required,
        valiron_degree=max(prof.numerator_degree, prof.denominator_degree),
        valiron_cap=prof.lhs_weight + prof.lhs_unshifted_degree,
    )


def _benchmark_rule(deg_u: int, deg_q: int, pole_margin: int) -> Optional[str]:
    """The exclusion rule, if any, that rules out an admissible equation, or
    family, with the benchmark left side.  The plain cubic right side
    (deg U = 0) and the denominator rewrite (deg U = 3) never both apply."""
    if deg_u == 0 and deg_q == 3:
        return CUBIC_RHS_GROWTH
    if deg_u == 3:
        return DENOMINATOR_REWRITE
    if deg_q == 3 and pole_margin > 0:
        return CUBIC_NUMERATOR_PROXIMITY
    return None


def profile_verdict(prof: DegreeProfile, benchmark: bool = False) -> Verdict:
    report = _admissibility(prof)
    if not report.ok:
        return Verdict(report, admissible=False, ruled_out=DEGREE_BOUND)
    pole = Fraction(prof.pole_margin, prof.lhs_weight) if prof.pole_margin > 0 else None
    zero = Fraction(prof.zero_margin, prof.lhs_degree) if prof.zero_margin > 0 else None
    return Verdict(
        report,
        admissible=True,
        pole_density_bound=pole,
        zero_density_bound=zero,
        forces_identity=prof.lhs_weight == prof.pole_margin,
        ruled_out=_benchmark_rule(prof.denominator_degree, prof.numerator_degree,
                                  prof.pole_margin) if benchmark else None,
    )


# ---------------------------------------------------------------------------
# family enumeration and reduction


_ROMAN = ["I", "II", "III", "IV", "V", "VI", "VII", "VIII", "IX", "X"]


def _runs(values: Iterable[int], key: Callable[[int], object]) -> List[Tuple[int, int, object]]:
    """The maximal runs of consecutive `values` with equal `key`, as
    (first, last, key)."""
    out = []
    for k, run in groupby(values, key):
        run = list(run)
        out.append((run[0], run[-1], k))
    return out


def _side_conditions(o_lo: int, o_hi: int, du: int, q_lo: int, q_hi: int) -> Tuple[str, ...]:
    # Keyed to the generic numerator w^o_lo * (a_m w^m + ... + a_0) with
    # m = q_hi - o_lo; for m = 0 the single coefficient is named by its
    # total degree.
    inner = q_hi - o_lo
    out = []
    if inner == 0:
        out.append(f"a{o_lo}!=0")
    else:
        if o_lo == o_hi:
            out.append("a0!=0")
        if q_lo == q_hi:
            out.append(f"a{inner}!=0")
    if du >= 1 and o_lo >= 1:
        out.append("b0!=0")
    return tuple(out)


def enumerate_families(p: DiffPolynomial) -> Tuple[FamilySpec, ...]:
    """Scan all degree triples the admissibility inequality allows, merged
    into maximal families of constant pole margin."""
    violations = lhs_hypothesis_violations(p)
    if violations:
        raise HypothesesViolated(violations)
    kh, lam0, degp = dp.weight(p), dp.unshifted_degree(p), dp.total_degree(p)
    q_cap = kh + lam0
    families: List[FamilySpec] = []
    # ord0 values with identical saturation of the two mins form one case
    cases = _runs(range(q_cap + 1), lambda o: (min(lam0, o), min(degp, o)))
    for case_idx, (o_lo, o_hi, (m_unshift, m_deg)) in enumerate(cases):
        label = _ROMAN[case_idx] if case_idx < len(_ROMAN) else f"C{case_idx + 1}"
        case: List[FamilySpec] = []
        for du in range(kh + m_unshift + 1):
            margins = _runs(range(o_lo, q_cap + 1), lambda q: max(q - degp, du) - m_deg)
            case.extend(
                FamilySpec(label, o_lo, min(o_hi, q_hi), du, q_lo, q_hi, margin,
                           _side_conditions(o_lo, o_hi, du, q_lo, q_hi))
                for q_lo, q_hi, margin in margins
            )
        case.sort(key=lambda f: (f.pole_margin, f.denominator_degree, f.numerator_degree_max))
        families.extend(case)
    return tuple(families)


def reduce_families(
    families: Sequence[FamilySpec], p: Optional[DiffPolynomial] = None
) -> ReductionOutcome:
    """Apply the three benchmark exclusion rules, for solutions of
    hyper-order at most one and minimal hyper-type.

    Rule 1 removes denominator degree 3 (rewriting the left side as a product
    of two binomials overshoots the degree cap of that equation class); rule
    2 removes the plain cubic right side (pole orders then grow by the factor
    3/2 along an integer progression, forcing exponential growth); rule 3
    caps the numerator degree at 2 whenever the pole margin is positive (a
    cubic numerator forces the proximity function to dominate, contradicting
    the pole-density conclusion).  All three are specific to the benchmark
    left side.
    """
    if p is not None and not is_benchmark(p):
        raise WrongBenchmark("the exclusion rules apply only to the benchmark left side; "
                             "run plain enumerate for this polynomial")
    kept: List[FamilySpec] = []
    removed: List[Tuple[FamilySpec, str]] = []
    truncated: List[Tuple[FamilySpec, FamilySpec]] = []
    for fam in families:
        rule = _benchmark_rule(fam.denominator_degree, fam.numerator_degree_max,
                               fam.pole_margin)
        if rule in (DENOMINATOR_REWRITE, CUBIC_RHS_GROWTH):
            removed.append((fam, rule))
            continue
        if rule == CUBIC_NUMERATOR_PROXIMITY:
            o_hi, q_lo = min(fam.ord0_max, 2), min(fam.numerator_degree_min, 2)
            capped = fam._replace(
                ord0_max=o_hi,
                numerator_degree_min=q_lo,
                numerator_degree_max=2,
                side_conditions=_side_conditions(
                    fam.ord0_min, o_hi, fam.denominator_degree, q_lo, 2),
            )
            truncated.append((fam, capped))
            fam = capped
        kept.append(fam)
    return ReductionOutcome(tuple(kept), tuple(removed), tuple(truncated))


# ---------------------------------------------------------------------------
# rendering and reports


def _w(j: int) -> str:
    return "" if j == 0 else "w" if j == 1 else f"w^{j}"


def _monomial(coeff: str, j: int) -> str:
    """`coeff*w^j`, leaving out an empty coefficient or a zeroth power."""
    return "*".join(filter(None, (coeff, _w(j))))


def family_equation_text(fam: FamilySpec, p: DiffPolynomial) -> str:
    """Instantiate the family schema with generic named coefficients."""
    o = fam.ord0_min
    inner_deg = fam.numerator_degree_max - o
    if inner_deg == 0:
        rhs = _monomial(f"a{o}", o)
    else:
        inner = "+".join(_monomial(f"a{j}", j) for j in range(inner_deg, -1, -1))
        rhs = f"{_w(o)}*({inner})" if o else inner
    du = fam.denominator_degree
    if du:
        den = [_w(du)] + [_monomial(f"b{j}", j) for j in range(du - 1, -1, -1)]
        rhs = f"({rhs})/({'+'.join(den)})"
    return f"{poly_text(p)} = {rhs}"


def _deg_q_text(fam: FamilySpec) -> str:
    if fam.numerator_degree_min == fam.numerator_degree_max:
        return f"deg(Q)={fam.numerator_degree_max}"
    return f"deg(Q)<={fam.numerator_degree_max}"


def _ord0_text(fam: FamilySpec) -> str:
    if fam.ord0_min == fam.ord0_max:
        return f"ord0(Q)={fam.ord0_min}"
    return f"ord0(Q)={fam.ord0_min}..{fam.ord0_max}"


def render_families(families: Sequence[FamilySpec], p: DiffPolynomial) -> str:
    lines = []
    for k, fam in enumerate(families, start=1):
        side = ",".join(fam.side_conditions) if fam.side_conditions else "-"
        lines.append(
            f"{k:2d}. case {fam.case:<4} D={fam.pole_margin:+d}  "
            f"{_ord0_text(fam):<14} deg(U)={fam.denominator_degree}  "
            f"{_deg_q_text(fam):<11} side[{side}]"
        )
        lines.append("    " + family_equation_text(fam, p))
    return "\n".join(lines) + "\n"


def _fraction_str(f: Optional[Fraction]) -> Optional[str]:
    return None if f is None else str(f)


def verdict_dict(v: Verdict) -> dict:
    return {
        "admissible": v.admissible,
        "pole_density_bound": _fraction_str(v.pole_density_bound),
        "zero_density_bound": _fraction_str(v.zero_density_bound),
        "forces_identity": v.forces_identity,
        "ruled_out": v.ruled_out,
    }


def report_dict(prof: DegreeProfile, v: Verdict) -> dict:
    return {"profile": prof._asdict(), "verdict": verdict_dict(v)}
