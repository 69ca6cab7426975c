"""Seeded inputs for the benchmark workloads.

A workload is a closed sequence of CLI calls made one after another in one
fresh Python process.  `build(name, seed)` returns those calls; the program
under test sees only the generated argument lists.  Seed 0 reproduces the
scaled-tier command lines exactly.  Other seeds change only what the CLI
accepts: the start radius of each numeric grid (moved by less than half a
grid ratio step) and the generated equation batch of `classify-batch`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

BENCHMARK_LHS = "w(z+1)*w(z-1)+w(z+1)*w+w*w(z-1)"
CLASSIFY_BATCH_SIZE = 150

# Built-in verdicts of the classify batch.
ADMISSIBLE = "admissible"  # exit 0, JSON report, verdict.admissible true
DEGREE_BOUND = "degree-bound"  # exit 2, JSON report, ruled out by deg Q >= 4
COMMON_FACTOR = "common-factor"  # exit 2, one text `rejected:` line


@dataclass(frozen=True)
class Call:
    """One CLI call and what its report must show for any seed."""

    id: str
    argv: Tuple[str, ...]
    exit_code: int = 0
    verdict: Optional[str] = None  # classify calls only


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    calls: Tuple[Call, ...]


# How far, in ratio steps, another seed may move a grid's first radius.  Up
# to 0.38 of a step, the shift-product and product-window grids keep their
# seed-0 number of radii (96, and 30 with 6 that materialise the ring), so
# every seed asks for the same work.
START_SHIFT = 0.35


def _grid_start(rng: random.Random, seed: int, r_min: str, ratio: str) -> str:
    """The grid's first radius: exact at seed 0, else moved up by a fraction
    of one ratio step so the grid visits other radii over the same range."""
    if seed == 0:
        return r_min
    return repr(float(r_min) * float(ratio) ** (START_SHIFT * rng.random()))


def _shift_product(seed: int, rng: random.Random) -> Tuple[Call, ...]:
    r_min = _grid_start(rng, seed, "20", "1.05")
    return (Call("shift-check", ("shift-check", "--model", "product:s=3,n1=1",
                                 "--c", "1,i,2+i", "--r-min", r_min,
                                 "--r-max", "2000", "--ratio", "1.05")),)


def _logdiff_scan(seed: int, rng: random.Random) -> Tuple[Call, ...]:
    return tuple(
        Call(f"logdiff-{tag}", ("logdiff-check", "--model", model, "--c", "1",
                                "--delta", "0.25", "--eps", "1",
                                "--r-min", _grid_start(rng, seed, "10", "1.01"),
                                "--horizon", "1e6", "--ratio", "1.01"))
        for tag, model in (("rational", "rational:{z^2-2}"), ("exp", "exp:z"))
    )


def _product_window(seed: int, rng: random.Random) -> Tuple[Call, ...]:
    r_min = _grid_start(rng, seed, "10", "1.05")
    return (
        Call("product-example", ("product-example", "--levels", "3")),
        Call("logdiff-product", ("logdiff-check", "--model", "product:s=3,n1=1", "--c", "3",
                                 "--delta", "0.25", "--eps", "1", "--r-min", r_min,
                                 "--horizon", "40", "--ratio", "1.05")),
    )


# ---------------------------------------------------------------------------
# classify batch: numeric-coefficient right sides whose verdict is known by
# construction.  Coefficients are integer polynomials in z, some divided by a
# linear factor.  The denominator U is a product of factors (w - b - k z) with
# k in {0, 1}.  The constant term q_0 of the numerator Q has a z-degree above
# deg q_j + j for every j >= 1, so Q(b + k z) has that degree too and is never
# zero: Q and U are coprime over Q(z).  With the benchmark left side (weight
# 2, unshifted degree 1) and q_0 != 0, the equation is admissible exactly
# when deg Q <= 3 and deg U <= 2.

ZPoly = List[int]  # integer coefficients in z, constant term first
WPoly = List[ZPoly]  # coefficients in w, constant term first


def _zpoly(rng: random.Random, degree: int) -> ZPoly:
    coeffs = [rng.randint(-9, 9) for _ in range(degree)]
    return coeffs + [rng.choice([c for c in range(-9, 10) if c])]


def _zmul(a: ZPoly, b: ZPoly) -> ZPoly:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _zadd(a: ZPoly, b: ZPoly) -> ZPoly:
    n = max(len(a), len(b))
    return [(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)]


def _wmul(a: WPoly, b: WPoly) -> WPoly:
    out: WPoly = [[0] for _ in range(len(a) + len(b) - 1)]
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = _zadd(out[i + j], _zmul(x, y))
    return out


def _ztext(p: ZPoly) -> str:
    terms = []
    for power in range(len(p) - 1, -1, -1):
        c = p[power]
        if c == 0:
            continue
        mono = "" if power == 0 else ("z" if power == 1 else f"z^{power}")
        if not mono:
            body = str(abs(c))
        elif abs(c) == 1:
            body = mono
        else:
            body = f"{abs(c)}*{mono}"
        sign = "-" if c < 0 else "+"
        terms.append(body if (sign == "+" and not terms) else f"{sign}{body}")
    text = "".join(terms)
    return text if text else "0"


def _is_zero(p: ZPoly) -> bool:
    return not any(p)


def _wtext(p: WPoly, denominators: Dict[int, int]) -> str:
    """`{coeff}*w^j` terms, highest power first; denominators[j] = b divides
    the j-th coefficient by (z - b)."""
    terms = []
    for j in range(len(p) - 1, -1, -1):
        if _is_zero(p[j]):
            continue
        coeff = _ztext(p[j])
        if j in denominators:
            coeff = f"({coeff})/(z-{denominators[j]})"
        power = "" if j == 0 else ("w" if j == 1 else f"w^{j}")
        if j > 0 and coeff == "1":
            terms.append(power)
        elif j == 0:
            terms.append("{" + coeff + "}")
        else:
            terms.append("{" + coeff + "}*" + power)
    return "+".join(terms)


def _root_factor(shape: random.Random, values: random.Random) -> WPoly:
    """w - (b + k z)."""
    return [[-values.randint(-5, 5), -shape.randint(0, 1)], [1]]


def _numerator(shape: random.Random, values: random.Random,
               degree: int) -> Tuple[WPoly, Dict[int, int]]:
    upper = [_zpoly(values, shape.randint(0, 2)) for _ in range(degree)]
    if shape.random() < 0.3 and degree > 1:
        upper[shape.randrange(degree - 1)] = [0]  # a missing middle power
    q0_degree = max((len(q) - 1 + j for j, q in enumerate(upper, start=1)), default=0) + 1
    dens = {j: values.randint(1, 7) for j in range(1, degree + 1)
            if shape.random() < 0.3 and not _is_zero(upper[j - 1])}
    return [_zpoly(values, q0_degree)] + upper, dens


def _denominator(shape: random.Random, values: random.Random, degree: int) -> WPoly:
    out: WPoly = [[1]]
    for _ in range(degree):
        out = _wmul(out, _root_factor(shape, values))
    return out


def _equation(shape: random.Random, values: random.Random, verdict: str) -> str:
    if verdict == COMMON_FACTOR:
        factor = _root_factor(shape, values)
        q_part, _ = _numerator(shape, values, shape.randint(0, 2))
        num = _wmul(factor, q_part)
        den = _wmul(factor, _denominator(shape, values, shape.randint(0, 1)))
        dens: Dict[int, int] = {}
    else:
        degree = shape.randint(1, 3) if verdict == ADMISSIBLE else shape.randint(4, 5)
        num, dens = _numerator(shape, values, degree)
        den = _denominator(shape, values, shape.randint(1, 2))
    return f"{BENCHMARK_LHS} = ({_wtext(num, dens)})/({_wtext(den, {})})"


def classify_batch(seed: int) -> List[Tuple[str, str]]:
    """(equation text, built-in verdict) pairs, deterministic per seed.

    The batch's shape (verdicts, degrees in w and z, which coefficients have
    a denominator) is the same for every seed, so every seed asks for about
    the same work; the seed draws the coefficient values."""
    shape = random.Random("classify-batch/shape")
    values = random.Random(f"classify-batch/{seed}")
    verdicts = [ADMISSIBLE] * 5 + [DEGREE_BOUND] * 3 + [COMMON_FACTOR] * 2
    out = []
    for _ in range(CLASSIFY_BATCH_SIZE):
        verdict = shape.choice(verdicts)
        out.append((_equation(shape, values, verdict), verdict))
    return out


def _classify_calls(seed: int, rng: random.Random) -> Tuple[Call, ...]:
    return tuple(
        Call(f"eq{k:03d}", ("classify", "--json", "--eq", text),
             exit_code=0 if verdict == ADMISSIBLE else 2, verdict=verdict)
        for k, (text, verdict) in enumerate(classify_batch(seed))
    )


# Why each workload is in the benchmark is recorded in BENCHMARK.json.
WORKLOADS = {
    "shift-product": _shift_product,  # charfn.counting: index builds
    "logdiff-scan": _logdiff_scan,  # charfn.quadrature + charfn.model
    "product-window": _product_window,  # charfn.divisor: the ring as a list
    "classify-batch": _classify_calls,  # eqparse (zfield, clunie), no numerics
}


def build(name: str, seed: int) -> Workload:
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}")
    rng = random.Random(f"{name}/{seed}")
    return Workload(name=name, seed=seed, calls=WORKLOADS[name](seed, rng))
