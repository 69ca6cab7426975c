"""Shared test utilities: seeded random equations for round-trip checks, and
the circle means of a model raising the first failing radius's error."""

from __future__ import annotations

import random
from fractions import Fraction
from typing import List, Tuple

from nevdiff.diffpoly import Shift, SymbolicCoeff, normalize
from nevdiff.eqparse import ClunieEquation, parse_equation, to_canonical_text
from nevdiff.zfield import RZ_ONE, RatZ, ratz

_SHIFT_POOL = [
    (Fraction(1), Fraction(0)),
    (Fraction(-1), Fraction(0)),
    (Fraction(2), Fraction(0)),
    (Fraction(1, 2), Fraction(0)),
    (Fraction(0), Fraction(1)),
    (Fraction(0), Fraction(-2)),
    (Fraction(3), Fraction(1)),
    (Fraction(-1, 3), Fraction(2, 5)),
]


def random_ratz(rng: random.Random) -> RatZ:
    def poly():
        deg = rng.randint(0, 2)
        coeffs = [rng.randint(-6, 6) for _ in range(deg + 1)]
        if not any(coeffs):
            coeffs[-1] = rng.randint(1, 6)
        return tuple(coeffs)

    num = poly()
    den = poly() if rng.random() < 0.4 else (1,)
    return ratz(num, den)


def _random_indices(rng: random.Random, width: int, count: int) -> List[Tuple[int, ...]]:
    seen = set()
    while len(seen) < count:
        idx = tuple(rng.randint(0, 3) for _ in range(width))
        seen.add(idx)
    return sorted(seen)


def random_equation(rng: random.Random) -> ClunieEquation:
    """A structurally valid random equation, canonicalized through the parser."""
    symbolic = rng.random() < 0.5
    n_shifts = rng.randint(1, 3)
    shift_keys = rng.sample(_SHIFT_POOL, n_shifts)
    shifts = tuple(Shift(re, im, index=k + 1) for k, (re, im) in enumerate(shift_keys))
    width = n_shifts + 1
    names = iter(f"s{k}" for k in range(40))

    def coeff(is_constant_term: bool):
        # a bare +-1 on a constant term would print as a braced numeral and
        # flip the equation mode, so constant terms get names when symbolic
        if symbolic and (is_constant_term or rng.random() < 0.7):
            return SymbolicCoeff(
                next(names), nonzero=rng.random() < 0.3, negated=rng.random() < 0.3
            )
        if symbolic:
            return RZ_ONE if rng.random() < 0.5 else -RZ_ONE
        return random_ratz(rng)

    # left side, using every shift slot at least once
    n_terms = rng.randint(1, 4)
    indices = _random_indices(rng, width, n_terms)
    for slot in range(1, width):
        if all(idx[slot] == 0 for idx in indices):
            bump = list(indices[rng.randrange(len(indices))])
            indices.remove(tuple(bump))
            bump[slot] = rng.randint(1, 3)
            if tuple(bump) in indices:
                bump[0] += 4
            indices.append(tuple(bump))
    lhs = normalize(
        shifts,
        [(coeff(sum(idx) == 0), idx) for idx in sorted(set(indices))],
    )

    def plain_poly(max_deg: int):
        degs = sorted(
            set(rng.randint(0, max_deg) for _ in range(rng.randint(1, 3)))
        )
        terms = []
        for d in degs:
            idx = (d,) + (0,) * n_shifts
            terms.append((coeff(d == 0), idx))
        return normalize(shifts, terms)

    numerator = plain_poly(3)
    denominator = plain_poly(2) if rng.random() < 0.5 else normalize(
        shifts, [(RZ_ONE, (0,) * width)]
    )
    raw = ClunieEquation(lhs=lhs, numerator=numerator, denominator=denominator)
    # canonicalize slot order and coefficient signs through one parse
    return parse_equation(to_canonical_text(raw))


def circle_means(model, radii, *, tol_unit: float, base_panels: int = 64,
                 max_panels: int = 400_000):
    """The means over the circles |z| = r of max(0, log|f|), one per radius
    (`charfn._means_prefix`); raises the error of the first failing radius."""
    from nevdiff.charfn import _means_prefix  # numpy only where a test needs it

    means, err = _means_prefix(model, radii, tol_unit, base_panels, max_panels)
    if err is not None:
        raise err
    return means
