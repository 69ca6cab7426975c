"""Difference polynomials in w(z), w(z+c_1), ..., w(z+c_n) and their degree data.

A term is (coefficient, multi-index): the multi-index lists the exponent of
the unshifted variable first, then one exponent per shift.  Coefficients are
either exact rational functions of z (`RatZ`) or named symbols treated as
generically nonzero.  Shifts are exact complex rationals so identity and
distinctness are decidable.

All values are immutable after `normalize`; every operation here is pure.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Sequence, Tuple, Union

from . import Refused
from .zfield import RatZ

MAX_EXPONENT = 2**63 - 1  # degrees are machine integers


class DiffPolyError(Refused):
    pass


class EmptyPolynomial(DiffPolyError):
    """Degree data requested from a polynomial with no terms."""


class BadIndex(DiffPolyError):
    pass


class SymbolicDuplicate(DiffPolyError):
    """Two symbolic terms share a multi-index; their sum is ambiguous."""

    def __init__(self, index: Tuple[int, ...]):
        super().__init__(f"two symbolic terms share multi-index {index}")
        self.index = index


class _ShiftFields(NamedTuple):
    re: Fraction
    im: Fraction
    index: int


class Shift(_ShiftFields):
    """One nonzero shift z -> z + c, with its 1-based slot in the multi-index."""

    __slots__ = ()

    def __new__(cls, re: Fraction, im: Fraction, index: int) -> "Shift":
        if re == 0 and im == 0:
            raise ValueError("shift must be nonzero")
        if index < 1:
            raise ValueError("shift index starts at 1")
        return super().__new__(cls, re, im, index)

    @property
    def value(self) -> complex:
        return complex(self.re) + 1j * complex(self.im)

    @property
    def key(self) -> Tuple[Fraction, Fraction]:
        return (self.re, self.im)


def shift_key(re: Fraction, im: Fraction) -> Tuple[int, int, int, int]:
    """A key equal for two shift values exactly when the values are equal.

    Fractions are kept in lowest terms, so their integer parts identify
    them, and a tuple of ints hashes much faster than the Fractions."""
    return (re.numerator, re.denominator, im.numerator, im.denominator)


class SymbolicCoeff(NamedTuple):
    """A named small coefficient, generically nonzero.

    `nonzero` records an explicit side condition (the DSL's `!=0` suffix);
    `negated` carries the sign of a subtracted term.
    """

    name: str
    nonzero: bool = False
    negated: bool = False


Coefficient = Union[SymbolicCoeff, RatZ]
MultiIndex = Tuple[int, ...]
Term = Tuple[Coefficient, MultiIndex]


class DiffPolynomial(NamedTuple):
    shifts: Tuple[Shift, ...]
    terms: Tuple[Term, ...]

    @property
    def is_symbolic(self) -> bool:
        return any(isinstance(c, SymbolicCoeff) for c, _ in self.terms)

    @property
    def is_empty(self) -> bool:
        return not self.terms

    def is_plain(self) -> bool:
        """True when no shifted variable occurs (a polynomial in w(z) only)."""
        return all(all(e == 0 for e in idx[1:]) for _, idx in self.terms)


def _check_widths(shifts: Sequence[Shift], terms: Sequence[Term]) -> None:
    width = 1 + len(shifts)
    seen = set()
    for i, s in enumerate(shifts):
        if s.index != i + 1:
            raise BadIndex(f"shift at slot {i + 1} carries index {s.index}")
        key = shift_key(s.re, s.im)
        if key in seen:
            raise ValueError(f"duplicate shift {s.value}")
        seen.add(key)
    for _, idx in terms:
        if len(idx) != width:
            raise ValueError(f"multi-index {idx} does not match width {width}")
        for e in idx:
            if e < 0 or e > MAX_EXPONENT:
                raise ValueError(f"exponent {e} out of range")


def normalize(shifts: Sequence[Shift], terms: Sequence[Term]) -> DiffPolynomial:
    """Merge duplicate multi-indices, drop zero terms, sort canonically.

    Numeric duplicates merge by coefficient addition; symbolic duplicates are
    rejected (`SymbolicDuplicate`).  Term order is descending lexicographic
    on the exponent tuple, so the output is a fixed point of `normalize`.
    """
    shifts = tuple(shifts)
    terms = list(terms)
    _check_widths(shifts, terms)
    merged: dict = {}
    for coeff, idx in terms:
        if idx not in merged:
            merged[idx] = coeff
            continue
        prev = merged[idx]
        if isinstance(prev, SymbolicCoeff) or isinstance(coeff, SymbolicCoeff):
            raise SymbolicDuplicate(idx)
        merged[idx] = prev + coeff
    kept = [
        (coeff, idx)
        for idx, coeff in merged.items()
        if not (isinstance(coeff, RatZ) and coeff.is_zero)
    ]
    kept.sort(key=lambda t: t[1], reverse=True)
    return DiffPolynomial(shifts, tuple(kept))


def _require_terms(p: DiffPolynomial) -> None:
    if p.is_empty:
        raise EmptyPolynomial("the zero polynomial has no degree data")


def total_degree(p: DiffPolynomial) -> int:
    """Largest total exponent sum over all terms."""
    _require_terms(p)
    return max(sum(idx) for _, idx in p.terms)


def shift_degree(p: DiffPolynomial, j: int) -> int:
    """Largest exponent of the j-th shifted variable (j is 1-based)."""
    _require_terms(p)
    if not 1 <= j <= len(p.shifts):
        raise BadIndex(f"shift index {j} outside 1..{len(p.shifts)}")
    return max(idx[j] for _, idx in p.terms)


def unshifted_degree(p: DiffPolynomial) -> int:
    """Largest exponent of the unshifted variable w(z)."""
    _require_terms(p)
    return max(idx[0] for _, idx in p.terms)


def weight(p: DiffPolynomial) -> int:
    """Sum over shifts of the largest exponent of each shifted variable."""
    _require_terms(p)
    return sum(shift_degree(p, j) for j in range(1, len(p.shifts) + 1))


def shifted_degree(p: DiffPolynomial) -> int:
    """Largest shifted-part exponent sum; never exceeds `weight`."""
    _require_terms(p)
    return max(sum(idx[1:]) for _, idx in p.terms)


def order_at_zero(p: DiffPolynomial) -> int:
    """Vanishing order in the unshifted variable at w(z) = 0.

    Symbolic coefficients count as generically nonzero; terms with a numeric
    zero coefficient were already dropped by `normalize`.
    """
    _require_terms(p)
    return min(idx[0] for _, idx in p.terms)


def is_homogeneous(p: DiffPolynomial) -> bool:
    _require_terms(p)
    degrees = {sum(idx) for _, idx in p.terms}
    return len(degrees) == 1
