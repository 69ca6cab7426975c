"""Degree calculus for shift-polynomial equations plus a numerical
characteristic engine that checks the matching growth inequalities on
concrete model functions.

Every nevdiff exception derives from exactly one of the two roots below,
which declare the CLI's exit code and stderr prefix for it.
"""


class Refused(Exception):
    """An input the program does not take, or a numerical breakdown."""

    exit_code, prefix = 1, "error: "


class Rejected(Exception):
    """A mathematical rejection: an inadmissible equation or a refused rule."""

    exit_code, prefix = 2, "rejected: "


class NumericalBreakdown(Refused):
    """The numerics failed on an input, not the mathematics: a value left
    the float range, a root or a quadrature did not converge, or a divisor
    point stayed on the circle."""

    prefix = "error: numerical: "
