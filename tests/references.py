"""Reference implementations that the tests compare the package with.

The package builds and evaluates its not-a-knot splines without
``scipy.interpolate``; :func:`not_a_knot_ppoly` evaluates the same
coefficients through scipy's ``PPoly``.
"""

from scipy.interpolate import PPoly

from milne_lab.energies import _not_a_knot_coefficients


def not_a_knot_ppoly(x, y):
    """Not-a-knot cubic spline through ``(x, y)`` of shape ``(n,)``, a
    scipy ``PPoly`` bitwise equal to ``scipy.interpolate.CubicSpline(x,
    y)`` for real data: ``PPoly.construct_fast`` over
    ``_not_a_knot_coefficients``."""
    (x,), (c,) = _not_a_knot_coefficients(x, y)  # a ValueError for a stack
    return PPoly.construct_fast(c, x)
