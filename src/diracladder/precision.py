"""Scalar helpers that work in float64 or mpmath extended precision.

Every algebraic routine in this package is written against these helpers
instead of ``math`` so that feeding mpmath numbers in (``mpmath.mpf``) keeps
the whole computation at ``mpmath.mp.prec`` bits.  Feeding plain floats keeps
everything in fast float64.
"""

from __future__ import annotations

import math

import mpmath

# CODATA 2018 value; callers may pass their own alpha everywhere it appears.
FINE_STRUCTURE_ALPHA = 0.0072973525693

# Electron rest energy in MeV, used only for CLI unit conversion.
ELECTRON_MASS_MEV = 0.51099895000


def is_extended(x) -> bool:
    """True when x carries mpmath extended precision."""
    return isinstance(x, (mpmath.mpf, mpmath.mpc))


def sqrt(x):
    if is_extended(x):
        return mpmath.sqrt(x)
    return math.sqrt(x)


def exp(x):
    if is_extended(x):
        return mpmath.exp(x)
    return math.exp(x)


def gamma(x):
    if is_extended(x):
        return mpmath.gamma(x)
    return math.gamma(x)


def power(base, exponent):
    if is_extended(base) or is_extended(exponent):
        return mpmath.power(base, exponent)
    return base ** exponent


def to_float(x) -> float:
    """Collapse to float64 (for export and numpy interop)."""
    return float(x)
