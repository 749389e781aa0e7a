"""Scalar helpers that work in float64 or mpmath extended precision.

Every algebraic routine in this package is written against these helpers
instead of ``math`` so that feeding mpmath numbers in (``mpmath.mpf``) keeps
the whole computation at ``mpmath.mp.prec`` bits.  Feeding plain floats keeps
everything in fast float64.

mpmath is needed only for extended precision, and this module never imports
it: an mpmath number cannot exist before mpmath is loaded, so a value is
extended only if mpmath is already in ``sys.modules`` and the value is one of
its numbers.  A float64 caller never pays for loading mpmath.
"""

from __future__ import annotations

import math
import sys

# CODATA 2018 (Rev. Mod. Phys. 93, 025010), fixed; for another alpha give zeta.
FINE_STRUCTURE_ALPHA = 0.0072973525693

# Electron rest energy in MeV, used only for CLI unit conversion (--si).
ELECTRON_MASS_MEV = 0.51099895000


def _mpmath_of(x):
    """The loaded mpmath module when x is one of its numbers, else None."""
    mpmath = sys.modules.get("mpmath")
    if mpmath is not None and isinstance(x, (mpmath.mpf, mpmath.mpc)):
        return mpmath
    return None


def is_extended(x) -> bool:
    """True when x carries mpmath extended precision."""
    return _mpmath_of(x) is not None


def bits(x) -> int:
    """Bits of x's arithmetic: mpmath.mp.prec for an mpmath number, else 53."""
    return _mpmath_of(x).mp.prec if is_extended(x) else 53


def sqrt(x):
    mpmath = None if type(x) is float else _mpmath_of(x)     # a float goes straight to math
    return mpmath.sqrt(x) if mpmath else math.sqrt(x)


def exp(x):
    mpmath = None if type(x) is float else _mpmath_of(x)
    return mpmath.exp(x) if mpmath else math.exp(x)


def gamma(x):
    """Gamma(x) for x > 0; inf where a float64 Gamma(x) overflows (x > 171.62)."""
    mpmath = _mpmath_of(x)
    if mpmath:
        return mpmath.gamma(x)
    try:
        return math.gamma(x)
    except OverflowError:
        return math.inf
