"""Expected values the benchmark checks against, computed without diracladder.

Everything here is written from the quantum numbers (j, epsilon, zeta, k)
alone, so a defect in the package cannot leak into its own reference.  The
tolerances are the ones pinned in tests/test_acceptance.py.
"""

from __future__ import annotations

import math

# CODATA 2018 fine-structure constant, the value ERRATA.md and the CLI use
ALPHA = 0.0072973525693

TOL_ENERGY = 1e-12        # A01: closed-form energies
TOL_RELATIONS = 1e-10     # A03: su(2) relations and Casimir eigenvalue
TOL_NORM = 1e-8           # A04: quadrature unit norm
TOL_RESIDUAL = 1e-8       # A05: first-order system residual
TOL_SHOOTING = 1e-6       # A06: shooting vs closed form
TOL_POSITIVE = 1e-9       # A08: positive form vs 2*mu^2 - omega

# physical normalization of a CLI wavefunction table, integrated by the
# benchmark on the printed grid (a coarser rule than the package's own)
TOL_TABLE_NORM = 1e-5

# ground E/m at zeta = alpha, 40-digit value from ERRATA.md
ERRATA_GROUND = "0.99997337396826688242"


def energy(j, zeta, k, sqrt=math.sqrt):
    """Textbook m*[1 + zeta^2/(k + sqrt((j+1/2)^2 - zeta^2))^2]^(-1/2), m = 1.

    Pass sqrt=mpmath.sqrt with mpmath arguments for extended precision.
    """
    denom = k + sqrt((j + 0.5) ** 2 - zeta ** 2)
    return 1 / sqrt(1 + (zeta / denom) ** 2)


def lam(j, zeta) -> float:
    return math.sqrt((j + 0.5) ** 2 - zeta ** 2) + 0.5


def omega(j, zeta) -> float:
    """Casimir eigenvalue j*(j+1) - zeta^2 (coupling enters squared)."""
    return j * (j + 1) - zeta ** 2


def positive_form(j, zeta, k) -> float:
    """2*mu^2 - omega with mu = lambda + k."""
    mu = lam(j, zeta) + k
    return 2 * mu * mu - omega(j, zeta)


def f_nodes(epsilon, k) -> int:
    """Interior zeros of F: k for epsilon = -1, k - 1 for epsilon = +1."""
    return k if epsilon == -1 else k - 1


def g_nodes(k) -> int:
    return k


def rel_err(got, want) -> float:
    err = abs(got - want) / abs(want)
    return err if math.isfinite(err) else math.inf


def digits(err) -> float:
    """-log10 of an error, capped at 16 digits; a non-finite error scores 0."""
    if not math.isfinite(err):
        return 0.0
    return -math.log10(min(max(err, 1e-16), 1.0))
