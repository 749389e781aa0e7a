"""Channel kinematics and the exact bound-state spectrum.

A *channel* is one (j, epsilon) block of the radial problem for a point
Coulomb potential V = -zeta/r with zeta = Z*alpha.  Conventions used across
the whole package:

    tau    = epsilon * (j + 1/2)          signed angular eigenvalue
    s      = +sqrt(tau^2 - zeta^2)        regular exponent at the origin
    lambda = s + 1/2                      weight parameter of the ladder family
    omega  = tau^2 - zeta^2 - 1/4         Casimir eigenvalue
           = lambda*(lambda - 1) = j*(j + 1) - zeta^2

Energies and wavenumbers are in units of the particle mass m (m = 1).
Bound states carry a radial label k = 0, 1, 2, ... and a phase label
mu = lambda + k.  Dimensionless radial variable: rho = kappa*r with
kappa = sqrt(1 - E^2), and nu = sqrt((1 - E)/(1 + E)).  Every BoundState is
built from nu by state_from_nu, the one place that knows these kinematics.

The closed-form spectrum is

    E = 1 / sqrt(1 + zeta^2 / (mu - 1/2)^2),      mu - 1/2 = s + k,

which coincides with the standard hydrogenic fine-structure series.  Note the
offset: mu = zeta*E/kappa + 1/2, so the energy identity reads
kappa = zeta*E / (mu - 1/2); this is the numerically stable way around
(never divide by k, which vanishes for the ground level).

The combination k = 0 with epsilon = +1 is rejected: the nodeless solution
has a single ladder component, and the first-order system then forces
tau + zeta/kappa = 0, which requires tau < 0.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from . import precision
from .errors import (
    DomainError,
    InvalidQuantumNumber,
    Supercritical,
    SupercriticalChannelWarning,
    UnphysicalState,
)

__all__ = [
    "Channel", "BoundState", "make_channel", "zeta_from_charge", "bound_energy",
    "state_from_nu", "state_from_energy", "spectrum_table",
]


@dataclass(frozen=True)
class Channel:
    """One (j, epsilon) block; all derived scalars precomputed."""

    j: float
    epsilon: int
    zeta: float
    tau: float
    s: float
    lam: float
    omega: float

    def label(self) -> str:
        return f"j={self.j}, eps={self.epsilon:+d}, zeta={self.zeta}"


@dataclass(frozen=True)
class BoundState:
    """A single bound level of a channel.

    energy and wavenumber, in units of the mass, satisfy
    energy^2 + wavenumber^2 = 1, and mu - 1/2 = zeta*energy/wavenumber.
    """

    channel: Channel
    k: int
    mu: float
    energy: float
    wavenumber: float
    nu: float

    @property
    def window(self) -> tuple[float, float]:
        """Radii (1e-3, 4*mu + 20) where nodes and residuals are checked: past
        the outermost node (~2*mu), above F's root at rho <= 0 for epsilon = +1.
        """
        return 1e-3, 4.0 * float(self.mu) + 20.0


def _is_half_odd_integer(j) -> bool:
    twice = float(j) * 2.0
    if not math.isfinite(twice):
        return False
    nearest = round(twice)
    return abs(twice - nearest) < 1e-9 and nearest % 2 == 1 and nearest > 0


def zeta_from_charge(Z: float, alpha: float | None = None):
    """Coulomb coupling zeta = Z*alpha; both positive and finite (nan fails)."""
    if isinstance(Z, bool) or not 0 < Z < math.inf:
        raise InvalidQuantumNumber(f"nuclear charge must be positive and finite, got {Z}")
    if alpha is None:
        alpha = precision.FINE_STRUCTURE_ALPHA
        if precision.is_extended(Z):   # the constant's digits, at the working precision
            import mpmath
            alpha = mpmath.mpf(repr(alpha))
    elif not 0 < alpha < math.inf:
        raise InvalidQuantumNumber(f"alpha must be positive and finite, got {alpha}")
    return Z * alpha


def make_channel(j, epsilon: int, zeta) -> Channel:
    """Build a channel, validating quantum numbers and criticality.

    Raises InvalidQuantumNumber for bad j/epsilon/zeta, Supercritical when
    zeta >= j + 1/2 (the exponent s would turn imaginary).
    """
    if not _is_half_odd_integer(j):
        raise InvalidQuantumNumber(
            f"j must be a positive half-odd-integer (1/2, 3/2, ...), got {j}")
    if epsilon not in (-1, 1):
        raise InvalidQuantumNumber(f"epsilon must be +1 or -1, got {epsilon}")
    if isinstance(zeta, bool) or not 0 < zeta < math.inf:
        raise InvalidQuantumNumber(f"zeta must be positive and finite, got {zeta}")
    if zeta >= float(j) + 0.5:
        raise Supercritical(
            f"zeta={zeta} >= j + 1/2 = {float(j) + 0.5}: "
            f"channel (j={j}, eps={epsilon:+d}) has no bound tower")

    tau = epsilon * (j + 0.5)
    s = precision.sqrt(tau * tau - zeta * zeta)
    lam = s + 0.5
    omega = tau * tau - zeta * zeta - 0.25
    return Channel(j=j, epsilon=int(epsilon), zeta=zeta, tau=tau, s=s,
                   lam=lam, omega=omega)


def bound_energy(channel: Channel, k: int) -> BoundState:
    """Exact level k of a channel, from the closed-form spectrum.

    Raises InvalidQuantumNumber for k not a nonnegative integer and
    UnphysicalState for the excluded (k = 0, epsilon = +1) combination.
    """
    if not isinstance(k, int) or isinstance(k, bool) or k < 0:
        raise InvalidQuantumNumber(f"k must be a nonnegative integer, got {k!r}")
    if k == 0 and channel.epsilon == 1:
        raise UnphysicalState(
            f"k=0 is excluded in channel ({channel.label()}): it would force "
            f"tau = -zeta/kappa, but tau = {channel.tau} > 0")

    ratio = channel.zeta / (channel.s + k)
    # sqrt((1 - E)/(1 + E)) rewritten without the cancellation in 1 - E
    return state_from_nu(channel, k, ratio / (1.0 + precision.sqrt(1.0 + ratio * ratio)))


def state_from_nu(channel: Channel, k: int, nu) -> BoundState:
    """Level k of a channel at nu = sqrt((1 - E)/(1 + E)); the one constructor.

    E, kappa and mu = 1/2 + zeta*E/kappa follow from nu without the cancellation
    in 1 - E, at nu's precision (float or mpmath); a detuned nu detunes mu.
    Raises DomainError for k not a nonnegative integer or nu outside (0, 1).
    """
    if not isinstance(k, int) or isinstance(k, bool) or k < 0:
        raise DomainError(f"k must be a nonnegative integer, got {k!r}")
    if not 0 < nu < 1:
        raise DomainError(f"nu must lie in (0, 1), got {nu}")
    nu2 = nu * nu
    return BoundState(channel=channel, k=k,
                      mu=0.5 + channel.zeta * (1.0 - nu2) / (2.0 * nu),
                      energy=(1.0 - nu2) / (1.0 + nu2),
                      wavenumber=2.0 * nu / (1.0 + nu2), nu=nu)


def state_from_energy(channel: Channel, k: int, energy) -> BoundState:
    """State at an energy E in (0, 1), through nu formed from 1 - E.

    Lossy at small zeta: nu and mu are off by ~1e-16/(1 - E), 4e-4 at zeta = 1e-6.
    """
    if not 0 < energy < 1:
        raise DomainError(f"energy must lie in (0, 1), got {energy}")
    return state_from_nu(channel, k, precision.sqrt((1.0 - energy) / (1.0 + energy)))


def spectrum_table(zeta, j_max, k_max: int) -> list[BoundState]:
    """All bound states with j <= j_max and k <= k_max, sorted by energy.

    Supercritical channels are skipped with a SupercriticalChannelWarning.
    Ties (exact epsilon degeneracies) are ordered by (j, k, epsilon).
    """
    if not _is_half_odd_integer(j_max):
        raise InvalidQuantumNumber(f"j_max must be half-odd-integer, got {j_max}")
    if not isinstance(k_max, int) or isinstance(k_max, bool) or k_max < 0:
        raise InvalidQuantumNumber(f"k_max must be a nonnegative integer, got {k_max!r}")

    states: list[BoundState] = []
    n_half = round(float(j_max) * 2)
    for twice_j in range(1, n_half + 1, 2):
        j = twice_j / 2.0
        if float(zeta) >= j + 0.5:
            warnings.warn(
                f"skipping supercritical channels at j={j} (zeta={zeta} >= {j + 0.5})",
                SupercriticalChannelWarning, stacklevel=2)
            continue
        for epsilon in (-1, 1):
            channel = make_channel(j, epsilon, zeta)
            for k in range(k_max + 1):
                if k == 0 and epsilon == 1:
                    continue
                states.append(bound_energy(channel, k))
    states.sort(key=lambda st: (float(st.energy), float(st.channel.j), st.k,
                                st.channel.epsilon))
    return states
