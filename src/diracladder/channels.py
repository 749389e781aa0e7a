"""Channel kinematics and the exact bound-state spectrum.

A *channel* is one (j, epsilon) block of the radial problem for a point
Coulomb potential V = -zeta/r with zeta = Z*alpha.  Conventions used across
the whole package:

    tau    = epsilon * (j + 1/2)          signed angular eigenvalue
    s      = +sqrt(tau^2 - zeta^2)        regular exponent at the origin,
                                          formed as sqrt((|tau| - zeta)(|tau| + zeta))
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

The combination k = 0 with epsilon = +1 is rejected (Channel.k_min): the
nodeless solution has a single ladder component, and the first-order system
then forces tau + zeta/kappa = 0, which requires tau < 0.
"""

from __future__ import annotations

import math
import operator
import sys
import warnings
from dataclasses import dataclass

from . import precision
from .errors import (
    DomainError,
    InvalidQuantumNumber,
    PrecisionLoss,
    Supercritical,
    SupercriticalChannelWarning,
    UnphysicalState,
)

__all__ = [
    "Channel", "BoundState", "make_channel", "zeta_from_charge", "bound_energy",
    "state_from_nu", "spectrum_table",
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

    @property
    def k_min(self) -> int:
        """Lowest level: 0 for epsilon = -1, 1 for epsilon = +1 (k = 0 is excluded)."""
        return 0 if self.epsilon < 0 else 1

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
    # 2j exactly an odd positive integer, at j's own precision; written as
    # 0 < twice < inf so that nan fails too
    twice = 2 * j
    return 0 < twice < math.inf and twice == int(twice) and int(twice) % 2 == 1


def _require_level(name: str, k) -> int:
    """k as a Python int: any integer type but bool (operator.index), nonnegative."""
    try:
        if not isinstance(k, bool) and operator.index(k) >= 0:
            return operator.index(k)
    except TypeError:
        pass
    raise InvalidQuantumNumber(f"{name} must be a nonnegative integer, got {k!r}")


def _require_positive_finite(name: str, value):
    if isinstance(value, bool) or not 0 < value < math.inf:
        raise InvalidQuantumNumber(f"{name} must be positive and finite, got {value}")


def zeta_from_charge(Z: float):
    """Coulomb coupling zeta = Z*alpha at the fixed CODATA 2018 alpha; Z
    positive and finite (nan fails)."""
    _require_positive_finite("nuclear charge", Z)
    alpha = precision.FINE_STRUCTURE_ALPHA
    if precision.is_extended(Z):   # the constant's digits, at the working precision
        import mpmath
        alpha = mpmath.mpf(repr(alpha))
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
    _require_positive_finite("zeta", zeta)
    if zeta >= float(j) + 0.5:
        raise Supercritical(
            f"zeta={zeta} >= j + 1/2 = {float(j) + 0.5}: "
            f"channel (j={j}, eps={epsilon:+d}) has no bound tower")

    tau = epsilon * (j + 0.5)
    # factored so that s keeps its relative precision as zeta -> j + 1/2
    s = precision.sqrt((abs(tau) - zeta) * (abs(tau) + zeta))
    lam = s + 0.5
    omega = tau * tau - zeta * zeta - 0.25
    return Channel(j=j, epsilon=int(epsilon), zeta=zeta, tau=tau, s=s,
                   lam=lam, omega=omega)


def bound_energy(channel: Channel, k: int) -> BoundState:
    """Exact level k of a channel, from the closed-form spectrum.

    Raises InvalidQuantumNumber for k not a nonnegative integer and
    UnphysicalState for k below channel.k_min.
    """
    k = _require_level("k", k)
    if k < channel.k_min:
        raise UnphysicalState(
            f"k=0 is excluded in channel ({channel.label()}): it would force "
            f"tau = -zeta/kappa, but tau = {channel.tau} > 0")

    ratio = channel.zeta / (channel.s + k)
    root = precision.sqrt(1.0 + ratio * ratio)
    # sqrt((1 - E)/(1 + E)) rewritten without the cancellation in 1 - E; E and kappa
    # from ratio itself, as E is ill-conditioned in nu as nu -> 1 (k = 0, zeta -> j + 1/2)
    state = state_from_nu(channel, k, ratio / (1.0 + root))
    return BoundState(channel=channel, k=k, mu=state.mu, energy=1.0 / root,
                      wavenumber=ratio / root, nu=state.nu)


def state_from_nu(channel: Channel, k: int, nu) -> BoundState:
    """Level k of a channel at nu = sqrt((1 - E)/(1 + E)); the one constructor.

    E, kappa and mu = 1/2 + zeta*E/kappa follow from nu without the cancellation
    in 1 - E, at nu's precision (float or mpmath); a detuned nu detunes mu.
    Raises InvalidQuantumNumber for k not a nonnegative integer, DomainError for
    nu outside (0, 1), and PrecisionLoss for a float nu below the smallest
    normal float64, whose few significant bits would detune mu and kappa.
    """
    k = _require_level("k", k)
    if not 0 < nu < 1:
        raise DomainError(f"nu must lie in (0, 1), got {nu}")
    if not (precision.is_extended(nu) or nu >= sys.float_info.min):
        raise PrecisionLoss(f"nu = {nu!r} is subnormal in float64 (level k = {k})")
    nu2 = nu * nu
    return BoundState(channel=channel, k=k,
                      mu=0.5 + channel.zeta * (1.0 - nu2) / (2.0 * nu),
                      energy=(1.0 - nu2) / (1.0 + nu2),
                      wavenumber=2.0 * nu / (1.0 + nu2), nu=nu)


def spectrum_table(zeta, j_max, k_max: int) -> list[BoundState]:
    """All bound states with j <= j_max and k <= k_max, sorted by energy.

    A j whose channels make_channel finds supercritical is skipped with a
    SupercriticalChannelWarning.  Ties (exact epsilon degeneracies) are ordered
    by (j, k, epsilon).
    """
    if not _is_half_odd_integer(j_max):
        raise InvalidQuantumNumber(f"j_max must be half-odd-integer, got {j_max}")
    k_max = _require_level("k_max", k_max)

    states: list[BoundState] = []
    n_half = round(float(j_max) * 2)
    for twice_j in range(1, n_half + 1, 2):
        j = twice_j / 2.0
        try:
            channels = [make_channel(j, epsilon, zeta) for epsilon in (-1, 1)]
        except Supercritical:
            warnings.warn(
                f"skipping supercritical channels at j={j} (zeta={zeta} >= {j + 0.5})",
                SupercriticalChannelWarning, stacklevel=2)
            continue
        states.extend(bound_energy(channel, k) for channel in channels
                      for k in range(channel.k_min, k_max + 1))
    states.sort(key=lambda st: (st.energy, st.channel.j, st.k, st.channel.epsilon))
    return states
