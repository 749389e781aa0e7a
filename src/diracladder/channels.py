"""Channel kinematics and the exact bound-state spectrum.

A *channel* is one (j, epsilon) block of the radial problem for a point
Coulomb potential V = -zeta/r with zeta = Z*alpha.  Conventions used across
the whole package:

    tau    = epsilon * (j + 1/2)          signed angular eigenvalue
    s      = +sqrt(tau^2 - zeta^2)        regular exponent at the origin
    lambda = s + 1/2                      weight parameter of the ladder family
    omega  = tau^2 - zeta^2 - 1/4         Casimir eigenvalue
           = lambda*(lambda - 1) = j*(j + 1) - zeta^2

Bound states carry a radial label k = 0, 1, 2, ... and a phase label
mu = lambda + k.  Dimensionless radial variable: rho = kappa*r with
kappa = sqrt(m^2 - E^2), and nu = sqrt((m - E)/(m + E)).

The closed-form spectrum is

    E = m / sqrt(1 + zeta^2 / (mu - 1/2)^2),      mu - 1/2 = s + k,

which coincides with the standard hydrogenic fine-structure series.  Note the
offset: mu = zeta*E/kappa + 1/2, so the energy identity reads
kappa = zeta*E / (mu - 1/2); this is the numerically stable way around
(never divide by k, which vanishes for the ground level).

The combination k = 0 with epsilon = +1 is rejected: the nodeless solution
has a single ladder component, and the first-order system then forces
tau + zeta*m/kappa = 0, which requires tau < 0.
"""

from __future__ import annotations

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
    "Channel",
    "BoundState",
    "make_channel",
    "zeta_from_charge",
    "bound_energy",
    "state_from_energy",
    "mu_from_energy",
    "spectrum_table",
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

    energy and wavenumber satisfy energy^2 + wavenumber^2 = mass^2, and
    mu - 1/2 = zeta*energy/wavenumber.
    """

    channel: Channel
    k: int
    mu: float
    energy: float
    wavenumber: float
    nu: float
    mass: float


def _is_half_odd_integer(j) -> bool:
    twice = precision.to_float(j) * 2.0
    nearest = round(twice)
    return abs(twice - nearest) < 1e-9 and nearest % 2 == 1 and nearest > 0


def zeta_from_charge(Z: float, alpha: float = precision.FINE_STRUCTURE_ALPHA):
    """Coulomb coupling zeta = Z*alpha for a nuclear charge Z."""
    if Z <= 0:
        raise InvalidQuantumNumber(f"nuclear charge must be positive, got {Z}")
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
    if not zeta > 0:
        raise InvalidQuantumNumber(f"zeta must be positive, got {zeta}")
    if zeta >= precision.to_float(j) + 0.5:
        raise Supercritical(
            f"zeta={zeta} >= j + 1/2 = {precision.to_float(j) + 0.5}: "
            f"channel (j={j}, eps={epsilon:+d}) has no bound tower")

    tau = epsilon * (j + 0.5)
    s = precision.sqrt(tau * tau - zeta * zeta)
    lam = s + 0.5
    omega = tau * tau - zeta * zeta - 0.25
    return Channel(j=j, epsilon=int(epsilon), zeta=zeta, tau=tau, s=s,
                   lam=lam, omega=omega)


def bound_energy(channel: Channel, k: int, mass=1.0) -> BoundState:
    """Exact level k of a channel, from the closed-form spectrum.

    Raises InvalidQuantumNumber for k not a nonnegative integer and
    UnphysicalState for the excluded (k = 0, epsilon = +1) combination.
    """
    if not isinstance(k, int) or isinstance(k, bool) or k < 0:
        raise InvalidQuantumNumber(f"k must be a nonnegative integer, got {k!r}")
    if k == 0 and channel.epsilon == 1:
        raise UnphysicalState(
            f"k=0 is excluded in channel ({channel.label()}): it would force "
            f"tau = -zeta*m/kappa, but tau = {channel.tau} > 0")
    if not mass > 0:
        raise DomainError(f"mass must be positive, got {mass}")

    mu = channel.lam + k
    ratio = channel.zeta / (mu - 0.5)          # = zeta/(s + k)
    energy = mass / precision.sqrt(1.0 + ratio * ratio)
    wavenumber = ratio * energy                # kappa = zeta*E/(mu - 1/2)
    # sqrt((m - E)/(m + E)) rewritten without the cancellation in m - E
    nu = ratio / (1.0 + precision.sqrt(1.0 + ratio * ratio))
    return BoundState(channel=channel, k=k, mu=mu, energy=energy,
                      wavenumber=wavenumber, nu=nu, mass=mass)


def state_from_energy(channel: Channel, k: int, energy, mass=1.0) -> BoundState:
    """Package an externally supplied energy (e.g. from shooting) as a state.

    mu is inferred from the energy, not from lambda + k, so this is also the
    tool for building deliberately detuned states.
    """
    if not (0 < energy < mass):
        raise DomainError(f"energy must lie in (0, mass), got {energy}")
    wavenumber = precision.sqrt((mass - energy) * (mass + energy))
    nu = precision.sqrt((mass - energy) / (mass + energy))
    mu = channel.zeta * energy / wavenumber + 0.5
    return BoundState(channel=channel, k=k, mu=mu, energy=energy,
                      wavenumber=wavenumber, nu=nu, mass=mass)


def mu_from_energy(energy, zeta, mass=1.0):
    """Invert the spectrum: the phase label mu of a level with this energy."""
    if not (0 < energy < mass):
        raise DomainError(f"energy must lie in (0, mass), got {energy}")
    if not zeta > 0:
        raise InvalidQuantumNumber(f"zeta must be positive, got {zeta}")
    wavenumber = precision.sqrt((mass - energy) * (mass + energy))
    return zeta * energy / wavenumber + 0.5


def spectrum_table(zeta, j_max, k_max: int, mass=1.0) -> list[BoundState]:
    """All bound states with j <= j_max and k <= k_max, sorted by energy.

    Supercritical channels are skipped with a SupercriticalChannelWarning.
    Ties (exact epsilon degeneracies) are ordered by (j, k, epsilon).
    """
    if not _is_half_odd_integer(j_max):
        raise InvalidQuantumNumber(f"j_max must be half-odd-integer, got {j_max}")
    if not isinstance(k_max, int) or k_max < 0:
        raise InvalidQuantumNumber(f"k_max must be a nonnegative integer, got {k_max!r}")

    states: list[BoundState] = []
    n_half = round(precision.to_float(j_max) * 2)
    for twice_j in range(1, n_half + 1, 2):
        j = twice_j / 2.0
        if precision.to_float(zeta) >= j + 0.5:
            warnings.warn(
                f"skipping supercritical channels at j={j} (zeta={zeta} >= {j + 0.5})",
                SupercriticalChannelWarning, stacklevel=2)
            continue
        for epsilon in (-1, 1):
            channel = make_channel(j, epsilon, zeta)
            for k in range(k_max + 1):
                if k == 0 and epsilon == 1:
                    continue
                states.append(bound_energy(channel, k, mass))
    states.sort(key=lambda st: (precision.to_float(st.energy),
                                precision.to_float(st.channel.j),
                                st.k, st.channel.epsilon))
    return states
