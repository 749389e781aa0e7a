"""Exception and warning types shared across the package."""

from __future__ import annotations

__all__ = [
    "DiracLadderError", "InvalidQuantumNumber", "Supercritical", "UnphysicalState",
    "DomainError", "WrongBranch", "NotAnEigenfunction", "QuadratureFailure",
    "NoSignChange", "StiffnessFailure", "PrecisionLoss",
    "SupercriticalChannelWarning",
]


class DiracLadderError(Exception):
    """Base class for all package errors."""


class Supercritical(DiracLadderError):
    """Coupling strength zeta >= j + 1/2: the channel exponent s becomes
    imaginary and no bound-state tower exists."""


class UnphysicalState(DiracLadderError):
    """Requested state is excluded by the first-order system itself
    (the k = 0, epsilon = +1 combination)."""


class DomainError(DiracLadderError):
    """Arguments are outside the mathematical domain of an operation (nonpositive
    radius, nu outside (0, 1), a quadrature weight exponent not finite, ...)."""


class InvalidQuantumNumber(DomainError):
    """A label or coupling is bad: j not a positive half-odd-integer, epsilon not
    +-1, a level not a nonnegative integer, Z or zeta not positive and finite, or a
    CLI number that does not parse."""


class WrongBranch(DiracLadderError):
    """A ladder function from the wrong spectral branch was supplied."""


class NotAnEigenfunction(DiracLadderError):
    """Casimir application found a residual too large for the input to be a
    member of the ladder family."""


class QuadratureFailure(DiracLadderError):
    """Gauss-Laguerre node doubling failed to converge to tolerance."""


class NoSignChange(DiracLadderError):
    """Shooting determinant has no sign change over the nu bracket."""


class StiffnessFailure(DiracLadderError):
    """ODE integration overflowed or was rejected by the stepper."""


class PrecisionLoss(DiracLadderError):
    """Float64 could not carry a closed-form result: a value of F, G or a derivative
    or a truncated norm went non-finite, a level's nu or the start b_0 of the
    Laguerre recurrence (lam >~ 171.16) is not a normal float64, or radial nodes
    failed their Sturm-count certificate."""


class SupercriticalChannelWarning(UserWarning):
    """A channel requested in a sweep was supercritical and was skipped."""
