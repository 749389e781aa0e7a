"""Assembly of the two-component radial wavefunction from ladder members.

For a bound state with labels (channel, k) the two radial components are
built from at most two adjacent members of the positive ladder tower,

    F(rho) = A*sqrt(m + E) * (psi_minus + psi_plus)(rho)
    G(rho) = A*sqrt(m - E) * (psi_minus - psi_plus)(rho)

with psi_plus the rank-k member (phase mu = lam + k) and
psi_minus = rel_coeff * (rank k-1 member).  The mixing coefficient is fixed
by the first-order system itself:

    rel_coeff = C_minus(mu) / (zeta*m/kappa - tau),
    zeta*m/kappa = sqrt(zeta^2 + (mu - 1/2)^2).

For k = 0 there is no lower member: psi_minus vanishes, rel_coeff = 0, and
F/G = -sqrt((m+E)/(m-E)) pointwise (the constant-ratio nodeless solution,
which is also why k = 0 only exists for epsilon = -1).

Functions are kept in exact polynomial-times-weight form, so nodes are
polynomial roots and derivatives are available without differencing.
sqrt(m - E) is evaluated as sqrt(m + E)*nu, which does not cancel at small
zeta.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from . import precision
from .channels import BoundState
from .errors import DomainError
from .ladder import (
    LadderFunction,
    _combine,
    _evaluate_dq,
    _evaluate_q,
    apply_raising,
    c_minus,
    ground_ladder_function,
    raise_to_rank,
)

__all__ = [
    "RadialSolution",
    "WavefunctionTable",
    "build_solution",
    "evaluate_on_grid",
    "physical_normalize",
    "count_radial_nodes",
]


@dataclass(frozen=True)
class RadialSolution:
    """Exact bound-state solution in polynomial form.

    amplitude rescales both components; normalization records whether it was
    chosen algebraically (unit tower members, amplitude 1) or to make
    integral (F^2 + G^2) dr equal 1.
    """

    state: BoundState
    psi_plus: LadderFunction
    psi_minus: LadderFunction | None
    rel_coeff: float
    amplitude: float = 1.0
    normalization: str = "algebraic"

    # -- polynomial views ---------------------------------------------------

    def component_polynomials(self):
        """(u_F, u_G) with F = c_F*w*u_F, G = c_G*w*u_G, as ladder coefficients.

        u_F = rel_coeff*q_minus + q_plus and u_G = rel_coeff*q_minus - q_plus on
        the ladder's polynomial basis; computed once per solution.
        """
        return self._component_coeffs

    @cached_property
    def _component_coeffs(self):
        plus = self.psi_plus.coeffs
        minus = () if self.psi_minus is None else self.psi_minus.coeffs
        return (tuple(_combine((1, plus), (self.rel_coeff, minus))),
                tuple(_combine((-1, plus), (self.rel_coeff, minus))))

    def front_factors(self):
        """(c_F, c_G) = amplitude * sqrt(m+E) * (1, nu); c_G == amplitude*sqrt(m-E)."""
        c_f = self.amplitude * precision.sqrt(self.state.mass + self.state.energy)
        return c_f, c_f * self.state.nu

    # -- evaluation ---------------------------------------------------------

    def _weight(self, rho):
        lam = self.state.channel.lam
        if isinstance(rho, np.ndarray):
            return rho ** (precision.to_float(lam) - 0.5) * np.exp(-rho)
        return precision.power(rho, lam - 0.5) * precision.exp(-rho)

    @staticmethod
    def _check_rho(rho):
        if isinstance(rho, np.ndarray):
            if rho.size and not np.all(rho > 0):
                raise DomainError("rho must be positive")
        elif not rho > 0:
            raise DomainError(f"rho must be positive, got {rho}")

    def _component(self, rho, which):
        self._check_rho(rho)
        front = self.front_factors()[which]
        if isinstance(rho, np.ndarray):
            front = precision.to_float(front)
        value = _evaluate_q(self.state.channel.lam, self._component_coeffs[which], rho)
        return front * self._weight(rho) * value

    def F(self, rho):
        return self._component(rho, 0)

    def G(self, rho):
        return self._component(rho, 1)

    def evaluate_with_derivatives(self, rho: np.ndarray):
        """(F, G, dF/drho, dG/drho) from exact polynomial differentiation.

        dF/drho = c_F * w * (u_F' + ((lam - 1/2)/rho - 1) * u_F).
        """
        self._check_rho(rho)
        lam = self.state.channel.lam
        w = self._weight(rho)
        log_w_prime = (precision.to_float(lam) - 0.5) / rho - 1.0
        out = []
        for coeffs, front in zip(self._component_coeffs, self.front_factors()):
            u, du = _evaluate_q(lam, coeffs, rho), _evaluate_dq(lam, coeffs, rho)
            front = precision.to_float(front)
            out.append((front * w * u, front * w * (du + log_w_prime * u)))
        (f, fp), (g, gp) = out
        return f, g, fp, gp


@dataclass(frozen=True)
class WavefunctionTable:
    rho: np.ndarray
    F: np.ndarray
    G: np.ndarray


def build_solution(state: BoundState) -> RadialSolution:
    """Generate the exact solution for a spectrum state by climbing the tower."""
    channel = state.channel
    ground = ground_ladder_function(channel.lam)
    if state.k == 0:
        return RadialSolution(state=state, psi_plus=ground, psi_minus=None,
                              rel_coeff=channel.lam * 0)
    below = raise_to_rank(ground, state.k - 1)
    top, _ = apply_raising(below)
    # zeta*m/kappa in stable closed form
    zm_over_kappa = precision.sqrt(channel.zeta ** 2 + (state.mu - 0.5) ** 2)
    rel = c_minus(channel.lam, state.mu) / (zm_over_kappa - channel.tau)
    return RadialSolution(state=state, psi_plus=top, psi_minus=below, rel_coeff=rel)


def evaluate_on_grid(solution: RadialSolution, grid) -> WavefunctionTable:
    """Tabulate F and G on a grid of positive radii (order preserved)."""
    rho = np.asarray(grid, dtype=float)
    if rho.ndim != 1:
        raise DomainError("grid must be one-dimensional")
    if rho.size == 0:
        return WavefunctionTable(rho=rho, F=rho.copy(), G=rho.copy())
    if not np.all(rho > 0):
        raise DomainError("grid radii must be positive")
    return WavefunctionTable(rho=rho, F=solution.F(rho), G=solution.G(rho))


def physical_norm_integral(solution: RadialSolution, spec=None):
    """integral (F^2 + G^2) drho at the solution's current amplitude.

    The integrand is a sum of squared polynomials against the weight
    rho^(2*lam-1)*exp(-2*rho); the oracle's Gauss-Laguerre rule gets their
    pointwise values only.
    """
    from . import oracle

    lam = solution.state.channel.lam
    parts = [(precision.to_float(front), coeffs) for front, coeffs
             in zip(solution.front_factors(), solution.component_polynomials())]

    def values(rho):
        return sum((front * _evaluate_q(lam, coeffs, rho)) ** 2
                   for front, coeffs in parts)

    degree = 2 * (len(parts[0][1]) - 1)
    return oracle._weighted_integral(values, 2.0 * precision.to_float(lam) - 1.0,
                                     degree, spec or oracle.QuadratureSpec())


def physical_normalize(solution: RadialSolution, spec=None) -> RadialSolution:
    """Rescale so that integral (F^2 + G^2) drho == 1."""
    base = replace(solution, amplitude=1.0)
    norm = physical_norm_integral(base, spec=spec)
    return replace(solution, amplitude=1.0 / precision.sqrt(norm),
                   normalization="physical")


def count_radial_nodes(solution: RadialSolution, component: str = "F",
                       rho_max: float | None = None, samples: int = 4000) -> np.ndarray:
    """Interior zeros of F or G: dense-grid sign changes, refined in brackets.

    Double roots do not occur in this family, so sign changes find every
    node.  Level k has k nodes in G; F has k nodes for epsilon = -1 and
    k - 1 for epsilon = +1.  Each pass evaluates all brackets at 65 points
    at once and keeps the first sign change, shrinking them 64-fold.
    """
    if component not in ("F", "G"):
        raise DomainError(f"component must be 'F' or 'G', got {component!r}")
    func = solution.F if component == "F" else solution.G
    if rho_max is None:
        # polynomial roots sit well below the classical turning region
        rho_max = 4.0 * precision.to_float(solution.state.mu) + 20.0
    grid = np.geomspace(1e-3, rho_max, samples)
    sign = np.sign(func(grid))
    flips = np.nonzero(sign[1:] * sign[:-1] < 0)[0]
    lo, hi = grid[flips], grid[flips + 1]
    rows = np.arange(flips.size)
    for _ in range(20):
        if np.all(hi - lo < 1e-13 * (1.0 + hi)):
            break
        pts = lo[:, None] + (hi - lo)[:, None] * np.linspace(0.0, 1.0, 65)
        pts[:, -1] = hi
        sign = np.sign(func(pts))
        first = np.argmax(sign[:, 1:] != sign[:, :1], axis=1)
        lo, hi = pts[rows, first], pts[rows, first + 1]
    return 0.5 * (lo + hi)
