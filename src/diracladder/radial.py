"""Assembly of the two-component radial wavefunction from ladder members.

For a bound state with labels (channel, k) the two radial components are
built from at most two adjacent members of the positive ladder tower,
with E in units of the mass,

    F(rho) = A*sqrt(1 + E) * (psi_minus + psi_plus)(rho)
    G(rho) = A*sqrt(1 - E) * (psi_minus - psi_plus)(rho)

with psi_plus the rank-k member (phase mu = lam + k) and
psi_minus = rel_coeff * (rank k-1 member).  The mixing coefficient is fixed
by the first-order system itself:

    rel_coeff = C_minus(mu) / (zeta/kappa - tau),
    zeta/kappa = (mu - 1/2)/E.

For k = 0 there is no lower member: psi_minus vanishes, rel_coeff = 0, and
F/G = -sqrt((1+E)/(1-E)) pointwise (the constant-ratio nodeless solution,
which is also why k = 0 only exists for epsilon = -1).

Each component is stored as one LadderFunction on the orthonormal Laguerre
functions b_n of the tower (see ladder), its coefficients e_n (F) and f_n
(G) already scaled by the amplitude and the front factor (A*sqrt(1+E) for F,
A*sqrt(1-E) for G).  Evaluation, exact derivatives and nodes all go through
LadderFunction.  The physical weight rho^(2*lam-1)*exp(-2*rho) of
integral (F^2 + G^2) drho is the orthogonality weight of that basis, so
physical_normalize is the exact sum (e_n^2 + f_n^2)/2 over terms of order
one (no quadrature, no Gamma value; oracle.physical_norm_integral re-checks
it from outside).
sqrt(1 - E) is evaluated as sqrt(1 + E)*nu, which does not cancel at small
zeta.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import precision
from .channels import BoundState
from .errors import DomainError
from .ladder import (
    LadderFunction,
    _combine,
    _evaluate_with_derivatives,
    _zeros,
    apply_raising,
    c_minus,
    ground_ladder_function,
    raise_to_rank,
)

__all__ = [
    "RadialSolution", "build_solution", "physical_normalize", "count_radial_nodes",
]


@dataclass(frozen=True)
class RadialSolution:
    """Exact bound-state solution in polynomial form.

    amplitude rescales both components; normalization records whether it was
    chosen algebraically (unit tower members, amplitude 1) or to make
    integral (F^2 + G^2) drho equal 1.
    """

    state: BoundState
    psi_plus: LadderFunction
    psi_minus: LadderFunction | None
    rel_coeff: float
    amplitude: float = 1.0
    normalization: str = "algebraic"

    @cached_property
    def components(self) -> tuple[LadderFunction, LadderFunction]:
        """(F, G) as ladder-basis functions on the tower of psi_plus.

        F = c_F*(rel_coeff*psi_minus + psi_plus), G = c_G*(rel_coeff*psi_minus
        - psi_plus) with c_F = amplitude*sqrt(1+E) and c_G = c_F*nu; both carry
        psi_plus's labels.  Computed once per solution.
        """
        c_f = self.amplitude * precision.sqrt(1.0 + self.state.energy)
        plus = self.psi_plus.coeffs
        minus = () if self.psi_minus is None else self.psi_minus.coeffs
        lam, mu, branch = self.psi_plus.lam, self.psi_plus.mu, self.psi_plus.branch
        return tuple(
            LadderFunction(lam, mu, tuple(
                front * u if u else u
                for u in _combine((sign, plus), (self.rel_coeff, minus))), branch)
            for sign, front in ((1, c_f), (-1, c_f * self.state.nu)))

    @cached_property
    def _nodes(self) -> list:
        """F's and G's zeros in the node window, or the error refusing each: one pass."""
        return _zeros(self.components, *self.state.window)

    def F(self, rho):
        return self.components[0].evaluate(rho)

    def G(self, rho):
        return self.components[1].evaluate(rho)

    def evaluate_with_derivatives(self, rho: np.ndarray):
        """(F, G, dF/drho, dG/drho), exact, from one Laguerre pass and one weight."""
        f, fp, g, gp = _evaluate_with_derivatives(self.components, rho)
        return f, g, fp, gp


def build_solution(state: BoundState) -> RadialSolution:
    """Generate the exact solution for a spectrum state by climbing the tower.

    psi_minus is raise_to_rank's one-coefficient climb to rank k - 1; the last
    rung to psi_plus goes through apply_raising, the full action.
    """
    channel = state.channel
    ground = ground_ladder_function(channel.lam)
    if state.k == 0:
        return RadialSolution(state=state, psi_plus=ground, psi_minus=None,
                              rel_coeff=channel.lam * 0)
    below = raise_to_rank(ground, state.k - 1)
    top, _ = apply_raising(below)
    zeta_over_kappa = (state.mu - 0.5) / state.energy
    rel = c_minus(channel.lam, state.mu) / (zeta_over_kappa - channel.tau)
    return RadialSolution(state=state, psi_plus=top, psi_minus=below, rel_coeff=rel)


def physical_normalize(solution: RadialSolution) -> RadialSolution:
    """Rescale so that integral (F^2 + G^2) drho == 1, by the exact basis sum.

    The norm of the solution's own components scales as amplitude**2, so the
    new amplitude is amplitude / sqrt(norm).  Floats and mpmath numbers take
    the same path, so the amplitude keeps the solution's precision.
    """
    norm = sum(c.rho_norm_squared() for c in solution.components)
    return RadialSolution(solution.state, solution.psi_plus, solution.psi_minus,
                          solution.rel_coeff, amplitude=solution.amplitude / precision.sqrt(norm),
                          normalization="physical")


def count_radial_nodes(solution: RadialSolution, component: str = "F") -> np.ndarray:
    """Interior zeros of F or G, certified (LadderFunction.zeros; PrecisionLoss otherwise),
    in 1e-3 < rho < 4*mu + 20 (BoundState.window, which oracle.ode_residual reads too).
    Level k has k nodes in G; F has k for epsilon = -1 and k - 1 for epsilon = +1.  F and
    G, both of degree k, share one pass, once per solution; each keeps its nodes or error.
    """
    if component not in ("F", "G"):
        raise DomainError(f"component must be 'F' or 'G', got {component!r}")
    found = solution._nodes[component == "G"]
    if isinstance(found, Exception):
        raise found.with_traceback(None)    # kept with the solution: a fresh traceback each time
    return found.copy()
