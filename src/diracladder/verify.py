"""Named verification suites: algebra, casimir, quadrature, ode, matrices.

Each suite sweeps a fixed grid of subcritical channels at desk scale and
reports each check's worst case over its sweep (report._sup, which keeps a
NaN), so a clean build reports every line as PASS and any regression, a NaN
anywhere included, surfaces as a single failing line with the offending
measurement.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from . import oracle
from .channels import bound_energy, make_channel, state_from_nu
from .errors import DomainError, NotAnEigenfunction
from .ladder import (
    _rel_dev,
    apply_casimir,
    apply_lowering,
    apply_raising,
    commutator_check,
    ground_ladder_function,
    matrix_representation,
    negative_branch_ground,
    positive_operator_check,
)
from .radial import build_solution, physical_normalize
from .report import VerificationReport, _sup

__all__ = ["SUITE_NAMES", "run_suite", "CHANNEL_GRID"]

# deepest rank of the oracle-backed suites (quadrature, ode) and of the
# exact-arithmetic ones (algebra, casimir); every grid sweep's one tolerance
_ORACLE_K_MAX, _ALGEBRA_K_MAX = 10, 20
_GRID_TOL = 1e-10

# (j, epsilon, zeta); all subcritical since zeta < 1 <= j + 1/2
CHANNEL_GRID = [(j, eps, zeta)
                for zeta in (0.1, 0.5, 0.9)
                for j in (0.5, 1.5)
                for eps in (-1, 1)]


def _chain(lam, k_max):
    """Members (k, f) for k = 0..k_max by normalized raising."""
    f = ground_ladder_function(lam)
    yield 0, f
    for k in range(1, k_max + 1):
        f, _ = apply_raising(f)
        yield k, f


def _grid_towers():
    """One channel per tower: lam = s + 1/2, and so the chain, does not depend on epsilon."""
    return [make_channel(j, eps, zeta) for j, eps, zeta in CHANNEL_GRID if eps < 0]


def suite_algebra() -> VerificationReport:
    report = VerificationReport("ladder algebra")
    sweeps = {}     # check name -> its value on every member
    for channel in _grid_towers():
        for _, f in _chain(channel.lam, _ALGEBRA_K_MAX):
            raised, c_up = apply_raising(f)
            lowered, c_down = apply_lowering(raised)
            label = 2 * f.mu * f.mu - f.lam * (f.lam - 1)
            checks = [(c.name, c.measured) for c in commutator_check(f).checks] + [
                ("lower(raise(f)) round trip", _rel_dev(lowered.coeffs, f.coeffs, _sup(f.coeffs))),
                # C- at mu+1 and C+ at mu share the radicand: product = -(C+)^2
                ("C-coefficient product consistency",
                 (c_down * c_up + c_up * c_up) / (c_up * c_up)),
                # within the tolerance of 2*mu^2 - omega > mu^2 > 0 the form is positive
                ("positive form matches 2*mu^2 - omega and stays > 0",
                 (positive_operator_check(f) - label) / label),
            ]
            for name, value in checks:
                sweeps.setdefault(name, []).append(value)
    for name, values in sweeps.items():
        report.add(f"{name} (worst of {len(values)})", _sup(values), _GRID_TOL)
    annihilated = all(zero.is_zero and coeff == 0 for zero, coeff in
                      (apply_lowering(ground_ladder_function(ch.lam)) for ch in _grid_towers()))
    report.add("lowering annihilates every ground member", 0.0, _GRID_TOL,
               passed=annihilated)
    return report


def suite_casimir() -> VerificationReport:
    report = VerificationReport("casimir invariant")
    deviations = [(apply_casimir(f)[1] - channel.omega) / channel.omega
                  for channel in _grid_towers()
                  for _, f in _chain(channel.lam, _ALGEBRA_K_MAX)]
    report.add(f"eigenvalue constancy over towers ({len(deviations)} members)",
               _sup(deviations), _GRID_TOL)

    neg = negative_branch_ground(make_channel(0.5, -1, 0.5).lam)
    _, eig = apply_casimir(neg)
    report.add("negative-branch ground eigenvalue",
               float(abs(eig - neg.lam * (neg.lam - 1)) / abs(neg.lam * (neg.lam - 1))),
               _GRID_TOL)

    f3 = dict(_chain(make_channel(0.5, -1, 0.5).lam, 3))[3]
    perturbed = replace(f3, coeffs=tuple(c + (1e-3 if i == 0 else 0.0)
                                         for i, c in enumerate(f3.coeffs)))
    try:
        apply_casimir(perturbed)
        caught = False
    except NotAnEigenfunction:
        caught = True
    report.add("perturbed coefficients rejected", 0.0, _GRID_TOL, passed=caught,
               detail="NotAnEigenfunction raised")
    return report


def suite_quadrature() -> VerificationReport:
    report = VerificationReport("quadrature orthonormality")
    deviations = [oracle.inner_product(f, f) - 1.0 for channel in _grid_towers()
                  for _, f in _chain(channel.lam, _ORACLE_K_MAX)]
    report.add(f"unit norms along towers ({len(deviations)} members)",
               _sup(deviations), _GRID_TOL)

    lam = make_channel(0.5, -1, 0.5).lam
    members = dict(_chain(lam, 3))
    report.add("distinct labels orthogonal exactly",
               abs(oracle.inner_product(members[0], members[1])), 0.0)

    cross = abs(oracle.inner_product(members[3], members[3],
                                     scheme="transformed-trapezoid-in-x")
                - oracle.inner_product(members[3], members[3]))
    report.add("trapezoid-in-x agrees with Gauss-Laguerre", cross, 1e-9)

    # exact normalization (diagonal basis sum) re-checked by quadrature
    st = bound_energy(make_channel(0.5, -1, 0.5), 2)
    sol = physical_normalize(build_solution(st))
    report.add("physical normalization integral == 1",
               abs(oracle.physical_norm_integral(sol) - 1.0), _GRID_TOL,
               detail="exact sum vs Gauss-Laguerre")
    return report


def _residual(solution, method: str = "exact") -> float:
    """Worst sup-residual of the two first-order equations."""
    return _sup([c.measured for c in oracle.ode_residual(solution, method).checks])


def suite_ode() -> VerificationReport:
    report = VerificationReport("first-order system residuals")
    residuals = [_residual(build_solution(bound_energy(channel, k)))
                 for channel in (make_channel(*key) for key in CHANNEL_GRID)
                 for k in range(channel.k_min, _ORACLE_K_MAX + 1)]
    report.add(f"sup residual, exact derivatives ({len(residuals)} states)",
               _sup(residuals), _GRID_TOL)

    channel = make_channel(0.5, -1, 0.5)
    sol = build_solution(bound_energy(channel, 2))
    report.add("finite-difference cross-check (k=2)", _residual(sol, method="fd"), 1e-9)

    detuned = []
    for k in (0, 3):
        st = bound_energy(channel, k)
        st_off = state_from_nu(channel, k, st.nu * (1.0 - 1e-3))
        detuned.append(_residual(replace(build_solution(st), state=st_off)))
    weakest = float(np.min(detuned))    # numpy's min, like _sup, keeps a NaN
    report.add("detuned nu (1e-3) is detected", weakest, 1e-4, passed=weakest > 1e-4,
               detail="residual must exceed 1e-4")
    return report


def suite_matrices() -> VerificationReport:
    K = 8
    report = VerificationReport("truncated matrix representation")
    sweeps = {}     # (check name, tolerance) -> its value per array of every tower
    for channel in _grid_towers():
        a1, a2, a3 = (matrix_representation(f"omega{i}", channel.lam, K).entries
                      for i in (1, 2, 3))
        comm = a1 @ a2 - a2 @ a1 - 1j * a3
        half = K + 1
        for check, arrays in (
                (("omega1/omega2 traces vanish exactly", 0.0), (np.trace(a1), np.trace(a2))),
                (("omega3 trace vanishes by branch pairing", 1e-12), (np.trace(a3),)),
                (("symmetry classes (antisym/anti-Hermitian/Hermitian)", 0.0),
                 (a1 + a1.T, a1.imag, a2 + a2.conj().T, a3 - a3.conj().T)),
                (("interior rows of [omega1, omega2] - i*omega3", 1e-12), (comm[1:-1, :],)),
                (("towers stay disconnected", 0.0), (a1[:half, half:], a1[half:, :half]))):
            # numpy's max, like _sup, keeps a NaN
            sweeps.setdefault(check, []).extend(np.max(np.abs(a)) for a in arrays)
    for (name, tolerance), values in sweeps.items():
        report.add(name, _sup(values), tolerance)
    return report


_SUITES = {
    "algebra": suite_algebra,
    "casimir": suite_casimir,
    "quadrature": suite_quadrature,
    "ode": suite_ode,
    "matrices": suite_matrices,
}
SUITE_NAMES = tuple(_SUITES)


def run_suite(name: str) -> VerificationReport:
    if name not in _SUITES:
        raise DomainError(f"unknown suite {name!r}; choose from {SUITE_NAMES}")
    return _SUITES[name]()
