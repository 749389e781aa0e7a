"""Named verification suites: algebra, casimir, quadrature, ode, matrices.

Each suite sweeps a fixed grid of subcritical channels at desk scale and
aggregates worst-case deviations, so a clean build reports every line as
PASS and any regression surfaces as a single failing line with the offending
measurement.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from . import oracle
from .channels import bound_energy, make_channel, state_from_nu
from .errors import NotAnEigenfunction
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
from .report import VerificationReport

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
    worst_comm = {}
    worst_round = 0.0
    worst_product = 0.0
    worst_positive = 0.0
    all_positive = True
    annihilated = True
    count = 0
    for channel in _grid_towers():
        for _, f in _chain(channel.lam, _ALGEBRA_K_MAX):
            count += 1
            sub = commutator_check(f, tolerance=_GRID_TOL)
            for check in sub.checks:
                worst_comm[check.name] = max(worst_comm.get(check.name, 0.0),
                                             abs(check.measured))
            raised, c_up = apply_raising(f)
            lowered, c_down = apply_lowering(raised)
            scale = max(abs(c) for c in f.coeffs)
            worst_round = max(worst_round, _rel_dev(lowered.coeffs, f.coeffs, scale))
            # C- at mu+1 and C+ at mu share the radicand: product = -(C+)^2
            product_dev = abs(c_down * c_up + c_up * c_up) / (c_up * c_up)
            worst_product = max(worst_product, float(product_dev))
            measured = positive_operator_check(f)
            label = 2 * f.mu * f.mu - f.lam * (f.lam - 1)
            worst_positive = max(worst_positive, float(abs(measured - label) / label))
            all_positive = all_positive and measured > 0
        ground = ground_ladder_function(channel.lam)
        zero, coeff = apply_lowering(ground)
        annihilated = annihilated and zero.is_zero and coeff == 0

    for name, value in worst_comm.items():
        report.add(f"{name} (worst of {count})", value, _GRID_TOL)
    report.add(f"lower(raise(f)) round trip (worst of {count})", worst_round, _GRID_TOL)
    report.add(f"C-coefficient product consistency (worst of {count})",
               worst_product, _GRID_TOL)
    report.add(f"positive form matches 2*mu^2 - omega and stays > 0 (worst of {count})",
               worst_positive, _GRID_TOL,
               passed=worst_positive <= _GRID_TOL and all_positive)
    report.add("lowering annihilates every ground member", 0.0, _GRID_TOL,
               passed=annihilated)
    return report


def suite_casimir() -> VerificationReport:
    report = VerificationReport("casimir invariant")
    worst = 0.0
    count = 0
    for channel in _grid_towers():
        omega = channel.omega
        for _, f in _chain(channel.lam, _ALGEBRA_K_MAX):
            count += 1
            _, eig = apply_casimir(f)
            worst = max(worst, float(abs(eig - omega) / abs(omega)))
    report.add(f"eigenvalue constancy over towers ({count} members)", worst, _GRID_TOL)

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
    worst_norm = 0.0
    count = 0
    for channel in _grid_towers():
        for _, f in _chain(channel.lam, _ORACLE_K_MAX):
            count += 1
            worst_norm = max(worst_norm, abs(oracle.inner_product(f, f) - 1.0))
    report.add(f"unit norms along towers ({count} members)", worst_norm, _GRID_TOL)

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


def suite_ode() -> VerificationReport:
    report = VerificationReport("first-order system residuals")
    worst = 0.0
    count = 0
    for j, eps, zeta in CHANNEL_GRID:
        channel = make_channel(j, eps, zeta)
        for k in range(channel.k_min, _ORACLE_K_MAX + 1):
            count += 1
            sol = build_solution(bound_energy(channel, k))
            worst = max(worst, *(abs(c.measured) for c in oracle.ode_residual(sol).checks))
    report.add(f"sup residual, exact derivatives ({count} states)", worst, _GRID_TOL)

    channel = make_channel(0.5, -1, 0.5)
    sol = build_solution(bound_energy(channel, 2))
    fd = oracle.ode_residual(sol, method="fd", tolerance=1e-9)
    report.add("finite-difference cross-check (k=2)",
               max(abs(c.measured) for c in fd.checks), 1e-9)

    detuned_min = np.inf
    for k in (0, 3):
        st = bound_energy(channel, k)
        sol = build_solution(st)
        st_off = state_from_nu(channel, k, st.nu * (1.0 - 1e-3))
        off = oracle.ode_residual(replace(sol, state=st_off))
        detuned_min = min(detuned_min, max(abs(c.measured) for c in off.checks))
    report.add("detuned nu (1e-3) is detected", float(detuned_min), 1e-4,
               passed=detuned_min > 1e-4,
               detail="residual must exceed 1e-4")
    return report


def suite_matrices() -> VerificationReport:
    K = 8
    report = VerificationReport("truncated matrix representation")
    worst_trace12 = 0.0
    worst_trace3 = 0.0
    worst_sym = 0.0
    worst_comm = 0.0
    worst_block = 0.0
    for channel in _grid_towers():
        m1 = matrix_representation("omega1", channel.lam, K)
        m2 = matrix_representation("omega2", channel.lam, K)
        m3 = matrix_representation("omega3", channel.lam, K)
        a1, a2, a3 = m1.entries, m2.entries, m3.entries
        worst_trace12 = max(worst_trace12, abs(np.trace(a1)), abs(np.trace(a2)))
        worst_trace3 = max(worst_trace3, abs(np.trace(a3)))
        worst_sym = max(worst_sym,
                        float(np.max(np.abs(a1 + a1.T))),          # real antisymmetric
                        float(np.max(np.abs(a1.imag))),
                        float(np.max(np.abs(a2 + a2.conj().T))),   # anti-Hermitian
                        float(np.max(np.abs(a3 - a3.conj().T))))   # Hermitian
        comm = a1 @ a2 - a2 @ a1 - 1j * a3
        interior = slice(1, -1)
        worst_comm = max(worst_comm, float(np.max(np.abs(comm[interior, :]))))
        half = K + 1
        worst_block = max(worst_block,
                          float(np.max(np.abs(a1[:half, half:]))),
                          float(np.max(np.abs(a1[half:, :half]))))
    report.add("omega1/omega2 traces vanish exactly", worst_trace12, 0.0)
    report.add("omega3 trace vanishes by branch pairing", worst_trace3, 1e-12)
    report.add("symmetry classes (antisym/anti-Hermitian/Hermitian)", worst_sym, 0.0)
    report.add("interior rows of [omega1, omega2] - i*omega3", worst_comm, 1e-12)
    report.add("towers stay disconnected", worst_block, 0.0)
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
        raise KeyError(f"unknown suite {name!r}; choose from {SUITE_NAMES}")
    return _SUITES[name]()
