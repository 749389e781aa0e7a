"""Acceptance gate: ten end-to-end guarantees, one test per guarantee.

Each test prints a single summary line with the worst measured value and the
pinned tolerance, so `pytest -v -s` doubles as a conformance report.  The
tolerances here are contractual; do not loosen them to make a failure green.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from diracladder import (
    NoSignChange,
    bound_energy,
    build_solution,
    count_radial_nodes,
    divergence_check,
    ground_ladder_function,
    inner_product,
    make_channel,
    matrix_representation,
    negative_branch_ground,
    ode_residual,
    positive_operator_check,
    raise_to_rank,
    shooting_solution,
    shooting_solve,
    state_from_nu,
)
from diracladder.verify import CHANNEL_GRID, suite_algebra, suite_casimir

FINE_STRUCTURE = 0.0072973525693


def _grid_states(k_max):
    for j, eps, zeta in CHANNEL_GRID:
        ch = make_channel(j, eps, zeta)
        for k in range(k_max + 1):
            if k == 0 and eps == +1:
                continue
            yield ch, k


def test_a01_energies_match_fine_structure_formula():
    tol = 1e-12
    worst, n = 0.0, 0
    for zeta in (0.01, 0.1, 0.5, 0.9):
        for j in (0.5, 1.5, 2.5, 3.5):
            for eps in (-1, +1):
                ch = make_channel(j, eps, zeta)
                for k in range(11):
                    if k == 0 and eps == +1:
                        continue
                    # independent closed form, written from j and k alone
                    denom = k + math.sqrt((j + 0.5) ** 2 - zeta ** 2)
                    ref = 1.0 / math.sqrt(1.0 + (zeta / denom) ** 2)
                    got = bound_energy(ch, k).energy
                    worst = max(worst, abs(got - ref) / ref)
                    n += 1
    print(f"[A01] worst rel delta {worst:.3e} (tol {tol:.0e}) over {n} states")
    assert worst <= tol


def test_a02_ground_state_energy_closed_form():
    tol = 1e-12
    worst = 0.0
    for zeta in (FINE_STRUCTURE, 0.5, 0.6713):
        got = bound_energy(make_channel(0.5, -1, zeta), 0).energy
        ref = math.sqrt(1.0 - zeta ** 2)
        worst = max(worst, abs(got - ref) / ref)
    print(f"[A02] worst rel delta {worst:.3e} (tol {tol:.0e})")
    assert worst <= tol


def test_a03_ladder_algebra_and_casimir_suites():
    tol = 1e-10
    reports = [suite_algebra(), suite_casimir()]
    worst = max(abs(c.measured) for r in reports for c in r.checks)
    n = sum(len(r.checks) for r in reports)
    print(f"[A03] worst residual {worst:.3e} (tol {tol:.0e}) over {n} checks")
    for r in reports:
        assert r.all_passed, str(r)
        # the suites hold every check to the contractual tolerance
        assert all(c.tolerance == tol for c in r.checks), str(r)


def test_a04_quadrature_confirms_unit_norms():
    tol = 1e-8
    worst, n = 0.0, 0
    for ch, k in _grid_states(10):
        if ch.epsilon == +1:
            continue        # the family member depends only on lam and k
        f = raise_to_rank(ground_ladder_function(ch.lam), k)
        worst = max(worst, abs(inner_product(f, f) - 1.0))
        n += 1
    print(f"[A04] worst |norm - 1| {worst:.3e} (tol {tol:.0e}) over {n} states")
    assert worst <= tol


def test_a05_ode_residual_small_and_detuning_detected():
    tol = 1e-8
    worst, n = 0.0, 0
    for ch, k in _grid_states(10):
        rep = ode_residual(build_solution(bound_energy(ch, k)), tolerance=tol)
        assert rep.all_passed, str(rep)
        worst = max(worst, max(c.measured for c in rep.checks))
        n += 1
    # a 1e-3 relative energy error must blow the residual past 1e-4
    ch = make_channel(0.5, -1, 0.5)
    sol = build_solution(bound_energy(ch, 1))
    energy = sol.state.energy * (1.0 - 1e-3)
    wrong = state_from_nu(ch, 1, math.sqrt((1.0 - energy) / (1.0 + energy)))
    rep = ode_residual(replace(sol, state=wrong))
    detuned = max(c.measured for c in rep.checks)
    print(f"[A05] worst residual {worst:.3e} (tol {tol:.0e}) over {n} states; "
          f"detuned residual {detuned:.3e} (must exceed 1e-4)")
    assert worst <= tol
    assert detuned > 1e-4


def test_a06_shooting_reproduces_algebraic_energies():
    tol = 1e-6
    worst, n = 0.0, 0
    for zeta in (0.1, 0.5):
        for j in (0.5, 1.5):
            for eps in (-1, +1):
                ch = make_channel(j, eps, zeta)
                for k in range(4):
                    if k == 0 and eps == +1:
                        continue
                    ref = bound_energy(ch, k).energy
                    got = shooting_solve(ch, k)
                    worst = max(worst, abs(got - ref) / ref)
                    n += 1
    with pytest.raises(NoSignChange):
        shooting_solve(make_channel(0.5, +1, 0.5), 0)
    print(f"[A06] worst rel delta {worst:.3e} (tol {tol:.0e}) over {n} solves; "
          f"no-bound-state channel correctly reports no sign change")
    assert worst <= tol


def test_a07_matrix_symmetries_exact_commutator_interior():
    tol = 1e-12
    worst = 0.0
    lams = sorted({make_channel(j, -1, z).lam for j, eps, z in CHANNEL_GRID})
    for lam in lams:
        m1 = matrix_representation("omega1", lam, 8).entries
        m2 = matrix_representation("omega2", lam, 8).entries
        m3 = matrix_representation("omega3", lam, 8).entries
        assert np.trace(m1) == 0.0
        assert np.trace(m2) == 0.0
        assert np.array_equal(m1.T, -m1) and np.all(m1.imag == 0.0)
        assert np.array_equal(m2.T, m2) and np.all(m2.real == 0.0)
        assert np.array_equal(m1.conj().T, -m1)
        assert np.array_equal(m2.conj().T, -m2)
        comm = m1 @ m2 - m2 @ m1 - 1j * m3
        worst = max(worst, np.abs(comm[1:-1, :]).max())
    print(f"[A07] symmetry classes exact; worst interior commutator row "
          f"{worst:.3e} (tol {tol:.0e}) over {len(lams)} lambdas")
    assert worst <= tol


def test_a08_positive_form_strictly_positive():
    smallest = math.inf
    worst_rel = 0.0
    n = 0
    for ch, k in _grid_states(10):
        if ch.epsilon == +1:
            continue
        f = raise_to_rank(ground_ladder_function(ch.lam), k)
        measured = positive_operator_check(f)
        label = 2.0 * f.mu ** 2 - ch.lam * (ch.lam - 1.0)
        assert measured > 0.0 and label > 0.0
        smallest = min(smallest, measured)
        worst_rel = max(worst_rel, abs(measured - label) / label)
        n += 1
    print(f"[A08] smallest positive form {smallest:.6f} > 0; worst rel delta "
          f"vs 2*mu^2 - omega {worst_rel:.3e} over {n} states")
    assert worst_rel <= 1e-9


def test_a09_negative_branch_norms_diverge():
    cutoffs = (5.0, 10.0, 20.0, 40.0)
    lams = sorted({make_channel(j, -1, z).lam for j, eps, z in CHANNEL_GRID})
    n = 0
    for lam in lams:
        rep = divergence_check(negative_branch_ground(lam), cutoffs)
        assert rep.all_passed, str(rep)
        n += len(rep.checks)
    print(f"[A09] truncated norms strictly increase and beat exp(delta R) "
          f"on {len(lams)} lambdas ({n} checks)")


def test_a10_node_counts_match_rank_and_oracle():
    ch = make_channel(0.5, -1, 0.5)
    checked = []
    for k in range(6):
        sol = build_solution(bound_energy(ch, k))
        algebraic = len(count_radial_nodes(sol, "F"))
        shot = shooting_solution(ch, k).node_count
        assert algebraic == k, f"k={k}: closed form has {algebraic} nodes"
        assert shot == k, f"k={k}: shooting solution has {shot} nodes"
        checked.append(k)
    print(f"[A10] F node count equals k for k in {checked}, "
          f"closed form and shooting solver agree")
