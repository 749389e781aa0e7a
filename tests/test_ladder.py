"""Ladder recurrences, coefficients, Casimir, and the truncated matrices."""

import math

import mpmath
import numpy as np
import pytest

from diracladder import (
    DomainError,
    NotAnEigenfunction,
    PrecisionLoss,
    WrongBranch,
    apply_casimir,
    apply_lowering,
    apply_omega3,
    apply_raising,
    bound_energy,
    build_solution,
    c_minus,
    c_plus,
    commutator_check,
    ground_ladder_function,
    make_channel,
    matrix_representation,
    negative_branch_ground,
    positive_operator_check,
    raise_to_rank,
)
from diracladder import ladder
from diracladder.ladder import LadderFunction
from diracladder.verify import CHANNEL_GRID

LAM = 1.3660254037844386468           # zeta=0.5, j=1/2 channel
C0_REF = 1.9053062883085296678        # 2^(lam-1/2)/sqrt(Gamma(2*lam-1))
CPLUS_REF = 1.6528916502810694801     # sqrt(2*lam)
POSITIVE_K0 = 3.2320508075688772935   # lam*(lam+1)
POSITIVE_K2 = 22.160254037844386468   # 2*(lam+2)^2 - lam*(lam-1)


def ground():
    return ground_ladder_function(make_channel(0.5, -1, 0.5).lam)


def test_ground_member():
    f = ground()
    assert f.mu == f.lam
    assert f.rank == 0
    assert f.coeffs[0] == pytest.approx(C0_REF, abs=1e-14)
    assert f.norm_squared() == pytest.approx(1.0, abs=1e-13)
    # rho measure: c0^2 Gamma(2 lam) / 2^(2 lam) == lam - 1/2
    assert f.rho_norm_squared() == pytest.approx(LAM - 0.5, rel=1e-14)


def test_ground_requires_lam_above_half():
    with pytest.raises(DomainError):
        ground_ladder_function(0.5)
    with pytest.raises(DomainError):
        ground_ladder_function(0.2)


def test_ground_past_float64_gamma_raises():
    # Gamma(2*lam - 1) overflows float64 from lam ~ 86.3 (j = 85.5 at
    # zeta = 0.5); it used to escape as OverflowError
    lam = make_channel(85.5, -1, 0.5).lam
    with pytest.raises(PrecisionLoss, match="Gamma"):
        ground_ladder_function(lam)
    with mpmath.workprec(113):
        f = ground_ladder_function(mpmath.mpf(lam))
        assert abs(f.norm_squared() - 1) < mpmath.mpf("1e-30")


@pytest.mark.parametrize("lam", [float("nan"), float("inf"), mpmath.mpf("nan"),
                                 mpmath.inf])
def test_non_finite_lam_is_a_domain_error(lam):
    # inf used to build coeffs=(nan,) and a +-inf matrix diagonal
    with pytest.raises(DomainError):
        ground_ladder_function(lam)
    with pytest.raises(DomainError):
        negative_branch_ground(lam)
    for which in ("omega1", "omega2", "omega3"):
        with pytest.raises(DomainError):
            matrix_representation(which, lam, 1)


def test_lowering_annihilates_ground():
    f = ground()
    zero, coeff = apply_lowering(f)
    assert zero.is_zero
    assert coeff == 0


def test_raising_coefficient_and_degree():
    f = ground()
    up, coeff = apply_raising(f)
    assert coeff == pytest.approx(CPLUS_REF, abs=1e-14)
    assert up.rank == 1
    assert up.mu == pytest.approx(f.mu + 1, abs=1e-14)
    assert up.norm_squared() == pytest.approx(1.0, abs=1e-12)


def test_coefficient_labels():
    omega = LAM * (LAM - 1)
    for k in range(6):
        mu = LAM + k
        assert c_plus(LAM, mu) == pytest.approx(
            math.sqrt(mu * (mu + 1) - omega), abs=1e-13)
        assert c_minus(LAM, mu + 1) == pytest.approx(
            -math.sqrt((mu + 1) * mu - omega), abs=1e-13)
    # bottom of the tower: lowering out of mu = lam gives zero amplitude
    assert c_minus(LAM, LAM) == pytest.approx(0.0, abs=1e-15)
    # adjacent product reproduces the lower.raise eigenvalue
    mu = LAM + 2
    assert c_minus(LAM, mu + 1) * c_plus(LAM, mu) == pytest.approx(
        -(mu * (mu + 1) - omega), rel=1e-13)


def test_round_trip_returns_same_polynomial():
    f = raise_to_rank(ground(), 4)
    up, c_up = apply_raising(f)
    back, c_down = apply_lowering(up)
    assert c_down == pytest.approx(-c_up, rel=1e-12)
    for a, b in zip(back.coeffs, f.coeffs):
        assert a == pytest.approx(b, rel=1e-11, abs=1e-13)


def test_raise_to_rank_degree_bookkeeping():
    for k in (0, 1, 3, 7):
        f = raise_to_rank(ground(), k)
        assert f.rank == k
        assert f.degree == k
        assert f.mu == pytest.approx(LAM + k, abs=1e-12)
    # k is checked the way bound_energy checks it: a bool or a
    # non-integer rank is refused, not climbed
    for bad in (-1, 1.5, True):
        with pytest.raises(DomainError):
            raise_to_rank(ground(), bad)


def test_float_rank_ceiling():
    # no float64 ceiling: the chain keeps unit norm far past the old cap of 60
    f = raise_to_rank(ground(), 100)
    assert f.rank == 100
    assert f.norm_squared() == pytest.approx(1.0, abs=1e-12)
    # extended precision climbs too
    with mpmath.workdps(40):
        f = ground_ladder_function(mpmath.mpf(1) + mpmath.sqrt(mpmath.mpf(3)) / 2)
        g = raise_to_rank(f, 65)
        assert g.rank == 65


def test_weight_operator():
    f = raise_to_rank(ground(), 2)
    same, mu = apply_omega3(f)
    assert same is f
    assert mu == f.mu


def test_casimir_eigenvalue_constant_along_tower():
    omega = LAM * (LAM - 1)
    f = ground()
    for _ in range(8):
        _, val = apply_casimir(f)
        assert val == pytest.approx(omega, rel=1e-10)
        f, _ = apply_raising(f)


def test_casimir_on_negative_branch_ground():
    f = negative_branch_ground(LAM)
    _, val = apply_casimir(f)
    assert val == pytest.approx(LAM * (LAM - 1), rel=1e-12)


def test_casimir_rejects_non_eigenfunctions():
    f = raise_to_rank(ground(), 3)
    # breaking one coefficient breaks the eigenvalue equation; the member is
    # the single basis vector c_3 L_3, so perturb a lower coefficient
    broken = LadderFunction(lam=f.lam, mu=f.mu,
                            coeffs=(f.coeffs[0] + 1e-3,) + f.coeffs[1:],
                            branch=f.branch)
    with pytest.raises(NotAnEigenfunction):
        apply_casimir(broken)
    with pytest.raises(DomainError):
        apply_casimir(LadderFunction(lam=LAM, mu=LAM, coeffs=(0.0,),
                                     branch="positive"))


def test_commutator_report():
    rep = commutator_check(raise_to_rank(ground(), 5))
    assert rep.all_passed
    assert len(rep.checks) == 4


def test_algebra_checks_compute_each_action_once(monkeypatch):
    # commutator_check, apply_casimir and positive_operator_check share the
    # member's own raising, lowering and Casimir actions: one of each at mu
    calls = []
    for name in ("_raising_action", "_lowering_action", "_casimir_action"):
        def recording(lam, mu, *rest, name=name, action=getattr(ladder, name)):
            calls.append((name, mu))
            return action(lam, mu, *rest)
        monkeypatch.setattr(ladder, name, recording)
    f = raise_to_rank(ground_ladder_function(LAM), 12)
    assert commutator_check(f).all_passed
    _, eigenvalue = apply_casimir(f)
    form = positive_operator_check(f)
    assert calls.count(("_raising_action", f.mu)) == 1
    assert calls.count(("_lowering_action", f.mu)) == 1
    assert [name for name, _ in calls].count("_casimir_action") == 1
    # and a second round reads the same actions without computing them again
    calls.clear()
    assert commutator_check(f).all_passed
    assert apply_casimir(f)[1] == eigenvalue and positive_operator_check(f) == form
    assert ("_casimir_action", f.mu) not in calls
    assert ("_raising_action", f.mu) not in calls and ("_lowering_action", f.mu) not in calls


def test_recurrences_match_numerical_differentiation():
    # raising acts on the full function as rho*d/drho - rho + mu + 1/2,
    # lowering as rho*d/drho + rho - mu + 1/2; check both against five-point
    # central differences of the sampled member
    f = raise_to_rank(ground(), 2)
    up, c_up = apply_raising(f)
    down, c_down = apply_lowering(f)
    mu = f.mu
    h = 1e-3
    for rho in (0.7, 1.9, 4.3):
        stencil = np.array([f.evaluate(rho + i * h) for i in (-2, -1, 1, 2)])
        deriv = (stencil[0] - 8 * stencil[1] + 8 * stencil[2] - stencil[3]) / (12 * h)
        val = f.evaluate(rho)
        raised = rho * deriv - rho * val + (mu + 0.5) * val
        lowered = rho * deriv + rho * val - (mu - 0.5) * val
        assert raised == pytest.approx(c_up * up.evaluate(rho), rel=1e-9)
        assert lowered == pytest.approx(c_down * down.evaluate(rho), rel=1e-9)


def test_evaluate_domain():
    f = ground()
    with pytest.raises(DomainError):
        f.evaluate(0.0)
    with pytest.raises(DomainError):
        f.evaluate(-1.0)
    with pytest.raises(DomainError):
        f.evaluate(np.array([0.5, -0.5]))


def test_negative_branch_shape_and_norm_guard():
    f = negative_branch_ground(LAM)
    assert f.mu == -LAM
    # q == 1: the member is exactly rho^(lam-1/2) * e^(+rho)
    for rho in (20.0, 30.0, 40.0):
        expected = rho ** (LAM - 0.5) * math.exp(rho)
        assert f.evaluate(rho) == pytest.approx(expected, rel=1e-12)
    with pytest.raises(WrongBranch):
        f.norm_squared()
    with pytest.raises(WrongBranch):
        f.rho_norm_squared()


def test_evaluate_with_derivative_both_branches():
    rho = np.array([0.4, 1.5, 7.0])
    h = 1e-5
    for f in (raise_to_rank(ground(), 3), negative_branch_ground(LAM)):
        value, deriv = f.evaluate_with_derivative(rho)
        assert np.array_equal(value, f.evaluate(rho))
        fd = (f.evaluate(rho + h) - f.evaluate(rho - h)) / (2 * h)
        assert np.allclose(deriv, fd, rtol=1e-7)
    with pytest.raises(DomainError):
        ground().evaluate_with_derivative(np.array([1.0, 0.0]))


def _rows_and_tails(solution):
    # F, G and their tail sums: the four rows the residual evaluates together
    rows = [f.coeffs for f in solution.components]
    return rows + [ladder._tail_sums(row)[1:] for row in rows]


def _assert_array_path_matches_scalar(lam, rows, rho):
    # at the same float64 points, the basis-table path (array rho) and the
    # scalar recurrence (one float rho at a time, float64 coefficients) agree
    # to 1e-15 of max|q|
    table = ladder._evaluate_q(lam, rows, rho)
    floats = [[float(c) for c in row] for row in rows]
    for i, r in enumerate(rho):
        scalar = ladder._evaluate_q(float(lam), floats, float(r))
        for values, want in zip(table, scalar):
            assert abs(values[i] - want) <= 1e-15 * np.max(np.abs(values)), (i, r)


def test_array_path_matches_scalar_recurrence_on_channel_grid():
    for j, eps, zeta in CHANNEL_GRID:
        for k in range(eps == 1, 61):
            sol = build_solution(bound_energy(make_channel(j, eps, zeta), k))
            rho = np.geomspace(*sol.state.window, 12)
            _assert_array_path_matches_scalar(sol.psi_plus.lam, _rows_and_tails(sol), rho)


def test_array_path_takes_113_bit_rows_as_float64():
    # mpmath rows passed with an ndarray are rounded to float64 row by row
    with mpmath.workprec(113):
        for j, eps, zeta in CHANNEL_GRID:
            channel = make_channel(mpmath.mpf(j), eps, mpmath.mpf(zeta))
            for k in (1, 7, 20, 41, 60):
                sol = build_solution(bound_energy(channel, k))
                rho = np.geomspace(*(float(r) for r in sol.state.window), 8)
                _assert_array_path_matches_scalar(sol.psi_plus.lam, _rows_and_tails(sol), rho)


def test_positive_form_frozen_values():
    f = ground()
    assert positive_operator_check(f) == pytest.approx(POSITIVE_K0, abs=1e-11)
    f2 = raise_to_rank(f, 2)
    assert positive_operator_check(f2) == pytest.approx(POSITIVE_K2, abs=1e-10)
    with pytest.raises(WrongBranch):
        positive_operator_check(negative_branch_ground(LAM))


def test_positive_form_stays_accurate_at_high_rank():
    # the Gamma-moment sums cancel heavily here; the label must still match
    f = raise_to_rank(ground(), 12)
    label = 2 * f.mu**2 - LAM * (LAM - 1)
    assert positive_operator_check(f) == pytest.approx(label, rel=1e-11)


def test_matrix_validation():
    with pytest.raises(DomainError):
        matrix_representation("omega4", LAM, 3)
    with pytest.raises(DomainError):
        matrix_representation("omega1", LAM, 0)
    with pytest.raises(DomainError):
        matrix_representation("omega1", LAM, 2.5)
    with pytest.raises(DomainError):
        matrix_representation("omega1", LAM, True)
    with pytest.raises(DomainError):
        matrix_representation("omega1", 0.4, 3)


def test_matrix_basis_and_symmetry_classes():
    K = 5
    m1 = matrix_representation("omega1", LAM, K)
    m2 = matrix_representation("omega2", LAM, K)
    m3 = matrix_representation("omega3", LAM, K)
    mus = np.array(m1.basis_mus)
    assert len(mus) == 2 * (K + 1)
    assert np.all(np.diff(mus) > 0)
    assert np.array_equal(mus, -mus[::-1])

    a1, a2, a3 = m1.entries, m2.entries, m3.entries
    # symmetry classes hold exactly, not just to roundoff
    assert np.array_equal(a1, -a1.T)
    assert np.array_equal(a2, a2.T)
    assert np.array_equal(a2, -a2.conj().T)
    assert np.all(a1.imag == 0)
    assert np.all(a2.real == 0)
    assert np.array_equal(a3, np.diag(mus.astype(complex)))
    assert np.trace(a1) == 0
    assert np.trace(a2) == 0


def test_matrix_commutator_interior_rows():
    K = 8
    a1 = matrix_representation("omega1", LAM, K).entries
    a2 = matrix_representation("omega2", LAM, K).entries
    a3 = matrix_representation("omega3", LAM, K).entries
    comm = a1 @ a2 - a2 @ a1 - 1j * a3
    interior = comm[1:-1, :]
    assert np.abs(interior).max() < 1e-12
    # boundary rows carry the truncation artifact and are exempt
    assert np.abs(comm[0]).max() > 0.1


def test_matrix_towers_disconnected():
    K = 4
    a1 = matrix_representation("omega1", LAM, K).entries
    n = K + 1
    assert np.all(a1[:n, n:] == 0)
    assert np.all(a1[n:, :n] == 0)


@pytest.mark.parametrize("lam", [
    make_channel(0.5, -1, 1 - 1e-9).lam,
    make_channel(2.5, -1, 3 * (1 - 1e-9)).lam,
    0.5 + 1e-12,
])
def test_matrix_near_half_keeps_towers_apart_and_classes_exact(lam):
    # near critical coupling lam -> 1/2 and the labels -lam and lam nearly
    # touch; the element out of mu = -lam is still exactly 0
    K = 8
    n = K + 1
    a1 = matrix_representation("omega1", lam, K).entries
    a2 = matrix_representation("omega2", lam, K).entries
    for a in (a1, a2):
        assert np.all(a[:n, n:] == 0) and np.all(a[n:, :n] == 0)
        assert np.all(np.diag(a, -1)[np.arange(2 * n - 1) != K] != 0)
    assert np.array_equal(a1, -a1.T) and np.all(a1.imag == 0)
    assert np.array_equal(a2, a2.T) and np.all(a2.real == 0)


def test_nearest_neighbour_element_frozen():
    m1 = matrix_representation("omega1", LAM, 3)
    a1 = m1.entries
    col = m1.basis_mus.index(min(mu for mu in m1.basis_mus if mu > 0))
    # <lam|omega1|lam+1> = -(1/2) sqrt(2 lam)
    assert a1[col, col + 1].real == pytest.approx(-0.82644582514053474005, abs=1e-13)


def test_extended_precision_tower():
    with mpmath.workdps(40):
        lam = mpmath.mpf(1) + mpmath.sqrt(mpmath.mpf(3)) / 2
        f = raise_to_rank(ground_ladder_function(lam), 5)
        rep = commutator_check(f, tolerance=1e-30)
        assert rep.all_passed
        assert abs(f.norm_squared() - 1) < mpmath.mpf("1e-35")
