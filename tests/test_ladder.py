"""Ladder recurrences, coefficients, Casimir, and the truncated matrices."""

import math
import sys
import warnings
from dataclasses import replace

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
    count_radial_nodes,
    ground_ladder_function,
    inner_product,
    make_channel,
    matrix_representation,
    negative_branch_ground,
    ode_residual,
    physical_normalize,
    positive_operator_check,
    raise_to_rank,
)
from diracladder import ladder, precision, verify
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
    # stored as sqrt(2*lam - 1) b_0; q itself is the constant C0_REF
    assert f.coeffs[0] == pytest.approx(math.sqrt(2 * LAM - 1), abs=1e-15)
    assert f.polynomial(1.0) == pytest.approx(C0_REF, abs=1e-14)
    assert f.norm_squared() == pytest.approx(1.0, abs=1e-13)
    # rho measure: c0^2 Gamma(2 lam) / 2^(2 lam) == lam - 1/2
    assert f.rho_norm_squared() == pytest.approx(LAM - 0.5, rel=1e-14)


def test_ground_requires_lam_above_half():
    with pytest.raises(DomainError):
        ground_ladder_function(0.5)
    with pytest.raises(DomainError):
        ground_ladder_function(0.2)


def test_a_member_is_on_one_of_the_two_branches():
    with pytest.raises(DomainError, match="branch must be"):
        LadderFunction(1.5, 1.5, (1.0,), branch="neither")


def test_lam_is_judged_at_its_own_precision():
    # float(lam) is 0.5 here: the ground member was refused, and the float64
    # path, which rounds lam to 1/2, then met math.gamma(0.0)
    with mpmath.workprec(200):
        f = ground_ladder_function(mpmath.mpf(0.5) + mpmath.mpf("1e-22"))
        assert f.polynomial(mpmath.mpf(1)) > 0
        with pytest.raises(PrecisionLoss, match="above 1/2"):
            f.polynomial(np.array([1.0]))
    with pytest.raises(PrecisionLoss, match="above 1/2"):
        ladder._ground_value(0.5)


def test_subnormal_ground_value_raises():
    # b_0 = pi**(1/4)/sqrt(Gamma(lam) Gamma(lam + 1/2)) is subnormal in
    # float64 at j = 200.5 (lam ~ 201.5): values are refused, the exact norms
    # and 113-bit values are not
    lam = make_channel(200.5, -1, 0.5).lam
    f = ground_ladder_function(lam)
    assert f.norm_squared() == pytest.approx(1.0, abs=1e-13)
    for rho in (1.0, np.array([1.0, 20.0])):
        with pytest.raises(PrecisionLoss, match="normal float64"):
            f.polynomial(rho)
    with mpmath.workprec(113):
        f = ground_ladder_function(mpmath.mpf(lam))
        want = mpmath.pi ** 0.25 / mpmath.sqrt(mpmath.gamma(f.lam) * mpmath.gamma(f.lam + 0.5))
        assert abs(f.polynomial(mpmath.mpf(1)) / (want * f.coeffs[0]) - 1) < mpmath.mpf("1e-30")


@pytest.mark.parametrize("j", [0.5, 20.5, 41.5, 84.5, 150.5, 169.5])
def test_ground_value_matches_200_bits(j):
    # b_0 from Gamma values; from exp of a sum of log Gamma values it was off
    # by 4.8e-15 at j = 20.5 and 6.9e-14 at j = 150.5
    lam = make_channel(j, -1, 0.5).lam
    with mpmath.workprec(200):
        lam_x = mpmath.mpf(lam)
        want = mpmath.pi ** 0.25 / mpmath.sqrt(mpmath.gamma(lam_x) * mpmath.gamma(lam_x + 0.5))
        assert abs(ladder._ground_value(lam) / want - 1) <= 4e-16


def test_ground_value_past_float64_range_raises_precision_loss():
    # b_0 stays normal up to lam ~ 171.16; Gamma(lam) itself overflows from
    # 171.62 on, which must surface as PrecisionLoss, not OverflowError, also
    # where rho**((lam - 1/2)/4) would overflow (lam = 400, rho = 2000)
    assert ladder._ground_value(171.15) >= sys.float_info.min
    for lam in (171.2, 171.63, 172.5, 400.0):
        with pytest.raises(PrecisionLoss, match="normal float64"):
            ladder._ground_value(lam)
    f = ground_ladder_function(400.0)
    for evaluate in (f.polynomial, f.evaluate, f.evaluate_with_derivative):
        with pytest.raises(PrecisionLoss):
            evaluate(2000.0)


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


def test_a_tower_forms_its_lam_tables_once(monkeypatch):
    # beta_n, the _tails ratios and b_0 depend on lam alone: certifying a whole
    # tower forms each once, for all its members, actions and evaluations.
    # C_plus(lam + n - 1) and -C_minus(lam + n) equal beta_n by value; they are
    # the ladder's normalizations, not table reads, and are left out of the count
    ladder._tower_at.cache_clear()
    channel = make_channel(1.5, -1, 0.5)
    a = 2 * channel.lam - 1
    roots, grounds = [], []
    sqrt, ground_value = precision.sqrt, ladder._ground_value

    def recording(x):
        roots.append((x, sys._getframe(1).f_code.co_name))
        return sqrt(x)

    monkeypatch.setattr(precision, "sqrt", recording)
    monkeypatch.setattr(ladder, "_ground_value",
                        lambda lam: grounds.append(lam) or ground_value(lam))
    for k in range(13):
        sol = physical_normalize(build_solution(bound_energy(channel, k)))
        f = sol.psi_plus
        assert commutator_check(f).all_passed and apply_casimir(f)[1] > 0
        assert positive_operator_check(f) > 0 and inner_product(f, f) > 0
        assert ode_residual(sol).all_passed
        assert len(count_radial_nodes(sol, "F")) == len(count_radial_nodes(sol, "G")) == k
    assert grounds == [channel.lam]
    for n in range(1, 14):
        assert [who for x, who in roots if x == n * (n + a)
                and who not in ("c_plus", "c_minus")] == ["grow"], n
        assert [who for x, who in roots if x == n / (n + a)] == ["grow"], n


def test_lam_tables_key_on_working_precision():
    # equal mpmath values at two precisions hash alike: the key carries mp.prec,
    # so a 200-bit read does not get 113-bit numbers; a float lam keeps its own
    lam = mpmath.mpf("1.5")
    with mpmath.workprec(113):
        low = ladder._tower(lam, 6).beta[5]
        assert low == mpmath.sqrt(35)
    with mpmath.workprec(200):
        high = ladder._tower(lam, 6).beta[5]
        assert high == mpmath.sqrt(5 * (5 + 2 * lam - 1))
        assert ladder._tower(lam).b0 == ladder._ground_value(lam)
    assert high != low
    assert type(ladder._tower(1.5, 6).beta[5]) is float


@pytest.mark.parametrize("where", [0, 3, 5, 6])
def test_nan_coefficient_fails_the_algebra_checks(where):
    # exact zeros are skipped in the actions, a NaN is not: wherever it sits,
    # in the zero band below psi_plus's top or on top, every check sees it
    f = build_solution(bound_energy(make_channel(1.5, 1, 0.5), 6)).psi_plus
    coeffs = list(f.coeffs)
    coeffs[where] = math.nan
    bad = replace(f, coeffs=tuple(coeffs))
    for moved, _ in (apply_raising(bad), apply_lowering(bad)):
        assert any(c != c for c in moved.coeffs)
    assert not commutator_check(bad).all_passed
    assert math.isnan(positive_operator_check(bad))
    with pytest.raises(NotAnEigenfunction):
        apply_casimir(bad)


def test_the_algebra_suite_checks_the_positive_form_on_every_member(monkeypatch):
    # a form 1% off at k = 15 alone: the suite walks every member up to k = 20
    def off_at_15(f):
        return positive_operator_check(f) * (1.01 if f.rank == 15 else 1)

    monkeypatch.setattr(verify, "positive_operator_check", off_at_15)
    report = verify.suite_algebra()
    form, = [c for c in report.checks if c.name.startswith("positive form")]
    assert not form.passed and form.measured == pytest.approx(0.01, rel=1e-9)
    assert "(worst of 126)" in form.name


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


def test_negative_branch_weight_overflow_raises_precision_loss():
    # exp(+rho/4) overflows float64 past rho ~ 2839 and the weight itself past
    # rho ~ 710: scalar and array rho raise PrecisionLoss there, not a bare
    # OverflowError, and emit no RuntimeWarning on the way
    f = negative_branch_ground(make_channel(0.5, -1, 0.5).lam)
    for rho in (3000.0, 1000.0, np.array([1.0, 3000.0]), np.array([1.0, 1000.0])):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PrecisionLoss, match="overflows float64"):
                f.evaluate(rho)
            with pytest.raises(PrecisionLoss, match="overflows float64"):
                f.evaluate_with_derivative(rho)
    # up to the demo-divergence cap the values stand
    rho = np.array([1.0, 150.0, 300.0])
    assert np.allclose(f.evaluate(rho), rho ** (f.lam - 0.5) * np.exp(rho), rtol=1e-13)
    assert f.evaluate(300.0) == f.evaluate(rho)[-1]


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
    # F, G and their derivative rows: the four rows the residual evaluates together
    lam = solution.psi_plus.lam
    rows = [f.coeffs for f in solution.components]
    return rows + [ladder._tails(lam, row) for row in rows]


def _assert_array_path_matches_scalar(lam, rows, rho):
    # at the same float64 points, the float64 basis table (array rho) and the
    # object-dtype table (one float rho at a time, float64 coefficients) agree
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
    # the action norms cancel heavily here; the label must still match
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
