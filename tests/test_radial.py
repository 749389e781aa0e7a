"""Assembly of (F, G), normalization, evaluation, and node counting."""

import math
from dataclasses import replace

import mpmath
import numpy as np
import pytest

from diracladder import (
    DomainError,
    LadderFunction,
    PrecisionLoss,
    bound_energy,
    build_solution,
    count_radial_nodes,
    make_channel,
    ode_residual,
    physical_norm_integral,
    physical_normalize,
)
from diracladder.radial import RadialSolution
from diracladder.verify import CHANNEL_GRID

S_REF = 0.86602540378443864676
RATIO_K0 = -3.7320508075688772935     # F/G = -sqrt((1+s)/(1-s)) at k=0
REL_K1 = -0.56377056077431202166      # psi_minus coefficient at k=1
FRONT_K0 = 2.6026967918196893143      # sqrt(m+E) * ground q-coefficient


def solution(k, eps=-1, zeta=0.5, j=0.5):
    return build_solution(bound_energy(make_channel(j, eps, zeta), k))


def test_nodeless_state_component_ratio():
    sol = solution(0)
    rho = np.linspace(0.2, 12.0, 40)
    ratio = sol.F(rho) / sol.G(rho)
    # constant in rho, and strictly negative: the upper partner is absent
    assert np.allclose(ratio, RATIO_K0, rtol=1e-12)
    assert sol.psi_minus is None
    assert sol.rel_coeff == 0


def test_relative_coefficient_frozen():
    sol = solution(1)
    assert sol.rel_coeff == pytest.approx(REL_K1, abs=1e-14)


def test_small_rho_power_law():
    # F ~ rho^s * (const + O(rho)) near the origin
    sol = solution(0)
    limit = sol.F(1e-6) / 1e-6**S_REF
    assert limit == pytest.approx(FRONT_K0, rel=1e-5)
    closer = sol.F(1e-8) / 1e-8**S_REF
    assert closer == pytest.approx(FRONT_K0, rel=1e-7)


def test_single_point_closed_form():
    # ground state at rho=1: F = sqrt(m+E)*c0*e^(-1), G carries the minus
    sol = solution(0)
    assert sol.F(1.0) == pytest.approx(FRONT_K0 * math.exp(-1), rel=1e-13)
    e = 0.86602540378443864676
    want_g = -math.sqrt(1 - e) / math.sqrt(1 + e) * FRONT_K0 * math.exp(-1)
    assert sol.G(1.0) == pytest.approx(want_g, rel=1e-13)


def test_large_rho_component_ratio_tends_to_minus_nu():
    st = bound_energy(make_channel(0.5, -1, 0.5), 2)
    sol = build_solution(st)
    dev40 = abs(sol.G(40.0) / sol.F(40.0) + st.nu)
    dev80 = abs(sol.G(80.0) / sol.F(80.0) + st.nu)
    # both components decay with the same exponent; the ratio approaches
    # -nu with O(1/rho) corrections
    assert dev80 < 0.03 * st.nu
    assert dev80 < 0.6 * dev40


def test_evaluate_with_derivatives_contract():
    sol = solution(1)
    assert all(a.size == 0 for a in sol.evaluate_with_derivatives(np.array([])))

    grid = np.array([3.0, 1.0, 2.0])    # order preserved, not sorted
    f, g, fp, gp = sol.evaluate_with_derivatives(grid)
    assert f.shape == g.shape == fp.shape == gp.shape == grid.shape
    assert f[1] == sol.F(np.array([1.0]))[0]
    assert g[0] == sol.G(np.array([3.0]))[0]

    with pytest.raises(DomainError):
        sol.evaluate_with_derivatives(np.array([1.0, 0.0]))


@pytest.mark.parametrize("k", [0, 3, 12])
def test_grid_and_fd_residual_values_match_f_and_g_exactly(monkeypatch, k):
    # evaluate_with_derivatives (the CLI's grid path) and ode_residual(method='fd')
    # take F and G from one Laguerre pass; the values are F(rho) and G(rho) bit for bit
    sol = solution(k)
    lo, hi = sol.state.window
    rho = np.exp(np.linspace(np.log(lo), np.log(hi), 8000))     # the fd grid
    f, g, _, _ = sol.evaluate_with_derivatives(rho)
    assert np.array_equal(f, sol.F(rho)) and np.array_equal(g, sol.G(rho))

    fd = ode_residual(sol, method="fd", tolerance=1e-9)
    one_pass = RadialSolution.evaluate_with_derivatives

    def separate(self, rho):
        _, _, fp, gp = one_pass(self, rho)
        return self.F(rho), self.G(rho), fp, gp

    monkeypatch.setattr(RadialSolution, "evaluate_with_derivatives", separate)
    assert ode_residual(sol, method="fd", tolerance=1e-9) == fd


def test_nan_radius_rejected_everywhere():
    # members and solutions share one check: every rho must be > 0
    sol = solution(1)
    bad = np.array([1.0, np.nan])
    for evaluate in (sol.psi_plus.evaluate, sol.F, sol.G, sol.evaluate_with_derivatives):
        with pytest.raises(DomainError):
            evaluate(bad)
    with pytest.raises(DomainError):
        sol.psi_plus.evaluate(float("nan"))
    with pytest.raises(DomainError):
        sol.F(float("nan"))


def test_physical_norm_of_algebraic_ground():
    # unit x-measure norm translates to integral (F^2+G^2) drho = 2s at m=1
    assert physical_norm_integral(solution(0)) == pytest.approx(
        2 * S_REF, rel=1e-11)


def test_physical_normalize():
    sol = physical_normalize(solution(3))
    assert sol.normalization == "physical"
    assert physical_norm_integral(sol) == pytest.approx(1.0, abs=1e-10)
    # idempotent
    again = physical_normalize(sol)
    assert again.amplitude == pytest.approx(sol.amplitude, rel=1e-10)
    # projective: the input scale cannot matter
    scaled = physical_normalize(replace(solution(3), amplitude=7.0))
    assert scaled.amplitude == pytest.approx(sol.amplitude, rel=1e-12)


def test_physical_normalize_past_old_quadrature_ceiling():
    # the exact basis sum has no node grid, so ranks whose q^2 overflows a
    # 256-node Gauss-Laguerre rule (k >= 123 here) still normalize
    sol = physical_normalize(solution(130))
    assert math.isfinite(sol.amplitude) and sol.amplitude > 0
    assert ode_residual(sol).all_passed


def test_physical_normalize_extended_precision():
    with mpmath.workdps(40):
        sol = physical_normalize(build_solution(
            bound_energy(make_channel(0.5, -1, mpmath.mpf(1) / 2), 3)))
        assert isinstance(sol.amplitude, mpmath.mpf)
        exact = sum(c.rho_norm_squared() for c in sol.components)
        assert abs(exact - 1) < mpmath.mpf("1e-35")
        # independent 40-digit quadrature of F^2 + G^2 over the mpmath values
        quad = mpmath.quad(lambda r: sol.F(r) ** 2 + sol.G(r) ** 2,
                           [0, 1, 5, 20, mpmath.inf])
        assert abs(quad - 1) < mpmath.mpf("1e-30")


def test_components_carry_front_factors():
    # F and G are the two scaled ladder-basis functions, on psi_plus's tower
    sol = solution(2)
    f, g = sol.components
    assert f.lam == g.lam == sol.psi_plus.lam and f.degree == g.degree == 2
    rho = np.array([0.3, 2.0, 9.0])
    assert np.array_equal(sol.F(rho), f.evaluate(rho))
    assert np.array_equal(sol.G(rho), g.evaluate(rho))
    doubled = replace(sol, amplitude=2.0)
    assert np.allclose(doubled.F(rho), 2.0 * sol.F(rho), rtol=1e-15)


def test_derivative_evaluation_matches_finite_differences():
    sol = solution(2)
    rho = np.array([0.5, 1.7, 6.0])
    _, _, fp, gp = sol.evaluate_with_derivatives(rho)
    h = 1e-5
    fp_fd = (sol.F(rho + h) - sol.F(rho - h)) / (2 * h)
    gp_fd = (sol.G(rho + h) - sol.G(rho - h)) / (2 * h)
    assert np.allclose(fp, fp_fd, rtol=1e-7, atol=1e-10)
    assert np.allclose(gp, gp_fd, rtol=1e-7, atol=1e-10)


@pytest.mark.parametrize("k", [0, 1, 12, 60])
def test_one_pass_evaluation_matches_each_member(k):
    # F, G, F' and G' from one Laguerre pass equal the per-member values
    sol = solution(k)
    rho = np.geomspace(*sol.state.window, 500)
    f, g, fp, gp = sol.evaluate_with_derivatives(rho)
    first, second = sol.components
    f1, fp1 = first.evaluate_with_derivative(rho)
    g1, gp1 = second.evaluate_with_derivative(rho)
    for got, want in ((f, first.evaluate(rho)), (g, second.evaluate(rho)),
                      (f, f1), (g, g1), (fp, fp1), (gp, gp1)):
        assert np.allclose(got, want, rtol=1e-15, atol=0)


def test_evaluate_with_derivative_at_extended_precision():
    with mpmath.workprec(113):
        sol = build_solution(bound_energy(
            make_channel(mpmath.mpf(3) / 2, -1, mpmath.mpf("0.3")), 5))
        rho = mpmath.mpf("2.5")
        f, g, fp, gp = sol.evaluate_with_derivatives(rho)
        for member, value, deriv in zip(sol.components, (f, g), (fp, gp)):
            assert member.evaluate_with_derivative(rho) == (value, deriv)
            assert value == member.evaluate(rho)
            want = mpmath.diff(member.evaluate, rho)
            assert abs(deriv - want) <= mpmath.mpf("1e-28") * abs(want)


def test_node_counts_small_k():
    for k in range(4):
        nodes = count_radial_nodes(solution(k))
        assert len(nodes) == k
        # every refined node is a sign change of F
        sol = solution(k)
        for r in nodes:
            assert sol.F(r - 1e-6) * sol.F(r + 1e-6) < 0


def test_node_count_component_validation():
    sol = solution(1)
    with pytest.raises(DomainError):
        count_radial_nodes(sol, component="H")
    # G of the k=1 state has its own zero count; the call just works
    count_radial_nodes(sol, component="G")


def test_positive_epsilon_channel_assembles_too():
    # the exactly-k-nodes property is an eps=-1 statement; aligned channels
    # put one fewer zero in F and one more in G
    sol = build_solution(bound_energy(make_channel(1.5, 1, 0.5), 2))
    assert len(count_radial_nodes(sol)) == 1
    assert len(count_radial_nodes(sol, component="G")) == 2
    assert physical_norm_integral(physical_normalize(sol)) == pytest.approx(
        1.0, abs=1e-10)


def scan_nodes(solution, component):
    """Reference: sign changes of F or G on a 4000-point log grid over the
    node window, each bracket shrunk 64-fold per pass to 1e-13 relative."""
    func = solution.F if component == "F" else solution.G
    grid = np.geomspace(1e-3, 4.0 * solution.state.mu + 20.0, 4000)
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


def expected_nodes(eps, k, component):
    return k - 1 if component == "F" and eps == 1 else k


@pytest.mark.parametrize("k", [0, 1, 2, 3, 5, 8, 12, 20, 30, 45, 60])
def test_nodes_match_dense_scan(k):
    for j, eps, zeta in CHANNEL_GRID:
        if k == 0 and eps == 1:
            continue
        sol = solution(k, eps, zeta, j)
        for component in "FG":
            nodes = count_radial_nodes(sol, component)
            ref = scan_nodes(sol, component)
            label = (j, eps, zeta, k, component)
            assert len(nodes) == len(ref) == expected_nodes(eps, k, component), label
            assert np.all(np.abs(nodes - ref) <= 1e-10 * ref), label


@pytest.mark.parametrize("j", [0.5, 20.5])
def test_node_counts_high_in_the_tower(j):
    for eps in (-1, 1):
        for zeta in (1e-6, 0.5):
            for k in (100, 200):
                sol = solution(k, eps, zeta, j)
                for component in "FG":
                    assert len(count_radial_nodes(sol, component)) == \
                        expected_nodes(eps, k, component), (j, eps, zeta, k, component)


def test_node_counts_at_tiny_coupling():
    # F of an eps=+1 level has a root at rho <= 0; at zeta=1e-6 it rounds to
    # about +1e-14, and the window's lower edge keeps it out
    assert len(count_radial_nodes(solution(1, 1, 1e-6, 20.5), "F")) == 0
    assert len(count_radial_nodes(solution(100, 1, 1e-6, 1.5), "F")) == 99


def test_each_node_is_a_sign_change_of_the_polynomial_part():
    for j, eps, zeta, k in [(0.5, -1, 0.5, 12), (1.5, 1, 0.1, 40), (20.5, 1, 1e-6, 60),
                            (0.5, -1, 0.9, 200)]:
        sol = solution(k, eps, zeta, j)
        for component, member in zip("FG", sol.components):
            nodes = count_radial_nodes(sol, component)
            below = member.polynomial(nodes * (1 - 1e-9))
            above = member.polynomial(nodes * (1 + 1e-9))
            assert np.all(np.sign(below) * np.sign(above) < 0), (j, eps, zeta, k, component)


def test_zeros_against_numpy_laguerre_roots():
    # lam = 1/2 puts q on the ordinary Laguerre basis L_n(2*rho), which
    # numpy.polynomial.laguerre solves independently
    # (and whose two complex roots must be left out)
    coeffs = (0.3, -1.2, 0.5, 2.0, -0.7, 0.25)
    roots = np.polynomial.laguerre.lagroots(coeffs)
    want = np.sort(roots.real[np.abs(roots.imag) < 1e-9]) / 2
    got = LadderFunction(lam=0.5, mu=0.5, coeffs=coeffs).zeros(1e-3, 100.0)
    assert want.size == 3 and np.allclose(got, want, rtol=1e-12)
    # L_2^(a)(x) vanishes at x = a + 2 -+ sqrt(a + 2)
    a = 6.0
    got = LadderFunction(lam=3.5, mu=5.5, coeffs=(0.0, 0.0, 1.0)).zeros(1e-3, 100.0)
    assert np.allclose(got, (a + 2 + np.array([-1, 1]) * np.sqrt(a + 2)) / 2, rtol=1e-14)


def test_zeros_window_and_rootless_polynomial():
    member = LadderFunction(lam=3.5, mu=5.5, coeffs=(0.0, 0.0, 1.0))
    assert member.zeros(1e-3, 4.0).size == 1      # the upper root is 5.41
    # 2 + L_2^(0)(x) = (x^2 - 4x + 6)/2 has no real root
    assert LadderFunction(lam=0.5, mu=0.5, coeffs=(2.0, 0.0, 1.0)).zeros(1e-3, 50.0).size == 0


def test_uncertified_nodes_raise():
    # at k=300 q overflows float64 at the window's upper edge, so the sign
    # certificate cannot hold; the count is refused, not guessed
    with pytest.raises(PrecisionLoss):
        count_radial_nodes(solution(300), "F")
