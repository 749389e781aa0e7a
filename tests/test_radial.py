"""Assembly of (F, G), normalization, evaluation, and node counting."""

import math
import tracemalloc
import warnings
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
    inner_product,
    make_channel,
    ode_residual,
    physical_norm_integral,
    physical_normalize,
)
from diracladder import ladder, radial
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


@pytest.mark.parametrize("dtype", [np.float32, np.float16])
def test_array_radii_are_evaluated_in_float64_whatever_their_dtype(dtype):
    # numpy keeps a narrower operand's precision in 2*rho and in the weight's exp
    # and power (NEP 50): uncast, a float32 grid read F 4.0e-7 of max|F| off and
    # the derivatives 8.9e-7, a float16 grid about 2.6e-3
    sol = physical_normalize(solution(6))
    grid = np.geomspace(1e-2, 40.0, 50).astype(dtype)
    wide = grid.astype(float)
    assert np.array_equal(sol.F(grid), sol.F(wide))
    assert np.array_equal(sol.G(grid), sol.G(wide))
    for narrow, exact in zip(sol.evaluate_with_derivatives(grid),
                             sol.evaluate_with_derivatives(wide)):
        assert np.array_equal(narrow, exact)
    for member in sol.components:
        assert np.array_equal(member.polynomial(grid), member.polynomial(wide))


@pytest.mark.parametrize("k", [0, 3, 12, 60])
def test_grid_and_fd_residual_values_match_f_and_g_exactly(monkeypatch, k):
    # evaluate_with_derivatives (the CLI's grid path) and ode_residual(method='fd')
    # take F and G from one Laguerre pass; the values are F(rho) and G(rho) bit
    # for bit, in one basis-table block and across block edges (a cap that
    # cuts the grid into blocks of 3001, 3001 and 1998 columns)
    sol = solution(k)
    lo, hi = sol.state.window
    rho = np.exp(np.linspace(np.log(lo), np.log(hi), 8000))     # the fd grid
    terms = len(sol.components[0].coeffs)
    for cells in (ladder._TABLE_CELLS, 3001 * terms):
        with monkeypatch.context() as patch:
            patch.setattr(ladder, "_TABLE_CELLS", cells)
            f, g, fp, gp = sol.evaluate_with_derivatives(rho)
            assert np.array_equal(f, sol.F(rho)) and np.array_equal(g, sol.G(rho))
            for member, value, deriv in zip(sol.components, (f, g), (fp, gp)):
                alone = member.evaluate_with_derivative(rho)
                assert np.array_equal(alone[0], value) and np.array_equal(alone[1], deriv)

    fd = ode_residual(sol, method="fd", tolerance=1e-9)
    one_pass = RadialSolution.evaluate_with_derivatives

    def separate(self, rho):
        _, _, fp, gp = one_pass(self, rho)
        return self.F(rho), self.G(rho), fp, gp

    monkeypatch.setattr(RadialSolution, "evaluate_with_derivatives", separate)
    assert ode_residual(sol, method="fd", tolerance=1e-9) == fd


def test_values_past_float64_raise_precision_loss_at_their_radius():
    # q overflows where the weight underflows: F(1500) at k = 200 was nan after
    # three RuntimeWarnings, and ode_residual at k = 241 raised the bare warning
    high = physical_normalize(solution(200))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for evaluate in (lambda: high.F(1500.0), lambda: high.G(1500.0),
                         lambda: high.evaluate_with_derivatives(np.linspace(100, 1500, 6))):
            with pytest.raises(PrecisionLoss, match=r"rho = 1500\.0"):
                evaluate()
        with pytest.raises(PrecisionLoss):
            ode_residual(physical_normalize(solution(241)))


def test_derivatives_stay_finite_at_a_subnormal_radius():
    # (lam - 1/2)/rho alone overflows below (lam - 1/2)/1.8e308; taken after the
    # weight, as (lam - 1/2) * P/rho, F' ~ 1.9e43 and G' ~ -5.0e42 are finite and
    # agree with 113 bits, where nothing overflows
    rho = np.array([1e-320])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = solution(1).evaluate_with_derivatives(rho)
    with mpmath.workprec(113):
        half = mpmath.mpf(1) / 2
        want = build_solution(bound_energy(make_channel(half, -1, half), 1)) \
            .evaluate_with_derivatives(mpmath.mpf(rho[0]))
        for value, exact in zip(got, want):
            assert abs(value[0] / exact - 1) <= 1e-12, (value, exact)


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


@pytest.mark.parametrize("j, k", [(20.5, 1), (41.5, 1), (79.5, 20), (84.5, 1), (85.5, 0),
                                  (150.5, 3)])
def test_float64_matches_113_bits_where_gamma_overflows(j, k):
    # Gamma(2*lam) overflows float64 from j = 79.5 on, but every stored
    # coefficient and norm term is of order one: the float64 physical
    # amplitude, F and G agree with the 113-bit ones (F, G to 5e-15 of
    # max|F, G|; b_0 from log Gamma missed that by 5e-15 to 7e-14, at every j
    # here).  At j = 150.5, rho**(lam - 1/2) overflows from rho ~ 160 but the
    # weight rho**(lam - 1/2) exp(-rho) does not, nor F and G
    sol = physical_normalize(build_solution(bound_energy(make_channel(j, -1, 0.5), k)))
    rho = np.geomspace(1.0, sol.state.window[1], 40)
    fast = np.concatenate([sol.F(rho), sol.G(rho)])
    with mpmath.workprec(113):
        ext = physical_normalize(build_solution(
            bound_energy(make_channel(mpmath.mpf(j), -1, mpmath.mpf(1) / 2), k)))
        exact = [float(c(mpmath.mpf(r))) for c in (ext.F, ext.G) for r in rho]
        assert abs(sol.amplitude / ext.amplitude - 1) <= 1e-13
    assert np.max(np.abs(fast - exact)) <= 5e-15 * np.max(np.abs(exact))


def test_scalar_and_array_weights_agree_where_the_power_overflows():
    # j = 150.5: a scalar float rho took rho**(lam - 1/2) whole, an OverflowError
    # at 480.25; past rho = exp(2839/(lam - 1/2)) ~ 1.5e8 an array's fourth-root
    # power overflowed to inf where exp(-rho/4) had underflowed: inf * 0 = nan
    sol = physical_normalize(build_solution(bound_energy(make_channel(150.5, -1, 0.5), 3)))
    for c in (sol.F, sol.G):
        scalar, array = c(480.25), c(np.array([480.25]))[0]
        assert scalar != 0 and abs(scalar / array - 1) <= 1e-15
        assert c(2e8) == 0 and c(np.array([1e8, 2e8])).tolist() == [0, 0]
    assert [v.tolist() for v in sol.evaluate_with_derivatives(np.array([2e8]))] == [[0]] * 4
    assert list(sol.evaluate_with_derivatives(2e8)) == [0] * 4


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


def test_grid_evaluation_memory_is_bounded():
    # the basis table is filled one column block of at most _TABLE_CELLS
    # values at a time; the whole table at k = 200 on 100 000 points would be
    # 201 * 100 000 float64 (161 MB), the four outputs take 3.2 MB
    sol = solution(200)
    rho = np.geomspace(*sol.state.window, 100_000)
    tracemalloc.start()
    try:
        sol.evaluate_with_derivatives(rho)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16e6, peak


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
    # numpy.polynomial.laguerre solves independently.  Two-term members have
    # real roots only (quasi-orthogonal); -0.7 b_5 + 2 b_4 has one at
    # rho = -3.27, which the window must leave out
    for coeffs, inside in [((0.0, 0.0, 0.0, 0.0, 2.0, -0.7), 4), ((0.0,) * 7 + (1.3, 0.4), 8)]:
        roots = np.sort(np.polynomial.laguerre.lagroots(coeffs).real) / 2
        want = roots[roots > 1e-3]
        got = LadderFunction(lam=0.5, mu=0.5, coeffs=coeffs).zeros(1e-3, 100.0)
        assert want.size == inside and np.allclose(got, want, rtol=1e-12), coeffs
    # L_2^(a)(x) vanishes at x = a + 2 -+ sqrt(a + 2)
    a = 6.0
    got = LadderFunction(lam=3.5, mu=5.5, coeffs=(0.0, 0.0, 1.0)).zeros(1e-3, 100.0)
    assert np.allclose(got, (a + 2 + np.array([-1, 1]) * np.sqrt(a + 2)) / 2, rtol=1e-14)


def test_zeros_window_and_rootless_polynomial():
    # the roots of L_2^(6)(2*rho) are rho = 2.59 and 5.41
    member = LadderFunction(lam=3.5, mu=5.5, coeffs=(0.0, 0.0, 1.0))
    assert member.zeros(1e-3, 4.0).size == 1
    # a quasi-orthogonal q always has real roots, so "rootless" means a window
    # that holds none: between the two roots, and past both
    assert member.zeros(3.0, 5.0).size == 0
    assert member.zeros(6.0, 50.0).size == 0


def test_zeros_refuse_members_with_lower_terms():
    # the Jacobi route holds for the top two coefficients only; the package
    # never asks for zeros of anything else
    for coeffs in [(0.3, 0.0, 1.0, 2.0), (1e-300, 0.0, 0.0, 1.0), (0.0, 0.0)]:
        with pytest.raises(DomainError):
            LadderFunction(lam=0.5, mu=0.5, coeffs=coeffs).zeros(1e-3, 100.0)
    # trailing zeros are trimmed first, and a one-term member is two-term
    member = LadderFunction(lam=3.5, mu=5.5, coeffs=(0.0, 0.0, 1.0, 0.0))
    assert member.zeros(1e-3, 100.0).size == 2
    assert LadderFunction(lam=3.5, mu=3.5, coeffs=(2.0,)).zeros(1e-3, 100.0).size == 0


def test_zeros_refuse_a_window_that_is_not_finite_and_ordered(monkeypatch):
    # a NaN end once returned no zeros, a reversed window blamed float64 with
    # PrecisionLoss, and an infinite end warned first: each is a DomainError,
    # raised before the Jacobi matrix is formed
    f = solution(6).components[0]
    assert f.zeros(1e-3, 30.0).size == 6
    monkeypatch.setattr(np.linalg, "eigvalsh", None)
    for lo, hi in [(1e-3, math.nan), (5.0, 3.0), (math.nan, 30.0), (1e-3, math.inf)]:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="finite window"):
                f.zeros(lo, hi)


def test_jacobi_matrix_past_float64_raises_without_a_warning():
    # beta_k e_(k-1)/e_k overflows: PrecisionLoss, with no RuntimeWarning first
    member = LadderFunction(lam=1.5, mu=2.5, coeffs=(1e300, 1e-300))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(PrecisionLoss, match="not finite"):
            member.zeros(1e-3, 10.0)


def test_shifted_eigenvalue_fails_the_sturm_count(monkeypatch):
    # eigvalsh's eigenvalues are checked, not trusted: a slightly shifted
    # eigenvalue stays in its fence interval and is polished back, one moved
    # past its neighbour leaves two eigenvalues in one interval.  F and G are
    # one eigvalsh call on their (2, k, k) stack, so x[..., 0] shifts both;
    # nodes are kept with the solution, so each patch takes a fresh one
    eigvalsh = np.linalg.eigvalsh
    good = {c: count_radial_nodes(solution(12), c) for c in "FG"}

    def shifted(by):
        def call(matrix):
            x = eigvalsh(matrix)
            x[..., 0] = by(x)
            return x
        return call

    monkeypatch.setattr(np.linalg, "eigvalsh", shifted(lambda x: x[..., 0] * (1 + 1e-10)))
    sol = solution(12)
    for component in "FG":
        nodes = count_radial_nodes(sol, component)
        assert np.all(np.abs(nodes - good[component]) <= 1e-14 * good[component])
    monkeypatch.setattr(np.linalg, "eigvalsh", shifted(lambda x: (x[..., 1] + x[..., 2]) / 2))
    sol = solution(12)
    for component in "FG":
        with pytest.raises(PrecisionLoss, match="failed the Sturm count"):
            count_radial_nodes(sol, component)


def test_one_eigvalsh_call_certifies_f_and_g(monkeypatch):
    # F and G differ in the last diagonal entry of their Jacobi matrices only:
    # one eigvalsh call on the stack, one Sturm pass, kept with the solution.
    # Each keeps its own certificate: when only G's fails, F's nodes stand
    eigvalsh = np.linalg.eigvalsh
    good = {c: count_radial_nodes(solution(12), c) for c in "FG"}
    shapes = []

    def breaking_g(matrix):
        shapes.append(matrix.shape)
        x = eigvalsh(matrix)
        x[1, 0] = (x[1, 1] + x[1, 2]) / 2
        return x

    monkeypatch.setattr(np.linalg, "eigvalsh", breaking_g)
    sol = solution(12)
    assert np.array_equal(count_radial_nodes(sol, "F"), good["F"])
    with pytest.raises(PrecisionLoss, match="failed the Sturm count"):
        count_radial_nodes(sol, "G")
    assert np.array_equal(count_radial_nodes(sol, "F"), good["F"])
    assert shapes == [(2, 12, 12)]


@pytest.mark.parametrize("j, eps, zeta", CHANNEL_GRID)
def test_a_members_nodes_do_not_depend_on_the_member_beside_it(j, eps, zeta):
    # F and G share one layout of columns; each alone gives the same bits
    channel = make_channel(j, eps, zeta)
    for k in [*range(channel.k_min, 21), 60]:
        sol = build_solution(bound_energy(channel, k))
        for component, member in zip("FG", sol.components):
            assert np.array_equal(count_radial_nodes(sol, component),
                                  member.zeros(*sol.state.window))


def test_zeros_make_no_laguerre_pass(monkeypatch):
    # the count and the polish both run on pivots of the Jacobi matrix
    sol = solution(12)
    calls = []
    evaluate = ladder._evaluate_q
    monkeypatch.setattr(ladder, "_evaluate_q",
                        lambda *args: calls.append(args) or evaluate(*args))
    assert len(count_radial_nodes(sol, "F")) == len(count_radial_nodes(sol, "G")) == 12
    assert calls == []


def test_build_solution_takes_one_raising_step(monkeypatch):
    # raise_to_rank climbs on one coefficient; only the last rung is a full action
    calls = []
    raising = ladder.apply_raising

    def counted(f):
        calls.append(f.rank)
        return raising(f)

    for module in (ladder, radial):
        monkeypatch.setattr(module, "apply_raising", counted)
    for k in (1, 2, 12, 60):
        calls.clear()
        assert build_solution(bound_energy(make_channel(0.5, -1, 0.5), k)).psi_plus.rank == k
        assert calls == [k - 1], k


@pytest.mark.parametrize("k", [241, 300, 400])
def test_nodes_certified_high_in_the_tower(k):
    # the Sturm count needs no value of q, so no k overflows it
    for j in (0.5, 20.5):
        for eps in (-1, 1):
            for zeta in (0.1, 0.5, 0.9):
                sol = solution(k, eps, zeta, j)
                for component in "FG":
                    assert len(count_radial_nodes(sol, component)) == \
                        expected_nodes(eps, k, component), (j, eps, zeta, component)


def test_a_state_whose_lam_float64_rounds_to_half():
    # zeta = 1 - 1e-44 at 200 bits: lam - 1/2 = 1.4e-22.  Values and node
    # counts run at the state's precision; the residual and the quadrature,
    # evaluated in float64, refuse with PrecisionLoss instead of a bare math
    # domain error or a DomainError on the weight exponent 2*lam - 2 = -1
    with mpmath.workprec(200):
        zeta = 1 - mpmath.mpf("1e-44")
        sol = build_solution(bound_energy(make_channel(0.5, -1, zeta), 1))
        assert float(sol.state.channel.lam) == 0.5
        assert mpmath.isfinite(sol.F(mpmath.mpf(1)))
        assert len(count_radial_nodes(sol, "F")) == len(count_radial_nodes(sol, "G")) == 1
        for check in (ode_residual, physical_norm_integral,
                      lambda s: inner_product(s.psi_plus, s.psi_plus)):
            with pytest.raises(PrecisionLoss, match="above 1/2"):
                check(sol)
