"""Quadrature, residuals, shooting, and the divergence demonstration."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from diracladder import (
    DomainError,
    NoSignChange,
    PrecisionLoss,
    QuadratureFailure,
    StiffnessFailure,
    WrongBranch,
    bound_energy,
    build_solution,
    compare_spectrum,
    divergence_check,
    ground_ladder_function,
    inner_product,
    make_channel,
    matching_determinant,
    negative_branch_ground,
    ode_residual,
    physical_norm_integral,
    physical_normalize,
    raise_to_rank,
    shooting_solution,
    shooting_solve,
    state_from_nu,
    truncated_norms,
)
from diracladder import ladder, oracle
from diracladder.oracle import component_norm_integral, laguerre_weighted_integral
from diracladder.radial import RadialSolution, count_radial_nodes

LAM = 1.3660254037844386468
N5_REF = 33075.131063410606081     # integral_0^5 rho^(2lam-2) e^(2rho) drho
G25_REF = 0.23499640074665629710   # Gamma(2.5)/2^2.5


def ref_channel(eps=-1):
    return make_channel(0.5, eps, 0.5)


# ---------------------------------------------------------------------------
# quadrature

def test_weighted_integral_against_gamma_moments():
    # integral rho^2 e^(-2rho) drho = Gamma(3)/2^3 = 1/4, exactly
    assert laguerre_weighted_integral([1.0], 2.0) == pytest.approx(0.25, abs=1e-13)
    assert laguerre_weighted_integral([1.0], 1.5) == pytest.approx(G25_REF, abs=1e-13)
    # polynomial shifts the moment: integral rho^(1.5+2) e^(-2rho) drho
    shifted = laguerre_weighted_integral([0.0, 0.0, 1.0], 1.5)
    assert shifted == pytest.approx(
        laguerre_weighted_integral([1.0], 3.5), rel=1e-12)


RULE_ALPHAS = [-0.999, -0.5, 0.0, 0.2345, 0.73, 1.99, 6.3, 40.0]


@pytest.mark.parametrize("n", [16, 32, 64, 128, 256])
def test_gauss_laguerre_builder_against_scipy_and_exact_moments(n):
    # the numpy Golub-Welsch builder reproduces scipy's rule and integrates
    # t^m against t^alpha e^(-t) to Gamma(alpha + m + 1); the tail weights of
    # the 256-node rule underflow double precision (to 0, as scipy's do)
    from scipy.special import roots_genlaguerre

    tol = 1e-13 if n <= 32 else 1e-11
    moment_tol = 3e-13 if n <= 32 else 1e-11
    for alpha in RULE_ALPHAS:
        t, w = oracle.roots_genlaguerre(n, alpha)
        t_ref, w_ref = roots_genlaguerre(n, alpha)
        assert np.isfinite(t).all() and np.isfinite(w).all()
        assert (t > 0).all() and (w >= 0).all()
        assert np.max(np.abs(t - t_ref) / t_ref) <= tol
        big = w_ref > 1e-250
        assert np.max(np.abs(w[big] - w_ref[big]) / w_ref[big]) <= tol
        for m in range(min(2 * n, 64)):
            exact = math.exp(math.lgamma(alpha + m + 1.0))
            assert abs(np.dot(w, t ** m) - exact) <= moment_tol * exact, (alpha, m)


def test_weighted_integral_exponent_domain():
    with pytest.raises(DomainError):
        laguerre_weighted_integral([1.0], -1.0)


def test_quadrature_spec_validation():
    # the scheme is the only quadrature choice left; it is validated up front
    f = ground_ladder_function(LAM)
    with pytest.raises(DomainError):
        inner_product(f, f, scheme="simpson")
    with pytest.raises(DomainError):
        inner_product(f, raise_to_rank(f, 1), scheme="simpson")


def test_unreachable_tolerance_raises():
    # a rank-130 member overflows float64 at the outer nodes of the 256-node
    # rule, past what the fixed policy can settle: it fails loudly
    f = raise_to_rank(ground_ladder_function(LAM), 130)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(QuadratureFailure, match="256 nodes"):
            inner_product(f, f)


@pytest.mark.parametrize("rank", [0, 12, 40])
def test_inner_product_evaluates_members_once(monkeypatch, rank):
    # both Gauss rules' nodes go through one Laguerre pass
    passes = []
    evaluate = ladder._evaluate_q

    def counting(lam, rows, rho):
        passes.append(np.size(rho))
        return evaluate(lam, rows, rho)

    monkeypatch.setattr(ladder, "_evaluate_q", counting)
    f = raise_to_rank(ground_ladder_function(LAM), rank)
    assert inner_product(f, f) == pytest.approx(1.0, abs=1e-12)
    n = max(16, 1 << rank.bit_length())
    assert passes == [3 * n]


@pytest.mark.parametrize("n", [16, 32, 64, 128, 256])
def test_gauss_rule_reads_the_lower_triangle_only(monkeypatch, n):
    # the builder writes only the diagonal and subdiagonal of the Jacobi
    # matrix; the rule is the same, bit for bit, as from the full symmetric one
    eigvalsh = np.linalg.eigvalsh
    for alpha in RULE_ALPHAS:
        t, w = oracle.roots_genlaguerre(n, alpha)
        with monkeypatch.context() as patch:
            patch.setattr(np.linalg, "eigvalsh",
                          lambda m: eigvalsh(np.tril(m) + np.tril(m, -1).T))
            t_full, w_full = oracle.roots_genlaguerre(n, alpha)
        assert np.array_equal(t, t_full) and np.array_equal(w, w_full), alpha


@pytest.mark.parametrize("rank, sizes", [(3, {16, 32}), (20, {32, 64}), (128, {128, 256})])
def test_gauss_rule_size_follows_degree(monkeypatch, rank, sizes):
    # the first rule is the smallest 2^m >= 16 nodes exact at the degree
    # 2*rank (2n - 1 >= degree), capped at 128, and is compared with 2n
    built = []
    build = oracle.roots_genlaguerre

    def recording(n, alpha):
        built.append(n)
        return build(n, alpha)

    oracle._laguerre_rule.cache_clear()
    monkeypatch.setattr(oracle, "roots_genlaguerre", recording)
    f = raise_to_rank(ground_ladder_function(LAM), rank)
    with np.errstate(over="ignore", invalid="ignore"):
        if rank < 128:
            assert inner_product(f, f) == pytest.approx(1.0, abs=1e-12)
        else:
            # overflows at the 256-node rule's outer nodes, as rank 130 does
            with pytest.raises(QuadratureFailure):
                inner_product(f, f)
    assert set(built) == sizes


@pytest.mark.parametrize("k", [15, 16, 31, 32, 63, 64])
def test_gauss_rules_exact_at_size_boundaries(k):
    # degree 2k sits on either side of a rule size's exactness limit 2n - 1
    sol = build_solution(bound_energy(make_channel(1.5, -1, 0.3), k))
    f = sol.psi_plus
    gauss = inner_product(f, f)
    assert abs(gauss - 1.0) <= 1e-12
    exact = sum(c.rho_norm_squared() for c in sol.components)
    assert physical_norm_integral(sol) == pytest.approx(exact, rel=1e-12)
    if k == 16:
        trapezoid = inner_product(f, f, scheme="transformed-trapezoid-in-x")
        assert abs(trapezoid - gauss) <= 1e-9


def test_component_norm_matches_plain_integral():
    # sum of squares evaluated pointwise == convolved-coefficient integral
    poly = [0.3, -1.2, 0.7]
    square = list(np.convolve(poly, poly))
    direct = laguerre_weighted_integral(square, 1.732)
    assert component_norm_integral([poly], 1.732) == pytest.approx(
        direct, rel=1e-12)
    two = component_norm_integral([poly, [1.0]], 1.732)
    assert two == pytest.approx(
        direct + laguerre_weighted_integral([1.0], 1.732), rel=1e-12)


def test_inner_product_norms_and_orthogonality():
    f = ground_ladder_function(ref_channel().lam)
    members = [f]
    for _ in range(3):
        members.append(raise_to_rank(members[-1], members[-1].rank + 1))
    for m in members:
        assert inner_product(m, m) == pytest.approx(1.0, abs=1e-10)
    # different mu labels: exact zero by the phase average, no quadrature
    assert inner_product(members[0], members[2]) == 0.0


def test_inner_product_guards():
    f = ground_ladder_function(LAM)
    g = ground_ladder_function(make_channel(1.5, -1, 0.5).lam)
    with pytest.raises(DomainError):
        inner_product(f, g)
    with pytest.raises(WrongBranch):
        inner_product(f, negative_branch_ground(LAM))


def test_physical_norm_quadrature_matches_exact_sum():
    # the oracle's quadrature re-derives the exact basis sum of radial
    for j, eps, zeta, k in ((0.5, -1, 1e-4, 0), (1.5, 1, 0.5, 12),
                            (7.5, -1, 0.9, 40), (20.5, 1, 0.1, 60)):
        sol = build_solution(bound_energy(make_channel(j, eps, zeta), k))
        exact = sum(c.rho_norm_squared() for c in sol.components)
        assert physical_norm_integral(sol) == pytest.approx(exact, rel=1e-12)


def test_trapezoid_scheme_cross_checks_gauss():
    f = raise_to_rank(ground_ladder_function(LAM), 3)
    trapezoid = inner_product(f, f, scheme="transformed-trapezoid-in-x")
    assert trapezoid == pytest.approx(inner_product(f, f), abs=1e-9)


@pytest.mark.parametrize("scheme, j_ok, j_over, cause", [
    ("generalized-gauss-laguerre", 80.5, 85.5, "weights overflow float64"),
    ("transformed-trapezoid-in-x", 55.5, 60.5, r"rho\^\S+ overflows at rho="),
], ids=["gauss", "trapezoid"])
def test_quadrature_past_float64_raises_without_warning(scheme, j_ok, j_over, cause):
    # the Gauss weights scale with Gamma(2*lam - 1), the trapezoid's with
    # rho^(2*lam - 1): past float64 each raises, naming the cause, and numpy
    # warns of no overflow on the way
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        f = ground_ladder_function(make_channel(j_ok, -1, 0.5).lam)
        assert inner_product(f, f, scheme) == pytest.approx(1.0, abs=1e-12)
        f = ground_ladder_function(make_channel(j_over, -1, 0.5).lam)
        with pytest.raises(QuadratureFailure, match=cause):
            inner_product(f, f, scheme)


# ---------------------------------------------------------------------------
# residuals

def test_ode_residual_exact_solution():
    for k in (0, 1, 4):
        rep = ode_residual(build_solution(bound_energy(ref_channel(), k)))
        assert rep.all_passed
        worst = max(abs(c.measured) for c in rep.checks)
        assert worst < 1e-12


def test_ode_residual_finite_difference_path():
    sol = build_solution(bound_energy(ref_channel(), 2))
    rep = ode_residual(sol, method="fd", tolerance=1e-8)
    assert rep.all_passed


@pytest.mark.parametrize("zeta", [0.5, 1e-6])
def test_ode_residual_detects_detuning(zeta):
    # a 1e-3 detuning of nu gives a residual of 5.0e-4 at either coupling
    ch = make_channel(0.5, -1, zeta)
    st = bound_energy(ch, 2)
    wrong = state_from_nu(ch, 2, st.nu * (1 - 1e-3))
    sol = replace(build_solution(st), state=wrong)
    rep = ode_residual(sol)
    assert not rep.all_passed
    assert max(abs(c.measured) for c in rep.checks) > 1e-4


@pytest.mark.parametrize("k", [1, 2, 5])
def test_state_from_nu_passes_residual_at_tiny_coupling(k):
    # at zeta = 1e-6 the state rebuilt from its nu passes where one rebuilt
    # from its energy, through nu formed from 1 - E, fails at 2e-4 or more
    ch = make_channel(0.5, -1, 1e-6)
    st = bound_energy(ch, k)
    sol = build_solution(st)
    assert ode_residual(replace(sol, state=state_from_nu(ch, k, st.nu))).all_passed
    lossy = replace(sol, state=state_from_nu(
        ch, k, math.sqrt((1.0 - st.energy) / (1.0 + st.energy))))
    assert not ode_residual(lossy).all_passed


def test_ode_residual_method_validation():
    sol = build_solution(bound_energy(ref_channel(), 1))
    with pytest.raises(DomainError):
        ode_residual(sol, method="spectral")


@pytest.mark.parametrize("j, k", [(20.5, 10), (0.5, 20), (0.5, 60)])
def test_ode_residual_grid_reaches_past_every_node(monkeypatch, j, k):
    # the outermost nodes sit at rho = 45.2, 33.9 and 110.4: past a fixed
    # grid ending at 30, inside the state's window 4*mu + 20
    sol = build_solution(bound_energy(make_channel(j, -1, 0.5), k))
    seen = []
    evaluate = RadialSolution.evaluate_with_derivatives

    def spy(self, rho):
        seen.append(np.asarray(rho))
        return evaluate(self, rho)

    monkeypatch.setattr(RadialSolution, "evaluate_with_derivatives", spy)
    assert ode_residual(sol).all_passed
    (rho,) = seen
    assert rho.max() > max(count_radial_nodes(sol, c)[-1] for c in ("F", "G"))


# ---------------------------------------------------------------------------
# shooting

def test_matching_determinant_brackets_the_level():
    ch = ref_channel()
    nu0 = bound_energy(ch, 1).nu
    vals = [matching_determinant(ch, nu, k=1) for nu in (nu0 * 0.99, nu0 * 1.01)]
    assert vals[0] * vals[1] < 0
    assert abs(matching_determinant(ch, nu0, k=1)) < 1e-8


def test_shooting_matches_closed_form():
    ch = ref_channel()
    for k in (0, 2):
        e_alg = bound_energy(ch, k).energy
        e_shoot = shooting_solve(ch, k)
        assert e_shoot == pytest.approx(e_alg, rel=1e-10)


@pytest.mark.parametrize("j, zeta, k", [(0.5, 0.5, 20), (0.5, 0.5, 40), (20.5, 0.1, 20)])
def test_shooting_high_in_the_tower(j, zeta, k):
    # levels whose outermost node (~2*mu) lies at or past rho = 40: the
    # shooting domain has to grow with mu = lambda + k
    ch = make_channel(j, -1, zeta)
    assert abs(shooting_solve(ch, k) - bound_energy(ch, k).energy) <= 1e-9


@pytest.mark.parametrize("eps, k", [(-1, 2), (+1, 3)])
def test_shooting_node_count_at_tiny_coupling(eps, k):
    # at zeta=1e-6, m - E ~ 1e-13 m is below what a float64 E resolves,
    # while nu ~ 1e-7 is carried to full relative precision
    ch = make_channel(0.5, eps, 1e-6)
    res = shooting_solution(ch, k)
    assert res.node_count == 2
    exact = bound_energy(ch, k)
    assert res.state.nu == pytest.approx(exact.nu, rel=1e-9)
    assert res.state.mu == pytest.approx(ch.lam + k, abs=1e-11)
    assert ode_residual(replace(build_solution(exact), state=res.state)).all_passed


def test_shooting_rejects_bad_input():
    ch = ref_channel()
    with pytest.raises(DomainError):
        shooting_solve(ch, -1)
    for nu in (0.0, -0.1, 1.0):
        with pytest.raises(DomainError):
            matching_determinant(ch, nu, k=1)
    # one k check serves all three entry points; without it k=-20 overflows
    # into StiffnessFailure and k=-1, k=1.5 return values
    for k in (-1, 1.5, -20):
        with pytest.raises(DomainError):
            matching_determinant(ch, 0.2, k=k)
        with pytest.raises(DomainError):
            shooting_solve(ch, k)
        with pytest.raises(DomainError):
            shooting_solution(ch, k)


def test_shooting_finds_no_excluded_level():
    # eps=+1 has no k=0 state: the determinant keeps its sign there
    ch = ref_channel(eps=1)
    with pytest.raises(NoSignChange):
        shooting_solve(ch, 0)


def test_long_outward_leg_overflows_controlled():
    # far off any level, the outward leg grows like e^rho up to the
    # match point near mu - 1/2 ~ 1000 and overflows
    with pytest.raises(StiffnessFailure):
        matching_determinant(ref_channel(), 0.2, k=1000)


def test_shooting_solution_nodes_and_tables():
    ch = ref_channel()
    res = shooting_solution(ch, 2)
    assert res.node_count == 2
    assert res.rho[0] < 1e-3 and res.rho[-1] > 2.0 * (ch.lam + 2)
    assert np.all(np.isfinite(res.F)) and np.all(np.isfinite(res.G))
    # spliced solution is continuous: no wild jump at the match point
    jumps = np.abs(np.diff(res.F)) / np.max(np.abs(res.F))
    assert jumps.max() < 0.05


def test_shooting_node_count_matches_algebraic_for_aligned_channel():
    # eps=+1, k=2 has one interior F zero; both counters must agree
    ch = ref_channel(eps=1)
    res = shooting_solution(ch, 2)
    from diracladder import count_radial_nodes
    alg = len(count_radial_nodes(build_solution(bound_energy(ch, 2))))
    assert res.node_count == alg == 1


def test_compare_spectrum_rows():
    rows = compare_spectrum(0.5, 0.5, 1)
    assert len(rows) == 3
    assert {r["k"] for r in rows} == {0, 1}
    assert max(r["rel_delta"] for r in rows) < 1e-10
    # at zeta = 1e-6 both energies round to 1 - O(1e-13), so only nu shows
    # the shot's error
    rows = compare_spectrum(1e-6, 0.5, 1)
    assert 0.0 < max(r["rel_delta"] for r in rows) < 1e-10


# ---------------------------------------------------------------------------
# negative branch

def test_truncated_norms_frozen_value():
    f = negative_branch_ground(LAM)
    norms = truncated_norms(f, [5.0, 10.0])
    assert norms[0] == pytest.approx(N5_REF, rel=1e-8)
    assert norms[1] == pytest.approx(1260314345.4555258, rel=1e-8)


def test_truncated_norms_past_float64_raise():
    # at lam ~ 86.5 the integrand overflows by R = 40; the norm used to come
    # out inf, with numpy's overflow warning, and the growth checks passed
    f = negative_branch_ground(make_channel(85.5, -1, 0.5).lam)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(PrecisionLoss, match="R = 40.0"):
            truncated_norms(f, [5.0, 10.0, 20.0, 40.0])
        with pytest.raises(PrecisionLoss):
            divergence_check(f, [5.0, 10.0, 20.0, 40.0])


def test_truncated_norms_guards():
    f = negative_branch_ground(LAM)
    with pytest.raises(WrongBranch):
        truncated_norms(ground_ladder_function(LAM), [5.0, 10.0])
    with pytest.raises(DomainError):
        truncated_norms(f, [5.0])
    with pytest.raises(DomainError):
        truncated_norms(f, [10.0, 5.0])
    with pytest.raises(DomainError):
        truncated_norms(f, [5.0, 400.0])
    for cuts in ([5.0, np.nan], [np.nan, 5.0], [5.0, np.inf]):
        with pytest.raises(DomainError):
            truncated_norms(f, cuts)


def test_divergence_check_passes_and_beats_bound():
    f = negative_branch_ground(LAM)
    rep = divergence_check(f, [5.0, 10.0, 20.0, 40.0])
    assert rep.all_passed
    growth = next(c for c in rep.checks if "beats" in c.name)
    assert growth.measured > 1.0
