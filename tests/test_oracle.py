"""Quadrature, residuals, shooting, and the divergence demonstration."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from diracladder import (
    DomainError,
    LadderFunction,
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
from diracladder.verify import CHANNEL_GRID

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
    # a NaN or infinite exponent used to reach eigvalsh, numpy's LinAlgError
    for lam in (math.nan, math.inf):
        f = LadderFunction(lam=lam, mu=lam, coeffs=(1.0,))
        for scheme in ("generalized-gauss-laguerre", "transformed-trapezoid-in-x"):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(DomainError, match="finite"):
                    inner_product(f, f, scheme=scheme)


def test_quadrature_spec_validation():
    # the scheme is the only quadrature choice left; it is validated up front
    f = ground_ladder_function(LAM)
    with pytest.raises(DomainError):
        inner_product(f, f, scheme="simpson")
    with pytest.raises(DomainError):
        inner_product(f, raise_to_rank(f, 1), scheme="simpson")


def test_unreachable_tolerance_raises():
    # a rank-130 member has degree 260, past the 255 that the capped 128-node
    # rule integrates exactly, so the fixed policy cannot settle it: it fails
    # loudly, with no float warning first, and names the cap
    f = raise_to_rank(ground_ladder_function(LAM), 130)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(QuadratureFailure, match="256 nodes.*255"):
            inner_product(f, f)


@pytest.mark.parametrize("j", [0.5, 20.5])
@pytest.mark.parametrize("rank", [123, 125, 127])
def test_gauss_norm_stays_finite_below_the_cap(j, rank):
    # q^2 alone overflows float64 at the 256-node rule's far nodes from rank
    # 123; the integrand is formed as (sqrt(w) q)^2, so every rank the capped
    # rule integrates exactly certifies, without a float warning
    channel = make_channel(j, -1, 0.5)
    f = raise_to_rank(ground_ladder_function(channel.lam), rank)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert abs(inner_product(f, f) - 1.0) <= 1e-11
        if j == 0.5:
            sol = physical_normalize(build_solution(bound_energy(channel, rank)))
            exact = sum(c.rho_norm_squared() for c in sol.components)
            assert physical_norm_integral(sol) == pytest.approx(exact, rel=1e-12)


@pytest.mark.parametrize("scheme", ["generalized-gauss-laguerre",
                                    "transformed-trapezoid-in-x"])
def test_inner_product_returns_a_float(scheme):
    g = build_solution(bound_energy(make_channel(55.5, -1, 0.5), 3)).psi_plus
    value = inner_product(g, g, scheme=scheme)
    assert type(value) is float
    assert value == pytest.approx(1.0, abs=1e-10)


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
    # the builder writes only the diagonal and subdiagonal of each Jacobi
    # matrix in its stack, the n-node rule's alone or the pair of n and 2n
    # nodes; the rules are the same, bit for bit, as from the full symmetric ones
    eigvalsh = np.linalg.eigvalsh
    for alpha in RULE_ALPHAS:
        for pair in (False, True) if n < 256 else (False,):
            t, w = oracle.roots_genlaguerre(n, alpha, pair)
            with monkeypatch.context() as patch:
                patch.setattr(np.linalg, "eigvalsh",
                              lambda m: eigvalsh(np.tril(m) + np.swapaxes(np.tril(m, -1), -1, -2)))
                t_full, w_full = oracle.roots_genlaguerre(n, alpha, pair)
            assert np.array_equal(t, t_full) and np.array_equal(w, w_full), (alpha, pair)


@pytest.mark.parametrize("n", [16, 32, 64, 128])
def test_gauss_rule_pair_is_its_rules_built_alone(monkeypatch, n):
    # the n-node rule, padded into the 2n-node stack, comes out bit for bit as
    # from its own n x n matrix, in one eigvalsh call for both rules
    for alpha in RULE_ALPHAS + [-1.0 + 2.3e-16, 170.0]:
        alone = [oracle.roots_genlaguerre(m, alpha) for m in (n, 2 * n)]
        calls = []
        eigvalsh = np.linalg.eigvalsh
        with monkeypatch.context() as patch:
            patch.setattr(np.linalg, "eigvalsh", lambda m: calls.append(m.shape) or eigvalsh(m))
            t, w = oracle.roots_genlaguerre(n, alpha, pair=True)
        assert calls == [(2, 2 * n, 2 * n)]
        assert np.array_equal(t, np.concatenate([t for t, _ in alone])), alpha
        assert np.array_equal(w, np.concatenate([w for _, w in alone])), alpha


def test_cached_gauss_rule_pair_is_read_only():
    # a rule pair's half-nodes and root weights are formed once per (n, alpha) and
    # shared: a write through either would change every later integral, so it raises
    f = raise_to_rank(ground_ladder_function(LAM), 2)
    assert inner_product(f, f) == pytest.approx(1.0, abs=1e-12)
    pair = oracle._PAIRS[16, 2.0 * LAM - 2.0]       # rank 2's pair, as kept
    assert oracle._laguerre_rule(16, 2.0 * LAM - 2.0) is pair
    for array in pair:
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            array *= 2.0


@pytest.mark.parametrize("rank, sizes", [(3, {16, 32}), (20, {32, 64}), (128, {128, 256})])
def test_gauss_rule_size_follows_degree(monkeypatch, rank, sizes):
    # the first rule is the smallest 2^m >= 16 nodes exact at the degree
    # 2*rank (2n - 1 >= degree), capped at 128, and is compared with 2n
    built, calls = [], []
    build = oracle.roots_genlaguerre

    def recording(n, alpha, pair=False):
        built.extend((n, 2 * n) if pair else (n,))
        calls.append(n)
        return build(n, alpha, pair)

    monkeypatch.setattr(oracle, "_PAIRS", {})
    monkeypatch.setattr(oracle, "roots_genlaguerre", recording)
    f = raise_to_rank(ground_ladder_function(LAM), rank)
    if rank < 128:
        assert inner_product(f, f) == pytest.approx(1.0, abs=1e-12)
    else:
        # degree 256 is past the capped rule's exactness, as rank 130's is
        with pytest.raises(QuadratureFailure, match="255"):
            inner_product(f, f)
    assert set(built) == sizes and len(built) == len(sizes)
    assert len(calls) == 1      # both rules from one build


def test_a_tower_builds_each_rule_size_once_per_exponent(monkeypatch):
    # k = 0..69 crosses the rule sizes 16 -> 32 -> 64 -> 128; each pair after the
    # first takes its first rule from the pair below and builds only its second,
    # so inner_product (alpha = 2 lam - 2) and physical_norm_integral (2 lam - 1)
    # build the rules of 16, 32, 64, 128 and 256 nodes once each: 10 rules
    built = []
    build = oracle.roots_genlaguerre

    def recording(n, alpha, pair=False):
        built.extend((m, alpha) for m in ((n, 2 * n) if pair else (n,)))
        return build(n, alpha, pair)

    monkeypatch.setattr(oracle, "_PAIRS", {})
    monkeypatch.setattr(oracle, "roots_genlaguerre", recording)
    channel = make_channel(1.5, -1, 0.3)
    for k in range(70):
        sol = build_solution(bound_energy(channel, k))
        assert inner_product(sol.psi_plus, sol.psi_plus) == pytest.approx(1.0, abs=1e-12)
        exact = sum(c.rho_norm_squared() for c in sol.components)
        assert physical_norm_integral(sol) == pytest.approx(exact, rel=1e-12)
    assert len(built) == len(set(built)) == 10
    # a pair assembled from the one below is the pair built whole, bit for bit
    assert len(oracle._PAIRS) == 8
    for (n, alpha), pair in oracle._PAIRS.items():
        t, w = build(n, alpha, pair=True)
        assert np.array_equal(pair[0], t / 2.0) and np.array_equal(pair[1], np.sqrt(w))


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
    # one tower shares its lam exactly: a lam 5e-13 away is another tower
    with pytest.raises(DomainError, match="different towers"):
        inner_product(f, ground_ladder_function(LAM + 5e-13))
    assert inner_product(f, ground_ladder_function(LAM)) == inner_product(f, f)
    with pytest.raises(WrongBranch):
        inner_product(f, negative_branch_ground(LAM))
    # a NaN coefficient makes every estimate NaN, which no doubling settles
    bad = replace(f, coeffs=(math.nan,))
    with pytest.raises(QuadratureFailure, match="went non-finite"):
        inner_product(bad, bad)


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


def _residual_terms(sol, rho, fgd):
    # the terms of each equation, (G', F'), (-tau/rho G, tau/rho F), (-nu F, G/-nu),
    # (zeta/rho F, -zeta/rho G), summed in that order: np.add.reduce over their stack
    tau, zeta, nu = sol.state.channel.tau, sol.state.channel.zeta, sol.state.nu
    f, g, fp, gp = fgd
    terms = np.array([(gp, fp), (-tau / rho * g, tau / rho * f), (-nu * f, g / -nu),
                      (zeta / rho * f, -zeta / rho * g)])
    return np.abs(np.add.reduce(terms)) / (np.add.reduce(np.abs(terms)) + 1e-290)


def _lobatto_log_points(window, n):
    # n Chebyshev-Lobatto points in log rho over the window, ascending, ends exact
    start, stop = np.log(window[0]), np.log(window[1])
    x = 0.5 * (start + stop) + 0.5 * (start - stop) * np.cos(np.arange(float(n)) * (math.pi / (n - 1)))
    x[0], x[-1] = start, stop
    return x


@pytest.mark.parametrize("method", ["exact", "fd"])
@pytest.mark.parametrize("j, eps, zeta", CHANNEL_GRID)
def test_ode_residual_sums_its_terms_in_one_fixed_order(method, j, eps, zeta):
    # 'exact' reads max(32, 4(k + 2)) Chebyshev-Lobatto points in log rho,
    # 'fd' a uniform log grid of 8000 points
    channel = make_channel(j, eps, zeta)
    for k in range(channel.k_min, 11):
        sol = physical_normalize(build_solution(bound_energy(channel, k)))
        lo, hi = sol.state.window
        if method == "fd":
            x = np.linspace(np.log(lo), np.log(hi), 8000)
        else:
            x = _lobatto_log_points((lo, hi), max(32, 4 * (k + 2)))
        rho = np.exp(x)
        f, g, fp, gp = sol.evaluate_with_derivatives(rho)
        if method == "fd":
            rho = rho[4:-4]
            fp, gp = (oracle._fd_first_derivative(v, x[1] - x[0]) / rho for v in (f, g))
            f, g = f[4:-4], g[4:-4]
        rel = _residual_terms(sol, rho, (f, g, fp, gp))
        rms = np.sqrt(np.add.reduce(rel ** 2, axis=1) / rho.size)
        report = ode_residual(sol, method=method)
        assert [c.measured for c in report.checks] == np.maximum.reduce(rel, axis=1).tolist()
        assert [c.detail for c in report.checks] == [
            f"rms={spread:.2e}, n={rho.size}" for spread in rms.tolist()]


@pytest.mark.parametrize("j, eps, zeta", CHANNEL_GRID)
def test_a_detuning_reads_as_on_2000_log_points(j, eps, zeta):
    # rho*residual/w is a polynomial of degree <= k + 1 (ode_residual), so the
    # sized Chebyshev-Lobatto points see a detuned nu as a dense grid does
    channel = make_channel(j, eps, zeta)
    for k in (1, 5, 12, 30):
        st = bound_energy(channel, k)
        sol = physical_normalize(build_solution(st))
        lo, hi = st.window
        rho = np.exp(np.linspace(np.log(lo), np.log(hi), 2000))
        for delta in (1e-3, 1e-6, 1e-9):
            detuned = replace(sol, state=state_from_nu(channel, k, st.nu * (1 - delta)))
            reference = _residual_terms(detuned, rho, detuned.evaluate_with_derivatives(rho)).max()
            reading = max(c.measured for c in ode_residual(detuned).checks)
            assert reference / 2 <= reading <= 2 * reference, (k, delta, reading, reference)


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


@pytest.mark.parametrize("j, k", [(0.5, 0), (0.5, 5), (1.5, 6), (0.5, 7), (20.5, 30), (0.5, 120)])
def test_ode_residual_reads_points_sized_to_the_level(monkeypatch, j, k):
    # max(32, 4(k + 2)) points: 32 up to k = 6, then 36, 128 and 488; ascending,
    # clustered toward both window ends, which are among them
    sol = build_solution(bound_energy(make_channel(j, -1, 0.5), k))
    seen = []
    evaluate = RadialSolution.evaluate_with_derivatives

    def spy(self, rho):
        seen.append(np.asarray(rho))
        return evaluate(self, rho)

    monkeypatch.setattr(RadialSolution, "evaluate_with_derivatives", spy)
    report = ode_residual(sol)
    assert report.all_passed
    (rho,) = seen
    n = max(32, 4 * (k + 2))
    assert rho.size == n and all(f"n={n}" in c.detail for c in report.checks)
    assert (np.diff(rho) > 0).all()
    lo, hi = sol.state.window
    assert rho[0] == pytest.approx(lo, rel=1e-15) and rho[-1] == pytest.approx(hi, rel=1e-15)
    assert np.array_equal(rho, np.exp(_lobatto_log_points((lo, hi), n)))


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


@pytest.mark.parametrize("k, most", [(0, 8), (1, 9), (2, 9), (5, 9)])
def test_shooting_evaluates_no_trial_nu_twice(monkeypatch, k, most):
    # Brent's own bracket test reads both walls; _shoot used to shoot them
    # first as well, 10, 11, 11 and 11 determinants at these levels
    trials = []
    determinant = oracle.matching_determinant

    def spy(channel, nu, k=0):
        trials.append(nu)
        return determinant(channel, nu, k=k)

    monkeypatch.setattr(oracle, "matching_determinant", spy)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        shooting_solve(ref_channel(), k)
    assert len(trials) == len(set(trials)) <= most


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
    # a series start past float64 (terms in 1/nu) is refused before the integrator
    with pytest.raises(StiffnessFailure):
        matching_determinant(make_channel(0.5, -1, 0.5), 1e-300)


@pytest.mark.parametrize("j, eps, zeta, k", [
    (0.5, -1, 0.999, 1), (0.5, -1, 0.999, 2), (0.5, 1, 0.999, 1), (1.5, 1, 1.99, 1)])
def test_shooting_near_critical_coupling(j, eps, zeta, k):
    # s is small here, so the start's truncation shows in nu: a series cut
    # after order 1 leaves 6.8e-9, 1.8e-8, 6.8e-9 and 3.2e-10
    ch = make_channel(j, eps, zeta)
    assert oracle._shoot(ch, k).nu == pytest.approx(float(bound_energy(ch, k).nu), rel=1e-11)


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
