"""Independent numerical checks for every algebraic claim in the package.

Nothing here reuses the ladder recurrences' internals: integrals go through
generalized Gauss-Laguerre quadrature (with a log-grid trapezoid cross-check)
of pointwise polynomial values, which re-checks the exact norms of the
algebraic side (member norms, and the physical norm that
radial.physical_normalize sums exactly); the differential equations are
checked pointwise over BoundState.window, from exact derivatives or finite
differences, and energies are re-derived by two-sided shooting on the raw
first-order system

    F' = -(tau/rho) F + (1/nu + zeta/rho) G
    G' = +(tau/rho) G + (nu  - zeta/rho) F

with nu = sqrt((1 - E)/(1 + E)) and rho = kappa*r, E and kappa in units of
the mass.  The shot unknown is nu, not E: channels.state_from_nu packages the
converged nu (E, kappa and mu without the cancellation in 1 - E) and gives
each trial nu its range check and tail exponent mu - 1/2.  The domain scales
with mu = lambda + k (match point max(1, mu - 1/2), outer radius 2*mu + 25),
and one helper integrates both legs for the determinant and the solution
tables alike.  The closed form only seeds nu brackets, never the answer, and
compare_spectrum measures agreement in nu.

Quadrature follows one fixed policy per scheme, with no settable knobs:
Gauss-Laguerre compares the smallest rule of 2^m >= 16 nodes that is exact at
the integrand's degree (2n - 1 >= degree; capped at 128) against twice as
many, from one evaluation of the integrand over the nodes of both rules.  The
rules come from the module's own Golub-Welsch builder in numpy
(roots_genlaguerre); at the largest, 256 nodes, its nodes and weights agree
with scipy's to 4e-12 and its moments with Gamma(alpha + m + 1) to 3e-12
relative, so the cap keeps every rule well inside the 1e-10 agreement.  The
log-grid trapezoid starts at 512 nodes and doubles at most 5 times.  Two
successive estimates must agree to 1e-10 (Gauss) or 1e-12 (trapezoid)
relative to max(1, |estimate|).  The integrands are polynomials against fixed
weights, and both rules are exact up to roundoff below degree 256.  An
integral that has not settled within its policy raises QuadratureFailure, as
does a weight past float64, found by a scalar test before numpy could warn:
the Gauss weights just past alpha = 170.6, where their sum Gamma(alpha + 1)
overflows, and the trapezoid's rho^(alpha + 1) at the top of its window.
"""

from __future__ import annotations

import functools
import importlib
import math
import sys
from dataclasses import dataclass

import numpy as np

from .channels import BoundState, Channel, spectrum_table, state_from_nu
from .errors import (
    DomainError,
    NoSignChange,
    PrecisionLoss,
    QuadratureFailure,
    StiffnessFailure,
    WrongBranch,
)
from .ladder import LadderFunction
from .radial import RadialSolution
from .report import VerificationReport

__all__ = [
    "ShootingResult", "inner_product", "physical_norm_integral", "ode_residual",
    "matching_determinant", "shooting_solve", "shooting_solution",
    "compare_spectrum", "truncated_norms", "divergence_check",
]

# quadrature policy per scheme: (starting nodes, doublings, tolerance); see above
_GAUSS = "generalized-gauss-laguerre"
_TRAPEZOID = "transformed-trapezoid-in-x"
_POLICY = {_GAUSS: (128, 1, 1e-10), _TRAPEZOID: (512, 5, 1e-12)}
_LOG_FLOAT_MAX = math.log(sys.float_info.max)   # e^x overflows float64 above it

# log-grid points of the residual check; the 8th-order fd stencil takes 4x
_RESIDUAL_POINTS = 2000

# only shooting needs scipy: its integrator and root finder become module
# globals on first use (PEP 562), so quadrature and residuals run without it;
# a binding already in place (a patched one, say) is kept
_SHOOTING_TOOLS = {"solve_ivp": "scipy.integrate", "brentq": "scipy.optimize"}


def __getattr__(name):
    if name not in _SHOOTING_TOOLS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    for tool, home in _SHOOTING_TOOLS.items():
        globals().setdefault(tool, getattr(importlib.import_module(home), tool))
    return globals()[name]


@dataclass(frozen=True)
class ShootingResult:
    state: BoundState          # the level at the shot nu
    rho: np.ndarray
    F: np.ndarray
    G: np.ndarray
    node_count: int

    @property
    def energy(self) -> float:
        return self.state.energy


# ---------------------------------------------------------------------------
# quadrature

def roots_genlaguerre(n: int, alpha: float):
    """Nodes and weights of the n-point rule for the weight t^alpha e^(-t).

    Golub-Welsch: the nodes are the eigenvalues of the Jacobi matrix of
    L_n^(alpha) (diagonal 2i + alpha + 1, off-diagonal sqrt(i(i + alpha))),
    whose characteristic polynomial is the monic L_n^(alpha).  So L_n'(t_i)
    is proportional to prod_(j != i) (t_i - t_j), and w_i to
    1/(t_i L_n'(t_i)^2); the weights are summed in logs and scaled to add up
    to Gamma(alpha + 1).
    """
    i = np.arange(1.0, n)
    # diagonal and subdiagonal only: eigvalsh reads the lower triangle
    jacobi = np.zeros((n, n))
    jacobi.flat[::n + 1] = 2.0 * np.arange(n) + alpha + 1.0
    jacobi.flat[n::n + 1] = np.sqrt(i * (i + alpha))
    t = np.linalg.eigvalsh(jacobi)
    gaps = np.abs(t[:, None] - t)
    gaps.flat[::n + 1] = 1.0
    log_w = -np.log(t) - 2.0 * np.log(gaps).sum(axis=1)
    log_w -= log_w.max()
    top = math.lgamma(alpha + 1.0) - np.log(np.exp(log_w).sum())   # log of the largest w_i
    if top > _LOG_FLOAT_MAX:
        raise QuadratureFailure(f"Gauss-Laguerre weights overflow float64 at alpha={alpha:g}")
    return t, np.exp(log_w + top)


@functools.lru_cache(maxsize=64)
def _laguerre_rule(n: int, alpha: float):
    t, w = roots_genlaguerre(n, alpha)
    if not (np.isfinite(t).all() and np.isfinite(w).all()):
        raise QuadratureFailure(
            f"Gauss-Laguerre rule broke down at {n} nodes, alpha={alpha:g}")
    return t, w


def _first_settled(estimates, n: int, tolerance: float) -> float:
    # estimates at n, 2n, 4n, ... nodes: the first that agrees with the one before
    prev = next(estimates)
    for cur in estimates:
        n *= 2
        if not np.isfinite(cur):
            raise QuadratureFailure(f"integral estimate went non-finite at {n} nodes")
        if abs(cur - prev) <= tolerance * max(1.0, abs(cur)):
            return cur
        prev = cur
    raise QuadratureFailure(
        f"integral did not settle after doubling to {n} nodes "
        f"(tol {tolerance:.1e})")


def _weighted_integral(values_fn, alpha: float, degree: int,
                       scheme: str = _GAUSS) -> float:
    # integral rho^alpha e^(-2rho) values_fn(rho) drho; values_fn takes arrays
    if alpha <= -1:
        raise DomainError(f"weight exponent must exceed -1, got {alpha}")
    n, doublings, tolerance = _POLICY[scheme]
    if scheme == _GAUSS:
        # 2^m >= 16 nodes with 2n - 1 >= degree, capped, then its doublings;
        # one values_fn pass over the nodes of all rules, one sum per rule;
        # the rule of m = n << i nodes sits at offset n + 2n + ... = m - n
        n = min(n, max(16, 1 << (degree // 2).bit_length()))
        sizes = [n << i for i in range(doublings + 1)]
        rules = [_laguerre_rule(m, float(alpha)) for m in sizes]
        values = values_fn(np.concatenate([t for t, _ in rules]) / 2.0)
        factor = 2.0 ** (-(alpha + 1.0))
        estimates = [factor * float(np.dot(w, values[m - n:2 * m - n]))
                     for (_, w), m in zip(rules, sizes)]
        return _first_settled(iter(estimates), n, tolerance)

    # Same integral under rho = e^x: the x-integrand decays like e^((alpha+1)x)
    # to the left and e^(-2 e^x) to the right, so plain trapezoid on a wide
    # enough window superconverges.  Diagnostic cross-check for the Gauss rule.
    a = alpha + 1.0
    x_lo = -48.0 / a - 2.0
    x_hi = np.log(30.0 + 3.0 * (degree + a))
    if a * x_hi > _LOG_FLOAT_MAX:
        raise QuadratureFailure(f"trapezoid weight rho^{a:g} overflows at rho={np.exp(x_hi):g}")

    def trapezoid(n):
        x = np.linspace(x_lo, x_hi, n)
        rho = np.exp(x)
        vals = rho ** a * np.exp(-2.0 * rho) * values_fn(rho)
        h = x[1] - x[0]
        return h * (np.sum(vals) - 0.5 * (vals[0] + vals[-1]))

    return _first_settled((trapezoid(n << i) for i in range(doublings + 1)), n, tolerance)


# this and component_norm_integral stay outside __all__: nothing here calls them
def laguerre_weighted_integral(coeffs, alpha: float):
    """integral rho^alpha * exp(-2*rho) * p(rho) drho over (0, inf).

    Substituting t = 2*rho maps this onto the generalized Gauss-Laguerre rule
    with weight t^alpha * exp(-t), under the module's fixed node-doubling
    policy.
    """
    coeffs = [float(c) for c in coeffs]
    polyval = np.polynomial.polynomial.polyval
    return _weighted_integral(lambda rho: polyval(rho, coeffs), alpha, len(coeffs) - 1)


def component_norm_integral(polys, alpha: float) -> float:
    """integral rho^alpha * exp(-2*rho) * sum_j p_j(rho)^2 drho.

    Squares are formed pointwise after Horner evaluation (polyval), never by
    convolving coefficients: the summed integrand is nonnegative, so the
    quadrature sum has no catastrophic cancellation even at high rank.
    """
    polys = [[float(c) for c in p] for p in polys]
    degree = 2 * max(len(p) - 1 for p in polys)
    polyval = np.polynomial.polynomial.polyval

    def values(rho):
        return sum(polyval(rho, p) ** 2 for p in polys)

    return _weighted_integral(values, alpha, degree)


def inner_product(f: LadderFunction, g: LadderFunction,
                  scheme: str = _GAUSS) -> float:
    """Inner product of two ladder members under the x-measure drho/rho.

    The phase average makes members with different mu labels orthogonal
    identically (returned as exact 0); equal labels reduce to the radial
    integral of rho^(2*lam-2) e^(-2*rho) q_f q_g, evaluated pointwise as a
    product of the members' polynomial values (a square when f is g).
    scheme is 'generalized-gauss-laguerre' or, as a cross-check,
    'transformed-trapezoid-in-x'.
    """
    if scheme not in _POLICY:
        raise DomainError(f"scheme must be one of {tuple(_POLICY)}, got {scheme!r}")
    if f.branch != "positive" or g.branch != "positive":
        raise WrongBranch("inner products are defined on the positive branch")
    lam = float(f.lam)
    if abs(lam - float(g.lam)) > 1e-12:
        raise DomainError("members from different towers")
    if abs(float(f.mu) - float(g.mu)) > 1e-9:
        return 0.0

    def values(rho):
        left = f.polynomial(rho)
        return left * left if g == f else left * g.polynomial(rho)

    return _weighted_integral(values, 2.0 * lam - 2.0, f.degree + g.degree, scheme)


def physical_norm_integral(solution: RadialSolution) -> float:
    """integral (F^2 + G^2) drho at the solution's amplitude, by quadrature.

    Like inner_product, it reads only the pointwise values of the two
    components' polynomial parts, squared and summed against the weight
    rho^(2*lam-1)*exp(-2*rho); radial.physical_normalize gets the same
    integral as an exact sum, which this re-checks.
    """
    f, g = solution.components

    def values(rho):
        return f.polynomial(rho) ** 2 + g.polynomial(rho) ** 2

    return _weighted_integral(values, 2.0 * float(f.lam) - 1.0, 2 * f.degree)


# ---------------------------------------------------------------------------
# differential-equation residual

def _fd_first_derivative(values: np.ndarray, h: float) -> np.ndarray:
    # 8th-order central stencil; returns interior values (4 trimmed per side)
    c = np.array([3.0, -32.0, 168.0, -672.0, 0.0, 672.0, -168.0, 32.0, -3.0]) / 840.0
    return np.convolve(values, c[::-1], mode="valid") / h


def ode_residual(solution: RadialSolution, method: str = "exact",
                 tolerance: float = 1e-8) -> VerificationReport:
    """Pointwise residuals of both first-order equations, sup and RMS.

    The grid, uniform in log rho, spans the state's window
    (BoundState.window, past the outermost node).  method 'exact'
    differentiates the polynomial form analytically; 'fd' uses 8th-order
    finite differences on 4x the points and so also cross-checks the
    evaluation code.  Residuals are normalized
    by the local sum of term magnitudes (plus a machine floor); NaN fails.
    """
    if method not in ("exact", "fd"):
        raise DomainError(f"method must be 'exact' or 'fd', got {method!r}")
    st = solution.state
    tau = float(st.channel.tau)
    zeta = float(st.channel.zeta)
    nu = float(st.nu)
    lo, hi = st.window

    x = np.linspace(np.log(lo), np.log(hi), (4 if method == "fd" else 1) * _RESIDUAL_POINTS)
    rho = np.exp(x)
    f, g, fp, gp = solution.evaluate_with_derivatives(rho)
    if method == "fd":
        # d/drho = (1/rho) d/dx on the uniform log grid
        h = x[1] - x[0]
        rho = rho[4:-4]
        fp = _fd_first_derivative(f, h) / rho
        gp = _fd_first_derivative(g, h) / rho
        f, g = f[4:-4], g[4:-4]

    floor = 1e-290
    tau_rho, zeta_rho = tau / rho, zeta / rho
    tau_f, tau_g = tau_rho * f, tau_rho * g
    zeta_f, zeta_g = zeta_rho * f, zeta_rho * g
    nu_f, g_nu = nu * f, g / nu
    r1 = gp - tau_g - nu_f + zeta_f
    s1 = np.abs(gp) + np.abs(tau_g) + np.abs(nu_f) + np.abs(zeta_f) + floor
    r2 = fp + tau_f - g_nu - zeta_g
    s2 = np.abs(fp) + np.abs(tau_f) + np.abs(g_nu) + np.abs(zeta_g) + floor

    rel1, rel2 = np.abs(r1) / s1, np.abs(r2) / s2
    report = VerificationReport(
        f"radial system residual ({method}) for k={st.k}, "
        f"j={float(st.channel.j)}, eps={st.channel.epsilon:+d}")
    for name, rel in (("small", rel1), ("large", rel2)):
        rms = np.sqrt(np.add.reduce(rel ** 2) / rel.size)     # np.mean's bits, no wrapper
        report.add(f"{name}-component equation sup-residual", float(rel.max()), tolerance,
                   detail=f"rms={float(rms):.2e}, n={rho.size}")
    return report


# ---------------------------------------------------------------------------
# two-sided shooting
#
# nu, not E, is the unknown: forming nu from a trial E would go through
# 1 - E, which cancels at small zeta.

_RHO_MIN = 1e-4            # outward start
_RTOL, _ATOL = 1e-11, 1e-14
_TABLE_STEPS = 600         # per-leg samples in shooting_solution tables
_NU_RTOL = 1e-12           # Brent tolerance on nu, relative


def _rhs(tau, zeta, nu):
    inv_nu = 1.0 / nu

    def fun(rho, y):
        f, g = y
        return ((-tau * f + zeta * g) / rho + inv_nu * g,
                (tau * g - zeta * f) / rho + nu * f)

    return fun


def _outward_ic(tau, zeta, s, nu):
    # two-term series F, G ~ rho^s (y0 + y1 rho) from the indicial system; the
    # system is linear, so rho_min^s is dropped and the start is O(1), which
    # keeps atol from swamping the solution at large s
    f0 = 1.0
    # (s + tau)/zeta cancels at small zeta if tau < 0; s^2 - tau^2 = -zeta^2
    g0 = (s + tau) / zeta if tau > 0 else -zeta / (s - tau)
    # [[s+1+tau, -zeta], [zeta, s+1-tau]] @ [f1, g1] = [g0/nu, nu*f0]
    det = 2.0 * s + 1.0
    f1 = ((s + 1.0 - tau) * (g0 / nu) + zeta * (nu * f0)) / det
    g1 = ((s + 1.0 + tau) * (nu * f0) - zeta * (g0 / nu)) / det
    return (f0 + f1 * _RHO_MIN, g0 + g1 * _RHO_MIN)


def _legs(channel: Channel, nu: float, k: int, table: bool = False):
    """Outward and inward solutions at nu, each ending at the match point.

    The domain follows mu = lambda + k: the legs meet at max(1, mu - 1/2) and
    the inward one starts at 2*mu + 25, past the outermost node (~2*mu).  With
    table set, each leg is sampled at _TABLE_STEPS points, else at the match.
    Every shooting entry point reaches state_from_nu's check on k and nu.
    """
    # decaying tail F ~ e^(-rho) rho^q with q = mu(nu) - 1/2 = zeta*E/kappa;
    # the 1/rho correction enters only through the component ratio G/F
    q = float(state_from_nu(channel, k, nu).mu) - 0.5
    tau = float(channel.tau)
    zeta = float(channel.zeta)
    s = float(channel.s)
    mu = float(channel.lam) + k
    rho_match, rho_max = max(1.0, mu - 0.5), 2.0 * mu + 25.0
    inward = (1.0, -nu * (1.0 - (tau + zeta * nu + q) / rho_max))
    fun = _rhs(tau, zeta, nu)
    if "solve_ivp" not in globals():    # the first shot binds brentq too
        __getattr__("solve_ivp")
    legs = []
    for start, y0, grid in ((_RHO_MIN, _outward_ic(tau, zeta, s, nu), np.geomspace),
                            (rho_max, inward, np.linspace)):
        span = (start, rho_match)
        t_eval = grid(start, rho_match, _TABLE_STEPS) if table else [rho_match]
        with np.errstate(over="raise", invalid="raise"):
            try:
                sol = solve_ivp(fun, span, y0, method="DOP853", rtol=_RTOL,
                                atol=_ATOL, t_eval=t_eval)
            except FloatingPointError as exc:
                raise StiffnessFailure(
                    f"integration overflowed on span {span} ({exc})") from exc
        if not sol.success or not np.all(np.isfinite(sol.y)):
            raise StiffnessFailure(f"integrator rejected span {span}: {sol.message}")
        legs.append(sol)
    return legs


def matching_determinant(channel: Channel, nu: float, k: int = 0) -> float:
    """Normalized Wronskian of outward and inward solutions at the match point.

    Vanishing is equivalent to the log-derivative match; the normalization
    keeps the value O(1) so sign changes are bracketable.  k sets only the
    domain (match point and outer radius), not the equation.
    """
    out, inw = _legs(channel, nu, k)
    f_o, g_o = out.y[:, -1]
    f_i, g_i = inw.y[:, -1]
    w = f_o * g_i - f_i * g_o
    return float(w / ((abs(f_o) + abs(g_o)) * (abs(f_i) + abs(g_i))))


def _shoot(channel: Channel, k: int) -> BoundState:
    # the level k at its shot nu.  The closed form is a hint only: with r_n =
    # zeta/(s + n) (= kappa/E of level n) the walls sit 45% of the way to the
    # neighbouring levels, and nu = r/(1 + sqrt(1 + r^2)) maps them into (0, 1)
    s = float(channel.s)
    zeta = float(channel.zeta)
    r_k, r_next = zeta / (s + k), zeta / (s + k + 1)
    r_prev = zeta / (s + k - 1) if k >= 1 else 2.0 * r_k - r_next
    lo, hi = (r / (1.0 + np.sqrt(1.0 + r * r))
              for r in (r_k - 0.45 * (r_k - r_next), r_k + 0.45 * (r_prev - r_k)))
    w_lo = matching_determinant(channel, lo, k=k)
    w_hi = matching_determinant(channel, hi, k=k)
    if np.sign(w_lo) == np.sign(w_hi):
        raise NoSignChange(
            f"determinant keeps sign {np.sign(w_lo):+.0f} over nu in "
            f"[{lo:.12g}, {hi:.12g}] for {channel.label()}, k={k}")
    nu = brentq(lambda x: matching_determinant(channel, x, k=k), lo, hi,
                xtol=_NU_RTOL * lo, rtol=_NU_RTOL)
    return state_from_nu(channel, k, nu)


def shooting_solve(channel: Channel, k: int) -> float:
    """Bound-state energy from two-sided shooting alone.

    Brackets the matching determinant's sign change in nu (seeded by, but
    never solved from, the closed form), polishes nu with Brent's method and
    returns the energy of state_from_nu at that nu, in units of the mass.
    """
    return _shoot(channel, k).energy


def shooting_solution(channel: Channel, k: int) -> ShootingResult:
    """Assembled two-sided solution at the shot nu, with its node count.

    The inward piece is rescaled so the dominant component agrees at the
    match point; F's sign changes over the joint table are the radial nodes.
    """
    state = _shoot(channel, k)
    out, inw = _legs(channel, state.nu, k, table=True)
    f_o, g_o = out.y[:, -1]
    f_i, g_i = inw.y[:, -1]
    factor = f_o / f_i if abs(f_o) >= abs(g_o) else g_o / g_i
    rho = np.concatenate([out.t, inw.t[::-1][1:]])
    f = np.concatenate([out.y[0], factor * inw.y[0][::-1][1:]])
    g = np.concatenate([out.y[1], factor * inw.y[1][::-1][1:]])

    sign = np.sign(f[np.abs(f) > 1e-12 * np.max(np.abs(f))])
    node_count = int(np.sum(sign[1:] * sign[:-1] < 0))
    return ShootingResult(state=state, rho=rho, F=f, G=g, node_count=node_count)


def compare_spectrum(zeta, j_max, k_max: int) -> list[dict]:
    """oracle-compare's rows: algebraic vs shot level per state; rel_delta is in nu."""
    rows = []
    for st in spectrum_table(zeta, j_max, k_max):
        shot = _shoot(st.channel, st.k)
        rows.append({
            "j": float(st.channel.j),
            "eps": [st.channel.epsilon],
            "k": st.k,
            "E_algebraic": float(st.energy),
            "E_shooting": shot.energy,
            "rel_delta": abs(shot.nu / float(st.nu) - 1.0),
        })
    return rows


# ---------------------------------------------------------------------------
# negative-branch divergence

def truncated_norms(f: LadderFunction, cutoffs) -> np.ndarray:
    """N(R) = integral_0^R rho^(2*lam-2) e^(+2*rho) q^2 drho, per cutoff.

    Gauss-Legendre on [0, R]; only meaningful (and only allowed) for the
    negative branch, whose weight grows like e^(+rho).  PrecisionLoss when a
    norm overflows float64 (large lam or R).
    """
    if f.branch != "negative":
        raise WrongBranch("truncated norms are a negative-branch diagnostic")
    cuts = np.asarray(list(cutoffs), dtype=float)
    # written as all(... > 0) so that NaN fails; inf fails the 300 cap
    if cuts.size < 2 or not (np.all(cuts > 0) and np.all(np.diff(cuts) > 0)):
        raise DomainError("cutoffs must be >= 2 positive increasing radii")
    if cuts[-1] > 300.0:
        raise DomainError("cutoff beyond 300 would overflow e^(2*rho)")

    lam = float(f.lam)
    nodes, weights = np.polynomial.legendre.leggauss(max(240, int(4 * cuts[-1])))

    def one(r):
        rho = 0.5 * r * (nodes + 1.0)
        vals = rho ** (2.0 * lam - 2.0) * np.exp(2.0 * rho) * f.polynomial(rho) ** 2
        return 0.5 * r * float(np.dot(weights, vals))

    with np.errstate(over="ignore", invalid="ignore"):   # judged just below
        norms = np.asarray([one(r) for r in cuts])
    if not np.all(np.isfinite(norms)):
        raise PrecisionLoss(f"truncated norm overflows float64 by R = {float(cuts[-1])!r}")
    return norms


def divergence_check(f: LadderFunction, cutoffs) -> VerificationReport:
    """Non-normalizability of a negative-branch member, by direct quadrature.

    Truncated norms must increase strictly and beat the lower bound
    N(R2)/N(R1) > e^(R2-R1); the measured growth is ~ e^(2*(R2-R1)).
    """
    cuts = np.asarray(list(cutoffs), dtype=float)
    norms = truncated_norms(f, cuts)
    report = VerificationReport(
        f"negative-branch norm growth, lam={float(f.lam):.6f}, mu={float(f.mu):.6f}")
    increase_margin = float(np.min(np.diff(norms)))
    report.add("truncated norms strictly increase", increase_margin, 0.0,
               passed=increase_margin > 0.0,
               detail=f"smallest increment {increase_margin:.3e}")
    ratios = norms[1:] / norms[:-1]
    bounds = np.exp(np.diff(cuts))
    worst = float(np.min(ratios / bounds))
    report.add("growth beats e^(R2-R1)", worst, 1.0, passed=worst > 1.0,
               detail=f"min measured/bound ratio {worst:.3e}")
    return report
