"""Independent numerical checks for every algebraic claim in the package.

Nothing here reuses the ladder recurrences' internals: integrals go through
generalized Gauss-Laguerre quadrature (with a log-grid trapezoid cross-check)
of pointwise polynomial values, which re-checks the exact norms of the
algebraic side (member norms, and the physical norm that
radial.physical_normalize sums exactly); the differential equations are
checked pointwise over BoundState.window, from exact derivatives on
max(32, 4(k + 2)) Chebyshev-Lobatto points in log rho (the residual, over its
weight, is a polynomial of degree k + 1) or from finite differences on a
uniform log grid, and energies are re-derived by two-sided shooting on the raw
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
relative, so the cap keeps every rule well inside the 1e-10 agreement.  A
fresh pair is one eigen-solve: the n-node Jacobi matrix, padded below its
spectrum to 2n x 2n, and the 2n-node one go to eigvalsh as one stack, and
both rules come out bit for bit as built alone.  Each pair is kept per
(n, alpha) as its rules' concatenated half-nodes t_i/2 and root weights
sqrt(w_i), read-only, so an integral reuses them as they are; a pair whose
(n/2, alpha) pair is kept takes the n-node rule from it and solves for the
2n-node rule alone, so a tower that crosses a rule size builds each size once.
The log-grid trapezoid starts at 512 nodes and doubles at most 5 times.  Two
successive estimates must agree to 1e-10 (Gauss) or 1e-12 (trapezoid)
relative to max(1, |estimate|).  The integrands are polynomials against fixed
weights, and both rules are exact up to roundoff below degree 256; each
polynomial factor is scaled by the root of its weight before any product, so
a square that alone would overflow float64 (rank >= 123) stays finite.  An
integral that has not settled within its policy raises QuadratureFailure, as
does a weight past float64, found by a scalar test before numpy could warn:
the Gauss weights just past alpha = 170.6, where their sum Gamma(alpha + 1)
overflows, and the trapezoid's rho^(alpha + 1) at the top of its window.
"""

from __future__ import annotations

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

_GAUSS = "generalized-gauss-laguerre"
_TRAPEZOID = "transformed-trapezoid-in-x"
# policy per scheme: (starting nodes, doublings, tolerance); see above.  The Gauss
# rules are built and kept as one pair (_laguerre_rule), so their doublings stay 1
_POLICY = {_GAUSS: (128, 1, 1e-10), _TRAPEZOID: (512, 5, 1e-12)}
_LOG_FLOAT_MAX = math.log(sys.float_info.max)   # e^x overflows float64 above it
# Gauss rule pairs by (n, alpha), least recently used first (_laguerre_rule); the
# pad of a smaller rule's Jacobi matrix (roots_genlaguerre) lies below every node:
# the least, at 256 nodes and the least float64 alpha above -1, is 4.3e-19
_PAIRS: dict = {}
_PAIRS_KEPT = 64
_PAD = 1e-300

# points of the fd residual check's uniform log grid, which its 8th-order stencil
# needs; the exact check takes max(32, 4(k + 2)) Chebyshev-Lobatto points (ode_residual)
_FD_POINTS = 8000

# only shooting needs scipy: the integrator becomes a module global on first use
# (PEP 562), so quadrature and residuals run without it and a tracer can wrap it;
# the root finder is imported where it is used (_shoot)
def __getattr__(name):
    if name != "solve_ivp":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from scipy.integrate import solve_ivp
    globals()[name] = solve_ivp
    return solve_ivp


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

def roots_genlaguerre(n: int, alpha: float, pair: bool = False):
    """Nodes and weights of the n-point rule for the weight t^alpha e^(-t), and
    with pair set those of the 2n-point rule after them, from one eigen-solve.

    Golub-Welsch: the nodes are the eigenvalues of the Jacobi matrix of
    L_n^(alpha) (diagonal 2i + alpha + 1, off-diagonal sqrt(i(i + alpha))),
    whose characteristic polynomial is the monic L_n^(alpha).  So L_n'(t_i)
    is proportional to prod_(j != i) (t_i - t_j), and w_i to
    1/(t_i L_n'(t_i)^2); the weights are summed in logs and scaled to add up
    to Gamma(alpha + 1).  A pair is one eigvalsh over a stack of two 2n x 2n
    matrices, the n-point Jacobi matrix padded and the 2n-point one.  The
    padded matrix has the n-point one as its leading block, decoupled from a
    diagonal block of _PAD below every node, so its nodes are its top n
    eigenvalues.  In the weight pass a pad is a gap of 1 (a log of 0, at the
    front of each sum) and a weight of 0, so both rules come out as from
    their own matrices, bit for bit.
    """
    m = 2 * n if pair else n
    i = np.arange(float(m))
    # diagonal and subdiagonal only: eigvalsh reads the lower triangle
    jacobi = np.zeros((1 + pair, m * m))
    jacobi[:, ::m + 1] = 2.0 * i + alpha + 1.0
    jacobi[:, m::m + 1] = np.sqrt(i[1:] * (i[1:] + alpha))
    if pair:
        jacobi[0, n * (m + 1)::m + 1] = _PAD
        jacobi[0, n * (m + 1) - 1::m + 1] = 0.0
    t = np.linalg.eigvalsh(jacobi.reshape(1 + pair, m, m))
    gaps = t[:, :, None] - t[:, None, :]
    np.abs(gaps, out=gaps)
    gaps.reshape(1 + pair, m * m)[:, ::m + 1] = 1.0
    gaps[0, :, :m - n] = 1.0
    log_w = -np.log(t) - 2.0 * np.log(gaps, out=gaps).sum(axis=2)
    log_w[0, :m - n] = -np.inf
    log_w -= log_w.max(axis=1, keepdims=True)
    top = math.lgamma(alpha + 1.0) - np.log(np.exp(log_w).sum(axis=1))  # logs of the largest w_i
    if top.max() > _LOG_FLOAT_MAX:
        raise QuadratureFailure(f"Gauss-Laguerre weights overflow float64 at alpha={alpha:g}")
    log_w += top[:, None]
    # the pads lead the flat rows, so the rules follow them in order
    return t.reshape(-1)[m - n:], np.exp(log_w, out=log_w).reshape(-1)[m - n:]


def _laguerre_rule(n: int, alpha: float):
    # the pair of rules of n and 2n nodes (_POLICY's one doubling), concatenated and
    # read-only: half-nodes t_i/2 and root weights sqrt(w_i); an integrand formed as
    # (sqrt(w) q)^2 stays finite where q^2 alone would overflow at the far nodes.
    # _PAIRS keeps the _PAIRS_KEPT latest used; a pair whose (n/2, alpha) pair is
    # kept takes its n-node rule from there and builds the 2n-node one alone
    pair = _PAIRS.pop((n, alpha), None)
    if pair is None:
        below = _PAIRS.get((n // 2, alpha))
        if below is None:
            t, w = roots_genlaguerre(n, alpha, pair=True)
            pair = t / 2.0, np.sqrt(w)
        else:
            t, w = roots_genlaguerre(2 * n, alpha)
            pair = tuple(np.concatenate((kept[n // 2:], new))
                         for kept, new in zip(below, (t / 2.0, np.sqrt(w))))
        for array in pair:
            array.flags.writeable = False
        if len(_PAIRS) >= _PAIRS_KEPT:
            del _PAIRS[next(iter(_PAIRS))]
    _PAIRS[n, alpha] = pair
    return pair


def _first_settled(estimates, n: int, tolerance: float, note: str = "") -> float:
    # estimates at n, 2n, 4n, ... nodes: the first that agrees with the one before
    prev = next(estimates)
    for cur in estimates:
        n *= 2
        if not math.isfinite(cur):
            raise QuadratureFailure(f"integral estimate went non-finite at {n} nodes{note}")
        if abs(cur - prev) <= tolerance * max(1.0, abs(cur)):
            return cur
        prev = cur
    raise QuadratureFailure(
        f"integral did not settle after doubling to {n} nodes "
        f"(tol {tolerance:.1e}){note}")


def _weighted_integral(values_fn, alpha: float, degree: int,
                       scheme: str = _GAUSS) -> float:
    # integral rho^alpha e^(-2rho) p(rho) drho, where values_fn(rho, root) gives
    # root^2 p(rho) on arrays, root the rule's root weight at rho: each factor
    # of p is scaled by root before any product is formed
    # nan fails too; a finite alpha gives a finite Jacobi matrix (roots_genlaguerre)
    if not -1 < alpha < math.inf:
        raise DomainError(f"weight exponent must be finite and exceed -1, got {alpha}")
    n, doublings, tolerance = _POLICY[scheme]
    if scheme == _GAUSS:
        # 2^m >= 16 nodes with 2n - 1 >= degree, capped, then its doublings;
        # one values_fn pass over the nodes of all rules, one sum per rule;
        # the rule of m = n << i nodes sits at offset n + 2n + ... = m - n
        n = min(n, max(16, 1 << (degree // 2).bit_length()))
        sizes = [n << i for i in range(doublings + 1)]
        values = values_fn(*_laguerre_rule(n, float(alpha)))
        factor = 2.0 ** (-(alpha + 1.0))
        estimates = [factor * float(np.add.reduce(values[m - n:2 * m - n])) for m in sizes]
        note = (f"; degree {degree} is past {2 * n - 1}, the most the {n}-node rule "
                "integrates exactly" if degree > 2 * n - 1 else "")
        return _first_settled(iter(estimates), n, tolerance, note)

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
        vals = values_fn(rho, rho ** (a / 2.0) * np.exp(-rho))
        h = x[1] - x[0]
        return float(h * (np.add.reduce(vals) - 0.5 * (vals[0] + vals[-1])))

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
    return _weighted_integral(lambda rho, root: root * (root * polyval(rho, coeffs)),
                              alpha, len(coeffs) - 1)


def component_norm_integral(polys, alpha: float) -> float:
    """integral rho^alpha * exp(-2*rho) * sum_j p_j(rho)^2 drho.

    Squares are formed pointwise after Horner evaluation (polyval), never by
    convolving coefficients: the summed integrand is nonnegative, so the
    quadrature sum has no catastrophic cancellation even at high rank.
    """
    polys = [[float(c) for c in p] for p in polys]
    degree = 2 * max(len(p) - 1 for p in polys)
    polyval = np.polynomial.polynomial.polyval

    def values(rho, root):
        return sum((root * polyval(rho, p)) ** 2 for p in polys)

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
    if f.lam > 0.5 and not lam > 0.5:   # a wider lam rounded to float64 (_ground_value)
        raise PrecisionLoss(f"lam = {lam!r} is not above 1/2 at its own precision")
    if f.lam is not g.lam and f.lam != g.lam:   # "is" lets a NaN lam reach the exponent check
        raise DomainError("members from different towers")
    if abs(float(f.mu) - float(g.mu)) > 1e-9:
        return 0.0

    def values(rho, root):
        left = root * f.polynomial(rho)
        return left * left if g == f else left * (root * g.polynomial(rho))

    return _weighted_integral(values, 2.0 * lam - 2.0, f.degree + g.degree, scheme)


def physical_norm_integral(solution: RadialSolution) -> float:
    """integral (F^2 + G^2) drho at the solution's amplitude, by quadrature.

    Like inner_product, it reads only the pointwise values of the two
    components' polynomial parts, squared and summed against the weight
    rho^(2*lam-1)*exp(-2*rho); radial.physical_normalize gets the same
    integral as an exact sum, which this re-checks.
    """
    f, g = solution.components

    def values(rho, root):
        return (root * f.polynomial(rho)) ** 2 + (root * g.polynomial(rho)) ** 2

    return _weighted_integral(values, 2.0 * float(f.lam) - 1.0, 2 * f.degree)


# ---------------------------------------------------------------------------
# differential-equation residual

def _fd_first_derivative(values: np.ndarray, h: float) -> np.ndarray:
    # 8th-order central stencil; returns interior values (4 trimmed per side)
    c = np.array([3.0, -32.0, 168.0, -672.0, 0.0, 672.0, -168.0, 32.0, -3.0]) / 840.0
    return np.convolve(values, c[::-1], mode="valid") / h


def _accumulate(sums, term):
    # sums[0] += term and sums[1] += |term|, in place; term is scratch
    sums[0] += term
    sums[1] += np.abs(term, out=term)


def ode_residual(solution: RadialSolution, method: str = "exact",
                 tolerance: float = 1e-8) -> VerificationReport:
    """Pointwise residuals of both first-order equations, sup and RMS.

    The points, in log rho, span the state's window (BoundState.window, past
    the outermost node), both ends included.  method 'exact' differentiates
    the polynomial form analytically on n = max(32, 4(k + 2)) Chebyshev-Lobatto
    points: with w = rho^(lam - 1/2) e^(-rho), rho*residual/w is a polynomial
    of degree <= k + 1 in rho, so it vanishes iff it vanishes at k + 2
    distinct points; 4x that many, and at least 32, read a detuned state's
    sup as a dense grid does (2000 log points: within 3e-5 relative on 1176
    states up to k = 24).  'fd' uses 8th-order finite differences on a
    uniform grid of 8000 points and so also cross-checks the evaluation code.
    Residuals are normalized by the local sum of term magnitudes (plus a
    machine floor); NaN fails.
    """
    if method not in ("exact", "fd"):
        raise DomainError(f"method must be 'exact' or 'fd', got {method!r}")
    st = solution.state
    tau = float(st.channel.tau)
    zeta = float(st.channel.zeta)
    nu = float(st.nu)
    lo, hi = st.window
    start, stop = np.log(lo), np.log(hi)

    if method == "fd":
        # np.linspace's own arithmetic, without its Python wrapper: the same bits
        n = _FD_POINTS
        x = np.arange(float(n)) * ((stop - start) / (n - 1))
        x += start
        x[-1] = stop
    else:
        # x_i = (start + stop)/2 - (stop - start)/2 cos(pi i/(n - 1)), ascending
        n = max(32, 4 * (st.k + 2))
        x = np.cos(np.arange(float(n)) * (math.pi / (n - 1)))
        x *= 0.5 * (start - stop)
        x += 0.5 * (start + stop)
        x[0], x[-1] = start, stop
    rho = np.exp(x)
    f, g, fp, gp = solution.evaluate_with_derivatives(rho)
    if method == "fd":
        # d/drho = (1/rho) d/dx on the uniform log grid
        h = x[1] - x[0]
        rho = rho[4:-4]
        fp = _fd_first_derivative(f, h) / rho
        gp = _fd_first_derivative(g, h) / rho
        f, g = f[4:-4], g[4:-4]

    # the signed terms of the G' ("small") and F' ("large") equations, (G', F'),
    # (-tau/rho G, tau/rho F), (-nu F, G/-nu), (zeta/rho F, -zeta/rho G), and apart
    # their magnitudes, each added in that order into its half of one buffer
    sums, term, flip = np.empty((2, 2, rho.size)), np.empty((2, rho.size)), np.empty((2, rho.size))
    signed, size = sums
    signed[0], signed[1] = gp, fp
    np.abs(signed, out=size)
    np.negative(g, out=flip[0])
    flip[1] = f                         # (-G, F); flip[::-1] is (F, -G)
    np.multiply(tau / rho, flip, out=term)
    _accumulate(sums, term)
    np.multiply(-nu, f, out=term[0])
    np.divide(g, -nu, out=term[1])
    _accumulate(sums, term)
    np.multiply(zeta / rho, flip[::-1], out=term)
    _accumulate(sums, term)
    rel = np.abs(signed, out=signed)
    size += 1e-290
    rel /= size
    rms = np.sqrt(np.add.reduce(np.square(rel, out=size), axis=1) / rho.size)  # np.mean's bits
    report = VerificationReport(
        f"radial system residual ({method}) for k={st.k}, "
        f"j={float(st.channel.j)}, eps={st.channel.epsilon:+d}")
    for name, sup, spread in zip(("small", "large"), np.maximum.reduce(rel, axis=1), rms):
        report.add(f"{name}-component equation sup-residual", float(sup), tolerance,
                   detail=f"rms={float(spread):.2e}, n={rho.size}")
    return report


# ---------------------------------------------------------------------------
# two-sided shooting
#
# nu, not E, is the unknown: forming nu from a trial E would go through
# 1 - E, which cancels at small zeta.

_RHO_MIN = 1e-4            # outward start
# last series order of that start: order 1 leaves the shot nu 1.8e-8 off near
# critical coupling (zeta = 0.999, j = 1/2), order 3 leaves 3.5e-13, and eight
# orders move it by under 1e-14; fixed, since a sum run until it stops
# changing need not end (nu = 1e-30)
_SERIES_ORDER = 3
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
    # series F, G ~ rho^s sum_n (f_n, g_n) rho^n through _SERIES_ORDER, order n
    # from [[s+n+tau, -zeta], [zeta, s+n-tau]] @ (f_n, g_n) = (g_(n-1)/nu, nu*f_(n-1)),
    # of determinant n(n + 2s); the system is linear, so rho_min^s is dropped and
    # the start is O(1), which keeps atol from swamping the solution at large s
    f = 1.0
    # (s + tau)/zeta cancels at small zeta if tau < 0; s^2 - tau^2 = -zeta^2
    g = (s + tau) / zeta if tau > 0 else -zeta / (s - tau)
    F, G, power = f, g, 1.0
    for n in range(1, _SERIES_ORDER + 1):
        f, g = (((s + n - tau) * (g / nu) + zeta * (nu * f)) / (n * (n + 2.0 * s)),
                ((s + n + tau) * (nu * f) - zeta * (g / nu)) / (n * (n + 2.0 * s)))
        power *= _RHO_MIN
        F, G = F + f * power, G + g * power
    if not (math.isfinite(F) and math.isfinite(G)):     # before the integrator sees it
        raise StiffnessFailure(f"series start overflowed at nu = {nu!r}")
    return F, G


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
    if "solve_ivp" not in globals():    # bound on first use, or a patched one kept
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
    # zeta/(s + n) (= kappa/E of level n) the walls sit at r_k -+ 0.45*(r_k -
    # r_(k+1)), short of both neighbours as the gaps shrink with n; nu = r/(1 +
    # sqrt(1 + r^2)) maps them into (0, 1).  Brent's first two shots, at the
    # walls, refuse a bad k (whose wall may be negative: abs), and then its
    # bracket test refuses walls without a sign change
    from scipy.optimize import brentq
    s = float(channel.s)
    zeta = float(channel.zeta)
    r_k = zeta / (s + k)
    gap = 0.45 * (r_k - zeta / (s + k + 1))
    lo, hi = (r / (1.0 + np.sqrt(1.0 + r * r)) for r in (r_k - gap, r_k + gap))
    try:
        nu = brentq(lambda x: matching_determinant(channel, x, k=k), lo, hi,
                    xtol=_NU_RTOL * abs(lo), rtol=_NU_RTOL)
    except ValueError as exc:
        if "different signs" not in str(exc):
            raise
        raise NoSignChange(f"determinant keeps its sign over nu in [{lo:.12g}, {hi:.12g}] "
                           f"for {channel.label()}, k={k}") from exc
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
