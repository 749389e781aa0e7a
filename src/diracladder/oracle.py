"""Independent numerical checks for every algebraic claim in the package.

Nothing here reuses the ladder recurrences' internals: integrals go through
generalized Gauss-Laguerre quadrature (with a log-grid trapezoid cross-check),
the differential equations are checked pointwise from exact derivatives or
finite differences, and energies are re-derived by two-sided shooting on the
raw first-order system

    F' = -(tau/rho) F + (1/nu + zeta/rho) G
    G' = +(tau/rho) G + (nu  - zeta/rho) F

with nu = sqrt((m - E)/(m + E)) and rho = kappa*r.  The closed-form spectrum
is used only to seed energy brackets, never as the answer; matching_scan
offers hint-free root counting.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import brentq
from scipy.special import roots_genlaguerre

from . import precision
from .channels import Channel, spectrum_table
from .errors import (
    DomainError,
    NoSignChange,
    QuadratureFailure,
    StiffnessFailure,
    WrongBranch,
)
from .ladder import LadderFunction
from .report import VerificationReport

if TYPE_CHECKING:
    from .radial import RadialSolution

__all__ = [
    "QuadratureSpec",
    "ShootingConfig",
    "ShootingResult",
    "laguerre_weighted_integral",
    "component_norm_integral",
    "inner_product",
    "ode_residual",
    "default_residual_grid",
    "matching_determinant",
    "matching_scan",
    "shooting_solve",
    "shooting_solution",
    "compare_spectrum",
    "truncated_norms",
    "divergence_check",
]

_SCHEMES = ("generalized-gauss-laguerre", "transformed-trapezoid-in-x")

# scipy's generalized Gauss-Laguerre weights overflow to NaN near 400 nodes;
# 360 is the last comfortable power-of-two-ish rung (256 doubled would pass it)
_MAX_GAUSS_NODES = 360


@dataclass(frozen=True)
class QuadratureSpec:
    """Node-doubling convergence policy for the integral rules.

    exponent, when set, overrides the weight exponent (2*lam - 2 for
    x-measure norm integrals) that inner_product derives from its operands.
    Gauss rules are capped at 360 nodes, where the double-precision weight
    computation breaks down; the integrands here are polynomials against
    fixed weights, so 128-256 nodes is already exact up to roundoff.
    """

    scheme: str = "generalized-gauss-laguerre"
    nodes: int = 128
    exponent: float | None = None
    tolerance: float = 1e-10
    max_doublings: int = 5

    def __post_init__(self):
        if self.scheme not in _SCHEMES:
            raise DomainError(f"scheme must be one of {_SCHEMES}, got {self.scheme!r}")
        if self.nodes < 8:
            raise DomainError(f"need at least 8 nodes, got {self.nodes}")
        if (self.scheme == "generalized-gauss-laguerre"
                and self.nodes > _MAX_GAUSS_NODES):
            raise DomainError(
                f"Gauss-Laguerre weights are unreliable beyond {_MAX_GAUSS_NODES} "
                f"nodes in double precision, got {self.nodes}")
        if not self.tolerance > 0:
            raise DomainError(f"tolerance must be positive, got {self.tolerance}")
        if self.max_doublings < 1:
            raise DomainError(f"need at least 1 doubling, got {self.max_doublings}")


@dataclass(frozen=True)
class ShootingConfig:
    rho_min: float = 1e-4
    rho_match: float | None = None            # None: max(1, mu - 1/2)
    rho_max: float = 40.0
    steps: int = 600                          # per-side samples in tables
    energy_bracket: tuple[float, float] | None = None
    tolerance: float = 1e-13                  # absolute, on E
    rtol: float = 1e-11
    atol: float = 1e-14
    method: str = "DOP853"

    def __post_init__(self):
        if not self.rho_min > 0:
            raise DomainError(f"rho_min must be positive, got {self.rho_min}")
        if not self.rho_max > self.rho_min:
            raise DomainError("need rho_min < rho_max")
        if self.rho_match is not None and not self.rho_min < self.rho_match < self.rho_max:
            raise DomainError("need rho_min < rho_match < rho_max")
        if not self.tolerance > 0:
            raise DomainError(f"tolerance must be positive, got {self.tolerance}")


@dataclass(frozen=True)
class ShootingResult:
    energy: float
    rho: np.ndarray
    F: np.ndarray
    G: np.ndarray
    node_count: int


# ---------------------------------------------------------------------------
# quadrature

@functools.lru_cache(maxsize=64)
def _laguerre_rule(n: int, alpha: float):
    t, w = roots_genlaguerre(n, alpha)
    if not (np.isfinite(t).all() and np.isfinite(w).all()):
        raise QuadratureFailure(
            f"Gauss-Laguerre rule broke down at {n} nodes, alpha={alpha:g}")
    return t, w


def _poly_eval(coeffs, t):
    acc = np.full_like(t, float(coeffs[-1]))
    for c in reversed(coeffs[:-1]):
        acc = acc * t + float(c)
    return acc


def _converge_by_doubling(rule, spec: QuadratureSpec, max_nodes=None):
    n = spec.nodes
    prev = rule(n)
    for _ in range(spec.max_doublings):
        if max_nodes is not None and 2 * n > max_nodes:
            break
        n *= 2
        cur = rule(n)
        if not np.isfinite(cur):
            raise QuadratureFailure(f"integral estimate went non-finite at {n} nodes")
        if abs(cur - prev) <= spec.tolerance * max(1.0, abs(cur)):
            return cur
        prev = cur
    raise QuadratureFailure(
        f"integral did not settle after doubling to {n} nodes "
        f"(tol {spec.tolerance:.1e})")


def _gauss_integral(values_fn, alpha: float, spec: QuadratureSpec) -> float:
    # values_fn(rho_array) -> polynomial-part values; weight rho^alpha e^(-2rho)
    factor = 2.0 ** (-(alpha + 1.0))

    def rule(n):
        t, w = _laguerre_rule(n, float(alpha))
        return factor * float(np.dot(w, values_fn(t / 2.0)))

    return _converge_by_doubling(rule, spec, max_nodes=_MAX_GAUSS_NODES)


def _trapezoid_integral(values_fn, alpha: float, degree: int,
                        spec: QuadratureSpec) -> float:
    # Same integral under rho = e^x: the x-integrand decays like e^((alpha+1)x)
    # to the left and e^(-2 e^x) to the right, so plain trapezoid on a wide
    # enough window superconverges.  Diagnostic cross-check for the Gauss rule.
    a = alpha + 1.0
    x_lo = -48.0 / a - 2.0
    x_hi = np.log(30.0 + 3.0 * (degree + a))

    def rule(n):
        x = np.linspace(x_lo, x_hi, n)
        rho = np.exp(x)
        vals = rho ** a * np.exp(-2.0 * rho) * values_fn(rho)
        h = x[1] - x[0]
        return h * (np.sum(vals) - 0.5 * (vals[0] + vals[-1]))

    return _converge_by_doubling(rule, spec)


def _weighted_integral(values_fn, alpha: float, degree: int,
                       spec: QuadratureSpec) -> float:
    # integral rho^alpha e^(-2rho) values_fn(rho) drho under spec's scheme
    if spec.scheme == "transformed-trapezoid-in-x":
        return _trapezoid_integral(values_fn, alpha, degree, spec)
    return _gauss_integral(values_fn, alpha, spec)


def laguerre_weighted_integral(coeffs, alpha: float, spec: QuadratureSpec | None = None):
    """integral rho^alpha * exp(-2*rho) * p(rho) drho over (0, inf).

    Substituting t = 2*rho maps this onto the generalized Gauss-Laguerre rule
    with weight t^alpha * exp(-t); nodes are doubled until two consecutive
    rules agree to spec.tolerance.
    """
    if alpha <= -1:
        raise DomainError(f"weight exponent must exceed -1, got {alpha}")
    spec = spec or QuadratureSpec()
    coeffs = [precision.to_float(c) for c in coeffs]
    return _weighted_integral(lambda rho: _poly_eval(coeffs, rho),
                              alpha, len(coeffs) - 1, spec)


def component_norm_integral(polys, alpha: float,
                            spec: QuadratureSpec | None = None) -> float:
    """integral rho^alpha * exp(-2*rho) * sum_j p_j(rho)^2 drho.

    Squares are formed pointwise after Horner evaluation, never by
    convolving coefficients: the summed integrand is nonnegative, so the
    quadrature sum has no catastrophic cancellation even at high rank.
    """
    if alpha <= -1:
        raise DomainError(f"weight exponent must exceed -1, got {alpha}")
    spec = spec or QuadratureSpec()
    polys = [[precision.to_float(c) for c in p] for p in polys]
    degree = 2 * max(len(p) - 1 for p in polys)

    def values(rho):
        return sum(_poly_eval(p, rho) ** 2 for p in polys)

    return _weighted_integral(values, alpha, degree, spec)


def inner_product(f: LadderFunction, g: LadderFunction,
                  spec: QuadratureSpec | None = None) -> float:
    """Inner product of two ladder members under the x-measure drho/rho.

    The phase average makes members with different mu labels orthogonal
    identically (returned as exact 0); equal labels reduce to the radial
    integral of rho^(2*lam-2) e^(-2*rho) q_f q_g, evaluated pointwise as a
    product of the members' polynomial values (a square when f is g).
    """
    if f.branch != "positive" or g.branch != "positive":
        raise WrongBranch("inner products are defined on the positive branch")
    lam = precision.to_float(f.lam)
    if abs(lam - precision.to_float(g.lam)) > 1e-12:
        raise DomainError("members from different towers")
    if abs(precision.to_float(f.mu) - precision.to_float(g.mu)) > 1e-9:
        return 0.0
    spec = spec or QuadratureSpec()
    alpha = spec.exponent if spec.exponent is not None else 2.0 * lam - 2.0

    def values(rho):
        left = f.polynomial(rho)
        return left * left if g == f else left * g.polynomial(rho)

    return _weighted_integral(values, alpha, f.degree + g.degree, spec)


# ---------------------------------------------------------------------------
# differential-equation residual

def default_residual_grid() -> np.ndarray:
    return np.geomspace(1e-3, 30.0, 2000)


def _fd_first_derivative(values: np.ndarray, h: float) -> np.ndarray:
    # 8th-order central stencil; returns interior values (4 trimmed per side)
    c = np.array([3.0, -32.0, 168.0, -672.0, 0.0, 672.0, -168.0, 32.0, -3.0]) / 840.0
    return np.convolve(values, c[::-1], mode="valid") / h


def ode_residual(solution: RadialSolution, grid=None, method: str = "exact",
                 tolerance: float = 1e-8) -> VerificationReport:
    """Pointwise residuals of both first-order equations, sup and RMS.

    method 'exact' differentiates the polynomial form analytically; 'fd'
    rebuilds derivatives by high-order finite differences on a log grid and
    so also cross-checks the evaluation code.  Residuals are normalized by
    the local sum of term magnitudes (plus a machine floor).
    """
    st = solution.state
    tau = precision.to_float(st.channel.tau)
    zeta = precision.to_float(st.channel.zeta)
    nu = precision.to_float(st.nu)

    if grid is None:
        grid = default_residual_grid()
    rho = np.asarray(grid, dtype=float)
    if rho.size < 2 or np.any(rho <= 0) or np.any(np.diff(rho) <= 0):
        raise DomainError("grid must be positive, sorted, of length >= 2")

    if method == "exact":
        f, g, fp, gp = solution.evaluate_with_derivatives(rho)
    elif method == "fd":
        x = np.linspace(np.log(rho[0]), np.log(rho[-1]), max(2000, 4 * rho.size))
        rg = np.exp(x)
        f_all, g_all = solution.F(rg), solution.G(rg)
        h = x[1] - x[0]
        # d/drho = (1/rho) d/dx on the uniform log grid
        fp = _fd_first_derivative(f_all, h) / rg[4:-4]
        gp = _fd_first_derivative(g_all, h) / rg[4:-4]
        rho, f, g = rg[4:-4], f_all[4:-4], g_all[4:-4]
    else:
        raise DomainError(f"method must be 'exact' or 'fd', got {method!r}")

    floor = 1e-290
    r1 = gp - (tau / rho) * g - (nu - zeta / rho) * f
    s1 = np.abs(gp) + np.abs(tau / rho * g) + np.abs(nu * f) + np.abs(zeta / rho * f) + floor
    r2 = fp + (tau / rho) * f - (1.0 / nu + zeta / rho) * g
    s2 = np.abs(fp) + np.abs(tau / rho * f) + np.abs(g / nu) + np.abs(zeta / rho * g) + floor

    rel1, rel2 = np.abs(r1) / s1, np.abs(r2) / s2
    report = VerificationReport(
        f"radial system residual ({method}) for k={st.k}, "
        f"j={precision.to_float(st.channel.j)}, eps={st.channel.epsilon:+d}")
    report.add("small-component equation sup-residual", float(rel1.max()), tolerance,
               detail=f"rms={float(np.sqrt(np.mean(rel1 ** 2))):.2e}, n={rho.size}")
    report.add("large-component equation sup-residual", float(rel2.max()), tolerance,
               detail=f"rms={float(np.sqrt(np.mean(rel2 ** 2))):.2e}, n={rho.size}")
    return report


# ---------------------------------------------------------------------------
# two-sided shooting

def _rhs(tau, zeta, nu):
    inv_nu = 1.0 / nu

    def fun(rho, y):
        f, g = y
        return ((-tau * f + zeta * g) / rho + inv_nu * g,
                (tau * g - zeta * f) / rho + nu * f)

    return fun


def _nu_of(energy, mass):
    if not 0.0 < energy < mass:
        raise DomainError(f"trial energy must lie in (0, mass), got {energy}")
    return np.sqrt((mass - energy) / (mass + energy))


def _outward_ic(channel: Channel, nu: float, rho_min: float):
    # two-term series F, G ~ rho^s (y0 + y1 rho) from the indicial system
    s = precision.to_float(channel.s)
    tau = precision.to_float(channel.tau)
    zeta = precision.to_float(channel.zeta)
    f0 = 1.0
    g0 = (s + tau) / zeta
    # [[s+1+tau, -zeta], [zeta, s+1-tau]] @ [f1, g1] = [g0/nu, nu*f0]
    det = 2.0 * s + 1.0
    f1 = ((s + 1.0 - tau) * (g0 / nu) + zeta * (nu * f0)) / det
    g1 = ((s + 1.0 + tau) * (nu * f0) - zeta * (g0 / nu)) / det
    scale = rho_min ** s
    return (scale * (f0 + f1 * rho_min), scale * (g0 + g1 * rho_min))


def _inward_ic(channel: Channel, energy: float, mass: float, nu: float, rho_max: float):
    # decaying tail F ~ e^(-rho) rho^q with q = zeta*E/kappa; the 1/rho
    # correction enters only through the component ratio G/F
    tau = precision.to_float(channel.tau)
    zeta = precision.to_float(channel.zeta)
    kappa = np.sqrt((mass - energy) * (mass + energy))
    q = zeta * energy / kappa
    f0 = 1.0
    g0 = -nu * (1.0 - (tau + zeta * nu + q) / rho_max)
    return (f0, g0)


def _resolve_match(channel: Channel, k: int, cfg: ShootingConfig) -> float:
    if cfg.rho_match is not None:
        return cfg.rho_match
    mu = precision.to_float(channel.lam) + k
    return min(max(1.0, mu - 0.5), 0.5 * cfg.rho_max)


def _integrate_to(channel, energy, mass, cfg, span, y0, t_eval=None):
    nu = _nu_of(energy, mass)
    fun = _rhs(precision.to_float(channel.tau), precision.to_float(channel.zeta), nu)
    with np.errstate(over="raise", invalid="raise"):
        try:
            sol = solve_ivp(fun, span, y0, method=cfg.method, rtol=cfg.rtol,
                            atol=cfg.atol, t_eval=t_eval, dense_output=False)
        except FloatingPointError as exc:
            raise StiffnessFailure(
                f"integration overflowed on span {span}; "
                f"reduce rho_max or widen the match point ({exc})") from exc
    if not sol.success or not np.all(np.isfinite(sol.y)):
        raise StiffnessFailure(f"integrator rejected span {span}: {sol.message}")
    return sol


def matching_determinant(channel: Channel, energy: float, k: int = 0,
                         mass: float = 1.0, config: ShootingConfig | None = None) -> float:
    """Normalized Wronskian of outward and inward solutions at the match point.

    Vanishing is equivalent to the log-derivative match; the normalization
    keeps the value O(1) so sign changes are bracketable.
    """
    cfg = config or ShootingConfig()
    rho_match = _resolve_match(channel, k, cfg)
    nu = _nu_of(energy, mass)
    out = _integrate_to(channel, energy, mass, cfg,
                        (cfg.rho_min, rho_match),
                        _outward_ic(channel, nu, cfg.rho_min),
                        t_eval=[rho_match])
    inw = _integrate_to(channel, energy, mass, cfg,
                        (cfg.rho_max, rho_match),
                        _inward_ic(channel, energy, mass, nu, cfg.rho_max),
                        t_eval=[rho_match])
    f_o, g_o = out.y[0, -1], out.y[1, -1]
    f_i, g_i = inw.y[0, -1], inw.y[1, -1]
    w = f_o * g_i - f_i * g_o
    return float(w / ((abs(f_o) + abs(g_o)) * (abs(f_i) + abs(g_i))))


def matching_scan(channel: Channel, energies, k: int = 0, mass: float = 1.0,
                  config: ShootingConfig | None = None) -> np.ndarray:
    """Determinant sampled over an energy list (hint-free root counting)."""
    return np.asarray([matching_determinant(channel, e, k=k, mass=mass, config=config)
                       for e in energies])


def _closed_form_energy(channel: Channel, k: int, mass: float) -> float:
    mu = precision.to_float(channel.lam) + k
    ratio = precision.to_float(channel.zeta) / (mu - 0.5)
    return mass / np.sqrt(1.0 + ratio * ratio)


def _default_bracket(channel: Channel, k: int, mass: float) -> tuple[float, float]:
    # the closed form is a hint only: walls stay well clear of the target
    # root and exclude the neighbouring levels entirely
    e_k = _closed_form_energy(channel, k, mass)
    e_up = _closed_form_energy(channel, k + 1, mass)
    gap_up = e_up - e_k
    gap_down = e_k - _closed_form_energy(channel, k - 1, mass) if k >= 1 else gap_up
    return (e_k - 0.45 * gap_down, e_k + 0.45 * gap_up)


def shooting_solve(channel: Channel, k: int, mass: float = 1.0,
                   config: ShootingConfig | None = None) -> float:
    """Bound-state energy from two-sided shooting alone.

    Brackets the matching determinant's sign change (seeded by, but never
    solved from, the closed form) and polishes with Brent's method.
    """
    if not isinstance(k, int) or k < 0:
        raise DomainError(f"k must be a nonnegative integer, got {k!r}")
    cfg = config or ShootingConfig()
    if cfg.energy_bracket is not None:
        lo, hi = cfg.energy_bracket
        if not 0.0 < lo < hi < mass:
            raise DomainError(f"energy bracket must sit inside (0, mass), got {lo}, {hi}")
    else:
        lo, hi = _default_bracket(channel, k, mass)
    w_lo = matching_determinant(channel, lo, k=k, mass=mass, config=cfg)
    w_hi = matching_determinant(channel, hi, k=k, mass=mass, config=cfg)
    if np.sign(w_lo) == np.sign(w_hi):
        raise NoSignChange(
            f"determinant keeps sign {np.sign(w_lo):+.0f} over [{lo:.12g}, {hi:.12g}] "
            f"for {channel.label()}, k={k}")
    return float(brentq(
        lambda e: matching_determinant(channel, e, k=k, mass=mass, config=cfg),
        lo, hi, xtol=cfg.tolerance, rtol=8.9e-16))


def shooting_solution(channel: Channel, k: int, mass: float = 1.0,
                      config: ShootingConfig | None = None) -> ShootingResult:
    """Assembled two-sided solution at the shot energy, with its node count.

    The inward piece is rescaled so the dominant component agrees at the
    match point; F's sign changes over the joint table are the radial nodes.
    """
    cfg = config or ShootingConfig()
    energy = shooting_solve(channel, k, mass=mass, config=cfg)
    rho_match = _resolve_match(channel, k, cfg)
    nu = _nu_of(energy, mass)

    t_out = np.geomspace(cfg.rho_min, rho_match, cfg.steps)
    out = _integrate_to(channel, energy, mass, cfg, (cfg.rho_min, rho_match),
                        _outward_ic(channel, nu, cfg.rho_min), t_eval=t_out)
    t_in = np.linspace(cfg.rho_max, rho_match, cfg.steps)
    inw = _integrate_to(channel, energy, mass, cfg, (cfg.rho_max, rho_match),
                        _inward_ic(channel, energy, mass, nu, cfg.rho_max), t_eval=t_in)

    f_o, g_o = out.y[0, -1], out.y[1, -1]
    f_i, g_i = inw.y[0, -1], inw.y[1, -1]
    factor = f_o / f_i if abs(f_o) >= abs(g_o) else g_o / g_i
    rho = np.concatenate([out.t, inw.t[::-1][1:]])
    f = np.concatenate([out.y[0], factor * inw.y[0][::-1][1:]])
    g = np.concatenate([out.y[1], factor * inw.y[1][::-1][1:]])

    sign = np.sign(f[np.abs(f) > 1e-12 * np.max(np.abs(f))])
    node_count = int(np.sum(sign[1:] * sign[:-1] < 0))
    return ShootingResult(energy=energy, rho=rho, F=f, G=g, node_count=node_count)


def compare_spectrum(zeta, j_max, k_max: int, mass: float = 1.0,
                     config: ShootingConfig | None = None) -> list[dict]:
    """Algebraic vs shooting energy for every subcritical state in range."""
    rows = []
    for st in spectrum_table(zeta, j_max, k_max, mass=mass):
        e_shoot = shooting_solve(st.channel, st.k, mass=mass, config=config)
        e_alg = precision.to_float(st.energy)
        rows.append({
            "j": precision.to_float(st.channel.j),
            "epsilon": st.channel.epsilon,
            "k": st.k,
            "energy_algebraic": e_alg,
            "energy_shooting": e_shoot,
            "rel_delta": abs(e_shoot - e_alg) / e_alg,
        })
    return rows


# ---------------------------------------------------------------------------
# negative-branch divergence

def truncated_norms(f: LadderFunction, cutoffs) -> np.ndarray:
    """N(R) = integral_0^R rho^(2*lam-2) e^(+2*rho) q^2 drho, per cutoff.

    Gauss-Legendre on [0, R]; only meaningful (and only allowed) for the
    negative branch, whose weight grows like e^(+rho).
    """
    if f.branch != "negative":
        raise WrongBranch("truncated norms are a negative-branch diagnostic")
    cuts = np.asarray(list(cutoffs), dtype=float)
    if cuts.size < 2 or np.any(cuts <= 0) or np.any(np.diff(cuts) <= 0):
        raise DomainError("cutoffs must be >= 2 positive increasing radii")
    if cuts[-1] > 300.0:
        raise DomainError("cutoff beyond 300 would overflow e^(2*rho)")

    lam = precision.to_float(f.lam)
    nodes, weights = np.polynomial.legendre.leggauss(max(240, int(4 * cuts[-1])))

    def one(r):
        rho = 0.5 * r * (nodes + 1.0)
        vals = rho ** (2.0 * lam - 2.0) * np.exp(2.0 * rho) * f.polynomial(rho) ** 2
        return 0.5 * r * float(np.dot(weights, vals))

    return np.asarray([one(r) for r in cuts])


def divergence_check(f: LadderFunction, cutoffs) -> VerificationReport:
    """Non-normalizability of a negative-branch member, by direct quadrature.

    Truncated norms must increase strictly and beat the lower bound
    N(R2)/N(R1) > e^(R2-R1); the measured growth is ~ e^(2*(R2-R1)).
    """
    cuts = np.asarray(list(cutoffs), dtype=float)
    norms = truncated_norms(f, cuts)
    report = VerificationReport(
        f"negative-branch norm growth, lam={precision.to_float(f.lam):.6f}, "
        f"mu={precision.to_float(f.mu):.6f}")
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
