"""Ladder family and non-unitary su(2) operator algebra.

Members of the family are functions of the dimensionless radius rho,

    P(rho) = rho**(lam - 1/2) * exp(-rho) * q(rho),        positive branch
    P(rho) = rho**(lam - 1/2) * exp(+rho) * q(rho),        negative branch

with q a polynomial.  Only the positive branch (phase labels mu = lam + k,
k = 0, 1, ...) is normalizable; the negative branch (mu = -lam - k) exists
algebraically but its truncated norms blow up, see oracle.divergence_check.

The three generators satisfy su(2) commutation relations but the
representation is non-unitary: Omega_1 and Omega_2 are anti-Hermitian under
the x-measure inner product integral(f*g, drho/rho), so the ladder
normalization constants come with a sign asymmetry,

    raise:  Omega_+ V(mu) = C_plus(mu)  V(mu+1),  C_plus  = +sqrt(mu*(mu+1) - omega)
    lower:  Omega_- V(mu) = C_minus(mu) V(mu-1),  C_minus = -sqrt(mu*(mu-1) - omega)

with omega = lam*(lam - 1) the Casimir eigenvalue.  With these signs the
normalized raising map preserves unit norm and lower(raise(f)) == f exactly.

Reduced to the polynomial part q, the operators act as

    raise action:  rho*q' - 2*rho*q + (lam + mu)*q        (degree +1)
    lower action:  rho*q' + (lam - mu)*q                  (degree -1)

and the Casimir as D1(D1 q) + 2*mu*rho*q - rho^2*q - q/4 with
D1 = rho*d/drho + (lam - 1/2 -+ rho) (sign tied to the branch).

q is stored as its coefficients e_n on the orthonormal Laguerre functions
b_n = 2**(a/2) L_n^(a)(2*rho) / h_n, a = 2*lam - 1, h_n**2 = Gamma(n+a+1)/n!
(DLMF 18.9), each of squared norm 1/2 under rho**a exp(-2*rho).  Every action
above is composed from two banded primitives, with beta_n = sqrt(n*(n + a)),

    rho * b_n           = ((2n + a + 1) b_n - beta_(n+1) b_(n+1) - beta_n b_(n-1)) / 2
    rho * d/drho b_n    = n b_n - beta_n b_(n-1)

so raising b_n gives beta_(n+1) b_(n+1) + (mu - lam - n) b_n.  On the rank-n
member mu - lam - n = 0 and C_plus(lam + n) = beta_(n+1), so normalized
raising is the basis shift: the rank-k unit member is sqrt(a) b_k, and
raise_to_rank climbs on the top coefficient alone in O(k); apply_raising keeps
the full action, which the algebra checks exercise.  A member's raw raising,
lowering and Casimir actions at its own mu are each computed once, on first
read, and kept with it.  The primitives skip exact-zero coefficients, so an
action's work follows the member's nonzero band (psi_plus, F, G: the top two),
not k.  The lam-only numbers (beta_n, the _tails ratios, b_0) are tables of the
tower, formed once per lam and working precision (_tower), not per member.
Both norms are sums of nonnegative terms of order one (rho measure: sum e_n**2
/ 2; x measure: _x_norm_sq), so float64 and mpmath coefficients share one code
path.  Values come from the recurrence beta_n b_n = (2n - 1 + a - x) b_(n-1) -
beta_(n-1) b_(n-2) in x = 2*rho (_evaluate_q), whose start b_0 is the one place
Gamma and 2**a enter, as Gamma values (normal in float64 up to lam ~ 171.16).
The weight is one formula for every rho, its fourth root squared twice
(LadderFunction._weight).  Zeros of two-term members are eigenvalues of a
symmetric Jacobi matrix, certified by a Sturm count of its pivots with no value
of q; members of one tower share one pass (LadderFunction.zeros).
"""

from __future__ import annotations

import itertools
import math
import sys
import threading
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from . import precision
from .errors import (
    DomainError,
    NotAnEigenfunction,
    PrecisionLoss,
    WrongBranch,
)
from .report import VerificationReport

__all__ = [
    "LadderFunction", "OperatorMatrix", "ground_ladder_function",
    "negative_branch_ground", "c_plus", "c_minus", "apply_raising",
    "apply_lowering", "apply_omega3", "apply_casimir", "commutator_check",
    "positive_operator_check", "matrix_representation", "raise_to_rank",
]

_CASIMIR_REL_TOL = 1e-8    # apply_casimir's eigenfunction test
_TABLE_CELLS = 1 << 19     # cap on _evaluate_q's basis table (4 MiB of float64)


# ---------------------------------------------------------------------------
# coefficient vectors on b_n, a = 2*lam - 1

def _combine(*terms):
    """Sum of factor * coeffs over (factor, coeffs) pairs, zero-padded; exact
    zeros add nothing and are skipped (a NaN is not zero)."""
    out = [terms[0][1][0] * 0] * max(len(coeffs) for _, coeffs in terms)
    for factor, coeffs in terms:
        for n, c in enumerate(coeffs):
            if c:
                out[n] += factor * c
    return out


def _sup(values):
    """max |v|, or a NaN among the values (max alone keeps a NaN only in first place)."""
    return next((v for v in values if v != v), None) or max(abs(v) for v in values)


def _rel_dev(a, b, scale) -> float:
    """max |a - b| over zero-padded coefficient vectors, divided by scale."""
    return float(_sup(_combine((1, a), (-1, b))) / scale)


class _Tower:
    """The lam-only numbers of one tower at one working precision, each formed once,
    grown on demand (callers only index them): beta_n = sqrt(n*(n + a)), the _tails
    ratios sqrt((n+1)/(n+1+a)) and b_0 (_ground_value)."""

    def __init__(self, lam):
        self.lam, self.a, self.beta, self.ratio = lam, 2 * lam - 1, [], []
        self.lock = threading.Lock()    # callers in other threads share the tables

    def grow(self, size):
        with self.lock:
            for n in range(len(self.beta), size):
                self.beta.append(precision.sqrt(n * (n + self.a)))
                self.ratio.append(precision.sqrt((n + 1) / (n + 1 + self.a)))
        return self

    b0 = cached_property(lambda self: _ground_value(self.lam))


@lru_cache(maxsize=32, typed=True)     # bounded: a few towers' tables
def _tower_at(lam, bits):
    return _Tower(lam)


def _tower(lam, size=0):
    """lam's _Tower at the working precision, grown to size; an mpmath lam keys on
    mp.prec too, as equal values at two precisions hash alike.  A tower long
    enough is returned without the lock: its lists only grow, and grow appends
    to ratio last, so len(ratio) entries of both lists are already in place."""
    tower = _tower_at(lam, precision.bits(lam))
    return tower if len(tower.ratio) >= size else tower.grow(size)


def _times_rho(lam, beta, coeffs):
    # rho*b_n = ((2n + a + 1) b_n - beta_(n+1) b_(n+1) - beta_n b_(n-1)) / 2
    a = 2 * lam - 1
    out = [coeffs[0] * 0] * (len(coeffs) + 1)
    for n, c in enumerate(coeffs):
        if not c:
            continue
        out[n] += (2 * n + a + 1) * c / 2
        out[n + 1] -= beta[n + 1] * c / 2
        if n:
            out[n - 1] -= beta[n] * c / 2
    return out


def _rho_d(beta, coeffs):
    # rho * d/drho b_n = n b_n - beta_n b_(n-1)
    out = [n * c if c else c for n, c in enumerate(coeffs)]
    for n in range(1, len(coeffs)):
        if coeffs[n]:
            out[n - 1] -= beta[n] * coeffs[n]
    return out


def _raising_action(lam, mu, coeffs):
    # rho*q' - 2*rho*q + (lam + mu)*q
    beta = _tower(lam, len(coeffs) + 1).beta
    return _combine((1, _rho_d(beta, coeffs)), (-2, _times_rho(lam, beta, coeffs)),
                    (lam + mu, coeffs))


def _lowering_action(lam, mu, coeffs):
    # rho*q' + (lam - mu)*q
    return _combine((1, _rho_d(_tower(lam, len(coeffs)).beta, coeffs)), (lam - mu, coeffs))


def _weighted_derivative_action(lam, beta, coeffs, branch_sign):
    # D1 q = rho*q' + (lam - 1/2)*q + branch_sign*rho*q
    return _combine((1, _rho_d(beta, coeffs)), (lam - 0.5, coeffs),
                    (branch_sign, _times_rho(lam, beta, coeffs)))


def _casimir_action(lam, mu, coeffs, branch):
    sign = -1.0 if branch == "positive" else 1.0
    beta = _tower(lam, len(coeffs) + 2).beta
    d1 = _weighted_derivative_action(lam, beta, coeffs, sign)
    rho_q = _times_rho(lam, beta, coeffs)
    return _combine((1, _weighted_derivative_action(lam, beta, d1, sign)), (2 * mu, rho_q),
                    (-1, _times_rho(lam, beta, rho_q)), (-0.25, coeffs))


def _tails(lam, coeffs):
    """W_i = sum_(n > i) e_n h_i/h_n = sqrt((i+1)/(i+1+a)) (e_(i+1) + W_(i+1)).

    q' = -2 sum_i W_i b_i, as d/dx L_n^(a) = -sum_(i<n) L_i^(a).  As L_m^(a) =
    sum_(i<=m) L_i^(a-1), V_i / sqrt(i + a), V_i = e_i + W_i, are q's
    coefficients on the functions orthonormal under rho**(a-1) exp(-2*rho).
    """
    ratio, tails = _tower(lam, len(coeffs)).ratio, [coeffs[0] * 0] * len(coeffs)
    for i in range(len(coeffs) - 2, -1, -1):
        tails[i] = ratio[i] * (coeffs[i + 1] + tails[i + 1])
    return tails


def _x_norm_sq(lam, coeffs):
    """integral rho**(a-1) exp(-2*rho) q**2 drho = sum_i V_i**2 / (i + a) (_tails)."""
    a, tails = 2 * lam - 1, _tails(lam, coeffs)
    return sum((c + t) ** 2 / (i + a) for i, (c, t) in enumerate(zip(coeffs, tails)))


def _ground_value(lam):
    """b_0 = 2**(a/2) / sqrt(Gamma(a + 1)) = pi**(1/4) / sqrt(Gamma(lam) Gamma(lam + 1/2)),
    as sqrt(Gamma(1/2)/Gamma(lam)) / sqrt(Gamma(lam - 1/2)) / sqrt(lam - 1/2): no factor
    overflows while b_0 is normal.  PrecisionLoss when a float64 b_0 is not normal
    (lam >~ 171.16): every b_n would be built on a start that has lost its digits.
    """
    b0 = (precision.sqrt(precision.gamma(lam * 0 + 0.5) / precision.gamma(lam))
          / precision.sqrt(precision.gamma(lam - 0.5)) / precision.sqrt(lam - 0.5))
    if not (precision.is_extended(b0) or b0 >= sys.float_info.min):
        raise PrecisionLoss(f"b_0 = {b0!r} at lam = {float(lam)!r} is not a normal float64")
    return b0


def _evaluate_q(lam, rows, rho):
    """q(rho) for each coefficient row, at a float, mpmath scalar or numpy array.

    rho is taken in blocks of columns: the forward recurrence in x = 2*rho,
    from b_0 (_ground_value), writes b_n(x) into row n of one basis table of
    at most _TABLE_CELLS values, in place on row views split once per block,
    with one scratch row for its beta_(n-1) b_(n-2) term; each row's q is one
    dot product of its coefficients with the table's first len(row) rows.  An
    array rho is float64 throughout (lam and rows rounded to it); a scalar rho
    is one column of dtype object, so float and mpmath scalars keep their own
    arithmetic.  One dot per row, not one matrix product for all, so a row's
    values are the same bits with or without other rows of no greater length
    (the longest row sets the block width).  A point's value can move in its
    last bit with the grid it comes in, since the dot's rounding may depend
    on where its column sits in the block.
    """
    if isinstance(rho, np.ndarray):
        dtype, lam, x = float, float(lam), 2.0 * rho.ravel()
    else:
        dtype, x = object, np.array([2.0 * rho], dtype=object)
    rows = [np.array(row, dtype=dtype) for row in rows]
    terms = max(row.size for row in rows)
    tower = _tower(lam, terms)
    a, b0, beta = tower.a, tower.b0, tower.beta
    width = max(1, _TABLE_CELLS // terms)
    cells = np.empty(terms * min(width, x.size), dtype)
    spare = np.empty(min(width, x.size), dtype)
    values = [np.empty(x.size, dtype) for _ in rows]
    for start in range(0, x.size, width):
        block = x[start:start + width]
        table = cells[:terms * block.size].reshape(terms, block.size)
        basis = list(table)     # row views, split once: in-place steps write the table
        scratch = spare[:block.size]
        basis[0][:] = b0
        for n in range(1, terms):
            cur = basis[n]
            np.subtract(2 * n - 1 + a, block, out=cur)
            cur *= basis[n - 1]
            if n > 1:
                np.multiply(beta[n - 1], basis[n - 2], out=scratch)
                cur -= scratch
            cur /= beta[n]
        for row, value in zip(rows, values):
            np.dot(row, table[:row.size], out=value[start:start + block.size])
    if dtype is object:
        return [value[0] for value in values]
    return [value.reshape(rho.shape) for value in values]


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LadderFunction:
    """One member of the ladder family, stored as its polynomial part.

    coeffs holds q on the orthonormal Laguerre functions b_n of the module
    docstring, q = sum_n e_n b_n; a member of rank k has k + 1 coefficients.
    lam and mu may be floats or mpmath scalars (the latter keeps every
    derived quantity at extended precision).  The raw actions at the member's
    own mu (_raised, _lowered, _casimir) are computed once, on first read, at
    the working precision of that read, and kept with the member.
    """

    lam: float
    mu: float
    coeffs: tuple
    branch: str = "positive"

    def __post_init__(self):
        if self.branch not in ("positive", "negative"):
            raise DomainError(f"branch must be 'positive' or 'negative', got {self.branch!r}")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def rank(self) -> int:
        """k = |mu| - lam rounded to the nearest integer."""
        return round(abs(float(self.mu)) - float(self.lam))

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    @cached_property
    def _raised(self) -> tuple:
        """Coefficients of the raw raising action at mu (one more than coeffs)."""
        return tuple(_raising_action(self.lam, self.mu, self.coeffs))

    @cached_property
    def _lowered(self) -> tuple:
        """Coefficients of the raw lowering action at mu (as many as coeffs)."""
        return tuple(_lowering_action(self.lam, self.mu, self.coeffs))

    @cached_property
    def _casimir(self) -> tuple:
        """Coefficients of the raw Casimir action at mu, on the member's branch."""
        return tuple(_casimir_action(self.lam, self.mu, self.coeffs, self.branch))

    def polynomial(self, rho):
        """q(rho); accepts scalars (float or mpmath) and numpy arrays."""
        return _evaluate_q(self.lam, (self.coeffs,), rho)[0]

    def _weight(self, rho):
        # (w, branch sign), w = (rho**((lam - 1/2)/4) * exp(-+rho/4))**4 for float,
        # mpmath and array rho: finite wherever w is, though rho**(lam - 1/2) may
        # not be; 0 where exp(-+rho/4) underflows, without forming the power there.
        # Every evaluator checks its radii here, as all(rho > 0): NaN fails too.
        # PrecisionLoss where a float64 w overflows (negative branch, rho >~ 700).
        sign, array = -1.0 if self.branch == "positive" else 1.0, isinstance(rho, np.ndarray)
        if not ((rho > 0).all() if array else rho > 0):
            raise DomainError("rho must be positive" + ("" if array else f", got {rho}"))
        lam, exp = (float(self.lam), np.exp) if array else (self.lam, precision.exp)
        try:
            with np.errstate(over="ignore"):
                decay = exp(sign / 4 * rho)
                base = np.where(decay > 0, rho, 1.0) if array else (rho if decay > 0 else 1.0)
                root = base ** ((lam - 0.5) / 4) * decay
                root = root * root
                root = root * root
        except OverflowError:
            root = math.inf
        if not ((root < math.inf).all() if array else root < math.inf):
            raise PrecisionLoss(f"the weight overflows float64 at lam = {float(lam)!r}")
        return root, sign

    def evaluate(self, rho):
        """P(rho) including the rho**(lam-1/2)*exp(-+rho) weight; q first, so a
        float64 lam past b_0's range raises PrecisionLoss before the power can overflow."""
        q = self.polynomial(rho)
        return self._weight(rho)[0] * q

    def evaluate_with_derivative(self, rho):
        """(P, dP/drho), exact; q and q' come from one pass (_evaluate_with_derivatives)."""
        return _evaluate_with_derivatives((self,), rho)[0]

    def zeros(self, lo, hi) -> np.ndarray:
        """Zeros of q (hence of P) with lo < rho < hi, ascending, in float64.

        q must be two-term, e_(k-1) b_(k-1) + e_k b_k once trailing zeros are
        trimmed (every F, G and raised member); any other member, or zero,
        raises DomainError.  At a zero x = 2*rho, b_k = -(e_(k-1)/e_k) b_(k-1)
        closes rows 0..k-1 of the recurrence: the zeros are the eigenvalues
        (real, simple: q is quasi-orthogonal, Chihara 1978) of the symmetric
        Jacobi matrix T with diagonal d_n = 2n + a + 1, off-diagonal beta_n,
        n < k, and d_(k-1) raised by beta_k e_(k-1)/e_k.  Certificate: T has
        as many eigenvalues below x as T - x*I has negative pivots (Sturm
        sequence; Barth, Martin & Wilkinson 1967), ratios no k overflows, at
        the fences 2*lo, the midpoints between eigvalsh's eigenvalues inside
        and 2*hi; the recursion also runs at each such x and x*(1 + 1e-6),
        in the differential form of T = L D L^T (c_n = d_n - n, c_n l_n**2 =
        n + 1; Dhillon & Parlett 2004) that keeps small zeros' relative
        digits; a pivot under pivmin counts as -pivmin (LAPACK's dstebz).  One
        secant step on p_(k-1) removes eigvalsh's absolute error (to 2e-13 on
        small zeros).  PrecisionLoss unless each fence interval holds one
        eigenvalue and its polished zero, an empty window none (_zeros).
        """
        found, = _zeros((self,), lo, hi)
        if isinstance(found, Exception):
            raise found
        return found

    def norm_squared(self):
        """Exact x-measure norm integral (positive branch only)."""
        if self.branch != "positive":
            raise WrongBranch("negative-branch norms diverge; see divergence_check")
        return _x_norm_sq(self.lam, self.coeffs)

    def rho_norm_squared(self):
        """Exact rho-measure norm integral P**2 drho (positive branch only).

        The weight rho**(2*lam-1) * exp(-2*rho) is the basis's own orthogonality
        weight, under which each b_n has squared norm 1/2: sum e_n**2 / 2.
        """
        if self.branch != "positive":
            raise WrongBranch("negative-branch norms diverge; see divergence_check")
        return sum(c * c for c in self.coeffs) / 2


def _zeros(members, lo, hi) -> list:
    """LadderFunction.zeros of members of one tower, each its zeros or the error that
    refuses them.  Members of one degree k differ in c_(k-1) alone: one eigvalsh
    call on their stack, one Sturm recursion over all their columns."""
    a, found, stacks = 2 * float(members[0].lam) - 1, [], {}
    for f in members:
        coeffs = [float(c) for c in f.coeffs]  # Python floats: an overflow is inf, no warning
        nonzero = [n for n, c in enumerate(coeffs) if c]   # a NaN is not zero
        k = nonzero[-1] if nonzero else -1
        if k < 0 or nonzero[0] < k - 1:
            found.append(DomainError("zeros need a nonzero member, nonzero on its top two "
                                     "terms only"))
        elif k == 0:
            found.append(np.empty(0))
        else:       # c_(k-1) = d_(k-1) - (k - 1), raised by beta_k e_(k-1)/e_k
            last = k - 1 + a + 1.0 + math.sqrt(k * (k + a)) * coeffs[k - 1] / coeffs[k]
            if math.isfinite(last):
                stacks.setdefault(k, []).append(len(found))
            found.append(last if math.isfinite(last) else PrecisionLoss(
                f"the Jacobi matrix of a degree-{k} member is not finite"))
    for k, stack in stacks.items():
        n, lasts = np.arange(k), np.array([found[i] for i in stack])
        base = n + a + 1.0          # c_n; eigvalsh reads the lower triangle
        jacobi = np.zeros((len(stack), k, k))
        jacobi[:, n, n], jacobi[:, n[1:], n[:-1]] = base + n, np.sqrt(n[1:] * (n[1:] + a))
        jacobi[:, -1, -1] = lasts + (k - 1)
        xs = [x[(x > 2 * lo) & (x < 2 * hi)] for x in np.linalg.eigvalsh(jacobi)]
        points = [np.concatenate((x, x + x * 1e-6, [2 * lo], (x[1:] + x[:-1]) / 2, [2 * hi]))
                  for x in xs]
        sizes = [p.size for p in points]
        points = np.concatenate(points)
        s, pivmin = -points, sys.float_info.min * max(1.0, k * (k + a))
        pivots = np.empty((k, points.size))
        for i, c in enumerate(base[:-1].tolist() + [lasts.repeat(sizes)]):
            p = np.add(s, c, out=pivots[i])     # p_n = c_n + s_n
            np.copyto(p, -pivmin, where=np.abs(p) < pivmin)
            if i < k - 1:                       # s_(n+1) = (n+1) s_n/p_n - x
                s *= (i + 1) / p
                s -= points
        for i, x, end, size in zip(stack, xs, itertools.accumulate(sizes), sizes):
            own, cols, m = pivots[:, end - size:end], points[end - size:end], x.size
            x = x - (cols[m:2 * m] - x) * own[-1, :m] / (own[-1, m:2 * m] - own[-1, :m])
            counts, fences = (own[:, 2 * m:] < 0).sum(axis=0), cols[2 * m:]
            certified = ((counts[1:] - counts[:-1] == min(m, 1)).all()
                         and (fences[:-1] < x).all() and (x < fences[1:]).all())
            found[i] = x / 2 if certified else PrecisionLoss(
                f"{m} zeros of a degree-{k} member failed the Sturm count on ({lo}, {hi})")
    return found


def _evaluate_with_derivatives(members, rho):
    """(P, dP/drho) of each member; the members share lam and the branch.

    dP/drho = w * (q' + ((lam - 1/2)/rho -+ 1) * q), q' = -2 * sum_i W_i b_i
    (_tails); one weight w, one _evaluate_q pass, run first as in LadderFunction.evaluate.
    """
    lam = float(members[0].lam) if isinstance(rho, np.ndarray) else members[0].lam
    rows = [row for f in members for row in (f.coeffs, _tails(lam, f.coeffs))]
    values, (weight, sign) = _evaluate_q(lam, rows, rho), members[0]._weight(rho)
    factor = (lam - 0.5) / rho + sign
    return [(weight * q, weight * (-2 * t + factor * q))
            for q, t in zip(values[::2], values[1::2])]


def _require_lam(lam):
    # written as 1/2 < lam < inf so that nan fails too
    if not 0.5 < float(lam) < math.inf:
        raise DomainError(f"lam must be finite and exceed 1/2, got {lam}")


def ground_ladder_function(lam) -> LadderFunction:
    """Bottom of the positive tower, mu = lam, exactly unit-normalized.

    q = sqrt(2*lam - 1) b_0, the constant 2**(lam - 1/2) / sqrt(Gamma(2*lam - 1)).
    """
    _require_lam(lam)
    return LadderFunction(lam=lam, mu=lam, coeffs=(precision.sqrt(2 * lam - 1),))


def negative_branch_ground(lam) -> LadderFunction:
    """Top of the negative tower, mu = -lam: rho**(lam-1/2)*exp(+rho).

    Annihilated by raising, not normalizable; amplitude convention q = 1,
    the coefficient 1/b_0.
    """
    _require_lam(lam)
    return LadderFunction(lam, -lam, (1 / _tower(lam).b0,), branch="negative")


def _require_positive_branch(f: LadderFunction):
    if f.branch != "positive":
        raise WrongBranch(
            "ladder recurrences are implemented for the positive branch only")


def c_plus(lam, mu):
    """Raising normalization +sqrt(mu*(mu+1) - lam*(lam-1))."""
    return precision.sqrt(mu * (mu + 1) - lam * (lam - 1))


def c_minus(lam, mu):
    """Lowering normalization -sqrt(mu*(mu-1) - lam*(lam-1))."""
    return -precision.sqrt(mu * (mu - 1) - lam * (lam - 1))


def apply_raising(f: LadderFunction):
    """Normalized raising: returns (member at mu+1, C_plus).

    Unit norm is preserved.  On the rank-k member e_k b_k the result is
    e_k beta_(k+1) / C_plus * b_(k+1), up to rounding in the lower coefficients.
    """
    _require_positive_branch(f)
    coeff = c_plus(f.lam, f.mu)
    new = tuple(c / coeff for c in f._raised)
    return LadderFunction(f.lam, f.mu + 1, new, f.branch), coeff


def apply_lowering(f: LadderFunction):
    """Normalized lowering: returns (member at mu-1, C_minus).

    At the bottom of the tower (mu == lam) the action annihilates: the
    returned function is identically zero and the coefficient is 0.  Above
    it, the top coefficient of the action is (rank + lam - mu) * e_top = 0,
    so it is dropped and the result has one coefficient fewer.
    """
    _require_positive_branch(f)
    if f.rank == 0:
        # C_minus vanishes with the action itself; keep 0/0 out of the code path
        zero = tuple(c * 0 for c in f.coeffs)
        return LadderFunction(f.lam, f.mu - 1, zero, f.branch), f.lam * 0
    coeff = c_minus(f.lam, f.mu)
    new = tuple(c / coeff for c in f._lowered[:-1])
    return LadderFunction(f.lam, f.mu - 1, new, f.branch), coeff


def raise_to_rank(ground: LadderFunction, k: int) -> LadderFunction:
    """Climb k rungs from a member e_n b_n; k must be a nonnegative int.

    Each rung maps e_n b_n to e_n beta_(n+1) / C_plus(mu) b_(n+1) and mu to
    mu + 1, so only the top coefficient is carried: O(k) work, not the O(k^2)
    of k apply_raising calls, with the same top coefficient and mu bit for
    bit.  The lower coefficients, rounding residue in apply_raising, are exact
    zeros here; a member's lower coefficients are not read.
    """
    if not isinstance(k, int) or isinstance(k, bool) or k < 0:
        raise DomainError(f"rank must be a nonnegative integer, got {k!r}")
    _require_positive_branch(ground)
    lam, mu, c, n = ground.lam, ground.mu, ground.coeffs[-1], ground.degree
    beta = _tower(lam, n + k + 1).beta
    for _ in range(k):
        n += 1
        c = c * beta[n] / c_plus(lam, mu)
        mu = mu + 1
    return LadderFunction(lam, mu, (c * 0,) * n + (c,), ground.branch)


def apply_omega3(f: LadderFunction):
    """Weight operator: eigenvalue is the phase label itself."""
    return f, f.mu


def apply_casimir(f: LadderFunction):
    """Apply the quadratic invariant; returns (f, measured eigenvalue).

    Raises NotAnEigenfunction when the residual against omega*q exceeds
    _CASIMIR_REL_TOL (1e-8) relative to the largest coefficient of q.  The
    raw action is the member's own, computed once (commutator_check reads it
    too).
    """
    if f.is_zero:
        raise DomainError("casimir eigenvalue of the zero function is undefined")
    raw = f._casimir
    omega = f.lam * (f.lam - 1)
    deviation = _rel_dev(raw, _combine((omega, f.coeffs)),
                         _sup(f.coeffs))
    if not deviation <= _CASIMIR_REL_TOL:
        raise NotAnEigenfunction(
            f"casimir residual {deviation:.3e} exceeds {_CASIMIR_REL_TOL:.1e}")
    # projection <Cq, q>/<q, q> over coefficient vectors
    num = sum(raw[i] * c for i, c in enumerate(f.coeffs))
    den = sum(c * c for c in f.coeffs)
    return f, num / den


def commutator_check(f: LadderFunction, tolerance: float = 1e-10) -> VerificationReport:
    """Verify the su(2) relations on a concrete member, via raw actions.

    Checks, all as relative coefficient deviations:
      1. (raise.lower - lower.raise) q == 2*mu*q
      2. lower.raise q == -(mu*(mu+1) - omega)*q
      3. casimir q == (lower.raise + mu^2 + mu) q

    The raising, lowering and Casimir actions on q at mu are the member's
    own, computed once per member and shared with apply_casimir and
    positive_operator_check; the second rung of each product is computed
    here.
    """
    _require_positive_branch(f)
    lam, mu, q = f.lam, f.mu, f.coeffs
    report = VerificationReport(f"su(2) relations at lam={float(lam):.6f}, mu={float(mu):.6f}")
    scale = _sup(q)

    down = f._lowered
    up_down = _raising_action(lam, mu - 1, down)
    up = f._raised
    down_up = _lowering_action(lam, mu + 1, up)

    comm = _combine((1, up_down), (-1, down_up))
    report.add("[raise, lower] acts as 2*mu",
               _rel_dev(comm, _combine((2 * mu, q)), scale), tolerance)

    # weight operator multiplies by the operand's label: on raise(f) that is
    # mu+1, so [weight, raise] f = (mu+1)*up - mu*up must equal up itself
    weight_comm = _combine((mu + 1, up), (-mu, up))
    report.add("[weight, raise] acts as raise", _rel_dev(weight_comm, up, scale),
               tolerance)

    eigen = -(mu * (mu + 1) - lam * (lam - 1))
    report.add("lower.raise acts as -(mu*(mu+1) - omega)",
               _rel_dev(down_up, _combine((eigen, q)), scale), tolerance)

    casimir = f._casimir
    ladder_side = _combine((1, down_up), (mu * mu + mu, q))
    report.add("casimir == lower.raise + weight*(weight+1)",
               _rel_dev(casimir, ladder_side, scale), tolerance)
    return report


def positive_operator_check(f: LadderFunction):
    """The positive quadratic form 2*mu^2 - omega, measured on f.

    Returns (|raise f|^2 + |lower f|^2)/2 + mu^2*|f|^2 normalized by |f|^2,
    each norm exact in the Laguerre basis.  For family members this equals
    the sum of the three squared generator norms, whose label value
    2*mu^2 - omega is strictly positive (it bounds mu away from zero).  The
    raising and lowering actions are the member's own, computed once per
    member (commutator_check reads them too).
    """
    _require_positive_branch(f)
    lam, mu = f.lam, f.mu
    nf, n_up, n_down = (_x_norm_sq(lam, c) for c in (f.coeffs, f._raised, f._lowered))
    return ((n_up + n_down) / 2 + mu * mu * nf) / nf


# ---------------------------------------------------------------------------
# truncated matrix representation on both towers


@dataclass(frozen=True)
class OperatorMatrix:
    which: str
    lam: float
    basis_mus: tuple
    entries: np.ndarray


def matrix_representation(which: str, lam, K: int) -> OperatorMatrix:
    """Truncated matrix of omega1|omega2|omega3 on both towers.

    Basis: mu in {-(lam+K), ..., -lam, lam, ..., lam+K}, ascending.  The
    element between adjacent labels mu and mu + 1 is C_plus(mu)/2.  The two
    towers stay disconnected because the raising element out of mu = -lam
    vanishes identically.  omega1 comes out real antisymmetric, omega2
    purely imaginary symmetric (both anti-Hermitian), omega3 real diagonal.
    """
    if which not in ("omega1", "omega2", "omega3"):
        raise DomainError(f"which must be omega1|omega2|omega3, got {which!r}")
    if not isinstance(K, int) or isinstance(K, bool) or K < 1:
        raise DomainError(f"K must be a positive integer, got {K!r}")
    _require_lam(lam)
    lam_f = float(lam)

    mus = [-(lam_f + k) for k in range(K, -1, -1)] + [lam_f + k for k in range(K + 1)]
    if which == "omega3":
        entries = np.diag(np.asarray(mus, dtype=complex))
        return OperatorMatrix(which, lam_f, tuple(mus), entries)

    # One amplitude per adjacent pair, written into both mirror entries, so
    # the advertised symmetry classes hold exactly and not just to roundoff.
    # Out of mu = -lam the radicand of C_plus, (-lam)*(-lam + 1) - lam*(lam - 1),
    # is exactly 0 in float64: the two products round to the same number.
    amps = [0.5 * c_plus(lam_f, mu) for mu in mus[:-1]]
    below = np.diag(np.array(amps, dtype=complex), -1)
    entries = below - below.T if which == "omega1" else -1j * (below + below.T)
    return OperatorMatrix(which, lam_f, tuple(mus), entries)
