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

q is stored as its coefficients c_n on the generalized Laguerre polynomials
L_n = L_n^(a)(2*rho), a = 2*lam - 1 (DLMF 18.9, 18.18).  The rank-k member
is a single basis vector, q = c_k L_k.  Every action above is composed from
two banded primitives on these coefficients,

    rho * L_n           = ((2n + a + 1) L_n - (n + 1) L_(n+1) - (n + a) L_(n-1)) / 2
    rho * d/drho L_n    = n L_n - (n + a) L_(n-1)

so raising L_n gives (n + 1) L_(n+1) + (mu - lam - n) L_n.  On the rank-n
member mu - lam - n = 0, so raise_to_rank climbs on the top coefficient
alone, c_(n+1) = c_n (n + 1) / C_plus(mu), in O(k); apply_raising keeps the
full action, which the algebra checks exercise.  A member's raw raising,
lowering and Casimir actions at its own mu are each computed once per member,
on first read, and kept with it: apply_raising, apply_lowering, apply_casimir,
commutator_check and positive_operator_check all read these.  Values come
from the forward three-term recurrence: at a scalar radius (float or mpmath)
it adds each term as it goes, and on an array it fills a table of basis
values, in column blocks of bounded size, against which each coefficient row
is one dot product.  The x-measure norm is a sum of nonnegative terms, so float64
and mpmath coefficients share one code path for it.
Zeros come from a comrade matrix, fenced and certified by signs of q from
the same pass that takes the first Newton step (LadderFunction.zeros).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

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
_NEWTON_STEPS = 3          # cap on the Newton polish in LadderFunction.zeros
_TABLE_CELLS = 1 << 19     # cap on _evaluate_q's basis table (4 MiB of float64)


# ---------------------------------------------------------------------------
# coefficient vectors on L_n^(a)(2*rho), a = 2*lam - 1

def _combine(*terms):
    """Sum of factor * coeffs over (factor, coeffs) pairs, zero-padded."""
    out = [terms[0][1][0] * 0] * max(len(coeffs) for _, coeffs in terms)
    for factor, coeffs in terms:
        for n, c in enumerate(coeffs):
            out[n] += factor * c
    return out


def _rel_dev(a, b, scale) -> float:
    """max |a - b| over zero-padded coefficient vectors, divided by scale."""
    return float(max(abs(c) for c in _combine((1, a), (-1, b))) / scale)


def _times_rho(lam, coeffs):
    # rho*L_n = ((2n + a + 1) L_n - (n + 1) L_(n+1) - (n + a) L_(n-1)) / 2
    a = 2 * lam - 1
    out = [coeffs[0] * 0] * (len(coeffs) + 1)
    for n, c in enumerate(coeffs):
        out[n] += (2 * n + a + 1) * c / 2
        out[n + 1] -= (n + 1) * c / 2
        if n:
            out[n - 1] -= (n + a) * c / 2
    return out


def _rho_d(lam, coeffs):
    # rho * d/drho L_n = n L_n - (n + a) L_(n-1)
    a = 2 * lam - 1
    out = [n * c for n, c in enumerate(coeffs)]
    for n in range(1, len(coeffs)):
        out[n - 1] -= (n + a) * coeffs[n]
    return out


def _raising_action(lam, mu, coeffs):
    # rho*q' - 2*rho*q + (lam + mu)*q
    return _combine((1, _rho_d(lam, coeffs)), (-2, _times_rho(lam, coeffs)),
                    (lam + mu, coeffs))


def _lowering_action(lam, mu, coeffs):
    # rho*q' + (lam - mu)*q
    return _combine((1, _rho_d(lam, coeffs)), (lam - mu, coeffs))


def _weighted_derivative_action(lam, coeffs, branch_sign):
    # D1 q = rho*q' + (lam - 1/2)*q + branch_sign*rho*q
    return _combine((1, _rho_d(lam, coeffs)), (lam - 0.5, coeffs),
                    (branch_sign, _times_rho(lam, coeffs)))


def _casimir_action(lam, mu, coeffs, branch):
    sign = -1.0 if branch == "positive" else 1.0
    d1 = _weighted_derivative_action(lam, coeffs, sign)
    rho_q = _times_rho(lam, coeffs)
    return _combine((1, _weighted_derivative_action(lam, d1, sign)), (2 * mu, rho_q),
                    (-1, _times_rho(lam, rho_q)), (-0.25, coeffs))


def _tail_sums(coeffs):
    """T_i = sum_(n >= i) c_n for i = 0 .. len(coeffs) - 1."""
    tails = list(coeffs)
    for i in range(len(tails) - 2, -1, -1):
        tails[i] = tails[i] + tails[i + 1]
    return tails


def _norm_sq(coeffs, b):
    """integral rho^b exp(-2*rho) q^2 drho for q = sum_n c_n L_n^(b)(2*rho).

    The L_n^(b)(x) are orthogonal under x^b e^(-x) with squared norms
    Gamma(n+b+1)/n!, so this is sum_n c_n^2 Gamma(n+b+1) / (n! * 2^(b+1)),
    every term nonnegative.  Tail sums of coefficients on L_n^(a) are the
    coefficients on L_n^(a-1), since L_m^(a) = sum_(i<=m) L_i^(a-1).
    """
    h = precision.gamma(b + 1)
    total = coeffs[0] * 0
    for n, c in enumerate(coeffs):
        total += c * c * h
        h = h * (n + b + 1) / (n + 1)
    if not total < math.inf:    # nan fails too: an overflowed h times c = 0
        raise PrecisionLoss(f"norm sum overflows float64 at b = {float(b)!r}")
    return total / 2.0 ** (b + 1)


def _evaluate_q(lam, rows, rho):
    """q(rho) for each coefficient row, at a float, mpmath scalar or numpy array.

    The forward three-term recurrence in x = 2*rho gives L_n(x) in order n.  A
    scalar rho adds row[n] * L_n to every row as it goes.  An array rho is
    taken in blocks of columns: the recurrence writes L_n(x) into row n of one
    basis table of at most _TABLE_CELLS float64 values, in place on row views
    split once per block, with one scratch row for its (n - 1 + a) L_(n-2)
    term; each row's q is one dot product of its float64 coefficients with the
    table's first len(row) rows.  One dot per row, not one matrix product for
    all, so a row's values are the same bits with or without other rows of no
    greater length (the longest row sets the block width).  A point's value
    can move in its last bit with the grid it comes in, since the dot's
    rounding may depend on where its column sits in the block.
    """
    if not isinstance(rho, np.ndarray):
        a = 2 * lam - 1
        x = 2.0 * rho
        prev, cur = 0, x * 0 + 1
        values = [x * 0 for _ in rows]
        for n in range(max(map(len, rows))):
            if n:
                prev, cur = cur, (((2 * n - 1 + a) - x) * cur - (n - 1 + a) * prev) / n
            for i, row in enumerate(rows):
                if n < len(row):
                    values[i] += row[n] * cur
        return values
    a = 2 * float(lam) - 1
    rows = [np.array(row, dtype=float) for row in rows]
    terms = max(row.size for row in rows)
    x = 2.0 * rho.ravel()
    width = max(1, _TABLE_CELLS // terms)
    cells = np.empty(terms * min(width, x.size))
    spare = np.empty(min(width, x.size))
    values = [np.empty(x.size) for _ in rows]
    for start in range(0, x.size, width):
        block = x[start:start + width]
        table = cells[:terms * block.size].reshape(terms, block.size)
        basis = list(table)     # row views, split once: in-place steps write the table
        scratch = spare[:block.size]
        np.multiply(block, 0, out=basis[0])
        basis[0] += 1
        for n in range(1, terms):
            cur = basis[n]
            np.subtract(2 * n - 1 + a, block, out=cur)
            cur *= basis[n - 1]
            if n > 1:
                np.multiply(n - 1 + a, basis[n - 2], out=scratch)
                cur -= scratch
            cur /= n
        for row, value in zip(rows, values):
            np.dot(row, table[:row.size], out=value[start:start + block.size])
    return [value.reshape(rho.shape) for value in values]


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LadderFunction:
    """One member of the ladder family, stored as its polynomial part.

    coeffs holds q on the generalized Laguerre basis, q = sum_n c_n L_n with
    L_n = L_n^(2*lam-1)(2*rho); a member of rank k has k + 1 coefficients.
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
        # (rho**(lam - 1/2) * exp(-+rho), the branch sign); every evaluator of
        # members and radial solutions checks its radii here, written as
        # all(rho > 0) so that NaN radii are rejected too
        sign = -1.0 if self.branch == "positive" else 1.0
        if isinstance(rho, np.ndarray):
            if not np.all(rho > 0):
                raise DomainError("rho must be positive")
            return rho ** (float(self.lam) - 0.5) * np.exp(sign * rho), sign
        if not rho > 0:
            raise DomainError(f"rho must be positive, got {rho}")
        return rho ** (self.lam - 0.5) * precision.exp(sign * rho), sign

    def evaluate(self, rho):
        """P(rho) including the rho**(lam-1/2)*exp(-+rho) weight."""
        weight, _ = self._weight(rho)
        return weight * self.polynomial(rho)

    def evaluate_with_derivative(self, rho):
        """(P, dP/drho), exact; q and q' come from one pass (_evaluate_with_derivatives)."""
        return _evaluate_with_derivatives((self,), rho)[0]

    def zeros(self, lo, hi) -> np.ndarray:
        """Zeros of q (hence of P) with lo < rho < hi, ascending, in float64.

        On the orthonormal basis p_n = (-1)**n L_n / h_n, h_n**2 =
        Gamma(n+a+1)/n!, x = 2*rho acts as the Jacobi matrix with diagonal
        2n + a + 1 and off-diagonal sqrt(n*(n+a)); reducing x*p_(N-1) modulo q
        subtracts sqrt(N*(N+a)) * d_m/d_N from the last column, d_m the
        coefficients of q on p_m.  The real eigenvalues of this comrade matrix
        (Barnett 1975) inside the window are fenced in by lo, the midpoints
        between consecutive eigenvalues and hi.  One Laguerre pass over the
        eigenvalues and the fences gives q and q' for the first Newton step
        and q's sign at every fence; at most _NEWTON_STEPS steps on q, not P
        (the weight underflows far out), stop once every step is below
        1e-14*rho.  Certificate: q's sign must change across every fence
        interval, and each polished zero must lie strictly inside its own
        interval, else PrecisionLoss; an uncertified list is never returned.
        numpy's overflow warnings are silenced, because the certificate
        judges them.
        """
        coeffs = [float(c) for c in self.coeffs]
        while len(coeffs) > 1 and coeffs[-1] == 0:
            coeffs.pop()
        n, a = len(coeffs) - 1, 2 * float(self.lam) - 1
        rho = np.empty(0)
        with np.errstate(over="ignore", invalid="ignore"):
            if n:
                i = np.arange(1, n + 1)
                d = np.array(coeffs) * np.sqrt(np.cumprod(np.concatenate(([1.0], (i + a) / i))))
                d[1::2] *= -1
                beta = np.sqrt(i * (i + a))
                comrade = np.diag(2.0 * i - 1 + a)
                comrade.flat[1::n + 1] = beta[:-1]     # superdiagonal
                comrade.flat[n::n + 1] = beta[:-1]     # subdiagonal
                comrade[:, -1] -= beta[-1] * d[:-1] / d[-1]
                x = np.linalg.eigvals(comrade)
                rho = x.real[np.abs(x.imag) <= 1e-8 * np.abs(x.real)] / 2
                rho = np.sort(rho[(rho > lo) & (rho < hi)])
            fences = np.concatenate(([lo], (rho[1:] + rho[:-1]) / 2, [hi]))
            tails = _tail_sums(coeffs)[1:]
            q, t = _evaluate_q(self.lam, (coeffs, tails), np.concatenate((rho, fences)))
            signs = np.sign(q[rho.size:])
            q, t = q[:rho.size], t[:rho.size]
            for step_number in range(_NEWTON_STEPS):
                if step_number:
                    q, t = _evaluate_q(self.lam, (coeffs, tails), rho)
                step = q / (-2 * t)
                rho = rho - step
                if np.all(np.abs(step) <= 1e-14 * rho):
                    break
        if not (np.all(np.abs(signs) == 1) and np.count_nonzero(np.diff(signs)) == rho.size):
            raise PrecisionLoss(f"{rho.size} zeros of a degree-{n} polynomial failed "
                                f"the sign-change certificate on ({lo}, {hi})")
        if not (np.all(fences[:-1] < rho) and np.all(rho < fences[1:])):
            raise PrecisionLoss(f"Newton polish moved a zero of a degree-{n} polynomial "
                                f"out of its sign-change interval on ({lo}, {hi})")
        return rho

    def norm_squared(self):
        """Exact x-measure norm integral (positive branch only)."""
        if self.branch != "positive":
            raise WrongBranch("negative-branch norms diverge; see divergence_check")
        return _norm_sq(_tail_sums(self.coeffs), 2 * self.lam - 2)

    def rho_norm_squared(self):
        """Exact rho-measure norm integral P**2 drho (positive branch only).

        The weight rho**(2*lam-1) * exp(-2*rho) is the orthogonality weight of
        the basis itself, so the integral is the diagonal sum _norm_sq of the
        coefficients with b = 2*lam - 1.
        """
        if self.branch != "positive":
            raise WrongBranch("negative-branch norms diverge; see divergence_check")
        return _norm_sq(self.coeffs, 2 * self.lam - 1)


def _evaluate_with_derivatives(members, rho):
    """(P, dP/drho) of each member; the members share lam and the branch.

    dP/drho = w * (q' + ((lam - 1/2)/rho -+ 1) * q), q' = -2 * sum_i T_(i+1) L_i
    as d/dx L_n^(a) = -sum_(i<n) L_i^(a); one weight w, one _evaluate_q pass.
    """
    weight, sign = members[0]._weight(rho)
    lam = float(members[0].lam) if isinstance(rho, np.ndarray) else members[0].lam
    rows = [row for f in members for row in (f.coeffs, _tail_sums(f.coeffs)[1:])]
    values, factor = _evaluate_q(lam, rows, rho), (lam - 0.5) / rho + sign
    return [(weight * q, weight * (-2 * t + factor * q))
            for q, t in zip(values[::2], values[1::2])]


def _require_lam(lam):
    # written as 1/2 < lam < inf so that nan fails too
    if not 0.5 < float(lam) < math.inf:
        raise DomainError(f"lam must be finite and exceed 1/2, got {lam}")


def ground_ladder_function(lam) -> LadderFunction:
    """Bottom of the positive tower, mu = lam, exactly unit-normalized.

    q is the constant 2**(lam - 1/2) / sqrt(Gamma(2*lam - 1)).
    """
    _require_lam(lam)
    c0 = 2.0 ** (lam - 0.5) / precision.sqrt(precision.gamma(2 * lam - 1))
    return LadderFunction(lam=lam, mu=lam, coeffs=(c0,), branch="positive")


def negative_branch_ground(lam) -> LadderFunction:
    """Top of the negative tower, mu = -lam: rho**(lam-1/2)*exp(+rho).

    Annihilated by raising, not normalizable; amplitude convention q = 1.
    """
    _require_lam(lam)
    one = lam * 0 + 1.0   # match the scalar type of lam
    return LadderFunction(lam=lam, mu=-lam, coeffs=(one,), branch="negative")


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

    Unit norm is preserved.  On the rank-k member c_k L_k the result is
    c_k (k + 1) / C_plus * L_(k+1), up to rounding in the lower coefficients.
    """
    _require_positive_branch(f)
    coeff = c_plus(f.lam, f.mu)
    new = tuple(c / coeff for c in f._raised)
    return LadderFunction(f.lam, f.mu + 1, new, f.branch), coeff


def apply_lowering(f: LadderFunction):
    """Normalized lowering: returns (member at mu-1, C_minus).

    At the bottom of the tower (mu == lam) the action annihilates: the
    returned function is identically zero and the coefficient is 0.  Above
    it, the top coefficient of the action is (rank + lam - mu) * c_top = 0,
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
    """Climb k rungs from a member c_n L_n; k must be a nonnegative int.

    Each rung maps c_n L_n to c_n (n + 1) / C_plus(mu) L_(n+1) and mu to
    mu + 1, so only the top coefficient is carried: O(k) work, not the O(k^2)
    of k apply_raising calls, with the same top coefficient and mu bit for
    bit.  The lower coefficients, rounding residue in apply_raising, are exact
    zeros here; a member's lower coefficients are not read.
    """
    if not isinstance(k, int) or isinstance(k, bool) or k < 0:
        raise DomainError(f"rank must be a nonnegative integer, got {k!r}")
    _require_positive_branch(ground)
    lam, mu, c, n = ground.lam, ground.mu, ground.coeffs[-1], ground.degree
    for _ in range(k):
        n += 1
        c = c * n / c_plus(lam, mu)
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
                         max(abs(c) for c in f.coeffs))
    if deviation > _CASIMIR_REL_TOL:
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
    scale = max(abs(c) for c in q)

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
    nf, n_up, n_down = (_norm_sq(_tail_sums(c), 2 * lam - 2)
                        for c in (f.coeffs, f._raised, f._lowered))
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
