"""Invariants of the orthonormal Laguerre coefficient basis.

The rank-k member's polynomial part is e_k b_k, b_k the orthonormal Laguerre
function of degree k in 2*rho, so the raising chain produces a single basis
vector (raise_to_rank climbs on its top coefficient alone, which stays
sqrt(2*lam - 1)), float64 stays accurate far up the tower, and nu is
computed without the cancellation in m - E.
"""

import mpmath
import pytest

from diracladder import (
    apply_raising,
    bound_energy,
    build_solution,
    count_radial_nodes,
    ground_ladder_function,
    inner_product,
    make_channel,
    ode_residual,
    raise_to_rank,
)
from diracladder.verify import CHANNEL_GRID

FINE_STRUCTURE = 0.0072973525693


def _worst_residual(sol):
    return max(c.measured for c in ode_residual(sol).checks)


def test_raising_chain_is_a_single_basis_vector():
    # the full raising action leaves only rounding residue below the top
    for j, eps, zeta in CHANNEL_GRID:
        f = ground_ladder_function(make_channel(j, eps, zeta).lam)
        for k in range(1, 21):
            f, _ = apply_raising(f)
            assert len(f.coeffs) == k + 1
            top = abs(f.coeffs[-1])
            assert max(abs(c) for c in f.coeffs[:-1]) <= 1e-14 * top, (j, zeta, k)


def test_one_coefficient_climb_matches_the_raising_chain():
    # raise_to_rank carries the top coefficient alone: it and mu equal the
    # apply_raising chain's bit for bit, from the ground or one rung at a time
    for j, eps, zeta in CHANNEL_GRID:
        ground = ground_ladder_function(make_channel(j, eps, zeta).lam)
        chain = climbed = ground
        for k in range(1, 21):
            chain, _ = apply_raising(chain)
            climbed = raise_to_rank(climbed, 1)
            for f in (climbed, raise_to_rank(ground, k)):
                assert (f.coeffs[-1], f.mu) == (chain.coeffs[-1], chain.mu), (j, zeta, k)
                assert len(f.coeffs) == k + 1 and not any(f.coeffs[:-1])


def test_unit_member_is_sqrt_a_times_the_basis_function():
    # normalized raising is the basis shift, C_plus(lam + n) = beta_(n+1): the
    # stored coefficient does not grow or shrink with k, even where
    # Gamma(2*lam) overflows float64 (j = 84.5)
    for j, eps, zeta in CHANNEL_GRID + [(84.5, -1, 0.5)]:
        ground = ground_ladder_function(make_channel(j, eps, zeta).lam)
        root_a = ground.coeffs[0]
        assert root_a == pytest.approx((2 * ground.lam - 1) ** 0.5, rel=1e-15)
        for k in (1, 20, 60, 200):
            assert raise_to_rank(ground, k).coeffs[-1] == pytest.approx(root_a, rel=1e-13), (j, k)


def test_one_coefficient_climb_matches_the_raising_chain_at_113_bits():
    with mpmath.workprec(113):
        ground = ground_ladder_function(make_channel(mpmath.mpf(3) / 2, -1, mpmath.mpf("0.3")).lam)
        chain = ground
        for _ in range(60):
            chain, _ = apply_raising(chain)
        f = raise_to_rank(ground, 60)
        assert mpmath.mp.prec == 113 and isinstance(f.coeffs[-1], mpmath.mpf)
        assert (f.coeffs[-1], f.mu) == (chain.coeffs[-1], chain.mu)


@pytest.mark.parametrize("k", [16, 20, 40, 60])
def test_float64_states_high_in_the_tower(k):
    for j, eps, zeta in CHANNEL_GRID:
        sol = build_solution(bound_energy(make_channel(j, eps, zeta), k))
        label = (j, eps, zeta, k)
        assert _worst_residual(sol) <= 1e-8, label
        assert abs(inner_product(sol.psi_plus, sol.psi_plus) - 1.0) <= 1e-8, label
        assert len(count_radial_nodes(sol, "F")) == (k if eps == -1 else k - 1), label
        assert len(count_radial_nodes(sol, "G")) == k, label


def test_extended_precision_climbs_to_rank_100():
    with mpmath.workdps(40):
        lam = mpmath.mpf(1) + mpmath.sqrt(mpmath.mpf(3)) / 2
        f = raise_to_rank(ground_ladder_function(lam), 100)
        assert f.rank == 100
        assert abs(f.norm_squared() - 1) < mpmath.mpf("1e-12")


@pytest.mark.parametrize("zeta", [1e-6, 1e-4, FINE_STRUCTURE, 0.9])
def test_nu_free_of_cancellation(zeta):
    ch = make_channel(0.5, -1, zeta)
    for k in (0, 5, 60):
        nu = bound_energy(ch, k).nu
        with mpmath.workdps(50):
            z = mpmath.mpf(zeta)
            energy = 1 / mpmath.sqrt(1 + (z / (mpmath.sqrt(1 - z * z) + k)) ** 2)
            ref = mpmath.sqrt((1 - energy) / (1 + energy))
            assert abs((nu - ref) / ref) <= 1e-14, (zeta, k)


@pytest.mark.parametrize("zeta", [1e-4, 1e-6])
def test_residual_gate_holds_at_small_coupling(zeta):
    for eps in (-1, 1):
        ch = make_channel(0.5, eps, zeta)
        for k in (1, 5, 20, 60):
            assert _worst_residual(build_solution(bound_energy(ch, k))) <= 1e-8, (eps, k)
