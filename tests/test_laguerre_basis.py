"""Invariants of the generalized-Laguerre coefficient basis.

The rank-k member's polynomial part is c_k L_k^(2*lam-1)(2*rho), so the
raising chain produces a single basis vector, float64 stays accurate far up
the tower, and nu is computed without the cancellation in m - E.
"""

import mpmath
import pytest

from diracladder import (
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
    for j, eps, zeta in CHANNEL_GRID:
        f = ground_ladder_function(make_channel(j, eps, zeta).lam)
        for k in range(1, 21):
            f = raise_to_rank(f, 1)
            assert len(f.coeffs) == k + 1
            top = abs(f.coeffs[-1])
            assert max(abs(c) for c in f.coeffs[:-1]) <= 1e-14 * top, (j, zeta, k)


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
