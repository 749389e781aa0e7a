"""Seeded input mix: channels (towers) and the operations of each workload.

The timed workloads draw *physical* channels only: zeta = Z*alpha with
integer Z in 1..118, j <= 7/2, the domain the package already gets right,
so no timed operation fails.  The domain ROADMAP aim 3 asks the package to
cover (zeta log-uniform in [1e-6, 0.999*(j+1/2)], j <= 41/2, higher k) still
fails in known ways; those inputs form the *defect panel*, which every
traced run certifies and counts failures on.  The panel is the same for
every seed, so its failure counts repeat exactly.  No input is dropped.

Channels come from a low-discrepancy sequence shifted by a seeded random
vector: every coordinate is uniform, as with independent draws, but the
points fill the cube evenly, so the share of heavy inputs in a run, and with
it the latency tail, moves little from seed to seed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace
from itertools import count, islice

from expected import ALPHA

J_PHYSICAL = (0.5, 1.5, 2.5, 3.5)
J_EDGE = tuple((2 * n - 1) / 2 for n in range(1, 22))      # 1/2 .. 41/2
ZETA_EDGE_MIN = 1e-6

# Kronecker steps for (zeta or Z, j, epsilon): the golden ratio for the
# coordinate that decides most of the cost, then sqrt(2) - 1 and sqrt(3) - 1
STEPS = ((5 ** 0.5 - 1) / 2, 2 ** 0.5 - 1, 3 ** 0.5 - 1)


def _van_der_corput(n: int) -> float:
    value, scale = 0.0, 1.0
    while n:
        n, bit = divmod(n, 2)
        scale /= 2
        value += bit * scale
    return value


def _low_discrepancy(rng):
    """Points of [0,1)^4, shifted by a seeded random vector (mod 1).

    The first three coordinates follow additive recurrences, the last (the
    tower height K) the base-2 van der Corput sequence, so every prefix of
    the stream covers each coordinate evenly.
    """
    shift = [rng.random() for _ in range(4)]
    for n in count(1):
        raw = [n * step for step in STEPS] + [_van_der_corput(n)]
        yield [(s + x) % 1.0 for s, x in zip(shift, raw)]


@dataclass(frozen=True)
class Tower:
    part: str            # "physical", "edge" or "defect"
    j: float
    epsilon: int
    zeta: float
    Z: int | None        # nuclear charge, when zeta = Z*alpha
    K: int               # top level; the tower is k0..K

    @property
    def k0(self) -> int:
        return 0 if self.epsilon == -1 else 1


def _pick(options, u):
    return options[min(int(u * len(options)), len(options) - 1)]


def _draws(seed: int, k_max: int):
    for u_a, u_j, u_eps, u_k in _low_discrepancy(random.Random(seed)):
        epsilon = -1 if u_eps < 0.5 else 1
        yield u_a, u_j, epsilon, _pick(range(0 if epsilon == -1 else 1, k_max + 1), u_k)


def physical_towers(seed: int, k_max: int):
    """Endless physical channel stream for one seed (same seed, same stream)."""
    for u_z, u_j, epsilon, K in _draws(seed, k_max):
        Z = _pick(range(1, 119), u_z)
        yield Tower("physical", _pick(J_PHYSICAL, u_j), epsilon, Z * ALPHA, Z, K)


def edge_towers(seed: int, k_max: int):
    """Endless domain-edge channel stream (ROADMAP aim 3) for one seed."""
    for u_z, u_j, epsilon, K in _draws(seed, k_max):
        j = _pick(J_EDGE, u_j)
        lo, hi = math.log(ZETA_EDGE_MIN), math.log(0.999 * (j + 0.5))
        yield Tower("edge", j, epsilon, math.exp(lo + u_z * (hi - lo)), None, K)


# the warm-up op of every workload, the same for every seed: a light,
# always-valid state (hydrogen, j = 1/2, eps = -1, k = 1)
WARMUP = Tower("physical", 0.5, -1, ALPHA, 1, 1)


def _slots(k_max: int) -> tuple:
    return tuple((eps, K) for eps in (-1, 1) for K in range(0 if eps == -1 else 1, k_max + 1))


# The in-process workloads take their towers in blocks of one tower for
# every (epsilon, K), so the k mix is the same for every seed
TOWER_SLOTS = _slots(12)           # 25 towers, 169 states
SHOOTING_SLOTS = _slots(8)         # 17 levels
TOWER_BLOCK_STATES = sum(K + (eps == -1) for eps, K in TOWER_SLOTS)


def _stratified(seed: int, slots):
    """Endless physical towers: Z and j from the physical stream, and each
    block of len(slots) towers takes the (epsilon, K) slots in a seeded order."""
    rng = random.Random(seed)
    channels = physical_towers(seed, 12)
    slots = list(slots)
    while True:
        rng.shuffle(slots)
        for epsilon, K in slots:
            yield replace(next(channels), epsilon=epsilon, K=K)


def tower_states(seed: int):
    """tower_certify: every level of each tower, k = k0..K in increasing k."""
    for tower in _stratified(seed, TOWER_SLOTS):
        for k in range(tower.k0, tower.K + 1):
            yield tower, k


def single_states(seed: int):
    """state_certify: one level per channel, the top level k = K, so no two
    ops share a channel."""
    for tower in _stratified(seed, TOWER_SLOTS):
        yield tower, tower.K


def shooting_states(seed: int):
    """shooting_oracle: one level per channel, the top level k = K."""
    for tower in _stratified(seed, SHOOTING_SLOTS):
        yield tower, tower.K


# One block of five CLI calls, so every ten hold 4 spectrum, 4 wavefunction
# and 2 verify; one in four spectrum/wavefunction calls is the 113-bit
# wavefunction, which runs the mpmath ladder path.
CLI_BLOCK = (("spectrum", 53), ("wavefunction", 113), ("verify", None),
             ("spectrum", 53), ("wavefunction", 53))


def cli_calls(seed: int):
    """cli_cold: (command, bits, tower) in fixed blocks of five."""
    physical = physical_towers(seed, 12)
    while True:
        for command, bits in CLI_BLOCK:
            yield command, bits, (None if command == "verify" else next(physical))


# ---------------------------------------------------------------------------
# defect panel: the known failures, certified in every traced run

PANEL_SEED = 0
PANEL_EDGE_STATES = 60
PANEL_EDGE_SHOTS = 3


def _defect(j, epsilon, zeta, K, Z=None):
    return Tower("defect", j, epsilon, zeta, Z, K)


# ode_residual grows as about 1/zeta^2 and fails its 1e-8 gate below
# zeta ~ 3e-4 at every k
SMALL_ZETA = tuple(_defect(0.5, -1, zeta, 5) for zeta in (1e-4, 1e-5, 1e-6))
# float64 ladder solutions go wrong from k ~ 16 (ROADMAP "Known silent failure")
HIGH_K = _defect(0.5, -1, ALPHA, 20, Z=1)


def panel_tower_states():
    """Known-defect states for tower_certify, then a fixed domain-edge sample."""
    for tower in SMALL_ZETA:
        for k in range(tower.k0, tower.K + 1):
            yield tower, k
    for k in range(14, HIGH_K.K + 1):
        yield HIGH_K, k
    edge = ((t, k) for t in edge_towers(PANEL_SEED, 24) for k in range(t.k0, t.K + 1))
    yield from islice(edge, PANEL_EDGE_STATES)


def panel_shooting_states():
    """shooting_solution at j=1/2, eps=-1, zeta=1e-6, k=2 reports 1 F node,
    not 2; then the top levels of a fixed domain-edge sample."""
    yield _defect(0.5, -1, 1e-6, 2), 2
    for tower in islice(edge_towers(PANEL_SEED, 20), PANEL_EDGE_SHOTS):
        yield tower, tower.K


def panel_cli_calls():
    """The 113-bit mpmath ladder path prints a k = 20 wavefunction with the
    wrong node count and exits 0."""
    yield "wavefunction", 113, HIGH_K


def first(stream, n: int) -> list:
    return list(islice(stream, n))
