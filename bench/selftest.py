"""Benchmark self-test: `python3 bench/run.py --self-test`.

1. The expected-value helper reproduces the ERRATA.md reference value of
   the ground E/m at zeta = alpha, to all 20 printed digits.
2. The generator yields only subcritical, allowed states for a seed; the
   timed workloads draw physical channels only, and the defect panel holds
   every known-defect input.
3. Two fresh processes running the same small traced slice produce
   identical exact counts.
"""

from __future__ import annotations

import json
import subprocess
import sys
from itertools import islice

import expected as ex
import mix

EXACT_COUNTS = {
    "tower_certify": ("ladder.raise.calls", "oracle.quadrature.rule_builds"),
    "shooting_oracle": ("oracle.det.calls", "oracle.integrate.rhs_evals"),
}


def check_errata() -> list:
    import mpmath
    with mpmath.workdps(40):
        value = ex.energy(mpmath.mpf("0.5"), mpmath.mpf(repr(ex.ALPHA)), 0, sqrt=mpmath.sqrt)
        digits = mpmath.nstr(value, 20)
    problems = []
    if digits != ex.ERRATA_GROUND:
        problems.append(f"40-digit ground E/m {digits} != ERRATA {ex.ERRATA_GROUND}")
    if ex.rel_err(ex.energy(0.5, ex.ALPHA, 0), float(ex.ERRATA_GROUND)) > 1e-15:
        problems.append("float64 ground E/m misses the ERRATA value by more than 1e-15")
    return problems


def _check_tower(t, k_max) -> list:
    limit = 0.999 * (t.j + 0.5) if t.part == "edge" else t.j + 0.5
    problems = []
    if not (mix.ZETA_EDGE_MIN * (1 - 1e-12) <= t.zeta <= limit * (1 + 1e-12)
            and t.zeta < t.j + 0.5):
        problems.append(f"not subcritical: {t}")
    if not t.k0 <= t.K <= k_max:
        problems.append(f"K out of range: {t}")
    if t.part == "physical" and not (1 <= t.Z <= 118 and t.j <= 3.5):
        problems.append(f"physical channel out of range: {t}")
    return problems


def check_generator(seed, n=4000) -> list:
    problems = []
    for t in islice(mix.physical_towers(seed, 12), n):
        problems += _check_tower(t, 12)
    for t in islice(mix.edge_towers(seed, 24), n):
        problems += _check_tower(t, 24)
    timed = [s for stream in (mix.tower_states(seed), mix.single_states(seed),
                              mix.shooting_states(seed))
             for s in islice(stream, 2000)]
    timed += [(c[2], c[2].K) for c in islice(mix.cli_calls(seed), 200) if c[2] is not None]
    panel = list(mix.panel_tower_states()) + list(mix.panel_shooting_states())
    panel += [(c[2], c[2].K) for c in mix.panel_cli_calls()]
    for t, k in timed + panel:
        if k < t.k0 or (t.epsilon == 1 and k == 0):
            problems.append(f"excluded state k={k} in {t}")
        problems += _check_tower(t, 24)
    if any(t.part != "physical" for t, _ in timed):
        problems.append("a timed workload draws a non-physical channel")
    named = {(t.j, t.epsilon, t.zeta, k) for t, k in panel}
    for want in ((0.5, -1, 1e-4, 5), (0.5, -1, 1e-6, 0), (0.5, -1, ex.ALPHA, 16),
                 (0.5, -1, ex.ALPHA, 20), (0.5, -1, 1e-6, 2)):
        if want not in named:
            problems.append(f"known-defect state (j, eps, zeta, k) = {want} not in the panel")
    return problems[:10]


def check_counts(run_py, env, root, seed=1) -> list:
    runs = []
    for _ in range(2):
        proc = subprocess.run([sys.executable, run_py, "--counts-slice", "--seed", str(seed)],
                              capture_output=True, text=True, env=env, cwd=root,
                              timeout=170, check=True)
        runs.append(json.loads(proc.stdout.splitlines()[-1]))
    problems = []
    for workload, names in EXACT_COUNTS.items():
        for name in names:
            a, b = (r[workload].get(name) for r in runs)
            if not a or a != b:
                problems.append(f"{workload} {name}: {a} then {b}")
    if runs[0] != runs[1]:
        problems.append("some count differs between two identical traced runs")
    return problems


def main(run_py, env, root) -> int:
    failed = False
    for name, problems in (("errata value", check_errata()),
                           ("generator", check_generator(1) + check_generator(7)),
                           ("exact counts repeat", check_counts(run_py, env, root))):
        print(f"[{'FAIL' if problems else 'PASS'}] {name}")
        for line in problems:
            print(f"    {line}")
        failed = failed or bool(problems)
    return 1 if failed else 0
