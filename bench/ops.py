"""One operation of each workload, with every output checked.

tower_certify and shooting_oracle call diracladder in this process; cli_cold
runs one fresh `python -m diracladder.cli` process per operation.  Each
operation returns an Outcome naming the checks that failed; an exception
counts as a failure of the step that raised it.  Expected values come from
`expected`, never from the package.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from dataclasses import dataclass, field

import expected as ex


@dataclass
class Outcome:
    part: str                    # "physical", "edge", "defect" or "suite"
    k: int | None = None
    zeta: float | None = None
    err: float | None = None     # accuracy error; None when the op has none
    causes: list = field(default_factory=list)     # failed steps
    errors: list = field(default_factory=list)     # "step:ExceptionType"

    @property
    def failed(self) -> bool:
        return bool(self.causes)

    def fail(self, step, exc=None):
        if step not in self.causes:
            self.causes.append(step)
        if exc is not None:
            self.errors.append(f"{step}:{type(exc).__name__}")


class TowerCertifier:
    """tower_certify: certify one state of a channel's tower."""

    def __init__(self):
        import diracladder
        self.dl = diracladder
        self._tower = None
        self._channel = None

    def __call__(self, tower, k) -> Outcome:
        dl = self.dl
        j, zeta, eps = tower.j, tower.zeta, tower.epsilon
        out = Outcome(tower.part, k, zeta, err=math.inf)
        try:
            if tower is not self._tower:
                self._channel = dl.make_channel(j, eps, zeta)
                self._tower = tower
            state = dl.bound_energy(self._channel, k)
            if ex.rel_err(state.energy, ex.energy(j, zeta, k)) > ex.TOL_ENERGY:
                out.fail("energy")
            sol = dl.build_solution(state)
        except Exception as exc:     # the run must go on; the failure is counted
            out.fail("assemble", exc)
            return out
        f = sol.psi_plus

        try:
            relations = dl.commutator_check(f, tolerance=ex.TOL_RELATIONS)
            _, eig = dl.apply_casimir(f)
            if (not relations.all_passed
                    or ex.rel_err(eig, ex.omega(j, zeta)) > ex.TOL_RELATIONS):
                out.fail("relations")
        except Exception as exc:
            out.fail("relations", exc)

        try:
            form = dl.positive_operator_check(f)
            if not (form > 0 and ex.rel_err(form, ex.positive_form(j, zeta, k))
                    <= ex.TOL_POSITIVE):
                out.fail("positive_form")
        except Exception as exc:
            out.fail("positive_form", exc)

        try:
            phys = dl.physical_normalize(sol)
            norm = dl.inner_product(f, f)
            if not (abs(norm - 1.0) <= ex.TOL_NORM and math.isfinite(phys.amplitude)):
                out.fail("quadrature")
        except Exception as exc:
            out.fail("quadrature", exc)
            phys = sol               # residual and nodes do not depend on scale

        try:
            report = dl.ode_residual(phys, tolerance=ex.TOL_RESIDUAL)
            residual = max(c.measured for c in report.checks)
            out.err = residual if math.isfinite(residual) else math.inf
            if not residual <= ex.TOL_RESIDUAL:
                out.fail("residual")
        except Exception as exc:
            out.fail("residual", exc)

        try:
            n_f = len(dl.count_radial_nodes(phys, "F"))
            n_g = len(dl.count_radial_nodes(phys, "G"))
            if n_f != ex.f_nodes(eps, k) or n_g != ex.g_nodes(k):
                out.fail("nodes")
        except Exception as exc:
            out.fail("nodes", exc)
        return out


class Shooter:
    """shooting_oracle: shoot one level and check energy and F node count."""

    def __init__(self):
        import diracladder
        self.dl = diracladder

    def __call__(self, tower, k) -> Outcome:
        dl = self.dl
        out = Outcome(tower.part, k, tower.zeta, err=math.inf)
        try:
            channel = dl.make_channel(tower.j, tower.epsilon, tower.zeta)
            result = dl.shooting_solution(channel, k)
        except Exception as exc:
            out.fail("shoot.energy", exc)
            return out
        out.err = ex.rel_err(result.energy, ex.energy(tower.j, tower.zeta, k))
        if not out.err <= ex.TOL_SHOOTING:
            out.fail("shoot.energy")
        if result.node_count != ex.f_nodes(tower.epsilon, k):
            out.fail("shoot.nodes")
        return out


# ---------------------------------------------------------------------------
# cli_cold

def cli_argv(command, bits, tower) -> list:
    if command == "verify":
        return ["verify"]
    args = ["--Z", str(tower.Z), "--format", "json"]
    if bits != 53:
        args += ["--precision", str(bits)]
    if command == "spectrum":
        return ["spectrum", "--j-max", repr(tower.j), "--k-max", str(tower.K), *args]
    k = tower.K
    rho_max = 4.0 * (ex.lam(tower.j, tower.zeta) + k) + 20.0
    return ["wavefunction", "--j", repr(tower.j), "--eps", str(tower.epsilon),
            "--k", str(k), "--grid", f"1e-05,{rho_max!r},1000", "--log",
            "--normalize", "physical", *args]


def _sign_changes(values) -> int:
    top = max(abs(v) for v in values)
    signs = [v > 0 for v in values if abs(v) > 1e-12 * top]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def _check_spectrum(payload, tower, out):
    zeta = tower.Z * ex.ALPHA
    rows = payload["rows"]
    if len(rows) != round(tower.j + 0.5) * (tower.K + 1):      # j = 1/2 .. j_max
        out.fail("rows")
    worst = 0.0
    for row in rows:
        eps = [-1] if row["k"] == 0 else [-1, 1]
        if row["eps"] != eps:
            out.fail("rows")
        worst = max(worst, ex.rel_err(row["E_over_m"], ex.energy(row["j"], zeta, row["k"])))
    out.err = worst
    if not worst <= ex.TOL_ENERGY:
        out.fail("energy")


def _check_wavefunction(payload, tower, out):
    k = tower.K
    out.err = ex.rel_err(float(payload["meta"]["E_over_m"]),
                         ex.energy(tower.j, tower.Z * ex.ALPHA, k))
    if not out.err <= ex.TOL_ENERGY:
        out.fail("energy")
    rho = [r["rho"] for r in payload["rows"]]
    F = [r["F"] for r in payload["rows"]]
    G = [r["G"] for r in payload["rows"]]
    if (_sign_changes(F) != ex.f_nodes(tower.epsilon, k)
            or _sign_changes(G) != ex.g_nodes(k)):
        out.fail("nodes")
    # integral (F^2 + G^2) drho = integral rho*(F^2 + G^2) d(ln rho), trapezoid
    h = (math.log(rho[-1]) - math.log(rho[0])) / (len(rho) - 1)
    vals = [r * (f * f + g * g) for r, f, g in zip(rho, F, G)]
    norm = h * (sum(vals) - 0.5 * (vals[0] + vals[-1]))
    if not abs(norm - 1.0) <= ex.TOL_TABLE_NORM:
        out.fail("norm")


def run_cli(command, bits, tower, env, cwd, importtime=False):
    """One cold CLI process; returns (Outcome, completed process)."""
    argv = [sys.executable] + (["-X", "importtime"] if importtime else [])
    argv += ["-m", "diracladder.cli", *cli_argv(command, bits, tower)]
    out = Outcome("suite" if tower is None else tower.part,
                  None if tower is None else tower.K,
                  None if tower is None else tower.Z * ex.ALPHA)
    proc = subprocess.run(argv, env=env, cwd=cwd, capture_output=True, text=True,
                          timeout=150)
    if proc.returncode != 0:
        out.fail("exit_nonzero")
        return out, proc
    try:
        if command == "verify":
            if proc.stdout.strip().splitlines()[-1] != "ALL SUITES PASSED":
                out.fail("output")
        elif command == "spectrum":
            _check_spectrum(json.loads(proc.stdout), tower, out)
        else:
            _check_wavefunction(json.loads(proc.stdout), tower, out)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        out.fail("output", exc)
    return out, proc
