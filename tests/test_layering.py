"""The algebraic modules never reach the oracle or scipy.

channels, ladder and radial generate every eigenfunction symbolically; the
oracle checks them from outside.  The split is read from the sources with
ast, so a lazy import inside a function counts too.  At run time, importing
the package, running the closed-form CLI commands at 53 bits, `verify` and
the certification checks leave both scipy and mpmath unloaded.  Only
shooting loads scipy's integrator and root finder, and it calls them through
the oracle's module globals, which a tracer can wrap.  mpmath loads with the
first extended-precision number (a `--precision 113` call, or a caller's own
`import mpmath`), and the precision helpers recognise its numbers from then
on.  Importing the package binds every public name, each from the `__all__`
of exactly one module, and loads no numpy.polynomial either.  Certifying a
state enters none of numpy's Python-level wrappers that a plainer call
replaces, and a tower grown once is read without growing it again.
"""

import ast
import dataclasses
import functools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import diracladder
from diracladder.ladder import _Tower
from diracladder.radial import RadialSolution

PACKAGE = Path(diracladder.__file__).parent


def imported_modules(path):
    """Absolute or package-relative names of every module a source imports."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = "." * node.level + (node.module or "")
            names.add(base)
            # `from . import oracle` names the module in the alias
            names.update(f"{base}.{alias.name}" if node.module else base + alias.name
                         for alias in node.names)
    return names


@pytest.mark.parametrize("module", ["channels", "ladder", "radial"])
def test_algebraic_side_imports_neither_oracle_nor_scipy(module):
    for name in imported_modules(PACKAGE / f"{module}.py"):
        parts = name.lstrip(".").split(".")
        assert parts[0] != "scipy", f"{module} imports {name}"
        assert "oracle" not in parts, f"{module} imports {name}"


def test_import_scan_sees_lazy_and_relative_imports(tmp_path):
    source = tmp_path / "probe.py"
    source.write_text("def f():\n    from . import oracle\n"
                      "from scipy.special import gamma\n", encoding="utf-8")
    names = imported_modules(source)
    assert ".oracle" in names and "scipy.special" in names


CLI = "from diracladder.cli import main\nassert main({}) == 0"
COLD_PATHS = {
    "import": "import diracladder",
    "spectrum": CLI.format(['spectrum', '--zeta', '0.5', '--j-max', '1.5']),
    "wavefunction": CLI.format(['wavefunction', '--zeta', '0.5', '--j', '0.5', '--eps', '-1',
                                '--k', '3', '--normalize', 'physical']),
    "verify": CLI.format(['verify']),
    "certify": "\n".join([
        "import diracladder as dl",
        "sol = dl.physical_normalize(dl.build_solution(",
        "    dl.bound_energy(dl.make_channel(1.5, -1, 0.5), 5)))",
        "assert abs(dl.inner_product(sol.psi_plus, sol.psi_plus) - 1) < 1e-10",
        "assert abs(dl.physical_norm_integral(sol) - 1) < 1e-10",
        "assert dl.ode_residual(sol).all_passed",
        "assert dl.count_radial_nodes(sol, 'G').size == 5",
    ]),
}


def run_fresh(script):
    """The last line `script` prints in a fresh interpreter, as a literal."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PACKAGE.parent),
                                                      env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return ast.literal_eval(proc.stdout.splitlines()[-1])


@functools.lru_cache(maxsize=None)
def modules_after(code):
    """Sorted modules loaded once `code` has run in a fresh interpreter."""
    return run_fresh(f"import sys\n{code}\nprint(sorted(sys.modules))")


def package_modules_after(code, package):
    return [m for m in modules_after(code) if m.split(".")[0] == package]


@pytest.mark.parametrize("path", sorted(COLD_PATHS))
def test_cold_path_leaves_scipy_unloaded(path):
    assert package_modules_after(COLD_PATHS[path], "scipy") == []


@pytest.mark.parametrize("path", sorted(COLD_PATHS))
def test_cold_path_leaves_mpmath_unloaded(path):
    # every number on these paths is a float64; mpmath waits for an mpf
    assert package_modules_after(COLD_PATHS[path], "mpmath") == []


def test_extended_precision_cli_loads_mpmath_and_succeeds():
    code = CLI.format(['spectrum', '--zeta', '0.5', '--precision', '113'])
    assert "mpmath" in modules_after(code)


def test_precision_helpers_see_mpmath_numbers_made_after_import():
    # mpmath is not loaded by the package, so its numbers appear only later
    found = run_fresh("\n".join([
        "import sys",
        "from diracladder import precision",
        "assert 'mpmath' not in sys.modules",
        "import mpmath",
        "mpmath.mp.prec = 113",
        "x = mpmath.mpf(2)",
        "print(repr([precision.is_extended(x), precision.is_extended(mpmath.mpc(1, 1)),",
        "            precision.is_extended(2.0), precision.sqrt(x) == mpmath.sqrt(2),",
        "            isinstance(precision.gamma(x / 4), mpmath.mpf)]))",
    ]))
    assert found == [True, True, False, True, True]


def test_shooting_loads_scipy_integrator_on_first_shot():
    loaded = package_modules_after("\n".join([
        "import diracladder as dl",
        "channel = dl.make_channel(0.5, -1, 0.5)",
        "exact = float(dl.bound_energy(channel, 1).energy)",
        "assert abs(dl.shooting_solve(channel, 1) - exact) < 1e-10",
    ]), "scipy")
    assert "scipy.integrate" in loaded and "scipy.optimize" in loaded


def test_shooting_routes_every_leg_through_the_module_integrator(monkeypatch):
    # a tracer wraps oracle.solve_ivp to count integrations; each determinant
    # integrates two legs, and both must reach the wrapped binding
    from diracladder import make_channel, oracle

    counts = {"legs": 0, "determinants": 0}

    def counting(key, fn):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(oracle, "solve_ivp", counting("legs", oracle.solve_ivp))
    monkeypatch.setattr(oracle, "matching_determinant",
                        counting("determinants", oracle.matching_determinant))
    oracle.shooting_solve(make_channel(0.5, -1, 0.5), 1)
    assert counts["determinants"] > 2
    assert counts["legs"] == 2 * counts["determinants"]


HOMES = ("channels", "errors", "ladder", "oracle", "radial", "report", "verify")


def test_package_binds_each_public_name_from_one_module():
    # fresh, so that no earlier import binds a name the package left lazy
    found = run_fresh("\n".join([
        "import importlib, sys",
        "import diracladder as dl",
        "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'",
        "                or m.startswith('numpy.polynomial'))",
        f"homes = {{h: importlib.import_module('diracladder.' + h) for h in {HOMES!r}}}",
        "print(repr({",
        "    'loaded': loaded,",
        "    'all': dl.__all__,",
        "    'unlisted': [n for n in dl.__all__ if n not in dir(dl)],",
        "    'owners': {n: [h for h, m in homes.items() if n in m.__all__]",
        "               for n in dl.__all__},",
        "    'rebound': [(h, n) for h, m in homes.items() for n in m.__all__",
        "                if getattr(dl, n, None) is not getattr(m, n)],",
        "}))",
    ]))
    assert found["loaded"] == []
    assert found["unlisted"] == []
    assert found["rebound"] == []
    owners = found["owners"]
    assert owners.pop("__version__") == []
    assert all(len(homes) == 1 for homes in owners.values()), owners
    assert len(found["all"]) == len(set(found["all"]))


# numpy's Python-level wrappers off the certify path: each is a cold frame
# between the benchmark's host-speed samples, dearer than its arithmetic
WRAPPERS = ("diag", "fill_diagonal", "all", "mean", "flatnonzero", "cumsum", "split", "repeat")


def certify(state):
    """One state's certify sequence: build, algebra, norms, residual, both node counts."""
    dl = diracladder
    sol = dl.build_solution(state)
    f = sol.psi_plus
    dl.commutator_check(f)
    dl.apply_casimir(f)
    dl.positive_operator_check(f)
    phys = dl.physical_normalize(sol)
    dl.inner_product(f, f)
    dl.ode_residual(phys)
    for component in "FG":
        dl.count_radial_nodes(phys, component)


def entered(run):
    """Names of the watched frames that run() enters, in order, by sys.setprofile."""
    watched = {getattr(np, n)._implementation.__code__: f"numpy.{n}" for n in WRAPPERS}
    watched[_Tower.grow.__code__] = "_Tower.grow"
    components = RadialSolution.components.func.__code__
    seen = []

    def profile(frame, event, arg):
        if event != "call":
            return
        if frame.f_code in watched:
            seen.append(watched[frame.f_code])
        elif frame.f_code is dataclasses.replace.__code__:
            caller = frame.f_back
            while caller is not None and caller.f_code is not components:
                caller = caller.f_back
            if caller is not None:
                seen.append("dataclasses.replace in RadialSolution.components")

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(previous)
    return seen


def test_certify_enters_no_numpy_wrapper_and_reads_a_grown_tower_as_is():
    # a channel no other test uses: its tower and Gauss rules are built here
    channel = diracladder.make_channel(2.5, -1, 0.2718281828)
    top, lower = (diracladder.bound_energy(channel, k) for k in (6, 4))
    first = entered(lambda: certify(top))
    assert "_Tower.grow" in first
    assert [name for name in first if name != "_Tower.grow"] == []
    assert entered(lambda: certify(lower)) == []
