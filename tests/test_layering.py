"""The algebraic modules never reach the oracle or scipy.

channels, ladder and radial generate every eigenfunction symbolically; the
oracle checks them from outside.  The split is read from the sources with
ast, so a lazy import inside a function counts too.  At run time, importing
the package and running the closed-form CLI commands leave scipy unloaded.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import diracladder

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


CLI = "from diracladder.cli import main\nmain({})"
COLD_PATHS = {
    "import": "import diracladder",
    "spectrum": CLI.format(['spectrum', '--zeta', '0.5', '--j-max', '1.5']),
    "wavefunction": CLI.format(['wavefunction', '--zeta', '0.5', '--j', '0.5', '--eps', '-1',
                                '--k', '3', '--normalize', 'physical']),
}


@pytest.mark.parametrize("path", sorted(COLD_PATHS))
def test_cold_path_leaves_scipy_unloaded(path):
    script = (f"import sys\n{COLD_PATHS[path]}\n"
              "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PACKAGE.parent),
                                                      env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
