"""Property sweeps over the accepted domain, drawn by hypothesis.

Library: every drawn bound state (j <= 41/2, both eps, zeta log-uniform from
1e-6 to just below j + 1/2, k <= 60) passes its ODE residual, has its
expected node counts, and has unit norms by quadrature.  CLI: every drawn
spectrum or wavefunction call, couplings past critical included, either
exits 0 with only finite numbers or exits 1, 2 or 3 with an empty stdout and
one typed stderr line.  Both sweeps are derandomized, so a run is repeatable.
"""

import contextlib
import io
import math
import re

from hypothesis import given, settings
from hypothesis import strategies as st

from diracladder import (
    bound_energy,
    build_solution,
    count_radial_nodes,
    inner_product,
    make_channel,
    ode_residual,
    physical_norm_integral,
    physical_normalize,
)
from diracladder.cli import main

# repeatable draws; the example counts keep both sweeps within 5 s together
SWEEP = settings(derandomize=True, database=None, deadline=None)


def log_uniform(lo, hi):
    return st.floats(math.log(lo), math.log(hi)).map(lambda x: min(max(math.exp(x), lo), hi))


@st.composite
def states(draw, coupling_factor=1.0 - 1e-9):
    # (j, eps, zeta, k); eps = +1 has no k = 0 level
    j = draw(st.integers(0, 20)) + 0.5
    eps = draw(st.sampled_from((-1, 1)))
    k = draw(st.integers(0 if eps == -1 else 1, 60))
    zeta = draw(log_uniform(1e-6, (j + 0.5) * coupling_factor))
    return j, eps, zeta, k


@settings(SWEEP, max_examples=150)
@given(states())
def test_every_drawn_state_certifies(case):
    j, eps, zeta, k = case
    sol = physical_normalize(build_solution(bound_energy(make_channel(j, eps, zeta), k)))
    assert ode_residual(sol).all_passed
    assert len(count_radial_nodes(sol, "F")) == (k if eps == -1 else k - 1)
    assert len(count_radial_nodes(sol, "G")) == k
    assert abs(inner_product(sol.psi_plus, sol.psi_plus) - 1.0) <= 1e-8
    exact = sum(c.rho_norm_squared() for c in sol.components)
    assert abs(physical_norm_integral(sol) - exact) <= 1e-10


@st.composite
def cli_calls(draw):
    # couplings up to 1.2 (j + 1/2): supercritical channels are drawn too
    j, eps, zeta, k = draw(states(coupling_factor=1.2))
    argv = ["--zeta", repr(zeta)]
    if draw(st.booleans()):
        argv += ["--precision", "113"]
    argv += ["--format", draw(st.sampled_from(("csv", "json")))]
    if draw(st.booleans()):
        return ["spectrum", *argv, "--j-max", str(j), "--k-max", str(k)]
    lo = draw(log_uniform(1e-4, 1e3))
    hi = lo * draw(log_uniform(1.0 + 1e-6, 1e4))
    argv += ["--grid", f"{lo!r},{hi!r},{draw(st.integers(1, 64))}"]
    if draw(st.booleans()):
        argv.append("--log")
    return ["wavefunction", *argv, "--j", str(j), "--eps", str(eps), "--k", str(k)]


NOT_FINITE = re.compile(r"\b(nan|inf|infinity)\b", re.IGNORECASE)


@settings(SWEEP, max_examples=120)
@given(cli_calls())
def test_every_drawn_cli_call_prints_finite_numbers_or_one_typed_error(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2, 3)
    if code == 0:
        assert out and not err
        assert not NOT_FINITE.search(out)
    else:
        assert not out
        assert err.count("\n") == 1 and err.endswith("\n")
        assert err.startswith(("error:", "usage error:", "physics error:"))
