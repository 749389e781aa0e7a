"""Property sweeps over the accepted domain, drawn by hypothesis.

Library: every drawn bound state (j <= 41/2, both eps, zeta log-uniform from
1e-6 to just below j + 1/2, k <= 60) passes its ODE residual, has its
expected node counts, and has unit norms by quadrature.  CLI: every drawn
spectrum or wavefunction call, couplings past critical included, either
exits 0 with only finite numbers or exits 1, 2 or 3 with an empty stdout and
one typed stderr line.  Tables: every drawn spectrum_table, at 53 or 113 bits
and with couplings drawn close to a critical value, is sorted by energy at its
own precision and holds exactly the subcritical channels' levels.  The sweeps
are derandomized, so a run is repeatable.
"""

import contextlib
import io
import math
import re
import warnings

import mpmath
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
    spectrum_table,
)
from diracladder.cli import main

# repeatable draws; the example counts keep the sweeps within 6 s together
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


@st.composite
def tables(draw):
    # (bits, zeta, j_max, k_max); at 113 bits some couplings lie within
    # 1e-20 (j + 1/2) of a critical value, either side, where float64 rounds
    # onto it; the others run from 1e-6 past the largest critical value
    bits = draw(st.sampled_from((53, 113)))
    j_max = draw(st.integers(0, 5)) + 0.5
    k_max = draw(st.integers(0, 6))
    zeta = draw(log_uniform(1e-6, j_max + 1.5))
    if bits == 53:
        return bits, zeta, j_max, k_max
    near = draw(st.booleans())
    critical = draw(st.integers(1, int(j_max + 1.5)))
    offset = draw(log_uniform(1e-30, 1e-20)) * draw(st.sampled_from((-1, 1)))
    with mpmath.workprec(113):
        zeta = critical * (1 + mpmath.mpf(offset)) if near else mpmath.mpf(zeta)
    return bits, zeta, j_max, k_max


@settings(SWEEP, max_examples=80)
@given(tables())
def test_every_drawn_table_is_sorted_and_holds_the_subcritical_levels(case):
    bits, zeta, j_max, k_max = case
    with mpmath.workprec(bits), warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        states = spectrum_table(zeta, j_max, k_max)
        energies = [st.energy for st in states]
        assert all(a <= b for a, b in zip(energies, energies[1:]))
        js = [n + 0.5 for n in range(int(j_max + 0.5))]
        subcritical = [j for j in js if zeta < j + 0.5]
    want = {(j, eps, k) for j in subcritical for eps in (-1, 1)
            for k in range(0 if eps == -1 else 1, k_max + 1)}
    got = [(st.channel.j, st.channel.epsilon, st.k) for st in states]
    assert len(got) == len(want) and set(got) == want
    assert len(caught) == len(js) - len(subcritical)
