"""Front-end contract: table shapes, metadata, precision echo, exit codes."""

import dataclasses
import json
import math
import os
import subprocess
import sys
import warnings
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest

import diracladder
from diracladder import DomainError, bound_energy, cli, make_channel, oracle, verify
from diracladder.cli import _grid_type, main


def run(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def csv_rows(out):
    lines = [ln for ln in out.strip().splitlines() if not ln.startswith("#")]
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


def meta_lines(out):
    meta = {}
    for ln in out.splitlines():
        if ln.startswith("# "):
            key, _, val = ln[2:].partition(" = ")
            meta[key] = val
    return meta


def test_spectrum_three_row_contract(capsys):
    code, out, _ = run(["spectrum", "--Z", "1", "--j-max", "0.5", "--k-max", "2"],
                       capsys)
    assert code == 0
    header, rows = csv_rows(out)
    assert header == ["j", "eps", "k", "mu", "E_over_m", "kappa", "nu"]
    assert len(rows) == 3
    assert [r[2] for r in rows] == ["0", "1", "2"]
    assert rows[0][1] == "-1"           # k=0 exists only in the eps=-1 channel
    assert rows[1][1] == "-1|+1"        # degenerate pair collapsed


def test_spectrum_no_collapse(capsys):
    code, out, _ = run(["spectrum", "--zeta", "0.5", "--j-max", "0.5",
                        "--k-max", "2", "--no-collapse"], capsys)
    assert code == 0
    _, rows = csv_rows(out)
    assert len(rows) == 5


def test_csv_floats_round_trip(capsys):
    _, out, _ = run(["spectrum", "--zeta", "0.5", "--j-max", "0.5",
                     "--k-max", "1"], capsys)
    _, rows = csv_rows(out)
    e_k0 = float(rows[0][4])
    assert e_k0 == bound_energy(make_channel(0.5, -1, 0.5), 0).energy


def test_metadata_conventions_and_precision(capsys):
    _, out, _ = run(["spectrum", "--zeta", "0.5"], capsys)
    meta = meta_lines(out)
    assert meta["precision_bits"] == "53"
    assert meta["precision_source"] == "default"
    conventions = json.loads(meta["conventions"])
    assert len(conventions) == 2
    assert any("zeta*E/kappa + 1/2" in c for c in conventions)
    assert any("j*(j+1) - zeta^2" in c for c in conventions)


def test_json_output_shape(capsys):
    code, out, _ = run(["spectrum", "--zeta", "0.5", "--j-max", "0.5",
                        "--k-max", "1", "--format", "json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"meta", "rows"}
    assert doc["meta"]["command"] == "spectrum"
    assert doc["rows"][0]["eps"] == [-1]
    assert doc["rows"][1]["eps"] == [-1, 1]
    assert doc["rows"][0]["E_over_m"] == bound_energy(
        make_channel(0.5, -1, 0.5), 0).energy


def test_precision_flag(capsys, monkeypatch):
    argv = ["spectrum", "--zeta", "0.5", "--j-max", "0.5", "--k-max", "0"]
    _, out, _ = run(argv + ["--precision", "120"], capsys)
    meta = meta_lines(out)
    assert meta["precision_bits"] == "120"
    assert meta["precision_source"] == "command line"
    # E printed beyond float64: sqrt(3)/2 to ~36 digits
    _, rows = csv_rows(out)
    assert rows[0][4].startswith("0.866025403784438646763723170752936")

    # the flag is the only way to set the precision: the environment is not read
    monkeypatch.setenv("DIRACLADDER_PRECISION", "120")
    _, out, _ = run(argv, capsys)
    meta = meta_lines(out)
    assert meta["precision_bits"] == "53"
    assert meta["precision_source"] == "default"

    # a precision above the cap is a usage error
    code, out, err = run(argv + ["--precision", "1025"], capsys)
    assert code == 2 and out == ""
    assert err.startswith("usage error:") and len(err.splitlines()) == 1


def _parse_cell(cell, like):
    """A CSV cell read back as the type of its JSON counterpart."""
    if like is None:
        return None if cell == "" else cell
    if isinstance(like, list):                  # eps labels, "-1|+1"
        return [int(e) for e in cell.split("|")]
    return int(cell) if isinstance(like, int) else float(cell)


@pytest.mark.parametrize("argv", [
    ["spectrum", "--zeta", "0.5", "--j-max", "1.5", "--k-max", "2"],
    ["wavefunction", "--zeta", "0.5", "--j", "0.5", "--eps", "-1", "--k", "1",
     "--grid", "0.1,10,7"],
    ["oracle-compare", "--zeta", "0.5", "--j-max", "0.5", "--k-max", "1"],
    ["demo-divergence", "--zeta", "0.5", "--cutoffs", "5,10,20"],
])
def test_csv_and_json_rows_agree(argv, capsys):
    # one row list behind both formats: same names in the same order, and
    # every CSV cell reads back as its JSON value
    _, csv_out, _ = run(argv, capsys)
    _, json_out, _ = run(argv + ["--format", "json"], capsys)
    header, cells = csv_rows(csv_out)
    doc = json.loads(json_out)
    assert len(cells) == len(doc["rows"]) > 0
    for row, values in zip(cells, doc["rows"]):
        assert header == list(values)
        assert [_parse_cell(c, v) for c, v in zip(row, values.values())] \
            == list(values.values())


def test_charge_matches_zeta_at_extended_precision(capsys):
    # --Z takes alpha at the working precision, not float64-rounded: the
    # same coupling typed as --zeta prints the same numbers
    tail = ["--k-max", "0", "--precision", "113"]
    _, by_charge, _ = run(["spectrum", "--Z", "1"] + tail, capsys)
    _, by_zeta, _ = run(["spectrum", "--zeta", "0.0072973525693"] + tail, capsys)
    assert meta_lines(by_charge)["zeta"] == meta_lines(by_zeta)["zeta"]
    assert csv_rows(by_charge)[1][0][4] == csv_rows(by_zeta)[1][0][4]


def test_si_units(capsys):
    _, out, _ = run(["spectrum", "--zeta", "0.5", "--j-max", "0.5",
                     "--k-max", "0", "--si"], capsys)
    header, rows = csv_rows(out)
    assert header[4] == "E_mev"
    meta = meta_lines(out)
    assert meta["electron_mass_mev"] == "0.51099895"
    e = bound_energy(make_channel(0.5, -1, 0.5), 0).energy
    assert float(rows[0][4]) == pytest.approx(e * 0.51099895, rel=1e-12)


def test_wavefunction_grid_and_normalization(capsys):
    code, out, _ = run(["wavefunction", "--zeta", "0.5", "--j", "0.5",
                        "--eps", "-1", "--k", "1", "--grid", "0.1,10,25",
                        "--normalize", "physical"], capsys)
    assert code == 0
    header, rows = csv_rows(out)
    assert header == ["rho", "F", "G"]
    assert len(rows) == 25
    assert float(rows[0][0]) == pytest.approx(0.1)
    assert float(rows[-1][0]) == pytest.approx(10.0)
    assert meta_lines(out)["normalization"] == "physical"


def test_wavefunction_physical_amplitude_at_extended_precision(capsys):
    # the exact normalization sum runs at the working precision, so the
    # amplitude prints beyond float64 and agrees with the float64 run
    argv = ["wavefunction", "--zeta", "0.5", "--j", "0.5", "--eps", "-1",
            "--k", "1", "--grid", "0.1,10,3", "--normalize", "physical"]
    _, out, _ = run(argv + ["--precision", "113"], capsys)
    wide = meta_lines(out)["amplitude"]
    assert len(wide.replace(".", "").lstrip("0")) > 17
    _, out, _ = run(argv, capsys)
    narrow = float(meta_lines(out)["amplitude"])
    assert float(wide) == pytest.approx(narrow, rel=1e-14)


def test_wavefunction_json_to_stdout(tmp_path, capsys):
    argv = ["wavefunction", "--zeta", "0.5", "--j", "0.5", "--eps", "-1",
            "--k", "0", "--format", "json"]
    code, out, _ = run(argv, capsys)
    assert code == 0
    rows = json.loads(out)["rows"]
    assert len(rows) == 200
    assert all(list(row) == ["rho", "F", "G"] for row in rows)
    # tables go to stdout; a file is a shell redirection, not an option
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--output", str(tmp_path / "wf.json")])
    assert exc.value.code == 2
    capsys.readouterr()


def test_exit_code_physics(capsys):
    code, _, err = run(["wavefunction", "--zeta", "0.5", "--j", "0.5",
                        "--eps", "+1", "--k", "0"], capsys)
    assert code == 3
    assert "k=0" in err and "j=0.5" in err

    code, _, err = run(["spectrum", "--zeta", "1.2", "--j-max", "0.5"], capsys)
    assert code == 3
    assert "supercritical" in err.lower() or "zeta" in err


def test_exit_code_domain(capsys):
    code, _, err = run(["wavefunction", "--zeta", "0.5", "--j", "0.6",
                        "--eps", "-1", "--k", "1"], capsys)
    assert code == 2
    assert "half-odd" in err
    # within 1e-9 of a half-odd integer is not one
    code, out, err = run(["spectrum", "--zeta", "0.5", "--j-max", "1.5000000004"], capsys)
    assert code == 2 and out == "" and "half-odd" in err


def test_subnormal_nu_exits_one(capsys):
    # nu ~ zeta/(2(s + k)) is subnormal; the labels used to print off with exit 0
    code, out, err = run(["spectrum", "--zeta", "1e-320"], capsys)
    assert code == 1 and out == ""
    assert err.startswith("error:") and "subnormal" in err and len(err.splitlines()) == 1


def test_closed_pipe_ends_quietly():
    # the reader stops after one line, as `| head -1` does; the table (about
    # 250 kB) outgrows the pipe's buffer, so the CLI is still writing when the
    # pipe closes: exit 1, and nothing on stderr
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [
        str(Path(diracladder.__file__).parent.parent), env.get("PYTHONPATH")]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "diracladder.cli", "wavefunction", "--zeta", "0.5",
         "--j", "2.5", "--eps", "1", "--k", "12", "--grid", "0.01,60,4000"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    try:
        assert proc.stdout.readline().startswith(b"# generator = diracladder")
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=120) == 1
    finally:
        proc.kill()
        proc.wait()
        proc.stderr.close()
    assert "Traceback" not in err
    assert err == ""


def test_wavefunction_refuses_non_finite_values(capsys):
    # at k = 200 the float64 weight underflows at rho = 1500 while q
    # overflows; the command stops instead of printing nan.  The evaluator
    # judges finiteness and raises PrecisionLoss without a RuntimeWarning, so
    # under warnings-as-errors it still exits 1, and stderr is one line
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(["wavefunction", "--zeta", "0.5", "--j", "0.5",
                              "--eps", "-1", "--k", "200", "--grid", "100,1500,6",
                              "--normalize", "physical"], capsys)
    assert code == 1
    assert "nan" not in out
    assert err.startswith("error:") and "rho = 1500.0" in err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("argv", [
    # b_0 = pi**(1/4)/sqrt(Gamma(lam) Gamma(lam + 1/2)) is subnormal in float64,
    # where every value is evaluated, also at 113 bits
    ["wavefunction", "--j", "200.5", "--eps", "-1", "--k", "0", "--grid", "1,20,3"],
    ["wavefunction", "--j", "200.5", "--eps", "-1", "--k", "0", "--grid", "1,20,3",
     "--precision", "113"],
    ["wavefunction", "--j", "200.5", "--eps", "-1", "--k", "1", "--normalize", "physical"],
    # the truncated norm at R = 40 overflows float64
    ["demo-divergence", "--j", "85.5"],
])
def test_channels_float64_cannot_carry_exit_one(argv, capsys):
    # they used to print zeros or inf and exit 0, or end in a traceback
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(argv + ["--zeta", "0.5"], capsys)
    assert code == 1 and out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1


@pytest.mark.parametrize("j, k", [("79.5", "20"), ("84.5", "1"), ("85.5", "0")])
def test_float64_wavefunction_past_gamma_overflow_matches_113_bits(j, k, capsys):
    # Gamma(2*lam) overflows float64 here; these used to exit 1
    argv = ["wavefunction", "--zeta", "0.5", "--j", j, "--eps", "-1", "--k", k,
            "--normalize", "physical", "--grid", "1,360,60", "--format", "json"]
    tables = []
    for bits in ("53", "113"):
        code, out, _ = run(argv + ["--precision", bits], capsys)
        assert code == 0
        tables.append(np.array([[r["F"], r["G"]] for r in json.loads(out)["rows"]]))
    assert np.max(np.abs(tables[0] - tables[1])) <= 1e-13 * np.max(np.abs(tables[1]))


@pytest.mark.parametrize("argv", [
    ["wavefunction", "--zeta", "0.5", "--j", "nan", "--eps", "-1", "--k", "1"],
    ["wavefunction", "--zeta", "0.5", "--j", "inf", "--eps", "-1", "--k", "1"],
    ["wavefunction", "--zeta", "0.5", "--j", "0.5", "--eps", "-1", "--k", "1",
     "--grid", "0.1,inf,5"],
    ["spectrum", "--zeta", "0.5", "--j-max", "nan"],
    ["spectrum", "--Z", "nan"],
    ["spectrum", "--Z=-1", "--precision", "113"],
    ["spectrum", "--zeta", "0", "--si"],
    ["demo-divergence", "--zeta", "nan"],
    ["oracle-compare", "--zeta", "nan"],
    ["spectrum", "--zeta", "0.5", "--precision", "100000000"],
    ["wavefunction", "--zeta", "0.5", "--j", "0.5", "--eps", "-1", "--k", "1",
     "--precision", "1025"],
    ["demo-divergence", "--zeta", "0.5", "--cutoffs", "5,nan"],
    ["spectrum", "--zeta", "inf"],
    ["spectrum", "--Z", "inf"],
    ["wavefunction", "--Z", "inf", "--j", "0.5", "--eps", "-1", "--k", "1",
     "--precision", "113"],
    ["oracle-compare", "--zeta", "inf"],
    ["demo-divergence", "--zeta", "0.5", "--cutoffs", "5"],
])
def test_non_finite_or_non_positive_inputs_exit_two(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:      # rejected by the argument parser
        code = exc.code
    out, _ = capsys.readouterr()
    assert code == 2
    assert "nan" not in out


@pytest.mark.parametrize("argv", [["spectrum", "--zeta", "abc"],
                                  ["spectrum", "--Z", "abc", "--precision", "113"]])
def test_a_coupling_that_is_not_a_number_is_a_usage_error(argv, capsys):
    code, out, err = run(argv, capsys)
    assert code == 2 and out == ""
    assert err == "usage error: not a number: 'abc'\n"


@pytest.mark.parametrize("argv", [
    ["spectrum", "--zeta", "1e999"],
    ["spectrum", "--zeta", "inf", "--precision", "113"],
    ["oracle-compare", "--zeta", "1e999"],
])
def test_infinite_coupling_is_refused_by_the_library(argv, capsys):
    # the CLI parses any real; the library's coupling check refuses inf
    code, out, err = run(argv, capsys)
    assert code == 2 and out == ""
    assert err.startswith("usage error: zeta must be positive and finite")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("argv", [
    ["wavefunction", "--zeta", "0.5", "--j", "0.5", "--eps", "-1", "--k", "10001"],
    ["wavefunction", "--zeta", "0.5", "--j", "0.5", "--eps", "-1", "--k", "20000000",
     "--precision", "113"],
    ["spectrum", "--zeta", "0.5", "--k-max", "10001"],
    ["oracle-compare", "--zeta", "0.5", "--k-max", "100000"],
])
def test_a_level_above_the_cap_is_refused_before_any_work(argv, capsys, monkeypatch):
    # without the cap these run for seconds to minutes, or exhaust memory
    def called(*args):
        raise AssertionError("the library was called")

    for name in ("bound_energy", "spectrum_table", "compare_spectrum", "_resolve_zeta"):
        monkeypatch.setattr(cli, name, called)
    code, out, err = run(argv, capsys)
    assert code == 2 and out == ""
    assert err.startswith("usage error: k") and len(err.splitlines()) == 1
    assert "at most 10000" in err


@pytest.mark.parametrize("argv", [
    ["spectrum", "--zeta", "0.5", "--j-max", "4000.5", "--k-max", "50"],
    ["spectrum", "--zeta", "0.5", "--j-max", "4.5", "--k-max", "10000", "--precision", "113"],
    ["oracle-compare", "--zeta", "0.5", "--k-max", "16"],
    ["oracle-compare", "--zeta", "0.5", "--j-max", "20.5", "--k-max", "1"],
])
def test_a_table_above_its_cap_is_refused_before_any_work(argv, capsys, monkeypatch):
    # (j_max + 1/2)(2 k_max + 1) states: minutes of shooting or millions of rows
    def called(*args):
        raise AssertionError("the library was called")

    for name in ("spectrum_table", "compare_spectrum", "_resolve_zeta"):
        monkeypatch.setattr(cli, name, called)
    code, out, err = run(argv, capsys)
    assert code == 2 and out == ""
    assert err.startswith("usage error: j_max") and len(err.splitlines()) == 1
    assert f"{argv[0]} takes at most {cli._MAX_STATES[argv[0]]}" in err


@pytest.mark.parametrize("argv", [
    ["spectrum", "--zeta", "0.5", "--j-max", "4.5", "--k-max", "9999"],
    ["spectrum", "--zeta", "0.5", "--k-max", "10000"],
    ["oracle-compare", "--zeta", "0.5", "--k-max", "15"],
    ["oracle-compare", "--zeta", "0.5", "--j-max", "1.5", "--k-max", "7"],
])
def test_a_table_within_its_cap_reaches_the_library(argv, monkeypatch):
    class Reached(Exception):
        pass

    def reached(*args):
        raise Reached

    for name in ("spectrum_table", "compare_spectrum"):
        monkeypatch.setattr(cli, name, reached)
    with pytest.raises(Reached):
        main(argv)


def test_a_level_at_the_cap_runs(capsys):
    code, out, _ = run(["wavefunction", "--zeta", "0.5", "--j", "0.5", "--eps", "-1",
                        "--k", "10000", "--grid", "1,2,2"], capsys)
    assert code == 0 and meta_lines(out)["k"] == "10000"


def test_near_critical_113_bit_spectrum_lists_the_channel(capsys):
    # float(zeta) rounded to j + 1/2 = 1.0: "no subcritical channels", exit 3
    code, out, err = run(["spectrum", "--zeta", "0.99999999999999999999", "--precision",
                          "113", "--j-max", "0.5", "--k-max", "1"], capsys)
    assert code == 0 and err == ""
    assert [row[:3] for row in csv_rows(out)[1]] == [["0.5", "-1", "0"], ["0.5", "-1|+1", "1"]]


def test_113_bit_spectrum_is_sorted_by_its_printed_energies(capsys):
    # float64 sort keys tied below 1.1e-16 and listed j = 1/2, k = 2 first
    code, out, _ = run(["spectrum", "--zeta", "1e-8", "--precision", "113",
                        "--j-max", "1.5", "--k-max", "2", "--no-collapse"], capsys)
    header, rows = csv_rows(out)
    energies = [Decimal(row[header.index("E_over_m")]) for row in rows]
    assert code == 0 and energies == sorted(energies) and len(set(energies)) == 6


def test_a_lambda_float64_rounds_to_half_exits_one(capsys):
    # lam - 1/2 = 1.4e-22 at 200 bits: exit 2 ("lam must ... exceed 1/2") came
    # from float(lam); now the closed form prints and float64 values refuse
    base = ["--zeta", "0.99999999999999999999999999999999999999999999",
            "--precision", "200"]
    code, out, err = run(["wavefunction", *base, "--j", "0.5", "--eps", "-1",
                          "--k", "1", "--grid", "1,3,2"], capsys)
    assert code == 1 and out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1
    code, out, err = run(["spectrum", *base], capsys)
    assert code == 0 and err == "" and len(csv_rows(out)[1]) == 4


def test_usage_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["spectrum"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["spectrum", "--zeta", "0.5", "--Z", "2"])
    assert exc.value.code == 2
    # a grid count above the cap is refused while parsing, before np.linspace
    # would allocate it; the cap itself is accepted (only parsed here)
    for grid in ("nonsense", "0.1,10,100001"):
        with pytest.raises(SystemExit) as exc:
            main(["wavefunction", "--zeta", "0.5", "--j", "0.5", "--eps", "-1",
                  "--k", "1", "--grid", grid])
        assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["demo-divergence", "--zeta", "0.5", "--cutoffs", "5,x"])
    assert exc.value.code == 2
    assert _grid_type("0.1,10,100000") == (0.1, 10.0, 100000)
    # flags a command would ignore are not registered: no command takes a
    # mass (energies are in units of it), alpha and the electron rest energy
    # are fixed constants, and the two float64 commands take no precision
    for argv in (["spectrum", "--zeta", "0.5", "--mass", "inf"],
                 ["spectrum", "--Z", "1", "--alpha", "inf"],
                 ["wavefunction", "--Z", "1", "--alpha", "0.0073", "--j", "0.5",
                  "--eps", "-1", "--k", "1"],
                 ["spectrum", "--zeta", "0.5", "--si", "--electron-mass-mev", "nan"],
                 ["spectrum", "--zeta", "0.5", "--si", "--electron-mass-mev", "-1"],
                 ["wavefunction", "--zeta", "0.5", "--j", "0.5", "--eps", "-1",
                  "--k", "1", "--mass", "nan"],
                 ["oracle-compare", "--zeta", "0.5", "--mass", "inf"],
                 ["demo-divergence", "--zeta", "0.5", "--mass", "2"],
                 ["demo-divergence", "--zeta", "0.5", "--precision", "200"],
                 ["oracle-compare", "--zeta", "0.5", "--precision", "113"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
    capsys.readouterr()


def test_verify_single_suite(capsys):
    code, out, _ = run(["verify", "--suite", "matrices"], capsys)
    assert code == 0
    assert "ALL SUITES PASSED" in out
    assert "[PASS]" in out
    # the oracle-backed sweeps are held to the algebra sweeps' one tolerance
    code, out, _ = run(["verify", "--suite", "quadrature", "--suite", "ode"], capsys)
    sweeps = [line for line in out.splitlines() if line.startswith(
        ("[PASS] unit norms", "[PASS] physical normalization", "[PASS] sup residual"))]
    assert code == 0 and len(sweeps) == 3
    assert all("tol=1.0e-10" in line for line in sweeps), sweeps


def _nan_check(report, i):
    report.checks[i] = dataclasses.replace(report.checks[i], measured=math.nan)
    return report


_SECOND_TOWER = make_channel(1.5, -1, 0.1).lam     # verify's second tower


@pytest.mark.parametrize("home, name, poison, failing", [
    (verify, "commutator_check", lambda f, out: _nan_check(out, 0) if f.rank == 15 else out,
     ["[raise, lower] acts as 2*mu (worst of 126)"]),
    (verify, "apply_casimir",
     lambda f, out: (f, math.nan) if f.rank == 7 and f.branch == "positive" else out,
     ["eigenvalue constancy over towers (126 members)"]),
    (oracle, "inner_product", lambda f, out: math.nan if f.rank == 4 else out,
     ["unit norms along towers (66 members)"]),
    (oracle, "ode_residual", lambda sol, out: _nan_check(out, 1) if sol.state.k == 6 else out,
     ["sup residual, exact derivatives (126 states)"]),
    (verify, "matrix_representation",
     lambda _, m: dataclasses.replace(m, entries=np.full_like(m.entries, math.nan))
     if m.which == "omega1" and m.lam == _SECOND_TOWER else m,
     ["omega1/omega2 traces vanish exactly",
      "symmetry classes (antisym/anti-Hermitian/Hermitian)",
      "interior rows of [omega1, omega2] - i*omega3", "towers stay disconnected"]),
], ids=["algebra", "casimir", "quadrature", "ode", "matrices"])
def test_a_nan_anywhere_in_a_sweep_fails_its_line(home, name, poison, failing,
                                                  monkeypatch, capsys):
    # one NaN on a member, state or tower past the first; Python's max keeps a
    # NaN only in first place, and the line must not read the others' worst
    original = getattr(home, name)
    monkeypatch.setattr(home, name, lambda first, *args, **kwargs:
                        poison(first, original(first, *args, **kwargs)))
    code, out, _ = run(["verify"], capsys)
    assert code == 1 and out.splitlines()[-1] == "SUITE FAILURES PRESENT"
    failed = [line for line in out.splitlines() if line.startswith("[FAIL]")]
    assert [line.partition(" tol=")[0] for line in failed] == [
        f"[FAIL] {check}: measured=nan" for check in failing]


def test_an_unknown_suite_is_a_domain_error():
    # the CLI's choices never pass one; the library names the choices
    with pytest.raises(DomainError, match="unknown suite 'nope'"):
        verify.run_suite("nope")


def test_oracle_compare(capsys):
    # a float64 command reports 53 bits
    code, out, _ = run(["oracle-compare", "--zeta", "0.5", "--j-max", "0.5",
                        "--k-max", "1"], capsys)
    assert code == 0
    header, rows = csv_rows(out)
    assert header[:3] == ["j", "eps", "k"]
    assert len(rows) == 3
    assert float(meta_lines(out)["worst_rel_delta"]) < 1e-6
    assert meta_lines(out)["rel_delta_measure"].startswith("|nu_shooting")
    assert meta_lines(out)["precision_bits"] == "53"


def test_oracle_compare_fails_a_nan_row(capsys, monkeypatch):
    # a NaN in any row, not only the first, fails the gate
    def rows(zeta, j_max, k_max):
        return [{"j": 0.5, "eps": [-1], "k": k, "E_algebraic": 0.9, "E_shooting": 0.9,
                 "rel_delta": delta} for k, delta in enumerate((1e-13, math.nan, 2e-13))]

    monkeypatch.setattr(cli, "compare_spectrum", rows)
    code, out, _ = run(["oracle-compare", "--zeta", "0.5"], capsys)
    assert code == 1
    meta = meta_lines(out)
    assert meta["worst_rel_delta"] == "nan" and meta["agreement_threshold"] == "1e-06"


def test_oracle_compare_json_with_a_nan_row_is_strict_json(capsys, monkeypatch):
    # strict parsers have no NaN: the row's rel_delta is null, and the gate still fails
    def rows(zeta, j_max, k_max):
        return [{"j": 0.5, "eps": [-1], "k": k, "E_algebraic": 0.9, "E_shooting": 0.9,
                 "rel_delta": delta} for k, delta in enumerate((1e-13, math.nan, math.inf))]

    def refuse(token):
        raise ValueError(f"non-standard JSON constant {token}")

    monkeypatch.setattr(cli, "compare_spectrum", rows)
    code, out, _ = run(["oracle-compare", "--zeta", "0.5", "--format", "json"], capsys)
    assert code == 1
    parsed = json.loads(out, parse_constant=refuse)
    assert [r["rel_delta"] for r in parsed["rows"]] == [1e-13, None, None]
    assert parsed["meta"]["worst_rel_delta"] == "nan"


def test_oracle_compare_records_skipped_channels_in_metadata(capsys):
    # zeta = 1.2 is supercritical at j = 1/2: the skip goes into the metadata,
    # as in spectrum, and nothing reaches stderr even under warnings-as-errors
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(["oracle-compare", "--zeta", "1.2", "--j-max", "1.5",
                              "--k-max", "0"], capsys)
    assert code == 0
    assert err == ""
    skipped = json.loads(meta_lines(out)["skipped_channels"])
    assert len(skipped) == 1 and "j=0.5" in skipped[0]
    header, rows = csv_rows(out)
    assert [r[0] for r in rows] == ["1.5"]


def test_demo_divergence(capsys):
    code, out, _ = run(["demo-divergence", "--zeta", "0.5",
                        "--cutoffs", "5,10,20"], capsys)
    assert code == 0
    assert meta_lines(out)["precision_bits"] == "53"
    header, rows = csv_rows(out)
    assert header[0] == "R"
    norms = [float(r[1]) for r in rows]
    assert norms == sorted(norms)
    # the check lines are one metadata entry, so nothing follows the table
    checks = json.loads(meta_lines(out)["checks"])
    assert checks and all(line.startswith("[PASS] ") for line in checks)
    assert not out.strip().splitlines()[-1].startswith("#")

