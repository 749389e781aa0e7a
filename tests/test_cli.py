"""Front-end contract: table shapes, metadata, precision echo, exit codes."""

import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import diracladder
from diracladder import bound_energy, make_channel
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
    # overflows; the command stops instead of printing nan.  It judges
    # finiteness itself, so numpy's overflow warnings are silenced: under
    # warnings-as-errors it still exits 1, and stderr is one line
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
    # the exact norm sum overflows float64 (inf at k = 1, nan at k = 20)
    ["wavefunction", "--j", "84.5", "--eps", "-1", "--k", "1", "--normalize", "physical"],
    ["wavefunction", "--j", "79.5", "--eps", "-1", "--k", "20", "--normalize", "physical"],
    # Gamma(2*lam - 1) of the ground member overflows float64
    ["wavefunction", "--j", "85.5", "--eps", "-1", "--k", "0"],
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
    if argv[0] == "wavefunction":      # extended precision carries them
        code, out, _ = run(argv + ["--zeta", "0.5", "--precision", "113"], capsys)
        assert code == 0 and "nan" not in out and "inf" not in out


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
])
def test_non_finite_or_non_positive_inputs_exit_two(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:      # rejected by the argument parser
        code = exc.code
    out, _ = capsys.readouterr()
    assert code == 2
    assert "nan" not in out


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

