"""Command-line front end driven in-process: exit codes and NA cells."""

import math
import os
import subprocess
import sys

import pytest

from pairtrap import cli
from pairtrap.solver import InteractionModel, TrapGeometry, bound_state_exact


def _run(argv):
    return cli.main(argv + ["--threads", "1"])


def test_check_fast_passes(capsys):
    assert _run(["check", "--fast"]) == 0
    assert "8 checks" in capsys.readouterr().out


def test_spectrum_window_leaves_na_cells(capsys):
    # eta = 1, a = 1: only E_1 = 2.1206 falls inside (2, 4)
    assert _run(["spectrum", "--eta", "1", "--a", "1", "--levels", "3",
                 "--window-min", "2", "--window-max", "4"]) == 0
    header, row = capsys.readouterr().out.splitlines()
    assert header == "inv_a,E_1,E_2,E_3"
    cells = row.split(",")
    assert float(cells[0]) == 1.0
    assert math.isclose(float(cells[1]), 2.1206131962227220325, rel_tol=1e-9)
    assert cells[2:] == ["NA", "NA"]


def test_window_needs_both_ends():
    assert _run(["spectrum", "--eta", "1", "--a", "1",
                 "--window-min", "2"]) == 1


def test_eta_must_be_finite():
    for command in ("spectrum", "bound"):
        assert _run([command, "--eta", "inf", "--a", "1"]) == 1


def test_resonance_with_vanishing_a_eff_is_usage_error():
    # a_bg = gamma = 0 makes a_eff vanish everywhere
    assert _run(["spectrum", "--eta", "1", "--resonance", "0,0,3"]) == 1


@pytest.mark.parametrize("params", ["nan,0.5,3", "0.5,inf,3"])
def test_resonance_with_nonfinite_parameters_is_usage_error(params):
    assert _run(["spectrum", "--eta", "1", "--resonance", params]) == 1


def test_help_exits_zero(capsys):
    assert cli.main(["spectrum", "--help"]) == 0
    assert "--resonance" in capsys.readouterr().out


def test_spectrum_sweep_default_window(capsys):
    # the default window reaches below the bound level at every 1/a
    assert _run(["spectrum", "--eta", "2.37", "--inv-a-min", "-1",
                 "--inv-a-max", "1", "--inv-a-steps", "3"]) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    assert header == "inv_a,E_1,E_2,E_3,E_4,E_5,E_6"
    assert len(rows) == 3
    for row in rows:
        cells = row.split(",")
        assert "NA" not in cells
        bound = bound_state_exact(
            InteractionModel.from_inverse_a(float(cells[0])),
            TrapGeometry(2.37))
        assert abs(float(cells[1]) - bound.E) < 1e-10


def test_spectrum_resonance_default_window(capsys):
    assert _run(["spectrum", "--eta", "2.37", "--resonance", "0.5,0.3,3.5",
                 "--levels", "2"]) == 0
    header, row = capsys.readouterr().out.splitlines()
    assert header == "inv_a,E_1,E_2"
    cells = row.split(",")
    # an energy-dependent model has no single 1/a
    assert cells[0] == "NA"
    assert "NA" not in cells[1:]


def test_spectrum_csv_same_across_worker_counts(tmp_path):
    # one process or a pool of two: the CSV is the same byte for byte, so
    # no value depends on which process computed it
    out = {}
    for threads in ("1", "2"):
        path = tmp_path / ("threads%s.csv" % threads)
        assert cli.main(["spectrum", "--eta", "2.37", "--inv-a-min", "-1",
                         "--inv-a-max", "1", "--inv-a-steps", "4",
                         "--levels", "3", "--threads", threads,
                         "--out", str(path)]) == 0
        out[threads] = path.read_bytes()
    assert out["1"] == out["2"]
    assert out["1"].count(b"\n") == 5 and b"NA" not in out["1"]


def test_bound_writes_one_row(tmp_path):
    path = tmp_path / "bound.csv"
    assert _run(["bound", "--eta", "2.37", "--a", "0.5",
                 "--out", str(path)]) == 0
    header, row = path.read_text().splitlines()
    assert header == "inv_a,E"
    inv_a, e = (float(c) for c in row.split(","))
    assert inv_a == 2.0
    want = bound_state_exact(InteractionModel.fixed(0.5), TrapGeometry(2.37))
    assert math.isclose(e, want.E, rel_tol=1e-11)


def test_fig2_writes_one_csv_per_axis(tmp_path):
    assert _run(["fig2", "--eta", "100", "--out",
                 str(tmp_path / "x.csv")]) == 0
    assert sorted(os.listdir(tmp_path)) == ["x_axial.csv", "x_radial.csv"]
    for axis, rows in (("axial", 25), ("radial", 20)):
        text = (tmp_path / ("x_%s.csv" % axis)).read_text()
        header, *lines = text.splitlines()
        assert header == "coordinate,psi_exact,psi_asymptotic"
        assert len(lines) == rows
        assert not any("NA" in line for line in lines)


def test_check_failure_exits_3(monkeypatch, capsys):
    monkeypatch.setattr(cli, "_check_battery",
                        lambda fast: [("always fails", 1.0, 0.5, False)])
    assert _run(["check", "--fast"]) == 3
    out = capsys.readouterr().out
    assert "FAIL" in out and "1 checks" in out and "FAILURES" in out


@pytest.fixture(scope="module")
def cli_import_modules():
    # the modules a fresh interpreter holds after `import pairtrap.cli`
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    probe = "import sys, pairtrap.cli; print(' '.join(sys.modules))"
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    return set(out.split())


@pytest.mark.parametrize("module", ["scipy.integrate", "scipy.optimize",
                                    "scipy.linalg"])
def test_cli_import_leaves_out(cli_import_modules, module):
    # the package integrates on its own node table and finds roots with its
    # own Brent loop; these modules would only add import time
    assert "scipy.special" in cli_import_modules
    assert module not in cli_import_modules


def test_wavefunction_without_a_level_exits_2(capsys):
    assert _run(["wavefunction", "--eta", "2", "--a", "0"]) == 2
    assert "a = 0 has no level below E0" in capsys.readouterr().err


def test_wavefunction_partial_grid_fills_from_own_default(tmp_path):
    # a grid flag given alone keeps the command's default for the rest:
    # from one step of 1/60 of the range off the origin to 3/sqrt(eta) on
    # the radial axis or 3 on the axial one, 60 points
    cfg = cli.parse(["wavefunction", "--eta", "2", "--grid-max", "1.5"])
    assert cfg.coord_grid == (0.05, 1.5, 60)
    path = tmp_path / "wf.csv"
    assert _run(["wavefunction", "--eta", "2", "--axis", "radial",
                 "--grid-steps", "5", "--out", str(path)]) == 0
    header, *rows = path.read_text().splitlines()
    assert header == "coordinate,psi_exact,psi_asymptotic"
    hi = 3.0 / math.sqrt(2.0)
    coords = [float(row.split(",")[0]) for row in rows]
    assert coords == pytest.approx(
        [hi / 60 + i * (hi - hi / 60) / 4 for i in range(5)], rel=1e-11)
    assert not any("NA" in row for row in rows)


def test_wavefunction_default_grid_has_no_na_row(tmp_path, capsys):
    # the default grid keeps off the contact singularity at the origin, so
    # no row is NA and nothing is warned; its spacing is 1/60 of the range
    path = tmp_path / "wf.csv"
    assert _run(["wavefunction", "--eta", "2", "--axis", "radial",
                 "--out", str(path)]) == 0
    assert capsys.readouterr().err.splitlines() == ["pairtrap: wrote %s"
                                                    % path]
    rows = path.read_text().splitlines()[1:]
    coords = [float(row.split(",")[0]) for row in rows]
    hi = 3.0 / math.sqrt(2.0)
    assert len(rows) == 60 and coords[-1] == pytest.approx(hi, rel=1e-12)
    assert coords[0] == pytest.approx(coords[1] - coords[0], rel=1e-9)
    assert coords[1] - coords[0] == pytest.approx(hi / 60, rel=1e-9)
    assert not any("NA" in row for row in rows)


def test_config_file_fills_absent_flags_and_flags_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# spectrum settings\neta = 1\na = 2\nlevels = 2\n")
    assert _run(["spectrum", "--config", str(cfg), "--a", "0.5"]) == 0
    header, row = capsys.readouterr().out.splitlines()
    assert header == "inv_a,E_1,E_2"     # levels from the file
    assert float(row.split(",")[0]) == 2.0  # --a over the file's a
    assert "NA" not in row


def test_config_unknown_key_names_its_line(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("eta = 1\n\nbogus = 3\n")
    assert _run(["spectrum", "--config", str(cfg), "--a", "1"]) == 1
    err = capsys.readouterr().err
    assert "line 3" in err and "bogus" in err
