"""Command-line front end driven in-process: exit codes and NA cells."""

import math
import os
import subprocess
import sys

import pytest

from pairtrap import cli, solver, spectral
from pairtrap.solver import (InteractionModel, TrapGeometry, _default_window,
                             bound_state_exact, eigenenergies,
                             ground_energy_offset)


def _run(argv):
    return cli.main(argv + ["--threads", "1"])


def test_check_fast_passes(capsys):
    assert _run(["check", "--fast"]) == 0
    assert "9 checks" in capsys.readouterr().out


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


def test_unbounded_resonance_window_exits_2():
    # the solver rejects the window instead of walking its poles without end
    assert _run(["spectrum", "--eta", "2", "--resonance", "0.5,0.3,3.5",
                 "--window-min", "0", "--window-max", "inf",
                 "--levels", "2"]) == 2


def test_unbounded_fixed_a_window_exits_2(capsys):
    # as with --resonance: the run fails instead of writing an NA row
    assert _run(["spectrum", "--eta", "2", "--a", "1", "--levels", "2",
                 "--window-min", "0", "--window-max", "inf"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "window must be a bounded interval" in err


def test_eta_must_be_finite():
    for command in ("spectrum", "bound"):
        assert _run([command, "--eta", "inf", "--a", "1"]) == 1


def test_resonance_with_vanishing_a_eff_is_usage_error():
    # a_bg = gamma = 0 makes a_eff vanish everywhere
    assert _run(["spectrum", "--eta", "1", "--resonance", "0,0,3"]) == 1


@pytest.mark.parametrize("params", ["nan,0.5,3", "0.5,inf,3"])
def test_resonance_with_nonfinite_parameters_is_usage_error(params):
    assert _run(["spectrum", "--eta", "1", "--resonance", params]) == 1


@pytest.mark.parametrize("flags, field, want", [
    (["--inv-a-min", "-1e9", "--inv-a-max", "1e9", "--inv-a-steps", "5"],
     "inv_a_grid", (-1e9, 1e9, 5)),
    (["--a", "1", "--window-min", "-2.5E-3", "--window-max", "9"],
     "window", (-2.5e-3, 9.0)),
    (["--inv-a-min", "-inf", "--inv-a-max", "1"],
     "inv_a_grid", (-math.inf, 1.0, 161)),
    (["--resonance", "-1.0,0.5,3.0"], "resonance", (-1.0, 0.5, 3.0))])
def test_negative_values_in_any_float_form_are_values(flags, field, want):
    # argparse alone reads only -1 and -1.5 as values and takes -1e9,
    # -2.5E-3, -inf and -1.0,0.5,3.0 for flags ("expected one argument")
    cfg = cli.parse(["spectrum", "--eta", "2.37"] + flags)
    assert getattr(cfg, field) == want


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


def test_fig1_rows_equal_per_cell_solves(capsys):
    # fig1's 161-cell sweep prints, per 1/a, the levels a cold per-cell
    # eigenenergies solve finds in the sweep's one default window (no pole
    # grid and no window memo kept from other cells); a sweep solver must
    # keep this
    assert _run(["fig1", "--eta", "2.37", "--levels", "3"]) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    assert header == "inv_a,E_1,E_2,E_3"
    assert len(rows) == 161
    g = TrapGeometry(2.37)
    inv_grid = [-4.0 + 8.0 * i / 160 for i in range(161)]
    window = _default_window(g, 3, inv_grid)
    for row, inv_a in zip(rows, inv_grid):
        assert "NA" not in row.split(",")
        solver._window_walk.cache_clear()
        levels = eigenenergies(InteractionModel.from_inverse_a(inv_a), g,
                               window=window, max_levels=3)
        assert row == ",".join("%.12g" % v
                               for v in [inv_a] + [lv.E for lv in levels])


def test_fig1_window_memo_stays_bounded(capsys, monkeypatch):
    # the window memo keeps F only where no 1/a moves the point: the
    # window edges and one first Brent point per segment walked, however
    # many cells the sweep solves
    walked = set()
    search = solver._roots_in_segments

    def spy(target, segments, ends=None):
        walked.update((a, b) for a, b, _, _ in segments)
        return search(target, segments, ends)

    monkeypatch.setattr(solver, "_roots_in_segments", spy)
    solver._window_walk.cache_clear()
    assert _run(["fig1", "--eta", "2.37"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 162
    g = TrapGeometry(2.37)
    e_lo, e_hi = _default_window(
        g, 6, [-4.0 + 8.0 * i / 160 for i in range(161)])
    e0 = ground_energy_offset(g)
    assert solver._window_walk.cache_info().currsize == 1
    _, _, known = solver._window_walk(2.37, (e0 - e_hi) / 2.0,
                                      (e0 - e_lo) / 2.0)
    assert solver._window_walk.cache_info().hits >= 161
    assert 0 < len(known) <= len(walked) + 2


def test_fig1_sweep_builds_the_terminal_fit_once(capsys):
    # every cell of a sweep at one eta reads F's terminal values from the
    # one interpolant above T, built once by the first F batch
    spectral._terminal_fit.cache_clear()
    assert _run(["fig1", "--eta", "1.618"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 162
    info = spectral._terminal_fit.cache_info()
    assert (info.misses, info.currsize) == (1, 1)
    assert info.hits > 161


@pytest.mark.parametrize("argv", [
    ["fig1", "--eta", "2.37"],
    ["bound", "--eta", "2.37", "--inv-a-steps", "161"]])
def test_sweeps_integrate_only_to_build_the_fits(argv, capsys, monkeypatch):
    # a 161-cell sweep runs no single-element quadrature: F's defining
    # integral runs once, to build the interpolant on its 28 points
    sizes = []
    integrate = spectral.integrate

    def counted(f_vec, scale):
        sizes.append(len(scale))
        return integrate(f_vec, scale)

    monkeypatch.setattr(spectral, "integrate", counted)
    spectral._terminal_fit.cache_clear()
    assert _run(argv) == 0
    assert len(capsys.readouterr().out.splitlines()) == 162
    assert sizes == [spectral._FIT_N]


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


def _src_env():
    # the environment of a fresh interpreter that imports this checkout
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    return env


@pytest.fixture(scope="module")
def cli_import_modules():
    # the modules a fresh interpreter holds after `import pairtrap.cli`
    probe = "import sys, pairtrap.cli; print(' '.join(sys.modules))"
    out = subprocess.run([sys.executable, "-c", probe], env=_src_env(),
                         check=True, capture_output=True, text=True).stdout
    return set(out.split())


@pytest.mark.parametrize("module", ["scipy", "scipy.integrate",
                                    "scipy.optimize", "scipy.linalg"])
def test_cli_import_leaves_out(cli_import_modules, module):
    # the package integrates on its own node table, finds roots with its
    # own Brent loop and takes its special functions from specfun; neither
    # this module nor any submodule of it is loaded
    assert not [m for m in cli_import_modules
                if m == module or m.startswith(module + ".")]


def test_check_passes_with_scipy_blocked():
    # the whole `pairtrap check` battery runs on numpy alone: with scipy
    # made unimportable, every row still passes
    probe = ("import sys; sys.modules['scipy'] = None; "
             "from pairtrap.cli import main; "
             "sys.exit(main(['check', '--threads', '1']))")
    run = subprocess.run([sys.executable, "-c", probe], env=_src_env(),
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stdout + run.stderr
    assert "all passed" in run.stdout


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


@pytest.mark.parametrize("eta, axis", [(2.0, "axial"), (2.0, "radial"),
                                       (0.5, "axial"), (0.5, "radial")])
def test_excited_profiles_have_exact_values(eta, axis, capsys):
    # above E0 (a = 1, E = E0 + 0.6) the exact column holds a value on
    # both axes at every default grid point; the asymptotic profiles need
    # E < E0, so that column is NA
    assert _run(["wavefunction", "--eta", repr(eta), "--a", "1", "--axis",
                 axis, "--energy", repr(0.5 + eta + 0.6)]) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    assert header == "coordinate,psi_exact,psi_asymptotic"
    assert len(rows) == 60
    for row in rows:
        coord, exact, asym = row.split(",")
        assert math.isfinite(float(exact)) and asym == "NA"


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
