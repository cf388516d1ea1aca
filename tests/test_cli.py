"""Command-line front end driven in-process: exit codes and NA cells."""

import math

from pairtrap import cli
from pairtrap.solver import InteractionModel, TrapGeometry, bound_state_exact


def _run(argv):
    return cli.main(argv + ["--threads", "1"])


def test_check_fast_passes(capsys):
    assert _run(["check", "--fast"]) == 0
    assert "5 checks" in capsys.readouterr().out


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
