"""Command-line front end driven in-process: exit codes and NA cells."""

import math

from pairtrap import cli


def _run(argv):
    # usage errors leave through argparse's SystemExit, with code 1
    try:
        return cli.main(argv + ["--threads", "1"])
    except SystemExit as exc:
        return exc.code


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
