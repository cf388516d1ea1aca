"""Spectral function F(x, eta): frozen values, route agreement, limits.

Frozen tables come from 50-digit quadrature/series oracles
(tests/oracles/spectral_oracle*.out).  The quasi-1d / quasi-2d variants are
approximations by construction; their frozen relative errors are pinned on
both sides so neither a regression nor a silent formula change can hide.
"""

import math
import re

import pytest

from conftest import args_of, fval, oracle_lines, oracle_values
from pairtrap.numerics import QuadratureSpec
from pairtrap.specfun import PoleSignal, gamma_ratio
from pairtrap.spectral import (SpectralArgument, f_cigar, f_eval, f_integral,
                               f_pancake, f_quasi1d, f_quasi2d,
                               f_recurrence_extend, phi, pole_grid)

ORA1 = oracle_values("spectral_oracle.out")
ORA2 = oracle_values("spectral_oracle2.out")
PHI = oracle_values("phi_check.out")


def _close(got, want, rel, abs_floor=0.0):
    assert abs(got - want) <= rel * abs(want) + abs_floor, \
        "got %.17g want %.17g" % (got, want)


def _pin_relerr(live, frozen):
    # double-sided: catches regressions and silently "improved" formulas
    assert 0.95 * frozen - 1e-9 <= live <= 1.05 * frozen + 1e-9, \
        "live %.4e frozen %.4e" % (live, frozen)


# ---------------------------------------------------------------------------
# integral route vs spherical closed form (the oracle's own header rows)
# ---------------------------------------------------------------------------

_SPH_ROWS = [re.match(r"F\(([^,]+),1\) integral=(\S+) closed=(\S+)", ln)
             for ln in oracle_lines("spectral_oracle.out")]
_SPH_ROWS = [(float(m.group(1)), float(m.group(2))) for m in _SPH_ROWS if m]


@pytest.mark.parametrize("x,want", _SPH_ROWS)
def test_integral_matches_spherical_frozen(x, want):
    got = f_integral(SpectralArgument(x, 1.0)).value
    _close(got, want, 1e-10, abs_floor=1e-10)
    closed = -2.0 * math.sqrt(math.pi) * gamma_ratio(x, x - 0.5)
    _close(got, closed, 1e-10, abs_floor=1e-10)


@pytest.mark.parametrize("key", [k for k in ORA1
                                 if re.fullmatch(r"F\([^)]*\)", k)])
def test_f_eval_frozen_oracle1(key):
    x, eta = args_of(key)
    _close(f_eval(SpectralArgument(x, eta)).value, fval(ORA1, key), 5e-11)


@pytest.mark.parametrize("key", [k for k in ORA2
                                 if re.fullmatch(r"F\([^)]*\)", k)])
def test_f_eval_frozen_oracle2(key):
    x, eta = args_of(key)
    _close(f_eval(SpectralArgument(x, eta)).value, fval(ORA2, key), 5e-11)


@pytest.mark.parametrize(
    "key", [k for k in ORA2 if k.startswith("Fint(")]
    + [k for k in ORA1
       if re.fullmatch(r"F\([^)]*\)", k) and args_of(k)[0] > 0])
def test_integral_route_frozen_cross_checks(key):
    # the integral route on its own, also where f_eval takes a closed form
    table = ORA2 if key in ORA2 else ORA1
    x, eta = args_of(key)
    got = f_integral(SpectralArgument(x, eta)).value
    _close(got, fval(table, key), 5e-10)


@pytest.mark.parametrize("key",
                         [k for k in list(ORA1) + list(ORA2)
                          if k.startswith("Fcig(")])
def test_cigar_closed_form_frozen(key):
    table = ORA1 if key in ORA1 else ORA2
    x, n = args_of(key)
    _close(f_cigar(x, int(n)).value, fval(table, key), 5e-11)


@pytest.mark.parametrize("key", [k for k in ORA1 if k.startswith("Fpan(")])
def test_pancake_closed_form_frozen(key):
    x, n = args_of(key)
    _close(f_pancake(x, int(n)).value, fval(ORA1, key), 5e-11)


def test_small_x_pole_law():
    # x F(x, eta) -> eta as x -> 0+
    for key in (k for k in ORA1 if k.startswith("xF(")):
        x, eta = args_of(key)
        got = x * f_eval(SpectralArgument(x, eta)).value
        _close(got, fval(ORA1, key), 1e-9)
    for eta in (1.0, 1.7, 0.3, 2.0):
        assert abs(1e-6 * f_eval(SpectralArgument(1e-6, eta)).value
                   - eta) < 1e-4


def test_large_x_growth_frozen():
    for x in (100.0, 10000.0):
        key = "F(%g,1)/sqrt(x)" % x
        got = f_eval(SpectralArgument(x, 1.0)).value / math.sqrt(x)
        _close(got, fval(ORA1, key), 1e-10)
    # limit constant is -2 sqrt(pi)
    assert abs(fval(ORA1, "F(10000,1)/sqrt(x)")
               + 2.0 * math.sqrt(math.pi)) < 2e-3


def test_recurrence_step_residual():
    x, eta = 0.3, 1.7
    lhs = f_eval(SpectralArgument(x, eta)).value \
        - f_eval(SpectralArgument(x + eta, eta)).value
    rhs = eta * math.sqrt(math.pi) * gamma_ratio(x, x + 0.5)
    assert abs(lhs - rhs) < 1e-9


def test_recurrence_extension_matches_direct():
    # the recurrence-lifted integral must agree with the plain integral,
    # with the closed forms at integer eta and 1/eta, and with the frozen
    # value at x < 0
    for x, eta in ((0.6, 1.3), (1.4, 0.45), (2.2, 2.8)):
        a = f_recurrence_extend(SpectralArgument(x, eta)).value
        b = f_integral(SpectralArgument(x, eta)).value
        _close(a, b, 1e-9, abs_floor=1e-10)
    for eta in (2.0, 3.0, 4.0, 0.5, 1.0 / 3.0, 0.25):
        for x in (0.1, 0.35, 0.8, 1.5, 2.7, 5.0):
            a = f_eval(SpectralArgument(x, eta)).value
            b = f_recurrence_extend(SpectralArgument(x, eta)).value
            assert abs(a - b) <= 1e-7 * max(1.0, abs(a))
    _close(f_recurrence_extend(SpectralArgument(-0.35, 0.25)).value,
           fval(ORA1, "F(-0.35,0.25)_steps"), 5e-11)


# ---------------------------------------------------------------------------
# quasi-1d / quasi-2d variants: frozen values and pinned approximation error
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("key", [k for k in list(ORA2) + [
    k for k in ORA1 if k not in ORA2] if k.startswith("Fq1d(")])
def test_quasi1d_frozen(key):
    x, eta = args_of(key)
    got = f_quasi1d(SpectralArgument(x, eta)).value
    exact = f_eval(SpectralArgument(x, eta)).value
    if key in ORA2:
        _close(got, fval(ORA2, key), 5e-11)
        frozen = fval(ORA2, "relerr(%s)" % key[5:].split(",")[0])
    else:
        # spectral_oracle.out stores the exact F beside the asymptote
        _close(got, fval(ORA1, key), 5e-11)
        f_exact = fval(ORA1, "Fexact" + key[4:])
        _close(exact, f_exact, 5e-11)
        frozen = abs(fval(ORA1, key) / f_exact - 1.0)
    _pin_relerr(abs(got / exact - 1.0), frozen)


@pytest.mark.parametrize("key",
                         [k for k in ORA2 if k.startswith("Fq1d_bound(")])
def test_quasi1d_bound_variant_frozen(key):
    x, eta = args_of(key)
    got = f_quasi1d(SpectralArgument(x, eta), bound_state=True).value
    _close(got, fval(ORA2, key), 5e-11)
    frozen = fval(ORA2, "relerr_bound(%s)" % key[11:].split(",")[0])
    exact = f_eval(SpectralArgument(x, eta)).value
    _pin_relerr(abs(got / exact - 1.0), frozen)


@pytest.mark.parametrize("key", [k for k in ORA2 if k.startswith("Fq2d(")])
def test_quasi2d_frozen(key):
    x, eta = args_of(key)
    got = f_quasi2d(SpectralArgument(x, eta)).value
    _close(got, fval(ORA2, key), 5e-11)
    frozen = fval(ORA2, "relerr2d(%s)" % key[5:].split(",")[0])
    exact = f_eval(SpectralArgument(x, eta)).value
    _pin_relerr(abs(got / exact - 1.0), frozen)


def test_quasi2d_bound_variant_frozen():
    got = f_quasi2d(SpectralArgument(2.0, 0.01), bound_state=True).value
    _close(got, fval(ORA2, "Fq2d_bound(2,0.01)"), 5e-11)
    exact = f_eval(SpectralArgument(2.0, 0.01)).value
    _pin_relerr(abs(got / exact - 1.0), fval(ORA2, "relerr2d_bound(2)"))


def test_quasi2d_error_scales_linearly_in_eta():
    # frozen |Fq2d - F| at x = 0.5 drops ~10x per eta decade
    errs = []
    for eta_key, eta in (("1/100", 0.01), ("1/1000", 0.001),
                         ("1/10000", 0.0001)):
        exact = fval(ORA2, "F(0.5,%s)" % eta_key)
        live = f_eval(SpectralArgument(0.5, eta)).value
        _close(live, exact, 5e-11)
        q2d = f_quasi2d(SpectralArgument(0.5, eta)).value
        frozen = fval(ORA2, "abs_err_q2d(eta=%s)" % eta_key)
        _pin_relerr(abs(q2d - exact), frozen)
        errs.append(abs(q2d - live))
    assert 8.0 < errs[0] / errs[1] < 12.0
    assert 8.0 < errs[1] / errs[2] < 12.0


def test_quasi_variant_domain_gates():
    with pytest.raises(ValueError):
        f_quasi1d(SpectralArgument(1.0, 2.0))   # eta below min_eta
    with pytest.raises(ValueError):
        f_quasi2d(SpectralArgument(1.0, 0.5))   # eta above max_eta


# ---------------------------------------------------------------------------
# phi
# ---------------------------------------------------------------------------

# phi(5) is frozen only in spectral_oracle.out.  That file's phi(-0.3) is
# not read: a direct 40-digit sum with the Hurwitz-zeta tail puts it 7.8e-10
# off, while the same sum agrees with phi_check.out at x = -0.305.
@pytest.mark.parametrize("key", [k for k in PHI
                                 if re.fullmatch(r"phi\([^)]*\)", k)]
                         + ["phi(5)"])
def test_phi_frozen(key):
    (x,) = args_of(key)
    _close(phi(x), fval(PHI if key in PHI else ORA1, key), 5e-12,
           abs_floor=5e-13)


def test_phi_oracle_consistency_across_files():
    # the same points frozen in two independently produced tables
    for key in ("phi(0.3)", "phi(1.5)", "phi(4.5)", "phi(0.005)"):
        assert fval(PHI, key) == pytest.approx(fval(ORA2, key), rel=1e-17)


def test_phi_domain():
    with pytest.raises(ValueError):
        phi(-1.0)


# ---------------------------------------------------------------------------
# pole structure and error paths
# ---------------------------------------------------------------------------

def test_pole_grid_contents():
    grid = pole_grid(2.0, -5.0).poles
    assert grid == (-0.0, -1.0, -2.0, -3.0, -4.0, -5.0)
    grid = pole_grid(0.75, -2.0).poles
    # poles at -(j + 0.75 k): 0, .75, 1, 1.5, 1.75, 2 in magnitude
    assert grid == (-0.0, -0.75, -1.0, -1.5, -1.75, -2.0)
    # eta = 1/2: the k >= 2 poles coincide with integer ones
    assert pole_grid(0.5, -1.6).poles == (0.0, -0.5, -1.0, -1.5)


def test_f_eval_raises_at_poles():
    with pytest.raises(PoleSignal) as err:
        f_eval(SpectralArgument(0.0, 1.7))
    assert err.value.location == pytest.approx(0.0)
    with pytest.raises(PoleSignal):
        f_eval(SpectralArgument(-1.0 + 1e-12, 2.0))
    with pytest.raises(PoleSignal) as err:
        f_eval(SpectralArgument(-1.7, 1.7))
    assert err.value.location == pytest.approx(-1.7)
    for x, eta in ((-1.0, 1.0), (-2.5, 2.5), (-3.4, 1.7),
                   (-(3 + 100 * 0.003), 0.003), (-(2 + 0.003), 0.003),
                   (-300.0, 300.0), (-(7 + 300.0), 300.0)):
        with pytest.raises(PoleSignal) as err:
            f_eval(SpectralArgument(x, eta))
        assert err.value.location == pytest.approx(x)
    # just above the pole at 0, on the bound side
    for eta in (0.003, 300.0):
        with pytest.raises(PoleSignal) as err:
            f_eval(SpectralArgument(5e-10, eta))
        assert err.value.location == 0.0


def test_spectral_argument_validation():
    with pytest.raises(ValueError):
        SpectralArgument(0.5, 0.0)
    with pytest.raises(ValueError):
        SpectralArgument(math.nan, 1.0)


def test_route_reporting():
    assert f_eval(SpectralArgument(0.7, 2.0)).route == "cigar"
    assert f_eval(SpectralArgument(0.7, 0.25)).route == "pancake"
    assert f_eval(SpectralArgument(0.7, 1.618)).route in ("integral",
                                                          "recurrence")


def test_integral_spec_override():
    loose = QuadratureSpec(abs_tol=1e-9, rel_tol=1e-7)
    v = f_integral(SpectralArgument(0.7, 2.0), spec=loose)
    _close(v.value, fval(ORA1, "F(0.7,2)"), 1e-6)
