"""Spectral function F(x, eta): frozen values, route agreement, limits.

Frozen tables come from 50-digit quadrature/series oracles
(tests/oracles/spectral_oracle*.out).  The quasi-1d / quasi-2d variants are
approximations by construction; their frozen relative errors are pinned on
both sides so neither a regression nor a silent formula change can hide.
"""

import math
import re

import mpmath
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from conftest import args_of, fval, oracle_lines, oracle_values
import numpy as np

from pairtrap import spectral
from pairtrap.numerics import integrate
from pairtrap.specfun import PoleSignal, gamma_ratio
from pairtrap.spectral import (SpectralArgument, f_cigar, f_eval,
                               f_eval_many, f_integral, f_pancake, f_quasi1d,
                               f_quasi2d, f_recurrence_extend, f_values, phi,
                               pole_grid)

ORA1 = oracle_values("spectral_oracle.out")
ORA2 = oracle_values("spectral_oracle2.out")
NODES = oracle_values("node_table_oracle.out")
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
    got = f_integral(SpectralArgument(x, eta))
    _close(got.value, fval(table, key), 5e-10)
    # the node table's error estimate bounds its error
    assert abs(got.value - fval(table, key)) <= got.est_error


@pytest.mark.parametrize("key",
                         [k for k in list(ORA1) + list(ORA2)
                          if k.startswith("Fcig(")])
def test_cigar_closed_form_frozen(key):
    table = ORA1 if key in ORA1 else ORA2
    x, n = args_of(key)
    _close(f_cigar(x, int(n)).value, fval(table, key), 5e-11)


# the bound branch and three points in each of the first six pole intervals
_CIGAR_XS = (0.3, 1.7, 5.0) + tuple(-j - f for j in range(6)
                                    for f in (0.13, 0.5, 0.87))


@pytest.mark.parametrize("eta", list(range(2, 13)) + [100])
def test_cigar_closed_form_matches_f_eval(eta):
    # f_eval takes the node-table recurrence at every integer eta >= 2; the
    # closed form must agree with that route.  At eta = 100 the closed
    # form's gamma ratios at x + 100 carry ~ulp(lgamma) ~ 6e-14 relative
    # error each, and it is up to 1.3e-12 off over these intervals (the
    # recurrence is the one within 1e-14 of 40-digit mpmath there).
    tol = 1e-13 if eta <= 12 else 2e-12
    for x in _CIGAR_XS:
        want = f_recurrence_extend(SpectralArgument(x, float(eta))).value
        got = f_cigar(x, eta).value
        assert abs(got - want) <= tol * (1.0 + abs(want)), (x, got, want)


def test_cigar_error_estimate_covers_recurrence_gap():
    # est_error carries the rounding of each gamma ratio, ~ulp(lgamma) at
    # x + 100, so over the first six pole intervals at eta = 100 the two
    # routes stay within the sum of their estimates
    for j in range(6):
        for i in range(1, 16):
            x = -j - i / 16.0
            closed = f_cigar(x, 100)
            rec = f_recurrence_extend(SpectralArgument(x, 100.0))
            assert (abs(closed.value - rec.value)
                    <= closed.est_error + rec.est_error), x


@pytest.mark.parametrize("x", [2500.3, 9347.64])
def test_spherical_deep_bound_state_within_est_error(x):
    # F(x, 1) = -2 sqrt(pi) Gamma(x)/Gamma(x - 1/2) at deep bound states
    # (1/a ~ 70-135), where poch's log-gamma difference was 2.2e-11 off
    # against a claimed 1e-14
    got = f_eval(SpectralArgument(x, 1.0))
    with mpmath.workdps(40):
        want = (-2 * mpmath.sqrt(mpmath.pi) * mpmath.gamma(x)
                / mpmath.gamma(mpmath.mpf(x) - 0.5))
    assert abs(got.value - want) <= got.est_error, (got, want)


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
# node table against frozen 30-digit integrals
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("eta", (0.003, 0.26, 2.37, 3.9, 300.0))
def test_node_table_matches_quadpack_sweep(eta):
    # f_integral's node table over twelve decades of x, the recurrence's
    # terminal point max(eta, 1)/2 included, against the defining integral
    # in mpmath (node_table_oracle.out).  est_error is checked on the exact
    # recurrence identity, with its gamma ratio from mpmath (gamma_ratio
    # loses 1e-11 relative at x = 1e4).
    for x in (1e-8, 1e-6, 1e-4, 1e-2, 0.1, 0.5 * max(eta, 1.0), 1.0, 7.3,
              100.0, 1e4, 1e6):
        got = f_integral(SpectralArgument(x, eta))
        ref = fval(NODES, "F(x=%r,eta=%r)" % (x, eta))
        assert abs(got.value - ref) <= 1e-12 * (1.0 + abs(ref)), \
            "x=%g: got %.17g ref %.17g" % (x, got.value, ref)
        up = f_integral(SpectralArgument(x + eta, eta))
        with mpmath.workdps(30):
            xm = mpmath.mpf(x)
            ladder = float(eta * mpmath.sqrt(mpmath.pi) * mpmath.gamma(xm)
                           / mpmath.gamma(xm + 0.5))
        assert (abs(got.value - up.value - ladder)
                <= got.est_error + up.est_error + 2.0 ** -52 * abs(ladder))


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
        f_quasi1d(SpectralArgument(1.0, 2.0))   # eta below QUASI1D_MIN_ETA
    with pytest.raises(ValueError):
        f_quasi2d(SpectralArgument(1.0, 0.5))   # eta above QUASI2D_MAX_ETA


# ---------------------------------------------------------------------------
# phi
# ---------------------------------------------------------------------------

# phi(5) and phi(-0.3) are frozen only in spectral_oracle.out.
@pytest.mark.parametrize("key", [k for k in PHI
                                 if re.fullmatch(r"phi\([^)]*\)", k)]
                         + ["phi(5)", "phi(-0.3)"])
def test_phi_frozen(key):
    (x,) = args_of(key)
    _close(phi(x), fval(PHI if key in PHI else ORA1, key), 5e-12,
           abs_floor=5e-13)


@pytest.mark.parametrize("key", [k for k in PHI
                                 if re.fullmatch(r"phi\([^)]*\)", k)])
def test_phi_integral_matches_check_rows(key):
    # the proper-time integral reaches the rows of phi_check.out, x = -0.995
    # to 4.5, to a few ulps
    (x,) = args_of(key)
    _close(phi(x), fval(PHI, key), 1e-14)


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


@pytest.mark.parametrize("eta, x_min", [
    (0.0, -1.0), (-1.0, -1.0), (math.nan, -1.0), (math.inf, -1.0),
    (2.0, -math.inf), (2.0, math.nan), (2.0, 0.0)])
def test_pole_grid_rejects_bad_arguments(eta, x_min):
    # eta <= 0 or x_min = -inf would list poles without end, and a NaN
    # would list none
    with pytest.raises(ValueError):
        pole_grid(eta, x_min)


@given(log_eta=st.floats(math.log(0.01), math.log(100.0)),
       interval=st.integers(0, 6),
       fracs=st.lists(st.floats(1e-6, 1.0 - 1e-6), min_size=8, max_size=8,
                      unique=True))
def test_f_decreases_between_consecutive_poles(log_eta, interval, fracs):
    # on the bound branch (0, 20), which crosses x = T, or on one of the
    # first six pole intervals, F falls wherever two consecutive values
    # differ by more than their estimates
    eta = math.exp(log_eta)
    poles = pole_grid(eta, -8.0).poles
    lo, hi = (0.0, 20.0) if interval == 0 else (poles[interval],
                                                poles[interval - 1])
    assume(hi - lo > 1e-3)  # keeps every point POLE_TOL off the poles
    xs = [lo + f * (hi - lo) for f in sorted(fracs)]
    fs = f_eval_many(xs, eta)
    for a, b in zip(fs, fs[1:]):
        if abs(a.value - b.value) > a.est_error + b.est_error:
            assert b.value < a.value, (eta, xs)


@pytest.mark.parametrize("eta", [0.61, 1.0, 2.0, 3.0, 0.5, 1.5, 10.0])
def test_pole_residues(eta):
    # lim (x - p) F(x) = sum of eta C(2j, j)/4^j over the (j, k) meeting
    # at p, on every route: generic eta (recurrence), the spherical, cigar
    # and pancake closed forms, coincident poles at eta = 1/2, 3/2, 2, 3, and
    # the recurrence at integer eta = 10
    grid = pole_grid(eta, -8.0)
    for p, r in list(zip(grid.poles, grid.residues))[:8]:
        for d in (1e-7, -1e-7):
            got = f_eval(SpectralArgument(p + d, eta)).value * d
            assert abs(got - r) <= 1e-6, (p, d, got, r)


def test_pole_residue_values():
    def residue(eta, x):
        grid = pole_grid(eta, x - 1.0)
        return grid.residues[grid.poles.index(x)]

    assert residue(2.0, -2.0) == 2.75       # (j, k) = (2, 0) and (0, 1)
    assert residue(0.5, -1.0) == 0.75       # (1, 0) and (0, 2)
    assert residue(1.5, -3.0) == pytest.approx(1.5 * (5.0 / 16.0 + 1.0))
    assert residue(2.37, 0.0) == 2.37
    assert residue(2.37, -2.0) == pytest.approx(2.37 * 3.0 / 8.0)


def _fresh_f_integral(x, eta, scale):
    # the default route with no memo, on the node table at any scale
    def rest(t):
        return np.exp(-x * t) * (np.expm1(spectral._excess_log(t, eta))
                                 / (t * np.sqrt(t)))

    value, est = integrate(rest, scale)
    head = 2.0 * math.sqrt(math.pi * x)
    return value - head, est + 2.0 ** -52 * head


@pytest.mark.parametrize("eta", [0.003, 0.26, 2.37, 3.9, 300.0, 1e5])
def test_integrand_row_memo(eta):
    # F from the integrand row at scale 2^k equals a fresh table at that
    # scale bit for bit, alone and in one batch over every x (at eta = 1e5
    # and x below ~0.6 the fine pass runs, on the odd nodes).  Against a fresh table at scale 1/x
    # it moves by at most 4 ulp (1 + |F|), or, where the table's own
    # estimate is larger (x below ~1e-6, and eta = 300 below x ~ 100), by
    # under a quarter of the two estimates.
    ulp = 2.0 ** -52
    xs = np.logspace(-8.0, 6.0, 29).tolist()
    batch, batch_est = spectral._integral_many(xs, eta)
    for x, rest, rest_est in zip(xs, batch.tolist(), batch_est.tolist()):
        got = f_integral(SpectralArgument(x, eta))
        head = 2.0 * math.sqrt(math.pi * x)
        assert (got.value, got.est_error) == (rest - head,
                                              rest_est + ulp * head)
        k = -round(math.log2(x))
        assert got.value == _fresh_f_integral(x, eta, 2.0 ** k)[0]
        fresh, fresh_est = _fresh_f_integral(x, eta, 1.0 / x)
        gap = abs(got.value - fresh)
        assert (gap <= 4.0 * ulp * (1.0 + abs(fresh))
                or gap <= 0.25 * (got.est_error + fresh_est)), (x, gap)


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


@pytest.mark.parametrize("eta", [0.003, 0.37, 1.0, 2.0, 3.0, 4.0, 2.37,
                                 1.0 / 7.0, 300.0])
def test_f_eval_pole_check_covers_every_pole(eta):
    # the routes' gamma ladders are f_eval's only pole check: on all five
    # routes (spherical, cigar, pancake, interpolant and recurrence) every pole
    # of pole_grid down to -(eta + 1.05), so past the first k = 1 pole,
    # raises at and 5e-10 either side of it (inside POLE_TOL), located
    # within 1e-12, and 2e-9 either side of it does not
    for p in pole_grid(eta, -(1.05 + eta)).poles:
        for x in (p - 5e-10, p, p + 5e-10):
            with pytest.raises(PoleSignal) as err:
                f_eval(SpectralArgument(x, eta))
            assert abs(err.value.location - p) <= 1e-12, (x, p)
        for x in (p - 2e-9, p + 2e-9):
            assert math.isfinite(f_eval(SpectralArgument(x, eta)).value)


@pytest.mark.parametrize("route, eta", [
    ("cigar", 2), ("cigar", 3), ("cigar", 7),
    ("quasi1d", 10.0), ("quasi1d", 47.3)])
def test_closed_form_ladders_raise_at_every_pole(route, eta):
    # the cigar closed form's lift and the quasi-1D term G(x) are gamma
    # ladders of the same kernel as f_eval's: every pole they pass, down to
    # past the k = 2 poles of the cigar lift and to every x = -j > -eta of
    # the quasi-1D term, raises at and 5e-10 either side of it, located
    # within 1e-12, and 2e-9 either side of it does not
    if route == "cigar":
        poles = pole_grid(eta, -(2.05 + 2 * eta)).poles
    else:
        poles = [-float(j) for j in range(math.ceil(eta))]

    def value(x):
        if route == "cigar":
            return f_cigar(x, eta).value
        return f_quasi1d(SpectralArgument(x, eta)).value

    for p in poles:
        for x in (p - 5e-10, p, p + 5e-10):
            with pytest.raises(PoleSignal) as err:
                value(x)
            assert abs(err.value.location - p) <= 1e-12, (x, p)
        for x in (p - 2e-9, p + 2e-9):
            assert math.isfinite(value(x))


def test_quasi2d_raises_at_the_digamma_poles():
    # x/eta within POLE_TOL of the digamma pole at 0 or -1 raises at that
    # pole's x, on both sides of it, as f_eval does at x = 5e-12; 2e-9 off
    # in x/eta the value is finite
    eta = 0.01
    for k in (0, -1):
        for dq in (-5e-10, 0.0, 5e-10):
            with pytest.raises(PoleSignal) as err:
                f_quasi2d(SpectralArgument((k + dq) * eta, eta))
            assert err.value.location == k * eta
        for dq in (-2e-9, 2e-9):
            value = f_quasi2d(SpectralArgument((k + dq) * eta, eta)).value
            assert math.isfinite(value)
    for route in (f_quasi2d, f_eval):
        with pytest.raises(PoleSignal) as err:
            route(SpectralArgument(5e-12, eta))
        assert err.value.location == 0.0


_MANY_ETAS = [0.003, 0.0101, 1.0 / 7.0, 0.37, 1.0, 2.0, 2.37, 3.0, 300.0]


def _mixed_batch(eta):
    # x on both sides of 0: the bound side out to the plain-integral route,
    # the middle of the first pole intervals, and 2e-9 off a pole (outside
    # POLE_TOL, where the gamma ladder is largest)
    poles = pole_grid(eta, -(2.0 + min(eta, 3.0))).poles[:8]
    xs = [0.7, 3.3, 2.0 * eta + 40.0, 1e-3]
    xs += [0.5 * (p + q) for p, q in zip(poles, poles[1:])]
    xs += [poles[1] + 2e-9, poles[-1] - 2e-9]
    return xs


@pytest.mark.parametrize("eta", _MANY_ETAS)
def test_f_eval_many_matches_scalar_bit_for_bit(eta):
    # value, route and est of every element equal the scalar f_eval's, in
    # any batch: whole, reversed, and in pairs
    xs = _mixed_batch(eta)
    want = [repr(f_eval(SpectralArgument(x, eta))) for x in xs]
    assert [repr(v) for v in f_eval_many(xs, eta)] == want
    assert [repr(v) for v in f_eval_many(xs[::-1], eta)] == want[::-1]
    for i in range(0, len(xs) - 1, 2):
        assert [repr(v) for v in f_eval_many(xs[i:i + 2], eta)] \
            == want[i:i + 2]
    assert f_eval_many([], eta) == []


def test_f_eval_many_covers_every_route():
    routes = {v.route for eta in _MANY_ETAS
              for v in f_eval_many(_mixed_batch(eta), eta)}
    assert routes == {"spherical", "pancake", "interpolant", "recurrence"}


@pytest.mark.parametrize("eta", _MANY_ETAS)
def test_f_eval_many_raises_at_the_first_pole_element(eta):
    # an element within POLE_TOL of a pole raises PoleSignal with the
    # location the scalar call reports; with two, the first element's
    poles = pole_grid(eta, -(1.05 + eta)).poles
    inside = [poles[1] + 5e-10, poles[-1] - 5e-10]
    for x in inside:
        with pytest.raises(PoleSignal) as err:
            f_eval(SpectralArgument(x, eta))
        scalar = err.value.location
        with pytest.raises(PoleSignal) as err:
            f_eval_many([0.7, -0.5 * poles[1], x, inside[0]], eta)
        assert err.value.location == scalar
    with pytest.raises(ValueError):
        f_eval_many([0.7, math.nan], eta)


@pytest.mark.parametrize("eta", _MANY_ETAS)
def test_f_values_is_f_eval_many_without_the_wrapping(eta):
    # the level searches' float path reads the values of the same kernel
    # call, bit for bit, on every route (these batches reach all four, as
    # test_f_eval_many_covers_every_route checks), and fails where the
    # object path fails, in the same way: the solver's per-x fallback
    # depends on it
    xs = _mixed_batch(eta)
    assert ([repr(v) for v in f_values(xs, eta)]
            == [repr(f.value) for f in f_eval_many(xs, eta)])
    assert f_values([], eta) == []
    poles = pole_grid(eta, -(1.05 + eta)).poles
    bad = [[0.7, -0.5 * poles[1], poles[1] + 5e-10, poles[-1] - 5e-10],
           [0.7, math.nan], [0.7, math.inf], [0.7, 2e150]]
    for batch in bad:
        # past INTEGRAL_X_RANGE only the recurrence raises: the closed
        # forms take any finite x
        outcomes = []
        for read in (f_values,
                     lambda xs, eta: [f.value for f in f_eval_many(xs, eta)]):
            try:
                outcomes.append([repr(v) for v in read(batch, eta)])
            except (PoleSignal, ValueError) as err:
                outcomes.append((type(err), str(err),
                                 getattr(err, "location", None)))
        assert outcomes[0] == outcomes[1]
        assert isinstance(outcomes[0], tuple) or batch[-1] == 2e150
    with pytest.raises(ValueError) as err:
        f_values([0.7], -eta)
    assert str(err.value) == "eta must be > 0"


def test_f_eval_cost_is_one_kernel_call_at_small_eta(monkeypatch):
    # O(1) kernel calls as eta -> 0: at eta = 0.003, x = -3.3001 the ladder
    # has 1,267 steps (it took 1,267 gamma_ratio calls), all in one
    # rising_half call.  The first batch at an eta also builds the terminal
    # interpolant, one integrate call; every later batch takes one
    # rising_half call and no integrate call, deep bound states (x = 0.7,
    # 1e6) included
    calls = []
    for name in ("rising_half", "integrate"):
        orig = getattr(spectral, name)
        monkeypatch.setattr(spectral, name, lambda *args, _n=name, _f=orig:
                            calls.append(_n) or _f(*args))
    spectral._terminal_fit.cache_clear()
    value = f_eval(SpectralArgument(-3.3001, 0.003)).value
    assert calls == ["rising_half", "integrate"]
    assert math.isfinite(value)
    for xs in ([-3.3001, -1.2345, 0.5012], [-3.3001, -1.2345, 0.7],
               [-3.3001, 0.5012, 0.7, 1e6]):
        calls.clear()
        f_eval_many(xs, 0.003)
        assert calls == ["rising_half"]


def _fit_read(eta, y):
    # F at y >= T from the interpolant of H in w = T/y
    h = spectral._fit_value(spectral._terminal_fit(eta),
                            0.5 * max(eta, 1.0) / y)[0]
    root = math.sqrt(y)
    return h / root - 2.0 * math.sqrt(math.pi) * root


def _check_fit_against_integral(eta, y):
    # the recurrence's value (f_eval's at eta off the closed forms) is the
    # interpolant's read, with route "interpolant", and it lies within both
    # estimates of the quadrature it was fitted to; its own estimate stays
    # at rounding level
    got = f_recurrence_extend(SpectralArgument(y, eta))
    assert (got.value, got.route) == (_fit_read(eta, y), "interpolant")
    direct = f_integral(SpectralArgument(y, eta))
    assert abs(got.value - direct.value) <= got.est_error + direct.est_error
    assert got.est_error <= 1e-13 * (1.0 + abs(direct.value))


@given(log_eta=st.floats(math.log(0.01), math.log(100.0)),
       frac=st.floats(0.0, 1.0))
def test_terminal_fit_matches_the_integral(log_eta, frac):
    # y uniform in [T, T + eta], the part of the fit nearest the recurrence
    eta = math.exp(log_eta)
    lo = 0.5 * max(eta, 1.0)
    _check_fit_against_integral(eta, lo + frac * eta)


@given(log_eta=st.floats(math.log(0.01), math.log(100.0)),
       frac=st.floats(0.0, 1.0))
def test_far_fit_matches_the_integral(log_eta, frac):
    # y log-uniform in [T, 1e12], out to the fit's far end w -> 0
    eta = math.exp(log_eta)
    lo = 0.5 * max(eta, 1.0)
    _check_fit_against_integral(eta, lo * (1e12 / lo) ** frac)


@pytest.mark.parametrize("eta", [0.01, 0.37, 1.0, 2.37, 10.0, 100.0])
def test_far_fit_end_value(eta):
    # at its far end w = 0 (x -> inf) the interpolant meets
    # H(0) = sqrt(pi) (1/4 + eta/2), from L(t) ~ (1/4 + eta/2) t at small t
    h0, _ = spectral._fit_value(spectral._terminal_fit(eta), 0.0)
    want = math.sqrt(math.pi) * (0.25 + 0.5 * eta)
    assert abs(h0 / want - 1.0) <= 1e-14


@given(log_eta=st.floats(math.log(0.01), math.log(100.0)))
def test_f_continuous_across_terminal_fit_edge(log_eta):
    # x = T is the interpolant's first point, read at m = 0, and the next
    # float down takes one recurrence step to just below T + eta: the two
    # values differ by no more than their estimates (F's slope times one
    # ulp is far below them)
    eta = math.exp(log_eta)
    edge = 0.5 * max(eta, 1.0)
    below = math.nextafter(edge, -math.inf)
    inside = f_recurrence_extend(SpectralArgument(edge, eta))
    outside = f_recurrence_extend(SpectralArgument(below, eta))
    assert inside.value == _fit_read(eta, edge)
    assert (inside.route, outside.route) == ("interpolant", "recurrence")
    assert (abs(inside.value - outside.value)
            <= inside.est_error + outside.est_error)


@pytest.mark.parametrize("x", [1e-310, 1e-200, 1e250, 1e300])
def test_integral_rejects_x_outside_its_range(x):
    # past INTEGRAL_X_RANGE the node table's rows under- or overflow (a NaN
    # estimate, or an OverflowError from ldexp at x = 1e-310), so the
    # quadrature, and f_eval and f_eval_many where they take an integral's
    # interpolant (deep bound states), reject x with a message naming the
    # range
    eta = 2.37
    with pytest.raises(ValueError, match=r"1e-150 <= x <= 1e\+150"):
        f_integral(SpectralArgument(x, eta))
    if x > 1.0:
        with pytest.raises(ValueError, match=r"1e-150 <= x <= 1e\+150"):
            f_eval(SpectralArgument(x, eta))
        with pytest.raises(ValueError, match=r"1e-150 <= x <= 1e\+150"):
            f_eval_many([-1.3, 0.7, x, 5.0], eta)


def test_integral_at_the_ends_of_its_range():
    # F -> eta/x as x -> 0 and -2 sqrt(pi x) as x -> inf
    eta = 2.37
    lo, hi = spectral.INTEGRAL_X_RANGE
    small = f_integral(SpectralArgument(lo, eta)).value
    assert abs(small * lo / eta - 1.0) <= 1e-13
    large = f_eval(SpectralArgument(hi, eta)).value
    assert abs(large / (-2.0 * math.sqrt(math.pi * hi)) - 1.0) <= 1e-15


def test_spectral_argument_validation():
    with pytest.raises(ValueError):
        SpectralArgument(0.5, 0.0)
    with pytest.raises(ValueError):
        SpectralArgument(math.nan, 1.0)


def test_route_reporting():
    general = ("interpolant", "recurrence")
    assert f_eval(SpectralArgument(0.7, 1.0)).route == "spherical"
    assert f_eval(SpectralArgument(0.7, 2.0)).route == "recurrence"
    assert f_eval(SpectralArgument(0.7, 0.25)).route == "pancake"
    assert f_eval(SpectralArgument(0.7, 1.618)).route in general
    for eta in (4.0, 10.0, 100.0):
        for x in (0.7, -1.3):
            assert f_eval(SpectralArgument(x, eta)).route in general
    for n in (2, 12):
        assert f_eval(SpectralArgument(-1.3 / n, 1.0 / n)).route == "pancake"


# every closed-form switch f_eval keeps: (eta, pole spacing along x)
_SWITCHES = [(1.0, 1.0)] + [(1.0 / n, 1.0 / n) for n in (2, 4, 10)]


@given(switch=st.sampled_from(_SWITCHES), interval=st.integers(-1, 5),
       frac=st.floats(0.05, 0.95))
def test_f_continuous_across_closed_form_switch(switch, interval, frac):
    # The closed form at eta equals the midpoint of the recurrence at
    # eta (1 +- 1e-11); the two recurrence values alone differ by dF/deta
    # times the step, which is large next to a pole.
    eta, spacing = switch
    x = -(interval + frac) * spacing
    closed = f_eval(SpectralArgument(x, eta))
    assert closed.route in ("spherical", "pancake")
    sides = [f_eval(SpectralArgument(x, eta * (1.0 + d)))
             for d in (-1e-11, 1e-11)]
    assert all(v.route in ("interpolant", "recurrence") for v in sides)
    mid = 0.5 * (sides[0].value + sides[1].value)
    assert abs(closed.value - mid) <= 1e-13 * (1.0 + abs(closed.value))


@given(n=st.sampled_from((2, 3)), interval=st.integers(-1, 5),
       frac=st.floats(0.05, 0.95))
def test_cigar_matches_recurrence_at_small_integer_eta(n, interval, frac):
    # f_eval takes the recurrence at integer eta = 2, 3, where it once took
    # the cigar form; the two agree over the same pole intervals
    x = -(interval + frac)
    rec = f_eval(SpectralArgument(x, float(n)))
    assert rec.route == "recurrence"
    closed = f_cigar(x, n).value
    assert abs(closed - rec.value) <= 1e-13 * (1.0 + abs(closed))
