"""Special functions against the frozen oracle table and live mpmath.

The frozen values in tests/oracles/specfun_oracle.out were generated at
50-digit precision; they pin the implementation bit-for-bit over time.
The mpmath layer re-derives a sample independently at test time so a
stale oracle cannot hide a regression.  Digamma rows are read against
specfun.digamma; K0 rows against scipy.special.k0, a test-only reference
(the library no longer imports scipy).  Kummer's U, the D_nu rows included
(through their Kummer-U identity), is read as gamma_u(a, b, x) * rgamma(a),
the library's signed Gamma U kernel (wavefn.gamma_u, beside the peeled
integral that shares its Laplace form) over Gamma(a), with scipy's rgamma.
rising_half, the gamma kernel behind every ladder of F, is held to its own
stated rounding bound against 40-digit mpmath.
"""

import cmath
import itertools
import math
import random

import mpmath
import numpy as np
import pytest
from scipy.special import k0, rgamma

from conftest import args_of, fval, oracle_values
from pairtrap.specfun import (SQRT_PI, PoleSignal, digamma, gamma_ratio,
                              hurwitz_zeta_half, hyp2f1_one,
                              is_nonpositive_integer, laguerre_iter,
                              rising_half)
from pairtrap.wavefn import gamma_u

ORA = oracle_values("specfun_oracle.out")

mpmath.mp.dps = 30


def _close(got, want, rel, abs_floor=0.0):
    assert abs(got - want) <= rel * abs(want) + abs_floor, \
        "got %.17g want %.17g" % (got, want)


def _kummer_u(a, b, x):
    # Tricomi's U from the library's signed Gamma(a) U(a, b, x)
    return gamma_u(a, b, x) * rgamma(a)


# ---------------------------------------------------------------------------
# frozen oracle layer
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("key", [k for k in ORA if k.startswith("digamma(")])
def test_digamma_frozen(key):
    (x,) = args_of(key)
    _close(digamma(x), fval(ORA, key), 5e-13)


@pytest.mark.parametrize("key", [k for k in ORA if k.startswith("zeta_half(")])
def test_hurwitz_zeta_half_frozen(key):
    (q,) = args_of(key)
    # near the root at q ~ 0.30272 the attainable error is absolute
    _close(hurwitz_zeta_half(q), fval(ORA, key), 5e-13, abs_floor=2e-14)


def test_zeta_half_root_frozen():
    q0 = fval(ORA, "zeta_half_root")
    assert abs(hurwitz_zeta_half(q0)) < 1e-13


@pytest.mark.parametrize("key", [k for k in ORA if k.startswith("hyp2f1_one(")])
def test_hyp2f1_unit_circle_frozen(key):
    x, m, n = args_of(key)
    z = cmath.exp(2j * cmath.pi * m / n)
    got = hyp2f1_one(x, z)
    re, im = ORA[key].split()
    want = complex(float(re), float(im.rstrip("j")))
    assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


def test_hyp2f1_unit_circle_converges():
    # the continued fraction alone must converge over the cigar route's
    # whole range: x in (1/4, 120], every root of unity z = e^(2 pi i m/n)
    xs = [0.25 * 480.0 ** (i / 60.0) for i in range(1, 61)]
    for n in (2, 12, 100):
        for m in range(1, n):
            z = cmath.exp(2j * cmath.pi * m / n)
            for x in xs:
                assert cmath.isfinite(hyp2f1_one(x, z)), (x, m, n)


@pytest.mark.parametrize("key", [k for k in ORA if k.startswith("kummer_u(")])
def test_kummer_u_frozen(key):
    a, b, x = args_of(key)
    _close(_kummer_u(a, b, x), fval(ORA, key), 5e-12)


@pytest.mark.parametrize("key", [k for k in ORA if k.startswith("gamma_u(")])
def test_ln_gamma_u_frozen(key):
    a, b, w = args_of(key)
    _close(gamma_u(a, b, w), fval(ORA, key), 1e-13)


@pytest.mark.parametrize("key", [k for k in ORA if k.startswith("pcfd(")])
def test_parabolic_cylinder_frozen(key):
    # D_nu(x) = 2^(nu/2) e^(-x^2/4) U(-nu/2, 1/2, x^2/2); at x = 0 the U
    # factor is sqrt(pi)/Gamma((1 - nu)/2), and at nu = 0 it is U(0, ., .) = 1
    # (Gamma U has a pole there)
    nu, x = args_of(key)
    if x == 0:
        u = SQRT_PI / math.gamma(0.5 - 0.5 * nu)
    elif nu == 0:
        u = 1.0
    else:
        u = _kummer_u(-0.5 * nu, 0.5, 0.5 * x * x)
    _close(2.0 ** (0.5 * nu) * math.exp(-0.25 * x * x) * u, fval(ORA, key),
           5e-12)


@pytest.mark.parametrize("key", [k for k in ORA if k.startswith("k0(")])
def test_bessel_k0_frozen(key):
    (x,) = args_of(key)
    _close(k0(x), fval(ORA, key), 5e-13)


@pytest.mark.parametrize("key",
                         [k for k in ORA if k.startswith("gamma_ratio(")])
def test_gamma_ratio_frozen(key):
    num, den = args_of(key)
    _close(gamma_ratio(num, den), fval(ORA, key), 5e-13)


def test_gamma_ratio_large_argument_vs_mpmath():
    # the (x, x +- 1/2) pairs every caller passes; a difference of two
    # lgamma values lost eps lgamma(x), 1.3e-11 at 1e4 and 7.3e-10 at 1e6,
    # and scipy's poch still 1.9e-12 at 1e4; rising_half's series keeps
    # four ulps
    for x, bound in ((1e4, 2e-15), (1e6, 1e-15)):
        for den in (x + 0.5, x - 0.5):
            want = mpmath.gamma(x) / mpmath.gamma(den)
            _close(gamma_ratio(x, den), float(want), bound)


def _rising_half_args():
    # a in [-40, 1e5]: a uniform sample below 16 and a log-uniform one above,
    # plus points within 1e-6 (and 1e-9, 1e-12) of every integer and
    # half-integer below 16, next to the switches at 7.5 and 16, and a few
    # far below zero, where the gammas underflow
    rng = random.Random(20260419)
    args = [rng.uniform(-40.0, 16.0) for _ in range(600)]
    args += [math.exp(rng.uniform(math.log(16.0), math.log(1e5)))
             for _ in range(200)]
    for k in range(-80, 33):
        for d in (1e-6, -1e-6, 3e-7, 1e-9, -1e-12):
            args.append(0.5 * k + d)
    return args + [7.499999, 7.5, 15.999999, 16.0, 16.000001, 1e5,
                   -160.3, -171.5 + 1e-6, -1234.56, -20000.25]


@pytest.mark.parametrize("shift", [0.5, -0.5])
def test_rising_half_within_its_bound_vs_mpmath(shift):
    args = _rising_half_args()
    values, bounds = rising_half(args, shift)
    with mpmath.workdps(40):
        for a, got, bound in zip(args, values, bounds):
            want = mpmath.gamma(mpmath.mpf(a) + shift) / mpmath.gamma(a)
            assert abs(got - want) <= bound * abs(want), (a, got, bound)
            if a >= 16.0:
                assert bound <= 2e-15


def test_rising_half_poles_and_elementwise():
    # Gamma(a) poles give 0, Gamma(a + shift) poles inf; each value is its
    # scalar call's whatever else is in the list
    assert rising_half([-3.0, -2.5, 0.0], 0.5)[0] == [0.0, math.inf, 0.0]
    assert [abs(v) for v in rising_half([-3.0, 0.5, -1.5], -0.5)[0]] == [
        0.0, math.inf, math.inf]
    args = [-3.3, 0.7, 25.0, -0.5 + 1e-7]
    for shift in (0.5, -0.5):
        together = rising_half(args, shift)
        alone = [rising_half([a], shift) for a in args]
        assert together == ([v for (v,), _ in alone], [b for _, (b,) in alone])
    with pytest.raises(ValueError):
        rising_half([1.0], 1.5)


def test_digamma_vs_mpmath():
    # the recurrence, series and reflection branches, next to the poles and
    # far below zero (the quasi-2D target's x/eta); a pole raises
    with mpmath.workdps(30):
        for x in (1e-9, 0.3, 9.99, 10.0, 37.5, 1e6, -1e-9, -0.5, -3.7,
                  -1234.56, -7.0 + 1e-7):
            _close(digamma(x), float(mpmath.digamma(x)), 4e-15)
    for x in (0.0, -1.0, -17.0):
        with pytest.raises(PoleSignal):
            digamma(x)


def test_u11_equals_exp_e1_route():
    # independent identity row: U(1,1,x) = e^x E1(x) evaluated at x = 1
    _close(fval(ORA, "u11_1_via_e1"), fval(ORA, "kummer_u(1,1,1)"), 1e-18)
    _close(_kummer_u(1.0, 1.0, 1.0), fval(ORA, "u11_1_via_e1"), 5e-12)


# ---------------------------------------------------------------------------
# live mpmath layer
# ---------------------------------------------------------------------------

def test_bessel_k0_vs_mpmath():
    rng = random.Random(11)
    for _ in range(12):
        x = math.exp(rng.uniform(math.log(0.02), math.log(30.0)))
        _close(k0(x), float(mpmath.besselk(0, x)), 1e-11)


def test_kummer_u_vs_mpmath():
    rng = random.Random(13)
    for _ in range(10):
        a = rng.uniform(0.1, 6.0)
        b = rng.choice([0.5, 1.0, 1.5])
        x = math.exp(rng.uniform(math.log(0.05), math.log(8.0)))
        _close(_kummer_u(a, b, x), float(mpmath.hyperu(a, b, x)), 5e-9)


def test_kummer_u_negative_a_vs_mpmath():
    rng = random.Random(17)
    for _ in range(8):
        a = -rng.uniform(0.05, 4.0)
        if is_nonpositive_integer(a, tol=0.02):
            continue
        b = rng.choice([0.5, 1.0])
        x = rng.uniform(0.2, 4.0)
        _close(_kummer_u(a, b, x), float(mpmath.hyperu(a, b, x)), 5e-9,
               abs_floor=1e-13)


def test_gamma_u_negative_a_grid_vs_mpmath():
    # the recurrence branch (a < 1/2) over a in [-2.6, 0.45], every b, w in
    # [1e-4, 20] against 40-digit mpmath.  For a < 0, Gamma U has zeros in w
    # (near them it is a cancellation of terms of size |log w|, which no
    # method keeps to a relative 1e-13), hence the 1e-13 absolute floor;
    # measured: 1.2e-13 relative, 1.5e-14 of |want| + 1 here, and at most
    # 3.6e-14 of |want| + 1 on a 62 x 3 x 12 grid over the same ranges
    grid = itertools.product(np.linspace(-2.6, 0.45, 14), _GRID_B,
                             (1e-4, 1e-2, 0.3, 3.0, 20.0))
    with mpmath.workdps(40):
        for a, b, w in grid:
            want = float(mpmath.gamma(a) * mpmath.hyperu(a, b, w))
            _close(gamma_u(float(a), b, w), want, 1e-13, abs_floor=1e-13)


def test_gamma_u_batch_matches_rows():
    # float in, float out; an array mixing rows on both sides of a = 1/2
    # gives each row's scalar value bit for bit
    assert isinstance(gamma_u(-0.3, 1.0, 0.5), float)
    a = np.array([2.5, -1.7, 0.2, 0.5, -0.05, 7.0, -3.4])
    for b in _GRID_B:
        batch = gamma_u(a, b, 0.8)
        assert batch.shape == a.shape
        for x, got in zip(a, batch):
            assert got == gamma_u(float(x), b, 0.8), (x, b)


def test_hurwitz_zeta_half_vs_mpmath():
    rng = random.Random(19)
    for _ in range(10):
        q = math.exp(rng.uniform(math.log(0.05), math.log(60.0)))
        _close(hurwitz_zeta_half(q), float(mpmath.zeta(0.5, q)), 1e-11,
               abs_floor=1e-13)


_GRID_A = (0.5, 0.7, 1.0, 1.3, 2.0, 5.0, 35.0, 230.7, 1000.25, 5000.0, 2e4)
_GRID_B = (0.5, 1.0, 1.5)
_GRID_W = (1e-3, 0.01, 0.1, 1.0, 10.0, 100.0, 1e4)


# Gamma U below this has only the node table's absolute accuracy
_GAMMA_U_FLOOR = 1e-120


def _gamma_u_laplace(a, b, w):
    # the Laplace integral of Gamma(a) U(a, b, w) by mpmath's tanh-sinh
    # rule, split around the peak of the integrand (a > 1): the reference
    # where mpmath's hyperu series converge slowly (a w >= 1e4)
    a, b, w = mpmath.mpf(a), mpmath.mpf(b), mpmath.mpf(w)
    q = w + 2 - b
    tp = 2 * (a - 1) / (mpmath.sqrt(q * q + 4 * w * (a - 1)) + q)
    width = 1 / mpmath.sqrt((a - 1) / tp ** 2 - (a + 1 - b) / (1 + tp) ** 2)

    def log_f(t):
        return -w * t + (a - 1) * mpmath.log(t) + (b - a - 1) * mpmath.log1p(t)

    top = log_f(tp)
    cuts = [tp + k * width for k in (-30, -10, -3, 0, 3, 10, 30)]
    edges = [0] + [c for c in cuts if c > 0] + [mpmath.inf]
    return mpmath.exp(top) * mpmath.quad(
        lambda t: mpmath.exp(log_f(t) - top), edges)


def _close_above_floor(got, want):
    # 1e-13 relative where Gamma U is above _GAMMA_U_FLOOR; finite below
    assert math.isfinite(got), (got, want)
    if want > _GAMMA_U_FLOOR:
        _close(got, float(want), 1e-13)


def test_ln_gamma_u_vs_mpmath_grid():
    # every a, b, w of the grid, the rows with a w >= 5e4 (sharp peaks)
    # included
    with mpmath.workdps(20):
        for a, b, w in itertools.product(_GRID_A, _GRID_B, _GRID_W):
            got = gamma_u(a, b, w)
            if a * w > 4e5:
                # Gamma U is below e^-745 here (by the Laplace reference);
                # the kernel must still answer
                assert math.isfinite(got), (a, b, w)
                continue
            if a > 1.0 and a * w >= 1e4:
                want = _gamma_u_laplace(a, b, w)
            else:
                want = mpmath.gamma(a) * mpmath.hyperu(a, b, w)
            _close_above_floor(got, want)


@pytest.mark.parametrize("eta, b", [(10.0, 0.5), (100.0, 0.5),
                                    (0.01, 1.0), (0.1, 1.0)])
def test_ln_gamma_u_series_sequences_vs_mpmath(eta, b):
    # the coefficient sequences the series routes sum, x = -0.1 and m up to
    # 150: a_m = x + eta m at b = 1/2 (radial), a_m = (m + x)/eta at b = 1
    # (axial), each in one batch, every 25th row and the last against the
    # Laplace reference
    m = np.arange(151)
    a = -0.1 + eta * m if b == 0.5 else (m - 0.1) / eta
    a = a[a > 0.0]
    with mpmath.workdps(20):
        for w in (0.25, 1.0):
            got = gamma_u(a, b, w)
            assert np.all(np.isfinite(got))
            for i in list(range(0, len(a), 25)) + [len(a) - 1]:
                _close_above_floor(got[i], _gamma_u_laplace(a[i], b, w))


def test_ln_gamma_u_vs_mpmath_large_a():
    # rows where Gamma(a) alone overflows double (a >~ 170)
    for a, b, w in ((250.0, 1.0, 1.7), (800.5, 0.5, 0.3), (90.0, 1.5, 2.2)):
        want = mpmath.gamma(a) * mpmath.hyperu(a, b, w)
        _close(gamma_u(a, b, w), float(want), 1e-13)


# ---------------------------------------------------------------------------
# structure, recurrences, error paths
# ---------------------------------------------------------------------------

def test_constants():
    assert abs(SQRT_PI - math.sqrt(math.pi)) < 1e-16


def test_poles_raise():
    # Gamma U: a pole at every nonpositive integer a, alone or in a block
    for a in (0.0, -1.0, -7.0, -2.0 + 1e-12, np.array([0.7, -3.0, 1.5])):
        with pytest.raises(PoleSignal):
            gamma_u(a, 0.5, 1.0)
    # gamma_ratio: a numerator pole raises, a denominator pole gives 0,
    # poles in both have no limit
    with pytest.raises(PoleSignal):
        gamma_ratio(-2.0, 0.5)
    assert gamma_ratio(0.5, -3.0) == 0.0
    with pytest.raises(ValueError):
        gamma_ratio(-1.0, -2.0)


def test_is_nonpositive_integer():
    assert is_nonpositive_integer(0.0)
    assert is_nonpositive_integer(-3.0)
    assert is_nonpositive_integer(-3.0 + 1e-12)
    assert not is_nonpositive_integer(-3.1)
    assert not is_nonpositive_integer(2.0)


def test_laguerre_iter_matches_polynomials():
    x = 0.73
    it = laguerre_iter(x)
    assert next(it) == pytest.approx(1.0)
    assert next(it) == pytest.approx(1.0 - x, rel=1e-15)
    assert next(it) == pytest.approx(0.5 * x * x - 2.0 * x + 1.0, rel=1e-14)


def test_laguerre_iter_generalized():
    # L_1^{(alpha)}(x) = 1 + alpha - x
    x, alpha = 1.21, -0.5
    it = laguerre_iter(x, alpha=alpha)
    next(it)
    assert next(it) == pytest.approx(1.0 + alpha - x, rel=1e-14)


def test_kummer_u_domain_errors():
    with pytest.raises(ValueError):
        _kummer_u(1.0, 2.5, 1.0)
    with pytest.raises(ValueError):
        _kummer_u(1.0, 0.5, -1.0)
    # gamma_u itself: b off {1/2, 1, 3/2}, and w <= 0, alone or in a block
    for a, b, w in ((1.0, 0.75, 1.0), (-0.3, 2.0, 1.0), (1.0, 0.5, 0.0),
                    (np.array([0.7, -1.5]), 1.0, -1.0),
                    (2.0, 1.5, math.nan)):
        with pytest.raises(ValueError):
            gamma_u(a, b, w)
