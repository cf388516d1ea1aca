"""Special functions against the frozen oracle table and live mpmath.

The frozen values in tests/oracles/specfun_oracle.out were generated at
50-digit precision; they pin the implementation bit-for-bit over time.
The mpmath layer re-derives a sample independently at test time so a
stale oracle cannot hide a regression.  Digamma and K0 rows are read
against the scipy.special functions the library calls, and the D_nu rows
through the Kummer-U identity the library's own U satisfies.
"""

import cmath
import math
import random

import mpmath
import pytest
from scipy.special import digamma, k0

from conftest import args_of, fval, oracle_values
from pairtrap.specfun import (EULER_GAMMA, SQRT_PI, PoleSignal, gamma_ratio,
                              hurwitz_zeta_half, hyp2f1_one,
                              is_nonpositive_integer, kummer_u, laguerre_iter,
                              ln_gamma, ln_gamma_u)

ORA = oracle_values("specfun_oracle.out")

mpmath.mp.dps = 30


def _close(got, want, rel, abs_floor=0.0):
    assert abs(got - want) <= rel * abs(want) + abs_floor, \
        "got %.17g want %.17g" % (got, want)


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
    _close(kummer_u(a, b, x), fval(ORA, key), 5e-12)


@pytest.mark.parametrize("key", [k for k in ORA if k.startswith("gamma_u(")])
def test_ln_gamma_u_frozen(key):
    a, b, w = args_of(key)
    got = math.exp(ln_gamma_u(a, b, w))
    # reference-limited: the Laplace-integral route carries ~5e-9
    _close(got, fval(ORA, key), 2e-8)


@pytest.mark.parametrize("key", [k for k in ORA if k.startswith("pcfd(")])
def test_parabolic_cylinder_frozen(key):
    # D_nu(x) = 2^(nu/2) e^(-x^2/4) U(-nu/2, 1/2, x^2/2); at x = 0 the U
    # factor is sqrt(pi)/Gamma((1 - nu)/2)
    nu, x = args_of(key)
    if x > 0:
        u = kummer_u(-0.5 * nu, 0.5, 0.5 * x * x)
    else:
        u = SQRT_PI / math.gamma(0.5 - 0.5 * nu)
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


def test_u11_equals_exp_e1_route():
    # independent identity row: U(1,1,x) = e^x E1(x) evaluated at x = 1
    _close(fval(ORA, "u11_1_via_e1"), fval(ORA, "kummer_u(1,1,1)"), 1e-18)
    _close(kummer_u(1.0, 1.0, 1.0), fval(ORA, "u11_1_via_e1"), 5e-12)


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
        _close(kummer_u(a, b, x), float(mpmath.hyperu(a, b, x)), 5e-9)


def test_kummer_u_negative_a_vs_mpmath():
    rng = random.Random(17)
    for _ in range(8):
        a = -rng.uniform(0.05, 4.0)
        if is_nonpositive_integer(a, tol=0.02):
            continue
        b = rng.choice([0.5, 1.0])
        x = rng.uniform(0.2, 4.0)
        _close(kummer_u(a, b, x), float(mpmath.hyperu(a, b, x)), 5e-9,
               abs_floor=1e-13)


def test_hurwitz_zeta_half_vs_mpmath():
    rng = random.Random(19)
    for _ in range(10):
        q = math.exp(rng.uniform(math.log(0.05), math.log(60.0)))
        _close(hurwitz_zeta_half(q), float(mpmath.zeta(0.5, q)), 1e-11,
               abs_floor=1e-13)


def test_ln_gamma_u_vs_mpmath_large_a():
    # log-scale comparison: Gamma(a) U(a,b,w) overflows double for a >~ 170
    for a, b, w in ((250.0, 1.0, 1.7), (800.5, 0.5, 0.3), (90.0, 1.5, 2.2)):
        want = mpmath.log(mpmath.gamma(a) * mpmath.hyperu(a, b, w))
        _close(ln_gamma_u(a, b, w), float(want), 1e-7)


# ---------------------------------------------------------------------------
# structure, recurrences, error paths
# ---------------------------------------------------------------------------

def test_constants():
    assert abs(EULER_GAMMA - 0.5772156649015328606) < 1e-16
    assert abs(SQRT_PI - math.sqrt(math.pi)) < 1e-16


def test_ln_gamma_positive_matches_lgamma():
    for x in (0.2, 1.0, 7.5, 123.4):
        val, sign = ln_gamma(x)
        assert sign == 1
        assert val == pytest.approx(math.lgamma(x), rel=1e-15)


def test_ln_gamma_negative_sign_alternation():
    # Gamma is negative on (-1,0), positive on (-2,-1), ...
    val, sign = ln_gamma(-0.5)
    assert sign == -1
    assert math.exp(val) == pytest.approx(2.0 * math.sqrt(math.pi), rel=1e-12)
    _, sign2 = ln_gamma(-1.5)
    assert sign2 == 1


def test_poles_raise():
    for x in (0.0, -1.0, -7.0):
        with pytest.raises(PoleSignal):
            ln_gamma(x)
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
        kummer_u(1.0, 2.5, 1.0)
    with pytest.raises(ValueError):
        kummer_u(1.0, 0.5, -1.0)


def test_ln_gamma_u_domain_errors():
    with pytest.raises(ValueError):
        ln_gamma_u(-1.0, 0.5, 1.0)
    with pytest.raises(ValueError):
        ln_gamma_u(1.0, 0.75, 1.0)
