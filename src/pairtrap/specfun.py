"""Special-function kernel of the level path, in plain floats.

Gamma(a +- 1/2)/Gamma(a) and gamma ratios built on it, the digamma
function, the Hurwitz zeta function at s = 1/2, the Gauss hypergeometric
2F1(1,x;x+1/2;z) on the unit circle and Laguerre polynomials, on the math
module alone: nothing here imports numpy or numerics, so the spectrum
searches reach their special functions without them.  rising_half gives
a relative rounding bound for every value.  Gamma(a) U(a, b, w), the
wavefunction's mode coefficient, lives beside the peeled integral it
shares its Laplace form with (wavefn.gamma_u).
"""

import math
from itertools import repeat
from math import exp, floor, gamma, inf, lgamma, sqrt
from operator import add, sub, truediv

SQRT_PI = math.sqrt(math.pi)

# Nonpositive-integer proximity that is treated as an exact pole.
POLE_TOL = 1e-9


class PoleSignal(ArithmeticError):
    """A gamma-type pole was hit; carries the offending location."""

    def __init__(self, message, location=None):
        super().__init__(message)
        self.location = location


def is_nonpositive_integer(x, tol=POLE_TOL):
    return x <= 0.5 and abs(x - round(x)) <= tol


# ----------------------------------------------------------------------
# gamma family
# ----------------------------------------------------------------------

# log Gamma(a + 1/2) - log Gamma(a) = (log a)/2 + sum_k c_k a^(1 - 2k),
# c_k = (2^(1 - 2k) - 2) B_2k / ((2k - 1) 2k) (DLMF 5.11.8 at h = 1/2 less
# the same at h = 0), listed from k = 6 down to k = 1.  From a = 16 on the
# first term left out is below 5e-18.
RISING_SERIES_MIN = 16.0
_RISING_SERIES = (691.0 / 180224.0, -31.0 / 18432.0, 17.0 / 14336.0,
                  -1.0 / 640.0, 1.0 / 192.0, -0.125)
# below RISING_SERIES_MIN and above _GAMMA_MIN, math.gamma(a + 1/2) and
# math.gamma(a) stay finite and normal, and their quotient is within 7
# ulps (sized against 40-digit mpmath over [-160, 16], next to the poles,
# zeros and binade edges included).  a + 1/2 is exact except where it
# crosses a power of two, and there its rounding, ulp(a), moves
# Gamma(a + 1/2) by at most 3 ulps below a = 7.5 and 22 ulps above.
_GAMMA_MIN = -160.0
_GAMMA_WIDE = 7.5
_GAMMA_ROUNDING = 16.0 * 2.0 ** -52
_GAMMA_WIDE_ROUNDING = 32.0 * 2.0 ** -52
_SERIES_ROUNDING = 2.0 ** -50  # four ulps


def _rising_one(x, shift):
    # (rising_half value, bound) at one a = x, whatever its range
    if _GAMMA_MIN < x < RISING_SERIES_MIN:
        try:
            r = gamma(x + 0.5) / gamma(x)
        except ValueError:  # x or x + 1/2 is a Gamma pole
            return (0.0 if x == floor(x) else inf), 0.0
        err = _GAMMA_WIDE_ROUNDING if x >= _GAMMA_WIDE else _GAMMA_ROUNDING
    elif x >= RISING_SERIES_MIN:
        w = 1.0 / (x * x)
        acc = 0.0
        for c in _RISING_SERIES:
            acc = acc * w + c
        r = sqrt(x) * exp(acc / x)
        err = _SERIES_ROUNDING
    else:
        # far below zero, where the gammas underflow: their logs, with
        # the signs from floor parity (Gamma(t) < 0 for t < 0 with
        # floor(t) odd), each log good to a few of its ulps
        y = x + 0.5
        try:
            la, lb = lgamma(x), lgamma(y)
        except ValueError:
            return (0.0 if x == floor(x) else inf), 0.0
        r = exp(lb - la) * (-1.0 if (floor(x) - floor(y)) & 1 else 1.0)
        err = 2.0 ** -51 * (4.0 + abs(la) + abs(lb))
    if shift < 0.0:
        r = r / (x - 0.5) if x != 0.5 else inf
    return r, err


def rising_half(a, shift):
    """Gamma(a + shift)/Gamma(a), shift = +-1/2, at every float of the list a.

    Returns (values, bounds), two lists: bounds[i] bounds the relative
    rounding error of values[i].  Each value depends on its own a only.
    Below a = 16 it is math.gamma(a + 1/2)/math.gamma(a), good to 16 ulps
    below a = 7.5 and 32 above, where a + 1/2 may round; from a = 16 on it
    is sqrt(a) exp(sum_k c_k a^(1 - 2k)), good to four ulps, where the
    gammas would soon overflow; below a = -160, where they underflow, the
    difference of their logs with the signs from floor parity, good to a
    few ulps of each log.  shift = -1/2 divides by a - 1/2 (Gamma(a + 1/2)
    = (a - 1/2) Gamma(a - 1/2)), one rounding more within the same bounds,
    so no argument is rounded next to a pole.  At a pole of Gamma(a) the
    value is 0, at a pole of Gamma(a + shift) it is inf.  A list within
    (-160, 16) and off the poles, the usual case, is worked by map over
    math.gamma; any other list element by element, to the same values.
    """
    if shift not in (0.5, -0.5):
        raise ValueError("rising_half needs shift = +-1/2, got %r" % shift)
    if not a:
        return [], []
    top = max(a)
    if _GAMMA_MIN < min(a) and top < RISING_SERIES_MIN:
        try:
            values = list(map(truediv, map(gamma, map(add, a, repeat(0.5))),
                              map(gamma, a)))
            if shift < 0.0:
                values = list(map(truediv, values,
                                  map(sub, a, repeat(0.5))))
        except (ValueError, ZeroDivisionError):
            pass  # a pole in the list: element by element
        else:
            if top < _GAMMA_WIDE:
                return values, [_GAMMA_ROUNDING] * len(a)
            return values, [_GAMMA_WIDE_ROUNDING if x >= _GAMMA_WIDE
                            else _GAMMA_ROUNDING for x in a]
    pairs = [_rising_one(x, shift) for x in a]
    return [r for r, _ in pairs], [err for _, err in pairs]


def gamma_ratio(num, den):
    """Gamma(num)/Gamma(den) for den - num a half-odd integer.

    den - num may carry the rounding of den (as den = num + 0.5 does); the
    ratio is taken at the exact half-odd-integer distance, from one
    rising_half value times the integer steps between.  A denominator pole
    gives 0.0 (the ratio vanishes) and a numerator pole raises PoleSignal;
    a pole in both arguments is rejected with ValueError (no limit without
    extra context), as is any other den - num.
    """
    num_pole = is_nonpositive_integer(num, tol=0.0)
    den_pole = is_nonpositive_integer(den, tol=0.0)
    if num_pole and den_pole:
        raise ValueError("gamma_ratio(%g, %g): both arguments are poles" % (num, den))
    k = round(den - num - 0.5)
    if abs(den - num - 0.5 - k) > 2.0 ** -50 * max(1.0, abs(num), abs(den)):
        raise ValueError("gamma_ratio(%g, %g): den - num is not a half-odd "
                         "integer" % (num, den))
    if num_pole:
        raise PoleSignal("gamma ratio pole at num = %g" % num, num)
    if den_pole:
        return 0.0
    prod = 1.0
    if k >= 0:
        # Gamma(num)/Gamma(num + k) times Gamma(num + k)/Gamma(den)
        for i in range(k):
            prod *= num + i
        (rising,), _ = rising_half([num + k], 0.5)
        return 1.0 / (prod * rising)
    # Gamma(num)/Gamma(num - 1/2) times Gamma(num - 1/2)/Gamma(den)
    for i in range(1, -k):
        prod *= num - 0.5 - i
    (rising,), _ = rising_half([num], -0.5)
    return prod / rising


# B_2k/(2k) for digamma's asymptotic series, listed from k = 7 down to 1
_DIGAMMA_SERIES = (1.0 / 12.0, -691.0 / 32760.0, 1.0 / 132.0, -1.0 / 240.0,
                   1.0 / 252.0, -1.0 / 120.0, 1.0 / 12.0)
_DIGAMMA_SERIES_MIN = 10.0


def digamma(x):
    """psi(x) = Gamma'(x)/Gamma(x) for a real float x off the poles.

    x > 0 steps up to x >= 10 by psi(x) = psi(x + 1) - 1/x (DLMF 5.5.2),
    where the series log x - 1/(2x) - sum_k B_2k/(2k x^2k) (DLMF 5.11.2,
    seven terms) is good to a few ulps; x < 0 reflects to 1 - x by
    psi(x) = psi(1 - x) - pi cot(pi x) (DLMF 5.5.4), the cotangent taken
    at the exact distance of x to its nearest integer.  A nonpositive
    integer x raises PoleSignal.
    """
    if x <= 0.0:
        frac = x - round(x)
        if frac == 0.0:
            raise PoleSignal("digamma pole at x = %.17g" % x, x)
        return digamma(1.0 - x) - math.pi / math.tan(math.pi * frac)
    acc = 0.0
    while x < _DIGAMMA_SERIES_MIN:
        acc -= 1.0 / x
        x += 1.0
    w = 1.0 / (x * x)
    tail = 0.0
    for c in _DIGAMMA_SERIES:
        tail = tail * w + c
    return acc + (math.log(x) - 0.5 / x - w * tail)


# Euler-Maclaurin coefficients for zeta(1/2, q): B_2j/(2j)! * (1/2)_(2j-1),
# multiplying w^(-1/2-2j+1); exact rationals.
_ZETA_EM = (
    (1.5, 1.0 / 24.0),
    (3.5, -1.0 / 384.0),
    (5.5, 1.0 / 1024.0),
    (7.5, -135135.0 / 154828800.0),
    (9.5, 172297125.0 / 122624409600.0),
)


def hurwitz_zeta_half(q):
    """zeta(1/2, q) for q > 0 by Euler-Maclaurin with explicit tail terms."""
    if not q > 0:
        raise ValueError("hurwitz_zeta_half needs q > 0")
    n = max(0, math.ceil(16.0 - q))
    s = 0.0
    for k in range(n):
        s += 1.0 / math.sqrt(q + k)
    w = q + n
    sq = math.sqrt(w)
    total = s - 2.0 * sq + 0.5 / sq
    for expo, coef in _ZETA_EM:
        total += coef * w ** -expo
    return total


# ----------------------------------------------------------------------
# Gauss hypergeometric 2F1(1, x; x+1/2; z) on the unit circle
# ----------------------------------------------------------------------

# Lentz stops after two successive factors within this of 1
_HYP2F1_TOL = 1e-15
_HYP2F1_MAX_ITER = 20000


def _hyp2f1_cf_coef(x, j):
    # Gauss continued-fraction coefficients for 2F1(x,1;x+1/2;z) against
    # the terminating companion 2F1(x,0;x-1/2;z) = 1; the j = 1 entry is
    # pre-simplified so the x = 1/2 removable 0/0 never forms.
    if j == 1:
        return -x / (x + 0.5)
    k, odd = divmod(j, 2)
    if odd:
        return -(x + k) * (x + k - 0.5) / ((x + 2 * k - 0.5) * (x + 2 * k + 0.5))
    return -k * (k - 0.5) / ((x + 2 * k - 1.5) * (x + 2 * k - 0.5))


def hyp2f1_one(x, z):
    """2F1(1, x; x+1/2; z) for z on the unit circle, z != 1.

    The defining series diverges there (c - a - b = -1/2), so the value is
    produced by the analytically continued Gauss continued fraction
    f = 1/(1 + t1 z/(1 + t2 z/(1 + ...))) via modified Lentz.
    """
    z = complex(z)
    if abs(z - 1.0) < 1e-12:
        raise ValueError("z = 1 is outside the continuation domain")
    tiny = 1e-300
    f = complex(tiny)
    c = f
    d = complex(0.0)
    ok = 0
    for j in range(1, _HYP2F1_MAX_ITER):
        a_j = complex(1.0) if j == 1 else _hyp2f1_cf_coef(x, j - 1) * z
        d = 1.0 + a_j * d
        if d == 0:
            d = complex(tiny)
        c = 1.0 + a_j / c
        if c == 0:
            c = complex(tiny)
        d = 1.0 / d
        delta = c * d
        f *= delta
        if abs(delta - 1.0) < _HYP2F1_TOL:
            ok += 1
            if ok >= 2:
                return f
        else:
            ok = 0
    raise ArithmeticError("continued fraction for 2F1 did not converge")


# ----------------------------------------------------------------------
# Laguerre polynomials
# ----------------------------------------------------------------------

def laguerre_iter(x, alpha=0.0):
    """Yield L^(alpha)_k(x) for k = 0, 1, 2, ... by the three-term recurrence."""
    prev = 1.0
    yield prev
    cur = 1.0 + alpha - x
    k = 1
    while True:
        yield cur
        prev, cur = cur, ((2 * k + 1 + alpha - x) * cur - (k + alpha) * prev) / (k + 1.0)
        k += 1

