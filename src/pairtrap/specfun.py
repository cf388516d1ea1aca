"""Special-function kernel for the routines scipy does not cover.

Gamma ratios (scipy's poch) with pole bookkeeping, the Hurwitz zeta
function at s = 1/2, the Gauss hypergeometric 2F1(1,x;x+1/2;z) on the unit
circle, Gamma(a) U(a, b, w) for b in {1/2, 1, 3/2} (Tricomi's U times
Gamma(a), the pair wavefunction's series coefficient) and Laguerre
polynomials.  ln_gamma_u gives log Gamma(a) U for a > 0 on the numerics
exp-sinh node table, one pass for an array of a; gamma_u gives the signed
product for any a off the Gamma poles from one such pass, with the rows
below a = 1/2 recurred down from seeds in the same pass.  The Hurwitz zeta
stays here because scipy.special.zeta(0.5, q) returns nan.
"""

import math

import numpy as np
from scipy.special import poch

from .numerics import integrate

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

def gamma_ratio(num, den):
    """Gamma(num)/Gamma(den) as 1/poch(num, den - num).

    A denominator pole gives 0.0 (the ratio vanishes) and a numerator pole
    raises PoleSignal; a pole in both arguments is rejected with ValueError
    (no limit without extra context).
    """
    num_pole = is_nonpositive_integer(num, tol=0.0)
    den_pole = is_nonpositive_integer(den, tol=0.0)
    if num_pole and den_pole:
        raise ValueError("gamma_ratio(%g, %g): both arguments are poles" % (num, den))
    if num_pole:
        raise PoleSignal("gamma ratio pole at num = %g" % num, num)
    if den_pole:
        return 0.0
    rising = float(poch(num, den - num))
    return 1.0 / rising if rising != 0.0 else math.copysign(math.inf, rising)


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
# Gamma(a) U(a, b, w) for b in {1/2, 1, 3/2}
# ----------------------------------------------------------------------

_SUPPORTED_B = (0.5, 1.0, 1.5)


def _check_b(b):
    for bb in _SUPPORTED_B:
        if abs(b - bb) < 1e-12:
            return bb
    raise ValueError("Gamma U kernel supports b in {1/2, 1, 3/2} only, "
                     "got %g" % b)


def ln_gamma_u(a, b, w):
    """log of Gamma(a)*U(a, b, w) for a > 0, w > 0, b in {1/2, 1, 3/2}.

    a may be a float or a 1-D array (one row per entry, all rows in one
    exp-sinh pass); a float gives a float.  The value is the log of the
    Laplace integral int_0^inf exp(psi(log t)) dlog t with
      psi(l) = (b - 1) l - w t + (b - a - 1) log1p(1/t),  t = e^l,
    whose integrand is positive, so the product stays representable in log
    form even where Gamma(a) alone would overflow; log1p(1/t) keeps the
    large-a exponent free of cancellation.  Each row is scaled at the peak c
    of psi, the positive root of w t^2 + (w + 1 - b) t - a = 0, and
    integrated in y after log(t/c) = p (v + k (v - sqrt(v^2 + 1))),
    v = log y.  p = min(1, 10 width), width the relative peak width, widens
    a sharp peak (large a w) to 0.1 in v, where the table resolves it; k > 0
    only for a < 1/2, where it steepens the left branch to slope
    p (1 + 2k) = p/(2a) so that the slow t^a rise from t = 0 ends inside
    the table.
    """
    b = _check_b(b)
    a_in = np.asarray(a, dtype=float)
    av = a_in.reshape(-1, 1)
    if not (np.all(av > 0) and w > 0):
        raise ValueError("ln_gamma_u needs a > 0 and w > 0")
    q = w + 1.0 - b
    disc = np.sqrt(q * q + (4.0 * w) * av)
    c = 2.0 * av / (disc + q) if q >= 0.0 else (disc - q) / (2.0 * w)
    # -psi''(log c), the inverse square of the relative peak width
    curv = (av + (1.0 - b)) * c / ((1.0 + c) * (1.0 + c)) + w * c
    p = np.minimum(1.0, 10.0 / np.sqrt(curv))
    pk = p * np.maximum(0.0, 0.25 / av - 0.5)
    lc = np.log(c)
    bam1 = (b - 1.0) - av

    def psi(lt):
        return ((b - 1.0) * lt - w * np.exp(lt)
                + bam1 * np.logaddexp(0.0, -lt))

    psi0 = psi(lc)

    def f(y):
        v = np.log(y[:1])
        hyp = np.sqrt(v * v + 1.0)
        lt = (lc + (p + pk) * v) - pk * hyp
        jac = (p + pk) - pk * (v / hyp)
        return np.exp(psi(lt) - (psi0 + v)) * jac

    value, _ = integrate(f, np.ones(len(av)))
    out = psi0[:, 0] + np.log(value)
    return float(out[0]) if a_in.ndim == 0 else out


def gamma_u(a, b, w):
    """Signed Gamma(a) U(a, b, w) for w > 0 and b in {1/2, 1, 3/2}.

    a may be a float or a 1-D array (float in, float out); an a within
    POLE_TOL of a nonpositive integer raises PoleSignal.  Every value comes
    from one ln_gamma_u pass: a row with a >= 1/2 directly, and a row below
    1/2 from the two rows a + n, a + n + 1 (n the least with a + n >= 1/2)
    appended to the same pass, by DLMF 13.3.7 written for V = Gamma U,
      V(a - 1) = [(w + 2a - b) V(a) - (a - b + 1) V(a + 1)]/(a - 1),
    run downward, the stable direction (U is the minimal solution as a
    grows).  The rows below 1/2 step together, each stopping after its n.
    """
    b = _check_b(b)
    a_in = np.asarray(a, dtype=float)
    av = a_in.reshape(-1)
    low = np.flatnonzero(av < 0.5)
    for ai in av[low]:
        if is_nonpositive_integer(ai):
            raise PoleSignal("Gamma(a) U(a, b, w) pole at a = %.17g" % ai, ai)
    steps = np.ceil(0.5 - av[low])
    ac = av[low] + steps
    rows = av.copy()
    rows[low] = ac
    v = np.exp(ln_gamma_u(np.concatenate((rows, ac + 1.0)), b, w))
    out, up = v[:len(av)], v[len(av):]
    cur = out[low]
    for i in range(int(steps.max(initial=0.0))):
        go = steps > i
        down = ((w + 2.0 * ac - b) * cur - (ac - b + 1.0) * up) / (ac - 1.0)
        up = np.where(go, cur, up)
        cur = np.where(go, down, cur)
        ac = ac - go
    out[low] = cur
    return float(out[0]) if a_in.ndim == 0 else out


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

