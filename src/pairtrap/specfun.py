"""Special-function kernel for the routines scipy does not cover.

Log-gamma with sign tracking, gamma ratios with pole bookkeeping, the
Hurwitz zeta function at s = 1/2, the Gauss hypergeometric
2F1(1,x;x+1/2;z) on the unit circle, Kummer's U for b in {1/2, 1, 3/2} and
Laguerre polynomials.  Digamma and the modified Bessel function K0 come
from scipy.special and the Gauss-Legendre nodes from numpy.  The Hurwitz
zeta stays here because scipy.special.zeta(0.5, q) returns nan.
"""

import math

import numpy as np
from scipy.special import digamma

EULER_GAMMA = 0.5772156649015328606065
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

def ln_gamma(x):
    """Return (log|Gamma(x)|, sign of Gamma(x)).

    Accurate to >= 13 significant digits for |x| <= 170.  Raises PoleSignal
    at nonpositive integers.
    """
    if is_nonpositive_integer(x, tol=0.0) or (x <= 0 and x == round(x)):
        raise PoleSignal("gamma pole at x = %g" % x, x)
    if x > 0:
        return math.lgamma(x), 1
    # Gamma alternates sign between consecutive negative integers.
    n = math.floor(x)
    sign = 1 if n % 2 == 0 else -1
    return math.lgamma(x), sign


def gamma_ratio(num, den):
    """Gamma(num)/Gamma(den) via lgamma differences with sign tracking.

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
    ln_n, s_n = ln_gamma(num)
    ln_d, s_d = ln_gamma(den)
    diff = ln_n - ln_d
    if diff > 709.0:
        return math.inf * s_n * s_d
    return s_n * s_d * math.exp(diff)


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


def hyp2f1_one(x, z, tol=1e-15, max_iter=20000):
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
    for j in range(1, max_iter):
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
        if abs(delta - 1.0) < tol:
            ok += 1
            if ok >= 2:
                return f
        else:
            ok = 0
    raise ArithmeticError("continued fraction for 2F1 did not converge")


# ----------------------------------------------------------------------
# Kummer U for b in {1/2, 1, 3/2}
# ----------------------------------------------------------------------

_SUPPORTED_B = (0.5, 1.0, 1.5)

# 48-point Gauss-Legendre rule on [-1, 1] for the ln_gamma_u panels, nodes
# in descending order
_GL_NODES, _GL_WEIGHTS = (v[::-1] for v in np.polynomial.legendre.leggauss(48))


def _check_b(b):
    for bb in _SUPPORTED_B:
        if abs(b - bb) < 1e-12:
            return bb
    raise ValueError("kummer_u supports b in {1/2, 1, 3/2} only, got %g" % b)


def ln_gamma_u(a, b, w):
    """log of Gamma(a)*U(a, b, w) for a > 0, w > 0, b in {1/2, 1, 3/2}.

    Uses the Laplace integral int_0^inf exp(-w t) t^(a-1) (1+t)^(b-a-1) dt,
    whose integrand is positive, so the product stays representable in log
    form even where Gamma(a) alone would overflow.  Layout: a head panel
    [0, T] with the t^(a-1) factor absorbed exactly by t = T v^(1/a)
    (accumulated in its own log normalization), Gauss-Legendre panels laid
    out around the interior peak when there is one, and rate-capped
    doubling panels for the tail.
    """
    b = _check_b(b)
    if not (a > 0 and w > 0):
        raise ValueError("ln_gamma_u needs a > 0 and w > 0")
    c = b - a - 1.0

    def phi(t):
        return -w * t + (a - 1.0) * np.log(t) + c * np.log1p(t)

    def phi1(t):
        return -w * t + (a - 1.0) * math.log(t) + c * math.log1p(t)

    def dphi(t):
        return -w + (a - 1.0) / t + c / (1.0 + t)

    # Head boundary: keep w*T <= 2 and |c|*log1p(T) <= 35 so the head
    # integrand spans few enough e-folds for the fixed node count.
    T = min(1.0, 2.0 / w if w > 2.0 else 1.0, math.expm1(35.0 / max(abs(c), 1.0)))

    # Head over (0, T) by a tanh-sinh rule accumulated in log form: the
    # node/weight products absorb the t^(a-1) endpoint behavior for any
    # strength a > 0, and the log accumulation keeps huge |phi| safe.
    h = 0.08
    u_hi = math.asinh(45.0 / (math.pi * min(a, 1.0)))
    u = h * np.arange(-math.ceil(3.4 / h), math.ceil(u_hi / h) + 1)
    s = 0.5 * math.pi * np.sinh(u)
    t_head = T / (1.0 + np.exp(np.minimum(2.0 * s, 700.0)))
    ln_t = math.log(T) - np.logaddexp(0.0, 2.0 * s)
    abs_s = np.abs(s)
    ln_cosh_s = abs_s + np.log1p(np.exp(-2.0 * abs_s)) - math.log(2.0)
    ln_wt = (math.log(0.25 * math.pi * h * T) + np.log(np.cosh(u))
             - 2.0 * ln_cosh_s)
    e_head = -w * t_head + (a - 1.0) * ln_t + c * np.log1p(t_head) + ln_wt
    k_head = float(np.max(e_head))
    head_ln = k_head + math.log(float(np.sum(np.exp(e_head - k_head))))

    # Peak marks (interior maximum exists only for a > 1 and sits at the
    # positive root of w t^2 + (w+2-b) t - (a-1) = 0).
    marks = []
    shift = phi1(T)
    if a > 1.0:
        q = w + 2.0 - b
        tp = (math.sqrt(q * q + 4.0 * w * (a - 1.0)) - q) / (2.0 * w)
        if tp > T:
            shift = phi1(tp)
            curv = (a - 1.0) / (tp * tp) - (a + 1.0 - b) / ((1.0 + tp) ** 2)
            sigma = 1.0 / math.sqrt(max(curv, 1e-300))
            raw = [tp + s * sigma for s in (-8.0, -4.0, -2.0, -1.0, 0.0, 1.0, 2.0, 4.0, 8.0)]
            for m in sorted(raw):
                if m > T * (1.0 + 1e-12) and (not marks or m > marks[-1] * (1.0 + 1e-12)):
                    marks.append(m)

    # Panel edge layout: geometric fill between the head edge and the first
    # peak mark (values out there are suppressed by the -8 sigma mark, so
    # the fixed ratio bounds the per-panel e-fold count), the sigma marks,
    # then doubling tail panels capped at ~35 e-folds each.
    edges = [T]
    if marks:
        lo = T
        while lo < marks[0] / 1.5:
            lo *= 1.5
            edges.append(lo)
        edges.extend(m for m in marks if m > edges[-1] * (1.0 + 1e-14))
    edge = edges[-1]
    width = edges[-1] - edges[-2] if len(edges) > 1 else T
    acc = 0.0
    for _ in range(250):
        rate = max(w, -dphi(edge), 1e-300)
        width = min(2.0 * width, 35.0 / rate)
        edge += width
        edges.append(edge)
        drop = phi1(edge) - shift
        val_lb = math.exp(min(drop, 700.0)) * width
        acc += val_lb
        if val_lb <= 1e-18 * acc and drop < -41.0:
            break

    arr = np.asarray(edges)
    lo_e = arr[:-1]
    half = 0.5 * (arr[1:] - arr[:-1])
    t_all = (lo_e[:, None]
             + half[:, None] * (_GL_NODES[None, :] + 1.0)).ravel()
    w_all = (half[:, None] * _GL_WEIGHTS[None, :]).ravel()
    total = float(np.sum(w_all * np.exp(phi(t_all) - shift)))

    # Combine panel mass (normalized at shift) with the head in log space.
    if total > 0.0:
        body_ln = shift + math.log(total)
        hi = max(body_ln, head_ln)
        return hi + math.log1p(math.exp(min(body_ln, head_ln) - hi))
    return head_ln


def _kummer_u_log_series(a, z):
    # U(a,1,z) = -(1/Gamma(a)) sum_k ((a)_k/(k!)^2) z^k (ln z + psi(a+k) - 2 psi(1+k))
    # Good for small z with a*z moderate (the sum then carries no deep
    # cancellation); this is the explicit logarithmic b = 1 limit formula.
    lnz = math.log(z)
    psi_ak = float(digamma(a))
    psi_k1 = -EULER_GAMMA
    coef = 1.0
    total = 0.0
    for k in range(500):
        term = coef * (lnz + psi_ak - 2.0 * psi_k1)
        total += term
        if k > 3 and abs(term) < 1e-18 * max(abs(total), 1e-300):
            break
        psi_ak += 1.0 / (a + k)
        psi_k1 += 1.0 / (k + 1.0)
        coef *= (a + k) * z / ((k + 1.0) * (k + 1.0))
    return -math.exp(-math.lgamma(a)) * total


def kummer_u(a, b, x):
    """Tricomi's U(a, b, x) for x > 0 and b in {1/2, 1, 3/2}.

    a > 0 goes through the Laplace integral; a <= 0 is reconstructed by
    downward contiguous recurrence from seeds in (0, 1]; the b = 1
    logarithmic case at small x uses the explicit psi-term limit series.
    """
    b = _check_b(b)
    if not x > 0:
        raise ValueError("kummer_u needs x > 0")
    if a == 0.0:
        return 1.0
    if a > 0:
        if b == 1.0 and x <= 0.5 and a * x <= 2.0:
            return _kummer_u_log_series(a, x)
        return math.exp(ln_gamma_u(a, b, x) - math.lgamma(a))
    # Downward recurrence U(a-1) = (x + 2a - b) U(a) - a (a - b + 1) U(a+1),
    # the stable direction (U is the minimal solution as a grows).
    n = math.floor(-a) + 1
    a0 = a + n
    up = kummer_u(a0 + 1.0, b, x)
    cur = kummer_u(a0, b, x)
    ac = a0
    for _ in range(n):
        up, cur = cur, (x + 2.0 * ac - b) * cur - ac * (ac - b + 1.0) * up
        ac -= 1.0
    return cur


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

