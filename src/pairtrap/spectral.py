"""Spectral function F(x, eta) of two trapped atoms with a contact interaction.

F is defined for x > 0 (energies below the noninteracting ground level) by

    F(x, eta) = int_0^inf [ eta e^(-x t)
                / (sqrt(1 - e^(-t)) (1 - e^(-eta t))) - t^(-3/2) ] dt

and continued analytically elsewhere.  Eigenenergies solve
-sqrt(2 pi)/a = F(x, eta) with x = -(E - E0)/2, E0 = 1/2 + eta.

Routes: the defining integral, the gamma-ladder recurrence that continues it
to x < 0, closed forms for integer eta (cigar; a cross-check, since the
recurrence is cheaper) and integer 1/eta (pancake), and the quasi-1D /
quasi-2D asymptotes for extreme anisotropy, whose quasi-2D function Phi is
one proper-time integral on the same node table as F.

F has simple poles at x = -(j + k eta), j,k >= 0, and is strictly
decreasing between consecutive poles.  The recurrence F(x) = eta sqrt(pi)
G(x) + F(x + eta), G(x) = Gamma(x)/Gamma(x + 1/2), puts the pole of
G(x + k eta) at x = -(j + k eta), with residue C(2j, j)/(sqrt(pi) 4^j); so
F's residue there is eta C(2j, j)/4^j, summed over the (j, k) that meet at
the pole.  pole_grid carries these residues; the solver uses them as the
end values of its pole-cleared root searches.

The integral route runs each x on the node table at the power of two 2^k
nearest 1/x.  It runs at request time only to build, on first use, one
Chebyshev interpolant per eta: of sqrt(x) (F + 2 sqrt(pi x)) in w = T/x,
T = max(eta, 1)/2, which serves every recurrence's terminal point and
every bound-side point, all of them at x >= T.

Every gamma ladder of F (recurrence, pancake, cigar lift, quasi-1D term)
is one _ladder_sums call: one specfun.rising_half call for every
(element, step), summed per element in step order with the kernel's
rounding bound carried into est_error, and PoleSignal at a ladder pole.
f_eval_many evaluates F at many x of one eta in one kernel call per route,
the recurrence's terminal values from the interpolant; each kernel works
in plain floats, and f_values hands the level searches its values without
wrapping them in SpectralValue.  f_eval, f_recurrence_extend, f_pancake
and f_integral are the same kernels at one x, and every element of a
batch is bit for bit its scalar value, so the number of kernel calls is
flat in eta (a ladder of thousands of steps is one rising_half call,
which works element by element) and the solver can evaluate all its
level searches in one call per Brent step.
"""

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import repeat
from operator import truediv

import numpy as np

from .numerics import NumericsError, integrate
from .specfun import (
    POLE_TOL,
    PoleSignal,
    SQRT_PI,
    digamma,
    hurwitz_zeta_half,
    hyp2f1_one,
    is_nonpositive_integer,
    rising_half,
)

CLOSED_FORM_TOL = 1e-12
POLE_MERGE = 1e-12  # poles closer than this are one pole of pole_grid
# F's interpolants kept, one per eta, and gamma-ladder offset tuples
FIT_CACHE_SIZE = 64
# the x the defining integral takes: past them its rows under/overflow
INTEGRAL_X_RANGE = (1e-150, 1e150)
# anisotropies the quasi-1D and quasi-2D asymptotes accept
QUASI1D_MIN_ETA = 10.0
QUASI2D_MAX_ETA = 0.1


@dataclass(frozen=True)
class SpectralArgument:
    """Point (x, eta): x = -(E - E0)/2, eta the trap anisotropy."""

    x: float
    eta: float

    def __post_init__(self):
        if not self.eta > 0:
            raise ValueError("eta must be > 0")
        if not math.isfinite(self.x):
            raise ValueError("x must be finite")


@dataclass(frozen=True, slots=True)
class SpectralValue:
    """F value with the route that produced it and an error estimate."""

    value: float
    route: str
    est_error: float

    def __post_init__(self):
        if not self.est_error >= 0:
            raise ValueError("est_error must be >= 0")


@dataclass(frozen=True)
class PoleGrid:
    """Poles x = -(j + k eta) above a cutoff, sorted descending, and F's
    residue at each: lim (x - p) F(x) = sum of eta C(2j, j)/4^j over the
    (j, k) that meet at p."""

    poles: tuple
    residues: tuple


# log q(s), q(s) = (1 - e^(-s))/s, is -s/2 - sum_n c_n s^2n with
# c_n = -B_2n / (2n (2n)!), listed from n = 7 down to n = 1.  The log of a
# quotient near 1 carries an absolute error of an ulp, a relative error of
# 1e-16/s, and the node table reaches s = 1e-51; so below s = 1/2 the
# series is used, where seven terms leave a relative error under 1e-17.
_LNQ_SPLIT = 0.5
_LNQ_SERIES = ((7, -1.0 / 1046139494400.0), (6, 691.0 / 15692092416000.0),
               (5, -1.0 / 479001600.0), (4, 1.0 / 9676800.0),
               (3, -1.0 / 181440.0), (2, 1.0 / 2880.0), (1, -1.0 / 24.0))


def _log_q(s):
    # log q by the quotient, for s >= _LNQ_SPLIT
    m = -s
    return np.log(np.expm1(m) / m)


def _excess_log(t, eta):
    # L(t) = -log(q(t))/2 - log(q(eta t)) elementwise on an array of nodes.
    # Where both t and eta t lie below the split, one series in t:
    #   L = (1/4 + eta/2) t + sum_n c_n (1/2 + eta^2n) t^2n;
    # above it, the quotient form, whose ulp error is small beside L.
    series = t < _LNQ_SPLIT / max(1.0, eta)
    out = np.empty_like(t)
    head, tail = t[series], t[~series]
    h2 = head * head
    acc = np.zeros_like(head)
    for k, c in _LNQ_SERIES:
        acc += c * (0.5 + eta ** (2 * k))
        acc *= h2
    acc += (0.25 + 0.5 * eta) * head
    out[series] = acc
    out[~series] = -0.5 * _log_q(tail) - _log_q(eta * tail)
    return out


def _check_range(x):
    # past INTEGRAL_X_RANGE the node table's rows under- or overflow
    lo, hi = INTEGRAL_X_RANGE
    if not lo <= x <= hi:
        raise ValueError("F's defining integral needs %g <= x <= %g, "
                         "not x = %r" % (lo, hi, x))


def _integral_many(xs, eta):
    # the rest integral F + 2 sqrt(pi x) at every x of the list xs, as
    # arrays of values and estimates: one integrate call, each row on the
    # nodes at the power of two 2^k nearest 1/x, its integrand
    # e^(-x t) t^(-3/2) expm1(L(t)) with L from _excess_log
    for x in (min(xs), max(xs)):
        _check_range(x)
    neg_x = -np.array(xs)[:, None]

    def rest(t):
        return np.exp(neg_x * t) * (np.expm1(_excess_log(t, eta))
                                    / (t * np.sqrt(t)))

    return integrate(rest, np.ldexp(1.0, [-round(math.log2(x)) for x in xs]))


def f_integral(arg):
    """F by the defining integral, at x in INTEGRAL_X_RANGE (below E0).

    With F written as t^(-3/2) expm1(L(t)) under the integral,
    L = -x t - log(q(t))/2 - log(q(eta t)), q(s) = (1 - e^(-s))/s, this
    takes the x-only part t^(-3/2) (e^(-x t) - 1) out exactly, as
    -2 sqrt(pi x), and integrates the rest,
    e^(-x t) t^(-3/2) expm1(-log(q(t))/2 - log(q(eta t))), which is
    positive and decays like e^(-x t), on the numerics exp-sinh node table
    at the power of two 2^k nearest 1/x; log q comes from its series at
    small argument.  This is the reference f_eval's interpolant is fitted
    to; f_eval itself runs no quadrature once it is built.
    """
    (value,), (est,) = _integral_many([arg.x], arg.eta)
    head = 2.0 * math.sqrt(math.pi * arg.x)
    return SpectralValue(float(value) - head, "integral",
                         float(est) + 2.0 ** -52 * head)


# Every recurrence ends at a y >= T = max(eta, 1)/2, where F is read from
# one interpolant per eta: of H(w) = sqrt(x) (F(x) + 2 sqrt(pi x)) in
# w = T/x on [0, 1], H(0) = sqrt(pi) (1/4 + eta/2).  H is smooth there,
# and at w = 0 its k-th Taylor coefficient is that of F's asymptotic series
# in 1/x, Gamma(k + 1/2) a_k/T^k, a_k the integrand's small-t series
# coefficient; that series converges out to t = 2 pi/max(eta, 1) = pi/T,
# so the Taylor coefficients grow like Gamma(k + 1/2)/pi^k for every eta,
# and one degree of Chebyshev interpolant at the points cos(theta_j)
# serves all eta.  A rounding in Clenshaw's step k
# moves the sum as a change of c_k would (|T_k| <= 1), and that step's
# operands are under sum_{j >= k} (j - k + 1) |c_j|: hence _FIT_ROUNDING.
_FIT_N = 28
_FIT_K = np.arange(_FIT_N)
_FIT_THETA = (_FIT_K + 0.5) * (math.pi / _FIT_N)
_FIT_COS = np.cos(_FIT_K[:, None] * _FIT_THETA)
_FIT_LEBESGUE = 2.0 / math.pi * math.log(_FIT_N) + 1.0
_FIT_ROUNDING = 2.0 ** -50 * (1.0 + 0.5 * _FIT_K * (_FIT_K + 1.0))


@lru_cache(maxsize=FIT_CACHE_SIZE)
def _terminal_fit(eta):
    # H's interpolant at the points w = (1 + cos(theta_j))/2, with no BLAS
    # product: (c_N-1 .. c_1, c_0/2, est), est the node ests times the
    # Lebesgue bound, tail and rounding.  Its one integral batch is taken
    # before the head 2 sqrt(pi x) comes off: that head's rounding, times
    # sqrt(x), would grow like eps x
    xs = 0.5 * max(eta, 1.0) / (0.5 + 0.5 * np.cos(_FIT_THETA))
    values, ests = _integral_many(xs.tolist(), eta)
    root = np.sqrt(xs)
    coefs = (2.0 / _FIT_N) * (_FIT_COS * (root * values)).sum(axis=1)
    coefs = coefs.tolist()
    est = float(_FIT_LEBESGUE * (root * ests).max()
                + 2.0 * sum(map(abs, coefs[-2:]))
                + (_FIT_ROUNDING * np.abs(coefs)).sum())
    return tuple(coefs[:0:-1]), 0.5 * coefs[0], est


def _fit_value(fit, w):
    # the interpolant at w by Clenshaw's recurrence, in plain floats
    tail, c0, est = fit
    u2 = 4.0 * w - 2.0
    b1 = b2 = 0.0
    for c in tail:
        b1, b2 = c + u2 * b1 - b2, b1
    return c0 + (2.0 * w - 1.0) * b1 - b2, est


@lru_cache(maxsize=FIT_CACHE_SIZE)
def _ladder_offsets(count, step):
    # the shifts of a gamma ladder: m step for m < count, or m/count when
    # step is None (the pancake sum's)
    return tuple(m / count if step is None else m * step
                 for m in range(count))


def _ladder_sums(xs, offsets, counts, pancake):
    # per x of xs, over t = x + offset for its first counts[e] offsets: the
    # sum of the ladder terms in step order, and the sum of their sizes
    # times the largest rounding bound among them; one kernel call for all.
    # A term is G(t) = Gamma(t)/Gamma(t + 1/2) = 1/rising_half(t), or with
    # pancake set Gamma(t)/Gamma(t - 1/2) = rising_half(t - 1/2), taken at
    # x - 1/2 + offset with no division.  A t within POLE_TOL of a Gamma
    # pole raises PoleSignal at the pole's x, x - (t - round(t)): the first
    # such t in row order.  Within d of the pole -j a term exceeds
    # 1/(2 sqrt(pi (j + 1)) d), so the poles are looked for only in a batch
    # with a row of terms that large.
    lift = -0.5 if pancake else 0.0
    values, bounds = rising_half(
        [(x + lift) + o for x, m in zip(xs, counts) for o in offsets[:m]], 0.5)
    try:
        terms = values if pancake else list(map(truediv, repeat(1.0), values))
    except ZeroDivisionError:  # 1/rising_half at a Gamma pole itself
        terms = None
    # one bound for every term, the usual case, spares a max per row
    same = bounds and bounds.count(bounds[0]) == len(bounds)
    sums, largest, i = [], 0.0, 0
    for m in counts if terms is not None else ():
        j = i + m
        row = terms[i:j]
        size = sum(map(abs, row))
        bound = bounds[0] if same else max(bounds[i:j], default=0.0)
        sums.append((sum(row), size * bound))
        if size > largest:
            largest = size
        i = j
    if terms is None or min(xs) < 0.5 and largest * (
            4.0 * POLE_TOL * math.sqrt(1.5 - min(xs))) > 1.0:
        for x, m in zip(xs, counts):
            for o in offsets[:m]:
                t = x + o
                if t < 0.5 and abs(t - round(t)) < POLE_TOL:
                    raise PoleSignal("F pole: gamma ladder argument %.17g"
                                     % t, x - (t - round(t)))
    return sums


def f_cigar(x, n):
    """Closed form for integer anisotropy eta = n (cigar-shaped trap).

    sqrt(pi) Gamma(x)/Gamma(x+1/2) sum_{m=1}^{n-1} 2F1(1,x;x+1/2;e^(i 2 pi m/n))
      - 2 sqrt(pi) Gamma(x)/Gamma(x-1/2)
    continued to x <= 1/4 by lifting x past 1/4 with the eta-step
    recurrence first, one gamma-ladder row (the continued fraction behind
    2F1 needs x away from the small poles).
    """
    n = int(n)
    if n < 1:
        raise ValueError("cigar closed form needs a positive integer eta")
    if n == 1:
        return f_pancake(x, 1)

    steps = max(0, math.floor((0.25 - x) / n) + 1)
    ((total, ladder_err),) = _ladder_sums([x], _ladder_offsets(steps, n),
                                          [steps], False)
    ladder = n * SQRT_PI * total
    x_work = x + steps * n

    hyp_sum = 0.0 + 0.0j
    for m in range(1, n):
        z = cmath.exp(2j * math.pi * m / n)
        hyp_sum += hyp2f1_one(x_work, z)
    if not abs(hyp_sum.imag) < 1e-10:
        raise NumericsError("cigar hypergeometric sum is not real: imaginary "
                            "part %.3e" % hyp_sum.imag)
    # Gamma(x)/Gamma(x + 1/2) = 1/r, Gamma(x)/Gamma(x - 1/2) = (x - 1/2)/r
    (r,), (bound,) = rising_half([x_work], 0.5)
    front = SQRT_PI / r
    sph = 2.0 * (x_work - 0.5) * front
    value = ladder + front * hyp_sum.real - sph
    scale = abs(ladder) + abs(front) * (abs(hyp_sum.real) + n) + abs(sph)
    est = (1e-14 * scale + n * SQRT_PI * ladder_err
           + (abs(front * hyp_sum.real) + abs(sph)) * bound)
    return SpectralValue(value, "cigar", est)


def _pancake_many(xs, n):
    # the eta = 1/n closed form at every x of xs: one ladder row each,
    # summed in m order, with the kernel's rounding of every term; as
    # lists of values, routes and ests
    coef = 2.0 * SQRT_PI / n
    sums = _ladder_sums(xs, _ladder_offsets(n, None), [n] * len(xs), True)
    values = [-coef * total for total, _ in sums]
    return (values, ["spherical" if n == 1 else "pancake"] * len(xs),
            [1e-14 * (1.0 + abs(v)) + coef * err
             for v, (_, err) in zip(values, sums)])


def f_pancake(x, n):
    """Closed form for eta = 1/n (pancake-shaped trap).

    -(2 sqrt(pi)/n) sum_{m=0}^{n-1} Gamma(x + m/n)/Gamma(x - 1/2 + m/n);
    the gamma ratios continue it to x < 0 directly.  At n = 1 it is the
    spherical form -2 sqrt(pi) Gamma(x)/Gamma(x - 1/2), route "spherical".
    """
    n = int(n)
    if n < 1:
        raise ValueError("pancake closed form needs a positive integer 1/eta")
    return list(map(SpectralValue, *_pancake_many([x], n)))[0]


def _recurrence_many(xs, eta):
    # the recurrence-extended integral at every x of xs: the m steps of
    # each ladder in one kernel call, summed in step order with the
    # kernel's rounding of every term, then each terminal value
    # F(y) = H(T/y)/sqrt(y) - 2 sqrt(pi) sqrt(y) from the interpolant, the
    # head's three roundings in its estimate; as lists of values, routes
    # and ests
    target = 0.5 * max(eta, 1.0)
    ms, tops = [], []
    for x in xs:
        m = max(0, math.ceil((target - x) / eta))
        ms.append(m)
        tops.append(x + m * eta)
    ladders = _ladder_sums(xs, _ladder_offsets(max(ms), eta), ms, False)
    _check_range(max(tops))
    fit = _terminal_fit(eta)
    coef, head_coef = eta * SQRT_PI, 2.0 * SQRT_PI
    values, ests = [], []
    for (total, err), y in zip(ladders, tops):
        h, est = _fit_value(fit, target / y)
        root = math.sqrt(y)
        head = head_coef * root
        values.append(coef * total + (h / root - head))
        ests.append(est / root + 2.0 ** -51 * head + coef * err)
    return values, ["recurrence" if m else "interpolant" for m in ms], ests


def f_recurrence_extend(arg):
    """Continue F to arbitrary x by F(x) = eta sqrt(pi) G(x) + F(x + eta).

    G(x) = Gamma(x)/Gamma(x+1/2).  m is minimal with x + m eta >= max(eta,1)/2
    so the terminal integral stays well-conditioned; it is read from
    f_eval's interpolant, which one range check on the largest terminal
    point keeps inside INTEGRAL_X_RANGE.
    """
    return list(map(SpectralValue, *_recurrence_many([arg.x], arg.eta)))[0]


def _f_many(xs, eta):
    # f_eval's route for eta at every x of the sequence xs, as the route
    # kernel's lists of values, routes and ests
    xs = list(map(float, xs))
    if not eta > 0:
        raise ValueError("eta must be > 0")
    if not all(map(math.isfinite, xs)):
        raise ValueError("x must be finite")
    if not xs:
        return [], [], []
    n_pan = round(1.0 / eta)
    if n_pan >= 1 and abs(1.0 / eta - n_pan) < CLOSED_FORM_TOL:
        return _pancake_many(xs, n_pan)
    return _recurrence_many(xs, eta)


def f_eval_many(xs, eta):
    """F(x, eta) at every x of the sequence xs, as a list of SpectralValue.

    The batch takes f_eval's route (by eta, so one route for all) and one
    kernel call for all elements: one rising_half call over every
    (element, ladder step) argument, then the interpolant's Clenshaw sums
    and no quadrature (the first batch at an eta off the closed forms
    builds the interpolant: one integrate call).  The kernel returns plain
    floats, which this wraps; f_values is the same call without the
    wrapping.  Each element's value, route and est are the scalar
    f_eval's bit for bit, whatever else is in the batch.
    An element within POLE_TOL of a pole raises PoleSignal carrying that
    pole's x (the first such element's); a non-finite x, eta <= 0 or x
    above INTEGRAL_X_RANGE raises ValueError.
    """
    return list(map(SpectralValue, *_f_many(xs, eta)))


def f_values(xs, eta):
    """f_eval_many's values as plain floats, from the same kernel call and
    with the same errors: all that the level searches read."""
    return _f_many(xs, eta)[0]


def f_eval(arg):
    """Evaluate F(x, eta) by the cheapest accurate route.

    Integer 1/eta (within 1e-12) uses the pancake closed form, which at
    eta = 1 is the spherical one; anything else, integer eta >= 2 included,
    the recurrence-extended integral, its terminal F at y >= T,
    T = max(eta, 1)/2, from one interpolant of f_integral in T/y cached
    per eta (within 1e-13 (1 + |F|), in est_error).  Its route is
    "recurrence" where the ladder has a step and "interpolant" where x
    itself is read from the fit.  Both routes' gamma ladders pass through
    each pole x = -(j + k eta) (as Gamma(-j) at step k), so an input within
    POLE_TOL of a pole raises PoleSignal there, carrying the pole's x.
    This is f_eval_many at one x.
    """
    return f_eval_many([arg.x], arg.eta)[0]


def f_quasi1d(arg, bound_state=False):
    """Quasi-1D asymptote for strongly cigar-shaped traps (eta >> 1).

    sqrt(pi eta) [zeta(1/2, 1 + x/eta) + sqrt(eta) Gamma(x)/Gamma(x+1/2)];
    with bound_state=True the bound-branch variant sqrt(pi eta)
    zeta(1/2, x/eta) (x > 0) is used instead.  Valid for x > -eta.
    """
    x, eta = arg.x, arg.eta
    if eta < QUASI1D_MIN_ETA:
        raise ValueError("quasi-1d asymptote needs eta >= %g"
                         % QUASI1D_MIN_ETA)
    if not x > -eta:
        raise ValueError("quasi-1d asymptote needs x > -eta")
    if bound_state:
        if not x > 0:
            raise ValueError("bound-state variant needs x > 0")
        value = math.sqrt(math.pi * eta) * hurwitz_zeta_half(x / eta)
    else:
        ((ladder, _),) = _ladder_sums([x], (0.0,), [1], False)
        value = math.sqrt(math.pi * eta) * (
            hurwitz_zeta_half(1.0 + x / eta) + math.sqrt(eta) * ladder)
    return SpectralValue(value, "quasi1d", abs(value) / eta)


def f_quasi2d(arg, bound_state=False):
    """Quasi-2D asymptote for strongly pancake-shaped traps (eta << 1).

    -Phi(x) - log(eta) - digamma(x/eta); with bound_state=True the
    digamma is replaced by its large-argument logarithm, giving
    -Phi(x) - log(x).  Valid for x > -1; raises PoleSignal within POLE_TOL
    of a digamma pole x/eta = -k, located at x = -k eta.
    """
    x, eta = arg.x, arg.eta
    if eta > QUASI2D_MAX_ETA:
        raise ValueError("quasi-2d asymptote needs eta <= %g"
                         % QUASI2D_MAX_ETA)
    if not x > -1.0:
        raise ValueError("quasi-2d asymptote needs x > -1")
    if bound_state:
        if not x > 0:
            raise ValueError("bound-state variant needs x > 0")
        value = -phi(x) - math.log(x)
    else:
        q = x / eta
        if is_nonpositive_integer(q):
            raise PoleSignal("digamma pole at x/eta = %.17g" % q,
                             round(q) * eta)
        value = -phi(x) - math.log(eta) - digamma(q)
    return SpectralValue(value, "quasi2d", abs(value) * eta)


def phi(x):
    """Phi(x), the quasi-2D function, for x > -1, by one proper-time integral:

      Phi(x) = 2 sqrt(pi) + log(1 + x)/2 - int_0^inf (dt/t) [e^(-x t)
               (1/sqrt(1 - e^(-t)) - 1) - (e^(-(1+x) t) - e^(-t))/2
               + e^(-t) - e^(-t)/sqrt(t)],

    F's integral split at eta/(1 - e^(-eta t)) = 1/t + [...] with Frullani
    terms for log x and log(1 + x) taken out, so that the integrand decays
    like e^(-t) for every x > -1 and the node table runs at scale 1.  Below
    t = 1/2 the bracket is e^(-t)/t [t^(-1/2) expm1((1 - x) t - log q(t)/2)
    - expm1((1 - x) t) - expm1(-x t)/2], log q from its series; above, it
    is [e^(-(1+x) t) (r - 1/2) + e^(-t) (3/2 - t^(-1/2))]/t with
    r = (1/sqrt(1 - u) - 1)/u, u = e^(-t), and r = 1/2 once u underflows.
    """
    if not x > -1.0:
        raise ValueError("phi needs x > -1")

    def bracket(t):
        n = int(np.searchsorted(t, _LNQ_SPLIT))
        out = np.empty_like(t)
        head, tail = t[:n], t[n:]
        h2 = head * head
        acc = np.zeros_like(head)
        for _, c in _LNQ_SERIES:
            acc += c
            acc *= h2
        # (1 - x) t - log q(t)/2 = (5/4 - x) t + sum_n c_n t^2n / 2
        out[:n] = np.exp(-head) / head * (
            np.expm1((1.25 - x) * head + 0.5 * acc) / np.sqrt(head)
            - np.expm1((1.0 - x) * head) - 0.5 * np.expm1(-x * head))
        u = np.exp(-tail)
        live = u > 0.0
        r_half = np.zeros_like(tail)
        r_half[live] = np.expm1(-0.5 * np.log1p(-u[live])) / u[live] - 0.5
        out[n:] = (np.exp(-(1.0 + x) * tail) * r_half
                   + u * (1.5 - 1.0 / np.sqrt(tail))) / tail
        return out

    value, _ = integrate(bracket, 1.0)
    return 2.0 * SQRT_PI + 0.5 * math.log1p(x) - value


def pole_grid(eta, x_min):
    """All poles x = -(j + k eta) with x >= x_min, descending, with F's
    residues; poles within POLE_MERGE are one pole with the summed residue.
    Raises ValueError unless eta > 0 and x_min < 0 are both finite."""
    if not 0 < eta < math.inf:
        raise ValueError("eta must be positive and finite")
    if not -math.inf < x_min < 0:
        raise ValueError("x_min must be finite and < 0")
    vals = []
    k = 0
    while k * eta <= -x_min:
        j = 0
        c = 1.0  # C(2j, j)/4^j
        while j + k * eta <= -x_min:
            vals.append((-(j + k * eta), eta * c))
            j += 1
            c *= (2.0 * j - 1.0) / (2.0 * j)
        k += 1
    vals.sort(reverse=True)
    poles, residues = [], []
    for v, r in vals:
        if poles and poles[-1] - v <= POLE_MERGE:
            residues[-1] += r
        else:
            poles.append(v)
            residues.append(r)
    return PoleGrid(poles=tuple(poles), residues=tuple(residues))
