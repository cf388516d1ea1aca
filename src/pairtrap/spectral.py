"""Spectral function F(x, eta) of two trapped atoms with a contact interaction.

F is defined for x > 0 (energies below the noninteracting ground level) by

    F(x, eta) = int_0^inf [ eta e^(-x t)
                / (sqrt(1 - e^(-t)) (1 - e^(-eta t))) - t^(-3/2) ] dt

and continued analytically elsewhere.  Eigenenergies solve
-sqrt(2 pi)/a = F(x, eta) with x = -(E - E0)/2, E0 = 1/2 + eta.

Routes: the defining integral, closed forms for integer eta (cigar) and
integer 1/eta (pancake), the gamma-ladder recurrence that continues F to
x < 0, and the quasi-1D / quasi-2D asymptotes for extreme anisotropy.
F has simple poles at x = -(j + k eta), j,k >= 0, and is strictly
decreasing between consecutive poles.
"""

import cmath
import math
from dataclasses import dataclass

from scipy.special import digamma

from .numerics import (NumericsError, QuadratureSpec,
                       integrate_semi_infinite_with_error)
from .specfun import (
    PoleSignal,
    SQRT_PI,
    gamma_ratio,
    hurwitz_zeta_half,
    hyp2f1_one,
)

POLE_TOL = 1e-9
CLOSED_FORM_TOL = 1e-12


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


@dataclass(frozen=True)
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
    """Poles x = -(j + k eta) above a cutoff, sorted descending."""

    poles: tuple


def _gamma_ladder_term(arg):
    # Gamma(arg)/Gamma(arg + 1/2), with denominator poles collapsing to 0.
    return gamma_ratio(arg, arg + 0.5)


def _check_ladder_pole(arg):
    # Gamma(arg) pole <=> F pole contribution; reject within POLE_TOL.
    if arg < 0.5 and abs(arg - round(arg)) < POLE_TOL and round(arg) <= 0:
        raise PoleSignal("F pole: gamma ladder argument %.17g" % arg, arg)


def f_integral(arg, spec=QuadratureSpec()):
    """F by the defining integral; requires x > 0 (energy below E0).

    The integrand is evaluated as t^(-3/2) expm1(L(t)) with
    L = -x t - log(q(t))/2 - log(q(eta t)), q(s) = (1 - e^(-s))/s,
    which is exact and avoids the t -> 0 cancellation of the raw form.
    """
    x, eta = arg.x, arg.eta
    if not x > 0:
        raise ValueError("f_integral needs x > 0; use f_eval for x <= 0")

    def lnq(s):
        if s < 1e-300:
            return 0.0
        if s > 40.0:
            return -math.log(s)
        return math.log(-math.expm1(-s) / s)

    def integrand(t):
        ln_rest = -x * t - 0.5 * lnq(t) - lnq(eta * t)
        return t ** -1.5 * math.expm1(ln_rest)

    value, est = integrate_semi_infinite_with_error(integrand, spec)
    return SpectralValue(value, "integral", est)


def _spherical(x):
    # F(x, 1) = -2 sqrt(pi) Gamma(x)/Gamma(x - 1/2), analytic in x except
    # for the Gamma(x) poles (denominator poles are zeros of the ratio).
    _check_ladder_pole(x)
    ratio = gamma_ratio(x, x - 0.5)
    value = -2.0 * SQRT_PI * ratio
    return SpectralValue(value, "spherical", 1e-14 * (1.0 + abs(value)))


def f_cigar(x, n):
    """Closed form for integer anisotropy eta = n (cigar-shaped trap).

    sqrt(pi) Gamma(x)/Gamma(x+1/2) sum_{m=1}^{n-1} 2F1(1,x;x+1/2;e^(i 2 pi m/n))
      - 2 sqrt(pi) Gamma(x)/Gamma(x-1/2)
    continued to x <= 1/4 by lifting x with the eta-step recurrence first
    (the continued fraction behind 2F1 needs x away from the small poles).
    """
    n = int(n)
    if n < 1:
        raise ValueError("cigar closed form needs a positive integer eta")
    if n == 1:
        return _spherical(x)

    ladder = 0.0
    lifts = 0
    x_work = x
    while x_work <= 0.25:
        _check_ladder_pole(x_work)
        ladder += n * SQRT_PI * _gamma_ladder_term(x_work)
        x_work += n
        lifts += 1

    hyp_sum = 0.0 + 0.0j
    for m in range(1, n):
        z = cmath.exp(2j * math.pi * m / n)
        hyp_sum += hyp2f1_one(x_work, z)
    if not abs(hyp_sum.imag) < 1e-10:
        raise NumericsError("cigar hypergeometric sum is not real: imaginary "
                            "part %.3e" % hyp_sum.imag)
    front = SQRT_PI * _gamma_ladder_term(x_work)
    sph = 2.0 * SQRT_PI * gamma_ratio(x_work, x_work - 0.5)
    value = ladder + front * hyp_sum.real - sph
    scale = abs(ladder) + abs(front) * (abs(hyp_sum.real) + n) + abs(sph)
    return SpectralValue(value, "cigar", 1e-14 * scale)


def f_pancake(x, n):
    """Closed form for eta = 1/n (pancake-shaped trap).

    -(2 sqrt(pi)/n) sum_{m=0}^{n-1} Gamma(x + m/n)/Gamma(x - 1/2 + m/n);
    the gamma ratios continue it to x < 0 directly.
    """
    n = int(n)
    if n < 1:
        raise ValueError("pancake closed form needs a positive integer 1/eta")
    if n == 1:
        return _spherical(x)
    total = 0.0
    for m in range(n):
        arg = x + m / n
        _check_ladder_pole(arg)
        total += gamma_ratio(arg, arg - 0.5)
    value = -(2.0 * SQRT_PI / n) * total
    return SpectralValue(value, "pancake", 1e-14 * (1.0 + abs(value)))


def f_recurrence_extend(arg, spec=QuadratureSpec()):
    """Continue F to arbitrary x by F(x) = eta sqrt(pi) G(x) + F(x + eta).

    G(x) = Gamma(x)/Gamma(x+1/2).  m is minimal with x + m eta >= max(eta,1)/2
    so the terminal integral stays well-conditioned.
    """
    x, eta = arg.x, arg.eta
    target = 0.5 * max(eta, 1.0)
    m = max(0, math.ceil((target - x) / eta))
    ladder = 0.0
    ladder_abs = 0.0
    for i in range(m):
        xi = x + i * eta
        _check_ladder_pole(xi)
        term = eta * SQRT_PI * _gamma_ladder_term(xi)
        ladder += term
        ladder_abs += abs(term)
    terminal = f_integral(SpectralArgument(x + m * eta, eta), spec)
    value = ladder + terminal.value
    est = terminal.est_error + 1e-15 * ladder_abs
    return SpectralValue(value, "recurrence" if m > 0 else "integral", est)


def f_eval(arg):
    """Evaluate F(x, eta) picking the best route.

    Integer eta (within 1e-12) uses the cigar closed form, integer 1/eta the
    pancake form, anything else the recurrence-extended integral.  Inputs
    within 1e-9 of a pole x = -(j + k eta) raise a pole signal carrying the
    nearest pole location.
    """
    x, eta = arg.x, arg.eta
    pole = _nearest_pole(x, eta)
    if abs(x - pole) < POLE_TOL:
        raise PoleSignal("x = %.17g is within %.1e of pole %.17g"
                         % (x, POLE_TOL, pole), pole)
    n_cigar = round(eta)
    if n_cigar >= 1 and abs(eta - n_cigar) < CLOSED_FORM_TOL:
        return f_cigar(x, n_cigar)
    n_pan = round(1.0 / eta)
    if n_pan >= 1 and abs(1.0 / eta - n_pan) < CLOSED_FORM_TOL:
        return f_pancake(x, n_pan)
    return f_recurrence_extend(arg)


def _nearest_pole(x, eta):
    # poles -(j + k eta): loop over the index with the larger step (k when
    # eta >= 1, j otherwise), so the loop runs O(|x|/max(1, eta)) times.
    # For x <= 0 a pole lies within half the smaller step, so the nearest
    # one has its other index in m - 1 .. m + 1; for 0 < x <= 1/2 it is
    # the pole at 0, where best starts.
    if x > 0.5:
        return 0.0
    step, other = (eta, 1.0) if eta >= 1.0 else (1.0, eta)
    best = 0.0
    for n in range(int(math.ceil(-x / step)) + 2):
        m = round((-x - n * step) / other)
        for mm in (m - 1, m, m + 1):
            if mm >= 0:
                p = -(mm * other + n * step)
                if abs(x - p) < abs(x - best):
                    best = p
    return best


def f_quasi1d(arg, bound_state=False, min_eta=10.0):
    """Quasi-1D asymptote for strongly cigar-shaped traps (eta >> 1).

    sqrt(pi eta) [zeta(1/2, 1 + x/eta) + sqrt(eta) Gamma(x)/Gamma(x+1/2)];
    with bound_state=True the bound-branch variant sqrt(pi eta)
    zeta(1/2, x/eta) (x > 0) is used instead.  Valid for x > -eta.
    """
    x, eta = arg.x, arg.eta
    if eta < min_eta:
        raise ValueError("quasi-1d asymptote needs eta >= %g" % min_eta)
    if not x > -eta:
        raise ValueError("quasi-1d asymptote needs x > -eta")
    if bound_state:
        if not x > 0:
            raise ValueError("bound-state variant needs x > 0")
        value = math.sqrt(math.pi * eta) * hurwitz_zeta_half(x / eta)
    else:
        _check_ladder_pole(x)
        value = math.sqrt(math.pi * eta) * (
            hurwitz_zeta_half(1.0 + x / eta)
            + math.sqrt(eta) * _gamma_ladder_term(x))
    return SpectralValue(value, "quasi1d", abs(value) / eta)


def f_quasi2d(arg, bound_state=False, max_eta=0.1):
    """Quasi-2D asymptote for strongly pancake-shaped traps (eta << 1).

    -phi_series(x) - log(eta) - digamma(x/eta); with bound_state=True the
    digamma is replaced by its large-argument logarithm, giving
    -phi_series(x) - log(x).  Valid for x > -1.
    """
    x, eta = arg.x, arg.eta
    if eta > max_eta:
        raise ValueError("quasi-2d asymptote needs eta <= %g" % max_eta)
    if not x > -1.0:
        raise ValueError("quasi-2d asymptote needs x > -1")
    if bound_state:
        if not x > 0:
            raise ValueError("bound-state variant needs x > 0")
        value = -phi(x) - math.log(x)
    else:
        q = x / eta
        if q <= 0 and abs(q - round(q)) < POLE_TOL:
            raise PoleSignal("digamma pole at x/eta = %.17g" % q, x)
        value = -phi(x) - math.log(eta) - digamma(q)
    return SpectralValue(value, "quasi2d", abs(value) * eta)


def phi(x):
    """Phi(x) = 2 - log(1+x) + 2 sum_k w_k [(k+1/2) log((x+k)/(x+k+1)) + 1].

    w_k = (2k)!/(2^k k!)^2 ~ 1/sqrt(pi k), so the terms decay only as
    k^(-3/2); the head is summed directly (with a cancellation-free small-u
    branch) and the remainder by a 4-term asymptotic tail in Hurwitz zetas.
    """
    if not x > -1.0:
        raise ValueError("phi needs x > -1")
    k_top = 400 * max(1, int(math.ceil(abs(x))))
    total = 2.0 - math.log1p(x)
    w = 1.0
    for k in range(1, k_top + 1):
        w *= (2 * k - 1) / (2.0 * k)
        u = 1.0 / (k + x + 1.0)
        if u < 0.04:
            # B_k = x u + sum_{j>=2} (x/j - (j-1)/(2j(j+1))) u^j, exact
            # rearrangement of 1 + (k+1/2) log(1-u); avoids cancellation.
            bk = 0.0
            up = u
            for j in range(1, 12):
                if j > 1:
                    up *= u
                bk += (x / j - (j - 1) / (2.0 * j * (j + 1.0))) * up
        else:
            bk = 1.0 + (k + 0.5) * math.log1p(-u)
        total += 2.0 * w * bk
    # Tail: w_k B_k = (x k^(-3/2) + c2 k^(-5/2) + c3 k^(-7/2) + c4 k^(-9/2)
    #                 + O(k^(-11/2))) / sqrt(pi)
    b2 = -x * x - 0.5 * x - 1.0 / 12.0
    b3 = x ** 3 + x * x + 0.5 * x + 1.0 / 12.0
    b4 = -x ** 4 - 1.5 * x ** 3 - 1.25 * x * x - 0.5 * x - 3.0 / 40.0
    c2 = b2 - x / 8.0
    c3 = b3 - b2 / 8.0 + x / 128.0
    c4 = b4 - b3 / 8.0 + b2 / 128.0 + 5.0 * x / 1024.0
    q = k_top + 1.0
    tail = (x * _zeta_large_q(1.5, q) + c2 * _zeta_large_q(2.5, q)
            + c3 * _zeta_large_q(3.5, q) + c4 * _zeta_large_q(4.5, q))
    return total + 2.0 / SQRT_PI * tail


def _zeta_large_q(s, q):
    # Euler-Maclaurin for zeta(s, q) at large q; enough terms for q >= 400.
    invq = 1.0 / q
    val = q ** (1.0 - s) / (s - 1.0) + 0.5 * q ** -s
    val += s * q ** (-s - 1.0) / 12.0
    val -= s * (s + 1.0) * (s + 2.0) * q ** (-s - 3.0) / 720.0
    val += (s * (s + 1.0) * (s + 2.0) * (s + 3.0) * (s + 4.0)
            * q ** (-s - 5.0) / 30240.0)
    return val


def pole_grid(eta, x_min):
    """All poles x = -(j + k eta) with x >= x_min, descending, deduplicated."""
    if not x_min < 0:
        raise ValueError("x_min must be < 0")
    vals = []
    k = 0
    while k * eta <= -x_min:
        j = 0
        while j + k * eta <= -x_min:
            vals.append(-(j + k * eta))
            j += 1
        k += 1
    vals.sort(reverse=True)
    out = []
    for v in vals:
        if not out or out[-1] - v > 1e-12:
            out.append(v)
    return PoleGrid(poles=tuple(out))
