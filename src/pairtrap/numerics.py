"""Generic numerical infrastructure.

Adaptive quadrature on (0, inf) with an integrable endpoint singularity,
bracketed root-finding, and tolerance-controlled series summation.  All
routines are pure functions of their inputs and keep no mutable state, so
they are safe to call concurrently.
"""

import math
from dataclasses import dataclass

from scipy import integrate, optimize


class NumericsError(Exception):
    """Base class for failures of the routines in this module."""


class QuadratureError(NumericsError):
    """Quadrature did not reach the requested tolerance.

    Carries the best value and the achieved error estimate so callers can
    decide whether the result is still usable.
    """

    def __init__(self, message, value, est_error):
        super().__init__(message)
        self.value = value
        self.est_error = est_error


class SeriesError(NumericsError):
    """Series summation ran out of terms before the tail bound met tol."""

    def __init__(self, message, value, est_error, terms_used):
        super().__init__(message)
        self.value = value
        self.est_error = est_error
        self.terms_used = terms_used


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances and interval split for integrate_semi_infinite_with_error.

    split_point separates the singular-head treatment on (0, split_point)
    from the plain semi-infinite tail.
    """

    abs_tol: float = 1e-12
    rel_tol: float = 1e-10
    split_point: float = 1.0
    max_refinements: int = 200

    def __post_init__(self):
        if self.abs_tol < 0 or self.rel_tol < 0 or self.abs_tol + self.rel_tol == 0:
            raise ValueError("need abs_tol + rel_tol > 0")
        if not (self.split_point > 0 and math.isfinite(self.split_point)):
            raise ValueError("split_point must be finite and positive")
        if self.max_refinements < 1:
            raise ValueError("max_refinements must be at least 1")


@dataclass(frozen=True)
class RootBracket:
    """An interval with a guaranteed sign change of the target function."""

    lo: float
    hi: float
    f_lo_sign: int
    f_hi_sign: int

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValueError("bracket needs lo < hi")
        if self.f_lo_sign * self.f_hi_sign >= 0:
            raise ValueError("bracket endpoints must have opposite signs")


def integrate_semi_infinite_with_error(f, spec=QuadratureSpec()):
    """Integrate f over (0, inf); return (value, error_estimate).

    Tolerates an endpoint blow-up up to t^(-1/2): the head (0, split_point)
    is computed after the substitution t = u**2, which turns a t^(-1/2)
    divergence into a bounded integrand; the tail is handled by adaptive
    quadrature on the semi-infinite interval.  Raises QuadratureError
    (carrying the achieved estimate) if the combined error estimate exceeds
    the requested tolerances.
    """
    s = spec.split_point

    def head(u):
        return 2.0 * u * f(u * u)

    head_val, head_err = integrate.quad(
        head, 0.0, math.sqrt(s),
        epsabs=spec.abs_tol, epsrel=spec.rel_tol, limit=spec.max_refinements,
    )
    tail_val, tail_err = integrate.quad(
        f, s, math.inf,
        epsabs=spec.abs_tol, epsrel=spec.rel_tol, limit=spec.max_refinements,
    )
    value = head_val + tail_val
    est = head_err + tail_err
    if est > 10.0 * (spec.abs_tol + spec.rel_tol * abs(value)) and est > 1e-9 * abs(value):
        raise QuadratureError(
            "quadrature error estimate %.3e exceeds tolerance" % est, value, est)
    return value, est


def find_root_bracketed(f, bracket, tol=1e-10):
    """Find the root of f inside a sign-change bracket.

    Brent-style bisection/interpolation hybrid; iterates never leave
    [bracket.lo, bracket.hi], so poles at or beyond the bracket edges are
    never evaluated.  Falls back to plain bisection if the hybrid fails to
    converge.  The bracket width at return is <= tol (usually far smaller:
    the solver polishes to near machine precision).
    """
    lo, hi = bracket.lo, bracket.hi
    xtol = min(tol, 1e-15 + 1e-12 * (abs(lo) + abs(hi)))
    try:
        return optimize.brentq(f, lo, hi, xtol=xtol, rtol=4.0 * 2.0 ** -52)
    except RuntimeError:
        pass
    # Bisection fallback: robust whenever the sign change is genuine.
    flo = f(lo)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if hi - lo <= xtol or mid in (lo, hi):
            return mid
        fmid = f(mid)
        if fmid == 0.0:
            return mid
        if (flo < 0) == (fmid < 0):
            lo, flo = mid, fmid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def bracket_from_signs(f, lo, hi):
    """Build a RootBracket by evaluating f at both ends; reject if no sign change."""
    flo, fhi = f(lo), f(hi)
    slo = int(math.copysign(1.0, flo)) if flo != 0 else 0
    shi = int(math.copysign(1.0, fhi)) if fhi != 0 else 0
    if slo * shi >= 0:
        raise NumericsError("no sign change on [%g, %g]" % (lo, hi))
    return RootBracket(lo, hi, slo, shi)


def sum_series_with_error(term, tol=1e-12, max_terms=100000):
    """Sum term(k) for k = 0, 1, ... with an estimated tail bound <= tol.

    Returns (value, est_error, terms_used).  The tail estimate handles both
    geometric decay (bound |t|*r/(1-r)) and algebraic decay ~ k^(-p)
    (integral-test bound |t|*k/(p-1), with p fitted from consecutive
    ratios).  Terms must eventually decrease in magnitude.  Raises
    SeriesError when max_terms is exhausted before the bound meets tol,
    carrying the partial sum and the achieved estimate.
    """
    total = 0.0
    prev = None
    est = math.inf
    for k in range(max_terms):
        t = term(k)
        total += t
        at = abs(t)
        if at == 0.0:
            # A lone zero term may be structural (e.g. a vanishing
            # coefficient); two in a row means the series has ended.
            if prev == 0.0:
                return total, 0.0, k + 1
            prev = 0.0
            continue
        if prev is not None and prev > 0.0 and k >= 4:
            r = at / prev
            if r < 0.9:
                est = at * r / (1.0 - r)
            elif r < 1.0:
                # Algebraic decay: fit t ~ k^(-p) from the last ratio.
                p = math.log(prev / at) / math.log((k + 1.0) / k)
                if p > 1.05:
                    est = at * (k + 1.0) / (p - 1.0)
                else:
                    est = math.inf
            else:
                est = math.inf
            if est <= tol:
                return total, est, k + 1
        prev = at
    raise SeriesError("series did not converge in %d terms" % max_terms,
                      total, est, max_terms)

