"""Generic numerical infrastructure.

One quadrature on (0, inf), a fixed exp-sinh node table that integrates a
numpy-vectorized integrand in one pass (every proper-time integral of the
package runs on it), one bracketed root finder that takes the steps of
scipy's brentq in plain Python (every level of the package is one of its
roots), and the error types of the series the wavefunction module sums.
All routines are pure functions of their inputs and keep no mutable
state, so they are safe to call concurrently.
"""

import math
from dataclasses import dataclass, field

import numpy as np


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
    """A series ran out of terms, or stopped decaying, before its tail
    bound met the tolerance."""

    def __init__(self, message, value, est_error, terms_used):
        super().__init__(message)
        self.value = value
        self.est_error = est_error
        self.terms_used = terms_used


@dataclass(frozen=True)
class RootBracket:
    """An interval with a guaranteed sign change of the target function."""

    lo: float
    hi: float
    f_lo_sign: int
    f_hi_sign: int
    # the function values behind the signs, when known; find_root_bracketed
    # reuses them instead of evaluating the ends again
    f_lo: float = field(default=None, compare=False, repr=False)
    f_hi: float = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValueError("bracket needs lo < hi")
        if self.f_lo_sign * self.f_hi_sign >= 0:
            raise ValueError("bracket endpoints must have opposite signs")


# integrate()'s requested tolerance
ABS_TOL = 1e-12
REL_TOL = 1e-10


def _tolerance_exceeded(value, est):
    # integrate()'s acceptance test: est over 10x the requested tolerance
    # and over 1e-9 relative; elementwise on arrays
    return ((est > 10.0 * (ABS_TOL + REL_TOL * abs(value)))
            & (est > 1e-9 * abs(value)))


# Exp-sinh (double-exponential) rule on (0, inf): the trapezoid rule in u
# after t = c exp(pi/2 sinh u), on the grid u = k/64, -5 <= u <= 3.5, fixed
# at import.  The nodes reach t/c = 2e-51 at the bottom, enough for an
# integrable t^(-1/2) endpoint, and t/c = 2e11 at the top.  The grid nests
# three rules: step 1/16 (k % 4 == 0), 1/32 (k even) and 1/64 (all k).
# NODE_TABLE holds the nodes at scale 1 in k order; integrate() asks for the
# even ones first and the odd ones only for its fine pass.
_ES_U = np.arange(-320, 225) / 64.0
NODE_TABLE = np.exp(0.5 * math.pi * np.sinh(_ES_U))
NODE_TABLE.flags.writeable = False
_ES_W = 0.5 * math.pi * np.cosh(_ES_U) * NODE_TABLE / 64.0
_ES_T_EVEN, _ES_W_EVEN = NODE_TABLE[::2], 2.0 * _ES_W[::2]  # k = -320: even
_ES_W_QUARTER = 4.0 * _ES_W[::4]
_ES_T_ODD, _ES_W_ODD = NODE_TABLE[1::2], _ES_W[1::2]
# rounding floor of the estimate, relative to sum |w f|: a few ulps per
# integrand value plus log2(545) for the pairwise sum
_ES_ROUNDING = 16.0 * 2.0 ** -52


def integrate(f_vec, scale):
    """Integrate f over (0, inf) on the exp-sinh node table.

    f_vec maps a numpy array of nodes t to f(t) elementwise; the nodes are
    scale * exp(pi/2 sinh u), so scale should sit where f turns from its
    short-t to its long-t behaviour.  scale may be a float or a 1-D array;
    an array of n scales integrates n functions at once (f_vec then
    receives nodes of shape (n, m) and must keep the rows apart), and value
    and est are arrays of shape (n,).

    The rule of step 1/32 in u runs first, and its estimate is its change
    against the nested rule of every second node.  Where that fails the
    tolerance ABS_TOL + REL_TOL |value| (for any row), the odd nodes of
    step 1/64 are added and the estimate is taken against the step-1/32
    value; a rounding floor is added either way.  Returns (value, est).
    Raises QuadratureError, carrying value and est, where the finer rule
    fails the tolerance too.  Reductions are elementwise products and .sum,
    never a BLAS product, so a value does not depend on the BLAS build.
    """
    scale = np.asarray(scale, dtype=float)
    col = scale[..., None]
    f = f_vec(col * _ES_T_EVEN)
    terms = _ES_W_EVEN * f
    value = scale * terms.sum(axis=-1)
    coarse = scale * (_ES_W_QUARTER * f[..., ::2]).sum(axis=-1)
    size = abs(terms).sum(axis=-1)
    est = abs(value - coarse) + _ES_ROUNDING * scale * size
    if np.any(_tolerance_exceeded(value, est)):
        terms = _ES_W_ODD * f_vec(col * _ES_T_ODD)
        fine = 0.5 * value + scale * terms.sum(axis=-1)
        size = 0.5 * size + abs(terms).sum(axis=-1)
        value, est = fine, abs(fine - value) + _ES_ROUNDING * scale * size
        if np.any(_tolerance_exceeded(value, est)):
            raise QuadratureError(
                "exp-sinh error estimate %.3e exceeds tolerance"
                % np.max(est), value, est)
    if value.ndim == 0:
        return float(value), float(est)
    return value, est


# brentq's step cap; past it the loop bisects only, for up to 200 more steps
_BRENT_STEPS = 100


def find_root_bracketed(f, bracket, tol=1e-10):
    """Find the root of f inside a sign-change bracket, as a float.

    Takes the steps of scipy's brentq one for one (Brent 1973: secant,
    inverse quadratic or bisection steps, none shorter than delta) at xtol
    = min(tol, 1e-15 + 1e-12 (|lo| + |hi|)) and rtol = 4 eps, then
    bisection steps only after _BRENT_STEPS.  An end is evaluated only when
    the bracket carries no value for it; an end whose value is 0 is
    returned.  Ends of one sign, or a NaN value of f, raise ValueError.
    """
    def value(x, known=None):
        fx = float(f(x) if known is None else known)
        if math.isnan(fx):
            raise ValueError("f(%r) is NaN; no root can be found" % x)
        return fx

    xpre, xcur = float(bracket.lo), float(bracket.hi)
    fpre, fcur = value(xpre, bracket.f_lo), value(xcur, bracket.f_hi)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise ValueError("f(lo) and f(hi) must have different signs")
    xtol = min(tol, 1e-15 + 1e-12 * (abs(xpre) + abs(xcur)))
    for step in range(_BRENT_STEPS + 200):
        # keep the root between xcur and xblk, the smaller |f| at xcur
        if (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + 4.0 * 2.0 ** -52 * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        short = False
        if step < _BRENT_STEPS and abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = (-fcur * (fblk * dblk - fpre * dpre)
                        / (dblk * dpre * (fblk - fpre)))
            short = 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta)
        spre, scur = (scur, stry) if short else (sbis, sbis)
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = value(xcur)
    return xcur


def bracket_from_signs(f, lo, hi, f_lo=None, f_hi=None):
    """Build a RootBracket from f at both ends; reject if no sign change.

    An end value the caller already has is passed as f_lo or f_hi and not
    recomputed; the bracket keeps both values for find_root_bracketed.
    """
    flo = f(lo) if f_lo is None else f_lo
    fhi = f(hi) if f_hi is None else f_hi
    slo = int(math.copysign(1.0, flo)) if flo != 0 else 0
    shi = int(math.copysign(1.0, fhi)) if fhi != 0 else 0
    if slo * shi >= 0:
        raise NumericsError("no sign change on [%g, %g]" % (lo, hi))
    return RootBracket(lo, hi, slo, shi, flo, fhi)
