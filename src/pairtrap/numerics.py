"""Generic numerical infrastructure.

One quadrature on (0, inf), a fixed exp-sinh node table that integrates a
numpy-vectorized integrand in one pass (every proper-time integral of the
package runs on it; an array of scales integrates a batch of integrands,
each row on its own coarse or fine rule), one bracketed root engine (every
level of the package is one of its roots) and the error types of the
series the wavefunction module sums.  The engine runs scipy's brentq steps
in plain Python as one state machine per root, so find_roots_bracketed
drives n roots in lockstep with one batched target call per step, and
find_root_bracketed is its n = 1 case.  All routines are pure functions of
their inputs and keep no mutable state, so they are safe to call
concurrently.
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
    size = abs(value)
    return est > np.maximum(10.0 * (ABS_TOL + REL_TOL * size), 1e-9 * size)


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
    against the nested rule of every second node.  Where any row fails the
    tolerance ABS_TOL + REL_TOL |value|, the odd nodes of step 1/64 are
    added for every row, and each failing row takes the step-1/64 value
    with its change against the step-1/32 one as estimate; the rows that
    passed keep their step-1/32 values, so a row's result does not depend
    on the other rows of its batch.  A rounding floor is added either way.
    Returns (value, est).  Raises QuadratureError, carrying value and est,
    where a row fails the tolerance on the finer rule too.  Reductions are
    elementwise products and .sum along the last axis, never a BLAS
    product, so a value does not depend on the BLAS build.
    """
    scale = np.asarray(scale, dtype=float)
    col = scale[..., None]
    f = f_vec(col * _ES_T_EVEN)
    terms = _ES_W_EVEN * f
    value = scale * terms.sum(axis=-1)
    coarse = scale * (_ES_W_QUARTER * f[..., ::2]).sum(axis=-1)
    size = abs(terms).sum(axis=-1)
    est = abs(value - coarse) + _ES_ROUNDING * scale * size
    bad = _tolerance_exceeded(value, est)
    if np.count_nonzero(bad):
        terms = _ES_W_ODD * f_vec(col * _ES_T_ODD)
        fine = 0.5 * value + scale * terms.sum(axis=-1)
        size = 0.5 * size + abs(terms).sum(axis=-1)
        fine_est = abs(fine - value) + _ES_ROUNDING * scale * size
        value = np.where(bad, fine, value)
        est = np.where(bad, fine_est, est)
        if np.count_nonzero(_tolerance_exceeded(value, est)):
            raise QuadratureError(
                "exp-sinh error estimate %.3e exceeds tolerance"
                % np.max(est), value, est)
    if value.ndim == 0:
        return float(value), float(est)
    return value, est


# brentq's step cap; past it the loop bisects only, for up to 200 more steps
_BRENT_STEPS = 100


def _nan(x):
    return ValueError("f(%r) is NaN; no root can be found" % x)


def _brent(bracket, tol):
    # one root's Brent iteration as a generator: it yields each x it needs
    # f at, is sent f(x), and returns the root
    xpre, xcur = float(bracket.lo), float(bracket.hi)
    fpre = float((yield xpre) if bracket.f_lo is None else bracket.f_lo)
    if fpre != fpre:
        raise _nan(xpre)
    fcur = float((yield xcur) if bracket.f_hi is None else bracket.f_hi)
    if fcur != fcur:
        raise _nan(xcur)
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
        fcur = float((yield xcur))
        if fcur != fcur:
            raise _nan(xcur)
    return xcur


def find_roots_bracketed(f_many, brackets, tol=1e-10):
    """Find the root inside each of n sign-change brackets, as floats.

    Each root takes the steps of scipy's brentq one for one (Brent 1973:
    secant, inverse quadratic or bisection steps, none shorter than delta)
    at xtol = min(tol, 1e-15 + 1e-12 (|lo| + |hi|)) and rtol = 4 eps, then
    bisection steps only after _BRENT_STEPS; its arithmetic is scalar, so
    a root does not depend on the others.  The roots run in lockstep:
    every round makes one call f_many(xs, which) over the roots still
    running, where xs[k] is the point root which[k] (an index into
    brackets) needs next, and f_many returns the values there, in order.
    An end is evaluated only when its bracket carries no value for it; an
    end whose value is 0 is returned.  Ends of one sign, or a NaN value,
    raise ValueError.  A bracket given as None has no root: its entry in
    the returned list is None.
    """
    sends = [None if br is None else _brent(br, tol).send
             for br in brackets]
    roots = [None] * len(sends)
    # each round sends every running root its value (None starts it) and
    # collects the next points; a root that returns leaves the round
    which = [i for i, send in enumerate(sends) if send is not None]
    values = [None] * len(which)
    while True:
        running, xs = [], []
        for i, fx in zip(which, values):
            try:
                xs.append(sends[i](fx))
                running.append(i)
            except StopIteration as stop:
                roots[i] = stop.value
        if not running:
            return roots
        which = running
        values = f_many(xs, which)


def find_root_bracketed(f, bracket, tol=1e-10):
    """Find the root of f inside a sign-change bracket, as a float: the
    n = 1 case of find_roots_bracketed, with f called on one x."""
    return find_roots_bracketed(lambda xs, which: [f(xs[0])], [bracket],
                                tol)[0]


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
