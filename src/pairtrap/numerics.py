"""Generic numerical infrastructure in plain Python floats.

The error types of the package (quadrature and series failures among them),
the series truncation the wavefunction module's series take, and one
bracketed root engine: every level of the package is one of its roots.  The
engine runs scipy's brentq steps in plain Python as one state machine per
root, so find_roots_bracketed drives n roots in lockstep with one batched
target call per step, and find_root_bracketed is its n = 1 case.  Nothing
here imports numpy; the node-table quadrature is the quadrature module.
All routines are pure functions of their inputs and keep no mutable state,
so they are safe to call concurrently.
"""

import math
from dataclasses import dataclass, field


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
class SeriesTruncation:
    """Term cap and relative tail tolerance for the series routes."""

    max_terms: int = 200
    tail_tol: float = 1e-10

    def __post_init__(self):
        if self.max_terms < 1:
            raise ValueError("max_terms must be at least 1")
        if not self.tail_tol > 0:
            raise ValueError("tail_tol must be positive")


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
