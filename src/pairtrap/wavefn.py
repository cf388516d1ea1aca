"""Relative-motion pair wavefunction in the anisotropic trap.

Psi(rho, z) carries a 1/(2 pi r) contact core at the origin and a Gaussian
envelope at large distance.  Every Psi value, a point (psi and its route
functions) or a grid (sample_grid), comes from one entry, _grid: it picks
the route, by energy unless one of ROUTES is named, rejects rho < 0 and the
origin, checks the energy against the noninteracting thresholds once per
grid, and runs that route's kernel.  Two exact routes cover every energy
off the thresholds: a proper-time integral below the ground energy
E0 = 1/2 + eta, and above it the peeled integral, the geometry's mode
series (Laguerre x Gamma(a) U(a, b, w) products) summed under the Laplace
form of its coefficients by the Laguerre generating function, with the few
modes below a = 1/2 peeled off as a head recurred down from Gamma U seeds
(gamma_u_down) integrated in the same pass.  Either integral samples a
whole grid in one numerics.integrate_separable call per route.  gamma_u,
the signed Gamma U kernel, integrates the same Laplace form, and one rule,
the turn point t with w t (1 + t) = c, sets the scale of both integrals
and the peel each point takes.  The radial series (fast for cigars) and
the axial series (fast for pancakes) stay as reference routes: one kernel
sums either along a grid line (z row or rho column) term by term under a
shared tail control, on one sequence of coefficients per line (one gamma_u
call per block sized to the terms the sum takes, signed).  The quasi-1d and
quasi-2d profile sums run on the same exp-sinh node table.
Grid normalization (one trapezoid weight vector per axis on the (z, rho)
array, the integrable 1/r^2 core density treated analytically) and the
contact slope in closed form complete the module.
All lengths are in axial oscillator units; energies include the
3/2-equivalent zero point through E0.
"""

import itertools
import math
import operator
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .numerics import (NumericsError, SeriesError, integrate,
                       integrate_separable)
from .solver import ground_energy_offset
from .specfun import (
    POLE_TOL,
    SQRT_PI,
    PoleSignal,
    hurwitz_zeta_half,
    is_nonpositive_integer,
    laguerre_iter,
    rising_half,
)
from .spectral import SpectralArgument, f_eval, f_values, phi

LN2 = math.log(2.0)
TWO_PI = 2.0 * math.pi
# 1/(2 pi^{3/2}), the shared series prefactor
_PREF = 0.5 / math.pi ** 1.5

ROUTES = ("integral", "peeled", "radial_series", "axial_series")


@dataclass(frozen=True)
class ProfileSamples:
    """Wavefunction values tagged with their coordinates and evaluation route."""

    coordinates: tuple
    values: tuple
    method: str
    normalized: bool = False
    norm_constant: float = None

    def __post_init__(self):
        if len(self.coordinates) != len(self.values):
            raise ValueError("coordinates and values must have the same length")
        if self.method not in ROUTES:
            raise ValueError("unknown method %r" % (self.method,))
        if self.normalized and not (self.norm_constant is not None
                                    and self.norm_constant > 0):
            raise ValueError("normalized samples need norm_constant > 0")


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


def _psi_grid(rhos, zs, de, eta):
    # Psi below E0, de = E - E0 < 0, on the grid zs x rhos as a (z, rho)
    # array, at scale sqrt(r^2/(E0 - E)) per point: the integrand climbs
    # like exp(-r^2/(2t)) and falls like exp(-(E0 - E) t).  Its exponent,
    # the log-sinh form with the linear parts collected (no large terms
    # cancel, nothing overflows), is t (E - E0) + 3/2 log 2
    # - log(1 - e^(-2t))/2 - log(1 - e^(-2 eta t)) plus the z and rho
    # factors' -z^2 coth(t)/2 - eta rho^2 coth(eta t)/2.
    rhos, zs = np.asarray(rhos, dtype=float), np.asarray(zs, dtype=float)

    def u(a, t):
        # the z factor, with the terms common to the grid in its exponent
        return np.exp(t * de + 1.5 * LN2 - 0.5 * np.log(-np.expm1(-2.0 * t))
                      - np.log(-np.expm1(-2.0 * eta * t)) - a / np.tanh(t))

    value, _ = integrate_separable(
        u, lambda b, t: np.exp(-b / np.tanh(eta * t)),
        0.5 * zs * zs, (0.5 * eta) * rhos * rhos,
        np.sqrt(((rhos * rhos) + (zs * zs)[:, None]) / -de))
    return (eta / TWO_PI ** 1.5) * value


def psi_integral(rho, z, E, g):
    """Proper-time integral for Psi at energies below E0.

    The integrand decays like exp(t (E - E0)) at large t, so the energy must
    sit strictly below E0 (above it, psi_peeled takes the growing modes off
    the same integral); the r != 0 Gaussian suppression exp(-r^2/(2t))
    tames the t^{-3/2} short-time divergence.  It is the 1 x 1 case of
    sample_grid's grid kernel, numerics.integrate_separable at the power of
    two nearest sqrt(r^2/(E0 - E)), so a grid sample equals this value.
    numerics accepts the integral at an estimate under 10 ABS_TOL = 1e-11,
    so values far below eta 1e-11/(2 pi)^{3/2} have no relative accuracy.
    """
    return _point(rho, z, E, g, "integral")


def _check_threshold(x, eta):
    # an energy on a noninteracting threshold, x = (E0 - E)/2 within
    # POLE_TOL of a pole -(j + k eta) of F, puts a mode coefficient
    # Gamma(a_m) of either series and of the peeled head on a Gamma pole;
    # the poles are walked along the coarser of the two ladders
    step, unit = (eta, 1.0) if eta >= 1.0 else (1.0, eta)
    n = 0
    while n * step <= POLE_TOL - x:
        off = -x - n * step
        off -= round(off / unit) * unit
        if abs(off) <= POLE_TOL:
            raise PoleSignal("E on a noninteracting threshold: x = %.17g "
                             "is a pole of F" % x, x + off)
        n += 1


# Laguerre terms that stand for the peeled bracket where s is small
_BRACKET_TERMS = 60


def _bracket(ln_s, y, alpha, lag, n0):
    # [G(s, y) - sum_{m<n0} s^m L_m(y)]/s^n0 for the generating function
    # G = (1 - s)^(-alpha-1) exp(-y s/(1 - s)) of L_m = L_m^(alpha)(y)
    # (DLMF 18.12.13), lag the rows L_m(y) from m = 0.  With n0 = 0 it is
    # G, with n0 = 1 expm1(log G)/s, log(1 - s) taken by log1p below
    # s = 1/2; otherwise the Laguerre tail sum_{m>=n0} s^(m-n0) L_m
    # (_BRACKET_TERMS terms) where s < min(1/2, 1/y), and the closed form
    # less the head elsewhere; at y = 0 with alpha = 0 it is 1/(1 - s).
    s = np.exp(ln_s)
    oms = -np.expm1(ln_s)
    ln_g = -y * (s / oms) - (alpha + 1.0) * np.where(
        s < 0.5, np.log1p(np.maximum(-s, -0.5)), np.log(oms))
    if n0 < 2:
        return np.expm1(ln_g) / s if n0 else np.exp(ln_g)
    s = np.broadcast_to(s, ln_g.shape)
    out = np.zeros(ln_g.shape)
    for row in lag[:n0 - 1:-1]:
        out *= s
        out += row
    far = (s >= 0.5) | (s * y >= 1.0)
    if far.any():
        sf = s[far]
        head = np.zeros(len(sf))
        for row in lag[n0 - 1::-1]:
            head *= sf
            head += np.broadcast_to(row, s.shape)[far]
        out[far] = (np.exp(ln_g[far]) - head) / sf ** n0
    if alpha == 0.0:
        out = np.where(y == 0.0, 1.0 / oms, out)
    return out


def _turn(w, c):
    # the t with w t (1 + t) = c, free of cancellation: the scale of the
    # Laplace forms, where p^(c - 1/2), p = t/(1 + t), stops rising and
    # e^(-w t) takes over
    return 2.0 * c / (w + np.sqrt(w * (w + 4.0 * c)))


_SUPPORTED_B = (0.5, 1.0, 1.5)


def _check_b(b):
    for bb in _SUPPORTED_B:
        if abs(b - bb) < 1e-12:
            return bb
    raise ValueError("Gamma U kernel supports b in {1/2, 1, 3/2} only, "
                     "got %g" % b)


def gamma_u_down(cur, up, a, steps, b, w):
    """V(a - n) for V = Gamma U at (., b, w), from the seeds cur = V(a) and
    up = V(a + 1), by DLMF 13.3.7
      V(a - 1) = [(w + 2a - b) V(a) - (a - b + 1) V(a + 1)]/(a - 1)
    run downward, the stable direction (U is the minimal solution as a
    grows).  The arguments broadcast as numpy arrays; n = steps elementwise,
    the elements stepping together, each stopping after its own n.
    """
    steps = np.asarray(steps)
    for i in range(int(steps.max(initial=0.0))):
        go = steps > i
        down = ((w + 2.0 * a - b) * cur - (a - b + 1.0) * up) / (a - 1.0)
        if go.all():
            up, cur, a = cur, down, a - 1.0
        else:
            up = np.where(go, cur, up)
            cur = np.where(go, down, cur)
            a = a - go
    return cur


def gamma_u(a, b, w):
    """Signed Gamma(a) U(a, b, w) for w > 0 and b in {1/2, 1, 3/2}.

    a may be a float or a 1-D array (float in, float out); an a within
    POLE_TOL of a nonpositive integer raises PoleSignal.  A row a >= 1/2 is
    DLMF 13.4.4's Laplace form int e^(-w t) t^-1 (1 + t)^(b-1) p^a dt,
    p = t/(1 + t), integrated at its turn point t (w t (1 + t) = a + 1/2,
    the peel's scale rule); a row below 1/2 comes from the rows a + n,
    a + n + 1 (n the least with a + n >= 1/2) by gamma_u_down.  All rows
    are points of one numerics.integrate_separable call, so a batch gives
    each row's scalar value bit for bit.  A value is good to 1e-13
    relative while Gamma U > 1e-120; below that, only to the node table's
    absolute accuracy.
    """
    b = _check_b(b)
    if not w > 0:
        raise ValueError("gamma_u needs w > 0, got %g" % w)
    a_in = np.asarray(a, dtype=float)
    av = a_in.reshape(-1)
    low = np.flatnonzero(av < 0.5)
    for ai in av[low]:
        if is_nonpositive_integer(ai):
            raise PoleSignal("Gamma(a) U(a, b, w) pole at a = %.17g" % ai, ai)
    steps = np.ceil(0.5 - av[low])
    ac = av[low] + steps
    rows = np.concatenate((av, ac + 1.0))
    rows[low] = ac

    def u(w, t):
        return np.exp(-w * t) * (1.0 + t) ** (b - 1.0) / t

    def v(a, t):
        return np.exp(np.maximum(a * -np.log1p(1.0 / t), -700.0))

    value, _ = integrate_separable(u, v, np.array([w]), rows,
                                   _turn(w, rows + 0.5)[None, :])
    out, up = value[0, :len(av)], value[0, len(av):]
    out[low] = gamma_u_down(out[low], up, ac, steps, b, w)
    return float(out[0]) if a_in.ndim == 0 else out


def _head_modes(a0, step):
    # n0, the number of modes a0 + m step below 1/2
    n0 = 0
    while a0 + n0 * step < 0.5:
        n0 += 1
    return n0


# The table's last node sits near 2e11 times the scale, so a scale of at
# least _REACH/zeta leaves e^(-zeta t) under e^-40 there
_REACH = 2e-10


def _peeled_sum(zeta, y, a0, step, b, alpha):
    # S[i, j] = sum_m Gamma(a_m) U(a_m, b, zeta_i) L_m^(alpha)(y_j) with
    # a_m = a0 + m step.  DLMF 13.4.4 writes each coefficient as
    # int e^(-zeta t) t^-1 (1 + t)^(b-1) p^a_m dt, p = t/(1 + t), so with
    # s = p^step the modes m >= n0 sum under one integral, p^a_n0 times
    # the _bracket.  The n0 head modes, a_m < 1/2, come from the seeds
    # Gamma(a) U(a, b, zeta_i) at a = a_m + n, a_m + n + 1 (n the least
    # with a_m + n >= 1/2), integrated in the same pass as the columns
    # before the y's and recurred down by gamma_u_down.  A point sits at
    # the scale t with zeta_eff t (1 + t) = a_n0 + 1/2, zeta_eff =
    # zeta + y/step (y = 0 for a seed), where the integrand turns: p^a_n0
    # rises below it and e^(-zeta_eff t) falls above it; and at least at
    # _REACH/zeta, as the bracket tends to -sum_{m<n0} L_m(y) where G dies
    # and leaves e^(-zeta t) alone to cut the integrand off.
    # A row zeta = 0 (b = 1/2 only) has no such cut-off: there the head's
    # t^(-3/2) tail, Lambda = sum_{m<n0} L_m(y) times p^a_n0, is added to
    # the integrand and its integral Lambda sqrt(pi) Gamma(a_n0)/
    # Gamma(a_n0 + 1/2) taken off again, leaving a t^(-5/2) decay, and
    # the head takes Gamma(a) U(a, 1/2, 0) = sqrt(pi) Gamma(a)/Gamma(a + 1/2).
    n0 = _head_modes(a0, step)
    a_n = a0 + n0 * step
    am = [a0 + m * step for m in range(n0)]
    down = [math.ceil(0.5 - a) for a in am]
    lag = np.empty((n0 + _BRACKET_TERMS if n0 > 1 else n0, len(y)))
    for m, row in zip(range(len(lag)), laguerre_iter(y, alpha)):
        lag[m] = row
    c = a_n + 0.5

    def part(zeta, seeds, shift):
        # the tail integrals on the rows zeta, then the seeds' beside them
        ns = len(seeds)

        def u(z, t):
            return np.exp(-z * t) / (t if b == 1.0 else t * np.sqrt(1.0 + t))

        def v(cols, t):
            # the touched columns in ascending order: seeds, then y's
            cols = cols[:, 0]
            ln_p = -np.log1p(1.0 / t)
            k = np.searchsorted(cols, ns)
            j = cols[k:] - ns
            out = np.empty((len(cols), len(t)))
            out[k:] = _bracket(np.maximum(step * ln_p, -700.0), y[j, None],
                               alpha, lag[:, j, None], n0)
            if shift is not None:
                out[k:] += shift[j, None]
            out[k:] *= np.exp(np.maximum(a_n * ln_p, -700.0))
            if k:
                out[:k] = np.exp(np.maximum(seeds[cols[:k], None] * ln_p,
                                            -700.0))
            return out

        zeff = np.empty((len(zeta), ns + len(y)))
        zeff[:, :ns] = zeta[:, None]
        zeff[:, ns:] = zeta[:, None] + y / step
        scale = _turn(zeff, c)
        if shift is None:  # rows zeta > 0, cut off by e^(-zeta t)
            np.maximum(scale, _REACH / zeta[:, None], out=scale)
        value, _ = integrate_separable(u, v, zeta, np.arange(zeff.shape[1]),
                                       scale)
        return value[:, ns:], value[:, :ns]

    if zeta.all():
        seeds = np.array([a + n for a, n in zip(am, down)]
                         + [a + n + 1.0 for a, n in zip(am, down)])
        out, sv = part(zeta, seeds, None)
        for m in range(n0):
            head = gamma_u_down(sv[:, m], sv[:, n0 + m], seeds[m], down[m],
                                b, zeta)
            out += head[:, None] * lag[m]
        return out
    out = np.empty((len(zeta), len(y)))
    live = zeta > 0.0
    if live.any():
        out[live] = _peeled_sum(zeta[live], y, a0, step, b, alpha)
    lam = lag[:n0].sum(axis=0)
    tail, _ = part(zeta[~live], np.zeros(0), lam)
    head = [SQRT_PI / r for r in rising_half(am + [a_n], 0.5)[0]]
    tail -= head[n0] * lam
    for m in range(n0):
        tail += head[m] * lag[m]
    out[~live] = tail
    return out


def _psi_peeled_grid(rhos, zs, x, eta):
    # Psi at x = (E0 - E)/2 on the grid zs x rhos as a (z, rho) array by
    # the peeled integral: the radial peel (zeta = z^2, y = eta rho^2) for
    # eta >= 1 and on the rho = 0 column, where y = 0 and the axial peel's
    # U(., 1, 0) diverges; the axial peel (zeta = eta rho^2, y = z^2) for
    # the other columns.  e^(-zeta t') cuts a peel off 1/(zeta t) scales
    # out (t its _turn scale), too far to settle where zeta t < 1e-6: a
    # point off the rho = 0 and z = 0 lines, whose own peel is the radial
    # one for eta >= 1 and the axial one below, takes the other peel there
    # if that one's cut-off zeta t is 1e3 times larger or more.  Each peel
    # sums its zeta lines in one call per set of y's they take; a point's
    # value does not depend on the others.
    rhos, zs = np.asarray(rhos, dtype=float), np.asarray(zs, dtype=float)
    zz, rr = zs * zs, eta * rhos * rhos
    radial_args = (zz, rr, x, eta, 0.5, 0.0)
    axial_args = (rr, zz, x / eta, 1.0 / eta, 1.0, -0.5)
    cuts = [zeta * _turn(zeta + y / step,
                         a0 + _head_modes(a0, step) * step + 0.5)
            for zeta, y, a0, step in ((zz[:, None], rr, x, eta),
                                      (rr, zz[:, None], x / eta, 1.0 / eta))]
    own, other = cuts if eta >= 1.0 else cuts[::-1]  # off the lines
    radial = ((eta >= 1.0) | (rhos == 0.0)) != (
        (zs != 0.0)[:, None] & (rhos != 0.0) & (own < 1e-6)
        & (other >= 1e3 * own))
    out = np.empty(radial.shape)
    for lines, view, args, pref in ((radial, out, radial_args, eta),
                                    (~radial.T, out.T, axial_args, 1.0)):
        zeta, y = args[:2]
        groups = {}
        for i, line in enumerate(lines.tolist()):
            if True in line:
                groups.setdefault(tuple(line), []).append(i)
        for line, rows in groups.items():
            if len(rows) == len(zeta) and all(line):  # the whole grid
                view[:] = pref * _peeled_sum(zeta, y, *args[2:])
            else:
                cols = np.flatnonzero(line)
                view[np.ix_(rows, cols)] = pref * _peeled_sum(
                    zeta[rows], y[cols], *args[2:])
    return _PREF * np.exp(-0.5 * (zz[:, None] + rr)) * out


def psi_peeled(rho, z, E, g):
    """Psi at any energy off the noninteracting thresholds as one peeled
    proper-time integral; the default route above E0.

    The geometry's mode series (radial for eta >= 1, axial below, and
    radial on the rho = 0 axis) is summed under DLMF 13.4.4's Laplace form
    of its coefficients Gamma(a_m) U(a_m, b, zeta): the modes with
    a_m >= 1/2 by the Laguerre generating function, as one integral on the
    exp-sinh node table, and the few below 1/2 from Gamma U seeds
    integrated in the same pass and recurred down (gamma_u_down).
    Both series lines, z = 0 and rho = 0, are in its domain; the origin
    raises ValueError, and E on a threshold (x = (E0 - E)/2 a pole of F)
    raises PoleSignal.  It is the 1 x 1 case of sample_grid's peeled grid,
    so a grid sample equals this value.  Like psi_integral it carries no
    relative accuracy far below the quadrature's absolute floor.  Where
    the peel's cut-off e^(-zeta t) lies too far out on the node table to
    settle, close to but off the rho = 0 axis or the z = 0 plane, the
    point takes the other peel; within a few 1e-6 of the origin neither
    peel settles, and the point raises QuadratureError.
    """
    return _point(rho, z, E, g, "peeled")


# Largest coefficient block; the cost per row is flat past ~30 rows.
# Memory is bounded by integrate_separable's blocks of 1,024 points.
_MAX_BLOCK = 1024


class _Coefficients:
    """Gamma(a_m) U(a_m, b, w) for m = 0, 1, ..., max_terms - 1, a_m given
    by a_of(m) on an index array, yielded in order, computed on first use in
    blocks (one gamma_u call each) and kept, so every point of a grid line
    shares them.  A block takes the total to at least first, 1.5 times as
    many and 16 more (at most _MAX_BLOCK more); first is where _sum_terms
    stops if term m is exp(-beta sqrt(m)) of the total, at the widest window
    (osc_x the line's least positive Laguerre argument): the least n with
    exp(-beta sqrt(n - win)) 2 sqrt(n)/beta <= tail_tol, by fixed-point
    steps from below."""

    def __init__(self, a_of, b, w, trunc, beta, osc_x):
        self._a_of, self._b, self._w = a_of, b, w
        self._max_terms = trunc.max_terms
        self._blocks = []
        self._size = 0
        n, last = 1.0, 0.0
        while n - last >= 1.0:
            head = math.log(2.0 * math.sqrt(n) / beta / trunc.tail_tol)
            last, n = n, min((max(head, 0.0) / beta) ** 2
                             + _window(n - 1.0, osc_x), trunc.max_terms)
        self._first = int(n) + 1

    def __iter__(self):
        for i in itertools.count():
            if i == len(self._blocks):
                if self._size == self._max_terms:
                    return
                stop = min(max(self._first, self._size * 3 // 2,
                               self._size + 16),
                           self._size + _MAX_BLOCK, self._max_terms)
                a = self._a_of(np.arange(self._size, stop))
                self._blocks.append(gamma_u(a, self._b, self._w).tolist())
                self._size = stop
            yield from self._blocks[i]


def _window(m, osc_x):
    # the envelope window after term m: half a period of 2 sqrt(m osc_x)
    return (min(max(8, int(math.pi * math.sqrt((m + 1.0) / osc_x)) + 1), 1000)
            if osc_x > 0.0 else 2)


class _SuffixMax:
    """max(values[i:]) for any i, over an append-only sequence: the
    indices whose value exceeds every later one, with those values."""

    def __init__(self):
        self.index, self.value = [], []

    def push(self, i, v):
        index, value = self.index, self.value
        while value and value[-1] <= v:
            index.pop()
            value.pop()
        index.append(i)
        value.append(v)

    def since(self, i):
        return self.value[bisect_left(self.index, i)]


def _sum_terms(terms, trunc, label, osc_x, decay_beta):
    # Shared tail control over an iterable of terms.  Terms carry a Laguerre
    # factor oscillating with phase 2 sqrt(m osc_x), so single-term tests
    # alias with its nodes: the envelope is taken over a window of at least
    # half a period.  The envelope decays like exp(-decay_beta sqrt(m)),
    # giving the tail bound env * 2 sqrt(m)/decay_beta.  A window-to-window
    # envelope that stops falling means the partial sums have stalled
    # (divergent regime).  Both window maxima come from suffix maxima: env
    # over all terms so far, older over the terms up to the window's start,
    # fed as that start advances (win grows by at most 1 per term once
    # m + 1 >= 2 win, as half a period then grows by under 1/4).
    total = 0.0
    hist = []
    recent, before = _SuffixMax(), _SuffixMax()
    fed = 0
    for m, t in zip(range(trunc.max_terms), terms):
        total += t
        hist.append(abs(t))
        recent.push(m, hist[-1])
        win = _window(m, osc_x)
        if m + 1 >= win:
            env = recent.since(m + 1 - win)
            if m + 1 >= 2 * win:
                while fed < m + 1 - win:
                    before.push(fed, hist[fed])
                    fed += 1
                older = before.since(m + 1 - 2 * win)
                if older > 0.0 and env >= 0.97 * older:
                    raise SeriesError(
                        "%s terms are not decaying after %d terms"
                        % (label, m + 1), total, env, m + 1)
            tail = env * (2.0 * math.sqrt(m + 1.0) / decay_beta
                          if decay_beta > 0.0 else 1.0)
            if tail <= trunc.tail_tol * abs(total):
                return total
    raise SeriesError("%s did not converge in %d terms" % (label, trunc.max_terms),
                      total, abs(hist[-1]), trunc.max_terms)


def _series_line(route, c, others, x, eta, trunc):
    # Psi along one grid line by one series, at x = (E0 - E)/2: a z row
    # (c = z, others the rho's) for the radial series, a rho column (c =
    # rho, others the z's) for the axial one.  Term m is Gamma(a_m)
    # U(a_m, b, arg) L_m^(alpha)(y), the coefficient depending on c only,
    # so the line shares one sequence of them; the envelope decays like
    # exp(-beta sqrt(m)) and the Laguerre factor sets the oscillation.
    if route == "radial_series":
        if c == 0.0:
            raise ValueError("radial series is conditionally convergent at "
                             "z = 0; use the integral or axial route")

        def a_of(m):
            return eta * m + x
        b, arg, alpha = 0.5, c * c, 0.0
        beta, pref = 2.0 * abs(c) * math.sqrt(eta), eta
        ys = [eta * rho * rho for rho in others]
    else:
        if c == 0.0:
            raise ValueError("axial series needs rho > 0 "
                             "(U(., 1, 0) diverges)")

        def a_of(k):
            return (k + x) / eta
        b, arg, alpha = 1.0, eta * c * c, -0.5
        beta, pref = 2.0 * c, 1.0
        ys = [z * z for z in others]
    coef = _Coefficients(a_of, b, arg, trunc, beta,
                         min((y for y in ys if y > 0.0), default=0.0))
    return [pref * math.exp(-0.5 * (arg + y)) * _PREF
            * _sum_terms(map(operator.mul, coef, laguerre_iter(y, alpha)),
                         trunc, route.replace("_", " "), y, beta)
            for y in ys]


def psi_series_radial(rho, z, E, g, trunc=SeriesTruncation()):
    """Laguerre expansion over radial modes; converges fastest for eta >= 1.
    A reference route: psi_peeled sums the same series in closed form.

    Term m carries Gamma(a_m) U(a_m, 1/2, z^2) L_m(eta rho^2) with
    a_m = eta m - (E - E0)/2.  On the z = 0 line the terms decay only like
    m^{-3/4} with oscillating sign, so that line is rejected.  The
    coefficients come in blocks from one gamma_u call each, the first sized
    to the terms the sum takes; it adds them under the tail control.
    """
    return _point(rho, z, E, g, "radial_series", trunc)


def psi_series_axial(rho, z, E, g, trunc=SeriesTruncation()):
    """Axial-mode expansion; converges fastest for eta < 1.
    A reference route, as psi_series_radial.

    Term k carries L_k^{(-1/2)}(z^2) Gamma(b_k) U(b_k, 1, eta rho^2) with
    b_k = (k - (E - E0)/2)/eta.  U(., 1, .) is logarithmic at zero argument,
    so the rho = 0 axis is rejected for this route.  Coefficients and sum
    as for psi_series_radial.
    """
    return _point(rho, z, E, g, "axial_series", trunc)


def _grid(rhos, zs, E, g, route, trunc=SeriesTruncation()):
    # (route, Psi on the grid zs x rhos as a (z, rho) array), the one entry
    # of every Psi value: the route by energy when route is None, else one
    # of ROUTES; rho < 0 and the origin rejected; the integral's E < E0, or
    # for every other route E off the thresholds, checked once per grid;
    # then the route's kernel, the series rejecting only their own line
    e0, eta = ground_energy_offset(g), g.eta
    if route is None:
        route = "integral" if E < e0 else "peeled"
    elif route not in ROUTES:
        raise ValueError("unknown route %r" % (route,))
    if any(rho < 0 for rho in rhos):
        raise ValueError("rho must be nonnegative")
    if 0.0 in rhos and 0.0 in zs:
        raise ValueError("Psi diverges at the origin; use contact_coefficient")
    if route == "integral":
        if not E < e0:
            raise ValueError("integral route needs E < E0 = %g" % e0)
        return route, _psi_grid(rhos, zs, E - e0, eta)
    x = 0.5 * (e0 - E)
    _check_threshold(x, eta)
    if route == "peeled":
        return route, _psi_peeled_grid(rhos, zs, x, eta)
    if route == "radial_series":
        lines = [_series_line(route, z, rhos, x, eta, trunc) for z in zs]
        return route, np.array(lines).reshape(len(zs), len(rhos))
    lines = [_series_line(route, rho, zs, x, eta, trunc) for rho in rhos]
    return route, np.array(lines).reshape(len(rhos), len(zs)).T


def _point(rho, z, E, g, route, trunc=SeriesTruncation()):
    return float(_grid((rho,), (z,), E, g, route, trunc)[1][0, 0])


def psi(rho, z, E, g, route=None, trunc=SeriesTruncation()):
    """Evaluate Psi picking the route suited to the energy.

    Below E0 the proper-time integral (psi_integral), otherwise the peeled
    integral (psi_peeled), which holds on the z = 0 and rho = 0 lines too.
    route names one of ROUTES instead; trunc applies to the series routes
    only, which stay as reference routes.  Each route is the 1 x 1 case of
    sample_grid, so a point and a grid holding it raise the same error.
    Above E0, within a few 1e-6 of the origin (rho and |z| both that
    small) neither peel's integral settles, and the point raises
    QuadratureError.
    """
    return _point(rho, z, E, g, route, trunc)


def sample_grid(rhos, zs, E, g, route=None, trunc=SeriesTruncation()):
    """Evaluate Psi on the tensor grid rhos x zs (z outer, rho inner).

    One route is used for every point so the samples stay homogeneous; the
    default picks the integral below E0 and the peeled integral otherwise.
    Either integral is one grid kernel, numerics.integrate_separable with
    each z row's and rho column's factor computed once per power-of-two
    scale, and psi_integral or psi_peeled its 1 x 1 case, so each sample is
    the point value; a grid holding a point outside the domain raises the
    point route's error, and a sample under the quadrature's absolute floor
    has no relative accuracy.  Above E0 a point within a few 1e-6 of the
    origin raises QuadratureError, as in psi.  A series route sums once per
    z row (radial) or rho column (axial), the line sharing one coefficient
    sequence, so each sample is the point-wise value.
    """
    route, values = _grid(rhos, zs, E, g, route, trunc)
    coords = tuple((rho, z) for z in zs for rho in rhos)
    return ProfileSamples(coords, tuple(values.ravel().tolist()), route)


# ---------------------------------------------------------------------------
# asymptotic profiles
# ---------------------------------------------------------------------------

def profile_quasi1d(axis, coordinate, E, g):
    """Tight-cigar asymptotic profile along one axis, for E < E0.

    Axial: (eta/2 pi) sum_m exp(-2|z| sqrt(q_m))/sqrt(q_m) with
    q_m = m eta + x, x = (E0 - E)/2, summed under the integral
    eta/(2 pi^{3/2}) int_0^inf s^{-1/2} e^{-x s - z^2/s}/(1 - e^{-eta s}) ds
    on the exp-sinh node table at scale |z|/sqrt(x).  Radial: the closed form
    exp(-eta rho^2/2) [1/rho + sqrt(eta) zeta(1/2, q_0)]/(2 pi).
    On-axis points are rejected; both expressions diverge there.
    """
    e0 = ground_energy_offset(g)
    if not E < e0:
        raise ValueError("asymptotic profiles need E < E0")
    x = 0.5 * (e0 - E)
    eta = g.eta
    if axis == "radial":
        rho = coordinate
        if not rho > 0:
            raise ValueError("radial profile needs rho > 0")
        zeta = hurwitz_zeta_half(x / eta)
        return math.exp(-0.5 * eta * rho * rho) * (1.0 / rho
                                                   + math.sqrt(eta) * zeta) / TWO_PI
    if axis == "axial":
        az = abs(coordinate)
        if az == 0.0:
            raise ValueError("axial profile diverges at z = 0")
        zz = az * az

        def f(s):
            return np.exp(-x * s - zz / s) / (np.sqrt(s) * -np.expm1(-eta * s))

        value, _ = integrate(f, az / math.sqrt(x))
        return eta * _PREF * value
    raise ValueError("axis must be 'axial' or 'radial'")


def profile_quasi2d(axis, coordinate, E, g):
    """Tight-pancake asymptotic profile along one axis, for E < E0.

    Radial: pi^{-3/2} sum_m [(2m)!/(2^m m!)^2] K0(2 rho sqrt(m + x)), summed
    under the integral 1/(2 pi^{3/2}) int_0^inf s^{-1} e^{-x s - rho^2/s}
    (1 - e^{-s})^{-1/2} ds on the exp-sinh node table at scale rho/sqrt(x).
    Axial: exp(-z^2/2) [1/|z| - (Phi(x) + ln x)/sqrt(pi)]/(2 pi), x = (E0-E)/2.
    On-axis points are rejected; both expressions diverge there.
    """
    e0 = ground_energy_offset(g)
    if not E < e0:
        raise ValueError("asymptotic profiles need E < E0")
    x = 0.5 * (e0 - E)
    if axis == "radial":
        rho = coordinate
        if not rho > 0:
            raise ValueError("radial profile needs rho > 0")
        rr = rho * rho

        def f(s):
            return np.exp(-x * s - rr / s) / (s * np.sqrt(-np.expm1(-s)))

        value, _ = integrate(f, rho / math.sqrt(x))
        return _PREF * value
    if axis == "axial":
        az = abs(coordinate)
        if az == 0.0:
            raise ValueError("axial profile diverges at z = 0")
        bracket = (phi(x) + math.log(x)) / math.sqrt(math.pi)
        return math.exp(-0.5 * az * az) * (1.0 / az - bracket) / TWO_PI
    raise ValueError("axis must be 'radial' or 'axial'")


# ---------------------------------------------------------------------------
# normalization and the contact core
# ---------------------------------------------------------------------------

def norm_squared_exact(E, g):
    """Squared norm of the unnormalized Psi from the spectral derivative.

    ||Psi||^2 = -F'(x)/(4 pi^{3/2}) at x = (E0 - E)/2; the derivative is
    taken by a five-point stencil (its four F values from one f_values
    call), valid away from the poles of F.
    """
    x = 0.5 * (ground_energy_offset(g) - E)
    h = 1e-4 * max(1.0, abs(x))
    vals = f_values([x + k * h for k in (-2, -1, 1, 2)], g.eta)
    deriv = (vals[0] - 8.0 * vals[1] + 8.0 * vals[2] - vals[3]) / (12.0 * h)
    n2 = -deriv / (4.0 * math.pi ** 1.5)
    if not n2 > 0:
        raise NumericsError("nonpositive norm estimate %.3e (stencil may "
                            "straddle a pole of F)" % n2)
    return n2


def _tail_rate(v_in, v_out, dx, label):
    # mass beyond a boundary where a positive density falls from v_in to
    # v_out over dx, continued at that exponential rate
    if v_out <= 0.0:
        return 0.0
    if not v_in > v_out:
        raise NumericsError(
            "%s boundary of the grid is not decaying; cannot bound the "
            "missing tail" % label)
    return v_out / (math.log(v_in / v_out) / dx)


def normalize(samples, g):
    """Rescale tensor-grid samples so 2 pi int rho drho dz |Psi|^2 = 1.

    The samples, in any order, are laid out on their (z, rho) array, and
    the norm is one trapezoid weight vector per axis applied to the density
    2 pi rho |Psi|^2.  The rho weights close the [0, rho_1) strip by the
    linear vanishing of rho |Psi|^2, and the leading Euler-Maclaurin edge
    term restores O(h^2) accuracy of the radial rule.  When the innermost
    samples of a z = 0 row show the flat r Psi signature of the 1/(2 pi r)
    contact core, the analytic core A exp(-r^2/2)/(2 pi r) is subtracted
    from the density (its full-space norm A^2/(2 sqrt pi) is added back),
    leaving a remainder the trapezoid rule handles at second order; that
    row tends to a constant, so its strip is taken whole.  The z weights
    fold a grid with z >= 0 only by parity.  The missing tail beyond the
    grid, estimated on the raw density by the same weights, must stay under
    1e-4 of the norm or the call is rejected.
    """
    coords = np.asarray(samples.coordinates, dtype=float).reshape(-1, 2)
    rhos, ri = np.unique(coords[:, 0], return_inverse=True)
    zs, zi = np.unique(coords[:, 1], return_inverse=True)
    n = len(coords)
    cell = zi * len(rhos) + ri
    if len(rhos) * len(zs) != n or not np.bincount(cell, minlength=n).all():
        raise ValueError("normalize needs a full tensor grid without repeats")
    if len(rhos) < 4 or len(zs) < 4:
        raise ValueError("normalize needs at least a 4 x 4 grid")
    if not rhos[0] > 0:
        raise ValueError("normalize needs strictly positive rho columns")
    values = np.asarray(samples.values, dtype=float)
    grid = np.empty((len(zs), len(rhos)))
    grid[zi, ri] = values

    rho1 = rhos[0]
    half = zs[0] >= 0.0
    # trapezoid weights: wr closes the [0, rho_1) strip; on a half grid the
    # first z cell extends evenly across z = 0 (flat to O(z_1^2) by parity)
    # and every weight counts the mirror row too
    wr = 0.5 * (np.diff(rhos, prepend=0.0) + np.diff(rhos, append=rhos[-1]))
    wz = 0.5 * (np.diff(zs, prepend=-zs[0] if half else zs[0])
                + np.diff(zs, append=zs[-1]))
    if half:
        wz *= 2.0
    raw = TWO_PI * rhos * grid ** 2
    edge = np.full(len(zs), rho1 / 12.0)

    # flat r Psi at the innermost z = 0 samples marks the contact core; the
    # two-point Richardson removes the linear slope from the amplitude
    amp = 0.0
    u = raw
    core = np.flatnonzero(zs == 0.0)
    if len(core):
        t1, t2 = rhos[:2] * grid[core[0], :2]
        if t1 != 0.0 and abs(t2 / t1 - 1.0) < 0.3:
            amp = TWO_PI * (2.0 * t1 - t2)
            rr = rhos * rhos + (zs * zs)[:, None]
            u = raw - amp * amp * np.exp(-rr) * rhos / (TWO_PI * rr)
            # the subtracted density tends to a finite constant on this row
            edge[core] = 0.5 * rho1

    rows = (u * wr).sum(axis=1) + edge * u[:, 0]
    n2 = (wz * rows).sum() + amp * amp / (2.0 * math.sqrt(math.pi))
    if not n2 > 0:
        raise NumericsError("nonpositive grid norm %.3e" % n2)

    # tails are bounded on the raw density, which stays positive and decaying
    raw_rows = (raw * wr).sum(axis=1)
    tail = _tail_rate(raw_rows[-2], raw_rows[-1], zs[-1] - zs[-2], "outer z")
    if half:
        tail *= 2.0
    else:
        tail += _tail_rate(raw_rows[1], raw_rows[0], zs[1] - zs[0], "inner z")
    cols_in, cols_out = (wz[:, None] * raw[:, -2:]).sum(axis=0)
    tail += _tail_rate(cols_in, cols_out, rhos[-1] - rhos[-2], "outer rho")
    if tail > 1e-4 * n2:
        raise NumericsError(
            "estimated missing tail %.3e of the norm exceeds 1e-4 "
            "(grid too small or too coarse)" % (tail / n2))

    norm = math.sqrt(n2)
    return ProfileSamples(samples.coordinates, tuple((values / norm).tolist()),
                          samples.method, normalized=True, norm_constant=norm)


def contact_coefficient(E, g):
    """Contact slope s = lim d/dr (r Psi) at the origin, for E < E0.

    Near the origin Psi = 1/(2 pi r) + s + O(r) in every direction, and the
    proper-time integral gives the constant in closed form:
    s = F(x, eta)/(2 pi^{3/2}) at x = (E0 - E)/2.  At an eigenenergy the
    eigencondition -sqrt(2 pi)/a = F turns this into the boundary condition
    s = -1/(sqrt 2 pi a).
    """
    e0 = ground_energy_offset(g)
    if not E < e0:
        raise ValueError("contact coefficient needs E < E0 = %g" % e0)
    return _PREF * f_eval(SpectralArgument(0.5 * (e0 - E), g.eta)).value


def contact_scattering_length(E, g):
    """Scattering length whose eigenstate sits at E < E0, from the contact
    slope: a = -1/(sqrt 2 pi s) with s = F(x, eta)/(2 pi^{3/2}), that is
    a = -sqrt(2 pi)/F(x, eta); infinite where s = 0 (unitarity)."""
    s = contact_coefficient(E, g)
    if s == 0.0:
        return math.inf
    return -1.0 / (math.sqrt(2.0) * math.pi * s)
