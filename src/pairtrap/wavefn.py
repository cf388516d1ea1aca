"""Relative-motion pair wavefunction in the anisotropic trap.

Psi(rho, z) carries a 1/(2 pi r) contact core at the origin and a Gaussian
envelope at large distance.  Three exact routes are provided: a proper-time
integral valid below the ground energy E0 = 1/2 + eta, a radial series in
Laguerre x Kummer-U products (fast for cigars), and an axial series (fast
for pancakes), one kernel summing either along a grid line (z row or rho
column) term by term under a shared tail control, on one sequence of
coefficients Gamma(a) U(a, b, w) per line (one specfun.gamma_u call per
block sized to the terms the sum takes, signed).  The integral
samples a whole grid in one numerics.integrate_separable call, psi_integral
being its 1 x 1 case; coefficients and the quasi-1d and quasi-2d profile
sums run on the same exp-sinh node table.  Grid normalization (one
trapezoid weight vector per axis on the (z, rho) array, the integrable
1/r^2 core density treated analytically) and the contact slope in closed
form complete the module.
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
    PoleSignal,
    gamma_u,
    hurwitz_zeta_half,
    is_nonpositive_integer,
    laguerre_iter,
)
from .spectral import SpectralArgument, f_eval, f_eval_many, phi

LN2 = math.log(2.0)
TWO_PI = 2.0 * math.pi
# 1/(2 pi^{3/2}), the shared series prefactor
_PREF = 0.5 / math.pi ** 1.5

ROUTES = ("integral", "radial_series", "axial_series")


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


def _psi_grid(rhos, zs, E, g):
    # Psi on the grid zs x rhos as a (z, rho) array, at scale
    # sqrt(r^2/(E0 - E)) per point: the integrand climbs like exp(-r^2/(2t))
    # and falls like exp(-(E0 - E) t).  Its exponent, the log-sinh form with
    # the linear parts collected (no large terms cancel, nothing overflows),
    # is t (E - E0) + 3/2 log 2 - log(1 - e^(-2t))/2 - log(1 - e^(-2 eta t))
    # plus the z and rho factors' -z^2 coth(t)/2 - eta rho^2 coth(eta t)/2.
    if any(rho < 0 for rho in rhos):
        raise ValueError("rho must be nonnegative")
    if 0.0 in rhos and 0.0 in zs:
        raise ValueError("Psi diverges at the origin; use contact_coefficient")
    e0, eta = ground_energy_offset(g), g.eta
    if not E < e0:
        raise ValueError("integral route needs E < E0 = %g" % e0)
    de = E - e0
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
    sit strictly below E0; the r != 0 Gaussian suppression exp(-r^2/(2t))
    tames the t^{-3/2} short-time divergence.  It is the 1 x 1 case of
    sample_grid's grid kernel, numerics.integrate_separable at the power of
    two nearest sqrt(r^2/(E0 - E)), so a grid sample equals this value.
    numerics accepts the integral at an estimate under 10 ABS_TOL = 1e-11,
    so values far below eta 1e-11/(2 pi)^{3/2} have no relative accuracy.
    """
    return float(_psi_grid((rho,), (z,), E, g)[0, 0])


# Largest coefficient block: ~10 MB of (block, 273) kernel arrays (twice if
# every row lies below a = 1/2); the cost per row is flat past ~30 rows.
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


def _series_line(route, c, others, E, g, trunc):
    # Psi along one grid line by one series: a z row (c = z, others the
    # rho's) for the radial series, a rho column (c = rho, others the z's)
    # for the axial one.  Term m is Gamma(a_m) U(a_m, b, arg) L_m^(alpha)(y),
    # the coefficient depending on c only, so the line shares one sequence
    # of them; the envelope decays like exp(-beta sqrt(m)) and the Laguerre
    # factor sets the oscillation.  x = (E0 - E)/2.
    eta = g.eta
    x = 0.5 * (ground_energy_offset(g) - E)
    if route == "radial_series":
        if any(rho < 0 for rho in others):
            raise ValueError("rho must be nonnegative")
        if c == 0.0:
            raise ValueError("radial series is conditionally convergent at "
                             "z = 0; use the integral or axial route")

        def a_of(m):
            return eta * m + x
        b, arg, alpha = 0.5, c * c, 0.0
        beta, pref = 2.0 * abs(c) * math.sqrt(eta), eta
        ys = [eta * rho * rho for rho in others]
    else:
        if c <= 0:
            raise ValueError("axial series needs rho > 0 "
                             "(U(., 1, 0) diverges)")

        def a_of(k):
            return (k + x) / eta
        b, arg, alpha = 1.0, eta * c * c, -0.5
        beta, pref = 2.0 * c, 1.0
        ys = [z * z for z in others]
    # only the finitely many coefficients below 1/2 can sit on a Gamma pole,
    # and gamma_u sees none past the last term summed
    for a in itertools.takewhile(lambda a: a < 0.5,
                                 map(a_of, itertools.count())):
        if is_nonpositive_integer(a):
            raise PoleSignal("series coefficient Gamma(%.17g) at a pole "
                             "(threshold energy)" % a, a)
    coef = _Coefficients(a_of, b, arg, trunc, beta,
                         min((y for y in ys if y > 0.0), default=0.0))
    return [pref * math.exp(-0.5 * (arg + y)) * _PREF
            * _sum_terms(map(operator.mul, coef, laguerre_iter(y, alpha)),
                         trunc, route.replace("_", " "), y, beta)
            for y in ys]


def psi_series_radial(rho, z, E, g, trunc=SeriesTruncation()):
    """Laguerre expansion over radial modes; converges fastest for eta >= 1.

    Term m carries Gamma(a_m) U(a_m, 1/2, z^2) L_m(eta rho^2) with
    a_m = eta m - (E - E0)/2.  On the z = 0 line the terms decay only like
    m^{-3/4} with oscillating sign, so that line is rejected.  The
    coefficients come in blocks from one gamma_u call each, the first sized
    to the terms the sum takes; it adds them under the tail control.
    """
    return _series_line("radial_series", z, (rho,), E, g, trunc)[0]


def psi_series_axial(rho, z, E, g, trunc=SeriesTruncation()):
    """Axial-mode expansion; converges fastest for eta < 1.

    Term k carries L_k^{(-1/2)}(z^2) Gamma(b_k) U(b_k, 1, eta rho^2) with
    b_k = (k - (E - E0)/2)/eta.  U(., 1, .) is logarithmic at zero argument,
    so the rho = 0 axis is rejected for this route.  Coefficients and sum
    as for psi_series_radial.
    """
    return _series_line("axial_series", rho, (z,), E, g, trunc)[0]


def psi(rho, z, E, g, route=None, trunc=SeriesTruncation()):
    """Evaluate Psi picking the route suited to the energy and geometry.

    Below E0 and away from the origin the integral is used; otherwise the
    series matched to the trap shape (radial for eta >= 1, axial for
    eta < 1), swapping when the point sits on the line its series rejects.
    """
    if route is None:
        if E < ground_energy_offset(g) and (rho != 0.0 or z != 0.0):
            route = "integral"
        elif g.eta >= 1.0:
            route = "radial_series" if z != 0.0 else "axial_series"
        else:
            route = "axial_series" if rho > 1e-6 else "radial_series"
    if route == "integral":
        return psi_integral(rho, z, E, g)
    if route == "radial_series":
        return psi_series_radial(rho, z, E, g, trunc)
    if route == "axial_series":
        return psi_series_axial(rho, z, E, g, trunc)
    raise ValueError("unknown route %r" % (route,))


def sample_grid(rhos, zs, E, g, route=None, trunc=SeriesTruncation()):
    """Evaluate Psi on the tensor grid rhos x zs (z outer, rho inner).

    One route is used for every point so the samples stay homogeneous; the
    default picks the integral below E0 and the geometry-matched series
    otherwise.  The integral route is one grid kernel, the separable node
    table rule with each z row's and rho column's factor computed once per
    power-of-two scale, and psi_integral its 1 x 1 case, so each sample is
    the point value; a grid holding a point outside the domain raises
    psi_integral's ValueError, and a sample under its absolute floor has
    no relative accuracy.  A series route runs the psi_series_* kernel
    once per z row (radial) or rho column (axial), the line sharing one
    coefficient sequence, so each sample is the point-wise value.
    """
    if route is None:
        if E < ground_energy_offset(g):
            route = "integral"
        else:
            route = "radial_series" if g.eta >= 1.0 else "axial_series"
    coords = tuple((rho, z) for z in zs for rho in rhos)
    if route == "integral":
        values = _psi_grid(rhos, zs, E, g).ravel().tolist()
    elif route == "radial_series":
        values = [v for z in zs
                  for v in _series_line(route, z, rhos, E, g, trunc)]
    elif route == "axial_series":
        cols = [_series_line(route, rho, zs, E, g, trunc) for rho in rhos]
        values = [v for row in zip(*cols) for v in row]
    else:
        raise ValueError("unknown route %r" % (route,))
    return ProfileSamples(coords, tuple(values), route)


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
    taken by a five-point stencil (its four F values from one f_eval_many
    call), valid away from the poles of F.
    """
    x = 0.5 * (ground_energy_offset(g) - E)
    h = 1e-4 * max(1.0, abs(x))
    vals = [f.value for f in f_eval_many([x + k * h for k in (-2, -1, 1, 2)],
                                          g.eta)]
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
