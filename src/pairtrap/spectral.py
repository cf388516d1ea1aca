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

The integral route keeps a bounded memo of the x-independent factor of its
integrand on the node table at the power-of-two scales, keyed on
(eta, scale): one F call then costs an exp(-x t) times a cached row.

f_eval_many evaluates F at many x of one eta in one kernel call per route:
the pancake and recurrence routes take their gamma ladders for every
(element, step) in one scipy poch call, summed per element in step order,
and the recurrence's terminal integrals are one node-table pass over the
stacked memo rows.  f_eval, f_recurrence_extend, f_pancake and f_integral
are the same kernels at one x, and every element of a batch is bit for
bit its scalar value, so the cost of F is flat in eta (a ladder of
thousands of steps is one poch call) and the solver can evaluate all its
level searches in one call per Brent step.
"""

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain

import numpy as np
from scipy.special import digamma, poch

from .numerics import NODE_TABLE, NumericsError, integrate
from .specfun import (
    POLE_TOL,
    PoleSignal,
    SQRT_PI,
    gamma_ratio,
    hurwitz_zeta_half,
    hyp2f1_one,
)

CLOSED_FORM_TOL = 1e-12
POLE_MERGE = 1e-12  # poles closer than this are one pole of pole_grid
# integrand rows f_integral keeps per (eta, scale): even and odd nodes
# apart, 2.2 kB each
ROW_CACHE_SIZE = 64
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


def _gamma_ladder_term(arg):
    # Gamma(arg)/Gamma(arg + 1/2), with denominator poles collapsing to 0.
    return gamma_ratio(arg, arg + 0.5)


def _ratio_rounding(arg):
    # relative rounding bound of gamma_ratio(arg, arg +- 1/2): below
    # |arg| = 1e4 poch exponentiates a difference of two log-gammas, each
    # good to an ulp or two of lgamma(arg)
    return 2.0 ** -51 * (4.0 + abs(math.lgamma(arg)))


def _check_ladder_pole(arg, x):
    # Gamma(arg) pole <=> F pole contribution; reject within POLE_TOL.  arg
    # is x plus a ladder shift, so the pole sits at x - (arg - round(arg)).
    if arg < 0.5 and abs(arg - round(arg)) < POLE_TOL and round(arg) <= 0:
        raise PoleSignal("F pole: gamma ladder argument %.17g" % arg,
                         x - (arg - round(arg)))


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
    # L(t) = -log(q(t))/2 - log(q(eta t)) on an ascending array of nodes.
    # While both t and eta t lie below the split, one series in t:
    #   L = (1/4 + eta/2) t + sum_n c_n (1/2 + eta^2n) t^2n;
    # above it, the quotient form, whose ulp error is small beside L.
    n = int(np.searchsorted(t, _LNQ_SPLIT / max(1.0, eta)))
    out = np.empty_like(t)
    head, tail = t[:n], t[n:]
    h2 = head * head
    acc = out[:n]
    acc.fill(0.0)
    for k, c in _LNQ_SERIES:
        acc += c * (0.5 + eta ** (2 * k))
        acc *= h2
    acc += (0.25 + 0.5 * eta) * head
    np.subtract(-0.5 * _log_q(tail), _log_q(eta * tail), out=out[n:])
    return out


def _integrand_row(eta, k, nodes):
    # t^(-3/2) expm1(-log(q(t))/2 - log(q(eta t))) at t = 2^k nodes; the
    # scaling by 2^k is exact, so these are the nodes integrate() hands
    # f_integral at scale 2^k, bit for bit, and each value depends on its
    # own node only
    t = math.ldexp(1.0, k) * nodes
    row = np.expm1(_excess_log(t, eta)) / (t * np.sqrt(t))
    row.flags.writeable = False
    return row


@lru_cache(maxsize=ROW_CACHE_SIZE)
def _integrand_rows(eta, k):
    # the row at the even nodes of the table, which every F call takes
    return _integrand_row(eta, k, NODE_TABLE[::2])


@lru_cache(maxsize=ROW_CACHE_SIZE)
def _integrand_odd_rows(eta, k):
    # the row at the odd nodes, which only integrate()'s fine pass takes
    return _integrand_row(eta, k, NODE_TABLE[1::2])


def _column(values):
    # a batch as numpy broadcasts it against a node or step axis: one value
    # as itself, so a batch of one stays on numpy's scalar paths, several
    # as a column (rows stacked for a batch of memo rows)
    if len(values) == 1:
        return values[0]
    values = np.array(values)
    return values if values.ndim > 1 else values[:, None]


def _integral_many(xs, eta):
    # F by the defining integral at every x > 0 of the list xs, as lists of
    # values and estimates: one integrate call over the per-element scales
    # 2^k, on the memo rows of the elements stacked
    ks, rows, negs, scales = [], [], [], []
    for x in xs:
        k = -round(math.log2(x))
        ks.append(k)
        rows.append(_integrand_rows(eta, k))
        negs.append(-x)
        scales.append(math.ldexp(1.0, k))
    even, neg_x = _column(rows), _column(negs)

    def rest(t):
        # integrate() asks for the even nodes, then maybe the odd ones
        if t.shape[-1] == even.shape[-1]:
            return np.exp(neg_x * t) * even
        return np.exp(neg_x * t) * _column(
            [_integrand_odd_rows(eta, k) for k in ks])

    value, est = integrate(rest, scales if len(scales) > 1 else scales[0])
    if len(xs) == 1:
        value, est = [value], [est]
    else:
        value, est = value.tolist(), est.tolist()
    out = []
    for x, v, e in zip(xs, value, est):
        head = 2.0 * math.sqrt(math.pi * x)
        out.append((v - head, e + 2.0 ** -52 * head))
    return out


def f_integral(arg):
    """F by the defining integral; requires x > 0 (energy below E0).

    With F written as t^(-3/2) expm1(L(t)) under the integral,
    L = -x t - log(q(t))/2 - log(q(eta t)), q(s) = (1 - e^(-s))/s, this
    takes the x-only part t^(-3/2) (e^(-x t) - 1) out exactly, as
    -2 sqrt(pi x), and integrates the rest,
    e^(-x t) t^(-3/2) expm1(-log(q(t))/2 - log(q(eta t))), which is
    positive and decays like e^(-x t), on the numerics exp-sinh node table;
    log q comes from its series at small argument.  The table runs at the
    power of two 2^k nearest 1/x, so the factor after e^(-x t) depends on
    (eta, k) only: it comes from a memo of ROW_CACHE_SIZE rows, and a call
    costs one exp(-x t) times a row.  A batch of x (f_eval_many) is one
    integrate call with the rows stacked.
    """
    x, eta = arg.x, arg.eta
    if not x > 0:
        raise ValueError("f_integral needs x > 0; use f_eval for x <= 0")
    ((value, est),) = _integral_many([x], eta)
    return SpectralValue(value, "integral", est)


@lru_cache(maxsize=ROW_CACHE_SIZE)
def _ladder_offsets(count, step):
    # the shifts of a gamma ladder: m step for m < count, or m/count when
    # step is None (the pancake sum's), in the scalar ladders' arithmetic
    m = np.arange(count)
    offsets = m / count if step is None else m * step
    offsets.flags.writeable = False
    return offsets


def _ladder_rising(xs, offsets, shift):
    # the rising factorials poch(a, (a + shift) - a) = Gamma(a + shift) /
    # Gamma(a) at a = x + offset for every x of xs and offset, in one poch
    # call, as one list per x; at a denominator pole of Gamma(a)/Gamma(a +
    # shift) it is inf.  An a within POLE_TOL of a Gamma pole raises
    # PoleSignal at the pole's x, x - (a - round(a)): the first such a in
    # row order, as the scalar ladders met it.  Within d of the pole -j,
    # |rising| <= 2 sqrt(pi (j + 1)) d for shift = +-1/2, so the poles are
    # looked for only in a batch with a rising factorial that small.
    a = _column(xs) + offsets
    rows = poch(a, (a + shift) - a).tolist()
    if a.ndim == 1:
        rows = [rows]
    if min(xs) < 0.5 and min(map(abs, chain.from_iterable(rows))) < (
            4.0 * POLE_TOL * math.sqrt(1.5 - min(xs))):
        a = a.reshape(len(xs), -1)
        hits = np.argwhere((abs(a - np.rint(a)) < POLE_TOL) & (a < 0.5))
        if len(hits):
            e, i = hits[0]
            arg = float(a[e, i])
            raise PoleSignal("F pole: gamma ladder argument %.17g" % arg,
                             xs[e] - (arg - round(arg)))
    return rows


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
        return f_pancake(x, 1)

    ladder = 0.0
    ladder_err = 0.0
    x_work = x
    while x_work <= 0.25:
        _check_ladder_pole(x_work, x)
        term = n * SQRT_PI * _gamma_ladder_term(x_work)
        ladder += term
        ladder_err += abs(term) * _ratio_rounding(x_work)
        x_work += n

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
    est = (1e-14 * scale + ladder_err
           + (abs(front * hyp_sum.real) + abs(sph)) * _ratio_rounding(x_work))
    return SpectralValue(value, "cigar", est)


def _pancake_many(xs, n):
    # the eta = 1/n closed form at every x of xs: one ladder row each,
    # summed in m order
    out = []
    for row in _ladder_rising(xs, _ladder_offsets(n, None), -0.5):
        total = 0.0
        for rising in row:
            total += 1.0 / rising
        value = -(2.0 * SQRT_PI / n) * total
        out.append(SpectralValue(value, "spherical" if n == 1 else "pancake",
                                 1e-14 * (1.0 + abs(value))))
    return out


def f_pancake(x, n):
    """Closed form for eta = 1/n (pancake-shaped trap).

    -(2 sqrt(pi)/n) sum_{m=0}^{n-1} Gamma(x + m/n)/Gamma(x - 1/2 + m/n);
    the gamma ratios continue it to x < 0 directly.  At n = 1 it is the
    spherical form -2 sqrt(pi) Gamma(x)/Gamma(x - 1/2), route "spherical".
    """
    n = int(n)
    if n < 1:
        raise ValueError("pancake closed form needs a positive integer 1/eta")
    return _pancake_many([x], n)[0]


def _recurrence_many(xs, eta):
    # the recurrence-extended integral at every x of xs: the ladders in one
    # block of m_max columns (a row past its own m is left unused), summed
    # in step order, then the terminal integrals in one batch
    target = 0.5 * max(eta, 1.0)
    ms, tops = [], []
    for x in xs:
        m = max(0, math.ceil((target - x) / eta))
        ms.append(m)
        tops.append(x + m * eta)
    m_max = max(ms)
    rows = (_ladder_rising(xs, _ladder_offsets(m_max, eta), 0.5) if m_max
            else [[]] * len(xs))
    terminals = _integral_many(tops, eta)
    coef = eta * SQRT_PI
    out = []
    for row, m, (value, est) in zip(rows, ms, terminals):
        ladder = ladder_abs = 0.0
        for rising in row[:m]:
            term = coef * (1.0 / rising)
            ladder += term
            ladder_abs += abs(term)
        out.append(SpectralValue(ladder + value,
                                 "recurrence" if m > 0 else "integral",
                                 est + 1e-15 * ladder_abs))
    return out


def f_recurrence_extend(arg):
    """Continue F to arbitrary x by F(x) = eta sqrt(pi) G(x) + F(x + eta).

    G(x) = Gamma(x)/Gamma(x+1/2).  m is minimal with x + m eta >= max(eta,1)/2
    so the terminal integral stays well-conditioned.
    """
    return _recurrence_many([arg.x], arg.eta)[0]


def _f_many(xs, eta):
    # f_eval's route for eta, on a nonempty list of finite floats
    n_pan = round(1.0 / eta)
    if n_pan >= 1 and abs(1.0 / eta - n_pan) < CLOSED_FORM_TOL:
        return _pancake_many(xs, n_pan)
    return _recurrence_many(xs, eta)


def f_eval_many(xs, eta):
    """F(x, eta) at every x of the sequence xs, as a list of SpectralValue.

    The batch takes f_eval's route (by eta, so one route for all) and one
    kernel call for all elements: one poch call over every (element,
    ladder step) argument and one integrate call over the terminal
    integrals.  Each element's value, route and est are the scalar
    f_eval's bit for bit, whatever else is in the batch.  An element within
    POLE_TOL of a pole raises PoleSignal carrying that pole's x (the first
    such element's); a non-finite x or eta <= 0 raises ValueError.
    """
    xs = list(map(float, xs))
    if not eta > 0:
        raise ValueError("eta must be > 0")
    if not all(map(math.isfinite, xs)):
        raise ValueError("x must be finite")
    return _f_many(xs, eta) if xs else []


def f_eval(arg):
    """Evaluate F(x, eta) by the cheapest accurate route.

    Integer 1/eta (within 1e-12) uses the pancake closed form, which at
    eta = 1 is the spherical one; anything else, integer eta >= 2 included,
    the recurrence-extended integral.  Both routes' gamma ladders pass
    through each pole x = -(j + k eta) (as Gamma(-j) at step k), so an
    input within POLE_TOL of a pole raises PoleSignal there, carrying the
    pole's x.  This is f_eval_many at one x.
    """
    return _f_many([arg.x], arg.eta)[0]


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
        _check_ladder_pole(x, x)
        value = math.sqrt(math.pi * eta) * (
            hurwitz_zeta_half(1.0 + x / eta)
            + math.sqrt(eta) * _gamma_ladder_term(x))
    return SpectralValue(value, "quasi1d", abs(value) / eta)


def f_quasi2d(arg, bound_state=False):
    """Quasi-2D asymptote for strongly pancake-shaped traps (eta << 1).

    -Phi(x) - log(eta) - digamma(x/eta); with bound_state=True the
    digamma is replaced by its large-argument logarithm, giving
    -Phi(x) - log(x).  Valid for x > -1.
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
        if q <= 0 and abs(q - round(q)) < POLE_TOL:
            raise PoleSignal("digamma pole at x/eta = %.17g" % q, x)
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
    residues; poles within POLE_MERGE are one pole with the summed residue."""
    if not x_min < 0:
        raise ValueError("x_min must be < 0")
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
