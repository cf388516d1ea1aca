"""Relative-motion pair wavefunction in the anisotropic trap.

Psi(rho, z) carries a 1/(2 pi r) contact core at the origin and a Gaussian
envelope at large distance.  Three exact routes are provided: a proper-time
integral valid below the ground energy E0 = 1/2 + eta, a radial series in
Laguerre x Kummer-U products (fast for cigars), and an axial series (fast
for pancakes).  Asymptotic quasi-1d and quasi-2d profiles, grid
normalization with analytic treatment of the integrable 1/r^2 density, and
the small-r contact extrapolation complete the module.  All lengths are in
axial oscillator units; energies include the 3/2-equivalent zero point
through E0.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

from scipy.special import k0 as bessel_k0

from .numerics import (
    NumericsError,
    QuadratureSpec,
    SeriesError,
    integrate_semi_infinite_with_error,
    sum_series_with_error,
)
from .solver import ground_energy_offset
from .specfun import (
    PoleSignal,
    hurwitz_zeta_half,
    is_nonpositive_integer,
    kummer_u,
    laguerre_iter,
    ln_gamma,
    ln_gamma_u,
)
from .spectral import SpectralArgument, f_eval, phi

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


def _ln_sinh(s):
    # s + log(1 - e^{-2s}) - log 2, exact at both ends of the range
    return s + math.log(-math.expm1(-2.0 * s)) - LN2


def _coth(s):
    if s > 350.0:
        return 1.0
    return 1.0 + 2.0 / math.expm1(2.0 * s)


def psi_integral(rho, z, E, g, spec=QuadratureSpec()):
    """Proper-time integral for Psi at energies below E0.

    The integrand decays like exp(t (E - E0)) at large t, so the energy must
    sit strictly below E0; the r != 0 Gaussian suppression exp(-r^2/(2t))
    tames the t^{-3/2} short-time divergence.
    """
    if rho < 0:
        raise ValueError("rho must be nonnegative")
    if rho == 0.0 and z == 0.0:
        raise ValueError("Psi diverges at the origin; use contact_coefficient")
    e0 = ground_energy_offset(g)
    if not E < e0:
        raise ValueError("integral route needs E < E0 = %g" % e0)
    eta = g.eta
    half_z2 = 0.5 * z * z
    half_w = 0.5 * eta * rho * rho

    def f(t):
        ex = (t * E - half_z2 * _coth(t) - half_w * _coth(eta * t)
              - 0.5 * _ln_sinh(t) - _ln_sinh(eta * t))
        return math.exp(ex) if ex > -745.0 else 0.0

    value, _ = integrate_semi_infinite_with_error(f, spec)
    return eta * value / TWO_PI ** 1.5


@lru_cache(maxsize=1 << 18)
def _gamma_u(a, b, w):
    # Gamma(a) U(a, b, w): log route keeps huge Gamma factors in range for
    # a >= 1/2; smaller and negative a go through the direct product, whose
    # magnitude stays moderate away from the Gamma poles.
    if a >= 0.5:
        ln = ln_gamma_u(a, b, w)
        return math.exp(ln) if ln > -745.0 else 0.0
    if is_nonpositive_integer(a):
        raise PoleSignal("Gamma(%.17g) pole in a series coefficient" % a, a)
    lg, sign = ln_gamma(a)
    return sign * math.exp(lg) * kummer_u(a, b, w)


def _sum_terms(term_at, trunc, label, osc_x, decay_beta):
    # Shared tail control.  Terms carry a Laguerre factor oscillating with
    # phase 2 sqrt(m osc_x), so single-term tests alias with its nodes: the
    # envelope is taken over a window of at least half a period.  The
    # envelope decays like exp(-decay_beta sqrt(m)), giving the tail bound
    # env * 2 sqrt(m)/decay_beta.  A window-to-window envelope that stops
    # falling means the partial sums have stalled (divergent regime).
    total = 0.0
    hist = []
    for m in range(trunc.max_terms):
        t = term_at(m)
        total += t
        hist.append(abs(t))
        if osc_x > 0.0:
            period = TWO_PI * math.sqrt((m + 1.0) / osc_x)
            win = min(max(8, int(0.5 * period) + 1), 1000)
        else:
            win = 2
        if m + 1 >= 2 * win:
            newer = max(hist[-win:])
            older = max(hist[-2 * win:-win])
            if older > 0.0 and newer >= 0.97 * older:
                raise SeriesError(
                    "%s terms are not decaying after %d terms" % (label, m + 1),
                    total, newer, m + 1)
        if m + 1 >= win:
            env = max(hist[-win:])
            tail = env * (2.0 * math.sqrt(m + 1.0) / decay_beta
                          if decay_beta > 0.0 else 1.0)
            if tail <= trunc.tail_tol * abs(total):
                return total
    raise SeriesError("%s did not converge in %d terms" % (label, trunc.max_terms),
                      total, abs(hist[-1]), trunc.max_terms)


def _check_coefficient_poles(first, step, scale):
    # Only the finitely many coefficients below 1/2 can sit on a Gamma pole.
    a = first
    while a < 0.5:
        if is_nonpositive_integer(a):
            raise PoleSignal(
                "series coefficient Gamma(%.17g) at a pole (threshold energy)"
                % (a * scale), a)
        a += step


def psi_series_radial(rho, z, E, g, trunc=SeriesTruncation()):
    """Laguerre expansion over radial modes; converges fastest for eta >= 1.

    Term m carries Gamma(a_m) U(a_m, 1/2, z^2) L_m(eta rho^2) with
    a_m = eta m - (E - E0)/2.  On the z = 0 line the terms decay only like
    m^{-3/4} with oscillating sign, so that line is rejected.
    """
    if rho < 0:
        raise ValueError("rho must be nonnegative")
    if z == 0.0:
        raise ValueError("radial series is conditionally convergent at z = 0; "
                         "use the integral or axial route")
    eta = g.eta
    cal_e = E - ground_energy_offset(g)
    _check_coefficient_poles(-0.5 * cal_e, eta, 1.0)
    w = eta * rho * rho
    zz = z * z
    lag = laguerre_iter(w)

    def term(m):
        return _gamma_u(eta * m - 0.5 * cal_e, 0.5, zz) * next(lag)

    # envelope decay exp(-2|z| sqrt(eta m)); oscillation from L_m(eta rho^2)
    total = _sum_terms(term, trunc, "radial series", w,
                       2.0 * abs(z) * math.sqrt(eta))
    return eta * math.exp(-0.5 * (w + zz)) * _PREF * total


def psi_series_axial(rho, z, E, g, trunc=SeriesTruncation()):
    """Axial-mode expansion; converges fastest for eta < 1.

    Term k carries L_k^{(-1/2)}(z^2) Gamma(b_k) U(b_k, 1, eta rho^2) with
    b_k = (k - (E - E0)/2)/eta.  U(., 1, .) is logarithmic at zero argument,
    so the rho = 0 axis is rejected for this route.
    """
    if rho <= 0:
        raise ValueError("axial series needs rho > 0 (U(., 1, 0) diverges)")
    eta = g.eta
    cal_e = E - ground_energy_offset(g)
    _check_coefficient_poles(-0.5 * cal_e / eta, 1.0 / eta, eta)
    w = eta * rho * rho
    zz = z * z
    lag = laguerre_iter(zz, alpha=-0.5)

    def term(k):
        return _gamma_u((k - 0.5 * cal_e) / eta, 1.0, w) * next(lag)

    # envelope decay exp(-2 rho sqrt(k)); oscillation from L_k^(-1/2)(z^2)
    total = _sum_terms(term, trunc, "axial series", zz, 2.0 * rho)
    return math.exp(-0.5 * (w + zz)) * _PREF * total


def psi(rho, z, E, g, route=None, spec=QuadratureSpec(), trunc=SeriesTruncation()):
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
        return psi_integral(rho, z, E, g, spec)
    if route == "radial_series":
        return psi_series_radial(rho, z, E, g, trunc)
    if route == "axial_series":
        return psi_series_axial(rho, z, E, g, trunc)
    raise ValueError("unknown route %r" % (route,))


def sample_grid(rhos, zs, E, g, route=None, spec=QuadratureSpec(),
                trunc=SeriesTruncation()):
    """Evaluate Psi on the tensor grid rhos x zs (z outer, rho inner).

    One route is used for every point so the samples stay homogeneous; the
    default picks the integral below E0 and the geometry-matched series
    otherwise.
    """
    if route is None:
        if E < ground_energy_offset(g):
            route = "integral"
        else:
            route = "radial_series" if g.eta >= 1.0 else "axial_series"
    coords = []
    values = []
    for z in zs:
        for rho in rhos:
            coords.append((rho, z))
            values.append(psi(rho, z, E, g, route=route, spec=spec, trunc=trunc))
    return ProfileSamples(tuple(coords), tuple(values), route)


# ---------------------------------------------------------------------------
# asymptotic profiles
# ---------------------------------------------------------------------------

def profile_quasi1d(axis, coordinate, E, g):
    """Tight-cigar asymptotic profile along one axis, for E < E0.

    Axial: (eta/2 pi) sum_m exp(-2|z| sqrt(q_m))/sqrt(q_m) with
    q_m = m eta - (E - E0)/2.  Radial: the closed form
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

        def term(m):
            q = m * eta + x
            return math.exp(-2.0 * az * math.sqrt(q)) / math.sqrt(q)

        total, _, _ = sum_series_with_error(term, tol=1e-13)
        return eta * total / TWO_PI
    raise ValueError("axis must be 'axial' or 'radial'")


def profile_quasi2d(axis, coordinate, E, g):
    """Tight-pancake asymptotic profile along one axis, for E < E0.

    Radial: pi^{-3/2} sum_m [(2m)!/(2^m m!)^2] K0(2 rho sqrt(m + x)).
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

        def term(m):
            w = math.exp(math.lgamma(2 * m + 1) - 2 * m * LN2
                         - 2.0 * math.lgamma(m + 1))
            return w * bessel_k0(2.0 * rho * math.sqrt(m + x))

        total, _, _ = sum_series_with_error(term, tol=1e-13)
        return total / math.pi ** 1.5
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

def _trap_weights(xs):
    n = len(xs)
    w = [0.0] * n
    for i in range(n):
        if i > 0:
            w[i] += 0.5 * (xs[i] - xs[i - 1])
        if i < n - 1:
            w[i] += 0.5 * (xs[i + 1] - xs[i])
    return w


def norm_squared_exact(E, g):
    """Squared norm of the unnormalized Psi from the spectral derivative.

    ||Psi||^2 = -F'(x)/(4 pi^{3/2}) at x = (E0 - E)/2; the derivative is
    taken by a five-point stencil, valid away from the poles of F.
    """
    x = 0.5 * (ground_energy_offset(g) - E)
    h = 1e-4 * max(1.0, abs(x))
    vals = [f_eval(SpectralArgument(x + k * h, g.eta)).value
            for k in (-2, -1, 1, 2)]
    deriv = (vals[0] - 8.0 * vals[1] + 8.0 * vals[2] - vals[3]) / (12.0 * h)
    n2 = -deriv / (4.0 * math.pi ** 1.5)
    if not n2 > 0:
        raise NumericsError("nonpositive norm estimate %.3e (stencil may "
                            "straddle a pole of F)" % n2)
    return n2


def normalize(samples, g):
    """Rescale tensor-grid samples so 2 pi int rho drho dz |Psi|^2 = 1.

    Trapezoid in both directions, with the [0, rho_1) strip closed by the
    linear vanishing of rho |Psi|^2 and the leading Euler-Maclaurin boundary
    term restoring O(h^2) accuracy of the radial rule.  When the innermost
    samples of a z = 0 row show the flat r Psi signature of the 1/(2 pi r)
    contact core, the analytic core A exp(-r^2/2)/(2 pi r) is subtracted
    from the density (its full-space norm A^2/(2 sqrt pi) is added back),
    leaving a remainder the trapezoid rule handles at second order.  Grids
    with z >= 0 only are folded by parity.  The estimated missing tail
    beyond the grid must stay under 1e-4 of the norm or the call is
    rejected.
    """
    pts = {}
    for (rho, z), v in zip(samples.coordinates, samples.values):
        pts[(rho, z)] = v
    rhos = sorted({c[0] for c in samples.coordinates})
    zs = sorted({c[1] for c in samples.coordinates})
    if len(rhos) * len(zs) != len(samples.coordinates) or len(pts) != len(
            samples.coordinates):
        raise ValueError("normalize needs a full tensor grid without repeats")
    if len(rhos) < 4 or len(zs) < 4:
        raise ValueError("normalize needs at least a 4 x 4 grid")
    if not rhos[0] > 0:
        raise ValueError("normalize needs strictly positive rho columns")

    half = zs[0] >= 0.0
    wz = _trap_weights(zs)
    if half:
        if zs[0] > 0.0:
            # even extension across z = 0; flat to O(z_1^2) by parity
            wz[0] += zs[0]
        wz = [2.0 * w for w in wz]

    rho1 = rhos[0]
    em_coef = rho1 * rho1 / 12.0

    # flat r Psi at the innermost z = 0 samples marks the contact core; the
    # two-point Richardson removes the linear slope from the amplitude
    amp = 0.0
    singular = False
    if 0.0 in zs and len(rhos) >= 2:
        t1 = rho1 * pts[(rho1, 0.0)]
        t2 = rhos[1] * pts[(rhos[1], 0.0)]
        if t1 != 0.0 and abs(t2 / t1 - 1.0) < 0.3:
            singular = True
            amp = TWO_PI * (2.0 * t1 - t2)

    def density(rho, z):
        u = TWO_PI * rho * pts[(rho, z)] ** 2
        if singular:
            rr = rho * rho + z * z
            u -= amp * amp * math.exp(-rr) * rho / (TWO_PI * rr)
        return u

    def row_integral(z):
        u = [density(r, z) for r in rhos]
        if singular and z == 0.0:
            # the subtracted density tends to a finite constant on this row
            strip = rho1 * u[0]
            em = 0.0
        else:
            strip = 0.5 * rho1 * u[0]
            em = em_coef * u[0] / rho1
        trap = 0.0
        for i in range(len(rhos) - 1):
            trap += 0.5 * (rhos[i + 1] - rhos[i]) * (u[i] + u[i + 1])
        return strip + trap + em

    rows = [row_integral(z) for z in zs]
    n2 = sum(w * r for w, r in zip(wz, rows))
    if singular:
        n2 += amp * amp / (2.0 * math.sqrt(math.pi))
    if not n2 > 0:
        raise NumericsError("nonpositive grid norm %.3e" % n2)

    def tail_rate(v_in, v_out, dx, label):
        if v_out <= 0.0:
            return 0.0
        if not v_in > v_out:
            raise NumericsError(
                "%s boundary of the grid is not decaying; cannot bound the "
                "missing tail" % label)
        return v_out / (math.log(v_in / v_out) / dx)

    def raw_row(z):
        u = [TWO_PI * r * pts[(r, z)] ** 2 for r in rhos]
        total = 0.5 * rho1 * u[0]
        for i in range(len(rhos) - 1):
            total += 0.5 * (rhos[i + 1] - rhos[i]) * (u[i] + u[i + 1])
        return total

    # tails are bounded on the raw density, which stays positive and decaying
    tail = tail_rate(raw_row(zs[-2]), raw_row(zs[-1]), zs[-1] - zs[-2],
                     "outer z")
    if half:
        tail *= 2.0
    else:
        tail += tail_rate(raw_row(zs[1]), raw_row(zs[0]), zs[1] - zs[0],
                          "inner z")
    cols_out = sum(w * TWO_PI * rhos[-1] * pts[(rhos[-1], z)] ** 2
                   for w, z in zip(wz, zs))
    cols_in = sum(w * TWO_PI * rhos[-2] * pts[(rhos[-2], z)] ** 2
                  for w, z in zip(wz, zs))
    tail += tail_rate(cols_in, cols_out, rhos[-1] - rhos[-2], "outer rho")
    if tail > 1e-4 * n2:
        raise NumericsError(
            "estimated missing tail %.3e of the norm exceeds 1e-4 "
            "(grid too small or too coarse)" % (tail / n2))

    norm = math.sqrt(n2)
    return ProfileSamples(samples.coordinates,
                          tuple(v / norm for v in samples.values),
                          samples.method, normalized=True, norm_constant=norm)


def contact_coefficient(E, g, spec=QuadratureSpec()):
    """Richardson limit of d/dr (r Psi) at the origin, along the z axis.

    The boundary condition ties the returned slope s to the scattering
    length through s = -1/(sqrt 2 pi a); evaluation uses the integral route
    and therefore requires E < E0.
    """
    e0 = ground_energy_offset(g)
    if not E < e0:
        raise ValueError("contact extrapolation needs E < E0 (integral route)")
    inv_2pi = 1.0 / TWO_PI
    slopes = []
    for h in (0.2, 0.1, 0.05, 0.025):
        slopes.append((h * psi_integral(0.0, h, E, g, spec) - inv_2pi) / h)
    r1 = [2.0 * slopes[i + 1] - slopes[i] for i in range(3)]
    r2 = [(4.0 * r1[i + 1] - r1[i]) / 3.0 for i in range(2)]
    scatter = abs(r2[1] - r2[0])
    if scatter > max(2e-5, 1e-3 * abs(r2[1])):
        raise NumericsError("contact extrapolation not settled: successive "
                            "estimates %.6g and %.6g" % (r2[0], r2[1]))
    return r2[1]


def contact_scattering_length(E, g, spec=QuadratureSpec()):
    """Scattering length recovered from the contact slope, a = -1/(sqrt2 pi s)."""
    s = contact_coefficient(E, g, spec)
    if s == 0.0:
        return math.inf
    return -1.0 / (math.sqrt(2.0) * math.pi * s)
