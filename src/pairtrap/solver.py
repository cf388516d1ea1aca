"""Eigenenergies of two contact-interacting atoms in an axially symmetric trap.

Energies are measured in units of the axial quantum (hbar omega_z = 1) and
lengths in the axial oscillator length.  The relative motion of the pair in
a trap of anisotropy eta = omega_perp/omega_z has eigenenergies E solving

    -sqrt(2 pi)/a = F(x, eta),   x = (E0 - E)/2,   E0 = 1/2 + eta,

with F the trap spectral function and a the s-wave scattering length.  F is
strictly decreasing between consecutive poles, so each pole interval holds
exactly one level for every a != 0.  This module turns that condition into
spectra, bound states (exact and quasi-1D/2D asymptotic), renormalized
low-dimensional scattering lengths, the low-dimensional reference spectra,
and the self-consistent solve for energy-dependent interactions.
"""

import math
import warnings
from dataclasses import dataclass
from functools import partial
from itertools import islice

from scipy.special import digamma

from .numerics import (
    NumericsError,
    RootBracket,
    bracket_from_signs,
    find_root_bracketed,
)
from .specfun import PoleSignal, gamma_ratio, hurwitz_zeta_half
from .spectral import (
    POLE_TOL,
    SpectralArgument,
    f_eval,
    phi,
    pole_grid,
)

SQRT_2PI = math.sqrt(2.0 * math.pi)
EDGE_CLEARANCE = 3e-9  # keep brackets clear of the 1e-9 pole guard


class NoBoundState(Exception):
    """No energy below the lowest noninteracting level solves the condition."""


@dataclass(frozen=True)
class TrapGeometry:
    """Axially symmetric harmonic trap, eta = omega_perp/omega_z."""

    eta: float

    def __post_init__(self):
        if not (self.eta > 0 and math.isfinite(self.eta)):
            raise ValueError("eta must be positive and finite")


@dataclass(frozen=True)
class InteractionModel:
    """Contact interaction: fixed scattering length or energy-dependent.

    Fixed models carry inv_a = 1/a (0 at unitarity a = +-inf, +-inf for the
    noninteracting a = 0).  Energy-dependent models carry a_eff(E) and its
    reciprocal, plus the energies where a_eff vanishes (poles of 1/a_eff,
    which split root-search intervals).
    """

    kind: str
    inv_a: float = math.nan
    a_eff: object = None
    inv_a_eff: object = None
    breakpoints: tuple = ()

    def __post_init__(self):
        if self.kind not in ("fixed", "energy_dependent"):
            raise ValueError("kind must be 'fixed' or 'energy_dependent'")
        if self.kind == "fixed" and math.isnan(self.inv_a):
            raise ValueError("fixed model needs inv_a")
        if self.kind == "energy_dependent" and self.a_eff is None:
            raise ValueError("energy-dependent model needs a_eff")

    @property
    def noninteracting(self):
        return self.kind == "fixed" and math.isinf(self.inv_a)

    @classmethod
    def fixed(cls, a):
        if a == 0:
            return cls(kind="fixed", inv_a=math.inf)
        if math.isinf(a):
            return cls(kind="fixed", inv_a=0.0)
        return cls(kind="fixed", inv_a=1.0 / a)

    @classmethod
    def from_inverse_a(cls, inv_a):
        if not math.isfinite(inv_a):
            return cls(kind="fixed", inv_a=math.inf)
        return cls(kind="fixed", inv_a=float(inv_a))

    @classmethod
    def from_resonance(cls, a_bg, gamma, e_res):
        def a_eff(e):
            return resonance_a_eff(e, a_bg, gamma, e_res)

        def inv_a_eff(e):
            num = a_bg * (e - e_res) + gamma
            if num == 0.0:
                raise PoleSignal("1/a_eff pole at E = %.17g" % e, e)
            return ((e - e_res) - a_bg * gamma * e) / num

        points = []
        if a_bg != 0.0 and gamma != 0.0:
            points.append(e_res - gamma / a_bg)  # a_eff zero
        return cls(kind="energy_dependent", a_eff=a_eff,
                   inv_a_eff=inv_a_eff, breakpoints=tuple(points))

    @classmethod
    def energy_dependent(cls, a_eff, breakpoints=()):
        def inv(e):
            v = a_eff(e)
            if v == 0.0:
                raise PoleSignal("1/a_eff pole at E = %.17g" % e, e)
            return 1.0 / v

        return cls(kind="energy_dependent", a_eff=a_eff, inv_a_eff=inv,
                   breakpoints=tuple(breakpoints))


@dataclass(frozen=True)
class EnergyLevel:
    """One relative-motion level: E = E0 - 2x, isolated in bracket (E units).

    branch_index counts the F poles at or above x: 0 is the branch below E0
    (the bound branch for x > 0), 1 the first excited interval, and so on.
    Noninteracting levels sit exactly on the poles and carry no bracket.
    """

    E: float
    x: float
    bracket: object = None
    branch_index: int = 0
    noninteracting: bool = False

    def __post_init__(self):
        if self.bracket is not None:
            if not self.bracket.lo < self.E < self.bracket.hi:
                raise ValueError("level must lie strictly inside its bracket")


def ground_energy_offset(g):
    """Lowest noninteracting relative-motion energy, E0 = 1/2 + eta."""
    return 0.5 + g.eta


def _default_window(g, levels, inv_values):
    """Energy window holding `levels` levels for every 1/a in inv_values.

    The ceiling sits one spacing min(1, eta) above `levels` level spacings
    over E0.  The floor sits 1 below the bound level at the extreme 1/a
    values (and at least 4 below E0): off eta = 1 the bound branch can lie
    far below the naive -1/a^2 depth.
    """
    e0 = ground_energy_offset(g)
    spacing = min(1.0, g.eta)
    hi = e0 + 2.0 * levels * spacing + spacing
    lo = e0 - 4.0
    for v in {min(inv_values), max(inv_values)}:
        try:
            lv = bound_state_exact(InteractionModel.from_inverse_a(v), g)
        except (NoBoundState, NumericsError, PoleSignal):
            continue
        lo = min(lo, lv.E - 1.0)
    return (lo, hi)


def _pole_xs(eta, x_lo):
    # F poles (in x, descending) down to below x_lo, so the lowest interval
    # is bounded; the pole at 0 is always kept as the bound branch's floor
    if x_lo >= 0:
        return [0.0]
    return list(pole_grid(eta, x_lo - 2.0 * eta - 2.0).poles)


def _branch_index(poles, x):
    return sum(1 for p in poles if p >= x - POLE_TOL)


def _ordered_roots(cuts, lo, hi, solve, clearance=EDGE_CLEARANCE):
    """Yield the roots between consecutive cuts, in ascending E.

    cuts run in ascending E, in the coordinate solve works in (x falls as
    E rises, so cuts in x descend).  Each interval is kept `clearance` off
    its cuts and clipped to [lo, hi]; solve(a, b) returns or yields the
    interval's roots in ascending E.  The walk is lazy, so a caller that
    stops after n roots solves only the intervals that hold them.
    """
    for c1, c2 in zip(cuts, cuts[1:]):
        a = max(min(c1, c2) + clearance, lo)
        b = min(max(c1, c2) - clearance, hi)
        if a < b:
            yield from solve(a, b)


def _root_in_segment(target, lo, hi):
    # the root of a target monotone on [lo, hi], as a list of 0 or 1
    # (root, bracket) pairs
    try:
        br = bracket_from_signs(target, lo, hi)
    except (NumericsError, PoleSignal):
        return []
    return [(find_root_bracketed(target, br, tol=1e-12), br)]


def eigenenergies(model, g, window=None, max_levels=20):
    """Levels of the fixed-a eigencondition inside an energy window.

    One root per pole interval of F (monotonicity gives uniqueness); the
    intervals are walked in ascending E and the walk stops at the
    max_levels-th level.  With a = 0 the levels are the noninteracting pole
    energies, tagged as such.
    """
    if model.kind != "fixed":
        raise ValueError("eigenenergies needs a fixed model; "
                         "use solve_self_consistent")
    if window is None:
        window = _default_window(g, max_levels, (model.inv_a,))
    e_lo, e_hi = window
    if not (math.isfinite(e_lo) and math.isfinite(e_hi) and e_lo < e_hi):
        raise ValueError("window must be a bounded interval")
    e0 = ground_energy_offset(g)
    x_lo = (e0 - e_hi) / 2.0
    x_hi = (e0 - e_lo) / 2.0

    poles = _pole_xs(g.eta, x_lo)
    if model.noninteracting:
        out = [EnergyLevel(E=e0 - 2.0 * p, x=p,
                           branch_index=_branch_index(poles, p),
                           noninteracting=True)
               for p in poles if x_lo <= p <= x_hi]
        return out[:max_levels]

    inv_a = model.inv_a

    def target(x):
        return f_eval(SpectralArgument(x, g.eta)).value + SQRT_2PI * inv_a

    # the bound branch x in (0, x_hi] first: F falls from +inf there
    roots = _ordered_roots([math.inf] + poles, x_lo, x_hi,
                           partial(_root_in_segment, target))
    levels = (EnergyLevel(E=e0 - 2.0 * x, x=x, bracket=_to_e_bracket(br, e0),
                          branch_index=_branch_index(poles, x))
              for x, br in roots if e_lo <= e0 - 2.0 * x <= e_hi)
    return list(islice(levels, max_levels))


def _to_e_bracket(br, e0):
    # E = E0 - 2x reverses orientation, so the endpoint signs swap
    return RootBracket(e0 - 2.0 * br.hi, e0 - 2.0 * br.lo,
                       br.f_hi_sign, br.f_lo_sign)


def a1d_effective(a, g):
    """Renormalized 1D scattering length of the tight cigar-shaped trap.

    a_1D = -1/(eta a) - zeta(1/2, 1)/sqrt(2 eta); the first term vanishes
    at unitarity a = +-inf.
    """
    if a == 0:
        raise ValueError("a = 0 has no 1D renormalization")
    inv_a = 0.0 if math.isinf(a) else 1.0 / a
    return -inv_a / g.eta - hurwitz_zeta_half(1.0) / math.sqrt(2.0 * g.eta)


def a2d_effective(a):
    """Renormalized 2D scattering length of the tight pancake-shaped trap.

    a_2D = exp[(phi(0) - sqrt(2 pi)/a)/2]/sqrt(2), phi evaluated rather
    than hard-coded.
    """
    if a == 0:
        raise ValueError("a = 0 has no 2D renormalization")
    inv_a = 0.0 if math.isinf(a) else 1.0 / a
    return math.exp(0.5 * (phi(0.0) - SQRT_2PI * inv_a)) / math.sqrt(2.0)


def spectrum_1d_reference(a1d, g, window):
    """Levels of the strictly 1D contact problem with length a1d.

    sqrt(2) a_1D = Gamma(y)/Gamma(y + 1/2), y = (E0 - E)/2.  The gamma
    ratio is monotone between consecutive half-integer breakpoints, where
    it alternates poles (integers <= 0) and zeros (half-integers <= -1/2).
    """
    e_lo, e_hi = window
    e0 = ground_energy_offset(g)
    if math.isinf(a1d):
        # ratio-zero condition: y = -1/2 - n
        out = []
        n = 0
        while e0 + 1.0 + 2.0 * n <= e_hi:
            if e0 + 1.0 + 2.0 * n >= e_lo:
                out.append(e0 + 1.0 + 2.0 * n)
            n += 1
        return out
    if a1d == 0:
        raise ValueError("a1d must be nonzero")
    rhs = math.sqrt(2.0) * a1d

    def target(y):
        return gamma_ratio(y, y + 0.5) - rhs

    y_lo = (e0 - e_hi) / 2.0
    y_hi = (e0 - e_lo) / 2.0
    # the bound side y > 0, where the ratio falls from +inf to 0, first
    cuts = [math.inf, 0.0]
    while cuts[-1] > y_lo:
        cuts.append(cuts[-1] - 0.5)
    roots = _ordered_roots(cuts, y_lo, y_hi, partial(_root_in_segment, target))
    return [e for e in (e0 - 2.0 * y for y, _ in roots) if e_lo <= e <= e_hi]


def spectrum_2d_reference(a2d, g, window):
    """Levels of the strictly 2D contact problem with length a2d.

    psi((E0 - E)/(2 eta)) + log(2 a2d^2 eta) = 0; the digamma is strictly
    increasing from -inf to +inf on every pole interval, so each interval
    holds exactly one level.
    """
    if not a2d > 0:
        raise ValueError("a2d must be positive")
    e_lo, e_hi = window
    e0 = ground_energy_offset(g)
    c = math.log(2.0 * a2d * a2d * g.eta)

    def target(q):
        return digamma(q) + c

    q_lo = (e0 - e_hi) / (2.0 * g.eta)
    q_hi = (e0 - e_lo) / (2.0 * g.eta)
    # the q > 0 branch, where psi spans all reals, first
    cuts = [math.inf, 0.0]
    while cuts[-1] > q_lo:
        cuts.append(cuts[-1] - 1.0)
    roots = _ordered_roots(cuts, q_lo, q_hi, partial(_root_in_segment, target))
    return [e for e in (e0 - 2.0 * g.eta * q for q, _ in roots)
            if e_lo <= e <= e_hi]


def bound_state_exact(model, g):
    """Lowest level below E0 from the full eigencondition (x > 0 root).

    The search interval grows geometrically until the condition changes
    sign; F spans (+inf, -inf) on x > 0, so any a != 0 yields a root.
    """
    if model.kind != "fixed":
        raise ValueError("bound_state_exact needs a fixed model")
    if model.noninteracting:
        raise NoBoundState("a = 0 has no level below E0")
    e0 = ground_energy_offset(g)
    inv_a = model.inv_a

    def target(x):
        return f_eval(SpectralArgument(x, g.eta)).value + SQRT_2PI * inv_a

    br = _bracket_by_doubling(target, EDGE_CLEARANCE,
                              max(1.0, 0.75 * inv_a * inv_a), 1e7)
    x = find_root_bracketed(target, br, tol=1e-12)
    return EnergyLevel(E=e0 - 2.0 * x, x=x, bracket=_to_e_bracket(br, e0),
                       branch_index=0)


def _bracket_by_doubling(target, lo, hi, limit, sign=1.0):
    # target has the sign `sign` between lo and its one root above lo;
    # double hi until it lies past the root
    while sign * target(hi) > 0:
        hi *= 2.0
        if hi > limit:
            raise NoBoundState("no sign change up to %g" % hi)
    return bracket_from_signs(target, lo, hi)


def bound_state_quasi1d(a, g):
    """Bound level of the tight cigar asymptote.

    Solves sqrt(2)/a + sqrt(eta) zeta(1/2, q) = 0 with q = (E0 - E)/(2 eta);
    the zeta is strictly decreasing from +inf to -inf on q > 0.
    """
    if a == 0:
        raise ValueError("a must be nonzero")
    if g.eta < 10.0:
        warnings.warn("quasi-1d bound state asked for eta = %g < 10"
                      % g.eta, stacklevel=2)
    inv_a = 0.0 if math.isinf(a) else 1.0 / a
    c = math.sqrt(2.0) * inv_a / math.sqrt(g.eta)

    def target(q):
        return hurwitz_zeta_half(q) + c

    x = find_root_bracketed(target,
                            _bracket_by_doubling(target, 1e-12, 1.0, 1e12),
                            tol=1e-13)
    return ground_energy_offset(g) - 2.0 * g.eta * x


def bound_state_quasi2d(a, g):
    """Bound level of the tight pancake asymptote.

    Solves sqrt(2 pi)/a = phi(x) + log(x), x = (E0 - E)/2; the right side
    sweeps all reals monotonically on x > 0, so a root always exists.
    """
    if a == 0:
        raise ValueError("a must be nonzero")
    if g.eta > 0.1:
        warnings.warn("quasi-2d bound state asked for eta = %g > 0.1"
                      % g.eta, stacklevel=2)
    inv_a = 0.0 if math.isinf(a) else 1.0 / a
    c = SQRT_2PI * inv_a

    def target(x):
        return phi(x) + math.log(x) - c

    lo = 1e-300
    if target(lo) > 0:  # log x no longer dominates at the smallest x
        raise NoBoundState("phi + log condition never changes sign")
    x = find_root_bracketed(target,
                            _bracket_by_doubling(target, lo, 1.0, 1e4, -1.0),
                            tol=1e-13)
    return ground_energy_offset(g) - 2.0 * x


def resonance_a_eff(e, a_bg, gamma, e_res):
    """Energy-dependent scattering length of the built-in resonance model.

    Phase shift delta0(k) = -atan(k a_bg) - atan(gamma k/(E - E_res)) with
    k = sqrt(E); a_eff = -tan(delta0)/k collapses to the rational form

        a_eff(E) = (a_bg (E - E_res) + gamma) / ((E - E_res) - a_bg gamma E)

    which is analytic in E, so E < 0 is the analytic continuation for free.
    gamma = 0 reduces to the background length for every E.
    """
    num = a_bg * (e - e_res) + gamma
    den = (e - e_res) - a_bg * gamma * e
    if den == 0.0:
        raise PoleSignal("a_eff pole at E = %.17g" % e, e)
    return num / den


def solve_self_consistent(model, g, window=None, max_levels=20,
                          scan_points=48):
    """Levels of F(x, eta) + sqrt(2 pi)/a_eff(E) = 0, a_eff energy-dependent.

    Search intervals are delimited by both the F poles and the zeros of
    a_eff (poles of 1/a_eff) and walked in ascending E until max_levels
    levels are found; inside each, sign changes are located on a scan grid
    whose resolution is doubled once as a stability check (a still-changing
    root count raises a diagnostic error).
    """
    if model.kind != "energy_dependent":
        raise ValueError("solve_self_consistent needs an "
                         "energy-dependent model")
    e0 = ground_energy_offset(g)
    if window is None:
        # no fixed 1/a pins the lowest level: 1/a_eff far below E0 can
        # exceed 2, so the floor also reaches E0 - 70.  A zero of a_eff can
        # leave a pole interval without a level, so the ceiling holds two
        # spare ones.
        lo, hi = _default_window(g, max_levels + 2, (-2.0, 2.0))
        window = (min(lo, e0 - 70.0), hi)
    e_lo, e_hi = window
    inv = model.inv_a_eff

    def target(e):
        x = (e0 - e) / 2.0
        return (f_eval(SpectralArgument(x, g.eta)).value
                + SQRT_2PI * inv(e))

    # cuts in E: F poles, a_eff zeros and the window ends (intervals
    # outside the window are clipped away)
    poles = _pole_xs(g.eta, (e0 - e_hi) / 2.0)
    cuts = sorted({e0 - 2.0 * p for p in poles}
                  | set(model.breakpoints) | {e_lo, e_hi})

    def solve(lo, hi):
        brackets = _scan_sign_changes(target, lo, hi, scan_points)
        check = _scan_sign_changes(target, lo, hi, 2 * scan_points + 1)
        if len(check) != len(brackets):
            brackets = _scan_sign_changes(target, lo, hi, 8 * scan_points)
            if len(brackets) != len(_scan_sign_changes(
                    target, lo, hi, 16 * scan_points + 1)):
                raise NumericsError(
                    "unresolved oscillation of the self-consistent "
                    "condition on [%g, %g]" % (lo, hi))
        for br in brackets:
            yield find_root_bracketed(target, br, tol=1e-12), br

    roots = _ordered_roots(cuts, e_lo, e_hi, solve, 2.0 * EDGE_CLEARANCE)
    levels = (EnergyLevel(E=e, x=(e0 - e) / 2.0, bracket=br,
                          branch_index=_branch_index(poles, (e0 - e) / 2.0))
              for e, br in roots)
    return list(islice(levels, max_levels))


def _scan_sign_changes(target, lo, hi, n):
    out = []
    step = (hi - lo) / n
    prev_t, prev_v = lo, target(lo)
    for i in range(1, n + 1):
        t = lo + i * step
        v = target(t)
        if prev_v == 0.0:
            prev_t, prev_v = t, v
            continue
        if v != 0.0 and math.copysign(1.0, v) != math.copysign(1.0, prev_v):
            out.append(bracket_from_signs(target, prev_t, t))
        prev_t, prev_v = t, v
    return out
