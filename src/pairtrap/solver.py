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
and the self-consistent solve for energy-dependent interactions: one
bracketed root per interval where a Resonance with det >= 0 certifies a
rising 1/a_eff, a dense sign scan otherwise.  Both level solvers use one
walk in x over the F poles (and, self-consistently, the a_eff zeros).

The bracketed searches next to F poles run on the pole-cleared target
target(y) (y - p1)(p2 - y)/(p2 - p1), p1 < p2 the poles at the ends (just
y - p1 for the bound branch, whose upper end is no pole).  It has the same
roots, is smooth up to the poles, and tends to F's residue there, so
Brent's method converges in a few steps and an end next to a pole takes
that limit as its value instead of an F call.
Where the root comes out within a few tolerances of such an end, the limit
may have the wrong sign (the root lies between the pole and the end): the
plain target is then evaluated at that end, and the root stays only where
its sign there is the limit's, so the level set is the one a search with
both ends evaluated gives.  bound_state_exact runs the same search on the
bound branch alone, its upper end found by doubling.

The intervals are solved in chunks, in lockstep: the walk hands out as
many intervals as levels are still missing (each holds at most one, so a
chunk never reaches past the last level asked for), their searches run
side by side in numerics.find_roots_bracketed, and every Brent step of the
chunk is at most one spectral.f_values call (F as plain floats) over the
roots still running; the end values the chunk needs are one such call,
and the sign checks at residue ends one more.  Each root is the one a
search of its interval alone would give, bit for bit.
One cache per (eta, window), _window_walk, keeps what no a moves: the F
poles and residues both level solvers walk, and eigenenergies' memo of F
at the window edges and at the first Brent point of each segment between
two poles (set by its residue ends alone), for the next cells.
"""

import math
import warnings
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import islice
from operator import neg

from .numerics import (
    NumericsError,
    RootBracket,
    bracket_from_signs,
    find_root_bracketed,
    find_roots_bracketed,
)
from .specfun import (POLE_TOL, PoleSignal, digamma, gamma_ratio,
                      hurwitz_zeta_half)
from .spectral import (
    QUASI1D_MIN_ETA,
    QUASI2D_MAX_ETA,
    f_eval,  # probed as solver.f_eval by perfbench; no search here calls it
    f_values,
    phi,
    pole_grid,
)

SQRT_2PI = math.sqrt(2.0 * math.pi)
EDGE_CLEARANCE = 3e-9  # keep brackets clear of the 1e-9 pole guard
ROOT_TOL = 1e-12  # bracket width of the level roots
SCAN_POINTS = 48  # sign-scan grid of the self-consistent solve's fallback
# (eta, window) walks _window_walk keeps; at eta = 1e-4 one holds 80,001
# poles
POLE_CACHE_SIZE = 16


class NoBoundState(Exception):
    """No energy below the lowest noninteracting level solves the condition."""


@dataclass(frozen=True)
class TrapGeometry:
    """Axially symmetric harmonic trap, eta = omega_perp/omega_z."""

    eta: float

    def __post_init__(self):
        if not (self.eta > 0 and math.isfinite(self.eta)):
            raise ValueError("eta must be positive and finite")


class InteractionModel:
    """Contact interaction: FixedLength, Resonance or EnergyDependent.  The
    last two carry a_eff(E), inv_a_eff(E) and breakpoints (a_eff zeros)."""

    @staticmethod
    def fixed(a):
        return FixedLength(math.inf if a == 0 else 1.0 / a)

    @staticmethod
    def from_inverse_a(inv_a):
        # +-inf is a = 0, the noninteracting limit; NaN is rejected
        return FixedLength(math.inf if math.isinf(inv_a) else float(inv_a))

    @staticmethod
    def from_resonance(a_bg, gamma, e_res):
        return Resonance(a_bg, gamma, e_res)

    @staticmethod
    def energy_dependent(a_eff, breakpoints=()):
        return EnergyDependent(a_eff, tuple(breakpoints))


@dataclass(frozen=True)
class FixedLength(InteractionModel):
    """inv_a = 1/a: 0 at unitarity, +-inf for the noninteracting a = 0."""

    inv_a: float

    def __post_init__(self):
        if math.isnan(self.inv_a):
            raise ValueError("1/a must not be NaN")

    @property
    def noninteracting(self):
        return math.isinf(self.inv_a)


@dataclass(frozen=True)
class Resonance(InteractionModel):
    """a_eff(E) = resonance_a_eff(E, a_bg, gamma, e_res).

    1/a_eff is a Moebius map of E, its one pole the breakpoint; its slope
    has the sign of det = gamma (1 - a_bg gamma + a_bg^2 e_res), which is
    >= 0 for every e_res > gamma^2/4 when gamma >= 0.
    """

    a_bg: float
    gamma: float
    e_res: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.a_bg, self.gamma, self.e_res))):
            raise ValueError("resonance parameters must be finite")
        if self.a_bg == 0.0 and self.gamma == 0.0:
            raise ValueError("a_bg = gamma = 0 makes a_eff vanish at every E")

    @property
    def det(self):
        return self.gamma * (1.0 - self.a_bg * self.gamma
                             + self.a_bg * self.a_bg * self.e_res)

    @property
    def breakpoints(self):
        if self.a_bg == 0.0 or self.gamma == 0.0:
            return ()
        return (self.e_res - self.gamma / self.a_bg,)  # the a_eff zero

    def a_eff(self, e):
        return resonance_a_eff(e, self.a_bg, self.gamma, self.e_res)

    def inv_a_eff(self, e):
        num = self.a_bg * (e - self.e_res) + self.gamma
        if num == 0.0:
            raise PoleSignal("1/a_eff pole at E = %.17g" % e, e)
        return ((e - self.e_res) - self.a_bg * self.gamma * e) / num


@dataclass(frozen=True)
class EnergyDependent(InteractionModel):
    """Any a_eff(E), with its zeros listed as breakpoints."""

    a_eff: object
    breakpoints: tuple = ()

    def inv_a_eff(self, e):
        v = self.a_eff(e)
        if v == 0.0:
            raise PoleSignal("1/a_eff pole at E = %.17g" % e, e)
        return 1.0 / v


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


@lru_cache(maxsize=POLE_CACHE_SIZE)
def _window_walk(eta, x_lo, x_hi):
    # the walk over [x_lo, x_hi] that every cell of a window shares: cuts
    # (+inf for the bound branch, then F's poles in x, descending, past
    # x_lo so the lowest interval is bounded; the pole at 0 always), F's
    # residues there, and the memo of F that eigenenergies' cells fill
    if x_lo >= 0:
        poles, residues = (0.0,), (eta,)
    else:
        grid = pole_grid(eta, x_lo - 2.0 * eta - 2.0)
        poles, residues = grid.poles, grid.residues
    return (math.inf, *poles), dict(zip(poles, residues)), {}


def _check_max_levels(n):
    # islice's own error names neither the argument nor the function
    if not (hasattr(n, "__index__") and n.__index__() >= 0):
        raise ValueError("max_levels must be a nonnegative integer, not %r"
                         % (n,))


def _branch_index(poles, x):
    # the number of poles (descending) at or above x - POLE_TOL
    return bisect_right(poles, POLE_TOL - x, key=neg)


def _ordered_roots(cuts, lo, hi, solve, residues=None, want=None):
    """Yield the roots between consecutive cuts, in ascending E.

    cuts run in ascending E, in the coordinate solve works in (x falls as
    E rises, so cuts in x descend).  Each interval is kept EDGE_CLEARANCE
    off its cuts and clipped to [lo, hi] as a segment (a, b, pole_a, pole_b);
    residues maps a cut that is a pole of the target to its residue there,
    and pole_a is (cut, residue) when a is that pole's clearance point,
    else None, and likewise pole_b.  solve(segments) returns or yields the
    roots of a list of segments in ascending E.  With want, the number of
    roots the caller takes at most, each segment must hold at most one
    root: solve then gets as many segments at a time as roots are still
    missing, so the walk never solves a segment past the last root taken.
    Without want, it gets one segment at a time.
    """
    residues = residues or {}

    def segments():
        for c1, c2 in zip(cuts, cuts[1:]):
            c_lo, c_hi = min(c1, c2), max(c1, c2)
            a = max(c_lo + EDGE_CLEARANCE, lo)
            b = min(c_hi - EDGE_CLEARANCE, hi)
            if a < b:
                pole_a = (c_lo, residues[c_lo]) if (
                    c_lo in residues and a == c_lo + EDGE_CLEARANCE) else None
                pole_b = (c_hi, residues[c_hi]) if (
                    c_hi in residues and b == c_hi - EDGE_CLEARANCE) else None
                yield (a, b, pole_a, pole_b)

    walk = segments()
    found = 0
    while True:
        chunk = list(islice(walk, 1 if want is None
                            else max(1, want - found)))
        if not chunk:
            return
        for root in solve(chunk):
            found += 1
            yield root


def _pole_weight(pole_a, pole_b):
    # a weight that is positive between the poles and vanishes linearly at
    # them, scaled so that the target times it tends to the residue at
    # pole_a and to minus the residue at pole_b; None without poles
    if pole_a is None and pole_b is None:
        return None
    if pole_b is None:
        (p1, _) = pole_a
        return lambda y: y - p1
    if pole_a is None:
        (p2, _) = pole_b
        return lambda y: p2 - y
    (p1, _), (p2, _) = pole_a, pole_b
    width = p2 - p1
    return lambda y: (y - p1) * (p2 - y) / width


def _near_pole_end(root, br, pole_a, pole_b):
    # the root lies within a few of find_root_bracketed's tolerances of an
    # end whose value is a residue, not an evaluation
    slack = 4.0 * (ROOT_TOL + 4.0 * 2.0 ** -52 * abs(root))
    return ((pole_a is not None and root - br.lo <= slack)
            or (pole_b is not None and br.hi - root <= slack))


def _brackets(f_many, segments, ends):
    # the sign-change bracket of f_many on each segment, or None where its
    # ends show no sign change; ends holds each segment's (f(a), f(b)),
    # None where unknown, and the unknown ones are evaluated in one f_many
    # call
    xs, which = [], []
    for i, ((a, b, _, _), known) in enumerate(zip(segments, ends)):
        for x, fx in zip((a, b), known):
            if fx is None:
                xs.append(x)
                which.append(i)
    values = iter(f_many(xs, which) if xs else ())
    out = []
    for (a, b, _, _), (f_a, f_b) in zip(segments, ends):
        f_a = next(values) if f_a is None else f_a
        f_b = next(values) if f_b is None else f_b
        try:
            # both end values known: bracket_from_signs evaluates nothing
            out.append(bracket_from_signs(None, a, b, f_a, f_b))
        except NumericsError:
            out.append(None)
    return out


def _roots_in_segments(target, segments, ends=None):
    # the roots of a target monotone on each segment, at most one each, as
    # (root, bracket) pairs in segment order; target maps a list of points
    # to the list of its values there.  A segment end next to a pole
    # (pole_a, pole_b as _ordered_roots passes them) takes the residue
    # limit of the pole-cleared target as its value; where the root comes
    # out next to such an end, it stays only if the plain target there
    # has the limit's sign (all such ends in one target call).  ends, if
    # given, holds each segment's known pole-cleared end values instead.
    weights = [_pole_weight(pa, pb) for _, _, pa, pb in segments]

    def cleared(xs, which):
        values = target(xs)
        for k, i in enumerate(which):
            if weights[i] is not None:
                values[k] *= weights[i](xs[k])
        return values

    if ends is None:
        ends = [(pa and pa[1], pb and -pb[1]) for _, _, pa, pb in segments]
    brs = _brackets(cleared, segments, ends)
    roots = find_roots_bracketed(cleared, brs, tol=ROOT_TOL)
    checks = []  # (segment, end, residue limit) of each root next to one
    for i, (root, br, (_, _, pa, pb)) in enumerate(zip(roots, brs, segments)):
        if root is not None and _near_pole_end(root, br, pa, pb):
            at_lo = pb is None or (pa is not None
                                   and root - br.lo < br.hi - root)
            checks.append((i, br.lo, br.f_lo) if at_lo
                          else (i, br.hi, br.f_hi))
    if checks:
        fxs = target([x for _, x, _ in checks])
        for (i, _, limit), fx in zip(checks, fxs):
            if fx * limit <= 0.0:  # the root lies between the pole and x
                roots[i] = None
    return [(root, br) for root, br in zip(roots, brs) if root is not None]


def _check_window(window):
    # a window's (e_lo, e_hi); ValueError unless both are finite and
    # e_lo < e_hi, as an unbounded one holds poles without end
    e_lo, e_hi = window
    if not (math.isfinite(e_lo) and math.isfinite(e_hi) and e_lo < e_hi):
        raise ValueError("window must be a bounded interval")
    return e_lo, e_hi


def eigenenergies(model, g, window=None, max_levels=20):
    """Levels of the fixed-a eigencondition inside an energy window.

    One root per pole interval of F (monotonicity gives uniqueness); the
    intervals are walked in ascending E and the walk stops at the
    max_levels-th level.  With a = 0 the levels are the noninteracting pole
    energies, tagged as such.
    """
    if not isinstance(model, FixedLength):
        raise ValueError("eigenenergies needs a fixed model; "
                         "use solve_self_consistent")
    _check_max_levels(max_levels)
    if window is None:
        window = _default_window(g, max_levels, (model.inv_a,))
    e_lo, e_hi = _check_window(window)
    e0 = ground_energy_offset(g)
    x_lo = (e0 - e_hi) / 2.0
    x_hi = (e0 - e_lo) / 2.0

    cuts, pole_res, known = _window_walk(g.eta, x_lo, x_hi)
    poles = cuts[1:]
    if model.noninteracting:
        out = [EnergyLevel(E=e0 - 2.0 * p, x=p,
                           branch_index=_branch_index(poles, p),
                           noninteracting=True)
               for p in poles if x_lo <= p <= x_hi]
        return out[:max_levels]

    shift = SQRT_2PI * model.inv_a
    fresh = []  # the chunk's segments between two poles, Brent not started

    def target(xs):
        # F + sqrt(2 pi)/a, F from the memo where it has x; F at a window
        # edge, or at the fresh segments' first points (one round), goes in
        if known.keys().isdisjoint(xs):
            fs = f_values(xs, g.eta)
        else:
            fs = [known.get(x) for x in xs]
            todo = [x for x, f in zip(xs, fs) if f is None]
            new = iter(f_values(todo, g.eta) if todo else ())
            fs = [next(new) if f is None else f for f in fs]
        if x_lo in xs or x_hi in xs:
            known.update((x, f) for x, f in zip(xs, fs) if x in (x_lo, x_hi))
        if fresh:
            first = [(x, f) for x, f in zip(xs, fs)
                     if any(a < x < b for a, b in fresh)]
            if first:
                known.update(first)
                fresh.clear()
        return [f + shift for f in fs]

    def solve(chunk):
        fresh[:] = [(a, b) for a, b, pa, pb in chunk if pa and pb]
        return _roots_in_segments(target, chunk)

    # the bound branch x in (0, x_hi] first: F falls from +inf there
    roots = _ordered_roots(cuts, x_lo, x_hi, solve, residues=pole_res,
                           want=max_levels)
    return _levels(roots, e0, poles, (e_lo, e_hi), max_levels)


def _levels(roots, e0, poles, window, max_levels):
    # the EnergyLevel of each (x, x bracket) root whose E lies in the
    # window, up to max_levels of them; E = E0 - 2x reverses orientation,
    # so the bracket's ends and their signs swap
    e_lo, e_hi = window
    levels = (EnergyLevel(E=e0 - 2.0 * x, x=x,
                          bracket=RootBracket(e0 - 2.0 * br.hi,
                                              e0 - 2.0 * br.lo,
                                              br.f_hi_sign, br.f_lo_sign),
                          branch_index=_branch_index(poles, x))
              for x, br in roots if e_lo <= e0 - 2.0 * x <= e_hi)
    return list(islice(levels, max_levels))


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
    e_lo, e_hi = _check_window(window)
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

    def target(ys):
        return [gamma_ratio(y, y + 0.5) - rhs for y in ys]

    ys = _ladder_roots(target, 0.5, (e0 - e_hi) / 2.0, (e0 - e_lo) / 2.0)
    return [e for e in (e0 - 2.0 * y for y in ys) if e_lo <= e <= e_hi]


def spectrum_2d_reference(a2d, g, window):
    """Levels of the strictly 2D contact problem with length a2d.

    psi((E0 - E)/(2 eta)) + log(2 a2d^2 eta) = 0; the digamma is strictly
    increasing from -inf to +inf on every pole interval, so each interval
    holds exactly one level.
    """
    if not a2d > 0:
        raise ValueError("a2d must be positive")
    e_lo, e_hi = _check_window(window)
    e0 = ground_energy_offset(g)
    c = math.log(2.0 * a2d * a2d * g.eta)

    def target(qs):
        return [digamma(q) + c for q in qs]

    qs = _ladder_roots(target, 1.0, (e0 - e_hi) / (2.0 * g.eta),
                       (e0 - e_lo) / (2.0 * g.eta))
    return [e for e in (e0 - 2.0 * g.eta * q for q in qs) if e_lo <= e <= e_hi]


def _ladder_roots(target, step, lo, hi):
    # the roots in [lo, hi], descending, of a target monotone between the
    # cuts +inf, 0, -step, -2 step, ...: the branch above 0 first
    cuts = [math.inf, 0.0]
    while cuts[-1] > lo:
        cuts.append(cuts[-1] - step)
    return [y for y, _ in _ordered_roots(
        cuts, lo, hi, partial(_roots_in_segments, target), want=len(cuts))]


def bound_state_exact(model, g):
    """Lowest level below E0 from the full eigencondition (x > 0 root).

    The search interval grows geometrically until the condition changes
    sign; F spans (+inf, -inf) on x > 0, so any a != 0 yields a root, found
    by eigenenergies' pole-cleared search on that one segment (NumericsError
    when it lies inside the edge clearance of the pole x = 0).
    """
    if not isinstance(model, FixedLength):
        raise ValueError("bound_state_exact needs a fixed model")
    if model.noninteracting:
        raise NoBoundState("a = 0 has no level below E0")
    e0 = ground_energy_offset(g)
    inv_a = model.inv_a
    shift = SQRT_2PI * inv_a

    def target(xs):
        return [f + shift for f in f_values(xs, g.eta)]

    # the bracket grows on x times the target, which tends to eta at x = 0
    br = _bracket_by_doubling(lambda x: target([x])[0] * x, EDGE_CLEARANCE,
                              max(1.0, 0.75 * inv_a * inv_a), 1e7, f_lo=g.eta)
    found = _roots_in_segments(target, [(br.lo, br.hi, (0.0, g.eta), None)],
                               ends=[(br.f_lo, br.f_hi)])
    if not found:
        raise NumericsError("no sign change on [%g, %g]" % (br.lo, br.hi))
    return _levels(found, e0, (0.0,), (-math.inf, math.inf), 1)[0]


def _bracket_by_doubling(target, lo, hi, limit, sign=1.0, f_lo=None):
    # target has the sign `sign` between lo and its one root above lo;
    # double hi until it lies past the root
    f_hi = target(hi)
    while sign * f_hi > 0:
        hi *= 2.0
        if hi > limit:
            raise NoBoundState("no sign change up to %g" % hi)
        f_hi = target(hi)
    return bracket_from_signs(target, lo, hi, f_lo=f_lo, f_hi=f_hi)


def bound_state_quasi1d(a, g):
    """Bound level of the tight cigar asymptote.

    Solves sqrt(2)/a + sqrt(eta) zeta(1/2, q) = 0 with q = (E0 - E)/(2 eta);
    the zeta is strictly decreasing from +inf to -inf on q > 0.
    """
    if a == 0:
        raise ValueError("a must be nonzero")
    if g.eta < QUASI1D_MIN_ETA:
        warnings.warn("quasi-1d bound state asked for eta = %g < %g"
                      % (g.eta, QUASI1D_MIN_ETA), stacklevel=2)
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
    if g.eta > QUASI2D_MAX_ETA:
        warnings.warn("quasi-2d bound state asked for eta = %g > %g"
                      % (g.eta, QUASI2D_MAX_ETA), stacklevel=2)
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


def solve_self_consistent(model, g, window=None, max_levels=20):
    """Levels of F(x, eta) + sqrt(2 pi)/a_eff(E) = 0, a_eff energy-dependent.

    Search intervals are delimited by the F poles and the a_eff zeros (poles
    of 1/a_eff), clipped by the window ends, and walked in x as eigenenergies
    walks them, in ascending E, until max_levels levels are found.  F rises
    in E between its poles, and so does 1/a_eff of a Resonance with
    det >= 0: each interval then holds at most one root, found by one
    bracketed search on F's residues.  Other models (det < 0,
    EnergyDependent) can hold several, found in ascending E on a sign-scan
    grid that must keep its root count when its resolution is doubled
    (else a diagnostic error is raised).
    """
    if not isinstance(model, (Resonance, EnergyDependent)):
        raise ValueError("solve_self_consistent needs an "
                         "energy-dependent model")
    _check_max_levels(max_levels)
    e0 = ground_energy_offset(g)
    if window is None:
        # no fixed 1/a pins the lowest level: 1/a_eff far below E0 can
        # exceed 2, so the floor also reaches E0 - 70.  A zero of a_eff can
        # leave a pole interval without a level, so the ceiling holds two
        # spare ones.
        lo, hi = _default_window(g, max_levels + 2, (-2.0, 2.0))
        window = (min(lo, e0 - 70.0), hi)
    e_lo, e_hi = _check_window(window)
    x_lo = (e0 - e_hi) / 2.0
    x_hi = (e0 - e_lo) / 2.0

    def target(xs):
        return [f + SQRT_2PI * model.inv_a_eff(e0 - 2.0 * x)
                for f, x in zip(f_values(xs, g.eta), xs)]

    # cuts in x: +inf for the bound branch, then the F poles and the a_eff
    # zeros, descending.  An F pole that is also an a_eff zero gets no
    # residue: there it is evaluated.
    walk, residues, _ = _window_walk(g.eta, x_lo, x_hi)
    poles = walk[1:]
    zeros = {(e0 - b) / 2.0 for b in model.breakpoints}
    pole_res = {p: r for p, r in residues.items() if p not in zeros}
    cuts = (math.inf, *sorted(zeros.union(poles), reverse=True))
    if isinstance(model, Resonance) and model.det >= 0.0:
        solve, want = partial(_roots_in_segments, target), max_levels
    else:
        solve, want = (lambda chunk: _scan_roots(target, *chunk[0])), None
    roots = _ordered_roots(cuts, x_lo, x_hi, solve, residues=pole_res,
                           want=want)
    return _levels(roots, e0, poles, (e_lo, e_hi), max_levels)


def _scan_roots(target, lo, hi, pole_a=None, pole_b=None):
    # every root on [lo, hi], once a grid twice as fine finds as many, in
    # descending coordinate (ascending E); the scan evaluates its ends, so
    # the poles are not used.  Each grid is one target call; the roots are
    # solved one at a time, as they are taken.
    for n in (SCAN_POINTS, 8 * SCAN_POINTS):
        brackets = _scan_sign_changes(target, lo, hi, n)
        if len(brackets) == len(_scan_sign_changes(target, lo, hi, 2 * n + 1)):
            break
    else:
        raise NumericsError("unresolved oscillation of the self-consistent "
                            "condition on [%g, %g]" % (lo, hi))
    for br in reversed(brackets):
        yield find_root_bracketed(lambda x: target([x])[0], br,
                                  tol=ROOT_TOL), br


def _scan_sign_changes(target, lo, hi, n):
    step = (hi - lo) / n
    ts = [lo] + [lo + i * step for i in range(1, n + 1)]
    vs = target(ts)
    return [bracket_from_signs(None, t0, t1, v0, v1)
            for t0, t1, v0, v1 in zip(ts, ts[1:], vs, vs[1:])
            if v0 != 0.0 and v1 != 0.0 and (v1 > 0.0) != (v0 > 0.0)]
