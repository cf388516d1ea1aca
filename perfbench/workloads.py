"""Seeded workloads for the pairtrap benchmark: input streams, requests, checks.

Each workload has three parts:

* ``stream(seed)`` yields request inputs (plain JSON-able dicts).  Anything
  the generator needs from pairtrap itself, such as the energy window that
  ``pairtrap fig1`` would pick, is computed here, outside the timed region.
* ``request(inp)`` is one request against the public ``pairtrap`` API.  It
  looks every function up on the module at call time, so the traced run's
  wrappers see the call.  It returns a JSON-able answer.
* ``check(inp, answer)`` returns a list of failure messages (empty when the
  answer is right).  Checks run after the timed loop.
"""

import math
import random
from dataclasses import dataclass

import pairtrap as pt

SQRT_2PI = math.sqrt(2.0 * math.pi)
SIGN_REL = 1e-9          # the eigencondition must change sign within this
PSI_REL = 1e-6           # route agreement bound of `pairtrap check`
# Worst |grid norm / norm_squared_exact - 1| seen for the graded grids over
# the wavefunction domain is 0.106 (eta = 100, 1/a = 1; pancakes stay below
# 0.05); see perfbench/README.md.  The bound leaves room above that, no more.
NORM_REL = 0.15
# The quasi-1D/2D profiles are asymptotic: over the profile points of the
# domain they differ from the exact psi by up to 0.53 (eta = 0.1, 1/a = 1,
# z = 0.5); see perfbench/README.md.  The check catches sign, scale and NaN
# faults only.
PROFILE_REL = 0.6
SERIES = pt.SeriesTruncation(max_terms=20000, tail_tol=1e-11)
SERIES_TIGHT = pt.SeriesTruncation(max_terms=40000, tail_tol=1e-13)

CELLS_PER_ETA = 4        # fig1 cells answered per anisotropy, as in a sweep
SPECTRUM_LEVELS = 6
RESONANCE_LEVELS = 2
GRID_POINTS = {True: 24, False: 16}   # per axis, for cigars and pancakes


# ---------------------------------------------------------------------------
# input generation
# ---------------------------------------------------------------------------

def _rng(name, seed):
    return random.Random("%s:%d" % (name, seed))


def _near_closed_form(eta, gap=1e-3):
    return (abs(eta - round(eta)) < gap
            or abs(1.0 / eta - round(1.0 / eta)) < gap)


def _latin(rng, n, dims):
    """Endless stream of stratum-index tuples, `dims` coordinates each.

    In every pass of n draws each coordinate visits each of its n equal
    strata once (a Latin hypercube), so a run of a few passes covers every
    range evenly whatever the seed.
    """
    while True:
        yield from zip(*[rng.sample(range(n), n) for _ in range(dims)])


def _in(rng, stratum, n, lo, hi):
    """Uniform draw from stratum `stratum` of n equal parts of [lo, hi)."""
    return lo + (hi - lo) * (stratum + rng.random()) / n


def _log_in(rng, stratum, n, lo, hi):
    return math.exp(_in(rng, stratum, n, math.log(lo), math.log(hi)))


def _generic_eta(rng, stratum, n):
    # log-uniform on [1/4, 4], at least 1e-3 away from integer eta and 1/eta
    while True:
        eta = _log_in(rng, stratum, n, 0.25, 4.0)
        if not _near_closed_form(eta):
            return eta


def fig1_window(eta, levels, inv_extremes):
    """Energy window `pairtrap fig1` / `spectrum` picks for this sweep.

    The floor sits 1 below the bound level at the 1/a extremes, the ceiling
    a level spacing above `levels` noninteracting spacings over E0.
    """
    e0 = 0.5 + eta
    spacing = min(1.0, eta)
    lo, hi = e0 - 4.0, e0 + 2.0 * levels * spacing + spacing
    g = pt.TrapGeometry(eta)
    for inv_a in sorted(set(inv_extremes)):
        level = pt.bound_state_exact(pt.InteractionModel.from_inverse_a(inv_a), g)
        lo = min(lo, level.E - 1.0)
    return [lo, hi]


def _spectrum_stream(rng, etas):
    # a block of cells per eta, 1/a stratified over [-4, 4] like a sweep
    for eta in etas:
        window = fig1_window(eta, SPECTRUM_LEVELS, (-4.0, 4.0))
        for s in rng.sample(range(CELLS_PER_ETA), CELLS_PER_ETA):
            yield {"eta": eta,
                   "inv_a": _in(rng, s, CELLS_PER_ETA, -4.0, 4.0),
                   "window": window, "levels": SPECTRUM_LEVELS}


def spectrum_generic_stream(seed):
    rng = _rng("spectrum_generic", seed)
    return _spectrum_stream(rng, (_generic_eta(rng, s, 8)
                                  for (s,) in _latin(rng, 8, 1)))


CLOSED_FORM_ETAS = ([float(n) for n in range(2, 13)]
                    + [1.0 / n for n in range(2, 13)])


def spectrum_closed_form_stream(seed):
    rng = _rng("spectrum_closed_form", seed)
    n = len(CLOSED_FORM_ETAS)
    return _spectrum_stream(rng, (CLOSED_FORM_ETAS[s]
                                  for (s,) in _latin(rng, n, 1)))


def wavefunction_stream(seed):
    # cigar and pancake states alternate; in every 8 requests each regime
    # visits 4 strata of its log-eta range and 4 strata of 1/a in [-1, 1]
    rng = _rng("wavefunction", seed)
    for s_cigar, s_pancake, s_a, s_b in _latin(rng, 4, 4):
        yield {"eta": _log_in(rng, s_cigar, 4, 10.0, 100.0),
               "inv_a": _in(rng, s_a, 4, -1.0, 1.0)}
        yield {"eta": _log_in(rng, s_pancake, 4, 0.01, 0.1),
               "inv_a": _in(rng, s_b, 4, -1.0, 1.0)}


def resonance_stream(seed):
    rng = _rng("resonance", seed)
    for s_eta, s_bg, s_gamma, s_res in _latin(rng, 8, 4):
        eta = _generic_eta(rng, s_eta, 8)
        e0 = 0.5 + eta
        yield {"eta": eta,
               "a_bg": _in(rng, s_bg, 8, -1.5, 1.5),
               "gamma": _in(rng, s_gamma, 8, 0.1, 1.0),
               "e_res": e0 + 2.0 * min(1.0, eta) * _in(rng, s_res, 8, 0.0, 3.0),
               "window": fig1_window(eta, RESONANCE_LEVELS, (-2.0, 2.0)),
               "levels": RESONANCE_LEVELS}


# ---------------------------------------------------------------------------
# requests
# ---------------------------------------------------------------------------

def _levels_answer(levels):
    return {"E": [lv.E for lv in levels], "x": [lv.x for lv in levels]}


def spectrum_request(inp):
    levels = pt.eigenenergies(pt.InteractionModel.from_inverse_a(inp["inv_a"]),
                              pt.TrapGeometry(inp["eta"]),
                              window=tuple(inp["window"]),
                              max_levels=inp["levels"])
    return _levels_answer(levels)


def resonance_request(inp):
    model = pt.InteractionModel.from_resonance(inp["a_bg"], inp["gamma"],
                                               inp["e_res"])
    levels = pt.solve_self_consistent(model, pt.TrapGeometry(inp["eta"]),
                                      window=tuple(inp["window"]),
                                      max_levels=inp["levels"])
    return _levels_answer(levels)


def _graded(extent, first, n, with_zero):
    """n points up to `extent`, spacing growing like sinh from about `first`.

    With `with_zero` the points start at 0, otherwise at the first step.
    """
    steps = n - 1 if with_zero else n
    lo, hi = 1e-9, 60.0
    for _ in range(80):
        b = 0.5 * (lo + hi)
        if extent * math.sinh(b / steps) / math.sinh(b) > first:
            lo = b
        else:
            hi = b
    start = 0 if with_zero else 1
    return [extent * math.sinh(b * i / steps) / math.sinh(b)
            for i in range(start, steps + 1)]


def trap_grid(eta, E):
    """(rho, z) tensor grid for a bound pair state at energy E.

    GRID_POINTS per axis, reaching 4.5 trap lengths on each axis (and at
    least 4.5 axial lengths, where normalize's contact-core model lives);
    the first step resolves the shorter of the trap length and the binding
    length 1/kappa, kappa = sqrt(2 (E0 - E)).
    """
    kappa = math.sqrt(2.0 * (0.5 + eta - E))
    len_rho = 1.0 / math.sqrt(eta)
    n = GRID_POINTS[eta >= 1.0]
    rhos = _graded(max(4.5 * len_rho, 4.5),
                   0.25 * min(1.0 / kappa, len_rho, 1.0), n, False)
    zs = _graded(4.5, 0.25 * min(1.0 / kappa, 1.0), n, True)
    return rhos, zs


def profile_points(eta):
    """On-axis (z, rho) coordinates of the asymptotic profile, in `fig2`'s
    ranges; the pancake radial points start at 0.75, not 0.25, to keep
    pancake and cigar requests about equally costly."""
    if eta >= 1.0:
        scale = math.sqrt(100.0 / eta)
        return [0.05, 0.5, 1.25], [0.005 * scale, 0.05 * scale, 0.1 * scale]
    return [0.025, 0.25, 0.5], [0.75, 3.0, 6.0]


def excited_points(eta):
    """Off-axis points where psi of the first level above E0 is evaluated."""
    len_rho = 1.0 / math.sqrt(eta)
    return [(0.5 * len_rho, 0.5), (len_rho, 1.0)]


def check_indices(eta, coords, values):
    """Two off-axis grid samples re-evaluated by the geometry's series route.

    Of the samples within 1e-3 of the peak |psi|, take the one farthest out
    along the axis the series decays in (z for cigars, rho for pancakes),
    where the series converges fastest, and the median one of that set.
    """
    peak = max(abs(v) for v in values)
    axis = 1 if eta >= 1.0 else 0
    ok = [i for i, (c, v) in enumerate(zip(coords, values))
          if c[0] > 0.0 and c[1] > 0.0 and abs(v) >= 1e-3 * peak]
    ok.sort(key=lambda i: coords[i][axis])
    return [ok[-1], ok[len(ok) // 2]]


def wavefunction_request(inp):
    eta = inp["eta"]
    g = pt.TrapGeometry(eta)
    model = pt.InteractionModel.from_inverse_a(inp["inv_a"])
    E = pt.bound_state_exact(model, g).E
    rhos, zs = trap_grid(eta, E)
    samples = pt.sample_grid(rhos, zs, E, g)
    normed = pt.normalize(samples, g)
    norm2 = pt.norm_squared_exact(E, g)
    profile = pt.profile_quasi1d if eta >= 1.0 else pt.profile_quasi2d
    axial, radial = profile_points(eta)
    e0 = 0.5 + eta
    excited = pt.eigenenergies(model, g, window=(e0, e0 + 2.0 * min(1.0, eta)),
                               max_levels=1)
    E1 = excited[0].E
    return {
        "E": E,
        "grid_norm2": normed.norm_constant ** 2,
        "exact_norm2": norm2,
        "psi": list(samples.values),
        "axial": [profile("axial", z, E, g) for z in axial],
        "radial": [profile("radial", r, E, g) for r in radial],
        "E1": E1,
        "psi1": [pt.psi(r, z, E1, g, trunc=SERIES)
                 for r, z in excited_points(eta)],
    }


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def _rel(a, b):
    return abs(a / b - 1.0) if b != 0.0 else abs(a)


def _distinct_poles_between(x_lo, x_hi, eta):
    """Number of distinct F poles x = -(j + k eta) strictly inside (x_lo, x_hi)."""
    vals = []
    k = 0
    while k * eta < -x_lo:
        j = 0
        while j + k * eta < -x_lo:
            p = -(j + k * eta)
            if x_lo < p < x_hi:
                vals.append(p)
            j += 1
        k += 1
    vals.sort()
    return sum(1 for i, v in enumerate(vals) if i == 0 or v - vals[i - 1] > 1e-12)


def _sign_change(fn, E):
    d = SIGN_REL * max(1.0, abs(E))
    lo, hi = fn(E - d), fn(E + d)
    return (lo < 0.0) != (hi < 0.0) and lo != 0.0 and hi != 0.0


def _spectrum_condition(inp, route):
    eta, inv_a = inp["eta"], inp["inv_a"]
    e0 = 0.5 + eta

    def target(E):
        arg = pt.SpectralArgument(0.5 * (e0 - E), eta)
        return route(arg).value + SQRT_2PI * inv_a

    return target


def _check_levels(inp, ans, want_count):
    errs = []
    es = ans["E"]
    if want_count is not None and len(es) != want_count:
        errs.append("%d levels, want %d" % (len(es), want_count))
    if not es:
        errs.append("no levels")
    if any(b <= a for a, b in zip(es, es[1:])):
        errs.append("levels not ascending")
    lo, hi = inp["window"]
    if any(not lo <= e <= hi for e in es):
        errs.append("level outside the window")
    return errs


def spectrum_check(inp, ans, independent_route=False):
    errs = _check_levels(inp, ans, inp["levels"])
    if errs:
        return errs
    xs = ans["x"]
    if not xs[0] > 0.0:
        errs.append("lowest level is not the bound level")
    for a, b in zip(xs[1:], xs):
        n = _distinct_poles_between(a, b, inp["eta"])
        if n != 1:
            errs.append("%d poles between levels at x = %.12g and %.12g"
                        % (n, a, b))
    routes = [pt.f_eval]
    if independent_route:
        routes.append(pt.f_recurrence_extend)
    for route in routes:
        target = _spectrum_condition(inp, route)
        for E in ans["E"]:
            if not _sign_change(target, E):
                errs.append("%s: no sign change at E = %.15g"
                            % (route.__name__, E))
    return errs


def closed_form_check(inp, ans):
    return spectrum_check(inp, ans, independent_route=True)


def resonance_check(inp, ans):
    errs = _check_levels(inp, ans, None)
    if errs:
        return errs
    eta = inp["eta"]
    e0 = 0.5 + eta
    model = pt.InteractionModel.from_resonance(inp["a_bg"], inp["gamma"],
                                               inp["e_res"])

    def target(E):
        arg = pt.SpectralArgument(0.5 * (e0 - E), eta)
        return pt.f_eval(arg).value + SQRT_2PI * model.inv_a_eff(E)

    for E in ans["E"]:
        if not _sign_change(target, E):
            errs.append("no sign change at E = %.15g" % E)
    return errs


def wavefunction_check(inp, ans):
    errs = []
    eta = inp["eta"]
    g = pt.TrapGeometry(eta)
    e0 = 0.5 + eta
    E, E1 = ans["E"], ans["E1"]
    target = _spectrum_condition(inp, pt.f_eval)
    if not (E < e0 and _sign_change(target, E)):
        errs.append("ground level E = %.15g fails the eigencondition" % E)
    if not (e0 < E1 < e0 + 2.0 * min(1.0, eta) and _sign_change(target, E1)):
        errs.append("first excited level E1 = %.15g is wrong" % E1)
    series = "radial_series" if eta >= 1.0 else "axial_series"
    rhos, zs = trap_grid(eta, E)
    coords = [(rho, z) for z in zs for rho in rhos]
    for i in check_indices(eta, coords, ans["psi"]):
        (rho, z), value = coords[i], ans["psi"][i]
        other = pt.psi(rho, z, E, g, route=series, trunc=SERIES_TIGHT)
        if not _rel(value, other) <= PSI_REL:
            errs.append("grid psi(%.6g, %.6g) = %.15g, %s gives %.15g"
                        % (rho, z, value, series, other))
    if not _rel(ans["grid_norm2"], ans["exact_norm2"]) <= NORM_REL:
        errs.append("grid norm^2 %.10g vs exact %.10g"
                    % (ans["grid_norm2"], ans["exact_norm2"]))
    axial, radial = profile_points(eta)
    for axis, points, values in (("axial", axial, ans["axial"]),
                                 ("radial", radial, ans["radial"])):
        for c, v in zip(points, values):
            rho, z = (0.0, c) if axis == "axial" else (c, 0.0)
            exact = pt.psi_integral(rho, z, E, g)
            if not (math.isfinite(v) and _rel(v, exact) <= PROFILE_REL):
                errs.append("%s profile at %.6g: %.10g vs exact %.10g"
                            % (axis, c, v, exact))
    for (rho, z), value in zip(excited_points(eta), ans["psi1"]):
        tight = pt.psi(rho, z, E1, g, trunc=SERIES_TIGHT)
        if not _rel(value, tight) <= PSI_REL:
            errs.append("excited psi(%.6g, %.6g) = %.15g, tighter series %.15g"
                        % (rho, z, value, tight))
    return errs


@dataclass(frozen=True)
class Workload:
    """One named workload: input stream, request, output check, and the
    number of requests its traced run answers."""

    name: str
    stream: object
    request: object
    check: object
    trace_requests: int
    why: str


WORKLOADS = {w.name: w for w in (
    Workload("spectrum_generic", spectrum_generic_stream, spectrum_request,
             spectrum_check, 24,
             "Fig. 1 cells at generic anisotropy: F by quadrature and the "
             "recurrence under Brent root search"),
    Workload("spectrum_closed_form", spectrum_closed_form_stream,
             spectrum_request, closed_form_check, 88,
             "Fig. 1 cells at integer eta or 1/eta: F from the specfun closed "
             "forms, no quadrature"),
    Workload("wavefunction", wavefunction_stream, wavefunction_request,
             wavefunction_check, 8,
             "Fig. 2 pair states: wavefn grids, norms, profiles and cold "
             "series; the solver barely runs"),
    Workload("resonance", resonance_stream, resonance_request,
             resonance_check, 8,
             "self-consistent resonance levels: dense fixed-grid sign scans "
             "of F instead of bracketed roots"),
)}
