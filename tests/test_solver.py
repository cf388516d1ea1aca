"""Eigenenergy solver against frozen 50-digit root tables."""

import math
import re
from functools import partial

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from conftest import fval, oracle_lines, oracle_values
from pairtrap import solver
from pairtrap.solver import (EnergyLevel, InteractionModel, NoBoundState,
                             TrapGeometry, a1d_effective, a2d_effective,
                             bound_state_exact, bound_state_quasi1d,
                             bound_state_quasi2d, eigenenergies,
                             ground_energy_offset, resonance_a_eff,
                             solve_self_consistent, spectrum_1d_reference,
                             spectrum_2d_reference)
from pairtrap.specfun import PoleSignal
from pairtrap.spectral import SpectralArgument, f_eval, pole_grid

ORA = oracle_values("solver_oracle.out")
SQRT_2PI = math.sqrt(2.0 * math.pi)


def _close(got, want, rel, abs_floor=0.0):
    assert abs(got - want) <= rel * abs(want) + abs_floor, \
        "got %.17g want %.17g" % (got, want)


def _ladder(eta, a, e_lo, e_hi, n):
    g = TrapGeometry(eta)
    return eigenenergies(InteractionModel.fixed(a), g,
                         window=(e_lo, e_hi), max_levels=n)


# ---------------------------------------------------------------------------
# spherical trap, three lowest levels for five scattering lengths
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("a", [1.0, -0.1, -2.0, 0.1, 0.05])
def test_spherical_levels_frozen(a):
    tag = "%g" % a
    want = [(fval(ORA, "sph_bound_E(a=%s)" % tag),
             fval(ORA, "sph_bound_x(a=%s)" % tag)),
            (fval(ORA, "sph_E1(a=%s)" % tag),
             fval(ORA, "sph_x1(a=%s)" % tag)),
            (fval(ORA, "sph_E2(a=%s)" % tag),
             fval(ORA, "sph_x2(a=%s)" % tag))]
    levels = _ladder(1.0, a, want[0][0] - 0.5, want[2][0] + 0.4, 3)
    assert len(levels) == 3
    for lv, (e_want, x_want) in zip(levels, want):
        # deep bound roots live on an lgamma cancellation noise floor,
        # so the comparison is relative
        _close(lv.E, e_want, 5e-12)
        _close(lv.x, x_want, 5e-12, abs_floor=1e-12)
        assert lv.E == pytest.approx(1.5 - 2.0 * lv.x, rel=1e-14)
    assert [lv.branch_index for lv in levels] == [0, 1, 2]
    bound = bound_state_exact(InteractionModel.fixed(a), TrapGeometry(1.0))
    _close(bound.E, want[0][0], 5e-12)
    assert bound.branch_index == 0


@pytest.mark.parametrize("eta,a,prefix", [
    (2.0, -2.0, "eta2"),
    (2.5, 1.0, "eta25"),
])
def test_cigar_levels_frozen(eta, a, prefix):
    tag = "%g" % a
    e_b = fval(ORA, "%s_bound_E(a=%s)" % (prefix, tag))
    e_1 = fval(ORA, "%s_E_x1(a=%s)" % (prefix, tag))
    e_2 = fval(ORA, "%s_E_x2(a=%s)" % (prefix, tag))
    levels = _ladder(eta, a, e_b - 0.5, e_2 + 0.4, 3)
    assert [round(lv.E, 9) for lv in levels] == \
        [round(e, 9) for e in (e_b, e_1, e_2)]
    _close(levels[0].x, fval(ORA, "%s_bound_x(a=%s)" % (prefix, tag)), 5e-12)


@pytest.mark.parametrize("prefix,eta,a", [
    ("eta2", 2.0, 1.0), ("eta05", 0.5, 1.0),
])
def test_bound_state_exact_frozen(prefix, eta, a):
    lv = bound_state_exact(InteractionModel.fixed(a), TrapGeometry(eta))
    _close(lv.E, fval(ORA, "%s_bound_E(a=%g)" % (prefix, a)), 5e-13)
    _close(lv.x, fval(ORA, "%s_bound_x(a=%g)" % (prefix, a)), 5e-13)
    assert lv.branch_index == 0


@pytest.mark.parametrize("eta", [100.0, 0.01])
def test_unitarity_bound_root_frozen(eta):
    lv = bound_state_exact(InteractionModel.from_inverse_a(0.0),
                           TrapGeometry(eta))
    _close(lv.x, fval(ORA, "unitarity_x(eta=%g)" % eta), 5e-13)


# ---------------------------------------------------------------------------
# quasi-1d / quasi-2d bound-state asymptotes (frozen x and pinned error)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("inv_a", [-2.0, -1.0, 0.0, 1.0, 2.0])
def test_bound_quasi1d_frozen(inv_a):
    g = TrapGeometry(100.0)
    tag = "%g" % inv_a
    a = math.inf if inv_a == 0 else 1.0 / inv_a
    e = bound_state_quasi1d(a, g)
    x = (ground_energy_offset(g) - e) / 2.0
    _close(x, fval(ORA, "bs100_q1d_x(inv_a=%s)" % tag), 5e-12)
    exact = bound_state_exact(InteractionModel.from_inverse_a(inv_a), g)
    _close(exact.x, fval(ORA, "bs100_exact_x(inv_a=%s)" % tag), 5e-12)
    rel = abs(x / exact.x - 1.0)
    frozen = fval(ORA, "bs100_relerr(inv_a=%s)" % tag)
    assert 0.95 * frozen <= rel <= 1.05 * frozen


@pytest.mark.parametrize("inv_a", [-2.0, -1.0, 0.0, 1.0, 2.0])
def test_bound_quasi2d_frozen(inv_a):
    g = TrapGeometry(0.01)
    tag = "%g" % inv_a
    a = math.inf if inv_a == 0 else 1.0 / inv_a
    e = bound_state_quasi2d(a, g)
    x = (ground_energy_offset(g) - e) / 2.0
    _close(x, fval(ORA, "bs001_q2d_x(inv_a=%s)" % tag), 5e-11)
    exact = bound_state_exact(InteractionModel.from_inverse_a(inv_a), g)
    _close(exact.x, fval(ORA, "bs001_exact_x(inv_a=%s)" % tag), 5e-11)
    rel = abs(x / exact.x - 1.0)
    frozen = fval(ORA, "bs001_relerr(inv_a=%s)" % tag)
    assert 0.95 * frozen <= rel <= 1.05 * frozen


def test_quasi_bound_regime_warnings():
    with pytest.warns(UserWarning):
        bound_state_quasi1d(1.0, TrapGeometry(2.0))
    with pytest.warns(UserWarning):
        bound_state_quasi2d(1.0, TrapGeometry(0.5))


def test_renormalized_lengths_frozen():
    g = TrapGeometry(100.0)
    _close(a1d_effective(1.0, g), fval(ORA, "a1d(a=1,eta=100)"), 5e-13)
    _close(a1d_effective(math.inf, g), fval(ORA, "a1d(inf,eta=100)"), 5e-13)
    _close(a2d_effective(math.inf), fval(ORA, "a2d(inf)"), 5e-12)
    _close(a2d_effective(1.0), fval(ORA, "a2d(a=1)"), 5e-12)


# ---------------------------------------------------------------------------
# model construction and structural behavior
# ---------------------------------------------------------------------------

def test_trap_geometry_validation():
    assert TrapGeometry(2.0).eta == 2.0
    for bad in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            TrapGeometry(bad)


def test_ground_energy_offset():
    assert ground_energy_offset(TrapGeometry(1.0)) == 1.5
    assert ground_energy_offset(TrapGeometry(100.0)) == 100.5
    assert ground_energy_offset(TrapGeometry(0.01)) == pytest.approx(
        0.51, abs=1e-16)


def test_interaction_model_fixed_roundtrip():
    m = InteractionModel.fixed(0.5)
    assert m.inv_a == pytest.approx(2.0)
    assert not m.noninteracting
    assert InteractionModel.fixed(0.0).noninteracting
    assert InteractionModel.fixed(math.inf).inv_a == 0.0
    assert InteractionModel.from_inverse_a(math.inf).noninteracting


def test_inverse_a_nan_is_rejected():
    # +-inf is a = 0, the noninteracting model; NaN is no model at all and
    # must not be solved as the noninteracting limit
    for inv_a in (math.inf, -math.inf):
        model = InteractionModel.from_inverse_a(inv_a)
        assert model.noninteracting and model.inv_a == math.inf
    with pytest.raises(ValueError, match="NaN"):
        InteractionModel.from_inverse_a(math.nan)


def test_noninteracting_ladder():
    g = TrapGeometry(1.0)
    levels = eigenenergies(InteractionModel.fixed(0.0), g,
                           window=(0.0, 8.0), max_levels=10)
    assert [lv.E for lv in levels] == pytest.approx([1.5, 3.5, 5.5, 7.5])
    assert all(lv.noninteracting for lv in levels)


def test_noninteracting_ladder_anisotropic():
    # poles at E0 + 2(j + k eta), eta = 2.5: offsets 0, 2, 4, 5, 6, 7 ...
    g = TrapGeometry(2.5)
    levels = eigenenergies(InteractionModel.fixed(0.0), g,
                           window=(2.0, 10.5), max_levels=10)
    want = [3.0, 5.0, 7.0, 8.0, 9.0, 10.0]
    assert [lv.E for lv in levels] == pytest.approx(want)


def test_eigenenergies_window_clips():
    levels = _ladder(1.0, 1.0, 2.0, 4.0, 10)
    assert len(levels) == 1
    _close(levels[0].E, fval(ORA, "sph_E1(a=1)"), 1e-12)
    # the default window holds the unitarity ladder E = 1/2 + 2n at eta = 1
    levels = eigenenergies(InteractionModel.fixed(math.inf), TrapGeometry(1.0),
                           max_levels=5)
    assert [lv.E for lv in levels] == pytest.approx(
        [0.5, 2.5, 4.5, 6.5, 8.5], abs=1e-10)


def test_default_window_holds_deep_bound_level():
    # a = 0.1 binds at E = -99.9988, far below E0 - 70
    model, g = InteractionModel.fixed(0.1), TrapGeometry(1.0)
    levels = eigenenergies(model, g, max_levels=3)
    assert len(levels) == 3
    assert abs(levels[0].E - bound_state_exact(model, g).E) < 1e-10


def _pairs(levels):
    return [(lv.E, lv.x) for lv in levels]


@pytest.mark.parametrize("eta", [2.37, 0.37, 3.0])
@pytest.mark.parametrize("inv_a", [-2.0, 0.0, 2.0])
def test_early_stop_is_exact(eta, inv_a):
    # the pole intervals are walked in ascending E, so stopping at k levels
    # gives exactly the first k levels of a longer walk
    model, g = InteractionModel.from_inverse_a(inv_a), TrapGeometry(eta)
    e0 = ground_energy_offset(g)
    e_b = bound_state_exact(model, g).E
    for window in (None, (e_b - 1.0, e0 + 20.0)):
        for k in (1, 3):
            short = eigenenergies(model, g, window=window, max_levels=k)
            long = eigenenergies(model, g, window=window, max_levels=k + 6)
            assert len(short) == k and len(long) == k + 6
            assert _pairs(short) == _pairs(long[:k])
    # a window wholly below E0 holds just the bound level
    levels = eigenenergies(model, g, window=(e_b - 1.0, 0.5 * (e_b + e0)),
                           max_levels=5)
    assert len(levels) == 1
    assert abs(levels[0].E - e_b) < 1e-10
    assert levels[0].branch_index == 0


def test_eigenenergies_sorted_and_residual():
    levels = _ladder(2.0, -2.0, -1.0, 8.0, 6)
    assert all(a.E < b.E for a, b in zip(levels, levels[1:]))
    for lv in levels:
        resid = f_eval(SpectralArgument(lv.x, 2.0)).value + SQRT_2PI * (-0.5)
        assert abs(resid) < 1e-8


def test_pole_grid_built_once_per_window():
    # the cells of a sweep share (eta, window), so its walk (the pole grid,
    # the residues and the memo of F) is built once: a repeat call returns
    # the same tuple, and the levels found on the kept walk are those found
    # on a fresh one
    g = TrapGeometry(2.37)
    window = (-3.0, 9.0)
    e0 = ground_energy_offset(g)
    x_lo, x_hi = (e0 - window[1]) / 2.0, (e0 - window[0]) / 2.0
    solver._window_walk.cache_clear()
    first = solver._window_walk(2.37, x_lo, x_hi)
    assert solver._window_walk(2.37, x_lo, x_hi) is first
    cuts, residues, _ = first
    assert isinstance(cuts, tuple) and cuts[0] == math.inf
    assert list(residues) == list(cuts[1:])
    for inv_a in (-1.3, 0.0, 0.7):
        model = InteractionModel.from_inverse_a(inv_a)
        solver._window_walk.cache_clear()
        fresh = eigenenergies(model, g, window=window, max_levels=6)
        kept = eigenenergies(model, g, window=window, max_levels=6)
        assert solver._window_walk.cache_info().hits >= 1
        assert kept == fresh


def test_no_bound_state_for_zero_a():
    with pytest.raises(NoBoundState):
        bound_state_exact(InteractionModel.fixed(0.0), TrapGeometry(1.0))


def test_bound_state_requires_fixed_model():
    m = InteractionModel.from_resonance(0.5, 0.1, 3.0)
    with pytest.raises(ValueError):
        bound_state_exact(m, TrapGeometry(1.0))


def test_bound_state_inside_the_edge_clearance_raises():
    # at 1/a = -1e9 the root sits at x ~ 1e-9, inside the clearance kept
    # off the pole x = 0: the pole-cleared search finds it next to that
    # end, the plain target shows no sign change, and that is the error
    with pytest.raises(solver.NumericsError,
                       match=r"^no sign change on \[3e-09, 7\.5e\+17\]$"):
        bound_state_exact(InteractionModel.from_inverse_a(-1e9),
                          TrapGeometry(2.37))


@given(st.floats(0.2, 5.0), st.floats(-4.0, 4.0))
def test_default_window_levels_interlace_with_the_poles(eta, inv_a):
    # the walk's levels take consecutive branches from the bound one up,
    # each strictly between the poles of its interval, and its branch-0
    # level is bound_state_exact's.  Near-degenerate poles (O3's open
    # case, where a root may hide inside the edge clearance) are left out.
    g, model = TrapGeometry(eta), InteractionModel.from_inverse_a(inv_a)
    e_lo, e_hi = solver._default_window(g, 20, (inv_a,))
    e0 = ground_energy_offset(g)
    poles = pole_grid(eta, (e0 - e_hi) / 2.0 - 2.0 * eta - 2.0).poles
    assume(all(p - q >= 1e-6 for p, q in zip(poles, poles[1:])
               if q >= (e0 - e_hi) / 2.0 - eta - 1.0))
    levels = eigenenergies(model, g)
    assert [lv.branch_index for lv in levels] == list(range(len(levels)))
    for lv in levels:
        b = lv.branch_index
        assert poles[b] < lv.x
        assert b == 0 or lv.x < poles[b - 1]
    assert abs(bound_state_exact(model, g).E - levels[0].E) <= 1e-10


# ---------------------------------------------------------------------------
# reference ladders and the energy-dependent model
# ---------------------------------------------------------------------------

def _overlay_column(tag):
    # the reference-ladder column E1d-E0 / E2d-E0 of the overlay rows
    rows = [re.search(r"E%s-E0 = (\S+)" % tag, ln)
            for ln in oracle_lines("solver_oracle.out")
            if ln.startswith("ov%s n=" % tag)]
    return [float(m.group(1)) for m in rows]


_SOLVERS = {
    "eigenenergies": lambda g, w: eigenenergies(
        InteractionModel.fixed(1.0), g, window=w),
    "self_consistent": lambda g, w: solve_self_consistent(
        InteractionModel.from_resonance(0.5, 0.3, 3.5), g, window=w),
    "reference_1d": lambda g, w: spectrum_1d_reference(math.inf, g, w),
    "reference_2d": lambda g, w: spectrum_2d_reference(0.7, g, w),
}


@pytest.mark.parametrize("window", [(0.0, math.inf), (-math.inf, 1.0),
                                    (math.nan, 1.0), (3.0, 1.0)])
@pytest.mark.parametrize("solver_name", sorted(_SOLVERS))
def test_solvers_reject_unbounded_windows(solver_name, window):
    # an unbounded window holds poles or cuts without end: every solver
    # rejects it, and a NaN or reversed one, before it walks the window
    with pytest.raises(ValueError, match="bounded interval"):
        _SOLVERS[solver_name](TrapGeometry(2.0), window)


def test_spectrum_1d_reference_structure():
    g = TrapGeometry(100.0)
    a1 = a1d_effective(1.0, g)
    e0 = ground_energy_offset(g)
    ref = spectrum_1d_reference(a1, g, (e0 - 1.0, e0 + 8.0))
    assert len(ref) >= 3
    assert all(x < y for x, y in zip(ref, ref[1:]))
    want = _overlay_column("1d")
    ref = spectrum_1d_reference(a1, g, (e0 + 0.5, e0 + 40.0))
    assert len(ref) == len(want) == 20
    for e, w in zip(ref, want):
        assert abs(e - e0 - w) < 5e-9


def test_spectrum_2d_reference_structure():
    g = TrapGeometry(0.01)
    a2 = a2d_effective(1.0)
    e0 = ground_energy_offset(g)
    ref = spectrum_2d_reference(a2, g, (e0 - 0.3, e0 + 0.4))
    assert len(ref) >= 3
    assert all(x < y for x, y in zip(ref, ref[1:]))
    want = _overlay_column("2d")
    ref = spectrum_2d_reference(a2, g, (e0 + 0.001, e0 + 0.39))
    assert len(ref) == len(want) == 20
    for e, w in zip(ref, want):
        assert abs(e - e0 - w) < 5e-9


def test_resonance_a_eff_algebra():
    # gamma = 0 collapses to the background length
    assert resonance_a_eff(1.3, 0.7, 0.0, 5.0) == pytest.approx(0.7)
    # far from resonance the background dominates
    assert resonance_a_eff(1e8, 0.7, 0.2, 5.0) == pytest.approx(
        0.7 / (1.0 - 0.14), rel=1e-6)
    # rational form checked against its own definition
    e, a_bg, gam, e_res = 2.2, 0.6, 0.15, 4.0
    want = (a_bg * (e - e_res) + gam) / ((e - e_res) - a_bg * gam * e)
    assert resonance_a_eff(e, a_bg, gam, e_res) == pytest.approx(want,
                                                                 rel=1e-15)
    # the model's breakpoint is the a_eff zero, and inv_a_eff is 1/a_eff
    model = InteractionModel.from_resonance(1.3, 0.4, 2.0)
    assert model.breakpoints == pytest.approx((2.0 - 0.4 / 1.3,), abs=1e-15)
    assert model.inv_a_eff(0.7) * model.a_eff(0.7) == pytest.approx(
        1.0, abs=1e-12)


def test_resonance_pole_flagged():
    # denominator zero: (E - E_res) = a_bg gamma E; chosen exactly
    # representable so the == 0 pole test fires
    a_bg, gam, e_res = 0.5, 1.0, 3.0
    e_pole = 6.0     # (6 - 3) - 0.5 * 1 * 6 == 0
    with pytest.raises(PoleSignal):
        resonance_a_eff(e_pole, a_bg, gam, e_res)


def test_self_consistent_constant_model_matches_fixed():
    g = TrapGeometry(2.0)
    const = InteractionModel.energy_dependent(lambda e: 1.0, ())
    fixed = eigenenergies(InteractionModel.fixed(1.0), g,
                          window=(-2.0, 9.0), max_levels=4)
    sc = solve_self_consistent(const, g, window=(-2.0, 9.0), max_levels=4)
    assert len(sc) == len(fixed)
    for lv_s, lv_f in zip(sc, fixed):
        assert abs(lv_s.E - lv_f.E) < 1e-10
    # a resonance of width gamma -> 0 shifts the levels linearly in gamma
    g1 = TrapGeometry(1.0)

    def levels(gamma):
        return solve_self_consistent(
            InteractionModel.from_resonance(1.0, gamma, 30.0), g1,
            window=(1.6, 8.0))

    base = levels(0.0)
    # gamma = 0 leaves a_eff = a_bg = 1, on the certified path: the levels
    # are the fixed-a ones
    fixed1 = eigenenergies(InteractionModel.fixed(1.0), g1, window=(1.6, 8.0))
    assert len(fixed1) >= 3
    assert ([lv.branch_index for lv in base]
            == [lv.branch_index for lv in fixed1])
    for lv_s, lv_f in zip(base, fixed1):
        assert abs(lv_s.E - lv_f.E) <= 2.0 * solver.ROOT_TOL
    shifts = [max(abs(a.E - b.E) for a, b in zip(base, levels(gamma)))
              for gamma in (1e-3, 5e-4, 2.5e-4)]
    assert 1.8 < shifts[0] / shifts[1] < 2.2
    assert 1.8 < shifts[1] / shifts[2] < 2.2


def test_self_consistent_resonance_converges():
    g = TrapGeometry(1.0)
    # the second resonance crosses a pole interval of F
    for params, window in (((0.5, 0.1, 3.0), (-6.0, 6.0)),
                           ((0.5, 0.8, 4.0), (1.6, 9.0))):
        model = InteractionModel.from_resonance(*params)
        levels = solve_self_consistent(model, g, window=window,
                                       max_levels=5)
        assert len(levels) >= 3
        for lv in levels:
            a_here = resonance_a_eff(lv.E, *params)
            resid = f_eval(SpectralArgument(lv.x, 1.0)).value \
                + SQRT_2PI / a_here
            assert abs(resid) < 1e-7


def test_self_consistent_early_stop_is_exact():
    g = TrapGeometry(1.0)
    model = InteractionModel.from_resonance(0.5, 0.8, 4.0)
    short = solve_self_consistent(model, g, max_levels=2)
    long = solve_self_consistent(model, g, max_levels=8)
    assert len(short) == 2 and len(long) == 8
    assert _pairs(short) == _pairs(long[:2])


def test_self_consistent_default_window_keeps_deep_level():
    # small a_bg keeps 1/a_eff near 3 below E0, so the lowest level sits
    # near E = -11, below the bound level of every 1/a in [-2, 2]
    g = TrapGeometry(1.0)
    e0 = 1.5
    model = InteractionModel.from_resonance(0.3, 0.5, 4.0)
    got = solve_self_consistent(model, g, max_levels=4)
    deep = solve_self_consistent(model, g, window=(e0 - 70.0, e0 + 12.0),
                                 max_levels=4)
    assert len(got) == 4
    assert got[0].E < e0 - 10.0
    assert _pairs(got) == _pairs(deep)


@pytest.mark.parametrize("gap", [1e-9, 4e-9])
def test_self_consistent_level_next_to_the_window_floor(gap):
    # the window ends clip the walk, as in eigenenergies: a level just above
    # the floor is kept, not lost to an edge clearance
    g = TrapGeometry(2.37)
    model = InteractionModel.from_resonance(0.5, 0.3, 3.5)
    third = solve_self_consistent(model, g, window=(-1.0, 9.0))[2]
    fixed = InteractionModel.from_inverse_a(model.inv_a_eff(third.E))
    for solve, m in ((solve_self_consistent, model), (eigenenergies, fixed)):
        got = solve(m, g, window=(third.E - gap, 9.0))
        assert got[0].branch_index == third.branch_index == 2
        assert abs(got[0].E - third.E) <= 2.0 * solver.ROOT_TOL


def test_resonance_with_vanishing_a_eff_rejected():
    # a_bg = gamma = 0 gives a_eff = 0 at every E: no 1/a_eff to solve with
    with pytest.raises(ValueError):
        InteractionModel.from_resonance(0.0, 0.0, 3.0)
    assert InteractionModel.from_resonance(0.0, 0.5, 3.0).breakpoints == ()
    assert InteractionModel.from_resonance(0.7, 0.0, 3.0).breakpoints == ()


@pytest.mark.parametrize("params", [(math.nan, 0.5, 3.0), (0.5, math.inf, 3.0),
                                    (0.5, 0.5, -math.inf)])
def test_resonance_with_nonfinite_parameters_rejected(params):
    # a NaN or infinite parameter makes every target value NaN
    with pytest.raises(ValueError):
        InteractionModel.from_resonance(*params)


@pytest.mark.parametrize("params, eta, window", [
    ((0.5, 0.8, 4.0), 1.0, (1.6, 9.0)),    # a_eff zero at 2.4, mid-window
    ((0.5, 0.8, 4.0), 1.0, None),
    ((0.7, 0.0, 30.0), 1.0, None),         # gamma = 0: a_eff = a_bg
    ((-1.0, 0.5, 3.0), 2.37, None),        # a_eff zero at 3.5
    ((0.5, 0.3, 3.5), 2.37, None),
    ((1.2, 0.6, 1.5), 0.37, None),         # a_eff zero at 1.0
    ((-0.8, 0.9, 1.2), 0.37, None),
])
def test_certified_resonance_matches_scan(params, eta, window):
    # det >= 0 takes one bracketed root per interval; the same a_eff as a
    # generic callable takes the sign scan, and both give the same levels
    model = InteractionModel.from_resonance(*params)
    assert model.det >= 0.0
    generic = InteractionModel.energy_dependent(
        lambda e: resonance_a_eff(e, *params), model.breakpoints)
    g = TrapGeometry(eta)
    got = solve_self_consistent(model, g, window=window, max_levels=6)
    want = solve_self_consistent(generic, g, window=window, max_levels=6)
    assert len(got) == len(want) >= 3
    assert ([lv.branch_index for lv in got]
            == [lv.branch_index for lv in want])
    for a, b in zip(got, want):
        assert abs(a.E - b.E) <= 1e-10


def test_negative_det_resonance_keeps_two_roots_per_interval():
    # det < 0: 1/a_eff falls while F rises, and branch 0 holds two levels
    model = InteractionModel.from_resonance(3.0, 2.5, -0.25)
    assert model.det < 0.0
    levels = solve_self_consistent(model, TrapGeometry(1.0),
                                   window=(-4.5, 7.5))
    want = [-0.2131436729, 0.9850331877, 2.9677121073, 4.9264217842,
            6.8923303374]
    assert [lv.E for lv in levels] == pytest.approx(want, abs=1e-9)
    assert [lv.branch_index for lv in levels] == [0, 0, 1, 2, 3]


def _count_f_values(monkeypatch):
    # the sizes of the solver's f_values batches: every F value the solver
    # takes goes through one
    batches = []
    many = solver.f_values

    def counted_many(xs, eta):
        batches.append(len(xs))
        return many(xs, eta)

    monkeypatch.setattr(solver, "f_values", counted_many)
    return batches


def test_certified_resonance_f_call_budget(monkeypatch):
    # one bracketed root search per interval: at most 15 F calls per level
    # on models from the benchmark's ranges (the sign scan spends ~160)
    cases = []
    for eta, a_bg, gamma, u in ((0.3, -1.4, 0.15, 2.7), (0.8, 1.1, 0.9, 0.4),
                                (1.7, -0.3, 0.55, 1.6), (3.6, 0.6, 0.3, 2.2)):
        g = TrapGeometry(eta)
        e_res = ground_energy_offset(g) + 2.0 * min(1.0, eta) * u
        model = InteractionModel.from_resonance(a_bg, gamma, e_res)
        assert model.det > 0.0
        cases.append((model, g, solver._default_window(g, 2, (-2.0, 2.0))))
    batches = _count_f_values(monkeypatch)
    n_levels = sum(len(solve_self_consistent(model, g, window=window,
                                             max_levels=2))
                   for model, g, window in cases)
    assert n_levels == 8
    assert 0 < sum(batches) <= 15 * n_levels


_GENERIC_ETA = st.floats(math.log(0.25), math.log(4.0)).map(math.exp).filter(
    lambda eta: min(abs(eta - round(eta)),
                    abs(1.0 / eta - round(1.0 / eta))) > 1e-3)


@given(eta=st.one_of(_GENERIC_ETA,
                     st.integers(1, 8).map(lambda n: 1.0 / n)),
       inv_as=st.lists(st.floats(-4.0, 4.0), min_size=2, max_size=5),
       levels=st.integers(1, 6))
def test_levels_do_not_depend_on_the_window_memo(eta, inv_as, levels):
    # the levels are a function of (eta, a, window): a cell solved after
    # others at its window, the memo warm, equals a cell solved with the
    # memo cleared, on the recurrence (generic eta) and pancake (integer
    # 1/eta) kernels; so does a self-consistent solve, which walks the
    # same cached poles
    g = TrapGeometry(eta)
    window = solver._default_window(g, levels, inv_as)
    models = [InteractionModel.from_inverse_a(v) for v in inv_as]
    resonance = InteractionModel.from_resonance(0.5, 0.3, 3.5)

    def solve(m):
        fn = eigenenergies if m is not resonance else solve_self_consistent
        return fn(m, g, window=window, max_levels=levels)

    solver._window_walk.cache_clear()
    warm = [solve(m) for m in models + [resonance]]
    cold = []
    for m in models + [resonance]:
        solver._window_walk.cache_clear()
        cold.append(solve(m))
    assert warm == cold
    assert all(len(lv) == levels for lv in cold[:-1])


@pytest.mark.parametrize("solve, model", [
    (eigenenergies, InteractionModel.from_inverse_a(0.5)),
    (solve_self_consistent, InteractionModel.from_resonance(0.5, 0.3, 3.5))])
def test_max_levels_must_be_a_nonnegative_integer(solve, model):
    g = TrapGeometry(2.37)
    for bad in (-1, 2.5, "3", None):
        with pytest.raises(ValueError, match="max_levels must be a "
                                             "nonnegative integer"):
            solve(model, g, window=(-1.0, 9.0), max_levels=bad)
    assert solve(model, g, window=(-1.0, 9.0), max_levels=0) == []
    assert len(solve(model, g, window=(-1.0, 9.0), max_levels=2)) == 2


def test_energy_level_is_frozen_record():
    lv = EnergyLevel(E=1.0, x=0.25)
    with pytest.raises((AttributeError, TypeError)):
        lv.E = 2.0


# ---------------------------------------------------------------------------
# pole-cleared root searches
# ---------------------------------------------------------------------------

def _plain_search(monkeypatch):
    # the search with both ends of every segment evaluated, for every
    # solver, bound_state_exact included: the root search gets each
    # segment without its residue ends and with no known end values
    roots_in = solver._roots_in_segments

    def plain(target, segments, ends=None):
        return roots_in(target, [(a, b, None, None)
                                 for a, b, _, _ in segments])

    monkeypatch.setattr(solver, "_roots_in_segments", plain)


def _outcome(fn):
    try:
        levels = fn()
    except (NoBoundState, PoleSignal, solver.NumericsError) as err:
        return type(err).__name__
    if isinstance(levels, EnergyLevel):
        levels = [levels]
    return [(lv.branch_index, lv.E) for lv in levels]


def _same_levels(got, want):
    if isinstance(got, str) or isinstance(want, str):
        return got == want
    return ([b for b, _ in got] == [b for b, _ in want]
            and all(abs(e - f) <= 1e-10 * (1.0 + abs(f))
                    for (_, e), (_, f) in zip(got, want)))


_LEVEL_SET_CASES = [
    # eta with near-degenerate poles (2 + 1e-8: two poles 1e-8 apart, the
    # root between them inside the edge clearance) and |1/a| >= 1e6, where
    # roots sit within 1e-6 of the poles
    (eta, inv_a)
    for eta in (2.37, 0.37, 2.0 + 1e-8, 2.0 + 1e-6, 2.0)
    for inv_a in (-1e7, -1e6, -2.0, 0.0, 2.0, 1e6, 1e7)
]


def _fixed_a_requests(cases):
    # eigenenergies on windows that end at a pole, inside its clearance
    # and between poles, and bound_state_exact, at each (eta, 1/a)
    requests = []
    for eta, inv_a in cases:
        g, model = TrapGeometry(eta), InteractionModel.from_inverse_a(inv_a)
        e0 = ground_energy_offset(g)
        for window in ((-1.0, 9.0), (e0, e0 + 5.0),
                       (e0 + 2.0 + 4e-9, e0 + 6.0 - 1e-9)):
            requests.append(partial(eigenenergies, model, g, window=window,
                                    max_levels=6))
        requests.append(partial(bound_state_exact, model, g))
    return requests


def _spy_near_pole_end(monkeypatch):
    # _near_pole_end's answers, as the searches ask it
    fired = []
    near = solver._near_pole_end

    def spy(*args):
        fired.append(near(*args))
        return fired[-1]

    monkeypatch.setattr(solver, "_near_pole_end", spy)
    return fired


def test_pole_cleared_search_keeps_the_plain_level_set(monkeypatch):
    # count, branch_index and energies as with both ends evaluated
    fired = _spy_near_pole_end(monkeypatch)
    requests = _fixed_a_requests(_LEVEL_SET_CASES)
    for params in ((0.5, 0.3, 3.5), (-1.0, 0.5, 3.0), (1.2, 1e-7, 1.0)):
        model = InteractionModel.from_resonance(*params)
        for eta in (2.37, 2.0 + 1e-8):
            requests.append(partial(solve_self_consistent, model,
                                    TrapGeometry(eta), window=(-1.0, 9.0),
                                    max_levels=6))
    got = [_outcome(fn) for fn in requests]
    assert any(fired), "no root came out next to a residue end"
    with monkeypatch.context() as plain:
        _plain_search(plain)
        want = [_outcome(fn) for fn in requests]
    for fn, a, b in zip(requests, got, want):
        assert _same_levels(a, b), (fn.args, fn.keywords, a, b)


def test_a_chunk_takes_one_brent_solve(monkeypatch):
    # next to near-degenerate poles and at |1/a| = 1e7, where roots come
    # out next to residue ends, the check at such an end is one target
    # call: every chunk of segments is one lockstep Brent solve
    fired = _spy_near_pole_end(monkeypatch)
    solves = []
    roots_in, find = solver._roots_in_segments, solver.find_roots_bracketed

    def counted_roots_in(*args, **kw):
        solves.append(0)
        return roots_in(*args, **kw)

    def counted_find(*args, **kw):
        solves[-1] += 1
        return find(*args, **kw)

    monkeypatch.setattr(solver, "_roots_in_segments", counted_roots_in)
    monkeypatch.setattr(solver, "find_roots_bracketed", counted_find)
    for fn in _fixed_a_requests([(2.0 + 1e-8, -1e7), (2.0 + 1e-8, 1e7)]):
        _outcome(fn)
    assert solves and set(solves) == {1}, solves
    assert any(fired), "no root came out next to a residue end"


@given(eta=_GENERIC_ETA, sign=st.sampled_from((-1.0, 1.0)),
       inv_a=st.floats(math.log(1e3), math.log(1e6)).map(math.exp))
def test_levels_approach_their_poles_as_a_vanishes(eta, sign, inv_a):
    # F ~ r/(x - p) next to a pole p of residue r, so as a -> 0+ (F ->
    # -inf) an excited level sits r/(sqrt(2 pi) |1/a|) below the upper
    # pole of its interval in x, and as a -> 0- as far above the lower
    # one.  The other poles shift it by about their pull sum r'/|p - p'|
    # over sqrt(2 pi) |1/a|; a pole whose pull exceeds 5% of that (a near
    # degeneracy, as at eta = 3/8) is left out.
    g = TrapGeometry(eta)
    e0 = ground_energy_offset(g)
    grid = pole_grid(eta, (e0 - 9.0) / 2.0 - 2.0 * eta - 2.0)
    model = InteractionModel.from_inverse_a(sign * inv_a)
    checked = 0
    for lv in eigenenergies(model, g, window=(-1.0, 9.0)):
        if lv.branch_index == 0:
            continue
        k = lv.branch_index - (sign > 0.0)
        p, r = grid.poles[k], grid.residues[k]
        pull = sum(r_q / abs(p - q)
                   for q, r_q in zip(grid.poles, grid.residues) if q != p)
        if pull > 0.05 * SQRT_2PI * inv_a:
            continue
        offset = r / (SQRT_2PI * inv_a)
        assert abs(abs(lv.x - p) / offset - 1.0) <= 0.1, (lv, p, r)
        checked += 1
    assert checked


def test_fig1_f_call_budget(monkeypatch):
    # Work-count guard: the pole-cleared searches take at most 7.5 F values
    # per level on fig1 cells (the plain bracketed search took about 11.5),
    # and the lockstep solve at most 12 batched F calls per cell (one per
    # F value, about 44, before it)
    cells = []
    for eta in (0.37, 2.37, 10.0):
        g = TrapGeometry(eta)
        window = solver._default_window(g, 6, (-4.0, 4.0))
        cells += [(InteractionModel.from_inverse_a(v), g, window)
                  for v in (-4.0, -1.0, 0.0, 1.0, 4.0)]
    solver._window_walk.cache_clear()
    batches = _count_f_values(monkeypatch)
    n_levels = sum(len(eigenenergies(model, g, window=window, max_levels=6))
                   for model, g, window in cells)
    assert n_levels == 6 * len(cells)
    assert 0 < sum(batches) <= 7.5 * n_levels
    assert len(batches) <= 12 * len(cells)
    # a second pass over the same cells reads the 1/a-free points of each
    # window from its memo
    first = sum(batches)
    batches.clear()
    for model, g, window in cells:
        eigenenergies(model, g, window=window, max_levels=6)
    assert 0 < sum(batches) < first
