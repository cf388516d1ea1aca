"""Pair wavefunction: exact routes, asymptotics, norms, contact behavior.

Frozen references come from 50-digit quadrature/series oracles
(tests/oracles/wavefn_oracle*.out).  wavefn_oracle.out's contact and norm
sections used a wrong convention and are superseded by wavefn_oracle2.out;
only its integral/series/profile sections are read here.
"""

import itertools
import math

import mpmath
import numpy as np
import pytest
from scipy.special import k0

from conftest import fval, oracle_values
from pairtrap.numerics import NumericsError, SeriesError
from pairtrap.solver import (InteractionModel, TrapGeometry,
                             bound_state_exact, eigenenergies,
                             ground_energy_offset)
from pairtrap import wavefn
from pairtrap.specfun import PoleSignal, gamma_u, laguerre_iter
from pairtrap.spectral import SpectralArgument, f_eval
from pairtrap.wavefn import (ProfileSamples, SeriesTruncation, _sum_terms,
                             contact_coefficient, contact_scattering_length,
                             norm_squared_exact, normalize, profile_quasi1d,
                             profile_quasi2d, psi, psi_integral,
                             psi_series_axial, psi_series_radial, sample_grid)

ORA1 = oracle_values("wavefn_oracle.out")
ORA2 = oracle_values("wavefn_oracle2.out")
ORA3 = oracle_values("wavefn_oracle3.out")
NODES = oracle_values("node_table_oracle.out")

G1 = TrapGeometry(1.0)
G2 = TrapGeometry(2.0)
G05 = TrapGeometry(0.5)
G100 = TrapGeometry(100.0)
G001 = TrapGeometry(0.01)


def _close(got, want, rel, abs_floor=0.0):
    assert abs(got - want) <= rel * abs(want) + abs_floor, \
        "got %.17g want %.17g" % (got, want)


def _arg_strings(table, prefix):
    """Number strings of the keys 'prefix<num>)' in an oracle table.

    Sibling keys are built from these strings, never from re-formatted
    floats: the oracles print 'z=1.0', which '%g' would turn into 'z=1'.
    An empty match fails, so a renamed section cannot pass vacuously.
    """
    out = [k[len(prefix):-1] for k in table if k.startswith(prefix)]
    assert out, "no oracle key starts with %r" % prefix
    return out


@pytest.fixture(scope="module")
def energies():
    """Bound/unitarity/excited anchors re-solved once per module."""
    e = {}
    e["A"] = bound_state_exact(InteractionModel.fixed(1.0), G2).E
    e["B"] = bound_state_exact(InteractionModel.fixed(1.0), G05).E
    e["C"] = bound_state_exact(InteractionModel.fixed(1.0), G1).E
    e["D"] = bound_state_exact(InteractionModel.fixed(-2.0), G2).E
    e["u100"] = bound_state_exact(InteractionModel.from_inverse_a(0.0),
                                  G100).E
    e["u001"] = bound_state_exact(InteractionModel.from_inverse_a(0.0),
                                  G001).E
    return e


# ---------------------------------------------------------------------------
# exact integral representation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("key", [k for k in ORA1 if k.startswith("psiA(")])
def test_integral_spots_eta2(key, energies):
    rho, z = (float(s) for s in key[5:-1].split(","))
    _close(psi_integral(rho, z, energies["A"], G2), fval(ORA1, key), 2e-12)


@pytest.mark.parametrize("key", [k for k in ORA1 if k.startswith("psiB(")])
def test_integral_spots_eta05(key, energies):
    rho, z = (float(s) for s in key[5:-1].split(","))
    _close(psi_integral(rho, z, energies["B"], G05), fval(ORA1, key), 2e-12)


def test_integral_matches_spherical_closed_form(energies):
    # eta = 1 collapses to the single-variable closed form of r = |x|
    for key in ("psiC(0.3,0.4)", "psiC(0.6,0.8)"):
        rho, z = (float(s) for s in key[5:-1].split(","))
        got = psi_integral(rho, z, energies["C"], G1)
        _close(got, fval(ORA1, key), 2e-12)
        r = math.hypot(rho, z)
        sph = fval(ORA1, "psiC_sphere(r=%.1f)" % r)
        _close(got, sph, 2e-12)


def test_integral_even_in_z(energies):
    a = psi_integral(0.4, 0.7, energies["A"], G2)
    b = psi_integral(0.4, -0.7, energies["A"], G2)
    assert a == pytest.approx(b, rel=1e-13)


@pytest.mark.parametrize("eta", (0.01, 0.5, 2.0, 100.0))
def test_node_table_matches_quadpack_grids(eta):
    # the node-table rows of sample_grid against the proper-time integral in
    # mpmath (node_table_oracle.out) on graded grids in the trap's own
    # lengths, with points at rho = 1e-3 and z = 1e-3 and an on-axis column,
    # for a unitarity and a weakly bound state; the oracle keeps the
    # energies it was computed at
    g = TrapGeometry(eta)
    grade = (1e-3, 0.03, 0.1, 0.25, 0.5, 1.0, 1.7, 2.6)
    rhos = [u / math.sqrt(eta) for u in grade]
    zs = (0.0,) + grade
    for inv_a in (0.0, -1.0):
        e = fval(NODES, "E(eta=%r,inv_a=%r)" % (eta, inv_a))
        samples = sample_grid(rhos, zs, e, g)
        got = dict(zip(samples.coordinates, samples.values))
        got.update(((0.0, z), psi_integral(0.0, z, e, g)) for z in zs[1:])
        want = {p: fval(NODES, "psi(eta=%r,inv_a=%r,rho=%r,z=%r)"
                        % ((eta, inv_a) + p)) for p in got}
        peak = max(abs(v) for v in want.values())
        for p, w in want.items():
            if abs(w) >= 1e-3 * peak:
                assert abs(got[p] / w - 1.0) <= 1e-10, (inv_a, p)


# ---------------------------------------------------------------------------
# series routes against the integral (full battery in test_acceptance)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("rho,z", [(0.5, 0.5), (0.7, 0.4), (1.2, 1.5)])
def test_three_routes_agree(rho, z, energies):
    # cigar, pancake and spherical bound states
    trunc = SeriesTruncation(max_terms=20000, tail_tol=1e-12)
    for tag, g in (("A", G2), ("B", G05), ("C", G1)):
        ref = psi_integral(rho, z, energies[tag], g)
        rad = psi_series_radial(rho, z, energies[tag], g, trunc)
        ax = psi_series_axial(rho, z, energies[tag], g, trunc)
        assert abs(rad / ref - 1.0) < 1e-9, tag
        assert abs(ax / ref - 1.0) < 1e-9, tag


def test_route_dispatch(energies):
    kw = dict(trunc=SeriesTruncation(max_terms=20000, tail_tol=1e-12))
    want = psi_integral(0.5, 0.5, energies["A"], G2)
    assert psi(0.5, 0.5, energies["A"], G2) == pytest.approx(want, rel=1e-12)
    for route in ("integral", "radial_series", "axial_series"):
        got = psi(0.5, 0.5, energies["A"], G2, route=route, **kw)
        assert got == pytest.approx(want, rel=1e-9)
    with pytest.raises(ValueError):
        psi(0.5, 0.5, energies["A"], G2, route="fourier")


def test_series_above_e0_where_integral_diverges(energies):
    # excited state: only the series routes converge
    e_exc = eigenenergies(InteractionModel.from_inverse_a(0.0), G100,
                          window=(100.6, 102.4), max_levels=1)[0].E
    _close(e_exc, fval(ORA2, "E_exc_eta100"), 1e-12)
    with pytest.raises(ValueError):
        psi_integral(0.3, 0.5, e_exc, G100)
    val = psi(0.3, 0.5, e_exc, G100,
              trunc=SeriesTruncation(max_terms=4000, tail_tol=1e-13))
    assert math.isfinite(val)


# ---------------------------------------------------------------------------
# contact behavior: 2 pi r Psi -> 1 and the slope
# ---------------------------------------------------------------------------

def test_contact_law_table(energies):
    for r in (0.1, 0.05, 0.025):
        ax = 2.0 * math.pi * r * psi_integral(0.0, r, energies["A"], G2)
        ra = 2.0 * math.pi * r * psi_integral(r, 0.0, energies["A"], G2)
        d = r / math.sqrt(2.0)
        dg = 2.0 * math.pi * r * psi_integral(d, d, energies["A"], G2)
        _close(ax, fval(ORA1, "2pirPsi_axial(r=%g)" % r), 5e-12)
        _close(ra, fval(ORA1, "2pirPsi_radial(r=%g)" % r), 5e-12)
        _close(dg, fval(ORA1, "2pirPsi_diag(r=%g)" % r), 5e-12)


def test_contact_richardson_limits(energies):
    for tag, point in (("axial", lambda r: (0.0, r)),
                       ("radial", lambda r: (r, 0.0)),
                       ("diag", lambda r: (r / math.sqrt(2.0),) * 2)):
        v = [2.0 * math.pi * r * psi_integral(*point(r), energies["A"], G2)
             for r in (0.1, 0.05, 0.025)]
        r1 = [2.0 * v[1] - v[0], 2.0 * v[2] - v[1]]
        limit = (4.0 * r1[1] - r1[0]) / 3.0
        _close(limit, fval(ORA2, "limit_%s" % tag), 1e-10)
        assert abs(limit - 1.0) < 1e-4


def _richardson_slope(E, g):
    # d/dr (r Psi) at the origin along z, by two Richardson steps over
    # h = 0.2 ... 0.025: the procedure the slope_* and recovered_a_* rows
    # of wavefn_oracle2.out were generated with
    slopes = [(h * psi_integral(0.0, h, E, g) - 1.0 / (2.0 * math.pi)) / h
              for h in (0.2, 0.1, 0.05, 0.025)]
    r1 = [2.0 * slopes[i + 1] - slopes[i] for i in range(3)]
    return (4.0 * r1[2] - r1[1]) / 3.0


def test_contact_slope_recovers_a(energies):
    # the closed-form slope F(x)/(2 pi^{3/2}) meets the boundary condition
    # -1/(sqrt 2 pi a) exactly; the Richardson fit meets its own frozen rows
    for key, g, a in (("C", G1, 1.0), ("D", G2, -2.0)):
        _close(contact_coefficient(energies[key], g),
               fval(ORA2, "slope_%s_target" % key), 1e-12)
        _close(contact_scattering_length(energies[key], g), a, 1e-12)
        s = _richardson_slope(energies[key], g)
        _close(s, fval(ORA2, "slope_%s" % key), 1e-9)
        _close(-1.0 / (math.sqrt(2.0) * math.pi * s),
               fval(ORA2, "recovered_a_%s" % key), 1e-9)


def test_contact_requires_bound_energy(energies):
    with pytest.raises(ValueError):
        contact_coefficient(ground_energy_offset(G2) + 0.5, G2)


def test_contact_near_unitarity_recovers_large_a():
    # spherical unitarity ground state: slope ~ 0, recovered 1/a ~ 0
    e_unit = bound_state_exact(InteractionModel.from_inverse_a(0.0), G1).E
    a = contact_scattering_length(e_unit, G1)
    assert abs(1.0 / a) < 1e-3


# ---------------------------------------------------------------------------
# analytic norm and grid normalization
# ---------------------------------------------------------------------------

def test_norm_squared_exact_frozen(energies):
    _close(norm_squared_exact(energies["C"], G1),
           fval(ORA2, "norm2_C_formula"), 1e-9)
    _close(norm_squared_exact(energies["A"], G2),
           fval(ORA2, "norm2_A"), 1e-9)
    _close(norm_squared_exact(energies["D"], G2),
           fval(ORA2, "norm2_D"), 1e-9)


@pytest.mark.parametrize("eta, inv_a", [(1.0, 0.3), (2.0, -1.0),
                                        (0.37, 0.5), (30.0, 0.0)])
def test_norm_squared_exact_takes_its_stencil_in_one_batch(monkeypatch, eta,
                                                           inv_a):
    # the four stencil values come from one f_eval_many call and equal
    # four scalar f_eval calls bit for bit
    g = TrapGeometry(eta)
    e = bound_state_exact(InteractionModel.from_inverse_a(inv_a), g).E
    x = 0.5 * (ground_energy_offset(g) - e)
    h = 1e-4 * max(1.0, abs(x))
    v = [f_eval(SpectralArgument(x + k * h, eta)).value for k in (-2, -1, 1, 2)]
    n2 = -((v[0] - 8.0 * v[1] + 8.0 * v[2] - v[3]) / (12.0 * h)) \
        / (4.0 * math.pi ** 1.5)
    sizes = []
    many = wavefn.f_eval_many
    monkeypatch.setattr(wavefn, "f_eval_many",
                        lambda xs, eta: sizes.append(len(xs)) or many(xs, eta))
    assert repr(norm_squared_exact(e, g)) == repr(n2)
    assert sizes == [4]


def _gaussian_samples(h=0.02):
    # ground-mode Gaussian of the eta = 2 trap; norm integral is known
    rhos = [h * (i + 1) for i in range(int(3.2 / h))]
    zs = [h * j for j in range(int(4.5 / h))]
    coords, values = [], []
    for z in zs:
        for rho in rhos:
            coords.append((rho, z))
            values.append(math.exp(-(2.0 * rho * rho + z * z) / 2.0))
    return ProfileSamples(tuple(coords), tuple(values), "integral")


def test_normalize_gaussian_grid():
    samples = _gaussian_samples()
    out = normalize(samples, G2)
    want = fval(ORA1, "gauss_norm2_eta2")      # pi^{3/2} / 2
    _close(out.norm_constant ** 2, want, 5e-7)
    assert out.normalized
    assert out.values[0] == pytest.approx(
        samples.values[0] / out.norm_constant, rel=1e-14)


def test_normalize_idempotent_and_scale_invariant():
    samples = _gaussian_samples(h=0.05)
    out = normalize(samples, G2)
    again = normalize(ProfileSamples(out.coordinates, out.values,
                                     out.method), G2)
    assert again.norm_constant == pytest.approx(1.0, rel=1e-12)
    scaled = ProfileSamples(samples.coordinates,
                            tuple(7.5 * v for v in samples.values),
                            samples.method)
    out_s = normalize(scaled, G2)
    for a, b in zip(out_s.values, out.values):
        assert a == pytest.approx(b, rel=1e-12)


def test_normalize_singular_grid_matches_analytic_norm(energies):
    # contact 1/r core: subtraction handling, coarse and fine grids
    want = fval(ORA2, "norm2_A")
    for h, bound in ((0.04, 1.5e-3), (0.02, 3e-4)):
        rhos = [h * (i + 1) for i in range(int(3.2 / h))]
        zs = [h * j for j in range(int(4.5 / h))]
        samples = sample_grid(rhos, zs, energies["A"], G2)
        out = normalize(samples, G2)
        assert abs(out.norm_constant ** 2 / want - 1.0) < bound, h


def test_normalize_rejects_truncated_grid():
    # grid cut far inside the support: tail bound must veto
    h = 0.1
    rhos = [h * (i + 1) for i in range(12)]
    zs = [h * j for j in range(12)]
    coords = tuple((r, z) for z in zs for r in rhos)
    values = tuple(math.exp(-(2.0 * r * r + z * z) / 2.0) for r, z in coords)
    with pytest.raises(NumericsError):
        normalize(ProfileSamples(coords, values, "integral"), G2)
    # a grid whose boundary does not decay cannot bound its tail at all
    flat = tuple(1.0 for _ in coords)
    with pytest.raises(NumericsError):
        normalize(ProfileSamples(coords, flat, "integral"), G2)


def test_normalize_requires_full_tensor_grid():
    coords = ((0.1, 0.0), (0.2, 0.0), (0.1, 0.1))
    with pytest.raises(ValueError):
        normalize(ProfileSamples(coords, (1.0, 1.0, 1.0), "integral"), G2)


# ---------------------------------------------------------------------------
# asymptotic profiles at unitarity (figure-2 regeneration data)
# ---------------------------------------------------------------------------

# The oracles' rel(va, ve) = |va - ve|/|ve| puts the exact value in the
# denominator: *_reldiff is |asym/exact - 1|, not |exact/asym - 1|.  Keys
# carry the oracle's own number strings (see _arg_strings).

def test_quasi1d_profiles_frozen(energies):
    e = energies["u100"]
    for zs in _arg_strings(ORA1, "ax100_exact(z="):
        z = float(zs)
        got = psi_integral(0.0, z, e, G100)
        _close(got, fval(ORA1, "ax100_exact(z=%s)" % zs), 5e-9)
        asym = profile_quasi1d("axial", z, e, G100)
        _close(asym, fval(ORA1, "ax100_asym(z=%s)" % zs), 5e-9)
        live = abs(asym / got - 1.0)
        frozen = fval(ORA1, "ax100_reldiff(z=%s)" % zs)
        assert abs(live - frozen) < 1e-6
    for table in (ORA1, ORA2):
        for rs in _arg_strings(table, "rad100_exact(rho="):
            rho = float(rs)
            got = psi_integral(rho, 0.0, e, G100)
            _close(got, fval(table, "rad100_exact(rho=%s)" % rs), 5e-9)
            asym = profile_quasi1d("radial", rho, e, G100)
            live = abs(asym / got - 1.0)
            frozen = fval(table, "rad100_reldiff(rho=%s)" % rs)
            assert abs(live - frozen) < 1e-6


def test_quasi2d_profiles_frozen(energies):
    e = energies["u001"]
    for table in (ORA1, ORA2):
        for rs in _arg_strings(table, "rad001_exact(rho="):
            rho = float(rs)
            got = psi_integral(rho, 0.0, e, G001)
            _close(got, fval(table, "rad001_exact(rho=%s)" % rs), 5e-9)
            asym = profile_quasi2d("radial", rho, e, G001)
            live = abs(asym / got - 1.0)
            frozen = fval(table, "rad001_reldiff(rho=%s)" % rs)
            assert abs(live - frozen) < 1e-6
        for zs in _arg_strings(table, "ax001_exact(z="):
            z = float(zs)
            got = psi_integral(0.0, z, e, G001)
            _close(got, fval(table, "ax001_exact(z=%s)" % zs), 5e-9)
            asym = profile_quasi2d("axial", z, e, G001)
            live = abs(asym / got - 1.0)
            frozen = fval(table, "ax001_reldiff(z=%s)" % zs)
            assert abs(live - frozen) < 1e-6


def test_axial_tail_slope_frozen(energies):
    e = energies["u100"]
    target = fval(ORA1, "slope_target_eta100")
    assert target == pytest.approx(-math.sqrt(-2.0 * (e - 100.5)), rel=1e-12)
    pts = {z: math.log(psi_integral(0.0, z, e, G100))
           for z in (0.5, 0.75, 1.0, 1.25)}
    for lo, hi, key in ((0.5, 0.75, "slope[0.5,0.75]"),
                        (0.75, 1.0, "slope[0.75,1.0]"),
                        (1.0, 1.25, "slope[1.0,1.25]")):
        slope = (pts[hi] - pts[lo]) / (hi - lo)
        _close(slope, fval(ORA1, key), 1e-7)
        assert abs(slope / target - 1.0) < 0.01


def test_profile_domain_errors(energies):
    e = energies["u100"]
    with pytest.raises(ValueError):
        profile_quasi1d("diagonal", 0.5, e, G100)
    with pytest.raises(ValueError):
        profile_quasi1d("axial", 0.0, e, G100)
    with pytest.raises(ValueError):
        profile_quasi1d("radial", 0.0, e, G100)
    with pytest.raises(ValueError):
        profile_quasi1d("axial", 0.5, 101.0, G100)   # E above E0
    with pytest.raises(ValueError):
        profile_quasi2d("axial", 0.0, energies["u001"], G001)


def test_quasi1d_axial_profile_near_axis_vs_mpmath():
    # z = 0.01: the mode sum decays like exp(-0.02 sqrt(eta m)) and ran past
    # its 100,000-term cap; the integral form takes one node-table pass
    for eta in (10.0, 20.0):
        g = TrapGeometry(eta)
        e = ground_energy_offset(g) - 0.6
        x = 0.5 * (ground_energy_offset(g) - e)
        with mpmath.workdps(30):
            z = mpmath.mpf(0.01)

            def mode(m):
                q = m * eta + x
                return mpmath.exp(-2 * z * mpmath.sqrt(q)) / mpmath.sqrt(q)

            want = eta * mpmath.nsum(mode, [0, mpmath.inf], method="e") \
                / (2 * mpmath.pi)
        _close(profile_quasi1d("axial", 0.01, e, g), float(want), 1e-13)


def _k0_mode_sum(rho, x):
    # pi^(-3/2) sum_m (2m)!/(2^m m!)^2 K0(2 rho sqrt(m + x)): mpmath for
    # m < 16, scipy's K0 with the weights carried on for the slow tail
    with mpmath.workdps(30):
        head = mpmath.fsum(mpmath.binomial(2 * m, m) / mpmath.mpf(4) ** m
                           * mpmath.besselk(0, 2 * rho * mpmath.sqrt(m + x))
                           for m in range(16))
        w16 = float(mpmath.binomial(32, 16) / mpmath.mpf(4) ** 16)
    m = np.arange(16, 40000)
    ratio = (2 * m[1:] - 1) / (2.0 * m[1:])
    w = w16 * np.cumprod(np.concatenate(([1.0], ratio)))
    return (float(head) + math.fsum(w * k0(2 * rho * np.sqrt(m + x)))) \
        / math.pi ** 1.5


def test_quasi2d_radial_profile_vs_k0_sum():
    e = ground_energy_offset(G001) - 0.6
    x = 0.5 * (ground_energy_offset(G001) - e)
    for rho in (0.25, 6.0):
        _close(profile_quasi2d("radial", rho, e, G001), _k0_mode_sum(rho, x),
               1e-13)


# ---------------------------------------------------------------------------
# series routes: block coefficients against the term-by-term scalar kernel
# ---------------------------------------------------------------------------

def _scalar_series(route, rho, z, E, g, trunc):
    # the series summed term by term, one scalar gamma_u call per
    # coefficient, under the same tail control as the block path
    eta = g.eta
    cal_e = E - ground_energy_offset(g)
    w, zz = eta * rho * rho, z * z
    if route == "radial":
        def a_of(m):
            return eta * m - 0.5 * cal_e
        b, arg, lag = 0.5, zz, laguerre_iter(w)
        osc, beta, pref = w, 2.0 * abs(z) * math.sqrt(eta), eta
    else:
        def a_of(k):
            return (k - 0.5 * cal_e) / eta
        b, arg, lag = 1.0, w, laguerre_iter(zz, alpha=-0.5)
        osc, beta, pref = zz, 2.0 * rho, 1.0

    def term(m):
        return gamma_u(a_of(m), b, arg) * next(lag)

    total = _sum_terms(map(term, itertools.count()), trunc, route + " series",
                       osc, beta)
    return pref * math.exp(-0.5 * (w + zz)) * 0.5 / math.pi ** 1.5 * total


@pytest.mark.parametrize("rho, z", [(0.5, 0.5), (1.2, 0.8), (0.9, 1.3)])
def test_series_blocks_match_scalar_terms(rho, z, energies):
    trunc = SeriesTruncation(max_terms=4000, tail_tol=1e-12)
    above = ground_energy_offset(G2) + 0.7
    for route, fn, g, e in (("radial", psi_series_radial, G2, energies["A"]),
                            ("radial", psi_series_radial, G2, above),
                            ("axial", psi_series_axial, G05, energies["B"]),
                            ("axial", psi_series_axial, G05,
                             ground_energy_offset(G05) + 0.3)):
        want = _scalar_series(route, rho, z, e, g, trunc)
        _close(fn(rho, z, e, g, trunc), want, 1e-14)


@pytest.mark.parametrize("rho, z, trunc", [
    (6.0, 0.05, SeriesTruncation()),                # terms grow: stalls
    (3.0, 0.1, SeriesTruncation(max_terms=100)),    # runs out of terms
])
def test_series_blocks_raise_like_scalar_terms(rho, z, trunc):
    e = ground_energy_offset(G2) + 0.3
    with pytest.raises(SeriesError) as ref:
        _scalar_series("radial", rho, z, e, G2, trunc)
    with pytest.raises(SeriesError) as got:
        psi_series_radial(rho, z, e, G2, trunc)
    assert str(got.value) == str(ref.value)
    assert got.value.terms_used == ref.value.terms_used


def _sum_terms_rescan(terms, trunc, label, osc_x, decay_beta):
    # _sum_terms' tail control with both window maxima taken by rescanning
    # the history: the brute-force reference of the suffix-maximum stacks
    total, hist = 0.0, []
    for m, t in zip(range(trunc.max_terms), terms):
        total += t
        hist.append(abs(t))
        if osc_x > 0.0:
            period = 2.0 * math.pi * math.sqrt((m + 1.0) / osc_x)
            win = min(max(8, int(0.5 * period) + 1), 1000)
        else:
            win = 2
        if m + 1 >= win:
            env = max(hist[-win:])
            if m + 1 >= 2 * win:
                older = max(hist[-2 * win:-win])
                if older > 0.0 and env >= 0.97 * older:
                    raise SeriesError(
                        "%s terms are not decaying after %d terms"
                        % (label, m + 1), total, env, m + 1)
            tail = env * (2.0 * math.sqrt(m + 1.0) / decay_beta
                          if decay_beta > 0.0 else 1.0)
            if tail <= trunc.tail_tol * abs(total):
                return total
    raise SeriesError("%s did not converge in %d terms"
                      % (label, trunc.max_terms), total, abs(hist[-1]),
                      trunc.max_terms)


def _summed(fn, terms, trunc, osc_x, beta):
    try:
        return ("sum", fn(iter(terms), trunc, "test", osc_x, beta))
    except SeriesError as err:
        return ("raise", str(err), err.value, err.est_error, err.terms_used)


def test_sum_terms_window_maxima_match_rescan():
    # decaying Laguerre-like terms, stalled ones (constant envelope),
    # slowly decaying ones that run out of terms, and repeated values and
    # zeros (ties in the stacks), over window rules from the fixed 2 to
    # the 1000 cap: sums, messages and terms_used bit-identical
    n = 2500
    trunc = SeriesTruncation(max_terms=n, tail_tol=1e-13)
    rng = np.random.default_rng(5)
    outcomes = set()
    for osc_x in (0.0, 1e-4, 0.05, 0.7, 40.0):
        m = np.arange(n, dtype=float)
        phase = np.cos(2.0 * np.sqrt(m * osc_x) + 0.3)
        sequences = [(np.exp(-beta * np.sqrt(m)) * phase, beta)
                     for beta in (0.05, 0.4, 2.0)]
        sequences += [(np.where(m % 2 == 0, 1.0, -1.0), 0.3),
                      (phase / np.sqrt(m + 1.0), 0.3),
                      (rng.choice([0.0, 0.5, 1.0], n)
                       * np.exp(-0.03 * np.sqrt(m)), 0.5)]
        for terms, beta in sequences:
            terms = terms.tolist()
            want = _summed(_sum_terms_rescan, terms, trunc, osc_x, beta)
            assert _summed(_sum_terms, terms, trunc, osc_x, beta) == want
            outcomes.add(want[1][:20] if want[0] == "raise" else "sum")
    assert len(outcomes) == 3  # converged, stalled, out of terms


# ---------------------------------------------------------------------------
# excited states: single-mode dominance far from the axis/plane
# ---------------------------------------------------------------------------

# The single-mode term is the oracles' signed mp.gamma(a) * mp.hyperu(a, b, w)
# with a < 0 at these energies, so Gamma(a) U(a, b, w) is negative here; it
# comes from gamma_u, the kernel the series' own m = 0 term uses.  Keys carry
# the oracle's own number strings ('z=1.0', 'rho=3.0').


def test_excited_mode_dominance_eta100(energies):
    e_exc = fval(ORA2, "E_exc_eta100")
    cal_e = e_exc - ground_energy_offset(G100)
    trunc = SeriesTruncation(max_terms=4000, tail_tol=1e-13)
    pref = 0.5 / math.pi ** 1.5
    # z = 1.0 sits at the limit of double precision: frozen 1.86e-10 at 1e-6
    # relative allows 1.9e-16 absolute, under one ulp of 1.0 (gap 5.2e-17).
    for zs in ("0.25", "0.5", "1.0"):
        z = float(zs)
        full = psi_series_radial(0.0, z, e_exc, G100, trunc)
        t00 = (100.0 * math.exp(-z * z / 2.0) * pref
               * gamma_u(-cal_e / 2.0, 0.5, z * z))
        live = abs(t00 / full - 1.0)
        frozen = fval(ORA2, "exc100_m0_vs_full(z=%s)" % zs)
        _close(live, frozen, 1e-6)
    # z = 2: the m > 0 remainder is below double precision entirely
    full = psi_series_radial(0.0, 2.0, e_exc, G100, trunc)
    t00 = (100.0 * math.exp(-2.0) * pref
           * gamma_u(-cal_e / 2.0, 0.5, 4.0))
    assert abs(t00 / full - 1.0) < 5e-15


def test_excited_mode_dominance_eta001(energies):
    e_exc = eigenenergies(InteractionModel.from_inverse_a(0.0), G001,
                          window=(0.5105, 0.5199), max_levels=1)[0].E
    _close(e_exc, fval(ORA2, "E_exc_eta001"), 1e-12)
    cal_e = e_exc - ground_energy_offset(G001)
    trunc = SeriesTruncation(max_terms=4000, tail_tol=1e-13)
    pref = 0.5 / math.pi ** 1.5
    for rs in ("2.5", "3.0", "3.5", "4.0"):
        rho = float(rs)
        full = psi_series_axial(rho, 0.0, e_exc, G001, trunc)
        _close(full, fval(ORA3, "full(rho=%s)" % rs), 1e-9)
        w = 0.01 * rho * rho
        t00 = (math.exp(-w / 2.0) * pref
               * gamma_u(-cal_e / 0.02, 1.0, w))
        live = abs(t00 / full - 1.0)
        frozen = fval(ORA3, "ratio_err(rho=%s)" % rs)
        _close(live, frozen, 1e-6)


# ---------------------------------------------------------------------------
# domain and failure paths
# ---------------------------------------------------------------------------

def test_psi_integral_domain(energies):
    e = energies["A"]
    e0 = ground_energy_offset(G2)
    # a point, and a grid holding it, raise the same error
    for rho, z, energy in ((-0.1, 0.5, e), (0.0, 0.0, e), (0.5, 0.5, e0),
                           (0.5, 0.5, e0 + 0.3)):
        with pytest.raises(ValueError) as point:
            psi_integral(rho, z, energy, G2)
        with pytest.raises(ValueError) as grid:
            sample_grid((0.3, rho), (z, 0.7), energy, G2, route="integral")
        assert str(grid.value) == str(point.value)


def test_series_domain(energies):
    e = energies["A"]
    with pytest.raises(ValueError):
        psi_series_radial(0.5, 0.0, e, G2)    # conditionally convergent
    with pytest.raises(ValueError):
        psi_series_axial(0.0, 0.5, e, G2)     # U(., 1, 0) diverges
    with pytest.raises(ValueError):
        psi_series_radial(-0.5, 0.5, e, G2)


def test_series_coefficient_pole_flagged():
    # calE = 0 makes the m = 0 radial coefficient Gamma(0)
    with pytest.raises(PoleSignal):
        psi_series_radial(0.5, 0.5, ground_energy_offset(G2), G2)
    with pytest.raises(PoleSignal):
        psi_series_axial(0.5, 0.5, ground_energy_offset(G2), G2)


def test_series_truncation_cap_reported(energies):
    with pytest.raises(SeriesError) as err:
        psi_series_radial(0.5, 0.5, energies["A"], G2,
                          SeriesTruncation(max_terms=5, tail_tol=1e-12))
    assert err.value.terms_used == 5


def test_sample_grid_layout(energies):
    rhos, zs = (0.3, 0.6), (0.2, 0.4, 0.8)
    samples = sample_grid(rhos, zs, energies["A"], G2)
    assert samples.method == "integral"
    assert len(samples.values) == 6
    assert samples.coordinates[0] == (0.3, 0.2)
    assert samples.coordinates[1] == (0.6, 0.2)   # rho runs fastest
    assert samples.coordinates[2] == (0.3, 0.4)
    want = psi_integral(0.6, 0.4, energies["A"], G2)
    assert samples.values[3] == pytest.approx(want, rel=1e-13)
    # a larger grid, with an on-axis column and rows at z < 0: every point
    # is the value psi_integral gives
    rhos = [0.0] + [0.05 * 1.4 ** i for i in range(12)]
    zs = [-0.9, -0.1] + [0.05 * 1.5 ** j for j in range(10)]
    samples = sample_grid(rhos, zs, energies["A"], G2)
    assert len(samples.values) == len(rhos) * len(zs)
    for (rho, z), got in zip(samples.coordinates, samples.values):
        assert got == pytest.approx(psi_integral(rho, z, energies["A"], G2),
                                    rel=1e-13)


def test_profile_samples_validation():
    with pytest.raises(ValueError):
        ProfileSamples(((0.1, 0.2),), (1.0, 2.0), "integral")
    with pytest.raises(ValueError):
        ProfileSamples(((0.1, 0.2),), (1.0,), "magic")
    with pytest.raises(ValueError):
        ProfileSamples(((0.1, 0.2),), (1.0,), "integral", normalized=True)


def test_series_truncation_validation():
    with pytest.raises(ValueError):
        SeriesTruncation(max_terms=0)
    with pytest.raises(ValueError):
        SeriesTruncation(tail_tol=0.0)
