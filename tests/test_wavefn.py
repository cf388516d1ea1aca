"""Pair wavefunction: exact routes, asymptotics, norms, contact behavior.

Frozen references come from 50-digit quadrature/series oracles
(tests/oracles/wavefn_oracle*.out).  wavefn_oracle.out's contact and norm
sections used a wrong convention and are superseded by wavefn_oracle2.out;
only its integral/series/profile sections are read here.
"""

import math

import pytest

from conftest import fval, oracle_values
from pairtrap.numerics import NumericsError, QuadratureSpec, SeriesError
from pairtrap.solver import (InteractionModel, TrapGeometry,
                             bound_state_exact, eigenenergies,
                             ground_energy_offset)
from pairtrap.specfun import PoleSignal, kummer_u, ln_gamma
from pairtrap.wavefn import (ProfileSamples, SeriesTruncation,
                             contact_coefficient, contact_scattering_length,
                             norm_squared_exact, normalize, profile_quasi1d,
                             profile_quasi2d, psi, psi_integral,
                             psi_series_axial, psi_series_radial, sample_grid)

ORA1 = oracle_values("wavefn_oracle.out")
ORA2 = oracle_values("wavefn_oracle2.out")
ORA3 = oracle_values("wavefn_oracle3.out")

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


def test_contact_slope_recovers_a(energies):
    s_c = contact_coefficient(energies["C"], G1)
    _close(s_c, fval(ORA2, "slope_C"), 1e-9)
    a_c = contact_scattering_length(energies["C"], G1)
    _close(a_c, fval(ORA2, "recovered_a_C"), 1e-9)
    assert abs(a_c - 1.0) < 1e-4

    s_d = contact_coefficient(energies["D"], G2)
    _close(s_d, fval(ORA2, "slope_D"), 1e-9)
    a_d = contact_scattering_length(energies["D"], G2)
    _close(a_d, fval(ORA2, "recovered_a_D"), 1e-9)
    assert abs(a_d / -2.0 - 1.0) < 1e-4


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
    # contact 1/r core: subtraction handling, coarse grid
    h = 0.04
    rhos = [h * (i + 1) for i in range(int(3.2 / h))]
    zs = [h * j for j in range(int(4.5 / h))]
    samples = sample_grid(rhos, zs, energies["A"], G2)
    out = normalize(samples, G2)
    want = fval(ORA2, "norm2_A")
    assert abs(out.norm_constant ** 2 / want - 1.0) < 1.5e-3


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


# ---------------------------------------------------------------------------
# excited states: single-mode dominance far from the axis/plane
# ---------------------------------------------------------------------------

# The single-mode term is the oracles' signed mp.gamma(a) * mp.hyperu(a, b, w)
# with a < 0 at these energies, so Gamma(a) U(a, b, w) is negative here;
# ln_gamma_u (a > 0, unsigned) cannot build it.  Keys carry the oracle's own
# number strings ('z=1.0', 'rho=3.0').

def _signed_gamma_u(a, b, w):
    lg, sign = ln_gamma(a)
    return sign * math.exp(lg) * kummer_u(a, b, w)


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
               * _signed_gamma_u(-cal_e / 2.0, 0.5, z * z))
        live = abs(t00 / full - 1.0)
        frozen = fval(ORA2, "exc100_m0_vs_full(z=%s)" % zs)
        _close(live, frozen, 1e-6)
    # z = 2: the m > 0 remainder is below double precision entirely
    full = psi_series_radial(0.0, 2.0, e_exc, G100, trunc)
    t00 = (100.0 * math.exp(-2.0) * pref
           * _signed_gamma_u(-cal_e / 2.0, 0.5, 4.0))
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
               * _signed_gamma_u(-cal_e / 0.02, 1.0, w))
        live = abs(t00 / full - 1.0)
        frozen = fval(ORA3, "ratio_err(rho=%s)" % rs)
        _close(live, frozen, 1e-6)


# ---------------------------------------------------------------------------
# domain and failure paths
# ---------------------------------------------------------------------------

def test_psi_integral_domain(energies):
    e = energies["A"]
    with pytest.raises(ValueError):
        psi_integral(-0.1, 0.5, e, G2)
    with pytest.raises(ValueError):
        psi_integral(0.0, 0.0, e, G2)
    with pytest.raises(ValueError):
        psi_integral(0.5, 0.5, ground_energy_offset(G2), G2)


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


def test_quadrature_spec_passthrough(energies):
    loose = QuadratureSpec(abs_tol=1e-8, rel_tol=1e-6)
    got = psi_integral(0.5, 0.5, energies["A"], G2, spec=loose)
    _close(got, fval(ORA1, "psiA(0.5,0.5)"), 1e-5)

