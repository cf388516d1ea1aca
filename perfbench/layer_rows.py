"""Fixed-input rows of the traced run: layer probes, sanity rows, pool speed-up.

The probe rows call every traced layer once per repetition on fixed inputs,
through the same lookup sites the program uses, so each layer has a time even
on a workload that never calls it.  The sanity rows reproduce the baseline
layer table of ROADMAP.md (f_eval on the integral route at x = 0.7,
eta = 2.37: about 0.2 ms and 240 integrand callbacks; psi_integral at
(0.5, 0.5), eta = 2: about 0.3 ms; phi(0): about 1 ms); a count far from
240 means a wrapper sits in the wrong place.
"""

import dataclasses
import statistics
import time

import pairtrap as pt
from pairtrap import cli

import workloads
from tracer import COUNT, NAME, RID

SERIES = pt.SeriesTruncation(max_terms=20000, tail_tol=1e-12)


def clear_caches():
    """Empty the program's memo caches, so every pass starts cold."""
    gamma_u = getattr(pt.wavefn, "_gamma_u", None)
    if hasattr(gamma_u, "cache_clear"):
        gamma_u.cache_clear()


def _eta2_state():
    g = pt.TrapGeometry(2.0)
    return g, pt.bound_state_exact(pt.InteractionModel.fixed(1.0), g).E


def probe_rows():
    """(name, repetitions, callable) rows, evaluated through the lookup sites."""
    g2, e2 = _eta2_state()
    g237 = pt.TrapGeometry(2.37)
    g20, g005 = pt.TrapGeometry(20.0), pt.TrapGeometry(0.05)
    e20, e005 = 20.5 - 1.0, 0.55 - 0.1

    def f_eval(x, eta):
        return lambda: pt.solver.f_eval(pt.SpectralArgument(x, eta))

    def cold(fn, energy):
        def run():
            clear_caches()
            return fn(0.5, 0.5, energy, g2, SERIES)
        return run

    def grid():
        rhos, zs = workloads.trap_grid(2.0, e2)
        pt.normalize(pt.sample_grid(rhos, zs, e2, g2), g2)
        pt.norm_squared_exact(e2, g2)

    def profiles():
        for axis, c in (("axial", 0.5), ("radial", 0.05)):
            pt.profile_quasi1d(axis, c, e20, g20)
        for axis, c in (("axial", 0.25), ("radial", 3.0)):
            pt.profile_quasi2d(axis, c, e005, g005)

    return [
        ("f_eval integral", 5, f_eval(0.7, 2.37)),
        ("f_eval recurrence", 5, f_eval(-3.3, 2.37)),
        ("f_eval cigar", 5, f_eval(0.3, 5.0)),
        ("f_eval pancake", 5, f_eval(0.3, 0.2)),
        ("f_eval spherical", 5, f_eval(0.3, 1.0)),
        ("phi", 5, lambda: pt.spectral.phi(0.0)),
        ("bound_state_exact", 3,
         lambda: pt.bound_state_exact(pt.InteractionModel.fixed(1.0), g2)),
        ("eigenenergies", 3,
         lambda: pt.eigenenergies(pt.InteractionModel.from_inverse_a(1.0), g237,
                                  window=(-2.0, 8.0), max_levels=4)),
        ("psi_integral", 5, lambda: pt.psi_integral(0.5, 0.5, e2, g2)),
        ("psi_series_radial cold", 3, cold(pt.psi_series_radial, e2)),
        ("psi_series_axial cold", 3, cold(pt.psi_series_axial, e2)),
        # above E0 the first coefficients have a < 1/2: the kummer_u branch
        ("psi_series_radial above E0", 3, cold(pt.psi_series_radial, 3.0)),
        ("profiles", 3, profiles),
        ("grid and norms", 3, grid),
    ]


def run_probes(tracer):
    """Run every probe row under `tracer` (already patched), rid 'probe:<row>'."""
    for name, reps, fn in probe_rows():
        for _ in range(reps):
            tracer.request("probe:" + name, fn)


def _median_ms(fn, reps):
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3


def sanity_rows(tracer):
    """Untraced medians of the baseline rows, plus the traced callback count."""
    g2, e2 = _eta2_state()
    arg = pt.SpectralArgument(0.7, 2.37)
    rows = {
        "sanity.f_eval_integral.ms": _median_ms(lambda: pt.f_eval(arg), 21),
        "sanity.psi_integral.ms": _median_ms(
            lambda: pt.psi_integral(0.5, 0.5, e2, g2), 21),
        "sanity.phi0.ms": _median_ms(lambda: pt.phi(0.0), 11),
    }
    with tracer:
        tracer.request("sanity", pt.solver.f_eval, arg)
    rows["sanity.f_eval_integral.integrand_calls"] = float(sum(
        s[COUNT] for s in tracer.spans
        if s[RID] == "sanity" and s[NAME] == "numerics.quad"))
    return rows


POOL_ETA = 2.37
POOL_CELLS = 24


def pool_speedup():
    """Wall time of one fixed `run_spectrum` sweep at threads=1 over threads=2.

    Returns (speed-up, tables equal).  The two-worker run is the only place
    the benchmark lets the program start processes.
    """
    window = tuple(workloads.fig1_window(POOL_ETA, 6, (-4.0, 4.0)))
    base = cli.RunConfig(command="spectrum", eta=POOL_ETA,
                         inv_a_grid=(-4.0, 4.0, POOL_CELLS), levels=6,
                         window=window, threads=1)
    times, tables = [], []
    for threads in (1, 2):
        cfg = dataclasses.replace(base, threads=threads)
        t0 = time.perf_counter()
        tables.append(cli.run_spectrum(cfg))
        times.append(time.perf_counter() - t0)
    return times[0] / times[1], tables[0].rows == tables[1].rows
