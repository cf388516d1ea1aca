"""Command-line front end: spectrum sweeps, bound states, wavefunction
profiles, figure-data regeneration, and a self-check battery, emitted as CSV.

Sweeps are parameterized by 1/a so unitarity is an interior grid point.  CSV
uses a single header line, comma separators, 12 significant digits, and NA
for missing cells (no root in window, rejected coordinate).  Exit codes:
0 success, 1 usage error, 2 numerical failure, 3 check-suite failure.
"""

import argparse
import math
import os
import random
import re
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from .numerics import NumericsError
from .solver import (InteractionModel, NoBoundState, TrapGeometry,
                     _check_window, _default_window, bound_state_exact,
                     eigenenergies, ground_energy_offset,
                     solve_self_consistent)
from .specfun import SQRT_PI, PoleSignal, gamma_ratio
from .spectral import (SpectralArgument, f_cigar, f_eval, f_integral,
                       f_pancake, f_recurrence_extend, phi)
from .wavefn import (SeriesTruncation, gamma_u, profile_quasi1d,
                     profile_quasi2d, psi, psi_integral, psi_peeled,
                     psi_series_axial, psi_series_radial)

COMMANDS = ("spectrum", "bound", "wavefunction", "fig1", "fig2", "check")
_FIG1_GRID = (-4.0, 4.0, 161)
# e^x E1(x) at x = 0.1, 1, 10 from 40-digit mpmath, to 17 digits
_EXP_E1 = ((0.1, 2.0146425447084517), (1.0, 0.59634736232319407),
           (10.0, 0.091563333939788082))


def _warn(msg):
    print("pairtrap: %s" % msg, file=sys.stderr)


@dataclass(frozen=True)
class RunConfig:
    """Validated invocation: one command plus its grids and options."""

    command: str
    eta: float = None
    a: float = None
    inv_a_grid: tuple = None      # (min, max, steps)
    resonance: tuple = None       # (a_bg, gamma, e_res)
    levels: int = 6
    window: tuple = None          # (E_min, E_max)
    coord_grid: tuple = None      # (min, max, steps)
    axis: str = None
    energy: float = None
    out: str = None
    threads: int = None
    fast: bool = False

    def __post_init__(self):
        if self.command not in COMMANDS:
            raise ValueError("unknown command %r" % (self.command,))
        if self.command != "check" and not (self.eta is not None
                                            and self.eta > 0
                                            and math.isfinite(self.eta)):
            raise ValueError("eta must be positive and finite")
        for name, grid in (("inv-a", self.inv_a_grid),
                           ("grid", self.coord_grid)):
            if grid is not None:
                lo, hi, steps = grid
                if not (steps >= 1 and lo <= hi
                        and (steps == 1 or lo < hi)):
                    raise ValueError("%s grid must be monotone with at least "
                                     "one point" % name)
        if self.window is not None and not self.window[0] < self.window[1]:
            raise ValueError("window must satisfy min < max")
        if self.levels < 1:
            raise ValueError("levels must be at least 1")
        if self.axis not in (None, "axial", "radial"):
            raise ValueError("axis must be axial or radial")
        if self.threads is not None and self.threads < 1:
            raise ValueError("threads must be at least 1")
        if self.resonance is not None:
            InteractionModel.from_resonance(*self.resonance)  # validates


@dataclass(frozen=True)
class CsvTable:
    """Rectangular numeric table; None cells render as NA."""

    header: tuple
    rows: tuple

    def __post_init__(self):
        for row in self.rows:
            if len(row) != len(self.header):
                raise ValueError("rows must match the header width")

    def to_text(self):
        def cell(v):
            if v is None or not math.isfinite(v):
                return "NA"
            return "%.12g" % v

        lines = [",".join(self.header)]
        lines.extend(",".join(cell(v) for v in row) for row in self.rows)
        return "\n".join(lines) + "\n"

    def write(self, path):
        if path is None:
            sys.stdout.write(self.to_text())
        else:
            with open(path, "w") as fh:
                fh.write(self.to_text())
            _warn("wrote %s" % path)


def _linspace(lo, hi, steps):
    if steps == 1:
        return [lo]
    return [lo + (hi - lo) * i / (steps - 1) for i in range(steps)]


# ---------------------------------------------------------------------------
# argument and config-file parsing
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    # usage problems exit 1 (argparse default is 2, reserved for numerics);
    # an argument starting -<digit>, -.<digit> or -inf is a value, so that
    # -1e9, -2.5E-3, -inf and -1.0,0.5,3.0 are read as argparse reads -1.5
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-(\d|\.\d|inf)", re.I)

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, "%s: error: %s\n" % (self.prog, message))


def _resonance(text):
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(
            "resonance needs three comma-separated numbers: a_bg,gamma,E_res")
    try:
        return tuple(float(p) for p in parts)
    except ValueError:
        raise argparse.ArgumentTypeError("resonance values must be numeric")


_CONFIG_CASTS = {
    "eta": float, "a": float, "energy": float,
    "inv_a_min": float, "inv_a_max": float, "inv_a_steps": int,
    "window_min": float, "window_max": float,
    "grid_min": float, "grid_max": float, "grid_steps": int,
    "levels": int, "threads": int,
    "axis": str, "out": str, "resonance": _resonance,
    "fast": lambda s: s.strip().lower() in ("1", "true", "yes", "on"),
}


def _load_config(path, parser):
    values = {}
    try:
        with open(path) as fh:
            for ln, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    parser.error("config %s line %d: expected key=value"
                                 % (path, ln))
                key, val = (s.strip() for s in line.split("=", 1))
                key = key.replace("-", "_")
                if key not in _CONFIG_CASTS:
                    parser.error("config %s line %d: unknown key %r"
                                 % (path, ln, key))
                try:
                    values[key] = _CONFIG_CASTS[key](val)
                except (ValueError, argparse.ArgumentTypeError) as exc:
                    parser.error("config %s line %d: %s" % (path, ln, exc))
    except OSError as exc:
        parser.error("cannot read config: %s" % exc)
    return values


def _build_parser():
    top = _Parser(prog="pairtrap",
                  description="Two trapped atoms with a contact interaction: "
                              "spectra, bound states, and wavefunctions.")
    sub = top.add_subparsers(dest="command", required=True, metavar="command")

    def add(name, help_text, eta_required=True):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="key=value file; flags override it")
        p.add_argument("--out", help="output CSV path (default: stdout)")
        p.add_argument("--threads", type=int,
                       help="worker processes (default: all cores)")
        if eta_required:
            p.add_argument("--eta", type=float,
                           help="trap anisotropy omega_perp/omega_z")
        return p

    sp = add("spectrum", "eigenenergy sweep over 1/a")
    sp.add_argument("--a", type=float, help="single scattering length")
    sp.add_argument("--inv-a-min", type=float)
    sp.add_argument("--inv-a-max", type=float)
    sp.add_argument("--inv-a-steps", type=int)
    sp.add_argument("--levels", type=int, help="level count (default 6)")
    sp.add_argument("--window-min", type=float)
    sp.add_argument("--window-max", type=float)
    sp.add_argument("--resonance", type=_resonance,
                    metavar="A_BG,GAMMA,E_RES",
                    help="energy-dependent a_eff model")

    bd = add("bound", "bound-state energy below E0")
    bd.add_argument("--a", type=float,
                    help="scattering length (default: unitarity)")
    bd.add_argument("--inv-a-min", type=float)
    bd.add_argument("--inv-a-max", type=float)
    bd.add_argument("--inv-a-steps", type=int)

    wf = add("wavefunction", "profile along one axis")
    wf.add_argument("--a", type=float,
                    help="scattering length (default: unitarity)")
    wf.add_argument("--axis", choices=("axial", "radial"), default=None)
    wf.add_argument("--energy", type=float,
                    help="explicit level energy (default: ground state)")
    wf.add_argument("--grid-min", type=float)
    wf.add_argument("--grid-max", type=float)
    wf.add_argument("--grid-steps", type=int)

    f1 = add("fig1", "spectrum sweep with the documented default grid")
    f1.add_argument("--levels", type=int)
    f1.add_argument("--window-min", type=float)
    f1.add_argument("--window-max", type=float)

    add("fig2", "unitarity profiles, exact vs asymptotic, both axes")

    ck = add("check", "cross-route invariant battery", eta_required=False)
    ck.add_argument("--fast", action="store_true",
                    help="reduced point counts, still full coverage")
    return top


def parse(argv=None):
    """Parse flags (and an optional key=value config file) into a RunConfig."""
    parser = _build_parser()
    ns = parser.parse_args(argv)
    if getattr(ns, "config", None):
        for key, val in _load_config(ns.config, parser).items():
            if not hasattr(ns, key):
                parser.error("config key %r not valid for command %r"
                             % (key, ns.command))
            current = getattr(ns, key)
            if current is None or current is False:
                setattr(ns, key, val)

    def grid(prefix, default):
        # None when no part is given; a missing part comes from default
        given = [getattr(ns, prefix + end, None)
                 for end in ("_min", "_max", "_steps")]
        if given == [None, None, None]:
            return None
        return tuple(d if v is None else v for v, d in zip(given, default))

    window = None
    if getattr(ns, "window_min", None) is not None or getattr(
            ns, "window_max", None) is not None:
        if ns.window_min is None or ns.window_max is None:
            parser.error("window needs both --window-min and --window-max")
        window = (ns.window_min, ns.window_max)

    kw = dict(command=ns.command, eta=getattr(ns, "eta", None),
              out=ns.out, threads=ns.threads)
    if ns.command in ("spectrum", "bound"):
        kw["a"] = ns.a
        kw["inv_a_grid"] = grid("inv_a", _FIG1_GRID)
    if ns.command in ("spectrum", "fig1"):
        if ns.levels is not None:
            kw["levels"] = ns.levels
        kw["window"] = window
    if ns.command == "spectrum":
        kw["resonance"] = ns.resonance
        if ns.resonance is not None and (ns.a is not None
                                         or kw["inv_a_grid"] is not None):
            parser.error("--resonance excludes --a and the 1/a grid")
        if ns.resonance is None and ns.a is None and kw["inv_a_grid"] is None:
            kw["inv_a_grid"] = _FIG1_GRID
    if kw.get("a") is not None and kw.get("inv_a_grid") is not None:
        parser.error("give either --a or the 1/a grid, not both")
    if ns.command == "wavefunction":
        kw["a"] = ns.a
        kw["axis"] = ns.axis or "axial"
        kw["energy"] = ns.energy
        # a missing eta gets RunConfig's error, not this default's
        kw["coord_grid"] = grid("grid", _wavefn_grid(kw["axis"],
                                                     ns.eta or 1.0))
    if ns.command == "fig1":
        kw["inv_a_grid"] = _FIG1_GRID
    if ns.command == "check":
        kw["fast"] = ns.fast
    try:
        return RunConfig(**kw)
    except ValueError as exc:
        parser.error(str(exc))


# ---------------------------------------------------------------------------
# worker functions (top level so the process pool can pickle them)
# ---------------------------------------------------------------------------

def _spectrum_cell(task):
    eta, inv_a, window, levels = task
    try:
        found = eigenenergies(InteractionModel.from_inverse_a(inv_a),
                              TrapGeometry(eta), window=window,
                              max_levels=levels)
        es = [lv.E for lv in found]
        return es + [None] * (levels - len(es)), None
    except (NumericsError, PoleSignal, ValueError) as exc:
        return [None] * levels, str(exc)


def _bound_cell(task):
    eta, inv_a = task
    try:
        lv = bound_state_exact(InteractionModel.from_inverse_a(inv_a),
                               TrapGeometry(eta))
        return lv.E, None
    except (NoBoundState, NumericsError, PoleSignal, ValueError) as exc:
        return None, str(exc)


def _wavefn_cell(task):
    eta, energy, axis, coord = task
    g = TrapGeometry(eta)
    rho, z = (0.0, coord) if axis == "axial" else (coord, 0.0)
    exact = asym = None
    notes = []
    try:
        exact = psi(rho, z, energy, g)
    except (ValueError, NumericsError, PoleSignal) as exc:
        notes.append("exact at %g: %s" % (coord, exc))
    try:
        if eta >= 1.0:
            asym = profile_quasi1d(axis, coord, energy, g)
        else:
            asym = profile_quasi2d(axis, coord, energy, g)
    except (ValueError, NumericsError, PoleSignal) as exc:
        notes.append("asymptotic at %g: %s" % (coord, exc))
    return exact, asym, "; ".join(notes) or None


def _pool_map(fn, tasks, threads):
    if threads is None:
        threads = os.cpu_count() or 1
    threads = max(1, min(threads, len(tasks)))
    if threads == 1:
        return [fn(t) for t in tasks]
    with ProcessPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, tasks))


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def run_spectrum(cfg):
    """Sweep 1/a (or solve one model) and tabulate inv_a, E_1..E_n."""
    if cfg.window is not None:
        _check_window(cfg.window)  # an unbounded window fails the run
    g = TrapGeometry(cfg.eta)
    header = ("inv_a",) + tuple("E_%d" % (i + 1) for i in range(cfg.levels))
    if cfg.resonance is not None:
        model = InteractionModel.from_resonance(*cfg.resonance)
        found = solve_self_consistent(model, g, window=cfg.window,
                                      max_levels=cfg.levels)
        es = [lv.E for lv in found]
        es += [None] * (cfg.levels - len(es))
        return CsvTable(header, ((None,) + tuple(es),))
    if cfg.inv_a_grid is not None:
        inv_grid = _linspace(*cfg.inv_a_grid)
    else:
        inv_grid = [1.0 / cfg.a] if cfg.a != 0 else [math.inf]
    window = cfg.window or _default_window(g, cfg.levels, inv_grid)
    tasks = [(cfg.eta, v, window, cfg.levels) for v in inv_grid]
    rows = []
    for (es, err), inv_a in zip(_pool_map(_spectrum_cell, tasks, cfg.threads),
                                inv_grid):
        if err:
            _warn("spectrum 1/a=%.6g: %s" % (inv_a, err))
        rows.append((inv_a,) + tuple(es))
    return CsvTable(header, tuple(rows))


def run_bound(cfg):
    """Bound level below E0 per 1/a grid point; NA when no root exists."""
    if cfg.inv_a_grid is not None:
        inv_grid = _linspace(*cfg.inv_a_grid)
    elif cfg.a is not None:
        inv_grid = [1.0 / cfg.a] if cfg.a != 0 else [math.inf]
    else:
        inv_grid = [0.0]
    tasks = [(cfg.eta, v) for v in inv_grid]
    rows = []
    for (e, err), inv_a in zip(_pool_map(_bound_cell, tasks, cfg.threads),
                               inv_grid):
        if err:
            _warn("bound 1/a=%.6g: %s" % (inv_a, err))
        rows.append((inv_a, e))
    return CsvTable(("inv_a", "E"), tuple(rows))


def _ground_energy(cfg, g):
    if cfg.energy is not None:
        return cfg.energy
    model = (InteractionModel.fixed(cfg.a) if cfg.a is not None
             else InteractionModel.from_inverse_a(0.0))
    return bound_state_exact(model, g).E


def _wavefn_table(eta, energy, axis, grid, threads):
    tasks = [(eta, energy, axis, c) for c in grid]
    rows = []
    for (exact, asym, note), coord in zip(
            _pool_map(_wavefn_cell, tasks, threads), grid):
        if note:
            _warn("wavefunction %s: %s" % (axis, note))
        rows.append((coord, exact, asym))
    return CsvTable(("coordinate", "psi_exact", "psi_asymptotic"),
                    tuple(rows))


def _wavefn_grid(axis, eta):
    # the wavefunction command's default coordinate grid: steps of 1/60 of
    # the plotted range, from one step off the origin, where Psi has its
    # contact singularity, to the end of the range
    hi = 3.0 if axis == "axial" else 3.0 / math.sqrt(max(1.0, eta))
    return (hi / 60, hi, 60)


def run_wavefunction(cfg):
    """Profile along one axis: coordinate, psi_exact, psi_asymptotic."""
    g = TrapGeometry(cfg.eta)
    energy = _ground_energy(cfg, g)
    grid = _linspace(*(cfg.coord_grid or _wavefn_grid(cfg.axis, cfg.eta)))
    return _wavefn_table(cfg.eta, energy, cfg.axis, grid, cfg.threads)


# plotted ranges of the unitarity profile figure, per regime
_FIG2_GRIDS = {
    "quasi1d": {"axial": (0.05, 1.25, 25), "radial": (0.005, 0.1, 20)},
    "quasi2d": {"axial": (0.025, 0.5, 20), "radial": (0.25, 6.0, 24)},
}


def run_fig2(cfg):
    """Unitarity ground-state profiles on both axes, exact vs asymptotic.

    Writes one CSV per axis ("<stem>_axial.csv", "<stem>_radial.csv");
    returns the two tables keyed by axis.
    """
    g = TrapGeometry(cfg.eta)
    energy = bound_state_exact(InteractionModel.from_inverse_a(0.0), g).E
    regime = "quasi1d" if cfg.eta >= 1.0 else "quasi2d"
    out = {}
    for axis in ("axial", "radial"):
        grid = _linspace(*_FIG2_GRIDS[regime][axis])
        out[axis] = _wavefn_table(cfg.eta, energy, axis, grid, cfg.threads)
    return out


def _check_battery(fast):
    """Cross-route invariants; returns (name, measured, tol, ok) records."""
    records = []

    def add(name, measured, tol):
        records.append((name, measured, tol, measured <= tol))

    g1 = TrapGeometry(1.0)
    g2 = TrapGeometry(2.0)

    d = phi(0.0)
    add("phi(0) = 1.938", abs(d - 1.938), 1e-3)
    add("2 exp(-phi(0)) = 0.288", abs(2.0 * math.exp(-d) - 0.288), 1e-3)

    rng = random.Random(20060722)
    worst = 0.0
    for _ in range(5 if fast else 25):
        x = rng.uniform(0.1, 3.0)
        eta = math.exp(rng.uniform(math.log(0.3), math.log(3.0)))
        lhs = f_eval(SpectralArgument(x, eta)).value \
            - f_eval(SpectralArgument(x + eta, eta)).value
        rhs = eta * math.sqrt(math.pi) * gamma_ratio(x, x + 0.5)
        worst = max(worst, abs(lhs - rhs))
    add("recurrence residual", worst, 1e-9)

    worst = 0.0
    for closed, eta, n in ((f_cigar, 2.0, 2), (f_cigar, 10.0, 10),
                           (f_pancake, 0.25, 4)):
        for x in (1.7, 0.3, -0.5 * min(eta, 1.0), -2.6 * min(eta, 1.0)):
            ref = f_recurrence_extend(SpectralArgument(x, eta)).value
            worst = max(worst, abs(closed(x, n).value - ref) / (1 + abs(ref)))
    add("closed forms vs recurrence", worst, 1e-12)

    # f_eval's interpolant above T = max(eta, 1)/2: at T, T + eta/2 and
    # T + eta, and at 2, 100 and 1e6 times T + eta
    worst = 0.0
    for eta in (0.37, 2.37, 10.0):
        lo = 0.5 * max(eta, 1.0)
        hi = lo + eta
        for x in (lo, lo + 0.5 * eta, hi, 2.0 * hi, 1e2 * hi, 1e6 * hi):
            arg = SpectralArgument(x, eta)
            ref = f_integral(arg).value
            worst = max(worst, abs(f_eval(arg).value - ref) / (1 + abs(ref)))
    add("interpolant vs direct integral", worst, 1e-13)

    # Gamma(1) U(1, 1, x) = e^x E1(x), Gamma(1/2) U(1/2, 3/2, x) = sqrt(pi/x),
    # and through the recurrence branch Gamma(-1/2) U(-1/2, 1/2, x)
    # = -2 sqrt(pi x)
    worst = 0.0
    for x, exp_e1 in _EXP_E1:
        u11 = gamma_u(1.0, 1.0, x) / exp_e1
        u_half = gamma_u(0.5, 1.5, x) * math.sqrt(x) / SQRT_PI
        u_neg = gamma_u(-0.5, 0.5, x) / (-2.0 * SQRT_PI * math.sqrt(x))
        worst = max(worst, abs(u11 - 1.0), abs(u_half - 1.0),
                    abs(u_neg - 1.0))
    add("Gamma U kernel vs closed forms", worst, 1e-13)

    levels = eigenenergies(InteractionModel.from_inverse_a(0.0), g1,
                           window=(0.0, 9.4), max_levels=5)
    worst = max(abs(lv.E - want)
                for lv, want in zip(levels, (0.5, 2.5, 4.5, 6.5, 8.5)))
    add("unitarity spherical ladder", worst, 1e-8)

    # at eta = 1, Psi(r) = e^(-r^2/2) Gamma(x) U(x, 3/2, r^2)/(2 pi^{3/2})
    # with x = (3/2 - E)/2
    e_sph = bound_state_exact(InteractionModel.fixed(1.0), g1).E
    x = 0.5 * (1.5 - e_sph)
    worst = 0.0
    for rho, z in ((0.3, 0.0), (0.0, 0.5), (0.6, 0.8), (1.2, 1.6)):
        rr = rho * rho + z * z
        want = math.exp(-0.5 * rr) * gamma_u(x, 1.5, rr) / (2.0 * SQRT_PI ** 3)
        worst = max(worst, abs(psi_integral(rho, z, e_sph, g1) / want - 1.0))
    add("psi node table vs sphere Gamma U", worst, 1e-12)

    e_bound = bound_state_exact(InteractionModel.fixed(1.0), g2).E
    ref = psi_integral(0.5, 0.5, e_bound, g2)
    if not fast:
        tr = SeriesTruncation(max_terms=20000, tail_tol=1e-12)
        rad = psi_series_radial(0.5, 0.5, e_bound, g2, tr)
        ax = psi_series_axial(0.5, 0.5, e_bound, g2, tr)
        add("wavefunction route agreement",
            max(abs(rad / ref - 1.0), abs(ax / ref - 1.0)), 1e-6)
        e0 = ground_energy_offset(g2)
        (level,) = eigenenergies(InteractionModel.from_inverse_a(1.0), g2,
                                 window=(e0, e0 + 2.0), max_levels=1)
        add("excited psi: integral vs series",
            abs(psi_peeled(0.5, 0.5, level.E, g2)
                / psi_series_radial(0.5, 0.5, level.E, g2, tr) - 1.0), 1e-10)
    slope = (0.025 * psi_integral(0.0, 0.025, e_bound, g2)
             - 0.5 / math.pi) / 0.025
    # crude one-step slope: generous tolerance, the fit is refined in tests
    add("contact slope sign and scale",
        abs(slope * math.sqrt(2.0) * math.pi * 1.0 + 1.0), 0.2)
    return records


def run_check(cfg):
    """Run the invariant battery; report and per-check pass/fail lines."""
    t0 = time.time()
    records = _check_battery(cfg.fast)
    lines = []
    ok_all = True
    for name, measured, tol, ok in records:
        ok_all = ok_all and ok
        lines.append("%-34s measured=%.3e tol=%.3e %s"
                     % (name, measured, tol, "PASS" if ok else "FAIL"))
    lines.append("%d checks in %.1fs: %s"
                 % (len(records), time.time() - t0,
                    "all passed" if ok_all else "FAILURES"))
    return "\n".join(lines) + "\n", (0 if ok_all else 3)


def main(argv=None):
    try:
        cfg = parse(argv)
    except SystemExit as exc:  # usage error (1) or --help (0)
        return exc.code
    try:
        if cfg.command == "check":
            report, code = run_check(cfg)
            sys.stdout.write(report)
            return code
        if cfg.command == "fig2":
            tables = run_fig2(cfg)
            stem = cfg.out or ("fig2_eta%g.csv" % cfg.eta)
            root, ext = os.path.splitext(stem)
            for axis, table in tables.items():
                table.write("%s_%s%s" % (root, axis, ext or ".csv"))
            return 0
        if cfg.command in ("spectrum", "fig1"):
            table = run_spectrum(cfg)
        elif cfg.command == "bound":
            table = run_bound(cfg)
        else:
            table = run_wavefunction(cfg)
        table.write(cfg.out)
        return 0
    except (NumericsError, PoleSignal, NoBoundState, ValueError) as exc:
        _warn("numerical failure: %s" % exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
