"""Out-of-program tracing for the pairtrap benchmark.

`Tracer.patch()` replaces pairtrap functions by timing wrappers at the names
their callers look up (module globals are resolved at call time, so a caller
in `pairtrap.solver` sees `pairtrap.solver.f_eval` replaced).  Nothing under
`src/` changes.  A span is a list

    [name, start, end, parent, request_id, count, tag]

kept in memory: `count` is the number of calls into the function handed to a
quadrature or root finder (the integrand or target), `tag` is the route of an
F value or the number of levels a solver returned.  Self time is a span's
duration minus the time its nested spans of other layers cover; nested spans
of the same layer (f_eval -> f_integral) stay in the parent's self time.
"""

import functools
import importlib
import json
import statistics
import time

NAME, START, END, PARENT, RID, COUNT, TAG = range(7)

ROUTES = ("integral", "recurrence", "cigar", "pancake", "spherical")


def _levels(result):
    return len(result)


def _route(result):
    return result.route


# (span name, lookup sites, what to record).  A lookup site is
# (module, attribute); "pairtrap" is the package namespace the benchmark's
# requests call through.  `counted` wraps the first argument (the integrand
# or target) to count its calls; `tag` records something of the result.
TARGETS = (
    ("numerics.quad",
     [("pairtrap.spectral", "integrate_semi_infinite_with_error"),
      ("pairtrap.wavefn", "integrate_semi_infinite_with_error")],
     {"counted": True}),
    ("numerics.find_root", [("pairtrap.solver", "find_root_bracketed")],
     {"counted": True}),
    ("numerics.bracket", [("pairtrap.solver", "bracket_from_signs")], {}),
    ("spectral.f_eval", [("pairtrap.solver", "f_eval"),
                         ("pairtrap.wavefn", "f_eval")], {"tag": _route}),
    ("spectral.f_integral", [("pairtrap.spectral", "f_integral")], {}),
    ("spectral.phi", [("pairtrap.spectral", "phi"), ("pairtrap.solver", "phi"),
                      ("pairtrap.wavefn", "phi")], {}),
    ("specfun.gamma_ratio", [("pairtrap.spectral", "gamma_ratio"),
                             ("pairtrap.solver", "gamma_ratio")], {}),
    ("specfun.hyp2f1_one", [("pairtrap.spectral", "hyp2f1_one")], {}),
    ("specfun.ln_gamma_u", [("pairtrap.wavefn", "ln_gamma_u")], {}),
    ("specfun.kummer_u", [("pairtrap.wavefn", "kummer_u")], {}),
    ("specfun.hurwitz_zeta_half",
     [("pairtrap.spectral", "hurwitz_zeta_half"),
      ("pairtrap.solver", "hurwitz_zeta_half"),
      ("pairtrap.wavefn", "hurwitz_zeta_half")], {}),
    ("specfun.bessel_k0", [("pairtrap.wavefn", "bessel_k0")], {}),
    ("solver.eigenenergies", [("pairtrap", "eigenenergies")],
     {"tag": _levels}),
    ("solver.bound_state_exact", [("pairtrap", "bound_state_exact")], {}),
    ("solver.solve_self_consistent", [("pairtrap", "solve_self_consistent")],
     {"tag": _levels}),
    ("wavefn.psi_integral", [("pairtrap", "psi_integral"),
                             ("pairtrap.wavefn", "psi_integral")], {}),
    ("wavefn.psi_series_radial", [("pairtrap", "psi_series_radial"),
                                  ("pairtrap.wavefn", "psi_series_radial")], {}),
    ("wavefn.psi_series_axial", [("pairtrap", "psi_series_axial"),
                                 ("pairtrap.wavefn", "psi_series_axial")], {}),
    ("wavefn.sample_grid", [("pairtrap", "sample_grid")], {}),
    ("wavefn.normalize", [("pairtrap", "normalize")], {}),
    ("wavefn.norm_squared_exact", [("pairtrap", "norm_squared_exact")], {}),
    ("wavefn.profile", [("pairtrap", "profile_quasi1d"),
                        ("pairtrap", "profile_quasi2d")], {}),
)


class Tracer:
    """Span recorder with patch/unpatch of the pairtrap lookup sites."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._saved = []
        self.rid = None

    # -- recording ---------------------------------------------------------

    def _wrap(self, name, fn, counted=False, tag=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.rid, 0, None]
            if counted:
                inner = args[0]

                def counting(*a):
                    span[COUNT] += 1
                    return inner(*a)

                args = (counting,) + args[1:]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if tag is not None:
                span[TAG] = tag(result)
            return result

        return traced

    def request(self, rid, fn, *args):
        """Run fn(*args) as the root span of request `rid`."""
        self.rid = rid
        try:
            return self._wrap("bench.request", fn)(*args)
        finally:
            self.rid = None

    # -- patching ----------------------------------------------------------

    def patch(self):
        """Install the wrappers; sites missing from this pairtrap are skipped."""
        for name, sites, opts in TARGETS:
            for module_name, attr in sites:
                module = importlib.import_module(module_name)
                original = getattr(module, attr, None)
                if original is None:
                    continue
                self._saved.append((module, attr, original))
                setattr(module, attr, self._wrap(name, original, **opts))

    def unpatch(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def __enter__(self):
        self.patch()
        return self

    def __exit__(self, *exc):
        self.unpatch()

    def dump(self, path):
        """Write the spans as JSON lines, times in microseconds from the first."""
        t0 = self.spans[0][START] if self.spans else 0.0
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps([s[NAME], round((s[START] - t0) * 1e6, 3),
                                     round((s[END] - t0) * 1e6, 3), s[PARENT],
                                     s[RID], s[COUNT], s[TAG]]) + "\n")


# ---------------------------------------------------------------------------
# derived per-layer figures
# ---------------------------------------------------------------------------

def _layer(name):
    return name.split(".", 1)[0]


class SpanIndex:
    """Children, self times and ancestry over a list of spans."""

    def __init__(self, spans):
        self.spans = spans
        self.children = [[] for _ in spans]
        for i, s in enumerate(spans):
            if s[PARENT] >= 0:
                self.children[s[PARENT]].append(i)

    def duration(self, i):
        return self.spans[i][END] - self.spans[i][START]

    def self_time(self, i):
        layer = _layer(self.spans[i][NAME])
        covered = 0.0
        todo = list(self.children[i])
        while todo:
            c = todo.pop()
            if _layer(self.spans[c][NAME]) == layer:
                todo.extend(self.children[c])
            else:
                covered += self.duration(c)
        return self.duration(i) - covered

    def ancestor(self, i, names):
        p = self.spans[i][PARENT]
        while p >= 0:
            if self.spans[p][NAME] in names:
                return p
            p = self.spans[p][PARENT]
        return -1


def _median(values):
    return statistics.median(values) if values else None


def layer_metrics(spans, is_workload, n_requests):
    """Per-request counts and per-call median times from a traced run.

    `is_workload(rid)` separates the workload's requests from the fixed probe
    rows; counts come from the workload only.  A time whose layer the
    workload never called is taken from the probe rows and listed in the
    returned `from_probes`.
    """
    idx = SpanIndex(spans)
    by_name = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[NAME], []).append(i)

    def mine(name, want_workload=True):
        return [i for i in by_name.get(name, ())
                if is_workload(spans[i][RID]) == want_workload]

    def per_request(name):
        return len(mine(name)) / n_requests

    from_probes = []

    def timed(metric, name, scale, self_time, select=None):
        for workload in (True, False):
            ids = [i for i in mine(name, workload) if select is None or select(i)]
            if ids:
                if not workload:
                    from_probes.append(metric)
                get = idx.self_time if self_time else idx.duration
                return _median([get(i) for i in ids]) * scale
        return 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    m = {}
    quad = mine("numerics.quad")
    m["numerics.quad.calls"] = per_request("numerics.quad")
    m["numerics.quad.integrand_calls_per_quad"] = ratio(
        sum(spans[i][COUNT] for i in quad), len(quad))
    m["numerics.quad.self_us"] = timed("numerics.quad.self_us",
                                       "numerics.quad", 1e6, True)
    roots = mine("numerics.find_root")
    m["numerics.find_root.calls"] = per_request("numerics.find_root")
    m["numerics.find_root.evals_per_root"] = ratio(
        sum(spans[i][COUNT] for i in roots), len(roots))
    m["numerics.find_root.self_us"] = timed("numerics.find_root.self_us",
                                            "numerics.find_root", 1e6, True)
    m["numerics.bracket.calls"] = per_request("numerics.bracket")

    fevals = mine("spectral.f_eval")
    m["spectral.f_eval.calls"] = per_request("spectral.f_eval")
    for route in ROUTES:
        key = "spectral.f_eval.self_us." + route
        m[key] = timed(key, "spectral.f_eval", 1e6, True,
                       lambda i, r=route: spans[i][TAG] == r)
        m["spectral.f_eval.share." + route] = ratio(
            sum(1 for i in fevals if spans[i][TAG] == route), len(fevals))
    m["spectral.phi.calls"] = per_request("spectral.phi")
    m["spectral.phi.self_us"] = timed("spectral.phi.self_us", "spectral.phi",
                                      1e6, True)

    for fn in ("gamma_ratio", "hyp2f1_one", "ln_gamma_u", "kummer_u",
               "hurwitz_zeta_half", "bessel_k0"):
        name = "specfun." + fn
        m[name + ".calls"] = per_request(name)
        m[name + ".self_us"] = timed(name + ".self_us", name, 1e6, True)

    def per_level(solver, child):
        owners = mine(solver)
        levels = sum(spans[i][TAG] or 0 for i in owners)
        inside = sum(1 for i in mine(child)
                     if idx.ancestor(i, (solver,)) >= 0)
        return ratio(inside, levels)

    m["solver.f_evals_per_level"] = per_level("solver.eigenenergies",
                                              "spectral.f_eval")
    m["solver.segments_per_level"] = per_level("solver.eigenenergies",
                                               "numerics.bracket")
    m["solver.eigenenergies.self_us"] = timed(
        "solver.eigenenergies.self_us", "solver.eigenenergies", 1e6, True)
    m["solver.bound_state_exact.ms"] = timed(
        "solver.bound_state_exact.ms", "solver.bound_state_exact", 1e3, False)
    m["solver.solve_self_consistent.f_evals_per_level"] = per_level(
        "solver.solve_self_consistent", "spectral.f_eval")

    m["wavefn.psi_integral.self_us"] = timed(
        "wavefn.psi_integral.self_us", "wavefn.psi_integral", 1e6, True)
    for fn, scale, unit in (("psi_series_radial", 1e3, "ms"),
                            ("psi_series_axial", 1e3, "ms"),
                            ("sample_grid", 1e3, "ms"),
                            ("normalize", 1e3, "ms"),
                            ("norm_squared_exact", 1e3, "ms"),
                            ("profile", 1e6, "us")):
        key = "wavefn.%s.%s" % (fn, unit)
        m[key] = timed(key, "wavefn." + fn, scale, False)

    requests = mine("bench.request")
    total = sum(idx.duration(i) for i in requests)
    covered = sum(idx.duration(c) for i in requests for c in idx.children[i])
    m["trace.uncovered_frac"] = ratio(total - covered, total)
    return m, from_probes
