"""Seeded benchmark of pairtrap: closed-loop end-to-end run or traced run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; the program is imported from ./src.
Workloads are defined in perfbench/workloads.py and documented, with every
metric, in perfbench/README.md.

--trace 0  One client sends requests back to back in this process for S
           seconds after a warm-up, then checks every answer.  Set-up time
           and peak memory come from fresh interpreters started one at a
           time.  Prints the end-to-end metrics.
--trace 1  Answers a fixed number of requests twice, untraced and then with
           every layer wrapped, checks that both passes answer bit-identically,
           adds the fixed-input probe and sanity rows and the process-pool
           row, and prints the per-layer metrics.  Spans are written to
           .bench_out/.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

SETUP_RUNS = 3        # timed fresh interpreters, after one discarded
SETUP_REQUESTS = 3    # requests each fresh interpreter answers
WARMUP = 2            # untimed requests before the closed loop
TAIL_BEYOND = 10      # samples the tail percentile must leave above it
WALL_CAP = 2.0        # the closed loop stops after this many times --seconds


def load_program():
    """Import pairtrap from ./src of this checkout, or exit without a result."""
    if not os.path.isfile(os.path.join(SRC, "pairtrap", "__init__.py")):
        sys.exit("perfbench: no pairtrap sources under %s" % SRC)
    sys.path[:0] = [SRC, HERE]
    import pairtrap
    if not os.path.abspath(pairtrap.__file__).startswith(SRC + os.sep):
        sys.exit("perfbench: pairtrap imported from %s, not from %s"
                 % (pairtrap.__file__, SRC))


class Inputs:
    """A workload's input stream, materialized as far as it has been read."""

    def __init__(self, stream):
        self._stream = stream
        self.items = []

    def __getitem__(self, i):
        while len(self.items) <= i:
            self.items.append(next(self._stream))
        return self.items[i]


def answer(request, inp):
    """(answer, None) or (None, error text) for one request."""
    try:
        return request(inp), None
    except Exception:  # a failed request is counted, not fatal
        return None, traceback.format_exc(limit=3).strip().splitlines()[-1]


def check(workload, inp, ans, err):
    if err is not None:
        return ["raised " + err]
    try:
        return workload.check(inp, ans)
    except Exception:  # a check that raises is a failed output
        return ["check raised " + traceback.format_exc(limit=3)
                .strip().splitlines()[-1]]


def same(a, b):
    """Bit-identical answers (JSON keeps every float digit and the sign of 0)."""
    return json.dumps(a) == json.dumps(b)


# ---------------------------------------------------------------------------
# end-to-end run
# ---------------------------------------------------------------------------

def fresh_run(workload_name, inputs):
    """Start a fresh interpreter that answers `inputs`.

    Returns (CPU seconds and wall seconds until the first answer, all
    answers, peak RSS in kB).
    """
    job = json.dumps({"workload": workload_name, "inputs": inputs})
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "fresh.py")],
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            text=True, cwd=ROOT)
    try:
        proc.stdin.write(job)
        proc.stdin.close()
        first = proc.stdout.readline()
        setup = time.perf_counter() - t0
        rest = proc.stdout.read()
        code = proc.wait(timeout=120)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    tag, _, cpu = first.partition(" ")
    if tag != "first" or code != 0:
        raise RuntimeError("fresh interpreter failed with exit code %s" % code)
    result = json.loads(rest)
    return float(cpu), setup, result["answers"], result["rss_kb"]


def end_to_end(workload, seed, seconds):
    from hostspeed import (IMPORT_NOMINAL, HostSpeed, cpu_seconds,
                           import_reference)

    speed = HostSpeed()
    inputs = Inputs(workload.stream(seed))
    first = [inputs[i] for i in range(SETUP_REQUESTS)]
    fresh_run(workload.name, first[:1])  # discarded: warms the file cache
    setups, setup_walls, rss_kb, fresh_answers = [], [], [], []
    for _ in range(SETUP_RUNS):
        reference = import_reference(ROOT)
        cpu, wall, answers, kb = fresh_run(workload.name, first)
        setups.append(cpu * IMPORT_NOMINAL / reference)
        setup_walls.append(wall)
        rss_kb.append(kb)
        fresh_answers.append(answers)

    warm = [answer(workload.request, inputs[i]) for i in range(WARMUP)]
    # The loop runs until the scaled request time reaches `seconds`, so the
    # number of requests, and with it the tail percentile, does not depend
    # on how fast the host happens to be; a wall-clock cap bounds the run.
    results, timings = [], []
    clock = time.perf_counter
    cap = clock() + WALL_CAP * seconds
    measured = 0.0
    i = WARMUP
    speed.sample()
    while measured < seconds and clock() < cap:
        if speed.due():
            speed.sample()
        inp = inputs[i]
        t0, c0 = clock(), cpu_seconds()
        ans, err = answer(workload.request, inp)
        cpu = cpu_seconds() - c0
        timings.append((t0, cpu, clock() - t0))
        results.append((i, ans, err))
        measured += cpu * speed.factor(t0)
        i += 1
    speed.sample()
    raw = [wall for _, _, wall in timings]
    latencies = [cpu * speed.factor(t0) for t0, cpu, _ in timings]

    failures = []
    for i, ans, err in results:
        errs = check(workload, inputs[i], ans, err)
        if errs:
            failures.append((i, errs))
    answered = [a for a, _ in warm] + [a for _, a, _ in results]
    for run, answers in enumerate(fresh_answers):
        for k, fresh in enumerate(answers[:len(answered)]):
            if not same(fresh, answered[k]):
                failures.append((k, ["fresh interpreter %d answered differently"
                                     % run]))

    n = len(latencies)
    completed = sum(1 for _, _, err in results if err is None)
    stats = {}
    for label, times in (("scaled", latencies), ("raw", raw)):
        ordered = sorted(times)
        stats[label] = (completed / sum(times), statistics.median(times) * 1e3,
                        ordered[max(n - TAIL_BEYOND - 1, 0)] * 1e3)
    rate, p50, tail = stats["scaled"]
    metrics = {
        "requests_per_s": (rate, "1/s"),
        "latency_p50_ms": (p50, "ms"),
        "latency_tail_ms": (tail, "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (statistics.median(rss_kb) / 1024.0, "MB"),
    }
    notes = [
        "requests %d in %.2f s of request time, closed loop, 1 client"
        % (n, sum(raw)),
        "latency_tail_ms is p%.1f of %d samples (%d beyond it)"
        % (100.0 * max(n - TAIL_BEYOND, 1) / n, n, min(TAIL_BEYOND, n - 1)),
        "failed_frac %.6g frac (%d of %d)"
        % (len(failures) / max(n, 1), len(failures), n),
        "times are CPU times scaled to host speed (reference loop median "
        "%.3f ms, %d timings); in unscaled wall time: %.6g 1/s, p50 %.6g ms, "
        "tail %.6g ms, setup %.6g s" % (
            statistics.median(speed.seconds) * 1e3, len(speed.seconds),
            *stats["raw"], statistics.median(setup_walls)),
        "setup_s over %d fresh interpreters, each answering %d requests "
        "(peak_rss_mb at their end): %s" % (
            SETUP_RUNS, SETUP_REQUESTS,
            " ".join("%.3f" % t for t in setups)),
    ]
    return metrics, notes, n, failures, inputs


# ---------------------------------------------------------------------------
# traced run
# ---------------------------------------------------------------------------

def unit_of(name):
    if ".self_us" in name or name.endswith(".us"):
        return "us"
    if name.endswith(".ms"):
        return "ms"
    if ".share." in name or name.endswith("_frac"):
        return "frac"
    if name == "cli.pool_speedup":
        return "ratio"
    return "count"


def traced(workload, seed):
    import layer_rows
    from tracer import Tracer, layer_metrics

    inputs = Inputs(workload.stream(seed))
    batch = [inputs[i] for i in range(workload.trace_requests)]
    answer(workload.request, batch[0])  # warm-up, like the end-to-end run

    # The two passes alternate request by request, each from cold caches,
    # so drift in machine load hits both alike.
    clock = time.perf_counter
    tracer = Tracer()
    plain, with_trace = [], []
    t_plain = t_traced = 0.0
    for i, inp in enumerate(batch):
        layer_rows.clear_caches()
        t0 = clock()
        plain.append(answer(workload.request, inp))
        t_plain += clock() - t0
        layer_rows.clear_caches()
        with tracer:
            t0 = clock()
            with_trace.append(answer(
                lambda x: tracer.request(i, workload.request, x), inp))
            t_traced += clock() - t0
    with tracer:
        layer_rows.run_probes(tracer)
    sanity = layer_rows.sanity_rows(tracer)

    failures = []
    for i, ((ans, err), (t_ans, t_err)) in enumerate(zip(plain, with_trace)):
        errs = check(workload, batch[i], ans, err)
        if not same(ans, t_ans) or err != t_err:
            errs.append("traced answer differs from the untraced one")
        if errs:
            failures.append((i, errs))

    speedup, pool_same = layer_rows.pool_speedup()
    if not pool_same:
        failures.append(("pool", ["threads=2 sweep differs from threads=1"]))

    values, from_probes = layer_metrics(tracer.spans,
                                        lambda rid: isinstance(rid, int),
                                        len(batch))
    values["trace.overhead_frac"] = t_traced / t_plain - 1.0
    values["cli.pool_speedup"] = speedup
    values.update(sanity)
    metrics = {k: (v, unit_of(k)) for k, v in values.items()}

    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, "trace_%s_seed%d.jsonl" % (workload.name, seed))
    tracer.dump(path)
    notes = [
        "traced %d requests: %.3f s untraced, %.3f s traced; %d spans in %s"
        % (len(batch), t_plain, t_traced, len(tracer.spans),
           os.path.relpath(path, ROOT)),
        "times taken from the fixed probe rows (layer unused here): %s"
        % (", ".join(from_probes) or "none"),
    ]
    return metrics, notes, len(batch), failures, inputs


# ---------------------------------------------------------------------------

def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    load_program()
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        ap.error("unknown workload %r; choose from %s"
                 % (args.workload, ", ".join(WORKLOADS)))
    workload = WORKLOADS[args.workload]
    if args.trace:
        result = traced(workload, args.seed)
    else:
        result = end_to_end(workload, args.seed, args.seconds)
    metrics, notes, attempted, failures, inputs = result

    print("workload %s seed %d trace %d: %s"
          % (workload.name, args.seed, args.trace, workload.why))
    for line in notes:
        print("  " + line)
    for name, (value, unit) in metrics.items():
        print("  %-48s %.6g %s" % (name, value, unit))
    for i, errs in failures:
        inp = inputs.items[i] if isinstance(i, int) else None
        print("  FAILED request %s input %s: %s"
              % (i, json.dumps(inp), "; ".join(errs)))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": min(len(failures), attempted),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
