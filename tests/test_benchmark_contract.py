"""The benchmark's use of the package, in miniature.

perfbench/ drives the public API: its workloads answer seeded requests and
check them, its traced run calls fixed probe rows, and its pool row builds a
cli.RunConfig.  These tests make the same calls on a few inputs, so an API
change that would end a benchmark run as failed fails here first.
"""

import dataclasses
import itertools
import json
import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench"))

import layer_rows  # noqa: E402
import workloads  # noqa: E402
from pairtrap import cli  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_answers_pass_their_checks(name):
    # the first two seed-1 requests, their answers read back from JSON as
    # the benchmark's fresh interpreters hand them over
    workload = workloads.WORKLOADS[name]
    for inp in itertools.islice(workload.stream(1), 2):
        answer = json.loads(json.dumps(workload.request(inp)))
        assert workload.check(inp, answer) == []


def test_probe_rows_run():
    for _, _, probe in layer_rows.probe_rows():
        probe()


def test_pool_config_builds():
    # the configurations pool_speedup sweeps, built but not run
    window = tuple(workloads.fig1_window(layer_rows.POOL_ETA, 6, (-4.0, 4.0)))
    base = cli.RunConfig(command="spectrum", eta=layer_rows.POOL_ETA,
                         inv_a_grid=(-4.0, 4.0, layer_rows.POOL_CELLS),
                         levels=6, window=window, threads=1)
    assert dataclasses.replace(base, threads=2).threads == 2
