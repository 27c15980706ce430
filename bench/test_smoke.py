"""Smoke test of the benchmark harness on a tiny 1D solve (h = 0.1).

    python3 -m pytest bench/test_smoke.py -q

It sits outside the repository's tier-1 suite (pytest's testpaths is tests/).
"""

import json
import os
import subprocess
import sys
from collections import defaultdict

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

from tracing import LAYERS, self_times  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    BENCHMARK = json.load(fh)


def run_harness(trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", "smoke-1d",
         "--seed", "0", "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


@pytest.fixture(scope="module")
def plain():
    return run_harness(0)


@pytest.fixture(scope="module")
def traced():
    return run_harness(1)


@pytest.mark.parametrize("mode, section", [("plain", "end_to_end"), ("traced", "per_layer")])
def test_every_metric_is_printed_with_its_unit(request, mode, section):
    text, result = request.getfixturevalue(mode)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
    expected = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    printed = {tuple(line.split()[:3:2]) for line in text if len(line.split()) >= 3}
    expected["error_rate"] = "ratio"
    for name, unit in expected.items():
        assert (name, unit) in printed, f"{name} [{unit}] missing from the report"


def test_traced_self_times_sum_to_traced_wall(traced):
    _, result = traced
    m = {name: metric["value"] for name, metric in result["metrics"].items()}
    layer_sum = m["cli.self_s"] + sum(m[f"{layer}.self_s"] for layer in LAYERS
                                      if layer != "cli")
    assert layer_sum == pytest.approx(m["trace.wall_s"], rel=1e-9)

    with open(os.path.join(BENCH_DIR, "_runs", "smoke-1d-seed0-spans.json")) as fh:
        dump = json.load(fh)
    assert dump["columns"] == ["run", "id", "parent", "name", "start_s", "end_s"]
    by_run = defaultdict(list)
    for run_id, *span in dump["spans"]:
        by_run[run_id].append(span)
    assert by_run
    for spans in by_run.values():
        root = spans[0]
        assert root[1] == -1 and root[2] == "cli.run"
        for span_id, parent, _, start, end in spans[1:]:
            p = spans[parent]
            assert p[3] <= start <= end <= p[4], f"span {span_id} leaves its parent"
        assert sum(self_times(spans)) == pytest.approx(root[4] - root[3], rel=1e-9)
