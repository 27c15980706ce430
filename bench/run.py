"""Benchmark harness for the nlfb CLI; BENCHMARK.json at the repo root lists its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace {0,1}

NAME is a workload from bench/workloads.py (solve-1d, oracle-50, analyze-2d)
or `all`, which runs the three in turn. Load model: closed loop, one client.
Operations run one after another, each in a fresh interpreter (bench/child.py)
with NLFB_THREADS=1 and one BLAS thread; an operation is one `nlfb.cli.run`
call on the workload's fixed config with CLI seed N mod 2^31, which sets the
sweep order and, for oracle-compare, the random instances. The run starts
operations while the next one is expected to end within S seconds, and always
runs at least MIN_OPS.

--trace 0  every operation is untraced; the result carries the end-to-end
           metrics: medians over the operations of wall_s (the nlfb.cli.run
           call), setup_s (process start to a built problem) and peak_rss_mb
           (ru_maxrss).
--trace 1  operations alternate untraced and traced; the result carries the
           per-layer metrics of the traced operation with the median wall time,
           and trace.overhead_s = traced minus untraced median wall_s.

Times at reference speed. The machine is shared with other tenants, and its
speed drifts by tens of percent between minutes, which no run of a few dozen
seconds averages out. Each operation therefore times a fixed calibration loop
(child.calibrate, no nlfb code) in its own process right before and right
after the CLI call, and wall_s and setup_s are reported at reference speed:
the measured time x REF_CAL_S / calibration time of that operation (the mean
of both for wall_s; for setup_s the one right after set-up). A slower
program still reads slower, since the calibration does not run nlfb.
The unscaled medians are printed and recorded next to them; per-layer times
are unscaled.

Every operation's outputs are checked (bench/child.py). error_rate = failed /
attempted, where an operation is one run, or one instance for oracle-compare;
`correct` is false when an output breaks a guarantee of the program (see
child.check_outputs). The last line of stdout is one JSON object: correct,
attempted, failed, metrics. A record with the machine, the fingerprints and
every sample is written to bench/_runs/, and a traced run also writes its
spans there.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUNS_DIR = os.path.join(BENCH_DIR, "_runs")
sys.path.insert(0, BENCH_DIR)

from tracing import SPAN_COLUMNS, unit_of  # noqa: E402
from workloads import BENCHMARK_WORKLOADS, WORKLOADS  # noqa: E402

MIN_OPS = 3
REF_CAL_S = 0.2          # calibration time that defines the reference speed
LIMIT_S = 170.0          # a workload's operations must all end within this
THREAD_ENV = {"NLFB_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
E2E_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def machine():
    """The machine and the limits of measuring on it, recorded with every result."""
    import numpy as np
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": THREAD_ENV,
        "limits": ("shared host: other tenants' load moves this machine's speed by tens "
                   "of percent; no CPU pinning, no frequency or cache control; one "
                   "operation at a time"),
    }


def run_op(workload, cli_seed, traced, time_left):
    """Run one operation in a fresh process; returns its record, or None on a harness error."""
    os.makedirs(RUNS_DIR, exist_ok=True)
    op_dir = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=RUNS_DIR)
    try:
        with open(os.path.join(op_dir, "config.cfg"), "w") as fh:
            fh.write(workload.config)
        env = dict(os.environ, **THREAD_ENV)
        started = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, os.path.join(BENCH_DIR, "child.py"), workload.name,
                 str(cli_seed), op_dir, repr(started), "1" if traced else "0"],
                capture_output=True, text=True, env=env, cwd=ROOT,
                timeout=max(1.0, time_left))
        except subprocess.TimeoutExpired:
            print(f"{workload.name}: operation exceeded {time_left:.0f} s", file=sys.stderr)
            return None
        elapsed = time.perf_counter() - started
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            print(f"{workload.name}: benchmark child exited {proc.returncode}", file=sys.stderr)
            return None
        record = json.loads(lines[-1])
        record.update(traced=traced, elapsed_s=elapsed)
        spans_path = os.path.join(op_dir, "spans.json")
        if traced and os.path.exists(spans_path):
            with open(spans_path) as fh:
                record["spans"] = json.load(fh)
        return record
    finally:
        shutil.rmtree(op_dir, ignore_errors=True)


def tail_text(samples):
    """The highest percentile with at least ten samples beyond it, if there is one."""
    n = len(samples)
    if n < 11:
        return f"n={n}, no percentile has >=10 samples beyond it; max {max(samples):.4f}"
    p = math.floor(100 * (1 - 10 / n))
    return f"n={n}, p{p} {statistics.quantiles(samples, n=100)[p - 1]:.4f}"


def run_workload(workload, seed, seconds, trace):
    cli_seed = seed % 2 ** 31
    ops = []
    t_start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - t_start
        longest = max((op["elapsed_s"] for op in ops), default=0.0)
        if ops and (elapsed + longest > LIMIT_S - 10.0
                    or (len(ops) >= MIN_OPS and elapsed + longest > seconds)):
            break
        op = run_op(workload, cli_seed, trace and len(ops) % 2 == 1, LIMIT_S - elapsed)
        if op is None:
            return None
        ops.append(op)

    for op in ops:
        before, after = op["cal_s"]
        op["scale"] = REF_CAL_S / ((before + after) / 2)
        op["setup_scale"] = REF_CAL_S / before      # the calibration right after set-up
    plain = [op for op in ops if not op["traced"]]
    traced = [op for op in ops if op["traced"]]
    attempted = sum(op["attempted"] for op in ops)
    failed = sum(op["failed"] for op in ops)
    walls = [op["wall_s"] * op["scale"] for op in plain]
    e2e = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(op["setup_s"] * op["setup_scale"] for op in ops),
        "peak_rss_mb": statistics.median(op["peak_rss_mb"] for op in plain),
    }
    result = {
        "workload": workload.name,
        "seed": seed,
        "cli_seed": cli_seed,
        "seconds": seconds,
        "trace": int(trace),
        "machine": machine(),
        "reference_wall_s": workload.reference_wall_s,
        "fingerprint_expected": workload.fingerprint,
        "fingerprints": [op["fingerprint"] for op in ops],
        "failures": [note for op in ops for note in op["failures"]],
        "correct": all(op["correct"] for op in ops),
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "end_to_end": e2e,
        "raw": {"wall_s": statistics.median(op["wall_s"] for op in plain),
                "setup_s": statistics.median(op["setup_s"] for op in ops),
                "cal_s": statistics.median(statistics.fmean(op["cal_s"]) for op in ops)},
        "wall_tail": tail_text(walls),
        "samples": {key: [op[key] for op in ops] for key in
                    ("wall_s", "setup_s", "cal_s", "scale", "peak_rss_mb", "elapsed_s",
                     "traced")},
    }
    if traced:
        mid = sorted(traced, key=lambda op: op["wall_s"])[(len(traced) - 1) // 2]
        layers = dict(mid["layers"])
        layers["trace.overhead_s"] = (
            statistics.median(op["wall_s"] * op["scale"] for op in traced) - e2e["wall_s"])
        result["per_layer"] = layers
        result["spans_file"] = write_spans(workload, seed, traced)
    return result


def write_spans(workload, seed, traced):
    """All spans of the run's traced operations, one row per span, tagged with a run id."""
    rows = [[k] + span for k, op in enumerate(traced) for span in op["spans"]]
    path = os.path.join(RUNS_DIR, f"{workload.name}-seed{seed}-spans.json")
    with open(path, "w") as fh:
        json.dump({"columns": SPAN_COLUMNS, "spans": rows}, fh)
    return os.path.relpath(path, ROOT)


def report(result):
    """Human-readable lines for one workload; every metric with its unit."""
    w = result["workload"]
    n_plain = sum(1 for t in result["samples"]["traced"] if not t)
    print(f"== {w}  seed {result['seed']}  {len(result['samples']['traced'])} operations "
          f"({n_plain} untraced) in a {result['seconds']} s window")
    m = result["machine"]
    print(f"   machine: nproc={m['nproc']} cpu={m['cpu_model']!r} python {m['python']} "
          f"numpy {m['numpy']} blas {m['blas']} "
          + " ".join(f"{k}={v}" for k, v in m["thread_env"].items()))
    print(f"   limits: {m['limits']}")
    e2e, raw = result["end_to_end"], result["raw"]
    seen = result["reference_wall_s"]
    print(f"   wall_s {e2e['wall_s']:.4f} s (median at reference speed; {result['wall_tail']}; "
          f"unscaled median {raw['wall_s']:.4f} s"
          + (f"; unscaled range seen when the benchmark was introduced {seen[0]}-{seen[1]} s"
             if seen else "") + ")")
    print(f"   setup_s {e2e['setup_s']:.4f} s (median of {len(result['samples']['setup_s'])} "
          f"at reference speed; unscaled {raw['setup_s']:.4f} s)")
    print(f"   peak_rss_mb {e2e['peak_rss_mb']:.1f} MB (median)")
    print(f"   error_rate {result['error_rate']:.4f} ratio "
          f"({result['failed']} failed / {result['attempted']} attempted); "
          f"outputs {'correct' if result['correct'] else 'NOT CORRECT'}")
    print(f"   machine speed: calibration median {raw['cal_s']:.4f} s; times at reference "
          f"speed are unscaled times x {REF_CAL_S} s / calibration")
    expected = result["fingerprint_expected"]
    for fp in {json.dumps(fp, sort_keys=True) for fp in result["fingerprints"]}:
        fp = json.loads(fp)
        marks = ", ".join(f"{k}={fp[k]!r} ({'=' if fp[k] == expected.get(k) else '!='} "
                          f"{expected.get(k)!r})" for k in sorted(fp))
        print(f"   fingerprint: {marks}")
    for note in result["failures"][:10]:
        print(f"   FAILED: {note}")
    layers = result.get("per_layer")
    if layers:
        print("   per-layer metrics (traced operation with the median wall time):")
        for name, value in layers.items():
            print(f"     {name} {value:.6g} {unit_of(name)}")
        self_sum = sum(v for k, v in layers.items() if k.endswith(".self_s"))
        print(f"   layer self times sum to {self_sum:.6f} s; traced wall "
              f"{layers['trace.wall_s']:.6f} s; tracing overhead "
              f"{layers['trace.overhead_s']:.4f} s at reference speed (traced minus untraced "
              f"median wall_s); spans in {result['spans_file']}")


def metrics_of(result, trace):
    values = result["per_layer"] if trace else result["end_to_end"]
    units = unit_of if trace else E2E_UNITS.get
    return {name: {"value": value, "unit": units(name)} for name, value in values.items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "nlfb", "cli.py")):
        print(f"error: the nlfb sources are not under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2

    names = BENCHMARK_WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        result = run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        if result is None:
            print(f"error: workload {name} did not complete", file=sys.stderr)
            return 1
        os.makedirs(RUNS_DIR, exist_ok=True)
        record = os.path.join(RUNS_DIR, f"{name}-seed{args.seed}-trace{args.trace}.json")
        with open(record, "w") as fh:
            json.dump(result, fh, indent=1)
        report(result)
        results.append(result)

    if len(results) == 1:
        metrics = metrics_of(results[0], args.trace)
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results
                   for k, v in metrics_of(r, args.trace).items()}
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(json.dumps({"correct": all(r["correct"] for r in results), "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
