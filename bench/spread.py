"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 bench/spread.py --workloads solve-1d,oracle-50,analyze-2d --seeds 10 \\
        [--first-seed 1] [--out bench/_runs/spread.json] [--compare EARLIER.json]

Runs `bench/run.py --trace 0` once per seed and workload, one run at a time,
for BENCHMARK.json's run_seconds. For each end-to-end metric it prints the
median of the per-run values, their quartiles (statistics.quantiles, n=4) and
the spread (Q3 - Q1) / median next to a third of the metric's bound: a steady
benchmark stays below it. It also pools every operation's wall time for the
tail percentile and lists the fingerprints and failures seen. The summary,
with the machine it ran on, is written to --out as JSON. --compare takes an
earlier summary and prints how far each median moved, against the bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

from run import RUNS_DIR, tail_text  # noqa: E402


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workloads", required=True, help="comma-separated workload names")
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", default=os.path.join(RUNS_DIR, "spread.json"))
    parser.add_argument("--compare", help="earlier summary written by --out")
    args = parser.parse_args(argv)
    earlier = None
    if args.compare:
        with open(args.compare) as fh:
            earlier = json.load(fh)["workloads"]
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    summary = {"run_seconds": bench["run_seconds"], "workloads": {}}
    steady = True
    for name in args.workloads.split(","):
        values = {metric: [] for metric in bounds}
        walls, fingerprints, failures, incorrect = [], set(), 0, 0
        machine = None
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            proc = subprocess.run(
                [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
                 "--trace", "0"], capture_output=True, text=True, cwd=ROOT, timeout=200)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                print(f"{name} seed {seed}: run.py exited {proc.returncode}", file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            for metric in bounds:
                values[metric].append(result["metrics"][metric]["value"])
            with open(os.path.join(RUNS_DIR, f"{name}-seed{seed}-trace0.json")) as fh:
                record = json.load(fh)
            samples = record["samples"]
            walls += [w * s for w, s in zip(samples["wall_s"], samples["scale"])]
            fingerprints |= {json.dumps(fp, sort_keys=True) for fp in record["fingerprints"]}
            failures += result["failed"]
            incorrect += not result["correct"]
            machine = record["machine"]
            print(f"{name} seed {seed}: " + " ".join(
                f"{m}={values[m][-1]:.4f}" for m in bounds), flush=True)
        rows = {}
        for metric, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            # setup_s is exempt from the spread limit; only its drift is bounded
            ok = metric == "setup_s" or spread < bounds[metric] / 3.0
            steady &= ok
            rows[metric] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                            "bound": bounds[metric], "values": vals, "steady": ok}
            print(f"  {name} {metric}: median {med:.4f} quartiles [{q1:.4f}, {q3:.4f}] "
                  f"spread {spread:.4f} (bound/3 {bounds[metric] / 3:.4f}) "
                  f"{'ok' if ok else 'TOO WIDE'}")
            if earlier and name in earlier:
                before = earlier[name]["metrics"][metric]["median"]
                moved = (med - before) / before
                print(f"    vs earlier median {before:.4f}: {moved:+.4f} (bound {bounds[metric]})")
        print(f"  {name} per-operation wall_s at reference speed: {tail_text(walls)}; "
              f"failed {failures}; "
              f"runs with incorrect outputs {incorrect}")
        summary["workloads"][name] = {"metrics": rows, "operation_wall_s": walls,
                                      "failed": failures, "incorrect_runs": incorrect,
                                      "fingerprints": sorted(map(json.loads, fingerprints),
                                                             key=json.dumps),
                                      "machine": machine}
    summary["steady"] = steady
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w") as fh:
        json.dump(summary, fh, indent=1)
    return 0 if steady else 3


if __name__ == "__main__":
    sys.exit(main())
