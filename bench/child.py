"""One benchmark operation in a fresh interpreter: set up, run the CLI once, check.

    python3 bench/child.py WORKLOAD SEED OP_DIR SPAWN_TIME TRACE

run.py starts this script once per operation. OP_DIR holds the generated
config (config.cfg); the CLI writes its artifacts to OP_DIR/out. SPAWN_TIME is
the parent's time.perf_counter() just before it started this process (the
clock is system-wide monotonic), so setup_s covers interpreter start, imports,
parse_config and build_problem. The timed call is nlfb.cli.run itself. With
TRACE=1 the tracer's wrappers are installed around that call only and the
spans are written to OP_DIR/spans.json. A calibration loop runs right before
and right after the call, to measure the machine's speed at that moment.
Checks run after the timed call, with the wrappers removed. The last line of
stdout is one JSON object.
"""

import json
import os
import resource
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

import nlfb.cli  # noqa: E402
from nlfb.analysis import residual_scale, subsolution_residual  # noqa: E402
from nlfb.config import build_problem, parse_config  # noqa: E402
from nlfb.energy import assemble_form  # noqa: E402
from nlfb.errors import NlfbError  # noqa: E402
from nlfb.grid import Field  # noqa: E402

from workloads import ENERGY_RTOL, ORACLE_MIN_AGREE, PAIRING_RTOL, WORKLOADS  # noqa: E402


def calibrate(reps=2000):
    """Time a fixed mix of interpreter and small-array numpy work that uses no nlfb code.

    It runs in the operation's own process just before and just after the CLI
    call, so it sees the same machine speed as the call does.
    """
    rng = np.random.default_rng(12345)
    rows, x = rng.random((64, 64)), rng.random(64)
    t0 = time.perf_counter()
    acc, table = 0.0, {}
    for k in range(reps):
        for row in rows:
            acc += float(row @ x)
        table[k % 97] = sorted(str(k * j) for j in range(40))
    return time.perf_counter() - t0


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


def _check_energy(workload, energy, failures):
    ref = workload.fingerprint["energy"]
    if energy - ref > ENERGY_RTOL * abs(ref):
        failures.append(f"energy {energy!r} exceeds fingerprint {ref!r} "
                        f"by more than {ENERGY_RTOL:g} relative")


def _check_pairing(pairing, scale, failures):
    if not pairing <= PAIRING_RTOL * scale:
        failures.append(f"pairing {pairing:.3e} exceeds {PAIRING_RTOL:g} * {scale:.3e}")


def check_outputs(workload, problem, out_dir):
    """Verify one run's artifacts.

    Returns (failed, notes, correct, fingerprint). `failed` counts failed
    operations for the error rate: the run, or each oracle-compare instance
    that disagrees with the oracle or falls below it. `correct` is False when
    an output breaks a guarantee of the program: energy above the fingerprint,
    the criterion-5 pairing bound, or criterion 2 (no instance below the
    oracle, at least ORACLE_MIN_AGREE of the instances in agreement).
    """
    notes = []
    fp = {}
    if workload.subcommand == "oracle-compare":
        with open(os.path.join(out_dir, "oracle_compare.csv")) as fh:
            rows = [line.split(",") for line in fh.read().splitlines()[1:]]
        failed = 0
        below = False
        for instance, mine, oracle, agree in rows:
            mine, oracle = float(mine), float(oracle)
            tol = nlfb.cli.ORACLE_AGREE_RTOL * (1.0 + abs(oracle))
            below |= mine < oracle - tol
            if agree.strip() != "1" or mine < oracle - tol:
                failed += 1
                notes.append(f"instance {instance}: minimize {mine!r} vs oracle {oracle!r}")
        fp["agree"] = len(rows) - failed
        correct = (not below and len(rows) == workload.instances
                   and fp["agree"] >= ORACLE_MIN_AGREE * len(rows))
        if len(rows) != workload.instances:
            notes.append(f"{len(rows)} instances reported, expected {workload.instances}")
            failed = workload.instances
        return failed, notes, correct, fp

    result = _read_json(os.path.join(out_dir, "result.json"))
    energy = result["energy"]["total"]
    fp.update(energy=energy, support=len(result["support"]), sweeps=result["sweeps"])
    _check_energy(workload, energy, notes)
    if workload.subcommand == "analyze":
        report = _read_json(os.path.join(out_dir, "report.json"))
        fp["fb_nodes"] = len(report["fb_nodes"])
        _check_pairing(report["subsolution_max"], report["extras"]["subsolution_scale"],
                       notes)
    else:
        form = assemble_form(problem.kernel, problem.grid)
        field = Field(problem.grid, np.asarray(result["field"], dtype=np.float64))
        _check_pairing(subsolution_residual(form, field)["max_pairing"],
                       residual_scale(form, field), notes)
    return (1 if notes else 0), notes, not notes, fp


def main(argv):
    name, seed, op_dir, spawn_time, trace = argv
    workload = WORKLOADS[name]
    cfg_path = os.path.join(op_dir, "config.cfg")
    out_dir = os.path.join(op_dir, "out")

    problem = build_problem(parse_config(cfg_path))
    setup_s = time.perf_counter() - float(spawn_time)

    run = nlfb.cli.run
    tracer = None
    if trace == "1":
        from tracing import Tracer, layer_metrics
        tracer = Tracer()
        tracer.install()
        run = tracer.wrap("cli.run", run)
    cal_before = calibrate()
    t0 = time.perf_counter()
    try:
        rc = run(cfg_path, workload.subcommand, out_dir=out_dir, seed=int(seed))
    except NlfbError as exc:
        rc = nlfb.cli.EXIT_CODES.get(type(exc), 1)
        print(f"error: {exc}", file=sys.stderr)
    except Exception:  # a crash of the program is a failed operation, not a harness error
        rc = 1
        traceback.print_exc()
    wall_s = time.perf_counter() - t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()
    cal_after = calibrate()

    if rc == 0:
        failed, failures, correct, fp = check_outputs(workload, problem, out_dir)
    else:
        failed, failures, correct, fp = workload.instances, [f"exit code {rc}"], False, {}
    artifact_bytes = sum(entry.stat().st_size for entry in os.scandir(out_dir)
                         if entry.is_file()) if os.path.isdir(out_dir) else 0
    record = {
        "rc": rc,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cal_s": [cal_before, cal_after],
        "peak_rss_mb": peak_rss_mb,
        "attempted": workload.instances,
        "failed": failed,
        "failures": failures,
        "correct": correct,
        "fingerprint": fp,
        "artifact_bytes": artifact_bytes,
    }
    if tracer is not None and tracer.spans:
        record["layers"] = layer_metrics(tracer.spans, tracer.counts)
        record["layers"]["cli.artifact_bytes"] = artifact_bytes
        with open(os.path.join(op_dir, "spans.json"), "w") as fh:
            json.dump(tracer.spans, fh)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
