"""Command-line entry point: nlfb <subcommand> --config <path> [--out] [--seed],
or python -m nlfb.cli with the same arguments.

Subcommands: solve, rho-sweep, refine, oracle-compare, analyze. Each one
computes its results and returns them with its named artifact payloads; run()
alone keeps the artifacts whose format (the name's extension) output.formats
lists, renders each through the one renderer of its format (json.dumps for
JSON, grid.csv_text for CSV) and writes them with a manifest.json into the
output directory. Artifacts are staged under a .partial suffix and renamed
into place only when all are complete, the manifest last, so an interrupted
run never corrupts finished outputs; a directory that already holds a
manifest.json is refused outright.

All artifact JSON/CSV is deterministic for a fixed config and seed. Wall-clock
measurements are confined to the manifest's "timing" section so the rest of
the manifest is reproducible byte for byte. The manifest's "warnings" list
(empty when there is nothing to report) names every reported minimization
that stopped at solver.max_sweeps before converging, and every one whose
energy exceeds a support energy its certificate found (solver._certify), so
that it is proven not to be a global minimizer; such a warning also names the
certified global minimum when the certificate holds one.

NLFB_THREADS, when set, must be an integer (a malformed value is a
configuration error). Restarts run one after another on the calling thread,
so any integer value changes nothing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import sys
import time
from dataclasses import asdict
from functools import partial

import numpy as np

from . import __version__
from .analysis import (build_report, density, dyadic_radii, free_boundary,
                       lifting_distance, nondegeneracy, point_csv_text,
                       select_analysis_points)
from .config import ExperimentConfig, build_problem, parse_config, parse_points
from .energy import exterior_terms_all
from .errors import (CapacityError, ConfigurationError, DataError, DomainError,
                     NlfbError, SolverError)
from .grid import Ball, csv_text, field_csv_text
from .solver import (CERTIFICATE_RTOL, MinimizeResult, ProblemSpec, check_oracle, minimize,
                     minimize_all, oracle_minimize_all, rho_sweep_minimize)

EXIT_CODES = {
    ConfigurationError: 2,
    DataError: 3,
    SolverError: 4,
    CapacityError: 5,
    DomainError: 6,
}

ORACLE_AGREE_RTOL = 1e-10
ORACLE_STACK = 64     # oracle-compare's instances per minimize_all stack: it bounds memory


def _stage(out_dir: str, name: str, payload) -> str:
    """Render one artifact and write it under a .partial suffix; returns its
    name. A .json payload goes through the one JSON renderer; a .csv payload
    is a callable whose text comes from grid.csv_text."""
    text = (json.dumps(payload, sort_keys=True) + "\n" if name.endswith(".json")
            else payload())
    with open(os.path.join(out_dir, name + ".partial"), "w", newline="") as fh:
        fh.write(text)
    return name


def _publish(out_dir: str, names: list) -> None:
    """Rename staged artifacts into place, in the order given."""
    for name in names:
        path = os.path.join(out_dir, name)
        os.replace(path + ".partial", path)


def _analysis_defaults(cfg: ExperimentConfig, grid):
    v = cfg.values
    r_min = v["analysis.r_min"] if v["analysis.r_min"] is not None else 4.0 * grid.h
    r_max = (v["analysis.r_max"] if v["analysis.r_max"] is not None
             else grid.omega_radius / 2.0)
    region_r = (v["analysis.region_radius"] if v["analysis.region_radius"] is not None
                else grid.omega_radius / 2.0)
    return r_min, r_max, v["analysis.n_dyadic"], Ball((0.0,) * grid.dim, region_r)


def _analysis_points(cfg: ExperimentConfig, problem: ProblemSpec, field) -> list:
    spec_text = cfg.values["analysis.points"]
    if spec_text == "auto-fb":
        fb = free_boundary(field, problem.xi)
        return select_analysis_points(fb, limit=5)
    return [np.asarray(p) for p in parse_points(spec_text, problem.grid.dim)]


def _warn_result(warnings: list, result: MinimizeResult, **where) -> None:
    """Record manifest warnings for a reported result that stopped at
    max_sweeps, or whose energy exceeds, by more than the certificate's
    tolerance, a support energy its certificate found: then it is not a
    global minimizer, and the warning names the certified global minimum
    when the certificate holds one."""
    if not result.converged:
        warnings.append({**where, "warning": f"stopped at max_sweeps after {result.sweeps} "
                                             f"sweeps without converging"})
    certificate = result.certificate or {}
    found, minimum = certificate.get("best_support_energy"), certificate.get("minimum")
    energy = result.energy.total
    if found is not None and energy - found > CERTIFICATE_RTOL * (1.0 + abs(energy)):
        named = "" if minimum is None else f"; the certified global minimum is {minimum!r}"
        warnings.append({**where, "warning": f"energy {energy!r} exceeds the support energy "
                                             f"{found!r} that the certificate found: not a "
                                             f"global minimizer{named}"})


def _cmd_solve(cfg, seed, timing, warnings):
    problem = build_problem(cfg)
    t0 = time.perf_counter()
    result = minimize(problem, n_restarts=cfg.values["solver.restarts"], seed=seed,
                      max_sweeps=cfg.values["solver.max_sweeps"])
    timing["solve_s"] = time.perf_counter() - t0
    _warn_result(warnings, result)
    return {
        "energy": asdict(result.energy),
        "support_size": int(result.support.shape[0]),
        "sweeps": result.sweeps,
        "converged": result.converged,
        "best_restart_seed": result.best_restart_seed,
    }, {"result.json": result.to_dict(), "field.csv": partial(field_csv_text, result.field)}


def _cmd_rho_sweep(cfg, seed, timing, warnings):
    rhos = cfg.values["sweep.rhos"]
    if not rhos:
        raise ConfigurationError("rho-sweep requires sweep.rhos in the config")
    problem = build_problem(cfg)
    r_min, r_max, n_dyadic, region = _analysis_defaults(cfg, problem.grid)
    t0 = time.perf_counter()
    path = rho_sweep_minimize(problem, rhos,
                              n_restarts=cfg.values["solver.restarts"], seed=seed,
                              max_sweeps=cfg.values["solver.max_sweeps"])
    timing["solve_s"] = time.perf_counter() - t0
    rhos, energies, dists = [], [], []
    for rho, result in path:
        _warn_result(warnings, result, rho=float(rho))
        rhos.append(float(rho))
        energies.append(float(result.energy.total))
        dists.append(float(lifting_distance(result.form, result.field, region)))
    usable = [(r, d) for r, d in zip(rhos, dists) if d > 0.0]
    slope = None
    if len(usable) >= 2:
        slope = float(np.polyfit(np.log([r for r, _ in usable]),
                                 np.log([d for _, d in usable]), 1)[0])
    return {
        "rhos": rhos,
        "lifting_distances": dists,
        "energies": energies,
        "slope": slope,
    }, {"rho_sweep.csv": partial(csv_text, ["rho", "energy", "lifting_distance"],
                                 [rhos, energies, dists])}


def _level_diagnostics(cfg, problem, result):
    """Nondegeneracy constant and worst-case zero density at one resolution."""
    grid = problem.grid
    entry = {
        "h": grid.h,
        "energy": result.energy.total,
        "support_size": int(result.support.shape[0]),
        "nondeg_constant": None,
        "density_c1": None,
    }
    fb = free_boundary(result.field, problem.xi)
    if fb.is_empty:
        return entry
    try:
        nd = nondegeneracy(result.field, problem.kernel.s, problem.xi)
        entry["nondeg_constant"] = nd["c_min"]
    except DataError:
        pass
    points = select_analysis_points(fb, limit=5)
    radii_cap = 0.25 * grid.omega_radius
    c1 = None
    for x0 in points:
        x0a = np.asarray(x0).reshape(-1)
        cap = min(radii_cap, grid.omega_radius - float(np.sqrt(x0a @ x0a)))
        radii = dyadic_radii(4.0 * grid.h, cap, 16)
        if not radii:
            continue
        rows = density(result.field, x0a, radii, problem.xi)
        worst = min(row["zero_ratio"] for row in rows)
        c1 = worst if c1 is None else min(c1, worst)
    entry["density_c1"] = c1
    return entry


def _cmd_refine(cfg, seed, timing, warnings):
    if cfg.values["problem.g"].startswith("file:"):
        raise ConfigurationError("refine requires a named g profile, not a file reference")
    factor = cfg.values["refine.factor"]
    if factor < 2:
        raise ConfigurationError(f"refine.factor must be at least 2, got {factor}")
    levels, artifacts = [], {}
    t0 = time.perf_counter()
    for level, h in enumerate((cfg.values["grid.h"], cfg.values["grid.h"] / factor)):
        problem = build_problem(cfg, h=h)
        result = minimize(problem, n_restarts=cfg.values["solver.restarts"], seed=seed,
                          max_sweeps=cfg.values["solver.max_sweeps"])
        _warn_result(warnings, result, level=level)
        levels.append(_level_diagnostics(cfg, problem, result))
        artifacts[f"level{level}_result.json"] = result.to_dict()
        artifacts[f"level{level}_field.csv"] = partial(field_csv_text, result.field)
    timing["solve_s"] = time.perf_counter() - t0

    def ratio(key):
        a, b = levels[0][key], levels[1][key]
        if a is None or b is None or a == 0.0:
            return None
        return b / a

    summary = {"levels": levels,
               "nondeg_ratio": ratio("nondeg_constant"),
               "density_c1_ratio": ratio("density_c1")}
    return summary, {**artifacts, "refine.json": summary}


def random_exterior(problem: ProblemSpec, rng) -> np.ndarray:
    """Random exterior data: nonnegative in one_phase, signed otherwise."""
    raw = rng.random(problem.grid.n_nodes)
    if problem.phase != "one_phase":
        raw = 2.0 * raw - 1.0
    return np.where(problem.grid.interior, 0.0, raw)


def oracle_compare_instances(cfg: ExperimentConfig, seed: int):
    """Shared by the CLI and tests: per-instance minimize-vs-oracle rows.

    Kernel and grid are fixed across instances: check_oracle assembles the form
    once and refuses before any solve. Each block of ORACLE_STACK instances
    then takes one pass for its exterior terms and one minimize_all, and its
    rows are built as oracle_minimize_all yields its results, so only the
    rows outlive their block.
    """
    base = build_problem(cfg)
    form = check_oracle(base)
    n, rows = cfg.values["oracle.instances"], []
    for start in range(0, n, ORACLE_STACK):
        block = range(start, min(n, start + ORACLE_STACK))
        problems = [ProblemSpec(base.kernel, base.grid,
                                cfg.values["problem.g_amplitude"]
                                * random_exterior(base, np.random.default_rng([seed, k])),
                                rho=base.rho, xi=base.xi, phase=base.phase) for k in block]
        terms = exterior_terms_all(form, [p.exterior_data for p in problems])
        results = minimize_all(problems, cfg.values["oracle.restarts"],
                               [seed + 100000 * (k + 1) for k in block],
                               cfg.values["solver.max_sweeps"], form, terms)
        for k, result, oracle in zip(block, results, oracle_minimize_all(problems, form, terms)):
            tol = ORACLE_AGREE_RTOL * (1.0 + abs(oracle.energy.total))
            gap = result.energy.total - oracle.energy.total
            rows.append({
                "instance": k,
                "minimize_energy": result.energy.total,
                "oracle_energy": oracle.energy.total,
                "agree": bool(abs(gap) <= tol),
                "below_oracle": bool(gap < -tol),
                "result": result,
            })
    return rows


def _cmd_oracle_compare(cfg, seed, timing, warnings):
    t0 = time.perf_counter()
    rows = oracle_compare_instances(cfg, seed)
    timing["solve_s"] = time.perf_counter() - t0
    for r in rows:
        _warn_result(warnings, r["result"], instance=r["instance"])
    header = ["instance", "minimize_energy", "oracle_energy", "agree"]
    columns = [[r[name] for r in rows] for name in header[:3]] + [[int(r["agree"]) for r in rows]]
    n_agree = sum(1 for r in rows if r["agree"])
    return {
        "instances": len(rows),
        "agreement_pct": 100.0 * n_agree / len(rows) if rows else None,
        "never_below": bool(all(not r["below_oracle"] for r in rows)),
    }, {"oracle_compare.csv": partial(csv_text, header, columns)}


def _cmd_analyze(cfg, seed, timing, warnings):
    problem = build_problem(cfg)
    t0 = time.perf_counter()
    result = minimize(problem, n_restarts=cfg.values["solver.restarts"], seed=seed,
                      max_sweeps=cfg.values["solver.max_sweeps"])
    timing["solve_s"] = time.perf_counter() - t0
    _warn_result(warnings, result)

    r_min, r_max, n_dyadic, region = _analysis_defaults(cfg, problem.grid)
    points = _analysis_points(cfg, problem, result.field)
    t0 = time.perf_counter()
    report = build_report(problem, result.form, result.field, points, r_min, r_max,
                          n_dyadic, region)
    timing["analysis_s"] = time.perf_counter() - t0
    return {
        "fb_nodes": len(report.fb_nodes),
        "nondeg_constant": report.nondeg_constant,
        "lifting_l2": report.lifting_l2,
        "subsolution_max": report.subsolution_max,
        "points": [list(map(float, np.asarray(p).reshape(-1))) for p in points],
    }, {"result.json": result.to_dict(), "field.csv": partial(field_csv_text, result.field),
        # the report's fields as they are: asdict would deep-copy every value
        "report.json": vars(report),
        **{f"point_{k}.csv": partial(point_csv_text, report, k)
           for k in range(len(report.growth))}}


_COMMANDS = {
    "solve": _cmd_solve,
    "rho-sweep": _cmd_rho_sweep,
    "refine": _cmd_refine,
    "oracle-compare": _cmd_oracle_compare,
    "analyze": _cmd_analyze,
}


def run(config_path: str, subcommand: str, out_dir: str | None = None,
        seed: int | None = None) -> int:
    """Execute one subcommand; returns the process exit code."""
    threads = os.environ.get("NLFB_THREADS", "")
    if threads:
        try:
            int(threads)
        except ValueError as exc:
            raise ConfigurationError(
                f"NLFB_THREADS must be an integer, got {threads!r}") from exc
    if subcommand not in _COMMANDS:
        raise ConfigurationError(f"unknown subcommand {subcommand!r}")
    cfg = parse_config(config_path)
    if out_dir is None:
        out_dir = cfg.values["output.directory"]
    if seed is None:
        seed = cfg.values["solver.seed"]
    elif seed < 0:
        raise ConfigurationError(f"--seed must be at least 0, got {seed}")

    os.makedirs(out_dir, exist_ok=True)
    manifest_path = os.path.join(out_dir, "manifest.json")
    if os.path.exists(manifest_path):
        raise ConfigurationError(
            f"{manifest_path} already exists; refusing to overwrite a completed run")

    with open(config_path, "rb") as fh:
        config_hash = hashlib.sha256(fh.read()).hexdigest()

    timing = {}
    warnings = []
    t_start = time.perf_counter()
    results, payloads = _COMMANDS[subcommand](cfg, seed, timing, warnings)
    formats = cfg.values["output.formats"]
    staged = [_stage(out_dir, name, payload) for name, payload in payloads.items()
              if name.rsplit(".", 1)[1] in formats]
    timing["total_s"] = time.perf_counter() - t_start

    manifest = {
        "subcommand": subcommand,
        "config_hash": config_hash,
        "seed": int(seed),
        "versions": {
            "nlfb": __version__,
            "numpy": np.__version__,
            "python": platform.python_version(),
        },
        "artifacts": sorted(staged),
        "results": results,
        "timing": timing,
        "warnings": warnings,
    }
    # the manifest is renamed into place last: its presence marks a complete run
    _publish(out_dir, staged + [_stage(out_dir, "manifest.json", manifest)])
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="nlfb",
        description="Discrete nonlocal free-boundary laboratory")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to the experiment config")
        p.add_argument("--out", default=None, help="output directory (overrides config)")
        p.add_argument("--seed", type=int, default=None, help="seed override")
    args = parser.parse_args(argv)
    try:
        return run(args.config, args.subcommand, out_dir=args.out, seed=args.seed)
    except NlfbError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CODES.get(type(exc), 1)


if __name__ == "__main__":
    sys.exit(main())
