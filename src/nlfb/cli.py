"""Command-line entry point: nlfb <subcommand> --config <path> [--out] [--seed].

Subcommands: solve, rho-sweep, refine, oracle-compare, analyze. Every run
writes its artifacts plus a manifest.json into the output directory. Artifacts
are staged under a .partial suffix and renamed into place only when complete,
the manifest last, so an interrupted run never corrupts finished outputs; a
directory that already holds a manifest.json is refused outright.

All artifact JSON/CSV is deterministic for a fixed config and seed. Wall-clock
measurements are confined to the manifest's "timing" section so the rest of
the manifest is reproducible byte for byte.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import sys
import time

import numpy as np

from . import __version__
from .analysis import (build_report, density, dyadic_radii, free_boundary,
                       lifting_distance, nondegeneracy, point_csv_text, report_json,
                       select_analysis_points)
from .config import ExperimentConfig, build_problem, parse_config, parse_points
from .errors import (CapacityError, ConfigurationError, DataError, DomainError,
                     NlfbError, SolverError)
from .grid import Ball, csv_text, field_csv_text
from .solver import (MinimizeResult, ProblemSpec, minimize, oracle_minimize,
                     rho_sweep_minimize)

EXIT_CODES = {
    ConfigurationError: 2,
    DataError: 3,
    SolverError: 4,
    CapacityError: 5,
    DomainError: 6,
}

ORACLE_AGREE_RTOL = 1e-10


class _Writer:
    """Stages artifact files and renames them into place atomically at the end."""

    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self.staged = []

    def stage(self, name: str, text: str) -> None:
        partial = os.path.join(self.out_dir, name + ".partial")
        with open(partial, "w", newline="") as fh:
            fh.write(text)
        self.staged.append(name)

    def finalize(self) -> list:
        for name in self.staged:
            path = os.path.join(self.out_dir, name)
            os.replace(path + ".partial", path)
        return list(self.staged)


def _json_text(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


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


def _result_artifacts(writer: _Writer, cfg: ExperimentConfig, result: MinimizeResult,
                      prefix: str = "") -> None:
    fmts = cfg.values["output.formats"]
    if "json" in fmts:
        writer.stage(f"{prefix}result.json", _json_text(result.to_dict()))
    if "csv" in fmts:
        writer.stage(f"{prefix}field.csv", field_csv_text(result.field))


def _cmd_solve(cfg, writer, seed, timing):
    problem = build_problem(cfg)
    t0 = time.perf_counter()
    result = minimize(problem, n_restarts=cfg.values["solver.restarts"], seed=seed,
                      max_sweeps=cfg.values["solver.max_sweeps"])
    timing["solve_s"] = time.perf_counter() - t0
    _result_artifacts(writer, cfg, result)
    return {
        "energy": result.energy.to_dict(),
        "support_size": int(result.support.shape[0]),
        "sweeps": result.sweeps,
        "converged": result.converged,
        "best_restart_seed": result.best_restart_seed,
    }


def _cmd_rho_sweep(cfg, writer, seed, timing):
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
    rows = []
    for rho, result in path:
        dist = lifting_distance(result.form, result.field, region)
        rows.append((float(rho), float(result.energy.total), float(dist)))
    if "csv" in cfg.values["output.formats"]:
        writer.stage("rho_sweep.csv",
                     csv_text(["rho", "energy", "lifting_distance"], rows))
    usable = [(r, d) for r, d, in ((row[0], row[2]) for row in rows) if d > 0.0]
    slope = None
    if len(usable) >= 2:
        slope = float(np.polyfit(np.log([r for r, _ in usable]),
                                 np.log([d for _, d in usable]), 1)[0])
    return {
        "rhos": [row[0] for row in rows],
        "lifting_distances": [row[2] for row in rows],
        "energies": [row[1] for row in rows],
        "slope": slope,
    }


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


def _cmd_refine(cfg, writer, seed, timing):
    if cfg.values["problem.g"].startswith("file:"):
        raise ConfigurationError("refine requires a named g profile, not a file reference")
    factor = cfg.values["refine.factor"]
    if factor < 2:
        raise ConfigurationError(f"refine.factor must be at least 2, got {factor}")
    levels = []
    t0 = time.perf_counter()
    for level, h in enumerate((cfg.values["grid.h"], cfg.values["grid.h"] / factor)):
        problem = build_problem(cfg, h=h)
        result = minimize(problem, n_restarts=cfg.values["solver.restarts"], seed=seed,
                          max_sweeps=cfg.values["solver.max_sweeps"])
        levels.append(_level_diagnostics(cfg, problem, result))
        _result_artifacts(writer, cfg, result, prefix=f"level{level}_")
    timing["solve_s"] = time.perf_counter() - t0

    def ratio(key):
        a, b = levels[0][key], levels[1][key]
        if a is None or b is None or a == 0.0:
            return None
        return b / a

    summary = {"levels": levels,
               "nondeg_ratio": ratio("nondeg_constant"),
               "density_c1_ratio": ratio("density_c1")}
    if "json" in cfg.values["output.formats"]:
        writer.stage("refine.json", _json_text(summary))
    return summary


def random_exterior(problem: ProblemSpec, rng) -> np.ndarray:
    """Random exterior data: nonnegative in one_phase, signed otherwise."""
    raw = rng.random(problem.grid.n_nodes)
    if problem.phase != "one_phase":
        raw = 2.0 * raw - 1.0
    return np.where(problem.grid.interior, 0.0, raw)


def oracle_compare_instances(cfg: ExperimentConfig, seed: int):
    """Shared by the CLI and tests: per-instance minimize-vs-oracle rows."""
    base = build_problem(cfg)
    rows = []
    for k in range(cfg.values["oracle.instances"]):
        rng = np.random.default_rng([seed, k])
        g_k = cfg.values["problem.g_amplitude"] * random_exterior(base, rng)
        problem = ProblemSpec(base.kernel, base.grid, g_k, rho=base.rho,
                              xi=base.xi, phase=base.phase)
        result = minimize(problem, n_restarts=cfg.values["oracle.restarts"],
                          seed=seed + 100000 * (k + 1),
                          max_sweeps=cfg.values["solver.max_sweeps"])
        oracle = oracle_minimize(problem)
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


def _cmd_oracle_compare(cfg, writer, seed, timing):
    t0 = time.perf_counter()
    rows = oracle_compare_instances(cfg, seed)
    timing["solve_s"] = time.perf_counter() - t0
    csv_rows = [(r["instance"], r["minimize_energy"], r["oracle_energy"],
                 int(r["agree"])) for r in rows]
    if "csv" in cfg.values["output.formats"]:
        writer.stage("oracle_compare.csv",
                     csv_text(["instance", "minimize_energy", "oracle_energy", "agree"],
                               csv_rows))
    n_agree = sum(1 for r in rows if r["agree"])
    return {
        "instances": len(rows),
        "agreement_pct": 100.0 * n_agree / len(rows) if rows else None,
        "never_below": bool(all(not r["below_oracle"] for r in rows)),
    }


def _cmd_analyze(cfg, writer, seed, timing):
    problem = build_problem(cfg)
    t0 = time.perf_counter()
    result = minimize(problem, n_restarts=cfg.values["solver.restarts"], seed=seed,
                      max_sweeps=cfg.values["solver.max_sweeps"])
    timing["solve_s"] = time.perf_counter() - t0
    _result_artifacts(writer, cfg, result)

    r_min, r_max, n_dyadic, region = _analysis_defaults(cfg, problem.grid)
    points = _analysis_points(cfg, problem, result.field)
    t0 = time.perf_counter()
    report = build_report(problem, result.form, result.field, points, r_min, r_max,
                          n_dyadic, region)
    timing["analysis_s"] = time.perf_counter() - t0
    if "json" in cfg.values["output.formats"]:
        writer.stage("report.json", report_json(report) + "\n")
    if "csv" in cfg.values["output.formats"]:
        # render per-point CSVs through the shared writer for atomicity
        for k in range(len(report.growth)):
            writer.stage(f"point_{k}.csv", point_csv_text(report, k))
    return {
        "fb_nodes": len(report.fb_nodes),
        "nondeg_constant": report.nondeg_constant,
        "lifting_l2": report.lifting_l2,
        "subsolution_max": report.subsolution_max,
        "points": [list(map(float, np.asarray(p).reshape(-1))) for p in points],
    }


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
    if subcommand not in _COMMANDS:
        raise ConfigurationError(f"unknown subcommand {subcommand!r}")
    cfg = parse_config(config_path)
    if out_dir is None:
        out_dir = cfg.values["output.directory"]
    if seed is None:
        seed = cfg.values["solver.seed"]

    os.makedirs(out_dir, exist_ok=True)
    manifest_path = os.path.join(out_dir, "manifest.json")
    if os.path.exists(manifest_path):
        raise ConfigurationError(
            f"{manifest_path} already exists; refusing to overwrite a completed run")

    with open(config_path, "rb") as fh:
        config_hash = hashlib.sha256(fh.read()).hexdigest()

    writer = _Writer(out_dir)
    timing = {}
    t_start = time.perf_counter()
    results = _COMMANDS[subcommand](cfg, writer, seed, timing)
    timing["total_s"] = time.perf_counter() - t_start

    artifacts = writer.finalize()
    manifest = {
        "subcommand": subcommand,
        "config_hash": config_hash,
        "seed": int(seed),
        "versions": {
            "nlfb": __version__,
            "numpy": np.__version__,
            "python": platform.python_version(),
        },
        "artifacts": sorted(artifacts),
        "results": results,
        "timing": timing,
    }
    partial = manifest_path + ".partial"
    with open(partial, "w") as fh:
        fh.write(_json_text(manifest))
    os.replace(partial, manifest_path)
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
