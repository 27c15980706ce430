"""Acceptance suite: ten end-to-end guarantees, one test and one verdict line each.

Shared module fixtures solve the expensive instances once:

* ``sweep_bundle``    -- four-decade volume-weight continuation on a window-
                         adjacent smooth bump (criterion 1; minimizers reused
                         by criterion 5).
* ``oracle_rows``     -- fifty seeded random ten-node instances compared
                         against the exhaustive oracle (criteria 2, 5, 10).
* ``growth_instances``-- one-phase constant-annulus instances for three
                         exponents, two kernel families, two resolutions
                         (criteria 3, 4, 8, 9, and 5).

Each criterion is exactly one test function, so ``pytest -v`` emits one
pass/fail line per criterion; every test also prints a human-readable verdict
with the measured numbers.
"""

import json
import math
import os
import textwrap
import time

import numpy as np
import pytest

from nlfb.analysis import (density, dyadic_radii, free_boundary, growth_exponent,
                           lifting_distance, nondegeneracy, residual_scale,
                           scaling_discrepancy, select_analysis_points,
                           subsolution_residual, tail)
from nlfb.cli import ORACLE_AGREE_RTOL, oracle_compare_instances
from nlfb.config import build_problem, parse_config
from nlfb.energy import assemble_form
from nlfb.grid import Ball, Field, build_grid, sample_field
from nlfb.kernel import checkerboard_kernel, fractional_kernel
from nlfb.solver import ProblemSpec, minimize, rho_sweep_minimize

SOLVE_H = 0.005      # ~400 interior nodes in the unit window
FINE_H = 0.0025      # the h -> h/2 refinement level
S_VALUES = (0.3, 0.5, 0.7)
# volume weights placing the free boundary well inside the window per kernel
FRACTIONAL_RHO = {0.3: 0.07, 0.5: 0.10, 0.7: 0.05}
CHECKERBOARD_RHO = {0.3: 0.15, 0.5: 0.15, 0.7: 0.15}
ANNULUS_AMPLITUDE = 0.35
GROWTH_R_MIN = 0.04  # dyadic fit ladder 0.04, 0.08, 0.16 (8h at the solve level)
GROWTH_R_MAX = 0.16
RESIDUAL_RTOL = 1e-8


def fb_point(problem, result):
    """Leftmost free-boundary midpoint, or None when no usable one exists."""
    fb = free_boundary(result.field, problem.xi)
    if fb.is_empty:
        return None
    x0 = float(np.asarray(select_analysis_points(fb, limit=1)[0]).reshape(-1)[0])
    return x0


def make_growth_problem(family, s, h):
    grid = build_grid(1, h, 2.0)
    if family == "fractional":
        kernel = fractional_kernel(s)
        rho = FRACTIONAL_RHO[s]
    else:
        kernel = checkerboard_kernel(s, 1.0, 2.0, block_size=0.25,
                                     multipliers=(1.0, 2.0))
        rho = CHECKERBOARD_RHO[s]
    x = grid.positions[:, 0]
    g = np.where(~grid.interior & (x >= 1.0) & (x <= 2.0), ANNULUS_AMPLITUDE, 0.0)
    return ProblemSpec(kernel, grid, g, rho=rho, xi=0.0, phase="one_phase")


@pytest.fixture(scope="module")
def growth_instances():
    """Solved constant-annulus instances keyed (family, s, h) plus timings."""
    out = {"elapsed": {}}
    for family in ("fractional", "checkerboard"):
        t0 = time.perf_counter()
        for s in S_VALUES:
            for h in (SOLVE_H, FINE_H):
                problem = make_growth_problem(family, s, h)
                result = minimize(problem, n_restarts=2, seed=0)
                assert result.converged, (
                    f"{family} s={s} h={h}: stopped unconverged after {result.sweeps} sweeps")
                x0 = fb_point(problem, result)
                assert x0 is not None and abs(x0) <= 0.8, (
                    f"{family} s={s} h={h}: no interior free boundary (x0={x0})")
                entry = {
                    "problem": problem,
                    "result": result,
                    "x0": x0,
                    "growth": growth_exponent(result.field, (x0,), GROWTH_R_MIN,
                                              GROWTH_R_MAX, 5),
                    "nondeg": nondegeneracy(result.field, s, 0.0)["c_min"],
                }
                radii = dyadic_radii(4.0 * h, 0.25, 16)
                rows = density(result.field, (x0,), radii, 0.0)
                entry["c1"] = min(row["zero_ratio"] for row in rows)
                out[(family, s, h)] = entry
        out["elapsed"][family] = time.perf_counter() - t0
    return out


@pytest.fixture(scope="module")
def sweep_bundle(tmp_path_factory):
    """Continuation over four decades of the volume weight on one instance."""
    cfg_dir = tmp_path_factory.mktemp("sweep")
    cfg_path = cfg_dir / "sweep.cfg"
    cfg_path.write_text(textwrap.dedent("""\
        kernel.s = 0.5
        grid.h = 0.01
        grid.omega_radius = 2.0
        grid.R_inf = 4.0
        problem.g = right_bump
        problem.g_center = 2.25
        problem.g_width = 1.0
        problem.g_amplitude = 0.1
        """))
    problem = build_problem(parse_config(str(cfg_path)))
    t0 = time.perf_counter()
    path = rho_sweep_minimize(problem, [1e-1, 1e-2, 1e-3, 1e-4],
                              n_restarts=3, seed=0)
    elapsed = time.perf_counter() - t0
    form = assemble_form(problem.kernel, problem.grid)
    return {"problem": problem, "path": path, "form": form, "elapsed": elapsed}


ORACLE_CONFIG = """\
kernel.s = 0.5
grid.h = 0.1
grid.omega_radius = 0.5
grid.R_inf = 1.0
problem.g_amplitude = 0.35
problem.rho = 0.2
oracle.instances = 50
oracle.restarts = 20
"""


@pytest.fixture(scope="module")
def oracle_config_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("oracle") / "oracle.cfg"
    path.write_text(ORACLE_CONFIG)
    return str(path)


@pytest.fixture(scope="module")
def oracle_rows(oracle_config_path):
    cfg = parse_config(oracle_config_path)
    t0 = time.perf_counter()
    rows = oracle_compare_instances(cfg, seed=0)
    return {"rows": rows, "cfg": cfg, "elapsed": time.perf_counter() - t0}


def test_criterion_01_lifting_distance_scales_linearly(sweep_bundle):
    problem, form = sweep_bundle["problem"], sweep_bundle["form"]
    omega = problem.grid.omega_radius
    usable = []
    for rho, result in sweep_bundle["path"]:
        x0 = fb_point(problem, result)
        if x0 is None:
            continue
        # fixed nominal ball, clipped to the window; once the support absorbs
        # the window the free boundary sits on its edge and the row drops out
        r_eff = min(0.25, omega - abs(x0) - problem.grid.h)
        if r_eff < 4.0 * problem.grid.h:
            continue
        dist = lifting_distance(form, result.field, Ball((x0,), r_eff))
        if dist <= 0.0:
            continue
        # scale-normalized: mean-square distance grows like r^(2s) at fixed rho
        usable.append((rho, dist / r_eff ** (2.0 * problem.kernel.s)))
    assert len(usable) >= 3, f"only {len(usable)} usable decades"
    slope = float(np.polyfit(np.log([r for r, _ in usable]),
                             np.log([d for _, d in usable]), 1)[0])
    assert 0.8 <= slope <= 1.2, f"lifting-distance slope {slope:.4f} outside [0.8, 1.2]"
    assert sweep_bundle["elapsed"] <= 120.0
    print(f"CRITERION 01 lifting-distance rate: PASS (slope={slope:.4f}, "
          f"{len(usable)} decades, {sweep_bundle['elapsed']:.1f}s)")


def test_criterion_02_oracle_equivalence(oracle_rows):
    rows = oracle_rows["rows"]
    assert len(rows) == 50
    n_agree = sum(1 for r in rows if r["agree"])
    assert not any(r["below_oracle"] for r in rows), (
        "a solver energy fell strictly below the exhaustive optimum")
    assert n_agree >= 0.95 * len(rows), f"only {n_agree}/50 agree within tolerance"
    assert oracle_rows["elapsed"] <= 300.0
    print(f"CRITERION 02 oracle equivalence: PASS ({n_agree}/50 within "
          f"{ORACLE_AGREE_RTOL:g} relative, none below, "
          f"{oracle_rows['elapsed']:.1f}s)")


def test_criterion_03_growth_exponent(growth_instances):
    fine_grid = build_grid(1, FINE_H, 2.0)
    details = []
    for s in S_VALUES:
        # the fitting ladder itself must recover the exact power profile,
        # isolating fit bias from solver error
        profile = sample_field(fine_grid,
                               lambda p, s=s: np.maximum(p[:, 0], 0.0) ** s)
        fit = growth_exponent(profile, (0.0,), GROWTH_R_MIN, GROWTH_R_MAX, 5)
        assert abs(fit["slope"] - s) <= 0.02, (
            f"s={s}: sampled-profile fit {fit['slope']:.4f} outside +-0.02")
        slope = growth_instances[("fractional", s, SOLVE_H)]["growth"]["slope"]
        assert abs(slope - s) <= 0.15, (
            f"s={s}: minimizer growth slope {slope:.4f} outside +-0.15")
        details.append(f"s={s}: {slope:.3f}/{fit['slope']:.3f}")
    assert growth_instances["elapsed"]["fractional"] <= 600.0
    print(f"CRITERION 03 growth exponent: PASS (minimizer/profile "
          f"{'; '.join(details)}, {growth_instances['elapsed']['fractional']:.0f}s)")


def test_criterion_04_nondegeneracy_stable_under_refinement(growth_instances):
    details = []
    for s in S_VALUES:
        coarse = growth_instances[("fractional", s, SOLVE_H)]["nondeg"]
        fine = growth_instances[("fractional", s, FINE_H)]["nondeg"]
        assert coarse > 0.0 and fine > 0.0
        ratio = fine / coarse
        assert 0.5 <= ratio <= 2.0, f"s={s}: refinement changed nondeg by {ratio:.3f}"
        details.append(f"s={s}: {coarse:.3f}->{fine:.3f}")
    print(f"CRITERION 04 nondegeneracy: PASS ({'; '.join(details)})")


def test_criterion_05_minimizers_are_subsolutions(sweep_bundle, oracle_rows,
                                                  growth_instances):
    checked = 0
    worst = 0.0

    def check(form, field):
        nonlocal checked, worst
        pairing = subsolution_residual(form, field)["max_pairing"]
        scale = residual_scale(form, field)
        assert pairing <= RESIDUAL_RTOL * scale, (
            f"pairing {pairing:.3e} exceeds {RESIDUAL_RTOL:g} * {scale:.3e}")
        if scale > 0.0:
            worst = max(worst, pairing / scale)
        checked += 1

    for _, result in sweep_bundle["path"]:
        check(sweep_bundle["form"], result.field)
    oracle_problem = build_problem(oracle_rows["cfg"])
    oracle_form = assemble_form(oracle_problem.kernel, oracle_problem.grid)
    for row in oracle_rows["rows"]:
        check(oracle_form, row["result"].field)
    for s in S_VALUES:
        for h in (SOLVE_H, FINE_H):
            entry = growth_instances[("fractional", s, h)]
            form = assemble_form(entry["problem"].kernel, entry["problem"].grid)
            check(form, entry["result"].field)
    print(f"CRITERION 05 subsolution residual: PASS ({checked} minimizers, "
          f"worst relative pairing {worst:.2e})")


def test_criterion_06_zoom_identity():
    grid = build_grid(1, 0.1, 2.0)
    kernel = fractional_kernel(0.5)
    worst = 0.0
    for k in range(20):
        rng = np.random.default_rng([426000, k])
        data = np.where(grid.interior, 0.0, rng.uniform(0.0, 1.0, grid.n_nodes))
        problem = ProblemSpec(kernel, grid, data, rho=float(rng.uniform(0.05, 0.5)),
                              xi=0.0, phase="one_phase")
        field = Field(grid, np.where(grid.interior,
                                     rng.uniform(0.0, 1.0, grid.n_nodes), data))
        x0 = [float(rng.uniform(-0.5, 0.5))]
        r = float(rng.uniform(0.3, 1.5))
        kappa = float(rng.uniform(0.5, 3.0))
        gap = scaling_discrepancy(problem, field, x0, r, kappa, 0.0)
        assert gap <= 1e-12, f"trial {k}: discrepancy {gap:.3e}"
        worst = max(worst, gap)
    print(f"CRITERION 06 zoom identity: PASS (20 trials, worst {worst:.2e})")


def test_criterion_07_tail_calibration():
    grid = build_grid(1, 0.01, 64.0)
    ones = sample_field(grid, lambda p: np.ones(p.shape[0]))
    value = tail(ones, (0.0,), 1.0, 0.5)
    assert abs(value - 2.0) <= 0.02 * 2.0, f"tail {value:.6f} not within 2% of 2"
    print(f"CRITERION 07 tail calibration: PASS (tail={value:.6f}, "
          f"rel err {abs(value - 2.0) / 2.0:.4%})")


def test_criterion_08_zero_density_at_free_boundary(growth_instances):
    details = []
    for s in S_VALUES:
        coarse = growth_instances[("fractional", s, SOLVE_H)]["c1"]
        fine = growth_instances[("fractional", s, FINE_H)]["c1"]
        assert coarse > 0.0 and fine > 0.0
        ratio = fine / coarse
        assert 0.5 <= ratio <= 2.0, f"s={s}: density constant moved by {ratio:.3f}"
        details.append(f"s={s}: c1={coarse:.3f}->{fine:.3f}")
    print(f"CRITERION 08 zero density: PASS ({'; '.join(details)})")


def test_criterion_09_rough_kernel_generality(growth_instances):
    details = []
    for s in S_VALUES:
        coarse = growth_instances[("checkerboard", s, SOLVE_H)]
        fine = growth_instances[("checkerboard", s, FINE_H)]
        slope = coarse["growth"]["slope"]
        assert abs(slope - s) <= 0.2, (
            f"s={s}: checkerboard growth slope {slope:.4f} outside +-0.2")
        assert coarse["nondeg"] > 0.0 and fine["nondeg"] > 0.0
        nd_ratio = fine["nondeg"] / coarse["nondeg"]
        assert 0.5 <= nd_ratio <= 2.0
        assert coarse["c1"] > 0.0 and fine["c1"] > 0.0
        c1_ratio = fine["c1"] / coarse["c1"]
        assert 0.5 <= c1_ratio <= 2.0
        for entry in (coarse, fine):
            form = assemble_form(entry["problem"].kernel, entry["problem"].grid)
            pairing = subsolution_residual(form, entry["result"].field)["max_pairing"]
            assert pairing <= RESIDUAL_RTOL * residual_scale(form, entry["result"].field)
        details.append(f"s={s}: slope={slope:.3f}")
    print(f"CRITERION 09 rough-kernel generality: PASS ({'; '.join(details)}, "
          f"{growth_instances['elapsed']['checkerboard']:.0f}s)")


def test_criterion_10_thread_count_determinism(oracle_config_path, monkeypatch):
    cfg = parse_config(oracle_config_path)
    blobs = {}
    for threads in ("1", "4"):
        monkeypatch.setenv("NLFB_THREADS", threads)
        rows = oracle_compare_instances(cfg, seed=0)
        blobs[threads] = [json.dumps(r["result"].to_dict(), sort_keys=True)
                          for r in rows]
    assert blobs["1"] == blobs["4"], "result JSON differs across thread counts"
    print("CRITERION 10 determinism: PASS (50 instances byte-identical for "
          "1 and 4 threads)")
