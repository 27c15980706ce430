"""Coordinate-descent minimizer, restarts, brute-force oracle, rho continuation."""

import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import nlfb.solver
from nlfb import (
    Ball,
    CapacityError,
    ConfigurationError,
    Field,
    ProblemSpec,
    assemble_form,
    build_grid,
    coordinate_descent,
    enumerate_lattice,
    fractional_kernel,
    harmonic_lifting,
    lifting_initialization,
    minimize,
    oracle_minimize,
    rho_sweep_minimize,
    SolverError,
    total_energy,
)
from nlfb.solver import PHASES, _pcg, _sweep, _visit, thread_count

from conftest import random_field_values


def four_interior_problem(rng, phase="one_phase", rho=None):
    # 12 nodes at +-(0.125 + 0.25 k), interior +-0.125, +-0.375
    grid = enumerate_lattice(1, 0.25, 1.5, 0.5)
    kernel = fractional_kernel(0.5)
    lo = 0.0 if phase == "one_phase" else -1.0
    data = np.where(grid.interior, 0.0, rng.uniform(lo, 1.0, grid.n_nodes))
    if rho is None:
        rho = float(10.0 ** rng.uniform(-3.0, 0.5))
    return ProblemSpec(kernel, grid, data, rho=rho, xi=0.0, phase=phase)


# ------------------------------------------------------------------ linear solve

def test_pcg_matches_direct_solve():
    rng = np.random.default_rng(41)
    M = rng.standard_normal((30, 30))
    A = M @ M.T + 30.0 * np.eye(30)
    b = rng.standard_normal(30)
    x, rel_res, iters = _pcg(A, b, np.zeros(30))
    assert rel_res <= 1e-12
    assert iters > 0
    assert np.allclose(x, np.linalg.solve(A, b), rtol=0, atol=1e-10)


def test_pcg_zero_rhs_returns_zero():
    A = np.eye(4)
    x, rel_res, iters = _pcg(A, np.zeros(4), np.ones(4))
    assert np.array_equal(x, np.zeros(4))
    assert rel_res == 0.0 and iters == 0


def test_pcg_reports_nonconvergence():
    from nlfb import SolverError
    A = np.eye(3)
    with pytest.raises(SolverError):
        _pcg(A, np.ones(3), np.zeros(3), maxiter=0)


# ------------------------------------------------------------- harmonic lifting

def test_lifting_of_constant_data_is_constant(grid_1d_small):
    form = assemble_form(fractional_kernel(0.5), grid_1d_small)
    f = Field(grid_1d_small, np.full(grid_1d_small.n_nodes, 2.5))
    lifted = harmonic_lifting(form, f, Ball((0.0,), 0.6))
    assert np.allclose(lifted.values, 2.5, rtol=0, atol=1e-10)


def test_lifting_never_increases_energy_and_obeys_bounds(grid_1d_small):
    form = assemble_form(fractional_kernel(0.5), grid_1d_small)
    from nlfb import dirichlet_energy
    rng = np.random.default_rng(43)
    region = Ball((0.2,), 0.5)
    for _ in range(20):
        f = Field(grid_1d_small, random_field_values(grid_1d_small, rng))
        lifted = harmonic_lifting(form, f, region)
        assert dirichlet_energy(form, lifted) <= dirichlet_energy(form, f) + 1e-12
        # discrete maximum principle: lifted values sit inside the range of
        # the fixed values (complement nodes plus implicit exterior zeros)
        from nlfb.grid import region_interior_indices
        idx = region_interior_indices(grid_1d_small, region)
        fixed = np.delete(f.values, idx)
        lo, hi = min(fixed.min(), 0.0), max(fixed.max(), 0.0)
        assert lifted.values[idx].min() >= lo - 1e-10
        assert lifted.values[idx].max() <= hi + 1e-10


def test_lifting_initialization_respects_one_phase_sign():
    grid = build_grid(1, 0.2, 2.0)
    kernel = fractional_kernel(0.5)
    rng = np.random.default_rng(47)
    data = np.where(grid.interior, 0.0, rng.uniform(0.0, 1.0, grid.n_nodes))
    problem = ProblemSpec(kernel, grid, data, rho=0.1, phase="one_phase")
    form = assemble_form(kernel, grid)
    init = lifting_initialization(problem, form)
    assert np.all(init.values >= 0.0)
    assert np.array_equal(init.values[~grid.interior], data[~grid.interior])


# ------------------------------------------------------------ coordinate descent

@settings(max_examples=300, deadline=None)
@given(a=st.floats(0.5, 5.0), b=st.floats(-5.0, 5.0), rho_cell=st.floats(0.0, 3.0),
       xi=st.floats(-1.0, 1.0), one_phase=st.booleans())
def test_visit_matches_dense_grid_search(a, b, rho_cell, xi, one_phase):
    t = _visit(a, b, rho_cell, xi, one_phase)
    assert t >= 0.0 or not one_phase
    # |b / a| <= 10, so the grid brackets every candidate
    grid = np.concatenate([np.linspace(0.0 if one_phase else -12.0, 12.0, 200001),
                           [xi] if xi >= 0.0 or not one_phase else []])
    q = a * grid * grid - 2.0 * b * grid + np.where(grid > xi, rho_cell, 0.0)
    best = float(q.min())
    q_t = a * t * t - 2.0 * b * t + (rho_cell if t > xi else 0.0)
    assert q_t <= best + 1e-12 * (1.0 + abs(best))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), phase=st.sampled_from(PHASES),
       xi=st.floats(-0.2, 0.3), rho=st.floats(0.0, 1.0))
def test_sweep_change_matches_energy_difference(seed, phase, xi, rho, grid_1d_small):
    rng = np.random.default_rng(seed)
    lo = 0.0 if phase == "one_phase" else -1.0
    data = np.where(grid_1d_small.interior, 0.0, rng.uniform(lo, 1.0, grid_1d_small.n_nodes))
    problem = ProblemSpec(fractional_kernel(0.5), grid_1d_small, data, rho=rho, xi=xi,
                          phase=phase)
    form = assemble_form(problem.kernel, grid_1d_small)
    u = data + np.where(grid_1d_small.interior, rng.uniform(lo, 1.0, data.shape[0]), 0.0)
    e0 = total_energy(form, Field(grid_1d_small, u), rho, xi).total
    order = rng.permutation(np.nonzero(grid_1d_small.interior)[0])
    change = _sweep(form, u, order, rho * grid_1d_small.cell_measure, xi,
                    phase == "one_phase")
    e1 = total_energy(form, Field(grid_1d_small, u), rho, xi).total
    assert abs(change - (e1 - e0)) <= 1e-12 * (1.0 + abs(e0))


def test_sweep_without_changes_sums_to_exactly_zero(grid_1d_small):
    form = assemble_form(fractional_kernel(0.5), grid_1d_small)
    u = np.zeros(grid_1d_small.n_nodes)
    order = np.nonzero(grid_1d_small.interior)[0]
    assert _sweep(form, u, order, 0.1, 0.0, True) == 0.0
    assert not u.any()


@pytest.mark.parametrize("offset,message", [(-1e-3, "drifted"), (1e-3, "increased")])
def test_tracked_energy_is_checked(monkeypatch, offset, message):
    # a sweep misreporting its change trips the per-sweep monotonicity check
    # (too high) or the drift check at the next polish boundary (too low)
    rng = np.random.default_rng(113)
    problem = four_interior_problem(rng)
    real_sweep = nlfb.solver._sweep
    monkeypatch.setattr(nlfb.solver, "_sweep", lambda *args: real_sweep(*args) + offset)
    with pytest.raises(SolverError, match=message):
        coordinate_descent(problem, problem.exterior_field())


def test_rho_zero_two_phase_recovers_harmonic_values(grid_1d_small):
    kernel = fractional_kernel(0.5)
    rng = np.random.default_rng(53)
    data = np.where(grid_1d_small.interior, 0.0,
                    rng.uniform(-1.0, 1.0, grid_1d_small.n_nodes))
    problem = ProblemSpec(kernel, grid_1d_small, data, rho=0.0, xi=0.0, phase="two_phase")
    form = assemble_form(kernel, grid_1d_small)
    res = coordinate_descent(problem, problem.exterior_field(), seed=3, form=form)
    harmonic = lifting_initialization(problem, form)
    assert res.converged
    assert np.abs(res.field.values - harmonic.values).max() <= 1e-8


def test_zero_data_minimizer_is_zero():
    grid = build_grid(1, 0.2, 2.0)
    problem = ProblemSpec(fractional_kernel(0.5), grid, np.zeros(grid.n_nodes),
                          rho=0.5, phase="one_phase")
    res = minimize(problem, n_restarts=2, seed=0)
    assert np.array_equal(res.field.values, np.zeros(grid.n_nodes))
    assert res.energy.total == 0.0
    assert res.support.size == 0
    assert res.converged


def test_initialization_must_match_exterior_data():
    rng = np.random.default_rng(59)
    problem = four_interior_problem(rng)
    bad = problem.exterior_field()
    bad.values[0] += 1.0  # node 0 is exterior on this grid
    with pytest.raises(ConfigurationError):
        coordinate_descent(problem, bad)


def test_one_phase_initialization_must_be_nonnegative():
    rng = np.random.default_rng(61)
    problem = four_interior_problem(rng)
    init = problem.exterior_field()
    interior = np.nonzero(problem.grid.interior)[0]
    init.values[interior[0]] = -0.5
    with pytest.raises(ConfigurationError):
        coordinate_descent(problem, init)


def test_one_phase_off_nodes_sit_exactly_at_zero():
    rng = np.random.default_rng(67)
    for _ in range(5):
        problem = four_interior_problem(rng, rho=1.0)
        res = minimize(problem, n_restarts=4, seed=11)
        interior = problem.grid.interior
        off = interior & ~np.isin(np.arange(problem.grid.n_nodes), res.support)
        assert np.all(res.field.values[off] == 0.0)
        assert np.all(res.field.values[res.support] > 0.0)


# ----------------------------------------------------------- oracle comparisons

@pytest.mark.parametrize("phase", ["one_phase", "two_phase"])
def test_minimize_matches_oracle_four_interior(phase):
    rng = np.random.default_rng(71 if phase == "one_phase" else 73)
    for trial in range(8):
        problem = four_interior_problem(rng, phase=phase)
        got = minimize(problem, n_restarts=6, seed=100 + trial)
        want = oracle_minimize(problem)
        scale = 1.0 + abs(want.energy.total)
        # at the global minimum, and never below it
        assert got.energy.total <= want.energy.total + 1e-10 * scale
        assert got.energy.total >= want.energy.total - 1e-10 * scale


def test_minimize_matches_oracle_ten_interior(grid_1d_small):
    kernel = fractional_kernel(0.5)
    rng = np.random.default_rng(79)
    for trial in range(3):
        data = np.where(grid_1d_small.interior, 0.0,
                        rng.uniform(0.0, 1.0, grid_1d_small.n_nodes))
        rho = float(10.0 ** rng.uniform(-3.0, 0.0))
        problem = ProblemSpec(kernel, grid_1d_small, data, rho=rho, phase="one_phase")
        got = minimize(problem, n_restarts=8, seed=trial)
        want = oracle_minimize(problem)
        scale = 1.0 + abs(want.energy.total)
        assert abs(got.energy.total - want.energy.total) <= 1e-10 * scale
        assert np.array_equal(got.support, want.support)


def test_oracle_rejects_large_interior_sets():
    grid = build_grid(1, 0.1, 2.0)  # 20 interior nodes
    problem = ProblemSpec(fractional_kernel(0.5), grid, np.zeros(grid.n_nodes),
                          rho=0.1, phase="one_phase")
    with pytest.raises(CapacityError):
        oracle_minimize(problem)


def test_oracle_refuses_nonzero_threshold():
    # One-phase, 10 interior nodes, xi = 0.05, rho = 0.02. Pinning off-support
    # nodes at 0 is not exact here: the minimizer's off nodes sit at xi, not
    # at 0, and its energy (0.02238) is below the best pinned enumeration
    # candidate (0.03455).
    grid = build_grid(1, 0.1, 1.0, 0.5)
    rng = np.random.default_rng([0, 22])
    data = 0.35 * np.where(grid.interior, 0.0, rng.random(grid.n_nodes))
    problem = ProblemSpec(fractional_kernel(0.5), grid, data, rho=0.02, xi=0.05,
                          phase="one_phase")
    with pytest.raises(ConfigurationError, match="xi"):
        oracle_minimize(problem)
    res = minimize(problem, n_restarts=20, seed=22)
    assert res.energy.total < 0.0345
    off = res.field.values[grid.interior & (res.field.values <= problem.xi)]
    assert off.size > 0 and np.all(off > 0.0)
    assert oracle_minimize(replace(problem, xi=0.0)).energy.total > 0.0


def test_oracle_zero_data_has_unique_empty_support():
    grid = enumerate_lattice(1, 0.25, 1.5, 0.5)
    problem = ProblemSpec(fractional_kernel(0.5), grid, np.zeros(grid.n_nodes),
                          rho=0.5, phase="one_phase")
    res = oracle_minimize(problem)
    assert res.energy.total == 0.0
    assert res.support.size == 0
    assert res.tied_supports is None


def test_oracle_reports_exact_break_even_tie():
    # all-ones data: the fully-on candidate is u = 1 with zero Dirichlet energy
    # and volume rho * h * 2 = rho; picking rho equal to the all-off Dirichlet
    # energy makes the two supports tie exactly
    grid = enumerate_lattice(1, 0.5, 1.5, 0.75)
    kernel = fractional_kernel(0.5)
    data = np.where(grid.interior, 0.0, 1.0)
    e_off = oracle_minimize(
        ProblemSpec(kernel, grid, data, rho=100.0, phase="one_phase")).energy.dirichlet
    tie_problem = ProblemSpec(kernel, grid, data, rho=e_off, phase="one_phase")
    res = oracle_minimize(tie_problem)
    assert res.tied_supports == [(), (2, 3)]


# ------------------------------------------------------- restarts and determinism

def test_single_restart_equals_descent_from_lifting():
    rng = np.random.default_rng(83)
    problem = four_interior_problem(rng)
    form = assemble_form(problem.kernel, problem.grid)
    direct = coordinate_descent(problem, lifting_initialization(problem, form),
                                seed=5, form=form)
    via_minimize = minimize(problem, n_restarts=1, seed=5)
    assert np.array_equal(direct.field.values, via_minimize.field.values)
    assert direct.energy.total == via_minimize.energy.total
    # a given form is used and returned, not assembled again
    with_form = minimize(problem, n_restarts=1, seed=5, form=form)
    assert with_form.form is form and via_minimize.form is not form
    assert np.array_equal(with_form.field.values, via_minimize.field.values)


def test_minimize_not_worse_than_any_initialization():
    rng = np.random.default_rng(89)
    problem = four_interior_problem(rng)
    form = assemble_form(problem.kernel, problem.grid)
    res = minimize(problem, n_restarts=4, seed=0)
    for init in (lifting_initialization(problem, form), problem.exterior_field()):
        e_init = total_energy(form, init, problem.rho, problem.xi).total
        assert res.energy.total <= e_init + 1e-12


def test_minimize_requires_at_least_one_restart():
    rng = np.random.default_rng(97)
    problem = four_interior_problem(rng)
    with pytest.raises(ConfigurationError):
        minimize(problem, n_restarts=0)


def test_minimize_is_deterministic_for_a_seed():
    rng = np.random.default_rng(101)
    problem = four_interior_problem(rng)
    a = minimize(problem, n_restarts=4, seed=7)
    b = minimize(problem, n_restarts=4, seed=7)
    assert np.array_equal(a.field.values, b.field.values)
    assert json.dumps(a.to_dict(), sort_keys=True) == json.dumps(b.to_dict(), sort_keys=True)


def test_thread_count_parsing(monkeypatch):
    monkeypatch.delenv("NLFB_THREADS", raising=False)
    assert thread_count() == 1
    monkeypatch.setenv("NLFB_THREADS", "4")
    assert thread_count() == 4
    monkeypatch.setenv("NLFB_THREADS", "0")
    assert thread_count() == 1
    monkeypatch.setenv("NLFB_THREADS", "many")
    with pytest.raises(ConfigurationError):
        thread_count()


def test_thread_count_does_not_change_results(monkeypatch, grid_1d_small):
    kernel = fractional_kernel(0.5)
    rng = np.random.default_rng(103)
    data = np.where(grid_1d_small.interior, 0.0,
                    rng.uniform(0.0, 1.0, grid_1d_small.n_nodes))
    problem = ProblemSpec(kernel, grid_1d_small, data, rho=0.05, phase="one_phase")
    outputs = {}
    for threads in ("1", "4"):
        monkeypatch.setenv("NLFB_THREADS", threads)
        res = minimize(problem, n_restarts=6, seed=13)
        outputs[threads] = json.dumps(res.to_dict(), sort_keys=True)
    assert outputs["1"] == outputs["4"]


# -------------------------------------------------------------- rho continuation

def test_rho_sweep_is_descending_and_consistent_with_oracle():
    rng = np.random.default_rng(107)
    problem = four_interior_problem(rng, rho=1.0)
    rhos = [0.001, 1.0, 0.1, 0.01]  # deliberately unsorted
    out = rho_sweep_minimize(problem, rhos, n_restarts=4, seed=0)
    assert [r for r, _ in out] == [1.0, 0.1, 0.01, 0.001]
    totals = [res.energy.total for _, res in out]
    # the optimal value can only drop as the penalty weakens
    assert all(a >= b - 1e-12 for a, b in zip(totals, totals[1:]))
    supports = [res.support.size for _, res in out]
    assert all(a <= b for a, b in zip(supports, supports[1:]))
    assert all(res.form is out[0][1].form for _, res in out)
    for rho, res in out:
        want = oracle_minimize(replace(problem, rho=rho))
        scale = 1.0 + abs(want.energy.total)
        assert abs(res.energy.total - want.energy.total) <= 1e-10 * scale


def test_rho_sweep_requires_values():
    rng = np.random.default_rng(109)
    problem = four_interior_problem(rng)
    with pytest.raises(ConfigurationError):
        rho_sweep_minimize(problem, [])


# ------------------------------------------------------------ problem validation

def test_problem_spec_validation(grid_1d_small):
    kernel = fractional_kernel(0.5)
    n = grid_1d_small.n_nodes
    with pytest.raises(ConfigurationError):
        ProblemSpec(kernel, grid_1d_small, np.zeros(n), rho=-1.0)
    with pytest.raises(ConfigurationError):
        ProblemSpec(kernel, grid_1d_small, np.zeros(n), rho=1.0, xi=float("nan"))
    with pytest.raises(ConfigurationError):
        ProblemSpec(kernel, grid_1d_small, np.zeros(n), rho=1.0, phase="three_phase")
    with pytest.raises(ConfigurationError):
        ProblemSpec(fractional_kernel(0.5, dim=2), grid_1d_small, np.zeros(n), rho=1.0)
    with pytest.raises(ConfigurationError):
        ProblemSpec(kernel, grid_1d_small, np.zeros(n - 1), rho=1.0)
    with pytest.raises(ConfigurationError):
        ProblemSpec(kernel, grid_1d_small, np.full(n, -1.0), rho=1.0, phase="one_phase")
    # two_phase accepts signed data; interior entries are zeroed
    spec = ProblemSpec(kernel, grid_1d_small, np.full(n, -1.0), rho=1.0, phase="two_phase")
    assert np.all(spec.exterior_data[grid_1d_small.interior] == 0.0)
    assert np.all(spec.exterior_data[~grid_1d_small.interior] == -1.0)
