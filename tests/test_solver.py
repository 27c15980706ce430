"""Coordinate-descent minimizer, restarts, brute-force oracle, rho continuation."""

import json
import math
import re
import threading
import tracemalloc
from dataclasses import replace
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import nlfb.energy
import nlfb.grid
import nlfb.solver
from nlfb import (
    Ball,
    CapacityError,
    ConfigurationError,
    Field,
    KernelSpec,
    ProblemSpec,
    assemble_form,
    build_grid,
    checkerboard_kernel,
    coordinate_descent,
    enumerate_lattice,
    fractional_kernel,
    harmonic_lifting,
    lifting_initialization,
    minimize,
    modulated_kernel,
    oracle_minimize,
    rho_sweep_minimize,
    SolverError,
    total_energy,
)
from nlfb.cli import ORACLE_AGREE_RTOL
from nlfb.energy import exterior_terms
from nlfb.solver import (CERTIFICATE_RTOL, CG_TOL, DEFAULT_MAX_SWEEPS, EPS_STOP_FACTOR,
                         ORACLE_BLOCK, ORACLE_CHUNK, ORACLE_TIE_RTOL, PHASES, POLISH_PERIOD,
                         SCHUR_BLOCK, _band_greedy, _bordered, _certify, _best_response,
                         _bound_states, _descend, _system_matrix,
                         _finalize_all, _free_mask, _oracle_energies, _oracle_scan,
                         _oracle_solve, _pcg, _pinned_inverses, _polish, _solve_free,
                         _subsystem, _sweep, _verify_bounds, _visit, _winner, check_oracle,
                         minimize_all, oracle_minimize_all)

from conftest import (family_kernel, pair_energy_rounding, random_field_values,
                      reduced_energy_rounding, reference_band_system, reference_exterior_rows,
                      reference_exterior_term, reference_row)


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


# The first _pcg, with np.linalg.norm norms and the warm-start residual tested
# inside the loop: the bits and iteration counts _pcg must keep.
def reference_pcg(A, b, x0, rtol=CG_TOL, maxiter=None):
    n = b.shape[0]
    if maxiter is None:
        maxiter = max(200, 50 * n)
    b_norm = float(np.linalg.norm(b))
    if b_norm == 0.0:
        return np.zeros(n), 0.0, 0
    x = x0.astype(np.float64).copy()
    r = b - A @ x
    inv_diag = 1.0 / np.diag(A)
    z = inv_diag * r
    p = z.copy()
    rz = float(r @ z)
    for it in range(maxiter):
        res = float(np.linalg.norm(r))
        if res <= rtol * b_norm:
            return x, res / b_norm, it
        Ap = A @ p
        alpha = rz / float(p @ Ap)
        x += alpha * p
        r -= alpha * Ap
        z = inv_diag * r
        rz_new = float(r @ z)
        p = z + (rz_new / rz) * p
        rz = rz_new
    res = float(np.linalg.norm(r))
    if res <= rtol * b_norm:
        return x, res / b_norm, maxiter
    raise SolverError(
        f"CG did not reach rtol {rtol} in {maxiter} iterations; "
        f"final relative residual {res / b_norm:.3e}")


def pcg_outcome(pcg, *args):
    try:
        x, res, iterations = pcg(*args)
    except SolverError as exc:
        return "raised", str(exc)
    return x.tobytes(), float(res).hex(), iterations


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 40), density=st.floats(0.0, 1.0), start=st.sampled_from(
       ("cold", "zero_rhs", "warm")), maxiter=st.sampled_from((None, 0, 1, 3)),
       seed=st.integers(0, 2 ** 32 - 1))
def test_pcg_equals_reference_bitwise(n, density, start, maxiter, seed):
    # random SPD M-matrices diag(a) - W with W >= 0 and a strictly above the
    # row sums of W, the polish's kind of system
    rng = np.random.default_rng(seed)
    W = np.triu(rng.uniform(0.0, 1.0, (n, n)) * (rng.random((n, n)) < density), 1)
    W += W.T
    A = np.diag(W.sum(axis=1) + rng.uniform(0.05, 1.0, n)) - W
    b = rng.uniform(-1.0, 1.0, n)
    if start == "cold":
        x0 = np.zeros(n)
    elif start == "zero_rhs":
        x0, b = rng.uniform(-1.0, 1.0, n), np.zeros(n)
    else:
        x0 = np.linalg.solve(A, b)
    got = pcg_outcome(_pcg, A, b, x0, CG_TOL, maxiter)
    assert got == pcg_outcome(reference_pcg, A, b, x0, CG_TOL, maxiter)
    if start == "warm":
        assert got[2] == 0


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
    order = rng.permutation(form.interior_idx.shape[0])
    x = u[form.interior_idx]
    change = _sweep(form, x, exterior_terms(form, data)[0], order,
                    rho * grid_1d_small.cell_measure, xi, phase == "one_phase")
    u[form.interior_idx] = x
    e1 = total_energy(form, Field(grid_1d_small, u), rho, xi).total
    assert abs(change - (e1 - e0)) <= 1e-12 * (1.0 + abs(e0))


def test_sweep_without_changes_sums_to_exactly_zero(grid_1d_small):
    form = assemble_form(fractional_kernel(0.5), grid_1d_small)
    u = np.zeros(grid_1d_small.n_nodes)
    x = u[form.interior_idx]
    order = np.arange(x.shape[0])
    assert _sweep(form, x, exterior_terms(form, u)[0], order, 0.1, 0.0, True) == 0.0
    assert not x.any()


# The tuple-based visit and the per-row sweep over numpy-scalar row sums that
# the branch-only visit and the cached-row sweep replaced: bitwise references.
# A visit to stored row k reads b = W_II[k] . x + b_I[k], with W_II the stored
# block and b_I one np.dot of the reference W_IE[k] with the exterior values.
def reference_visit(a, b, rho_cell, xi, one_phase):
    v = b / a
    best = None           # (energy, on_flag, value)
    if one_phase:
        if xi >= 0.0:
            t_off = min(max(v, 0.0), xi)
            best = (a * t_off * t_off - 2.0 * b * t_off, 0, t_off)
        t_on = max(v, 0.0)
        if t_on > xi:
            cand = (a * t_on * t_on - 2.0 * b * t_on + rho_cell, 1, t_on)
            if best is None or cand < best:
                best = cand
    else:
        t_off = min(v, xi)
        best = (a * t_off * t_off - 2.0 * b * t_off, 0, t_off)
        if v > xi:
            cand = (a * v * v - 2.0 * b * v + rho_cell, 1, v)
            if cand < best:
                best = cand
    return best[2]


def reference_sweep(form, x, b_I, order, rho_cell, xi, one_phase):
    rows, row_sums = form.dense, form.row_sums
    change = 0.0
    for k in order.tolist():
        a, b, t_old = row_sums[k], float(np.dot(rows[k], x)) + float(b_I[k]), float(x[k])
        t = reference_visit(a, b, rho_cell, xi, one_phase)
        if t != t_old:
            change += (a * (t * t - t_old * t_old) - 2.0 * b * (t - t_old)
                       + rho_cell * (int(t > xi) - int(t_old > xi)))
            x[k] = t
    return change


def assert_same_bits(got, want):
    assert np.float64(got).tobytes() == np.float64(want).tobytes()
    assert np.signbit(got) == np.signbit(want)


@settings(max_examples=500, deadline=None)
@given(a=st.floats(0.01, 100.0),
       b=st.one_of(st.floats(-10.0, 10.0), st.sampled_from([0.0, -0.0])),
       rho_cell=st.floats(0.0, 3.0),
       xi=st.one_of(st.floats(-1.0, 1.0), st.sampled_from([0.0, -0.0])),
       one_phase=st.booleans())
def test_visit_equals_reference_bitwise(a, b, rho_cell, xi, one_phase):
    assert_same_bits(_visit(a, b, rho_cell, xi, one_phase),
                     reference_visit(np.float64(a), b, rho_cell, xi, one_phase))


@settings(max_examples=200, deadline=None)
@given(a=st.floats(0.01, 100.0), b=st.floats(1e-3, 10.0), xi=st.sampled_from([0.0, -0.0]),
       one_phase=st.booleans())
def test_visit_exact_tie_goes_off(a, b, xi, one_phase):
    # at xi = 0 the off value is 0 with energy 0, and rho_cell = -q makes the
    # on energy q + rho_cell exactly 0 too
    v = b / a
    rho_cell = -(a * v * v - 2.0 * b * v)
    assert a * v * v - 2.0 * b * v + rho_cell == 0.0
    t = _visit(a, b, rho_cell, xi, one_phase)
    assert_same_bits(t, reference_visit(np.float64(a), b, rho_cell, xi, one_phase))
    assert t == 0.0


@pytest.mark.parametrize("one_phase", [True, False])
@pytest.mark.parametrize("xi", [0.0, -0.0, 0.5, -0.5])
def test_visit_keeps_the_sign_of_a_negative_zero_vertex(one_phase, xi):
    for rho_cell in (0.0, 1.0):
        t = _visit(2.0, -0.0, rho_cell, xi, one_phase)
        assert_same_bits(t, reference_visit(np.float64(2.0), -0.0, rho_cell, xi, one_phase))


@settings(max_examples=300, deadline=None)
@given(pairs=st.lists(st.tuples(st.floats(0.01, 100.0),
                                st.one_of(st.floats(-10.0, 10.0), st.sampled_from([0.0, -0.0]))),
                      min_size=1, max_size=16),
       rho_cell=st.floats(0.0, 3.0), tie=st.booleans())
def test_best_response_matches_visit_bitwise(pairs, rho_cell, tie):
    # the bound iterations' vectorized rule is _visit at one_phase, xi = 0,
    # element by element and bit for bit; with `tie`, the first element sits
    # on an exact tie, which goes off
    a, b = (np.array(column) for column in zip(*pairs))
    if tie:
        b[0] = abs(b[0]) + 1e-3
        v = b[0] / a[0]
        rho_cell = float(-(a[0] * v * v - 2.0 * b[0] * v))
        assert a[0] * v * v - 2.0 * b[0] * v + rho_cell == 0.0
    got = _best_response(a, b, rho_cell)
    for k in range(a.shape[0]):
        assert_same_bits(got[k], _visit(float(a[k]), float(b[k]), rho_cell, 0.0, True))
    if tie:
        assert got[0] == 0.0
    # a -0.0 quotient stays -0.0, as _visit returns it
    zero = _best_response(np.array([2.0, 2.0]), np.array([-0.0, 0.0]), rho_cell)
    assert np.signbit(zero).tolist() == [True, False]


@pytest.mark.parametrize("phase", PHASES)
@pytest.mark.parametrize("dim,h", [(1, 0.1), (2, 0.2)])
def test_sweep_equals_reference_bitwise(phase, dim, h):
    grid = build_grid(dim, h, 2.0)
    kernel = fractional_kernel(0.4, dim=dim)
    form = assemble_form(kernel, grid)
    rng = np.random.default_rng([131, dim, PHASES.index(phase)])
    lo = 0.0 if phase == "one_phase" else -1.0
    for _ in range(4):
        xi = float(rng.choice([0.0, rng.uniform(-0.2, 0.3)]))
        rho_cell = float(10.0 ** rng.uniform(-3.0, 0.0)) * grid.cell_measure
        u = rng.uniform(lo, 1.0, grid.n_nodes)
        x = u[form.interior_idx]
        x_ref = x.copy()
        b_I = exterior_terms(form, u)[0]
        assert b_I.tobytes() == reference_exterior_term(form, u).tobytes()
        for _ in range(3):
            order = rng.permutation(x.shape[0])
            change = _sweep(form, x, b_I, order, rho_cell, xi, phase == "one_phase")
            want = reference_sweep(form, x_ref, b_I, order, rho_cell, xi,
                                   phase == "one_phase")
            assert_same_bits(change, want)
            assert x.tobytes() == x_ref.tobytes()


# The sweep reads b = W_II[k] . x + b_I[k], with b_I fixed for the descent, in
# place of the node-ordered row dot sum_j w_ij u_j; the two agree to rounding.
@settings(max_examples=60, deadline=None)
@given(family=st.sampled_from(("fractional_laplacian", "modulated", "checkerboard",
                               "custom_table")),
       dim=st.sampled_from((1, 2)), phase=st.sampled_from(PHASES), s=st.floats(0.05, 0.95),
       block=st.floats(0.1, 1.0), cells=st.floats(4.2, 6.0), xi=st.floats(-0.2, 0.3),
       log_rho=st.floats(-3.0, 0.0), seed=st.integers(0, 2 ** 32 - 1))
def test_sweep_right_hand_side_matches_node_ordered_row_dots(family, dim, phase, s, block,
                                                             cells, xi, log_rho, seed):
    if dim == 1:
        cells *= 6.0     # 1D: 50 to 72 interior nodes, 2D: 52 to 112
    grid = build_grid(dim, 1.0 / cells, 2.0)
    form = assemble_form(family_kernel(family, dim, s, block), grid)
    rng = np.random.default_rng(seed)
    lo = 0.0 if phase == "one_phase" else -1.0
    u = rng.uniform(lo, 1.0, grid.n_nodes)
    u[grid.interior & (rng.random(grid.n_nodes) < 0.3)] = 0.0
    order = rng.permutation(form.interior_idx.shape[0])
    real_visit, seen = nlfb.solver._visit, []

    def visit(a, b, *args):
        t = real_visit(a, b, *args)
        seen.append((b, t))
        return t

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(nlfb.solver, "_visit", visit)
        _sweep(form, u[form.interior_idx], exterior_terms(form, u)[0], order,
               10.0 ** log_rho * grid.cell_measure, xi, phase == "one_phase")
    assert len(seen) == order.shape[0]
    for k, (b, t) in zip(order.tolist(), seen):
        row = reference_row(grid, form.kernel, form.interior_idx[k])    # w_{i, .} by node
        want = math.fsum((row * u).tolist())
        assert abs(b - want) <= 1e-12 * math.fsum(np.abs(row * u).tolist())
        u[form.interior_idx[k]] = t


def test_descent_reads_the_block_in_place(monkeypatch):
    # the sweep's rows and the reduced energy's W_II are views of form.dense,
    # which is W_II, and the oracle's inverses are gathered from form.dense
    # itself; no copy of W_II and no W_IE is stored: the form's other arrays
    # stay under 4 values per node, and the kept exterior terms are one value
    # per node or row
    grid = build_grid(1, 0.1, 1.0, 0.5)                  # 10 interior nodes
    rng = np.random.default_rng(59)
    data = np.where(grid.interior, 0.0, rng.uniform(0.0, 1.0, grid.n_nodes))
    problem = ProblemSpec(fractional_kernel(0.5), grid, data, rho=0.05)
    form = assemble_form(problem.kernel, grid)
    n_int = form.interior_idx.shape[0]
    assert form.dense.shape == (n_int, n_int)
    assert form.dense.nbytes == 8 * n_int * n_int
    assert all(np.shares_memory(row, form.dense) and row.shape == (n_int,)
               for row in form.interior_rows)
    stored = [v for v in vars(form).values() if isinstance(v, np.ndarray)]
    owned = [v for v in stored if v is not form.dense and v.base is None]
    assert sum(v.nbytes for v in owned) < 4 * 8 * grid.n_nodes
    assert form.terms_cache is None
    exterior_terms(form, data)
    g_E, (b_I, _) = form.terms_cache
    assert all(v.ndim == 1 and v.shape[0] <= grid.n_nodes for v in (g_E, b_I))
    read = []
    real_dots = nlfb.energy.rowwise_dots
    monkeypatch.setattr(nlfb.energy, "rowwise_dots",
                        lambda matrix, rows, v: read.append(matrix) or real_dots(matrix, rows, v))
    monkeypatch.setattr(nlfb.solver, "rowwise_dots", nlfb.energy.rowwise_dots)
    coordinate_descent(problem, problem.exterior_field(), form=form)
    assert read and all(np.shares_memory(m, form.dense) for m in read)
    W_II = form.dense
    gathered = []

    class GatherRecordingBlock(np.ndarray):
        # records the array each index reads, the block a gather copies from
        def __getitem__(self, index):
            gathered.append(self)
            return super().__getitem__(index)

    form.dense = W_II.view(GatherRecordingBlock)
    check_oracle(problem, form)
    # one stacked gather per support size, each from W_II's own memory
    assert len(gathered) == n_int
    assert all(np.shares_memory(block, W_II) for block in gathered)
    assert all(inv.shape == (k + 1, k + 1, math.comb(n_int, k + 1))
               for k, (_, _, inv) in enumerate(form.pinned_inverses))


def test_descent_reports_the_energy_of_its_final_field():
    # the polish boundaries evaluate the reduced form; the reported breakdown
    # is the exit state's pairwise total_energy, bit for bit, at any sweep cap
    rng = np.random.default_rng(137)
    for phase in PHASES:
        problem = four_interior_problem(rng, phase=phase)
        form = assemble_form(problem.kernel, problem.grid)
        for max_sweeps in (0, 1, 30, DEFAULT_MAX_SWEEPS):
            res = coordinate_descent(problem, lifting_initialization(problem, form),
                                     seed=5, max_sweeps=max_sweeps, form=form)
            fresh = total_energy(form, res.field, problem.rho, problem.xi)
            fresh.truncation_bound = res.energy.truncation_bound
            assert res.energy == fresh


@pytest.mark.parametrize("phase", PHASES)
def test_unchanged_polish_skips_its_energy_evaluation(monkeypatch, phase):
    # a polish that returns the state unchanged has its energy bit for bit, so
    # the descent evaluates the reduced form once at the start, once per polish
    # boundary and once per polish that changed the state; the pairwise
    # total_energy runs once, for the exit state
    grid = build_grid(1, 0.1, 2.0)
    kernel = fractional_kernel(0.5)
    form = assemble_form(kernel, grid)
    rng = np.random.default_rng([89, PHASES.index(phase)])
    lo = 0.0 if phase == "one_phase" else -1.0
    data = np.where(grid.interior, 0.0, rng.uniform(lo, 1.0, grid.n_nodes))
    problem = ProblemSpec(kernel, grid, data, rho=0.05, phase=phase)
    init = lifting_initialization(problem, form)
    real_polish, real_energy = nlfb.solver._polish, nlfb.solver.total_energies
    real_reduced = nlfb.solver.reduced_energy
    polishes, evaluations, boundary_evaluations = [], [], []

    def polish(problem, form, x, *args):
        out = real_polish(problem, form, x, *args)
        polishes.append("none" if not _free_mask(problem, x).any()
                        else "unchanged" if out is None else "changed")
        return out

    def energy(*args):
        evaluations.append(args)
        return real_energy(*args)

    def reduced(*args):
        boundary_evaluations.append(args)
        return real_reduced(*args)

    monkeypatch.setattr(nlfb.solver, "_polish", polish)
    monkeypatch.setattr(nlfb.solver, "total_energies", energy)
    monkeypatch.setattr(nlfb.solver, "reduced_energy", reduced)
    res = coordinate_descent(problem, init, seed=3, form=form)
    assert res.converged and "unchanged" in polishes
    assert len(boundary_evaluations) == 1 + len(polishes) + polishes.count("changed")
    assert len(evaluations) == 1
    fresh = total_energy(form, res.field, problem.rho, problem.xi)
    fresh.truncation_bound = res.energy.truncation_bound
    assert res.energy == fresh


@pytest.mark.parametrize("phase", PHASES)
@pytest.mark.parametrize("dim,h", [(1, 0.1), (2, 0.2)])
def test_polish_returns_polished_states_unchanged(phase, dim, h):
    # Convergence needs "reached_stop and not improved": polishing a state that
    # is already solved must give it back bit for bit, so that its energy is
    # not "improved" by ulps. Warm-started CG does this; a direct re-solve does
    # not return the descent's exit state, which a sweep has moved by ulps.
    grid = build_grid(dim, h, 2.0)
    kernel = fractional_kernel(0.5, dim=dim)
    form = assemble_form(kernel, grid)
    rng = np.random.default_rng([71, dim, PHASES.index(phase)])
    lo = 0.0 if phase == "one_phase" else -1.0
    for trial in range(2):
        data = np.where(grid.interior, 0.0, rng.uniform(lo, 1.0, grid.n_nodes))
        problem = ProblemSpec(kernel, grid, data, rho=float(10.0 ** rng.uniform(-3.0, -0.5)),
                              phase=phase)
        init = lifting_initialization(problem, form)
        b_I = exterior_terms(form, data)[0]

        def polish(x):
            # None: the polish gives x back bit for bit
            return _polish(problem, form, x, b_I)

        lifted = init.values[form.interior_idx]
        polished = polish(lifted)
        assert polish(lifted if polished is None else polished) is None
        res = coordinate_descent(problem, init, seed=trial, form=form)
        assert res.converged
        assert polish(res.field.values[form.interior_idx]) is None


@pytest.mark.parametrize("phase", PHASES)
def test_descent_polishes_as_soon_as_a_sweep_keeps_the_free_set(monkeypatch, phase):
    # a polish follows every sweep that left the free set unchanged, and
    # otherwise only the POLISH_PERIOD-th sweep of a batch
    grid = build_grid(1, 0.05, 2.0)
    kernel = fractional_kernel(0.5)
    rng = np.random.default_rng([131, PHASES.index(phase)])
    lo = 0.0 if phase == "one_phase" else -1.0
    data = np.where(grid.interior, 0.0, rng.uniform(lo, 1.0, grid.n_nodes))
    problem = ProblemSpec(kernel, grid, data, rho=0.05, phase=phase)
    form = assemble_form(kernel, grid)
    real_sweep, real_polish = nlfb.solver._sweep, nlfb.solver._polish
    events = []

    def sweep(form, x, *args):
        before = _free_mask(problem, x)
        change = real_sweep(form, x, *args)
        events.append("kept" if np.array_equal(before, _free_mask(problem, x)) else "moved")
        return change

    def polish(problem, form, x, *args):
        events.append("polish")
        return real_polish(problem, form, x, *args)

    monkeypatch.setattr(nlfb.solver, "_sweep", sweep)
    monkeypatch.setattr(nlfb.solver, "_polish", polish)
    res = coordinate_descent(problem, problem.exterior_field(), seed=7, form=form)
    assert res.converged and events[-1] == "polish"
    batch = 0
    for event, nxt in zip(events, events[1:]):
        if event == "polish":
            batch = 0
            continue
        batch += 1
        assert (nxt == "polish") == (event == "kept" or batch == POLISH_PERIOD)
    # the free set settles before the descent stops: some batches end early
    assert events.count("polish") > 1 and "moved" in events


@settings(max_examples=60, deadline=None)
@given(family=st.sampled_from(("fractional_laplacian", "modulated", "checkerboard",
                               "custom_table")),
       phase=st.sampled_from(PHASES), h=st.sampled_from([0.2, 0.1, 0.05]),
       xi=st.just(0.0) | st.floats(-0.2, 0.3), log_rho=st.floats(-3.0, 0.0),
       seed=st.integers(0, 2 ** 32 - 1))
def test_converged_minimize_is_coordinatewise_optimal(family, phase, h, xi, log_rho, seed):
    # at exit no sweep in any order can lower the energy by more than the
    # stopping threshold, and the reported breakdown is a fresh total_energy
    grid = build_grid(1, h, 2.0)                  # 10, 20 or 40 interior nodes
    rng = np.random.default_rng(seed)
    lo = 0.0 if phase == "one_phase" else -1.0
    data = np.where(grid.interior, 0.0, rng.uniform(lo, 1.0, grid.n_nodes))
    problem = ProblemSpec(one_phase_kernel(family, 0.5, 0.3, 0.5), grid, data,
                          rho=10.0 ** log_rho, xi=xi, phase=phase)
    res = minimize(problem, n_restarts=2, seed=seed % 1000)
    assert res.converged
    e = res.energy.total
    fresh = total_energy(res.form, res.field, problem.rho, problem.xi)
    fresh.truncation_bound = res.energy.truncation_bound
    assert res.energy == fresh
    x = res.field.values[res.form.interior_idx]
    b_I = exterior_terms(res.form, data)[0]
    for _ in range(2):
        change = _sweep(res.form, x, b_I, rng.permutation(x.shape[0]),
                        problem.rho * grid.cell_measure, problem.xi, phase == "one_phase")
        assert abs(change) < EPS_STOP_FACTOR * (1.0 + abs(e))


@pytest.mark.parametrize("offset,message", [(-1e-3, "drifted"), (1e-3, "increased")])
def test_tracked_energy_is_checked(monkeypatch, offset, message):
    # a sweep misreporting its change trips the per-sweep monotonicity check
    # (too high) or the drift check at the next polish boundary (too low); the
    # descent starts converged, so the real change of its first sweep is ~0
    rng = np.random.default_rng(113)
    problem = four_interior_problem(rng)
    start = coordinate_descent(problem, problem.exterior_field())
    assert start.converged
    real_sweep = nlfb.solver._sweep
    monkeypatch.setattr(nlfb.solver, "_sweep", lambda *args: real_sweep(*args) + offset)
    with pytest.raises(SolverError, match=message):
        coordinate_descent(problem, start.field)


# ------------------------------------------------------ the descent's checks

@pytest.mark.parametrize("fault,error,message", [
    ("exterior", ConfigurationError, "does not match"),
    ("negative", ConfigurationError, "nonnegative"),
    ("increased", SolverError, "increased"),
    ("drifted", SolverError, "drifted"),
    ("rose", SolverError, "rose")])
def test_stacked_descents_raise_as_each_descent_alone(monkeypatch, fault, error, message):
    # a descent refuses an initialization off the exterior data or, in
    # one_phase, below 0, and raises on a faulted sweep. The sweep and
    # boundary faults start from a converged state, whose first sweep
    # changes the energy by ~0: a sweep reported 1e-3 too high or too low
    # trips the sweep's check or the boundary's drift check, and a sweep
    # reported 0.9 tol too high with a boundary energy 1.8 tol too high the
    # rise check. coordinate_descent raises as _descend does
    rng = np.random.default_rng(211)
    problem = four_interior_problem(rng)
    form = assemble_form(problem.kernel, problem.grid)
    terms = exterior_terms(form, problem.exterior_data)
    start = coordinate_descent(problem, problem.exterior_field(), form=form)
    assert start.converged
    bad = start.field.values.copy()
    if fault == "exterior":
        bad[np.nonzero(~problem.grid.interior)[0][0]] += 1.0
    elif fault == "negative":
        bad[form.interior_idx[0]] = -1e-3
    else:
        tol = nlfb.solver.ENERGY_CHECK_RTOL * (1.0 + abs(start.energy.total))
        offset = {"increased": 1e-3, "drifted": -1e-3, "rose": 0.9 * tol}[fault]
        real_sweep, real_energy = nlfb.solver._sweep, nlfb.solver.reduced_energy
        monkeypatch.setattr(nlfb.solver, "_sweep", lambda *args: real_sweep(*args) + offset)
        if fault == "rose":
            calls = []

            def energy(*args):
                calls.append(1)
                return real_energy(*args) + (1.8 * tol if len(calls) > 1 else 0.0)

            monkeypatch.setattr(nlfb.solver, "reduced_energy", energy)
    for descend in (lambda: _descend(problem, bad, 3, DEFAULT_MAX_SWEEPS, form, terms),
                    lambda: coordinate_descent(problem, Field(problem.grid, bad), 3, form=form)):
        with pytest.raises(error, match=message):
            descend()
        if fault == "rose":
            calls.clear()


def test_descent_orders_are_the_default_rng_permutations(monkeypatch):
    # each descent's visiting orders are default_rng(seed)'s permutations,
    # bit for bit, over small and large seeds
    problem = four_interior_problem(np.random.default_rng(223))
    form = assemble_form(problem.kernel, problem.grid)
    terms = exterior_terms(form, problem.exterior_data)
    real_sweep, orders = nlfb.solver._sweep, []
    monkeypatch.setattr(nlfb.solver, "_sweep",
                        lambda form, x, b_I, order, *args: orders.append(order.copy())
                        or real_sweep(form, x, b_I, order, *args))
    for seed in list(range(40)) + [1000, 100000 * 51 + 9507, 2 ** 32 - 1, 2 ** 32, 2 ** 63]:
        orders.clear()
        _descend(problem, problem.exterior_data, seed, 3, form, terms)
        rng = np.random.default_rng(seed)
        assert orders and all(order.tobytes() == rng.permutation(4).tobytes()
                              for order in orders)


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


# The per-subset enumeration the batched oracle replaced: one _subsystem per
# support, inverted by np.linalg.inv and applied by one np.dot per row of the
# inverse (lu=True: solved by np.linalg.solve instead, an independent LU
# reference), and one quick energy per support (from row sums of all N nodes,
# the exterior ones read off the reference W_IE's columns), scanned in mask
# order. Bit k of a mask is stored row k, the node interior_idx[k]; the
# exterior term of each row is one np.dot of the reference W_IE[k] with the data.
def reference_candidates(problem, form, lu=False):
    n_int = form.interior_idx.shape[0]
    b_I = reference_exterior_term(form, problem.exterior_data)
    for mask in range(1 << n_int):
        rows = np.nonzero([(mask >> k) & 1 == 1 for k in range(n_int)])[0]
        values = problem.exterior_data.copy()
        A, b = _subsystem(form, rows, values[form.interior_idx], b_I[rows])
        if lu:
            values[form.interior_idx[rows]] = np.linalg.solve(A, b)
        else:
            values[form.interior_idx[rows]] = [np.dot(row, b) for row in np.linalg.inv(A)]
        yield values


def assert_near_lu(got, want):
    # every entry within 1e-14 of the largest entry of its candidate: in
    # two_phase, entries near 0 after cancellation differ from the LU solve's
    # by far more than 1e-14 of themselves
    got, want = np.atleast_2d(got), np.atleast_2d(want)
    scale = np.max(np.abs(want), axis=1, keepdims=True)
    assert np.all(np.abs(got - want) <= 1e-14 * scale)


def reference_oracle(problem, form, lu=False):
    grid = problem.grid
    interior_idx = form.interior_idx
    n_int = interior_idx.shape[0]
    W_II = form.dense
    W_I = np.hstack([W_II, reference_exterior_rows(form)])     # w_{i, col_order[.]}
    row_sums = np.empty(grid.n_nodes)       # by column, as the block stores them
    row_sums[:n_int] = nlfb.energy.tree_sum(W_I)
    row_sums[n_int:] = nlfb.energy.tree_sum(W_I[:, n_int:].T)
    best_energy, best_values, ties = math.inf, None, []
    for values in reference_candidates(problem, form, lu):
        v, u_I = values[form.col_order], values[interior_idx]
        support = tuple(np.nonzero(grid.interior & (values > problem.xi))[0].tolist())
        energy = (float(v @ (row_sums * v) - 2.0 * (u_I @ (W_I @ v))
                        + u_I @ (W_II @ u_I))
                  + problem.rho * grid.cell_measure * len(support))
        tol = ORACLE_TIE_RTOL * (1.0 + abs(best_energy)) if best_values is not None else 0.0
        if best_values is None or energy < best_energy - tol:
            best_energy, best_values, ties = energy, values, [support]
        elif energy <= best_energy + tol and support not in ties:
            ties.append(support)
    result = _finalize_all([problem], form, [(best_values, None, 0, True)], [-1], [0],
                           [exterior_terms(form, problem.exterior_data)])[0]
    if len(ties) > 1:
        result.tied_supports = sorted(ties)
    return result


def assert_same_oracle_result(got, want):
    assert got.field.values.tobytes() == want.field.values.tobytes()
    assert got.energy == want.energy
    assert np.array_equal(got.support, want.support)
    assert got.tied_supports == want.tied_supports


def oracle_candidates(problem, form):
    # every support's interior values, as the winner and the ties are solved
    # (_oracle_solve), and the scores of the stacked pass (_oracle_energies),
    # in mask order
    form = check_oracle(problem, form)
    terms = exterior_terms(form, problem.exterior_data)
    m = form.interior_idx.shape[0]
    X = np.zeros((1 << m, m))
    for mask in range(1 << m):
        rows, x = _oracle_solve(form.pinned_inverses, terms[0], mask)
        X[mask, rows] = x
    return X, next(_oracle_energies(problem, form, [terms])).copy()


def random_oracle_problem(rng, grid, kernel, phase):
    lo = 0.0 if phase == "one_phase" else -1.0
    data = np.where(grid.interior, 0.0, rng.uniform(lo, 1.0, grid.n_nodes))
    rho = float(10.0 ** rng.uniform(-3.0, 0.0))
    return ProblemSpec(kernel, grid, data, rho=rho, xi=0.0, phase=phase)


@pytest.mark.parametrize("phase", PHASES)
@pytest.mark.parametrize("grid,kernel,trials", [
    (enumerate_lattice(1, 0.25, 1.5, 0.5), fractional_kernel(0.5), 6),    # 4 interior
    (build_grid(1, 0.1, 1.0, 0.5), fractional_kernel(0.3), 4),             # 10 interior
    (build_grid(1, 0.1, 1.0, 0.5),
     checkerboard_kernel(0.5, 1.0, 1.5, block_size=0.2, multipliers=(1.0, 1.5)), 2),
    (build_grid(1, 0.1, 1.4, 0.7), fractional_kernel(0.5), 1),             # 14 interior
], ids=["4-interior", "10-interior", "10-interior-checkerboard", "14-interior"])
def test_batched_oracle_matches_per_subset_reference(phase, grid, kernel, trials):
    rng = np.random.default_rng([97, grid.n_nodes, PHASES.index(phase)])
    form = assemble_form(kernel, grid)
    for _ in range(trials):
        problem = random_oracle_problem(rng, grid, kernel, phase)
        got = oracle_minimize(problem, form=form)
        assert_same_oracle_result(got, reference_oracle(problem, form))
        lu = reference_oracle(problem, form, lu=True)
        assert np.array_equal(got.support, lu.support)
        assert got.tied_supports == lu.tied_supports
        assert_near_lu(got.field.values, lu.field.values)


@settings(max_examples=30, deadline=None)
@given(phase=st.sampled_from(PHASES),
       lattice=st.sampled_from([(1, 0.25), (1, 0.16), (1, 0.125), (1, 0.1), (2, 0.25)]),
       size=st.integers(1, 8), distinct=st.integers(1, 8), tie=st.booleans(),
       block=st.sampled_from([1, 3, ORACLE_BLOCK]), chunk=st.sampled_from([1, 7, ORACLE_CHUNK]),
       log_rho=st.floats(-3.0, 0.5), seed=st.integers(0, 2 ** 32 - 1))
# two_phase: the break-even instance, twice, after one of signed data
@example(phase="two_phase", lattice=(1, 0.16), size=3, distinct=2, tie=True,
         block=ORACLE_BLOCK, chunk=ORACLE_CHUNK, log_rho=0.0, seed=3)
def test_stacked_oracle_matches_the_reference_per_instance(phase, lattice, size, distinct, tie,
                                                           block, chunk, log_rho, seed):
    # stacks of 1 to 8 instances on one form, 4 to 10 interior nodes, with
    # planted duplicates (the same data more than once) and, with `tie`, an
    # instance of constant data whose empty and full supports break even;
    # scored in blocks and chunks of several sizes, one-mask chunks and
    # blocks of one instance included, each result is the per-subset
    # reference oracle's bit for bit: field, energy, support and ties
    dim, h = lattice
    grid = enumerate_lattice(dim, h, 1.5 if dim == 1 else 1.0, 0.5 if dim == 1 else 0.35)
    kernel = fractional_kernel(0.5, dim=dim)
    form = assemble_form(kernel, grid)
    m = form.interior_idx.shape[0]
    rng = np.random.default_rng(seed)
    rho = 10.0 ** log_rho
    lo = 0.0 if phase == "one_phase" else -1.0
    datas = [np.where(grid.interior, 0.0, rng.uniform(lo, 1.0, grid.n_nodes))
             for _ in range(min(size, distinct))]
    if tie:
        # the full support solves to u = a, with no Dirichlet energy; the empty
        # one has a^2 times the exterior constant c of a = 1
        ones = np.where(grid.interior, 0.0, 1.0)
        datas[-1] = math.sqrt(rho * grid.cell_measure * m / exterior_terms(form, ones)[1]) * ones
    repeats = rng.integers(len(datas), size=size - len(datas))
    stack = rng.permutation(np.concatenate([np.arange(len(datas)), repeats]))
    problems = [ProblemSpec(kernel, grid, datas[k], rho=rho, phase=phase) for k in stack]
    with patch.object(nlfb.solver, "ORACLE_BLOCK", block), \
            patch.object(nlfb.solver, "ORACLE_CHUNK", chunk):
        got = list(oracle_minimize_all(problems, form))
    assert len(got) == size
    want = {}
    for k, res in zip(stack.tolist(), got):
        if k not in want:
            want[k] = reference_oracle(problems[stack.tolist().index(k)], form)
        assert_same_oracle_result(res, want[k])
        assert res.form is form


def test_stacked_oracle_builds_each_block_as_its_first_result_is_drawn(monkeypatch):
    # the refusal comes at the call; the results come one at a time, and
    # when the first of a block of ORACLE_BLOCK is drawn the block's winners
    # are finalized in one call, each result that of the instance alone
    # (finalized alone), bit for bit
    rng = np.random.default_rng(173)
    base = four_interior_problem(rng)
    problems = [replace(base, exterior_data=0.5 * base.exterior_data * k)
                for k in range(ORACLE_BLOCK + 3)]
    form = check_oracle(base)
    alone = [oracle_minimize(problem, form) for problem in problems]
    finalized = []
    real = nlfb.solver._finalize_all
    monkeypatch.setattr(nlfb.solver, "_finalize_all",
                        lambda problems, *args: finalized.append(len(problems))
                        or real(problems, *args))
    results = oracle_minimize_all(problems, form)
    assert finalized == []
    drawn = [next(results)]
    assert finalized == [ORACLE_BLOCK] and drawn[0].energy.total == 0.0
    drawn += [next(results) for _ in range(ORACLE_BLOCK - 1)]
    assert finalized == [ORACLE_BLOCK]
    drawn.append(next(results))
    assert finalized == [ORACLE_BLOCK, 3]
    drawn += list(results)
    assert finalized == [ORACLE_BLOCK, 3] and len(drawn) == len(problems)
    for got, want in zip(drawn, alone):
        assert_same_oracle_result(got, want)
        assert got.energy.total.hex() == want.energy.total.hex()
        assert json.dumps(got.to_dict()) == json.dumps(want.to_dict())


def test_stacked_oracle_refuses_instances_that_differ():
    problem = four_interior_problem(np.random.default_rng(149))
    for problems in ([], [problem, replace(problem, rho=2.0 * problem.rho)],
                     [problem, replace(problem, phase="two_phase")]):
        with pytest.raises(ConfigurationError, match="share rho, xi and phase"):
            oracle_minimize_all(problems)


def test_oracle_scoring_memory_does_not_grow_with_the_instances():
    # ten interior nodes: blocks of ORACLE_BLOCK instances reuse one buffer,
    # so scoring 500 instances peaks within 10% of scoring 10
    grid = build_grid(1, 0.1, 1.0, 0.5)
    problem = ProblemSpec(fractional_kernel(0.5), grid, np.zeros(grid.n_nodes), rho=0.2)
    form = check_oracle(problem)
    rng = np.random.default_rng(163)
    stacks = [[(rng.uniform(0.0, 1.0, 10), float(rng.uniform(1.0, 2.0))) for _ in range(n)]
              for n in (10, 500)]
    peaks = []
    for terms in stacks:
        tracemalloc.start()
        try:
            for energies in _oracle_energies(problem, form, terms):
                assert energies.shape == (1 << 10,)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert 8 * min(ORACLE_BLOCK, 10) << 10 <= peaks[0] and peaks[1] <= 1.1 * peaks[0]


@pytest.mark.parametrize("phase", PHASES)
def test_oracle_candidates_match_per_subset_solves(phase, grid_1d_small):
    problem = random_oracle_problem(np.random.default_rng(101), grid_1d_small,
                                    fractional_kernel(0.5), phase)
    form = assemble_form(problem.kernel, problem.grid)
    X, _ = oracle_candidates(problem, form)
    want = np.array(list(reference_candidates(problem, form)))
    assert X.shape == (2 ** form.interior_idx.size, form.interior_idx.size)
    assert X.tobytes() == want[:, form.interior_idx].tobytes()
    lu = np.array(list(reference_candidates(problem, form, lu=True)))
    assert np.array_equal(X > 0.0, lu[:, form.interior_idx] > 0.0)
    assert_near_lu(X, lu[:, form.interior_idx])


@pytest.mark.parametrize("phase", PHASES)
def test_oracle_reduced_form_energies_equal_pairwise_energies(phase, grid_1d_small):
    # the exact-solve identity c - x_S . b_S, the reduced form at an exact
    # solve, scores every candidate with the pairwise energy of its full
    # field, up to rounding
    rng = np.random.default_rng(107)
    form = assemble_form(fractional_kernel(0.5), grid_1d_small)
    for _ in range(3):
        problem = random_oracle_problem(rng, grid_1d_small, form.kernel, phase)
        X, energies = oracle_candidates(problem, form)
        for x, energy in zip(X, energies.tolist()):
            values = problem.exterior_data.copy()
            values[form.interior_idx] = x
            want = total_energy(form, Field(grid_1d_small, values), problem.rho,
                                problem.xi).total
            assert abs(energy - want) <= 1e-12 * (1.0 + abs(want))


def test_oracle_one_phase_negative_solve_raises():
    # Positive data and weights make every pinned system an M-matrix, so true
    # negative entries cannot occur; inverses that negate the first entry of
    # every 3-node solution must trip the sign check.
    grid = build_grid(1, 0.1, 1.0, 0.5)
    rng = np.random.default_rng(103)
    data = np.where(grid.interior, 0.0, rng.uniform(0.1, 1.0, grid.n_nodes))
    problem = ProblemSpec(fractional_kernel(0.5), grid, data, rho=0.002, phase="one_phase")
    form = assemble_form(problem.kernel, grid)
    operator = list(_pinned_inverses(form))
    masks, S, inv = operator[2]           # the 3-node supports
    negated = inv.copy()
    negated[0] = -negated[0]
    operator[2] = (masks, S, negated)
    form.pinned_inverses = tuple(operator)
    terms = [exterior_terms(form, data)]
    with pytest.raises(SolverError, match="negative entry"):
        next(_oracle_energies(problem, form, terms))
    with pytest.raises(SolverError, match="negative entry"):
        oracle_minimize(problem, form=form)
    # two_phase has no sign invariant: the negated entries pass through, into
    # the solves and into the scores of the 3-node supports alone
    two_phase = replace(problem, phase="two_phase")
    X, energies = oracle_candidates(two_phase, form)
    assert np.count_nonzero(X < 0.0) == 120
    form.pinned_inverses = _pinned_inverses(form)
    _, kept = oracle_candidates(two_phase, form)
    assert np.array_equal(np.nonzero(energies != kept)[0], masks)


def test_one_phase_negative_pcg_solve_raises(monkeypatch):
    # the polish and the lifting check their PCG solves like the oracle does
    problem = four_interior_problem(np.random.default_rng(109), rho=1e-3)
    real = nlfb.solver._pcg

    def negating(A, b, x0):
        x, rel_res, iters = real(A, b, x0)
        x[0] = -x[0]
        return x, rel_res, iters

    monkeypatch.setattr(nlfb.solver, "_pcg", negating)
    with pytest.raises(SolverError, match="negative entry"):
        coordinate_descent(problem, problem.exterior_field())
    form = assemble_form(problem.kernel, problem.grid)
    with pytest.raises(SolverError, match="negative entry"):
        lifting_initialization(problem, form)


def one_phase_kernel(family, s, block, amplitude):
    if family == "fractional_laplacian":
        return fractional_kernel(s)
    if family == "modulated":
        return modulated_kernel(s, 1.0, 2.0, amplitude=amplitude, frequency=1.0 / block)
    if family == "checkerboard":
        return checkerboard_kernel(s, 1.0, 3.0, block_size=block, multipliers=(1.0, 3.0))
    return KernelSpec("custom_table", s, 1.0, 2.0, 1,
                      {"block_size": block, "table": {(0, 0): 1.5, (-1, 1): 2.0}})


@settings(max_examples=60, deadline=None)
@given(family=st.sampled_from(("fractional_laplacian", "modulated", "checkerboard",
                               "custom_table")),
       s=st.floats(0.05, 0.95), block=st.floats(0.1, 1.0), amplitude=st.floats(0.0, 0.99),
       h=st.sampled_from([0.25, 0.16, 0.125, 0.1]), xi=st.just(0.0) | st.floats(0.0, 0.5),
       seed=st.integers(0, 2 ** 32 - 1))
def test_one_phase_exact_solves_are_nonnegative(family, s, block, amplitude, h, xi, seed):
    # the M-matrix argument of _subsystem: nonnegative pins give nonnegative
    # solves, for every kernel family, free set and pinned value in {0, xi}
    grid = enumerate_lattice(1, h, 1.5, 0.5)     # 4, 6, 8 or 10 interior nodes
    rng = np.random.default_rng(seed)
    data = np.where(grid.interior | (rng.random(grid.n_nodes) < 0.3), 0.0,
                    rng.uniform(0.0, 1.0, grid.n_nodes))
    problem = ProblemSpec(one_phase_kernel(family, s, block, amplitude), grid, data,
                          rho=0.1, xi=xi, phase="one_phase")
    form = assemble_form(problem.kernel, grid)
    interior_idx = form.interior_idx
    for _ in range(5):
        free = rng.random(interior_idx.shape[0]) < 0.5
        free[rng.integers(interior_idx.shape[0])] = True
        values = data.copy()
        values[interior_idx[~free]] = np.where(rng.random(np.count_nonzero(~free)) < 0.5,
                                               0.0, xi)
        values[interior_idx[free]] = rng.uniform(0.0, 1.0, np.count_nonzero(free))
        rows = np.nonzero(free)[0]
        solved = _solve_free(form, rows, values[interior_idx],
                             exterior_terms(form, values)[0][rows])
        assert np.all(solved >= 0.0)
    # the oracle's pinned solves hold the off nodes at 0 whatever xi is
    X, _ = oracle_candidates(replace(problem, xi=0.0), form)
    assert np.all(X >= 0.0)
    assert np.all(lifting_initialization(problem, form).values >= 0.0)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), h=st.sampled_from([0.25, 0.16, 0.125]),
       phase=st.sampled_from(PHASES), log_rho=st.floats(-3.0, 0.5))
def test_minimize_never_below_oracle_and_oracle_solves_its_support(seed, h, phase, log_rho):
    grid = enumerate_lattice(1, h, 1.5, 0.5)     # 4, 6 or 8 interior nodes
    rng = np.random.default_rng(seed)
    lo = 0.0 if phase == "one_phase" else -1.0
    data = np.where(grid.interior, 0.0, rng.uniform(lo, 1.0, grid.n_nodes))
    problem = ProblemSpec(fractional_kernel(0.5), grid, data, rho=10.0 ** log_rho,
                          phase=phase)
    oracle = oracle_minimize(problem)
    got = minimize(problem, n_restarts=4, seed=seed % 1000, form=oracle.form)
    e = oracle.energy.total
    assert got.energy.total >= e - 1e-10 * (1.0 + abs(e))
    # the field solves the subsystem of its nonzero interior nodes, the rest
    # pinned at 0; in one_phase those nodes are exactly the support
    u = oracle.field.values
    free = np.nonzero(grid.interior & (u != 0.0))[0]
    if phase == "one_phase":
        assert np.array_equal(free, oracle.support)
    if free.size:
        form = oracle.form
        rows = form.row_of[free]
        A, b = _subsystem(form, rows, u[form.interior_idx], exterior_terms(form, u)[0][rows])
        assert np.max(np.abs(A @ u[free] - b)) <= 1e-12 * (1.0 + np.max(np.abs(b)))


def test_pinned_inverses_are_refused_above_the_budget(monkeypatch):
    # the 14-node operator (7.9 MB): a budget one byte below its size is
    # refused before any of it, or of the masks it is built from, is
    # allocated; at its size it is built, and holds exactly that many bytes
    grid = build_grid(1, 0.1, 1.4, 0.7)                  # 14 interior nodes
    rng = np.random.default_rng(127)
    data = np.where(grid.interior, 0.0, rng.uniform(0.0, 1.0, grid.n_nodes))
    problem = ProblemSpec(fractional_kernel(0.5), grid, data, rho=0.1)
    form = assemble_form(problem.kernel, grid, data)
    # per support of size k: its k x k inverse, its k stored rows and its mask
    size = 8 * sum(math.comb(14, k) * (k * k + k + 1) for k in range(1, 15))
    monkeypatch.setattr(nlfb.grid, "MEMORY_BUDGET_BYTES", size - 1)
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError, match="pinned inverses needs"):
            oracle_minimize(problem, form=form)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < size / 100
    assert form.pinned_inverses is None
    monkeypatch.setattr(nlfb.grid, "MEMORY_BUDGET_BYTES", size)
    oracle_minimize(problem, form=form)
    assert sum(array.nbytes for part in form.pinned_inverses for array in part) == size


# The scan _oracle_scan replaced: every mask in order, from mask 0.
def reference_scan(energies, support):
    best_energy, best, ties = math.inf, None, []
    for mask, energy in enumerate(energies.tolist()):
        tol = ORACLE_TIE_RTOL * (1.0 + abs(best_energy)) if best is not None else 0.0
        if best is None or energy < best_energy - tol:
            best_energy, best, ties = energy, mask, [support(mask)]
        elif energy <= best_energy + tol and support(mask) not in ties:
            ties.append(support(mask))
    return best, ties


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 600),
       level=st.sampled_from([0.0, 1e-12, 0.37, 1.0, -1.0, -250.0, 1e6]),
       steps=st.lists(st.sampled_from([0.0, 0.25, 0.5, 0.999, 1.0, 1.001, 1.5, 2.0, 3.0]),
                      max_size=12),
       descending=st.booleans(), in_mask_order=st.booleans(), exact_ties=st.integers(0, 4),
       lone=st.booleans(), labels=st.integers(1, 6), first=st.sampled_from([None, 1e3, 1e6]))
def test_oracle_scan_matches_the_sequential_scan(seed, n, level, steps, descending,
                                                 in_mask_order, exact_ties, lone, labels, first):
    # energies near a level, on the scale of the tie tolerance there, with a
    # planted chain of near-ties spaced at fractions and multiples of it,
    # exact ties, a lone minimum far below, supports that repeat and, when
    # `first` is given, mask 0 at another scale, whose tolerance is not the
    # level's
    rng = np.random.default_rng(seed)
    unit = ORACLE_TIE_RTOL * (1.0 + abs(level))
    energies = level + unit * rng.uniform(-4.0, 40.0, n)
    chain = level + (-unit if descending else unit) * np.cumsum([0.0] + steps)
    chain = np.concatenate([chain, np.full(exact_ties, chain[rng.integers(chain.shape[0])])])
    at = rng.permutation(n)[:chain.shape[0]]
    energies[np.sort(at) if in_mask_order else at] = chain[:at.shape[0]]
    if lone:
        energies[rng.integers(n)] = level - 1e3 * unit
    if first is not None:
        energies[0] = first
    label = rng.integers(0, labels, n)

    def support(mask):
        return (int(label[mask]),)

    assert _oracle_scan(energies, support) == reference_scan(energies, support)


def test_lifting_matrix_is_refused_above_the_budget(monkeypatch):
    # the whole-domain lifting gathers A over every interior row, an
    # allocation the size of W_II: a budget that W_II fits into but A,
    # with W_II already held, does not is refused before the gather. In
    # two_phase restart (a) starts at the lifting; one_phase at xi = 0 starts
    # at its bound states, whose solves are smaller
    grid = build_grid(2, 0.1, 2.0)
    rng = np.random.default_rng(113)
    data = np.where(grid.interior, 0.0, rng.uniform(0.0, 1.0, grid.n_nodes))
    problem = ProblemSpec(fractional_kernel(0.5, dim=2), grid, data, rho=0.3,
                          phase="two_phase")
    form = assemble_form(problem.kernel, grid, data)
    n_int = form.dense.shape[0]
    monkeypatch.setattr(nlfb.grid, "MEMORY_BUDGET_BYTES", 8 * n_int * n_int - 1)
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError, match="subsystem matrix needs"):
            minimize(problem, n_restarts=2, form=form)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * n_int * n_int / 4
    monkeypatch.setattr(nlfb.grid, "MEMORY_BUDGET_BYTES", 8 * n_int * n_int)
    assert minimize(problem, n_restarts=2, form=form).converged


def test_exterior_terms_are_kept_for_the_last_exterior_values(monkeypatch, grid_1d_small):
    # assembly keeps the terms of its exterior data; exterior_terms runs one
    # pass of the pair formula only when the exterior values change, and
    # ignores the interior entries
    passes = []
    real = nlfb.energy._weight_rows

    def weight_rows(kernel, grid, col_order, n_int, first_col, block):
        passes.append(first_col)
        return real(kernel, grid, col_order, n_int, first_col, block)

    monkeypatch.setattr(nlfb.energy, "_weight_rows", weight_rows)
    rng = np.random.default_rng(127)
    g = np.where(grid_1d_small.interior, 0.0, rng.uniform(-1.0, 1.0, grid_1d_small.n_nodes))
    form = assemble_form(fractional_kernel(0.5), grid_1d_small, g)
    n_int = form.dense.shape[0]
    assert passes == [0]
    kept = exterior_terms(form, g)
    assert exterior_terms(form, g + np.where(grid_1d_small.interior, 1.0, 0.0)) is kept
    assert passes == [0]
    other = exterior_terms(form, 2.0 * g)
    assert exterior_terms(form, 2.0 * g) is other and passes == [0, n_int]
    again = exterior_terms(form, g)
    assert passes == [0, n_int, n_int]
    assert again[0].tobytes() == kept[0].tobytes() and again[1] == kept[1]
    assert again[0].tobytes() == reference_exterior_term(form, g).tobytes()
    # the kept arrays are returned by reference, so they refuse writes
    for b_I in (kept[0], again[0]):
        with pytest.raises(ValueError, match="read-only"):
            b_I *= 2.0
    assert again[0].tobytes() == kept[0].tobytes()


@pytest.mark.parametrize("call", ["minimize", "coordinate_descent", "rho_sweep_minimize"])
def test_negative_seed_is_a_configuration_error(call):
    problem = four_interior_problem(np.random.default_rng(131))
    with pytest.raises(ConfigurationError, match="seed must be at least 0, got -1"):
        if call == "minimize":
            minimize(problem, n_restarts=2, seed=-1)
        elif call == "coordinate_descent":
            coordinate_descent(problem, problem.exterior_field(), seed=-1)
        else:
            rho_sweep_minimize(problem, [0.1, 0.01], n_restarts=2, seed=-1)


# ------------------------------------------------------- restarts and determinism

def test_single_restart_equals_descent_from_lifting():
    # two_phase: restart (a) starts at the lifting itself (one_phase at
    # xi = 0 starts at its bound state, tested below)
    rng = np.random.default_rng(83)
    problem = four_interior_problem(rng, phase="two_phase")
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


def test_single_one_phase_restart_is_the_verified_upper_bound_state():
    # one_phase at xi = 0: restart (a) is the greatest coordinatewise-stable
    # state below the lifting, verified in place of a descent (sweeps 0,
    # converged, at any max_sweeps); a descent from it stops after one
    # sweep on the same support, at the same energy up to the last ulps
    rng = np.random.default_rng(83)
    problem = four_interior_problem(rng)
    form = assemble_form(problem.kernel, problem.grid)
    init = bound_inits(problem, form)[0]
    for max_sweeps in (0, 1, DEFAULT_MAX_SWEEPS):
        res = minimize(problem, n_restarts=1, seed=5, max_sweeps=max_sweeps, form=form)
        assert res.field.values.tobytes() == init.tobytes()
        assert (res.sweeps, res.converged, res.best_restart_seed) == (0, True, 5)
        fresh = total_energy(form, res.field, problem.rho, problem.xi)
        fresh.truncation_bound = res.energy.truncation_bound
        assert res.energy == fresh
    direct = coordinate_descent(problem, Field(problem.grid, init), seed=5, form=form)
    assert (direct.sweeps, direct.converged) == (1, True)
    assert np.array_equal(res.support, direct.support)
    # their values differ by ulps, whose exact effect on the energy is of
    # second order; each evaluation rounds within pair_energy_rounding
    rounding = sum(pair_energy_rounding(form, v[form.interior_idx],
                                        *exterior_terms(form, problem.exterior_data),
                                        problem.rho * problem.grid.cell_measure)
                   for v in (res.field.values, direct.field.values))
    assert abs(res.energy.total - direct.energy.total) <= rounding
    assert np.array_equal(res.support, np.nonzero(problem.grid.interior & (init > 0.0))[0])
    assert res.bounds["a"]["support"] == res.support.shape[0]


@pytest.mark.parametrize("phase,xi", [("one_phase", 0.0), ("two_phase", 0.0),
                                       ("one_phase", 0.05)])
def test_bounds_record_is_in_the_result(phase, xi):
    # one_phase at xi = 0 records both iterations, at any restart count, as
    # deterministic data that round-trips through JSON; other phases and
    # thresholds run no iteration and record None
    rng = np.random.default_rng(157)
    problem = replace(four_interior_problem(rng, phase=phase), xi=xi)
    form = assemble_form(problem.kernel, problem.grid)
    for n_restarts in (1, 2, 4):
        res = minimize(problem, n_restarts=n_restarts, seed=3, form=form)
        record = json.loads(json.dumps(res.to_dict()))["bounds"]
        if (phase, xi) != ("one_phase", 0.0):
            assert res.bounds is None and record is None
            continue
        assert record == res.bounds == _bound_states(
            problem, form, [exterior_terms(form, problem.exterior_data)])[0][2]
        assert set(record) == {"a", "b"}
        assert all(set(r) == {"steps", "support"} for r in record.values())
        assert 0 <= record["b"]["support"] <= record["a"]["support"] <= 4
        assert record["a"]["steps"] >= 1


def analyze_2d_problem():
    # the analyze-2d benchmark instance: 640 interior nodes
    grid = build_grid(2, 0.07, 2.0)
    radius = np.sqrt(np.einsum("nd,nd->n", grid.positions, grid.positions))
    data = np.where(~grid.interior & (grid.positions[:, 0] > 0.0) & (radius >= 1.0)
                    & (radius <= 2.0), 0.35, 0.0)
    return ProblemSpec(fractional_kernel(0.5, dim=2), grid, data, rho=0.3)


def test_bound_states_use_no_more_memory_than_the_lifting():
    # on the analyze-2d form the two iterations (the inverse of A_LL, the
    # band's Schur complement and its inverse) peak below the whole-domain
    # lifting, which gathers an n_int x n_int matrix
    problem = analyze_2d_problem()
    form = assemble_form(problem.kernel, problem.grid, problem.exterior_data)
    terms = exterior_terms(form, problem.exterior_data)
    assert form.dense.shape[0] == 640
    peaks = []
    tracemalloc.start()
    try:
        for run in (lambda: lifting_initialization(problem, form),
                    lambda: _bound_states(problem, form, [terms])[0]):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            out = run()
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
    finally:
        tracemalloc.stop()
    assert peaks[1] <= peaks[0]
    assert out[2] == {"a": {"steps": 14, "support": 402}, "b": {"steps": 23, "support": 346}}


def test_bound_states_trace_the_growth_fronts():
    # criterion 3's fractional s = 0.5, h = 0.0025 instance (800 interior
    # nodes): the fronts creep, one node or so per step, and stop at the
    # supports of the two bound exits
    grid = build_grid(1, 0.0025, 2.0)
    x = grid.positions[:, 0]
    data = np.where(~grid.interior & (x >= 1.0) & (x <= 2.0), 0.35, 0.0)
    problem = ProblemSpec(fractional_kernel(0.5), grid, data, rho=0.1)
    form = assemble_form(problem.kernel, grid, data)
    _, _, record, _ = _bound_states(problem, form, [exterior_terms(form, data)])[0]
    assert record == {"a": {"steps": 363, "support": 438}, "b": {"steps": 233, "support": 301}}


def reference_bound_states(problem, form, terms, first_fall=None):
    """_bound_states for one instance alone, as a one-entry stack, with the
    fall deciding by row dots: every fall step fills L's values and decides
    the band by the row dots W_II x + b_I of the whole state, and its band
    system is the band rows, the Schur complement's inverse and right-hand
    side of its last step. With first_fall, a list, the first fall step
    appends its band rows and state."""
    W, n, (b_I, _) = form.dense, form.dense.shape[0], terms
    rho_cell = problem.rho * problem.grid.cell_measure

    def responds(x):
        return _best_response(form.row_sums, np.vecdot(W, x[:, None, :]) + b_I, rho_cell) > 0.0

    on, x_b, S, rise = np.zeros(n, dtype=bool), np.zeros(n), np.zeros(0, dtype=np.int64), 0
    inv = np.zeros((1, 0, 0))
    while (new := np.flatnonzero(responds(x_b[None])[0] & ~on)).shape[0]:
        inv = _bordered(inv, -W[S[None, :, None], new[None, None]], _system_matrix(form, new[None]))
        S = np.concatenate([S, new])
        x_b[S] = (inv @ b_I[S][None, :, None])[0, :, 0]
        on[new], rise = True, rise + 1
        assert (x_b >= 0.0).all()
    cols = np.flatnonzero(~on)
    W_LB = W[S[None, :, None], cols[None, None, :]]
    schur = _system_matrix(form, cols[None])
    for start in range(0, cols.shape[0], SCHUR_BLOCK):
        block = slice(start, start + SCHUR_BLOCK)
        schur[..., block] -= W_LB.mT @ (inv @ W_LB[..., block])
    rhs = b_I[cols][None] + (W_LB.mT @ x_b[S][None, :, None])[..., 0]
    schur, fall = _bordered(np.zeros((1, 0, 0)), schur[:, :0], schur), 0
    while True:
        x = np.zeros((1, n))
        x[0, cols] = (schur @ rhs[..., None])[0, :, 0]
        x[0, S] = x_b[S] + (inv @ np.vecdot(W, x[:, None, :])[:, S, None])[0, :, 0]
        if fall == 0 and first_fall is not None:
            first_fall += [cols, x[0].copy()]
        assert (x >= 0.0).all()
        fall, off = fall + 1, ~responds(x)[0, cols]
        if not off.any():
            break
        d, k = np.flatnonzero(off), np.flatnonzero(~off)
        schur = schur[:, k[:, None], k] - schur[:, k[:, None], d] @ np.linalg.solve(
            schur[:, d[:, None], d], schur[:, d[:, None], k])
        cols, rhs = cols[k], rhs[:, k]
    record = {name: {"steps": steps, "support": int(np.count_nonzero(state > 0.0))}
              for name, steps, state in (("a", fall, x[0]), ("b", rise, x_b))}
    return x[0], x_b, record, (cols, schur[0], rhs[0])


def assert_same_bound_states(state, want):
    """Two (x_a, x_b, record, band) of _bound_states are the same, bit for
    bit, and the band rows are supp(x_a) minus supp(x_b)."""
    assert state[0].tobytes() == want[0].tobytes()
    assert state[1].tobytes() == want[1].tobytes() and state[2] == want[2]
    for got, expected in zip(state[3], want[3]):
        assert got.shape == expected.shape and got.tobytes() == expected.tobytes()
    assert np.array_equal(state[3][0], np.flatnonzero((state[0] > 0.0) & ~(state[1] > 0.0)))


def assert_bound_states_are_the_reference(problems, form, terms):
    for state, problem, kept in zip(_bound_states(problems[0], form, terms), problems, terms):
        assert_same_bound_states(state, reference_bound_states(problem, form, kept))


@settings(max_examples=60, deadline=None)
@given(family=st.sampled_from(("fractional_laplacian", "modulated", "checkerboard",
                               "custom_table")),
       lattice=st.sampled_from([(1, 0.1, 1.5, 0.5), (1, 0.05, 2.0, 1.0), (2, 0.25, 1.0, 0.35),
                                (2, 0.2, 1.4, 0.7)]),
       s=st.floats(0.05, 0.95), block=st.floats(0.1, 1.0), size=st.integers(1, 5),
       distinct=st.integers(1, 5), one_sided=st.booleans(), zero=st.booleans(),
       log_rho=st.floats(-3.0, 0.5), seed=st.integers(0, 2 ** 32 - 1))
def test_bound_states_are_the_row_dot_reference(family, lattice, s, block, size, distinct,
                                                one_sided, zero, log_rho, seed):
    # stacks of 1 to 5 instances on one form (4 to 40 interior nodes, 1D and
    # 2D, with duplicates and, with `zero`, zero data), with random exterior
    # data, on one side only with `one_sided` (creeping fronts, whose kept
    # band is a run): each instance's bound states and record are those of
    # reference_bound_states alone, bit for bit
    grid = enumerate_lattice(*lattice)
    kernel = family_kernel(family, lattice[0], s, block)
    form = assemble_form(kernel, grid)
    rng = np.random.default_rng(seed)
    outside = ~grid.interior & ((grid.positions[:, 0] > 0.0) | (not one_sided))
    datas = [np.where(outside, rng.uniform(0.0, 1.0, grid.n_nodes), 0.0)
             for _ in range(min(size, distinct))]
    if zero:
        datas[-1] = np.zeros(grid.n_nodes)
    datas += [datas[k] for k in rng.integers(len(datas), size=size - len(datas))]
    problems = [ProblemSpec(kernel, grid, data, rho=10.0 ** log_rho) for data in datas]
    assert_bound_states_are_the_reference(problems, form, nlfb.energy.exterior_terms_all(form,
                                                                                          datas))


def test_a_near_tie_is_decided_by_its_row_dot(monkeypatch):
    # rho is set within ulps of a band node's threshold at the fall's first
    # step (a x^2 = rho h^d), where its best response by b = a x and by its
    # row dot b = W_II x + b_I differ: the fall decides the node by the row
    # dot, so the states are the reference's bit for bit, stacked or alone,
    # and minimize verifies them
    grid = build_grid(1, 0.05, 2.0)
    data = np.where(~grid.interior & (grid.positions[:, 0] >= 1.0), 0.35, 0.0)
    problem = ProblemSpec(fractional_kernel(0.5), grid, data, rho=0.1)
    form = assemble_form(problem.kernel, grid)
    terms = exterior_terms(form, data)
    a = form.row_sums

    def rules(problem):
        # the first fall step's band, and its best responses by b = a x and by row dots
        first = []
        reference_bound_states(problem, form, terms, first)
        cols, x = first
        rho_cell = problem.rho * grid.cell_measure
        b_ax, b_row = a[cols] * x[cols], np.vecdot(form.dense[cols], x) + terms[0][cols]
        return (cols, x[cols], b_ax, b_row, _best_response(a[cols], b_ax, rho_cell) > 0.0,
                _best_response(a[cols], b_row, rho_cell) > 0.0)

    def separate(node, rho):
        # step rho by ulps from the node's threshold until the two rules differ
        # at it; a step moves rho h^d by about 1.6 ulps, so the rules may first
        # differ 2 or 3 ulps away from a x^2 (None then)
        for _ in range(200):
            tied = replace(problem, rho=rho)
            cols, x, _, _, by_ax, by_row = rules(tied)
            at = np.flatnonzero(cols == node)[0]
            if by_ax[at] != by_row[at]:
                rho_cell = tied.rho * grid.cell_measure
                close = abs(a[node] * x[at] * x[at] - rho_cell) <= np.spacing(rho_cell)
                return tied if close else None
            rho = np.nextafter(rho, math.inf if by_row[at] else 0.0)
        return None

    cols, _, b_ax, b_row, _, _ = rules(problem)
    # of the band nodes whose two b differ, the nearest to its threshold whose
    # rules differ at 1 ulp of a x^2
    k = np.flatnonzero((b_ax != b_row) & (b_ax > 0.0))
    k = k[np.argsort(np.abs(b_ax[k] ** 2 / a[cols[k]] - problem.rho * grid.cell_measure),
                     kind="stable")]
    for node, rho in zip(cols[k[:8]], (b_ax[k[:8]] ** 2 / a[cols[k[:8]]] / grid.cell_measure)):
        if (tied := separate(node, rho)) is not None:
            problem = tied
            break
    else:
        pytest.fail("no rho within 200 ulps of 8 thresholds separates the rules at 1 ulp")
    dots = []
    real = nlfb.solver.rowwise_dots
    monkeypatch.setattr(nlfb.solver, "rowwise_dots",
                        lambda matrix, rows, v: dots.append(np.ndim(rows)) or real(matrix, rows, v))
    assert_bound_states_are_the_reference([problem, replace(problem, exterior_data=0.5 * data)],
                                          form, [terms, exterior_terms(form, 0.5 * data)])
    assert 1 in dots        # band rows decided by their dots
    monkeypatch.undo()
    assert_bound_states_are_the_reference([problem], form, [terms])
    res = minimize(problem, n_restarts=2, seed=0, form=form)
    assert res.converged and res.sweeps == 0


def test_the_fall_dots_w_ii_rows_once_per_instance_at_its_exit(monkeypatch):
    # on the analyze-2d form the rise takes one W_II pass per step, and one
    # to find that it adds nothing; the fall's 14 steps take none, and its
    # exit one row dot per node of L, which fills L's values
    problem = analyze_2d_problem()
    form = assemble_form(problem.kernel, problem.grid, problem.exterior_data)
    terms = exterior_terms(form, problem.exterior_data)
    passes = []
    real_vecdot, real_rows = np.vecdot, nlfb.solver.rowwise_dots
    monkeypatch.setattr(np, "vecdot", lambda a, b: (passes.append("W_II") if a is form.dense
                                                    else None) or real_vecdot(a, b))
    monkeypatch.setattr(nlfb.solver, "rowwise_dots", lambda matrix, rows, v: passes.append(
        ("rows", np.shape(rows))) or real_rows(matrix, rows, v))
    (_, _, record, _), = _bound_states(problem, form, [terms])
    monkeypatch.undo()
    assert record == {"a": {"steps": 14, "support": 402}, "b": {"steps": 23, "support": 346}}
    assert passes == ["W_II"] * 24 + [("rows", (1, 346))]


@pytest.mark.parametrize("n_restarts,phase", [(1, "one_phase"), (1, "two_phase"),
                                              (2, "one_phase"), (2, "two_phase"),
                                              (5, "two_phase")])
def test_minimize_finalizes_only_the_winner(monkeypatch, n_restarts, phase):
    # the restarts share one exterior_terms and are ranked by their reduced
    # exit energies (ranked_winner); only the winner gets the pairwise
    # total_energy, and its result is its restart's alone: the public
    # coordinate_descent from its init and seed, or at one_phase, xi = 0 its
    # verified bound state. At 5 restarts only two_phase runs every restart:
    # one_phase at xi = 0 skips the random ones once the bounds are certified
    # (tested below)
    grid = build_grid(1, 0.1, 2.0)
    kernel = fractional_kernel(0.5)
    form = assemble_form(kernel, grid)
    rng = np.random.default_rng([149, n_restarts, PHASES.index(phase)])
    lo = 0.0 if phase == "one_phase" else -1.0
    data = np.where(grid.interior, 0.0, rng.uniform(lo, 1.0, grid.n_nodes))
    problem = ProblemSpec(kernel, grid, data, rho=0.05, phase=phase)
    calls = dict.fromkeys(("total_energies", "exterior_terms_all"), 0)

    def counted(name, real):
        def call(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return call

    for name in calls:
        monkeypatch.setattr(nlfb.solver, name, counted(name, getattr(nlfb.solver, name)))
    exits = record_restarts(monkeypatch, 11, n_restarts)
    res = minimize(problem, n_restarts=n_restarts, seed=11, form=form)
    monkeypatch.undo()
    assert calls == {"total_energies": 1, "exterior_terms_all": 1}
    assert res.restarts_used == n_restarts
    assert sorted(seed for seed, _, _ in exits) == list(range(11, 11 + n_restarts))
    ordered = sorted(exits, key=lambda e: e[0])
    assert res.best_restart_seed == ordered[ranked_winner([out[1] for _, _, out in ordered])][0]
    _, init, _ = next(e for e in exits if e[0] == res.best_restart_seed)
    assert_same_restart_result(res, restart_reference(
        problem, form, res.best_restart_seed, init, verified=phase == "one_phase"))
    fresh = total_energy(form, res.field, problem.rho, problem.xi)
    fresh.truncation_bound = res.energy.truncation_bound
    assert res.energy == fresh


# ------------------------------------------- the certificate of the bound restarts

def one_phase_oracle_instance(t):
    # the oracle-compare grid and data scale: 10 interior nodes
    grid = build_grid(1, 0.1, 1.0, 0.5)
    rng = np.random.default_rng([151, t])
    data = np.where(grid.interior, 0.0, rng.uniform(0.0, 0.35, grid.n_nodes))
    return ProblemSpec(fractional_kernel(0.5), grid, data, rho=0.2, phase="one_phase")


def record_restarts(monkeypatch, seed, n_restarts):
    """Record (seed, init, exit) for every restart of a one-instance minimize
    with this seed and restart count: the bound restarts as _verify_bounds
    gives them (seeds seed and seed + 1, init the state of _bound_states),
    every other one as _descend runs it."""
    exits = []
    real_descend, real_verify = nlfb.solver._descend, nlfb.solver._verify_bounds

    def descend(problem, u0, seed, *args):
        out = real_descend(problem, u0, seed, *args)
        exits.append((seed, u0.copy(), out))
        return out

    def verify_bounds(problems, form, terms, states):
        out = real_verify(problems, form, terms, states)
        for k, (x, result) in enumerate(zip(states[0][:2], out[0][:n_restarts])):
            init = problems[0].exterior_data.copy()
            init[form.interior_idx] = x
            exits.append((seed + k, init, result))
        return out

    monkeypatch.setattr(nlfb.solver, "_descend", descend)
    monkeypatch.setattr(nlfb.solver, "_verify_bounds", verify_bounds)
    return exits


def restart_reference(problem, form, seed, init, verified):
    """A restart's result alone: with `verified`, its bound state init
    finalized as an exit of 0 sweeps, converged; otherwise the public
    coordinate_descent from init with its seed."""
    if not verified:
        return coordinate_descent(problem, Field(problem.grid, init), seed=seed, form=form)
    terms = exterior_terms(form, problem.exterior_data)
    return _finalize_all([problem], form, [(init, None, 0, True)], [seed], [1], [terms])[0]


def bound_inits(problem, form):
    """The bound restarts' initializations for one_phase at xi = 0: the
    states of _bound_states, (a) then (b), as node values."""
    terms = exterior_terms(form, problem.exterior_data)
    inits = [problem.exterior_data.copy(), problem.exterior_data.copy()]
    for u0, x in zip(inits, _bound_states(problem, form, [terms])[0]):
        u0[form.interior_idx] = x
    return inits


def every_restart(problem, n_restarts, seed, form):
    """The reference for minimize without its certificate: every one of its
    n_restarts restarts runs alone (the bound states of _bound_states,
    verified by _verify_bounds, then descents from the random supports drawn
    from default_rng([seed, k]) carrying the lifting values), and the winner
    by ranked_winner is finalized."""
    terms = exterior_terms(form, problem.exterior_data)
    lifted = lifting_initialization(problem, form).values
    interior = np.nonzero(problem.grid.interior)[0]
    exits = _verify_bounds([problem], form, [terms], _bound_states(problem, form, [terms]))[0]
    for k in range(2, n_restarts):
        on = interior[np.random.default_rng([seed, k]).random(interior.shape[0]) < 0.5]
        values = problem.exterior_data.copy()
        values[on] = lifted[on]
        exits.append(_descend(problem, values, seed + k, DEFAULT_MAX_SWEEPS, form, terms))
    exits = exits[:n_restarts]
    best = ranked_winner([energy for _, energy, _, _ in exits])
    return _finalize_all([problem], form, [exits[best]], [seed + best], [n_restarts],
                         [terms])[0]


def ranked_winner(energies):
    """The restart ranking, as a scan in seed order of the reduced exit
    energies: a later exit displaces the best only when lower by more than
    CERTIFICATE_RTOL * (1 + |best energy|)."""
    best = 0
    for k in range(1, len(energies)):
        if energies[best] - energies[k] > CERTIFICATE_RTOL * (1.0 + abs(energies[best])):
            best = k
    return best


def test_restarts_within_rounding_of_the_best_keep_the_lower_seed():
    # the exits in seed order: (a), (b), then the random restarts. (b) 2 ulps
    # below (a) on one support, or a random restart 2 ulps below (b), do not
    # displace the best; an exit lower by more than CERTIFICATE_RTOL * (1 +
    # |best|) does, and the scan compares each exit with the best so far
    energy = 0.2019871004614474
    tol = CERTIFICATE_RTOL * (1.0 + energy)

    def below(e, ulps):
        for _ in range(ulps):
            e = np.nextafter(e, -math.inf)
        return float(e)

    assert _winner([energy, below(energy, 2)]) == 0
    assert _winner([energy + 1e-3, energy, below(energy, 2)]) == 1
    assert _winner([energy, below(energy, 2), energy - 2.0 * tol]) == 2
    assert _winner([energy, energy - 0.6 * tol, energy - 1.2 * tol]) == 2
    assert _winner([energy, energy - 0.6 * tol]) == 0
    assert _winner([energy]) == 0


def assert_same_restart_result(res, reference):
    assert res.best_restart_seed == reference.best_restart_seed
    assert res.field.values.tobytes() == reference.field.values.tobytes()
    assert res.energy == reference.energy
    assert (res.sweeps, res.converged) == (reference.sweeps, reference.converged)


@pytest.mark.parametrize("instance,status", [(0, "certified"), (10, "refuted")])
def test_one_phase_random_restarts_run_unless_the_bounds_are_certified(
        monkeypatch, instance, status):
    # certified: only seeds s and s + 1 (the bound restarts) run, verified,
    # and the result is the better of them bit for bit; refuted: Wolfe runs on until
    # the bound meets the support energy that refuted the exits, the oracle's
    # minimum, and the random restarts stop at seed 13, the first to reach
    # it, which is also the winner of the ranking over all 5 restarts
    problem = one_phase_oracle_instance(instance)
    form = assemble_form(problem.kernel, problem.grid)
    exits = record_restarts(monkeypatch, 11, 5)
    res = minimize(problem, n_restarts=5, seed=11, form=form)
    monkeypatch.undo()
    cert = res.certificate
    assert cert["status"] == status
    ran = [11, 12] if status == "certified" else [11, 12, 13]
    assert [seed for seed, _, _ in exits] == ran and res.restarts_used == len(ran)
    best = exits[ranked_winner([out[1] for _, _, out in exits])]
    assert res.best_restart_seed == best[0]
    assert_same_restart_result(res, restart_reference(problem, form, *best[:2],
                                                      verified=best[0] < 13))
    # the record brackets the better bound exit's reduced energy
    bound_exit = min(exits[:2], key=lambda e: (e[2][1], e[0]))[2][1]
    tol = CERTIFICATE_RTOL * (1.0 + abs(bound_exit))
    assert cert["gap"] == bound_exit - cert["lower_bound"]
    assert cert["band"] + cert["fixed_on"] <= 10 and cert["greedy_calls"] >= 1
    if status == "certified":
        assert cert["gap"] <= tol and cert["best_support_energy"] >= bound_exit - tol
        two = minimize(problem, n_restarts=2, seed=11, form=form)
        assert two.field.values.tobytes() == res.field.values.tobytes()
        assert (two.energy, two.best_restart_seed) == (res.energy, res.best_restart_seed)
        assert two.certificate is None
    else:
        # a random restart reaches the support energy that refuted the bounds
        assert cert["best_support_energy"] < bound_exit - tol
        assert res.best_restart_seed == 13
        assert abs(res.energy.total - cert["best_support_energy"]) <= tol
        assert_same_restart_result(res, every_restart(problem, 5, 11, form))
    # either way the bound has closed on the lowest support energy seen, the
    # certified minimum, which is the oracle's
    assert cert["best_support_energy"] - cert["lower_bound"] <= CERTIFICATE_RTOL * (
        1.0 + abs(cert["best_support_energy"]))
    assert cert["minimum"] == cert["best_support_energy"]
    oracle = oracle_minimize(problem, form=form).energy.total
    assert abs(cert["minimum"] - oracle) <= ORACLE_AGREE_RTOL * (1.0 + abs(oracle))
    assert json.loads(json.dumps(res.to_dict()))["certificate"] == cert


def test_restarts_that_miss_the_certified_minimum_all_run(monkeypatch):
    # oracle-compare's oracle-50 config at CLI seed 9507, instance 49: the
    # certificate closes on the oracle's minimum, and every one of the 20
    # restarts ends above it by more than the tolerance (the nearest by
    # 0.0024), so all of them run and the ranking over them is reported
    grid = build_grid(1, 0.1, 1.0, 0.5)
    rng = np.random.default_rng([9507, 49])
    data = 0.35 * np.where(grid.interior, 0.0, rng.random(grid.n_nodes))
    problem = ProblemSpec(fractional_kernel(0.5), grid, data, rho=0.2, phase="one_phase")
    form = assemble_form(problem.kernel, grid)
    seed = 9507 + 100000 * 50
    exits = record_restarts(monkeypatch, seed, 20)
    res = minimize(problem, n_restarts=20, seed=seed, form=form)
    monkeypatch.undo()
    cert = res.certificate
    oracle = oracle_minimize(problem, form=form).energy.total
    assert cert["status"] == "refuted"
    assert abs(cert["minimum"] - oracle) <= ORACLE_AGREE_RTOL * (1.0 + abs(oracle))
    assert [s for s, _, _ in exits] == list(range(seed, seed + 20)) and res.restarts_used == 20
    tol = CERTIFICATE_RTOL * (1.0 + abs(cert["minimum"]))
    assert min(out[1] for _, _, out in exits) > cert["minimum"] + tol
    assert_same_restart_result(res, every_restart(problem, 20, seed, form))


def singular_affine_steps(P):
    """_affine_minimizers with every affine system of the stack singular."""
    return np.zeros(P.shape[:2]), np.zeros(P.shape[0], dtype=bool)


@pytest.mark.parametrize("blocked", ["capped", "stalled"])
def test_a_refutation_that_cannot_close_runs_every_restart(monkeypatch, blocked):
    # instance 10 is refuted at the first greedy call and closes after 13
    # Wolfe iterations; without them, or with a singular affine step, it
    # stays refuted with no certified minimum, and every restart runs
    problem = one_phase_oracle_instance(10)
    form = assemble_form(problem.kernel, problem.grid)
    if blocked == "capped":
        monkeypatch.setattr(nlfb.solver, "WOLFE_MAX_ITERATIONS", 0)
    else:
        monkeypatch.setattr(nlfb.solver, "_affine_minimizers", singular_affine_steps)
    exits = record_restarts(monkeypatch, 11, 5)
    res = minimize(problem, n_restarts=5, seed=11, form=form)
    monkeypatch.undo()
    cert = res.certificate
    assert (cert["status"], cert["minimum"]) == ("refuted", None)
    assert (cert["wolfe_iterations"], cert["greedy_calls"]) == (
        (0, 1) if blocked == "capped" else (1, 2))
    assert [seed for seed, _, _ in exits] == [11, 12, 13, 14, 15] and res.restarts_used == 5
    assert_same_restart_result(res, every_restart(problem, 5, 11, form))


@settings(max_examples=200, deadline=None)
@given(family=st.sampled_from(("fractional_laplacian", "modulated", "checkerboard",
                               "custom_table")),
       s=st.floats(0.05, 0.95), block=st.floats(0.1, 1.0), amplitude=st.floats(0.0, 0.99),
       log_rho=st.floats(-0.5, 0.75), data_seed=st.integers(0, 2 ** 32 - 1),
       n_restarts=st.integers(3, 20), seed=st.integers(0, 1000))
# refuted, and closed after 14 Wolfe iterations; seed 3 reaches the minimum
@example(family="fractional_laplacian", s=0.5, block=0.5, amplitude=0.0, log_rho=0.0,
         data_seed=0, n_restarts=20, seed=0)
def test_stopping_at_the_certified_minimum_keeps_the_ranking(family, s, block, amplitude,
                                                             log_rho, data_seed, n_restarts,
                                                             seed):
    # ten interior nodes, as in oracle-compare: minimize (which stops the
    # random restarts at the certified minimum, or skips them) reports the
    # support and energy of the ranking over every restart, up to supports
    # tied with that winner within CERTIFICATE_RTOL; the same winning seed is
    # the same result bit for bit
    grid = build_grid(1, 0.1, 1.0, 0.5)
    rng = np.random.default_rng(data_seed)
    data = np.where(grid.interior, 0.0, rng.uniform(0.0, 1.0, grid.n_nodes))
    problem = ProblemSpec(one_phase_kernel(family, s, block, amplitude), grid, data,
                          rho=10.0 ** log_rho, phase="one_phase")
    form = assemble_form(problem.kernel, grid)
    res = minimize(problem, n_restarts=n_restarts, seed=seed, form=form)
    reference = every_restart(problem, n_restarts, seed, form)
    assert res.restarts_used <= n_restarts
    assert seed <= res.best_restart_seed < seed + res.restarts_used
    tol = CERTIFICATE_RTOL * (1.0 + abs(reference.energy.total))
    assert abs(res.energy.total - reference.energy.total) <= tol
    if res.best_restart_seed == reference.best_restart_seed:
        assert_same_restart_result(res, reference)


def test_certificate_statuses_that_decide_nothing(monkeypatch):
    # instance 0 is certified after 3 Wolfe iterations; without them it is
    # capped, and with a singular affine step it stalls; each of these runs
    # every restart
    problem = one_phase_oracle_instance(0)
    form = assemble_form(problem.kernel, problem.grid, problem.exterior_data)
    terms = exterior_terms(form, problem.exterior_data)
    states = _bound_states(problem, form, [terms])
    (exit_a, exit_b), = _verify_bounds([problem], form, [terms], states)
    cert = minimize(problem, n_restarts=5, seed=11, form=form).certificate
    assert (cert["status"], cert["wolfe_iterations"]) == ("certified", 3)
    energy = min(exit_a[1], exit_b[1])

    monkeypatch.setattr(nlfb.solver, "WOLFE_MAX_ITERATIONS", 0)
    capped = _certify(problem, states, [exit_b[1]], [energy])[0]
    assert (capped["status"], capped["wolfe_iterations"], capped["greedy_calls"],
            capped["minimum"]) == ("capped", 0, 1, None)
    assert minimize(problem, n_restarts=5, seed=11, form=form).restarts_used == 5
    monkeypatch.undo()

    monkeypatch.setattr(nlfb.solver, "_affine_minimizers", singular_affine_steps)
    stalled = _certify(problem, states, [exit_b[1]], [energy])[0]
    assert (stalled["status"], stalled["wolfe_iterations"], stalled["greedy_calls"],
            stalled["minimum"]) == ("stalled", 1, 2, None)
    assert stalled["lower_bound"] == capped["lower_bound"] < energy
    assert minimize(problem, n_restarts=5, seed=11, form=form).restarts_used == 5


def test_unbracketed_bound_states_fail_their_verification():
    # the middle instance of three with its bound states swapped: (a)'s
    # support no longer contains (b)'s, and the first node of (b)'s that (a)
    # leaves off, the band's first row, is named; unswapped, all three pass
    problems = [one_phase_oracle_instance(t) for t in (0, 10, 3)]
    problems = [replace(problems[0], exterior_data=p.exterior_data) for p in problems]
    form = assemble_form(problems[0].kernel, problems[0].grid)
    terms = [exterior_terms(form, p.exterior_data) for p in problems]
    states = _bound_states(problems[0], form, terms)
    _verify_bounds(problems, form, terms, states)
    x_a, x_b, record, band = states[1]
    assert band[0].shape[0]
    states[1] = (x_b, x_a, record, band)
    node = form.interior_idx[band[0][0]]
    with pytest.raises(SolverError, match=rf"bound state \(a\) of instance 1 fails at node {node}: "
                                          r"it is off where \(b\) is on"):
        _verify_bounds(problems, form, terms, states)


def test_the_fall_ends_with_the_band_system_of_its_states():
    # criterion 3's fractional s = 0.7, h = 0.0025 instance, whose band has
    # 307 nodes: the greedy prefix energies on the fall's band system and on
    # reference_band_system's, and those from the Cholesky factor of the
    # reference's S[order, order] itself, agree within 1e-12 relative, for
    # the certificate's first order (decreasing x_a) and two random ones;
    # so do G(L) and the verified (b) exit's reduced energy
    grid = build_grid(1, 0.0025, 2.0)
    x = grid.positions[:, 0]
    data = np.where(~grid.interior & (x >= 1.0) & (x <= 2.0), 0.35, 0.0)
    problem = ProblemSpec(fractional_kernel(0.7), grid, data, rho=0.05)
    form = assemble_form(problem.kernel, grid, data)
    terms = exterior_terms(form, data)
    rho_cell = problem.rho * grid.cell_measure
    states = _bound_states(problem, form, [terms])
    (_, (_, energy_on, _, _)), = _verify_bounds([problem], form, [terms], states)
    x_a, x_b, _, (rows, _, _) = states[0]
    band, schur, inverse, b_band, reference_on = reference_band_system(form, terms, rho_cell,
                                                                       x_a, x_b)
    assert rows.shape[0] == 307 and np.array_equal(rows, band)
    assert abs(energy_on - reference_on) <= 1e-12 * abs(reference_on)
    systems = [(states[0][3][1], states[0][3][2], energy_on), (inverse, b_band, reference_on)]
    rng = np.random.default_rng(173)
    for order in [np.argsort(-x_a[rows], kind="stable")] + [rng.permutation(307) for _ in range(2)]:
        y = np.linalg.solve(np.linalg.cholesky(schur[np.ix_(order, order)]), b_band[order])
        direct = reference_on + np.cumsum(rho_cell - y * y)
        (_, (got,)), (_, (want,)) = (_band_greedy(rho_cell, M[None], b[None], np.array([on]),
                                                  order[None]) for M, b, on in systems)
        for other in (want, direct):
            assert (np.abs(got - other) <= 1e-12 * np.abs(other)).all()


def test_failed_schur_cholesky_raises(monkeypatch):
    problem = one_phase_oracle_instance(0)

    def cholesky(a):
        raise np.linalg.LinAlgError("Matrix is not positive definite")

    monkeypatch.setattr(nlfb.solver.np.linalg, "cholesky", cholesky)
    with pytest.raises(SolverError, match="Schur complement is not positive definite"):
        minimize(problem, n_restarts=3, seed=0)


@settings(max_examples=60, deadline=None)
@given(family=st.sampled_from(("fractional_laplacian", "modulated", "checkerboard",
                               "custom_table")),
       s=st.floats(0.05, 0.95), block=st.floats(0.1, 1.0), amplitude=st.floats(0.0, 0.99),
       lattice=st.sampled_from([(1, 0.25), (1, 0.16), (1, 0.125), (1, 0.1), (1, 1.0 / 12.0),
                                (2, 0.25)]),
       log_rho=st.floats(-3.0, 0.5), seed=st.integers(0, 2 ** 32 - 1))
def test_certificate_agrees_with_the_oracle(family, s, block, amplitude, lattice, log_rho,
                                            seed):
    # 4 to 12 interior nodes: the greedy prefix energies are the oracle's
    # support energies; the (b) and (a) exits bracket the least minimizer;
    # a certified minimize is at the oracle's minimum, no bound exceeds it,
    # and a certified minimum in the record is the oracle's
    dim, h = lattice
    grid = enumerate_lattice(dim, h, 1.5 if dim == 1 else 1.0, 0.5)
    kernel = (one_phase_kernel(family, s, block, amplitude) if dim == 1
              else fractional_kernel(s, dim=2))
    rng = np.random.default_rng(seed)
    data = np.where(grid.interior, 0.0, rng.uniform(0.0, 1.0, grid.n_nodes))
    problem = ProblemSpec(kernel, grid, data, rho=10.0 ** log_rho, phase="one_phase")
    form = assemble_form(kernel, grid, data)
    terms = exterior_terms(form, data)
    _, energies = oracle_candidates(problem, form)
    m = form.interior_idx.shape[0]

    def mask_of(rows):
        return sum(1 << int(k) for k in rows)

    # the greedy on the band system that the fall ends with, G(L) the (b)
    # exit's reduced energy, for random orders of the band
    states = _bound_states(problem, form, [terms])
    (_, (_, energy_on, _, _)), = _verify_bounds([problem], form, [terms], states)
    _, x_b, _, (band, M, b_band) = states[0]
    rho_cell = problem.rho * grid.cell_measure
    on = mask_of(np.nonzero(x_b > 0.0)[0])
    assert abs(energy_on - energies[on]) <= 1e-12 * abs(energies[on])
    for _ in range(3):
        order = rng.permutation(band.shape[0])
        _, (prefix,) = _band_greedy(rho_cell, M[None], b_band[None], np.array([energy_on]),
                                    order[None])
        mask = on
        for k, position in enumerate(order):
            mask |= 1 << int(band[position])
            assert abs(prefix[k] - energies[mask]) <= 1e-12 * abs(energies[mask])

    minimum = float(energies.min())
    tol = CERTIFICATE_RTOL * (1.0 + abs(minimum))
    least = (1 << m) - 1
    for mask in np.nonzero(energies <= minimum + tol)[0]:
        least &= int(mask)
    descend_seed = seed % 1000
    x_a, x_b = (_descend(problem, u0, descend_seed + k, DEFAULT_MAX_SWEEPS, form, terms)[0][
        form.interior_idx] for k, u0 in enumerate(bound_inits(problem, form)))
    supp_a, supp_b = mask_of(np.nonzero(x_a > 0.0)[0]), mask_of(np.nonzero(x_b > 0.0)[0])
    assert supp_b & ~least == 0 and least & ~supp_a == 0

    res = minimize(problem, n_restarts=3, seed=descend_seed, form=form)
    cert = res.certificate
    assert cert["status"] in ("certified", "refuted", "stalled", "capped")
    assert cert["lower_bound"] <= minimum + tol
    assert cert["best_support_energy"] >= minimum - tol
    if cert["minimum"] is not None:
        assert abs(cert["minimum"] - minimum) <= tol
    oracle = oracle_minimize(problem, form=form).energy.total
    if cert["status"] == "certified":
        assert res.restarts_used == 2
        assert abs(res.energy.total - oracle) <= ORACLE_AGREE_RTOL * (1.0 + abs(oracle))


@settings(max_examples=100, deadline=None)
@given(family=st.sampled_from(("fractional_laplacian", "modulated", "checkerboard",
                               "custom_table")),
       s=st.floats(0.05, 0.95), block=st.floats(0.1, 1.0), amplitude=st.floats(0.0, 0.99),
       lattice=st.sampled_from([(1, 0.25), (1, 0.16), (1, 0.125), (1, 0.1), (2, 0.25)]),
       log_rho=st.floats(-3.0, 0.5), seed=st.integers(0, 2 ** 32 - 1))
def test_bound_states_are_the_descent_exits_and_bracket_the_oracle(family, s, block,
                                                                   amplitude, lattice,
                                                                   log_rho, seed):
    # at most 10 interior nodes, one_phase, xi = 0: the fall's state has the
    # support of the descent from the lifting, the rise's that of the descent
    # from the zero extension, their descents from the states verify them
    # (converged, the same supports), and the oracle's minimizing support
    # lies between the two, as does the least minimizer
    dim, h = lattice
    grid = enumerate_lattice(dim, h, 1.5 if dim == 1 else 1.0, 0.5 if dim == 1 else 0.35)
    kernel = (one_phase_kernel(family, s, block, amplitude) if dim == 1
              else fractional_kernel(s, dim=2))
    rng = np.random.default_rng(seed)
    data = np.where(grid.interior, 0.0, rng.uniform(0.0, 1.0, grid.n_nodes))
    problem = ProblemSpec(kernel, grid, data, rho=10.0 ** log_rho, phase="one_phase")
    form = assemble_form(kernel, grid, data)
    terms = exterior_terms(form, data)
    rows = form.interior_idx
    m = rows.shape[0]
    assert m <= 10
    lifted = lifting_initialization(problem, form).values
    x_a, x_b, record, _ = _bound_states(problem, form, [terms])[0]
    assert (x_a >= 0.0).all() and (x_b >= 0.0).all()
    descend_seed = seed % 1000
    for k, (init, state, name) in enumerate(((lifted, x_a, "a"), (data, x_b, "b"))):
        exit_state = _descend(problem, init, descend_seed + k, DEFAULT_MAX_SWEEPS, form,
                             terms)[0][rows]
        assert np.array_equal(exit_state > 0.0, state > 0.0)
        u0 = data.copy()
        u0[rows] = state
        verified, _, _, converged = _descend(problem, u0, descend_seed + k,
                                            DEFAULT_MAX_SWEEPS, form, terms)
        assert converged and np.array_equal(verified[rows] > 0.0, state > 0.0)
        assert record[name]["support"] == int(np.count_nonzero(state > 0.0))
        assert 0 <= record[name]["steps"] <= m + 1
    assert not (x_b > 0.0)[~(x_a > 0.0)].any()

    def mask_of(on):
        return sum(1 << int(k) for k in np.nonzero(on)[0])

    supp_a, supp_b = mask_of(x_a > 0.0), mask_of(x_b > 0.0)
    _, energies = oracle_candidates(problem, form)
    minimum = float(energies.min())
    least = (1 << m) - 1
    for mask in np.nonzero(energies <= minimum + CERTIFICATE_RTOL * (1.0 + abs(minimum)))[0]:
        least &= int(mask)
    oracle = oracle_minimize(problem, form=form)
    found = mask_of(oracle.field.values[rows] > 0.0)
    for support in (least, found):
        assert supp_b & ~support == 0 and support & ~supp_a == 0


# ------------------------------------------------ the verified bound restarts

def test_descents_run_only_the_random_restarts_at_one_phase_xi_0(monkeypatch):
    # one_phase at xi = 0: one _verify_bounds call takes restarts (a) and
    # (b) of every instance, and _descend runs only the random restarts of
    # the refuted instances; two_phase descends (a) and (b) of every
    # instance before any random restart
    base = one_phase_oracle_instance(0)
    problems = [replace(base, exterior_data=one_phase_oracle_instance(t).exterior_data)
                for t in (0, 10, 3)]
    form = assemble_form(base.kernel, base.grid)
    for phase in PHASES:
        stack = [replace(p, phase=phase) for p in problems]
        calls = []
        real_descend, real_verify = nlfb.solver._descend, nlfb.solver._verify_bounds
        monkeypatch.setattr(nlfb.solver, "_descend", lambda problem, u0, seed, *args:
                            calls.append(("descend", seed)) or
                            real_descend(problem, u0, seed, *args))
        monkeypatch.setattr(nlfb.solver, "_verify_bounds", lambda problems, *args:
                            calls.append(("verify", len(problems))) or
                            real_verify(problems, *args))
        got = minimize_all(stack, 5, [11, 21, 31], form=form)
        monkeypatch.undo()
        if phase == "two_phase":
            assert [seed for _, seed in calls[:6]] == [11, 12, 21, 22, 31, 32]
            assert all(name == "descend" for name, _ in calls)
            continue
        statuses = [res.certificate["status"] for res in got]
        assert statuses == ["certified", "refuted", "certified"]
        assert calls[0] == ("verify", 3) and len(calls) >= 2
        assert [seed for _, seed in calls[1:]] == [23 + k for k in range(len(calls) - 1)]
        assert got[1].restarts_used == len(calls) + 1
        assert all(res.restarts_used == 2 for res in (got[0], got[2]))


BOUND_FAULTS = {
    # fault: (the check that fails, whether it names the faulted node)
    "on_to_off": ("its best response differs", True),
    "off_to_on": ("its best response differs", True),
    "nudged": ("residual exceeds CG_TOL", True),
    "residual": ("residual exceeds CG_TOL", False),
    "negative": ("exact solve is negative", True),
    "stall": ("improve the energy by a sweep's stall threshold", False),
}


@pytest.mark.parametrize("fault", list(BOUND_FAULTS))
@pytest.mark.parametrize("bound", ["a", "b"])
def test_a_faulted_bound_state_fails_its_verification(monkeypatch, fault, bound):
    # one state of the middle instance of three (40 nodes, both bound
    # states with nodes on and off): its lowest support node flipped off,
    # its lowest node off the support flipped on (valued as the largest
    # entry), that support node's value nudged by 1e-8 relative or made
    # negative, or the state scaled by 1 + 1e-10 (its exact solve's residual
    # 100 times CG_TOL) each raise SolverError naming the instance and the
    # node; a stall threshold of 0 trips the summed improvements
    grid = build_grid(1, 0.05, 2.0)
    outside = ~grid.interior & (grid.positions[:, 0] >= 1.0)
    problems = [ProblemSpec(fractional_kernel(0.5), grid, np.where(outside, amplitude, 0.0),
                            rho=0.1) for amplitude in (0.35, 0.42, 0.49)]
    form = assemble_form(problems[0].kernel, grid)
    real = nlfb.solver._bound_states
    terms = [exterior_terms(form, p.exterior_data) for p in problems]
    k = "ab".index(bound)
    x = real(problems[0], form, [terms[1]])[0][k].copy()
    on = np.flatnonzero(x > 0.0)
    assert on.shape[0] and on.shape[0] < x.shape[0]
    node = {"on_to_off": on[0], "off_to_on": np.flatnonzero(x <= 0.0)[0],
            "nudged": on[0], "negative": on[0]}.get(fault)
    if fault == "on_to_off":
        x[node] = 0.0
    elif fault == "off_to_on":
        x[node] = x.max()
    elif fault == "nudged":
        x[node] *= 1.0 + 1e-8
    elif fault == "residual":
        x *= 1.0 + 1e-10
    elif fault == "negative":
        x[node] = -1e-300
    else:
        monkeypatch.setattr(nlfb.solver, "EPS_STOP_FACTOR", 0.0)

    def faulted(problem, form, terms):
        states = real(problem, form, terms)
        states[1] = states[1][:k] + (x,) + states[1][k + 1:]
        return states

    monkeypatch.setattr(nlfb.solver, "_bound_states", faulted)
    what, named = BOUND_FAULTS[fault]
    # at a threshold of 0 every state fails, the first one first
    state = "(a) of instance 0" if fault == "stall" else f"({bound}) of instance 1"
    message = rf"bound state \{state[:2]}\{state[2:]} fails at node (\d+): .*{what}"
    for n_restarts in (1, 2, 5):
        with pytest.raises(SolverError, match=message) as raised:
            minimize_all(problems, n_restarts, [11, 21, 31], form=form)
        found = int(re.search(message, str(raised.value)).group(1))
        assert found == form.interior_idx[node] if named else found in form.interior_idx
    monkeypatch.undo()
    assert [res.sweeps for res in minimize_all(problems, 2, [11, 21, 31], form=form)] == [0] * 3


@settings(max_examples=100, deadline=None)
@given(family=st.sampled_from(("fractional_laplacian", "modulated", "checkerboard",
                               "custom_table")),
       lattice=st.sampled_from([(1, 0.25), (1, 0.16), (1, 0.125), (1, 0.1), (2, 0.25)]),
       s=st.floats(0.05, 0.95), block=st.floats(0.1, 1.0), size=st.integers(1, 6),
       zero=st.booleans(), log_rho=st.floats(-3.0, 0.5), n_restarts=st.integers(1, 6),
       seed=st.integers(0, 2 ** 32 - 1))
# c = 5.49 against an energy of 0.232: the two evaluations differ by 2.7e-15,
# 1.1e-14 relative, within their rounding bound of 4.8e-13
@example(family="fractional_laplacian", lattice=(1, 0.1), s=0.875, block=1.0, size=2,
         zero=False, log_rho=-2.0, n_restarts=1, seed=13460)
# instance 2: (a) and (b) end on one support; verified, their energies are
# equal, while descended, (b)'s is 1 ulp lower: ranked by (energy, seed),
# seed s won one ranking and s + 1 the other
@example(family="modulated", lattice=(1, 0.16), s=0.19743761572833796,
         block=0.2205049031104333, size=5, zero=False, log_rho=-0.15898484086458264,
         n_restarts=6, seed=420543100)
# the winners' pairwise energies differ by 8.9e-16, 1.0e-14 relative to the
# energy 0.0871: the terms of the pairwise sum cancel, and the difference
# stays within their rounding bound (pair_energy_rounding)
@example(family="modulated", lattice=(1, 0.125), s=0.8493092185666884,
         block=0.763934399366605, size=4, zero=True, log_rho=-2.0034252170244313,
         n_restarts=2, seed=3357050507)
def test_verified_bound_states_are_one_sweep_of_their_descents(family, lattice, s, block,
                                                               size, zero, log_rho,
                                                               n_restarts, seed):
    # random one_phase, xi = 0 stacks of 1 to 6 instances with 4 to 10
    # interior nodes (with `zero`, one of zero data): a descent from each
    # verified bound state, one sweep long, stays on its support, and its
    # energy differs from the verified one by no more than the rounding of
    # the two reduced_energies evaluations (reduced_energy_rounding): the
    # sweep moves values by ulps, whose exact effect on the energy is of
    # second order, while c and the quadratic terms can exceed the energy
    # many times over. minimize_all with (a) and (b)
    # descended in place of verified picks the same winners, restarts and
    # certificate statuses, at pairwise energies that differ by no more than
    # the rounding of the two total_energies evaluations
    # (pair_energy_rounding). Restarts that end on one support can differ by
    # ulps in one ranking and tie in the other; the ranking keeps the lower
    # seed among exits within CERTIFICATE_RTOL of the best, so the winning
    # seeds are the same
    dim, h = lattice
    grid = enumerate_lattice(dim, h, 1.5 if dim == 1 else 1.0, 0.5 if dim == 1 else 0.35)
    kernel = family_kernel(family, dim, s, block)
    form = assemble_form(kernel, grid)
    rng = np.random.default_rng(seed)
    datas = [np.where(grid.interior, 0.0, rng.uniform(0.0, 1.0, grid.n_nodes))
             for _ in range(size)]
    if zero:
        datas[-1] = np.zeros(grid.n_nodes)
    problems = [ProblemSpec(kernel, grid, data, rho=10.0 ** log_rho) for data in datas]
    seeds = [seed % 1000 + 7 * k for k in range(size)]
    terms = nlfb.energy.exterior_terms_all(form, datas)
    states = _bound_states(problems[0], form, terms)
    verified = _verify_bounds(problems, form, terms, states)
    for problem, kept, seed_i, pair in zip(problems, terms, seeds, verified):
        for k, (u, energy, sweeps, converged) in enumerate(pair):
            assert (sweeps, converged) == (0, True)
            swept, swept_energy, _, _ = _descend(problem, u, seed_i + k, 1, form, kept)
            assert np.array_equal(swept > 0.0, u > 0.0)
            rounding = sum(reduced_energy_rounding(form, v[form.interior_idx], *kept,
                                                   problem.rho * grid.cell_measure)
                           for v in (u, swept))
            assert abs(swept_energy - energy) <= rounding

    def descended(problems, form, terms, states):
        pairs = []
        for problem, kept, seed_i, state in zip(problems, terms, seeds, states):
            pairs.append([])
            for k, x in enumerate(state[:2]):
                u0 = problem.exterior_data.copy()
                u0[form.interior_idx] = x
                pairs[-1].append(_descend(problem, u0, seed_i + k, DEFAULT_MAX_SWEEPS, form,
                                          kept))
        return pairs

    got = minimize_all(problems, n_restarts, seeds, form=form)
    with patch.object(nlfb.solver, "_verify_bounds", descended):
        want = minimize_all(problems, n_restarts, seeds, form=form)
    for res, ref, problem, kept in zip(got, want, problems, terms):
        assert res.restarts_used == ref.restarts_used
        assert res.best_restart_seed == ref.best_restart_seed
        assert (res.certificate or {}).get("status") == (ref.certificate or {}).get("status")
        assert np.array_equal(res.support, ref.support)
        rounding = sum(pair_energy_rounding(form, r.field.values[form.interior_idx], *kept,
                                            problem.rho * grid.cell_measure)
                       for r in (res, ref))
        assert abs(res.energy.total - ref.energy.total) <= rounding


# --------------------------------------- minimize_all: oracle-compare's stacks

def assert_same_as_alone(got, alone):
    """A stacked instance's result is its result alone, bit for bit."""
    assert np.array_equal(got.support, alone.support) and got.bounds == alone.bounds
    assert (got.certificate or {}).get("status") == (alone.certificate or {}).get("status")
    assert (got.restarts_used, got.best_restart_seed) == (alone.restarts_used,
                                                          alone.best_restart_seed)
    # equal bits, not equal to rounding: total_energies gives each entry of a
    # stack the bits of its own call, and the field is the same
    assert got.energy == alone.energy
    assert json.dumps(got.to_dict()) == json.dumps(alone.to_dict())


@settings(max_examples=100, deadline=None)
@given(family=st.sampled_from(("fractional_laplacian", "modulated", "checkerboard",
                               "custom_table")),
       phase=st.sampled_from(PHASES), xi=st.sampled_from([0.0, 0.05, -0.05]),
       lattice=st.sampled_from([(1, 0.25), (1, 0.16), (1, 0.125), (1, 0.1), (2, 0.25)]),
       s=st.floats(0.05, 0.95), block=st.floats(0.1, 1.0), size=st.integers(1, 8),
       distinct=st.integers(1, 8), zero=st.booleans(), log_rho=st.floats(-3.0, 0.5),
       n_restarts=st.integers(1, 6), seed=st.integers(0, 2 ** 32 - 1))
def test_stacked_minimize_matches_each_instance_alone(family, phase, xi, lattice, s, block,
                                                      size, distinct, zero, log_rho,
                                                      n_restarts, seed):
    # stacks of 1 to 8 instances on one form, 4 to 10 interior nodes in 1D
    # and 2D, with planted duplicates (the same data again, with another
    # seed) and, with `zero`, an instance of zero data, whose L and band are
    # empty: each result, and in one_phase at xi = 0 each bound state, is
    # that of the instance alone, bit for bit
    dim, h = lattice
    grid = enumerate_lattice(dim, h, 1.5 if dim == 1 else 1.0, 0.5 if dim == 1 else 0.35)
    kernel = family_kernel(family, dim, s, block)
    form = assemble_form(kernel, grid)
    rng = np.random.default_rng(seed)
    lo = 0.0 if phase == "one_phase" else -1.0
    datas = [np.where(grid.interior, 0.0, rng.uniform(lo, 1.0, grid.n_nodes))
             for _ in range(min(size, distinct))]
    if zero:
        datas[-1] = np.zeros(grid.n_nodes)
    repeats = rng.integers(len(datas), size=size - len(datas))
    stack = rng.permutation(np.concatenate([np.arange(len(datas)), repeats]))
    problems = [ProblemSpec(kernel, grid, datas[k], rho=10.0 ** log_rho, xi=xi, phase=phase)
                for k in stack]
    seeds = [seed % 1000 + 3 * k for k in range(size)]
    got = minimize_all(problems, n_restarts, seeds, form=form)
    assert len(got) == size
    for problem, seed_k, res in zip(problems, seeds, got):
        assert_same_as_alone(res, minimize(problem, n_restarts, seed_k, form=form))
        assert res.form is form
    if phase == "one_phase" and xi == 0.0:
        terms = [exterior_terms(form, problem.exterior_data) for problem in problems]
        for state, kept in zip(_bound_states(problems[0], form, terms), terms):
            assert_same_bound_states(state, _bound_states(problems[0], form, [kept])[0])


@pytest.mark.parametrize("blocked", [None, "capped", "stalled"])
def test_a_mixed_stack_matches_each_instance_alone(monkeypatch, blocked):
    # oracle-compare's scale: 24 ten-node instances, two of them again with
    # other seeds, and one of zero data. They certify with and without a
    # band or an L, or are refuted; without Wolfe iterations most stay
    # capped, and with every affine step singular they stall. Each result
    # is that of the instance alone, bit for bit, and so is each stacked
    # certificate of the bound states at the results' pairwise energies.
    base = one_phase_oracle_instance(0)
    problems = [replace(base, exterior_data=one_phase_oracle_instance(t).exterior_data)
                for t in range(24)]
    problems += [problems[0], problems[10], replace(base, exterior_data=0.0 * base.exterior_data)]
    seeds = list(range(11, 11 + 7 * len(problems), 7))
    form = assemble_form(base.kernel, base.grid)
    if blocked == "capped":
        monkeypatch.setattr(nlfb.solver, "WOLFE_MAX_ITERATIONS", 0)
    elif blocked == "stalled":
        monkeypatch.setattr(nlfb.solver, "_affine_minimizers", singular_affine_steps)
    got = minimize_all(problems, 5, seeds, form=form)
    for problem, seed, res in zip(problems, seeds, got):
        assert_same_as_alone(res, minimize(problem, 5, seed, form=form))
    records = [res.certificate for res in got]
    statuses = {None: {"certified", "refuted"}, "capped": {"capped", "certified", "refuted"},
                "stalled": {"certified", "refuted", "stalled"}}
    assert {r["status"] for r in records} == statuses[blocked]
    assert any(r["band"] == 0 for r in records) and any(r["fixed_on"] == 0 for r in records)
    terms = [exterior_terms(form, problem.exterior_data) for problem in problems]
    states = _bound_states(base, form, terms)
    # at least three band sizes, interleaved in stack order: some size comes
    # back after another, so the certificate's groups are not runs of the stack
    sizes = [state[3][0].shape[0] for state in states]
    assert len(set(sizes)) >= 3
    assert sum(a != b for a, b in zip(sizes, sizes[1:])) >= len(set(sizes))
    energies_on = [pair[1][1] for pair in _verify_bounds(problems, form, terms, states)]
    energies = [res.energy.total for res in got]
    stacked = _certify(base, states, energies_on, energies)
    for record, state, energy_on, energy in zip(stacked, states, energies_on, energies):
        assert record == _certify(base, [state], [energy_on], [energy])[0]


def test_one_singular_affine_system_leaves_the_others_to_their_solve():
    # two vertex sets: the second has a repeated vertex, so its affine system
    # is singular and the stacked solve raises; the first is then solved on
    # its own, with the bits of its solve alone
    rng = np.random.default_rng(167)
    P = rng.uniform(-1.0, 1.0, (2, 3, 5))
    P[1, 2] = P[1, 0]
    alpha, ok = nlfb.solver._affine_minimizers(P)
    assert ok.tolist() == [True, False]
    alone, ok_alone = nlfb.solver._affine_minimizers(P[:1])
    assert ok_alone.tolist() == [True] and alpha[0].tobytes() == alone[0].tobytes()
    assert math.isclose(float(alpha[0].sum()), 1.0)


def test_minimize_all_refuses_instances_that_differ():
    problem = four_interior_problem(np.random.default_rng(149))
    grid = enumerate_lattice(1, 0.25, 1.5, 0.5)
    assert grid.n_nodes == problem.grid.n_nodes and grid is not problem.grid
    for other in (replace(problem, rho=2.0 * problem.rho), replace(problem, xi=0.05),
                  replace(problem, phase="two_phase"), replace(problem, grid=grid),
                  replace(problem, kernel=fractional_kernel(0.3))):
        with pytest.raises(ConfigurationError, match="share kernel, grid, rho, xi and phase"):
            minimize_all([problem, other], 2, [0, 1])
    with pytest.raises(ConfigurationError, match="1 seeds for 2 instances"):
        minimize_all([problem, problem], 2, [0])
    assert minimize_all([], 2, []) == []


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


def test_minimize_starts_no_thread(monkeypatch, grid_1d_small):
    kernel = fractional_kernel(0.5)
    rng = np.random.default_rng(103)
    data = np.where(grid_1d_small.interior, 0.0,
                    rng.uniform(0.0, 1.0, grid_1d_small.n_nodes))
    problem = ProblemSpec(kernel, grid_1d_small, data, rho=0.05, phase="one_phase")
    monkeypatch.setenv("NLFB_THREADS", "1")
    expected = json.dumps(minimize(problem, n_restarts=6, seed=13).to_dict(), sort_keys=True)

    def start(self):
        raise AssertionError("minimize started a thread")

    monkeypatch.setenv("NLFB_THREADS", "4")
    monkeypatch.setattr(threading.Thread, "start", start)
    res = minimize(problem, n_restarts=6, seed=13)
    assert json.dumps(res.to_dict(), sort_keys=True) == expected


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
