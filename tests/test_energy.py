"""Pair-sum energy assembly, penalized total, tail functional, truncation bound."""

import dataclasses
import math
import tracemalloc
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import nlfb.energy
from nlfb import (
    CapacityError,
    ConfigurationError,
    DomainError,
    Field,
    Grid,
    KernelSpec,
    assemble_form,
    build_grid,
    checkerboard_kernel,
    dirichlet_energy,
    enumerate_lattice,
    eval_kernel,
    fractional_kernel,
    modulated_kernel,
    rescale_kernel,
    sample_field,
    support_mask,
    tail,
    total_energy,
    truncation_error_bound,
)
from nlfb.energy import _ROW_BLOCK, exterior_terms, tree_sum

from conftest import (family_kernel, random_field_values, reference_exterior_rows,
                      reference_exterior_term, reference_row)


def brute_force_dirichlet(kernel, grid, values):
    """Independent O(n^2) oracle: explicit pair loop with fsum accumulation."""
    terms = []
    m2 = grid.cell_measure ** 2
    for i in range(grid.n_nodes):
        for j in range(i + 1, grid.n_nodes):
            if not grid.interior[i] and not grid.interior[j]:
                continue
            k_ij = np.asarray(eval_kernel(kernel, grid.positions[i], grid.positions[j]))
            w = 2.0 * float(k_ij.reshape(-1)[0]) * m2
            terms.append(w * (values[i] - values[j]) ** 2)
    return math.fsum(terms)


def indicator(grid, i):
    e = np.zeros(grid.n_nodes)
    e[i] = 1.0
    return e


# -------------------------------------------------------------- hand-sized case

def hand_form():
    # 4 nodes at +-0.25 (interior), +-0.75 (exterior); s = 1/2, lam = 1, h = 1/2:
    # w_ij = 2 * 0.5 |x_i - x_j|^-2 * 0.25 = 0.25 / |x_i - x_j|^2, all dyadic
    grid = enumerate_lattice(1, 0.5, 1.0, 0.5)
    return assemble_form(fractional_kernel(0.5), grid), grid


def test_hand_case_weights_and_pair_count():
    form, grid = hand_form()
    assert np.array_equal(grid.positions[:, 0], [-0.75, -0.25, 0.25, 0.75])
    assert np.array_equal(grid.interior, [False, True, True, False])
    # columns are interior-first: nodes 1 and 2, then the exterior nodes 0 and 3
    assert np.array_equal(form.col_order, [1, 2, 0, 3])
    # W_II holds the one interior pair, in both stored rows; the four
    # interior-exterior pairs are folded into the row terms, and the
    # exterior-exterior pair is dropped: 5 of the 6 unordered pairs
    assert form.dense.shape == (2, 2)
    assert np.array_equal(form.dense, [[0.0, 1.0], [1.0, 0.0]])
    assert np.array_equal(form.exterior_row_sums, [1.25, 1.25])
    assert np.array_equal(form.row_sums, [2.25, 2.25])     # interior rows only
    # W_IE's column of exterior node 0, then of node 3, read through b_I = W_IE g
    b_I, c = exterior_terms(form, indicator(grid, 0))
    assert np.array_equal(b_I, [1.0, 0.25]) and c == 1.25
    b_I, c = exterior_terms(form, indicator(grid, 3))
    assert np.array_equal(b_I, [0.25, 1.0]) and c == 1.25


def test_hand_case_energy_value():
    form, grid = hand_form()
    # 1*(0-1)^2 + 0.25*(0-2)^2 + 1*(1-2)^2 + 0.25*(1-0)^2 + 1*(2-0)^2 = 7.25
    assert dirichlet_energy(form, Field(grid, [0.0, 1.0, 2.0, 0.0])) == 7.25


def test_single_site_indicator_energy_is_row_sum():
    form, grid = hand_form()
    e1 = np.zeros(4)
    e1[1] = 1.0
    assert dirichlet_energy(form, Field(grid, e1)) == form.row_sums[form.row_of[1]] == 2.25


def test_constant_fields_have_zero_energy():
    form, grid = hand_form()
    for c in (0.0, 1.0, -3.5):
        assert dirichlet_energy(form, Field(grid, np.full(4, c))) == 0.0


# ------------------------------------------------------- assembly vs brute force

@pytest.mark.parametrize("kernel", [
    fractional_kernel(0.5),
    fractional_kernel(0.3, lam=2.0),
    modulated_kernel(0.5, 1.0, 2.0, amplitude=1.0 / 3.0, frequency=2.0, multiplier=1.5),
    checkerboard_kernel(0.7, 1.0, 1.5, block_size=0.5, multipliers=(1.0, 1.5)),
])
def test_dirichlet_matches_brute_force(kernel, grid_1d_small):
    rng = np.random.default_rng(17)
    values = random_field_values(grid_1d_small, rng)
    got = dirichlet_energy(assemble_form(kernel, grid_1d_small), Field(grid_1d_small, values))
    want = brute_force_dirichlet(kernel, grid_1d_small, values)
    assert got == pytest.approx(want, rel=1e-12)


FAMILY_KERNELS = [
    fractional_kernel(0.5),
    modulated_kernel(0.3, 1.0, 2.0, amplitude=1.0 / 3.0, frequency=2.0, multiplier=1.5),
    checkerboard_kernel(0.7, 1.0, 1.5, block_size=0.5, multipliers=(1.0, 1.5)),
    KernelSpec("custom_table", 0.5, 1.0, 2.0, 1,
               {"block_size": 0.5, "table": {(0, 0): 1.5, (-1, 1): 2.0, (1, 2): 1.25}}),
]


@settings(max_examples=30, deadline=None)
@given(family=st.sampled_from(range(len(FAMILY_KERNELS))), seed=st.integers(0, 2 ** 32 - 1))
def test_interior_row_energy_matches_brute_force(family, seed, grid_1d_small):
    kernel = FAMILY_KERNELS[family]
    values = random_field_values(grid_1d_small, np.random.default_rng(seed))
    got = dirichlet_energy(assemble_form(kernel, grid_1d_small), Field(grid_1d_small, values))
    assert got == pytest.approx(brute_force_dirichlet(kernel, grid_1d_small, values), rel=1e-12)


def test_dirichlet_matches_brute_force_2d():
    grid = build_grid(2, 0.2, 2.0)
    kernel = fractional_kernel(0.5, dim=2)
    rng = np.random.default_rng(19)
    values = rng.standard_normal(grid.n_nodes)
    got = dirichlet_energy(assemble_form(kernel, grid), Field(grid, values))
    assert got == pytest.approx(brute_force_dirichlet(kernel, grid, values), rel=1e-12)


def test_exterior_pairs_carry_zero_weight(grid_1d_small):
    # only W_II is stored, so no exterior-exterior pair has a weight;
    # self-pairs are 0 and every other stored pair interacts
    form = assemble_form(fractional_kernel(0.5), grid_1d_small)
    n_int = int(grid_1d_small.interior.sum())
    assert form.dense.shape == (n_int, n_int)
    # interior-first columns: the self-pairs are W_II's diagonal
    assert np.array_equal(form.col_order[:n_int], np.nonzero(grid_1d_small.interior)[0])
    assert np.array_equal(form.col_order[n_int:], np.nonzero(~grid_1d_small.interior)[0])
    assert np.array_equal(form.exterior_idx, form.col_order[n_int:])
    self_pairs = (np.arange(n_int), np.arange(n_int))
    assert np.all(form.dense[self_pairs] == 0.0)
    others = np.ones(form.dense.shape, dtype=bool)
    others[self_pairs] = False
    assert np.all(form.dense[others] > 0.0)
    # exterior partners of interior nodes still interact: every entry of W_IE,
    # one exterior node's column at a time
    assert np.all(form.exterior_row_sums > 0.0)
    for e in form.exterior_idx:
        assert np.all(exterior_terms(form, indicator(grid_1d_small, e))[0] > 0.0)


def test_assembly_refuses_blocks_above_the_memory_budget(monkeypatch, grid_1d_small):
    n_int = int(grid_1d_small.interior.sum())
    block_bytes = 8 * n_int * n_int
    monkeypatch.setattr(nlfb.energy, "MEMORY_BUDGET_BYTES", block_bytes - 1)
    with pytest.raises(CapacityError):
        assemble_form(fractional_kernel(0.5), grid_1d_small)
    monkeypatch.setattr(nlfb.energy, "MEMORY_BUDGET_BYTES", block_bytes)
    assert assemble_form(fractional_kernel(0.5), grid_1d_small).dense.nbytes == block_bytes


def test_kernel_grid_dimension_mismatch_rejected(grid_1d_small):
    with pytest.raises(ConfigurationError):
        assemble_form(fractional_kernel(0.5, dim=2), grid_1d_small)


def test_field_form_size_mismatch_rejected(grid_1d_small):
    form = assemble_form(fractional_kernel(0.5), grid_1d_small)
    other = build_grid(1, 0.1, 2.0)
    with pytest.raises(ConfigurationError):
        dirichlet_energy(form, Field(other, np.zeros(other.n_nodes)))


# -------------------------------------------------------- quadratic form algebra

def test_energy_is_nonnegative_and_quadratic(grid_1d_small):
    form = assemble_form(fractional_kernel(0.5), grid_1d_small)
    rng = np.random.default_rng(23)
    for _ in range(10):
        u = random_field_values(grid_1d_small, rng)
        v = random_field_values(grid_1d_small, rng)
        eu = dirichlet_energy(form, Field(grid_1d_small, u))
        ev = dirichlet_energy(form, Field(grid_1d_small, v))
        assert eu >= 0.0
        # parallelogram law of the induced quadratic form
        ep = dirichlet_energy(form, Field(grid_1d_small, u + v))
        em = dirichlet_energy(form, Field(grid_1d_small, u - v))
        scale = ep + em + 1.0
        assert abs(ep + em - 2.0 * eu - 2.0 * ev) <= 1e-12 * scale
        # homogeneity of degree two
        e2 = dirichlet_energy(form, Field(grid_1d_small, 2.0 * u))
        assert e2 == pytest.approx(4.0 * eu, rel=1e-13)


def test_block_matches_reference_rows_bitwise(grid_1d_small):
    # W_II is stored, its columns in col_order; an exterior row, at the
    # interior nodes, is W_IE's column for that node (the kernel is symmetric
    # bit for bit), which b_I of the node's indicator reads exactly
    cases = [
        (checkerboard_kernel(0.5, 1.0, 1.5, block_size=0.5, multipliers=(1.0, 1.5)),
         grid_1d_small),
        (modulated_kernel(0.5, 1.0, 2.0, amplitude=1.0 / 3.0, frequency=2.0,
                          multiplier=1.5, dim=2), build_grid(2, 0.2, 2.0)),
    ]
    for kernel, grid in cases:
        form = assemble_form(kernel, grid)
        n_int = int(grid.interior.sum())
        assert form.dense.shape == (n_int, n_int)
        for i in range(grid.n_nodes):
            want = reference_row(grid, kernel, i)
            k = form.row_of[i]
            if k >= 0:
                assert form.dense[k].tobytes() == want[form.interior_idx].tobytes()
                assert form.row_sums[k] == reference_tree_sum(want[form.col_order])
                assert form.exterior_row_sums[k] == reference_tree_sum(want[form.exterior_idx])
            else:
                b_I = exterior_terms(form, indicator(grid, i))[0]
                assert b_I.tobytes() == want[form.interior_idx].tobytes()


# Row blocks of _ROW_BLOCK rows: the pinned examples assemble more than one.
@settings(max_examples=40, deadline=None)
@given(family=st.sampled_from(("fractional_laplacian", "modulated", "checkerboard",
                               "custom_table")),
       dim=st.sampled_from((1, 2)), s=st.floats(0.05, 0.95), block=st.floats(0.1, 1.0),
       omega=st.floats(0.5, 1.5), cells=st.floats(4.2, 7.0), reach=st.floats(2.0, 3.0),
       x0=st.floats(-1.0, 1.0), r=st.none() | st.floats(0.25, 4.0),
       seed=st.integers(0, 2 ** 32 - 1))
@example(family="checkerboard", dim=1, s=0.7, block=0.3, omega=1.0, cells=40.0, reach=2.5,
         x0=0.3, r=0.7, seed=0)
@example(family="modulated", dim=2, s=0.5, block=0.4, omega=1.0, cells=6.0, reach=2.0,
         x0=-0.6, r=1.5, seed=1)
def test_assembly_equals_reference_rows_bitwise(family, dim, s, block, omega, cells, reach,
                                                x0, r, seed):
    if dim == 1:
        cells *= 6.0     # 1D: 50 to 84 interior rows, 2D: 55 to 154
    grid = build_grid(dim, omega / cells, reach * omega, omega)
    kernel = family_kernel(family, dim, s, block)
    if r is not None:
        kernel = rescale_kernel(kernel, [x0] * dim, r)
    g = random_field_values(grid, np.random.default_rng(seed))
    form = assemble_form(kernel, grid, g)
    n_int = form.interior_idx.shape[0]
    want = np.array([reference_row(grid, kernel, i)[form.col_order] for i in form.interior_idx])
    assert form.dense.tobytes() == np.ascontiguousarray(want[:, :n_int]).tobytes()
    assert form.row_sums.tobytes() == reference_tree_sum(want).tobytes()
    assert form.exterior_row_sums.tobytes() == reference_tree_sum(want[:, n_int:]).tobytes()
    # the exterior terms kept by assembly, and those of one pass over the
    # interior-exterior pairs, are one np.dot per row of the reference W_IE
    g_E = g[form.exterior_idx]
    b_want = np.array([np.dot(row, g_E) for row in want[:, n_int:]], dtype=np.float64)
    c_want = reference_tree_sum([np.dot(row, g_E * g_E) for row in want[:, n_int:]])
    for b_I, c in (exterior_terms(form, g), exterior_terms(assemble_form(kernel, grid), g)):
        assert b_I.tobytes() == b_want.tobytes()
        assert c == c_want


def test_assembly_refuses_coincident_distinct_nodes():
    grid = build_grid(2, 0.2, 2.0)
    positions = grid.positions.copy()
    i, j = np.nonzero(grid.interior)[0][:2]
    positions[j] = positions[i]
    twin = Grid(2, grid.h, grid.omega_radius, grid.R_inf, positions, grid.lattice,
                grid.interior)
    with pytest.raises(DomainError):
        assemble_form(fractional_kernel(0.5, dim=2), twin)


def test_assembly_refuses_grids_off_their_cell_centers_or_repeating_a_lattice_point():
    # the lattice-offset weights hold only for positions (k + 1/2) h exactly,
    # with one node per lattice point; an offset table above the memory
    # budget is refused before it is allocated
    for dim in (1, 2):
        grid = build_grid(dim, 0.2, 2.0)
        kernel = fractional_kernel(0.5, dim=dim)
        i, j = np.nonzero(grid.interior)[0][:2]
        positions = grid.positions.copy()
        positions[i, -1] = np.nextafter(positions[i, -1], math.inf)
        off = Grid(dim, grid.h, grid.omega_radius, grid.R_inf, positions, grid.lattice,
                   grid.interior)
        lattice = grid.lattice.copy()
        lattice[j] = lattice[i]
        repeated = Grid(dim, grid.h, grid.omega_radius, grid.R_inf, (lattice + 0.5) * grid.h,
                        lattice, grid.interior)
        for bad, match in ((off, "cell centers"), (repeated, "repeats a lattice point")):
            with pytest.raises(DomainError, match=match):
                assemble_form(kernel, bad)
            with pytest.raises(DomainError, match=match):
                exterior_terms(dataclasses.replace(assemble_form(kernel, grid), grid=bad),
                               np.ones(grid.n_nodes))
    lattice = np.array([[0], [1], [1 << 30]])
    far = Grid(1, 0.5, 0.5, 1.0, (lattice + 0.5) * 0.5, lattice, [True, False, False])
    with pytest.raises(CapacityError, match="lattice-offset table"):
        assemble_form(fractional_kernel(0.5), far)


@settings(max_examples=40, deadline=None)
@given(family=st.sampled_from(("fractional_laplacian", "modulated", "checkerboard",
                               "custom_table")),
       dim=st.sampled_from((1, 2)), s=st.floats(0.05, 0.95), block=st.floats(0.1, 1.0),
       cells=st.floats(4.2, 7.0), reach=st.floats(2.0, 3.0), x0=st.floats(-1.0, 1.0),
       r=st.none() | st.floats(0.25, 4.0))
def test_assembled_weights_match_eval_kernel_within_the_coordinate_rounding(
        family, dim, s, block, cells, reach, x0, r):
    # assembly takes the offset (k_j - k_i) h, rounded once; eval_kernel at
    # the node positions takes x_i - x_j, where each x = (k + 1/2) h carries a
    # rounding of at most u |x| (u = 2^-53) and the difference one more. Per
    # axis the two distances then differ by at most
    # eps = u (|x_i| + |x_j|) / |(k_j - k_i) h| + 2u relative, the distance by
    # the largest eps over its axes, and |.|^-p (p = d + 2s) by p eps to first
    # order. The multiplier is the same in both; each side's own square, sum,
    # sqrt, power and products round at most 8 times (the power within 2u)
    if dim == 1:
        cells *= 6.0
    grid = build_grid(dim, 1.0 / cells, reach)
    kernel = family_kernel(family, dim, s, block)
    if r is not None:
        kernel = rescale_kernel(kernel, [x0] * dim, r)
    form = assemble_form(kernel, grid)
    n_int, order = form.interior_idx.shape[0], form.col_order
    assert form.dense.tobytes() == np.ascontiguousarray(form.dense.T).tobytes()
    rows = np.concatenate([block.copy() for _, block in nlfb.energy._weight_rows(
        kernel, grid, order, n_int, 0, _ROW_BLOCK)])
    i, j = np.nonzero(np.arange(n_int)[:, None] != np.arange(grid.n_nodes))
    X, Y = grid.positions[order[i]], grid.positions[order[j]]
    m2 = grid.cell_measure * grid.cell_measure
    want = 2.0 * eval_kernel(kernel, X, Y) * m2
    u = 2.0 ** -53
    step = np.abs(grid.lattice[order[j]] - grid.lattice[order[i]]) * grid.h
    # an axis whose offset is 0 has the difference 0 both ways
    eps = np.divide(u * (np.abs(X) + np.abs(Y)), step, out=np.zeros(step.shape),
                    where=step > 0.0).max(axis=1) + 2.0 * u
    bound = (dim + 2.0 * s) * eps * (1.0 + 1e-6) + 16.0 * u
    assert np.all(np.abs(rows[i, j] - want) <= bound * want)
    assert np.all(rows[np.arange(n_int), np.arange(n_int)] == 0.0)


@pytest.mark.parametrize("family", ["fractional_laplacian", "modulated", "checkerboard",
                                    "custom_table"])
def test_assembly_allocates_at_most_two_row_blocks_beside_the_form(family):
    # on the analyze-2d grid, rows are evaluated _ROW_BLOCK at a time into one
    # reused (_ROW_BLOCK, N) scratch, and W_IE is reduced there, never stored:
    # W_IE alone would be 7.5 row blocks
    grid = build_grid(2, 0.07, 2.0)
    kernel = family_kernel(family, 2, 0.5, 0.5)
    g = random_field_values(grid, np.random.default_rng(7))
    tracemalloc.start()
    try:
        form = assemble_form(kernel, grid, g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    n_int = int(grid.interior.sum())
    assert form.dense.shape == (n_int, n_int)
    assert peak <= 8 * n_int * n_int + 2 * 8 * _ROW_BLOCK * grid.n_nodes


# The descent's polish boundaries evaluate the energy on the reduced form.
@settings(max_examples=60, deadline=None)
@given(family=st.sampled_from(("fractional_laplacian", "modulated", "checkerboard",
                               "custom_table")),
       dim=st.sampled_from((1, 2)), phase=st.sampled_from(("one_phase", "two_phase")),
       s=st.floats(0.05, 0.95), block=st.floats(0.1, 1.0), cells=st.floats(4.2, 6.0),
       xi=st.floats(-0.5, 0.5), scale=st.floats(1e-2, 1e2), rho=st.floats(0.0, 2.0),
       seed=st.integers(0, 2 ** 32 - 1))
def test_reduced_energy_matches_total_energy(family, dim, phase, s, block, cells, xi, scale,
                                             rho, seed):
    if dim == 1:
        cells *= 6.0     # 1D: 50 to 72 interior nodes, 2D: 52 to 112
    grid = build_grid(dim, 1.0 / cells, 2.0)
    form = assemble_form(family_kernel(family, dim, s, block), grid)
    rng = np.random.default_rng(seed)
    lo = 0.0 if phase == "one_phase" else -1.0
    u = scale * rng.uniform(lo, 1.0, grid.n_nodes)
    pick = rng.random(grid.n_nodes)
    u[grid.interior & (pick < 0.2)] = 0.0      # off at 0, and at the clamp value xi
    u[grid.interior & (pick > 0.8)] = xi if phase == "two_phase" or xi >= 0.0 else 0.0
    g = np.where(grid.interior, 0.0, u)
    want = total_energy(form, Field(grid, u), rho, xi).total
    got = nlfb.energy.reduced_energy(form, u[form.interior_idx], rho, xi,
                                     nlfb.energy.exterior_terms(form, g))
    assert abs(got - want) <= 1e-12 * (1.0 + abs(want))


@settings(max_examples=40, deadline=None)
@given(dim=st.sampled_from((1, 2)), cells=st.floats(4.2, 6.0), size=st.integers(1, 7),
       block=st.sampled_from([1, 6000, 20000, nlfb.energy.STACK_BLOCK]),
       xi=st.floats(-0.5, 0.5), rho=st.floats(0.0, 2.0), seed=st.integers(0, 2 ** 32 - 1))
def test_stacked_energies_match_each_energy_alone(dim, cells, size, block, xi, rho, seed):
    # a stack of states, some on the same exterior data, in blocks of one or
    # more states: each reduced and pairwise energy is its one-entry call's,
    # bit for bit
    if dim == 1:
        cells *= 6.0
    grid = build_grid(dim, 1.0 / cells, 2.0)
    form = assemble_form(family_kernel("fractional_laplacian", dim, 0.5, 0.5), grid)
    rng = np.random.default_rng(seed)
    u = rng.uniform(-1.0, 1.0, (size, grid.n_nodes))
    u[:, grid.interior & (rng.random(grid.n_nodes) < 0.3)] = xi
    u[1::2, ~grid.interior] = u[0, ~grid.interior]
    terms = nlfb.energy.exterior_terms_all(form, list(u))
    x = u[:, form.interior_idx]
    reduced = nlfb.energy.reduced_energies(form, x, rho, xi, np.array([b for b, _ in terms]),
                                           np.array([c for _, c in terms]))
    with patch.object(nlfb.energy, "STACK_BLOCK", block):
        pairwise = nlfb.energy.total_energies(form, u, rho, xi, terms)
    for k in range(size):
        alone = nlfb.energy.reduced_energy(form, x[k].copy(), rho, xi, terms[k])
        assert reduced[k].tobytes() == np.float64(alone).tobytes()
        want = total_energy(form, Field(grid, u[k].copy()), rho, xi, terms[k])
        assert pairwise[k] == want
        assert all(type(v) is float for v in (pairwise[k].dirichlet, pairwise[k].total))


# One np.dot per stored row of W_II with the interior values, plus the
# exterior term b_I (one np.dot per row of the reference W_IE): the rounding
# the row-blocked np.vecdot must keep.
def reference_row_dots(form, u, rows):
    b_I = reference_exterior_term(form, u)
    return np.array([np.dot(form.dense[k], u[form.interior_idx]) + b_I[k] for k in rows],
                    dtype=np.float64)


# The interior pairs pairwise over W_II, at 1/2 in each row; the exterior
# pairs of row k as a_E,k x_k^2 - 2 x_k b_k, and c once.
def reference_dirichlet(form, u):
    x, a_E = u[form.interior_idx], form.exterior_row_sums
    W_IE, g = reference_exterior_rows(form), u[form.exterior_idx]
    b_I = reference_exterior_term(form, u)
    c = reference_tree_sum([np.dot(row, g * g) for row in W_IE])
    return reference_tree_sum([np.dot(row, (x[k] - x) ** 2 * 0.5)
                               + x[k] * (a_E[k] * x[k] - 2.0 * b_I[k])
                               for k, row in enumerate(form.dense)]) + c


@pytest.mark.parametrize("h,n_int", [(0.05, 40), (1.0 / 32.0, 64), (0.02, 100), (0.01, 200)])
def test_row_dots_and_energy_match_per_row_dots_bitwise(h, n_int):
    # row blocks of 64: fewer rows than one block, exactly one, and crossings
    grid = build_grid(1, h, 2.0)
    form = assemble_form(fractional_kernel(0.4), grid)
    assert form.dense.shape[0] == n_int
    rng = np.random.default_rng(n_int)
    for _ in range(3):
        u = random_field_values(grid, rng)
        rows = rng.permutation(n_int)[:rng.integers(1, n_int + 1)]
        # a range and many consecutive ascending rows are read as slices (a
        # range within one block, offset or empty, as one slice), the rest
        # gathered (swapped: consecutive, not ascending)
        swapped = np.arange(n_int)
        swapped[[1, 2]] = swapped[[2, 1]]
        for r in (range(n_int), range(1, min(n_int, 65)), range(5, 5),
                  np.arange(n_int // 3, n_int), swapped, rows, rows[:0]):
            got, want = form.row_dots(u, r), reference_row_dots(form, u, r)
            assert got.tobytes() == want.tobytes()
        got = dirichlet_energy(form, Field(grid, u))
        assert np.float64(got).tobytes() == np.float64(reference_dirichlet(form, u)).tobytes()


def test_row_dots_and_energy_allocate_at_most_a_row_block():
    # the row blocks bound the temporaries; gathering every stored row at once
    # would allocate the size of form.dense. The form keeps the exterior terms
    # of u's exterior values, as a solve's form keeps those of its data.
    grid = build_grid(2, 0.08, 2.0)
    u = random_field_values(grid, np.random.default_rng(3))
    form = assemble_form(fractional_kernel(0.5, dim=2), grid, u)
    field = Field(grid, u)
    n_int = form.dense.shape[0]
    for call in (lambda: dirichlet_energy(form, field), lambda: form.row_dots(u, range(n_int))):
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < form.dense.nbytes / 4


def test_reduced_energy_and_exterior_terms_allocate_less_than_a_row_block(monkeypatch):
    # reduced_energy reads W_II in place, as one range of rows (slices, never
    # gathered); exterior_terms for new exterior values evaluates W_IE one
    # row block at a time, and for the values it last saw returns its terms
    grid = build_grid(2, 0.08, 2.0)
    form = assemble_form(fractional_kernel(0.5, dim=2), grid)
    u = random_field_values(grid, np.random.default_rng(5))
    g = np.where(grid.interior, 0.0, u)
    read = []
    real = nlfb.energy.rowwise_dots
    monkeypatch.setattr(nlfb.energy, "rowwise_dots",
                        lambda matrix, rows, v: read.append(matrix) or real(matrix, rows, v))
    x = u[form.interior_idx]
    peaks, terms = [], []
    for call in (lambda: terms.append(nlfb.energy.exterior_terms(form, g)),
                 lambda: nlfb.energy.reduced_energy(form, x, 0.3, 0.0, terms[0]),
                 lambda: terms.append(nlfb.energy.exterior_terms(form, u))):
        tracemalloc.start()
        try:
            call()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert max(peaks) < 8 * _ROW_BLOCK * grid.n_nodes
    assert peaks[2] < 4 * 8 * grid.n_nodes       # same exterior values: no pass
    assert terms[1] is terms[0]
    assert len(read) == 1 and read[0] is form.dense


def test_smooth_field_energy_converges_under_refinement():
    def bump(P):
        x = P[:, 0]
        return np.where(np.abs(x) < 1.0, (1.0 - x * x) ** 2, 0.0)

    energies = {}
    for h in (0.05, 0.025):
        grid = build_grid(1, h, 2.0)
        form = assemble_form(fractional_kernel(0.5), grid)
        energies[h] = dirichlet_energy(form, sample_field(grid, bump))
    assert abs(energies[0.05] - energies[0.025]) < 0.05 * energies[0.025]


# ----------------------------------------------------------------- tree reduction

def reference_tree_sum(values):
    """The tree sum with one np.add.reduce per 64-column block, the block sums
    combined in a list: (0, 1), (2, 3), .., an odd last one carried up."""
    arr = np.asarray(values, dtype=np.float64)
    rows = arr if arr.ndim == 2 else arr.reshape(1, -1)
    sums = [np.add.reduce(rows[:, k:k + 64], axis=1)
            for k in range(0, rows.shape[1], 64)] or [np.zeros(rows.shape[0])]
    while len(sums) > 1:
        nxt = [sums[i] + sums[i + 1] for i in range(0, len(sums) - 1, 2)]
        if len(sums) % 2 == 1:
            nxt.append(sums[-1])
        sums = nxt
    return sums[0] if arr.ndim == 2 else float(sums[0][0])


def tree_sum_values(rng, shape, mix):
    """Normal values at a random scale, with a share of signed zeros,
    subnormals and values near 1e300."""
    kinds = rng.choice(4, size=shape, p=mix)
    return np.select(
        [kinds == 0, kinds == 1, kinds == 2],
        [rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 9),
         np.where(rng.random(shape) < 0.5, -0.0, 0.0),
         rng.integers(-2 ** 52, 2 ** 52, size=shape) * 5e-324],
        rng.uniform(-1.0, 1.0, shape) * 1e300)


@settings(max_examples=200, deadline=None)
@given(n=st.one_of(st.builds(lambda blocks, extra: max(0, 64 * blocks + extra),
                             st.integers(0, 10), st.sampled_from((-1, 0, 1, 7, 8))),
                   st.integers(0, 700)),
       m=st.none() | st.integers(0, 5),
       layout=st.sampled_from(("contiguous", "mid_block_slice", "transposed", "strided")),
       offset=st.integers(1, 127), mix=st.sampled_from(("normal", "mixed", "zeros")),
       negative_zero_row=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
@example(n=700, m=3, layout="mid_block_slice", offset=33, mix="normal",
         negative_zero_row=True, seed=0)
@example(n=129, m=0, layout="contiguous", offset=1, mix="normal", negative_zero_row=False,
         seed=0)
@example(n=5, m=None, layout="strided", offset=1, mix="zeros", negative_zero_row=True, seed=0)
def test_tree_sum_equals_the_per_block_reference_bitwise(n, m, layout, offset, mix,
                                                         negative_zero_row, seed):
    # one reduce over the full blocks and one over the tail give the bits of
    # one reduce per block, on 1-D and 2-D inputs of any layout: a column
    # slice starting mid-block (as assembly's rows[:, n_int:]), a transposed
    # view and a strided slice. The bytes compare signed zeros too: an all
    # -0.0 row sums to the sign that np.add.reduce gives it (+0.0 on numpy
    # 2.4.6), in both
    rng = np.random.default_rng(seed)
    rows = 1 if m is None else m
    p = {"normal": (1.0, 0.0, 0.0, 0.0), "mixed": (0.4, 0.2, 0.2, 0.2),
         "zeros": (0.0, 1.0, 0.0, 0.0)}[mix]
    data = tree_sum_values(rng, (rows, n), p)
    if negative_zero_row and rows:
        data[-1] = -0.0
    if layout == "contiguous":
        x = data
    elif layout == "mid_block_slice":
        wide = rng.standard_normal((rows, offset + n))
        wide[:, offset:] = data
        x = wide[:, offset:]
    elif layout == "transposed":
        x = np.ascontiguousarray(data.T).T
    else:
        wide = rng.standard_normal((rows, 3 * n))
        wide[:, ::3] = data
        x = wide[:, ::3]
    assert np.array_equal(x, data)
    if m is None:
        got, want = tree_sum(x[0]), reference_tree_sum(x[0])
        assert type(got) is float
        assert np.float64(got).tobytes() == np.float64(want).tobytes()
    else:
        got, want = tree_sum(x), reference_tree_sum(x)
        assert got.dtype == np.float64 and got.shape == (m,)
        assert got.tobytes() == want.tobytes()


def test_tree_sum_accuracy_and_determinism():
    rng = np.random.default_rng(31)
    for n in (0, 1, 63, 64, 65, 1000):
        vals = rng.standard_normal(n)
        got = tree_sum(vals)
        assert got == tree_sum(vals)  # bitwise repeatable
        want = math.fsum(vals.tolist()) if n else 0.0
        assert abs(got - want) <= 1e-12 * (1.0 + np.abs(vals).sum())
    assert tree_sum([]) == 0.0


# -------------------------------------------------------------- penalized total

def test_volume_term_counts_interior_support():
    grid = enumerate_lattice(1, 0.5, 2.0, 1.0)  # 4 interior cells of measure 0.5
    form = assemble_form(fractional_kernel(0.5), grid)
    u = np.where(grid.interior, 1.0, 0.0)
    bd = total_energy(form, Field(grid, u), rho=1.0, xi=0.0)
    assert bd.support_count == 4
    assert bd.volume == 2.0
    assert bd.total == bd.dirichlet + bd.volume
    assert bd.dirichlet > 0.0


def test_support_threshold_is_strict():
    grid = enumerate_lattice(1, 0.5, 2.0, 1.0)
    form = assemble_form(fractional_kernel(0.5), grid)
    u = np.where(grid.interior, 1.0, 0.0)
    # u == xi exactly does not count
    assert total_energy(form, Field(grid, u), 1.0, 1.0).support_count == 0
    assert total_energy(form, Field(grid, u), 1.0, 1.0 - 1e-9).support_count == 4
    # zero field above a negative threshold: every interior node counts
    zero = Field(grid, np.zeros(grid.n_nodes))
    assert total_energy(form, zero, 1.0, -1.0).support_count == 4
    assert total_energy(form, zero, 1.0, 0.0).support_count == 0


def test_exterior_nodes_never_enter_the_volume_term():
    grid = enumerate_lattice(1, 0.5, 2.0, 1.0)
    form = assemble_form(fractional_kernel(0.5), grid)
    u = np.where(grid.interior, 0.0, 5.0)  # positive only on exterior nodes
    bd = total_energy(form, Field(grid, u), rho=1.0, xi=0.0)
    assert bd.support_count == 0 and bd.volume == 0.0
    mask = support_mask(grid, Field(grid, u), 0.0)
    assert not mask.any()


def test_total_energy_rejects_bad_parameters():
    form, grid = hand_form()
    f = Field(grid, np.zeros(4))
    with pytest.raises(ConfigurationError):
        total_energy(form, f, rho=-1.0, xi=0.0)
    with pytest.raises(ConfigurationError):
        total_energy(form, f, rho=1.0, xi=math.nan)


# ------------------------------------------------------------------------- tail

def test_tail_of_zero_field_is_zero(grid_1d_small):
    f = Field(grid_1d_small, np.zeros(grid_1d_small.n_nodes))
    assert tail(f, [0.0], 1.0, 0.5) == 0.0


def test_tail_vanishes_for_fields_supported_inside_the_ball(grid_1d_small):
    f = sample_field(grid_1d_small, lambda P: np.where(np.abs(P[:, 0]) < 0.5, 3.0, 0.0))
    assert tail(f, [0.0], 1.0, 0.5) == 0.0


def test_tail_is_linear_and_signed(grid_1d_small):
    rng = np.random.default_rng(37)
    u = random_field_values(grid_1d_small, rng)
    v = random_field_values(grid_1d_small, rng)
    tu = tail(Field(grid_1d_small, u), [0.3], 0.8, 0.5)
    tv = tail(Field(grid_1d_small, v), [0.3], 0.8, 0.5)
    tc = tail(Field(grid_1d_small, 2.0 * u - 3.0 * v), [0.3], 0.8, 0.5)
    assert tc == pytest.approx(2.0 * tu - 3.0 * tv, rel=1e-12, abs=1e-14)
    assert tail(Field(grid_1d_small, -u), [0.3], 0.8, 0.5) == pytest.approx(-tu, rel=1e-13)


def test_tail_of_constant_one_matches_truncated_integral():
    # d = 1, s = 1/2: R^1 * int_{R < |x| <= R_inf} x^-2 dx = 2 (1 - R / R_inf)
    grid = build_grid(1, 0.005, 8.0)
    f = sample_field(grid, lambda P: np.ones(P.shape[0]))
    got = tail(f, [0.0], 1.0, 0.5)
    assert got == pytest.approx(1.75, rel=1e-3)


def test_tail_validates_inputs(grid_1d_small):
    f = Field(grid_1d_small, np.zeros(grid_1d_small.n_nodes))
    with pytest.raises(DomainError):
        tail(f, [0.0], 0.0, 0.5)
    with pytest.raises(ConfigurationError):
        tail(f, [0.0], 1.0, 1.5)
    with pytest.raises(DomainError):
        tail(f, [0.0, 0.0], 1.0, 0.5)


# ------------------------------------------------------------- truncation bound

def test_truncation_bound_closed_form_value():
    # d=1, s=1/2, Lam=1, sup=1, omega=1, R_inf=4:
    # 0.5 * 1 * 1 * 2 * 2^1 * (2*1*2/0.5) * 4^-1 = 4
    grid = build_grid(1, 0.1, 4.0)
    assert truncation_error_bound(grid, 0.5, 1.0, 1.0) == 4.0


def test_truncation_bound_scales_and_edge_cases():
    g4 = build_grid(1, 0.1, 4.0)
    g8 = build_grid(1, 0.1, 8.0)
    for s in (0.3, 0.5, 0.7):
        b4 = truncation_error_bound(g4, s, 1.0, 1.0)
        b8 = truncation_error_bound(g8, s, 1.0, 1.0)
        assert b4 / b8 == pytest.approx(2.0 ** (2.0 * s), rel=1e-12)
    assert truncation_error_bound(g4, 0.5, 1.0, 0.0) == 0.0
    assert truncation_error_bound(g4, 0.5, 2.0, 1.0) == 2.0 * truncation_error_bound(g4, 0.5, 1.0, 1.0)
    with pytest.raises(ConfigurationError):
        truncation_error_bound(g4, 1.2, 1.0, 1.0)
    with pytest.raises(ConfigurationError):
        truncation_error_bound(g4, 0.5, 0.0, 1.0)


def test_truncation_bound_dominates_measured_discarded_mass():
    # extend the window at fixed h; the extra captured pair mass is exactly the
    # energy the smaller window discarded (up to the larger window's own tail)
    def bump(P):
        x = P[:, 0]
        return np.where(np.abs(x) < 1.0, (1.0 - x * x) ** 2, 0.0)

    h = 0.05
    g_small, g_large = build_grid(1, h, 2.0), build_grid(1, h, 4.0)
    e_small = dirichlet_energy(assemble_form(fractional_kernel(0.5), g_small),
                               sample_field(g_small, bump))
    e_large = dirichlet_energy(assemble_form(fractional_kernel(0.5), g_large),
                               sample_field(g_large, bump))
    discarded = e_large - e_small
    bound = truncation_error_bound(g_small, 0.5, 1.0, 1.0)
    assert 0.0 < discarded <= bound
