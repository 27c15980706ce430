"""Pair-sum energy assembly, penalized total, tail functional, truncation bound."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import nlfb.energy
from nlfb import (
    CapacityError,
    ConfigurationError,
    DomainError,
    Field,
    KernelSpec,
    assemble_form,
    build_grid,
    checkerboard_kernel,
    dirichlet_energy,
    enumerate_lattice,
    eval_kernel,
    fractional_kernel,
    modulated_kernel,
    sample_field,
    support_mask,
    tail,
    total_energy,
    truncation_error_bound,
)
from nlfb.energy import _compute_row, tree_sum

from conftest import random_field_values


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
    # 6 unordered pairs minus the one exterior-exterior pair
    assert form.stored_pair_count() == 5
    assert np.array_equal(form.weight_row(0), [0.0, 1.0, 0.25, 0.0])
    assert np.array_equal(form.weight_row(1), [1.0, 0.0, 1.0, 0.25])
    assert np.array_equal(form.row_sums, [1.25, 2.25, 2.25, 1.25])


def test_hand_case_energy_value():
    form, grid = hand_form()
    # 1*(0-1)^2 + 0.25*(0-2)^2 + 1*(1-2)^2 + 0.25*(1-0)^2 + 1*(2-0)^2 = 7.25
    assert dirichlet_energy(form, Field(grid, [0.0, 1.0, 2.0, 0.0])) == 7.25


def test_single_site_indicator_energy_is_row_sum():
    form, grid = hand_form()
    e1 = np.zeros(4)
    e1[1] = 1.0
    assert dirichlet_energy(form, Field(grid, e1)) == form.row_sums[1] == 2.25


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
    form = assemble_form(fractional_kernel(0.5), grid_1d_small)
    ext = np.nonzero(~grid_1d_small.interior)[0]
    for i in ext[:4]:
        row = form.weight_row(i)
        assert np.all(row[ext] == 0.0)
        assert row[i] == 0.0
        # interior partners still interact
        assert np.all(row[grid_1d_small.interior] > 0.0)


def test_assembly_refuses_blocks_above_the_memory_budget(monkeypatch, grid_1d_small):
    block_bytes = 8 * int(grid_1d_small.interior.sum()) * grid_1d_small.n_nodes
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


def test_weight_row_matches_kernel_row_bitwise(grid_1d_small):
    # interior rows are stored; exterior rows are read from the block's column
    cases = [
        (checkerboard_kernel(0.5, 1.0, 1.5, block_size=0.5, multipliers=(1.0, 1.5)),
         grid_1d_small),
        (modulated_kernel(0.5, 1.0, 2.0, amplitude=1.0 / 3.0, frequency=2.0,
                          multiplier=1.5, dim=2), build_grid(2, 0.2, 2.0)),
    ]
    for kernel, grid in cases:
        form = assemble_form(kernel, grid)
        assert form.dense.shape == (int(grid.interior.sum()), grid.n_nodes)
        for i in range(grid.n_nodes):
            assert np.array_equal(form.weight_row(i), _compute_row(grid, kernel, i))


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
