import numpy as np
import pytest
from hypothesis import settings

from nlfb import (KernelSpec, build_grid, checkerboard_kernel, enumerate_lattice,
                  fractional_kernel, modulated_kernel)

# CI selects this profile (pytest --hypothesis-profile=ci): a failing property
# test then prints the blob that reproduces it with @reproduce_failure
settings.register_profile("ci", print_blob=True)


@pytest.fixture(scope="session")
def grid_1d_small():
    # 20 nodes, 10 interior; fast enough for exhaustive checks
    return build_grid(1, 0.2, 2.0)


@pytest.fixture(scope="session")
def grid_1d_medium():
    return build_grid(1, 0.05, 2.0)


@pytest.fixture(scope="session")
def coarse_4node_grid():
    # +-0.25 interior, +-0.75 exterior: the minimal grid with both roles
    return enumerate_lattice(1, 0.5, 1.0, 0.5)


@pytest.fixture(scope="session")
def kernel_s05():
    return fractional_kernel(0.5)


def random_field_values(grid, rng, lo=-1.0, hi=1.0):
    return rng.uniform(lo, hi, grid.n_nodes)


def family_kernel(family, dim, s, block):
    if family == "fractional_laplacian":
        return fractional_kernel(s, lam=1.5, dim=dim)
    if family == "modulated":
        return modulated_kernel(s, 1.0, 2.0, amplitude=1.0 / 3.0, frequency=1.0 / block,
                                multiplier=1.5, dim=dim)
    if family == "checkerboard":
        return checkerboard_kernel(s, 1.0, 3.0, block_size=block,
                                   multipliers=(1.0, 1.5, 3.0), dim=dim)
    return KernelSpec("custom_table", s, 1.0, 2.0, dim,
                      {"block_size": block, "table": {(0, 0): 1.5, (-1, 1): 2.0, (1, 2): 1.25}})


def _gamma(n_int):
    """gamma_k = k u / (1 - k u), u = 2^-53, for k = 2 n_int + 6 rounded
    operations: the most that any term of an energy at n_int interior values
    passes through (see the two bounds below)."""
    k = 2 * n_int + 6
    return k * 2.0 ** -53 / (1.0 - k * 2.0 ** -53)


def reduced_energy_rounding(form, x, b_I, c, rho_cell):
    """A bound on the rounding error of reduced_energies at the interior
    values x (xi = 0). Each of its terms x_i (a_i x_i - W_II[i] . x - 2 b_i)
    passes through at most n + 3 rounded operations, and the sum over the n
    terms, c and the penalty through at most n + 3 more, so the error is at
    most gamma_(2n+6) times the sum of the terms' magnitudes (Higham, Accuracy
    and Stability of Numerical Algorithms, 2nd ed., Lemma 3.3 and section
    3.1). The weights are positive."""
    ax = np.abs(x)
    magnitudes = ax @ (form.row_sums * ax + form.dense @ ax + 2.0 * np.abs(b_I))
    return _gamma(x.shape[0]) * (magnitudes + abs(c) + rho_cell * np.count_nonzero(x > 0.0))


def pair_energy_rounding(form, x, b_I, c, rho_cell):
    """A bound on the rounding error of total_energies' total (the pairwise
    dirichlet_energies plus the penalty) at the interior values x (xi = 0).
    In row i, each pair term w_ij (x_i - x_j)^2 / 2 passes through at most
    n + 3 rounded operations (the difference, its square, the product with
    w_ij, the n - 1 additions of the row's dot and the addition of the
    exterior term) and each exterior term x_i (a_E,i x_i - 2 b_i) through 4.
    The tree sum over the n rows, c and the penalty add at most n + 1 more,
    so the error is at most gamma_(2n+6) times the sum of the terms'
    magnitudes, as for reduced_energy_rounding. The weights are positive.

    The terms cancel: they expand the squares (x - g)^2 of the exterior
    pairs, so the bound scales with c and the pair terms, not with the
    energy."""
    ax = np.abs(x)
    diff = x[:, None] - x[None, :]
    magnitudes = (0.5 * np.sum(form.dense * diff * diff)
                  + ax @ (form.exterior_row_sums * ax + 2.0 * np.abs(b_I)))
    return _gamma(x.shape[0]) * (magnitudes + abs(c) + rho_cell * np.count_nonzero(x > 0.0))


def reference_band_system(form, terms, rho_cell, x_a, x_b):
    """The band system of the bound states x_a and x_b formed on its own,
    against A_LL: with L = supp(x_b), the band B = supp(x_a) minus L and A =
    diag(a_I) - W_II over L and B, one np.linalg.solve against A_LL with
    |B| + 1 right-hand sides gives the Schur complement S = A_BB - A_BL
    A_LL^-1 A_LB, b~ = b_B - A_BL A_LL^-1 b_L and the support energy G(L) =
    c - b_L . A_LL^-1 b_L + rho_cell |L|. Returns (B, S, S^-1, b~, G(L))."""
    b_I, c = terms
    on, band = np.flatnonzero(x_b > 0.0), np.flatnonzero((x_a > 0.0) & ~(x_b > 0.0))
    nodes, n_on = np.concatenate([on, band]), on.shape[0]
    A = -form.dense[np.ix_(nodes, nodes)]
    A[np.diag_indices_from(A)] = form.row_sums[nodes]
    Z = np.linalg.solve(A[:n_on, :n_on], np.column_stack([A[:n_on, n_on:], b_I[on]]))
    schur = A[n_on:, n_on:] - A[n_on:, :n_on] @ Z[:, :-1]
    b_band = b_I[band] - A[n_on:, :n_on] @ Z[:, -1]
    return band, schur, np.linalg.inv(schur), b_band, c - b_I[on] @ Z[:, -1] + rho_cell * n_on


def reference_multiplier(spec, X, Y):
    """(1 - s) m(x, y) on (n, d) batches: (n, d) transformed positions, one
    multiplier per pair."""
    origin = np.asarray(spec.origin, dtype=np.float64)
    Xt, Yt = origin + spec.scale * X, origin + spec.scale * Y
    p = spec.params
    if spec.family == "fractional_laplacian":
        mult = np.full(X.shape[0], spec.lam)
    elif spec.family == "modulated":
        phase = np.sin(p["frequency"] * (Xt[:, 0] + Yt[:, 0]))
        mult = p["multiplier"] * (1.0 + p["amplitude"] * phase)
    elif spec.family == "checkerboard":
        cx = np.floor(Xt / p["block_size"]).astype(np.int64).sum(axis=1) % 2
        cy = np.floor(Yt / p["block_size"]).astype(np.int64).sum(axis=1) % 2
        mults = np.asarray(p["multipliers"], dtype=np.float64)
        mult = mults[(cx + cy) % len(mults)]
    else:
        bi = np.floor(Xt[:, 0] / p["block_size"]).astype(np.int64)
        bj = np.floor(Yt[:, 0] / p["block_size"]).astype(np.int64)
        mult = np.ones(X.shape[0])
        for (i, j), m in p["table"].items():
            mult[((bi == i) & (bj == j)) | ((bi == j) & (bj == i))] = m
    return (1.0 - spec.s) * mult


def reference_row(grid, kernel, i):
    """Weight row w_{i, .} by node, pair by pair from the integer lattice: the
    offset k_j - k_i times h per axis, its squares summed axis by axis, then
    sqrt and the power, times the multiplier at the node positions; 0 at i
    and, for an exterior i, at the exterior pairs (which are never stored)."""
    n = grid.n_nodes
    row = np.zeros(n)
    others = np.arange(n) != i
    steps = (grid.lattice[others] - grid.lattice[i]) * grid.h
    d2 = np.zeros(steps.shape[0])
    for a in range(grid.dim):
        d2 += steps[:, a] * steps[:, a]
    radial = np.sqrt(d2) ** -(grid.dim + 2.0 * kernel.s)
    values = reference_multiplier(kernel, np.broadcast_to(grid.positions[i], steps.shape),
                                  grid.positions[others]) * radial
    m2 = grid.cell_measure * grid.cell_measure
    row[others] = 2.0 * values * m2
    if not grid.interior[i]:
        row[~grid.interior] = 0.0
    return row


def reference_exterior_rows(form):
    """W_IE, the block the form does not store: (n_int, N_E), by stored row and
    in the form's exterior order, from reference_row."""
    return np.array([reference_row(form.grid, form.kernel, i)[form.exterior_idx]
                     for i in form.interior_idx]).reshape(form.interior_idx.shape[0], -1)


def reference_exterior_term(form, u):
    """b_I = W_IE g for u's exterior values g: one np.dot per stored row."""
    g = u[form.exterior_idx]
    return np.array([np.dot(row, g) for row in reference_exterior_rows(form)],
                    dtype=np.float64)
