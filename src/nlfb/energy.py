"""Discrete interaction energy on the truncated lattice.

The Dirichlet part of the energy is the midpoint-quadrature pair sum

    E(u) = sum_{i < j} w_ij (u_i - u_j)^2,    w_ij = 2 K(x_i, x_j) m_i m_j,

over unordered node pairs, excluding self-pairs and pairs with both nodes
exterior (those contribute a data-dependent constant and are dropped, mirroring
the integration region R^{2d} minus (complement of the domain)^2). Pairs
reaching beyond the truncation radius are discarded entirely; the energy mass
lost that way is estimated by truncation_error_bound.

The penalized total adds rho * measure of the strict super-level set
{u > xi} restricted to interior nodes.

Every stored pair has an interior end, so the form keeps only the interior
rows W[I, :] as one (n_int, N) array and their row sums a_I. The columns are
interior-first: column k < n_int is interior node interior_idx[k], the node of
row k, and the exterior nodes follow in ascending order; col_order lists the
node of each column. W_II = dense[:, :n_int] and W_IE = dense[:, n_int:] are
therefore views. An exterior row is read from the block's column for that
node, found through col_order (the kernel is symmetric bit for bit). With the
exterior values g as data, the energy of the interior values x is the reduced
quadratic x . (a_I x) - x . (W_II x) - 2 x . b_I + c, where b_I = W_IE g and
c = sum over interior i and exterior e of w_ie g_e^2; exterior_terms computes
b_I and c, and reduced_energy evaluates the form without reading W_IE.
Assembly runs the kernel's pair formula (eval_kernel's bits) on _ROW_BLOCK
rows at a time, and refuses with CapacityError, before allocating, when the
block would exceed MEMORY_BUDGET_BYTES. All reductions are fixed-block-size
pairwise tree sums, independent of thread count. Row dots run np.vecdot over
blocks of at most _ROW_BLOCK rows, which rounds exactly like one np.dot per
row (not like gemv or einsum) while bounding the temporaries to one block;
a range of rows (all rows, in exterior_terms, reduced_energy and the
analysis) is read as slices of the block, which copies nothing, and a range
within one block as a single np.vecdot.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .errors import CapacityError, ConfigurationError, DomainError
from .grid import Field, Grid
from .kernel import KernelSpec, pair_kernel

_TREE_BLOCK = 64
_ROW_BLOCK = 64
# Largest allocation, in bytes, of the interior weight block or all-pairs arrays.
MEMORY_BUDGET_BYTES = 256 * 2 ** 20

# Volume of the unit ball.
UNIT_BALL_VOLUME = {1: 2.0, 2: math.pi}


def tree_sum(values):
    """Deterministic pairwise tree reduction with a fixed block size.

    The summation order depends only on the length of the input, never on
    thread count or chunking, so repeated runs produce identical bits. A 1-D
    input gives a float; a 2-D input gives each row's sum, with the same bits.
    """
    arr = np.asarray(values, dtype=np.float64)
    rows = arr if arr.ndim == 2 else arr.reshape(1, -1)
    sums = [np.add.reduce(rows[:, k:k + _TREE_BLOCK], axis=1)
            for k in range(0, rows.shape[1], _TREE_BLOCK)] or [np.zeros(rows.shape[0])]
    while len(sums) > 1:
        nxt = [sums[i] + sums[i + 1] for i in range(0, len(sums) - 1, 2)]
        if len(sums) % 2 == 1:
            nxt.append(sums[-1])
        sums = nxt
    return sums[0] if arr.ndim == 2 else float(sums[0][0])


def check_budget(nbytes: int, what: str) -> None:
    """Raise CapacityError before an allocation larger than MEMORY_BUDGET_BYTES."""
    if nbytes > MEMORY_BUDGET_BYTES:
        raise CapacityError(
            f"{what} needs {nbytes} bytes, above the {MEMORY_BUDGET_BYTES}-byte budget")


def rowwise_dots(matrix, rows, v) -> np.ndarray:
    """np.dot(matrix[k], v) for each k in rows, with the rounding of one np.dot
    per row (the sweep's), not gemv's, _ROW_BLOCK rows at a time. A range of
    rows, or more than _ROW_BLOCK consecutive ascending ones, is read as slices
    of matrix (a range within one block as one slice); other rows are gathered."""
    if isinstance(rows, range) and rows.step == 1 and len(rows) <= _ROW_BLOCK:
        return np.vecdot(matrix[rows.start:rows.stop], v)
    if not (isinstance(rows, range) and rows.step == 1):
        rows = np.asarray(rows, dtype=np.int64)
        n = rows.shape[0]
        if n > _ROW_BLOCK and rows[n - 1] - rows[0] == n - 1 and np.all(np.diff(rows) == 1):
            rows = range(int(rows[0]), int(rows[-1]) + 1)
    if isinstance(rows, range):
        blocks = (matrix[k:min(k + _ROW_BLOCK, rows.stop)]
                  for k in range(rows.start, rows.stop, _ROW_BLOCK))
    else:
        blocks = (matrix[rows[k:k + _ROW_BLOCK]] for k in range(0, rows.shape[0], _ROW_BLOCK))
    return np.concatenate([np.vecdot(block, v) for block in blocks] or [np.zeros(0)])


@dataclass
class QuadraticForm:
    """Pairwise weights of the Dirichlet energy on a grid, kept as interior rows."""

    grid: Grid
    kernel: KernelSpec
    dense: np.ndarray             # (n_int, N): row k is w_{col_order[k], col_order[.]}
    row_sums: np.ndarray          # (n_int,): a_i = sum_j w_ij, aligned with dense
    # (N,): the node of each column: the interior nodes, then the exterior ones,
    # each in ascending order, so dense[:, :n_int] is W_II, aligned with the rows
    col_order: np.ndarray
    interior_idx: np.ndarray = dataclass_field(init=False)   # col_order[:n_int]
    row_of: np.ndarray = dataclass_field(init=False)    # stored row per node, -1 if exterior
    # the rows of W_II as views and the row sums as Python floats, by stored
    # row: the coordinate sweep reads them once per visit
    interior_rows: list = dataclass_field(init=False, repr=False)
    row_sums_list: list = dataclass_field(init=False, repr=False)

    def __post_init__(self):
        n_int = self.dense.shape[0]
        self.interior_idx = self.col_order[:n_int]
        self.row_of = np.full(self.grid.n_nodes, -1, dtype=np.int64)
        self.row_of[self.interior_idx] = np.arange(n_int)
        self.interior_rows = list(self.dense[:, :n_int])
        self.row_sums_list = self.row_sums.tolist()

    @property
    def n_nodes(self) -> int:
        return self.grid.n_nodes

    def row_dots(self, u, rows) -> np.ndarray:
        """sum_j w_ij u_j for stored rows and node-ordered u, one np.dot's
        rounding per row over the block's column order."""
        return rowwise_dots(self.dense, rows, u[self.col_order])

    def exterior_dots(self, g, rows) -> np.ndarray:
        """(W_IE g)_i for stored rows, reading only g's exterior entries."""
        n_int = self.dense.shape[0]
        return rowwise_dots(self.dense[:, n_int:], rows, g[self.col_order[n_int:]])


def assemble_form(kernel: KernelSpec, grid: Grid) -> QuadraticForm:
    """Assemble the interior rows of the pair weights w_ij = 2 K(x_i, x_j) m_i m_j,
    with interior-first columns (see QuadraticForm.col_order).

    Raises CapacityError, before allocating, when the (n_int, N) block exceeds
    MEMORY_BUDGET_BYTES.
    """
    if kernel.dim != grid.dim:
        raise ConfigurationError(
            f"kernel dimension {kernel.dim} does not match grid dimension {grid.dim}")
    col_order = np.concatenate([np.nonzero(grid.interior)[0], np.nonzero(~grid.interior)[0]])
    n_int = int(np.count_nonzero(grid.interior))
    check_budget(8 * n_int * grid.n_nodes, "the interior weight block")
    block = np.empty((n_int, grid.n_nodes))
    cols = [np.ascontiguousarray(grid.positions[col_order, a]) for a in range(grid.dim)]
    m2 = grid.cell_measure * grid.cell_measure
    for k in range(0, n_int, _ROW_BLOCK):
        n = min(_ROW_BLOCK, n_int - k)
        rows = pair_kernel(kernel, [c[k:k + n, None] for c in cols], cols,
                           out=block[k:k + n], exclude=(np.arange(n), np.arange(k, k + n)))
        rows *= 2.0
        rows *= m2
    return QuadraticForm(grid, kernel, block, tree_sum(block), col_order)


def dirichlet_energy(form: QuadraticForm, field: Field) -> float:
    """E(u) = sum_{i<j} w_ij (u_i - u_j)^2, a deterministic tree reduction over
    stored rows; interior j weigh 1/2, since both rows see an interior pair."""
    if field.grid is not form.grid and field.grid.n_nodes != form.grid.n_nodes:
        raise ConfigurationError("field and form live on different grids")
    n_int = form.dense.shape[0]
    v = field.values[form.col_order]             # column order: v[k] is row k's value
    half = np.ones(v.shape[0])
    half[:n_int] = 0.5
    block = np.empty((min(_ROW_BLOCK, n_int), v.shape[0]))   # reused per row block
    dots = []
    for k in range(0, n_int, _ROW_BLOCK):
        rows = form.dense[k:k + _ROW_BLOCK]
        diff = block[:rows.shape[0]]
        np.subtract(v[k:k + rows.shape[0], None], v, out=diff)
        np.square(diff, out=diff)
        diff *= half
        dots.append(np.vecdot(rows, diff))
    return tree_sum(np.concatenate(dots or [np.zeros(0)]))


@dataclass
class EnergyBreakdown:
    dirichlet: float
    volume: float
    total: float
    support_count: int
    truncation_bound: float | None = None

    def to_dict(self) -> dict:
        return {
            "dirichlet": self.dirichlet,
            "volume": self.volume,
            "total": self.total,
            "support_count": self.support_count,
            "truncation_bound": self.truncation_bound,
        }


def support_mask(grid: Grid, field: Field, xi) -> np.ndarray:
    """Interior nodes strictly above the threshold xi."""
    return grid.interior & (field.values > xi)


def total_energy(form: QuadraticForm, field: Field, rho, xi) -> EnergyBreakdown:
    """Dirichlet part plus rho * h^d * #{interior nodes with u > xi}."""
    if rho < 0.0:
        raise ConfigurationError(f"rho must be nonnegative, got {rho}")
    if not math.isfinite(xi):
        raise ConfigurationError(f"xi must be finite, got {xi}")
    dirichlet = dirichlet_energy(form, field)
    count = int(np.count_nonzero(support_mask(form.grid, field, xi)))
    volume = rho * form.grid.cell_measure * count
    return EnergyBreakdown(dirichlet, volume, dirichlet + volume, count)


def exterior_terms(form: QuadraticForm, g):
    """(b_I, c) of the reduced form for the exterior values of g (its interior
    entries are not read): b_I = W_IE g, one row dot per stored row, and c = sum
    over interior i and exterior e of w_ie g_e^2, a tree sum."""
    rows = range(form.dense.shape[0])
    return form.exterior_dots(g, rows), tree_sum(form.exterior_dots(g * g, rows))


def reduced_energy(form: QuadraticForm, x, rho, xi, terms) -> float:
    """total_energy(form, u, rho, xi).total, to rounding, from the reduced form,
    for the field u with interior values x (by stored row, x = u[interior_idx])
    and exterior values g, where terms = exterior_terms(form, g).

    W u = W_II x + b_I on the interior rows, so the Dirichlet part is
    x . (a_I x - W_II x - 2 b_I) + c: one row dot of length n_int per stored
    row and one tree sum, in place of total_energy's pairwise sum. The bits do
    not depend on thread count.
    """
    b_I, c = terms
    n_int = x.shape[0]
    factor = form.row_sums * x - rowwise_dots(form.dense[:, :n_int], range(n_int), x)
    factor -= 2.0 * b_I
    dirichlet = tree_sum(x * factor) + c
    count = int(np.count_nonzero(x > xi))
    return dirichlet + rho * form.grid.cell_measure * count


def tail(field: Field, x0, R, s) -> float:
    """Signed tail functional R^(2s) * sum_{|x_i - x0| > R} m_i u_i |x_i - x0|^(-d-2s).

    The sum runs over stored nodes strictly outside B_R(x0); beyond the
    truncation radius the field is 0 and contributes nothing. s is the order
    parameter of the active kernel.
    """
    if not (R > 0.0 and math.isfinite(R)):
        raise DomainError(f"tail radius must be positive, got {R}")
    if not (0.0 < s < 1.0):
        raise ConfigurationError(f"tail order s must lie in (0, 1), got {s}")
    grid = field.grid
    x0 = np.asarray(x0, dtype=np.float64).reshape(-1)
    if x0.shape[0] != grid.dim:
        raise DomainError(f"tail center must have length {grid.dim}")
    diff = grid.positions - x0
    dist = np.sqrt(np.einsum("nd,nd->n", diff, diff))
    outside = dist > R
    terms = grid.cell_measure * field.values[outside] * dist[outside] ** (-(grid.dim + 2.0 * s))
    return R ** (2.0 * s) * tree_sum(terms)


def truncation_error_bound(grid: Grid, s, Lambda_up, field_sup) -> float:
    """Closed-form bound on the pair-energy mass discarded beyond R_inf.

    For |u| <= field_sup supported in the domain ball B_omega and
    R_inf >= 2 omega, every discarded pair satisfies |x - y| >= |y| / 2, so

        2 int_{B_omega} int_{|y| > R_inf} K |u(x)|^2 dy dx
            <= (1 - s) Lam sup^2 |B_omega| 2^(d+2s-1) C_d R_inf^(-2s),

    with C_d = 2 d omega_d / s. Reporting only; doubling R_inf divides the
    bound by 2^(2s).
    """
    if not (0.0 < s < 1.0):
        raise ConfigurationError(f"s must lie in (0, 1), got {s}")
    if Lambda_up <= 0.0 or field_sup < 0.0:
        raise ConfigurationError("Lambda_up must be positive and field_sup nonnegative")
    d = grid.dim
    omega_d = UNIT_BALL_VOLUME[d]
    c_d = 2.0 * d * omega_d / s
    domain_volume = omega_d * grid.omega_radius ** d
    return ((1.0 - s) * Lambda_up * field_sup * field_sup * domain_volume
            * 2.0 ** (d + 2.0 * s - 1.0) * c_d * grid.R_inf ** (-2.0 * s))
