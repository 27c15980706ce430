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
rows W[I, :] as one (n_int, N) array, plus the row sums of all N nodes; an
exterior row is read from the block's column (the kernel is symmetric bit for
bit). Assembly refuses with CapacityError, before allocating, when the block
would exceed MEMORY_BUDGET_BYTES. All reductions are fixed-block-size
pairwise tree sums, independent of thread count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .errors import CapacityError, ConfigurationError, DomainError
from .grid import Field, Grid
from .kernel import KernelSpec, eval_kernel

_TREE_BLOCK = 64
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


@dataclass
class QuadraticForm:
    """Pairwise weights of the Dirichlet energy on a grid, kept as interior rows."""

    grid: Grid
    kernel: KernelSpec
    dense: np.ndarray             # (n_int, N): row k is w_{interior_idx[k], .}
    row_sums: np.ndarray          # a_i = sum_j w_ij for all N nodes
    interior_idx: np.ndarray = dataclass_field(init=False)
    row_of: np.ndarray = dataclass_field(init=False)    # stored row per node, -1 if exterior

    def __post_init__(self):
        self.interior_idx = np.nonzero(self.grid.interior)[0]
        self.row_of = np.full(self.grid.n_nodes, -1, dtype=np.int64)
        self.row_of[self.interior_idx] = np.arange(self.interior_idx.shape[0])

    @property
    def n_nodes(self) -> int:
        return self.grid.n_nodes

    def weight_row(self, i) -> np.ndarray:
        """Full weight row w_{i, .} with zeros at i and at excluded pairs."""
        k = self.row_of[i]
        if k >= 0:
            return self.dense[k]
        row = np.zeros(self.n_nodes)
        row[self.interior_idx] = self.dense[:, i]
        return row

    def row_dots(self, u, rows) -> np.ndarray:
        """sum_j w_ij u_j for stored rows, one np.dot each: the sweep's rounding, not gemv's."""
        return np.array([np.dot(self.dense[k], u) for k in rows], dtype=np.float64)

    def stored_pair_count(self) -> int:
        """Number of unordered pairs the form keeps (no self, no ext-ext)."""
        n = self.grid.n_nodes
        n_ext = int(np.count_nonzero(~self.grid.interior))
        return n * (n - 1) // 2 - n_ext * (n_ext - 1) // 2


def _compute_row(grid: Grid, kernel: KernelSpec, i) -> np.ndarray:
    n = grid.n_nodes
    row = np.zeros(n)
    others = np.arange(n) != i
    values = eval_kernel(kernel, grid.positions[i], grid.positions[others])
    m2 = grid.cell_measure * grid.cell_measure
    row[others] = 2.0 * values * m2
    if not grid.interior[i]:
        row[~grid.interior] = 0.0
    return row


def assemble_form(kernel: KernelSpec, grid: Grid) -> QuadraticForm:
    """Assemble the interior rows of the pair weights w_ij = 2 K(x_i, x_j) m_i m_j.

    Raises CapacityError, before allocating, when the (n_int, N) block exceeds
    MEMORY_BUDGET_BYTES.
    """
    if kernel.dim != grid.dim:
        raise ConfigurationError(
            f"kernel dimension {kernel.dim} does not match grid dimension {grid.dim}")
    interior_idx = np.nonzero(grid.interior)[0]
    check_budget(8 * interior_idx.shape[0] * grid.n_nodes, "the interior weight block")
    block = np.empty((interior_idx.shape[0], grid.n_nodes))
    for k, i in enumerate(interior_idx):
        block[k] = _compute_row(grid, kernel, i)
    row_sums = np.empty(grid.n_nodes)
    row_sums[grid.interior] = tree_sum(block)
    row_sums[~grid.interior] = tree_sum(block[:, ~grid.interior].T)   # nonzero at interior j only
    return QuadraticForm(grid, kernel, block, row_sums)


def dirichlet_energy(form: QuadraticForm, field: Field) -> float:
    """E(u) = sum_{i<j} w_ij (u_i - u_j)^2, a deterministic tree reduction over
    stored rows; interior j weigh 1/2, since both rows see an interior pair."""
    if field.grid is not form.grid and field.grid.n_nodes != form.grid.n_nodes:
        raise ConfigurationError("field and form live on different grids")
    u = field.values
    half = np.where(form.grid.interior, 0.5, 1.0)
    return tree_sum([np.dot(row, (u[i] - u) ** 2 * half)
                     for i, row in zip(form.interior_idx.tolist(), form.dense)])


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
