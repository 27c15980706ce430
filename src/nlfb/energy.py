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

Every stored pair has an interior end. The form keeps the interior block
W_II as one (n_int, n_int) array, its rows and columns in the order of
interior_idx, with the row sums a_I over all N nodes and the exterior row sums
a_E. col_order lists the interior nodes, then the exterior ones, each in
ascending order: the columns of a full row. The interior-exterior block W_IE
is never stored. The exterior values g are data, and W_IE meets them only
through b_I = W_IE g and c = sum over interior i and exterior e of w_ie g_e^2,
so the energy of the interior values x is the reduced quadratic
x . (a_I x) - x . (W_II x) - 2 x . b_I + c. On the lattice, K's radial factor
depends on the offset k_j - k_i alone: assembly gathers it from one table
over the lattice offsets (kernel.offset_radial) and scales it by the
multiplier at the node positions. The offset's axis steps are rounded once,
so a weight can differ from eval_kernel at the node positions, whose
difference cancels two rounded coordinates, by a few ulps. Assembly fills
full rows, _ROW_BLOCK rows at a time, into one reused scratch block: it
copies the interior columns into W_II and reduces the exterior ones to a_E
and, when exterior data is given, to its (b_I, c). exterior_terms returns
those terms; for other exterior values it makes one pass of the weight rows
over the interior-exterior pairs, with the bits assembly would give, and
the form keeps the terms of the last values.
Assembly refuses with CapacityError, before allocating, when W_II would
exceed MEMORY_BUDGET_BYTES. All reductions are fixed-block-size pairwise tree
sums, independent of thread count: one np.add.reduce over the full blocks of
all rows, one over the tail block, then the block sums added in pairs. Row
dots run np.vecdot over blocks of at most _ROW_BLOCK rows, which rounds
exactly like one np.dot per row (not like gemv or einsum) while bounding the
temporaries to one block; a range of rows (all rows, in reduced_energy and
the analysis) is read as slices of W_II, which copies nothing, and a range
within one block as a single np.vecdot.
The reduced and the pairwise energies also run on a stack of states in one
pass (reduced_energies, dirichlet_energies, total_energies): a stacked
np.vecdot row dot and a tree_sum over 2-D rows give each row the bits of its
own call, so each state's energy is that of its one-entry call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .errors import ConfigurationError, DomainError
from .grid import Field, Grid, check_budget
from .kernel import KernelSpec, offset_radial, pair_multiplier

_TREE_BLOCK = 64
_ROW_BLOCK = 64
_EVAL_ROWS = 16
# values per block of a stacked pass: as many entries at a time as fit, and at
# least one (dirichlet_energies)
STACK_BLOCK = 1 << 16

# Volume of the unit ball.
UNIT_BALL_VOLUME = {1: 2.0, 2: math.pi}


def tree_sum(values):
    """Deterministic pairwise tree reduction with a fixed block size.

    The summation order depends only on the length of the input, never on
    thread count or chunking, so repeated runs produce identical bits. A 1-D
    input gives a float; a 2-D input gives each row's sum, with the same bits.
    Each row is cut into _TREE_BLOCK-column blocks and a tail of n % _TREE_BLOCK
    columns: one np.add.reduce sums every full block of every row (over a
    (m, n // _TREE_BLOCK, _TREE_BLOCK) view, which copies nothing), another the
    tail, unpadded: numpy sums fewer than 8 values in sequence and more with 8
    accumulators, so zero padding would round differently. The block sums are
    then added in pairs, (0, 1), (2, 3), .., an odd last one carried up, one
    level at a time, until one remains.
    """
    arr = np.asarray(values, dtype=np.float64)
    rows = arr if arr.ndim == 2 else arr.reshape(1, -1)
    m, n = rows.shape
    full, tail = divmod(n, _TREE_BLOCK)
    if not full:
        # the tail is the only block (an empty one sums to 0.0)
        total = np.add.reduce(rows, axis=1)
        return total if arr.ndim == 2 else float(total[0])
    sums = np.add.reduce(rows[:, :n - tail].reshape(m, full, _TREE_BLOCK), axis=2)
    if tail:
        sums = np.concatenate([sums, np.add.reduce(rows[:, n - tail:], axis=1)[:, None]],
                              axis=1)
    while sums.shape[1] > 1:
        pairs = sums[:, 0:-1:2] + sums[:, 1::2]
        sums = np.concatenate([pairs, sums[:, -1:]], axis=1) if sums.shape[1] % 2 else pairs
    return sums[:, 0] if arr.ndim == 2 else float(sums[0, 0])


def check_grid(form: QuadraticForm, field: Field) -> None:
    """Raise ConfigurationError unless the field lives on the form's grid: the
    same Grid object, or one of the same signature (dim, h, omega_radius,
    R_inf), the rule load_field_csv applies to a field file."""
    if field.grid is not form.grid and field.grid.signature != form.grid.signature:
        raise ConfigurationError(f"field grid {field.grid.signature} is not the form's grid "
                                 f"{form.grid.signature} (dim, h, omega_radius, R_inf)")


def rowwise_dots(matrix, rows, v) -> np.ndarray:
    """np.dot(matrix[k], v) for each k in rows, with the rounding of one np.dot
    per row (the sweep's), not gemv's, _ROW_BLOCK rows at a time. A range of
    rows, or more than _ROW_BLOCK consecutive ascending ones, is read as slices
    of matrix (a range within one block as one slice); other rows are gathered.
    A stack v (B, n) gives a row of dots per entry, with the same rows or, for
    rows (B, k), with its own rows (read as slices when B = 1); each row dot
    has the bits of its own call."""
    if isinstance(rows, range) and rows.step == 1 and len(rows) <= _ROW_BLOCK:
        return np.vecdot(matrix[rows.start:rows.stop], v[..., None, :])
    if not (isinstance(rows, range) and rows.step == 1):
        rows = np.asarray(rows, dtype=np.int64)
        line, n = rows.reshape(-1), rows.shape[-1]
        if (line.shape[0] == n > _ROW_BLOCK and line[n - 1] - line[0] == n - 1
                and np.all(np.diff(line) == 1)):
            rows = range(int(line[0]), int(line[-1]) + 1)
    if isinstance(rows, range):
        blocks = (matrix[k:min(k + _ROW_BLOCK, rows.stop)]
                  for k in range(rows.start, rows.stop, _ROW_BLOCK))
    else:
        blocks = (matrix[rows[..., k:k + _ROW_BLOCK]]
                  for k in range(0, rows.shape[-1], _ROW_BLOCK))
    dots = [np.vecdot(block, v[..., None, :]) for block in blocks]
    return dots[0] if len(dots) == 1 else np.concatenate(
        dots or [np.zeros(v.shape[:-1] + (0,))], axis=-1)


@dataclass
class QuadraticForm:
    """Pairwise weights of the Dirichlet energy on a grid: the interior block
    W_II, the row sums, the exterior terms of the last exterior values and,
    once the oracle has run on it, the oracle's pinned inverses."""

    grid: Grid
    kernel: KernelSpec
    dense: np.ndarray             # (n_int, n_int): W_II, row and column k are node col_order[k]
    row_sums: np.ndarray          # (n_int,): a_i = sum_j w_ij over all N nodes, aligned with dense
    exterior_row_sums: np.ndarray     # (n_int,): a_E,i = sum over exterior e of w_ie
    # (N,): the node of each column of a full row: the interior nodes, then the
    # exterior ones, each in ascending order
    col_order: np.ndarray
    interior_idx: np.ndarray = dataclass_field(init=False)   # col_order[:n_int]
    exterior_idx: np.ndarray = dataclass_field(init=False)   # col_order[n_int:]
    row_of: np.ndarray = dataclass_field(init=False)    # stored row per node, -1 if exterior
    # the rows of W_II as views and the row sums as Python floats, by stored
    # row: the coordinate sweep reads them once per visit
    interior_rows: list = dataclass_field(init=False, repr=False)
    row_sums_list: list = dataclass_field(init=False, repr=False)
    # (g_E, (b_I, c)): the exterior values exterior_terms last saw, and their terms
    terms_cache: tuple | None = dataclass_field(default=None, repr=False, compare=False)
    # (masks, S, inv) per support size: the oracle's pinned inverses, which
    # depend only on the form (nlfb.solver._pinned_inverses), once it has run
    pinned_inverses: tuple | None = dataclass_field(default=None, repr=False, compare=False)

    def __post_init__(self):
        n_int = self.dense.shape[0]
        self.interior_idx = self.col_order[:n_int]
        self.exterior_idx = self.col_order[n_int:]
        self.row_of = np.full(self.grid.n_nodes, -1, dtype=np.int64)
        self.row_of[self.interior_idx] = np.arange(n_int)
        self.interior_rows = list(self.dense)
        self.row_sums_list = self.row_sums.tolist()

    @property
    def n_nodes(self) -> int:
        return self.grid.n_nodes

    def row_dots(self, u, rows) -> np.ndarray:
        """sum_j w_ij u_j for stored rows and node-ordered u: one np.dot of the
        W_II row with the interior values, plus b_I = (W_IE g) for u's exterior
        values g."""
        b_I = exterior_terms(self, u)[0]
        return rowwise_dots(self.dense, rows, u[self.interior_idx]) + b_I[rows]


def _lattice_codes(grid: Grid):
    """(codes, span): the lattice's extent per axis, span, and one int64 code per
    node, k_1 (2 span_2 + 1) + k_2 in 2D (k_1 in 1D) for its lattice point k, so
    that code_j - code_i is the C-order index of the offset k_j - k_i in an
    array of shape 2 span + 1, less the index of the zero offset. Raises
    DomainError unless every position is exactly (k + 1/2) h and no lattice
    point repeats (distinct nodes would coincide), and CapacityError when that
    offset table would exceed MEMORY_BUDGET_BYTES."""
    lattice = grid.lattice
    if np.any(grid.positions != (lattice + 0.5) * grid.h):
        raise DomainError("grid positions are not the cell centers (lattice + 1/2) h")
    lo = lattice.min(axis=0)
    span = (lattice.max(axis=0) - lo).tolist()
    check_budget(8 * math.prod(2 * n + 1 for n in span), "the lattice-offset table")
    codes = lattice[:, 0] * (2 * span[1] + 1) + lattice[:, 1] if grid.dim == 2 else lattice[:, 0]
    # one mark per occupied lattice point of the bounding box: fewer marks
    # than nodes means a point repeats
    occupied = np.zeros(math.prod(n + 1 for n in span), dtype=bool)
    occupied[np.ravel_multi_index(tuple((lattice - lo).T), [n + 1 for n in span])] = True
    if np.count_nonzero(occupied) != codes.shape[0]:
        raise DomainError("grid repeats a lattice point: distinct nodes coincide")
    return codes, span


def _weight_rows(kernel: KernelSpec, grid: Grid, col_order, n_int, first_col, block):
    """Yield (k, rows): the pair weights w_ij = 2 K(x_i, x_j) m_i m_j of the stored
    rows k, k + 1, .. (`block` at a time) against the nodes col_order[first_col:],
    in one reused scratch block. With first_col = 0 the rows are full and row i's
    self-pair (column k + i) is 0; with first_col = n_int they are W_IE's rows.

    K's radial factor depends on the lattice offset k_j - k_i alone, so it is
    gathered (np.take) from one table over all offsets (offset_radial) at the
    differences of the nodes' codes (_lattice_codes); the rows are then scaled
    by the multiplier at the node positions, 2 and m^2. A constant multiplier
    (the fractional family) is folded into the table, with 2 and m^2, which
    gives the same bits. The gathers and the multiplier run on at most
    _EVAL_ROWS rows at a time, which bounds their pair-shaped temporaries."""
    if n_int == 0:
        return
    codes, span = _lattice_codes(grid)
    codes = codes[col_order]
    table = offset_radial(kernel, grid.h, span).reshape(-1)
    # code_j - code_i + zero is the table index of the pair's offset
    zero = int(np.ravel_multi_index(span, [2 * n + 1 for n in span]))
    partner_codes = codes[first_col:] + zero
    m2 = grid.cell_measure * grid.cell_measure
    varies = kernel.family != "fractional_laplacian"
    if varies:
        cols = [np.ascontiguousarray(grid.positions[col_order, a]) for a in range(grid.dim)]
        partners = [c[first_col:] for c in cols]
    else:
        table *= pair_multiplier(kernel, None, None)     # reads no coordinate
        table *= 2.0
        table *= m2
    scratch = np.empty((min(block, n_int), partner_codes.shape[0]))
    offsets = np.empty((min(_EVAL_ROWS, n_int), partner_codes.shape[0]), dtype=np.int64)
    for k in range(0, n_int, block):
        n = min(block, n_int - k)
        for r in range(k, k + n, _EVAL_ROWS):
            m = min(_EVAL_ROWS, k + n - r)
            out = scratch[r - k:r - k + m]
            np.subtract(partner_codes, codes[r:r + m, None], out=offsets[:m])
            np.take(table, offsets[:m], out=out, mode="clip")
            if varies:
                out *= pair_multiplier(kernel, [c[r:r + m, None] for c in cols], partners)
        rows = scratch[:n]
        if varies:
            rows *= 2.0
            rows *= m2
        yield k, rows


def _fold_exterior(k, W_IE_rows, g_E, b_I, c_rows):
    """Row dots of a block of W_IE's rows with g_E and g_E^2, into rows k.. of
    b_I and c_rows (rows of them for a stack g_E): the same np.vecdot per row."""
    n = W_IE_rows.shape[0]
    b_I[..., k:k + n] = np.vecdot(W_IE_rows, g_E[..., None, :])
    c_rows[..., k:k + n] = np.vecdot(W_IE_rows, (g_E * g_E)[..., None, :])


def assemble_form(kernel: KernelSpec, grid: Grid, exterior_data=None) -> QuadraticForm:
    """Assemble the interior block W_II of the pair weights w_ij = 2 K(x_i, x_j) m_i m_j,
    with the full row sums a_I and the exterior row sums a_E, and keep the
    exterior terms (b_I, c) of exterior_data (node-ordered; its interior entries
    are not read) when it is given.

    Each block of _ROW_BLOCK rows is evaluated over all N columns into one
    reused scratch block (_weight_rows); its interior columns are copied into
    W_II and its exterior columns are reduced, so W_IE is never stored. Raises
    CapacityError, before allocating, when W_II exceeds MEMORY_BUDGET_BYTES,
    and DomainError when a position is not its cell center (lattice + 1/2) h
    or two nodes share a lattice point.
    """
    if kernel.dim != grid.dim:
        raise ConfigurationError(
            f"kernel dimension {kernel.dim} does not match grid dimension {grid.dim}")
    col_order = np.concatenate([np.nonzero(grid.interior)[0], np.nonzero(~grid.interior)[0]])
    n_int = int(np.count_nonzero(grid.interior))
    check_budget(8 * n_int * n_int, "the interior weight block")
    W_II = np.empty((n_int, n_int))
    row_sums, a_E, b_I, c_rows = (np.empty(n_int) for _ in range(4))
    g_E = (None if exterior_data is None
           else np.asarray(exterior_data, dtype=np.float64)[col_order[n_int:]])
    for k, rows in _weight_rows(kernel, grid, col_order, n_int, 0, _ROW_BLOCK):
        n = rows.shape[0]
        W_II[k:k + n] = rows[:, :n_int]
        row_sums[k:k + n] = tree_sum(rows)
        a_E[k:k + n] = tree_sum(rows[:, n_int:])
        if g_E is not None:
            _fold_exterior(k, rows[:, n_int:], g_E, b_I, c_rows)
    form = QuadraticForm(grid, kernel, W_II, row_sums, a_E, col_order)
    if g_E is not None:     # read-only: later calls with these values return them
        g_E.flags.writeable = b_I.flags.writeable = False
        form.terms_cache = (g_E, (b_I, tree_sum(c_rows)))
    return form


def dirichlet_energy(form: QuadraticForm, field: Field, terms=None) -> float:
    """E(u) = sum_{i<j} w_ij (u_i - u_j)^2, a deterministic tree reduction over
    stored rows. The interior pairs are summed pairwise over W_II, each at 1/2
    since both rows see it; the exterior pairs of row i add
    a_E,i u_i^2 - 2 u_i b_i, and c once, from terms = exterior_terms of u's
    exterior values, computed unless given. The one-entry case of
    dirichlet_energies; a field on another grid (check_grid) is refused."""
    check_grid(form, field)
    b_I, c = terms or exterior_terms(form, field.values)
    return dirichlet_energies(form, field.values[form.interior_idx][None], b_I[None],
                              np.array([c])).item()


def dirichlet_energies(form: QuadraticForm, x, b_I, c) -> np.ndarray:
    """dirichlet_energy of each row of the interior values x (B, n_int), by
    stored row, with exterior terms b_I (B, n_int) and c (B,), each with the
    bits of its own call. Each row block of W_II meets as many entries at a
    time as keep the reused (entries, rows, n_int) block within STACK_BLOCK
    values, and at least one."""
    n_int = form.dense.shape[0]
    block_rows = min(_ROW_BLOCK, n_int)
    step = max(1, STACK_BLOCK // max(1, block_rows * n_int))
    block = np.empty((min(step, x.shape[0]), block_rows, n_int))   # reused per row block
    per_row = np.empty(x.shape)
    for start in range(0, x.shape[0], step):
        x_s = x[start:start + step]
        for k in range(0, n_int, _ROW_BLOCK):
            rows = form.dense[k:k + _ROW_BLOCK]
            diff = block[:x_s.shape[0], :rows.shape[0]]
            np.subtract(x_s[:, k:k + rows.shape[0], None], x_s[:, None, :], out=diff)
            np.square(diff, out=diff)
            diff *= 0.5
            np.vecdot(rows, diff, out=per_row[start:start + step, k:k + rows.shape[0]])
    per_row += x * (form.exterior_row_sums * x - 2.0 * b_I)
    return tree_sum(per_row) + c


@dataclass
class EnergyBreakdown:
    dirichlet: float
    volume: float
    total: float
    support_count: int
    truncation_bound: float | None = None


def support_mask(grid: Grid, field: Field, xi) -> np.ndarray:
    """Interior nodes strictly above the threshold xi."""
    return grid.interior & (field.values > xi)


def total_energy(form: QuadraticForm, field: Field, rho, xi, terms=None) -> EnergyBreakdown:
    """Dirichlet part (terms: see dirichlet_energy) plus rho * h^d * #{interior u > xi}:
    the one-entry case of total_energies; a field on another grid (check_grid)
    is refused."""
    check_grid(form, field)
    return total_energies(form, field.values[None], rho, xi,
                          [terms or exterior_terms(form, field.values)])[0]


def total_energies(form: QuadraticForm, u, rho, xi, terms) -> list:
    """total_energy of each row of the node values u (B, N), terms[i] =
    exterior_terms of row i's exterior values: one stacked dirichlet_energies
    pass, each breakdown with the bits of its own call."""
    if rho < 0.0:
        raise ConfigurationError(f"rho must be nonnegative, got {rho}")
    if not math.isfinite(xi):
        raise ConfigurationError(f"xi must be finite, got {xi}")
    x = u.take(form.interior_idx, axis=1)
    dirichlet = dirichlet_energies(form, x, np.array([b for b, _ in terms]),
                                   np.array([c for _, c in terms]))
    rho_cell = rho * form.grid.cell_measure
    return [EnergyBreakdown(d, rho_cell * k, d + rho_cell * k, k) for d, k in
            zip(dirichlet.tolist(), np.add.reduce(x > xi, axis=1).tolist())]


def exterior_terms(form: QuadraticForm, g):
    """(b_I, c) of the reduced form for the exterior values of g (node-ordered;
    its interior entries are not read): b_I = W_IE g, one row dot per stored
    row, and c = sum over interior i and exterior e of w_ie g_e^2, a tree sum.

    The form keeps the terms of the last exterior values it saw (compared bit
    for bit), so repeated calls with the same data return the same read-only
    arrays; other values take one pass of the weight rows over the
    interior-exterior pairs, with the bits assembly gives for them, and
    replace the kept terms.
    """
    return exterior_terms_all(form, [g])[0]


def exterior_terms_all(form: QuadraticForm, gs) -> list:
    """exterior_terms(form, g) for each g of gs, bit for bit: values equal to
    the kept ones return the kept terms, all others take one pass of the
    weight rows together (np.vecdot over their stack), and the form then keeps
    the terms of the last of gs."""
    g_E = [np.asarray(g, dtype=np.float64)[form.exterior_idx] for g in gs]
    cached = form.terms_cache
    terms = [cached[1] if cached is not None and cached[0].tobytes() == e.tobytes() else None
             for e in g_E]
    new = [i for i, kept in enumerate(terms) if kept is None]
    if new:
        n_int = form.dense.shape[0]
        stack = np.array([g_E[i] for i in new])
        b_I, c_rows = np.empty((len(new), n_int)), np.empty((len(new), n_int))
        for k, rows in _weight_rows(form.kernel, form.grid, form.col_order, n_int, n_int,
                                    _EVAL_ROWS):
            _fold_exterior(k, rows, stack, b_I, c_rows)
        b_I.flags.writeable = False
        for i, b, c in zip(new, b_I, tree_sum(c_rows).tolist()):
            terms[i] = (b, c)
        if new[-1] == len(g_E) - 1:
            g_E[-1].flags.writeable = False
            form.terms_cache = (g_E[-1], terms[-1])
    return terms


def reduced_energy(form: QuadraticForm, x, rho, xi, terms) -> float:
    """total_energy(form, u, rho, xi).total, to rounding, from the reduced form,
    for the field u with interior values x (by stored row, x = u[interior_idx])
    and exterior values g, where terms = exterior_terms(form, g): the
    one-entry case of reduced_energies.

    W u = W_II x + b_I on the interior rows, so the Dirichlet part is
    x . (a_I x - W_II x - 2 b_I) + c: one row dot of length n_int per stored
    row and one tree sum, in place of total_energy's pairwise sum. The bits do
    not depend on thread count.
    """
    b_I, c = terms
    return reduced_energies(form, x[None], rho, xi, b_I[None], np.array([c])).item()


def reduced_energies(form: QuadraticForm, x, rho, xi, b_I, c) -> np.ndarray:
    """reduced_energy of each row of the interior values x (B, n_int), with
    exterior terms b_I (B, n_int) and c (B,): one pass over W_II's rows for
    the stack, each energy with the bits of its own call (rows are made
    contiguous: a strided row rounds its dots differently)."""
    x = np.ascontiguousarray(x)
    factor = form.row_sums * x - rowwise_dots(form.dense, range(x.shape[-1]), x)
    factor -= 2.0 * b_I
    dirichlet = tree_sum(x * factor) + c
    return dirichlet + rho * form.grid.cell_measure * np.add.reduce(x > xi, axis=-1)


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
