"""Cell-centered lattice over a truncated ball, and fields living on it.

Nodes are the centers of cubic cells of side h, offset by h/2 so that no node
sits at the origin or exactly on the domain boundary. The computational window
is the ball of radius R_inf; everything outside carries the implicit value 0.
Nodes with |x| < omega_radius are interior (free), nodes with
omega_radius <= |x| <= R_inf are exterior (carry prescribed data). All cells
share the measure h^d.

Node ordering is lexicographic in the coordinates, which makes builds
bit-identical across processes and platforms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CapacityError, ConfigurationError, DataError, DomainError

# Largest allocation, in bytes, of the lattice's bounding box, W_II, a subsystem
# matrix, the oracle's pinned inverses or all-pairs arrays.
MEMORY_BUDGET_BYTES = 256 * 2 ** 20


def check_budget(nbytes: int, what: str) -> None:
    """Raise CapacityError before an allocation larger than MEMORY_BUDGET_BYTES."""
    if nbytes > MEMORY_BUDGET_BYTES:
        raise CapacityError(
            f"{what} needs {nbytes} bytes, above the {MEMORY_BUDGET_BYTES}-byte budget")


@dataclass
class Grid:
    dim: int
    h: float
    omega_radius: float
    R_inf: float
    positions: np.ndarray      # (N, dim) float64, lexicographically sorted
    lattice: np.ndarray        # (N, dim) int64, position = (lattice + 1/2) * h
    interior: np.ndarray       # (N,) bool
    _lookup: tuple | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise ConfigurationError(f"dim must be 1 or 2, got {self.dim}")
        if not (self.h > 0.0 and math.isfinite(self.h)):
            raise ConfigurationError(f"h must be positive, got {self.h}")
        if self.R_inf < 2.0 * self.omega_radius:
            raise ConfigurationError(
                f"truncation radius {self.R_inf} must be at least twice omega_radius")
        self.positions = np.asarray(self.positions, dtype=np.float64).reshape(-1, self.dim)
        self.lattice = np.asarray(self.lattice, dtype=np.int64).reshape(-1, self.dim)
        self.interior = np.asarray(self.interior, dtype=bool).reshape(-1)
        if not (len(self.positions) == len(self.lattice) == len(self.interior)):
            raise ConfigurationError("grid arrays have inconsistent lengths")

    @property
    def n_nodes(self) -> int:
        return self.positions.shape[0]

    @property
    def cell_measure(self) -> float:
        return self.h ** self.dim

    @property
    def signature(self) -> tuple:
        """(dim, h, omega_radius, R_inf), which determine the lattice and the node roles."""
        return (self.dim, self.h, self.omega_radius, self.R_inf)

    def indices_of_lattice(self, ks) -> np.ndarray:
        """Node indices of (m, dim) integer lattice points, -1 where absent (one table lookup)."""
        if self._lookup is None:
            lo = self.lattice.min(axis=0)
            table = np.full(tuple(self.lattice.max(axis=0) - lo + 1), -1, dtype=np.int64)
            table[tuple((self.lattice - lo).T)] = np.arange(self.n_nodes)
            self._lookup = (lo, table)
        lo, table = self._lookup
        ks = np.asarray(ks, dtype=np.int64).reshape(-1, self.dim) - lo
        inside = np.all((ks >= 0) & (ks < table.shape), axis=1)
        return np.where(inside, table[tuple(np.where(inside[:, None], ks, 0).T)], -1)


def build_grid(dim, h, R_inf, omega_radius=1.0) -> Grid:
    """Build the cell-centered lattice covering the ball of radius R_inf.

    Preconditions: h > 0, R_inf >= 2 * omega_radius, and h < omega_radius / 4
    so the domain is resolved by at least a few cells in every direction.
    """
    if dim not in (1, 2):
        raise ConfigurationError(f"dim must be 1 or 2, got {dim}")
    if not (h > 0.0 and math.isfinite(h)):
        raise ConfigurationError(f"h must be positive, got {h}")
    if not (omega_radius > 0.0 and math.isfinite(omega_radius)):
        raise ConfigurationError(f"omega_radius must be positive, got {omega_radius}")
    if not (math.isfinite(R_inf) and R_inf >= 2.0 * omega_radius):
        raise ConfigurationError(
            f"R_inf must be finite and at least 2 * omega_radius, got {R_inf}")
    if not (h < omega_radius / 4.0):
        raise ConfigurationError(
            f"h = {h} is too coarse; require h < omega_radius / 4 = {omega_radius / 4.0}")
    return enumerate_lattice(dim, h, R_inf, omega_radius)


def enumerate_lattice(dim, h, R_inf, omega_radius) -> Grid:
    """Cell-center enumeration without the resolution precondition.

    build_grid is the validated entry point; this exists so deliberately
    coarse lattices (hand-checked combinatorics) can still be constructed.
    CapacityError is raised, before allocating, when one array over the
    bounding box of the lattice, (2 k_max + 1)^dim points, would exceed
    MEMORY_BUDGET_BYTES.
    """
    # Integer range k with |(k + 1/2) h| possibly <= R_inf, trimmed by the norm test.
    k_max = int(math.floor(R_inf / h + 0.5)) + 1
    check_budget(8 * dim * (2 * k_max + 1) ** dim, "the lattice's bounding box")
    axis = np.arange(-k_max, k_max + 1, dtype=np.int64)
    if dim == 1:
        lattice = axis.reshape(-1, 1)
    else:
        ka, kb = np.meshgrid(axis, axis, indexing="ij")
        lattice = np.column_stack([ka.ravel(), kb.ravel()])
    positions = (lattice + 0.5) * h
    norms = np.sqrt(np.einsum("nd,nd->n", positions, positions))
    keep = norms <= R_inf
    lattice = lattice[keep]
    positions = positions[keep]
    norms = norms[keep]

    # Lexicographic order in the coordinates; np.lexsort keys: last is primary.
    order = np.lexsort(tuple(lattice[:, d] for d in reversed(range(dim))))
    lattice = lattice[order]
    positions = positions[order]
    interior = norms[order] < omega_radius
    return Grid(dim, float(h), float(omega_radius), float(R_inf), positions, lattice, interior)


@dataclass(frozen=True)
class Ball:
    """A Euclidean ball used to select node subsets (lifting regions, stats)."""
    center: tuple
    radius: float

    def __post_init__(self):
        if self.radius < 0.0:
            raise DomainError(f"ball radius must be nonnegative, got {self.radius}")


@dataclass
class Field:
    """Values attached to the nodes of a grid; identically 0 beyond R_inf."""
    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64).reshape(-1)
        if self.values.shape[0] != self.grid.n_nodes:
            raise DataError(
                f"field has {self.values.shape[0]} values for {self.grid.n_nodes} nodes")
        if not np.all(np.isfinite(self.values)):
            raise DataError("field contains non-finite values")


def sample_field(grid: Grid, fn) -> Field:
    """Evaluate fn at every node position. fn maps an (N, dim) array to (N,)."""
    values = np.asarray(fn(grid.positions), dtype=np.float64).reshape(-1)
    if values.shape[0] != grid.n_nodes:
        raise DataError("sampled function returned the wrong number of values")
    if not np.all(np.isfinite(values)):
        raise DataError("sampled function produced non-finite values")
    return Field(grid, values)


def ball_distances(grid: Grid, x0) -> np.ndarray:
    """|x_i - x0| for every node: what each ball query around x0 compares with
    its radius, so queries at several radii can share one pass."""
    x0 = np.asarray(x0, dtype=np.float64).reshape(-1)
    if x0.shape[0] != grid.dim:
        raise DomainError(f"ball center must have length {grid.dim}")
    diff = grid.positions - x0
    return np.sqrt(np.einsum("nd,nd->n", diff, diff))


def _ball_mask(grid: Grid, x0, r, dist=None):
    x0 = np.asarray(x0, dtype=np.float64).reshape(-1)
    return (ball_distances(grid, x0) if dist is None else dist) <= r, x0


def nodes_in_ball(grid: Grid, x0, r, dist=None) -> np.ndarray:
    """Indices of nodes inside the closed ball B_r(x0); dist =
    ball_distances(grid, x0), computed unless given."""
    mask, _ = _ball_mask(grid, x0, r, dist)
    return np.nonzero(mask)[0]


def region_interior_indices(grid: Grid, region: Ball) -> np.ndarray:
    """Interior node indices of a ball region that must sit inside the domain.

    Shared by the harmonic lifting and the lifting-distance diagnostic so both
    always agree on which nodes a region denotes.
    """
    center = np.asarray(region.center, dtype=np.float64).reshape(-1)
    if center.shape[0] != grid.dim:
        raise DomainError(f"region center must have length {grid.dim}")
    if float(np.sqrt(center @ center)) + region.radius > grid.omega_radius + 1e-12:
        raise DomainError("region must lie inside the domain ball")
    mask, _ = _ball_mask(grid, center, region.radius)
    idx = np.nonzero(mask & grid.interior)[0]
    if idx.shape[0] == 0:
        raise DomainError("region contains no interior nodes")
    return idx


def sup_over_ball(field: Field, x0, r, dist=None) -> float:
    """Supremum of the field over B_r(x0) cap B_R_inf, as seen by the lattice.

    If the ball pokes outside the truncation radius, the implicit value 0 of
    the beyond-truncation region competes in the maximum. A ball lying entirely
    beyond R_inf returns 0 by that convention; a ball that should contain nodes
    but does not is a domain error. dist = ball_distances(grid, x0), computed
    unless given.
    """
    grid = field.grid
    mask, x0 = _ball_mask(grid, x0, r, dist)
    center_norm = float(np.sqrt(np.dot(x0, x0)))
    if not mask.any():
        if center_norm - r > grid.R_inf:
            return 0.0
        raise DomainError("ball contains no grid nodes")
    value = float(field.values[mask].max())
    if center_norm + r > grid.R_inf:
        value = max(value, 0.0)
    return value


def l2_mean_over_ball(field: Field, x0, r, dist=None) -> float:
    """Cell-measure-weighted root mean square of the field over B_r(x0); dist =
    ball_distances(grid, x0), computed unless given."""
    grid = field.grid
    mask, x0 = _ball_mask(grid, x0, r, dist)
    if not mask.any():
        if float(np.sqrt(np.dot(x0, x0))) - r > grid.R_inf:
            return 0.0
        raise DomainError("ball contains no grid nodes")
    m = grid.cell_measure
    vals = field.values[mask]
    return float(math.sqrt((m * np.sum(vals * vals)) / (m * vals.shape[0])))


# ---------------------------------------------------------------------------
# Field serialization: CSV with a grid signature line.

def csv_text(header, columns) -> str:
    """Comma-separated lines, each ending in a newline: the header, then one
    row per position of the columns, floats (numpy.float64 among them) as
    repr(float(v)) and everything else via str.

    The columns are sequences of equal length; a float64 array is read as it
    is. Rendering goes a column at a time. The columns that hold only floats
    render each distinct value once, told apart by its bits, so -0.0 and 0.0
    keep their own texts.
    """
    # per column, which of its values are floats: {True} all, {False} none, else some
    kinds = [{True} if isinstance(c, np.ndarray) and c.dtype == np.float64
             else {issubclass(t, float) for t in set(map(type, c))} for c in columns]
    floats = np.array([c for c, kind in zip(columns, kinds) if kind == {True}],
                      dtype=np.float64)
    bits, where = np.unique(floats.view(np.int64), return_inverse=True)
    texts = np.array(list(map(repr, bits.view(np.float64).tolist())), dtype=object)
    float_columns = iter(texts[where.reshape(floats.shape)].tolist())
    columns = [next(float_columns) if kind == {True} else map(str, c) if kind == {False}
               else [repr(float(v)) if isinstance(v, float) else str(v) for v in c]
               for c, kind in zip(columns, kinds)]
    return "\n".join([",".join(header), *map(",".join, zip(*columns))]) + "\n"


def field_csv_text(field: Field) -> str:
    """Render `# d h omega R_inf` then `index,x1[,x2],role,value` rows."""
    grid = field.grid
    cols = ["index"] + [f"x{d + 1}" for d in range(grid.dim)] + ["role", "value"]
    columns = [range(grid.n_nodes), *grid.positions.T,
               np.where(grid.interior, "interior", "exterior").tolist(), field.values]
    return "# " + " ".join(map(repr, grid.signature)) + "\n" + csv_text(cols, columns)


def load_field_csv(grid: Grid, path) -> Field:
    """Load a file holding field_csv_text, validating the grid signature."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise DataError(f"cannot read field file {path!r}: {exc}") from exc
    if len(lines) < 2 or not lines[0].startswith("#"):
        raise DataError(f"{path}: missing grid signature line")
    sig = lines[0][1:].split()
    if len(sig) != 4:
        raise DataError(f"{path}: signature must be '# d h omega R_inf'")
    try:
        sig_dim = int(sig[0])
        sig_h, sig_omega, sig_R = (float(v) for v in sig[1:])
    except ValueError as exc:
        raise DataError(f"{path}: malformed signature: {exc}") from exc
    if (sig_dim, sig_h, sig_omega, sig_R) != grid.signature:
        raise DataError(
            f"{path}: field was written for grid (d={sig_dim}, h={sig_h}, "
            f"omega={sig_omega}, R_inf={sig_R}), not the target grid")

    rows = lines[2:]
    if len(rows) != grid.n_nodes:
        raise DataError(f"{path}: expected {grid.n_nodes} rows, found {len(rows)}")
    values = np.empty(grid.n_nodes)
    for row_no, row in enumerate(rows):
        parts = row.split(",")
        if len(parts) != grid.dim + 3:
            raise DataError(f"{path}: row {row_no} has {len(parts)} columns")
        try:
            idx = int(parts[0])
            value = float(parts[-1])
        except ValueError as exc:
            raise DataError(f"{path}: row {row_no} malformed: {exc}") from exc
        if idx != row_no:
            raise DataError(f"{path}: row {row_no} carries index {idx}; rows must be in order")
        role = parts[-2]
        expected_role = "interior" if grid.interior[row_no] else "exterior"
        if role != expected_role:
            raise DataError(f"{path}: row {row_no} role {role!r} != grid role {expected_role!r}")
        values[row_no] = value
    if not np.all(np.isfinite(values)):
        raise DataError(f"{path}: non-finite field values")
    return Field(grid, values)
