"""Quantitative diagnostics for minimizers: free boundaries and the estimates
that are supposed to hold at them.

The free boundary lives on lattice edges: an edge whose endpoints straddle the
threshold xi (one value > xi, the other <= xi) is a free-boundary edge, and
its midpoint is the free-boundary location. Distances (for the nondegeneracy
window and ratio denominators) are measured to these midpoints: for the exact
profile max(x, 0)^s the midpoint sits exactly at the analytic free boundary,
so u(x)/dist^s is identically 1, which is the calibration the diagnostics are
held to. The off-side endpoints are reported as the free-boundary node set.

Everything here is a pure reader: fields and forms are never mutated, and all
iteration orders are fixed by node index, so outputs are deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .energy import QuadraticForm, check_grid, tail, tree_sum
from .errors import ConfigurationError, DataError, DomainError
from .grid import (Ball, Field, ball_distances, check_budget, csv_text, l2_mean_over_ball,
                   nodes_in_ball, region_interior_indices, sup_over_ball)
from .kernel import eval_kernel, rescale_kernel
from .solver import ProblemSpec, harmonic_lifting

NONDEG_WINDOW_CELLS = 2   # nodes closer than 2h to the free boundary are sub-resolution
GROWTH_MIN_RADII = 3


@dataclass
class FreeBoundary:
    """Sign-change edges of {u > xi}: off-side nodes, edge pairs, midpoints."""

    off_nodes: np.ndarray        # sorted interior node indices on the off side
    pairs: list                  # (off_index, on_index) per straddling edge, sorted
    midpoints: np.ndarray        # (n_pairs, dim) edge midpoints

    @property
    def is_empty(self) -> bool:
        return len(self.pairs) == 0


def free_boundary(field: Field, xi: float) -> FreeBoundary:
    """Scan all lattice edges for threshold crossings touching the domain.

    An edge (i, j) between axis neighbors at distance h belongs to the free
    boundary when exactly one endpoint has value > xi and at least one
    endpoint is interior. Off-side endpoints that are interior form the
    reported node set; all straddling edges are reported as pairs.
    """
    grid = field.grid
    on = field.values > xi
    # node i and its +1 neighbour j along each axis, where j exists
    i = np.repeat(np.arange(grid.n_nodes), grid.dim)
    j = grid.indices_of_lattice(np.repeat(grid.lattice, grid.dim, axis=0)
                                + np.tile(np.eye(grid.dim, dtype=np.int64), (grid.n_nodes, 1)))
    i, j = i[j >= 0], j[j >= 0]
    crossing = (on[i] != on[j]) & (grid.interior[i] | grid.interior[j])
    off_idx = np.where(on[i], j, i)[crossing]
    on_idx = np.where(on[i], i, j)[crossing]
    order = np.lexsort((on_idx, off_idx))
    off_idx, on_idx = off_idx[order], on_idx[order]
    pairs = list(zip(off_idx.tolist(), on_idx.tolist()))
    mids = (grid.positions[off_idx] + grid.positions[on_idx]) / 2.0
    # off_idx is sorted: keep the first node of each run (np.unique imports numpy.ma)
    off_interior = off_idx[grid.interior[off_idx]]
    first = np.ones(off_interior.shape[0], dtype=bool)
    first[1:] = off_interior[1:] != off_interior[:-1]
    return FreeBoundary(off_interior[first], pairs, mids)


def select_analysis_points(fb: FreeBoundary, limit=5) -> list:
    """Up to `limit` free-boundary midpoints spread by farthest-point sampling.

    Starts from the lexicographically smallest midpoint; each further point
    maximizes the distance to those already chosen (ties broken by scan
    order), so the selection is deterministic.
    """
    if fb.is_empty:
        return []
    mids = fb.midpoints
    order = np.lexsort(tuple(mids[:, k] for k in reversed(range(mids.shape[1]))))
    chosen = [int(order[0])]
    gap = np.full(mids.shape[0], np.inf)     # distance to the chosen set
    while len(chosen) < min(limit, mids.shape[0]):
        diff = mids - mids[chosen[-1]]
        gap = np.minimum(gap, np.sqrt(np.einsum("nd,nd->n", diff, diff)))
        gap[chosen] = -1.0
        chosen.append(int(order[np.argmax(gap[order])]))
    return [mids[c].copy() for c in chosen]


def dyadic_radii(r_min: float, r_max: float, n_max: int) -> list:
    """r_min, 2 r_min, 4 r_min, ... while <= r_max, capped at n_max values."""
    out = []
    r = float(r_min)
    while r <= r_max * (1.0 + 1e-12) and len(out) < n_max:
        out.append(r)
        r *= 2.0
    return out


def growth_exponent(field: Field, x0, r_min: float, r_max: float, n_dyadic: int,
                    dist=None) -> dict:
    """Fit sup_{B_r(x0)} u ~ C r^slope over dyadic radii by log-log least squares.

    The caller is responsible for centering x0 at (or within h of) the free
    boundary; radii below 2h are refused as sub-resolution and radii whose sup
    is not positive are excluded from the fit and counted. Every radius reads
    dist = ball_distances(grid, x0), computed once unless given.
    """
    grid = field.grid
    x0 = np.asarray(x0, dtype=np.float64).reshape(-1)
    if x0.shape[0] != grid.dim:
        raise DomainError(f"x0 must have length {grid.dim}")
    if n_dyadic < GROWTH_MIN_RADII:
        raise ConfigurationError(f"n_dyadic must be at least {GROWTH_MIN_RADII}")
    if r_min < 2.0 * grid.h:
        raise ConfigurationError(f"r_min = {r_min} is below the resolution floor 2h = {2 * grid.h}")
    limit = grid.omega_radius - float(np.sqrt(x0 @ x0))
    if r_max > limit + 1e-12:
        raise ConfigurationError(f"r_max = {r_max} exceeds the distance {limit} to the domain boundary")
    radii = dyadic_radii(r_min, r_max, n_dyadic)
    dist = ball_distances(grid, x0) if dist is None else dist
    sups = [sup_over_ball(field, x0, r, dist) for r in radii]
    usable = [(r, v) for r, v in zip(radii, sups) if v > 0.0]
    excluded = len(radii) - len(usable)
    if len(usable) < GROWTH_MIN_RADII:
        raise DataError(
            f"growth fit needs at least {GROWTH_MIN_RADII} radii with positive sup, "
            f"got {len(usable)}")
    logs_r = np.log([r for r, _ in usable])
    logs_v = np.log([v for _, v in usable])
    slope, intercept = np.polyfit(logs_r, logs_v, 1)
    return {
        "x0": [float(c) for c in x0],
        "slope": float(slope),
        "C": float(math.exp(intercept)),
        "radii": [float(r) for r in radii],
        "sups": [float(v) for v in sups],
        "excluded": int(excluded),
    }


def nondegeneracy(field: Field, s: float, xi: float = 0.0) -> dict:
    """Worst-case ratio u(x) / dist(x, FB)^s over well-separated positive nodes.

    Tested nodes are interior, above the threshold, and at least 2h away from
    every free-boundary midpoint; the minimum ratio and its node are returned.
    """
    if not 0.0 < s < 1.0:
        raise ConfigurationError(f"s must lie in (0, 1), got {s}")
    grid = field.grid
    fb = free_boundary(field, xi)
    if fb.is_empty:
        raise DataError("free boundary is empty; nondegeneracy is undefined")
    candidates = np.nonzero(grid.interior & (field.values > xi))[0]
    diff = grid.positions[candidates, None, :] - fb.midpoints[None, :, :]
    dist = np.sqrt(np.einsum("cmd,cmd->cm", diff, diff)).min(axis=1)
    far = dist >= NONDEG_WINDOW_CELLS * grid.h
    if not far.any():
        raise DataError("no positive nodes at least 2h away from the free boundary")
    # scalar pow: numpy's vectorized power may round differently
    ratios = [v / d ** s for v, d in zip(field.values[candidates[far]].tolist(),
                                         dist[far].tolist())]
    k = int(np.argmin(ratios))
    return {"c_min": ratios[k], "node": int(candidates[far][k])}


def density(field: Field, x0, radii, xi: float = 0.0, dist=None) -> list:
    """Volume fractions of {u <= xi} and {u > xi} in balls around x0.

    Cell measures are uniform, so the fractions are node-count ratios; they
    sum to 1 exactly because pos_ratio is computed as 1 - zero_ratio. Every
    radius reads dist = ball_distances(grid, x0), computed once unless given.
    """
    grid = field.grid
    x0 = np.asarray(x0, dtype=np.float64).reshape(-1)
    if x0.shape[0] != grid.dim:
        raise DomainError(f"x0 must have length {grid.dim}")
    limit = grid.omega_radius - float(np.sqrt(x0 @ x0))
    dist = ball_distances(grid, x0) if dist is None else dist
    rows = []
    for r in radii:
        r = float(r)
        if r <= 0.0 or r > limit + 1e-12:
            raise DomainError(f"radius {r} is not inside the domain around {x0.tolist()}")
        idx = nodes_in_ball(grid, x0, r, dist)
        if idx.shape[0] == 0:
            raise DomainError(f"ball of radius {r} around {x0.tolist()} contains no nodes")
        zero_ratio = float(np.count_nonzero(field.values[idx] <= xi)) / idx.shape[0]
        rows.append({"r": r, "zero_ratio": zero_ratio, "pos_ratio": 1.0 - zero_ratio})
    return rows


def subsolution_residual(form: QuadraticForm, field: Field) -> dict:
    """Largest energy pairing with a nonnegative hat function.

    For the hat at interior node i the pairing is P_i = sum_j w_ij (u_i - u_j).
    Minimizers satisfy P_i <= 0 up to solver tolerance; a large positive value
    certifies non-minimality. A field on another grid (check_grid) is refused.
    """
    check_grid(form, field)
    idx = form.interior_idx
    if idx.size == 0:
        raise DataError("grid has no interior nodes")
    u = field.values
    pairings = form.row_sums * u[idx] - form.row_dots(u, range(idx.size))
    k = int(np.argmax(pairings))     # the first maximum, as a scan by node index
    return {"max_pairing": float(pairings[k]), "node": int(idx[k])}


def residual_scale(form: QuadraticForm, field: Field) -> float:
    """Natural size of a pairing: max interior row sum times the field oscillation."""
    if form.row_sums.size == 0:
        raise DataError("grid has no interior nodes")
    osc = float(np.max(field.values) - np.min(field.values))
    return float(np.max(form.row_sums)) * osc


def lifting_distance(form: QuadraticForm, field: Field, region: Ball) -> float:
    """Mean-square distance between the field and its harmonic lifting over a
    ball; harmonic_lifting refuses a field on another grid (check_grid)."""
    lifted = harmonic_lifting(form, field, region)
    idx = region_interior_indices(form.grid, region)
    diff = field.values[idx] - lifted.values[idx]
    return float(np.mean(diff * diff))


def scaling_discrepancy(problem: ProblemSpec, field: Field, x0, r: float,
                        kappa: float, xi: float) -> float:
    """Relative mismatch in the zoom identity relating the two discrete energies.

    With v = kappa (u - xi) read on the mapped nodes (x - x0)/r, kernel
    rescaled about (x0, r), rho_hat = kappa^2 r^(2s) rho, and cell measure
    (h/r)^d, the part of the energy over pairs meeting B_r(x0) satisfies
    J_hat(v) = kappa^2 r^(2s-d) J_part(u) exactly, node by node. Both sides
    are evaluated on the same pair set (classified once on the original
    coordinates) and the relative gap is returned; it is zero up to float
    roundoff, which is what the 1e-12 contract measures.

    The pair set ignores the domain-exterior exclusion on purpose: when
    B_r(x0) sits inside the domain the two notions coincide, and for larger
    test radii the identity is still exact on this set.
    """
    grid = problem.grid
    if r <= 0.0 or not math.isfinite(r):
        raise ConfigurationError(f"r must be positive and finite, got {r}")
    if kappa < 0.0 or not math.isfinite(kappa):
        raise ConfigurationError(f"kappa must be nonnegative and finite, got {kappa}")
    if not math.isfinite(xi):
        raise ConfigurationError(f"xi must be finite, got {xi}")
    x0 = np.asarray(x0, dtype=np.float64).reshape(-1)
    if x0.shape[0] != grid.dim:
        raise DomainError(f"x0 must have length {grid.dim}")
    if float(np.sqrt(x0 @ x0)) > grid.R_inf:
        raise DomainError("scaling center lies outside the lattice coverage")

    p = grid.positions
    u = field.values
    diff = p - x0
    inner = np.sqrt(np.einsum("nd,nd->n", diff, diff)) < r
    n = grid.n_nodes
    check_budget(8 * n * (n - 1), "the all-pairs index arrays")
    iu, ju = np.triu_indices(n, 1)
    keep = inner[iu] | inner[ju]
    ii, jj = iu[keep], ju[keep]

    s = problem.kernel.s
    d = grid.dim
    k_orig = eval_kernel(problem.kernel, p[ii], p[jj])
    k_hat = eval_kernel(rescale_kernel(problem.kernel, x0, r), diff[ii] / r, diff[jj] / r)

    v = kappa * (u - xi)
    du = u[ii] - u[jj]
    dv = v[ii] - v[jj]
    m = grid.cell_measure
    m_hat = (grid.h / r) ** d
    # one classification of the penalty support, shared by both sides
    on_count = int(np.count_nonzero(inner & (u > problem.xi)))

    j_part = (2.0 * m * m * tree_sum(k_orig * du * du)
              + problem.rho * m * on_count)
    rho_hat = kappa * kappa * r ** (2.0 * s) * problem.rho
    j_hat = (2.0 * m_hat * m_hat * tree_sum(k_hat * dv * dv)
             + rho_hat * m_hat * on_count)
    target = kappa * kappa * r ** (2.0 * s - d) * j_part
    if j_hat == 0.0:
        return 0.0 if target == 0.0 else math.inf
    return abs(j_hat - target) / abs(j_hat)


# ---------------------------------------------------------------------------
# Aggregated report.

@dataclass
class FreeBoundaryReport:
    fb_nodes: list
    growth: list
    nondeg_constant: float | None
    nondeg_node: int | None
    density: list
    subsolution_max: float
    subsolution_node: int
    lifting_l2: float
    extras: dict = dataclass_field(default_factory=dict)


def build_report(problem: ProblemSpec, form: QuadraticForm, field: Field, points,
                 r_min: float, r_max: float, n_dyadic: int, region: Ball
                 ) -> FreeBoundaryReport:
    """Measure every diagnostic at the given free-boundary points.

    Growth and density share one dyadic radius ladder per point so their
    per-radius tables align. The fitted constant C is additionally reported
    normalized by the point's mean-square ball average plus tail, making it
    comparable across instances; the positive-phase density is measured
    against both candidate exponents (1 and s/slope) without deciding between
    them.
    """
    fb = free_boundary(field, problem.xi)
    growth_rows = []
    density_rows = []
    s = problem.kernel.s
    grid = problem.grid
    for x0 in points:
        x0a = np.asarray(x0, dtype=np.float64).reshape(-1)
        # points close to the domain wall get a correspondingly shorter ladder
        cap = grid.omega_radius - float(np.sqrt(x0a @ x0a))
        # the growth sups, the l2 mean and the density read one distance pass
        dist = ball_distances(grid, x0a)
        g_row = growth_exponent(field, x0, r_min, min(r_max, cap), n_dyadic, dist)
        if not math.isfinite(g_row["slope"]):
            raise DataError(f"growth fit at {g_row['x0']} produced a non-finite slope")
        r_ref = g_row["radii"][-1]
        norm = l2_mean_over_ball(field, x0, r_ref, dist) + tail(field, x0, r_ref, s)
        g_row["normalization"] = float(norm)
        g_row["C_normalized"] = float(g_row["C"] / norm) if norm > 0 else None
        growth_rows.append(g_row)

        rows = density(field, x0, g_row["radii"], problem.xi, dist)
        c1 = min(row["zero_ratio"] for row in rows)
        c2_lin = min(row["pos_ratio"] / row["r"] for row in rows)
        slope = g_row["slope"]
        if slope > 0:
            expo = s / slope
            c2_alt = min(row["pos_ratio"] / row["r"] ** expo for row in rows)
        else:
            expo, c2_alt = None, None
        density_rows.append({
            "x0": g_row["x0"],
            "rows": rows,
            "c1": c1,
            "c2_exponent_1": c2_lin,
            "c2_exponent_s_over_slope": c2_alt,
            "s_over_slope": expo,
        })

    nd_constant = None
    nd_node = None
    if not fb.is_empty:
        nd = nondegeneracy(field, s, problem.xi)
        nd_constant, nd_node = nd["c_min"], nd["node"]
    sub = subsolution_residual(form, field)
    lift = lifting_distance(form, field, region)
    return FreeBoundaryReport(
        fb_nodes=[int(i) for i in fb.off_nodes],
        growth=growth_rows,
        nondeg_constant=nd_constant,
        nondeg_node=nd_node,
        density=density_rows,
        subsolution_max=sub["max_pairing"],
        subsolution_node=sub["node"],
        lifting_l2=lift,
        extras={"n_fb_pairs": len(fb.pairs),
                "subsolution_scale": residual_scale(form, field)},
    )


def point_csv_text(report: FreeBoundaryReport, k: int) -> str:
    """Per-radius CSV of analysis point k: r, sup, zero_ratio, pos_ratio."""
    growth, by_r = report.growth[k], {row["r"]: row for row in report.density[k]["rows"]}
    rows = [by_r[r] for r in growth["radii"]]
    return csv_text(["r", "sup", "zero_ratio", "pos_ratio"],
                    [growth["radii"], growth["sups"], [row["zero_ratio"] for row in rows],
                     [row["pos_ratio"] for row in rows]])
