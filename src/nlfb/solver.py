"""Minimization of the penalized nonlocal energy on the lattice.

The discrete objective over interior values (exterior values are data) is

    J(u) = sum_{i<j} w_ij (u_i - u_j)^2 + rho * h^d * #{interior i : u_i > xi},

with u >= 0 enforced in the one_phase setting. The workhorse is coordinate
descent with exact single-variable minimization: freezing all nodes but i,
the objective in t = u_i is a * t^2 - 2 * b * t plus the penalty indicator,
with a = sum_j w_ij and b = sum_j w_ij u_j, so the on-candidate is the
quadratic vertex b / a and the off-candidate is the vertex clamped into the
off region (t <= xi, intersected with t >= 0 in one_phase). Ties resolve to
off. Sweeps visit interior nodes in a seed-shuffled order refreshed every
sweep; the exact energy changes of the visits are summed into a tracked
energy, and a sweep moving it by less than 1e-13 * (1 + |energy|) stops.

Plain sweeps alone stall at coarse accuracy on ill-conditioned quadratics, so
between batches of sweeps the solver polishes: it solves the quadratic exactly
(preconditioned CG) over the currently unpinned nodes with the pinned values
held fixed, and accepts the candidate only if the true objective strictly
decreases. This preserves every contract of the sweep loop (monotone energy,
same stopping rule) while reaching linear-solver accuracy on the final
support, which the stationarity diagnostics require. The pairwise energy is
recomputed only at the start, at polish boundaries and at exit, where the
tracked energy must match it to 1e-9 * (1 + |energy|).

Restarts run coordinate descent from deterministic initializations and reduce
by the lexicographic key (energy, restart seed); NLFB_THREADS caps how many
run concurrently, with no effect on results. A brute-force oracle enumerates
all interior supports (capacity-capped, xi = 0 only) for ground truth.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .energy import (EnergyBreakdown, QuadraticForm, assemble_form, total_energy,
                     truncation_error_bound)
from .errors import CapacityError, ConfigurationError, DataError, SolverError
from .grid import Ball, Field, Grid, region_interior_indices
from .kernel import KernelSpec

PHASES = ("one_phase", "two_phase")

EPS_STOP_FACTOR = 1e-13
ENERGY_CHECK_RTOL = 1e-9      # monotonicity and tracked-vs-recomputed tolerance
DEFAULT_MAX_SWEEPS = 2000
POLISH_PERIOD = 25
CG_TOL = 1e-12
ORACLE_MAX_INTERIOR = 14
ORACLE_TIE_RTOL = 1e-10


def thread_count() -> int:
    """Worker cap from NLFB_THREADS (default 1). Affects speed only, never results."""
    raw = os.environ.get("NLFB_THREADS", "")
    if not raw:
        return 1
    try:
        n = int(raw)
    except ValueError as exc:
        raise ConfigurationError(f"NLFB_THREADS must be an integer, got {raw!r}") from exc
    return max(1, n)


@dataclass
class ProblemSpec:
    """A penalized minimization instance: kernel, grid, data, and parameters."""

    kernel: KernelSpec
    grid: Grid
    exterior_data: np.ndarray   # full-length; interior entries are zeroed
    rho: float
    xi: float = 0.0
    phase: str = "one_phase"

    def __post_init__(self):
        if self.phase not in PHASES:
            raise ConfigurationError(f"phase must be one of {PHASES}, got {self.phase!r}")
        if not (self.rho >= 0.0 and math.isfinite(self.rho)):
            raise ConfigurationError(f"rho must be finite and nonnegative, got {self.rho}")
        if not math.isfinite(self.xi):
            raise ConfigurationError(f"xi must be finite, got {self.xi}")
        if self.kernel.dim != self.grid.dim:
            raise ConfigurationError("kernel and grid dimensions differ")
        data = np.asarray(self.exterior_data, dtype=np.float64).reshape(-1)
        if data.shape[0] != self.grid.n_nodes:
            raise ConfigurationError("exterior_data must provide one value per grid node")
        if not np.all(np.isfinite(data)):
            raise DataError("exterior_data contains non-finite values")
        data = np.where(self.grid.interior, 0.0, data)
        if self.phase == "one_phase" and np.any(data < 0.0):
            raise ConfigurationError("one_phase requires nonnegative exterior data")
        self.exterior_data = data

    def exterior_field(self) -> Field:
        """Exterior data extended by zero over the interior."""
        return Field(self.grid, self.exterior_data.copy())


@dataclass
class MinimizeResult:
    field: Field
    energy: EnergyBreakdown
    support: np.ndarray          # sorted interior indices with u > xi
    sweeps: int
    restarts_used: int
    converged: bool
    best_restart_seed: int
    tied_supports: list | None = None
    form: QuadraticForm | None = None    # the form the result was computed with

    def to_dict(self) -> dict:
        return {
            "field": [float(v) for v in self.field.values],
            "energy": self.energy.to_dict(),
            "support": [int(i) for i in self.support],
            "sweeps": self.sweeps,
            "restarts_used": self.restarts_used,
            "converged": self.converged,
            "best_restart_seed": self.best_restart_seed,
            "tied_supports": (None if self.tied_supports is None
                              else [[int(i) for i in s] for s in self.tied_supports]),
        }


# ---------------------------------------------------------------------------
# Preconditioned conjugate gradients on dense SPD systems.

def _pcg(A, b, x0, rtol=CG_TOL, maxiter=None):
    """Jacobi-preconditioned CG. Returns (x, relative_residual, iterations)."""
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


def _subsystem(form: QuadraticForm, free_idx, u):
    """Dense SPD subsystem over free nodes with the complement held at u.

    A = diag(a_i) - W restricted to free nodes; b_i = sum over pinned j of
    w_ij u_j. SPD holds because every interior node couples to at least one
    node outside any proper free set (exterior couplings are always stored).
    """
    rows = form.row_of[free_idx]
    A = -form.dense[rows[:, None], free_idx]
    A.flat[::free_idx.shape[0] + 1] = form.row_sums[free_idx]
    u_pinned = u.copy()
    u_pinned[free_idx] = 0.0
    return A, form.row_dots(u_pinned, rows)


def harmonic_lifting(form: QuadraticForm, field: Field, region: Ball, rtol=CG_TOL) -> Field:
    """Replace the field inside a ball region by its energy-minimizing values.

    The region must lie inside the domain ball. The lifted values solve the
    SPD stationarity system sum_j w_ij (h_i - h_j) = 0 for region nodes, with
    all other values (including the implicit zeros beyond truncation) fixed.
    """
    grid = form.grid
    region_idx = region_interior_indices(grid, region)
    A, b = _subsystem(form, region_idx, field.values)
    x, _, _ = _pcg(A, b, field.values[region_idx], rtol=rtol)
    values = field.values.copy()
    values[region_idx] = x
    return Field(grid, values)


# ---------------------------------------------------------------------------
# Coordinate descent.

def _visit(a, b, rho_cell, xi, one_phase):
    """Exact minimizer of a t^2 - 2 b t + rho_cell * [t > xi] over the feasible t.

    Returns the chosen value. The off region is t <= xi (intersected with
    t >= 0 in one_phase); the on region is its complement in the feasible set.
    Ties prefer off (the smaller support).
    """
    v = b / a
    best = None           # (energy, on_flag, value)
    if one_phase:
        if xi >= 0.0:
            t_off = min(max(v, 0.0), xi)
            best = (a * t_off * t_off - 2.0 * b * t_off, 0, t_off)
        t_on = max(v, 0.0)
        if t_on > xi:
            e_on = a * t_on * t_on - 2.0 * b * t_on + rho_cell
            cand = (e_on, 1, t_on)
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


def _sweep(form: QuadraticForm, u, order, rho_cell, xi, one_phase) -> float:
    """One full coordinate sweep, in place; returns the summed energy change,
    exactly 0 when no value changes."""
    rows, row_sums = form.dense, form.row_sums
    change = 0.0
    for i, k in zip(order.tolist(), form.row_of[order].tolist()):
        a, b, t_old = row_sums[i], float(np.dot(rows[k], u)), float(u[i])
        t = _visit(a, b, rho_cell, xi, one_phase)
        if t != t_old:
            change += (a * (t * t - t_old * t_old) - 2.0 * b * (t - t_old)
                       + rho_cell * (int(t > xi) - int(t_old > xi)))
            u[i] = t
    return change


def _solve_free(form: QuadraticForm, free_idx, values, one_phase, solve):
    """Solve A x = b (solve(A, b, x0)) over free_idx into values, in place; in one_phase,
    pin nonpositive solutions to 0 and re-solve the rest until sign-feasible."""
    while free_idx.shape[0] > 0:
        A, b = _subsystem(form, free_idx, values)
        x = solve(A, b, values[free_idx])
        values[free_idx] = x
        if not (one_phase and np.any(x < 0.0)):
            break
        values[free_idx[x <= 0.0]] = 0.0
        free_idx = free_idx[x > 0.0]
    return values


def _polish(problem: ProblemSpec, form: QuadraticForm, u):
    """Joint exact solve over the unpinned interior nodes; None if there are none.

    A node is pinned when it sits exactly at a clamp value (xi, or 0 in
    one_phase); every other interior node is stationary for the current
    region assignment and is solved for jointly. In one_phase, negative
    solutions are pinned to 0 and the reduced system is re-solved until the
    result is sign-feasible.
    """
    free = problem.grid.interior & (u != problem.xi)
    if problem.phase == "one_phase":
        free = free & (u != 0.0)
    free_idx = np.nonzero(free)[0]
    if free_idx.shape[0] == 0:
        return None
    return _solve_free(form, free_idx, u.copy(), problem.phase == "one_phase",
                       lambda A, b, x0: _pcg(A, b, x0)[0])


def _finalize(problem: ProblemSpec, form: QuadraticForm, u, sweeps, converged,
              seed, restarts_used=1) -> MinimizeResult:
    field = Field(problem.grid, u.copy())
    breakdown = total_energy(form, field, problem.rho, problem.xi)
    breakdown.truncation_bound = truncation_error_bound(
        problem.grid, problem.kernel.s, problem.kernel.Lam,
        float(np.max(np.abs(u))) if u.size else 0.0)
    support = np.nonzero(problem.grid.interior & (u > problem.xi))[0]
    return MinimizeResult(field, breakdown, support, sweeps, restarts_used, converged, seed,
                          form=form)


def coordinate_descent(problem: ProblemSpec, init: Field, seed=0,
                       max_sweeps=DEFAULT_MAX_SWEEPS, form: QuadraticForm | None = None
                       ) -> MinimizeResult:
    """Descend from init with seed-shuffled sweeps; energy never increases.

    The initialization must agree with the exterior data and satisfy the phase
    constraint. Stops once a sweep moves the tracked energy by less than
    1e-13 * (1 + |energy|) and a polish step can no longer improve it. Raises
    SolverError when the energy rises, or the tracked energy drifts from the
    recomputed one, by more than 1e-9 * (1 + |energy|).
    """
    if form is None:
        form = assemble_form(problem.kernel, problem.grid)
    grid = problem.grid
    u = init.values.copy()
    if not np.array_equal(u[~grid.interior], problem.exterior_data[~grid.interior]):
        raise ConfigurationError("initialization does not match the exterior data")
    one_phase = problem.phase == "one_phase"
    if one_phase and np.any(u < 0.0):
        raise ConfigurationError("one_phase initialization must be nonnegative")

    rng = np.random.default_rng(seed)
    interior_idx = np.nonzero(grid.interior)[0]
    rho_cell = problem.rho * grid.cell_measure

    def energy_of(vals):
        return total_energy(form, Field(grid, vals), problem.rho, problem.xi).total

    def tol(e):
        return ENERGY_CHECK_RTOL * (1.0 + abs(e))

    e_cur = energy_of(u)      # tracked from the sweeps' changes
    e_checked = e_cur         # recomputed at the last polish boundary
    sweeps = 0
    converged = False
    while sweeps < max_sweeps:
        reached_stop = False
        for _ in range(POLISH_PERIOD):
            if sweeps >= max_sweeps:
                break
            order = rng.permutation(interior_idx)
            change = _sweep(form, u, order, rho_cell, problem.xi, one_phase)
            sweeps += 1
            if change > tol(e_cur):
                raise SolverError(
                    f"energy increased during a sweep ({e_cur} -> {e_cur + change})")
            e_cur += change
            if -change < EPS_STOP_FACTOR * (1.0 + abs(e_cur)):
                reached_stop = True
                break
        e_now = energy_of(u)
        if abs(e_now - e_cur) > tol(e_now):
            raise SolverError(f"tracked energy {e_cur} drifted from the recomputed {e_now}")
        if e_now > e_checked + tol(e_checked):
            raise SolverError(f"energy rose between polish boundaries ({e_checked} -> {e_now})")
        e_cur = e_now
        polished = _polish(problem, form, u)
        improved = False
        if polished is not None:
            e_pol = energy_of(polished)
            if e_pol < e_cur:
                u = polished
                e_cur = e_pol
                improved = True
        e_checked = e_cur
        if reached_stop and not improved:
            converged = True
            break
    return _finalize(problem, form, u, sweeps, converged, seed)


def lifting_initialization(problem: ProblemSpec, form: QuadraticForm) -> Field:
    """Harmonic lifting of the exterior data over the whole domain ball,
    clamped to be nonnegative in one_phase."""
    base = problem.exterior_field()
    lifted = harmonic_lifting(form, base, Ball((0.0,) * problem.grid.dim,
                                               problem.grid.omega_radius))
    if problem.phase == "one_phase":
        values = np.maximum(lifted.values, 0.0)
        return Field(problem.grid, values)
    return lifted


def minimize(problem: ProblemSpec, n_restarts=4, seed=0, max_sweeps=DEFAULT_MAX_SWEEPS,
             form: QuadraticForm | None = None) -> MinimizeResult:
    """Best of n_restarts coordinate descents from deterministic inits.

    Initializations: (a) the harmonic lifting of the exterior data, (b) the
    zero extension, (c) n_restarts - 2 random interior supports carrying the
    lifting values. Selection is by the lexicographic key (energy, restart
    seed), so the result is independent of execution order and thread count.
    The form is assembled unless given, and is returned on the result; assembly
    raises CapacityError when the interior weight block exceeds the memory budget.
    """
    if n_restarts < 1:
        raise ConfigurationError(f"n_restarts must be at least 1, got {n_restarts}")
    if form is None:
        form = assemble_form(problem.kernel, problem.grid)
    grid = problem.grid
    lifted = lifting_initialization(problem, form)
    inits = [lifted]
    if n_restarts >= 2:
        inits.append(problem.exterior_field())
    interior_idx = np.nonzero(grid.interior)[0]
    for k in range(2, n_restarts):
        rng = np.random.default_rng([seed, k])
        mask = rng.random(interior_idx.shape[0]) < 0.5
        values = problem.exterior_data.copy()
        values[interior_idx[mask]] = lifted.values[interior_idx[mask]]
        inits.append(Field(grid, values))

    def run(k):
        return coordinate_descent(problem, inits[k], seed=seed + k,
                                  max_sweeps=max_sweeps, form=form)

    workers = min(thread_count(), len(inits))
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run, range(len(inits))))
    else:
        results = [run(k) for k in range(len(inits))]

    best = min(results, key=lambda r: (r.energy.total, r.best_restart_seed))
    best.restarts_used = len(results)
    return best


# ---------------------------------------------------------------------------
# Brute-force ground truth by support enumeration.

def oracle_minimize(problem: ProblemSpec) -> MinimizeResult:
    """Global discrete minimum by enumerating every interior support.

    For each subset S, off-support nodes are pinned at 0 and the quadratic is
    solved exactly on S (in one_phase, negative entries are projected out and
    the reduced system re-solved until sign-feasible); the true objective is
    evaluated on each candidate. The minimizer's own support is one of the
    enumerated subsets and solves its subsystem, so the smallest candidate
    energy is the global minimum, exactly for xi = 0 only (pinned-off nodes
    sit at their clamp value), so other xi raise ConfigurationError. Supports
    tied within 1e-10 relative energy are all reported.
    """
    if problem.xi != 0.0:
        raise ConfigurationError(f"the oracle pins off-support nodes at 0 and is exact "
                                 f"only for xi = 0, got xi = {problem.xi}")
    grid = problem.grid
    interior_idx = np.nonzero(grid.interior)[0]
    m = interior_idx.shape[0]
    if m > ORACLE_MAX_INTERIOR:
        raise CapacityError(
            f"oracle enumeration supports at most {ORACLE_MAX_INTERIOR} interior nodes, "
            f"got {m}")
    form = assemble_form(problem.kernel, problem.grid)
    W_I, W_II, row_sums = form.dense, form.dense[:, interior_idx], form.row_sums
    rho_cell = problem.rho * grid.cell_measure
    g = problem.exterior_data

    def quick_energy(values):
        # sum_{i<j} w_ij (u_i - u_j)^2 = u . (a * u) - u . (W u), cheap per subset,
        # with u . (W u) = 2 u_I . (W_I u) - u_I . (W_II u_I)
        u_I = values[interior_idx]
        dir_part = float(values @ (row_sums * values) - 2.0 * (u_I @ (W_I @ values))
                         + u_I @ (W_II @ u_I))
        support = np.nonzero(grid.interior & (values > problem.xi))[0]
        return dir_part + rho_cell * support.shape[0], tuple(support.tolist())

    best_energy, best_values, ties = math.inf, None, []
    for mask in range(1 << m):
        subset = interior_idx[[(mask >> k) & 1 == 1 for k in range(m)]]
        values = _solve_free(form, subset, g.copy(), problem.phase == "one_phase",
                             lambda A, b, x0: np.linalg.solve(A, b))
        energy, support = quick_energy(values)
        tol = ORACLE_TIE_RTOL * (1.0 + abs(best_energy)) if best_values is not None else 0.0
        if best_values is None or energy < best_energy - tol:
            best_energy, best_values, ties = energy, values, [support]
        elif energy <= best_energy + tol and support not in ties:
            ties.append(support)

    result = _finalize(problem, form, best_values, sweeps=0, converged=True,
                       seed=-1, restarts_used=0)
    if len(ties) > 1:
        result.tied_supports = sorted(ties)
    return result


def rho_sweep_minimize(problem: ProblemSpec, rhos, n_restarts=4, seed=0,
                       max_sweeps=DEFAULT_MAX_SWEEPS):
    """Continuation path: solve the largest rho with restarts, then warm-start
    each smaller rho from the previous minimizer. Returns [(rho, result), ...]
    in descending rho order."""
    rhos = sorted((float(r) for r in rhos), reverse=True)
    if not rhos:
        raise ConfigurationError("rho sweep requires at least one rho value")
    out = []
    current = replace(problem, rho=rhos[0])
    result = minimize(current, n_restarts=n_restarts, seed=seed, max_sweeps=max_sweeps)
    form = result.form
    out.append((rhos[0], result))
    for k, rho in enumerate(rhos[1:], start=1):
        current = replace(current, rho=rho)
        result = coordinate_descent(current, result.field, seed=seed + 1000 + k,
                                    max_sweeps=max_sweeps, form=form)
        out.append((rho, result))
    return out
