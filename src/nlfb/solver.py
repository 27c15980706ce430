"""Minimization of the penalized nonlocal energy on the lattice.

The discrete objective over interior values (exterior values are data) is

    J(u) = sum_{i<j} w_ij (u_i - u_j)^2 + rho * h^d * #{interior i : u_i > xi},

with u >= 0 enforced in the one_phase setting. The workhorse is coordinate
descent with exact single-variable minimization: freezing all nodes but i,
the objective in t = u_i is a * t^2 - 2 * b * t plus the penalty indicator,
with a = sum_j w_ij and b = sum_j w_ij u_j, so the on-candidate is the
quadratic vertex b / a and the off-candidate is the vertex clamped into the
off region (t <= xi, intersected with t >= 0 in one_phase). Ties resolve to
off. The exterior values are data, so b splits into the interior part
W_II[i] . x, read from the stored block W_II, and the exterior part
b_I = W_IE g, which the form keeps from assembly (nlfb.energy.exterior_terms;
W_IE itself is never stored). Sweeps visit interior nodes in a seed-shuffled
order refreshed every sweep.

Plain sweeps alone stall at coarse accuracy on ill-conditioned quadratics, so
between batches of sweeps the solver polishes: it solves the quadratic exactly
(preconditioned CG) over the free nodes, with the pinned values held fixed,
and accepts the candidate only if the objective strictly decreases. This keeps
every contract of the sweep loop (monotone energy, same stopping rule) while
reaching linear-solver accuracy on the final support, which the stationarity
diagnostics require. The polish is _solve_free, the harmonic lifting's exact
solve, and _descend gives the stopping rule and the energy checks. The
reported energy is the exit state's pairwise total_energy, evaluated once
per result.

Restarts (minimize_all) run from deterministic initializations, share one
exterior_terms and keep the best reduced exit energy; exits within rounding
of it keep the lower seed (_winner). For a stack of instances that share
the form, the descents run one at a time, while the bound iterations, their
verification and the finalize pass run in lockstep, one batched call per
group whose operands share shapes (_groups), and the certificates run the
instances of each band size in lockstep, one band size after another; each
instance has the bits of its solve alone. A brute-force oracle
(oracle_minimize_all) enumerates all interior supports (capacity-capped,
xi = 0 only) for ground truth, on the inverses of its pinned systems,
computed once per form.

For one_phase at xi = 0 the support energy

    G(S) = c - b_S . A_SS^-1 b_S + rho * h^d * |S|,    A = diag(a_I) - W_II,

(the least energy with the nodes off S held at 0) is submodular, and
min_S G = min J (Topkis 1978). So a node's best response (the exact
one-variable rule of a sweep, vectorized in _best_response) is monotone in
the other values, and _bound_states iterates it up to the least and down to
the greatest coordinatewise-stable state (Tarski 1955; Topkis 1979): below
and above every minimizer, they are restarts (b) and (a), verified in one
stacked pass (_verify_bounds) rather than descended. _certify bounds min G
from below by Wolfe's min-norm-point algorithm (Fujishige-Wolfe) over the
band between them, on greedy vertices read off the band system the fall
ends with (the inverse of the band's Schur complement of A_LL), so each
instance forms that complement once: it certifies the better bound state
globally minimal, which skips the random restarts, or finds a lower
minimum, at which they stop.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace

import numpy as np

from .energy import (EnergyBreakdown, QuadraticForm, assemble_form, check_grid,
                     exterior_terms, exterior_terms_all, reduced_energies, reduced_energy,
                     rowwise_dots, total_energies, truncation_error_bound)
from .errors import CapacityError, ConfigurationError, DataError, SolverError
from .grid import Ball, Field, Grid, check_budget, region_interior_indices
from .kernel import KernelSpec

PHASES = ("one_phase", "two_phase")

EPS_STOP_FACTOR = 1e-13
ENERGY_CHECK_RTOL = 1e-9      # monotonicity and tracked-vs-recomputed tolerance
DEFAULT_MAX_SWEEPS = 2000
POLISH_PERIOD = 25
CG_TOL = 1e-12
ORACLE_MAX_INTERIOR = 14
ORACLE_TIE_RTOL = 1e-10
# instances and masks per block of the oracle's scoring: they bound its buffers
ORACLE_BLOCK = 10
ORACLE_CHUNK = 256
CERTIFICATE_RTOL = 1e-12      # gap that certifies, and margin that refutes, a minimum
WOLFE_MAX_ITERATIONS = 64
# nodes per bordered Schur block, and band columns per Schur product: wider BLAS
# operands page in about 1 MB more of the library's packing buffers per process
SCHUR_BLOCK = 64
NEAR_TIE_RTOL = 1e-9     # see _bound_states' fall


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
    sweeps: int                  # the winning descent's; 0 for a verified bound state
    restarts_used: int
    converged: bool              # True for a verified bound state, at any max_sweeps
    best_restart_seed: int
    tied_supports: list | None = None
    form: QuadraticForm | None = None    # the form the result was computed with
    certificate: dict | None = None      # _certify's record, when minimize ran it
    bounds: dict | None = None           # _bound_states' record, when minimize ran it

    def to_dict(self) -> dict:
        return {
            "field": self.field.values.tolist(),
            "energy": asdict(self.energy),
            "support": self.support.tolist(),
            "sweeps": self.sweeps,
            "restarts_used": self.restarts_used,
            "converged": self.converged,
            "best_restart_seed": self.best_restart_seed,
            "tied_supports": (None if self.tied_supports is None
                              else [[int(i) for i in s] for s in self.tied_supports]),
            "certificate": self.certificate,
            "bounds": self.bounds,
        }


# ---------------------------------------------------------------------------
# Preconditioned conjugate gradients on dense SPD systems.

def _pcg(A, b, x0, rtol=CG_TOL, maxiter=None):
    """Jacobi-preconditioned CG. Returns (x, relative_residual, iterations).

    Norms are math.sqrt(r . r), the bits of np.linalg.norm for 1-D float64.
    A warm start already within rtol returns a copy of x0 after 0 iterations.
    """
    n = b.shape[0]
    if maxiter is None:
        maxiter = max(200, 50 * n)
    b_norm = math.sqrt(float(b @ b))
    if b_norm == 0.0:
        return np.zeros(n), 0.0, 0
    x = x0.astype(np.float64)
    r = b - A @ x
    res = math.sqrt(float(r @ r))
    if res <= rtol * b_norm:
        return x, res / b_norm, 0
    inv_diag = 1.0 / np.diag(A)
    z = inv_diag * r
    p = z.copy()
    rz = float(r @ z)
    for it in range(1, maxiter + 1):
        Ap = A @ p
        alpha = rz / float(p @ Ap)
        x += alpha * p
        r -= alpha * Ap
        z = inv_diag * r
        rz_new = float(r @ z)
        p = z + (rz_new / rz) * p
        rz = rz_new
        res = math.sqrt(float(r @ r))
        if res <= rtol * b_norm:
            return x, res / b_norm, it
    raise SolverError(
        f"CG did not reach rtol {rtol} in {maxiter} iterations; "
        f"final relative residual {res / b_norm:.3e}")


def _system_matrix(form: QuadraticForm, rows):
    """A = diag(a_i) - W_II restricted to the stored rows `rows`, gathered from
    W_II once check_budget admits it; rows of shape (c, k) give the stack of
    the c matrices of its rows."""
    k = rows.shape[-1]
    check_budget(8 * rows.size * k, "the subsystem matrix")
    A = form.dense[rows[..., :, None], rows[..., None, :]]
    np.negative(A, out=A)
    A[..., np.arange(k), np.arange(k)] = form.row_sums[rows]
    return A


def _subsystem(form: QuadraticForm, rows, x, b):
    """The dense SPD subsystem over the stored rows `rows`, with the other
    interior values held at x (interior values, by stored row) and b =
    (W_IE g)[rows] the fixed exterior term of those rows.

    A = _system_matrix(form, rows); the right-hand side is sum over pinned interior j
    of w_ij x_j, plus b. W >= 0 and every interior node couples to every
    exterior node (a_i counts those couplings), so A is a nonsingular M-matrix:
    SPD, with A^-1 >= 0 entrywise. Every one_phase pin is nonnegative (0, xi
    where u sits at it, or exterior data), so the right-hand side is >= 0 and
    the exact solve is nonnegative; one_phase solves are checked against this
    by _nonnegative.
    """
    pinned = x.copy()
    pinned[rows] = 0.0
    return _system_matrix(form, rows), rowwise_dots(form.dense, rows, pinned) + b


def _check_seed(seed):
    """Refuse a negative seed, which np.random.default_rng cannot take."""
    if seed < 0:
        raise ConfigurationError(f"seed must be at least 0, got {seed}")


def _nonnegative(x):
    """x, once checked to have no entry below 0; a one_phase exact solve that
    does breaks _subsystem's M-matrix invariant and raises SolverError."""
    if np.any(x < 0.0):
        raise SolverError(f"one_phase exact solve has a negative entry ({float(np.min(x))!r})")
    return x


# ---------------------------------------------------------------------------
# Coordinate descent.

def _visit(a, b, rho_cell, xi, one_phase):
    """Exact minimizer of a t^2 - 2 b t + rho_cell * [t > xi] over the feasible t.

    Returns the chosen value. The off region is t <= xi (intersected with
    t >= 0 in one_phase); the on region is its complement in the feasible set.
    Ties prefer off (the smaller support). This runs once per visit, so the
    clamps are plain branches that return what max(v, 0.0) and min(x, xi)
    would, signed zeros included.
    """
    v = b / a
    if one_phase:
        t_on = 0.0 if 0.0 > v else v
        if xi < 0.0:          # the off region is empty
            return t_on
    else:
        t_on = v
    t_off = xi if xi < t_on else t_on
    if t_on > xi:
        e_on = a * t_on * t_on - 2.0 * b * t_on + rho_cell
        if e_on < a * t_off * t_off - 2.0 * b * t_off:
            return t_on
    return t_off


def _best_response(a, b, rho_cell):
    """_visit(a, b, rho_cell, 0.0, True) elementwise over the arrays a and b,
    bit for bit: t = max(b / a, 0) where t > 0 and a t^2 - 2 b t + rho_cell
    < 0, else 0 (ties resolve to off; a -0.0 quotient stays -0.0)."""
    t = b / a
    t = np.where(0.0 > t, 0.0, t)
    positive = t > 0.0
    on = positive & (a * t * t - 2.0 * b * t + rho_cell < 0.0)
    return np.where(positive & ~on, 0.0, t)


def _sweep(form: QuadraticForm, x, b_I, order, rho_cell, xi, one_phase) -> float:
    """One full coordinate sweep over the stored rows in `order`, in place on
    the interior values x (by stored row); returns the summed energy change,
    exactly 0 when no value changes.

    b_I = W_IE g for the exterior values g (exterior_terms), so a visit to row
    k reads b = W_II[k] . x + b_I[k], one dot of length n_int.
    """
    rows, row_sums, b_I = form.interior_rows, form.row_sums_list, b_I.tolist()
    change = 0.0
    for k in order.tolist():
        a, b, t_old = row_sums[k], float(rows[k].dot(x)) + b_I[k], x.item(k)
        t = _visit(a, b, rho_cell, xi, one_phase)
        if t != t_old:
            change += (a * (t * t - t_old * t_old) - 2.0 * b * (t - t_old)
                       + rho_cell * (int(t > xi) - int(t_old > xi)))
            x[k] = t
    return change


def _solve_free(form: QuadraticForm, rows, x, b):
    """Solve the subsystem over the stored rows `rows` by PCG, warm-started from
    the interior values x, into x, in place."""
    A, rhs = _subsystem(form, rows, x, b)
    x[rows] = _pcg(A, rhs, x[rows])[0]
    return x


def harmonic_lifting(form: QuadraticForm, field: Field, region: Ball, terms=None) -> Field:
    """Replace the field inside a ball region by its energy-minimizing values.

    The region must lie inside the domain ball. The lifted values solve the
    SPD stationarity system sum_j w_ij (h_i - h_j) = 0 for region nodes, with
    all other values (including the implicit zeros beyond truncation) fixed.
    terms = exterior_terms(form, field.values) is computed unless given. A
    field on another grid (check_grid) is a ConfigurationError.
    """
    check_grid(form, field)
    rows = form.row_of[region_interior_indices(form.grid, region)]
    values = field.values.copy()
    values[form.interior_idx] = _solve_free(form, rows, values[form.interior_idx],
                                            (terms or exterior_terms(form, values))[0][rows])
    return Field(form.grid, values)


def _free_mask(problem: ProblemSpec, x):
    """The interior values x (by stored row) off every clamp value (xi, and 0
    in one_phase): the nodes _polish solves for jointly."""
    free = x != problem.xi
    if problem.phase == "one_phase":
        free &= x != 0.0
    return free


def _polish(problem: ProblemSpec, form: QuadraticForm, x, b_I):
    """Joint exact solve (_solve_free) over the free nodes (_free_mask) of the
    interior values x, with b_I = W_IE g: the polished interior values, or
    None where the polish gives x back bit for bit.

    A node is pinned when it sits exactly at a clamp value (xi, or 0 in
    one_phase); every other interior node is stationary for the current
    region assignment and is solved for jointly; in one_phase the solve is
    checked to be nonnegative.
    """
    # Convergence relies on polishing being idempotent: on a state it already
    # solved (or one a sweep moved by ulps), the warm-started CG starts below
    # CG_TOL and returns it unchanged bit for bit, so the strict-decrease test
    # rejects it and the descent can stop. A fresh direct re-solve (e.g. LU)
    # moves such a state by ulps and can "improve" its energy after every
    # batch of sweeps, so coordinate_descent may never converge.
    rows = np.flatnonzero(_free_mask(problem, x))
    polished = _solve_free(form, rows, x.copy(), b_I[rows])
    if (polished == x).all():
        return None
    return _nonnegative(polished) if problem.phase == "one_phase" else polished


def _finalize_all(problems, form: QuadraticForm, exits, seeds, restarts_used, terms) -> list:
    """The results for the final states u of exits (u, energy, sweeps,
    converged), of problems sharing grid, rho and xi, with terms[i] =
    exterior_terms of problems[i]'s data: each energy is its state's
    pairwise total_energy, from one stacked pass (total_energies)."""
    first = problems[0]
    grid, kernel = first.grid, first.kernel
    u = np.array([state for state, *_ in exits])
    breakdowns = total_energies(form, u, first.rho, first.xi, terms)
    results = []
    for values, (_, _, sweeps, converged), seed, used, breakdown, sup in zip(
            u, exits, seeds, restarts_used, breakdowns, np.abs(u).max(axis=1).tolist()):
        breakdown.truncation_bound = truncation_error_bound(grid, kernel.s, kernel.Lam, sup)
        support = np.nonzero(grid.interior & (values > first.xi))[0]
        results.append(MinimizeResult(Field(grid, values), breakdown, support, sweeps, used,
                                      converged, seed, form=form))
    return results


def _descend(problem: ProblemSpec, u0, seed, max_sweeps, form: QuadraticForm, terms):
    """Coordinate descent from the node values u0 (not modified) with the
    given seed, terms = exterior_terms(form, g) of the exterior data g.
    Returns (u, energy, sweeps, converged), with u the exit state's node
    values and energy its reduced_energy.

    u0 must agree with the exterior data and satisfy the phase constraint. A
    batch of sweeps ends at a polish boundary as soon as a sweep leaves the
    free set (_free_mask) unchanged or stalls, and after at most
    POLISH_PERIOD sweeps. A sweep stalls when it moves the tracked energy by
    less than 1e-13 * (1 + |energy|); the descent stops once a sweep stalls
    and the polish (_polish) after it does not improve. The boundaries
    evaluate the energy on the reduced form and raise SolverError when the
    energy rises, or the tracked energy drifts from the recomputed one, by
    more than 1e-9 * (1 + |energy|). Every exit follows a boundary (or no
    sweep), so the returned energy is the one checked there.
    """
    grid, xi, rho = problem.grid, problem.xi, problem.rho
    one_phase = problem.phase == "one_phase"
    u = np.array(u0, dtype=np.float64)
    if not ((u == problem.exterior_data) | grid.interior).all():
        raise ConfigurationError("initialization does not match the exterior data")
    if one_phase and (u < 0.0).any():
        raise ConfigurationError("one_phase initialization must be nonnegative")
    # the state: interior values by stored row, contiguous, as a strided
    # array would change the sweep's dot products in the last bits
    x, b_I = u[form.interior_idx], terms[0]
    rng = np.random.Generator(np.random.PCG64(seed))     # = default_rng(seed)
    rho_cell = rho * grid.cell_measure
    # x's energy, recomputed at the last polish boundary, and the energy
    # tracked from the sweeps' changes
    checked = e_cur = reduced_energy(form, x, rho, xi, terms)
    sweeps, converged = 0, False
    while not converged and sweeps < max_sweeps:
        free, reached_stop = _free_mask(problem, x), False
        for _ in range(POLISH_PERIOD):
            if sweeps >= max_sweeps:
                break
            # the same visiting order as rng.permutation(form.interior_idx)
            change = _sweep(form, x, b_I, rng.permutation(x.shape[0]), rho_cell, xi, one_phase)
            sweeps += 1
            if change > ENERGY_CHECK_RTOL * (1.0 + abs(e_cur)):
                raise SolverError(f"energy increased during a sweep "
                                  f"({e_cur} -> {e_cur + change})")
            e_cur += change
            if -change < EPS_STOP_FACTOR * (1.0 + abs(e_cur)):
                reached_stop = True
                break
            # the sweeps chose the free set; the exact solve on it is the polish
            was, free = free, _free_mask(problem, x)
            if (was == free).all():
                break
        now = reduced_energy(form, x, rho, xi, terms)
        if abs(now - e_cur) > ENERGY_CHECK_RTOL * (1.0 + abs(now)):
            raise SolverError(f"tracked energy {e_cur} drifted from the recomputed {now}")
        if now > checked + ENERGY_CHECK_RTOL * (1.0 + abs(checked)):
            raise SolverError(f"energy rose between polish boundaries ({checked} -> {now})")
        polished, improved = _polish(problem, form, x, b_I), False
        if polished is not None:
            energy = reduced_energy(form, polished, rho, xi, terms)
            if energy < now:        # accepted only if it lowers the energy
                x, now, improved = polished, energy, True
        checked = e_cur = now
        converged = reached_stop and not improved
    u[form.interior_idx] = x
    return u, checked, sweeps, converged


def _verify_bounds(problems, form: QuadraticForm, terms, states) -> list:
    """Restarts (a) and (b) of each instance (one_phase, xi = 0), for its
    states of _bound_states and terms[i]: a pair of exits (u, energy, 0,
    True), checked in one stacked pass where a descent would sweep once and
    stall. With b = W_II x + b_I and t its best responses (_best_response),
    a state must be nonnegative, on where t is, improvable in all by less
    than the sweep's stall threshold (sum_i a_i (x_i - t_i)^2), and solve
    A_SS x_S = b_I[S] on its support S to CG_TOL, the polish's warm-start
    test, and (a)'s support must contain (b)'s, the bracket over which
    _certify runs, or SolverError names the instance and the node."""
    rho, grid = problems[0].rho, problems[0].grid
    x = np.array([x for state in states for x in state[:2]])
    b_I, c = (np.repeat([term[j] for term in terms], 2, axis=0) for j in (0, 1))
    energies = reduced_energies(form, x, rho, 0.0, b_I, c)
    a, on, b = form.row_sums, x > 0.0, np.vecdot(form.dense, x[:, None, :]) + b_I
    t = _best_response(a, b, rho * grid.cell_measure)
    flipped, gains, residual = (t > 0.0) != on, a * (x - t) ** 2, np.where(on, a * x - b, 0.0)
    outside = np.zeros_like(on)
    outside[::2] = on[1::2] & ~on[::2]      # on in (b), off in (a)
    for failed, nodes, what in (
            ((x < 0.0).any(axis=1), x < 0.0, "a one_phase exact solve is negative"),
            (flipped.any(axis=1), flipped, "its best response differs"),
            (np.add.reduce(gains, axis=1) >= EPS_STOP_FACTOR * (1.0 + np.abs(energies)), gains,
             "best responses improve the energy by a sweep's stall threshold"),
            (np.linalg.norm(residual, axis=1) > CG_TOL * np.linalg.norm(b_I * on, axis=1),
             np.abs(residual), "the exact solve's residual exceeds CG_TOL"),
            (outside.any(axis=1), outside, "it is off where (b) is on")):
        if failed.any():
            k = int(np.argmax(failed))
            raise SolverError(f"bound state ({'ab'[k % 2]}) of instance {k // 2} fails at node "
                              f"{form.interior_idx[np.argmax(nodes[k])]}: {what}")
    u = np.repeat([problem.exterior_data for problem in problems], 2, axis=0)
    u[:, form.interior_idx] = x
    exits = iter((values, energy, 0, True) for values, energy in zip(u, energies.tolist()))
    return [list(pair) for pair in zip(exits, exits)]


def coordinate_descent(problem: ProblemSpec, init: Field, seed=0,
                       max_sweeps=DEFAULT_MAX_SWEEPS, form: QuadraticForm | None = None
                       ) -> MinimizeResult:
    """Descend from init with seed-shuffled sweeps, energy never increasing:
    _descend, which checks init and gives the stopping rule; the reported
    energy is the exit state's pairwise total_energy."""
    _check_seed(seed)
    if form is None:
        form = assemble_form(problem.kernel, problem.grid, problem.exterior_data)
    terms = exterior_terms(form, problem.exterior_data)
    exit_ = _descend(problem, init.values, seed, max_sweeps, form, terms)
    return _finalize_all([problem], form, [exit_], [seed], [1], [terms])[0]


def lifting_initialization(problem: ProblemSpec, form: QuadraticForm, terms=None) -> Field:
    """Harmonic lifting of the exterior data over the whole domain ball (terms
    as in harmonic_lifting), checked to be nonnegative in one_phase."""
    base = problem.exterior_field()
    lifted = harmonic_lifting(form, base, Ball((0.0,) * problem.grid.dim,
                                               problem.grid.omega_radius), terms)
    if problem.phase == "one_phase":
        _nonnegative(lifted.values)
    return lifted


def _groups(*keys):
    """Positions 0, 1, .. grouped by their tuple of keys (one sequence per key), in
    order of first appearance: instances whose operands share shapes."""
    if len(keys[0]) == 1:
        return [np.zeros(1, dtype=np.int64)]
    groups = {}
    for position, key in enumerate(zip(*keys)):
        groups.setdefault(key, []).append(position)
    return [np.array(group) for group in groups.values()]


def _stack(arrays, ids=None):
    """The arrays (those at ids, if given) as one stack; one array is viewed."""
    arrays = arrays if ids is None else [arrays[i] for i in ids]
    return arrays[0][None] if len(arrays) == 1 else np.stack(arrays)


def _gather(matrices, rows, cols):
    """The stack of matrices[i][rows[i][:, None], cols[i]], for ascending rows and
    cols, read as a slice (a view in a one-matrix stack) where both are runs."""
    return _stack([m[r[0]:r[-1] + 1, c[0]:c[-1] + 1]
                   if r.size and c.size and r[-1] - r[0] + c[-1] - c[0] == r.size + c.size - 2
                   else m[r[:, None], c] for m, r, c in zip(matrices, rows, cols)])


def _bordered(inv, A_SJ, A_JJ):
    """The inverses of the symmetric [[A_SS, A_SJ], [A_SJ^T, A_JJ]] of a stack,
    from inv = A_SS^-1 (which it updates in place), bordered by one Schur
    block of at most SCHUR_BLOCK nodes of J at a time: with B the block's
    couplings to the nodes bordered so far, Y = inv B and C = A_BB - B^T Y,
    the bordered inverse is [[inv + Y C^-1 Y^T, -Y C^-1], [-C^-1 Y^T, C^-1]]."""
    for start in range(0, A_JJ.shape[-1], SCHUR_BLOCK):
        block = slice(start, start + SCHUR_BLOCK)
        k = inv.shape[-1]
        B = np.concatenate([A_SJ[..., block], A_JJ[:, :start, block]], axis=1)
        Y = inv @ B
        C_inv = np.linalg.inv(A_JJ[:, block, block] - B.mT @ Y)
        YC = Y @ C_inv
        inv += YC @ Y.mT
        grown = np.empty((inv.shape[0],) + (k + C_inv.shape[-1],) * 2)
        grown[:, :k, :k] = inv
        grown[:, :k, k:] = -YC
        grown[:, k:, :k] = -YC.mT
        grown[:, k:, k:] = C_inv
        inv = grown
    return inv


def _bound_states(problem: ProblemSpec, form: QuadraticForm, terms) -> list:
    """The bound restarts' starting states for one_phase at xi = 0, for each
    (b_I, c) of terms (instances sharing problem's form and rho): a list of
    (x_a, x_b, record, band), x_a and x_b the interior values (by stored row)
    of the greatest and the least coordinatewise-stable state, the record
    {"a": {"steps", "support"}, "b": {...}}, and the band system the fall
    ends with, (rows, M, b~): the band's ascending stored rows supp(x_a) minus
    L, the inverse M of its Schur complement of A_LL and its right-hand side
    b~, from which _certify reads its greedy vertices (_band_greedy).

    With BR(x) = {_best_response on b = W_II x + b_I > 0}, monotone in x, (b)
    rises from S = {}: S <- S | BR(x), then x <- A_SS^-1 b_I[S] with 0 off S,
    until BR(x) adds nothing; A_SS^-1 grows by bordered blocks (_bordered).
    (a) falls from S = every interior node, whose exact solve is the harmonic
    lifting, so its second S is BR(lifting), which contains L = (b)'s S: L
    stays on, and S <- S & BR(x) over the band S minus L. Each solve runs on
    the Schur complement of A_LL over the band, whose inverse is bordered
    once and shrinks by a Schur block per step. The unions and intersections
    end each iteration within n steps, ties included. A rise step is one
    exact solve. A fall step solves for the band alone and decides on
    b = a x, as on an exact solve's support; a row within NEAR_TIE_RTOL of
    the threshold sqrt(a rho h^d), relative to it plus the largest b_I, is
    decided by its row dot, and L's values are solved for that or at the
    exit. Every solve is checked by _nonnegative. The instances run in lockstep.
    """
    W, count, n = form.dense, len(terms), form.dense.shape[0]
    b_I, rho_cell = [b for b, _ in terms], problem.rho * problem.grid.cell_measure
    on, x_b = [np.zeros(n, dtype=bool) for _ in terms], [np.zeros(n) for _ in terms]
    S, inv = [np.zeros(0, dtype=np.int64)] * count, [np.zeros((0, 0))] * count
    rise, fall, live = [0] * count, [0] * count, list(range(count))
    while live:
        b = np.vecdot(W, _stack(x_b, live)[:, None, :]) + _stack(b_I, live)
        new = [np.flatnonzero(row) for row in
               (_best_response(form.row_sums, b, rho_cell) > 0.0) & ~_stack(on, live)]
        live, new = [i for i, j in zip(live, new) if j.shape[0]], [j for j in new if j.shape[0]]
        for pos in _groups([S[i].shape[0] for i in live], [j.shape[0] for j in new]):
            ids, joined = [live[p] for p in pos], _stack(new, pos)
            S_g = _stack(S, ids)
            inv_g = _bordered(_stack(inv, ids), -W[S_g[:, :, None], joined[:, None]],
                              _system_matrix(form, joined))
            S_g = np.concatenate([S_g, joined], axis=1)
            x = _nonnegative((inv_g @ _stack([b_I[i][s] for i, s in zip(ids, S_g)])[
                ..., None])[..., 0])
            for i, j, s, v, x_i in zip(ids, joined, S_g, inv_g, x):
                on[i][j] = True     # S only grows, so x_b is 0 off it
                x_b[i][s], S[i], inv[i], rise[i] = x_i, s, v, rise[i] + 1

    # per instance, the band's Schur complement of A_LL and right-hand side,
    # then the complement's inverse in its place; cols are the band nodes
    # still on, and rhs their right-hand sides
    cols = [np.flatnonzero(~o) for o in on]
    schur, rhs, x_S = [None] * count, [None] * count, [None] * count
    for pos in _groups([s.shape[0] for s in S], [c.shape[0] for c in cols]):
        S_g, band_g, inv_g = _stack(S, pos), _stack(cols, pos), _stack(inv, pos)
        W_LB = W[S_g[:, :, None], band_g[:, None, :]]
        schur_g = _system_matrix(form, band_g)
        for start in range(0, band_g.shape[1], SCHUR_BLOCK):
            block = slice(start, start + SCHUR_BLOCK)
            schur_g[..., block] -= W_LB.mT @ (inv_g @ W_LB[..., block])
        x_S_g = _stack([x_b[i][s] for i, s in zip(pos, S_g)])
        rhs_g = (_stack([b_I[i][c] for i, c in zip(pos, band_g)])
                 + (W_LB.mT @ x_S_g[..., None])[..., 0])
        del W_LB
        schur_g = _bordered(np.zeros((pos.shape[0], 0, 0)), schur_g[:, :0], schur_g)
        for i, s, r, x_i in zip(pos.tolist(), schur_g, rhs_g, x_S_g):
            schur[i], rhs[i], x_S[i] = s, r, x_i
    beta, tie = np.sqrt(form.row_sums * rho_cell), np.array([b.max(initial=0.0) for b in b_I])
    x_a, live = [None] * count, list(range(count))
    while live:
        down = []
        for pos in _groups([cols[i].shape[0] for i in live], [S[i].shape[0] for i in live]):
            ids, g = [live[p] for p in pos], np.arange(pos.shape[0])[:, None]
            cols_g, x = _stack(cols, ids), np.zeros((pos.shape[0], n))
            x[g, cols_g] = _nonnegative((_stack(schur, ids) @ _stack(rhs, ids)[..., None])[..., 0])
            a, b = form.row_sums[cols_g], form.row_sums[cols_g] * x[g, cols_g]
            on = _best_response(a, b, rho_cell) > 0.0
            near = np.abs(b - beta[cols_g]) <= NEAR_TIE_RTOL * (beta[cols_g] + tie[ids, None])
            if (filled := on.all(axis=1) | near.any(axis=1)).any():
                kept, x_f = [i for i, f in zip(ids, filled) if f], x[filled]
                S_f = _stack(S, kept)
                x_f[g[:len(kept)], S_f] = _stack(x_S, kept) + (_stack(inv, kept) @ rowwise_dots(
                    W, S_f, x_f)[..., None])[..., 0]
                x[filled] = _nonnegative(x_f)
            for p in np.flatnonzero(near.any(axis=1)).tolist():
                rows = cols_g[p][near[p]]
                b[p, near[p]] = rowwise_dots(W, rows, x[p]) + b_I[ids[p]][rows]
                on[p] = _best_response(a[p], b[p], rho_cell) > 0.0
            for i, x_i, on_i in zip(ids, x, on):
                x_a[i], fall[i] = x_i, fall[i] + 1      # filled at the exit
                if not on_i.all():
                    down.append((i, np.flatnonzero(~on_i), np.flatnonzero(on_i)))
        for pos in _groups([d.shape[0] for _, d, _ in down], [k.shape[0] for *_, k in down]):
            ids, d, k = zip(*[down[p] for p in pos])
            s = [schur[i] for i in ids]
            shrunk = _gather(s, k, k)
            shrunk -= _gather(s, k, d) @ np.linalg.solve(_gather(s, d, d), _gather(s, d, k))
            for i, kept, s_i in zip(ids, k, shrunk):
                schur[i], cols[i], rhs[i] = s_i, cols[i][kept], rhs[i][kept]
        live = [i for i, *_ in down]
    return [(x_a[i], x_b[i], {name: {"steps": steps[i],
                                     "support": int(np.count_nonzero(x[i] > 0.0))}
                              for name, steps, x in (("a", fall, x_a), ("b", rise, x_b))},
             (cols[i], schur[i], rhs[i])) for i in range(count)]


def _band_greedy(rho_cell, M, b, energies_on, orders):
    """The greedy vertices of F(T) = G(L + T) over the band B, for the stack of
    live instances of one band size (one of _certify's groups, in lockstep),
    with band systems M and b~ of _bound_states and G(L) in energies_on
    (one_phase, xi = 0; see the module docstring): M is the inverse of the
    Schur complement S = A_BB - A_BL A_LL^-1 A_LB, and b~ = b_B - A_BL
    A_LL^-1 b_L.

    For an order of each instance's band positions (one row of orders each),
    it factors S[order, order] = R R^T and takes y = R^-1 b~[order]; it
    returns (q, energies), one row each: q[order[k]] = rho * h^d - y_k^2, the
    greedy vertex by band position, and energies[k] = G(L) + q[order[0]] + ..
    + q[order[k]], the support energy of L with the first k + 1 nodes of the
    order. S[order, order]^-1 = M[order, order], so with r the order reversed
    and M[r, r] = K K^T, R is the reversal of K^-T and y the reversal of K^T
    b~[r]: one Cholesky and one product. M is the inverse of an M-matrix's
    Schur complement, so a failed Cholesky raises SolverError.
    """
    g, reverse = np.arange(orders.shape[0])[:, None], orders[:, ::-1]
    try:
        K = np.linalg.cholesky(M[g[..., None], reverse[..., None], reverse[:, None]])
    except np.linalg.LinAlgError as exc:
        raise SolverError("the band's Schur complement is not positive definite") from exc
    y = (K.mT @ b[g, reverse][..., None])[:, ::-1, 0]
    q = np.empty(orders.shape)
    q[g, orders] = rho_cell - y * y
    return q, energies_on[:, None] + np.cumsum(q[g, orders], axis=1)


def _affine_minimizers(P):
    """For each P of a stack, the weights alpha, summing to 1, of the point of
    the affine hull of P's rows nearest the origin: (P P^T + 1 1^T) alpha = 1,
    normalized. Returns (alpha, ok), ok False where that system is singular."""
    try:
        alpha = np.linalg.solve(np.vecdot(P[:, :, None, :], P[:, None]) + 1.0,
                                np.ones(P.shape[:2] + (1,)))[..., 0]
    except np.linalg.LinAlgError:      # one of them is: solve them one at a time
        if P.shape[0] > 1:
            return tuple(map(np.concatenate, zip(*map(_affine_minimizers, P[:, None]))))
        alpha = np.zeros(P.shape[:2])
    ok = np.isfinite(alpha).all(axis=1)
    alpha[~ok] = 0.0
    total = alpha.sum(axis=1)
    ok &= total != 0.0
    return alpha / np.where(ok, total, 1.0)[:, None], ok


def _certify(problem: ProblemSpec, states, energies_on, energies) -> list:
    """Certificates of global minimality, one per instance (one_phase, xi = 0)
    for a state of reduced energy energies[i], with states[i] its (x_a, x_b,
    record, band) of _bound_states and energies_on[i] = G(L), the reduced
    energy of its verified (b) exit.

    With L = supp(x_b) and the band B = supp(x_a) minus L (_verify_bounds
    checks that supp(x_a) contains L), Wolfe's min-norm-point algorithm runs
    over the band on _band_greedy's vertices, read off the band system that
    the fall ends with, ordering it by decreasing x_a, then by increasing
    Wolfe point x (stable argsorts). After each greedy call, with the bound
    G(L) + sum_i min(x_i, 0) and tol = 1e-12 * (1 + |energy|), an unset status
    becomes "certified" when energy - bound <= tol, which stops, or "refuted"
    when the lowest support energy seen (G(L) or any prefix) lies below energy
    by more than tol, which stops once that lowest energy is within 1e-12 *
    (1 + |lowest|) of the bound. A singular affine system in a Wolfe step, or
    WOLFE_MAX_ITERATIONS Wolfe iterations, stop it too, an unset status as
    "stalled" or "capped". The record's `minimum` is the lowest support energy
    seen when the bound closed to it at the last greedy call (the certified
    global minimum), else None. The record holds no timings, so it is
    reproducible byte for byte. The instances of one band size run in
    lockstep, one band size after another.
    """
    rho_cell = problem.rho * problem.grid.cell_measure
    energy_on, records = np.array(energies_on, dtype=np.float64), [None] * len(states)
    for ids in (pos.tolist() for pos in _groups([s[3][0].shape[0] for s in states])):
        # one band size's live runs, by position: instances, band systems, lowest
        # support energies, whether refuted, Wolfe points x (the sort key -x_a
        # before the first greedy call), all after `iterations` major cycles, and
        # runs, each only Wolfe's vertices P and their weights lam
        M, b = (_stack([states[i][3][j] for i in ids]) for j in (1, 2))
        x, runs, iterations = _stack([-states[i][0][states[i][3][0]] for i in ids]), None, 0
        lowest, refuted = [energies_on[i] for i in ids], [False] * len(ids)
        while ids:
            on = energy_on[ids]
            q, prefix = _band_greedy(rho_cell, M, b, on, np.argsort(x, axis=1, kind="stable"))
            lows, stalled = prefix.min(axis=1, initial=math.inf).tolist(), [False] * len(ids)
            lowest = [min(low, seen) for low, seen in zip(lowest, lows)]
            if runs is None:
                x, runs = q, [(q_r[None, :], np.ones(1)) for q_r in q]
            else:
                # Wolfe's major cycle: add the vertex, then minor cycles until the
                # affine minimizer of the kept vertices lies inside their hull
                iterations += 1
                runs = [(np.vstack([P, q_r]), np.append(lam, 0.0))
                        for (P, lam), q_r in zip(runs, q)]
                cycling = list(range(len(ids)))
                while cycling:
                    again = []
                    for pos in _groups([runs[k][0].shape[0] for k in cycling]):
                        rows = [cycling[p] for p in pos]
                        P = _stack([runs[k][0] for k in rows])
                        alphas, ok = _affine_minimizers(P)
                        inside = ok & (alphas > 0.0).all(axis=1)
                        points = iter((alphas[inside][:, None] @ P[inside])[:, 0])
                        for k, alpha, ok_k, inside_k in zip(rows, alphas, ok.tolist(),
                                                            inside.tolist()):
                            stalled[k] = not ok_k
                            if inside_k:
                                runs[k], x[k] = (runs[k][0], alpha), next(points)
                            elif ok_k:
                                (P_k, lam), neg = runs[k], alpha <= 0.0
                                ratio = np.zeros_like(lam)
                                np.divide(lam, lam - alpha, out=ratio, where=neg & (lam > alpha))
                                j = min(np.flatnonzero(neg).tolist(), key=ratio.item)
                                lam = ratio[j] * alpha + (1.0 - ratio[j]) * lam
                                lam[j] = 0.0
                                runs[k] = (P_k[lam > 0.0], lam[lam > 0.0])
                                again.append(k)
                    cycling = again
            bounds, kept = (on + np.minimum(x, 0.0).sum(axis=1)).tolist(), []
            for k, (i, bound, low) in enumerate(zip(ids, bounds, lowest)):
                energy, closed = energies[i], low - bound <= CERTIFICATE_RTOL * (1.0 + abs(low))
                tol = CERTIFICATE_RTOL * (1.0 + abs(energy))
                certified = not refuted[k] and energy - bound <= tol
                refuted[k] = refuted[k] or (not certified and low < energy - tol)
                kept.append(not (certified or refuted[k] and closed or stalled[k])
                            and iterations < WOLFE_MAX_ITERATIONS)
                if not kept[-1]:
                    records[i] = dict(
                        status=("certified" if certified else "refuted" if refuted[k]
                                else "stalled" if stalled[k] else "capped"),
                        band=x.shape[1], fixed_on=states[i][2]["b"]["support"],
                        wolfe_iterations=iterations, greedy_calls=iterations + 1,
                        lower_bound=bound, gap=energy - bound, best_support_energy=low,
                        minimum=low if closed else None)
            if not all(kept):
                M, b, x = M[kept], b[kept], x[kept]
                ids, lowest, refuted, runs = ([v for v, k in zip(seq, kept) if k]
                                              for seq in (ids, lowest, refuted, runs))
    return records


def minimize(problem: ProblemSpec, n_restarts=4, seed=0, max_sweeps=DEFAULT_MAX_SWEEPS,
             form: QuadraticForm | None = None) -> MinimizeResult:
    """Best of up to n_restarts coordinate descents from deterministic inits:
    minimize_all of the one instance, with its seed."""
    return minimize_all([problem], n_restarts, [seed], max_sweeps, form)[0]


def _winner(energies) -> int:
    """The winning restart of reduced exit energies in seed order: a later exit
    displaces the best only when lower by more than CERTIFICATE_RTOL * (1 +
    |best energy|), as _oracle_scan ranks candidates, so exits that differ by
    rounding alone keep the lower seed."""
    best = 0
    for k, energy in enumerate(energies):
        if energy < energies[best] - CERTIFICATE_RTOL * (1.0 + abs(energies[best])):
            best = k
    return best


def minimize_all(problems, n_restarts, seeds, max_sweeps=DEFAULT_MAX_SWEEPS,
                 form: QuadraticForm | None = None, terms=None) -> list:
    """minimize's result for each of `problems`, which share kernel, grid,
    rho, xi and phase, seeds[i] the seed of problems[i].

    Restart k, with seed + k, starts from (a) the harmonic lifting of the
    exterior data, (b) the zero extension, or (c) for k >= 2 a random
    interior support carrying the lifting values. For one_phase at xi = 0,
    (a) and (b) are instead the states of _bound_states (their record is the
    result's `bounds`), verified (_verify_bounds) at any n_restarts and
    max_sweeps; otherwise they descend (_descend), as do the random restarts,
    one instance after another. For one_phase
    at xi = 0 with n_restarts >= 3, _certify certifies the better of (a) and
    (b) (its record is the result's `certificate`, else None): proven
    globally minimal, it skips the random restarts; with a certified minimum
    they stop after the first whose reduced exit energy is within
    1e-12 * (1 + |minimum|) of it. The winner over the restarts that ran
    comes from a scan in seed order, in which a later exit displaces the best
    only when its reduced exit energy is lower by more than 1e-12 * (1 +
    |best energy|) (_winner), and only the winners are finalized, with their
    pairwise total_energy in one stacked pass (_finalize_all). All of it runs
    on the calling thread. Only the bound iterations, their verification, the
    certificates and the finalize pass are stacked, and each result is its
    instance's alone, bit for bit.

    The form is assembled (with problems[0]'s data) unless given, and is
    returned on every result; terms[i] = exterior_terms(form,
    problems[i].exterior_data) is computed, in one pass, unless given.
    CapacityError is raised when W_II, or the lifting's subsystem matrix,
    exceeds the memory budget; a negative seed, a seed count other than the
    instance count, and instances that differ in kernel, grid, rho, xi or
    phase are ConfigurationErrors.
    """
    if n_restarts < 1:
        raise ConfigurationError(f"n_restarts must be at least 1, got {n_restarts}")
    if len(seeds) != len(problems):
        raise ConfigurationError(f"{len(seeds)} seeds for {len(problems)} instances")
    for seed in seeds:
        _check_seed(seed)
    if not problems:
        return []
    first = problems[0]
    if any(p.grid is not first.grid or (p.kernel, p.rho, p.xi, p.phase)
           != (first.kernel, first.rho, first.xi, first.phase) for p in problems):
        raise ConfigurationError("the instances must share kernel, grid, rho, xi and phase")
    if form is None:
        form = assemble_form(first.kernel, first.grid, first.exterior_data)
    terms = terms or exterior_terms_all(form, [p.exterior_data for p in problems])
    bounded = first.phase == "one_phase" and first.xi == 0.0
    states = _bound_states(first, form, terms) if bounded else [None] * len(problems)
    lifted = [None if bounded else lifting_initialization(problem, form, kept).values
              for problem, kept in zip(problems, terms)]
    # restarts (a) and (b): the verified bound states, or descents
    if bounded:
        results = [pair[:n_restarts] for pair in _verify_bounds(problems, form, terms, states)]
    else:
        results = [[_descend(problem, u0, seed + k, max_sweeps, form, kept)
                    for k, u0 in enumerate((lift, problem.exterior_data)[:n_restarts])]
                   for problem, lift, seed, kept in zip(problems, lifted, seeds, terms)]
    certificates = [None] * len(problems)
    if n_restarts >= 3 and bounded:
        certificates = _certify(first, states, [r[1][1] for r in results],
                                [min(r[0][1], r[1][1]) for r in results])
    # the random restarts of each instance that is not certified, which stop
    # after the first whose reduced exit energy reaches its certified
    # minimum, if it has one
    interior_idx = np.nonzero(first.grid.interior)[0]
    for problem, seed, kept, exits, lift, record in zip(problems, seeds, terms, results,
                                                        lifted, certificates):
        record = record or {}
        if record.get("status") == "certified":
            continue
        minimum = record.get("minimum")
        reached = (-math.inf if minimum is None
                   else minimum + CERTIFICATE_RTOL * (1.0 + abs(minimum)))
        for k in range(2, n_restarts):
            if lift is None:
                lift = lifting_initialization(problem, form, kept).values
            on = interior_idx[np.random.default_rng([seed, k]).random(interior_idx.shape[0]) < 0.5]
            init = problem.exterior_data.copy()
            init[on] = lift[on]
            exits.append(_descend(problem, init, seed + k, max_sweeps, form, kept))
            if exits[-1][1] <= reached:
                break
    winners = [_winner([energy for _, energy, _, _ in exits]) for exits in results]
    out = _finalize_all(problems, form, [exits[k] for exits, k in zip(results, winners)],
                        [seed + k for seed, k in zip(seeds, winners)],
                        [len(exits) for exits in results], terms)
    for result, certificate, state in zip(out, certificates, states):
        result.certificate, result.bounds = certificate, state and state[2]
    return out


# ---------------------------------------------------------------------------
# Brute-force ground truth by support enumeration.

def _pinned_inverses(form: QuadraticForm):
    """The oracle's pinned-solve operator: for each support size k = 1..m, the
    read-only arrays (masks, S, inv). masks lists the masks of size k in
    ascending order, S (c, k) their stored rows in ascending order, and inv
    (k, k, c) the np.linalg.inv of each A_SS = diag(a_S) - W_II[S, S]
    (_system_matrix) along the last axis, which the scorer's einsum runs
    along. check_budget admits the operator's bytes before any allocation.
    """
    m = form.dense.shape[0]
    # per support of size k: its k x k inverse, its k stored rows and its mask
    check_budget(8 * sum(math.comb(m, k) * (k * k + k + 1) for k in range(1, m + 1)),
                 "the oracle's pinned inverses")
    in_subset = (np.arange(1 << m)[:, None] >> np.arange(m)) & 1 == 1
    sizes = np.count_nonzero(in_subset, axis=1)
    operator = []
    for k in range(1, m + 1):
        masks = np.nonzero(sizes == k)[0]
        S = np.nonzero(in_subset[masks])[1].reshape(-1, k)
        inv = np.linalg.inv(_system_matrix(form, S)).transpose(1, 2, 0).copy()
        for array in (masks, S, inv):
            array.flags.writeable = False
        operator.append((masks, S, inv))
    return tuple(operator)


def check_oracle(problem: ProblemSpec, form: QuadraticForm | None = None) -> QuadraticForm:
    """The form (assembled unless given) for oracle instances like problem,
    with its pinned inverses kept on it. Raises ConfigurationError for
    xi != 0, and CapacityError for more than ORACLE_MAX_INTERIOR interior
    nodes (before assembling) or inverses above the memory budget."""
    if problem.xi != 0.0:
        raise ConfigurationError(f"the oracle pins off-support nodes at 0 and is exact "
                                 f"only for xi = 0, got xi = {problem.xi}")
    m = int(np.count_nonzero(problem.grid.interior))
    if m > ORACLE_MAX_INTERIOR:
        raise CapacityError(
            f"oracle enumeration supports at most {ORACLE_MAX_INTERIOR} interior nodes, "
            f"got {m}")
    if form is None:
        form = assemble_form(problem.kernel, problem.grid, problem.exterior_data)
    if form.pinned_inverses is None:
        form.pinned_inverses = _pinned_inverses(form)
    return form


def _oracle_energies(problem: ProblemSpec, form: QuadraticForm, terms):
    """Yield, per (b_I, c) of terms, the energies of all masks (bit k: stored row
    k) in order, for instances sharing problem's form, rho and phase. Blocks
    of ORACLE_BLOCK instances reuse one buffer, which check_budget admits and
    the next block overwrites. Per support size and chunk of ORACLE_CHUNK
    masks, one einsum gives x = A_SS^-1 b_S (_nonnegative in one_phase), which
    scores c - x . b_S + rho * h^d * #{x > xi}, the reduced form at x."""
    operator = check_oracle(problem, form).pinned_inverses
    m = form.dense.shape[0]
    rho_cell = problem.rho * problem.grid.cell_measure
    rows = min(ORACLE_BLOCK, len(terms))
    check_budget(8 * rows * ((1 << m) + 3 * ORACLE_CHUNK * m), "the oracle's scoring block")
    buffer = np.empty((rows, 1 << m))
    for start in range(0, len(terms), ORACLE_BLOCK):
        block = terms[start:start + ORACLE_BLOCK]
        b_I = np.array([b for b, _ in block])
        energies = buffer[:len(block)]
        energies[:, 0] = [c for _, c in block]
        for masks, S, inv in operator:
            for k in range(0, masks.shape[0], ORACLE_CHUNK):
                chunk = slice(k, k + ORACLE_CHUNK)
                b_S = b_I[:, S[chunk].T]           # (instance, entry, mask)
                x = np.einsum("ijc,bjc->bic", inv[..., chunk], b_S)
                if problem.phase == "one_phase":
                    _nonnegative(x)
                energies[:, masks[chunk]] = (energies[:, :1] - np.einsum("bic,bic->bc", x, b_S)
                                             + rho_cell * np.count_nonzero(x > problem.xi, axis=1))
        yield from energies


def _oracle_solve(operator, b_I, mask):
    """(S, x): the stored rows of the mask's subset and x = A_SS^-1 b_I[S], one
    np.vecdot per row of the inverse, bits independent of any scoring block."""
    if mask == 0:
        return np.zeros(0, dtype=np.int64), np.zeros(0)
    masks, S, inv = operator[mask.bit_count() - 1]
    j = int(np.searchsorted(masks, mask))
    return S[j], np.vecdot(inv[..., j].copy(), b_I[S[j]])


def _oracle_scan(energies, support):
    """(best, ties) of the candidate energies in mask order, as the sequential
    scan from mask 0 gives them: mask 0 starts as the best; with
    tol = ORACLE_TIE_RTOL * (1 + |best energy|), a later mask below the best
    energy by more than tol replaces it and restarts ties with its
    support(mask), and one within tol of it appends its support(mask) to ties
    unless listed.

    A mask above best energy + tol does neither, so from each best the scan
    jumps (np.flatnonzero) over the masks after it to those at or below that
    bound; best and ties are exactly the sequential scan's.
    """
    best, ties = 0, [support(0)]
    best_energy = energies.item(0)
    start = 1
    while True:
        tol = ORACLE_TIE_RTOL * (1.0 + abs(best_energy))
        near = np.flatnonzero(energies[start:] <= best_energy + tol) + start
        for mask in near.tolist():
            energy = energies.item(mask)
            if energy < best_energy - tol:
                best, ties, best_energy, start = mask, [support(mask)], energy, mask + 1
                break
            if (found := support(mask)) not in ties:
                ties.append(found)
        else:
            return best, ties


def oracle_minimize(problem: ProblemSpec, form: QuadraticForm | None = None) -> MinimizeResult:
    """Global discrete minimum by enumerating every interior support:
    oracle_minimize_all of the one instance."""
    return next(oracle_minimize_all([problem], form))


def oracle_minimize_all(problems, form: QuadraticForm | None = None, terms=None):
    """An iterator over the oracle's results for `problems`, which share
    kernel, grid, rho, xi and phase: every interior support S is solved
    exactly with the nodes off S pinned at 0, so the lowest candidate energy
    is the global minimum (exactly for xi = 0 only). A later mask displaces
    the best only when lower by more than 1e-10 relative energy; supports tied
    with the best within that are all reported (_oracle_scan). One stacked
    pass scores the candidates (_oracle_energies), and the winners of each
    block of ORACLE_BLOCK instances get their pairwise energies from one
    call (_finalize_all) when its first result is drawn; terms[i] =
    exterior_terms(form, problems[i].exterior_data) is computed in one pass
    unless given. check_oracle refuses at the call, before any scoring; the
    form is assembled unless given, and is returned on each result.
    """
    if len({(p.rho, p.xi, p.phase) for p in problems}) != 1:
        raise ConfigurationError("the oracle's instances must share rho, xi and phase")
    form = check_oracle(problems[0], form)
    terms = terms or exterior_terms_all(form, [p.exterior_data for p in problems])

    def results():
        scores = _oracle_energies(problems[0], form, terms)
        for start in range(0, len(problems), ORACLE_BLOCK):
            block, kept, exits, tied = (problems[start:start + ORACLE_BLOCK],
                                        terms[start:start + ORACLE_BLOCK], [], [])
            # each instance's energies are scanned before the next block overwrites them
            for problem, (b_I, _), energies in zip(block, kept, scores):
                def support(mask):
                    rows, x = _oracle_solve(form.pinned_inverses, b_I, mask)
                    return tuple(form.interior_idx[rows[x > problem.xi]].tolist())

                best, ties = _oracle_scan(energies, support)
                rows, x = _oracle_solve(form.pinned_inverses, b_I, best)
                exits.append((problem.exterior_data.copy(), None, 0, True))
                exits[-1][0][form.interior_idx[rows]] = x
                tied.append(sorted(ties) if len(ties) > 1 else None)
            for result, ties in zip(_finalize_all(block, form, exits, [-1] * len(block),
                                                  [0] * len(block), kept), tied):
                result.tied_supports = ties
                yield result

    return results()


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
