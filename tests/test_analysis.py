"""Free-boundary extraction and the quantitative diagnostics at it."""

import json
import math
from dataclasses import asdict

import numpy as np
import pytest

import nlfb.analysis
import nlfb.grid
from nlfb import (
    Ball,
    CapacityError,
    ConfigurationError,
    DataError,
    DomainError,
    Field,
    ProblemSpec,
    assemble_form,
    build_grid,
    build_report,
    density,
    dirichlet_energy,
    dyadic_radii,
    fractional_kernel,
    checkerboard_kernel,
    free_boundary,
    growth_exponent,
    harmonic_lifting,
    lifting_distance,
    minimize,
    nondegeneracy,
    residual_scale,
    sample_field,
    scaling_discrepancy,
    select_analysis_points,
    subsolution_residual,
    total_energy,
)
from nlfb.analysis import point_csv_text

from conftest import random_field_values, reference_exterior_term


def report_text(report):
    """report.json as the CLI writes it: the report's fields, rendered as JSON."""
    return json.dumps(asdict(report), sort_keys=True, indent=2) + "\n"


def brute_force_boundary_pairs(field, xi):
    """Independent edge scan: all ordered axis-neighbor pairs, (off, on) tuples."""
    grid = field.grid
    on = field.values > xi
    key = {tuple(k): i for i, k in enumerate(grid.lattice.tolist())}
    pairs = set()
    for i in range(grid.n_nodes):
        for axis in range(grid.dim):
            neighbor = list(grid.lattice[i])
            neighbor[axis] += 1
            j = key.get(tuple(neighbor))
            if j is None:
                continue
            if on[i] == on[j]:
                continue
            if not (grid.interior[i] or grid.interior[j]):
                continue
            pairs.add((j, i) if on[i] else (i, j))
    return sorted(pairs)


# ---------------------------------------------------------------- free boundary

def test_free_boundary_empty_for_one_sided_fields(grid_1d_small):
    const = sample_field(grid_1d_small, lambda P: np.full(P.shape[0], 2.0))
    fb = free_boundary(const, 0.0)
    assert fb.is_empty and fb.off_nodes.size == 0 and fb.midpoints.shape == (0, 1)
    zero = sample_field(grid_1d_small, lambda P: np.zeros(P.shape[0]))
    assert free_boundary(zero, 0.0).is_empty


def test_free_boundary_single_edge_hand_case():
    grid = build_grid(1, 0.2, 2.0)
    f = sample_field(grid, lambda P: (P[:, 0] > 0.4).astype(float))
    fb = free_boundary(f, 0.0)
    # the only straddling edge joins the nodes at 0.3 (off) and 0.5 (on)
    assert fb.pairs == [(11, 12)]
    assert np.array_equal(fb.off_nodes, [11])
    assert fb.midpoints.shape == (1, 1)
    assert fb.midpoints[0, 0] == pytest.approx(0.4, rel=1e-12)


def test_free_boundary_threshold_is_strict(grid_1d_small):
    # values equal to xi sit on the off side
    f = sample_field(grid_1d_small, lambda P: (P[:, 0] > 0.0).astype(float))
    fb_at_one = free_boundary(f, 1.0)       # u <= 1 everywhere: empty
    assert fb_at_one.is_empty
    fb_below = free_boundary(f, 0.5)
    assert not fb_below.is_empty


@pytest.mark.parametrize("dim,h", [(1, 0.2), (2, 0.2)])
def test_free_boundary_matches_brute_force(dim, h):
    grid = build_grid(dim, h, 2.0)
    rng = np.random.default_rng(111 + dim)
    for _ in range(5):
        f = Field(grid, rng.uniform(-1.0, 1.0, grid.n_nodes))
        fb = free_boundary(f, 0.0)
        want = brute_force_boundary_pairs(f, 0.0)
        assert fb.pairs == want
        off_interior = sorted({i for i, _ in want if grid.interior[i]})
        assert fb.off_nodes.tolist() == off_interior
        for (i, j), mid in zip(fb.pairs, fb.midpoints):
            assert np.array_equal(mid, (grid.positions[i] + grid.positions[j]) / 2.0)


def test_free_boundary_ignores_fully_exterior_edges():
    grid = build_grid(1, 0.2, 2.0)
    # sign change between 1.3 and 1.5 (both exterior): not a free-boundary edge
    f = sample_field(grid, lambda P: np.where(P[:, 0] > 1.4, 1.0, 0.0))
    fb = free_boundary(f, 0.0)
    assert fb.is_empty


# ------------------------------------------------------------- point selection

def test_select_analysis_points_spread_and_determinism():
    grid = build_grid(1, 0.2, 2.0)
    f = sample_field(grid, lambda P: (np.abs(P[:, 0]) < 0.35).astype(float))
    fb = free_boundary(f, 0.0)
    assert len(fb.pairs) == 2  # midpoints at +-0.4
    pts = select_analysis_points(fb, limit=5)
    assert len(pts) == 2
    assert pts[0][0] == pytest.approx(-0.4, rel=1e-12)  # lexicographically smallest first
    assert pts[1][0] == pytest.approx(0.4, rel=1e-12)   # then the farthest
    assert [p.tolist() for p in select_analysis_points(fb, limit=1)] == [pts[0].tolist()]
    again = select_analysis_points(fb, limit=5)
    assert [p.tolist() for p in again] == [p.tolist() for p in pts]
    assert select_analysis_points(free_boundary(
        sample_field(grid, lambda P: np.zeros(P.shape[0])), 0.0)) == []


# ---------------------------------------------------------------- dyadic ladder

def test_dyadic_radii_doubling_and_caps():
    assert dyadic_radii(0.1, 0.85, 10) == [0.1, 0.2, 0.4, 0.8]
    assert dyadic_radii(0.1, 10.0, 3) == [0.1, 0.2, 0.4]
    # the top radius is included when it lands exactly on the cap
    assert dyadic_radii(0.1, 0.4, 10) == [0.1, 0.2, 0.4]


# ----------------------------------------------------------------- growth fits

def test_growth_exponent_recovers_sqrt_profile():
    grid = build_grid(1, 0.005, 2.0)
    f = sample_field(grid, lambda P: np.maximum(P[:, 0], 0.0) ** 0.5)
    fit = growth_exponent(f, [0.0], 0.02, 0.64, 6)
    assert abs(fit["slope"] - 0.5) <= 0.02
    assert fit["excluded"] == 0
    assert fit["radii"] == [0.02, 0.04, 0.08, 0.16, 0.32, 0.64]
    assert len(fit["sups"]) == 6
    assert 0.8 <= fit["C"] <= 1.2


def test_growth_exponent_recovers_linear_profile():
    grid = build_grid(1, 0.0025, 2.0)
    f = sample_field(grid, lambda P: np.maximum(P[:, 0], 0.0))
    fit = growth_exponent(f, [0.0], 0.08, 0.64, 4)
    assert abs(fit["slope"] - 1.0) <= 0.02


def test_growth_exponent_is_scale_invariant():
    grid = build_grid(1, 0.005, 2.0)
    f = sample_field(grid, lambda P: np.maximum(P[:, 0], 0.0) ** 0.5)
    g = Field(grid, 100.0 * f.values)
    fit_f = growth_exponent(f, [0.0], 0.02, 0.64, 6)
    fit_g = growth_exponent(g, [0.0], 0.02, 0.64, 6)
    assert abs(fit_f["slope"] - fit_g["slope"]) <= 1e-9
    assert fit_g["C"] == pytest.approx(100.0 * fit_f["C"], rel=1e-9)


def test_growth_exponent_counts_nonpositive_radii():
    grid = build_grid(1, 0.005, 2.0)
    f = sample_field(grid, lambda P: np.maximum(P[:, 0], 0.0) ** 0.5)
    # centered inside the zero phase: the two smallest balls see only zeros
    fit = growth_exponent(f, [-0.04], 0.02, 0.32, 5)
    assert fit["excluded"] == 2
    assert 0.5 < fit["slope"] < 1.2


def test_growth_exponent_validation():
    grid = build_grid(1, 0.01, 2.0)
    f = sample_field(grid, lambda P: np.maximum(P[:, 0], 0.0) ** 0.5)
    with pytest.raises(ConfigurationError):
        growth_exponent(f, [0.0], 0.01, 0.64, 5)      # r_min below 2h
    with pytest.raises(ConfigurationError):
        growth_exponent(f, [0.0], 0.04, 0.64, 2)      # too few radii requested
    with pytest.raises(ConfigurationError):
        growth_exponent(f, [0.5], 0.04, 0.64, 5)      # ladder exceeds the domain
    with pytest.raises(DomainError):
        growth_exponent(f, [0.0, 0.0], 0.04, 0.64, 5)
    zero = sample_field(grid, lambda P: np.zeros(P.shape[0]))
    with pytest.raises(DataError):
        growth_exponent(zero, [0.0], 0.04, 0.64, 5)   # no positive sups at all


# -------------------------------------------------------------- nondegeneracy

def test_nondegeneracy_is_exactly_calibrated_on_the_s_profile():
    # u = max(x, 0)^s has its free-boundary midpoint exactly at 0, so the
    # ratio u / dist^s is identically 1 on every tested node
    grid = build_grid(1, 0.01, 2.0)
    f = sample_field(grid, lambda P: np.maximum(P[:, 0], 0.0) ** 0.5)
    nd = nondegeneracy(f, 0.5)
    assert nd["c_min"] == 1.0
    assert grid.positions[nd["node"], 0] == pytest.approx(0.025, rel=1e-12)


def test_nondegeneracy_scales_linearly_in_the_field():
    grid = build_grid(1, 0.01, 2.0)
    f = sample_field(grid, lambda P: np.maximum(P[:, 0], 0.0) ** 0.5)
    doubled = Field(grid, 2.0 * f.values)
    assert nondegeneracy(doubled, 0.5)["c_min"] == 2.0 * nondegeneracy(f, 0.5)["c_min"]


def test_nondegeneracy_detects_degenerate_profiles_under_refinement():
    # u = max(x, 0) is flatter than x^s at the boundary: its constant decays
    # like h^(1-s) and refinement halves^(1-s) it
    vals = {}
    for h in (0.02, 0.01):
        grid = build_grid(1, h, 2.0)
        f = sample_field(grid, lambda P: np.maximum(P[:, 0], 0.0))
        vals[h] = nondegeneracy(f, 0.5)["c_min"]
    assert vals[0.01] < vals[0.02]
    assert vals[0.01] == pytest.approx(vals[0.02] / math.sqrt(2.0), rel=1e-9)


def test_nondegeneracy_failure_modes():
    grid = build_grid(1, 0.01, 2.0)
    const = sample_field(grid, lambda P: np.ones(P.shape[0]))
    with pytest.raises(DataError):
        nondegeneracy(const, 0.5)        # no free boundary
    # the only positive node sits within 2h of the boundary midpoints
    spike = np.zeros(grid.n_nodes)
    spike[np.argmin(np.abs(grid.positions[:, 0] - 0.005))] = 1.0
    with pytest.raises(DataError):
        nondegeneracy(Field(grid, spike), 0.5)
    f = sample_field(grid, lambda P: np.maximum(P[:, 0], 0.0) ** 0.5)
    with pytest.raises(ConfigurationError):
        nondegeneracy(f, 1.5)


# -------------------------------------------------------------------- density

def test_density_exact_halves_for_the_half_space():
    grid = build_grid(1, 0.01, 2.0)
    f = sample_field(grid, lambda P: (P[:, 0] > 0).astype(float))
    rows = density(f, [0.0], [0.1, 0.2, 0.4])
    for row in rows:
        assert row["zero_ratio"] == 0.5
        assert row["pos_ratio"] == 0.5


def test_density_ratios_are_complementary_and_bounded(grid_1d_small):
    rng = np.random.default_rng(127)
    f = Field(grid_1d_small, random_field_values(grid_1d_small, rng))
    rows = density(f, [0.1], [0.2, 0.4, 0.8])
    for row in rows:
        assert 0.0 <= row["zero_ratio"] <= 1.0
        assert row["pos_ratio"] == 1.0 - row["zero_ratio"]


def test_density_counts_match_brute_force(grid_1d_small):
    rng = np.random.default_rng(131)
    f = Field(grid_1d_small, random_field_values(grid_1d_small, rng))
    rows = density(f, [0.0], [0.5])
    dist = np.abs(grid_1d_small.positions[:, 0])
    inside = dist <= 0.5
    zero = int(np.count_nonzero(inside & (f.values <= 0.0)))
    assert rows[0]["zero_ratio"] == zero / int(np.count_nonzero(inside))


def test_density_validation(grid_1d_small):
    f = sample_field(grid_1d_small, lambda P: P[:, 0])
    with pytest.raises(DomainError):
        density(f, [0.0], [1.5])    # pokes outside the domain ball
    with pytest.raises(DomainError):
        density(f, [0.0], [0.0])
    with pytest.raises(DomainError):
        density(f, [0.0], [0.05])   # no nodes that close to the center
    with pytest.raises(DomainError):
        density(f, [0.0, 0.0], [0.5])


# ------------------------------------------------- stationarity and lifting gap

def test_subsolution_pairing_of_constants_vanishes(grid_1d_small):
    form = assemble_form(fractional_kernel(0.5), grid_1d_small)
    const = Field(grid_1d_small, np.full(grid_1d_small.n_nodes, 2.0))
    sub = subsolution_residual(form, const)
    assert abs(sub["max_pairing"]) <= 1e-12 * float(form.row_sums.max())
    assert residual_scale(form, const) == 0.0


def test_subsolution_pairing_of_a_spike_is_its_row_sum(grid_1d_small):
    form = assemble_form(fractional_kernel(0.5), grid_1d_small)
    i = int(np.nonzero(grid_1d_small.interior)[0][3])
    spike = np.zeros(grid_1d_small.n_nodes)
    spike[i] = 1.0
    sub = subsolution_residual(form, Field(grid_1d_small, spike))
    assert sub["max_pairing"] == form.row_sums[form.row_of[i]]
    assert sub["node"] == i


def test_vectorized_scans_match_node_loops():
    # reference: the per-node scans by node index, first extremum wins; a
    # pairing is one np.dot of the stored W_II row with the interior values,
    # plus the row's exterior term (one np.dot with the reference W_IE row)
    grid = build_grid(2, 0.2, 2.0)
    form = assemble_form(fractional_kernel(0.5, dim=2), grid)
    rng = np.random.default_rng(131)
    for _ in range(3):
        u = grid.positions[:, 0] - 0.1 + 0.05 * rng.standard_normal(grid.n_nodes)
        f = Field(grid, u)
        b_I = reference_exterior_term(form, u)
        best, node = -math.inf, -1
        for i in np.nonzero(grid.interior)[0]:
            k = form.row_of[i]
            pairing = (form.row_sums[k] * u[i]
                       - (float(np.dot(form.dense[k], u[form.interior_idx])) + b_I[k]))
            if pairing > best:
                best, node = pairing, int(i)
        assert subsolution_residual(form, f) == {"max_pairing": best, "node": node}

        mids = free_boundary(f, 0.0).midpoints
        c_min, node = math.inf, -1
        for i in np.nonzero(grid.interior & (u > 0.0))[0]:
            diff = mids - grid.positions[i]
            dist = float(np.min(np.sqrt(np.einsum("nd,nd->n", diff, diff))))
            if dist >= 2 * grid.h and float(u[i]) / dist ** 0.5 < c_min:
                c_min, node = float(u[i]) / dist ** 0.5, int(i)
        assert nondegeneracy(f, 0.5) == {"c_min": c_min, "node": node}


def test_residual_scale_is_row_sum_times_oscillation(grid_1d_small):
    form = assemble_form(fractional_kernel(0.5), grid_1d_small)
    f = Field(grid_1d_small, np.where(grid_1d_small.interior, 1.0, -1.0))
    assert residual_scale(form, f) == 2.0 * float(form.row_sums.max())


def test_minimizers_are_stationary_in_the_pairing_sense(grid_1d_small):
    kernel = fractional_kernel(0.5)
    rng = np.random.default_rng(137)
    data = np.where(grid_1d_small.interior, 0.0,
                    rng.uniform(0.0, 1.0, grid_1d_small.n_nodes))
    problem = ProblemSpec(kernel, grid_1d_small, data, rho=0.05, phase="one_phase")
    res = minimize(problem, n_restarts=4, seed=0)
    form = assemble_form(kernel, grid_1d_small)
    sub = subsolution_residual(form, res.field)
    scale = residual_scale(form, res.field)
    assert sub["max_pairing"] <= 1e-8 * scale


def test_lifting_distance_of_a_lifted_field_is_zero(grid_1d_small):
    form = assemble_form(fractional_kernel(0.5), grid_1d_small)
    rng = np.random.default_rng(139)
    f = Field(grid_1d_small, random_field_values(grid_1d_small, rng))
    region = Ball((0.0,), 0.6)
    lifted = harmonic_lifting(form, f, region)
    assert lifting_distance(form, lifted, region) == 0.0
    # a generic field is measurably non-harmonic
    assert lifting_distance(form, f, region) > 1e-6


def test_lifting_distance_is_mean_square(grid_1d_small):
    form = assemble_form(fractional_kernel(0.5), grid_1d_small)
    rng = np.random.default_rng(149)
    f = Field(grid_1d_small, random_field_values(grid_1d_small, rng))
    region = Ball((0.1,), 0.5)
    from nlfb.grid import region_interior_indices
    idx = region_interior_indices(grid_1d_small, region)
    lifted = harmonic_lifting(form, f, region)
    want = float(np.mean((f.values[idx] - lifted.values[idx]) ** 2))
    assert lifting_distance(form, f, region) == want


# each reader of a form and a field, called on a field at the center region
FORM_READERS = {
    "subsolution_residual": subsolution_residual,
    "lifting_distance": lambda form, field: lifting_distance(form, field, Ball((0.0,), 0.25)),
    "harmonic_lifting": lambda form, field: harmonic_lifting(form, field, Ball((0.0,), 0.25)),
    "dirichlet_energy": dirichlet_energy,
    "total_energy": lambda form, field: total_energy(form, field, 0.1, 0.0),
}


@pytest.mark.parametrize("reader", list(FORM_READERS))
def test_form_readers_refuse_a_field_from_another_grid(reader):
    # the form lives on h = 0.1, R_inf = 2 (40 nodes): a field on h = 0.05
    # (80 nodes), or on h = 0.2, R_inf = 4 (40 nodes too), is refused, while
    # one on a grid rebuilt with the same signature is read like one on the
    # form's own grid
    read = FORM_READERS[reader]
    grid = build_grid(1, 0.1, 2.0)
    form = assemble_form(fractional_kernel(0.5), grid)
    rng = np.random.default_rng(227)
    for other in (build_grid(1, 0.05, 2.0), build_grid(1, 0.2, 4.0)):
        field = Field(other, random_field_values(other, rng))
        with pytest.raises(ConfigurationError, match="not the form's grid"):
            read(form, field)
    assert build_grid(1, 0.2, 4.0).n_nodes == grid.n_nodes
    values = random_field_values(grid, rng)
    same, rebuilt = read(form, Field(grid, values)), read(form, Field(build_grid(1, 0.1, 2.0),
                                                                      values))
    if isinstance(same, Field):
        same, rebuilt = same.values.tolist(), rebuilt.values.tolist()
    assert same == rebuilt


# ------------------------------------------------------------- zoom identity

def scaling_problem(seed=5):
    grid = build_grid(1, 0.1, 2.0)
    kernel = fractional_kernel(0.5)
    rng = np.random.default_rng(seed)
    data = np.where(grid.interior, 0.0, rng.uniform(0.0, 1.0, grid.n_nodes))
    problem = ProblemSpec(kernel, grid, data, rho=0.3, xi=0.0, phase="one_phase")
    field = Field(grid, np.where(grid.interior, rng.uniform(0.0, 1.0, grid.n_nodes), data))
    return problem, field


def test_scaling_identity_is_bitwise_trivial_at_unit_parameters():
    problem, field = scaling_problem()
    assert scaling_discrepancy(problem, field, [0.0], 1.0, 1.0, 0.0) == 0.0


def test_scaling_discrepancy_stays_at_roundoff():
    problem, field = scaling_problem()
    rng = np.random.default_rng(151)
    for _ in range(5):
        x0 = [float(rng.uniform(-0.5, 0.5))]
        r = float(rng.uniform(0.3, 1.5))
        kappa = float(rng.uniform(0.5, 3.0))
        assert scaling_discrepancy(problem, field, x0, r, kappa, 0.0) <= 1e-12


def test_scaling_discrepancy_handles_threshold_shift_and_checkerboard():
    grid = build_grid(1, 0.1, 2.0)
    kernel = checkerboard_kernel(0.5, 1.0, 1.5, block_size=0.5, multipliers=(1.0, 1.5))
    rng = np.random.default_rng(157)
    data = np.where(grid.interior, 0.0, rng.uniform(0.0, 1.0, grid.n_nodes))
    problem = ProblemSpec(kernel, grid, data, rho=0.3, xi=0.0, phase="one_phase")
    field = Field(grid, np.where(grid.interior, rng.uniform(0.0, 1.0, grid.n_nodes), data))
    assert scaling_discrepancy(problem, field, [0.2], 0.7, 2.0, 0.0) <= 1e-12
    # nonzero threshold shift enters through v = kappa (u - xi)
    assert scaling_discrepancy(problem, field, [0.2], 0.7, 2.0, 0.25) <= 1e-12


def test_scaling_discrepancy_refuses_pair_arrays_above_the_memory_budget(monkeypatch):
    problem, field = scaling_problem()
    n = problem.grid.n_nodes
    monkeypatch.setattr(nlfb.grid, "MEMORY_BUDGET_BYTES", 8 * n * (n - 1) - 1)
    with pytest.raises(CapacityError):
        scaling_discrepancy(problem, field, [0.0], 0.5, 1.0, 0.0)
    monkeypatch.setattr(nlfb.grid, "MEMORY_BUDGET_BYTES", 8 * n * (n - 1))
    assert scaling_discrepancy(problem, field, [0.0], 0.5, 1.0, 0.0) <= 1e-12


def test_scaling_discrepancy_validation():
    problem, field = scaling_problem()
    with pytest.raises(ConfigurationError):
        scaling_discrepancy(problem, field, [0.0], 0.0, 1.0, 0.0)
    with pytest.raises(ConfigurationError):
        scaling_discrepancy(problem, field, [0.0], 1.0, -1.0, 0.0)
    with pytest.raises(DomainError):
        scaling_discrepancy(problem, field, [5.0], 1.0, 1.0, 0.0)
    with pytest.raises(DomainError):
        scaling_discrepancy(problem, field, [0.0, 0.0], 1.0, 1.0, 0.0)


# ------------------------------------------------------------------- reporting

def analysis_instance():
    grid = build_grid(1, 0.02, 2.0)
    kernel = fractional_kernel(0.5)

    def data_fn(P):
        x = P[:, 0]
        return np.where((x >= 1.0) & (x <= 2.0), 0.35, 0.0)

    data = np.where(grid.interior, 0.0, data_fn(grid.positions))
    problem = ProblemSpec(kernel, grid, data, rho=0.08, xi=0.0, phase="one_phase")
    res = minimize(problem, n_restarts=4, seed=0)
    form = assemble_form(kernel, grid)
    return problem, form, res.field


def test_build_report_and_serializations():
    problem, form, field = analysis_instance()
    fb = free_boundary(field, problem.xi)
    assert not fb.is_empty
    points = select_analysis_points(fb, limit=2)
    region = Ball((0.0,), 0.5)
    report = build_report(problem, form, field, points,
                          r_min=0.08, r_max=0.5, n_dyadic=4, region=region)
    assert report.fb_nodes == [int(i) for i in fb.off_nodes]
    assert len(report.growth) == len(points)
    assert report.nondeg_constant is not None and report.nondeg_constant > 0
    assert report.subsolution_max <= 1e-8 * report.extras["subsolution_scale"]
    assert report.lifting_l2 >= 0.0
    for g_row, d_row in zip(report.growth, report.density):
        assert g_row["radii"] == [row["r"] for row in d_row["rows"]]
        assert d_row["c1"] == min(row["zero_ratio"] for row in d_row["rows"])

    text = report_text(report)
    again = build_report(problem, form, field, points,
                         r_min=0.08, r_max=0.5, n_dyadic=4, region=region)
    assert report_text(again) == text
    parsed = json.loads(text)
    assert parsed["extras"]["n_fb_pairs"] == len(fb.pairs)

    for k in range(len(points)):
        text = point_csv_text(report, k)
        assert text.endswith("\n") and "\r" not in text
        lines = text.strip().splitlines()
        assert lines[0] == "r,sup,zero_ratio,pos_ratio"
        assert len(lines) == 1 + len(report.growth[0]["radii"])
        for line in lines[1:]:
            values = [float(v) for v in line.split(",")]
            assert values[2] + values[3] == pytest.approx(1.0, abs=1e-15)


def test_build_report_reads_each_points_distances_once(monkeypatch):
    # a point's growth sups, l2 mean and density compare one ball_distances
    # pass with every radius of its ladder; the lifting region's two queries
    # take one each. report.json is byte-identical to one pass per query
    problem, form, field = analysis_instance()
    points = select_analysis_points(free_boundary(field, problem.xi), limit=2)
    settings = dict(r_min=0.08, r_max=0.5, n_dyadic=4, region=Ball((0.0,), 0.5))
    passes = []
    real = nlfb.grid.ball_distances

    def counted(grid, x0):
        passes.append(1)
        return real(grid, x0)

    monkeypatch.setattr(nlfb.grid, "ball_distances", counted)
    monkeypatch.setattr(nlfb.analysis, "ball_distances", counted)
    report = build_report(problem, form, field, points, **settings)
    assert len(passes) == len(points) + 2
    passes.clear()
    # no shared pass: every query computes its own distances
    monkeypatch.setattr(nlfb.analysis, "ball_distances", lambda grid, x0: None)
    per_query = build_report(problem, form, field, points, **settings)
    assert len(passes) == sum(2 * len(g["radii"]) + 1 for g in report.growth) + 2
    assert report_text(per_query).encode() == report_text(report).encode()


def test_build_report_without_free_boundary():
    grid = build_grid(1, 0.05, 2.0)
    kernel = fractional_kernel(0.5)
    problem = ProblemSpec(kernel, grid, np.zeros(grid.n_nodes), rho=0.1)
    form = assemble_form(kernel, grid)
    field = Field(grid, np.zeros(grid.n_nodes))
    report = build_report(problem, form, field, points=[],
                          r_min=0.2, r_max=0.5, n_dyadic=3, region=Ball((0.0,), 0.5))
    assert report.fb_nodes == [] and report.growth == [] and report.density == []
    assert report.nondeg_constant is None
    assert report.extras["n_fb_pairs"] == 0
