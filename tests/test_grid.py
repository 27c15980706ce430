"""Lattice construction, node roles, ball statistics, field CSV round trips."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nlfb import (
    Ball,
    ConfigurationError,
    DataError,
    DomainError,
    Field,
    build_grid,
    enumerate_lattice,
    l2_mean_over_ball,
    load_field_csv,
    nodes_in_ball,
    region_interior_indices,
    sample_field,
    sup_over_ball,
)
from nlfb.grid import Grid, csv_text, field_csv_text

from conftest import random_field_values


# ----------------------------------------------------------------- construction

def test_eight_node_hand_enumeration():
    # h = 0.5, omega = 1, R_inf = 2: centers at +-(0.25 + 0.5 k)
    g = enumerate_lattice(1, 0.5, 2.0, 1.0)
    assert g.n_nodes == 8
    expected = [-1.75, -1.25, -0.75, -0.25, 0.25, 0.75, 1.25, 1.75]
    assert np.array_equal(g.positions[:, 0], expected)
    assert np.array_equal(g.lattice[:, 0], [-4, -3, -2, -1, 0, 1, 2, 3])
    assert np.array_equal(g.interior, [False, False, True, True, True, True, False, False])
    assert g.cell_measure == 0.5


def test_positions_are_half_offset_lattice():
    for g in (build_grid(1, 0.2, 2.0), build_grid(2, 0.2, 2.0)):
        assert np.array_equal(g.positions, (g.lattice + 0.5) * g.h)
        # the half-offset keeps every node strictly away from the origin
        norms = np.linalg.norm(g.positions, axis=1)
        assert norms.min() >= g.h / 2.0


def test_role_split_uses_strict_interior_inequality():
    # dyadic spacing puts nodes exactly on both radii: |x| = omega is exterior,
    # |x| = R_inf is kept
    g = enumerate_lattice(1, 0.25, 2.125, 0.875)
    pos = g.positions[:, 0]
    assert pos.min() == -2.125 and pos.max() == 2.125  # nodes at R_inf retained
    on_omega = np.abs(pos) == 0.875
    assert on_omega.sum() == 2
    assert not g.interior[on_omega].any()
    assert int(g.interior.sum()) == 6  # +-{0.125, 0.375, 0.625}


def test_two_dimensional_counts_match_brute_force():
    g = build_grid(2, 0.2, 2.0, 1.0)
    # independent enumeration of cell centers with |x| <= 2
    count = 0
    interior_count = 0
    for i in range(-11, 11):
        for j in range(-11, 11):
            x, y = (i + 0.5) * 0.2, (j + 0.5) * 0.2
            d = math.hypot(x, y)
            if d <= 2.0:
                count += 1
                if d < 1.0:
                    interior_count += 1
    assert g.n_nodes == count
    assert int(g.interior.sum()) == interior_count
    assert g.cell_measure == pytest.approx(0.04, rel=1e-15)


def test_node_order_is_lexicographic():
    g = build_grid(2, 0.2, 2.0)
    tuples = [tuple(p) for p in g.positions]
    assert tuples == sorted(tuples)


def test_build_is_deterministic():
    a = build_grid(2, 0.1, 2.0)
    b = build_grid(2, 0.1, 2.0)
    assert np.array_equal(a.positions, b.positions)
    assert np.array_equal(a.lattice, b.lattice)
    assert np.array_equal(a.interior, b.interior)


def test_indices_of_lattice_round_trip():
    g = build_grid(2, 0.2, 2.0)
    picked = np.arange(0, g.n_nodes, 7)
    assert np.array_equal(g.indices_of_lattice(g.lattice[picked]), picked)
    for i in picked[:5].tolist():
        assert g.indices_of_lattice(g.lattice[i]).tolist() == [i]
    assert g.indices_of_lattice((999, 999)).tolist() == [-1]
    assert g.indices_of_lattice([[999, 0], g.lattice[3], [0, -999]]).tolist() == [-1, 3, -1]


def test_build_grid_preconditions():
    with pytest.raises(ConfigurationError):
        build_grid(3, 0.1, 2.0)          # unsupported dimension
    with pytest.raises(ConfigurationError):
        build_grid(1, 0.0, 2.0)          # h must be positive
    with pytest.raises(ConfigurationError):
        build_grid(1, 0.1, 1.9)          # window must reach 2 * omega
    with pytest.raises(ConfigurationError):
        build_grid(1, 0.25, 2.0, 1.0)    # h must resolve omega: h < omega / 4
    # the unvalidated enumeration accepts the same coarse spacing
    assert enumerate_lattice(1, 0.25, 2.0, 1.0).n_nodes > 0


# ------------------------------------------------------------------ field basics

def test_sample_field_evaluates_at_nodes(grid_1d_small):
    f = sample_field(grid_1d_small, lambda P: 2.0 * P[:, 0] + 1.0)
    assert np.array_equal(f.values, 2.0 * grid_1d_small.positions[:, 0] + 1.0)


def test_field_validates_shape_and_finiteness(grid_1d_small):
    with pytest.raises(DataError):
        Field(grid_1d_small, np.zeros(grid_1d_small.n_nodes - 1))
    bad = np.zeros(grid_1d_small.n_nodes)
    bad[3] = np.inf
    with pytest.raises(DataError):
        Field(grid_1d_small, bad)


# ------------------------------------------------------------------- ball stats

def test_nodes_in_ball_matches_brute_force():
    g = build_grid(2, 0.2, 2.0)
    rng = np.random.default_rng(2)
    for _ in range(20):
        x0 = rng.uniform(-1.5, 1.5, 2)
        r = float(rng.uniform(0.1, 1.0))
        idx = nodes_in_ball(g, x0, r)
        dist = np.linalg.norm(g.positions - x0, axis=1)
        assert np.array_equal(idx, np.nonzero(dist <= r)[0])


def test_ball_boundary_is_closed():
    # dyadic spacing: node at exactly 0.4375, radius exactly 0.4375 -> included
    g = build_grid(1, 0.125, 2.0)
    idx = nodes_in_ball(g, [0.0], 0.4375)
    expected = [-0.4375, -0.3125, -0.1875, -0.0625, 0.0625, 0.1875, 0.3125, 0.4375]
    assert np.array_equal(g.positions[idx, 0], expected)


def test_sup_over_ball_values(grid_1d_small):
    f = sample_field(grid_1d_small, lambda P: P[:, 0])
    assert sup_over_ball(f, [0.0], 0.55) == pytest.approx(0.5, rel=1e-12)
    # sup is signed, not an absolute value
    assert sup_over_ball(f, [-1.5], 0.25) == pytest.approx(-1.3, rel=1e-12)
    # ball reaching beyond the window competes with the implicit 0 outside
    assert sup_over_ball(f, [3.0], 1.2) == pytest.approx(1.9, rel=1e-12)
    neg = sample_field(grid_1d_small, lambda P: -P[:, 0])
    assert sup_over_ball(neg, [3.0], 1.2) == 0.0
    # ball entirely beyond the window: implicit value 0
    assert sup_over_ball(f, [5.0], 0.1) == 0.0
    # ball inside the window but between nodes: error, not silent 0
    with pytest.raises(DomainError):
        sup_over_ball(f, [0.0], 0.05)
    with pytest.raises(DomainError):
        sup_over_ball(f, [0.0, 0.0], 0.5)  # wrong center length


def test_sup_over_ball_monotone_in_radius(grid_1d_small):
    rng = np.random.default_rng(3)
    f = Field(grid_1d_small, random_field_values(grid_1d_small, rng))
    sups = [sup_over_ball(f, [0.3], r) for r in (0.2, 0.4, 0.8, 1.6)]
    assert all(a <= b for a, b in zip(sups, sups[1:]))


def test_l2_mean_constant_field(grid_1d_small):
    f = sample_field(grid_1d_small, lambda P: np.full(P.shape[0], -3.0))
    assert l2_mean_over_ball(f, [0.0], 0.7) == pytest.approx(3.0, rel=1e-15)


def test_l2_mean_half_indicator(grid_1d_small):
    # indicator of x > 0 over a symmetric ball: RMS = sqrt(1/2)
    f = sample_field(grid_1d_small, lambda P: (P[:, 0] > 0).astype(float))
    assert l2_mean_over_ball(f, [0.0], 0.5) == pytest.approx(math.sqrt(0.5), rel=1e-15)


def test_l2_mean_approaches_continuum_value(grid_1d_medium):
    # u = max(x, 0) on B_1(0): continuum RMS = sqrt( (1/2) * 1/3 ) = 1/sqrt(6)
    f = sample_field(grid_1d_medium, lambda P: np.maximum(P[:, 0], 0.0))
    got = l2_mean_over_ball(f, [0.0], 1.0)
    assert abs(got - 1.0 / math.sqrt(6.0)) < 2.0 * grid_1d_medium.h


def test_l2_mean_empty_ball_raises(grid_1d_small):
    f = sample_field(grid_1d_small, lambda P: P[:, 0])
    with pytest.raises(DomainError):
        l2_mean_over_ball(f, [0.0], 0.05)


# ---------------------------------------------------------------------- regions

def test_region_interior_indices_selects_interior_ball(grid_1d_small):
    idx = region_interior_indices(grid_1d_small, Ball((0.0,), 0.55))
    assert np.allclose(grid_1d_small.positions[idx, 0],
                       [-0.5, -0.3, -0.1, 0.1, 0.3, 0.5], atol=1e-12)
    assert grid_1d_small.interior[idx].all()


def test_region_must_sit_inside_domain(grid_1d_small):
    with pytest.raises(DomainError):
        region_interior_indices(grid_1d_small, Ball((0.8,), 0.5))  # pokes outside omega
    with pytest.raises(DomainError):
        region_interior_indices(grid_1d_small, Ball((0.0, 0.0), 0.5))
    with pytest.raises(DomainError):
        region_interior_indices(grid_1d_small, Ball((0.0,), 0.01))  # no nodes


def test_ball_rejects_negative_radius():
    with pytest.raises(DomainError):
        Ball((0.0,), -0.1)


# -------------------------------------------------------------------- field CSV

def test_field_csv_round_trip_is_bitwise(tmp_path, grid_1d_small):
    rng = np.random.default_rng(5)
    f = Field(grid_1d_small, random_field_values(grid_1d_small, rng))
    path = tmp_path / "field.csv"
    path.write_text(field_csv_text(f))
    g = load_field_csv(grid_1d_small, path)
    assert np.array_equal(f.values, g.values)


def test_field_csv_round_trip_2d(tmp_path):
    grid = build_grid(2, 0.2, 2.0)
    rng = np.random.default_rng(6)
    f = Field(grid, rng.standard_normal(grid.n_nodes))
    path = tmp_path / "field.csv"
    path.write_text(field_csv_text(f))
    assert np.array_equal(load_field_csv(grid, path).values, f.values)


def test_field_csv_header_and_roles(grid_1d_small):
    f = sample_field(grid_1d_small, lambda P: P[:, 0])
    lines = field_csv_text(f).splitlines()
    assert lines[0] == "# 1 0.2 1.0 2.0"
    assert lines[1] == "index,x1,role,value"
    assert len(lines) == 2 + grid_1d_small.n_nodes
    roles = [ln.split(",")[2] for ln in lines[2:]]
    expected = ["interior" if b else "exterior" for b in grid_1d_small.interior]
    assert roles == expected


def repeated_coordinate_grid(dim):
    """A hand-built Grid whose coordinate columns repeat 17-digit values, 0.0 and
    -0.0 (which compare equal), each several times."""
    axis = [6.5 * 0.07, -0.0, 0.1 + 0.2, 0.0, -1.5 * 0.07, -0.0, 0.0, 6.5 * 0.07]
    positions = np.array(np.meshgrid(*[axis] * dim, indexing="ij")).reshape(dim, -1).T
    n = positions.shape[0]
    return Grid(dim, 0.07, 1.0, 2.0, positions, np.arange(n * dim).reshape(n, dim),
                np.arange(n) % 3 != 0)


def reference_csv_text(header, rows) -> str:
    """The per-value rule, a row at a time: repr(float(v)) for floats (numpy.float64
    among them), str for everything else; each line ends in a newline."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(repr(float(v)) if isinstance(v, float) else str(v) for v in row))
    return "\n".join(lines) + "\n"


def test_csv_text_follows_the_per_value_rule():
    # csv_text renders a column at a time, each distinct float of an all-float
    # column once, keyed by its bits; the reference renders each value of a
    # row alone
    rows = [
        (0, np.int64(7), 0.1 + 0.2, np.float64(-0.0), "interior", 1, 2.5),
        (1, np.int32(-3), 0.0, np.float64(5e-324), "exterior", 2.5, True),
        (np.int64(2), 10 ** 20, -0.0, np.float64(0.1 + 0.2), "a b", np.float32(0.1), None),
        (3, 0, 2.2250738585072014e-308, np.float64(-1.7976931348623157e308), "", -0.0, 0.0),
        (4, np.int64(7), 0.1 + 0.2, np.float64(0.0), "interior", np.float64(-0.0), "x"),
    ]
    header = ["i", "ints", "floats", "np_floats", "text", "mixed", "other"]
    got = csv_text(header, list(zip(*rows)))
    assert got.encode() == reference_csv_text(header, rows).encode()
    lines = got.splitlines()
    assert [line.split(",")[2] for line in lines[1:]] == [
        "0.30000000000000004", "0.0", "-0.0", "2.2250738585072014e-308", "0.30000000000000004"]
    assert [line.split(",")[3] for line in lines[1:]] == [
        "-0.0", "5e-324", "0.30000000000000004", "-1.7976931348623157e+308", "0.0"]
    assert lines[3].split(",")[5] == "0.1"      # numpy.float32 is not a float: str
    assert csv_text(header, []) == reference_csv_text(header, []) == ",".join(header) + "\n"
    # numpy columns render as the lists of their scalars: a float64 array as
    # floats, the other dtypes through str
    arrays = [np.array([0.1 + 0.2, -0.0, 0.0, 5e-324, -0.0]), np.arange(5, dtype=np.int32),
              np.array([0.1, 2.5, -0.0, 1e-8, 3.0], dtype=np.float32),
              np.array(["a", "bb", "", "c", "d"]), np.zeros(5, dtype=np.float64)[::-1]]
    names = ["f64", "i32", "f32", "str", "strided"]
    want = reference_csv_text(names, zip(*map(list, arrays)))
    assert csv_text(names, arrays).encode() == want.encode()
    assert want.splitlines()[1] == "0.30000000000000004,0,0.1,a,0.0"


_CELLS = (st.floats(allow_nan=False, width=64),
          st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 0.1 + 0.2]),
          st.integers(-10 ** 20, 10 ** 20),
          st.text(alphabet="abc-_ ", max_size=3))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(st.sampled_from(range(len(_CELLS))), min_size=1, max_size=3),
                min_size=1, max_size=4).flatmap(
    lambda kinds: st.lists(st.tuples(*[st.one_of(*[_CELLS[k] for k in ks]) for ks in kinds]),
                           max_size=12)))
def test_csv_text_follows_the_per_value_rule_on_random_tables(rows):
    # each column draws from one to three kinds of value, so some columns hold
    # only floats and some mix floats with ints and strings
    header = [f"c{j}" for j in range(len(rows[0]))] if rows else ["c0"]
    assert csv_text(header, list(zip(*rows))).encode() == reference_csv_text(header, rows).encode()


@pytest.mark.parametrize("dim,h", [(1, 0.2), (2, 0.2), pytest.param(1, None, id="hand-built-1d"),
                                   pytest.param(2, None, id="hand-built-2d")])
def test_field_csv_text_renders_csv_text_rows(dim, h, tmp_path):
    # the reference is the per-value rule over one (index, x1[, x2], role,
    # value) tuple per node: repr for the floats, str for the rest, signed
    # zeros included. The hand-built grids (h None) repeat 0.0 and -0.0
    # within a coordinate column, so a rendering keyed by float equality
    # would mix them up.
    grid = build_grid(dim, h, 2.0) if h is not None else repeated_coordinate_grid(dim)
    values = random_field_values(grid, np.random.default_rng(dim))
    values[[0, 3]] = -0.0
    values[[1, 4]] = 0.0
    values[2] = 1e-300
    f = Field(grid, values)
    cols = ["index"] + [f"x{d + 1}" for d in range(dim)] + ["role", "value"]
    rows = [(i, *grid.positions[i].tolist(), "interior" if grid.interior[i] else "exterior",
             float(v)) for i, v in enumerate(values)]
    want = (f"# {dim} {grid.h!r} {grid.omega_radius!r} {grid.R_inf!r}\n"
            + reference_csv_text(cols, rows))
    got = field_csv_text(f)
    assert got.encode() == want.encode()
    assert got.splitlines()[2].endswith(",-0.0")
    if h is None:
        for d in range(dim):
            texts = [line.split(",")[1 + d] for line in got.splitlines()[2:]]
            assert {"0.45500000000000007", "-0.10500000000000001", "0.30000000000000004",
                    "0.0", "-0.0"} <= set(texts)
            assert texts.count("-0.0") == texts.count("0.0") == 2 * len(texts) // 8
    path = tmp_path / "field.csv"
    path.write_text(got)
    assert load_field_csv(grid, path).values.tobytes() == values.tobytes()


def test_field_csv_rejects_wrong_grid(tmp_path, grid_1d_small):
    f = sample_field(grid_1d_small, lambda P: P[:, 0])
    path = tmp_path / "field.csv"
    path.write_text(field_csv_text(f))
    other = build_grid(1, 0.1, 2.0)
    with pytest.raises(DataError):
        load_field_csv(other, path)


def test_field_csv_rejects_corruption(tmp_path, grid_1d_small):
    f = sample_field(grid_1d_small, lambda P: P[:, 0])
    path = tmp_path / "field.csv"

    path.write_text(field_csv_text(f))
    text = path.read_text()

    # drop a row
    path.write_text("\n".join(text.splitlines()[:-1]) + "\n")
    with pytest.raises(DataError):
        load_field_csv(grid_1d_small, path)

    # flip a role
    broken = text.replace("interior", "exterior", 1)
    path.write_text(broken)
    with pytest.raises(DataError):
        load_field_csv(grid_1d_small, path)

    # non-numeric value
    lines = text.splitlines()
    parts = lines[2].split(",")
    parts[-1] = "oops"
    lines[2] = ",".join(parts)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataError):
        load_field_csv(grid_1d_small, path)

    # missing signature
    path.write_text("\n".join(text.splitlines()[1:]) + "\n")
    with pytest.raises(DataError):
        load_field_csv(grid_1d_small, path)


def test_field_csv_missing_file(grid_1d_small, tmp_path):
    with pytest.raises(DataError):
        load_field_csv(grid_1d_small, tmp_path / "absent.csv")
