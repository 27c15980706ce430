"""Kernel families: pointwise values, symmetry, envelope checks, rescaling."""

import numpy as np
import pytest

from nlfb import (
    ConfigurationError,
    DataError,
    DomainError,
    KernelSpec,
    check_ellipticity,
    checkerboard_kernel,
    eval_kernel,
    fractional_kernel,
    load_custom_table,
    modulated_kernel,
    rescale_kernel,
)

from conftest import reference_multiplier

ALL_VALID_SPECS = [
    fractional_kernel(0.5),
    fractional_kernel(0.3, lam=2.0, dim=2),
    modulated_kernel(0.5, 1.0, 2.0, amplitude=1.0 / 3.0, frequency=1.0, multiplier=1.5),
    modulated_kernel(0.7, 1.0, 2.0, amplitude=1.0 / 3.0, frequency=3.0, multiplier=1.5, dim=2),
    checkerboard_kernel(0.5, 1.0, 1.5, block_size=0.5, multipliers=(1.0, 1.5)),
    checkerboard_kernel(0.3, 1.0, 2.0, block_size=0.25, multipliers=(1.0, 2.0), dim=2),
]


# ---------------------------------------------------------------- point values

def test_fractional_point_value_1d():
    # (1 - 0.5) * 1 * |0 - 2|^(-1 - 1) = 0.5 * 0.25, exact in binary
    k = fractional_kernel(0.5)
    assert eval_kernel(k, 0.0, 2.0) == 0.125


def test_fractional_point_value_2d():
    # (1 - 0.5) * 1 * 2^(-2 - 1) = 0.0625
    k = fractional_kernel(0.5, dim=2)
    assert eval_kernel(k, (0.0, 0.0), (2.0, 0.0)) == 0.0625


def test_fractional_scaling_homogeneity():
    # K(0, t) = (1-s) * t^(-1-2s): doubling the gap divides by 2^(1+2s)
    k = fractional_kernel(0.25)
    v1 = eval_kernel(k, 0.0, 1.0)
    v2 = eval_kernel(k, 0.0, 2.0)
    assert v1 == 0.75
    assert abs(v2 - 0.75 * 2.0 ** (-1.5)) < 1e-15


def test_modulated_point_value():
    # m = c * (1 + a * sin(w * (x + y)))
    k = modulated_kernel(0.5, 1.0, 2.0, amplitude=0.25, frequency=2.0, multiplier=1.5)
    x, y = 0.3, 0.8
    expected = 0.5 * 1.5 * (1.0 + 0.25 * np.sin(2.0 * (x + y))) * abs(x - y) ** -2.0
    assert eval_kernel(k, x, y) == pytest.approx(expected, rel=1e-15)


def test_checkerboard_same_and_cross_color_values():
    k = checkerboard_kernel(0.5, 1.0, 1.5, block_size=0.5, multipliers=(1.0, 1.5))
    # blocks 0 and 0: same color -> multipliers[0] = 1.0; dist 0.125
    assert eval_kernel(k, 0.25, 0.375) == 0.5 * 1.0 * 0.125 ** -2.0
    # blocks 0 and 1: cross color -> multipliers[1] = 1.5; dist 0.5
    assert eval_kernel(k, 0.25, 0.75) == 0.5 * 1.5 * 0.5 ** -2.0
    # blocks 0 and 2: same color again
    assert eval_kernel(k, 0.25, 1.25) == 0.5 * 1.0 * 1.0


def test_batch_eval_matches_scalar_eval():
    rng = np.random.default_rng(7)
    for spec in ALL_VALID_SPECS:
        X = rng.uniform(-2, 2, size=(50, spec.dim))
        Y = rng.uniform(-2, 2, size=(50, spec.dim))
        batch = eval_kernel(spec, X, Y)
        for i in range(50):
            xi = X[i, 0] if spec.dim == 1 else X[i]
            yi = Y[i, 0] if spec.dim == 1 else Y[i]
            assert eval_kernel(spec, xi, yi) == batch[i]


def reference_eval(spec, X, Y):
    """K on (n, d) batches as computed before the per-axis pair formula: einsum
    distances and (n, d) transformed positions, one multiplier per pair."""
    diff = X - Y
    dist = np.sqrt(np.einsum("nd,nd->n", diff, diff))
    return reference_multiplier(spec, X, Y) * dist ** (-(spec.dim + 2.0 * spec.s))


TABLE = {"block_size": 0.5, "table": {(0, 0): 1.5, (-1, 1): 2.0, (1, 2): 1.25}}
REFERENCE_SPECS = ALL_VALID_SPECS + [
    fractional_kernel(0.3, lam=1.7, dim=1),
    checkerboard_kernel(0.4, 1.0, 3.0, block_size=0.3, multipliers=(1.0, 1.5, 3.0), dim=2),
    KernelSpec("custom_table", 0.3, 1.0, 2.0, 1, TABLE),
    KernelSpec("custom_table", 0.6, 1.0, 2.0, 2, TABLE),
]


def test_eval_kernel_equals_einsum_reference_bitwise():
    # the axis-by-axis distance and the per-node multipliers keep the bits of
    # the einsum evaluation they replaced, for every family, rescaled or not
    rng = np.random.default_rng(29)
    for spec in REFERENCE_SPECS:
        x0 = rng.uniform(-1.0, 1.0, spec.dim)
        for kernel in (spec, rescale_kernel(spec, x0, 0.7)):
            for scale in (1e-3, 1.0, 1e3):
                X = rng.uniform(-2.0, 2.0, size=(1000, spec.dim)) * scale
                Y = rng.uniform(-2.0, 2.0, size=(1000, spec.dim)) * scale
                want = reference_eval(kernel, X, Y)
                assert eval_kernel(kernel, X, Y).tobytes() == want.tobytes()
                single = np.broadcast_to(X[:1], Y.shape)
                assert (eval_kernel(kernel, X[0] if spec.dim == 2 else X[0, 0], Y).tobytes()
                        == reference_eval(kernel, single, Y).tobytes())


def test_eval_rejects_coincident_points():
    k = fractional_kernel(0.5)
    with pytest.raises(DomainError):
        eval_kernel(k, 1.0, 1.0)


def test_eval_rejects_mismatched_batches():
    k = fractional_kernel(0.5)
    with pytest.raises(DomainError):
        eval_kernel(k, np.zeros(3), np.ones(4))


# ------------------------------------------------------------------- symmetry

def test_kernel_symmetry_is_exact():
    rng = np.random.default_rng(11)
    for spec in ALL_VALID_SPECS:
        X = rng.uniform(-2, 2, size=(200, spec.dim))
        Y = rng.uniform(-2, 2, size=(200, spec.dim))
        fwd = eval_kernel(spec, X, Y)
        bwd = eval_kernel(spec, Y, X)
        assert np.array_equal(fwd, bwd)


# ------------------------------------------------------------- envelope checks

def test_envelope_containment_all_builtin_families():
    for spec in ALL_VALID_SPECS:
        report = check_ellipticity(spec, n_samples=10000, seed=3)
        assert report.passed, (spec.family, report)
        assert report.empirical_lambda >= spec.lam * (1 - 1e-12)
        assert report.empirical_Lambda <= spec.Lam * (1 + 1e-12)


def test_envelope_ratio_from_direct_evaluation():
    # Independent of check_ellipticity: ratio K * |x-y|^(d+2s) / (1-s) in [lam, Lam]
    rng = np.random.default_rng(5)
    spec = checkerboard_kernel(0.5, 1.0, 1.5, block_size=0.5, multipliers=(1.0, 1.5))
    X = rng.uniform(-2, 2, size=(10000, 1))
    Y = rng.uniform(-2, 2, size=(10000, 1))
    dist = np.abs(X[:, 0] - Y[:, 0])
    values = eval_kernel(spec, X, Y)
    ratio = values * dist ** 2.0 / 0.5
    assert ratio.min() >= 1.0 - 1e-12
    assert ratio.max() <= 1.5 + 1e-12


def test_ellipticity_detects_upper_violation():
    # m = 1.5 * (1 + 0.5 sin(.)) ranges over [0.75, 2.25], outside [1, 2]
    bad = modulated_kernel(0.5, 1.0, 2.0, amplitude=0.5, frequency=1.0, multiplier=1.5)
    report = check_ellipticity(bad, n_samples=10000, seed=0)
    assert not report.passed
    assert report.empirical_Lambda > 2.0
    assert report.empirical_lambda < 1.0


def test_ellipticity_detects_lower_violation_only():
    # multipliers {0.5, 1.5} against lam = 1: lower bound fails, upper holds
    bad = checkerboard_kernel(0.5, 1.0, 1.5, block_size=0.5, multipliers=(0.5, 1.5))
    report = check_ellipticity(bad, n_samples=10000, seed=0)
    assert not report.passed
    # same-color pairs hit the low multiplier
    assert report.empirical_lambda == pytest.approx(0.5, rel=1e-12)
    assert report.empirical_Lambda <= 1.5 + 1e-12


def test_ellipticity_fractional_ratio_is_constant():
    report = check_ellipticity(fractional_kernel(0.5), n_samples=2000, seed=1)
    assert report.passed
    assert report.empirical_lambda == pytest.approx(1.0, rel=1e-12)
    assert report.empirical_Lambda == pytest.approx(1.0, rel=1e-12)


# -------------------------------------------------------------------- rescaling

def test_rescale_fractional_is_invariant():
    k = fractional_kernel(0.5)
    assert rescale_kernel(k, 0.3, 2.0) == k


def test_rescale_matches_definition():
    # K~(x, y) = r^(d+2s) * K(x0 + r x, x0 + r y)
    rng = np.random.default_rng(13)
    for spec in ALL_VALID_SPECS:
        x0 = rng.uniform(-1, 1, spec.dim)
        r = float(rng.uniform(0.5, 2.0))
        scaled = rescale_kernel(spec, x0, r)
        X = rng.uniform(-2, 2, size=(1000, spec.dim))
        Y = rng.uniform(-2, 2, size=(1000, spec.dim))
        # near-coincident pairs make the reference side cancel catastrophically;
        # keep the pairs separated so both sides are well conditioned
        keep = np.linalg.norm(X - Y, axis=1) >= 0.5
        X, Y = X[keep], Y[keep]
        assert keep.sum() > 500
        got = eval_kernel(scaled, X, Y)
        want = r ** (spec.dim + 2.0 * spec.s) * eval_kernel(spec, x0 + r * X, x0 + r * Y)
        assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want))


def test_rescale_preserves_envelope_constants():
    spec = checkerboard_kernel(0.5, 1.0, 1.5, block_size=0.5, multipliers=(1.0, 1.5))
    scaled = rescale_kernel(spec, [0.3], 0.25)
    assert scaled.lam == spec.lam and scaled.Lam == spec.Lam and scaled.s == spec.s
    report = check_ellipticity(scaled, n_samples=5000, seed=2)
    assert report.passed


def test_rescale_composition_is_exact():
    spec = modulated_kernel(0.5, 1.0, 2.0, amplitude=0.25, frequency=2.0)
    twice = rescale_kernel(rescale_kernel(spec, [0.5], 2.0), [0.25], 0.5)
    once = rescale_kernel(spec, [0.5 + 2.0 * 0.25], 2.0 * 0.5)
    assert twice == once


def test_rescale_rejects_bad_factor_and_center():
    spec = modulated_kernel(0.5, 1.0, 2.0, amplitude=0.25, frequency=2.0)
    with pytest.raises(DomainError):
        rescale_kernel(spec, [0.0], 0.0)
    with pytest.raises(DomainError):
        rescale_kernel(spec, [0.0], -1.0)
    with pytest.raises(DomainError):
        rescale_kernel(spec, [0.0, 0.0], 2.0)  # wrong center length for dim 1


# ------------------------------------------------------------ parameter errors

@pytest.mark.parametrize("s", [0.0, 1.0, -0.5, 1.5])
def test_order_outside_open_interval_rejected(s):
    with pytest.raises(ConfigurationError):
        fractional_kernel(s)


def test_nonpositive_lambda_rejected():
    with pytest.raises(ConfigurationError):
        fractional_kernel(0.5, lam=0.0)


def test_upper_constant_below_lower_rejected():
    with pytest.raises(ConfigurationError):
        fractional_kernel(0.5, lam=2.0, Lam=1.0)


def test_unsupported_dimension_rejected():
    with pytest.raises(ConfigurationError):
        fractional_kernel(0.5, dim=3)


def test_unknown_family_rejected():
    with pytest.raises(ConfigurationError):
        KernelSpec("pet_rock", 0.5, 1.0, 1.0)


def test_modulated_missing_params_rejected():
    with pytest.raises(ConfigurationError):
        KernelSpec("modulated", 0.5, 1.0, 2.0, params={"amplitude": 0.5})
    for amplitude in (-0.1, 1.0, 1.5):
        with pytest.raises(ConfigurationError):
            modulated_kernel(0.5, 1.0, 2.0, amplitude=amplitude, frequency=1.0)


def test_checkerboard_bad_params_rejected():
    with pytest.raises(ConfigurationError):
        checkerboard_kernel(0.5, 1.0, 1.5, block_size=0.0, multipliers=(1.0,))
    with pytest.raises(ConfigurationError):
        checkerboard_kernel(0.5, 1.0, 1.5, block_size=0.5, multipliers=())
    with pytest.raises(ConfigurationError):
        checkerboard_kernel(0.5, 1.0, 1.5, block_size=0.5, multipliers=(1.0, -1.0))


# ----------------------------------------------------------------- custom table

TABLE_OK = """\
# block-pair multipliers
1 0.5 1.0 2.0 0.5
0 0 1.5
0 1 2.0
"""


def test_custom_table_load_and_eval(tmp_path):
    path = tmp_path / "table.txt"
    path.write_text(TABLE_OK)
    spec = load_custom_table(path)
    assert spec.family == "custom_table"
    assert spec.dim == 1 and spec.s == 0.5 and spec.lam == 1.0 and spec.Lam == 2.0
    assert spec.params["block_size"] == 0.5
    assert spec.params["table"] == {(0, 0): 1.5, (0, 1): 2.0}
    # listed pair (0, 0): dist 0.125 -> 0.5 * 1.5 * 64 = 48
    assert eval_kernel(spec, 0.25, 0.375) == 48.0
    # listed pair (0, 1), queried in both orders: dist 0.5 -> 0.5 * 2 * 4 = 4
    assert eval_kernel(spec, 0.25, 0.75) == 4.0
    assert eval_kernel(spec, 0.75, 0.25) == 4.0
    # unlisted pair (0, 2) defaults to multiplier 1: dist 1 -> 0.5
    assert eval_kernel(spec, 0.25, 1.25) == 0.5


def test_custom_table_duplicate_same_value_allowed(tmp_path):
    path = tmp_path / "table.txt"
    path.write_text("1 0.5 1.0 2.0 0.5\n0 1 2.0\n1 0 2.0\n")
    spec = load_custom_table(path)
    assert spec.params["table"] == {(0, 1): 2.0}


def test_custom_table_conflicting_duplicate_rejected(tmp_path):
    path = tmp_path / "table.txt"
    path.write_text("1 0.5 1.0 2.0 0.5\n0 1 2.0\n1 0 1.5\n")
    with pytest.raises(DataError, match=r":3:"):
        load_custom_table(path)


def test_custom_table_envelope_checked_at_load(tmp_path):
    path = tmp_path / "table.txt"
    path.write_text("1 0.5 1.0 2.0 0.5\n0 1 3.0\n")
    with pytest.raises(DataError, match=r":2:"):
        load_custom_table(path)


def test_custom_table_malformed_rows_cite_line_numbers(tmp_path):
    path = tmp_path / "table.txt"
    path.write_text("1 0.5 1.0 2.0\n")  # header missing block_size
    with pytest.raises(DataError, match=r":1:"):
        load_custom_table(path)
    path.write_text("1 0.5 1.0 2.0 0.5\n0 oops 1.5\n")
    with pytest.raises(DataError, match=r":2:"):
        load_custom_table(path)


def test_custom_table_missing_or_empty_file(tmp_path):
    with pytest.raises(DataError):
        load_custom_table(tmp_path / "absent.txt")
    empty = tmp_path / "empty.txt"
    empty.write_text("# only a comment\n")
    with pytest.raises(DataError):
        load_custom_table(empty)
