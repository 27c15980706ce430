"""End-to-end tests for config parsing and the command-line subcommands.

Every run goes through ``nlfb.cli.run`` (or ``main`` when the exit code or
stderr message is under test) against small configs written into tmp_path, so
these tests exercise the full parse -> build -> solve -> artifact pipeline.
"""

import hashlib
import json
import math
import os
import platform
import re
import subprocess
import sys
import textwrap
import tracemalloc

import numpy as np
import pytest

import nlfb
from nlfb.analysis import free_boundary
from nlfb.cli import EXIT_CODES, ORACLE_AGREE_RTOL, main, oracle_compare_instances, run
from nlfb.config import build_problem, parse_config, parse_points
from nlfb.energy import exterior_terms
from nlfb.errors import (CapacityError, ConfigurationError, DataError,
                         DomainError, SolverError)
from nlfb.grid import Field, build_grid, field_csv_text, load_field_csv, sample_field

from conftest import reduced_energy_rounding


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(text))
    return str(path)


# A fast one-phase instance whose minimizer has a genuine free boundary:
# 40 interior nodes, constant data on the right annulus, moderate volume cost.
SOLVE_CFG = """\
kernel.s = 0.5
grid.h = 0.05
grid.R_inf = 2.0
problem.g = right_constant
problem.g_amplitude = 0.35
problem.rho = 0.08
solver.restarts = 2
"""

# Same instance on the finer grid used by the analyze tests (the dyadic
# radius ladder from 4h to omega/2 needs at least three rungs).
ANALYZE_CFG = """\
kernel.s = 0.5
grid.h = 0.02
grid.R_inf = 2.0
problem.g = right_constant
problem.g_amplitude = 0.35
problem.rho = 0.08
solver.restarts = 2
"""

# Twelve interior nodes: small enough for the exhaustive oracle.
ORACLE_CFG = """\
kernel.s = 0.5
grid.h = 0.1
grid.omega_radius = 0.6
grid.R_inf = 1.2
problem.g_amplitude = 0.35
problem.rho = 0.1
"""

# bench/workloads.py's oracle-50 workload, without its instance and restart counts
ORACLE_50_CFG = """\
kernel.s = 0.5
grid.h = 0.1
grid.omega_radius = 0.5
grid.R_inf = 1.0
problem.g_amplitude = 0.35
problem.rho = 0.2
"""


class TestConfigParsing:
    def test_defaults_fill_unspecified_keys(self, tmp_path):
        cfg = parse_config(write_cfg(tmp_path, """\
            kernel.s = 0.5
            grid.h = 0.05
            grid.R_inf = 2.0
            """))
        v = cfg.values
        assert v["kernel.family"] == "fractional_laplacian"
        assert v["kernel.lambda"] == 1.0
        assert v["kernel.Lambda"] is None
        assert v["grid.d"] == 1
        assert v["grid.omega_radius"] == 1.0
        assert v["problem.g"] == "zero"
        assert v["problem.g_amplitude"] == 1.0
        assert v["problem.rho"] == 0.0
        assert v["problem.xi"] == 0.0
        assert v["problem.phase"] == "one_phase"
        assert v["solver.restarts"] == 4
        assert v["solver.seed"] == 0
        assert v["solver.max_sweeps"] == 2000
        assert v["sweep.rhos"] is None
        assert v["oracle.instances"] == 50
        assert v["oracle.restarts"] == 20
        assert v["refine.factor"] == 2
        assert v["analysis.points"] == "auto-fb"
        assert v["analysis.r_min"] is None
        assert v["analysis.n_dyadic"] == 5
        assert v["output.directory"] == "out"
        assert v["output.formats"] == ["json", "csv"]

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        cfg = parse_config(write_cfg(tmp_path, """\
            # leading comment

            kernel.s = 0.5
            # interleaved comment
            grid.h = 0.05

            grid.R_inf = 2.0
            """))
        assert cfg.values["kernel.s"] == 0.5
        assert cfg.values["grid.R_inf"] == 2.0

    def test_unknown_key_names_its_line(self, tmp_path):
        path = write_cfg(tmp_path, """\
            kernel.s = 0.5
            grid.h = 0.05
            grid.R_inf = 2.0
            grid.shape = round
            """)
        with pytest.raises(ConfigurationError,
                           match=re.escape(":4: unknown key 'grid.shape'")):
            parse_config(path)

    def test_duplicate_key_cites_first_line(self, tmp_path):
        path = write_cfg(tmp_path, """\
            kernel.s = 0.5
            grid.h = 0.05
            kernel.s = 0.7
            grid.R_inf = 2.0
            """)
        with pytest.raises(ConfigurationError,
                           match=re.escape(":3: duplicate key 'kernel.s' "
                                           "(first set on line 1)")):
            parse_config(path)

    def test_line_without_equals_rejected(self, tmp_path):
        path = write_cfg(tmp_path, "kernel.s 0.5\n")
        with pytest.raises(ConfigurationError, match=r":1: expected 'key = value'"):
            parse_config(path)

    def test_bad_value_names_key_and_line(self, tmp_path):
        path = write_cfg(tmp_path, """\
            kernel.s = 0.5
            grid.h = abc
            grid.R_inf = 2.0
            """)
        with pytest.raises(ConfigurationError, match=r":2: bad value for grid\.h"):
            parse_config(path)

    @pytest.mark.parametrize("missing", ["kernel.s", "grid.h", "grid.R_inf"])
    def test_missing_required_key(self, tmp_path, missing):
        lines = {"kernel.s": "kernel.s = 0.5", "grid.h": "grid.h = 0.05",
                 "grid.R_inf": "grid.R_inf = 2.0"}
        del lines[missing]
        path = write_cfg(tmp_path, "\n".join(lines.values()) + "\n")
        with pytest.raises(ConfigurationError,
                           match=re.escape(f"missing required key {missing!r}")):
            parse_config(path)

    def test_integer_keys_reject_fractions(self, tmp_path):
        path = write_cfg(tmp_path, """\
            kernel.s = 0.5
            grid.h = 0.05
            grid.R_inf = 2.0
            solver.restarts = 2.5
            """)
        with pytest.raises(ConfigurationError, match=r"bad value for solver\.restarts"):
            parse_config(path)

    def test_missing_config_file(self, tmp_path):
        with pytest.raises(ConfigurationError, match="cannot read config"):
            parse_config(str(tmp_path / "absent.cfg"))

    def test_g_file_reference_must_exist(self, tmp_path):
        path = write_cfg(tmp_path, """\
            kernel.s = 0.5
            grid.h = 0.05
            grid.R_inf = 2.0
            problem.g = file:nothing_here.csv
            """)
        with pytest.raises(ConfigurationError,
                           match="problem.g references a missing file"):
            parse_config(path)

    def test_g_file_resolves_relative_to_config(self, tmp_path):
        # The config sits in a subdirectory; its file: reference must resolve
        # against that directory, not the process CWD.
        sub = tmp_path / "nested"
        sub.mkdir()
        grid = build_grid(1, 0.05, 2.0)
        field = sample_field(grid, lambda p: np.where(p[:, 0] > 1.0, 0.25, 0.0))
        (sub / "data.csv").write_text(field_csv_text(field))
        path = write_cfg(sub, """\
            kernel.s = 0.5
            grid.h = 0.05
            grid.R_inf = 2.0
            problem.g = file:data.csv
            """)
        problem = build_problem(parse_config(path))
        assert np.all(problem.exterior_data[grid.interior] == 0.0)
        outside = grid.positions[:, 0] > 1.0
        assert np.array_equal(problem.exterior_data[outside], field.values[outside])

    def test_kernel_table_reference_must_exist(self, tmp_path):
        path = write_cfg(tmp_path, """\
            kernel.s = 0.5
            kernel.family = custom_table
            kernel.table = nope.tsv
            grid.h = 0.05
            grid.R_inf = 2.0
            """)
        with pytest.raises(ConfigurationError,
                           match="kernel.table references a missing file"):
            parse_config(path)

    def test_bad_output_formats(self, tmp_path):
        path = write_cfg(tmp_path, """\
            kernel.s = 0.5
            grid.h = 0.05
            grid.R_inf = 2.0
            output.formats = json, xml
            """)
        with pytest.raises(ConfigurationError, match="must be json or csv"):
            parse_config(path)

    def test_bad_kernel_family(self, tmp_path):
        path = write_cfg(tmp_path, """\
            kernel.s = 0.5
            kernel.family = gaussian
            grid.h = 0.05
            grid.R_inf = 2.0
            """)
        with pytest.raises(ConfigurationError, match="kernel.family must be one of"):
            parse_config(path)

    def test_bad_phase(self, tmp_path):
        path = write_cfg(tmp_path, """\
            kernel.s = 0.5
            grid.h = 0.05
            grid.R_inf = 2.0
            problem.phase = three_phase
            """)
        with pytest.raises(ConfigurationError,
                           match="phase must be one_phase or two_phase"):
            parse_config(path)

    def test_bad_g_profile_name(self, tmp_path):
        path = write_cfg(tmp_path, """\
            kernel.s = 0.5
            grid.h = 0.05
            grid.R_inf = 2.0
            problem.g = left_constant
            """)
        with pytest.raises(ConfigurationError, match="problem.g must be one of"):
            parse_config(path)

    def test_points_validated_against_dimension(self, tmp_path):
        path = write_cfg(tmp_path, """\
            kernel.s = 0.5
            grid.h = 0.05
            grid.R_inf = 2.0
            analysis.points = 0.5, 0.25
            """)
        with pytest.raises(ConfigurationError, match="has 2 coordinates, expected 1"):
            parse_config(path)


class TestParsePoints:
    def test_one_dimensional_round_trip(self):
        assert parse_points("0.5 ; -0.25", 1) == [(0.5,), (-0.25,)]

    def test_two_dimensional_round_trip(self):
        assert parse_points("0.5, 0.25 ; 0, 0", 2) == [(0.5, 0.25), (0.0, 0.0)]

    def test_trailing_separator_tolerated(self):
        assert parse_points("0.5 ;", 1) == [(0.5,)]

    def test_non_numeric_coordinate(self):
        with pytest.raises(ConfigurationError, match="bad analysis point"):
            parse_points("0.5, oops", 2)

    def test_empty_spec(self):
        with pytest.raises(ConfigurationError, match="analysis.points is empty"):
            parse_points(" ; ", 1)


class TestExteriorProfiles:
    def build(self, tmp_path, g_lines):
        path = write_cfg(tmp_path, "kernel.s = 0.5\ngrid.h = 0.05\n"
                         "grid.R_inf = 2.0\n" + g_lines)
        return build_problem(parse_config(path))

    def test_zero_profile(self, tmp_path):
        problem = self.build(tmp_path, "")
        assert np.all(problem.exterior_data == 0.0)

    def test_right_constant_annulus(self, tmp_path):
        problem = self.build(tmp_path, "problem.g = right_constant\n"
                             "problem.g_amplitude = 0.35\n")
        grid = problem.grid
        x = grid.positions[:, 0]
        # defaults: inner = omega_radius = 1, outer = min(2*omega, R_inf) = 2
        expected = np.where((x > 0.0) & (np.abs(x) >= 1.0) & (np.abs(x) <= 2.0),
                            0.35, 0.0)
        expected[grid.interior] = 0.0
        assert np.array_equal(problem.exterior_data, expected)

    def test_right_constant_custom_annulus(self, tmp_path):
        problem = self.build(tmp_path, "problem.g = right_constant\n"
                             "problem.g_inner = 1.2\nproblem.g_outer = 1.5\n")
        x = problem.grid.positions[:, 0]
        on = problem.exterior_data != 0.0
        assert on.any()
        assert np.all(x[on] >= 1.2) and np.all(x[on] <= 1.5)
        assert np.all(problem.exterior_data[on] == 1.0)

    def test_right_bump_supported_on_right(self, tmp_path):
        problem = self.build(tmp_path, "problem.g = right_bump\n"
                             "problem.g_amplitude = 0.4\n")
        x = problem.grid.positions[:, 0]
        assert np.all(problem.exterior_data[x <= 0.0] == 0.0)
        assert np.all(problem.exterior_data[problem.grid.interior] == 0.0)
        on = problem.exterior_data > 0.0
        assert on.any()
        # defaults: center = 1.5, width = 0.5 => support inside (1.25, 1.75)
        assert np.all(x[on] > 1.25) and np.all(x[on] < 1.75)
        assert problem.exterior_data.max() <= 0.4
        assert problem.exterior_data.max() > 0.35  # a node sits within h/2 of the peak

    def test_two_bump_is_odd(self, tmp_path):
        # signed data requires the two-phase functional
        problem = self.build(tmp_path, "problem.g = two_bump\n"
                             "problem.g_amplitude = 0.4\n"
                             "problem.phase = two_phase\n")
        g = problem.exterior_data
        # the half-offset lattice is symmetric, so reversing node order flips x
        assert np.array_equal(g, -g[::-1])
        assert g.max() > 0.0 and g.min() < 0.0

    def test_file_profile_zeroes_interior(self, tmp_path):
        grid = build_grid(1, 0.05, 2.0)
        field = sample_field(grid, lambda p: np.full(p.shape[0], 0.3))
        (tmp_path / "g.csv").write_text(field_csv_text(field))
        problem = self.build(tmp_path, "problem.g = file:g.csv\n")
        assert np.all(problem.exterior_data[grid.interior] == 0.0)
        assert np.all(problem.exterior_data[~grid.interior] == 0.3)


class TestSolveCommand:
    def test_manifest_and_artifacts(self, tmp_path):
        cfg_path = write_cfg(tmp_path, SOLVE_CFG)
        out = str(tmp_path / "out")
        assert run(cfg_path, "solve", out_dir=out) == 0

        with open(os.path.join(out, "manifest.json")) as fh:
            man = json.load(fh)
        assert man["subcommand"] == "solve"
        assert man["seed"] == 0
        assert man["artifacts"] == ["field.csv", "result.json"]
        with open(cfg_path, "rb") as fh:
            assert man["config_hash"] == hashlib.sha256(fh.read()).hexdigest()
        assert man["versions"]["nlfb"] == nlfb.__version__
        assert man["versions"]["numpy"] == np.__version__
        assert man["versions"]["python"] == platform.python_version()
        assert set(man["timing"]) == {"solve_s", "total_s"}
        assert man["warnings"] == []

        res = man["results"]
        # frozen for this config and seed; cross-checked by the solver suite
        assert res["energy"]["total"] == pytest.approx(0.2450550329002334, rel=1e-12)
        assert res["energy"]["total"] == res["energy"]["dirichlet"] + res["energy"]["volume"]
        assert res["energy"]["support_count"] == 17
        assert res["support_size"] == 17
        # one_phase at xi = 0: the winner is a bound state, verified, not descended
        assert res["converged"] is True
        assert isinstance(res["sweeps"], int) and res["sweeps"] == 0

        # staged files were all renamed into place
        assert not [n for n in os.listdir(out) if n.endswith(".partial")]
        with open(os.path.join(out, "result.json")) as fh:
            stored = json.load(fh)
        assert stored["energy"]["total"] == res["energy"]["total"]

    def test_field_csv_round_trips_through_grid(self, tmp_path):
        cfg_path = write_cfg(tmp_path, SOLVE_CFG)
        out = str(tmp_path / "out")
        run(cfg_path, "solve", out_dir=out)
        grid = build_grid(1, 0.05, 2.0)
        field = load_field_csv(grid, os.path.join(out, "field.csv"))
        interior_on = (field.values > 0.0) & grid.interior
        assert int(interior_on.sum()) == 17

    def test_reruns_are_byte_identical(self, tmp_path):
        cfg_path = write_cfg(tmp_path, SOLVE_CFG)
        out1, out2 = str(tmp_path / "o1"), str(tmp_path / "o2")
        run(cfg_path, "solve", out_dir=out1)
        run(cfg_path, "solve", out_dir=out2)
        for name in ("result.json", "field.csv"):
            with open(os.path.join(out1, name), "rb") as fh:
                b1 = fh.read()
            with open(os.path.join(out2, name), "rb") as fh:
                b2 = fh.read()
            assert b1 == b2, name
        manifests = []
        for out in (out1, out2):
            with open(os.path.join(out, "manifest.json")) as fh:
                man = json.load(fh)
            man.pop("timing")
            manifests.append(man)
        assert manifests[0] == manifests[1]

    def test_seed_override_recorded(self, tmp_path):
        cfg_path = write_cfg(tmp_path, SOLVE_CFG)
        out = str(tmp_path / "out")
        assert main(["solve", "--config", cfg_path, "--out", out, "--seed", "7"]) == 0
        with open(os.path.join(out, "manifest.json")) as fh:
            assert json.load(fh)["seed"] == 7

    def test_output_directory_from_config(self, tmp_path, monkeypatch):
        cfg_path = write_cfg(tmp_path, SOLVE_CFG + "output.directory = artifacts\n")
        monkeypatch.chdir(tmp_path)
        assert run(cfg_path, "solve") == 0
        assert os.path.isfile(str(tmp_path / "artifacts" / "manifest.json"))

    def test_existing_manifest_refused(self, tmp_path, capsys):
        cfg_path = write_cfg(tmp_path, SOLVE_CFG)
        out = str(tmp_path / "out")
        run(cfg_path, "solve", out_dir=out)
        with pytest.raises(ConfigurationError, match="refusing to overwrite"):
            run(cfg_path, "solve", out_dir=out)
        assert main(["solve", "--config", cfg_path, "--out", out]) == 2
        assert "refusing to overwrite" in capsys.readouterr().err

    def test_unknown_subcommand_rejected(self, tmp_path):
        cfg_path = write_cfg(tmp_path, SOLVE_CFG)
        with pytest.raises(ConfigurationError, match="unknown subcommand"):
            run(cfg_path, "does-not-exist", out_dir=str(tmp_path / "out"))

    def test_thread_env_does_not_change_artifacts(self, tmp_path, monkeypatch):
        cfg_path = write_cfg(tmp_path, SOLVE_CFG)
        blobs = []
        for threads in ("1", "4"):
            monkeypatch.setenv("NLFB_THREADS", threads)
            out = str(tmp_path / f"threads{threads}")
            run(cfg_path, "solve", out_dir=out)
            with open(os.path.join(out, "result.json"), "rb") as fh:
                blobs.append(fh.read())
        assert blobs[0] == blobs[1]


class TestRhoSweepCommand:
    def test_descending_path_and_csv(self, tmp_path):
        cfg_path = write_cfg(tmp_path, """\
            kernel.s = 0.5
            grid.h = 0.05
            grid.R_inf = 2.0
            problem.g = right_constant
            problem.g_amplitude = 0.35
            solver.restarts = 2
            sweep.rhos = 0.02, 0.16, 0.04, 0.08
            """)
        out = str(tmp_path / "out")
        assert run(cfg_path, "rho-sweep", out_dir=out) == 0
        with open(os.path.join(out, "manifest.json")) as fh:
            res = json.load(fh)["results"]
        assert res["rhos"] == [0.16, 0.08, 0.04, 0.02]
        energies = res["energies"]
        assert all(a >= b for a, b in zip(energies, energies[1:]))
        dists = res["lifting_distances"]
        assert all(d >= 0.0 for d in dists)
        # at least the largest-rho runs are constrained inside the region
        assert dists[0] > 0.0
        assert isinstance(res["slope"], float)

        with open(os.path.join(out, "rho_sweep.csv")) as fh:
            lines = fh.read().splitlines()
        assert lines[0] == "rho,energy,lifting_distance"
        assert len(lines) == 5
        first = lines[1].split(",")
        assert float(first[0]) == 0.16
        assert float(first[1]) == energies[0]

    def test_zero_data_has_no_slope(self, tmp_path):
        cfg_path = write_cfg(tmp_path, """\
            kernel.s = 0.5
            grid.h = 0.05
            grid.R_inf = 2.0
            solver.restarts = 1
            sweep.rhos = 0.1, 0.2
            """)
        out = str(tmp_path / "out")
        run(cfg_path, "rho-sweep", out_dir=out)
        with open(os.path.join(out, "manifest.json")) as fh:
            res = json.load(fh)["results"]
        assert res["energies"] == [0.0, 0.0]
        assert res["lifting_distances"] == [0.0, 0.0]
        assert res["slope"] is None

    def test_missing_rhos_rejected(self, tmp_path, capsys):
        cfg_path = write_cfg(tmp_path, SOLVE_CFG)
        assert main(["rho-sweep", "--config", cfg_path,
                     "--out", str(tmp_path / "out")]) == 2
        assert "sweep.rhos" in capsys.readouterr().err


class TestRefineCommand:
    def test_two_levels_and_ratios(self, tmp_path):
        cfg_path = write_cfg(tmp_path, """\
            kernel.s = 0.5
            grid.h = 0.04
            grid.R_inf = 2.0
            problem.g = right_constant
            problem.g_amplitude = 0.35
            problem.rho = 0.08
            solver.restarts = 2
            """)
        out = str(tmp_path / "out")
        assert run(cfg_path, "refine", out_dir=out) == 0
        with open(os.path.join(out, "manifest.json")) as fh:
            man = json.load(fh)
        assert man["artifacts"] == ["level0_field.csv", "level0_result.json",
                                    "level1_field.csv", "level1_result.json",
                                    "refine.json"]
        res = man["results"]
        levels = res["levels"]
        assert [lev["h"] for lev in levels] == [0.04, 0.02]
        for lev in levels:
            assert lev["support_size"] > 0
            assert lev["nondeg_constant"] is not None and lev["nondeg_constant"] > 0
            assert lev["density_c1"] is not None and lev["density_c1"] > 0
        assert res["nondeg_ratio"] == levels[1]["nondeg_constant"] / levels[0]["nondeg_constant"]
        assert res["density_c1_ratio"] == levels[1]["density_c1"] / levels[0]["density_c1"]
        with open(os.path.join(out, "refine.json")) as fh:
            assert json.load(fh)["levels"] == levels

    def test_rejects_file_profile(self, tmp_path):
        grid = build_grid(1, 0.05, 2.0)
        field = sample_field(grid, lambda p: np.where(p[:, 0] > 1.0, 0.3, 0.0))
        (tmp_path / "g.csv").write_text(field_csv_text(field))
        cfg_path = write_cfg(tmp_path, """\
            kernel.s = 0.5
            grid.h = 0.05
            grid.R_inf = 2.0
            problem.g = file:g.csv
            """)
        with pytest.raises(ConfigurationError, match="named g profile"):
            run(cfg_path, "refine", out_dir=str(tmp_path / "out"))

    def test_rejects_factor_below_two(self, tmp_path):
        cfg_path = write_cfg(tmp_path, SOLVE_CFG + "refine.factor = 1\n")
        with pytest.raises(ConfigurationError, match="refine.factor"):
            run(cfg_path, "refine", out_dir=str(tmp_path / "out"))


def record_minimize(monkeypatch):
    """Record every minimize_all call the CLI makes, which solves all of
    oracle-compare's instances: an oracle-compare run that the oracle refuses
    refuses before it."""
    calls = []
    real = nlfb.cli.minimize_all
    monkeypatch.setattr(nlfb.cli, "minimize_all",
                        lambda *args, **kwargs: calls.append(args) or real(*args, **kwargs))
    return calls


class TestOracleCompareCommand:
    def test_small_instances_all_agree(self, tmp_path):
        cfg_path = write_cfg(tmp_path, ORACLE_CFG + "oracle.instances = 6\n"
                                                    "oracle.restarts = 5\n")
        out = str(tmp_path / "out")
        assert run(cfg_path, "oracle-compare", out_dir=out) == 0
        with open(os.path.join(out, "manifest.json")) as fh:
            res = json.load(fh)["results"]
        assert res["instances"] == 6
        assert res["agreement_pct"] == 100.0
        assert res["never_below"] is True
        with open(os.path.join(out, "oracle_compare.csv")) as fh:
            lines = fh.read().splitlines()
        assert lines[0] == "instance,minimize_energy,oracle_energy,agree"
        assert len(lines) == 7
        for line in lines[1:]:
            assert line.split(",")[3] == "1"

    def test_thread_env_keeps_restart_ties_at_the_last_ulps(self, tmp_path, monkeypatch):
        # the oracle-50 benchmark config in two_phase, which runs every
        # restart, at CLI seed 0: on instances 0, 3 and 18 other restarts end
        # at the winner's support a few ulps from its reduced exit energy (on
        # 0 and 18 exactly at it) at different bits, so the (energy, restart
        # seed) key decides the winner; it must decide alike at any thread count
        cfg = parse_config(write_cfg(tmp_path, """\
            kernel.s = 0.5
            grid.h = 0.1
            grid.omega_radius = 0.5
            grid.R_inf = 1.0
            problem.g_amplitude = 0.35
            problem.rho = 0.2
            problem.phase = two_phase
            oracle.instances = 40
            oracle.restarts = 20
            """))
        exits = []       # (restart seed, exit state bytes, reduced exit energy)
        real_descend = nlfb.solver._descend

        def descend(problem, u0, seed, *args):
            out = real_descend(problem, u0, seed, *args)
            exits.append((seed, out[0].tobytes(), out[1]))
            return out

        outputs = {}
        for threads in ("1", "4"):
            monkeypatch.setenv("NLFB_THREADS", threads)
            monkeypatch.setattr(nlfb.solver, "_descend",
                                descend if threads == "1" else real_descend)
            rows = oracle_compare_instances(cfg, 0)
            outputs[threads] = [(r["result"].field.values.tobytes(), r["result"].energy,
                                 r["result"].best_restart_seed, r["agree"]) for r in rows]
        assert outputs["1"] == outputs["4"]
        problem = build_problem(cfg)
        for k in (0, 3, 18):
            restarts = [e for e in exits if e[0] // 100000 == k + 1]
            assert len(restarts) == 20
            result = rows[k]["result"]
            form, winner = result.form, result.best_restart_seed
            kept = exterior_terms(form, result.field.values)

            def interior(state):
                return np.frombuffer(state)[form.interior_idx]

            def rounding(state):      # of reduced_energies at the state (xi = 0)
                return reduced_energy_rounding(form, interior(state), *kept,
                                               problem.rho * problem.grid.cell_measure)

            _, won, energy = next(e for e in restarts if e[0] == winner)
            # another exit at other bits on the winner's support whose energy
            # differs from the winner's by no more than the two evaluations
            # can round: values ulps apart change the exact energy only at
            # second order
            assert any(state != won
                       and np.array_equal(interior(state) > 0.0, interior(won) > 0.0)
                       and abs(e - energy) <= rounding(state) + rounding(won)
                       for _, state, e in restarts)

    def test_each_instance_runs_at_most_one_exterior_pass(self, tmp_path, monkeypatch):
        # the form is assembled once, and the oracle's pinned inverses, which
        # depend only on the form, are built for all instances before the
        # first solve; the data of all instances then takes one pass of the
        # pair formula over the interior-exterior pairs, whose terms
        # minimize_all, the lifting, the stacked oracle and both pairwise
        # energies share
        calls = []
        real = nlfb.energy._weight_rows
        real_inverses = nlfb.solver._pinned_inverses

        def weight_rows(kernel, grid, col_order, n_int, first_col, block):
            calls.append("assembly" if first_col == 0 else "exterior pass")
            return real(kernel, grid, col_order, n_int, first_col, block)

        def pinned_inverses(form):
            calls.append("pinned inverses")
            return real_inverses(form)

        monkeypatch.setattr(nlfb.energy, "_weight_rows", weight_rows)
        monkeypatch.setattr(nlfb.solver, "_pinned_inverses", pinned_inverses)
        cfg = parse_config(write_cfg(tmp_path, ORACLE_CFG + "oracle.instances = 5\n"
                                                            "oracle.restarts = 4\n"))
        rows = oracle_compare_instances(cfg, 3)
        assert len(rows) == 5 and all(r["agree"] for r in rows)
        assert calls == ["assembly", "pinned inverses", "exterior pass"]

    def test_boundary_evaluations_do_not_grow_with_the_instances(self, tmp_path, monkeypatch):
        # the oracle-50 config at 2 restarts: minimize_all verifies every
        # instance's bound restarts in one stacked pass, with one energy
        # pass and no descent or polish, so 50 instances take no more of
        # any than 10 (a pass per instance each, unstacked)
        counts = {}
        for n in (10, 50):
            cfg = parse_config(write_cfg(tmp_path, ORACLE_50_CFG + f"oracle.instances = {n}\n"
                                                                   "oracle.restarts = 2\n"))
            calls = dict.fromkeys(("reduced_energies", "_verify_bounds", "_descend",
                                   "_polish"), 0)

            def counted(name, real):
                def call(*args, **kwargs):
                    calls[name] += 1
                    return real(*args, **kwargs)
                return call

            for name in calls:
                monkeypatch.setattr(nlfb.solver, name, counted(name, getattr(nlfb.solver, name)))
            assert len(oracle_compare_instances(cfg, 0)) == n
            monkeypatch.undo()
            counts[n] = calls
        assert counts[10] == counts[50] == {"reduced_energies": 1, "_verify_bounds": 1,
                                            "_descend": 0, "_polish": 0}

    def test_memory_grows_with_the_instances_only_by_the_rows(self, tmp_path):
        # blocks of ORACLE_STACK instances are solved in turn, and the
        # oracle's results stream into the rows: from 50 to 400 instances
        # the call's tracemalloc peak grows by no more than the rows it
        # returns (each row keeps its minimize result)
        growth = []
        for n in (50, 400):
            cfg = parse_config(write_cfg(tmp_path, ORACLE_CFG + f"oracle.instances = {n}\n"
                                                                "oracle.restarts = 20\n"))
            oracle_compare_instances(cfg, 1)     # numpy's first calls allocate for good
            tracemalloc.start()
            try:
                rows = oracle_compare_instances(cfg, 7)
                growth.append(tracemalloc.get_traced_memory())
            finally:
                tracemalloc.stop()
            assert len(rows) == n
            del rows
        (kept_50, peak_50), (kept_400, peak_400) = growth
        assert 0 < peak_400 - peak_50 <= 1.1 * (kept_400 - kept_50)

    def test_capacity_limit_exit_code(self, tmp_path, capsys, monkeypatch):
        calls = record_minimize(monkeypatch)
        cfg_path = write_cfg(tmp_path, """\
            kernel.s = 0.5
            grid.h = 0.1
            grid.R_inf = 2.0
            oracle.instances = 2
            """)
        assert main(["oracle-compare", "--config", cfg_path,
                     "--out", str(tmp_path / "out")]) == 5
        assert "interior nodes" in capsys.readouterr().err
        assert calls == []

    def test_nonzero_threshold_exit_code(self, tmp_path, capsys, monkeypatch):
        calls = record_minimize(monkeypatch)
        cfg_path = write_cfg(tmp_path, """\
            kernel.s = 0.5
            grid.h = 0.1
            grid.omega_radius = 0.5
            grid.R_inf = 1.0
            problem.g_amplitude = 0.35
            problem.rho = 0.02
            problem.xi = 0.05
            oracle.instances = 1
            oracle.restarts = 2
            """)
        assert main(["oracle-compare", "--config", cfg_path,
                     "--out", str(tmp_path / "out")]) == 2
        assert "xi = 0.05" in capsys.readouterr().err
        assert calls == []


class TestAnalyzeCommand:
    def test_auto_fb_report_artifacts(self, tmp_path):
        cfg_path = write_cfg(tmp_path, ANALYZE_CFG)
        out = str(tmp_path / "out")
        assert run(cfg_path, "analyze", out_dir=out) == 0
        with open(os.path.join(out, "manifest.json")) as fh:
            man = json.load(fh)
        assert man["artifacts"] == ["field.csv", "point_0.csv",
                                    "report.json", "result.json"]
        res = man["results"]
        assert res["fb_nodes"] >= 1
        assert res["nondeg_constant"] > 0.0
        assert res["lifting_l2"] > 0.0
        assert res["subsolution_max"] < 1e-10
        assert len(res["points"]) >= 1
        for point in res["points"]:
            assert abs(point[0]) < 1.0  # analysis points live inside the window
        assert set(man["timing"]) == {"solve_s", "analysis_s", "total_s"}

        with open(os.path.join(out, "report.json")) as fh:
            report = json.load(fh)
        assert report["fb_nodes"]
        with open(os.path.join(out, "point_0.csv")) as fh:
            lines = fh.read().splitlines()
        assert lines[0] == "r,sup,zero_ratio,pos_ratio"
        assert len(lines) >= 4  # >= 3 dyadic radii

    def test_explicit_points(self, tmp_path):
        # both points must see a positive sup at every radius of the ladder,
        # so they sit on the support side of the free boundary near 0.1
        cfg_path = write_cfg(tmp_path,
                             ANALYZE_CFG + "analysis.points = 0.11 ; 0.25\n")
        out = str(tmp_path / "out")
        run(cfg_path, "analyze", out_dir=out)
        with open(os.path.join(out, "manifest.json")) as fh:
            man = json.load(fh)
        assert man["results"]["points"] == [[0.11], [0.25]]
        assert "point_0.csv" in man["artifacts"]
        assert "point_1.csv" in man["artifacts"]

    def test_run_assembles_once_and_leaves_numpy_ma_unimported(self, tmp_path):
        # a fresh interpreter: the analysis must not import numpy.ma (as
        # np.unique does), and the free-boundary nodes are the distinct
        # interior off-side ends of the straddling edges
        cfg_path = write_cfg(tmp_path, """\
            grid.d = 2
            grid.h = 0.07
            grid.R_inf = 2.0
            kernel.s = 0.5
            problem.g = right_constant
            problem.g_amplitude = 0.35
            problem.rho = 0.3
            solver.restarts = 2
            analysis.points = 0.0,-0.245 ; 0.0,0.035 ; 0.0,0.315
            analysis.r_min = 0.14
            analysis.r_max = 0.56
            """)
        out = tmp_path / "out"
        script = ("import json, sys\n"
                  "import nlfb.energy\n"
                  "from nlfb.cli import run\n"
                  "calls = []\n"
                  "real = nlfb.energy._weight_rows\n"
                  "def weight_rows(*args):\n"
                  "    calls.append(args[4])\n"
                  "    return real(*args)\n"
                  "nlfb.energy._weight_rows = weight_rows\n"
                  f"rc = run({cfg_path!r}, 'analyze', out_dir={str(out)!r})\n"
                  "print(json.dumps([rc, 'numpy.ma' in sys.modules, calls]))\n")
        src = os.path.dirname(os.path.dirname(nlfb.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=120, check=True)
        assert json.loads(proc.stdout.splitlines()[-1]) == [0, False, [0]]
        with open(out / "report.json") as fh:
            fb_nodes = json.load(fh)["fb_nodes"]
        with open(out / "result.json") as fh:
            values = np.asarray(json.load(fh)["field"])
        problem = build_problem(parse_config(cfg_path))
        pairs = free_boundary(Field(problem.grid, values), problem.xi).pairs
        off = np.array([i for i, _ in pairs if problem.grid.interior[i]], dtype=np.int64)
        assert fb_nodes and fb_nodes == np.unique(off).tolist()

    def test_empty_region_exit_code(self, tmp_path, capsys):
        cfg_path = write_cfg(tmp_path,
                             ANALYZE_CFG + "analysis.region_radius = 0.001\n")
        assert main(["analyze", "--config", cfg_path,
                     "--out", str(tmp_path / "out")]) == 6
        assert "no interior nodes" in capsys.readouterr().err


class TestErrorContract:
    def test_exit_code_table(self):
        assert EXIT_CODES == {ConfigurationError: 2, DataError: 3, SolverError: 4,
                              CapacityError: 5, DomainError: 6}
        assert ORACLE_AGREE_RTOL == 1e-10

    def test_config_error_exit_code(self, tmp_path, capsys):
        cfg_path = write_cfg(tmp_path, "kernel.s = 0.5\n")  # missing required keys
        assert main(["solve", "--config", cfg_path,
                     "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith("error:")
        # a modulation amplitude >= 1 makes some weights negative
        cfg_path = write_cfg(tmp_path, SOLVE_CFG + "kernel.family = modulated\n"
                             "kernel.amplitude = 1.5\nkernel.frequency = 2.0\n")
        assert main(["solve", "--config", cfg_path,
                     "--out", str(tmp_path / "out")]) == 2
        assert "amplitude" in capsys.readouterr().err
        # a negative seed, an empty oracle run, a negative sweep cap or a solve
        # without restarts is nonsense
        for extra, message in (("solver.seed = -1\n", "solver.seed must be at least 0"),
                               ("oracle.instances = -3\n", "oracle.instances must be at least 1"),
                               ("oracle.instances = 0\n", "oracle.instances must be at least 1"),
                               ("solver.max_sweeps = -5\n",
                                "solver.max_sweeps must be at least 0"),
                               ("solver.restarts = -3\n", "solver.restarts must be at least 1"),
                               ("oracle.restarts = 0\n", "oracle.restarts must be at least 1")):
            cfg_path = write_cfg(tmp_path, ORACLE_CFG + extra)
            assert main(["oracle-compare", "--config", cfg_path,
                         "--out", str(tmp_path / "out")]) == 2
            assert message in capsys.readouterr().err
        cfg_path = write_cfg(tmp_path, SOLVE_CFG)
        assert main(["solve", "--config", cfg_path, "--seed", "-1",
                     "--out", str(tmp_path / "seed")]) == 2
        assert "--seed must be at least 0" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "seed")

    def test_module_form_runs_main(self, tmp_path):
        # python -m nlfb.cli is the nlfb command: no arguments is a usage
        # error, and a solve writes its manifest
        src = os.path.dirname(os.path.dirname(nlfb.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
        command = [sys.executable, "-m", "nlfb.cli"]
        proc = subprocess.run(command, env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 2 and "usage: nlfb" in proc.stderr
        out = tmp_path / "out"
        proc = subprocess.run(command + ["solve", "--config", write_cfg(tmp_path, SOLVE_CFG),
                                         "--out", str(out)],
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        with open(out / "manifest.json") as fh:
            assert json.load(fh)["subcommand"] == "solve"

    def test_thread_env_exit_code(self, tmp_path, capsys, monkeypatch):
        # NLFB_THREADS must be an integer; any integer is accepted and changes nothing
        cfg_path = write_cfg(tmp_path, SOLVE_CFG)
        monkeypatch.setenv("NLFB_THREADS", "many")
        assert main(["solve", "--config", cfg_path,
                     "--out", str(tmp_path / "many")]) == 2
        assert "NLFB_THREADS must be an integer, got 'many'" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "many")
        for threads in ("4", "0"):
            monkeypatch.setenv("NLFB_THREADS", threads)
            assert main(["solve", "--config", cfg_path,
                         "--out", str(tmp_path / threads)]) == 0

    def test_capacity_error_exit_code(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(nlfb.grid, "MEMORY_BUDGET_BYTES", 1024)
        cfg_path = write_cfg(tmp_path, SOLVE_CFG)
        assert main(["solve", "--config", cfg_path,
                     "--out", str(tmp_path / "out")]) == 5
        assert "budget" in capsys.readouterr().err

    def test_oversized_lattice_is_refused_before_it_is_allocated(self, tmp_path, capsys,
                                                                monkeypatch):
        # 2D, h = 0.01, R_inf = 2: the lattice's bounding box has 403^2 points,
        # so one (N, 2) array over it takes 2.6 MB. With a 1 MB budget,
        # build_grid raises and the CLI exits 5, each before any array that
        # size is allocated: the traced peak stays below the budget
        budget = 2 ** 20
        monkeypatch.setattr(nlfb.grid, "MEMORY_BUDGET_BYTES", budget)
        cfg_path = write_cfg(tmp_path, """\
            kernel.s = 0.5
            grid.d = 2
            grid.h = 0.01
            grid.R_inf = 2.0
            problem.g = right_constant
            problem.g_amplitude = 0.35
            problem.rho = 0.08
            """)
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError, match="the lattice's bounding box needs"):
                build_grid(2, 0.01, 2.0)
            peaks = [tracemalloc.get_traced_memory()[1]]
            tracemalloc.reset_peak()
            assert main(["solve", "--config", cfg_path, "--out", str(tmp_path / "out")]) == 5
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert "the lattice's bounding box needs" in capsys.readouterr().err
        assert max(peaks) < budget

    def test_subsystem_capacity_error_exit_code(self, tmp_path, capsys, monkeypatch):
        # W_II fits the budget; the whole-domain lifting's matrix, of the same
        # size, is refused before it is gathered (two_phase, whose restart (a)
        # starts at the lifting)
        real = nlfb.solver.assemble_form

        def assemble_then_lower_the_budget(*args):
            form = real(*args)
            n_int = form.dense.shape[0]
            monkeypatch.setattr(nlfb.grid, "MEMORY_BUDGET_BYTES", 8 * n_int * n_int - 1)
            return form

        monkeypatch.setattr(nlfb.solver, "assemble_form", assemble_then_lower_the_budget)
        cfg_path = write_cfg(tmp_path, SOLVE_CFG + "problem.phase = two_phase\n")
        assert main(["solve", "--config", cfg_path,
                     "--out", str(tmp_path / "out")]) == 5
        assert "the subsystem matrix needs" in capsys.readouterr().err

    def test_pinned_inverses_capacity_error_exit_code(self, tmp_path, capsys, monkeypatch):
        # 14 interior nodes, whose oracle operator holds
        # 8 * sum_k C(14, k) (k^2 + k + 1) bytes; one byte less is refused
        size = 8 * sum(math.comb(14, k) * (k * k + k + 1) for k in range(1, 15))
        monkeypatch.setattr(nlfb.grid, "MEMORY_BUDGET_BYTES", size - 1)
        calls = record_minimize(monkeypatch)
        cfg_path = write_cfg(tmp_path, """\
            kernel.s = 0.5
            grid.h = 0.1
            grid.omega_radius = 0.7
            grid.R_inf = 1.4
            problem.g_amplitude = 0.35
            problem.rho = 0.1
            oracle.instances = 2
            oracle.restarts = 2
            """)
        assert main(["oracle-compare", "--config", cfg_path,
                     "--out", str(tmp_path / "out")]) == 5
        assert "the oracle's pinned inverses needs" in capsys.readouterr().err
        assert calls == []

    def test_data_error_exit_code(self, tmp_path, capsys):
        (tmp_path / "bad.csv").write_text("not,a,field\n1,2,3\n")
        cfg_path = write_cfg(tmp_path, """\
            kernel.s = 0.5
            grid.h = 0.05
            grid.R_inf = 2.0
            problem.g = file:bad.csv
            """)
        assert main(["solve", "--config", cfg_path,
                     "--out", str(tmp_path / "out")]) == 3
        assert "error:" in capsys.readouterr().err


# each subcommand's artifacts by format; analyze adds one point_k.csv per analysis point
FORMAT_ARTIFACTS = {
    "solve": (SOLVE_CFG, {"json": ["result.json"], "csv": ["field.csv"]}),
    "rho-sweep": (SOLVE_CFG + "sweep.rhos = 0.04, 0.08\n", {"json": [], "csv": ["rho_sweep.csv"]}),
    "refine": (SOLVE_CFG, {"json": ["level0_result.json", "level1_result.json", "refine.json"],
                           "csv": ["level0_field.csv", "level1_field.csv"]}),
    "oracle-compare": (ORACLE_CFG + "oracle.instances = 3\noracle.restarts = 2\n",
                       {"json": [], "csv": ["oracle_compare.csv"]}),
    "analyze": (ANALYZE_CFG, {"json": ["report.json", "result.json"], "csv": ["field.csv"]}),
}


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("subcommand", list(FORMAT_ARTIFACTS))
def test_formats_select_artifacts(tmp_path, monkeypatch, subcommand, fmt):
    # only the requested format's artifacts are rendered and written
    cfg, artifacts = FORMAT_ARTIFACTS[subcommand]
    rendered = []
    for name in ("csv_text", "field_csv_text", "point_csv_text"):
        real = getattr(nlfb.cli, name)
        monkeypatch.setattr(nlfb.cli, name, lambda *args, real=real: rendered.append(args)
                            or real(*args))
    out = str(tmp_path / "out")
    assert run(write_cfg(tmp_path, cfg + f"output.formats = {fmt}\n"), subcommand,
               out_dir=out) == 0
    with open(os.path.join(out, "manifest.json")) as fh:
        man = json.load(fh)
    want = list(artifacts[fmt])
    if subcommand == "analyze" and fmt == "csv":
        want += [f"point_{k}.csv" for k in range(len(man["results"]["points"]))]
        assert len(want) > 1
    assert man["artifacts"] == sorted(want)
    assert sorted(os.listdir(out)) == sorted(want + ["manifest.json"])
    assert len(rendered) == (0 if fmt == "json" else len(want))


@pytest.mark.parametrize("subcommand,cfg", [
    ("analyze", ANALYZE_CFG),
    ("rho-sweep", SOLVE_CFG + "sweep.rhos = 0.04, 0.16, 0.08\n"),
    ("oracle-compare", ORACLE_CFG + "oracle.instances = 3\noracle.restarts = 2\n"),
])
def test_one_assembly_per_run(tmp_path, monkeypatch, subcommand, cfg):
    calls = []
    real = nlfb.energy.assemble_form
    for module in (nlfb.energy, nlfb.solver, nlfb.analysis, nlfb.cli):
        if hasattr(module, "assemble_form"):
            monkeypatch.setattr(module, "assemble_form",
                                lambda *args: calls.append(args) or real(*args))
    assert run(write_cfg(tmp_path, cfg), subcommand, out_dir=str(tmp_path / "out")) == 0
    assert len(calls) == 1


class TestManifestWarnings:
    """One warning per reported result that stopped at solver.max_sweeps, and
    one per result its certificate proves not globally minimal.

    At one_phase, xi = 0 restarts (a) and (b) are bound states, verified in
    place of a descent and converged at any max_sweeps, so the solve and
    oracle-compare cases run two_phase, whose descents from the lifting need
    more than one sweep."""

    def run_manifest(self, tmp_path, subcommand, cfg):
        cfg_path, out = write_cfg(tmp_path, cfg + "solver.max_sweeps = 1\n"), str(tmp_path / "out")
        assert run(cfg_path, subcommand, out_dir=out) == 0
        with open(os.path.join(out, "manifest.json")) as fh:
            return json.load(fh), cfg_path, out

    def test_solve_stopped_at_max_sweeps(self, tmp_path):
        man, _, out = self.run_manifest(tmp_path, "solve",
                                        SOLVE_CFG + "problem.phase = two_phase\n")
        assert man["results"]["converged"] is False
        assert man["warnings"] == [
            {"warning": "stopped at max_sweeps after 1 sweeps without converging"}]
        with open(os.path.join(out, "result.json")) as fh:
            assert json.load(fh)["converged"] is False

    def test_oracle_compare_names_each_instance(self, tmp_path):
        cfg = ORACLE_CFG + "oracle.instances = 4\noracle.restarts = 2\nproblem.phase = two_phase\n"
        man, cfg_path, _ = self.run_manifest(tmp_path, "oracle-compare", cfg)
        rows = oracle_compare_instances(parse_config(cfg_path), 0)
        unconverged = [r["instance"] for r in rows if not r["result"].converged]
        assert unconverged
        assert [w["instance"] for w in man["warnings"]] == unconverged
        assert all(set(w) == {"instance", "warning"} for w in man["warnings"])

    def test_rho_sweep_names_each_rho(self, tmp_path):
        man, _, _ = self.run_manifest(tmp_path, "rho-sweep",
                                   SOLVE_CFG + "sweep.rhos = 0.04, 0.16\n")
        assert man["warnings"]
        assert {w["rho"] for w in man["warnings"]} <= {0.04, 0.16}

    def test_oracle_compare_names_each_proven_non_minimizer(self, tmp_path):
        # the oracle-50 benchmark config at CLI seed 9507: on instance 49 the
        # first greedy call of the certificate finds a support at the
        # oracle's minimum, Wolfe then certifies it as the global minimum,
        # and none of the 20 restarts reaches it; a warned instance must be
        # one that disagrees with the oracle, and its warning names the
        # certified minimum
        cfg_path, out = write_cfg(tmp_path, """\
            kernel.s = 0.5
            grid.h = 0.1
            grid.omega_radius = 0.5
            grid.R_inf = 1.0
            problem.g_amplitude = 0.35
            problem.rho = 0.2
            oracle.instances = 50
            oracle.restarts = 20
            """), str(tmp_path / "out")
        assert run(cfg_path, "oracle-compare", out_dir=out, seed=9507) == 0
        with open(os.path.join(out, "manifest.json")) as fh:
            warnings = json.load(fh)["warnings"]
        with open(os.path.join(out, "oracle_compare.csv")) as fh:
            rows = [line.split(",") for line in fh.read().splitlines()[1:]]
        agree = {int(r[0]): r[3] == "1" for r in rows}
        assert 49 in {w["instance"] for w in warnings}
        assert all(not agree[w["instance"]] for w in warnings)
        assert all(set(w) == {"instance", "warning"} and "not a global minimizer" in w["warning"]
                   for w in warnings)
        oracle_49 = float(rows[49][2])
        warning_49 = next(w["warning"] for w in warnings if w["instance"] == 49)
        found = float(re.search(r"support energy (\S+) that", warning_49).group(1))
        minimum = re.search(r"; the certified global minimum is (\S+)$", warning_49).group(1)
        assert minimum.startswith("0.24558703057310")
        for energy in (found, float(minimum)):
            assert abs(energy - oracle_49) <= ORACLE_AGREE_RTOL * (1.0 + oracle_49)
