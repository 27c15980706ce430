"""Experiment configuration: flat dotted key-value files.

Format: one `section.key = value` per line; blank lines and lines starting
with `#` are ignored. Unknown keys, duplicate keys, and type errors are hard
failures that name the offending line. Values are scalars, comma-separated
lists, or strings; there is no nesting beyond the dotted section prefix.

Exterior data profiles are named shapes evaluated on the exterior nodes:

  zero            g = 0 everywhere
  right_constant  g = amplitude on the right annulus inner <= |x| <= outer
  right_bump      smooth compactly supported bump centered on the right
  two_bump        right bump with amplitude, mirrored left bump with -amplitude
  file:<path>     values loaded from a field CSV written for the same grid
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .grid import Grid, build_grid, load_field_csv
from .kernel import (FAMILIES, KernelSpec, checkerboard_kernel, fractional_kernel,
                     load_custom_table, modulated_kernel)
from .solver import ProblemSpec

G_PROFILES = ("zero", "right_constant", "right_bump", "two_bump")

# key -> (parser, default); REQUIRED means the key must be present
_REQUIRED = object()


def _float(text):
    return float(text)


def _int(text):
    try:
        return int(text, 10)
    except ValueError as exc:
        raise ValueError(f"expected an integer, got {text!r}") from exc


def _str(text):
    return text


def _float_list(text):
    items = [t.strip() for t in text.split(",") if t.strip()]
    if not items:
        raise ValueError("expected a comma-separated list of numbers")
    return [float(t) for t in items]


def _str_list(text):
    items = [t.strip() for t in text.split(",") if t.strip()]
    if not items:
        raise ValueError("expected a comma-separated list")
    return items


SCHEMA = {
    "kernel.family": (_str, "fractional_laplacian"),
    "kernel.s": (_float, _REQUIRED),
    "kernel.lambda": (_float, 1.0),
    "kernel.Lambda": (_float, None),
    "kernel.amplitude": (_float, None),
    "kernel.frequency": (_float, None),
    "kernel.block_size": (_float, None),
    "kernel.multipliers": (_float_list, None),
    "kernel.table": (_str, None),
    "grid.d": (_int, 1),
    "grid.h": (_float, _REQUIRED),
    "grid.omega_radius": (_float, 1.0),
    "grid.R_inf": (_float, _REQUIRED),
    "problem.g": (_str, "zero"),
    "problem.g_amplitude": (_float, 1.0),
    "problem.g_inner": (_float, None),       # defaults to omega_radius
    "problem.g_outer": (_float, None),       # defaults to min(2 omega, R_inf)
    "problem.g_center": (_float, None),      # defaults to 1.5 omega_radius
    "problem.g_width": (_float, None),       # defaults to omega_radius / 2
    "problem.rho": (_float, 0.0),
    "problem.xi": (_float, 0.0),
    "problem.phase": (_str, "one_phase"),
    "solver.restarts": (_int, 4),
    "solver.seed": (_int, 0),
    "solver.max_sweeps": (_int, 2000),
    "sweep.rhos": (_float_list, None),
    "oracle.instances": (_int, 50),
    "oracle.restarts": (_int, 20),
    "refine.factor": (_int, 2),
    "analysis.points": (_str, "auto-fb"),
    "analysis.r_min": (_float, None),        # defaults to 4h
    "analysis.r_max": (_float, None),        # defaults to omega_radius / 2
    "analysis.n_dyadic": (_int, 5),
    "analysis.region_radius": (_float, None),  # defaults to omega_radius / 2
    "output.directory": (_str, "out"),
    "output.formats": (_str_list, ["json", "csv"]),
}


@dataclass
class ExperimentConfig:
    """Validated key-value map plus the source path for relative references."""

    path: str
    values: dict

    def resolve(self, relative_path: str) -> str:
        """Paths inside the config resolve relative to the config file."""
        if os.path.isabs(relative_path):
            return relative_path
        return os.path.join(os.path.dirname(os.path.abspath(self.path)), relative_path)


def parse_config(path: str) -> ExperimentConfig:
    """Read and fully validate a config file; every problem names its line."""
    try:
        with open(path, "r") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigurationError(f"cannot read config {path}: {exc}") from exc

    values = {}
    seen_lines = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigurationError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, _, text = line.partition("=")
        key = key.strip()
        text = text.strip()
        if key not in SCHEMA:
            raise ConfigurationError(f"{path}:{lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigurationError(
                f"{path}:{lineno}: duplicate key {key!r} (first set on line {seen_lines[key]})")
        parser, _ = SCHEMA[key]
        try:
            values[key] = parser(text)
        except ValueError as exc:
            raise ConfigurationError(f"{path}:{lineno}: bad value for {key}: {exc}") from exc
        seen_lines[key] = lineno

    for key, (_, default) in SCHEMA.items():
        if key in values:
            continue
        if default is _REQUIRED:
            raise ConfigurationError(f"{path}: missing required key {key!r}")
        values[key] = default

    cfg = ExperimentConfig(path=path, values=values)
    _validate(cfg)
    return cfg


def _validate(cfg: ExperimentConfig) -> None:
    v = cfg.values
    if v["kernel.family"] not in FAMILIES:
        raise ConfigurationError(
            f"kernel.family must be one of {FAMILIES}, got {v['kernel.family']!r}")
    if v["problem.phase"] not in ("one_phase", "two_phase"):
        raise ConfigurationError("problem.phase must be one_phase or two_phase")
    for key, least in (("solver.seed", 0), ("solver.max_sweeps", 0), ("solver.restarts", 1),
                       ("oracle.instances", 1), ("oracle.restarts", 1)):
        if v[key] < least:
            raise ConfigurationError(f"{key} must be at least {least}, got {v[key]}")
    g = v["problem.g"]
    if g.startswith("file:"):
        ref = cfg.resolve(g[len("file:"):])
        if not os.path.isfile(ref):
            raise ConfigurationError(f"problem.g references a missing file: {ref}")
    elif g not in G_PROFILES:
        raise ConfigurationError(
            f"problem.g must be one of {G_PROFILES} or file:<path>, got {g!r}")
    if v["kernel.table"] is not None:
        ref = cfg.resolve(v["kernel.table"])
        if not os.path.isfile(ref):
            raise ConfigurationError(f"kernel.table references a missing file: {ref}")
    fmts = v["output.formats"]
    for fmt in fmts:
        if fmt not in ("json", "csv"):
            raise ConfigurationError(f"output.formats entries must be json or csv, got {fmt!r}")
    pts = v["analysis.points"]
    if pts != "auto-fb":
        parse_points(pts, v["grid.d"])


def parse_points(text: str, dim: int) -> list:
    """Points as `x1[,x2] ; x1[,x2] ; ...`."""
    points = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        coords = [c.strip() for c in chunk.split(",")]
        if len(coords) != dim:
            raise ConfigurationError(
                f"analysis point {chunk!r} has {len(coords)} coordinates, expected {dim}")
        try:
            points.append(tuple(float(c) for c in coords))
        except ValueError as exc:
            raise ConfigurationError(f"bad analysis point {chunk!r}: {exc}") from exc
    if not points:
        raise ConfigurationError("analysis.points is empty")
    return points


def build_kernel(cfg: ExperimentConfig) -> KernelSpec:
    v = cfg.values
    family = v["kernel.family"]
    s = v["kernel.s"]
    lam = v["kernel.lambda"]
    Lam = v["kernel.Lambda"]
    dim = v["grid.d"]
    if family == "fractional_laplacian":
        return fractional_kernel(s, lam=lam, Lam=Lam, dim=dim)
    if family == "modulated":
        if v["kernel.amplitude"] is None or v["kernel.frequency"] is None:
            raise ConfigurationError(
                "modulated kernel requires kernel.amplitude and kernel.frequency")
        return modulated_kernel(s, lam, Lam if Lam is not None else lam,
                                v["kernel.amplitude"], v["kernel.frequency"], dim=dim)
    if family == "checkerboard":
        if v["kernel.block_size"] is None or v["kernel.multipliers"] is None:
            raise ConfigurationError(
                "checkerboard kernel requires kernel.block_size and kernel.multipliers")
        return checkerboard_kernel(s, lam, Lam if Lam is not None else lam,
                                   v["kernel.block_size"], v["kernel.multipliers"], dim=dim)
    if family == "custom_table":
        if v["kernel.table"] is None:
            raise ConfigurationError("custom_table kernel requires kernel.table")
        spec = load_custom_table(cfg.resolve(v["kernel.table"]))
        if spec.dim != dim or spec.s != s:
            raise ConfigurationError(
                "kernel.table dimension or s disagrees with the config")
        return spec
    raise ConfigurationError(f"unsupported kernel family {family!r}")


def build_problem_grid(cfg: ExperimentConfig, h: float | None = None) -> Grid:
    v = cfg.values
    return build_grid(v["grid.d"], h if h is not None else v["grid.h"],
                      v["grid.R_inf"], v["grid.omega_radius"])


def _bump(t):
    """Smooth bump in (-1, 1), equal to 1 at 0, extended by 0."""
    out = np.zeros_like(t)
    inside = np.abs(t) < 1.0
    ti = t[inside]
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - ti * ti))
    return out


def exterior_values(cfg: ExperimentConfig, grid: Grid) -> np.ndarray:
    """Evaluate the configured g profile on the grid (exterior nodes only)."""
    v = cfg.values
    name = v["problem.g"]
    omega = grid.omega_radius
    amplitude = v["problem.g_amplitude"]
    inner = v["problem.g_inner"] if v["problem.g_inner"] is not None else omega
    outer = (v["problem.g_outer"] if v["problem.g_outer"] is not None
             else min(2.0 * omega, grid.R_inf))
    center = (v["problem.g_center"] if v["problem.g_center"] is not None
              else 1.5 * omega)
    width = v["problem.g_width"] if v["problem.g_width"] is not None else omega / 2.0

    if name.startswith("file:"):
        loaded = load_field_csv(grid, cfg.resolve(name[len("file:"):]))
        values = loaded.values.copy()
        values[grid.interior] = 0.0
        return values

    pos = grid.positions
    norm = np.sqrt(np.einsum("nd,nd->n", pos, pos))
    right = pos[:, 0] > 0.0
    values = np.zeros(grid.n_nodes)
    if name == "zero":
        pass
    elif name == "right_constant":
        values[right & (norm >= inner) & (norm <= outer)] = amplitude
    elif name == "right_bump":
        t = 2.0 * (norm - center) / width
        values = amplitude * _bump(t)
        values[~right] = 0.0
    elif name == "two_bump":
        t_right = 2.0 * (norm - center) / width
        bump = _bump(t_right)
        values = np.where(right, amplitude * bump, -amplitude * bump)
    else:
        raise ConfigurationError(f"unknown g profile {name!r}")
    values[grid.interior] = 0.0
    return values


def build_problem(cfg: ExperimentConfig, h: float | None = None) -> ProblemSpec:
    """Kernel + grid + data assembled into a ready-to-solve instance."""
    kernel = build_kernel(cfg)
    grid = build_problem_grid(cfg, h=h)
    g = exterior_values(cfg, grid)
    v = cfg.values
    return ProblemSpec(kernel, grid, g, rho=v["problem.rho"], xi=v["problem.xi"],
                       phase=v["problem.phase"])
