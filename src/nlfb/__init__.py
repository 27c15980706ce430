"""Discrete laboratory for nonlocal Bernoulli-type free boundary problems.

Minimizes J(u) = sum of kernel-weighted squared differences plus a volume
penalty on {u > xi} over a truncated lattice, for kernels comparable to the
fractional Laplacian, and measures the regularity diagnostics the minimizers
are expected to satisfy (growth, nondegeneracy, density, subsolution,
harmonic-lifting distance, and the zoom identity).
"""

__version__ = "0.1.0"

from .analysis import (FreeBoundary, FreeBoundaryReport, build_report, density,
                       dyadic_radii, free_boundary, growth_exponent,
                       lifting_distance, nondegeneracy, residual_scale,
                       scaling_discrepancy, select_analysis_points,
                       subsolution_residual)
from .energy import (EnergyBreakdown, QuadraticForm, assemble_form, dirichlet_energy,
                     support_mask, tail, total_energy, tree_sum,
                     truncation_error_bound)
from .errors import (CapacityError, ConfigurationError, DataError, DomainError,
                     NlfbError, SolverError)
from .grid import (Ball, Field, Grid, build_grid, enumerate_lattice, field_csv_text,
                   l2_mean_over_ball, load_field_csv, nodes_in_ball,
                   region_interior_indices, sample_field, sup_over_ball)
from .kernel import (EllipticityReport, KernelSpec, check_ellipticity,
                     checkerboard_kernel, eval_kernel, fractional_kernel,
                     load_custom_table, modulated_kernel, rescale_kernel)
from .solver import (MinimizeResult, ProblemSpec, coordinate_descent,
                     harmonic_lifting, lifting_initialization, minimize,
                     oracle_minimize, rho_sweep_minimize)

__all__ = [
    "__version__",
    "Ball", "CapacityError", "ConfigurationError", "DataError", "DomainError",
    "EllipticityReport", "EnergyBreakdown", "Field", "FreeBoundary",
    "FreeBoundaryReport", "Grid", "KernelSpec", "MinimizeResult", "NlfbError",
    "ProblemSpec", "QuadraticForm", "SolverError",
    "assemble_form", "build_grid", "build_report", "check_ellipticity",
    "checkerboard_kernel", "coordinate_descent", "density", "dirichlet_energy",
    "dyadic_radii", "enumerate_lattice", "eval_kernel", "field_csv_text",
    "fractional_kernel",
    "free_boundary", "growth_exponent", "harmonic_lifting", "l2_mean_over_ball",
    "lifting_distance", "lifting_initialization", "load_custom_table", "load_field_csv", "minimize",
    "modulated_kernel", "nodes_in_ball", "nondegeneracy", "oracle_minimize",
    "region_interior_indices", "rescale_kernel", "residual_scale",
    "rho_sweep_minimize", "sample_field",
    "scaling_discrepancy", "select_analysis_points", "subsolution_residual",
    "sup_over_ball", "support_mask", "tail", "total_energy",
    "tree_sum", "truncation_error_bound",
]
