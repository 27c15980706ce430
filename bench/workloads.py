"""The benchmark's workloads: one fixed config per workload, run through one CLI subcommand.

BENCHMARK.json gives the reason for each workload. Each workload here records
the result fingerprint the program produced for it (CLI seed 0) when the
benchmark was introduced. The
energy fingerprint is a correctness gate: a run whose total energy exceeds it
by more than ENERGY_RTOL relative has not found the minimizer. Support size,
sweeps and free-boundary node count are recorded beside the timings so that a
speed-up which changes the answer shows up, but they do not fail a run: sweeps
depend on the seed-shuffled visiting order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

ENERGY_RTOL = 1e-9          # relative excess over the fingerprint energy that fails a run
PAIRING_RTOL = 1e-8         # criterion 5: max pairing <= PAIRING_RTOL * residual_scale
ORACLE_MIN_AGREE = 0.95     # criterion 2: share of oracle-compare instances that must agree


@dataclass(frozen=True)
class Workload:
    name: str
    subcommand: str
    config: str
    fingerprint: dict = field(default_factory=dict)
    # operations per CLI run for the error rate: oracle-compare counts instances
    instances: int = 1
    # single-run wall-time range of the CLI call seen when the benchmark was
    # introduced (2-core shared Xeon, numpy 2.4.6, Python 3.11), for context
    reference_wall_s: tuple | None = None


SOLVE_1D = Workload(
    name="solve-1d",
    subcommand="solve",
    config="""\
kernel.s = 0.5
grid.h = 0.005
grid.R_inf = 2.0
problem.g = right_constant
problem.g_amplitude = 0.35
problem.rho = 0.10
solver.restarts = 2
""",
    fingerprint={"energy": 0.26968232678387183, "support": 150, "sweeps": 376},
    reference_wall_s=(5.3, 8.0),
)

ORACLE_50 = Workload(
    name="oracle-50",
    subcommand="oracle-compare",
    config="""\
kernel.s = 0.5
grid.h = 0.1
grid.omega_radius = 0.5
grid.R_inf = 1.0
problem.g_amplitude = 0.35
problem.rho = 0.2
oracle.instances = 50
oracle.restarts = 20
""",
    fingerprint={"agree": 50},
    instances=50,
    reference_wall_s=(4.4, 6.7),
)

ANALYZE_2D = Workload(
    name="analyze-2d",
    subcommand="analyze",
    # explicit points: auto-fb picks midpoints next to the domain wall on this
    # instance and the growth fit then has fewer than 3 radii
    config="""\
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
""",
    fingerprint={"energy": 1.3437156497287561, "support": 346, "sweeps": 76,
                 "fb_nodes": 28},
    reference_wall_s=(3.6, 4.7),
)

# Tiny instance for the harness's own smoke test; not a benchmark workload.
SMOKE_1D = Workload(
    name="smoke-1d",
    subcommand="solve",
    config="""\
kernel.s = 0.5
grid.h = 0.1
grid.R_inf = 2.0
problem.g = right_constant
problem.g_amplitude = 0.35
problem.rho = 0.10
solver.restarts = 2
""",
    fingerprint={"energy": 0.2566004812687842, "support": 7, "sweeps": 26},
)

WORKLOADS = {w.name: w for w in (SOLVE_1D, ORACLE_50, ANALYZE_2D, SMOKE_1D)}
# `run.py --workload all` runs these. BENCHMARK.json lists only oracle-50 and
# analyze-2d, which between them exercise every layer, so that each of its runs
# can last 60 s: with three workloads a run gets 40 s, too short for steady
# medians on a shared 2-core machine. solve-1d stays runnable by name.
BENCHMARK_WORKLOADS = ("solve-1d", "oracle-50", "analyze-2d")
