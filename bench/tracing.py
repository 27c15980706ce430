"""Spans and counters recorded from outside the program.

The tracer wraps nlfb's public functions at the points where one module calls
another and records one span per call: an id, the id of the enclosing span,
a name `<layer>.<operation>` and start and end times on the monotonic clock.
Nothing under src/ is edited: the wrapper replaces the function in every nlfb
module namespace that refers to it, so cross-module calls (the CLI calling
`minimize`, the solver calling `total_energy`) and same-module calls through
the module global (`lifting_initialization` calling `harmonic_lifting`) are
both seen. Spans are kept in memory and written when the operation ends.

Calls run on one thread (NLFB_THREADS=1), so spans nest strictly and a
span's self time is its duration minus its children's durations; the self
times of all spans then sum to the duration of the root span.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

import numpy as np

LAYERS = ("config", "kernel", "energy", "solver", "analysis", "grid", "cli")
SPAN_COLUMNS = ["run", "id", "parent", "name", "start_s", "end_s"]
# units of the per-layer metrics whose name does not end in _s (seconds)
UNITS = {
    "kernel.eval_calls": "count", "kernel.eval_pairs": "count",
    "energy.assemble_calls": "count", "energy.form_bytes_computed": "B",
    "energy.eval_calls": "count", "energy.eval_pairs_computed": "count",
    "solver.descents": "count", "solver.sweeps": "count", "solver.converged_frac": "ratio",
    "solver.s_per_sweep": "s/sweep", "solver.lifting_calls": "count",
    "solver.oracle_calls": "count", "solver.oracle_subsets": "count",
    "analysis.free_boundary_calls": "count", "grid.csv_bytes": "B",
    "grid.ball_queries": "count", "cli.artifact_bytes": "B", "trace.spans": "count",
}


def unit_of(name):
    return UNITS.get(name, "s" if name.endswith("_s") else "count")


def _kernel_pairs(counts, args, result):
    spec, x, y = args[0], args[1], args[2]
    counts["kernel.eval_pairs"] += max(np.size(x), np.size(y)) // spec.dim


def _form_bytes(counts, args, result):
    if result.dense is not None:
        counts["energy.form_bytes_computed"] += 8 * result.n_nodes ** 2


def _energy_pairs(counts, args, result):
    n = args[0].n_nodes
    counts["energy.eval_pairs_computed"] += n * (n - 1) // 2


def _descent(counts, args, result):
    counts["solver.sweeps"] += result.sweeps
    counts["solver.converged"] += int(result.converged)


def _oracle_subsets(counts, args, result):
    counts["solver.oracle_subsets"] += 2 ** int(args[0].grid.interior.sum())


def _csv_bytes(counts, args, result):
    counts["grid.csv_bytes"] += len(result)


# (defining module, function, span name, counter hook run on return)
TARGETS = (
    ("nlfb.config", "parse_config", "config.parse", None),
    ("nlfb.config", "build_problem", "config.build_problem", None),
    ("nlfb.kernel", "eval_kernel", "kernel.eval", _kernel_pairs),
    ("nlfb.energy", "assemble_form", "energy.assemble", _form_bytes),
    ("nlfb.energy", "total_energy", "energy.eval", _energy_pairs),
    ("nlfb.solver", "minimize", "solver.minimize", None),
    ("nlfb.solver", "coordinate_descent", "solver.descent", _descent),
    ("nlfb.solver", "harmonic_lifting", "solver.lifting", None),
    ("nlfb.solver", "oracle_minimize", "solver.oracle", _oracle_subsets),
    ("nlfb.analysis", "build_report", "analysis.report", None),
    ("nlfb.analysis", "free_boundary", "analysis.free_boundary", None),
    ("nlfb.analysis", "nondegeneracy", "analysis.nondegeneracy", None),
    ("nlfb.analysis", "subsolution_residual", "analysis.subsolution", None),
    ("nlfb.analysis", "lifting_distance", "analysis.lifting_distance", None),
    ("nlfb.grid", "field_csv_text", "grid.csv", _csv_bytes),
    ("nlfb.grid", "nodes_in_ball", "grid.ball_query", None),
    ("nlfb.grid", "sup_over_ball", "grid.ball_query", None),
    ("nlfb.grid", "l2_mean_over_ball", "grid.ball_query", None),
    ("nlfb.grid", "region_interior_indices", "grid.ball_query", None),
)


class Tracer:
    """In-memory span recorder for one run of the CLI."""

    def __init__(self):
        self.spans = []          # [id, parent, name, start_s, end_s]
        self.counts = Counter()
        self._stack = []
        self._patches = []

    def wrap(self, name, fn, hook=None):
        """Return fn wrapped so that every call records a span named `name`."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [len(self.spans), self._stack[-1] if self._stack else -1, name,
                      time.perf_counter(), None]
            self.spans.append(record)
            self._stack.append(record[0])
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                record[4] = time.perf_counter()
            if hook is not None:
                hook(self.counts, args, result)
            return result

        return traced

    def install(self):
        """Replace every TARGETS function in all loaded nlfb modules."""
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "nlfb" or name.startswith("nlfb."))]
        for module_name, func_name, span_name, hook in TARGETS:
            original = getattr(sys.modules[module_name], func_name)
            traced = self.wrap(span_name, original, hook)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, attr, original))
                        setattr(module, attr, traced)

    def uninstall(self):
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches = []


def self_times(spans):
    """Self time of each span: its duration minus its direct children's durations."""
    child_time = defaultdict(float)
    for _, parent, _, start, end in spans:
        if parent >= 0:
            child_time[parent] += end - start
    return [end - start - child_time[span_id] for span_id, _, _, start, end in spans]


def layer_metrics(spans, counts):
    """Per-layer metrics of one traced CLI run; spans[0] must be the root span."""
    busy = defaultdict(float)
    calls = Counter()
    layer_self = dict.fromkeys(LAYERS, 0.0)
    selfs = self_times(spans)
    descent_self = 0.0
    for (_, _, name, start, end), own in zip(spans, selfs):
        busy[name] += end - start
        calls[name] += 1
        layer_self[name.split(".", 1)[0]] += own
        if name == "solver.descent":
            descent_self += own
    sweeps = counts["solver.sweeps"]
    descents = calls["solver.descent"]
    root = spans[0]
    m = {
        "config.parse_s": busy["config.parse"],
        "config.build_problem_s": busy["config.build_problem"],
        "kernel.eval_calls": calls["kernel.eval"],
        "kernel.eval_pairs": counts["kernel.eval_pairs"],
        "kernel.eval_s": busy["kernel.eval"],
        "energy.assemble_calls": calls["energy.assemble"],
        "energy.assemble_s": busy["energy.assemble"],
        "energy.form_bytes_computed": counts["energy.form_bytes_computed"],
        "energy.eval_calls": calls["energy.eval"],
        "energy.eval_s": busy["energy.eval"],
        "energy.eval_pairs_computed": counts["energy.eval_pairs_computed"],
        "solver.descents": descents,
        "solver.sweeps": sweeps,
        "solver.converged_frac": counts["solver.converged"] / descents if descents else 0.0,
        "solver.descent_self_s": descent_self,
        "solver.s_per_sweep": descent_self / sweeps if sweeps else 0.0,
        "solver.lifting_calls": calls["solver.lifting"],
        "solver.lifting_s": busy["solver.lifting"],
        "solver.oracle_calls": calls["solver.oracle"],
        "solver.oracle_subsets": counts["solver.oracle_subsets"],
        "solver.oracle_s": busy["solver.oracle"],
        "analysis.report_s": busy["analysis.report"],
        "analysis.free_boundary_calls": calls["analysis.free_boundary"],
        "analysis.free_boundary_s": busy["analysis.free_boundary"],
        "analysis.nondegeneracy_s": busy["analysis.nondegeneracy"],
        "analysis.subsolution_s": busy["analysis.subsolution"],
        "analysis.lifting_distance_s": busy["analysis.lifting_distance"],
        "grid.csv_s": busy["grid.csv"],
        "grid.csv_bytes": counts["grid.csv_bytes"],
        "grid.ball_queries": calls["grid.ball_query"],
        "cli.self_s": selfs[0],
        "trace.wall_s": root[4] - root[3],
        "trace.spans": len(spans),
    }
    for layer in LAYERS:
        if layer != "cli":     # the cli layer has only the root span: cli.self_s
            m[f"{layer}.self_s"] = layer_self[layer]
    return m
