"""Spans around calls into each layer, recorded from outside the program.

Each target is a public name patched *where its caller looks it up*: a module
global (``sinegordon.schemes.laplacian``) or a class attribute
(``SystemOperator.apply``).  A target that no longer exists is reported as
absent and skipped, so the traced run survives refactors; metrics that depend
only on absent targets are left out of the result.

Spans are kept in memory as ``[name, parent, start, end, attrs]`` and
reduced to per-layer metrics after the run.  A span's self time is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from collections import defaultdict

# Bytes one Laplacian must move at minimum: read U, write the result.
LAPLACIAN_BYTES_PER_NODE = 16


def _nodes(args, kwargs):
    """Node count of the field argument of ``laplacian(grid, U, bv)``."""
    field = args[1] if len(args) > 1 else kwargs.get("U")
    return lambda out: {"nodes": getattr(field, "size", 0)}


def _solve_report(args, kwargs):
    def finish(out):
        report = out[1]
        return {"iters": report.iterations, "converged": bool(report.converged)}
    return finish


def _records(args, kwargs):
    recorder = args[0]
    before = len(recorder.records)
    return lambda out: {"records": len(recorder.records) - before}


def _file_bytes(args, kwargs):
    path = args[0] if args else kwargs["path"]
    return lambda out: {"bytes": os.path.getsize(path)}


# (module, attribute path where the caller looks it up, span name, probe)
TARGETS = (
    ("sinegordon.harness", "run", "harness.run", None),
    ("sinegordon.harness", "get_problem", "problems.factory", None),
    ("sinegordon.harness", "error_vs_exact", "diagnostics.error", None),
    ("sinegordon.harness", "write_field_csv", "harness.csv", _file_bytes),
    ("sinegordon.harness", "write_energy_csv", "harness.csv", _file_bytes),
    ("sinegordon.schemes", "li_leps_step", "schemes.step", None),
    ("sinegordon.schemes", "li_leps_first_step", "schemes.step", None),
    ("sinegordon.schemes", "ep_fds_step", "schemes.ep_fds_step", None),
    ("sinegordon.schemes", "laplacian", "operators.laplacian", _nodes),
    ("sinegordon.schemes", "coupling", "operators.coupling", None),
    ("sinegordon.schemes", "pcg_solve", "linear_solver.solve", _solve_report),
    ("sinegordon.linear_solver", "laplacian", "operators.laplacian", _nodes),
    ("sinegordon.linear_solver", "SystemOperator.apply", "linear_solver.matvec", None),
    ("sinegordon.linear_solver", "SystemOperator.apply_interior", "linear_solver.matvec", None),
    ("sinegordon.linear_solver", "SystemOperator.diagonal", "linear_solver.diagonal", None),
    ("sinegordon.diagnostics", "EnergyRecorder.__call__", "diagnostics.energy", _records),
    ("sinegordon.problems", "DirichletBoundary.values", "problems.bc", None),
    ("sinegordon.problems", "DirichletBoundary.pin", "problems.bc", None),
    ("sinegordon.grid", "Grid.l2", "grid.reduction", None),
    ("sinegordon.grid", "Grid.inner", "grid.reduction", None),
)


class Tracer:
    """Installs span-recording wrappers; ``uninstall`` restores the originals."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self.absent: list[str] = []
        self.present: set[str] = set()

    def wrap(self, name: str, fn, probe=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            finish = probe(args, kwargs) if probe is not None else None
            span = [name, stack[-1] if stack else -1, clock(), 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if finish is not None:
                span[4] = finish(out)
            return out

        return traced

    def install(self) -> None:
        for module_name, path, span_name, probe in TARGETS:
            owner = importlib.import_module(module_name)
            *owners, attr = path.split(".")
            for part in owners:
                owner = getattr(owner, part, None)
            original = getattr(owner, "__dict__", {}).get(attr)
            if not callable(original):
                self.absent.append(f"{module_name}.{path}")
                continue
            setattr(owner, attr, self.wrap(span_name, original, probe))
            self._restore.append((owner, attr, original))
            self.present.add(span_name)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()


class _Stat:
    __slots__ = ("n", "dur", "self_", "attrs")

    def __init__(self):
        self.n = 0
        self.dur = 0.0
        self.self_ = 0.0
        self.attrs = defaultdict(float)


def _div(a: float, b: float) -> float:
    return a / b if b else 0.0


def summarize(spans: list[list], present: set[str]) -> tuple[dict, dict]:
    """Per-layer metrics ``{name: (value, unit)}`` of one traced execution, and
    its exact totals of CG iterations and fixed-point sweeps."""
    child = [0.0] * len(spans)
    for name, parent, start, end, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    stats: dict[str, _Stat] = defaultdict(_Stat)
    iters_max = 0
    sweeps = 0
    reduction_top = _Stat()
    for i, (name, parent, start, end, attrs) in enumerate(spans):
        s = stats[name]
        s.n += 1
        s.dur += end - start
        s.self_ += end - start - child[i]
        for key, value in (attrs or {}).items():
            s.attrs[key] += value
        if name == "linear_solver.solve":
            iters_max = max(iters_max, attrs["iters"])
            sweeps += parent >= 0 and spans[parent][0] == "schemes.ep_fds_step"
        if name == "grid.reduction" and (parent < 0 or spans[parent][0] != name):
            reduction_top.n += 1
            reduction_top.dur += end - start

    lap = stats["operators.laplacian"]
    solve = stats["linear_solver.solve"]
    matvec = stats["linear_solver.matvec"]
    ep = stats["schemes.ep_fds_step"]
    steps_n = stats["schemes.step"].n + ep.n
    steps_self = stats["schemes.step"].self_ + ep.self_
    energy = stats["diagnostics.energy"]
    csv_ = stats["harness.csv"]
    bc = stats["problems.bc"]
    # (span names a group is computed from, its metrics as name: (value, unit))
    groups = (
        (("operators.laplacian",), {
            "operators.laplacian_calls": (lap.n, "count"),
            "operators.laplacian_us_per_call": (1e6 * _div(lap.self_, lap.n), "us"),
            "operators.laplacian_gbps_computed": (
                1e-9 * _div(LAPLACIAN_BYTES_PER_NODE * lap.attrs["nodes"], lap.self_), "GB/s"),
        }),
        (("operators.coupling",), {
            "operators.coupling_ms": (1e3 * stats["operators.coupling"].dur, "ms"),
        }),
        (("linear_solver.solve",), {
            "linear_solver.solves": (solve.n, "count"),
            "linear_solver.cg_iters_per_solve": (_div(solve.attrs["iters"], solve.n), "count"),
            "linear_solver.cg_iters_max": (iters_max, "count"),
            "linear_solver.solve_self_us_per_iter": (
                1e6 * _div(solve.self_, solve.attrs["iters"]), "us"),
            "linear_solver.converged_frac": (
                _div(solve.attrs["converged"], solve.n), "ratio"),
        }),
        (("linear_solver.matvec",), {
            "linear_solver.matvecs": (matvec.n, "count"),
            "linear_solver.matvec_self_us": (1e6 * _div(matvec.self_, matvec.n), "us"),
        }),
        (("linear_solver.diagonal",), {
            "linear_solver.diagonal_ms": (1e3 * stats["linear_solver.diagonal"].dur, "ms"),
        }),
        (("schemes.step", "schemes.ep_fds_step"), {
            "schemes.steps": (steps_n, "count"),
            "schemes.self_ms_per_step": (1e3 * _div(steps_self, steps_n), "ms"),
        }),
        (("schemes.ep_fds_step",), {
            "schemes.fp_sweeps_per_step": (_div(sweeps, ep.n), "count"),
        }),
        (("grid.reduction",), {
            "grid.reduction_calls": (reduction_top.n, "count"),
            "grid.reduction_ms": (1e3 * reduction_top.dur, "ms"),
        }),
        (("problems.bc",), {
            "problems.bc_calls": (bc.n, "count"),
            "problems.bc_ms": (1e3 * bc.dur, "ms"),
        }),
        (("problems.factory",), {
            "problems.factory_ms": (1e3 * stats["problems.factory"].dur, "ms"),
        }),
        (("diagnostics.energy",), {
            "diagnostics.energy_records": (energy.attrs["records"], "count"),
            "diagnostics.energy_record_ms_per_call": (
                1e3 * _div(energy.dur, energy.attrs["records"]), "ms"),
        }),
        (("diagnostics.error",), {
            "diagnostics.error_ms": (1e3 * stats["diagnostics.error"].dur, "ms"),
        }),
        (("harness.csv",), {
            "harness.csv_bytes": (csv_.attrs["bytes"], "B"),
            "harness.csv_write_s": (csv_.dur, "s"),
            "harness.csv_mb_per_s": (1e-6 * _div(csv_.attrs["bytes"], csv_.dur), "MB/s"),
        }),
    )
    metrics = {key: value for sources, group in groups if present.intersection(sources)
               for key, value in group.items()}
    totals = {"cg_iterations": int(solve.attrs["iters"]), "fp_sweeps": sweeps}
    return metrics, totals


# Metrics that count work; they must repeat exactly between traced executions.
EXACT_COUNTS = ("operators.laplacian_calls", "linear_solver.solves",
                "linear_solver.cg_iters_per_solve", "linear_solver.cg_iters_max",
                "linear_solver.matvecs", "schemes.steps", "schemes.fp_sweeps_per_step",
                "grid.reduction_calls", "problems.bc_calls",
                "diagnostics.energy_records", "harness.csv_bytes")
