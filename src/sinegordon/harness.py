"""Command-line front end: experiment runs, convergence studies, scheme comparisons.

Outputs are CSV tables plus a ``meta.json`` that echoes every config field, so
a run is reproducible from its metadata alone.  Data files carry no
timestamps and all reductions are deterministic at a fixed BLAS thread count,
so repeated runs of the same config on one machine, numpy/BLAS build and BLAS
thread count produce byte-identical CSVs; the wall-clock columns (``cpu.csv``
and the ``cpu_s`` column of ``convergence.csv``) are the documented exception.

Exit status: 0 on success, 1 on numerical failure, 2 on configuration errors.
A numerical failure still flushes every output finished before it; stderr
and the ``failure`` key of ``meta.json`` name it.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .diagnostics import EnergyRecorder, error_vs_exact, convergence_orders
from .grid import Grid
from .linear_solver import CG_TOL, NumericalError
from .problems import PROBLEMS, Problem, get_problem
from .schemes import FP_MAX, SCHEMES, RunResult, TimeGrid, run


class ConfigError(Exception):
    """Invalid run configuration; maps to exit status 2."""


@dataclass
class RunConfig:
    problem: str
    scheme: str = SCHEMES[0]
    n1: int = 100
    n2: int | None = None
    tau: float = 0.01
    T: float = 1.0
    record_every: int = 1
    snap_times: tuple[float, ...] = ()
    out_dir: str = "out"
    cg_tol: float = CG_TOL
    fp_max: int = FP_MAX
    display: bool = False

    def validate(self) -> None:
        if self.scheme not in SCHEMES:
            raise ConfigError(f"unknown scheme {self.scheme!r}; expected one of {SCHEMES}")
        if self.problem not in PROBLEMS:
            raise ConfigError(f"unknown problem {self.problem!r}; "
                              f"available: {sorted(PROBLEMS)}")
        if self.record_every < 1:
            raise ConfigError("record cadence must be at least 1")
        for name in ("tau", "T", "cg_tol"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite")
        for name in ("tau", "cg_tol"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        if self.T < 0:
            raise ConfigError("T must be nonnegative")
        if self.fp_max < 0:
            raise ConfigError("fp_max must be nonnegative")


def _fmt(x: float) -> str:
    return repr(float(x))


def _build(cfg: RunConfig) -> tuple[Problem, Grid, TimeGrid]:
    cfg.validate()
    problem = get_problem(cfg.problem)
    try:
        grid = problem.grid(cfg.n1, cfg.n2)
        time_grid = TimeGrid.from_final_time(cfg.tau, cfg.T)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return problem, grid, time_grid


def _field_csv_name(t: float) -> str:
    return f"field_t{t:g}.csv"


def _snapshot_steps(cfg: RunConfig, time_grid: TimeGrid) -> dict[int, float]:
    """Map requested snapshot times to step indices.

    Rejects times beyond tau/2 of every step and two times that share a step
    or a file name, either of which would drop a snapshot.
    """
    times = cfg.snap_times or tuple(sorted({0.0, cfg.T}))
    steps: dict[int, float] = {}
    names: dict[str, float] = {}
    for t in times:
        k = int(round(t / time_grid.tau))
        if abs(k * time_grid.tau - t) > time_grid.tau / 2 + 1e-12:
            raise ConfigError(f"snapshot time {t} is not within tau/2 of any step")
        if k < 0 or k > time_grid.m:
            raise ConfigError(f"snapshot time {t} lies outside [0, T]")
        name = _field_csv_name(t)
        if k in steps:
            raise ConfigError(f"snapshot times {steps[k]} and {t} both map to step {k}")
        if name in names:
            raise ConfigError(f"snapshot times {names[name]} and {t} would both be written "
                              f"to {name}")
        steps[k] = names[name] = t
    return steps


def _line(*cells: str) -> str:
    return ",".join(cells) + "\r\n"


def _write_csv(path: Path, header: tuple[str, ...], lines) -> None:
    """Write the header row, then ``lines``, each one or more ``\\r\\n``-terminated rows.

    Every CSV of the package goes through here, in one dialect: commas,
    ``\\r\\n`` line ends and no quoting, since no cell holds a comma, a quote
    or a line break.
    """
    with open(path, "w", newline="") as fh:
        fh.write(_line(*header))
        fh.writelines(lines)


def write_energy_csv(path: Path, records) -> None:
    _write_csv(path, ("t", "e_modified", "e_original", "deviation"),
               (_line(*map(_fmt, (rec.t, rec.e_modified, rec.e_original, rec.deviation)))
                for rec in records))


def write_field_csv(path: Path, grid, values: np.ndarray) -> None:
    """One ``x,y,value`` row per node, j2 outermost, floats as ``repr`` (as :func:`_fmt`).

    Each grid row is joined into one string, so its values become Python
    floats only while that row is written, which keeps the Python objects to
    one row of the field.
    """
    values = grid.check_field(np.asarray(values, dtype=float), "values")
    xs = [repr(x) for x in grid.x.tolist()]
    ys = [repr(y) for y in grid.y.tolist()]
    _write_csv(path, ("x", "y", "value"),
               ("\r\n".join(map(f",{y},".join, zip(xs, map(float.__repr__, row.tolist()))))
                + "\r\n" for y, row in zip(ys, values)))


def _write_meta(out: Path, command: str, config: dict, extra: dict,
                failure: str | None = None) -> int:
    """Write ``meta.json`` and return the exit status.

    A numerical failure is recorded under ``failure`` and reported on stderr.
    """
    meta = {"command": command, "package_version": __version__, "config": config}
    meta.update(extra)
    if failure is not None:
        meta["failure"] = failure
        print(f"numerical failure: {failure}", file=sys.stderr)
    with open(out / "meta.json", "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0 if failure is None else 1


def _solver_stats(result: RunResult) -> dict:
    """The solver totals of one run, as ``meta.json`` records them."""
    return {
        "wall_seconds_stepping": result.wall_seconds,
        "cg_iterations": result.cg_iterations,
        "cg_iterations_max": result.cg_iterations_max,
        "fp_sweeps": result.fp_sweeps,
        "preconditioner": result.preconditioner,
    }


class _SnapshotRecorder:
    """Writes the field CSV of each requested step, one recorder call late.

    It holds the requested level's own ``u``, never a copy (no level's
    fields are written after the level is built), and writes it at the next
    call.  Until then that ``u`` is alive anyway, as the old level of the
    step in between, so holding it keeps no extra field.  No CSV is written
    in the call that takes a snapshot: the t = 0 CSV would otherwise be
    written before the first step and count as set-up (perfbench's
    ``setup_s`` ends with recorder call 0).  :meth:`flush` writes the last
    pending snapshot, after the run or its failure.
    """

    def __init__(self, cfg: RunConfig, problem: Problem, grid: Grid, steps: dict[int, float]):
        self.cfg = cfg
        self.problem = problem
        self.grid = grid
        self.steps = steps
        self.pending: tuple[float, np.ndarray] | None = None

    def __call__(self, step: int, state) -> None:
        self.flush()
        if step in self.steps:
            self.pending = self.steps[step], state.u

    def flush(self) -> None:
        if self.pending is None:
            return
        (t_req, values), self.pending = self.pending, None
        if self.cfg.display:
            values = self.problem.display(values)
        write_field_csv(Path(self.cfg.out_dir) / _field_csv_name(t_req), self.grid, values)


def cmd_run(cfg: RunConfig) -> int:
    problem, grid, time_grid = _build(cfg)
    snap_steps = _snapshot_steps(cfg, time_grid)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    energy = EnergyRecorder(every=cfg.record_every)
    snaps = _SnapshotRecorder(cfg, problem, grid, snap_steps)

    failure = None
    stats = {}
    try:
        stats = _solver_stats(run(problem, grid, time_grid, scheme=cfg.scheme,
                                  recorders=(energy, snaps), cg_tol=cfg.cg_tol, fp_max=cfg.fp_max))
    except NumericalError as exc:
        failure = str(exc)

    write_energy_csv(out / "energy.csv", energy.records)
    snaps.flush()

    extra = {"n_steps": time_grid.m, "h1": grid.h1, "h2": grid.h2, **stats}
    return _write_meta(out, "run", asdict(cfg), extra, failure)


def _converge_row(problem: Problem, grid: Grid, time_grid: TimeGrid, cfg: RunConfig) -> dict:
    """One level of a convergence ladder: its mesh, errors and stepping time.

    The run's final level dies on return, before the next level starts.
    """
    result = run(problem, grid, time_grid, scheme=cfg.scheme, cg_tol=cfg.cg_tol, fp_max=cfg.fp_max)
    err = error_vs_exact(result.state, problem)
    return {"h": grid.h1, "tau": time_grid.tau, "l2": err.l2,
            "linf": err.linf, "h1": err.h1, "cpu_s": result.wall_seconds}


def cmd_converge(cfg: RunConfig, levels: int) -> int:
    """Run a halving (h, tau) ladder and emit the error/order table."""
    if levels < 2:
        raise ConfigError("need at least 2 refinement levels")
    if cfg.T == 0:
        raise ConfigError("a convergence study needs T > 0; at T = 0 every error is 0")
    problem, _, _ = _build(cfg)
    if problem.exact is None:
        raise ConfigError(f"problem {cfg.problem!r} has no exact solution to converge against")
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    rows = []
    failure = None
    for lvl in range(levels):
        scale = 2**lvl
        n1 = cfg.n1 * scale
        n2 = None if cfg.n2 is None else cfg.n2 * scale
        grid = problem.grid(n1, n2)
        time_grid = TimeGrid.from_final_time(cfg.tau / scale, cfg.T)
        try:
            rows.append(_converge_row(problem, grid, time_grid, cfg))
        except NumericalError as exc:
            failure = f"level {lvl}: {exc}"
            break

    norms = ("l2", "linf", "h1")
    orders = {norm: [""] for norm in norms}  # the coarsest level has no order
    if len(rows) > 1:
        for norm in norms:
            ladder = [(r["h"], r["tau"], r[norm]) for r in rows]
            orders[norm] += map(_fmt, convergence_orders(ladder))
    _write_csv(out / "convergence.csv",
               ("h", "tau", "l2", "l2_order", "linf", "linf_order", "h1", "h1_order", "cpu_s"),
               (_line(_fmt(row["h"]), _fmt(row["tau"]),
                      *(cell for norm in norms for cell in (_fmt(row[norm]), orders[norm][i])),
                      _fmt(row["cpu_s"])) for i, row in enumerate(rows)))
    return _write_meta(out, "converge", {**asdict(cfg), "levels": levels}, {}, failure)


def cmd_compare(cfg: RunConfig) -> int:
    """Run both schemes on one config; emit per-scheme energy traces and cpu.csv.

    The schemes run sequentially so the wall-clock comparison is not skewed by
    contention.  Only a finished run's solver totals are kept, so its final
    level is freed before the next scheme starts.
    """
    problem, grid, time_grid = _build(cfg)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    solver_stats = {}
    failure = None
    for scheme in SCHEMES:
        energy = EnergyRecorder(every=cfg.record_every)
        try:
            stats = _solver_stats(run(problem, grid, time_grid, scheme=scheme,
                                      recorders=(energy,), cg_tol=cfg.cg_tol, fp_max=cfg.fp_max))
        except NumericalError as exc:
            failure = f"{scheme}: {exc}"
        write_energy_csv(out / f"energy_{scheme}.csv", energy.records)
        if failure is not None:
            break
        solver_stats[scheme] = stats

    _write_csv(out / "cpu.csv", ("scheme", "nodes", "wall_seconds"),
               (_line(scheme, str(grid.num_nodes), _fmt(stats["wall_seconds_stepping"]))
                for scheme, stats in solver_stats.items()))
    return _write_meta(out, "compare", asdict(cfg), {"solver": solver_stats}, failure)


def _parse_n(text: str) -> tuple[int, int | None]:
    parts = text.split(",")
    try:
        if len(parts) == 1:
            return int(parts[0]), None
        if len(parts) == 2:
            return int(parts[0]), int(parts[1])
    except ValueError:
        pass
    raise ConfigError(f"--n expects n1 or n1,n2; got {text!r}")


def _parse_snaps(text: str) -> tuple[float, ...]:
    try:
        times = tuple(float(tok) for tok in text.split(",") if tok.strip() != "")
        if all(map(math.isfinite, times)):
            return times
    except ValueError:
        pass
    raise ConfigError(f"--snap expects comma-separated finite times; got {text!r}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="sinegordon",
        description="Structure-preserving sine-Gordon solvers and experiments.")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, help_text in (("run", "integrate one problem and emit traces/snapshots"),
                               ("converge", "halving (h, tau) refinement study"),
                               ("compare", "run both schemes; energy traces and cpu table")):
        # flags left out keep RunConfig's defaults; each dest is a RunConfig field
        p = sub.add_parser(command, help=help_text, argument_default=argparse.SUPPRESS)
        p.add_argument("--problem", required=True)
        p.add_argument("--n", type=_parse_n, required=True, help="nodes per axis: n1 or n1,n2")
        p.add_argument("--tau", type=float, required=True)
        p.add_argument("--T", type=float, required=True)
        p.add_argument("--out", dest="out_dir", metavar="OUT")
        p.add_argument("--record-every", type=int)
        p.add_argument("--cg-tol", type=float)
        p.add_argument("--fp-max", type=int)
        if command != "compare":
            p.add_argument("--scheme", choices=SCHEMES)
        if command == "converge":
            p.add_argument("--levels", type=int, required=True)
        if command == "run":
            p.add_argument("--snap", dest="snap_times", type=_parse_snaps, metavar="SNAP",
                           help="comma-separated snapshot times")
            p.add_argument("--display", action="store_true",
                           help="emit snapshots as the paper draws them: the problem's "
                                "display transform, then its mirror")

    try:
        args = vars(parser.parse_args(argv))
        command, levels = args.pop("command"), args.pop("levels", None)
        args["n1"], args["n2"] = args.pop("n")
        cfg = RunConfig(**args)
        if command == "run":
            return cmd_run(cfg)
        if command == "converge":
            return cmd_converge(cfg, levels)
        return cmd_compare(cfg)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
