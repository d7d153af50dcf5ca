"""One execution of one workload, in a fresh single-threaded process.

Usage: python3 perfbench/worker.py WORKLOAD OUT_DIR TRACE(0|1)

Runs every command of the workload through ``sinegordon.harness.main``,
checks the outputs and writes ``OUT_DIR/result.json``.  Time starts before
``import sinegordon``.  Step times come from two recorders injected through
``run()``'s ``recorders`` argument, one first and one last: step k lasts from
the last recorder at k-1 to the first recorder at k.  Exit status 3 means the
package could not be imported.
"""

import time

T0 = time.perf_counter()

import inspect  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

try:
    import sinegordon.harness as harness  # noqa: E402
except ImportError as exc:
    print(f"cannot import sinegordon from {ROOT / 'src'}: {exc}", file=sys.stderr)
    sys.exit(3)
if not Path(harness.__file__).resolve().is_relative_to(ROOT / "src"):
    print(f"sinegordon imported from {harness.__file__}, not from the checkout", file=sys.stderr)
    sys.exit(3)

import numpy  # noqa: E402
from checks import Check, read_meta  # noqa: E402
from tracing import Tracer, summarize  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


class StepClock:
    """Wraps ``run`` to inject the bracketing recorders and collect per-run timings."""

    def __init__(self, run):
        self.signature = inspect.signature(run)
        self.run = run
        self.stepping_start: float | None = None
        self.runs: list[dict] = []

    def __call__(self, *args, **kwargs):
        bound = self.signature.bind(*args, **kwargs)
        bound.apply_defaults()
        first: list[float] = []
        last: list[float] = []
        clock = time.perf_counter

        def open_step(step, state):
            first.append(clock())

        def close_step(step, state):
            last.append(clock())

        bound.arguments["recorders"] = (open_step, *bound.arguments["recorders"], close_step)
        grid, time_grid = bound.arguments["grid"], bound.arguments["time_grid"]
        entry = {"scheme": bound.arguments["scheme"], "nodes": grid.num_nodes,
                 "tau_over_h": time_grid.tau / grid.h1, "planned_steps": time_grid.m,
                 "step_s": []}
        self.runs.append(entry)
        try:
            result = self.run(*bound.args, **bound.kwargs)
        finally:
            if last and self.stepping_start is None:
                self.stepping_start = last[0]
            entry["step_s"] = [b - a for a, b in zip(last, first[1:])]
        entry["cg_iterations"] = result.cg_iterations
        entry["fp_sweeps"] = result.fp_sweeps
        return result


def execute(workload, out: Path, traced: bool) -> dict:
    clock = StepClock(harness.run)
    harness.run = clock
    tracer = Tracer() if traced else None
    if tracer is not None:
        tracer.install()

    wall = 0.0
    statuses = {}
    for cmd in workload.commands:
        cmd_out = out / cmd.name
        shutil.rmtree(cmd_out, ignore_errors=True)
        tic = time.perf_counter()
        try:
            statuses[cmd.name] = harness.main([*cmd.argv, "--out", str(cmd_out)])
        except Exception:  # a crash fails its command; the benchmark goes on
            statuses[cmd.name] = traceback.format_exc(limit=3)
        wall += time.perf_counter() - tic
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()

    failed_steps = 0
    checks: list[Check] = []
    for cmd in workload.commands:
        status = statuses[cmd.name]
        cmd_checks = [Check(f"{cmd.name} exit status", status == 0, str(status))]
        try:
            cmd_checks += cmd.check(out / cmd.name)
        except (OSError, KeyError, ValueError, IndexError, ZeroDivisionError) as exc:
            cmd_checks.append(Check(f"{cmd.name} outputs", False,
                                    f"{type(exc).__name__}: {exc}"))
        if not all(c.ok for c in cmd_checks):
            failed_steps += cmd.steps
        checks.extend(cmd_checks)

    result = {
        "setup_s": clock.stepping_start - T0 if clock.stepping_start else None,
        "wall_s": wall,
        "peak_rss_mb": peak_rss_mb,
        "attempted_steps": workload.steps,
        "failed_steps": failed_steps,
        "runs": clock.runs,
        "checks": [c._asdict() for c in checks],
    }
    reported = _reported_counts(workload, out)
    if reported is not None:
        result["reported_counts"] = reported
    if tracer is not None:
        result["layers"], result["traced_counts"] = summarize(tracer.spans, tracer.present)
        result["absent"] = tracer.absent
        _write_spans(out / "spans.csv", tracer.spans)
    return result


def _reported_counts(workload, out: Path) -> dict | None:
    """Total CG iterations and fixed-point sweeps the program reports in its
    ``meta.json`` files, or ``None`` when a command does not report them."""
    totals = {"cg_iterations": 0, "fp_sweeps": 0}
    for cmd in workload.commands:
        try:
            meta = read_meta(out / cmd.name / "meta.json")
        except (OSError, ValueError):
            return None
        for solver in meta.get("solver", {"": meta}).values():
            if "cg_iterations" not in solver:
                return None
            totals["cg_iterations"] += solver["cg_iterations"]
            totals["fp_sweeps"] += solver["fp_sweeps"]
    return totals


def _write_spans(path: Path, spans: list[list]) -> None:
    with open(path, "w") as fh:
        fh.write("id,parent,name,start_us,duration_us\n")
        if not spans:
            return
        origin = spans[0][2]
        for i, (name, parent, start, end, _) in enumerate(spans):
            fh.write(f"{i},{parent},{name},{1e6 * (start - origin):.1f},"
                     f"{1e6 * (end - start):.1f}\n")


def main(argv: list[str]) -> int:
    name, out, trace = argv
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    result = execute(WORKLOADS[name], out, trace == "1")
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    result["numpy"] = {"numpy": numpy.__version__,
                       "blas": f"{blas.get('name')} {blas.get('version')}"}
    with open(out / "result.json", "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
