"""Benchmark runner for the sine-Gordon solvers.

Usage (from the repository root):

    python3 perfbench/run.py --workload ring-paper --seed 1 --seconds 42 --trace 0

Repeats the workload, one fresh single-threaded worker process per execution,
for ``--seconds`` (at least three executions), checks every
output, and prints each metric with its unit.  ``--trace 0`` reports the
end-to-end metrics over the executions: timings from the best execution,
set-up time and memory as medians.  ``--trace 1`` alternates
untraced and traced executions and reports the per-layer metrics of the traced
ones plus the tracing overhead.  The last line of standard output is the
result as one JSON object; a fuller report goes to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"

from tracing import EXACT_COUNTS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

THREAD_ENV = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}
MIN_EXECUTIONS = 3
MAX_DIED = 3
DEADLINE_S = 170.0
# Estimated live float64 fields of one li-leps step (state, iterates, CG vectors).
LIVE_FIELDS = 15

NOTES = (
    "All workloads are fixed deterministic paper configurations: the seed selects no input.",
    "Each execution is one single-threaded process with BLAS/OpenMP pools pinned to 1 "
    "thread; it has no queues, so no waiting time is measured.",
    "Laplacian bandwidth is computed bytes (16 B per node) over self time, not measured "
    "traffic; the measured host's 300 MiB L3 rules out a DRAM-bound run, so no roofline "
    "ratio is given.",
    "Working-set bytes are computed as live fields x nodes x 8 B.",
)


def run_worker(workload: str, out: Path, traced: bool, timeout: float) -> dict | None:
    """One execution; ``None`` if the worker died without a result."""
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    env = {**os.environ, **THREAD_ENV}
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), workload, str(out), str(int(traced))],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"worker timed out after {timeout:.0f} s", file=sys.stderr)
        return None
    if proc.returncode == 3:
        sys.stderr.write(proc.stderr)
        raise SystemExit("cannot import the package under test; no result")
    if proc.returncode != 0 or not (out / "result.json").exists():
        sys.stderr.write(proc.stderr[-4000:])
        return None
    with open(out / "result.json") as fh:
        return json.load(fh)


# Other tenants' load only ever slows an execution, and it comes in phases of
# seconds, so each timing is the run's best execution (as timeit reports);
# set-up time and memory are medians over the executions.
BEST_OF = {"wall_s": min, "step_ms_p50": min,
           "li_leps_node_steps_per_s": max, "ep_fds_node_steps_per_s": max}

E2E_UNITS = {
    "setup_s": "s", "wall_s": "s", "li_leps_node_steps_per_s": "node-steps/s",
    "ep_fds_node_steps_per_s": "node-steps/s", "step_ms_p50": "ms", "peak_rss_mb": "MB",
}


def end_to_end(result: dict) -> dict[str, float]:
    """End-to-end metrics of one execution."""
    metrics = {"setup_s": result["setup_s"], "wall_s": result["wall_s"],
               "peak_rss_mb": result["peak_rss_mb"]}
    steps = [s for r in result["runs"] for s in r["step_s"]]
    if steps:
        metrics["step_ms_p50"] = 1e3 * statistics.median(steps)
    # Throughput in steady state: each run's steps count at that run's median
    # step time, so one-off stalls (first-touch page faults, collector pauses)
    # are left to wall_s.
    for scheme in ("li-leps", "ep-fds"):
        runs = [r for r in result["runs"] if r["scheme"] == scheme and r["step_s"]]
        if runs:
            node_steps = sum(r["nodes"] * len(r["step_s"]) for r in runs)
            seconds = sum(len(r["step_s"]) * statistics.median(r["step_s"]) for r in runs)
            metrics[f"{scheme.replace('-', '_')}_node_steps_per_s"] = node_steps / seconds
    return {k: v for k, v in metrics.items() if v is not None}


def machine_notes(first: dict) -> dict:
    def read(path: str) -> str | None:
        try:
            return Path(path).read_text().strip()
        except OSError:
            return None

    cpuinfo = read("/proc/cpuinfo") or ""
    model = next((line.split(":", 1)[1].strip() for line in cpuinfo.splitlines()
                  if line.startswith("model name")), None)
    cache = "/sys/devices/system/cpu/cpu0/cache/index{}/size"
    return {
        "nproc": len(os.sched_getaffinity(0)), "cpu_model": model,
        "l2_per_core": read(cache.format(2)), "l3": read(cache.format(3)),
        "python": sys.version.split()[0], **first.get("numpy", {}),
        "thread_env": THREAD_ENV,
    }


def workload_table(result: dict, l2_bytes: int | None) -> list[dict]:
    """Per run: tau/h, nodes, steps, CG iterations per step, working set vs L2."""
    rows = []
    for r in result["runs"]:
        steps = len(r["step_s"]) or 1
        ws = LIVE_FIELDS * 8 * r["nodes"]
        rows.append({
            "scheme": r["scheme"], "nodes": r["nodes"], "tau_over_h": r["tau_over_h"],
            "steps": r["planned_steps"], "cg_iters_per_step": r.get("cg_iterations", 0) / steps,
            "fp_sweeps_per_step": r.get("fp_sweeps", 0) / steps,
            "working_set_bytes": ws,
            "working_set_over_l2": ws / l2_bytes if l2_bytes else None,
        })
    return rows


def parse_size(text: str | None) -> int | None:
    if not text:
        return None
    units = {"K": 1024, "M": 1024**2, "G": 1024**3}
    return int(text[:-1]) * units[text[-1]] if text[-1] in units else int(text)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "sinegordon" / "__init__.py").is_file():
        print(f"no package under test at {ROOT / 'src' / 'sinegordon'}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    out_root = OUT / workload.name
    start = time.perf_counter()

    untraced: list[dict] = []
    traced: list[dict] = []
    died = 0
    plan = (False, True) if args.trace else (False,)
    rounds: list[float] = []  # seconds per pass through ``plan``
    while True:
        elapsed = time.perf_counter() - start
        done = min(len(untraced), len(traced)) if args.trace else len(untraced)
        # Stop before a round that would end past --seconds.
        if (done >= (2 if args.trace else MIN_EXECUTIONS)
                and elapsed + statistics.mean(rounds) > args.seconds):
            break
        if elapsed > DEADLINE_S - 20 or died >= MAX_DIED:
            break
        round_start = time.perf_counter()
        for trace in plan:
            out = out_root / ("traced" if trace else "untraced")
            remaining = DEADLINE_S - (time.perf_counter() - start)
            result = run_worker(workload.name, out, trace, timeout=max(5.0, remaining))
            if result is None:
                died += 1
            else:
                (traced if trace else untraced).append(result)
        rounds.append(time.perf_counter() - round_start)
    executions = untraced + traced
    if not untraced or (args.trace and not traced):
        print("no execution produced a result", file=sys.stderr)
        return 1

    checks = [c for r in executions for c in r["checks"]]
    attempted = workload.steps * (len(executions) + died)
    failed = workload.steps * died + sum(r["failed_steps"] for r in executions)

    if args.trace:
        layers = [r["layers"] for r in traced]
        per_execution = {"untraced_wall_s": [r["wall_s"] for r in untraced],
                         "traced_wall_s": [r["wall_s"] for r in traced]}
        metrics = {}
        for key, (_, unit) in layers[0].items():
            metrics[key] = {"value": statistics.median(layer[key][0] for layer in layers),
                            "unit": unit}
        counts_repeat = all(layer[k] == layers[0][k] for layer in layers
                            for k in EXACT_COUNTS if k in layers[0])
        checks.append({"name": "exact counts repeat across traced executions",
                       "ok": counts_repeat, "detail": f"{len(layers)} traced executions"})
        reported = [r["reported_counts"] for r in executions if "reported_counts" in r]
        if reported:
            traced_counts = [r["traced_counts"] for r in traced]
            checks.append({"name": "traced counts equal the program's meta.json",
                           "ok": all(t == m for t in traced_counts for m in reported),
                           "detail": f"traced {traced_counts[0]}, reported {reported[0]}"})
        metrics["trace_overhead_frac"] = {
            "value": statistics.median(r["wall_s"] for r in traced)
            / statistics.median(r["wall_s"] for r in untraced) - 1.0,
            "unit": "ratio"}
    else:
        rows = [end_to_end(r) for r in untraced]
        per_execution = rows
        metrics = {}
        for key, unit in E2E_UNITS.items():
            values = [row[key] for row in rows if key in row]
            if values:
                value = BEST_OF.get(key, statistics.median)(values)
                metrics[key] = {"value": value, "unit": unit}

    correct = died == 0 and all(c["ok"] for c in checks)
    machine = machine_notes(executions[0])
    report = {
        "workload": workload.name, "why": workload.why, "seed": args.seed,
        "trace": args.trace, "executions": {"untraced": len(untraced), "traced": len(traced),
                                            "died": died},
        "runs": workload_table(executions[0], parse_size(machine["l2_per_core"])),
        "machine": machine, "notes": NOTES,
        "absent_targets": traced[0]["absent"] if traced else [],
        "failed_checks": [c for c in checks if not c["ok"]][:20],
        "metrics": metrics, "per_execution": per_execution,
    }
    with open(OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(report, fh, indent=2)

    for key, m in metrics.items():
        print(f"{key} = {m['value']:.6g} {m['unit']}")
    print(f"failed_frac = {failed / attempted:.6g} ratio ({failed} of {attempted} steps)")
    print(json.dumps({k: report[k] for k in ("workload", "seed", "runs", "machine", "notes",
                                             "absent_targets", "failed_checks")}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
