"""Verdict on one traced ``perfbench/run.py`` smoke run, read from standard input.

Usage (from the repository root):

    python3 perfbench/run.py --workload ring-paper --seed 1 --seconds 1 --trace 1 \\
        | python3 .github/smoke_verdict.py ring-paper

The runner exits 0 even when its checks fail, so this script reads its last
two lines (the report and the result, one JSON object each).  It exits 1
unless the run was correct, every traced public name was present, and every
pin of the workload below holds; each failure is printed with its reason.
"""

from __future__ import annotations

import json
import operator
import sys

# Per workload: (metric, comparison, bound, why the pin holds).  The traced
# counts are deterministic; the bounds are the counts of the current code.
PINS = {
    "ring-paper": (
        ("linear_solver.cg_iters_max", "<=", 4,
         "at tau/h 0.07 the solves stay on Jacobi, which takes at most 4 iterations here"),
        ("linear_solver.diagonal_ms", ">", 0, "the Jacobi path must build its diagonal"),
        ("schemes.fp_sweeps_per_step", "<=", 2.16,
         "ep-fds takes 2.16 fixed-point sweeps per step from its O(tau^4) start: "
         "a quotient, a start or a sweep goal that slows the fixed point shows here"),
        ("linear_solver.matvecs", "<=", 1036,
         "the Jacobi path's count with ep-fds' inexact early sweeps and li-leps' "
         "zero starts, which take no matvec: no direct solve reaches it"),
        ("operators.laplacian_calls", "==", 300,
         "100 li-leps steps take one Laplacian each, 100 ep-fds steps two "
         "(its b0 and its start's Lap v)"),
    ),
    "ring-large-step": (
        ("linear_solver.cg_iters_max", "<=", 8,
         "at tau/h 1.43 the solves go spectral: at most 8 iterations, against 28 with Jacobi"),
        ("linear_solver.diagonal_ms", "==", 0, "the spectral path must build no Jacobi diagonal"),
        ("schemes.fp_sweeps_per_step", "<=", 5,
         "ep-fds takes at most 5 fixed-point sweeps per step (5.0)"),
        ("linear_solver.matvecs", "<=", 150,
         "each ep-fds sweep is a direct FFT solve with one matvec, its true-residual check, "
         "and li-leps' solves start from zero with none (250 when a sweep took three)"),
        ("operators.laplacian_calls", "==", 40,
         "20 li-leps steps take one Laplacian each, 10 ep-fds steps two "
         "(its b0 and its start's Lap v)"),
    ),
    "paper-tables": (
        ("diagnostics.error_ms", ">", 0, "the error evaluation must have been traced"),
        ("problems.bc_calls", "==", 1403,
         "the Dirichlet edge data is evaluated once per level"),
        ("operators.laplacian_calls", "==", 5900,
         "a li-leps step takes one Laplacian, an ep-fds step two (its b0 and its start's Lap v)"),
        ("linear_solver.matvecs", "<=", 10636,
         "the count of the 1D and Dirichlet solve paths with ep-fds' inexact early sweeps, "
         "li-leps' zero starts and no lifting matvec"),
    ),
}

_COMPARE = {"<=": operator.le, "==": operator.eq, ">": operator.gt}


def failures(workload: str, text: str) -> list[str]:
    """The failed checks of one run's standard output; empty when it passes."""
    *_, report, result = text.splitlines()
    report, result = json.loads(report), json.loads(result)
    found = []
    absent, failed = report["absent_targets"], report["failed_checks"]
    if result["correct"] is not True or absent != []:
        found.append(f"absent_targets {absent}, failed_checks {failed}")
    for name, op, bound, why in PINS[workload]:
        value = result["metrics"][name]["value"]
        if not _COMPARE[op](value, bound):
            found.append(f"{name} {value}, expected {op} {bound}: {why}")
    return found


def main(argv: list[str]) -> int:
    if len(argv) != 1 or argv[0] not in PINS:
        print(f"usage: smoke_verdict.py {{{','.join(PINS)}}} < runner-output", file=sys.stderr)
        return 2
    found = failures(argv[0], sys.stdin.read())
    for message in found:
        print(f"{argv[0]} smoke run failed: {message}", file=sys.stderr)
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
