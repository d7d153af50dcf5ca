"""Span bookkeeping, refactor tolerance, and exact counts of the traced run."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import sinegordon.linear_solver
import sinegordon.schemes
from tracing import EXACT_COUNTS, TARGETS, Tracer, summarize

WORKER = Path(__file__).resolve().parent.parent / "worker.py"


def test_self_time_is_duration_minus_direct_children():
    spans = [
        ["schemes.step", -1, 0.0, 10.0, None],
        ["linear_solver.solve", 0, 1.0, 7.0, {"iters": 3, "converged": True}],
        ["linear_solver.matvec", 1, 2.0, 4.0, None],
        ["operators.laplacian", 2, 2.5, 3.5, {"nodes": 100}],
        ["operators.laplacian", 0, 8.0, 9.0, {"nodes": 100}],
    ]
    present = {name for name, *_ in spans}
    layers, totals = summarize(spans, present)
    assert layers["schemes.self_ms_per_step"][0] == pytest.approx(1e3 * (10 - 6 - 1))
    assert layers["linear_solver.solve_self_us_per_iter"][0] == pytest.approx(1e6 * 4 / 3)
    assert layers["linear_solver.matvec_self_us"][0] == pytest.approx(1e6 * 1)
    assert layers["operators.laplacian_calls"][0] == 2
    assert layers["operators.laplacian_gbps_computed"][0] == pytest.approx(1e-9 * 3200 / 2)
    assert totals == {"cg_iterations": 3, "fp_sweeps": 0}


def test_missing_public_name_is_reported_absent(monkeypatch):
    monkeypatch.delattr(sinegordon.schemes, "coupling")
    monkeypatch.delattr(sinegordon.linear_solver.SystemOperator, "apply_interior")
    tracer = Tracer()
    tracer.install()
    try:
        assert tracer.absent == ["sinegordon.schemes.coupling",
                                 "sinegordon.linear_solver.SystemOperator.apply_interior"]
        assert "operators.coupling" not in tracer.present
        assert "linear_solver.matvec" in tracer.present  # apply is still there
    finally:
        tracer.uninstall()
    layers, _ = summarize([], tracer.present)
    assert "operators.coupling_ms" not in layers
    assert "linear_solver.matvecs" in layers
    assert set(layers) | {"operators.coupling_ms"} == set(summarize([], {
        name for *_, name, _ in TARGETS})[0])


def test_uninstall_restores_the_originals():
    original = sinegordon.schemes.pcg_solve
    tracer = Tracer()
    tracer.install()
    assert sinegordon.schemes.pcg_solve is not original
    tracer.uninstall()
    assert sinegordon.schemes.pcg_solve is original


def traced_execution(out: Path) -> dict:
    subprocess.run([sys.executable, str(WORKER), "ring-paper", str(out), "1"],
                   check=True, timeout=300)
    return json.loads((out / "result.json").read_text())


def test_exact_counts_repeat_and_match_the_program(tmp_path):
    first = traced_execution(tmp_path / "a")
    second = traced_execution(tmp_path / "b")
    for result in (first, second):
        assert all(c["ok"] for c in result["checks"]), result["checks"]
        assert result["traced_counts"] == result["reported_counts"]
    for key in EXACT_COUNTS:
        assert first["layers"][key] == second["layers"][key], key
    assert first["layers"]["linear_solver.cg_iters_per_solve"][0] > 0
    assert first["layers"]["schemes.fp_sweeps_per_step"][0] > 1
