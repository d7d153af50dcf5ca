"""BENCHMARK.json names exactly the workloads and metrics run.py reports."""

import json
from pathlib import Path

from run import E2E_UNITS
from tracing import TARGETS, summarize
from workloads import BENCHMARKED, WORKLOADS

SPEC = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


def test_workloads_match():
    assert [(w["name"], w["why"]) for w in SPEC["workloads"]] == [
        (name, WORKLOADS[name].why) for name in BENCHMARKED]


def test_end_to_end_metrics_match():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == E2E_UNITS


def test_per_layer_metrics_match():
    layers, _ = summarize([], {name for *_, name, _ in TARGETS})
    reported = {name: unit for name, (_, unit) in layers.items()}
    reported["trace_overhead_frac"] = "ratio"
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == reported
