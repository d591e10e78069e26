"""The benchmark's own plumbing: metric lists and span summaries."""

import json
from pathlib import Path

import pytest

import run
import tracing

SPEC = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


def test_benchmark_json_lists_the_metrics_run_reports():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER


def test_summarize_self_and_inclusive_time():
    spans = [
        ["a", 0.0, 10.0, -1],
        ["b", 1.0, 4.0, 0],
        ["a", 2.0, 3.0, 1],  # a inside b inside a: counted once inclusively
        ["c", 5.0, 6.0, 0],
    ]
    s = tracing.summarize(spans)
    assert s["a"] == {"calls": 2, "cpu_s": 10.0, "self_s": pytest.approx(6.0 + 1.0)}
    assert s["b"] == {"calls": 1, "cpu_s": 3.0, "self_s": 2.0}
    assert s["c"]["self_s"] == 1.0
