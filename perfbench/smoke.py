"""Smoke test of the benchmark itself, at a tiny horizon.

    python3 -m pytest perfbench/smoke.py

Checks, for every workload in BENCHMARK.json:
  - an untraced run prints every end-to-end metric, each with its unit,
    and its outputs pass the correctness check;
  - two traced runs (different seeds) print every per-layer metric with
    its unit, and their counts repeat exactly;
  - every child span written by a traced run lies inside its parent.
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(BENCH))
from tracing import nesting_violations  # noqa: E402


def _bench(workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= 1
    return result


def _assert_metrics(result: dict, spec: list):
    printed = result["metrics"]
    assert set(printed) == {m["name"] for m in spec}
    for m in spec:
        value = printed[m["name"]]
        assert value["unit"] == m["unit"], m["name"]
        assert isinstance(value["value"], (int, float)), m["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_prints_every_end_to_end_metric(workload):
    result = _bench(workload, seed=1, trace=0)
    _assert_metrics(result, SPEC["end_to_end"])
    assert result["metrics"]["ok_ratio"]["value"] == 1.0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_and_spans_nest(workload):
    runs = []
    for seed in (1, 2):
        result = _bench(workload, seed=seed, trace=1)
        _assert_metrics(result, SPEC["per_layer"])
        spans = np.load(BENCH / ".work" / workload / "trace_spans.npz")
        assert len(spans["name"]) == result["metrics"]["trace.spans"]["value"]
        assert nesting_violations(spans["parent"], spans["start"], spans["end"]) == 0
        assert (spans["end"] >= spans["start"]).all()
        runs.append(result["metrics"])
    counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"]
    assert "schedules.step_size_calls" in counts
    for name in counts:
        assert runs[0][name]["value"] == runs[1][name]["value"], name
