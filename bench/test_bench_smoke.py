"""Smoke test: every benchmark workload, untraced and traced, at tiny sizes."""

import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def test_smoke_runs_every_workload_and_passes_its_checks():
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--smoke"],
        cwd=BENCH.parent,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    results = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]
    assert results[-1] == {"smoke": "pass"}
    runs = results[:-1]
    assert len(runs) == 2 * len(SPEC["workloads"])
    expected = [{m["name"] for m in SPEC["end_to_end"]}, {m["name"] for m in SPEC["per_layer"]}]
    for k, result in enumerate(runs):
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert set(result["metrics"]) == expected[k % 2]


def test_workload_reasons_match_benchmark_json(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH.parent / "src"))
    monkeypatch.syspath_prepend(str(BENCH))
    from workloads import WORKLOADS

    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == {
        name: cls.why for name, cls in WORKLOADS.items()
    }
