"""Committed benchmark records: every `BENCH_*.json` at the repository root
parses and names only workloads and metrics that `BENCHMARK.json` lists.

A record holds `runs`, each one workload measured at one seed with
`perfbench/run.py`: `trace` 0 runs report end-to-end metrics, `trace` 1 runs
per-layer ones.  Each metric gives the per-run values of the parent and the
change, one per pair and in pair order, and their medians.
"""

from __future__ import annotations

import json
import math
import statistics
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _numeric(value) -> bool:
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value))


def _check_run(run: dict, workloads: set, metrics: dict) -> None:
    assert run["workload"] in workloads, run["workload"]
    assert run["trace"] in (0, 1)
    assert run["pairs"] >= 1
    assert run["metrics"]
    for name, entry in run["metrics"].items():
        where = f"{run['workload']} {name}"
        assert name in metrics[run["trace"]], where
        for side in ("parent", "change"):
            values = entry[side]
            assert len(values) == run["pairs"], where
            assert all(_numeric(v) for v in values), where
            assert math.isclose(entry[f"{side}_median"], statistics.median(values),
                                rel_tol=1e-9, abs_tol=1e-12), where


def test_bench_records_name_declared_workloads_and_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = {w["name"] for w in spec["workloads"]}
    metrics = {0: {m["name"] for m in spec["end_to_end"]},
               1: {m["name"] for m in spec["per_layer"]}}
    records = sorted(ROOT.glob("BENCH_*.json"))
    assert records
    for path in records:
        record = json.loads(path.read_text())
        assert record["runs"], path.name
        for run in record["runs"]:
            _check_run(run, workloads, metrics)
