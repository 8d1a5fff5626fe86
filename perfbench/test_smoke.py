"""Smoke test for the benchmark itself: every workload at tiny size.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
QUALITY = ("error_share", "oracle_miss_share", "pred_err_max", "agreement_share")
ORACLE_ON = ("corpus_analyze", "hopf_approach")


def _run(workload, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
           "--seconds", "0", "--trace", str(trace), "--tiny"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    printed = {}
    for line in lines:
        if line.startswith("metric "):
            _, name, rest = line.split(" ", 2)
            printed[name] = rest
    return lines, printed, json.loads(lines[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_end_to_end_metrics_print_with_units(workload):
    lines, printed, result = _run(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for metric in SPEC["end_to_end"]:
        entry = result["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"]
        assert entry["value"] > 0
        assert printed[metric["name"]].split()[1] == metric["unit"]
    assert printed["latency_tail_s"].split()[1] == "s"  # printed, not bounded
    for name in QUALITY:
        applies = name == "error_share" or workload in ORACLE_ON
        assert (printed[name] == "n/a") != applies, (name, printed[name])
        if applies:
            assert printed[name].split()[1] == "ratio"
    record = json.loads(lines[-2][len("record "):])
    assert record["seed"] == 7 and record["env"]["nproc"] >= 1
    assert record["env"]["POLYCYCLE_THREADS"] is None


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_traced_run_reports_layers_and_self_times_add_up(workload):
    _, printed, result = _run(workload, 1)
    assert result["correct"] is True
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for metric in SPEC["per_layer"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert printed[metric["name"]].split()[1] == metric["unit"]

    spans = json.loads((ROOT / "perfbench" / "out" / f"trace_{workload}_7.json").read_text())["spans"]
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            assert spans[s["parent"]]["analysis"] == s["analysis"]
            own[s["parent"]] -= s["end"] - s["start"]
    roots = [i for i, s in enumerate(spans) if s["parent"] is None]
    assert roots and all(spans[i]["name"] == "pipeline.run_analyze" for i in roots)
    for i in roots:
        total = sum(t for s, t in zip(spans, own) if s["analysis"] == spans[i]["analysis"])
        assert math.isclose(total, spans[i]["end"] - spans[i]["start"], rel_tol=1e-9, abs_tol=1e-12)
    root_self = sum(own[i] for i in roots) / len(roots)
    assert math.isclose(result["metrics"]["pipeline.self_s"]["value"], root_self, rel_tol=1e-9)
