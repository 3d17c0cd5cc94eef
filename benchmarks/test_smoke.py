"""Smoke test of the benchmark: every workload at tiny sizes, output schema.

Timing never gates here; this only checks that each workload runs, that its
checks pass, and that the last stdout line carries exactly the metrics
BENCHMARK.json names.
"""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCH = json.load(_fh)
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def run_bench(workload, trace, root=ROOT):
    cmd = [sys.executable, os.path.join(root, "benchmarks", "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "0.5", "--trace", str(trace), "--scale", "tiny"]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=300)


def check_result(proc, metric_specs):
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert type(result["attempted"]) is int and result["attempted"] >= 1
    assert type(result["failed"]) is int and result["failed"] == 0, proc.stdout
    assert result["correct"] is True
    assert set(result["metrics"]) == {m["name"] for m in metric_specs}
    for spec in metric_specs:
        got = result["metrics"][spec["name"]]
        assert set(got) == {"value", "unit"}
        assert got["unit"] == spec["unit"]
        assert isinstance(got["value"], (int, float)) and not isinstance(got["value"], bool)
    return result


def test_contract_shape():
    assert set(BENCH) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                          "per_layer"}
    assert 2 <= len(WORKLOADS) <= 8 and 1 <= BENCH["run_seconds"] <= 60
    names = WORKLOADS + [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME_RE.match(n) for n in names)
    for m in BENCH["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    for m in BENCH["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in BENCH["end_to_end"] + BENCH["per_layer"]:
        assert UNIT_RE.match(m["unit"]) and m["better"] in ("higher", "lower")
    setup = [m for m in BENCH["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in BENCH["end_to_end"])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in BENCH["workloads"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_end_to_end(workload):
    check_result(run_bench(workload, 0), BENCH["end_to_end"])


def test_traced_run_reports_every_layer_metric():
    proc = run_bench(WORKLOADS[-1], 1)
    result = check_result(proc, BENCH["per_layer"])
    m = {k: v["value"] for k, v in result["metrics"].items()}
    # self times of all spans of a pass add up to the pass's wall time
    assert abs(m["trace.self_sum_ms"] - m["trace.wall_ms"]) <= 1e-6 * m["trace.wall_ms"]
    assert 0 < m["trace.module_self_ms"] < m["trace.wall_ms"]
    assert m["dvm.ops.n1024.b64"] == 64 * m["dvm.ops.n1024.b1"]
    spans = os.path.join(ROOT, ".bench_out", f"spans-{WORKLOADS[-1]}-seed7.jsonl")
    with open(spans, encoding="utf-8") as fh:
        lines = [json.loads(line) for line in fh]
    assert {line["pass"] for line in lines if "pass" in line} == set(WORKLOADS)


def test_fails_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(WORKLOADS[0], 0, root=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
