"""Self-test of the benchmark: a tiny-size pass of every workload.

    python3 -m pytest -q bench/test_bench.py

Runs bench/run.py the way it is driven (a fresh process per run) and
checks that every metric named in BENCHMARK.json is reported with its
unit, that no op fails, that the exact counters repeat, that a fixed
seed yields a fixed op list, and that the benchmark refuses to run
without the source tree.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(workload: str, trace: int, seed: int = 1, script: Path = BENCH / "run.py"):
    proc = subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", str(seed),
         "--seconds", "0.5", "--trace", str(trace), "--scale", "tiny"],
        capture_output=True, text=True, timeout=600,
    )
    return proc


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stdout
    assert result["attempted"] >= 1
    assert "fail_ratio = 0 (" in proc.stdout
    return result


def test_benchmark_json_matches_the_code():
    names = [w["name"] for w in SPEC["workloads"]]
    assert set(names) <= set(workloads.WORKLOADS)
    layers = {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]}
    assert layers == tracing.LAYER_METRICS


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_end_to_end_metrics(workload):
    result = result_of(run_bench(workload, 0))
    assert result["attempted"] >= 100
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    got = {k: m["unit"] for k, m in result["metrics"].items()}
    assert got == want
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_layer_metrics_and_exact_counters(workload):
    first = result_of(run_bench(workload, 1))["metrics"]
    second = result_of(run_bench(workload, 1))["metrics"]
    assert {k: m["unit"] for k, m in first.items()} == {
        k: unit for k, (unit, _) in tracing.LAYER_METRICS.items()
    }
    for name in tracing.COUNTERS:
        assert isinstance(first[name]["value"], int)
        assert first[name]["value"] == second[name]["value"], name


def test_op_list_is_fixed_by_the_seed():
    pins = json.loads((BENCH / "pinned.json").read_text(encoding="utf-8"))
    for workload in workloads.WORKLOADS:
        for scale in workloads.SCALES:
            digest = workloads.op_list_sha256(workloads.generate(workload, pins["seed"], scale))
            assert digest == workloads.op_list_sha256(
                workloads.generate(workload, pins["seed"], scale))
            assert digest == pins["workloads"][workload][scale]["op_list_sha256"]
            other = workloads.op_list_sha256(workloads.generate(workload, pins["seed"] + 1, scale))
            assert other != digest


def test_refuses_to_run_without_the_source_tree():
    bare = BENCH / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc = run_bench("orient-scan", 0, script=bare / "bench" / "run.py")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_shape_values_are_checked_at_every_seed():
    import run

    for workload in ("orient-scan", "orient-scan-jobs2", "exact-search"):
        for scale in workloads.SCALES:
            _, shapes = run.load_pins(workload, 2, scale)
            ops = workloads.generate(workload, 2, scale)
            assert {op.spec["shape"] for op in ops if "shape" in op.spec} <= set(shapes)
    ops = workloads.generate("exact-search", 2, "tiny")
    _, shapes = run.load_pins("exact-search", 2, "tiny")
    gate = run.Gate(ops, None, shapes)
    pinned = shapes[ops[0].spec["shape"]]
    gate.results[0] = {**pinned, "gamma": pinned["gamma"] + 1}
    gate.verify(None)
    assert "differs from the pinned" in gate.op_failure[0]
