"""Smoke tests of the benchmark: runner, output checks and tracer at toy sizes.

    python -m pytest benchmarks/test_bench.py -q
"""

import json
import shutil
import subprocess
import sys

import pytest

import bench
import tracer
from workloads import REL_TOL, SMOKE, WORKLOADS, compare_with_reference

SPEC = json.loads((bench.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(capsys, *args):
    code = bench.main(["--scale", "smoke", "--seed", "5", "--seconds", "0.5", *args])
    lines = capsys.readouterr().out.strip().splitlines()
    return code, json.loads(lines[-1]), lines


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_untraced_run_reports_every_end_to_end_metric(capsys, workload):
    code, result, lines = run_bench(capsys, "--workload", workload, "--trace", "0")
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert any(line.startswith("fingerprint ") for line in lines)
    assert any("error_rate" in line for line in lines)


@pytest.mark.parametrize(
    "workload, busy, idle",
    [
        ("design-paper", ["sgd_designer", "scf_objective", "array_model"], ["crb_eval"]),
        ("crb-maps", ["crb_eval", "array_model", "fileio", "harness"], ["sgd_designer"]),
        ("sweep-mixed", ["sgd_designer", "scf_objective", "harness", "fileio"], ["crb_eval"]),
    ],
)
def test_traced_run_reports_layers(capsys, workload, busy, idle):
    code, result, _ = run_bench(capsys, "--workload", workload, "--trace", "1")
    assert code == 0 and result["correct"], result
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert list(metrics) == [m["name"] for m in SPEC["per_layer"]]
    for layer in busy:
        assert metrics[f"{layer}.calls"] > 0 and metrics[f"{layer}.self_s"] > 0
    for layer in idle:
        assert metrics[f"{layer}.calls"] == 0
    assert metrics["cli.calls"] >= 1 and metrics["trace.spans"] > 0
    assert metrics["trace.estimated_overhead_s"] > 0
    if workload == "crb-maps":
        cells = sum(metrics[f"crb_eval.cells_{s}"] for s in ("ok", "absent", "rank_deficient", "unidentifiable"))
        assert cells == WORKLOADS[workload].work_units(SMOKE)
    workdir = bench.WORK_ROOT / f"{workload}-smoke"
    assert len((workdir / "spans.jsonl").read_text(encoding="utf-8").splitlines()) == metrics["trace.spans"] + 1
    summary = json.loads((workdir / "trace_summary.json").read_text(encoding="utf-8"))
    # Re-exports and cross-module imports are wrapped too, not only definitions.
    assert summary["bindings_wrapped"] > len([f for f in summary["functions"] if f.count(".") == 1])


def test_failed_traced_invocation_is_reported_not_raised(capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(bench, "TRACER", tmp_path / "missing.py")
    code, result, _ = run_bench(capsys, "--workload", "design-paper", "--trace", "1")
    assert code == 0
    assert not result["correct"] and result["failed"] == 1 and result["attempted"] == 2


def test_self_time_subtracts_union_of_parallel_children():
    spans = [
        (0, "harness._run_jobs", -1, 0, 100, 1),
        (1, "harness.job", 0, 10, 60, 2),
        (2, "harness.job", 0, 20, 70, 3),
        (3, "scf_objective.grid_scf_error", 1, 10, 50, 2),
    ]
    summary = tracer.summarize(spans)
    assert summary["functions"]["harness._run_jobs"]["self_s"] == pytest.approx(40e-9)
    assert summary["functions"]["harness.job"]["self_s"] == pytest.approx(60e-9)
    assert summary["layers"]["harness"]["calls"] == 3
    assert summary["layers"]["scf_objective"]["self_s"] == pytest.approx(40e-9)


def test_reference_comparison_flags_drift_and_missing_values():
    reference = {"cost": 1.0, "count": 3}
    assert compare_with_reference({"cost": 1.0 + REL_TOL / 2, "count": 3}, reference) == []
    assert len(compare_with_reference({"cost": 1.0 + 10 * REL_TOL, "count": 3}, reference)) == 1
    assert len(compare_with_reference({"cost": 1.0, "count": 4}, reference)) == 1
    assert len(compare_with_reference({"cost": 1.0}, reference)) == 1
    assert compare_with_reference({}, None)


def test_verify_catches_a_wrong_recorded_cost(tmp_path):
    workload = WORKLOADS["design-paper"]
    proc = bench.run_process(bench.cli_command(workload.argv(SMOKE, 2)), tmp_path, 60.0)
    assert proc.returncode == 0
    assert workload.verify(SMOKE, 2, tmp_path) == []
    trace_path = tmp_path / "out" / "trace.json"
    trace = json.loads(trace_path.read_text(encoding="utf-8"))
    trace["costs"][0][1] *= 1.0 + 1e-6
    trace_path.write_text(json.dumps(trace), encoding="utf-8")
    assert len(workload.verify(SMOKE, 2, tmp_path)) == 1


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(bench.BENCH_DIR, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/bench.py", "--workload", "crb-maps", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
