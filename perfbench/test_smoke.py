"""Smoke test of the benchmark at tiny sizes.

Run from the root of the checkout:  python3 -m pytest perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--seed", "3", "--seconds", "0.5", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    return proc


def result(proc):
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    return last


def test_spec_matches_the_benchmark():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in SPEC["per_layer"]] == list(tracer.PER_LAYER_METRICS)
    for w in SPEC["workloads"]:
        assert w["why"] == workloads.WHY[w["name"]]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_end_to_end_metric_is_printed(workload):
    proc = bench("--workload", workload, "--trace", "0", "--tiny")
    last = result(proc)
    assert last["correct"] and last["attempted"] >= 1 and last["failed"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in last["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in last["metrics"].values())
    for name, unit in expected.items():
        assert any(line.split()[:1] == [name] and f" {unit}" in line
                   for line in proc.stdout.splitlines()), name
    assert "failed_ratio" in proc.stdout


@pytest.mark.parametrize("workload", ["dense_solve", "tree_cold"])
def test_traced_run_prints_every_per_layer_metric(workload):
    proc = bench("--workload", workload, "--trace", "1", "--tiny")
    last = result(proc)
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in last["metrics"].items()} == expected
    assert "tracing overhead:" in proc.stdout
    values = {k: v["value"] for k, v in last["metrics"].items()}
    assert values["linearize.solve.calls"] > 0
    if workload == "tree_cold":
        assert values["trees.enumerate_labeled.calls"] > 0
    else:
        assert values["linearize.fixed_point_inversion.calls"] > 0


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_corrupted_h_is_counted_as_failed(workload):
    last = result(bench("--workload", workload, "--trace", "0", "--tiny",
                        "--fault", "corrupt-h"))
    assert last["failed"] == last["attempted"]
    assert last["correct"] is False


def test_forced_no_contraction_is_counted_as_failed():
    proc = bench("--workload", "dense_solve", "--trace", "0", "--tiny",
                 "--fault", "no-contraction")
    last = result(proc)
    fixed_point_ops = proc.stdout.count("fixedpoint): domain error (NoContraction)")
    assert fixed_point_ops >= 2
    assert last["failed"] == fixed_point_ops == last["attempted"] // 2
    assert last["correct"] is True


def test_fails_without_treelin_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "dense_solve",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_host_correction_scales_times_and_rates():
    import run

    class FakeRunner:
        probes = {"compute": [0.16, 0.16, 0.16], "import": [0.2]}
        slowdown = run.Runner.slowdown

    records = [{"elapsed": t, "ok": True, "probe": i} for i, t in enumerate((1.0, 2.0, 3.0))]
    metrics, measured, extra = run.end_to_end(records, [0.4], 50.0, FakeRunner())
    assert extra["host_slowdown"]["compute"] == pytest.approx(0.16 / run.NOMINAL_PROBE_S["compute"])
    scale = run.NOMINAL_PROBE_S["compute"] / 0.16
    assert metrics["solve_s.p50"] == pytest.approx(2.0 * scale)
    assert metrics["solves_per_s"] == pytest.approx(measured["solves_per_s"] / scale)
    assert metrics["setup_s"] == pytest.approx(0.4 * run.NOMINAL_PROBE_S["import"] / 0.2)
    assert metrics["peak_rss_mb"] == measured["peak_rss_mb"] == 50.0
