"""The benchmark's exact counters and checks (never its timings).

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

PASSES_PER_GRAD = {
    "xor_mlp_seeded": 17,
    "wide_grad_seeded": 129,
    "line2d_ones_cli": 1,
    "line2d_backprop_batch": 1,
}


@pytest.mark.parametrize("name", PASSES_PER_GRAD)
def test_untraced_run_counts_and_checks(name, tmp_path):
    wl = WORKLOADS[name](3, tmp_path)
    result = run.run_untraced(wl, 0.0, lambda: 1.0)
    assert result["info"]["units"] == 1
    assert result["attempted"] == wl.grads_per_unit
    assert result["failed"] == 0 and result["correct"]
    assert set(result["metrics"]) == set(run.END_TO_END_UNITS)
    assert all(v > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("name", PASSES_PER_GRAD)
def test_traced_run_counts_passes_and_replays_exactly(name, tmp_path):
    wl = WORKLOADS[name](3, tmp_path)
    result = run.run_traced(wl, 0.0, 3)
    info = result["info"]
    assert info["units"] == info["replays"] == 1
    assert result["attempted"] == 2 * wl.grads_per_unit
    assert result["failed"] == 0 and result["correct"]
    assert info["replay_curve_equals_train"]
    assert set(result["metrics"]) == set(run.PER_LAYER_UNITS)
    assert result["metrics"]["model.passes_per_grad"] == PASSES_PER_GRAD[name]
    assert result["metrics"]["model.singular_ratio"] == 0


def test_benchmark_json_names_the_metrics_run_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS) == list(PASSES_PER_GRAD)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "xor_mlp_seeded", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
