"""tools/ab.py's plumbing: an A/A run prints its summary and writes every round."""

import json
import math
import subprocess
import sys
from pathlib import Path

from dualgrad import bench

ROOT = Path(__file__).resolve().parent.parent


def test_an_a_a_run_prints_its_keys_and_writes_its_rounds(tmp_path):
    out = tmp_path / "ab.json"
    done = subprocess.run(
        [sys.executable, "tools/ab.py", "src", "src", "backprop_batch", "--rounds", "2", "--json", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    summary = json.loads(done.stdout)
    assert list(summary) == ["workload", "median_ratio", "q1", "q3", "wins", "rounds"]
    assert summary["workload"] == "backprop_batch" and summary["rounds"] == 2
    assert 0 <= summary["wins"] <= 2 and math.isfinite(summary["median_ratio"])
    written = json.loads(out.read_text())
    assert list(written) == [*summary, "env"]
    assert {k: v for k, v in written.items() if k not in ("rounds", "env")} == \
        {k: v for k, v in summary.items() if k != "rounds"}
    assert [r["first"] for r in written["rounds"]] == ["parent", "change"]
    assert all(r["ratio"] == r["change_s"] / r["parent_s"] for r in written["rounds"])
    assert list(written["env"]) == ["parent", "change"]
    assert list(written["env"]["parent"]) == list(bench.environment())
    assert written["env"]["parent"]["src_sha256"] == written["env"]["change"]["src_sha256"]
