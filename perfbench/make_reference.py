"""Record the final loss of each line2d CLI workload for CLI seeds 0..15.

    python3 perfbench/make_reference.py

Writes perfbench/reference.json. The benchmark checks every CLI run
against these values at a relative 1e-8, so rerun this only when a change
is meant to alter the training trajectory, and say so in that change.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from dualgrad import trainer  # noqa: E402
from workloads import REFERENCE_FILE, Line2dBackpropBatch, Line2dOnesCli  # noqa: E402

CLI_SEEDS = 16


def main() -> None:
    refs = {}
    for wl in (Line2dOnesCli, Line2dBackpropBatch):
        refs[wl.name] = [trainer.train(wl.config(seed)).final_loss for seed in range(CLI_SEEDS)]
    REFERENCE_FILE.write_text(json.dumps(refs, indent=2) + "\n")


if __name__ == "__main__":
    main()
