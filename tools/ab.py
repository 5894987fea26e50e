"""Interleaved in-process A/B timing of two dualgrad source trees.

    python tools/ab.py PARENT_SRC CHANGE_SRC WORKLOAD [--rounds N] [--json PATH]

loads ``PARENT_SRC/dualgrad`` and ``CHANGE_SRC/dualgrad`` into one process
as two packages (the package uses only relative imports), so each side keeps
its own caches and pass counter. Each side builds its own inputs from the
same seeds and is warmed; then every round times one workload call per
side, alternating which side goes first. Two processes started apart see
the CPU at different speeds; two calls in one round mostly see the same.

Prints one JSON line: the median change/parent time ratio over the rounds,
its quartiles and ``wins``, the rounds where the change was faster. With
``--json`` it also writes every round and an ``env`` block holding each
side's ``bench.environment()``. Wall clock is recorded, never gated.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import json
import statistics
import sys
import time
from pathlib import Path

import numpy as np

WARMUP = 2


def load(src: str, name: str):
    """The ``dualgrad`` package under ``src`` as the top-level package ``name``."""
    root = Path(src) / "dualgrad"
    spec = importlib.util.spec_from_file_location(
        name, root / "__init__.py", submodule_search_locations=[str(root)])
    pkg = importlib.util.module_from_spec(spec)
    sys.modules[name] = pkg
    spec.loader.exec_module(pkg)
    for sub in ("bench", "oracle", "trainer"):
        importlib.import_module(f"{name}.{sub}")  # binds pkg.bench, pkg.oracle, pkg.trainer
    return pkg


def line2d_train(engine: str, batch_mode: str):
    """An in-process 200-epoch line2d ``train`` under one engine and batch mode."""
    def build(pkg):
        tr = pkg.trainer
        cfg = tr.TrainConfig(dataset="line2d", engine=engine, batch_mode=batch_mode, epochs=200)
        dataset = tr.resolve_dataset("line2d")
        return lambda: tr.train(cfg, dataset)
    return build


def backprop_batch(pkg):
    """500 calls of ``grad_backprop_batch`` on line2d's 64 samples, at the seed-0 init."""
    tr = pkg.trainer
    dataset = tr.resolve_dataset("line2d")
    cfg = tr.TrainConfig(dataset="line2d", batch_mode="full_batch")
    m = tr.init_model(cfg, dataset.feature_width, np.random.default_rng(cfg.rng_seed))
    batch, samples = pkg.oracle.grad_backprop_batch, dataset.samples

    def run():
        for _ in range(500):
            batch(m, samples)
    return run


def grad_backprop_128(pkg):
    """125 calls of ``grad_backprop`` on each of 16 width-128 (perceptron, sample) pairs."""
    rng = np.random.default_rng(0)
    pairs = [(pkg.bench.guarded_perceptron(128, rng), pkg.bench.random_sample(128, rng)) for _ in range(16)]
    grad = pkg.oracle.grad_backprop

    def run():
        for _ in range(125):
            for m, s in pairs:
                grad(m, s)
    return run


WORKLOADS = {
    "backprop_batch": backprop_batch,
    "grad_backprop_128": grad_backprop_128,
    "train_backprop_full_batch": line2d_train("backprop", "full_batch"),
    "train_ones_per_sample": line2d_train("ones", "per_sample"),
}


def timed(call) -> float:
    t0 = time.perf_counter()
    call()
    return time.perf_counter() - t0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent_src")
    p.add_argument("change_src")
    p.add_argument("workload", choices=WORKLOADS)
    p.add_argument("--rounds", type=int, default=80)
    p.add_argument("--json", dest="json_path")
    args = p.parse_args(argv)
    if args.rounds < 2:
        p.error("--rounds must be at least 2")

    sides = {"parent": load(args.parent_src, "ab_parent"), "change": load(args.change_src, "ab_change")}
    calls = {side: WORKLOADS[args.workload](pkg) for side, pkg in sides.items()}
    for call in calls.values():
        for _ in range(WARMUP):
            call()
    rounds = []
    for r in range(args.rounds):
        order = ("parent", "change") if r % 2 == 0 else ("change", "parent")
        t = {side: timed(calls[side]) for side in order}
        rounds.append({"first": order[0], "parent_s": t["parent"], "change_s": t["change"],
                       "ratio": t["change"] / t["parent"]})

    ratios = [r["ratio"] for r in rounds]
    q1, _, q3 = statistics.quantiles(ratios, n=4, method="inclusive")
    summary = {"workload": args.workload, "median_ratio": statistics.median(ratios), "q1": q1, "q3": q3,
               "wins": sum(x < 1.0 for x in ratios), "rounds": len(rounds)}
    print(json.dumps(summary))
    if args.json_path:
        env = {side: pkg.bench.environment() for side, pkg in sides.items()}
        with open(args.json_path, "w") as f:
            json.dump({**summary, "rounds": rounds, "env": env}, f, indent=1)
            f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
