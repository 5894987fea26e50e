"""Interleaved in-process A/B timing of two dualgrad source trees.

    python tools/ab.py PARENT_SRC CHANGE_SRC WORKLOAD [--rounds N] [--json PATH]

loads ``PARENT_SRC/dualgrad`` and ``CHANGE_SRC/dualgrad`` into one process
as two packages (the package uses only relative imports), so each side keeps
its own caches and pass counter. A workload's inputs are drawn once, as
plain floats, with the change side's generators; each side builds its
models and samples from them with its own public constructors (``Mlp``,
``Layer``, ``Perceptron``, ``Sample``, ``Dataset``), so a parent that lacks
a generator is timed on the same inputs. Each side is warmed; then every
round times one workload call per side, alternating which side goes
first. Two processes started apart see the CPU at different speeds; two
calls in one round mostly see the same.

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
from typing import Callable, NamedTuple

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


class Workload(NamedTuple):
    """``draw(pkg)``, a workload's inputs as plain floats, and ``build(pkg, inputs)``, its timed call."""

    draw: Callable
    build: Callable


def plain_sample(s) -> tuple:
    return list(s.x), s.y


def samples_of(pkg, plain) -> list:
    return [pkg.model.Sample(x, y) for x, y in plain]


def plain_perceptron(m) -> tuple:
    return m.W, m.b, m.act


def line2d_samples(pkg):
    """line2d's 64 samples."""
    return [plain_sample(s) for s in pkg.trainer.resolve_dataset("line2d").samples]


def line2d_train(engine: str, batch_mode: str) -> Workload:
    """An in-process 200-epoch line2d ``train`` under one engine and batch mode."""
    def build(pkg, samples):
        tr = pkg.trainer
        cfg = tr.TrainConfig(dataset="line2d", engine=engine, batch_mode=batch_mode, epochs=200)
        dataset = tr.Dataset("line2d", 2, samples_of(pkg, samples))
        return lambda: tr.train(cfg, dataset)
    return Workload(line2d_samples, build)


def draw_line2d_init(pkg):
    """line2d's samples and its seed-0 initial perceptron."""
    tr = pkg.trainer
    cfg = tr.TrainConfig(dataset="line2d", batch_mode="full_batch")
    m = tr.init_model(cfg, 2, np.random.default_rng(cfg.rng_seed))
    return plain_perceptron(m), line2d_samples(pkg)


def backprop_batch(pkg, inputs):
    """500 calls of ``grad_backprop_batch`` on line2d's 64 samples, at the seed-0 init."""
    m, samples = pkg.model.Perceptron(*inputs[0]), samples_of(pkg, inputs[1])
    batch = pkg.oracle.grad_backprop_batch

    def run():
        for _ in range(500):
            batch(m, samples)
    return run


XOR_SAMPLES = [([a, b], float(a != b)) for a in (0.0, 1.0) for b in (0.0, 1.0)]


def train_seeded_xor(pkg, samples):
    """An in-process 150-epoch ``train`` of a 2-4-1 MLP on XOR under ``seeded``."""
    tr = pkg.trainer
    cfg = tr.TrainConfig(dataset="xor", engine="seeded", learning_rate=0.5, hidden=(4,), epochs=150)
    dataset = tr.Dataset("xor", 2, samples_of(pkg, samples))
    return lambda: tr.train(cfg, dataset)


def draw_xor_mlp(pkg):
    """A seed-0 2-4-1 ``bench.random_mlp`` as (rows, biases, act) per layer, and the XOR samples."""
    m = pkg.bench.random_mlp([2, 4, 1], np.random.default_rng(0))
    return [(lay.W, lay.b, lay.act) for lay in m.layers], XOR_SAMPLES


def grad_seeded_mlp(pkg, inputs):
    """250 rounds of one ``grad_seeded`` call (17 passes) per XOR sample, on the seed-0 2-4-1 net."""
    md = pkg.model
    m = md.Mlp([md.Layer(*layer) for layer in inputs[0]])
    samples, grad = samples_of(pkg, inputs[1]), md.grad_seeded

    def run():
        for _ in range(250):
            for s in samples:
                grad(m, s)
    return run


def draw_pairs(width: int) -> Callable:
    """A ``draw`` of 16 width-``width`` (perceptron, sample) pairs from ``bench``, from seed 0."""
    def draw(pkg):
        rng = np.random.default_rng(0)
        pairs = [(pkg.bench.guarded_perceptron(width, rng), pkg.bench.random_sample(width, rng))
                 for _ in range(16)]
        return [(plain_perceptron(m), plain_sample(s)) for m, s in pairs]
    return draw


def pairs_of(pkg, pairs):
    return [(pkg.model.Perceptron(*m), pkg.model.Sample(*s)) for m, s in pairs]


def grad_pairs(engine: str, repeats: int) -> Callable:
    """A ``build`` of ``repeats`` sweeps of one ``trainer.engine(engine).grad`` call on each
    of the 16 pairs: 1 pass per call for ``ones`` and ``backprop``, width + 1 for ``seeded``."""
    def build(pkg, inputs):
        pairs, grad = pairs_of(pkg, inputs), pkg.trainer.engine(engine).grad

        def run():
            for _ in range(repeats):
                for m, s in pairs:
                    grad(m, s)
        return run
    return build


# The repeats make each one-sample workload's round last milliseconds, not a fraction of
# one: 3-5 ms, and 24 ms for grad_backprop_128 (Python 3.11.7 on a 2-core Xeon VM).
WORKLOADS = {
    "backprop_batch": Workload(draw_line2d_init, backprop_batch),
    "grad_backprop_128": Workload(draw_pairs(128), grad_pairs("backprop", 125)),
    "grad_ones_128": Workload(draw_pairs(128), grad_pairs("ones", 16)),
    # P = 32, the largest layout whose seeded passes are written out
    "grad_seeded_31": Workload(draw_pairs(31), grad_pairs("seeded", 13)),
    "grad_seeded_128": Workload(draw_pairs(128), grad_pairs("seeded", 1)),
    "grad_seeded_mlp": Workload(draw_xor_mlp, grad_seeded_mlp),
    "train_backprop_full_batch": line2d_train("backprop", "full_batch"),
    "train_ones_full_batch": line2d_train("ones", "full_batch"),
    "train_ones_per_sample": line2d_train("ones", "per_sample"),
    "train_seeded_xor": Workload(lambda pkg: XOR_SAMPLES, train_seeded_xor),
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
    workload = WORKLOADS[args.workload]
    inputs = workload.draw(sides["change"])
    calls = {side: workload.build(pkg, inputs) for side, pkg in sides.items()}
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
