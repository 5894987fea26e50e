"""Three digests: ``train``'s logs over a fixed grid of configs, the model API on random nets,
and the source the model compiles.

Run it on two checkouts and compare the lines: a change that moves any bit
of a log (``wall_ms`` aside), of a model result, any pass count or any line
of generated code moves a digest. The train half hashes each config's log
and pass count. The model half draws ``NETS`` 1–3-layer nets with
``random`` from a fixed seed, with entries from a pool of ±0.0, ±1e300,
5e-324, ±710 and ±745 or ordinary reals, and hashes the ``.hex()``
values of ``forward``, ``grad_seeded``, ``grad_ones`` (perceptrons),
``run_sgd`` on per-sample and full batches and, on perceptrons, the
oracle's ``grad_backprop_batch`` on each sample and on the full batch,
then ``grad_backprop_batch`` and both rules' ``run_sgd`` on the full
batch plus one sample a feature wider, and last ``run_sgd`` under each
rule on mixed batches in one call (the full batch, its first sample, an
empty batch and the full batch reversed), with each call's exception
type and message and pass count.

The code half hashes every ``_kernel``, ``_grad`` and ``_sgd_loop`` source,
compiled afresh past the caches, on ``CODE_LAYOUTS``: perceptrons on both
sides of ``STRAIGHT_PASSES`` under both rules, and three MLPs under
``seeded``. It reads no float result, so it needs neither numpy nor libm
and is the one line to compare for a change that keeps the generated code.

The first two digests are not golden values, because ``math.exp`` and
``math.tanh`` may differ between libm builds; compare two trees on one machine.

    python tools/digest.py

prints one JSON line, ``{"configs": N, "sha256": "...", "nets": M,
"model_sha256": "...", "code_sha256": "..."}``. The package is imported
from the ``src/`` next to this file, so the digests are the tree's own.
Only the train half imports ``trainer``, and with it numpy, so
``model_digest()`` and ``code_digest()`` run where numpy is missing.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from dualgrad import model, oracle  # noqa: E402
from dualgrad.model import Layer, Mlp, Perceptron, Sample  # noqa: E402

ENGINES = ("ones", "seeded", "backprop")
LRS = (0.5, 1e6)  # 1e6 makes the identity runs diverge mid-epoch
NETS = 2000
POOL = (0.0, -0.0, 1e300, -1e300, 5e-324, 710.0, -710.0, 745.0, -745.0)
# (shapes, acts, rule): perceptrons around the 32-parameter edge under both rules, and MLPs
CODE_LAYOUTS = [
    *((((n, 1),), (act,), rule) for n in (1, 2, 3, 31, 32, 33, 128)
      for act in model.ACTIVATIONS for rule in ("ones", "seeded")),
    (((2, 4), (4, 1)), ("tanh", "sigmoid"), "seeded"),
    (((3, 5), (5, 4), (4, 1)), ("sigmoid", "tanh", "identity"), "seeded"),
    (((16, 8), (8, 1)), ("tanh", "sigmoid"), "seeded"),
]


def grid():
    """(config, model or None) pairs; None trains the config's own initial model."""
    from dualgrad import trainer
    from dualgrad.trainer import TrainConfig

    for dataset, engine, act, batch, shuffle, lr in itertools.product(
        ("and", "or", "line2d"), ENGINES, model.ACTIVATIONS, trainer.BATCH_MODES, (False, True), LRS
    ):
        yield TrainConfig(dataset=dataset, engine=engine, activation=act, batch_mode=batch,
                          shuffle=shuffle, learning_rate=lr, epochs=8, rng_seed=3), None
    for batch, lr in itertools.product(trainer.BATCH_MODES, LRS):
        yield TrainConfig(dataset="and", engine="seeded", hidden=(3,), batch_mode=batch,
                          learning_rate=lr, epochs=8, rng_seed=3), None
    for engine, batch in itertools.product(ENGINES, trainer.BATCH_MODES):  # |sum(W)| = 0: ones skips
        yield TrainConfig(dataset="and", engine=engine, batch_mode=batch, epochs=8,
                          rng_seed=3), Perceptron([0.5, -0.5], 0.0)


def train_digest() -> tuple[int, str]:
    from dualgrad import trainer

    digest = hashlib.sha256()
    count = 0
    for cfg, m in grid():
        model.reset_pass_count()
        doc = trainer.train(cfg, model=m).to_dict()
        for record in doc["records"]:
            del record["wall_ms"]
        digest.update(f"{doc!r} {model.pass_count()}\n".encode())
        count += 1
    return count, digest.hexdigest()


def entries(rng: random.Random, k: int) -> list[float]:
    return [rng.choice(POOL) if rng.random() < 0.3 else rng.uniform(-3.0, 3.0) for _ in range(k)]


def random_net(rng: random.Random):
    """A perceptron or a 2–3-layer Mlp, widths 1–4, activations drawn per layer."""
    widths = [rng.randint(1, 4) for _ in range(rng.randint(1, 3))] + [1]
    acts = [rng.choice(model.ACTIVATIONS) for _ in widths[1:]]
    if len(widths) == 2:
        return Perceptron(entries(rng, widths[0]), entries(rng, 1)[0], acts[0])
    return Mlp([Layer([entries(rng, n_in) for _ in range(n_out)], entries(rng, n_out), act)
                for n_in, n_out, act in zip(widths, widths[1:], acts)])


def outcome(f, *args) -> str:
    """f(*args) as .hex() values, or its exception, and the passes it counted."""
    model.reset_pass_count()
    try:
        result = f(*args)
    except (ArithmeticError, ValueError) as exc:  # SingularSeed, NonFinite and bad inputs
        result = f"{type(exc).__name__}: {exc}"
    if isinstance(result, float):
        result = result.hex()
    elif isinstance(result, model.MlpGradient):
        result = [v.hex() for v in result.params]
    elif isinstance(result, tuple):  # run_sgd's (model, norm, skips, failure)
        last, norm, skips, failure = result
        failure = failure and f"{type(failure).__name__}: {failure}"
        result = [v.hex() for v in last.params], norm.hex(), skips, failure
    return f"{result} {model.pass_count()}"


def backprop_batch(m, samples):
    """``oracle.grad_backprop_batch``'s mean gradient; the oracle never skips a sample."""
    return oracle.grad_backprop_batch(m, samples)[0]


def model_outcomes():
    """Per net, the list of its outcomes, in the order ``model_digest`` hashes them."""
    rng = random.Random(7)
    for _ in range(NETS):
        m = random_net(rng)
        samples = [Sample(entries(rng, m.width), entries(rng, 1)[0])
                   for _ in range(rng.randint(1, 4))]
        lr = rng.choice((0.5, 1e-3, 1e6))
        perceptron = isinstance(m, Perceptron)
        outcomes = [outcome(m.forward, s.x) for s in samples]
        outcomes += [outcome(model.grad_seeded, m, s) for s in samples]
        if perceptron:
            outcomes += [outcome(model.grad_ones, m, s) for s in samples]
        rules = ("ones", "seeded") if perceptron else ("seeded",)
        for rule, batches in itertools.product(rules, ([[s] for s in samples], [samples])):
            outcomes.append(outcome(model.run_sgd, m, batches, lr, rule))
        if perceptron:
            outcomes += [outcome(backprop_batch, m, batch) for batch in [*([s] for s in samples), samples]]
            # the full batch and a sample one feature wider, which every engine refuses
            wider = [*samples, Sample([*samples[0].x, 1.0], samples[0].y)]
            outcomes.append(outcome(backprop_batch, m, wider))
            outcomes += [outcome(model.run_sgd, m, [wider], lr, rule) for rule in rules]
        # batches of several sizes in one call, an empty one among them
        mixed = [samples, samples[:1], [], samples[::-1]]
        outcomes += [outcome(model.run_sgd, m, mixed, lr, rule) for rule in rules]
        yield outcomes


def model_digest() -> tuple[int, str]:
    digest = hashlib.sha256()
    for outcomes in model_outcomes():
        digest.update(f"{outcomes}\n".encode())
    return NETS, digest.hexdigest()


def code_digest() -> str:
    """sha256 of each ``CODE_LAYOUTS`` entry's ``_kernel``, ``_grad`` and ``_sgd_loop`` source."""
    digest = hashlib.sha256()
    compile_ = model._compile
    model._compile = lambda lines: digest.update(("\n".join(lines) + "\n").encode()) or compile_(lines)
    try:
        for shapes, acts, rule in CODE_LAYOUTS:  # compiled afresh, past the caches
            model._kernel.__wrapped__(shapes, acts)
            model._grad.__wrapped__(shapes, acts, rule)
            model._sgd_loop.__wrapped__(shapes, acts, rule)
    finally:
        model._compile = compile_
    return digest.hexdigest()


def main() -> None:
    configs, train_sha = train_digest()
    nets, model_sha = model_digest()
    print(json.dumps({"configs": configs, "sha256": train_sha, "nets": nets,
                      "model_sha256": model_sha, "code_sha256": code_digest()}))


if __name__ == "__main__":
    main()
