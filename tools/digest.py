"""One digest of ``train``'s logs and pass counts over a fixed grid of configs.

Run it on two checkouts and compare the lines: a change that moves any bit
of a log (``wall_ms`` aside) or any pass count moves the digest. The
digest is not a golden value, because ``math.exp``, ``math.tanh`` and,
from Python 3.12 on, the builtin ``sum`` over floats differ between
interpreters and libm builds; compare two trees on one interpreter.

    python tools/digest.py

prints one JSON line, ``{"configs": N, "sha256": "..."}``. The package is
imported from the ``src/`` next to this file, so the digest is the tree's
own.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from dualgrad import model, trainer  # noqa: E402
from dualgrad.model import Perceptron  # noqa: E402
from dualgrad.trainer import TrainConfig  # noqa: E402

ENGINES = ("ones", "seeded", "backprop")
LRS = (0.5, 1e6)  # 1e6 makes the identity runs diverge mid-epoch


def grid():
    """(config, model or None) pairs; None trains the config's own initial model."""
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


def main() -> None:
    digest = hashlib.sha256()
    count = 0
    for cfg, m in grid():
        model.reset_pass_count()
        doc = trainer.train(cfg, model=m).to_dict()
        for record in doc["records"]:
            del record["wall_ms"]
        digest.update(f"{doc!r} {model.pass_count()}\n".encode())
        count += 1
    print(json.dumps({"configs": count, "sha256": digest.hexdigest()}))


if __name__ == "__main__":
    main()
