"""Gradient-descent training with interchangeable gradient engines.

The three engines compute the same mathematical gradient, so a run is
fully determined by the config: same seed and sample order give the same
trajectory whichever engine is selected (wall-clock timings aside).

Every engine takes a batch, ``ENGINES[name](m, samples) -> (mean gradient
or None, singular skips)``, so ``train`` makes one engine call per epoch
in ``full_batch`` mode and one per sample in ``per_sample`` mode. ``ones``
and ``seeded`` are per-sample rules wrapped by ``summed``; ``backprop`` is
the oracle's own batch loop. Both sum in sample order, so the logs agree.
The epoch loss is one call of the layout's compiled loss loop.
"""

from __future__ import annotations

import csv
import io
import json
import math
import numbers
import operator
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import model as _model
from . import oracle as _oracle
from .dual import NonFinite
from .model import Layer, Mlp, Model, Perceptron, Sample, SingularSeed

BATCH_MODES = ("per_sample", "full_batch")
BUILTIN_DATASETS = ("and", "or", "nand", "line2d")


def _integer(value, what: str) -> int:
    """value as an int; operator.index accepts ints and numpy ints, not floats or strings."""
    try:
        if isinstance(value, bool):  # an int to Python, but True is no count
            raise TypeError
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{what} must be an integer, got {value!r}") from None


def _real(value, what: str) -> float:
    """value as a float; accepts ints, floats and numpy reals, not bools or strings."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{what} must be a real number, got {value!r}")
    return float(value)


def summed(grad):
    """The batch engine of a per-sample gradient rule.

    ``summed(grad)(m, samples)`` sums the gradients of the samples in
    sample order and scales the sum by 1/contributing when more than one
    sample contributes. A sample whose rule raises SingularSeed is a skip
    and contributes nothing; a batch of skips gives None.
    """

    def batch(m: Model, samples: list[Sample]):
        acc = None
        contributing = skips = 0
        for s in samples:
            try:
                g = grad(m, s)
            except SingularSeed:
                skips += 1
                continue
            acc = g.params if acc is None else [a + b for a, b in zip(acc, g.params)]
            contributing += 1
        if acc is None:
            return None, skips
        if contributing > 1:  # with one, g is its gradient and x1.0 would change no bit
            scale = 1.0 / contributing
            g = _model._grad_like(m, [scale * v for v in acc])
        return g, skips

    return batch


# The one name -> batch engine registry; bench and cli import it.
ENGINES = {
    "ones": summed(_model.grad_ones),
    "seeded": summed(_model.grad_seeded),
    "backprop": _oracle.grad_backprop_batch,
}


def engine(name: str):
    """The batch engine registered as ``name`` in ENGINES."""
    if name not in ENGINES:
        raise ValueError(f"unknown engine {name!r}, expected one of {tuple(ENGINES)}")
    return ENGINES[name]


@dataclass
class TrainConfig:
    """Hyperparameters and provenance for one training run.

    ``dataset`` is a builtin name or a CSV path. ``hidden`` lists hidden
    layer widths; empty means a single-layer perceptron. ``epochs``,
    ``rng_seed`` and the widths must be integers and become ints;
    ``learning_rate`` and ``init_range`` must be real numbers and become
    floats; ``shuffle`` must be a bool; the other fields must be strings.
    All randomness (weight init, optional shuffling) flows from
    ``rng_seed`` through one numpy PCG64 generator.
    """

    dataset: str = "and"
    engine: str = "backprop"
    learning_rate: float = 0.5
    epochs: int = 2000
    batch_mode: str = "per_sample"
    rng_seed: int = 0
    init_range: float = 0.5
    activation: str = "sigmoid"
    hidden: tuple[int, ...] = ()
    shuffle: bool = False

    def __post_init__(self):
        for what, value in (("dataset", self.dataset), ("engine", self.engine),
                            ("batch mode", self.batch_mode), ("activation", self.activation)):
            if not isinstance(value, str):
                raise ValueError(f"{what} must be a string, got {value!r}")
        engine(self.engine)
        if self.batch_mode not in BATCH_MODES:
            raise ValueError(f"unknown batch mode {self.batch_mode!r}, expected one of {BATCH_MODES}")
        self.learning_rate = _real(self.learning_rate, "learning rate")
        if not (self.learning_rate > 0 and math.isfinite(self.learning_rate)):
            raise ValueError(f"learning rate must be positive and finite, got {self.learning_rate}")
        self.epochs = _integer(self.epochs, "epochs")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        self.rng_seed = _integer(self.rng_seed, "rng seed")
        if self.rng_seed < 0:
            raise ValueError(f"rng seed must be >= 0, got {self.rng_seed}")
        self.init_range = _real(self.init_range, "init range")
        if not (self.init_range > 0 and math.isfinite(self.init_range)):
            raise ValueError(f"init range must be positive and finite, got {self.init_range}")
        _model._check_act(self.activation)
        try:
            widths = iter(self.hidden)
        except TypeError:
            raise ValueError(f"hidden must be a sequence of widths, got {self.hidden!r}") from None
        self.hidden = tuple(_integer(w, "hidden width") for w in widths)
        if any(w < 1 for w in self.hidden):
            raise ValueError(f"hidden widths must be >= 1, got {self.hidden}")
        if self.hidden and self.engine != "seeded":
            raise ValueError("multilayer models train with engine='seeded' only")
        if not isinstance(self.shuffle, bool):
            raise ValueError(f"shuffle must be a bool, got {self.shuffle!r}")

    def to_dict(self) -> dict:
        d = asdict(self)
        d["hidden"] = list(self.hidden)
        return d


@dataclass
class Dataset:
    name: str
    feature_width: int
    samples: list[Sample]

    def __post_init__(self):
        if not self.samples:
            raise ValueError("dataset must not be empty")
        for s in self.samples:
            if len(s.x) != self.feature_width:
                raise ValueError(
                    f"sample width {len(s.x)} does not match dataset width {self.feature_width}"
                )


@dataclass
class EpochRecord:
    epoch: int
    mean_loss: float
    grad_norm: float
    wall_ms: float


@dataclass
class TrainLog:
    config: dict
    records: list[EpochRecord] = field(default_factory=list)
    final_model: dict = field(default_factory=dict)
    singular_skips: int = 0
    diverged: bool = False

    @property
    def final_loss(self) -> float:
        return self.records[-1].mean_loss if self.records else math.nan

    def loss_curve(self) -> list[float]:
        return [r.mean_loss for r in self.records]

    def to_dict(self) -> dict:
        return asdict(self)


# --- datasets ------------------------------------------------------------------


def builtin_dataset(name: str) -> Dataset:
    """The four-point boolean tables plus a separable 64-point half-plane set."""
    tables = {
        "and": [0.0, 0.0, 0.0, 1.0],
        "or": [0.0, 1.0, 1.0, 1.0],
        "nand": [1.0, 1.0, 1.0, 0.0],
    }
    if name in tables:
        inputs = [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)]
        samples = [Sample(list(x), y) for x, y in zip(inputs, tables[name])]
        return Dataset(name, 2, samples)
    if name == "line2d":
        # Two clusters straddling the line x1 + x2 = 0; offsets keep a margin
        # of at least 0.3, so the labels are separable by construction.
        rng = np.random.default_rng(7)
        samples = []
        for k in range(64):
            cx = 0.55 if k % 2 == 0 else -0.55
            ox, oy = rng.uniform(-0.2, 0.2, size=2)
            x1, x2 = cx + ox, cx + oy
            label = 1.0 if x1 + x2 > 0.0 else 0.0
            samples.append(Sample([float(x1), float(x2)], label))
        return Dataset("line2d", 2, samples)
    raise ValueError(f"unknown dataset {name!r}, expected one of {BUILTIN_DATASETS}")


def read_utf8(path: str | Path) -> str:
    """The text of a UTF-8 file; a bad byte raises ValueError naming the file and its line."""
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        raise ValueError(
            f"{path}:{lineno}: byte {data[exc.start]:#04x} is not UTF-8 ({exc.reason})"
        ) from None


def load_csv_dataset(path: str | Path) -> Dataset:
    """Read samples from CSV with a strict header x1..xn,y; ragged rows are rejected."""
    path = Path(path)
    rows = list(csv.reader(io.StringIO(read_utf8(path), newline="")))
    if not rows:
        raise ValueError(f"{path}: empty file")
    header = [c.strip() for c in rows[0]]
    n = len(header) - 1
    if n < 1 or header != [f"x{i + 1}" for i in range(n)] + ["y"]:
        raise ValueError(f"{path}: header must be x1..xn,y, got {header}")
    samples = []
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != n + 1:
            raise ValueError(f"{path}:{lineno}: expected {n + 1} columns, got {len(row)}")
        try:
            values = [float(c) for c in row]
            samples.append(Sample(values[:-1], values[-1]))
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
    if not samples:
        raise ValueError(f"{path}: no data rows")
    return Dataset(path.stem, n, samples)


def check_dataset_ref(ref: str) -> None:
    """Raise FileNotFoundError unless ref is a builtin name or an existing path."""
    if ref not in BUILTIN_DATASETS and not Path(ref).exists():
        raise FileNotFoundError(f"dataset {ref!r} is neither builtin nor an existing file")


def resolve_dataset(ref: str) -> Dataset:
    check_dataset_ref(ref)
    return builtin_dataset(ref) if ref in BUILTIN_DATASETS else load_csv_dataset(ref)


# --- model init and updates ------------------------------------------------------


def init_model(cfg: TrainConfig, feature_width: int, rng: np.random.Generator) -> Model:
    """Uniform weights in [-init_range, init_range], drawn in a fixed order."""

    def draw(k: int) -> list[float]:
        return [float(v) for v in rng.uniform(-cfg.init_range, cfg.init_range, size=k)]

    if not cfg.hidden:
        return Perceptron(draw(feature_width), draw(1)[0], cfg.activation)
    widths = [feature_width, *cfg.hidden, 1]
    layers = []
    for w_in, w_out in zip(widths, widths[1:]):
        rows = [draw(w_in) for _ in range(w_out)]
        layers.append(Layer(rows, draw(w_out), cfg.activation))
    return Mlp(layers)


def sgd_step(m: Model, g, lr: float) -> Model:
    """p <- p - lr * dp for every parameter; returns a new model."""
    if not (lr > 0 and math.isfinite(lr)):
        raise ValueError(f"learning rate must be positive and finite, got {lr}")
    if g.shapes != m.shapes:
        raise ValueError(f"gradient shape {g.shapes} does not match model {m.shapes}")
    return _model._model_like(m, [p - lr * d for p, d in zip(m.params, g.params)])


def model_to_dict(m: Model) -> dict:
    if isinstance(m, Perceptron):
        return {"kind": "perceptron", "W": m.W, "b": m.b, "act": m.act}
    return {
        "kind": "mlp",
        "layers": [{"W": lay.W, "b": lay.b, "act": lay.act} for lay in m.layers],
    }


# --- the training loop ------------------------------------------------------------


def mean_loss(m: Model, dataset: Dataset) -> float:
    """The mean of ``loss(m.forward(s.x), s.y)`` over the dataset, bit for bit.

    One call of the loop the layout's kernel compiled (``loss_sum``), which
    sums the losses in sample order; it counts no pass.
    """
    if m.width != dataset.feature_width:
        raise ValueError(f"expected {m.width} features, got {dataset.feature_width}")
    loss_sum = _model._kernel(m.shapes, m.acts).loss_sum
    return loss_sum(m.params, dataset.samples) / len(dataset.samples)


def train(cfg: TrainConfig, dataset: Dataset | None = None, model: Model | None = None) -> TrainLog:
    """Run the configured gradient descent and log one record per epoch.

    SingularSeed steps (possible with engine='ones') are skipped and
    counted. NonFinite is the one divergence signal: a non-finite gradient
    entry, parameter, pass value or epoch loss ends the run with the log
    marked diverged, and the diverging epoch is not recorded, so no record
    holds an inf or nan. Any other error propagates.
    """
    if dataset is None:
        dataset = resolve_dataset(cfg.dataset)
    rng = np.random.default_rng(cfg.rng_seed)
    m = init_model(cfg, dataset.feature_width, rng) if model is None else model
    if m.width != dataset.feature_width:
        raise ValueError(
            f"model width {m.width} does not match dataset width {dataset.feature_width}"
        )
    grad = engine(cfg.engine)

    log = TrainLog(config=cfg.to_dict())
    for epoch in range(1, cfg.epochs + 1):
        t0 = time.perf_counter()
        grad_norm = 0.0
        order = list(range(len(dataset.samples)))
        if cfg.shuffle:
            rng.shuffle(order)
        ordered = [dataset.samples[i] for i in order]
        # per-sample SGD is full-batch SGD over batches of one sample
        batches = [ordered] if cfg.batch_mode == "full_batch" else [[s] for s in ordered]
        try:
            for batch in batches:
                g, skips = grad(m, batch)
                log.singular_skips += skips
                if g is None:
                    continue
                grad_norm = max(grad_norm, *map(abs, g.params))
                m = sgd_step(m, g, cfg.learning_rate)
            epoch_loss = mean_loss(m, dataset)
            if not math.isfinite(epoch_loss):
                raise NonFinite(f"epoch {epoch}: mean loss {epoch_loss!r} is not finite")
        except NonFinite:
            log.diverged = True
            break
        wall_ms = (time.perf_counter() - t0) * 1e3
        log.records.append(EpochRecord(epoch, epoch_loss, grad_norm, wall_ms))
    log.final_model = model_to_dict(m)
    return log


# --- log export --------------------------------------------------------------------


def write_log_json(log: TrainLog, path: str | Path) -> None:
    Path(path).write_text(json.dumps(log.to_dict(), indent=2) + "\n")


def write_log_csv(log: TrainLog, path: str | Path) -> None:
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "mean_loss", "grad_norm", "wall_ms"])
        for r in log.records:
            writer.writerow([r.epoch, repr(r.mean_loss), repr(r.grad_norm), repr(r.wall_ms)])
