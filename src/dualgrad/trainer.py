"""Gradient-descent training with interchangeable gradient engines.

The three engines compute the same mathematical gradient, so a run is
fully determined by the config: same seed and sample order give the same
trajectory whichever engine is selected (wall-clock timings aside).

Every engine is one ``Engine(grad, sgd)`` record. ``grad(m, s)`` is its
public per-sample rule (``model.grad_ones``, ``model.grad_seeded``,
``oracle.grad_backprop``). ``sgd(m, batches, lr)`` runs an epoch's
batches, updates included: ``ones`` and ``seeded`` carry the model's
compiled ``run_sgd`` for their rule, ``backprop`` ``stepwise`` over the
oracle's batch loop, one batch call and one ``sgd_step`` per batch. A
per-sample rule registers as ``Engine(rule, stepwise(summed(rule)))``.
Each loop sums in sample order, so the logs agree bit for bit. ``train``
makes one ``sgd`` call per epoch under every engine. The epoch loss is
one call of the layout's compiled loss loop.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
import numbers
import operator
import re
import time
from collections.abc import Callable
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
    """The batch function of a per-sample gradient rule.

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


@dataclass(frozen=True)
class Engine:
    """A per-sample gradient ``grad(m, s)`` and ``sgd(m, batches, lr) -> (last finite model, max |g|, skips, failure)``.

    ``failure`` is the NonFinite that stopped the epoch, or None. ``sgd``
    only reads its batches, so unshuffled ones are reused.
    """

    grad: Callable
    sgd: Callable


def stepwise(batch):
    """The ``sgd`` of a batch function: one ``batch`` call and one ``sgd_step`` per batch."""

    def sgd(m: Model, batches, lr: float):
        norm, skips = 0.0, 0
        try:
            for samples in batches:
                g, k = batch(m, samples)
                skips += k
                if g is not None:
                    norm = max(norm, *map(abs, g.params))
                    m = sgd_step(m, g, lr)
        except NonFinite as failure:
            return m, norm, skips, failure
        return m, norm, skips, None

    return sgd


# The one name -> engine registry; bench and cli import it.
ENGINES = {
    "ones": Engine(_model.grad_ones, functools.partial(_model.run_sgd, ones=True)),
    "seeded": Engine(_model.grad_seeded, functools.partial(_model.run_sgd, ones=False)),
    "backprop": Engine(_oracle.grad_backprop, stepwise(_oracle.grad_backprop_batch)),
}


def engine(name: str) -> Engine:
    """The engine registered as ``name`` in ENGINES."""
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


def split_lines(text: str) -> list[str]:
    """The lines of text, each ended by ``\\r\\n``, ``\\r`` or ``\\n``.

    These are the line breaks of the csv reader in ``load_csv_dataset``,
    so every ``path:line`` that a file's reader reports counts alike.
    """
    return re.split(r"\r\n|\r|\n", text)


def read_utf8(path: str | Path) -> str:
    """The text of a UTF-8 file; a bad byte raises ValueError naming the file and its line.

    One leading byte order mark is dropped, as Excel and Notepad write one.
    """
    data = Path(path).read_bytes().removeprefix(b"\xef\xbb\xbf")
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = len(split_lines(data[:exc.start].decode("utf-8")))
        raise ValueError(
            f"{path}:{lineno}: byte {data[exc.start]:#04x} is not UTF-8 ({exc.reason})"
        ) from None


def load_csv_dataset(path: str | Path) -> Dataset:
    """Read samples from CSV with a strict header x1..xn,y; ragged rows are rejected."""
    path = Path(path)
    reader = csv.reader(io.StringIO(read_utf8(path), newline=""))
    header = next(reader, None)
    if header is None:
        raise ValueError(f"{path}: empty file")
    header = [c.strip() for c in header]
    n = len(header) - 1
    if n < 1 or header != [f"x{i + 1}" for i in range(n)] + ["y"]:
        raise ValueError(f"{path}: header must be x1..xn,y, got {header}")
    samples = []
    # A quoted cell may hold a newline, so a row's file line is where the
    # previous row ended plus one, not the row's index.
    lineno = reader.line_num + 1
    for row in reader:
        if len(row) != n + 1:
            raise ValueError(f"{path}:{lineno}: expected {n + 1} columns, got {len(row)}")
        try:
            values = [float(c) for c in row]
            samples.append(Sample(values[:-1], values[-1]))
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
        lineno = reader.line_num + 1
    if not samples:
        raise ValueError(f"{path}: no data rows")
    return Dataset(path.stem, n, samples)


def check_dataset_ref(ref: str) -> None:
    """Raise FileNotFoundError unless ref is builtin or an existing path that is no directory."""
    path = Path(ref)  # Path("") is the working directory; a pipe such as <(...) passes
    if ref not in BUILTIN_DATASETS and (not path.exists() or path.is_dir()):
        raise FileNotFoundError(f"dataset {ref!r} is neither builtin nor an existing file")


def resolve_dataset(ref: str) -> Dataset:
    check_dataset_ref(ref)
    return builtin_dataset(ref) if ref in BUILTIN_DATASETS else load_csv_dataset(ref)


# --- model init and updates ------------------------------------------------------


def init_model(cfg: TrainConfig, feature_width: int, rng: np.random.Generator) -> Model:
    """Uniform weights in [-init_range, init_range], drawn in a fixed order."""

    def draw(k: int) -> list[float]:
        return [float(v) for v in rng.uniform(-cfg.init_range, cfg.init_range, size=k)]

    widths = [feature_width, *cfg.hidden, 1]
    layers = []
    for w_in, w_out in zip(widths, widths[1:]):
        rows = [draw(w_in) for _ in range(w_out)]
        layers.append(Layer(rows, draw(w_out), cfg.activation))
    if not cfg.hidden:
        return Perceptron(layers[0].W[0], layers[0].b[0], cfg.activation)
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

    Each epoch is one call of the engine's ``sgd``. SingularSeed steps
    (possible with engine='ones') are skipped and counted. NonFinite is the
    one divergence signal: one that ``sgd`` returns, or a non-finite epoch
    loss, ends the run with the log marked diverged, and the diverging
    epoch is not recorded, so no record holds an inf or nan. Any other
    error propagates.
    """
    if dataset is None:
        dataset = resolve_dataset(cfg.dataset)
    rng = np.random.default_rng(cfg.rng_seed)
    m = init_model(cfg, dataset.feature_width, rng) if model is None else model
    if m.width != dataset.feature_width:
        raise ValueError(
            f"model width {m.width} does not match dataset width {dataset.feature_width}"
        )
    sgd = engine(cfg.engine).sgd

    log = TrainLog(config=cfg.to_dict())
    for epoch in range(1, cfg.epochs + 1):
        t0 = time.perf_counter()
        if cfg.shuffle or epoch == 1:  # built once unless shuffled: sgd only reads them
            order = list(range(len(dataset.samples)))
            if cfg.shuffle:
                rng.shuffle(order)
            ordered = [dataset.samples[i] for i in order]
            # per-sample SGD is full-batch SGD over batches of one sample
            batches = [ordered] if cfg.batch_mode == "full_batch" else [[s] for s in ordered]
        m, grad_norm, skips, failure = sgd(m, batches, cfg.learning_rate)
        log.singular_skips += skips
        if failure is not None or not math.isfinite(epoch_loss := mean_loss(m, dataset)):
            log.diverged = True
            break
        wall_ms = (time.perf_counter() - t0) * 1e3
        log.records.append(EpochRecord(epoch, epoch_loss, grad_norm, wall_ms))
    log.final_model = model_to_dict(m)
    return log


# --- log export --------------------------------------------------------------------


# One record as json.dumps(..., indent=2) writes it inside the log.
_RECORD_JSON = ('    {\n      "epoch": %r,\n      "mean_loss": %r,\n'
                '      "grad_norm": %r,\n      "wall_ms": %r\n    }')
# A newline or quote inside a JSON string is escaped, so only the key itself matches.
_NO_RECORDS = '\n  "records": [],\n'
_record_fields = operator.attrgetter("epoch", "mean_loss", "grad_norm", "wall_ms")


def _plain(r: EpochRecord) -> bool:
    """An int epoch and floats with a finite sum (so all finite): ``%r`` writes them as json does."""
    return (type(r.epoch) is int and type(r.mean_loss) is type(r.grad_norm) is type(r.wall_ms)
            is float and math.isfinite(r.mean_loss + r.grad_norm + r.wall_ms))


def write_log_json(log: TrainLog, path: str | Path) -> None:
    """The log as ``json.dumps(log.to_dict(), indent=2)`` plus a newline, byte for byte.

    The header is dumped without records, which are streamed in at its
    ``"records"`` key from one ``%r`` template unless one is not ``_plain``.
    """
    with Path(path).open("w") as fh:
        if not all(map(_plain, log.records)):
            json.dump(log.to_dict(), fh, indent=2)
        else:
            head = json.dumps({"config": log.config, "records": [], "final_model": log.final_model,
                               "singular_skips": log.singular_skips, "diverged": log.diverged}, indent=2)
            if log.records:
                before, after = head.split(_NO_RECORDS, 1)
                rows = map(_record_fields, log.records)
                fh.write(before + '\n  "records": [\n' + _RECORD_JSON % next(rows))
                fh.writelines(map((",\n" + _RECORD_JSON).__mod__, rows))
                head = "\n  ],\n" + after
            fh.write(head)
        fh.write("\n")


def write_log_csv(log: TrainLog, path: str | Path) -> None:
    """The records as csv.writer writes them, ``\\r\\n`` line ends, each float as its ``float`` repr.

    That is ``%s``: numpy's ``str`` of an ``np.float64`` is ``repr(float(v))``.
    """
    with Path(path).open("w", newline="") as fh:
        fh.write("epoch,mean_loss,grad_norm,wall_ms\r\n")
        fh.writelines(map("%s,%s,%s,%s\r\n".__mod__, map(_record_fields, log.records)))
