"""The benchmark's four workloads, driven through dualgrad's public calls.

Each workload builds its inputs from the benchmark seed in ``__init__``
(that is the set-up the ``setup_s`` metric times) and then offers:

* ``unit(tracer)``: one timed unit of work, as a user runs it
  (``trainer.train``, ``cli.main`` or a batch of ``grad_seeded`` calls),
  checked for correctness;
* ``traced_unit(tracer)``: the same work made of the individual public
  calls (engine, ``trainer.sgd_step``, ``trainer.mean_loss``, oracle
  checks), each inside a span. For the training workloads this replays
  ``train``'s loop, and its loss curve must equal ``unit``'s exactly.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import math
import operator
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter_ns

import numpy as np

from dualgrad import Dual, bench, cli, functions, model, oracle, trainer
from dualgrad.model import Gradient, Layer, Mlp, Perceptron, Sample, SingularSeed
from dualgrad.trainer import Dataset, TrainConfig
from tracing import NullTracer

FD_TOL = 1e-5
SEEDED_TOL = 1e-10
REFERENCE_TOL = 1e-8  # relative, on the final loss of a CLI run
REFERENCE_FILE = Path(__file__).resolve().parent / "reference.json"

XOR = Dataset("xor", 2, [
    Sample([0.0, 0.0], 0.0),
    Sample([0.0, 1.0], 1.0),
    Sample([1.0, 0.0], 1.0),
    Sample([1.0, 1.0], 0.0),
])


@dataclass
class UnitResult:
    wall_s: float  # the timed part of the unit
    steps_ms: list[float]
    target_steps: int | None  # steps up to the first that met the target; None if none did
    grads: int
    failed: int


@dataclass
class TracedResult:
    grads: int
    failed: int
    passes: list[int] = field(default_factory=list)  # per engine call
    singular: int = 0
    curve: list[float] | None = None


def _call_engine(tr, span: str, engine, m, s, out: TracedResult):
    """One engine call in a span, with the pass counter reset around it only."""
    model.reset_pass_count()
    try:
        g = tr.call(span, engine, m, s)
    except SingularSeed:
        out.singular += 1
        return None
    out.passes.append(model.pass_count())
    return g


def replay_training(tr, cfg: TrainConfig, dataset: Dataset, m, engine, span: str, fd_steps=()) -> TracedResult:
    """``trainer.train``'s loop rebuilt from public calls, one span per call.

    Full-batch accumulation mirrors the trainer's arithmetic (sum in sample
    order, then scale by 1/contributing) so the curve stays bit-identical;
    it runs outside any span, so its cost stays in the trainer's self time.
    Steps whose index is in ``fd_steps`` are also checked against
    ``oracle.grad_finite_diff``.
    """
    out = TracedResult(grads=0, failed=0, curve=[])
    step = 0
    for _ in range(cfg.epochs):
        epoch = tr.begin("step")
        if cfg.batch_mode == "per_sample":
            for s in dataset.samples:
                g = _call_engine(tr, span, engine, m, s, out)
                if g is None:
                    continue
                if step in fd_steps:
                    fd = tr.call("oracle.grad_finite_diff", oracle.grad_finite_diff, m, s)
                    if not tr.call("oracle.compare", oracle.compare, g, fd, FD_TOL).passed:
                        out.failed += 1
                step += 1
                m = tr.call("trainer.sgd_step", trainer.sgd_step, m, g, cfg.learning_rate)
        else:
            acc = None
            contributing = 0
            for s in dataset.samples:
                g = _call_engine(tr, span, engine, m, s, out)
                if g is None:
                    continue
                acc = g if acc is None else Gradient(
                    [a + b for a, b in zip(acc.dW, g.dW)], acc.db + g.db
                )
                contributing += 1
            if acc is not None:
                f = 1.0 / contributing
                g = Gradient([f * v for v in acc.dW], f * acc.db)
                m = tr.call("trainer.sgd_step", trainer.sgd_step, m, g, cfg.learning_rate)
        out.curve.append(tr.call("trainer.mean_loss", trainer.mean_loss, m, dataset))
        tr.end(epoch)
    out.grads = len(out.passes)
    return out


def _steps_to_target(curve: list[float], target: float) -> int | None:
    return next((i + 1 for i, loss in enumerate(curve) if loss < target), None)


class XorMlpSeeded:
    """2-4-1 sigmoid MLP (P=17) on XOR, ``seeded`` engine, per-sample SGD.

    The seed jitters a fixed init (``TrainConfig`` seed 0, known to reach the
    target near epoch 500) by up to ``JITTER`` per parameter, so every seed
    gives a different input of about the same training length.
    """

    name = "xor_mlp_seeded"
    engine_span = "model.grad_seeded"
    compute_span = "trainer.train"
    TARGET = 0.05
    EPOCHS = 600
    JITTER = 0.02
    FD_CHECKS = 4
    grads_per_unit = EPOCHS * len(XOR.samples)

    def __init__(self, seed: int, out_dir: Path):
        self.cfg = TrainConfig(dataset="xor", engine="seeded", learning_rate=0.5,
                               epochs=self.EPOCHS, hidden=(4,), rng_seed=0)
        self.dataset = XOR
        rng = np.random.default_rng(seed)
        base = trainer.init_model(self.cfg, XOR.feature_width, np.random.default_rng(0))

        def jitter(values):
            return [v + float(rng.uniform(-self.JITTER, self.JITTER)) for v in values]

        self.model = Mlp([Layer([jitter(r) for r in lay.W], jitter(lay.b), lay.act)
                          for lay in base.layers])
        self.fd_steps = {int(k) for k in rng.choice(self.grads_per_unit, self.FD_CHECKS, replace=False)}
        self.curve = None
        self.act = self.model.layers[0].act
        for s in XOR.samples:  # warm-up
            model.grad_seeded(self.model, s)

    def probe_inputs(self):
        """A perceptron (the first hidden unit), a sample and the dataset."""
        first = self.model.layers[0]
        return Perceptron(first.W[0], first.b[0], first.act), XOR.samples[1], XOR

    def operands(self) -> list[float]:
        vals = [w for lay in self.model.layers for row in lay.W for w in row]
        vals += [b for lay in self.model.layers for b in lay.b]
        return vals + [x for s in XOR.samples for x in s.x]

    def unit(self, tr) -> UnitResult:
        t0 = perf_counter_ns()
        log = tr.call("trainer.train", trainer.train, self.cfg, self.dataset, self.model)
        wall_s = (perf_counter_ns() - t0) / 1e9
        curve = log.loss_curve()
        if self.curve is None:
            self.curve = curve
        ok = not log.diverged and log.final_loss < self.TARGET and curve == self.curve
        grads = self.grads_per_unit
        return UnitResult(wall_s, [r.wall_ms for r in log.records],
                          _steps_to_target(curve, self.TARGET), grads, 0 if ok else grads)

    def traced_unit(self, tr) -> TracedResult:
        return replay_training(tr, self.cfg, self.dataset, self.model, model.grad_seeded,
                               self.engine_span, self.fd_steps)

    def check(self) -> bool:
        """Untimed: sampled steps match finite differences and the replay matches ``train``."""
        replay = self.traced_unit(NullTracer())
        return replay.failed == 0 and replay.curve == self.curve


class WideGradSeeded:
    """``grad_seeded`` on width-128 perceptrons (129 passes each), no trainer.

    Inputs come from ``dualgrad.bench``. A unit is one gradient per generated
    pair, each checked against ``grad_backprop``; its target is met when all
    ``PAIRS`` gradients are verified.
    """

    name = "wide_grad_seeded"
    engine_span = "model.grad_seeded"
    compute_span = "run.untraced"
    WIDTH = 128
    PAIRS = 16
    grads_per_unit = PAIRS

    def __init__(self, seed: int, out_dir: Path):
        rng = np.random.default_rng(seed)
        self.pairs = [(bench.guarded_perceptron(self.WIDTH, rng), bench.random_sample(self.WIDTH, rng))
                      for _ in range(self.PAIRS)]
        self.act = self.pairs[0][0].act
        model.grad_seeded(*self.pairs[0])  # warm-up

    def probe_inputs(self):
        m, s = self.pairs[0]
        return m, s, Dataset("wide", self.WIDTH, [s for _, s in self.pairs])

    def operands(self) -> list[float]:
        m, s = self.pairs[0]
        return [*m.W, m.b, *s.x]

    def unit(self, tr) -> UnitResult:
        steps = []
        failed = 0
        start = perf_counter_ns()
        for m, s in self.pairs:
            t0 = perf_counter_ns()
            g = model.grad_seeded(m, s)
            steps.append((perf_counter_ns() - t0) / 1e6)
            if not oracle.compare(g, oracle.grad_backprop(m, s), SEEDED_TOL).passed:
                failed += 1
        wall_s = (perf_counter_ns() - start) / 1e9
        return UnitResult(wall_s, steps, self.PAIRS, self.PAIRS, failed)

    def check(self) -> bool:
        return True  # every unit checks each of its gradients

    def traced_unit(self, tr) -> TracedResult:
        out = TracedResult(grads=0, failed=0)
        for m, s in self.pairs:
            step = tr.begin("step")
            g = _call_engine(tr, self.engine_span, model.grad_seeded, m, s, out)
            ref = tr.call("oracle.grad_backprop", oracle.grad_backprop, m, s)
            if not tr.call("oracle.compare", oracle.compare, g, ref, SEEDED_TOL).passed:
                out.failed += 1
            tr.end(step)
        out.grads = len(out.passes)
        return out


@contextlib.contextmanager
def _spans_inside_cli(tr):
    """Span the trainer calls ``cli.main`` makes, by wrapping the module attributes."""
    spans = {"train": "trainer.train", "write_log_json": "cli.io", "write_log_csv": "cli.io"}
    saved = {attr: getattr(trainer, attr) for attr in spans}
    try:
        for attr, span in spans.items():
            setattr(trainer, attr, functools.partial(tr.call, span, saved[attr]))
        yield
    finally:
        for attr, fn in saved.items():
            setattr(trainer, attr, fn)


class Line2dCli:
    """``dualgrad train`` on the 64-point ``line2d`` set, run in-process.

    The seed picks the CLI ``--seed`` from the ones whose final loss this
    commit recorded in ``reference.json``.
    """

    EPOCHS = 2000
    LR = 0.5
    compute_span = "trainer.train"

    def __init__(self, seed: int, out_dir: Path):
        refs = json.loads(REFERENCE_FILE.read_text())[self.name]
        self.cli_seed = seed % len(refs)
        self.reference = refs[self.cli_seed]
        self.out = out_dir / f"{self.name}-{seed}"
        self.argv = ["train", "--dataset", "line2d", "--engine", self.engine, "--batch", self.batch,
                     "--lr", repr(self.LR), "--epochs", str(self.EPOCHS),
                     "--seed", str(self.cli_seed), "--out", str(self.out)]
        self.cfg = self.config(self.cli_seed)
        self.dataset = trainer.builtin_dataset("line2d")
        self.grads_per_unit = self.EPOCHS * len(self.dataset.samples)
        self.init = trainer.init_model(self.cfg, self.dataset.feature_width,
                                       np.random.default_rng(self.cli_seed))
        self.act = self.init.act
        self.curve = None
        for s in self.dataset.samples:  # warm-up
            self.engine_fn(self.init, s)

    @classmethod
    def config(cls, cli_seed: int) -> TrainConfig:
        """The ``TrainConfig`` that the CLI flags above produce."""
        return TrainConfig(dataset="line2d", engine=cls.engine, learning_rate=cls.LR,
                           epochs=cls.EPOCHS, batch_mode=cls.batch, rng_seed=cli_seed)

    def probe_inputs(self):
        return self.init, self.dataset.samples[0], self.dataset

    def operands(self) -> list[float]:
        return [*self.init.W, self.init.b] + [x for s in self.dataset.samples for x in s.x]

    def unit(self, tr) -> UnitResult:
        patch = _spans_inside_cli(tr) if tr.enabled else contextlib.nullcontext()
        with patch, contextlib.redirect_stdout(io.StringIO()):
            t0 = perf_counter_ns()
            code = tr.call("cli.main", cli.main, self.argv)
            wall_s = (perf_counter_ns() - t0) / 1e9
        grads = self.grads_per_unit
        if code != 0:
            return UnitResult(wall_s, [wall_s * 1e3], None, grads, grads)
        log = json.loads((self.out / "log.json").read_text())
        curve = [r["mean_loss"] for r in log["records"]]
        wall_ms = [r["wall_ms"] for r in log["records"]]
        if self.curve is None:
            self.curve = curve
        ok = (
            log["singular_skips"] == 0
            and not log["diverged"]
            and len(curve) == self.EPOCHS
            and math.isclose(curve[-1], self.reference, rel_tol=REFERENCE_TOL, abs_tol=0.0)
            and curve == self.curve
        )
        return UnitResult(wall_s, wall_ms, _steps_to_target(curve, self.TARGET), grads,
                          0 if ok else grads)

    def traced_unit(self, tr) -> TracedResult:
        out = replay_training(tr, self.cfg, self.dataset, self.init, self.engine_fn, self.engine_span)
        out.failed = out.singular
        return out

    def check(self) -> bool:
        return True  # every unit checks its exit code, skips and final loss


class Line2dOnesCli(Line2dCli):
    """Single-pass ``ones`` rule, per-sample SGD: dual arithmetic, 1 pass per gradient."""

    name = "line2d_ones_cli"
    engine = "ones"
    batch = "per_sample"
    engine_span = "model.grad_ones"
    engine_fn = staticmethod(model.grad_ones)
    TARGET = 5e-5  # reached near epoch 373 from every init tried


class Line2dBackpropBatch(Line2dCli):
    """``backprop`` with full-batch SGD: no dual arithmetic at all."""

    name = "line2d_backprop_batch"
    engine = "backprop"
    batch = "full_batch"
    engine_span = "oracle.grad_backprop"
    engine_fn = staticmethod(oracle.grad_backprop)
    TARGET = 1e-3  # reached near epoch 1160 from every init tried


WORKLOADS = {w.name: w for w in (XorMlpSeeded, WideGradSeeded, Line2dOnesCli, Line2dBackpropBatch)}


def ring_op_ns(values: list[float], act: str, size: int = 256, reps: int = 40) -> dict[str, float]:
    """Median ns per public ring op and per lifted activation, on workload operands.

    Each figure includes one loop iteration and one call, like the calls a
    forward pass makes.
    """
    vals = (values * (size // len(values) + 1))[:size]
    a = [Dual(v, 1.0) for v in vals]
    b = [Dual(v, 0.0) for v in reversed(vals)]
    cases = {
        "dual.new_ns": (Dual, [(v, 1.0) for v in vals]),
        "dual.mul_ns": (operator.mul, list(zip(a, b))),
        "dual.add_ns": (operator.add, list(zip(a, b))),
        "functions.act_ns": (getattr(functions, act), [(x,) for x in a]),
    }
    out = {}
    for name, (fn, args) in cases.items():
        per_op = []
        for _ in range(reps):
            t0 = perf_counter_ns()
            for arg in args:
                fn(*arg)
            per_op.append((perf_counter_ns() - t0) / size)
        out[name] = statistics.median(per_op)
    return out


def standalone_us(m: Perceptron, s: Sample, dataset: Dataset, reps: int = 200) -> dict[str, float]:
    """Median us per call of the oracle and trainer calls, on workload inputs.

    Used for the calls a workload never makes itself, so that every
    per-layer timing is a measured figure.
    """
    g = oracle.grad_backprop(m, s)
    calls = {
        "oracle.grad_backprop": (oracle.grad_backprop, m, s),
        "oracle.compare": (oracle.compare, g, g, SEEDED_TOL),
        "trainer.sgd_step": (trainer.sgd_step, m, g, 0.5),
        "trainer.mean_loss": (trainer.mean_loss, m, dataset),
    }
    out = {}
    for name, (fn, *args) in calls.items():
        times = []
        for _ in range(reps):
            t0 = perf_counter_ns()
            fn(*args)
            times.append(perf_counter_ns() - t0)
        out[name] = statistics.median(times) / 1e3
    return out
