"""Datasets, SGD updates, the training loop, and log export."""

import csv
import dataclasses
import importlib.util
import inspect
import io
import itertools
import json
import math
import random
import re
from pathlib import Path

import numpy as np
import pytest

from dualgrad import model as md
from dualgrad import bench, cli, oracle, trainer
from dualgrad.dual import NonFinite
from dualgrad.model import Gradient, Layer, LayerGradient, Mlp, MlpGradient, Perceptron, Sample
from dualgrad.trainer import Dataset, EpochRecord, TrainConfig, TrainLog
from helpers import summed

_spec = importlib.util.spec_from_file_location(
    "digest", Path(__file__).resolve().parent.parent / "tools" / "digest.py")
digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(digest)


# --- builtin datasets ---------------------------------------------------------


def test_and_truth_table():
    ds = trainer.builtin_dataset("and")
    assert ds.feature_width == 2 and len(ds.samples) == 4
    assert [(tuple(s.x), s.y) for s in ds.samples] == [
        ((0.0, 0.0), 0.0),
        ((0.0, 1.0), 0.0),
        ((1.0, 0.0), 0.0),
        ((1.0, 1.0), 1.0),
    ]


def test_or_and_nand_tables():
    assert [s.y for s in trainer.builtin_dataset("or").samples] == [0.0, 1.0, 1.0, 1.0]
    assert [s.y for s in trainer.builtin_dataset("nand").samples] == [1.0, 1.0, 1.0, 0.0]


def test_line2d_is_separable():
    ds = trainer.builtin_dataset("line2d")
    assert len(ds.samples) == 64
    # labels come from the half-plane x1 + x2 > 0, with a real margin
    for s in ds.samples:
        assert s.y == (1.0 if s.x[0] + s.x[1] > 0 else 0.0)
    assert min(abs(s.x[0] + s.x[1]) for s in ds.samples) > 0.1
    assert sum(s.y for s in ds.samples) == 32.0


def test_unknown_dataset_rejected():
    with pytest.raises(ValueError):
        trainer.builtin_dataset("xor3")


def test_dataset_validation():
    with pytest.raises(ValueError):
        Dataset("empty", 2, [])
    with pytest.raises(ValueError):
        Dataset("ragged", 2, [Sample([1.0], 0.0)])


# --- csv ingestion --------------------------------------------------------------


def test_load_csv_roundtrip(tmp_path):
    path = tmp_path / "toy.csv"
    path.write_text("x1,x2,y\n0.5,-1.25,1\n2,3,0\n")
    ds = trainer.load_csv_dataset(path)
    assert ds.name == "toy" and ds.feature_width == 2
    assert [(tuple(s.x), s.y) for s in ds.samples] == [((0.5, -1.25), 1.0), ((2.0, 3.0), 0.0)]


def test_load_csv_rejects_ragged_rows(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x1,x2,y\n1,2,3\n1,2\n")
    with pytest.raises(ValueError, match="columns"):
        trainer.load_csv_dataset(path)


def test_load_csv_requires_header(tmp_path):
    path = tmp_path / "noheader.csv"
    path.write_text("0.5,1.25,1\n2,3,0\n")
    with pytest.raises(ValueError, match="header"):
        trainer.load_csv_dataset(path)


def test_load_csv_rejects_non_numeric(tmp_path):
    path = tmp_path / "text.csv"
    path.write_text("x1,y\nabc,1\n")
    with pytest.raises(ValueError):
        trainer.load_csv_dataset(path)


def test_load_csv_reports_a_non_utf8_byte_at_its_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_bytes(b"x1,x2,y\n0,\xff1,1\n")
    message = "bad.csv:2: byte 0xff is not UTF-8 (invalid start byte)"
    with pytest.raises(ValueError, match=re.escape(message)):
        trainer.load_csv_dataset(path)


def test_load_csv_errors_name_the_file_line_after_a_quoted_newline(tmp_path):
    path = tmp_path / "ml.csv"
    path.write_text('x1,y\n"1\n",0\n2,abc\n')
    message = "ml.csv:4: could not convert string to float: 'abc'"
    with pytest.raises(ValueError, match=re.escape(message)):
        trainer.load_csv_dataset(path)
    path.write_text('x1,y\n"1\n",0\n2\n')
    with pytest.raises(ValueError, match=re.escape("ml.csv:4: expected 2 columns, got 1")):
        trainer.load_csv_dataset(path)


@pytest.mark.parametrize("eol", [b"\r", b"\r\n", b"\n"])
def test_a_bad_byte_and_a_bad_row_count_file_lines_alike(eol, tmp_path):
    # \r\n, \r and \n each end a line, for the bytes and the csv reader alike
    path = tmp_path / "eol.csv"
    path.write_bytes(eol.join([b"x1,y", b"1,0", b"2,\xff", b""]))
    with pytest.raises(ValueError, match=re.escape("eol.csv:3: byte 0xff is not UTF-8")):
        trainer.load_csv_dataset(path)
    path.write_bytes(eol.join([b"x1,y", b"1,0", b"2,abc", b""]))
    with pytest.raises(ValueError, match=re.escape("eol.csv:3: could not convert")):
        trainer.load_csv_dataset(path)


def test_load_csv_accepts_a_leading_byte_order_mark(tmp_path):
    path = tmp_path / "bom.csv"
    path.write_bytes(b"\xef\xbb\xbfx1,x2,y\n0.5,-1.25,1\n")
    ds = trainer.load_csv_dataset(path)
    assert ds.feature_width == 2 and [(s.x, s.y) for s in ds.samples] == [([0.5, -1.25], 1.0)]
    # the mark shifts no line number
    path.write_bytes(b"\xef\xbb\xbfx1,y\n\xff,1\n")
    message = "bom.csv:2: byte 0xff is not UTF-8 (invalid start byte)"
    with pytest.raises(ValueError, match=re.escape(message)):
        trainer.load_csv_dataset(path)
    path.write_bytes(b"\xef\xbb\xbfa\n\xff")
    with pytest.raises(ValueError, match=re.escape("bom.csv:2: byte 0xff")):
        trainer.read_utf8(path)


def test_load_csv_reports_nonfinite_cell_location(tmp_path):
    path = tmp_path / "nan.csv"
    path.write_text("x1,x2,y\n1,2,0\nnan,2,1\n")
    with pytest.raises(ValueError, match=r"nan\.csv:3: sample features must be finite"):
        trainer.load_csv_dataset(path)
    path.write_text("x1,y\n1,inf\n")
    with pytest.raises(ValueError, match=r"nan\.csv:2: sample target must be finite"):
        trainer.load_csv_dataset(path)


def test_resolve_dataset_missing_file():
    with pytest.raises(FileNotFoundError):
        trainer.resolve_dataset("nosuch.csv")


# --- sgd updates ------------------------------------------------------------------


def test_sgd_step_zero_gradient_is_fixed_point():
    m = Perceptron([1.0, -2.0], 0.5)
    m2 = trainer.sgd_step(m, Gradient([0.0, 0.0], 0.0), 0.5)
    assert m2.W == m.W and m2.b == m.b


def test_sgd_step_arithmetic():
    m = Perceptron([1.0, 1.0], 0.0)
    m2 = trainer.sgd_step(m, Gradient([0.5, -0.5], 0.25), 1.0)
    assert m2.W == [0.5, 1.5] and m2.b == -0.25


def test_sgd_two_steps_accumulate():
    m = Perceptron([1.0], 0.0, "identity")
    g = Gradient([0.25], 0.1)
    m2 = trainer.sgd_step(trainer.sgd_step(m, g, 0.5), g, 0.5)
    assert m2.W == [1.0 - 2 * 0.5 * 0.25]
    assert m2.b == -2 * 0.5 * 0.1


def test_sgd_step_shape_mismatch():
    with pytest.raises(ValueError):
        trainer.sgd_step(Perceptron([1.0, 2.0], 0.0), Gradient([1.0], 0.0), 0.5)


def test_sgd_step_mlp():
    mlp = Mlp([Layer([[1.0, 1.0]], [0.0], "identity")])
    g = MlpGradient([LayerGradient([[0.5, -0.5]], [1.0])])
    out = trainer.sgd_step(mlp, g, 1.0)
    assert out.layers[0].W == [[0.5, 1.5]] and out.layers[0].b == [-1.0]


def test_sgd_step_rejects_mlp_gradient_of_another_input_width():
    # a 3-2-1 model must not come back 2-2-1 from a gradient with 2-entry rows
    mlp = Mlp([
        Layer([[0.1, 0.2, 0.3], [0.4, 0.5, 0.6]], [0.0, 0.0]),
        Layer([[0.7, 0.8]], [0.0]),
    ])
    g = MlpGradient([
        LayerGradient([[1.0, 1.0], [1.0, 1.0]], [1.0, 1.0]),
        LayerGradient([[1.0, 1.0]], [1.0]),
    ])
    with pytest.raises(ValueError, match="shape"):
        trainer.sgd_step(mlp, g, 0.5)
    with pytest.raises(ValueError):
        LayerGradient([[1.0, 1.0], [1.0]], [1.0, 1.0])  # ragged rows have no layout


@pytest.mark.parametrize("lr", [math.nan, math.inf, 0.0, -1.0])
def test_sgd_step_rejects_bad_learning_rate_as_a_bad_argument(lr):
    m = Perceptron([0.1, 0.2], 0.0)
    g = Gradient([1.0, 1.0], 1.0)
    with pytest.raises(ValueError, match="learning rate") as exc:
        trainer.sgd_step(m, g, lr)
    assert not isinstance(exc.value, NonFinite)  # train would read NonFinite as divergence


@pytest.mark.parametrize("name", trainer.ENGINES)
def test_every_engines_sgd_refuses_what_sgd_step_refuses(name):
    sgd = trainer.ENGINES[name].sgd
    good = Sample([1.0, 0.5], 1.0)
    spec = trainer.stepwise(summed(trainer.ENGINES[name].grad))
    # sum(W) = 0.1: the ones rule is defined; sum(W) = 0: ones skips every batch
    for m in (Perceptron([0.3, -0.2], 0.1), Perceptron([0.5, -0.5], 0.0)):
        def refused(batches, lr, text):
            with pytest.raises(ValueError) as exc:
                sgd(m, batches, lr)
            assert type(exc.value) is ValueError and str(exc.value) == text  # no NonFinite: no divergence

        for lr in (0.0, -1.0, math.nan, math.inf):
            md.reset_pass_count()
            refused([[good], [good]], lr, f"learning rate must be positive and finite, got {lr}")
            assert md.pass_count() == 0  # refused before any pass
        for width in (1, 3):
            wrong = Sample([0.5] * width, 1.0)
            for batches in ([[good], [wrong]], [[good, wrong]]):
                md.reset_pass_count()
                with pytest.raises(ValueError):
                    spec(m, batches, 0.5)
                passes = md.pass_count()
                md.reset_pass_count()
                refused(batches, 0.5, f"expected 2 features, got {width}")
                assert md.pass_count() == passes, (m, batches)  # the passes before the wrong sample


@pytest.mark.parametrize("bad", [math.inf, math.nan, 0.0])
def test_step_sizes_name_the_condition_they_fail(bad):
    m = Perceptron([0.1, 0.2], 0.0)
    with pytest.raises(ValueError, match="learning rate must be positive and finite"):
        trainer.sgd_step(m, Gradient([1.0, 1.0], 1.0), bad)
    with pytest.raises(ValueError, match="learning rate must be positive and finite"):
        TrainConfig(learning_rate=bad)
    with pytest.raises(ValueError, match="init range must be positive and finite"):
        TrainConfig(init_range=bad)


# --- config validation ---------------------------------------------------------------


def test_config_rejects_bad_values():
    with pytest.raises(ValueError):
        TrainConfig(epochs=0)
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=0.0)
    with pytest.raises(ValueError):
        TrainConfig(engine="magic")
    with pytest.raises(ValueError):
        TrainConfig(batch_mode="minibatch")
    with pytest.raises(ValueError):
        TrainConfig(init_range=-1.0)
    with pytest.raises(ValueError, match=re.escape("hidden widths must be >= 1, got (0,)")):
        TrainConfig(hidden=(0,), engine="seeded")


@pytest.mark.parametrize("field, value, message", [
    ("epochs", 2.5, "epochs must be an integer, got 2.5"),  # not a bare TypeError from range()
    ("rng_seed", 1.5, "rng seed must be an integer, got 1.5"),  # nor one from numpy
    ("hidden", "12", "hidden width must be an integer, got '1'"),  # not the widths (1, 2)
    ("epochs", True, "epochs must be an integer, got True"),  # not 1 epoch
    ("hidden", (True,), "hidden width must be an integer, got True"),  # not a width-1 layer
])
def test_config_rejects_non_integral_counts(field, value, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        TrainConfig(engine="seeded", **{field: value})


@pytest.mark.parametrize("field, value, message", [
    ("shuffle", "no", "shuffle must be a bool, got 'no'"),  # not truthy, so shuffling
    ("shuffle", 1, "shuffle must be a bool, got 1"),
    ("learning_rate", "0.5", "learning rate must be a real number, got '0.5'"),  # not a bare
    ("learning_rate", None, "learning rate must be a real number, got None"),  # TypeError from >
    ("init_range", "0.5", "init range must be a real number, got '0.5'"),
    ("init_range", None, "init range must be a real number, got None"),
    ("learning_rate", True, "learning rate must be a real number, got True"),
    ("hidden", 12, "hidden must be a sequence of widths, got 12"),  # not 'int' is not iterable
    ("dataset", 5, "dataset must be a string, got 5"),
    ("engine", ["seeded"], "engine must be a string, got ['seeded']"),
    ("batch_mode", None, "batch mode must be a string, got None"),
    ("activation", 0, "activation must be a string, got 0"),
])
def test_config_checks_every_fields_type(field, value, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        TrainConfig(**{"engine": "seeded", field: value})


def test_config_accepts_numpy_integers_as_ints():
    cfg = TrainConfig(epochs=np.int64(3), rng_seed=np.uint8(4), hidden=(np.int32(2),),
                      engine="seeded")
    assert (cfg.epochs, cfg.rng_seed, cfg.hidden) == (3, 4, (2,))
    assert type(cfg.epochs) is int and type(cfg.rng_seed) is int and type(cfg.hidden[0]) is int
    assert json.loads(json.dumps(cfg.to_dict()))["epochs"] == 3


def test_train_refuses_a_model_of_another_width():
    with pytest.raises(ValueError, match="model width 1 does not match dataset width 2"):
        trainer.train(TrainConfig(dataset="and"), model=Perceptron([1.0], 0.0))


def test_single_epoch_yields_single_record():
    log = trainer.train(TrainConfig(dataset="and", epochs=1))
    assert len(log.records) == 1
    assert log.records[0].epoch == 1


# --- training behavior ------------------------------------------------------------------


def test_training_is_deterministic():
    cfg = dict(dataset="line2d", engine="seeded", epochs=50, rng_seed=9, shuffle=True)
    a = trainer.train(TrainConfig(**cfg))
    b = trainer.train(TrainConfig(**cfg))
    assert a.final_model == b.final_model
    assert [(r.epoch, r.mean_loss, r.grad_norm) for r in a.records] == [
        (r.epoch, r.mean_loss, r.grad_norm) for r in b.records
    ]


def test_line2d_loss_decreases():
    cfg = TrainConfig(
        dataset="line2d", engine="backprop", learning_rate=0.1,
        epochs=200, batch_mode="full_batch", rng_seed=0,
    )
    log = trainer.train(cfg)
    assert log.records[-1].mean_loss < log.records[0].mean_loss


def test_singular_steps_are_skipped_and_counted():
    # weights summing to exactly zero make every shared-seed step singular
    m = Perceptron([0.5, -0.5], 0.0)
    log = trainer.train(
        TrainConfig(dataset="and", engine="ones", epochs=3),
        dataset=trainer.builtin_dataset("and"),
        model=m,
    )
    assert log.singular_skips == 12  # 3 epochs x 4 samples
    assert len(log.records) == 3
    assert not log.diverged
    assert log.final_model["W"] == [0.5, -0.5]


def test_divergence_flags_and_stops():
    cfg = TrainConfig(
        dataset="line2d", engine="backprop", learning_rate=1e18,
        epochs=50, rng_seed=0, activation="identity",
    )
    log = trainer.train(cfg)
    assert log.diverged
    assert len(log.records) < 50


@pytest.mark.parametrize("engine", ["seeded", "ones"])
def test_nonfinite_pass_marks_the_run_diverged(engine):
    # a saturated sigmoid hides the overflow from the loss; the pass reports it
    m = Perceptron([1e308, 1e308], 0.0, "sigmoid")
    ds = Dataset("saturated", 2, [Sample([10.0, 10.0], 1.0)])
    log = trainer.train(TrainConfig(engine=engine, epochs=5), dataset=ds, model=m)
    assert log.diverged
    assert log.records == []


@pytest.mark.parametrize("w, x", [(1.0, 1e200), (1e-10, 1e160)])
def test_seeded_loss_overflow_marks_the_run_diverged(w, x):
    # the weight's gradient entry 2*d*x overflows and raises NonFinite,
    # whether the square d**2 overflows too (d = -1e200) or not (d = -1e150)
    cfg = TrainConfig(engine="seeded", activation="identity", epochs=3)
    dataset = Dataset("big", 1, [Sample([x], 0.0)])
    log = trainer.train(cfg, dataset, Perceptron([w], 0.0, "identity"))
    assert log.diverged and log.records == []


def _reject_constant(name):
    raise ValueError(f"log.json holds the non-JSON constant {name}")


def test_a_nonfinite_epoch_loss_is_divergence_and_not_recorded(tmp_path):
    # the first step leaves finite parameters whose mean loss overflows;
    # every engine ends the run there, with the same strict-JSON log
    csv_path = tmp_path / "big.csv"
    csv_path.write_text("x1,x2,y\n0.5,0.5,1e200\n1.0,0.0,0.0\n")
    docs = {}
    for engine in trainer.ENGINES:
        log = trainer.train(TrainConfig(dataset=str(csv_path), engine=engine, epochs=3))
        assert log.diverged and log.records == []
        trainer.write_log_json(log, tmp_path / "log.json")
        doc = json.loads((tmp_path / "log.json").read_text(), parse_constant=_reject_constant)
        docs[engine] = {k: v for k, v in doc.items() if k != "config"}
        # dualgrad train exits 1 on that run and writes the same strict log
        out = tmp_path / engine
        argv = ["train", "--dataset", str(csv_path), "--engine", engine, "--epochs", "3", "--out", str(out)]
        assert cli.main(argv) == cli.CHECK_FAILED == 1
        written = json.loads((out / "log.json").read_text(), parse_constant=_reject_constant)
        assert {k: v for k, v in written.items() if k != "config"} == docs[engine]
    assert docs["ones"] == docs["seeded"] == docs["backprop"]


def test_plain_value_error_is_not_divergence(monkeypatch):
    def broken(m, s):
        raise ValueError("a programming error, not a diverging run")

    monkeypatch.setitem(trainer.ENGINES, "seeded", trainer.Engine(broken, trainer.stepwise(broken)))
    with pytest.raises(ValueError, match="programming error") as exc:
        trainer.train(TrainConfig(dataset="and", engine="seeded", epochs=3))
    assert not isinstance(exc.value, NonFinite)


def test_full_batch_takes_mean_gradient_step():
    ds = trainer.builtin_dataset("and")
    cfg = TrainConfig(dataset="and", engine="backprop", epochs=1,
                      batch_mode="full_batch", rng_seed=5)
    log = trainer.train(cfg)

    import numpy as np

    m0 = trainer.init_model(cfg, 2, np.random.default_rng(5))
    grads = [oracle.grad_backprop(m0, s) for s in ds.samples]
    mean_dW = [sum(g.dW[i] for g in grads) / 4 for i in range(2)]
    mean_db = sum(g.db for g in grads) / 4
    expected = trainer.sgd_step(m0, Gradient(mean_dW, mean_db), cfg.learning_rate)
    assert log.final_model["W"] == pytest.approx(expected.W, rel=1e-12)
    assert log.final_model["b"] == pytest.approx(expected.b, rel=1e-12)


def test_mlp_training_runs():
    xor = Dataset("xor", 2, [
        Sample([0.0, 0.0], 0.0), Sample([0.0, 1.0], 1.0),
        Sample([1.0, 0.0], 1.0), Sample([1.0, 1.0], 0.0),
    ])
    cfg = TrainConfig(dataset="xor", engine="seeded", epochs=50, rng_seed=0, hidden=(2,))
    log = trainer.train(cfg, dataset=xor)
    assert len(log.records) == 50
    assert log.final_model["kind"] == "mlp"
    assert math.isfinite(log.final_loss)


# --- the engine registry and the batch functions -----------------------------------------

PER_SAMPLE = {"ones": md.grad_ones, "seeded": md.grad_seeded, "backprop": oracle.grad_backprop}
# The functions that batch: summed per-sample rules and the oracle's own batch loop.
BATCH = {"ones": summed(md.grad_ones), "seeded": summed(md.grad_seeded),
         "backprop": oracle.grad_backprop_batch}


def guarded_perceptron(rng, n):
    """``bench.guarded_perceptron`` under an activation drawn from the same generator."""
    m = bench.guarded_perceptron(n, rng)
    return Perceptron(m.W, m.b, str(rng.choice(md.ACTIVATIONS)))


def random_batch(rng, n, size):
    return [Sample([float(v) for v in rng.uniform(-3, 3, n)], float(rng.uniform(0, 1)))
            for _ in range(size)]


def sample_order_mean(grads):
    """The mean of per-sample gradient entries as train summed them before batch engines."""
    acc = grads[0]
    for g in grads[1:]:
        acc = [a + b for a, b in zip(acc, g)]
    if len(grads) > 1:
        scale = 1.0 / len(grads)
        acc = [scale * v for v in acc]
    return acc


def test_every_engine_has_one_per_sample_rule():
    assert set(trainer.ENGINES) == set(PER_SAMPLE)
    for name, rule in PER_SAMPLE.items():
        assert trainer.ENGINES[name].grad is rule, name


def test_the_oracle_batch_is_the_sample_order_mean_of_its_gradients_bit_for_bit():
    rng = np.random.default_rng(60)
    for _ in range(60):
        n = int(rng.integers(1, 7))
        m = guarded_perceptron(rng, n)
        batch = random_batch(rng, n, int(rng.integers(1, 9)))
        g, skips = oracle.grad_backprop_batch(m, batch)
        want = sample_order_mean([oracle.grad_backprop(m, s).params for s in batch])
        assert skips == 0 and type(g) is Gradient and g.shapes == m.shapes
        assert [v.hex() for v in g.params] == [v.hex() for v in want]


def test_a_singular_sample_is_skipped_and_not_counted():
    rng = np.random.default_rng(61)
    m = guarded_perceptron(rng, 3)
    batch = random_batch(rng, 3, 3)
    singular = Perceptron([0.5, -0.5, 0.0], 0.1)  # sum(W) = 0

    def rule(m_, s):  # the middle sample meets the guard
        return md.grad_ones(singular if s is batch[1] else m_, s)

    g, skips = summed(rule)(m, batch)
    want = sample_order_mean([md.grad_ones(m, s).params for s in (batch[0], batch[2])])
    assert skips == 1
    assert [v.hex() for v in g.params] == [v.hex() for v in want]
    # one contributing sample gives its own gradient, unscaled
    g, skips = summed(rule)(m, batch[:2])
    assert skips == 1 and g == md.grad_ones(m, batch[0])
    # a batch of singular samples gives no gradient
    assert summed(md.grad_ones)(singular, batch) == (None, 3)


def test_a_batch_holding_an_overflowing_entry_raises_nonfinite_under_backprop():
    m = Perceptron([1.0], 0.0, "identity")
    # the middle sample's weight entry is 2e200 * 1e200; later adds keep it inf
    batch = [Sample([1.0], 0.0), Sample([1e200], 0.0), Sample([-1.0], 0.5)]
    with pytest.raises(NonFinite, match="gradient entries"):
        oracle.grad_backprop_batch(m, batch)
    with pytest.raises(NonFinite, match="gradient entries"):
        oracle.grad_backprop(m, batch[1])
    assert oracle.grad_backprop_batch(m, [batch[0], batch[2]])[0] is not None


@pytest.mark.parametrize("n, size", [(1, 1), (3, 5), (7, 8)])
def test_batch_pass_counts(n, size):
    rng = np.random.default_rng(62)
    m = guarded_perceptron(rng, n)
    batch = random_batch(rng, n, size)
    for name, passes in (("ones", size), ("backprop", size), ("seeded", size * (n + 1))):
        md.reset_pass_count()
        BATCH[name](m, batch)
        assert md.pass_count() == passes, name


def test_backprop_batch_keeps_the_per_sample_errors():
    m = Perceptron([1.0, 2.0], 0.0)
    md.reset_pass_count()
    with pytest.raises(ValueError, match="expected 2 features, got 3"):
        oracle.grad_backprop_batch(m, [Sample([1.0, 2.0], 0.0), Sample([1.0, 2.0, 3.0], 0.0)])
    assert md.pass_count() == 1  # the first sample's, as summed(grad_backprop) counts
    assert oracle.grad_backprop_batch(m, []) == (None, 0)


def test_the_backprop_batch_sum_keeps_a_negative_zero():
    # the first sample's -0.0 is copied, and -0.0 + -0.0 stays -0.0; a sum started at +0.0 would not
    m = Perceptron([0.0], 0.0, "identity")
    g, skips = oracle.grad_backprop_batch(m, [Sample([0.0], 1.0), Sample([0.0], 1.0)])
    assert skips == 0
    assert g.dW[0].hex() == (-0.0).hex()
    assert g.db == -2.0


def test_the_backprop_batch_sum_writes_into_no_sample():
    ds = trainer.builtin_dataset("line2d")
    before = [list(s.x) for s in ds.samples]
    m = trainer.init_model(TrainConfig(dataset="line2d"), ds.feature_width, np.random.default_rng(0))
    g, _ = oracle.grad_backprop_batch(m, ds.samples)
    assert all(g.params is not s.x for s in ds.samples)
    assert [list(s.x) for s in ds.samples] == before
    one, _ = oracle.grad_backprop_batch(m, ds.samples[:1])
    assert one.params is not ds.samples[0].x
    cfg = TrainConfig(dataset="line2d", engine="backprop", batch_mode="full_batch", epochs=3)
    assert len(trainer.train(cfg, ds).records) == 3
    assert [list(s.x) for s in ds.samples] == before


# --- the compiled SGD loop ----------------------------------------------------------------


@pytest.fixture
def generic(monkeypatch):
    """Each engine registered again as ``<name>-generic``, its per-sample rule run stepwise.

    ``Engine(rule, stepwise(summed(rule)))`` makes one ``summed`` call per
    batch, so these runs make exactly the per-sample calls that the
    compiled loop and the oracle's batch loop replace.
    """
    for name, engine in list(trainer.ENGINES.items()):
        stepped = trainer.Engine(engine.grad, trainer.stepwise(summed(engine.grad)))
        monkeypatch.setitem(trainer.ENGINES, f"{name}-generic", stepped)


def counted(engine, data=None, model=None, **kw):
    """train's log without wall times and engine name, as a repr that tells -0.0 from 0.0,
    and the passes the run counted."""
    md.reset_pass_count()
    doc = trainer.train(TrainConfig(engine=engine, **kw), data, model).to_dict()
    for record in doc["records"]:
        del record["wall_ms"]
    del doc["config"]["engine"]
    return repr(doc), md.pass_count()


def stepped_batch(sgd):
    """The batch function that ``sgd``, a ``trainer.stepwise`` loop, calls once per batch."""
    assert sgd.__qualname__ == trainer.stepwise(None).__qualname__
    return inspect.getclosurevars(sgd).nonlocals["batch"]


def test_the_forward_mode_engines_train_through_their_compiled_loop():
    assert all(isinstance(e, trainer.Engine) for e in trainer.ENGINES.values())
    for name in md._RULES:
        sgd = trainer.ENGINES[name].sgd
        assert (sgd.func, sgd.args, sgd.keywords) == (md.run_sgd, (), {"rule": name})
    backprop = trainer.ENGINES["backprop"]
    assert backprop.grad is oracle.grad_backprop
    assert stepped_batch(backprop.sgd) is oracle.grad_backprop_batch
    with pytest.raises(dataclasses.FrozenInstanceError):
        backprop.sgd = None


@pytest.mark.parametrize("name", trainer.ENGINES)
@pytest.mark.parametrize("batch", trainer.BATCH_MODES)
def test_train_makes_one_sgd_call_per_epoch(name, batch, monkeypatch):
    real = trainer.ENGINES[name]
    calls = []

    def sgd(m, batches, lr):
        calls.append(len(batches))
        return real.sgd(m, batches, lr)

    monkeypatch.setitem(trainer.ENGINES, "counting", trainer.Engine(real.grad, sgd))
    kw = dict(dataset="and", batch_mode=batch, shuffle=True, epochs=4, rng_seed=1)
    assert counted("counting", **kw) == counted(name, **kw)
    assert calls == [1 if batch == "full_batch" else 4] * 4


@pytest.mark.parametrize("batch", trainer.BATCH_MODES)
@pytest.mark.parametrize("shuffle", [False, True])
def test_each_epoch_shuffles_afresh_from_the_run_generator(batch, shuffle, monkeypatch):
    data = trainer.builtin_dataset("line2d")
    n = len(data.samples)
    index = {id(s): i for i, s in enumerate(data.samples)}
    calls = []

    def recording(m, samples):
        calls.append([index[id(s)] for s in samples])
        return oracle.grad_backprop_batch(m, samples)

    recorded = trainer.Engine(oracle.grad_backprop, trainer.stepwise(recording))
    monkeypatch.setitem(trainer.ENGINES, "recording", recorded)
    cfg = TrainConfig(dataset="line2d", engine="recording", batch_mode=batch, shuffle=shuffle,
                      epochs=4, rng_seed=5)
    assert not trainer.train(cfg, data).diverged
    # the order the run's generator gives after init_model's draws, shuffled each epoch
    rng = np.random.default_rng(5)
    trainer.init_model(cfg, data.feature_width, rng)
    expected = []
    for _ in range(cfg.epochs):
        order = list(range(n))
        if shuffle:
            rng.shuffle(order)
        expected.append(order)
    assert len({tuple(order) for order in expected}) == (cfg.epochs if shuffle else 1)
    assert len(calls) == (1 if batch == "full_batch" else n) * cfg.epochs
    flat = [i for call in calls for i in call]
    assert [flat[k:k + n] for k in range(0, len(flat), n)] == expected


def test_stepwise_returns_the_last_finite_model_and_the_failure():
    # the first step is finite (dW = db = 2); the second gradient's dW overflows
    m = Perceptron([1.0], 0.0, "identity")
    samples = [Sample([1.0], 0.0), Sample([1e200], 0.0)]
    sgd = trainer.stepwise(oracle.grad_backprop_batch)
    last, norm, skips, failure = sgd(m, [[s] for s in samples], 1.0)
    assert isinstance(failure, NonFinite)
    assert (last, norm, skips) == (Perceptron([-1.0], -2.0, "identity"), 2.0, 0)


@pytest.mark.parametrize("rule", trainer.ENGINES)
@pytest.mark.parametrize("dataset", ["and", "or", "line2d"])
@pytest.mark.parametrize("act", md.ACTIVATIONS)
def test_the_compiled_loop_traces_the_generic_loop_bit_for_bit(rule, dataset, act, generic):
    # backprop's loop is the oracle's batch loop, stepped; lr 1e6 makes the identity runs
    # diverge in the middle of an epoch
    for batch, shuffle, lr in itertools.product(trainer.BATCH_MODES, (False, True), (0.5, 1e6)):
        kw = dict(dataset=dataset, activation=act, batch_mode=batch, shuffle=shuffle,
                  learning_rate=lr, epochs=6, rng_seed=2)
        assert counted(rule, **kw) == counted(f"{rule}-generic", **kw), kw


@pytest.mark.parametrize("batch", trainer.BATCH_MODES)
@pytest.mark.parametrize("lr", [0.5, 1e6])
def test_the_compiled_loop_traces_the_generic_loop_on_a_hidden_layer(batch, lr, generic):
    cfg = TrainConfig(dataset="and", engine="seeded", hidden=(3,), activation="identity")
    mlp = trainer.init_model(cfg, 2, np.random.default_rng(4))
    kw = dict(dataset="and", hidden=(3,), batch_mode=batch, learning_rate=lr, epochs=6)
    and_ = trainer.builtin_dataset("and")
    assert counted("seeded", and_, mlp, **kw) == counted("seeded-generic", and_, mlp, **kw)


def test_an_engine_outside_the_single_layer_table_takes_hidden_layers(monkeypatch):
    # TrainConfig reads model.SINGLE_LAYER, not an engine name: a rule registered again
    # under a new name trains a hidden layer as it does under its own
    monkeypatch.setitem(trainer.ENGINES, "seeded-again", trainer.ENGINES["seeded"])
    kw = dict(dataset="and", hidden=(2,), epochs=3)
    assert counted("seeded-again", **kw) == counted("seeded", **kw)


@pytest.mark.parametrize("batch", trainer.BATCH_MODES)
def test_the_compiled_loop_keeps_singular_skips_and_signed_zeros(batch, generic):
    and_ = trainer.builtin_dataset("and")
    singular = Perceptron([0.5, -0.5], 0.0)
    for rule in md._RULES:
        kw = dict(dataset="and", batch_mode=batch, epochs=3)
        assert counted(rule, and_, singular, **kw) == counted(f"{rule}-generic", and_, singular, **kw)
    # ones' weight entry is -0.0 here, and -0.0 - 0.5 * -0.0 is +0.0
    zero = Dataset("zero", 2, [Sample([0.0, 1.0], 1.0), Sample([0.0, 0.5], 1.0)])
    m = Perceptron([-0.0, 1.0], 0.0)
    for rule in md._RULES:
        kw = dict(dataset="zero", batch_mode=batch, epochs=2)
        assert counted(rule, zero, m, **kw) == counted(f"{rule}-generic", zero, m, **kw)
    log = trainer.train(TrainConfig(engine="ones", batch_mode=batch, epochs=1), zero, m)
    assert math.copysign(1.0, log.final_model["W"][0]) == 1.0


@pytest.mark.parametrize("name", ["ones", "seeded", "backprop"])
def test_an_empty_batch_takes_no_step_and_counts_no_skip(name):
    sgd = trainer.engine(name).sgd
    last, norm, skips, failure = sgd(Perceptron([-0.0, 0.5], -0.0), [[]], 0.5)
    assert (repr(last.params), norm, skips, failure) == ("[-0.0, 0.5, -0.0]", 0.0, 0, None)
    # between nonempty batches it changes nothing, and a singular model skips none of it
    m, s = Perceptron([0.3, -0.7], 0.1, "tanh"), Sample([1.0, 2.0], 1.0)
    assert repr(sgd(m, [[s], [], [s, s]], 0.5)) == repr(sgd(m, [[s], [s, s]], 0.5))
    if name != "backprop":
        assert sgd(Perceptron([0.5, -0.5], 0.0), [[], [s]], 0.5)[2] == (1 if name == "ones" else 0)


def near_guard_sums():
    """±ONES_SEED_GUARD, 3 nextafter steps either side of each, and ±0.0."""
    for edge in (md.ONES_SEED_GUARD, -md.ONES_SEED_GUARD):
        t = edge
        for _ in range(3):
            t = math.nextafter(t, 0.0)
        for _ in range(7):
            yield t
            t = math.nextafter(t, 2 * edge)
    yield from (0.0, -0.0)


@pytest.mark.parametrize("batch", trainer.BATCH_MODES)
def test_the_compiled_loop_keeps_the_guard_and_the_norm_at_their_boundaries(batch, generic):
    # the first sample's largest |entry| is its negative weight entry; at
    # lr 1e-300 the steps leave sum(W) as it was, so every sample meets the guard
    data = Dataset("guard", 2, [Sample([-3.0, 0.5], 0.0), Sample([1.0, 2.0], 1.0),
                                Sample([0.25, -1.5], 1.0)])
    sums = list(near_guard_sums())
    assert len({t.hex() for t in sums}) == 16 and md.ONES_SEED_GUARD in sums
    for t in sums:
        m = Perceptron([t, -0.0], 0.0)
        assert sum(m.W) == t
        g = md.grad_seeded(m, data.samples[0]).params
        assert -min(g) > max(g)
        for rule, lr in itertools.product(md._RULES, (1e-300, 0.5)):
            kw = dict(dataset="guard", batch_mode=batch, learning_rate=lr, epochs=3)
            assert counted(rule, data, m, **kw) == counted(f"{rule}-generic", data, m, **kw), (t, kw)
        cfg = TrainConfig(engine="ones", batch_mode=batch, learning_rate=1e-300, epochs=3)
        skips = trainer.train(cfg, data, m).singular_skips
        assert skips == (9 if abs(t) < md.ONES_SEED_GUARD else 0), t


@pytest.mark.parametrize("batch", [*trainer.BATCH_MODES, "mixed"])
@pytest.mark.parametrize("name", trainer.ENGINES)
def test_each_engines_sgd_equals_its_stepwise_spec_on_random_nets(name, batch):
    # digest's overflow-prone nets and entries, batches of 1-4 samples and lr
    # up to 1e300: about a quarter of the runs stop on a NonFinite. "mixed"
    # runs batches of several sizes, an empty one among them, in one call.
    rng = random.Random(0)
    engine = trainer.engine(name)
    spec = trainer.stepwise(summed(engine.grad))
    for _ in range(600):
        m = digest.random_net(rng)
        samples = [Sample(digest.entries(rng, m.width), digest.entries(rng, 1)[0])
                   for _ in range(rng.randint(1, 4))]
        lr = rng.choice((0.5, 1e-3, 1e6, 1e300))
        if name in md.SINGLE_LAYER and not isinstance(m, Perceptron):
            continue
        batches = {"per_sample": [[s] for s in samples], "full_batch": [samples],
                   "mixed": [samples, samples[:1], [], samples[::-1]]}[batch]
        # the parameter bits, norm, skips, failure or exception, and passes
        got, want = (digest.outcome(sgd, m, batches, lr) for sgd in (engine.sgd, spec))
        assert got == want, (m, samples, lr)


def test_the_compiled_loops_call_no_python_function_per_unit_or_step():
    layouts = [(((n, 1),), (act,)) for n in (1, 3) for act in md.ACTIVATIONS]
    layouts.append((((2, 4), (4, 1)), ("tanh", "sigmoid")))
    for shapes, acts in layouts:
        kernel = md._kernel(shapes, acts)
        codes = [kernel.__code__, kernel.loss_sum.__code__]
        for rule in (r for r in md._RULES if len(shapes) == 1 or r not in md.SINGLE_LAYER):
            codes += [md._grad(shapes, acts, rule).__code__, md._sgd_loop(shapes, acts, rule).__code__]
        for code in codes:
            assert not {"abs", "max", "sum", "fn", "sigmoid_real"} & set(code.co_names), code.co_names
    # the input tangent of a width-128 perceptron sits in a one-byte local slot
    wide = ((128, 1),), ("sigmoid",)
    codes = [f(*wide, rule).__code__ for f in (md._grad, md._sgd_loop) for rule in md._RULES]
    for code in codes:
        assert code.co_varnames.index("dx") < 256
    # the seeded rule's passes append their entries in one stage, keeping no output tangent
    for f in (md._grad, md._sgd_loop):
        assert not [v for v in f(*wide, "seeded").__code__.co_varnames if v.startswith("yd")], f


def test_an_mlp_trained_with_ones_still_raises_the_shared_seed_error():
    and_ = trainer.builtin_dataset("and")
    mlp = Mlp([Layer([[0.5, 0.25], [0.1, -0.3]], [0.0, 0.1]), Layer([[1.0, 0.5]], [0.0])])
    with pytest.raises(TypeError, match="shared-seed rule is single-layer"):
        trainer.train(TrainConfig(dataset="and", engine="ones", epochs=2), and_, mlp)


def test_the_loop_compiles_on_a_layouts_first_train_use_only():
    m = Perceptron([0.3, -0.7, 0.2], 0.1, "tanh")
    ds = Dataset("d", 3, [Sample([1.0, 2.0, -1.0], 1.0), Sample([0.5, 0.0, 2.0], 0.0)])
    md._sgd_loop.cache_clear()
    md.grad_ones(m, ds.samples[0])
    md.grad_seeded(m, ds.samples[0])
    m.forward(ds.samples[0].x)
    trainer.mean_loss(m, ds)
    assert md._sgd_loop.cache_info()[:2] == (0, 0)  # (hits, misses)
    for _ in range(2):  # one lookup per epoch
        trainer.train(TrainConfig(engine="ones", epochs=2), ds, m)
    assert md._sgd_loop.cache_info()[:2] == (3, 1)
    trainer.train(TrainConfig(engine="seeded", epochs=2), ds, m)
    assert md._sgd_loop.cache_info()[:2] == (4, 2)
    assert md._sgd_loop.cache_info().maxsize == md.KERNEL_CACHE_SIZE


# --- pass counts of a training run --------------------------------------------------------


@pytest.mark.parametrize("batch", trainer.BATCH_MODES)
@pytest.mark.parametrize("engine, hidden, per_gradient", [
    ("ones", (), 1), ("seeded", (), 3), ("seeded", (3,), 3 * 2 + 3 + 3 + 1), ("backprop", (), 1),
])
def test_train_counts_one_gradients_passes_per_sample_and_epoch(engine, hidden, per_gradient,
                                                                 batch):
    _, passes = counted(engine, dataset="and", hidden=hidden, batch_mode=batch, epochs=5)
    assert passes == 5 * 4 * per_gradient


@pytest.mark.parametrize("batch", trainer.BATCH_MODES)
def test_singular_skips_count_no_pass(batch):
    and_ = trainer.builtin_dataset("and")
    singular = Perceptron([0.5, -0.5], 0.0)
    assert counted("ones", and_, singular, dataset="and", batch_mode=batch, epochs=3)[1] == 0
    assert counted("seeded", and_, singular, dataset="and", batch_mode=batch, epochs=3)[1] == 36


@pytest.mark.parametrize("engine", ["ones", "seeded", "backprop"])
def test_a_run_diverging_mid_epoch_counts_the_passes_of_its_per_sample_calls(engine, generic):
    kw = dict(dataset="line2d", activation="identity", learning_rate=1e6, epochs=3, rng_seed=2)
    doc, passes = counted(engine, **kw)
    assert (doc, passes) == counted(f"{engine}-generic", **kw)
    assert "'records': []" in doc and "'diverged': True" in doc
    assert 0 < passes < 64 * (3 if engine == "seeded" else 1)  # stopped inside epoch 1


# --- log export ------------------------------------------------------------------------


def test_log_json_round_trip(tmp_path):
    log = trainer.train(TrainConfig(dataset="and", epochs=5))
    path = tmp_path / "log.json"
    trainer.write_log_json(log, path)
    assert json.loads(path.read_text()) == log.to_dict()


def _trained_log(**kw) -> TrainLog:
    return trainer.train(TrainConfig(**kw))


def _odd_config_log() -> TrainLog:
    # config text that reads like the records key, plus -0.0 and a subnormal
    config = TrainConfig().to_dict()
    config["dataset"] = 'say "hi"\n\u00e9 \n  "records": [],\n'
    records = [EpochRecord(1, -0.0, 1e-320, 0.25), EpochRecord(2, 5e-324, 0.0, 1e300)]
    return TrainLog(config, records, {"kind": "\n  \"records\": [],\n"}, 2, False)


# Each builder gives a log and what it must show: (diverged, holds records).
LOGS = {
    "trained": (lambda: _trained_log(dataset="line2d", engine="ones", epochs=20, rng_seed=1),
                (False, True)),
    "diverged-empty": (lambda: _trained_log(dataset="line2d", activation="identity",
                                            learning_rate=1e6), (True, False)),
    "diverged-with-records": (lambda: _trained_log(dataset="and", activation="identity",
                                                   learning_rate=5.0, epochs=50), (True, True)),
    "nonfinite-records": (lambda: TrainLog(TrainConfig().to_dict(), [
        EpochRecord(1, math.nan, math.inf, -0.0), EpochRecord(2, 0.5, -math.inf, 1.5),
    ], diverged=True), (True, True)),
    "numpy-float-record": (lambda: TrainLog(TrainConfig().to_dict(), [
        EpochRecord(1, 0.5, np.float64(0.25), 1.5),
    ]), (False, True)),
    "odd-config-string": (_odd_config_log, (False, True)),
}


@pytest.fixture(params=list(LOGS))
def edge_log(request) -> TrainLog:
    build, shows = LOGS[request.param]
    log = build()
    assert (log.diverged, bool(log.records)) == shows
    return log


def test_log_json_is_the_indented_dump_byte_for_byte(edge_log, tmp_path):
    path = tmp_path / "log.json"
    trainer.write_log_json(edge_log, path)
    assert path.read_bytes() == (json.dumps(edge_log.to_dict(), indent=2) + "\n").encode()


def _csv_writer_log(log: TrainLog) -> bytes:
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(["epoch", "mean_loss", "grad_norm", "wall_ms"])
    for r in log.records:
        writer.writerow([r.epoch, *map(float.__repr__, (r.mean_loss, r.grad_norm, r.wall_ms))])
    return buf.getvalue().encode()


def test_log_csv_is_what_csv_writer_writes_byte_for_byte(edge_log, tmp_path):
    # \r\n line ends and float repr floats, none of which csv.writer quotes
    path = tmp_path / "log.csv"
    trainer.write_log_csv(edge_log, path)
    assert path.read_bytes() == _csv_writer_log(edge_log)


@pytest.mark.parametrize("value", [0.25, 1e16, 1e-05, 5e-324, 1 / 3, -0.0, 1.797e308])
def test_log_csv_writes_a_numpy_float_as_its_float_repr(value, tmp_path):
    v = np.float64(value)
    log = TrainLog(TrainConfig().to_dict(), [EpochRecord(1, v, v, v)])
    path = tmp_path / "log.csv"
    trainer.write_log_csv(log, path)
    cells = path.read_text().splitlines()[1].split(",")
    assert cells[1:] == [repr(float(v))] * 3
    assert [float(c) for c in cells[1:]] == [value] * 3


def test_log_csv_columns(tmp_path):
    log = trainer.train(TrainConfig(dataset="and", epochs=5))
    path = tmp_path / "log.csv"
    trainer.write_log_csv(log, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "epoch,mean_loss,grad_norm,wall_ms"
    assert len(lines) == 6
    first = lines[1].split(",")
    assert int(first[0]) == 1
    assert float(first[1]) == log.records[0].mean_loss
