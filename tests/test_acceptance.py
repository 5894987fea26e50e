"""End-to-end acceptance gate.

Each test covers one acceptance criterion at its pinned tolerance and
time budget, and prints a PASS/FAIL line (visible with ``pytest -s``).
Criteria 1-6 are numerical properties, 7-8 training behavior, 9 cost
structure, 10 reproducibility of the CLI.
"""

import contextlib
import math
import struct
import time

import numpy as np
import pytest

from dualgrad import bench, cli, oracle, trainer
from dualgrad import functions as fn
from dualgrad import model as md
from dualgrad.dual import Dual
from dualgrad.model import Perceptron, Sample, SingularSeed
from dualgrad.trainer import Dataset, TrainConfig
from helpers import assert_grads_close, close, dnorm, dual_close, relerr

ZERO_BITS = struct.pack("<d", 0.0)


@contextlib.contextmanager
def criterion(num: int, desc: str, budget_s: float):
    t0 = time.perf_counter()
    try:
        yield
        elapsed = time.perf_counter() - t0
        assert elapsed < budget_s, f"criterion {num} took {elapsed:.2f}s, budget {budget_s:g}s"
    except BaseException:
        print(f"FAIL  criterion {num:>2}: {desc}")
        raise
    print(f"PASS  criterion {num:>2}: {desc} [{elapsed:.2f}s]")


def test_01_ring_axioms():
    with criterion(1, "ring axioms: exact additive laws and nilpotency, 1e-12 multiplicative", 1.0):
        rng = np.random.default_rng(101)

        # additive axioms, bit-exact: draws on a 1/256 grid keep every
        # double and triple sum exactly representable in binary64
        grid = rng.integers(-2560, 2561, size=(10_000, 6)) / 256.0
        for row in grid:
            x, y, z = Dual(row[0], row[1]), Dual(row[2], row[3]), Dual(row[4], row[5])
            assert (x + y) + z == x + (y + z)
            assert x + y == y + x
            assert x + Dual(0, 0) == x
            assert x + (-x) == Dual(0, 0)

        # eps * eps == 0, bit-for-bit
        seeds = rng.uniform(-10, 10, size=(10_000, 2))
        for b, d in seeds:
            p = Dual(0.0, b) * Dual(0.0, d)
            assert struct.pack("<d", p.re) == ZERO_BITS
            assert struct.pack("<d", p.du) == ZERO_BITS

        # multiplicative laws within 1e-12 of the operand scale
        vals = rng.uniform(-10, 10, size=(10_000, 6))
        for row in vals:
            x, y, z = Dual(row[0], row[1]), Dual(row[2], row[3]), Dual(row[4], row[5])
            assert x * y == y * x
            triple = dnorm(x) * dnorm(y) * dnorm(z)
            assert dual_close((x * y) * z, x * (y * z), 1e-12, triple)
            assert dual_close(x * (y + z), x * y + x * z, 1e-12, dnorm(x) * (dnorm(y) + dnorm(z)))
            assert dual_close((x + y) * z, x * z + y * z, 1e-12, (dnorm(x) + dnorm(y)) * dnorm(z))


def test_02_polynomial_derivative_identity():
    with criterion(2, "Horner at x + eps carries the analytic derivative (1e-10)", 1.0):
        rng = np.random.default_rng(102)
        for _ in range(1000):
            degree = int(rng.integers(0, 9))
            coeffs = [float(c) for c in rng.uniform(-5, 5, degree + 1)]
            x = float(rng.uniform(-2, 2))

            acc = Dual(0.0)
            for c in reversed(coeffs):
                acc = acc * Dual(x, 1.0) + c

            value = 0.0
            deriv = 0.0
            for k in range(degree, 0, -1):
                value = value * x + coeffs[k]
                deriv = deriv * x + k * coeffs[k]
            value = value * x + coeffs[0]

            assert relerr(acc.re, value) <= 1e-10
            assert relerr(acc.du, deriv) <= 1e-10


def test_03_lifting_suite():
    with criterion(3, "lifted functions match central differences (1e-6); sin lift exact", 1.0):
        rng = np.random.default_rng(103)
        named = [
            (fn.sin, math.sin, -20.0, 20.0),
            (fn.cos, math.cos, -20.0, 20.0),
            (fn.exp, math.exp, -20.0, 20.0),
            (fn.log, math.log, 1e-3, 20.0),
            (fn.tanh, math.tanh, -20.0, 20.0),
            (fn.sigmoid, fn.sigmoid_real, -20.0, 20.0),
        ]
        h = 1e-6
        for lifted, plain, lo, hi in named:
            points = rng.uniform(lo, hi, size=1000)
            for a in points:
                du = lifted(Dual(a, 1.0)).du
                fd = (plain(a + h) - plain(a - h)) / (2.0 * h)
                assert close(du, fd, rtol=1e-6), (plain.__name__, a, du, fd)

        # sin(x + eps) == sin x + eps cos x, checked against the closed forms
        for a in rng.uniform(-20, 20, size=100):
            out = fn.sin(Dual(a, 1.0))
            assert relerr(out.re, math.sin(a)) <= 1e-12
            assert relerr(out.du, math.cos(a)) <= 1e-12


def test_04_shared_seed_rule_equals_backprop():
    with criterion(4, "shared-seed gradient == analytic backprop (1e-10) and FD (1e-6)", 10.0):
        rng = np.random.default_rng(104)
        for n in (2, 4, 8, 16, 64):
            for _ in range(2000):
                m = bench.guarded_perceptron(n, rng)
                s = bench.random_sample(n, rng)
                g_ones = md.grad_ones(m, s)
                g_bp = oracle.grad_backprop(m, s)
                report = oracle.compare(g_ones, g_bp, 1e-10)
                assert report.passed, (n, report.worst_index, report.max_rel_err)
                assert_grads_close(g_ones, oracle.grad_finite_diff(m, s), rtol=1e-6)


def test_05_singular_seed_behavior():
    with criterion(5, "sum(W)=0 raises SingularSeed; per-parameter seeding still matches FD", 1.0):
        rng = np.random.default_rng(105)
        for _ in range(100):
            n = int(rng.integers(2, 9))
            W = [float(v) for v in rng.uniform(-2, 2, n - 1)]
            W.append(-sum(W))
            m = Perceptron(W, float(rng.uniform(-2, 2)), "sigmoid")
            s = bench.random_sample(n, rng)
            with pytest.raises(SingularSeed):
                md.grad_ones(m, s)
            assert_grads_close(md.grad_seeded(m, s), oracle.grad_finite_diff(m, s), rtol=1e-6)


def test_06_multilayer_seeded_gradients():
    with criterion(6, "two-layer MLP per-parameter gradients match FD (1e-5)", 10.0):
        rng = np.random.default_rng(106)
        for _ in range(500):
            while True:
                n_in = int(rng.integers(1, 9))
                n_hid = int(rng.integers(1, 9))
                if (n_in + 1) * n_hid + (n_hid + 1) <= 50:
                    break
            mlp = bench.random_mlp([n_in, n_hid, 1], rng)
            s = Sample([float(v) for v in rng.uniform(-1, 1, n_in)], float(rng.uniform(0, 1)))
            assert_grads_close(md.grad_seeded(mlp, s), oracle.grad_finite_diff(mlp, s), rtol=1e-5)


def test_07_engine_equivalent_training():
    with criterion(7, "AND training: all engines trace one loss curve (1e-8), final < 0.02", 5.0):
        logs = [
            trainer.train(TrainConfig(dataset="and", engine=e, learning_rate=0.5,
                                      epochs=2000, batch_mode="per_sample", rng_seed=0))
            for e in ("ones", "seeded", "backprop")
        ]
        for log in logs:
            assert log.singular_skips == 0 and not log.diverged
            assert log.final_loss < 0.02
        base = logs[0].loss_curve()
        for log in logs[1:]:
            curve = log.loss_curve()
            assert len(curve) == 2000
            assert max(abs(a - b) for a, b in zip(base, curve)) <= 1e-8


def test_08_mlp_learns_xor():
    with criterion(8, "2-layer MLP learns XOR with per-parameter seeding (< 0.05)", 30.0):
        xor = Dataset("xor", 2, [
            Sample([0.0, 0.0], 0.0), Sample([0.0, 1.0], 1.0),
            Sample([1.0, 0.0], 1.0), Sample([1.0, 1.0], 0.0),
        ])
        final = math.inf
        for seed in range(5):  # restarts: XOR has bad local minima for some inits
            cfg = TrainConfig(dataset="xor", engine="seeded", learning_rate=0.5,
                              epochs=10_000, rng_seed=seed, hidden=(2,))
            log = trainer.train(cfg, dataset=xor)
            final = log.final_loss
            if final < 0.05:
                break
        assert final < 0.05


def test_09_cost_structure():
    with criterion(9, "pass counts {seeded: P+1, ones: 1, backprop: 1}; linear cost trend", 60.0):
        results = bench.run_bench(widths=(8, 16, 32, 64, 128, 256), reps=30, seed=109)
        for r in results:
            if r.engine == "seeded":
                assert r.passes == r.params + 1
            else:
                assert r.passes == 1

        # one pass per parameter, each pass O(P): cost per parameter grows
        # linearly in P (total cost is quadratic, so the trend is per-param)
        seeded = [r for r in results if r.engine == "seeded"]
        ps = [r.params for r in seeded]
        _, _, r2 = bench.linear_fit_r2(ps, [r.ns_per_param for r in seeded])
        assert r2 > 0.95, f"per-parameter cost trend R^2 = {r2:.4f}"

        # one-pass engines stay far below the P-pass engine in total slope
        backprop = [r for r in results if r.engine == "backprop"]
        slope_seeded, _, _ = bench.linear_fit_r2(ps, [r.median_ns for r in seeded])
        slope_bp, _, _ = bench.linear_fit_r2(
            [r.params for r in backprop], [r.median_ns for r in backprop]
        )
        assert slope_bp < slope_seeded
        # only CPU scaling structure is measured; no cross-device claims exist here


def test_10_cli_training_is_reproducible(tmp_path):
    with criterion(10, "identical train invocations emit byte-identical logs (wall time aside)", 5.0):
        args = ["train", "--dataset", "and", "--engine", "seeded", "--lr", "0.5",
                "--epochs", "300", "--batch", "per_sample", "--seed", "42"]
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert cli.main(args + ["--out", str(out_a)]) == 0
        assert cli.main(args + ["--out", str(out_b)]) == 0

        def strip_wall(path):
            lines = (path / "log.csv").read_bytes().decode().splitlines()
            return [line.rsplit(",", 1)[0] for line in lines]

        rows_a = strip_wall(out_a)
        rows_b = strip_wall(out_b)
        assert rows_a == rows_b
        assert len(rows_a) == 301
