"""Structure of the benchmark harness (never absolute timings)."""

import json
import re

import numpy as np
import pytest

from dualgrad import bench, trainer


def test_rejects_low_reps_and_bad_widths():
    with pytest.raises(ValueError):
        bench.run_bench(widths=(4,), reps=5)
    with pytest.raises(ValueError):
        bench.run_bench(widths=(0,), reps=10)
    with pytest.raises(ValueError):
        bench.run_bench(widths=(4,), engines=("magic",), reps=10)
    with pytest.raises(ValueError):
        bench.run_bench(widths=(4,), engines=(), reps=10)
    with pytest.raises(ValueError, match="engines must not repeat"):
        bench.run_bench(widths=(2,), engines=("ones", "ones"), reps=10)
    with pytest.raises(ValueError, match="widths must not repeat"):
        bench.run_bench(widths=(4, 4), engines=("ones",), reps=10)


@pytest.mark.parametrize("sweep, message", [
    ({"widths": (2.5,)}, "width must be an integer, got 2.5"),  # not silently width 2
    ({"reps": 10.5}, "reps must be an integer, got 10.5"),  # not a TypeError from range()
    ({"widths": (True,)}, "width must be an integer, got True"),  # not silently width 1
])
def test_rejects_non_integer_widths_and_reps(sweep, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        bench.run_bench(**{"widths": (4,), "engines": ("ones",), **sweep})


def test_numpy_integer_reps_are_kept_as_an_int(tmp_path):
    results = bench.run_bench(widths=(2,), engines=("backprop",), reps=np.int64(10))
    path = tmp_path / "bench.json"
    bench.write_json(results, path)
    assert [p["reps"] for p in json.loads(path.read_text())["points"]] == [10]


def test_pass_accounting_and_fields():
    results = bench.run_bench(widths=(4, 8), reps=10, seed=1)
    assert len(results) == 2 * len(trainer.ENGINES)
    by_key = {(r.engine, r.width): r for r in results}
    for n in (4, 8):
        assert by_key[("ones", n)].passes == 1
        assert by_key[("backprop", n)].passes == 1
        assert by_key[("seeded", n)].passes == n + 1  # weights + bias
        for engine in trainer.ENGINES:
            r = by_key[(engine, n)]
            assert r.params == n and r.reps == 10 and r.median_ns > 0


def test_results_sorted_by_engine_then_params():
    results = bench.run_bench(widths=(8, 4), reps=10, seed=2)
    keys = [(r.engine, r.params) for r in results]
    assert keys == sorted(keys)


def test_each_engine_is_timed_in_its_own_round_robin(monkeypatch):
    # no call of one engine directly follows another engine's call, except
    # the first, untimed call of each engine's block
    calls = []

    def recording(tag):
        real = trainer.engine(tag)

        def grad(m, s):
            calls.append((tag, m.width))
            return real.grad(m, s)

        return trainer.Engine(grad, real.sgd)

    monkeypatch.setattr(bench, "engine", recording)
    bench.run_bench(widths=(4, 8), reps=10, seed=4)
    blocks = [tag for k, (tag, _) in enumerate(calls) if k == 0 or calls[k - 1][0] != tag]
    assert blocks == list(trainer.ENGINES)
    untimed = (1 + bench._WARMUP) * 2  # the pass count and warm-up calls per width
    per_engine = untimed + 2 * 10 * 2
    assert len(calls) == per_engine * len(blocks)
    # each rep goes round-robin over the widths, and each timed call
    # directly follows an untimed call of the same point
    assert [w for _, w in calls[untimed:per_engine]] == [4, 4, 8, 8] * 10


def test_the_sweep_times_each_engines_per_sample_gradient():
    *_, grads = bench.check_sweep(widths=(4,), reps=10)
    assert all(g is trainer.ENGINES[tag].grad for g, tag in zip(grads, trainer.ENGINES, strict=True))


def numpy_fit_r2(xs, ys):
    """The least-squares fit and r^2 = 1 - ss_res / ss_tot through np.polyfit."""
    x, y = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
    slope, intercept = np.polyfit(x, y, 1)
    ss_res = float(np.sum((y - (slope * x + intercept)) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    return float(slope), float(intercept), 1.0 - ss_res / ss_tot


def test_linear_fit_recovers_exact_line():
    slope, intercept, r2 = bench.linear_fit_r2([1, 2, 3, 4], [3, 5, 7, 9])
    assert slope == pytest.approx(2.0)
    assert intercept == pytest.approx(1.0)
    assert r2 == pytest.approx(1.0)
    assert bench.linear_fit_r2([8, 16, 32], [5.0, 5.0, 5.0]) == (0.0, 5.0, 1.0)
    # random sweeps: distinct widths, timings up to 1e4 ns
    rng = np.random.default_rng(12)
    for _ in range(200):
        k = int(rng.integers(2, 9))
        xs = sorted(int(v) for v in rng.choice(np.arange(1, 4097), k, replace=False))
        ys = [float(v) for v in rng.uniform(0.0, 1e4, k)]
        assert bench.linear_fit_r2(xs, ys) == pytest.approx(numpy_fit_r2(xs, ys), rel=1e-9, abs=1e-9)


def test_table_output():
    results = bench.run_bench(widths=(4,), engines=("seeded",), reps=10, seed=3)
    table = bench.format_table(results)
    assert "seeded" in table and "ns/param" in table
