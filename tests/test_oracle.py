"""Reference gradients and the comparison report."""

import math
import random

import numpy as np
import pytest

from dualgrad import model as md
from dualgrad import bench, oracle
from dualgrad.dual import NonFinite
from dualgrad.model import Gradient, Layer, Mlp, Perceptron, Sample
from helpers import assert_grads_close


# --- analytic backprop -----------------------------------------------------------


def test_backprop_frozen_example():
    m = Perceptron([1.0, 1.0], 0.0)
    s = Sample([1.0, 0.0], 1.0)
    yhat = 1.0 / (1.0 + math.exp(-1.0))
    g0 = 2.0 * (yhat - 1.0) * yhat * (1.0 - yhat)
    g = oracle.grad_backprop(m, s)
    assert g.dW[0] == pytest.approx(g0, rel=1e-15)
    assert g.dW[1] == 0.0
    assert g.db == pytest.approx(g0, rel=1e-15)


def test_backprop_zero_residual():
    m = Perceptron([0.3, -0.8], 0.1)
    x = [0.5, 0.25]
    g = oracle.grad_backprop(m, Sample(x, m.forward(x)))
    assert all(v == 0.0 for v in g.dW) and g.db == 0.0


def test_backprop_identity_activation():
    m = Perceptron([2.0, -1.0], 0.5, "identity")
    s = Sample([1.0, 3.0], 0.0)
    resid = 2.0 * (m.forward(s.x) - s.y)
    g = oracle.grad_backprop(m, s)
    assert g.dW == [resid * 1.0, resid * 3.0]
    assert g.db == resid


# --- central differences -----------------------------------------------------------


def test_finite_diff_exact_on_quadratic():
    # identity activation makes the loss quadratic in each parameter, where
    # central differences are exact for any step
    m = Perceptron([0.7, -1.2], 0.3, "identity")
    s = Sample([2.0, 1.0], 1.5)
    want = oracle.grad_backprop(m, s)
    for h in (0.25, 1e-3, 1e-6):
        assert_grads_close(oracle.grad_finite_diff(m, s, h), want, rtol=1e-9)


def test_finite_diff_matches_backprop_sigmoid():
    m = Perceptron([1.0, 1.0], 0.0)
    s = Sample([1.0, 0.0], 1.0)
    assert_grads_close(oracle.grad_finite_diff(m, s), oracle.grad_backprop(m, s), rtol=1e-6)


def test_finite_diff_zero_input():
    m = Perceptron([0.4, -0.9], 0.2)
    s = Sample([0.0, 0.0], 1.0)
    g = oracle.grad_finite_diff(m, s)
    assert g.dW == [0.0, 0.0]
    assert g.db == pytest.approx(oracle.grad_backprop(m, s).db, rel=1e-6)


def test_finite_diff_rejects_bad_step():
    m = Perceptron([1.0], 0.0)
    with pytest.raises(ValueError):
        oracle.grad_finite_diff(m, Sample([1.0], 0.0), h=0.0)


@pytest.mark.parametrize("h", [math.nan, math.inf, -1e-6])
def test_finite_diff_step_must_be_positive_and_finite(h):
    m = Perceptron([1.0], 0.0)
    with pytest.raises(ValueError, match="step must be positive and finite") as exc:
        oracle.grad_finite_diff(m, Sample([1.0], 0.0), h=h)
    assert not isinstance(exc.value, NonFinite)  # train would read NonFinite as divergence


def test_finite_diff_leaves_model_untouched():
    mlp = Mlp([
        Layer([[0.1, 0.2], [0.3, 0.4]], [0.0, 0.1]),
        Layer([[0.5, -0.5]], [0.2]),
    ])
    before = [list(r) for lay in mlp.layers for r in lay.W]
    oracle.grad_finite_diff(mlp, Sample([1.0, -1.0], 0.0))
    after = [list(r) for lay in mlp.layers for r in lay.W]
    assert before == after


def test_three_way_agreement_on_guarded_models():
    rng = np.random.default_rng(41)
    for _ in range(200):
        n = int(rng.integers(1, 9))
        m = bench.guarded_perceptron(n, rng)
        s = bench.random_sample(n, rng)
        analytic = oracle.grad_backprop(m, s)
        assert oracle.compare(md.grad_ones(m, s), analytic, 1e-10).passed
        assert oracle.compare(md.grad_seeded(m, s), analytic, 1e-10).passed
        assert_grads_close(oracle.grad_finite_diff(m, s), analytic, rtol=1e-6)


# --- the comparison report -----------------------------------------------------------


def test_compare_reflexive():
    g = Gradient([0.5, -0.25], 0.125)
    report = oracle.compare(g, g, 0.0)
    assert report.passed
    assert report.max_abs_err == 0.0 and report.max_rel_err == 0.0


def test_compare_doubled_gradient():
    g = Gradient([0.5, -0.25], 0.125)
    doubled = Gradient([1.0, -0.5], 0.25)
    report = oracle.compare(g, doubled, 1e-6)
    assert not report.passed
    # |a - 2a| / max(|a|, |2a|) = 0.5 under the max-denominator convention
    assert report.max_rel_err == pytest.approx(0.5, rel=1e-12)


def test_compare_symmetry():
    rng = np.random.default_rng(42)
    a = Gradient([float(v) for v in rng.uniform(-1, 1, 4)], float(rng.uniform(-1, 1)))
    b = Gradient([float(v) for v in rng.uniform(-1, 1, 4)], float(rng.uniform(-1, 1)))
    assert oracle.compare(a, b, 1e-6).max_rel_err == oracle.compare(b, a, 1e-6).max_rel_err


def test_compare_absolute_fallback_below_threshold():
    a = Gradient([1e-9], 0.0)
    b = Gradient([3e-9], 0.0)
    report = oracle.compare(a, b, 1e-6)
    # relative error would be 2/3; tiny entries fall back to absolute error
    assert report.max_rel_err == pytest.approx(2e-9, rel=1e-12)
    assert report.passed


def test_compare_worst_index():
    a = Gradient([1.0, 1.0], 1.0)
    b = Gradient([1.0, 2.0], 1.0)
    report = oracle.compare(a, b, 1e-6)
    assert report.worst_index == "w[1]"
    # the first of equal errors wins; with no error at all, the first entry is named
    tied = oracle.compare(Gradient([1.0, 2.0, 1.0, 2.0], 4.0), Gradient([1.0, 3.0, 1.0, 3.0], 6.0), 1.0)
    assert tied.worst_index == "w[1]"
    assert oracle.compare(Gradient([1.0, 2.0], 3.0), Gradient([1.0, 2.0], 3.0), 0.0).worst_index == "w[0]"


def test_compare_shape_mismatch():
    one_layer = md.MlpGradient([md.LayerGradient([[1.0, 2.0]], [0.0])])
    cases = [
        (Gradient([1.0], 0.0), Gradient([1.0, 2.0], 0.0),
         "gradient shapes differ: ['w[0]', 'b'] vs ['w[0]', 'w[1]', 'b']"),
        (Gradient([1.0, 2.0], 0.0), one_layer,
         "gradient shapes differ: ['w[0]', 'w[1]', 'b'] vs "
         "['layer[0].w[0][0]', 'layer[0].w[0][1]', 'layer[0].b[0]']"),
    ]
    for a, b, message in cases:
        with pytest.raises(ValueError) as err:
            oracle.compare(a, b, 1e-6)
        assert str(err.value) == message


# --- compare against the per-entry loop it replaced ----------------------------------


def _reference_entry_error(a: float, b: float) -> float:
    """|a-b| / max(|a|,|b|), falling back to |a-b| when both are tiny."""
    diff = abs(a - b)
    scale = max(abs(a), abs(b))
    if scale < oracle.ABS_FALLBACK:
        return diff
    return diff / scale


def _reference_compare(a, b, tol: float) -> oracle.GradReport:
    """Worst-entry comparison; passes iff the worst error is within tol."""
    entries_a = list(a.entries())
    entries_b = list(b.entries())
    paths_a = [p for p, _ in entries_a]
    paths_b = [p for p, _ in entries_b]
    if paths_a != paths_b:
        raise ValueError(f"gradient shapes differ: {paths_a} vs {paths_b}")
    max_abs = 0.0
    max_rel = 0.0
    worst = paths_a[0]
    for (path, va), (_, vb) in zip(entries_a, entries_b):
        max_abs = max(max_abs, abs(va - vb))
        err = _reference_entry_error(va, vb)
        if err > max_rel:
            max_rel = err
            worst = path
    return oracle.GradReport(max_abs, max_rel, worst, max_rel <= tol, tol)


def _fields(report: oracle.GradReport) -> tuple:
    return (report.max_abs_err.hex(), report.max_rel_err.hex(), report.worst_index,
            report.passed, report.tol.hex())


# ±0.0, entries around the absolute fallback, extremes and ordinary values
_POOL = [0.0, -0.0, 1e-9, -1e-9, 1e-8, -1e-8, 2e-8, -2e-8, 1e300, -1e300,
         5e-324, -5e-324, 0.5, -0.25, 1.0, 3.0, -7.5]
_TOLS = [0.0, 1e-10, 1e-6, 0.5, 1.0]


def _raw_gradient(like, values):
    """A gradient over like's layout holding values as given, unchecked."""
    out = object.__new__(type(like))
    out.params, out.shapes = list(values), like.shapes
    return out


def _random_layout(rng):
    """None for a perceptron Gradient, else the (in, out) shapes of a 1-3 layer MlpGradient."""
    if rng.random() < 0.25:
        return None
    widths = [rng.randint(1, 4) for _ in range(rng.randint(1, 3))] + [1]
    return tuple(zip(widths, widths[1:]))


def _gradient_pair(rng, pool):
    layout = _random_layout(rng)
    if layout is None:
        template = Gradient([0.0] * rng.randint(1, 6), 0.0)
    else:
        template = md.MlpGradient([md.LayerGradient([[0.0] * n_in for _ in range(n_out)], [0.0] * n_out)
                                   for n_in, n_out in layout])
    size = len(template.params)
    a = [rng.choice(pool) for _ in range(size)]
    b = [rng.choice(pool) if rng.random() < 0.5 else v for v in a]
    if rng.random() < 0.5:
        # copies of the worst entry's pair, before and after it: the first copy must win
        paths = [p for p, _ in template.entries()]
        worst = _reference_compare(_raw_gradient(template, a), _raw_gradient(template, b), 0.0).worst_index
        j = paths.index(worst)
        for k in rng.sample(range(size), rng.randint(1, size)):
            a[k], b[k] = a[j], b[j]
    return _raw_gradient(template, a), _raw_gradient(template, b)


@pytest.mark.parametrize("pool", [_POOL, _POOL + [math.inf, -math.inf, math.nan]],
                         ids=["finite", "with-inf-nan"])
def test_compare_matches_the_per_entry_reference(pool):
    rng = random.Random(19)
    for _ in range(3000):
        a, b = _gradient_pair(rng, pool)
        tol = rng.choice(_TOLS)
        assert _fields(oracle.compare(a, b, tol)) == _fields(_reference_compare(a, b, tol)), (a, b, tol)


@pytest.mark.parametrize("k", [0, 1, 63, 127, 128])
def test_compare_draws_only_up_to_the_worst_entry(monkeypatch, k):
    drawn = {}
    entries = Gradient.entries

    def counting(self):
        for item in entries(self):
            drawn[id(self)] = drawn.get(id(self), 0) + 1
            yield item

    monkeypatch.setattr(Gradient, "entries", counting)
    a = Gradient([0.5] * 128, 0.5)
    values = [0.5] * 129
    values[k] = 0.75
    b = Gradient(values[:-1], values[-1])
    report = oracle.compare(a, b, 1e-10)
    assert report.worst_index == ("b" if k == 128 else f"w[{k}]")
    assert drawn.get(id(a), 0) <= k + 1
    assert drawn.get(id(b), 0) == 0
