"""Reference gradients and the comparison report."""

import json
import math

import numpy as np
import pytest

from dualgrad import model as md
from dualgrad import oracle
from dualgrad.dual import NonFinite
from dualgrad.model import Gradient, Layer, Mlp, Perceptron, Sample


def assert_grads_close(got, want, rtol, atol=1e-8):
    for (path, a), (_, b) in zip(got.entries(), want.entries()):
        assert abs(a - b) <= atol + rtol * max(abs(a), abs(b)), (path, a, b)


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
        while True:
            W = [float(v) for v in rng.uniform(-2, 2, n)]
            if abs(sum(W)) >= 1e-3:
                break
        m = Perceptron(W, float(rng.uniform(-2, 2)))
        s = Sample([float(v) for v in rng.uniform(-2, 2, n)], float(rng.uniform(0, 1)))
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


def test_compare_shape_mismatch():
    with pytest.raises(ValueError):
        oracle.compare(Gradient([1.0], 0.0), Gradient([1.0, 2.0], 0.0), 1e-6)


def test_report_serializes_to_json():
    g = oracle.grad_backprop(Perceptron([1.0, 1.0], 0.0), Sample([1.0, 0.0], 1.0))
    report = oracle.compare(g, g, 1e-10)
    blob = json.dumps(report.to_dict())
    parsed = json.loads(blob)
    assert parsed == report.to_dict()
    assert parsed["pass"] is True
    assert parsed["grad_a"]["dW"] == g.dW
