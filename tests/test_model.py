"""Perceptron/MLP evaluation and the two forward-mode gradient rules."""

import functools
import hashlib
import importlib.util
import math
import operator
import random
from pathlib import Path

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from dualgrad import functions as fn
from dualgrad import model as md
from dualgrad import bench, oracle, trainer
from dualgrad.dual import Dual, NonFinite
from dualgrad.model import Layer, Mlp, Perceptron, Sample
from helpers import assert_grads_close, relerr, summed

_spec = importlib.util.spec_from_file_location(
    "digest", Path(__file__).resolve().parent.parent / "tools" / "digest.py")
digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(digest)


def random_perceptron(rng, n, act="sigmoid"):
    return Perceptron([float(v) for v in rng.uniform(-2, 2, n)], float(rng.uniform(-2, 2)), act)


# --- validation -----------------------------------------------------------------


def test_perceptron_rejects_empty_and_nonfinite():
    with pytest.raises(ValueError):
        Perceptron([], 0.0)
    with pytest.raises(ValueError):
        Perceptron([math.nan], 0.0)
    with pytest.raises(ValueError):
        Perceptron([1.0], math.inf)
    with pytest.raises(ValueError):
        Perceptron([1.0], 0.0, act="relu")


def test_sample_rejects_nonfinite():
    with pytest.raises(ValueError):
        Sample([math.inf], 0.0)
    with pytest.raises(ValueError):
        Sample([0.0], math.nan)


def test_mlp_rejects_mismatched_layers():
    l1 = Layer([[0.1, 0.2], [0.3, 0.4]], [0.0, 0.0])
    l_bad = Layer([[0.1, 0.2, 0.3]], [0.0])
    with pytest.raises(ValueError):
        Mlp([l1, l_bad])
    with pytest.raises(ValueError):
        Mlp([l1])  # final width must be 1
    with pytest.raises(ValueError, match="layer weight rows and biases must match and be nonempty"):
        Layer([], [])
    Mlp([l1, Layer([[0.5, 0.6]], [0.0])])


def test_gradients_get_the_layout_checks_of_models():
    with pytest.raises(ValueError):
        md.MlpGradient([])  # so compare never indexes into an empty gradient
    with pytest.raises(ValueError):
        md.Gradient([], 0.0)  # as Perceptron([], 0.0) is rejected
    with pytest.raises(ValueError, match="gradient rows and biases must match and be nonempty"):
        md.LayerGradient([], [])  # as Layer([], []) is rejected
    lg = md.LayerGradient([[1.0, 1.0]], [1.0])  # 2 -> 1 does not chain into 2 -> 1
    with pytest.raises(ValueError, match="chain"):
        md.MlpGradient([lg, lg])
    with pytest.raises(ValueError, match="scalar"):
        md.MlpGradient([md.LayerGradient([[1.0], [1.0]], [1.0, 1.0])])


# --- forward --------------------------------------------------------------------


def test_forward_zero_weights_sigmoid():
    assert Perceptron([0.0, 0.0], 0.0).forward([1.0, 1.0]) == 0.5


def test_forward_identity_dot_product():
    assert Perceptron([1.0, 1.0], 0.0, "identity").forward([2.0, 3.0]) == 5.0


def test_forward_sigmoid_of_one():
    got = Perceptron([1.0, 1.0], 0.0).forward([1.0, 0.0])
    assert got == pytest.approx(0.7310585786300049, abs=0)


def test_forward_width_mismatch():
    with pytest.raises(ValueError):
        Perceptron([1.0, 1.0], 0.0).forward([1.0])


def test_mlp_forward_hand_computed():
    mlp = Mlp([
        Layer([[1.0, -1.0], [0.5, 0.5]], [0.0, 1.0], "identity"),
        Layer([[2.0, -1.0]], [0.5], "identity"),
    ])
    # h = (x1 - x2, 0.5 x1 + 0.5 x2 + 1); out = 2 h1 - h2 + 0.5
    assert mlp.forward([3.0, 1.0]) == 2.0 * 2.0 - 3.0 + 0.5


def test_loss_examples():
    assert md.loss(0.5, 0.5) == 0.0
    assert md.loss(0.0, 1.0) == 1.0
    assert md.loss(0.25, 0.75) == 0.25


# --- the shared-seed dual pass -----------------------------------------------------


def test_forward_dual_ones_value_and_seed():
    out = md.forward_dual_ones(Perceptron([1.0, 1.0], 0.0), [1.0, 0.0])
    assert out.re == pytest.approx(0.7310585786300049, abs=0)
    assert out.du == pytest.approx(0.3932238664829637, rel=1e-15)


def test_forward_dual_ones_zero_weights():
    out = md.forward_dual_ones(Perceptron([0.0, 0.0], 0.0), [0.7, -0.3])
    assert out.re == 0.5 and out.du == 0.0


def test_forward_dual_ones_cancelling_weights_identity():
    out = md.forward_dual_ones(Perceptron([1.0, -1.0], 0.0, "identity"), [3.0, 2.0])
    assert out.re == 1.0 and out.du == 0.0


def test_forward_dual_ones_expansion_identity():
    # the dual part must equal sum(W) * act'(z) for the activation derivative
    rng = np.random.default_rng(31)
    for act in ("sigmoid", "tanh", "identity"):
        for _ in range(300):
            n = int(rng.integers(1, 9))
            m = random_perceptron(rng, n, act)
            x = [float(v) for v in rng.uniform(-2, 2, n)]
            z = m.b + sum(w * xi for w, xi in zip(m.W, x))
            if act == "sigmoid":
                s = fn.sigmoid_real(z)
                deriv = s * (1 - s)
            elif act == "tanh":
                t = math.tanh(z)
                deriv = 1 - t * t
            else:
                deriv = 1.0
            out = md.forward_dual_ones(m, x)
            assert relerr(out.du, sum(m.W) * deriv) <= 1e-12


# --- grad_ones -----------------------------------------------------------------------


def test_grad_ones_frozen_example():
    # independently recompute 2*(yhat - y) * act'(z) at z = 1
    m = Perceptron([1.0, 1.0], 0.0)
    s = Sample([1.0, 0.0], 1.0)
    yhat = 1.0 / (1.0 + math.exp(-1.0))
    g0 = 2.0 * (yhat - 1.0) * yhat * (1.0 - yhat)
    g = md.grad_ones(m, s)
    assert g.dW[0] == pytest.approx(g0, rel=1e-12)
    assert g.dW[0] == pytest.approx(-0.10575418556853343, rel=1e-12)
    assert g.dW[1] == 0.0
    assert g.db == pytest.approx(g0, rel=1e-12)


def test_grad_ones_singular_seed():
    with pytest.raises(md.SingularSeed):
        md.grad_ones(Perceptron([1.0, -1.0], 0.0), Sample([1.0, 0.0], 1.0))


def test_grad_ones_guard_boundary():
    s = Sample([1.0, 1.0], 0.0)
    with pytest.raises(md.SingularSeed):
        md.grad_ones(Perceptron([1.0, -1.0 + 5e-7], 0.0), s)
    md.grad_ones(Perceptron([1.0, -1.0 + 2e-6], 0.0), s)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_grad_ones_near_the_guard(data):
    # weights that sum to within a few guards of zero, on either side of it
    n = data.draw(st.integers(1, 5), label="width")
    unit = st.floats(-2.0, 2.0)
    rest = [data.draw(unit) for _ in range(n - 1)]
    target = data.draw(st.floats(-4.0, 4.0), label="sum(W) / guard") * md.ONES_SEED_GUARD
    act = data.draw(st.sampled_from(md.ACTIVATIONS))
    m = Perceptron(rest + [target - sum(rest)], data.draw(unit), act)
    s = Sample([data.draw(unit) for _ in range(n)], data.draw(st.floats(0.0, 1.0)))
    if abs(functools.reduce(operator.add, m.W, 0)) < md.ONES_SEED_GUARD:
        with pytest.raises(md.SingularSeed):
            md.grad_ones(m, s)
    else:
        report = oracle.compare(md.grad_ones(m, s), oracle.grad_backprop(m, s), 1e-10)
        assert report.passed, report


def test_grad_ones_sums_the_seed_left_to_right():
    # 1e16 + 1.0 rounds back to 1e16, so the left-to-right sum is 0.0; a
    # compensated sum (the builtin sum from Python 3.12 on) gives 1.0
    m = Perceptron([1e16, 1.0, -1e16], 0.0)
    assert functools.reduce(operator.add, m.W, 0) == 0.0
    s = Sample([1.0, 2.0, 3.0], 0.5)
    with pytest.raises(md.SingularSeed, match=r"\|sum\(W\)\| = 0\.000e\+00"):
        md.grad_ones(m, s)
    md.reset_pass_count()
    last, norm, skips, failure = md.run_sgd(m, [[s], [s, s]], 0.5, "ones")
    assert (last.params, norm, skips, failure, md.pass_count()) == (m.params, 0.0, 3, None, 0)


def test_grad_ones_checks_the_model_then_the_width_then_the_guard():
    singular = [0.5, -0.5]
    two_layer = Mlp([Layer([singular, singular], [0.0, 0.0]), Layer([singular], [0.0])])
    with pytest.raises(TypeError, match="single-layer"):
        md.grad_ones(two_layer, Sample([1.0, 2.0, 3.0], 0.0))
    with pytest.raises(ValueError, match="expected 2 features, got 3"):
        md.grad_ones(Perceptron(singular, 0.0), Sample([1.0, 2.0, 3.0], 0.0))
    with pytest.raises(md.SingularSeed):
        md.grad_ones(Perceptron(singular, 0.0), Sample([1.0, 2.0], 0.0))


def test_grad_ones_error_names_remedy():
    with pytest.raises(md.SingularSeed, match="grad_seeded"):
        md.grad_ones(Perceptron([0.5, -0.5], 0.0), Sample([1.0, 0.0], 1.0))


def test_grad_ones_zero_residual_gives_zero_gradient():
    m = Perceptron([0.4, 0.7], -0.2)
    x = [1.5, -2.0]
    s = Sample(x, m.forward(x))
    g = md.grad_ones(m, s)
    assert all(v == 0.0 for v in g.dW) and g.db == 0.0


# --- grad_seeded ----------------------------------------------------------------------


def test_grad_seeded_linear_closed_form():
    # identity activation: dL/dw_i = 2 (yhat - y) x_i, dL/db = 2 (yhat - y)
    rng = np.random.default_rng(32)
    for _ in range(100):
        n = int(rng.integers(1, 6))
        m = random_perceptron(rng, n, "identity")
        s = bench.random_sample(n, rng)
        g = md.grad_seeded(m, s)
        resid = 2.0 * (m.forward(s.x) - s.y)
        for gw, xi in zip(g.dW, s.x):
            assert relerr(gw, resid * xi) <= 1e-12
        assert relerr(g.db, resid) <= 1e-12


def test_grad_seeded_mlp_matches_finite_differences():
    rng = np.random.default_rng(34)
    for _ in range(50):
        n_in = int(rng.integers(2, 5))
        n_hid = int(rng.integers(2, 5))
        mlp = bench.random_mlp([n_in, n_hid, 1], rng)
        s = bench.random_sample(n_in, rng)
        assert_grads_close(md.grad_seeded(mlp, s), oracle.grad_finite_diff(mlp, s), rtol=1e-5)


def test_gradient_shapes_mirror_model():
    rng = np.random.default_rng(35)
    m = random_perceptron(rng, 5)
    g = md.grad_seeded(m, bench.random_sample(5, rng))
    assert len(g.dW) == 5 and isinstance(g.db, float)
    paths = [p for p, _ in g.entries()]
    assert paths == [f"w[{i}]" for i in range(5)] + ["b"]

    mlp = Mlp([
        Layer([[0.1, 0.2], [0.3, 0.4], [0.5, 0.6]], [0.0, 0.0, 0.0]),
        Layer([[0.1, 0.2, 0.3]], [0.0]),
    ])
    mg = md.grad_seeded(mlp, Sample([1.0, 2.0], 0.5))
    assert len(mg.layers) == 2
    assert [len(r) for r in mg.layers[0].dW] == [2, 2, 2]
    assert len(mg.layers[0].db) == 3
    assert len(list(mg.entries())) == (3 * 2 + 3) + (3 + 1)


def test_grad_width_mismatch():
    m = Perceptron([1.0, 2.0], 0.0)
    with pytest.raises(ValueError):
        md.grad_seeded(m, Sample([1.0], 0.0))
    with pytest.raises(ValueError):
        md.grad_ones(m, Sample([1.0, 2.0, 3.0], 0.0))


def test_single_layer_rules_reject_mlp():
    # each engine in the table refuses a hidden layer in its gradient, its epoch and its
    # config, naming the table's subject, before any pass
    mlp = Mlp([Layer([[1.0, 1.0], [1.0, -1.0]], [0.0, 0.0]), Layer([[1.0, 1.0]], [0.0])])
    s = Sample([1.0, 0.0], 1.0)
    md.reset_pass_count()
    for name, subject in md.SINGLE_LAYER.items():
        engine = trainer.engine(name)
        for call in (lambda: engine.grad(mlp, s), lambda: engine.sgd(mlp, [[s]], 0.5)):
            with pytest.raises(TypeError, match=f"^{subject} is single-layer"):
                call()
        with pytest.raises(ValueError, match=f"^{subject} is single-layer"):
            trainer.TrainConfig(hidden=(2,), engine=name)
    assert md.pass_count() == 0


# --- one parameter layout ----------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_perceptron_and_one_layer_mlp_agree_bit_for_bit(data):
    n = data.draw(st.integers(1, 8))
    finite = st.floats(-2.0, 2.0)
    W = data.draw(st.lists(finite, min_size=n, max_size=n))
    b = data.draw(finite)
    act = data.draw(st.sampled_from(md.ACTIVATIONS))
    s = Sample(data.draw(st.lists(finite, min_size=n, max_size=n)), data.draw(finite))
    perceptron = Perceptron(W, b, act)
    mlp = Mlp([Layer([W], [b], act)])

    def forward_dual_ones(m, s):
        return md.forward_dual_ones(m, s.x)

    for rule in (md.grad_ones, md.grad_seeded, oracle.grad_backprop, oracle.grad_finite_diff,
                 forward_dual_ones):
        runs = []
        for m in (perceptron, mlp):
            md.reset_pass_count()
            try:
                out = rule(m, s)
            except md.SingularSeed as exc:
                out = f"SingularSeed: {exc}"
            else:
                out = [v.hex() for v in out.params] if hasattr(out, "params") else (out.re.hex(), out.du.hex())
            runs.append((out, md.pass_count()))
        assert runs[0] == runs[1], rule.__name__


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_internal_builders_reject_nonfinite_values(bad):
    for m in (Perceptron([0.1, 0.2], 0.0), Mlp([Layer([[0.1, 0.2]], [0.0])])):
        with pytest.raises(ValueError):
            md._model_like(m, [0.1, bad, 0.0])
        with pytest.raises(ValueError):
            md._grad_like(m, [bad, 0.2, 0.0])


# --- the float-pair pass against the Dual ring ------------------------------------------
#
# The spec: the same passes written with public Dual operations and the lifts
# of dualgrad.functions. The float-pair pass must match them bit for bit.


def _spec_act(tag, z):
    if tag == "sigmoid":
        return fn.sigmoid(z)
    if tag == "tanh":
        return fn.tanh(z)
    return z


def spec_forward(m, x, k=-1, dx=0.0):
    """The output over Dual values, with parameter k seeded and inputs x_i + dx*eps."""
    p = m.params
    h = [Dual(xi, dx) for xi in x]
    off = 0
    for (n_in, n_out), act in zip(m.shapes, m.acts):
        b0 = off + n_in * n_out
        out = []
        for i in range(b0, b0 + n_out):
            z = Dual(p[i], 1.0 if i == k else 0.0)
            for j, hj in enumerate(h, off):
                z = z + Dual(p[j], 1.0 if j == k else 0.0) * hj
            out.append(_spec_act(act, z))
            off += n_in
        h = out
        off = b0 + n_out
    return h[0]


def spec_loss_dual(m, s, k):
    """The loss with only parameter k seeded, computed over Dual values."""
    return (Dual(s.y) - spec_forward(m, s.x, k)) ** 2


values = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-3.0, 3.0))


def draw_mlp(data, max_layers=3):
    widths = data.draw(st.lists(st.integers(1, 6), min_size=1, max_size=max_layers)) + [1]
    layers = []
    for n_in, n_out in zip(widths, widths[1:]):
        rows = [data.draw(st.lists(values, min_size=n_in, max_size=n_in)) for _ in range(n_out)]
        biases = data.draw(st.lists(values, min_size=n_out, max_size=n_out))
        layers.append(Layer(rows, biases, data.draw(st.sampled_from(md.ACTIVATIONS))))
    return Mlp(layers)


def assert_seeded_matches_the_dual_spec(m, s):
    # plain evaluation is the same kernel's real sweep, and counts no pass
    md.reset_pass_count()
    assert m.forward(s.x).hex() == spec_forward(m, s.x).re.hex()
    assert md.pass_count() == 0

    want = [spec_loss_dual(m, s, k).du.hex() for k in range(len(m.params))]
    md.reset_pass_count()
    got = md.grad_seeded(m, s)
    assert [v.hex() for v in got.params] == want
    assert md.pass_count() == len(m.params)


def assert_ones_matches_the_dual_spec(m, x, y):
    # the spec that forward and grad_seeded meet, every input x_i + eps, no parameter seeded
    want = spec_forward(m, x, dx=1.0)
    md.reset_pass_count()
    got = md.forward_dual_ones(m, x)
    assert (got.re.hex(), got.du.hex()) == (want.re.hex(), want.du.hex())
    assert md.pass_count() == 1

    # grad_ones divides the same pass's output by sum(W), taken left to right from 0
    seed_sum = functools.reduce(operator.add, m.W, 0)
    if abs(seed_sum) >= md.ONES_SEED_GUARD:
        s = Sample(x, y)
        g0 = 2.0 * (want.re - s.y) * want.du / seed_sum
        md.reset_pass_count()
        grad = md.grad_ones(m, s)
        assert [v.hex() for v in grad.params] == [v.hex() for v in [g0 * xi for xi in x] + [g0]]
        assert md.pass_count() == 1


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_grad_seeded_is_bit_identical_to_the_dual_spec(data):
    m = draw_mlp(data)
    s = Sample(data.draw(st.lists(values, min_size=m.width, max_size=m.width)), data.draw(values))
    assert_seeded_matches_the_dual_spec(m, s)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_forward_dual_ones_is_bit_identical_to_the_dual_spec(data):
    n = data.draw(st.integers(1, 6))
    W = data.draw(st.lists(values, min_size=n, max_size=n))
    m = Perceptron(W, data.draw(values), data.draw(st.sampled_from(md.ACTIVATIONS)))
    x = data.draw(st.lists(values, min_size=n, max_size=n))
    assert_ones_matches_the_dual_spec(m, x, data.draw(values))


# Long generated kernels: a 128-wide perceptron per activation, and a
# three-layer net with mixed activations.


def long_values(rng, k, scale):
    """k draws from [-scale, scale] with a +0.0 and a -0.0 among them."""
    v = [float(x) for x in rng.uniform(-scale, scale, k)]
    v[k // 2] = 0.0
    v[-1] = -0.0
    return v


def wide_perceptron(act):
    rng = np.random.default_rng(40)
    return Perceptron(long_values(rng, 128, 0.2), 0.25, act), long_values(rng, 128, 1.0)


def three_layer_net():
    rng = np.random.default_rng(41)
    widths, acts = (6, 5, 4, 1), ("tanh", "sigmoid", "identity")
    return Mlp([
        Layer([long_values(rng, n_in, 1.0) for _ in range(n_out)], long_values(rng, n_out, 1.0), act)
        for n_in, n_out, act in zip(widths, widths[1:], acts)
    ]), long_values(rng, 6, 2.0)


@pytest.mark.parametrize("net", [*(f"wide-{act}" for act in md.ACTIVATIONS), "three-layer"])
def test_long_kernels_are_bit_identical_to_the_dual_spec(net):
    m, x = three_layer_net() if net == "three-layer" else wide_perceptron(net[len("wide-"):])
    assert_seeded_matches_the_dual_spec(m, Sample(x, 0.5))
    if isinstance(m, Perceptron):
        assert_ones_matches_the_dual_spec(m, x, 0.5)


def test_a_3000_wide_layer_compiles_and_matches_the_dual_spec():
    # the wide layer's unit sums and finiteness checks take 3,001 terms,
    # more than CPython before 3.13 compiles as one chain of +
    rng = np.random.default_rng(43)
    m = Mlp([
        Layer([[float(v) for v in rng.uniform(-1, 1, 2)] for _ in range(3000)],
              long_values(rng, 3000, 1.0), "tanh"),
        Layer([long_values(rng, 3000, 0.05)], [0.25], "identity"),
    ])
    x = [0.7, -1.3]
    md.reset_pass_count()
    assert m.forward(x).hex() == spec_forward(m, x).re.hex()
    assert md.pass_count() == 0
    # the per-parameter rule's gradient compiles at this width too
    md._grad(m.shapes, m.acts, "seeded")
    # a 300-wide layer's tangent check sums 301 terms, more than one statement
    # holds; at P = 1,201 passes a spread of entries is held to the spec
    m = Mlp([
        Layer([[float(v) for v in rng.uniform(-1, 1, 2)] for _ in range(300)],
              long_values(rng, 300, 1.0), "tanh"),
        Layer([long_values(rng, 300, 0.05)], [0.25], "sigmoid"),
    ])
    s = Sample([0.7, -1.3], 0.5)
    md.reset_pass_count()
    got = md.grad_seeded(m, s).params
    assert md.pass_count() == len(m.params) == 1201
    for k in (0, 1, 2, 299, 599, 600, 750, 899, 900, 1050, 1199, 1200):
        assert got[k].hex() == spec_loss_dual(m, s, k).du.hex(), k


def test_one_kernel_is_compiled_per_layout():
    rng = np.random.default_rng(42)
    m = bench.random_mlp([2, 4, 1], rng)
    s = Sample([1.0, 0.0], 1.0)
    md._kernel.cache_clear()
    md._grad.cache_clear()
    g = md.grad_seeded(m, s)
    assert md._grad.cache_info()[:2] == (0, 1)  # (hits, misses)
    # a second gradient, and one on the successor of an SGD step, compile nothing
    md.grad_seeded(m, s)
    md.grad_seeded(trainer.sgd_step(m, g, 0.5), s)
    assert md._grad.cache_info()[:2] == (2, 1)
    # the same shapes with other activations get their own gradient
    other = Mlp([Layer(lay.W, lay.b, "tanh") for lay in m.layers])
    md.grad_seeded(other, s)
    assert md._grad.cache_info()[:2] == (2, 2)
    assert md._grad(m.shapes, m.acts, "seeded") is not md._grad(other.shapes, other.acts, "seeded")
    # each rule compiles its own gradient for a perceptron, on its first call only
    p = bench.guarded_perceptron(5, rng)
    for _ in range(2):
        md.grad_ones(p, bench.random_sample(5, rng))
        md.grad_seeded(p, bench.random_sample(5, rng))
    assert md._grad.cache_info()[:2] == (6, 4)
    # neither a gradient nor the ones pass compiles the kernel; plain evaluation does, once per layout
    md.forward_dual_ones(p, [0.5] * 5)
    assert md._kernel.cache_info()[:2] == (0, 0)
    p.forward([0.5] * 5)
    m.forward(s.x)
    m.forward(s.x)
    assert md._kernel.cache_info()[:2] == (1, 2)
    assert md._grad.cache_info()[:2] == (6, 4)
    assert md._kernel.cache_info().maxsize == md._grad.cache_info().maxsize == md.KERNEL_CACHE_SIZE


def test_the_kernel_compiles_no_tangent_pass():
    layouts = [(((n, 1),), (act,)) for n in (1, 3) for act in md.ACTIVATIONS]
    layouts.append((((2, 4), (4, 1)), ("tanh", "sigmoid")))
    layouts.append((((3, 5), (5, 2), (2, 1)), ("sigmoid", "identity", "tanh")))
    for shapes, acts in layouts:
        # every function the kernel's source defines lives in its namespace
        namespace = md._kernel(shapes, acts).__globals__
        codes = [f.__code__ for f in namespace.values()
                 if getattr(f, "__code__", None) and f.__code__.co_filename == "<dualgrad kernel>"]
        assert sorted(c.co_name for c in codes) == ["kernel", "loss_sum"]
        for code in codes:
            names = {*code.co_names, *code.co_varnames}
            assert not {"dx", "sd", "count_forward_pass"} & names, (shapes, acts, names)


def test_forward_dual_ones_raises_nonfinite_on_an_overflowing_perceptron():
    for act in md.ACTIVATIONS:
        m = Perceptron([1e308, 1e308], 0.0, act)
        md.reset_pass_count()
        with pytest.raises(NonFinite, match="must be finite"):
            md.forward_dual_ones(m, [10.0, 10.0])
        assert md.pass_count() == 0


def test_dual_allocations_per_pass(monkeypatch):
    made = 0
    dual_init = Dual.__init__

    def counting_init(self, re, du=0.0):
        nonlocal made
        made += 1
        dual_init(self, re, du)

    monkeypatch.setattr(Dual, "__init__", counting_init)
    rng = np.random.default_rng(37)
    xor_net = bench.random_mlp([2, 4, 1], rng)
    for m, s in ((xor_net, Sample([1.0, 0.0], 1.0)),
                 (random_perceptron(rng, 128), bench.random_sample(128, rng))):
        made = 0
        md.reset_pass_count()
        md.grad_seeded(m, s)
        assert md.pass_count() == len(m.params)
        assert made <= 4 * len(m.params)

    # the ones pass runs on the ring: b, then per input the seeded x_i, w_i,
    # their product and the sum, then the activation
    made = 0
    md.forward_dual_ones(random_perceptron(rng, 8), [0.5] * 8)
    assert made == 4 * 8 + 2

    made = 0
    md.grad_ones(bench.guarded_perceptron(8, rng), bench.random_sample(8, rng))
    assert made == 0


# --- the compiled loss loop -------------------------------------------------------------


def extreme_values(rng, k):
    """k entries mixing ±0.0, small reals and magnitudes up to ±1e300."""
    pool = [0.0, -0.0, 1e300, -1e300, 1e150, -1e200]
    return [float(rng.choice(pool)) if rng.random() < 0.3 else float(rng.uniform(-3, 3))
            for _ in range(k)]


def extreme_net(rng):
    widths = [int(w) for w in rng.integers(1, 5, int(rng.integers(1, 4)))] + [1]
    return Mlp([
        Layer([extreme_values(rng, n_in) for _ in range(n_out)], extreme_values(rng, n_out),
              str(rng.choice(md.ACTIVATIONS)))
        for n_in, n_out in zip(widths, widths[1:])
    ])


def test_mean_loss_is_the_sample_order_mean_of_forward_losses_bit_for_bit():
    rng = np.random.default_rng(50)
    kinds = set()
    for _ in range(400):
        m = extreme_net(rng)
        samples = [Sample(extreme_values(rng, m.width), extreme_values(rng, 1)[0])
                   for _ in range(int(rng.integers(1, 7)))]
        total = 0.0
        for s in samples:
            total += md.loss(m.forward(s.x), s.y)
        want = total / len(samples)
        md.reset_pass_count()
        got = trainer.mean_loss(m, trainer.Dataset("r", m.width, samples))
        assert md.pass_count() == 0
        assert got.hex() == want.hex()  # inf, -inf and nan compare by kind
        kinds.add("nan" if math.isnan(got) else "inf" if math.isinf(got) else "finite")
    assert kinds == {"finite", "inf", "nan"}


def test_mean_loss_runs_the_kernel_forward_compiled():
    m = Mlp([Layer([[0.5, -0.25], [1.0, 0.75]], [0.1, -0.1], "tanh"),
             Layer([[0.3, -0.6]], [0.2], "sigmoid")])
    ds = trainer.Dataset("d", 2, [Sample([1.0, 0.0], 1.0), Sample([0.5, 2.0], 0.0)])
    md._kernel.cache_clear()
    md._grad.cache_clear()
    m.forward(ds.samples[0].x)
    trainer.mean_loss(m, ds)
    assert md._kernel.cache_info()[:2] == (1, 1)  # (hits, misses)
    assert md._grad.cache_info()[:2] == (0, 0)  # and no gradient is compiled
    with pytest.raises(ValueError, match="expected 2 features, got 3"):
        trainer.mean_loss(m, trainer.Dataset("wide", 3, [Sample([1.0, 0.0, 2.0], 1.0)]))


# --- the inline activations ------------------------------------------------------------

ACT_SPEC = {"sigmoid": fn.sigmoid_real, "tanh": math.tanh, "identity": lambda r: r}


def assert_compiled_activations_are_the_specs(w, x, y=0.25):
    """forward and mean_loss of Perceptron([w], -0.0) on x, bit for bit, against
    the spec activations of its pre-activation r = -0.0 + w * x."""
    r = -0.0 + w * x
    for act, spec in ACT_SPEC.items():
        m = Perceptron([w], -0.0, act)
        assert m.forward([x]).hex() == spec(r).hex(), (act, r)
        got = trainer.mean_loss(m, trainer.Dataset("r", 1, [Sample([x], y)]))
        assert got.hex() == md.loss(spec(r), y).hex(), (act, r)


def test_the_compiled_activations_are_the_specs_at_their_edges():
    # the sigmoid's branch point at ±0.0 (bias -0.0 keeps a -0.0 product),
    # exp's overflow near ±709.78 and underflow past ±745.2, huge reals
    for r in (0.0, -0.0, 709.78, -709.78, 745.2, -745.2, 1e300, -1e300, 1.0, -1.0):
        assert_compiled_activations_are_the_specs(1.0, r)
    for w in (1e300, -1e300):  # a product that overflows to ±inf
        assert_compiled_activations_are_the_specs(w, 1e300)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.floats(-800.0, 800.0), st.floats(allow_nan=False, allow_infinity=False)))
def test_the_compiled_activations_are_the_specs_bit_for_bit(r):
    assert_compiled_activations_are_the_specs(1.0, r)


# --- one real sweep per seeded gradient -------------------------------------------------


@pytest.fixture
def counting_exp(monkeypatch):
    """``math.exp`` counting its calls in code compiled from here on.

    The kernel and the rules' gradients bind ``math.exp`` when they are
    compiled, so their caches are cleared before and after: no code
    compiled with the counter outlives the test.
    """
    calls = [0]
    exp = math.exp

    def counting(z):
        calls[0] += 1
        return exp(z)

    monkeypatch.setattr(math, "exp", counting)
    md._kernel.cache_clear()
    md._grad.cache_clear()
    yield calls
    md._kernel.cache_clear()
    md._grad.cache_clear()


def test_seeded_computes_each_activation_once_per_gradient(counting_exp):
    # the P passes share one real sweep: each unit's sigmoid, one exp in
    # either branch, is evaluated once per gradient, not once per pass
    rng = np.random.default_rng(38)
    xor_net = bench.random_mlp([2, 4, 1], rng)
    for m, s, units in ((xor_net, Sample([1.0, 0.0], 1.0), 5),
                        (random_perceptron(rng, 128), bench.random_sample(128, rng), 1)):
        counting_exp[0] = 0
        md.reset_pass_count()
        md.grad_seeded(m, s)
        assert (counting_exp[0], md.pass_count()) == (units, len(m.params))


# Passes that leave the finite numbers: the model, the rule, the sample, the
# NonFinite message and the passes counted before the failing one.
FAILING_PASSES = {
    # pass 0 seeds the first weight with 1e308: layer 1's tangent and layer 2's
    # real both overflow, and layer 1 comes first
    "tangent-before-real": (
        Mlp([Layer([[1e-300]], [0.0], "identity"), Layer([[10.0]], [0.0], "identity"),
             Layer([[1e300]], [0.0], "identity")]),
        "seeded", Sample([1e308], 0.0),
        "layer 1 unit 0: pre-activation 1000000000.0 + inf*eps is not finite", 0),
    # only layer 1's real overflows, at its unit 1; every tangent stays finite
    "later-real": (
        Mlp([Layer([[1e300]], [0.0], "identity"), Layer([[0.5], [10.0]], [0.0, 0.0], "identity"),
             Layer([[1.0, 1.0]], [0.0], "sigmoid")]),
        "seeded", Sample([1e8], 0.0),
        "layer 1 unit 1: pre-activation inf + 1000000000.0*eps is not finite", 0),
    # pass 1 seeds the weight whose input is 1e308; its tangent overflows in layer 1
    "late-tangent": (
        Mlp([Layer([[1.0, 1e-300]], [0.0], "identity"), Layer([[10.0]], [0.0], "tanh")]),
        "seeded", Sample([1.0, 1e308], 0.0),
        "layer 1 unit 0: pre-activation 1000000010.0 + inf*eps is not finite", 1),
    # the ones pass: the real overflows, the shared tangent stays finite
    "ones-real": (
        Perceptron([1e300, 1e300], 0.0, "tanh"), "ones", Sample([1e8, 1e8], 0.0),
        "layer 0 unit 0: pre-activation inf + 2e+300*eps is not finite", 0),
}


@pytest.mark.parametrize("case", FAILING_PASSES)
def test_a_failing_pass_is_located_at_its_layer_unit_and_pass(case):
    m, rule, s, message, passes = FAILING_PASSES[case]
    md.reset_pass_count()
    with pytest.raises(NonFinite) as exc:
        trainer.engine(rule).grad(m, s)
    assert (str(exc.value), md.pass_count()) == (message, passes)
    # train's compiled loop stops at the same pass with the same error
    md.reset_pass_count()
    failure = trainer.engine(rule).sgd(m, [[s]], 0.5)[3]
    assert (str(failure), md.pass_count()) == (message, passes)


# Steps that leave the finite numbers after finite passes, on the identity
# perceptron w = 1, b = 0: the samples and the learning rate, and what the
# failure names. In the first two the first sample steps b alone, by a tiny
# entry; the second sample's entries overflow, or they are finite and the
# step overflows. In the third each sample's entries are finite, and so is
# the first step, but two weight entries of 1.62e308 sum past the largest float.
FAILING_STEPS = {
    "entries": ([Sample([0.0], 1e-300), Sample([1e200], 0.0)], 0.5, "gradient entries"),
    "step": ([Sample([0.0], 1e-300), Sample([1e5], 0.0)], 1e300, "parameters"),
    "sum": ([Sample([9e153], 0.0)] * 2, 1e-300, "gradient entries"),
}


@pytest.mark.parametrize("batch", trainer.BATCH_MODES)
@pytest.mark.parametrize("rule", trainer.ENGINES)
@pytest.mark.parametrize("case", FAILING_STEPS)
def test_a_failing_step_stops_as_the_stepwise_spec_does(case, rule, batch):
    samples, lr, what = FAILING_STEPS[case]
    m = Perceptron([1.0], 0.0, "identity")
    batches = [[s] for s in samples] if batch == "per_sample" else [samples]
    runs = []
    for sgd in (trainer.engine(rule).sgd, trainer.stepwise(summed(trainer.engine(rule).grad))):
        md.reset_pass_count()
        last, norm, skips, failure = sgd(m, batches, lr)
        runs.append((repr(last.params), repr(norm), skips, str(failure), md.pass_count()))
    assert runs[0] == runs[1]
    # the message, and a first finite step per sample only
    assert runs[0][3].startswith(f"{what} must be finite")
    assert (runs[0][0] != repr(m.params)) == (batch == "per_sample")


# sha256 of each rule's per-sample gradient source, per layout: the SGD loop
# is compiled from the same rule lines, and changing it moves none of these.
# The first two seeded layouts write their passes out; the width-128 one
# (P = 129, past STRAIGHT_PASSES) loops over one pass text.
GRAD_SOURCES = {
    ("ones", ((3, 1),), ("sigmoid",)): "e540245ab2657698b739717e2e4da3178803f7be66c4e32904e41dba0a0bc46b",
    ("ones", ((2, 1),), ("tanh",)): "0bdcbf44bc34fc9d213cf3e11af9c12ef782ad1f86f2169aa1e7e1d4745824d9",
    ("seeded", ((3, 1),), ("identity",)): "2e7d12028c622f964a5459c12192d3720547e6c9faec6c3a90ddc98c636af2a3",
    ("seeded", ((2, 4), (4, 1)), ("tanh", "sigmoid")):
        "e266b9f634f0a52625ca459f5d12050d7bf4ebb19c0803e5ce8c2d66c758151c",
    ("seeded", ((128, 1),), ("sigmoid",)): "ed7bea0be0e4171cf5bfe30c46987fdbbd94067f5a8be6adbce4298204a7e77a",
}


def test_each_rules_gradient_compiles_from_its_pinned_source(monkeypatch):
    compile_ = md._compile
    sources = []
    monkeypatch.setattr(md, "_compile", lambda lines: sources.append("\n".join(lines)) or compile_(lines))
    for (rule, shapes, acts), digest in GRAD_SOURCES.items():
        sources.clear()
        md._grad.__wrapped__(shapes, acts, rule)  # compiled afresh, past the cache
        assert [hashlib.sha256(s.encode()).hexdigest() for s in sources] == [digest], (rule, shapes)


def test_each_rules_sgd_loop_holds_its_sample_lines_once(monkeypatch):
    # a batch of one and a larger batch run one text, which starts at the x unpack
    compile_ = md._compile
    sources = []
    monkeypatch.setattr(md, "_compile", lambda lines: sources.append(lines) or compile_(lines))
    for rule, shapes, acts in GRAD_SOURCES:
        sources.clear()
        md._sgd_loop.__wrapped__(shapes, acts, rule)  # compiled afresh, past the cache
        [lines] = sources
        unpack = md._unpack("x", shapes[0][0], "s.x")
        assert [line.strip() for line in lines].count(unpack) == 1, (rule, shapes)


def test_the_code_digest_hashes_the_generated_source(monkeypatch):
    compile_, first = md._compile, digest.code_digest()
    assert md._compile is compile_ and len(first) == 64 and digest.code_digest() == first
    monkeypatch.setattr(md, "STRAIGHT_PASSES", 0)  # every seeded layout loops: same bits, new text
    assert digest.code_digest() != first


def run_outcome(f, *args):
    """A compiled gradient's or loop's result as .hex() values, or its exception, and the passes it counted."""
    md.reset_pass_count()
    try:
        result = f(*args)
    except NonFinite as exc:
        result = f"{type(exc).__name__}: {exc}"
    else:
        if isinstance(result, tuple):  # a loop's (params, norm, skips, failure)
            params, norm, skips, failure = result
            result = [v.hex() for v in params], norm.hex(), skips, failure and f"{type(failure).__name__}: {failure}"
        else:
            result = [v.hex() for v in result]
    return result, md.pass_count()


def test_written_out_seeded_passes_are_the_loops_bit_for_bit(monkeypatch):
    # each layout's seeded gradient and SGD loop, compiled written out and as
    # the loop past the threshold, on digest-style nets whose entries reach
    # +-1e300, +-710 and +-745, so many passes and steps fail
    rng, threshold = random.Random(32), md.STRAIGHT_PASSES
    written_out = failed = 0
    for _ in range(150):
        m = digest.random_net(rng)
        samples = [Sample(digest.entries(rng, m.width), digest.entries(rng, 1)[0])
                   for _ in range(rng.randint(1, 4))]
        lr = rng.choice((0.5, 1e-3, 1e6))
        runs = []
        for straight in (threshold, 0):
            monkeypatch.setattr(md, "STRAIGHT_PASSES", straight)
            grad = md._grad.__wrapped__(m.shapes, m.acts, "seeded")  # compiled afresh, past the cache
            loop = md._sgd_loop.__wrapped__(m.shapes, m.acts, "seeded")
            looped = len(m.params) > straight
            assert ("es" in grad.__code__.co_varnames, "es" in loop.__code__.co_varnames) == (looped, looped)
            runs.append([*(run_outcome(grad, m.params, s) for s in samples),
                         *(run_outcome(loop, m.params, batches, lr)
                           for batches in ([[s] for s in samples], [samples, [], samples[::-1]]))])
        assert runs[0] == runs[1], m.shapes
        written_out += len(m.params) <= threshold
        failed += any("layer" in str(result) for result, _ in runs[0])
    assert written_out > 100 and failed > 20, (written_out, failed)


def test_seeded_loss_overflow_is_typed():
    # d = -1e200: the square d**2 overflows, but no engine evaluates it and
    # every gradient entry is finite, so the three engines agree
    m, s = Perceptron([1.0], 1e200, "identity"), Sample([1e-300], 0.0)
    grads = [grad(m, s).params for grad in (md.grad_ones, md.grad_seeded, oracle.grad_backprop)]
    assert grads == [[2e-100, 2e200]] * 3
    # d = -1e200: 2*d*du overflows for the weight
    with pytest.raises(NonFinite, match="gradient entries"):
        md.grad_seeded(Perceptron([1.0], 0.0, "identity"), Sample([1e200], 0.0))
    # d = -1e150: the square is finite, but 2*d*du overflows for the weight
    with pytest.raises(NonFinite, match="gradient entries"):
        md.grad_seeded(Perceptron([1e-10], 0.0, "identity"), Sample([1e160], 0.0))


# --- typed non-finite failures ------------------------------------------------------------


def test_saturated_pre_activation_raises_nonfinite():
    # sigmoid saturates to a finite 1.0 at z = inf, so only a check on the
    # pre-activation sum sees that the pass left the finite numbers
    m = Perceptron([1e308, 1e308], 0.0, "sigmoid")
    s = Sample([10.0, 10.0], 1.0)
    with pytest.raises(NonFinite, match="layer 0 unit 0"):
        md.grad_seeded(m, s)
    with pytest.raises(NonFinite, match="layer 0 unit 0"):
        md.grad_ones(m, s)


def test_nonfinite_is_raised_at_every_finiteness_check():
    with pytest.raises(NonFinite):
        Dual(math.inf)
    with pytest.raises(NonFinite):
        md._model_like(Perceptron([0.1], 0.0), [math.nan, 0.0])
    for bad in (math.nan, math.inf):
        with pytest.raises(NonFinite, match="bias"):
            Perceptron([1.0], bad)
        with pytest.raises(NonFinite, match="sample target"):
            Sample([1.0], bad)
    with pytest.raises(NonFinite, match="probing"):
        oracle.grad_finite_diff(Perceptron([1e308], 0.0, "identity"), Sample([1.0], 0.0))
    assert issubclass(NonFinite, ValueError)
