"""Perceptron/MLP evaluation and the two forward-mode gradient rules."""

import math

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from dualgrad import functions as fn
from dualgrad import model as md
from dualgrad import oracle
from dualgrad.dual import Dual, NonFinite
from dualgrad.model import Layer, Mlp, Perceptron, Sample


def relerr(a: float, b: float) -> float:
    scale = max(abs(a), abs(b))
    if scale < 1e-8:
        return abs(a - b)
    return abs(a - b) / scale


def assert_grads_close(got, want, rtol, atol=1e-8):
    # atol absorbs the finite-difference noise floor on tiny entries
    for (path, a), (_, b) in zip(got.entries(), want.entries()):
        assert abs(a - b) <= atol + rtol * max(abs(a), abs(b)), (path, a, b)


def random_perceptron(rng, n, act="sigmoid", guarded=False):
    while True:
        W = [float(v) for v in rng.uniform(-2, 2, n)]
        if not guarded or abs(sum(W)) >= 1e-3:
            return Perceptron(W, float(rng.uniform(-2, 2)), act)


def random_sample(rng, n):
    return Sample([float(v) for v in rng.uniform(-2, 2, n)], float(rng.uniform(0, 1)))


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
    Mlp([l1, Layer([[0.5, 0.6]], [0.0])])


def test_gradients_get_the_layout_checks_of_models():
    with pytest.raises(ValueError):
        md.MlpGradient([])  # so compare never indexes into an empty gradient
    with pytest.raises(ValueError):
        md.Gradient([], 0.0)  # as Perceptron([], 0.0) is rejected
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
    if abs(sum(m.W)) < md.ONES_SEED_GUARD:
        with pytest.raises(md.SingularSeed):
            md.grad_ones(m, s)
    else:
        report = oracle.compare(md.grad_ones(m, s), oracle.grad_backprop(m, s), 1e-10)
        assert report.passed, report


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
        s = random_sample(rng, n)
        g = md.grad_seeded(m, s)
        resid = 2.0 * (m.forward(s.x) - s.y)
        for gw, xi in zip(g.dW, s.x):
            assert relerr(gw, resid * xi) <= 1e-12
        assert relerr(g.db, resid) <= 1e-12


def test_grad_seeded_handles_zero_weight_sum():
    rng = np.random.default_rng(33)
    for _ in range(50):
        n = int(rng.integers(2, 6))
        W = [float(v) for v in rng.uniform(-2, 2, n - 1)]
        W.append(-sum(W))
        m = Perceptron(W, float(rng.uniform(-1, 1)))
        s = random_sample(rng, n)
        assert_grads_close(md.grad_seeded(m, s), oracle.grad_finite_diff(m, s), rtol=1e-6)


def test_grad_seeded_mlp_matches_finite_differences():
    rng = np.random.default_rng(34)
    for _ in range(50):
        n_in = int(rng.integers(2, 5))
        n_hid = int(rng.integers(2, 5))
        mlp = Mlp([
            Layer([[float(v) for v in rng.uniform(-1, 1, n_in)] for _ in range(n_hid)],
                  [float(v) for v in rng.uniform(-1, 1, n_hid)]),
            Layer([[float(v) for v in rng.uniform(-1, 1, n_hid)]],
                  [float(rng.uniform(-1, 1))]),
        ])
        s = random_sample(rng, n_in)
        assert_grads_close(md.grad_seeded(mlp, s), oracle.grad_finite_diff(mlp, s), rtol=1e-5)


def test_gradient_shapes_mirror_model():
    rng = np.random.default_rng(35)
    m = random_perceptron(rng, 5)
    g = md.grad_seeded(m, random_sample(rng, 5))
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
    mlp = Mlp([Layer([[1.0, 1.0]], [0.0])])
    s = Sample([1.0, 0.0], 1.0)
    with pytest.raises(TypeError):
        md.grad_ones(mlp, s)
    with pytest.raises(TypeError):
        oracle.grad_backprop(mlp, s)


# --- pass accounting -------------------------------------------------------------------


def test_pass_counts_per_engine():
    rng = np.random.default_rng(36)
    m = random_perceptron(rng, 7, guarded=True)
    s = random_sample(rng, 7)

    md.reset_pass_count()
    md.grad_ones(m, s)
    assert md.pass_count() == 1

    md.reset_pass_count()
    md.grad_seeded(m, s)
    assert md.pass_count() == 8  # 7 weights + bias: one pass per parameter

    md.reset_pass_count()
    oracle.grad_backprop(m, s)
    assert md.pass_count() == 1


def test_pass_count_mlp_is_parameter_count():
    mlp = Mlp([
        Layer([[0.1, 0.2], [0.3, 0.4]], [0.0, 0.1]),
        Layer([[0.5, -0.5]], [0.2]),
    ])
    md.reset_pass_count()
    md.grad_seeded(mlp, Sample([0.5, -0.5], 1.0))
    assert md.pass_count() == (4 + 2) + (2 + 1)


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
    for rule in (md.grad_seeded, oracle.grad_finite_diff):
        runs = []
        for m in (perceptron, mlp):
            md.reset_pass_count()
            g = rule(m, s)
            runs.append(([v.hex() for _, v in g.entries()], md.pass_count()))
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


def spec_loss_dual(m, s, k):
    """The loss with only parameter k seeded, computed over Dual values."""
    p = m.params
    h = [Dual(xi) for xi in s.x]
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
    return (Dual(s.y) - h[0]) ** 2


def spec_forward_dual_ones(m, x):
    """The perceptron with every input seeded as x_i + eps, over Dual values."""
    z = Dual(m.b)
    for w, xi in zip(m.W, x):
        z = z + Dual(xi, 1.0) * w
    return _spec_act(m.act, z)


values = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-3.0, 3.0))


def draw_mlp(data, max_layers=3):
    widths = data.draw(st.lists(st.integers(1, 6), min_size=1, max_size=max_layers)) + [1]
    layers = []
    for n_in, n_out in zip(widths, widths[1:]):
        rows = [data.draw(st.lists(values, min_size=n_in, max_size=n_in)) for _ in range(n_out)]
        biases = data.draw(st.lists(values, min_size=n_out, max_size=n_out))
        layers.append(Layer(rows, biases, data.draw(st.sampled_from(md.ACTIVATIONS))))
    return Mlp(layers)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_grad_seeded_is_bit_identical_to_the_dual_spec(data):
    m = draw_mlp(data)
    s = Sample(data.draw(st.lists(values, min_size=m.width, max_size=m.width)), data.draw(values))
    want = [spec_loss_dual(m, s, k).du.hex() for k in range(len(m.params))]
    md.reset_pass_count()
    got = md.grad_seeded(m, s)
    assert [v.hex() for v in got.params] == want
    assert md.pass_count() == len(m.params)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_forward_dual_ones_is_bit_identical_to_the_dual_spec(data):
    n = data.draw(st.integers(1, 6))
    W = data.draw(st.lists(values, min_size=n, max_size=n))
    m = Perceptron(W, data.draw(values), data.draw(st.sampled_from(md.ACTIVATIONS)))
    x = data.draw(st.lists(values, min_size=n, max_size=n))
    want = spec_forward_dual_ones(m, x)
    md.reset_pass_count()
    got = md.forward_dual_ones(m, x)
    assert (got.re.hex(), got.du.hex()) == (want.re.hex(), want.du.hex())
    assert md.pass_count() == 1

    # grad_ones divides the same pass's output by sum(W)
    seed_sum = sum(m.W)
    if abs(seed_sum) >= md.ONES_SEED_GUARD:
        s = Sample(x, data.draw(values))
        g0 = 2.0 * (want.re - s.y) * want.du / seed_sum
        md.reset_pass_count()
        grad = md.grad_ones(m, s)
        assert [v.hex() for v in grad.params] == [v.hex() for v in [g0 * xi for xi in x] + [g0]]
        assert md.pass_count() == 1


def test_dual_allocations_per_pass(monkeypatch):
    made = 0
    dual_init = Dual.__init__

    def counting_init(self, re, du=0.0):
        nonlocal made
        made += 1
        dual_init(self, re, du)

    monkeypatch.setattr(Dual, "__init__", counting_init)
    rng = np.random.default_rng(37)
    xor_net = Mlp([
        Layer([[float(v) for v in rng.uniform(-1, 1, 2)] for _ in range(4)],
              [float(v) for v in rng.uniform(-1, 1, 4)]),
        Layer([[float(v) for v in rng.uniform(-1, 1, 4)]], [float(rng.uniform(-1, 1))]),
    ])
    for m, s in ((xor_net, Sample([1.0, 0.0], 1.0)),
                 (random_perceptron(rng, 128), random_sample(rng, 128))):
        made = 0
        md.reset_pass_count()
        md.grad_seeded(m, s)
        assert md.pass_count() == len(m.params)
        assert made <= 4 * len(m.params)

    made = 0
    md.forward_dual_ones(random_perceptron(rng, 8), [0.5] * 8)
    assert made == 1

    made = 0
    md.grad_ones(random_perceptron(rng, 8, guarded=True), random_sample(rng, 8))
    assert made == 0


# --- one real sweep per seeded gradient -------------------------------------------------


def test_seeded_computes_each_activation_once_per_gradient(monkeypatch):
    # the P passes share one real sweep: each unit's sigmoid is evaluated
    # once per gradient, not once per pass
    calls = 0
    sigmoid_real = fn.sigmoid_real

    def counting(z):
        nonlocal calls
        calls += 1
        return sigmoid_real(z)

    monkeypatch.setattr(fn, "sigmoid_real", counting)
    rng = np.random.default_rng(38)
    xor_net = Mlp([
        Layer([[float(v) for v in rng.uniform(-1, 1, 2)] for _ in range(4)],
              [float(v) for v in rng.uniform(-1, 1, 4)]),
        Layer([[float(v) for v in rng.uniform(-1, 1, 4)]], [float(rng.uniform(-1, 1))]),
    ])
    for m, s, units in ((xor_net, Sample([1.0, 0.0], 1.0), 5),
                        (random_perceptron(rng, 128), random_sample(rng, 128), 1)):
        calls = 0
        md.reset_pass_count()
        md.grad_seeded(m, s)
        assert (calls, md.pass_count()) == (units, len(m.params))


def test_seeded_reports_a_late_nonfinite_tangent_at_its_pass_and_unit():
    # pass 1 seeds the weight whose input is 1e308; its tangent overflows in layer 1
    m = Mlp([Layer([[1.0, 1e-300]], [0.0], "identity"), Layer([[10.0]], [0.0], "tanh")])
    md.reset_pass_count()
    with pytest.raises(NonFinite) as exc:
        md.grad_seeded(m, Sample([1.0, 1e308], 0.0))
    assert str(exc.value) == "layer 1 unit 0: pre-activation 1000000010.0 + inf*eps is not finite"
    assert md.pass_count() == 1


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
