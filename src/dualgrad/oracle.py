"""Reference gradients that never touch dual arithmetic.

``grad_backprop`` is the closed-form chain-rule gradient, ``grad_finite_diff``
is a central-difference probe of the actual loss. Together they give two
independent answers to check the forward-mode engines against. The closed
form is written once, as ``grad_backprop_batch``, the trainer's
``backprop`` engine; ``grad_backprop`` is its batch of one. The batch
copies the first sample's entries and adds each later sample's in place.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice

from . import model as _model
from .dual import NonFinite
from .model import AnyGradient, Gradient, Model, Perceptron, Sample

# Entries smaller than this are compared by absolute rather than relative error.
ABS_FALLBACK = 1e-8

DEFAULT_FD_STEP = 1e-6


def _act_value_deriv(tag: str, z: float) -> tuple[float, float]:
    # Deliberately self-contained: the oracle recomputes activations and
    # their derivatives instead of reusing the library's lifted functions.
    if tag == "sigmoid":
        if z >= 0.0:
            s = 1.0 / (1.0 + math.exp(-z))
        else:
            t = math.exp(z)
            s = t / (1.0 + t)
        return s, s * (1.0 - s)
    if tag == "tanh":
        t = math.tanh(z)
        return t, 1.0 - t * t
    if tag == "identity":
        return z, 1.0
    raise ValueError(f"unknown activation {tag!r}")


def grad_backprop_batch(m: Perceptron, samples) -> tuple[Gradient | None, int]:
    """Mean analytic gradient over a batch, and 0 singular skips.

    Per sample, dW = 2*(yhat - y)*act'(z)*x and db likewise. The first
    sample's entries are copied and each later sample's added in place, in
    sample order; the sums are scaled by 1/len(samples) when the batch
    holds more than one sample, and an empty batch gives None. The gradient
    is checked for finiteness once: a non-finite entry keeps every later
    sum non-finite (inf - inf is nan, and nan absorbs every add), and so
    does the positive scale, so this raises NonFinite exactly when
    checking each sample's gradient and then their mean would. A finite
    gradient counts one pass per sample. A failing larger batch (a wrong
    width or a non-finite gradient) is replayed through ``grad_backprop``
    one sample at a time, so it names and counts as that per-sample loop
    does: the first failing sample raises its own error after the passes
    before it, and its own if non-finite; if every sample's gradient is
    finite, their sum left the finite numbers, and the mean's error is
    raised after every pass. A batch of one counts its pass if non-finite.
    """
    if not isinstance(m, Perceptron):
        raise TypeError("the closed-form gradient is single-layer; use grad_seeded for Mlp")
    *W, b = m.params
    act = m.act
    dW = db = None
    try:
        for s in samples:
            x = s.x
            if len(x) != len(W):
                raise ValueError(f"expected {len(W)} features, got {len(x)}")
            z = b
            for w, xi in zip(W, x):
                z += w * xi
            yhat, dact = _act_value_deriv(act, z)
            g0 = 2.0 * (yhat - s.y) * dact
            if dW is None:
                dW, db = [g0 * xi for xi in x], g0
            else:
                for j, xi in enumerate(x):
                    dW[j] += g0 * xi
                db += g0
        if dW is None:
            return None, 0
        dW.append(db)
        if len(samples) > 1:  # scaling a single gradient by 1.0 would change no bit
            scale = 1.0 / len(samples)
            dW = [scale * v for v in dW]
        g = _model._grad_like(m, dW)
    except ValueError as exc:  # NonFinite included
        if len(samples) > 1:
            for s in samples:  # the first failing sample raises its own error
                grad_backprop(m, s)
        elif isinstance(exc, NonFinite):
            _model.count_forward_pass(1)
        raise
    _model.count_forward_pass(len(samples))
    return g, 0


def grad_backprop(m: Perceptron, s: Sample) -> Gradient:
    """Analytic gradient of (y - yhat)**2: the batch of one sample."""
    return grad_backprop_batch(m, [s])[0]


def grad_finite_diff(m: Model, s: Sample, h: float = DEFAULT_FD_STEP) -> AnyGradient:
    """Central differences (L(p+h) - L(p-h)) / 2h over every parameter."""
    _model._check_positive(h, "step")
    _model._check(m, None, s.x)
    kernel = _model._kernel(m.shapes, m.acts)  # Mlp.forward's evaluation, looked up once
    p = list(m.params)  # perturbed in place, one entry at a time

    def loss_now() -> float:
        value = _model.loss(kernel(p, s.x), s.y)
        if not math.isfinite(value):
            raise NonFinite("loss became non-finite while probing")
        return value

    grads = []
    for k, base in enumerate(m.params):
        p[k] = base + h
        lp = loss_now()
        p[k] = base - h
        lm = loss_now()
        p[k] = base
        grads.append((lp - lm) / (2.0 * h))
    return _model._grad_like(m, grads)


@dataclass
class GradReport:
    """Elementwise comparison of two gradients of identical shape."""

    max_abs_err: float
    max_rel_err: float
    worst_index: str
    passed: bool
    tol: float


def compare(a: AnyGradient, b: AnyGradient, tol: float) -> GradReport:
    """Worst-entry comparison; passes iff the worst error is within tol.

    An entry's error is |a-b| / max(|a|, |b|), or |a-b| when that scale is
    below ABS_FALLBACK. Both maxima start at 0.0 and move only to a strictly
    larger value, as the builtin max does: the first of equally bad entries
    wins, and a nan error is never the maximum. worst_index is the entries()
    path of the worst entry (of the first entry when every error is 0), the
    only path built unless the layouts differ; gradients whose paths differ
    raise ValueError listing both.
    """
    # one layout named by one entries() rule gives one path list; build it only to report a mismatch
    if (a.shapes, type(a).entries) != (b.shapes, type(b).entries):
        paths_a = [p for p, _ in a.entries()]
        paths_b = [p for p, _ in b.entries()]
        if paths_a != paths_b:
            raise ValueError(f"gradient shapes differ: {paths_a} vs {paths_b}")
    max_abs, max_rel, worst = 0.0, 0.0, 0
    for k, (va, vb) in enumerate(zip(a.params, b.params)):
        diff = abs(va - vb)
        if diff > max_abs:
            max_abs = diff
        scale = abs(va)
        if abs(vb) > scale:
            scale = abs(vb)
        err = diff if scale < ABS_FALLBACK else diff / scale
        if err > max_rel:
            max_rel = err
            worst = k
    path = next(islice(a.entries(), worst, None))[0]
    return GradReport(max_abs, max_rel, path, max_rel <= tol, tol)
