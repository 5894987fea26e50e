"""Reference gradients that never touch dual arithmetic.

``grad_backprop`` is the closed-form chain-rule gradient, ``grad_finite_diff``
is a central-difference probe of the actual loss. Together they give two
independent answers to check the forward-mode engines against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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


def grad_backprop(m: Perceptron, s: Sample) -> Gradient:
    """Analytic gradient of (y - yhat)**2: dW = 2*(yhat - y)*act'(z)*x, db likewise."""
    if not isinstance(m, Perceptron):
        raise TypeError("the closed-form gradient is single-layer; use grad_seeded for Mlp")
    if len(s.x) != len(m.W):
        raise ValueError(f"expected {len(m.W)} features, got {len(s.x)}")
    z = m.b
    for w, xi in zip(m.W, s.x):
        z += w * xi
    yhat, dact = _act_value_deriv(m.act, z)
    g0 = 2.0 * (yhat - s.y) * dact
    _model.count_forward_pass()
    return _model._grad_like(m, [g0 * xi for xi in s.x] + [g0])


def grad_finite_diff(m: Model, s: Sample, h: float = DEFAULT_FD_STEP) -> AnyGradient:
    """Central differences (L(p+h) - L(p-h)) / 2h over every parameter."""
    if not (h > 0.0 and math.isfinite(h)):
        raise ValueError(f"step must be positive and finite, got {h}")
    if len(s.x) != m.width:
        raise ValueError(f"expected {m.width} features, got {len(s.x)}")

    # Perturb a private copy of the parameters in place, one entry at a time.
    probe = _model._model_like(m, list(m.params))
    p = probe.params

    def loss_now() -> float:
        value = _model.loss(probe.forward(s.x), s.y)
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

    grad_a: AnyGradient
    grad_b: AnyGradient
    max_abs_err: float
    max_rel_err: float
    worst_index: str
    passed: bool
    tol: float

    def to_dict(self) -> dict:
        return {
            "grad_a": self.grad_a.to_dict(),
            "grad_b": self.grad_b.to_dict(),
            "max_abs_err": self.max_abs_err,
            "max_rel_err": self.max_rel_err,
            "worst_index": self.worst_index,
            "pass": self.passed,
            "tol": self.tol,
        }


def entry_error(a: float, b: float) -> float:
    """|a-b| / max(|a|,|b|), falling back to |a-b| when both are tiny."""
    diff = abs(a - b)
    scale = max(abs(a), abs(b))
    if scale < ABS_FALLBACK:
        return diff
    return diff / scale


def compare(a: AnyGradient, b: AnyGradient, tol: float) -> GradReport:
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
        err = entry_error(va, vb)
        if err > max_rel:
            max_rel = err
            worst = path
    return GradReport(a, b, max_abs, max_rel, worst, max_rel <= tol, tol)
