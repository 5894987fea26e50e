"""Perceptron / MLP models and their forward-mode gradient rules.

Every model is one flat parameter list plus a layout: ``(in, out)`` per
layer and the layer activations. The order is, per layer, the weight rows
and then the biases. ``Perceptron`` and ``Gradient`` are one-layer
``Mlp`` and ``MlpGradient`` built by those constructors, which share one
layout check, ``_flatten``; they add ``W``/``b``/``dW``/``db`` views.

Two forward-mode gradients are provided:

* ``grad_ones`` seeds every input x_i with the same eps in a single dual
  pass. The dual part of the output is then sum(W) * act'(z), so dividing
  by sum(W) recovers act'(z) and with it the full gradient. The division
  makes the rule undefined when sum(W) is (near) zero, which raises
  :class:`SingularSeed`.

* ``grad_seeded`` runs one dual pass per scalar parameter, seeding only
  that parameter. No division, no singularity, and it extends unchanged
  to multilayer networks, at the cost of P passes for P parameters.

Both rules run the same dual pass and differ only in the tangent they
seed. No seed changes a real part, so one real sweep, ``_real_sweep``,
computes every real part once per gradient; a tangent pass,
``_tangent_pass``, then computes the dual parts from the input tangents
and the seeded parameter. ``ones`` runs one tangent pass with every input
tangent 1.0 and no parameter seeded; ``seeded`` runs one per parameter
with zero input tangents. Neither builds a ``Dual``: each dual value is
held as its real and dual parts in plain floats, and the float operations
are the ring's, in the ring's order, so the results are bit-identical to
the same passes written with ``Dual`` and the lifts in ``functions``.
``Dual`` stays the public ring and the spec the passes are tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

from . import functions as fn
from .dual import Dual, NonFinite

ACTIVATIONS = ("sigmoid", "tanh", "identity")

# |sum(W)| below this makes the ones-seeded division ill-conditioned.
ONES_SEED_GUARD = 1e-6


class SingularSeed(ArithmeticError):
    """The ones-seeded rule is undefined because |sum(W)| is below the guard."""


# --- forward-pass accounting (test/bench instrumentation) -------------------

_pass_count = 0


def count_forward_pass() -> None:
    global _pass_count
    _pass_count += 1


def reset_pass_count() -> None:
    global _pass_count
    _pass_count = 0


def pass_count() -> int:
    return _pass_count


# --- types -------------------------------------------------------------------


def _finite(values: list[float], what: str) -> list[float]:
    if not all(map(math.isfinite, values)):
        raise NonFinite(f"{what} must be finite, got {values}")
    return values


def _check_finite(values, what: str) -> list[float]:
    return _finite([float(v) for v in values], what)


def _check_act(act: str) -> str:
    if act not in ACTIVATIONS:
        raise ValueError(f"unknown activation {act!r}, expected one of {ACTIVATIONS}")
    return act


def _check_rows(rows: list[list[float]], biases: list[float], what: str) -> None:
    if len(rows) < 1 or len(rows) != len(biases):
        raise ValueError(f"{what} rows and biases must match and be nonempty")
    widths = {len(row) for row in rows}
    if len(widths) != 1 or min(widths) < 1:
        raise ValueError(f"{what} rows must share a nonzero width")


def _flatten(layers) -> tuple[list[float], tuple[tuple[int, int], ...]]:
    """Flat parameters and ``(in, out)`` shapes of checked (rows, biases) layers.

    The one layout check of models and gradients: the stack is nonempty,
    its widths chain and its final layer has a scalar output.
    """
    if not layers:
        raise ValueError("a layout needs at least one layer")
    shapes = tuple((len(rows[0]), len(rows)) for rows, _ in layers)
    for (_, n_out), (n_in, _) in zip(shapes, shapes[1:]):
        if n_out != n_in:
            raise ValueError(f"layer widths do not chain: {n_out} -> {n_in}")
    if shapes[-1][1] != 1:
        raise ValueError("final layer must have scalar output")
    return [v for rows, biases in layers for row in (*rows, biases) for v in row], shapes


@dataclass
class Sample:
    """One training example: feature vector x and scalar target y."""

    x: list[float]
    y: float

    def __post_init__(self):
        self.x = _check_finite(self.x, "sample features")
        self.y = _check_finite([self.y], "sample target")[0]


@dataclass
class Layer:
    """Dense layer: W is out_width x in_width, b has out_width entries."""

    W: list[list[float]]
    b: list[float]
    act: str = "sigmoid"

    def __post_init__(self):
        self.W = [_check_finite(row, "layer weights") for row in self.W]
        self.b = _check_finite(self.b, "layer biases")
        _check_rows(self.W, self.b, "layer weight")
        _check_act(self.act)


def _split(params: list[float], shapes) -> Iterator[tuple[list[list[float]], list[float]]]:
    """(weight rows, biases) per layer of a flat parameter list."""
    k = 0
    for n_in, n_out in shapes:
        rows = [params[k + i * n_in:k + (i + 1) * n_in] for i in range(n_out)]
        k += n_in * n_out
        yield rows, params[k:k + n_out]
        k += n_out


@dataclass(init=False, slots=True)
class Mlp:
    """Stack of dense layers ending in a single scalar output.

    ``params`` holds every parameter in layer order, each layer's weight
    rows then its biases; ``shapes`` holds ``(in, out)`` per layer and
    ``acts`` the activations. ``layers`` is a view rebuilt from them.
    """

    params: list[float]
    shapes: tuple[tuple[int, int], ...]
    acts: tuple[str, ...]

    def __init__(self, layers: list[Layer]):
        self.params, self.shapes = _flatten([(lay.W, lay.b) for lay in layers])
        self.acts = tuple(lay.act for lay in layers)

    @property
    def layers(self) -> list[Layer]:
        return [
            Layer(rows, biases, act)
            for (rows, biases), act in zip(_split(self.params, self.shapes), self.acts)
        ]

    @property
    def width(self) -> int:
        return self.shapes[0][0]

    def forward(self, x: Sequence[float]) -> float:
        """Plain float evaluation; no dual arithmetic involved."""
        if len(x) != self.width:
            raise ValueError(f"expected {self.width} features, got {len(x)}")
        p = self.params
        h = x
        k = 0  # index of the current row's first weight
        for (n_in, n_out), act in zip(self.shapes, self.acts):
            b0 = k + n_in * n_out
            out = []
            for z in p[b0:b0 + n_out]:
                for j, hj in enumerate(h, k):
                    z += p[j] * hj
                out.append(_act_real(act, z))
                k += n_in
            h = out
            k = b0 + n_out
        return h[0]


class Perceptron(Mlp):
    """Single-layer model act(W . x + b) with scalar output."""

    __slots__ = ()

    def __init__(self, W: list[float], b: float, act: str = "sigmoid"):
        Mlp.__init__(self, [Layer([W], [b], act)])

    @property
    def W(self) -> list[float]:
        return self.params[:-1]

    @property
    def b(self) -> float:
        return self.params[-1]

    @property
    def act(self) -> str:
        return self.acts[0]


Model = Mlp  # a Perceptron is a one-layer Mlp


@dataclass
class LayerGradient:
    dW: list[list[float]]
    db: list[float]

    def __post_init__(self):
        self.dW = [_check_finite(row, "gradient entries") for row in self.dW]
        self.db = _check_finite(self.db, "gradient entries")
        _check_rows(self.dW, self.db, "gradient")


@dataclass(init=False, slots=True)
class MlpGradient:
    """Per-layer loss gradients, flat in the model's parameter order."""

    params: list[float]
    shapes: tuple[tuple[int, int], ...]

    def __init__(self, layers: list[LayerGradient]):
        self.params, self.shapes = _flatten([(lg.dW, lg.db) for lg in layers])

    @property
    def layers(self) -> list[LayerGradient]:
        return [LayerGradient(rows, biases) for rows, biases in _split(self.params, self.shapes)]

    def entries(self) -> Iterator[tuple[str, float]]:
        values = iter(self.params)
        for l, (n_in, n_out) in enumerate(self.shapes):
            for i in range(n_out):
                for j in range(n_in):
                    yield f"layer[{l}].w[{i}][{j}]", next(values)
            for i in range(n_out):
                yield f"layer[{l}].b[{i}]", next(values)

    def to_dict(self) -> dict:
        return {"layers": [{"dW": lg.dW, "db": lg.db} for lg in self.layers]}


class Gradient(MlpGradient):
    """Loss gradient for a perceptron: dW mirrors W, db mirrors b."""

    __slots__ = ()

    def __init__(self, dW: list[float], db: float):
        MlpGradient.__init__(self, [LayerGradient([dW], [db])])

    @property
    def dW(self) -> list[float]:
        return self.params[:-1]

    @property
    def db(self) -> float:
        return self.params[-1]

    def entries(self) -> Iterator[tuple[str, float]]:
        for i, g in enumerate(self.dW):
            yield f"w[{i}]", g
        yield "b", self.db

    def to_dict(self) -> dict:
        return {"dW": self.dW, "db": self.db}


AnyGradient = MlpGradient  # a Gradient is a one-layer MlpGradient


def _model_like(m: Mlp, params: list[float]) -> Mlp:
    """A model of m's type and layout over new parameters.

    The layout was validated when m was built, so only finiteness is
    checked; train's divergence detection relies on that check.
    """
    out = object.__new__(type(m))
    out.params = _finite(params, "parameters")
    out.shapes = m.shapes
    out.acts = m.acts
    return out


def _grad_like(m: Mlp, values: list[float]) -> AnyGradient:
    """A gradient over m's layout, checked for finiteness only."""
    out = object.__new__(Gradient if isinstance(m, Perceptron) else MlpGradient)
    out.params = _finite(values, "gradient entries")
    out.shapes = m.shapes
    return out


# --- evaluation helpers -------------------------------------------------------


def _act_real(tag: str, z: float) -> float:
    if tag == "sigmoid":
        return fn.sigmoid_real(z)
    if tag == "tanh":
        return math.tanh(z)
    return z


def loss(yhat: float, y: float) -> float:
    """Squared error (y - yhat)**2."""
    d = y - yhat
    return d * d


# --- the dual pass: one real sweep, then tangent passes -------------------------


def _real_sweep(m: Mlp, x: Sequence[float]) -> tuple[list[tuple], float]:
    """The real half of every dual pass over m, and the output's real part.

    No seed changes a real part, so it is computed once per gradient. Per
    layer: the input reals and, per unit, the weight row, the
    pre-activation ``zr``, the indices of its bias and first weight, and
    the two factors of its activation's rule: ``s`` and ``1 - s`` for
    sigmoid, ``1 - t*t`` and 1.0 for tanh, 1.0 twice for identity (a
    product with 1.0 is exact). Only the width of x is checked here; the
    first tangent pass reports a non-finite ``zr`` at its unit.
    """
    if len(x) != m.width:
        raise ValueError(f"expected {m.width} features, got {len(x)}")
    p = m.params
    hr = x
    sweep = []
    off = 0  # index of the current row's first weight
    for (n_in, n_out), act in zip(m.shapes, m.acts):
        b0 = off + n_in * n_out
        units, out = [], []
        for i in range(b0, b0 + n_out):
            row = p[off:off + n_in]
            zr = p[i]
            for w, r in zip(row, hr):
                zr += w * r
            if act == "sigmoid":  # the rule of fn.sigmoid
                a = fn.sigmoid_real(zr)
                f, g = a, 1.0 - a
            elif act == "tanh":  # the rule of fn.tanh
                a = math.tanh(zr)
                f, g = 1.0 - a * a, 1.0
            else:
                a = zr
                f = g = 1.0
            units.append((row, zr, i, off, f, g))
            out.append(a)
            off += n_in
        sweep.append((hr, units))
        hr = out
        off = b0 + n_out
    return sweep, hr[0]


def _tangent_pass(sweep: list[tuple], hd: list[float], k: int) -> float:
    """The output's dual part from input tangents hd with parameter k seeded.

    A k outside the parameter indices seeds no parameter. Every weight of
    every layer is walked, so each pass costs O(P). The products and sums
    are those of the pass over ``Dual`` values in the same order. The ring
    adds ``+ 0.0`` to a product's dual part and the unseeded weights'
    ``0.0 * hr``; both are left out, as they only turn a -0.0 into +0.0,
    which changes no bit of a ``zd`` that is never -0.0. The seeded
    weight's input real is added after its row's sum, which is +0.0 there
    because nothing before a seeded parameter carries a tangent. Raises
    NonFinite at the first unit whose ``zr`` or ``zd`` is not finite: sums
    and products never make an inf or nan finite again, so the pass over
    ``Dual`` values fails there too.
    """
    for l, (hr, units) in enumerate(sweep):
        n_in = len(hr)
        out = []
        for row, zr, i, start, f, g in units:
            zd = 1.0 if i == k else 0.0
            for w, d in zip(row, hd):
                zd += w * d
            if 0 <= k - start < n_in:
                zd += hr[k - start]
            if not (math.isfinite(zr) and math.isfinite(zd)):
                raise NonFinite(
                    f"layer {l} unit {len(out)}: pre-activation {zr!r} + {zd!r}*eps is not finite"
                )
            out.append(zd * f * g)
        hd = out
    count_forward_pass()
    return hd[0]


# --- the ones-seeded rule -----------------------------------------------------


def _single_layer(m: Mlp) -> Perceptron:
    if not isinstance(m, Perceptron):
        raise TypeError("the shared-seed rule is single-layer; use grad_seeded for Mlp")
    return m


def forward_dual_ones(m: Perceptron, x: Sequence[float]) -> Dual:
    """Evaluate the perceptron with every input seeded as x_i + eps.

    The result's dual part equals sum(W) * act'(W.x + b): all input
    perturbations share one eps, so their first-order effects add up.
    """
    sweep, yr = _real_sweep(_single_layer(m), [float(xi) for xi in x])
    return Dual(yr, _tangent_pass(sweep, [1.0] * len(x), -1))


def grad_ones(m: Perceptron, s: Sample) -> Gradient:
    """Gradient of (y - yhat)**2 from a single input-seeded dual pass.

    dW_i = 2*(R(yhat_eps) - y) * E(yhat_eps) / sum(W) * x_i, and db is the
    same scalar factor without the x_i product. Requires |sum(W)| >=
    ONES_SEED_GUARD; raises SingularSeed otherwise.
    """
    seed_sum = sum(_single_layer(m).W)
    if abs(seed_sum) < ONES_SEED_GUARD:
        raise SingularSeed(
            f"|sum(W)| = {abs(seed_sum):.3e} is below {ONES_SEED_GUARD:g}; the shared-seed "
            "division is undefined here, use grad_seeded instead"
        )
    sweep, yr = _real_sweep(m, s.x)
    yd = _tangent_pass(sweep, [1.0] * len(s.x), -1)
    g0 = 2.0 * (yr - s.y) * yd / seed_sum
    return _grad_like(m, [g0 * xi for xi in s.x] + [g0])


# --- per-parameter seeding ----------------------------------------------------


def grad_seeded(m: Model, s: Sample) -> AnyGradient:
    """Gradient via one dual pass per scalar parameter, in layout order.

    Works for any weight configuration and for multilayer models; the cost
    is exactly one forward pass per parameter. The passes share one real
    sweep and one list of zero input tangents. The loss (y - yhat)**2
    takes the ring's power rule, 2*d*(0 - yhat.du) with d = y - yhat.re.
    Like ``grad_ones`` and ``grad_backprop`` it never evaluates the loss,
    so only an overflowing gradient entry raises NonFinite, not d**2.
    """
    sweep, yr = _real_sweep(m, s.x)
    zeros = [0.0] * m.width
    d = s.y - yr
    yds = [_tangent_pass(sweep, zeros, k) for k in range(len(m.params))]
    return _grad_like(m, [2 * d * (0.0 - yd) for yd in yds])
