"""Perceptron / MLP models and their forward-mode gradient rules.

Every model is one flat parameter list plus a layout: ``(in, out)`` per
layer and the layer activations. The order is, per layer, the weight rows
and then the biases. ``Perceptron`` and ``Gradient`` are one-layer
``Mlp`` and ``MlpGradient`` built by those constructors, which share one
layout check, ``_flatten``; they add ``W``/``b``/``dW``/``db`` views.

Two forward-mode gradients are provided:

* ``grad_ones`` seeds every input x_i with the same eps in one dual pass,
  whose dual part sum(W) * act'(z) it divides by sum(W); it raises
  :class:`SingularSeed` where sum(W) is (near) zero.
* ``grad_seeded`` runs one dual pass per scalar parameter, seeding only
  that parameter: no division, and any layout, at P passes, which
  ``_pass_lines`` writes out or loops by one budget, ``STRAIGHT_PASSES``.

Each rule is one record in ``_RULES``: its input tangent, guard and lines
from the dual pass to the gradient entries; ``SINGLE_LAYER`` names the
single-layer engines, ``ones`` among them. The pass is Python source
that ``_pass_lines`` writes per layout over parameters unpacked into
locals. A record's lines give two functions per layout,
each compiled on its first use and kept in an ``lru_cache`` of
``KERNEL_CACHE_SIZE`` layouts: the per-sample gradient (``_grad``) and
``train``'s SGD loop (``_sgd_loop``, run by ``run_sgd``). No ``Dual`` is
built there: a dual value is two plain floats, and the float operations
are the ring's, in the ring's order, so the results are bit-identical to
the same passes with ``Dual`` and ``functions``, the public ring and the
spec, and a loop's run to ``trainer.stepwise`` over the sample-order mean
of the rule's gradients.
``_kernel`` compiles the real sweep alone, for ``Mlp.forward`` and the
trainer's ``mean_loss``; ``forward_dual_ones`` runs on the ring itself.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple, Sequence

from . import functions
from .dual import Dual, NonFinite

ACTIVATIONS = ("sigmoid", "tanh", "identity")

# |sum(W)| below this makes the ones-seeded division ill-conditioned.
ONES_SEED_GUARD = 1e-6


class SingularSeed(ArithmeticError):
    """The ones-seeded rule is undefined because |sum(W)| is below the guard."""


# --- forward-pass accounting (test/bench instrumentation) -------------------

_pass_count = 0


def count_forward_pass(n: int) -> None:
    global _pass_count
    _pass_count += n


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


def _check_positive(value: float, what: str) -> float:
    if not (value > 0 and math.isfinite(value)):
        raise ValueError(f"{what} must be positive and finite, got {value}")
    return value


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
        """Plain float evaluation: the real sweep of the layout's ``_kernel``.

        It counts no pass. A layout's first evaluation compiles the kernel,
        0.4 s against 1.5 ms per later call for a 20,000-wide perceptron.
        """
        _check(self, None, x)
        return _kernel(self.shapes, self.acts)(self.params, x)


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


def _grad_like(m: Mlp, values: list[float]) -> MlpGradient:
    """A gradient over m's layout, checked for finiteness only."""
    out = object.__new__(Gradient if isinstance(m, Perceptron) else MlpGradient)
    out.params = _finite(values, "gradient entries")
    out.shapes = m.shapes
    return out


def loss(yhat: float, y: float) -> float:
    """Squared error (y - yhat)**2."""
    d = y - yhat
    return d * d


# --- the dual pass: one compiled kernel per layout -------------------------------

# How many layouts keep their compiled kernel at once; the same bound holds
# each rule's compiled gradient and SGD loop.
KERNEL_CACHE_SIZE = 64
# The most terms ``_chain`` sums in one statement: CPython refuses ~3,000 ``+`` in one chain.
CHAIN_TERMS = 256
# A rule's passes are written out while passes x parameters is at most this
# squared (for ``seeded``, P <= 32); written-out text grows as that product,
# so past it one pass text loops over the seeds.
STRAIGHT_PASSES = 32

# Per activation tag: the lines of a unit's activation a{u} from its
# pre-activation r{u} (the sigmoid inline, with fn.sigmoid_real's operations
# branch by branch), the lines of its derivative rule's factors, and its
# tangent from its dual part z{u}. The rules are those of fn.sigmoid
# (factors s and 1 - s) and fn.tanh (1 - t*t and 1.0); identity's factors
# are 1.0 twice. A product with 1.0 is exact, so it is left out.
_ACT_SOURCE = {
    "sigmoid": (("if r{u} >= 0.0:", "    a{u} = 1.0 / (1.0 + exp(-r{u}))", "else:",
                 "    a{u} = exp(r{u})", "    a{u} = a{u} / (1.0 + a{u})"),
                ("g{u} = 1.0 - a{u}",), "z{u} * a{u} * g{u}"),
    "tanh": (("a{u} = tanh(r{u})",), ("f{u} = 1.0 - a{u} * a{u}",), "z{u} * f{u}"),
    "identity": (("a{u} = r{u}",), (), "z{u}"),
}


def _chain(target: str, terms: list[str]) -> list[str]:
    """Statements setting ``target`` to the left-to-right sum of ``terms``.

    Each statement sums at most ``CHAIN_TERMS`` terms, and each later one
    continues as ``target = target + ...``: the adds, in order, are one chain's.
    """
    lines = [f"{target} = {' + '.join(terms[:CHAIN_TERMS])}"]
    for i in range(CHAIN_TERMS, len(terms), CHAIN_TERMS - 1):
        lines.append(f"{target} = {' + '.join([target, *terms[i:i + CHAIN_TERMS - 1]])}")
    return lines


def _unpack(name: str, count: int, source: str) -> str:
    """The statement unpacking ``source`` into the locals ``{name}0``, ..., ``{name}{count - 1}``."""
    return f"{''.join(f'{name}{j}, ' for j in range(count))}= {source}"


def _pass_failure(passes: int, layers) -> NonFinite:
    """The error of a pass that left the finite numbers.

    ``passes`` whole passes ran before it and are counted. ``layers`` holds,
    per layer, each unit's pre-activation real and dual part, at least one
    of them not finite; the first such unit of the first such layer is
    named, as checking layer by layer and unit by unit in order would name it.
    """
    count_forward_pass(passes)
    for layer, units in enumerate(layers):
        for u, (zr, zd) in enumerate(units):
            if not (math.isfinite(zr) and math.isfinite(zd)):
                return NonFinite(
                    f"layer {layer} unit {u}: pre-activation {zr!r} + {zd!r}*eps is not finite"
                )


def _singular(seed_sum: float) -> SingularSeed:
    """The error of a ``grad_ones`` call whose seed sum fails the guard."""
    return SingularSeed(f"|sum(W)| = {abs(seed_sum):.3e} is below {ONES_SEED_GUARD:g}; the "
                        "shared-seed division is undefined here, use grad_seeded instead")


@functools.lru_cache(maxsize=KERNEL_CACHE_SIZE)
def _kernel(shapes: tuple[tuple[int, int], ...], acts: tuple[str, ...]):
    """One layout's real sweep as compiled straight-line functions.

    ``kernel(params, x)`` is ``Mlp.forward``: it unpacks the parameters and
    inputs into locals, then per unit sums the bias plus ``w * r`` per input
    left to right and takes the activation. ``kernel.loss_sum(params,
    samples)`` runs the sweep per sample and sums ``d * d`` (``d = y -
    yhat``) from 0.0 in sample order, as summing ``loss(forward(x), y)``
    does. Neither counts a pass; no tangent pass or gradient compiles here.
    """
    sweep, _, _, _, seeds = _pass_lines(shapes, acts)
    unpack_params, n, out = _unpack("w", len(seeds), "p"), shapes[0][0], seeds[-1][0]
    lines = [
        "def kernel(p, x):",
        f"    {unpack_params}",
        f"    {_unpack('x', n, 'x')}",
        *(f"    {line}" for line in sweep),
        f"    return a{out}",
        "def loss_sum(p, samples):",
        f"    {unpack_params}",
        "    total = 0.0",
        "    for s in samples:",
        f"        {_unpack('x', n, 's.x')}",
        *(f"        {line}" for line in sweep),
        f"        d = s.y - a{out}",
        "        total += d * d",
        "    return total",
    ]
    namespace = _compile(lines)
    namespace["kernel"].loss_sum = namespace["loss_sum"]
    return namespace["kernel"]


def _compile(lines: list[str]) -> dict:
    """The namespace that running the source ``lines`` leaves, holding their functions."""
    namespace = {"exp": math.exp, "tanh": math.tanh, "count_forward_pass": count_forward_pass,
                 "_pass_failure": _pass_failure, "_singular": _singular, "_finite": _finite,
                 "_step_failure": _step_failure,
                 "NonFinite": NonFinite, "ONES_SEED_GUARD": ONES_SEED_GUARD}
    exec(compile("\n".join(lines), "<dualgrad kernel>", "exec"), namespace)
    return namespace


def _finite_check(target: str, names: list[str], then: list[str]) -> list[str]:
    """Lines running ``then`` unless every one of ``names`` is finite."""
    return [
        *_chain(target, [f"{v} * 0.0" for v in names]),
        f"if {target} != 0.0:",
        *(f"    {line}" for line in then),
    ]


def _step_failure(norm: float, grad: list[float], params: list[float]):
    """The norm and the NonFinite of a step ``params = w - lr * grad`` that left the finite numbers.

    They are what checking the gradient entries, then moving the norm to
    their largest |entry|, then checking the parameters gives: a
    non-finite entry is named with the norm as it was, and finite entries
    move the norm before the parameters are named.
    """
    try:
        _finite(grad, "gradient entries")
        norm = max(norm, *map(abs, grad))
        _finite(params, "parameters")
    except NonFinite as exc:
        return norm, exc


def _pass_lines(shapes: tuple[tuple[int, int], ...], acts: tuple[str, ...]):
    """The lines of one layout's dual pass: every rule's, and ``_kernel``'s real sweep.

    ``sweep`` sets each unit's pre-activation real ``r{u}`` and activation
    ``a{u}`` from the inputs ``x{j}``; ``factors`` sets its derivative
    factors and ``rb``, the real check term of every unit; ``pass_(seeds,
    done)`` writes one tangent pass from the input tangent ``dx``, which
    every input shares, ending at the output tangent ``t{u}``: unit u adds
    the seed term ``seeds[u]`` after its row sum, a unit not in ``seeds``
    adds nothing, and a failing pass counts ``done``, the passes before it.
    The last value holds each parameter's seed, in layout order: the
    ``(unit, term)`` that seeding it adds, the term being the input real
    for a weight and 1.0 for a bias.

    ``passes_(seeds, head, result)`` writes one pass per ``(unit, term)``
    in ``seeds`` after the rule's ``head`` lines: pass j adds its term at
    its unit and ends by setting entry ``e{j}`` to ``result``, and
    ``len(seeds)`` is added to ``passes`` once they all ran. While passes
    x parameters is at most ``STRAIGHT_PASSES`` squared, the passes are
    written out, each term written in and pass j counting ``j`` if it
    fails. Past it one pass text runs in a loop over the seeds: the seed
    list ``sd``, 0.0 per unit, is bound before ``head``, and pass j sets
    its unit's seed in ``sd``, unpacks ``sd`` into the seed locals
    ``sd{u}``, which every unit adds, appends its result to ``es`` and
    sets the seed back to 0.0; a failing pass counts ``len(es)``. Both
    forms give the same bits and count the same passes.

    A tangent pass costs O(P) and takes, per unit, the ring's float
    operations in the ring's order: 0.0 for the bias, plus ``w * dx`` per
    input, plus the seed, then ``zd * f * g``. The ring also adds ``+ 0.0``
    to a product's dual part and the unseeded weights' ``0.0 * r``; both
    are left out, as they only turn a -0.0 into +0.0, which changes no bit
    of a sum that starts at +0.0 and so is never -0.0. The seed, 1.0 for a
    bias and the input real for a weight, is added after the row sum, which
    is +0.0 at the seeded unit because nothing before a seeded parameter
    carries a tangent; adding 0.0 at every other unit changes no bit
    either. So a pass adds only the seeds it is given: none for ``ones``,
    its one term at its one unit for a written-out pass, and a seed local
    ``sd{u}`` at every unit for a looped one. No seed changes a real part,
    so one real sweep serves every pass. So the results are bit-identical
    to the same pass over ``Dual`` values.

    One check per pass, at the output unit, sees whether any unit's real
    or dual part is not finite: ``z{out} * 0.0 + rb != 0.0``, where ``v *
    0.0`` is 0.0 for finite v and nan otherwise, so a sum of such terms is
    nan in any order. Where a real is not finite, ``rb`` is nan. Where
    every real is finite, so is every ``a`` and ``g`` factor, and a
    non-finite ``zd`` makes its ``t``, every later ``w * t`` and every
    later sum non-finite, up to the output's: no product with a finite
    factor and no sum makes an inf or nan finite again. So the check fails
    exactly when a check after each layer would, and ``_pass_failure``
    names the first such unit of the first such layer, where the pass over
    ``Dual`` values fails too.

    The source uses only integers, ``_ACT_SOURCE``'s fragments and
    ``math``'s ``exp`` and ``tanh``, and makes no Python call per unit or
    step; ``dx`` is bound first, so no ``w * dx`` takes an ``EXTENDED_ARG``.
    """
    n = shapes[0][0]
    hr = [f"x{j}" for j in range(n)]  # the layer's input reals
    hd = ["dx"] * n  # and their tangents, all equal
    sweep, factors, layers, params, checked = [], [], [], [], []
    k = u0 = 0  # the layer's first weight and first unit
    for (n_in, n_out), act in zip(shapes, acts):
        activation, factor, tangent = _ACT_SOURCE[act]
        b0 = k + n_in * n_out
        layer = range(u0, u0 + n_out)
        rows = []  # per unit, the terms of its row sum
        for i, u in enumerate(layer):
            row = range(k + i * n_in, k + (i + 1) * n_in)
            sweep += _chain(f"r{u}", [f"w{b0 + i}", *(f"w{j} * {h}" for j, h in zip(row, hr))])
            sweep += [line.format(u=u) for line in activation]
            factors += [line.format(u=u) for line in factor]
            rows.append((u, ["0.0", *(f"w{j} * {d}" for j, d in zip(row, hd))]))
            params += [(u, h) for h in hr]
        params += [(u, "1.0") for u in layer]
        checked.append(f"({''.join(f'(r{u}, z{u}), ' for u in layer)})")
        layers.append((rows, [f"t{u} = " + tangent.format(u=u) for u in layer]))
        hr = [f"a{u}" for u in layer]
        hd = [f"t{u}" for u in layer]
        k = b0 + n_out
        u0 += n_out
    factors += _chain("rb", [f"r{u} * 0.0" for u in range(u0)])

    def pass_(seeds: dict[int, str], done: str) -> list[str]:
        lines = []
        for rows, tangents in layers:
            for u, terms in rows:
                lines += _chain(f"z{u}", [*terms, seeds[u]] if u in seeds else terms)
            lines += tangents
        return [*lines, f"if z{u0 - 1} * 0.0 + rb != 0.0:",
                f"    raise _pass_failure({done}, ({''.join(f'{c}, ' for c in checked)}))"]

    def passes_(seeds: list[tuple[int, str]], head: list[str], result: str) -> list[str]:
        if len(seeds) * len(params) <= STRAIGHT_PASSES ** 2:
            return [*head, *(line for j, (u, v) in enumerate(seeds)
                             for line in (*pass_({u: v}, str(j)), f"e{j} = {result}")),
                    f"passes += {len(seeds)}"]
        return [
            f"sd = [0.0] * {u0}",
            *head,
            "es = []",
            f"for u, v in zip({tuple(u for u, _ in seeds)}, ({''.join(f'{v}, ' for _, v in seeds)})):",
            "    sd[u] = v",
            f"    {_unpack('sd', u0, 'sd')}",
            *(f"    {line}" for line in pass_({u: f"sd{u}" for u in range(u0)}, "len(es)")),
            f"    es.append({result})",
            "    sd[u] = 0.0",
            f"passes += {len(seeds)}",
            _unpack("e", len(seeds), "es"),
        ]

    return sweep, factors, pass_, passes_, params


# --- the gradient rules: one record each -------------------------------------------


class _Rule(NamedTuple):
    """One forward-mode gradient rule, as the lines of its compiled code.

    ``dx`` is every input's tangent. ``lines(n, pass_, passes_, seeds)``
    returns the guard (``seed_sum`` and an ``if`` true where the rule is
    undefined, or no lines) and the gradient: the passes on sample ``s``,
    written by ``_pass_lines``' writers and added to ``passes``, and the
    entries ``e0``, ..., ``e{P-1}``, the names every compiled caller reads.
    """

    dx: float
    lines: Callable[..., tuple[list[str], list[str]]]


def _ones_lines(n: int, pass_, passes_, seeds: list[tuple[int, str]]):
    """One pass, every input tangent 1.0 and no seed, entries ``q * x_j`` and ``q``.

    The guard sums W left to right from the int 0, the builtin ``sum`` of
    Python 3.10-3.11 on every interpreter; its chained comparison is
    ``abs(seed_sum) < ONES_SEED_GUARD`` on every float, nan included.
    """
    out = seeds[-1][0]
    guard = [*_chain("seed_sum", ["0", *(f"w{j}" for j in range(n))]),
             "if -ONES_SEED_GUARD < seed_sum < ONES_SEED_GUARD:"]
    return guard, [
        *pass_({}, "0"), "passes += 1",
        f"q = 2.0 * (a{out} - s.y) * t{out} / seed_sum",
        *(f"e{j} = q * x{j}" for j in range(n)), f"e{n} = q"]


def _seeded_lines(n: int, pass_, passes_, seeds: list[tuple[int, str]]):
    """One pass per parameter seeded, in layout order, zero input tangents:
    ``dd = 2 * d`` is taken first, and pass j ends with entry j, the power
    rule ``dd * (0.0 - t)``. ``2 * d * (0.0 - t)`` parses as ``(2 * d) *
    (0.0 - t)``, so the operations are the same.
    """
    out = seeds[-1][0]
    return [], passes_(seeds, [f"dd = 2 * (s.y - a{out})"], f"dd * (0.0 - t{out})")


# The forward-mode rules by name: ``grad_ones``/``grad_seeded`` and ``run_sgd``'s rule.
_RULES = {
    "ones": _Rule(1.0, _ones_lines),
    "seeded": _Rule(0.0, _seeded_lines),
}

# The engines whose gradient takes single-layer layouts only, each with the
# subject its refusal names: ``ones`` divides by the sum of one unit's
# weights, and the oracle's closed form has no hidden layers.
SINGLE_LAYER = {"ones": "the shared-seed rule", "backprop": "the closed-form gradient"}


def _rule_source(shapes, acts, rule: str, singular: list[str]):
    """The lines that a rule's ``_grad`` and ``_sgd_loop`` share, for one layout.

    They are the head, the same three lines for every rule (``dx`` first,
    the parameter unpack and ``passes = 0``), the guard running
    ``singular``, and the one list of sample lines setting the entries
    ``e{j}``; the parameter count comes last.
    """
    r = _RULES[rule]
    sweep, factors, pass_, passes_, seeds = _pass_lines(shapes, acts)
    n, k = shapes[0][0], len(seeds)
    guard, gradient = r.lines(n, pass_, passes_, seeds)
    head = [f"dx = {r.dx}", _unpack("w", k, "p"), "passes = 0"]
    guard = guard and [*guard, *(f"    {line}" for line in singular)]
    return head, guard, [_unpack("x", n, "s.x"), *sweep, *factors, *gradient], k


@functools.lru_cache(maxsize=KERNEL_CACHE_SIZE)
def _grad(shapes: tuple[tuple[int, int], ...], acts: tuple[str, ...], rule: str):
    """``grad(params, s)``: a rule's gradient entries on sample s, compiled for one layout.

    A guard that holds raises ``_singular``'s SingularSeed before any pass;
    the passes run are counted. No other rule, loop or kernel compiles here.
    """
    head, guard, sample, k = _rule_source(shapes, acts, rule, ["raise _singular(seed_sum)"])
    body = [*head, *guard, *sample, "count_forward_pass(passes)",
            f"return [{', '.join(f'e{j}' for j in range(k))}]"]
    return _compile(["def grad(p, s):", *(f"    {line}" for line in body)])["grad"]


@functools.lru_cache(maxsize=KERNEL_CACHE_SIZE)
def _sgd_loop(shapes: tuple[tuple[int, int], ...], acts: tuple[str, ...], rule: str):
    """``train``'s SGD loop under a rule, compiled for one layout.

    ``loop(params, batches, lr)`` takes one SGD step per nonempty batch,
    on the mean gradient of the batch's samples, and returns the last
    finite parameters, the largest |entry| of the steps' gradients, the
    singular skips and, if a value left the finite numbers, the NonFinite
    that stopped it, else None. It is compiled on a layout's first
    ``train`` use. Its per-sample lines are ``_grad``'s, so each sample's
    entries and passes are ``_grad``'s too. The guard reads only the
    weights, which a batch does not change, so a batch is skipped whole or
    not at all, as sample-by-sample checking skips it once each sample's
    width is checked; an empty batch takes no step and counts no skip.

    The rule's one list of sample lines runs per sample and sets the entries
    ``e{j}``, which the step reads. A batch of one breaks out after its
    sample: the mean of one gradient is that gradient. A larger batch takes
    a sample-order mean's float operations in order: each sample's entries
    are checked and added into a sum ``c{j}`` per entry; the ``for``'s
    ``else`` skips an empty batch, else writes the 1/len(batch) scale of the
    sums into the entries and sets the sums back to the head's -0.0 (a
    failing batch ends the loop). ``-0.0 + v`` is v for every v, so the
    first sample's entries are copied bit for bit, as the mean's first term
    is. Then ``n{j} = w{j} - lr * e{j}`` is checked once. lr is positive and
    finite and the weights finite, so a non-finite ``e{j}`` always makes its
    step non-finite: neither a batch of one's entries nor a larger batch's
    scaled sums need a check of their own, and on a failing step
    ``_step_failure`` names the gradient or the parameters and moves the
    norm as checking the gradient, then the norm, then the parameters does.
    Each check is the ``v * 0.0`` sum, and its NonFinite is ``_finite``'s,
    as ``_grad_like`` and ``_model_like`` raise it. After a finite step the
    norm moves to ``e`` or ``-e`` only when that is larger; the entries are
    finite and the norm is never -0.0, so it ends as ``max(norm, *map(abs,
    g.params))`` bit for bit. So a run is bit-identical to one through the
    rule's public gradient, that mean and ``sgd_step``, and counts the same
    passes.
    """
    n = shapes[0][0]
    head, guard, sample, k = _rule_source(shapes, acts, rule, [  # the except names a bad width
        "for s in batch:", f"    if len(s.x) != {n}:", "        raise ValueError",
        "skips += len(batch)", "continue"])
    params, entries, sums, steps = ([f"{v}{j}" for j in range(k)] for v in "wecn")

    lines = [
        "def loop(p, batches, lr):",
        *(f"    {line}" for line in head),
        "    norm, skips, failure = 0.0, 0, None",
        f"    {' = '.join(sums)} = -0.0",
        "    try:",
        "        for batch in batches:",
        *(f"            {line}" for line in guard),
        "            for s in batch:",
        *(f"                {line}" for line in sample),
        "                if len(batch) == 1:",
        "                    break",
        *(f"                {line}" for line in _finite_check(
            "ge", entries, [f"_finite([{', '.join(entries)}], 'gradient entries')"])),
        *(f"                {c} = {c} + {e}" for c, e in zip(sums, entries)),
        "            else:",
        "                if not batch:",
        "                    continue",
        "                scale = 1.0 / len(batch)",
        *(f"                {e} = scale * {c}" for e, c in zip(entries, sums)),
        f"                {' = '.join(sums)} = -0.0",
        *(f"            {m} = {w} - lr * {e}" for m, w, e in zip(steps, params, entries)),
        *(f"            {line}" for line in _finite_check("ps", steps, [
            f"norm, failure = _step_failure(norm, [{', '.join(entries)}], [{', '.join(steps)}])",
            "break"])),
        *(f"            {line}" for e in entries
          for line in (f"if {e} > norm:", f"    norm = {e}", f"elif -{e} > norm:", f"    norm = -{e}")),
        *(f"            {w} = {m}" for w, m in zip(params, steps)),
        "    except NonFinite as exc:",
        "        failure = exc",
        "    except ValueError:  # from unpacking an s.x of another width",
        f"        raise ValueError(f'expected {n} features, got {{len(s.x)}}') from None",
        "    finally:",
        "        count_forward_pass(passes)",
        f"    return [{', '.join(params)}], norm, skips, failure",
    ]
    return _compile(lines)["loop"]


def _check(m: Mlp, rule: str | None, x: Sequence[float] | None = None) -> None:
    """Raise unless m's layout suits ``rule`` (see ``SINGLE_LAYER``) and x, if given, has m's width."""
    if len(m.shapes) > 1 and rule in SINGLE_LAYER:
        raise TypeError(f"{SINGLE_LAYER[rule]} is single-layer; use grad_seeded for a multilayer net")
    if x is not None and len(x) != m.width:
        raise ValueError(f"expected {m.width} features, got {len(x)}")


def forward_dual_ones(m: Mlp, x: Sequence[float]) -> Dual:
    """Evaluate a single-layer model with every input seeded as x_i + eps.

    The result's dual part equals sum(W) * act'(W.x + b): all input
    perturbations share one eps, so their first-order effects add up.
    One counted pass on the ring: b plus ``(x_i + eps) * w_i`` left to right,
    then the lift in ``functions``; a non-finite part raises NonFinite.
    """
    _check(m, "ones", x)
    *W, b = m.params
    act = m.acts[0]
    z = sum((Dual(xi, 1.0) * w for w, xi in zip(W, x)), Dual(b))
    z = z if act == "identity" else getattr(functions, act)(z)  # sigmoid or tanh
    count_forward_pass(1)
    return z


def grad_ones(m: Mlp, s: Sample) -> MlpGradient:
    """Gradient of (y - yhat)**2 from a single input-seeded dual pass.

    dW_i = 2*(R(yhat_eps) - y) * E(yhat_eps) / sum(W) * x_i, and db is the
    same scalar factor without the x_i product. Requires |sum(W)| >=
    ONES_SEED_GUARD, checked after the model and the width; raises
    SingularSeed otherwise.
    """
    _check(m, "ones", s.x)
    return _grad_like(m, _grad(m.shapes, m.acts, "ones")(m.params, s))


def grad_seeded(m: Mlp, s: Sample) -> MlpGradient:
    """Gradient via one dual pass per scalar parameter, in layout order.

    Works for any weight configuration and for multilayer models, at one
    pass per parameter over one shared real sweep. The loss takes the
    ring's power rule, 2*d*(0 - yhat.du) with d = y - yhat.re; like every
    rule it is never evaluated, so only an overflowing entry raises NonFinite.
    """
    _check(m, "seeded", s.x)
    return _grad_like(m, _grad(m.shapes, m.acts, "seeded")(m.params, s))


def run_sgd(m: Mlp, batches, lr: float, rule: str):
    """SGD over batches with ``rule``'s gradient, ``"ones"`` or ``"seeded"``.

    Each nonempty batch's step is ``p - lr * g`` on the sample-order mean
    of its gradients, in one call of the compiled ``_sgd_loop``; a singular
    batch is skipped with no pass once its samples' widths are checked,
    and an empty one takes no step. Returns the model after the last
    finite step, the largest |gradient entry|, the singular skips and the
    NonFinite that stopped it, or None. A learning rate that is not
    positive and finite raises before any pass; a sample of another width
    raises ``_check``'s ValueError when it is reached.
    """
    _check_positive(lr, "learning rate")
    _check(m, rule)
    params, norm, skips, failure = _sgd_loop(m.shapes, m.acts, rule)(m.params, batches, lr)
    return _model_like(m, params), norm, skips, failure
