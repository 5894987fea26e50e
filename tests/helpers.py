"""What the tests share: comparisons of floats, gradients and dual numbers, ``summed``
and ``ENGINE_SPECS``."""

from typing import Callable, NamedTuple

from dualgrad import model as md
from dualgrad import oracle
from dualgrad.dual import Dual
from dualgrad.model import SingularSeed


def relerr(a: float, b: float) -> float:
    """|a - b| relative to the larger magnitude; absolute when both are below 1e-8."""
    scale = max(abs(a), abs(b))
    if scale < 1e-8:
        return abs(a - b)
    return abs(a - b) / scale


def close(a: float, b: float, rtol: float, atol: float = 1e-8) -> bool:
    # relative comparison with an absolute fallback below the finite
    # difference noise floor
    return abs(a - b) <= atol + rtol * max(abs(a), abs(b))


def assert_grads_close(got, want, rtol: float, atol: float = 1e-8) -> None:
    """Assert ``close`` on every entry pair, naming the first entry's path that is not."""
    for (path, a), (_, b) in zip(got.entries(), want.entries()):
        assert close(a, b, rtol, atol), (path, a, b)


def dnorm(d: Dual) -> float:
    return max(1.0, abs(d.re), abs(d.du))


def dual_close(a: Dual, b: Dual, tol: float, scale: float) -> bool:
    # ring identities are compared relative to the operand scale: partial
    # cancellation makes flat per-component relative error meaningless
    return abs(a.re - b.re) <= tol * scale and abs(a.du - b.du) <= tol * scale


def summed(grad):
    """The batch function of a per-sample gradient rule, the reference for every batch loop.

    ``summed(grad)(m, samples)`` sums the gradients of the samples in
    sample order and scales the sum by 1/contributing when more than one
    sample contributes. A sample whose rule raises SingularSeed is a skip
    and contributes nothing; a batch of skips gives None.
    """

    def batch(m, samples):
        acc = None
        contributing = skips = 0
        for s in samples:
            try:
                g = grad(m, s)
            except SingularSeed:
                skips += 1
                continue
            acc = g.params if acc is None else [a + b for a, b in zip(acc, g.params)]
            contributing += 1
        if acc is None:
            return None, skips
        if contributing > 1:  # with one, g is its gradient and x1.0 would change no bit
            scale = 1.0 / contributing
            g = md._grad_like(m, [scale * v for v in acc])
        return g, skips

    return batch


class EngineSpec(NamedTuple):
    """What the tests hold a registered engine to: its public per-sample rule, its batch
    function and its passes per gradient, ``passes(m)``."""

    rule: Callable
    batch: Callable
    passes: Callable


# One row per name in trainer.ENGINES; a test that runs over the registry reads its facts here.
ENGINE_SPECS = {
    "ones": EngineSpec(md.grad_ones, summed(md.grad_ones), lambda m: 1),
    "seeded": EngineSpec(md.grad_seeded, summed(md.grad_seeded), lambda m: len(m.params)),
    "backprop": EngineSpec(oracle.grad_backprop, oracle.grad_backprop_batch, lambda m: 1),
}
