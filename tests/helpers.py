"""The comparisons that the tests share: floats, gradients and dual numbers."""

from dualgrad.dual import Dual


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
