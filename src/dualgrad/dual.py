"""Scalar dual numbers: values a + b*eps where eps*eps == 0.

The eps coefficient of a product carries the first derivative of the
computation that produced it, which is what makes these numbers a
forward-mode autodiff primitive rather than a curiosity.
"""

from __future__ import annotations

import math

# Only a truly underflowed real part is treated as non-invertible; gradient
# code that needs a stricter guard applies its own.
DIV_GUARD = 1e-300


class NonFinite(ValueError):
    """A value that must be finite is not: an inf or nan reached the arithmetic.

    The one way a diverging value is reported: every ring op, including an
    overflowing power, raises it. A ``ValueError`` so existing callers keep
    working; ``train`` catches only this to tell a diverging run from a
    programming error.
    """


class Dual:
    """A dual number re + du*eps. Immutable; all operations return new values."""

    __slots__ = ("re", "du")

    def __init__(self, re: float, du: float = 0.0):
        re = float(re)
        du = float(du)
        if not (math.isfinite(re) and math.isfinite(du)):
            raise NonFinite(f"dual number parts must be finite, got {re!r} + {du!r}*eps")
        object.__setattr__(self, "re", re)
        object.__setattr__(self, "du", du)

    def __setattr__(self, name, value):
        raise AttributeError("Dual is immutable")

    def __repr__(self) -> str:
        return f"Dual({self.re!r}, {self.du!r})"

    def __str__(self) -> str:
        return f"{self.re} + {self.du}ε"

    def __eq__(self, other) -> bool:
        if not isinstance(other, Dual):
            return NotImplemented
        return self.re == other.re and self.du == other.du

    def __hash__(self) -> int:
        return hash((self.re, self.du))

    @staticmethod
    def _coerce(x) -> "Dual | None":
        if isinstance(x, Dual):
            return x
        if isinstance(x, (int, float)):
            return Dual(x)
        return None

    def __add__(self, other) -> "Dual":
        o = Dual._coerce(other)
        if o is None:
            return NotImplemented
        return Dual(self.re + o.re, self.du + o.du)

    __radd__ = __add__

    def __sub__(self, other) -> "Dual":
        o = Dual._coerce(other)
        if o is None:
            return NotImplemented
        return Dual(self.re - o.re, self.du - o.du)

    def __rsub__(self, other) -> "Dual":
        o = Dual._coerce(other)
        if o is None:
            return NotImplemented
        return Dual(o.re - self.re, o.du - self.du)

    def __mul__(self, other) -> "Dual":
        o = Dual._coerce(other)
        if o is None:
            return NotImplemented
        # eps*eps vanishes: the du*o.du term never contributes. The +0.0
        # normalizes a -0.0 eps-part so nilpotent products are bit-exact zero.
        return Dual(self.re * o.re, self.re * o.du + self.du * o.re + 0.0)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Dual":
        o = Dual._coerce(other)
        if o is None:
            return NotImplemented
        return _div(self, o)

    def __rtruediv__(self, other) -> "Dual":
        o = Dual._coerce(other)
        if o is None:
            return NotImplemented
        return _div(o, self)

    def __neg__(self) -> "Dual":
        return Dual(-self.re, -self.du)

    def __pow__(self, n, mod=None) -> "Dual":
        """Integer power by the closed form a**n + n*a**(n-1)*b*eps, with 0**0 == 1.

        A part that overflows raises NonFinite, as in every other ring op.
        """
        if mod is not None:
            raise TypeError("modular exponentiation is not defined for dual numbers")
        if not isinstance(n, int):
            raise TypeError(f"dual numbers support integer exponents only, got {n!r}")
        if n < 0:
            raise ValueError(f"exponent must be nonnegative, got {n}")
        if n == 0:
            return Dual(1.0, 0.0)
        try:
            re = self.re ** n
        except ArithmeticError:  # how float ** int reports an overflow that * would make inf
            raise NonFinite(f"{self!r} ** {n} overflows") from None
        return Dual(re, n * self.re ** (n - 1) * self.du)


def _div(x: Dual, y: Dual) -> Dual:
    # Duals with (near-)zero real part are zero-divisors, not units.
    if abs(y.re) < DIV_GUARD:
        raise ZeroDivisionError(
            f"dual number with real part {y.re!r} is not invertible"
        )
    re = x.re / y.re
    return Dual(re, (x.du - re * y.du) / y.re)
