"""Ring behavior of the Dual scalar type."""

import math
import operator
import struct

import numpy as np
import pytest
from hypothesis import given
import hypothesis.strategies as st

from dualgrad.dual import Dual, NonFinite
from helpers import relerr

parts = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False, allow_infinity=False)
duals = st.builds(Dual, parts, parts)


def dual_relerr(x: Dual, y: Dual) -> float:
    return max(relerr(x.re, y.re), relerr(x.du, y.du))


def is_plus_zero(v: float) -> bool:
    return struct.pack("<d", v) == struct.pack("<d", 0.0)


# --- construction and projections ---------------------------------------------


def test_real_embedding():
    d = Dual(3, 0)
    assert d.re == 3.0 and d.du == 0.0


def test_epsilon_generator():
    eps = Dual(0, 1)
    assert eps.re == 0.0 and eps.du == 1.0


def test_parts_pass_through():
    d = Dual(2.5, -1.5)
    assert d.re == 2.5 and d.du == -1.5


@given(duals)
def test_projections_reassemble(x):
    assert Dual(x.re, x.du) == x


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_nonfinite_parts_rejected(bad):
    with pytest.raises(ValueError):
        Dual(bad, 0.0)
    with pytest.raises(ValueError):
        Dual(0.0, bad)


def test_immutable():
    d = Dual(1, 2)
    with pytest.raises(AttributeError):
        d.re = 5.0


def test_equality_hash_and_text():
    assert (Dual(3, 1) == 3) is False  # a real is not coerced for ==
    assert hash(Dual(1, 2)) == hash(Dual(1.0, 2.0))
    assert str(Dual(1.5, -2.0)) == "1.5 + -2.0ε"


@pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul, operator.truediv])
def test_a_string_operand_is_refused_on_either_side(op):
    with pytest.raises(TypeError):
        op(Dual(1, 2), "a")
    with pytest.raises(TypeError):
        op("a", Dual(1, 2))


# --- addition, negation, subtraction ------------------------------------------


def test_add_componentwise():
    assert Dual(1, 2) + Dual(3, 4) == Dual(4, 6)


@given(duals)
def test_additive_identity(x):
    assert x + Dual(0, 0) == x


@given(duals)
def test_additive_inverse(x):
    assert x + (-x) == Dual(0, 0)


@given(duals, duals)
def test_add_commutes_exactly(x, y):
    assert x + y == y + x


def test_neg_and_sub():
    assert -Dual(1, 2) == Dual(-1, -2)
    assert Dual(3, 4) - Dual(1, 2) == Dual(2, 2)


@given(duals)
def test_sub_self_is_zero(x):
    assert x - x == Dual(0, 0)


@given(duals, duals)
def test_sub_is_add_neg(x, y):
    assert x - y == x + (-y)


# --- multiplication -------------------------------------------------------------


def test_mul_drops_eps_squared():
    assert Dual(1, 2) * Dual(3, 4) == Dual(3, 10)


def test_eps_times_eps_is_zero():
    p = Dual(0, 1) * Dual(0, 1)
    assert is_plus_zero(p.re) and is_plus_zero(p.du)


@given(duals)
def test_multiplicative_identity(x):
    assert x * Dual(1, 0) == x


@given(parts, parts)
def test_nilpotency_bit_exact(b, d):
    p = Dual(0.0, b) * Dual(0.0, d)
    assert is_plus_zero(p.re) and is_plus_zero(p.du)


@given(duals, duals)
def test_mul_commutes_exactly(x, y):
    assert x * y == y * x


def test_scalar_coercion():
    assert 2 * Dual(3, 4) == Dual(6, 8)
    assert Dual(3, 4) + 1 == Dual(4, 4)
    assert 1 - Dual(3, 4) == Dual(-2, -4)
    assert 2 / Dual(4, 1) == Dual(0.5, -0.125)


# --- approximate ring axioms (random draws, tolerance 1e-12) ---------------------


def test_additive_associativity_continuous():
    rng = np.random.default_rng(12)
    for _ in range(2000):
        x, y, z = (Dual(*rng.uniform(-10, 10, 2)) for _ in range(3))
        assert dual_relerr((x + y) + z, x + (y + z)) <= 1e-12


# --- division ---------------------------------------------------------------------


def test_div_real_parts():
    assert Dual(1, 0) / Dual(2, 0) == Dual(0.5, 0)


def test_div_derived_example():
    # closed form gives (0 + 1eps) / (1 + 1eps) = 0 + 1eps; cross-check by
    # multiplying back
    q = Dual(0, 1) / Dual(1, 1)
    assert q == Dual(0, 1)
    assert q * Dual(1, 1) == Dual(0, 1)


def test_div_by_pure_eps_rejected():
    with pytest.raises(ZeroDivisionError):
        Dual(1, 0) / Dual(0, 1)


def test_div_underflowed_real_part_rejected():
    with pytest.raises(ZeroDivisionError):
        Dual(1, 0) / Dual(0.0, 5.0)


def test_div_mul_roundtrip():
    # flat 1e-12 holds for moderately conditioned divisors; the error of the
    # reconstruction grows like eps_mach * |E(y)/R(y)|, so wildly lopsided
    # divisors get a conditioning-scaled bound instead
    rng = np.random.default_rng(15)
    checked = 0
    while checked < 2000:
        x = Dual(*rng.uniform(-10, 10, 2))
        y = Dual(*rng.uniform(-10, 10, 2))
        if abs(y.re) < 1e-6:
            continue
        checked += 1
        back = (x / y) * y
        cond = abs(y.du / y.re)
        tol = 1e-12 if cond <= 1e3 else 1e-12 * cond
        assert dual_relerr(back, x) <= tol


# --- integer powers ----------------------------------------------------------------


def test_pow_square_example():
    assert Dual(3, 1) ** 2 == Dual(9, 6)


def test_pow_zero_is_one():
    assert Dual(5, -2) ** 0 == Dual(1, 0)
    assert Dual(0, 3) ** 0 == Dual(1, 0)  # 0**0 == 1 by convention


def test_pow_cube_matches_repeated_mul():
    assert Dual(2, 1) ** 3 == Dual(8, 12)
    assert Dual(2, 1) * Dual(2, 1) * Dual(2, 1) == Dual(8, 12)


@given(duals, st.integers(min_value=0, max_value=8))
def test_pow_matches_repeated_mul(x, n):
    by_mul = Dual(1, 0)
    for _ in range(n):
        by_mul = by_mul * x
    assert dual_relerr(x ** n, by_mul) <= 1e-12


def test_pow_overflow_is_nonfinite_like_mul():
    with pytest.raises(NonFinite):
        Dual(1e200) * Dual(1e200)
    with pytest.raises(NonFinite, match="overflows"):
        Dual(1e200) ** 2
    with pytest.raises(NonFinite):
        Dual(-1e103, 1.0) ** 3
    with pytest.raises(NonFinite):  # a finite real part with an overflowing dual part
        Dual(2.0, 1e308) ** 2


@pytest.mark.parametrize("x, du, n", [
    (1.3407807929942596e154, 1.0, 2),  # just below sqrt of the largest float
    (-5.6438030941222897e102, 1e-300, 3),
    (1e-200, 7.0, 2),  # the real part underflows to 0.0
    (-3.7, 0.25, 5),
    (-0.0, 1.0, 1),
])
def test_finite_pow_keeps_every_bit(x, du, n):
    got = Dual(x, du) ** n
    assert (got.re.hex(), got.du.hex()) == ((x ** n).hex(), (n * x ** (n - 1) * du).hex())


def test_pow_rejects_negative_and_fractional():
    with pytest.raises(ValueError):
        Dual(2, 1) ** -1
    with pytest.raises(TypeError):
        Dual(2, 1) ** 0.5
    with pytest.raises(TypeError, match="modular exponentiation"):
        pow(Dual(2, 1), 2, 5)

