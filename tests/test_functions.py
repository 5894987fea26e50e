"""Lifted elementary functions against finite differences and closed forms."""

import math

import numpy as np
import pytest

from dualgrad import functions as fn
from dualgrad.dual import Dual
from helpers import close

FD_STEP = 1e-6

# (lift, plain float version, domain low, domain high)
NAMED_LIFTS = [
    (fn.sin, math.sin, -20.0, 20.0),
    (fn.cos, math.cos, -20.0, 20.0),
    (fn.exp, math.exp, -20.0, 20.0),
    (fn.log, math.log, 1e-3, 20.0),
    (fn.tanh, math.tanh, -20.0, 20.0),
    (fn.sigmoid, fn.sigmoid_real, -20.0, 20.0),
]


def central_diff(f, a: float, h: float = FD_STEP) -> float:
    return (f(a + h) - f(a - h)) / (2.0 * h)


# --- the generic lifting rule -----------------------------------------------------


def test_lift_sin_pair():
    x = Dual(0.7, 1.0)
    assert fn.lift(math.sin, math.cos, x) == fn.sin(x)


def test_lift_identity_function():
    assert fn.lift(lambda a: a, lambda a: 1.0, Dual(3, 4)) == Dual(3, 4)


def test_lift_exp_at_zero():
    assert fn.lift(math.exp, math.exp, Dual(0, 1)) == Dual(1, 1)


def test_lift_rejects_nonfinite_results():
    with pytest.raises(ValueError):
        fn.lift(lambda a: math.inf, lambda a: 1.0, Dual(0, 1))
    with pytest.raises(ValueError):
        fn.lift(lambda a: 1.0, lambda a: math.nan, Dual(0, 1))


# --- named lifts: spot values -------------------------------------------------------


def test_sin_at_half_pi():
    out = fn.sin(Dual(math.pi / 2, 1.0))
    assert out.re == 1.0
    assert abs(out.du) < 1e-15


def test_sin_at_half():
    out = fn.sin(Dual(0.5, 1.0))
    assert out.re == pytest.approx(0.479425538604203, abs=0)
    assert out.du == pytest.approx(0.8775825618903728, abs=0)
    assert close(out.du, central_diff(math.sin, 0.5), rtol=1e-6)


def test_exp_seed_scaling():
    assert fn.exp(Dual(0, 3)) == Dual(1, 3)


def test_log_requires_positive_real_part():
    with pytest.raises(ValueError):
        fn.log(Dual(0.0, 1.0))
    with pytest.raises(ValueError):
        fn.log(Dual(-2.0, 1.0))


def test_sigmoid_at_zero():
    assert fn.sigmoid(Dual(0, 1)) == Dual(0.5, 0.25)


def test_sigmoid_zero_seed():
    out = fn.sigmoid(Dual(1.3, 0.0))
    assert out.du == 0.0
    assert out.re == fn.sigmoid_real(1.3)


def test_sigmoid_at_one():
    out = fn.sigmoid(Dual(1, 1))
    assert out.re == pytest.approx(0.7310585786300049, abs=0)
    assert out.du == pytest.approx(0.19661193324148185, rel=1e-15)


# --- properties ----------------------------------------------------------------------


@pytest.mark.parametrize("lifted,plain,lo,hi", NAMED_LIFTS)
def test_seed_linearity(lifted, plain, lo, hi):
    rng = np.random.default_rng(22)
    for _ in range(200):
        a = float(rng.uniform(lo, hi))
        b = float(rng.uniform(-5, 5))
        unit = lifted(Dual(a, 1.0)).du
        scaled = lifted(Dual(a, b)).du
        assert close(scaled, b * unit, rtol=1e-12, atol=0.0)


def test_chain_rule_composition():
    rng = np.random.default_rng(23)
    for _ in range(200):
        a = float(rng.uniform(-3, 3))
        du = fn.exp(fn.sin(Dual(a, 1.0))).du
        expected = math.cos(a) * math.exp(math.sin(a))
        assert close(du, expected, rtol=1e-10, atol=0.0)


def test_sigmoid_saturation_stays_finite():
    for a in (-800.0, -50.0, 50.0, 800.0):
        out = fn.sigmoid(Dual(a, 1.0))
        assert math.isfinite(out.re) and math.isfinite(out.du)
    assert abs(fn.sigmoid(Dual(50.0, 1.0)).du) < 1e-20
    assert abs(fn.sigmoid(Dual(-50.0, 1.0)).du) < 1e-20
