import math

import numpy as np
import pytest

from betafluct.circlemap import (
    AffineAction,
    LiftedCircleMap,
    angular_shift,
    lift_affine,
)

TWO_PI = 2.0 * math.pi


def test_lift_affine_identity():
    xs = np.linspace(-9.0, 9.0, 101)
    assert np.allclose(lift_affine(xs, 1.0, 0.0), xs, atol=1e-12)


def test_lift_affine_fixes_odd_pi():
    for k in (-2, -1, 0, 1, 3):
        x = math.pi * (2 * k + 1)
        assert lift_affine(x, 0.37, 4.2) == pytest.approx(x, abs=1e-12)


def test_lift_affine_value_via_cayley():
    # r = tan(x/2) maps to the circle point (i - r)/(i + r); the lifted value
    # must be an argument of the transported point
    x, a, b = math.pi / 2, 1.0, 1.0
    out = lift_affine(x, a, b)
    assert out == pytest.approx(2.0 * math.atan(2.0), abs=1e-12)
    r = a * (math.tan(x / 2) + b)
    target = (1j - r) / (1j + r)
    assert abs(np.exp(1j * out) - target) < 1e-12


def test_lift_affine_monotone_and_equivariant():
    xs = np.linspace(-7.0, 7.0, 2001)
    out = lift_affine(xs, 2.5, -0.7)
    assert np.all(np.diff(out) > 0)
    assert np.allclose(lift_affine(xs + TWO_PI, 2.5, -0.7), out + TWO_PI, atol=1e-9)


def test_lift_affine_rejects_nonpositive_scale():
    with pytest.raises(ValueError):
        lift_affine(0.3, 0.0, 1.0)
    with pytest.raises(ValueError):
        AffineAction(-1.0, 0.0)


def test_affine_inverse_roundtrip():
    action = AffineAction(0.4, 1.7)
    inv = action.inverse()
    xs = np.linspace(-10, 10, 301)
    assert np.allclose(inv.apply(action.apply(xs)), xs, atol=1e-9)


def test_composition_and_inverse():
    steps = (AffineAction(0.6, -1.1), AffineAction(1.0, 0.8), AffineAction(2.0, -0.3))
    m = LiftedCircleMap(steps)
    xs = np.linspace(-5, 5, 101)
    assert np.allclose(m.inverse()(m(xs)), xs, atol=1e-9)
    assert np.allclose(m(xs + TWO_PI), m(xs) + TWO_PI, atol=1e-9)
    # steps apply left to right
    assert np.array_equal(m(xs), steps[2].apply(steps[1].apply(steps[0].apply(xs))))


def test_angular_shift_identity_is_zero():
    ident = LiftedCircleMap(())
    assert angular_shift(ident, 0.3, 2.2) == 0.0


def test_angular_shift_rotation_is_zero():
    assert angular_shift(lambda x: x + 1.23, -0.5, 2.0) == pytest.approx(0.0, abs=1e-12)


def test_angular_shift_determination_invariance():
    m = LiftedCircleMap((AffineAction(1.9, 0.4), AffineAction(0.5, -0.6)))
    base = angular_shift(m, 0.7, 2.9)
    assert angular_shift(m, 0.7 + TWO_PI, 2.9) == pytest.approx(base, abs=1e-9)
    assert angular_shift(m, 0.7, 2.9 + TWO_PI) == pytest.approx(base, abs=1e-9)
    assert angular_shift(m, 0.7 + TWO_PI, 2.9 + TWO_PI) == pytest.approx(base, abs=1e-9)

