import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from betafluct.circlemap import _lift_affine, angular_shift

TWO_PI = 2.0 * math.pi

# Property tests draw phases, scales and shifts from these ranges.
angles = st.floats(-30.0, 30.0)
scales = st.floats(1e-2, 1e2)
shifts = st.floats(-10.0, 10.0)
prop = settings(max_examples=200, derandomize=True, deadline=None)


def test_lift_affine_identity():
    xs = np.linspace(-9.0, 9.0, 101)
    assert np.allclose(_lift_affine(xs, 1.0, 0.0), xs, atol=1e-12)


@prop
@given(k=st.integers(-5, 4), a=scales, b=shifts)
def test_lift_affine_fixes_odd_pi(k, a, b):
    x = math.pi * (2 * k + 1)
    assert _lift_affine(x, a, b) == pytest.approx(x, abs=1e-10)


def test_lift_affine_value_via_cayley():
    # r = tan(x/2) maps to the circle point (i - r)/(i + r); the lifted value
    # must be an argument of the transported point
    x, a, b = math.pi / 2, 1.0, 1.0
    out = float(_lift_affine(x, a, b))
    assert out == pytest.approx(2.0 * math.atan(2.0), abs=1e-12)
    r = a * (math.tan(x / 2) + b)
    target = (1j - r) / (1j + r)
    assert abs(np.exp(1j * out) - target) < 1e-12


@prop
@given(x=angles, a=scales, b=shifts)
def test_lift_affine_monotone_and_equivariant(x, a, b):
    xs = np.linspace(x, x + 2.0 * TWO_PI, 2001)
    out = _lift_affine(xs, a, b)
    assert np.all(np.diff(out) > 0)
    assert np.allclose(_lift_affine(xs + TWO_PI, a, b), out + TWO_PI, rtol=0.0, atol=1e-9)


@prop
@given(x=angles, a=scales, b=shifts)
def test_affine_inverse_roundtrip(x, a, b):
    # L(a, b) has the inverse L(1/a, -a*b)
    assert _lift_affine(_lift_affine(x, a, b), 1.0 / a, -a * b) == pytest.approx(x, abs=1e-9)


@prop
@given(x=angles, a1=scales, b1=shifts, a2=scales, b2=shifts)
def test_composition_and_inverse(x, a1, b1, a2, b2):
    # L(a2, b2) o L(a1, b1) = L(a1*a2, b1 + b2/a1): a chain of transfer steps
    # is one lift call
    composed = _lift_affine(x, a1 * a2, b1 + b2 / a1)
    assert _lift_affine(_lift_affine(x, a1, b1), a2, b2) == pytest.approx(composed, abs=1e-9)
    back = _lift_affine(composed, 1.0 / (a1 * a2), -a1 * a2 * (b1 + b2 / a1))
    assert back == pytest.approx(x, abs=1e-9)


def test_angular_shift_identity_is_zero():
    assert angular_shift(lambda x: x, 0.3, 2.2) == 0.0


def test_angular_shift_rotation_is_zero():
    assert angular_shift(lambda x: x + 1.23, -0.5, 2.0) == pytest.approx(0.0, abs=1e-12)


def test_angular_shift_determination_invariance():
    def mapping(x):
        return _lift_affine(x, 1.9 * 0.5, 0.4 - 0.6 / 1.9)

    base = angular_shift(mapping, 0.7, 2.9)
    assert angular_shift(mapping, 0.7 + TWO_PI, 2.9) == pytest.approx(base, abs=1e-9)
    assert angular_shift(mapping, 0.7, 2.9 + TWO_PI) == pytest.approx(base, abs=1e-9)
    assert angular_shift(mapping, 0.7 + TWO_PI, 2.9 + TWO_PI) == pytest.approx(base, abs=1e-9)
