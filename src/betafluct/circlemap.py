"""The lifted action of an affine map of the projective line.

The projective line is identified with the unit circle by the Cayley
transform r -> (i - r)/(i + r), under which r = tan(x/2) corresponds to the
point e^{ix}. An affine map r -> a*(r + b) with a > 0 fixes infinity, i.e.
the circle point -1, and is represented by its unique continuous increasing
lift to the real line that commutes with x -> x + 2*pi and fixes pi exactly.

Lifts compose as their affine maps do:
L(a2, b2) o L(a1, b1) = L(a1*a2, b1 + b2/a1), and L(a, b) has the inverse
L(1/a, -a*b). A chain of affine steps is therefore one lift call.
"""

from __future__ import annotations

import numpy as np

from .rng import TWO_PI


def _lift_affine(x, a, b):
    """Lifted action of r -> a*(r + b), a > 0, on phase angles x; arrays
    broadcast.

    On (-pi, pi) the lift is 2*arctan(a*(tan(x/2) + b)); winding numbers are
    handled exactly in integer arithmetic via the floor, and odd multiples of
    pi are fixed points by construction. Strictly increasing and commutes
    with +2*pi.
    """
    k = np.floor((x + np.pi) / TWO_PI)
    x0 = x - TWO_PI * k  # in [-pi, pi)
    out = 2.0 * np.arctan(a * (np.tan(0.5 * x0) + b)) + TWO_PI * k
    return np.where(x0 == -np.pi, TWO_PI * k - np.pi, out)


def angular_shift(mapping, x, y):
    """Deviation of a lifted map from a rigid rotation between two angles:
    (y*S - x*S) - (y - x). Invariant under shifting either argument by 2*pi.
    """
    return (mapping(y) - mapping(x)) - (y - x)
