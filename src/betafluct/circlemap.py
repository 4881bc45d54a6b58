"""Lifted circle homeomorphisms built from affine actions.

The projective line is identified with the unit circle by the Cayley
transform r -> (i - r)/(i + r), under which r = tan(x/2) corresponds to the
point e^{ix}. Every map here is represented by its unique continuous
increasing lift to the real line that commutes with x -> x + 2*pi; the
affine lift is pinned by fixing pi exactly (the affine map fixes infinity,
i.e. the circle point -1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rng import TWO_PI


def _lift_affine(x, a, b):
    """Array kernel for the lifted action of r -> a*(r + b), a > 0.

    On (-pi, pi) the lift is 2*arctan(a*(tan(x/2) + b)); winding numbers are
    handled exactly in integer arithmetic via the floor, and odd multiples of
    pi are fixed points by construction.
    """
    k = np.floor((x + np.pi) / TWO_PI)
    x0 = x - TWO_PI * k  # in [-pi, pi)
    out = 2.0 * np.arctan(a * (np.tan(0.5 * x0) + b)) + TWO_PI * k
    return np.where(x0 == -np.pi, TWO_PI * k - np.pi, out)


def lift_affine(x, a, b):
    """Lifted action on phase angles of the affine map r -> a*(r + b).

    Strictly increasing, commutes with +2*pi, and fixes every odd multiple
    of pi exactly. Scalars in, scalar out; arrays broadcast.
    """
    if np.any(np.asarray(a) <= 0):
        raise ValueError("affine scale a must be positive")
    out = _lift_affine(np.asarray(x, dtype=float), a, b)
    if np.isscalar(x) and np.isscalar(a) and np.isscalar(b):
        return float(out)
    return out


@dataclass(frozen=True)
class AffineAction:
    """Lift of r -> a*(r + b) on the projective line, a > 0."""

    a: float
    b: float

    def __post_init__(self):
        if np.any(np.asarray(self.a) <= 0):
            raise ValueError(f"affine scale must be positive, got {self.a}")

    def apply(self, x):
        return _lift_affine(x, self.a, self.b)

    def inverse(self) -> "AffineAction":
        return AffineAction(1.0 / self.a, -self.a * self.b)


@dataclass(frozen=True)
class LiftedCircleMap:
    """Composition of lifted primitives, applied left to right."""

    steps: tuple

    def __call__(self, x):
        scalar = np.isscalar(x)
        out = np.asarray(x, dtype=float)
        for step in self.steps:
            out = step.apply(out)
        return float(out) if scalar and out.ndim == 0 else out

    def inverse(self) -> "LiftedCircleMap":
        return LiftedCircleMap(tuple(step.inverse() for step in reversed(self.steps)))


def angular_shift(mapping, x, y):
    """Deviation of a lifted map from a rigid rotation between two angles:
    (y*S - x*S) - (y - x). Invariant under shifting either argument by 2*pi.
    """
    return (mapping(y) - mapping(x)) - (y - x)

