"""Circular beta ensemble: Verblunsky sampling, Prufer phases, arc counts."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .rng import RngStream, beta_1s_sample, TWO_PI


@dataclass(frozen=True)
class VerblunskyDraw:
    """One realization of the coefficients driving a circular ensemble.

    gamma holds the n-1 disc-valued coefficients gamma_0..gamma_{n-2} whose
    squared moduli are Beta(1, beta*(n-j-1)/2); eta is the boundary phase,
    uniform on [0, 2*pi) and independent of gamma.
    """

    gamma: np.ndarray
    eta: float

    @property
    def n(self) -> int:
        return len(self.gamma) + 1

    def __post_init__(self):
        if len(self.gamma) and np.max(np.abs(self.gamma)) >= 1.0:
            raise ValueError("coefficients must lie in the open unit disc")
        if not 0.0 <= self.eta < TWO_PI:
            raise ValueError(f"eta must lie in [0, 2*pi), got {self.eta}")


# Largest radius drawn. Inverse-CDF radii round to exactly 1 when
# U^(1/s) < 1.1e-16, and the computed unit factor e^{2 pi i U} can have
# modulus up to 4.4e-16 above 1; a margin of 2^-50 = 8.9e-16 keeps every
# |gamma| below 1.
RADIUS_CAP = 1.0 - 2.0**-50


def _sample_verblunsky_block(beta: float, n: int, count: int, rng: RngStream):
    """Sample coefficients for `count` independent circular beta ensembles of
    n points from one stream.

    |gamma_j|^2 ~ Beta(1, beta*(n-j-1)/2) with uniform independent argument;
    eta uniform on [0, 2*pi). The draw order is part of the reproducibility
    contract: squared radii (count, n-1) by inverse CDF, then arguments
    (count, n-1), then eta (count,). Returns (gamma (count, n-1) complex,
    eta (count,)).

    The radius is capped at RADIUS_CAP = 1 - 2^-50, so every coefficient lies
    in the open unit disc. At beta >= 2 the cap binds with probability below
    2e-15 per coefficient; at small beta it binds more often, and then moves
    the radius by at most 9e-16. The argument factor e^{2 pi i U} is built
    from t = tan(pi U) as ((1 - t^2) + 2it) / (1 + t^2), one tan and no cos
    or sin: it agrees with cos(2 pi U) + i sin(2 pi U) to within 4e-16, and
    U = 0 gives exactly 1.
    """
    if not 0 < beta < math.inf:
        raise ValueError(f"beta must be positive and finite, got {beta}")
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    size = (count, n - 1)
    radius = beta_1s_sample(0.5 * beta * (n - 1.0 - np.arange(n - 1)), rng, size=size)
    np.sqrt(radius, out=radius)
    np.minimum(radius, RADIUS_CAP, out=radius)
    t = rng.generator.random(size)
    t *= math.pi
    np.tan(t, out=t)
    # Built in place in gamma's own parts: complex temporaries of shape
    # (count, n-1) would set the process's peak memory at n in the thousands.
    gamma = np.empty(size, dtype=complex)
    np.multiply(t, t, out=gamma.imag)
    np.subtract(1.0, gamma.imag, out=gamma.real)
    gamma.imag += 1.0
    radius /= gamma.imag
    gamma.real *= radius
    t *= 2.0
    np.multiply(t, radius, out=gamma.imag)
    eta = TWO_PI * rng.generator.random(count)
    return gamma, eta


def sample_verblunsky(beta: float, n: int, rng: RngStream) -> VerblunskyDraw:
    """Sample coefficients for a circular beta ensemble of n points: the
    one-draw case of the block sampler, with the same draw order."""
    gamma, eta = _sample_verblunsky_block(beta, n, 1, rng)
    return VerblunskyDraw(gamma=gamma[0], eta=float(eta[0]))


# Largest bound on the summed Prufer increments that one arctan2 may resolve;
# see _prufer_runs. The margin pi - 3.1 = 0.04 is far above the rounding of a
# run's product, of order (run length) * 1e-16.
PRUFER_RUN_LIMIT = 3.1


def _prufer_runs(gamma: np.ndarray) -> list[int]:
    """Split the depth of a (C, J) coefficient block into runs of Prufer
    steps whose increments one arctan2 can resolve; returns the run ends.

    Step j adds theta + 2*arg q_j to the phase (see _final_phases), and
    |arg q_j| <= b_j = 2*asin|g_j|: 1-g_j and 1-g_j u both lie in the disc
    of center 1 and radius |g_j|, whose points have arguments within
    asin|g_j| of 0. b_j is taken at the largest |g_j| over the block's
    draws. A run ends before the step that would lift its bound sum to
    PRUFER_RUN_LIMIT or beyond, so the arguments of a run of two or more
    steps sum to a value inside (-pi, pi), and the principal argument of the
    product of their q_j is that sum. A step whose own bound reaches the
    limit is a run of one, whose arctan2 is the per-step one.
    """
    bound = 2.0 * np.arcsin(np.max(np.abs(gamma), axis=0, initial=0.0))
    stops = []
    total = 0.0
    for j, b in enumerate(bound.tolist()):
        if j and total + b >= PRUFER_RUN_LIMIT:
            stops.append(j)
            total = 0.0
        total += b
    if bound.size:
        stops.append(bound.size)
    return stops


def _final_phases(gamma: np.ndarray, thetas: np.ndarray, a: float = 0.0) -> np.ndarray:
    """psi_{J}(theta, a) for a block of draws evaluated at several thetas.

    gamma: (C, J) complex coefficients; thetas: (K,) angles shared by all
    draws. Returns the depth-J phase matrix of shape (C, K).

    The Prufer step psi += theta + 2*(arg(1-g) - arg(1-g e^{i psi})) runs on
    u = e^{i psi}, so it needs no cos or sin: with q = (1-g)*conj(1-g u), the
    increment is theta + 2*arg q and u moves to u e^{i theta} q/conj(q).
    arg(1-g) and arg(1-g u) both lie in (-pi/2, pi/2), since 1-g and 1-g u
    sit in the disc of center 1 and radius |g| < 1, so their difference is
    the principal argument of q. The conj(q) of each run from _prufer_runs
    are multiplied into one product, and one arctan2 per run gives the sum
    of their arguments.
    """
    gamma = np.atleast_2d(gamma)
    thetas = np.atleast_1d(np.asarray(thetas, dtype=float))[:, None]
    n_draws, depth = gamma.shape
    # (K, C) buffers, so each step broadcasts one coefficient column along
    # contiguous rows; e^{i theta} is tiled, since a same-shape multiply is
    # faster than a broadcast one. Only the args of q are summed per run,
    # and psi = theta + a + J*theta + 2*sum(arg q) is assembled at the end.
    shape = (thetas.size, n_draws)
    psi0 = thetas + a
    u = np.exp(1j * np.broadcast_to(psi0, shape))
    rot = np.broadcast_to(np.exp(1j * thetas), shape).copy()
    winding = np.zeros(shape)
    q = np.empty(shape, dtype=complex)
    q_bar = np.empty(shape, dtype=complex)
    product = np.empty(shape, dtype=complex)
    arg = np.empty(shape)
    c = np.empty(n_draws, dtype=complex)
    cg = np.empty(n_draws, dtype=complex)
    start = 0
    for stop in _prufer_runs(gamma):
        product.fill(1.0)
        for j in range(start, stop):
            g = gamma[:, j]
            np.subtract(1.0, g, out=c)
            np.conjugate(c, out=c)
            np.multiply(c, g, out=cg)
            # conj(q) = conj(1-g) * (1 - g u), and arg q = -arg conj(q)
            np.multiply(u, cg, out=q_bar)
            np.subtract(c, q_bar, out=q_bar)
            product *= q_bar
            np.conjugate(q_bar, out=q)
            u *= rot
            u *= q
            u /= q_bar
        np.arctan2(product.imag, product.real, out=arg)
        winding -= arg
        start = stop
    return (psi0 + depth * thetas + 2.0 * winding).T


def prufer_evaluate(
    draw: VerblunskyDraw, theta: float, a: float, k: int | None = None
) -> float:
    """Evaluate the Prufer phase psi_k(theta, a), with psi_0 = theta + a.

    k defaults to n-1 (full depth). The phase is strictly increasing in theta
    and in a, and shifts exactly by 2*pi when a does.
    """
    if k is None:
        k = draw.n - 1
    if not 0 <= k <= draw.n - 1:
        raise ValueError(f"depth k must lie in [0, {draw.n - 1}], got {k}")
    return float(_final_phases(draw.gamma[None, :k], np.array([theta]), a)[0, 0])


def count_arc(draw: VerblunskyDraw, x: float) -> int:
    """Count points with rescaled argument in (0, x], i.e. e^{iz/n} in the
    configuration for 0 < z <= x.

    Uses the winding identity: the full-depth phase is strictly increasing
    with psi(0) = 0, so the count equals the number of solutions of
    psi(theta) = eta mod 2*pi with theta in (0, x/n]. The result always lies
    within 1 of psi(x/n) / (2*pi).
    """
    if not 0.0 <= x < TWO_PI * draw.n:
        raise ValueError(f"x must lie in [0, 2*pi*n), got {x}")
    counts = _count_arcs_block(draw.gamma[None, :], np.array([draw.eta]), draw.n, np.array([x]))
    return int(counts[0, 0])


def _bisect_phase(gamma: np.ndarray, targets: np.ndarray, hi: float) -> np.ndarray:
    """Solve psi(theta) = target for each target by 60 steps of monotone
    bisection on [0, hi]."""
    lo = np.zeros_like(targets)
    hi_arr = np.full_like(targets, hi)
    g = gamma.reshape(1, -1)
    for _ in range(60):
        mid = 0.5 * (lo + hi_arr)
        vals = _final_phases(g, mid)[0]
        below = vals < targets
        lo = np.where(below, mid, lo)
        hi_arr = np.where(below, hi_arr, mid)
    return 0.5 * (lo + hi_arr)


def cbe_points(draw: VerblunskyDraw) -> np.ndarray:
    """All n points of the configuration as sorted arguments in [0, 2*pi).

    The full-depth phase increases from 0 to 2*pi*n over one period, so each
    of the n lattice values eta + 2*pi*m in [0, 2*pi*n) has a unique preimage,
    located by bisection to within 1e-12 in theta.
    """
    targets = draw.eta + TWO_PI * np.arange(draw.n, dtype=float)
    if len(draw.gamma) == 0:
        # psi(theta) = theta: the point is the lattice value itself
        points = targets
    else:
        points = _bisect_phase(draw.gamma, targets, TWO_PI)
    return np.sort(points)


def default_window_size(x_max: float) -> int:
    """Matrix size used to approximate the scaling limit on [0, x_max]."""
    return max(4096, int(math.ceil(50.0 * x_max)))


def sine_beta_window(beta: float, x_max: float, n: int | None, rng: RngStream) -> np.ndarray:
    """Approximate a sine-process sample on [0, x_max] by the rescaled points
    of a size-n circular ensemble (the window points are n times the angles),
    returned sorted.

    n = None means default_window_size(x_max) = max(4096, ceil(50 * x_max));
    any explicit n must satisfy n >= ceil(10 * x_max) so the window stays far
    from the full circle.
    """
    if not 0 <= x_max < math.inf:
        raise ValueError(f"x_max must be non-negative and finite, got {x_max}")
    if n is None:
        n = default_window_size(x_max)
    if n < math.ceil(10.0 * x_max):
        raise ValueError(f"n={n} too small for window length {x_max}; need n >= {math.ceil(10.0 * x_max)}")
    draw = sample_verblunsky(beta, n, rng)
    count = count_arc(draw, x_max) if x_max > 0.0 else 0
    if count == 0:
        return np.empty(0)
    first = 0 if draw.eta > 0.0 else 1
    targets = draw.eta + TWO_PI * np.arange(first, first + count, dtype=float)
    thetas = _bisect_phase(draw.gamma, targets, x_max / n)
    return np.sort(n * thetas)


def _stack_draws(beta: float, n: int, master_seed: int, block: range):
    """Sample the replicas of `block` from the one stream addressed by its
    first index: (gamma (C, n-1) complex, eta (C,))."""
    return _sample_verblunsky_block(beta, n, len(block), RngStream(master_seed, block.start))


def _count_arcs_block(gamma: np.ndarray, eta: np.ndarray, n: int, xs: np.ndarray) -> np.ndarray:
    """Arc counts for a block of draws at each rescaled length in xs: (C, K)."""
    psi = _final_phases(gamma, np.asarray(xs, dtype=float) / n)
    return (
        np.floor((psi - eta[:, None]) / TWO_PI).astype(np.int64)
        - np.floor(-eta[:, None] / TWO_PI).astype(np.int64)
    )
