"""Circular beta ensemble: Verblunsky sampling, Prufer phases, arc counts."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .rng import RngStream, StepTally, beta_1s_sample, TWO_PI


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
        gamma = np.asarray(self.gamma)
        if not np.isfinite(gamma).all():
            raise ValueError("gamma entries must be finite")
        # |g|^2 as _final_phases forms 1 - |g|^2, which must stay positive
        if (gamma.real**2 + gamma.imag**2 >= 1.0).any():
            raise ValueError("coefficients must lie in the open unit disc")
        if not 0.0 <= self.eta < TWO_PI:
            raise ValueError(f"eta must lie in [0, 2*pi), got {self.eta}")


# Largest radius drawn. Inverse-CDF radii round to exactly 1 when
# U^(1/s) < 1.1e-16, and the computed unit factor e^{2 pi i U} can have
# modulus up to 4.4e-16 above 1; a margin of 2^-50 = 8.9e-16 keeps every
# |gamma| below 1.
RADIUS_CAP = 1.0 - 2.0**-50
# Bytes of each float64 buffer that a chunk of the block sampler, or a tile
# of _final_phases, works in. Four such buffers fit a 2 MB L2 cache, and each
# stays below glibc's 128 KiB mmap threshold, so that forming it takes no
# fresh pages.
TILE_BYTES = 112 * 1024
# Most bytes of coefficients, 16 per complex coefficient, that a block
# runner draws and counts at once; a larger block is taken in row groups
# (_row_groups). 32 MiB is glibc's ceiling for its dynamic mmap threshold on
# 64-bit: no array above it is ever served from the heap, so each would be
# fresh pages. On cbe-regularity's (1024, 2999) block, two groups of 512
# rows took a run's peak RSS from 85.8 to 61.9 MB and its wall time up by
# 6% (2 vCPUs), the cost of a Prufer kernel state half as wide.
GROUP_BYTES = 32 * 2**20


def _sample_verblunsky_block(beta: float, n: int, count: int, rng: RngStream, rows: range):
    """Sample rows `rows` of a block of coefficients for `count` independent
    circular beta ensembles of n points drawn from one stream.

    |gamma_j|^2 ~ Beta(1, beta*(n-j-1)/2) with uniform independent argument;
    eta uniform on [0, 2*pi). The draw order of the whole block is part of
    the reproducibility contract: squared radii (count, n-1) by inverse CDF,
    then arguments (count, n-1), then eta (count,). Row r reads its radii at
    offset r*(n-1) of the stream, its arguments at (count + r)*(n-1) and its
    eta at 2*count*(n-1) + r, each from a copy moved ahead (RngStream.ahead),
    so any rows give the values they have in the whole block. Returns
    (gamma (len(rows), n-1) complex, eta (len(rows),)).

    gamma is built in chunks of rows, each chunk's buffers TILE_BYTES long:
    a chunk draws its radii and its arguments and writes its rows of gamma
    once. The whole block reads its radii from rng itself and its arguments
    and eta from one copy.

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
    if not (rows.step == 1 and 0 <= rows.start <= rows.stop <= count):
        raise ValueError(f"rows {rows} are not a run of rows of a {count}-draw block")
    width = n - 1
    radii = rng if rows.start == 0 else rng.ahead(rows.start * width)
    args = rng.ahead((count + rows.start) * width)
    etas = args if rows == range(count) else rng.ahead(2 * count * width + rows.start)
    s = 0.5 * beta * (n - 1.0 - np.arange(width))
    gamma = np.empty((len(rows), width), dtype=complex)
    chunk = max(1, min(len(rows), TILE_BYTES // (8 * max(width, 1))))
    buffers = [np.empty((chunk, width)) for _ in range(4)]
    for lo in range(0, len(rows), chunk):
        g = gamma[lo : lo + chunk]
        r, t, sq, re = (buf[: len(g)] for buf in buffers)
        beta_1s_sample(s, radii, r)
        np.sqrt(r, out=r)
        np.minimum(r, RADIUS_CAP, out=r)
        args.generator.random(out=t)
        t *= math.pi
        np.tan(t, out=t)
        np.multiply(t, t, out=sq)
        np.subtract(1.0, sq, out=re)
        sq += 1.0
        r /= sq
        np.multiply(re, r, out=g.real)
        t *= 2.0
        np.multiply(t, r, out=g.imag)
    eta = TWO_PI * etas.generator.random(len(rows))
    return gamma, eta


def _row_groups(block: range, n: int) -> list[range]:
    """The fewest near-equal runs of block's replicas whose coefficients,
    16*(n-1) bytes a replica, take at most GROUP_BYTES each; a replica that
    alone takes more is a group of its own."""
    per_group = max(1, GROUP_BYTES // (16 * max(n - 1, 1)))
    groups = -(-len(block) // per_group)
    cuts = [block.start + len(block) * i // groups for i in range(groups + 1)]
    return [range(lo, hi) for lo, hi in zip(cuts, cuts[1:])]


def sample_verblunsky(beta: float, n: int, rng: RngStream) -> VerblunskyDraw:
    """Sample coefficients for a circular beta ensemble of n points: the
    one-draw case of the block sampler, with the same draw order."""
    gamma, eta = _sample_verblunsky_block(beta, n, 1, rng, range(1))
    return VerblunskyDraw(gamma=gamma[0], eta=float(eta[0]))


def _chart_start(psi0: np.ndarray):
    """Sheet k and chart value t = -cot(psi/2) of phases psi0, with
    psi0 = 2*pi*k + pi + 2*arctan(t); a psi0 on a sheet boundary 2*pi*k
    gives t = -inf."""
    k = np.floor(psi0 / TWO_PI)
    return k, -1.0 / np.tan(0.5 * psi0 - math.pi * k)


def _chart_rotation(thetas: np.ndarray):
    """Whole sheets m and tau = tan(rho) of rotations by thetas, where
    theta/2 = m*pi + rho with rho in [-pi/2, pi/2]."""
    m = np.round(thetas / TWO_PI)
    return m, np.tan(0.5 * thetas - math.pi * m)


def _chart_steps(gamma, tau, t0, careful: bool):
    """Run the chart recursion of _final_phases over the columns of gamma
    from the start values t0 (K,), with rotations tau (K,): the (K, C) final
    chart values t and sheet crossings turns.

    careful: also carry a t of +-inf (a phase on a sheet boundary) through
    the rotation, to its limit -1/tau, or unchanged where tau = 0. The plain
    step sends it to NaN.

    A step crosses at most one sheet; the crossings are counted by a
    StepTally.
    """
    n_draws, depth = gamma.shape
    shape = (t0.size, n_draws)
    tile = max(1, TILE_BYTES // (8 * max(n_draws, 1)))
    # the coefficient tiles, and tau tiled to (K, C): a same-shape multiply
    # is faster than one that broadcasts a (K, 1) column
    tiles = [np.empty((tile, n_draws)) for _ in range(4)]
    t = np.broadcast_to(t0[:, None], shape).copy()
    tau = np.broadcast_to(tau[:, None], shape).copy()
    neg_tau = -tau
    w = np.empty(shape)
    turns = StepTally(shape)
    if careful:
        edge = np.empty(shape, dtype=bool)
        still = tau == 0.0
        limit = -1.0 / tau
    for start in range(0, depth, tile):
        stop = min(start + tile, depth)
        x, y, a, d = (buf[: stop - start] for buf in tiles)
        np.copyto(x, gamma.real[:, start:stop].T)
        np.copyto(y, gamma.imag[:, start:stop].T)
        # d = 1 - |g|^2, then a = |1-g|^2 / d and d = -2 Im g / d
        np.multiply(x, x, out=d)
        np.multiply(y, y, out=a)
        d += a
        np.subtract(1.0, d, out=d)
        np.subtract(1.0, x, out=x)
        x *= x
        x += a
        np.divide(x, d, out=a)
        y *= -2.0
        np.divide(y, d, out=d)
        for j in range(stop - start):
            t *= a[j]
            t += d[j]
            if careful:
                np.isinf(t, out=edge)
                np.copyto(limit, t, where=still)
            # t <- (t + tau)/(1 - tau t), as (-tau - t)/w with w = tau t - 1
            np.multiply(t, tau, out=w)
            w -= 1.0
            np.subtract(neg_tau, t, out=t)
            t /= w
            np.greater_equal(w, 0.0, out=turns.hits)
            turns.add()
            if careful:
                np.copyto(t, limit, where=edge)
    return t, turns.done()


def _final_phases(gamma: np.ndarray, thetas: np.ndarray, a: float = 0.0) -> np.ndarray:
    """psi_{J}(theta, a) for a block of draws evaluated at several thetas.

    gamma: (C, J) complex coefficients; thetas: (K,) angles shared by all
    draws. Returns the depth-J phase matrix of shape (C, K).

    Step j, psi += theta + 2*(arg(1-g) - arg(1-g e^{i psi})) with g = gamma_j,
    is a disc automorphism of u = e^{i psi} that fixes u = 1, then a
    rotation by theta. The recursion runs in the chart t = -cot(psi/2) with a
    sheet count k, psi = 2*pi*k + pi + 2*arctan(t), where u = 1 is t = inf:
    - the automorphism is affine there and keeps k:
      t <- alpha*t + delta, alpha = |1-g|^2/(1-|g|^2),
      delta = -2*Im(g)/(1-|g|^2);
    - with theta/2 = m*pi + rho and tau = tan(rho), the rotation adds m
      sheets and sends t to (t + tau)/(1 - tau*t); k moves by sign(tau)
      where 1 - tau*t <= 0. It is computed as (-tau - t)/(tau*t - 1), so an
      exact zero denominator is +0 and sends t to -sign(tau)*inf, the
      boundary of the sheet just entered.

    Each step is eight real (K, C) passes with one division, and alpha and
    delta are formed in step-major tiles of TILE_BYTES each. The start is
    (k0, t0) of theta + a, and psi_J = 2*pi*(k0 + J*m + k) + pi + 2*arctan(t).
    A t of +-inf entering a rotation becomes NaN, so the levels and draws
    where that happened (a phase exactly on a sheet boundary) are run again,
    those levels of those draws only, with the careful step of _chart_steps.
    """
    depth = gamma.shape[1]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        k0, t0 = _chart_start(thetas + a)
        m, tau = _chart_rotation(thetas)
        t, turns = _chart_steps(gamma, tau, t0, careful=False)
        nan = np.isnan(t)
        if nan.any():
            levels, draws = nan.any(axis=1), nan.any(axis=0)
            lost = np.ix_(levels, draws)
            t[lost], turns[lost] = _chart_steps(gamma[draws], tau[levels], t0[levels], careful=True)
    sheets = np.sign(tau)[:, None] * turns + (k0 + depth * m)[:, None]
    return (TWO_PI * sheets + (math.pi + 2.0 * np.arctan(t))).T


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


def min_window_size(x_max: float) -> int:
    """Smallest matrix size for a window of length x_max: ceil(10 * x_max),
    so that the window stays far from the full circle."""
    return math.ceil(10.0 * x_max)


def sine_beta_window(beta: float, x_max: float, n: int | None, rng: RngStream) -> np.ndarray:
    """Approximate a sine-process sample on [0, x_max] by the rescaled points
    of a size-n circular ensemble (the window points are n times the angles),
    returned sorted.

    n = None means default_window_size(x_max) = max(4096, ceil(50 * x_max));
    any explicit n must be at least min_window_size(x_max).
    """
    if not 0 <= x_max < math.inf:
        raise ValueError(f"x_max must be non-negative and finite, got {x_max}")
    if n is None:
        n = default_window_size(x_max)
    if n < min_window_size(x_max):
        raise ValueError(f"n={n} too small for window length {x_max}; need n >= {min_window_size(x_max)}")
    draw = sample_verblunsky(beta, n, rng)
    count = count_arc(draw, x_max) if x_max > 0.0 else 0
    if count == 0:
        return np.empty(0)
    first = 0 if draw.eta > 0.0 else 1
    targets = draw.eta + TWO_PI * np.arange(first, first + count, dtype=float)
    thetas = _bisect_phase(draw.gamma, targets, x_max / n)
    return np.sort(n * thetas)


def _stack_draws(beta: float, n: int, master_seed: int, rows: range, block: range | None = None):
    """Sample the replicas `rows` of `block` (by default rows is the whole
    block) from the one stream addressed by the block's first index, with
    the values they have in the whole block: (gamma (C, n-1) complex,
    eta (C,)) for the C replicas of rows."""
    if block is None:
        block = rows
    return _sample_verblunsky_block(
        beta,
        n,
        len(block),
        RngStream(master_seed, block.start),
        range(rows.start - block.start, rows.stop - block.start, rows.step),
    )


def _count_arcs_block(gamma: np.ndarray, eta: np.ndarray, n: int, xs: np.ndarray) -> np.ndarray:
    """Arc counts for a block of draws at each rescaled length in xs: (C, K).
    A phase that is not finite (from a non-finite coefficient or length)
    raises, where a cast would make it a count."""
    psi = _final_phases(gamma, np.asarray(xs, dtype=float) / n)
    if not np.all(np.isfinite(psi)):
        raise ValueError("Prufer phase is not finite: a coefficient or arc length is not finite")
    return (
        np.floor((psi - eta[:, None]) / TWO_PI).astype(np.int64)
        - np.floor(-eta[:, None] / TWO_PI).astype(np.int64)
    )
