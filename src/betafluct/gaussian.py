"""Gaussian beta ensemble: tridiagonal models, Sturm counts, phase sweeps."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .circlemap import _lift_affine
from .rng import RngStream, chi_sample, gaussian_sample, replica_blocks, TWO_PI

# Relative winding distance to an integer below which a sweep count is
# reported as ill-conditioned instead of silently rounded.
NEAR_DEGENERATE_TOL = 1e-8
# Levels per tile of _sturm_block: two (tile, C) float copies, 0.5 MB at
# C = 2048, stay cache-sized; wider tiles cost memory and gain little.
STURM_TILE = 16


@dataclass(frozen=True)
class TridiagonalModel:
    """Symmetric tridiagonal matrix whose spectrum is a Gaussian beta ensemble.

    diag entries are N(0, 2/beta); offdiag entry p (1-based) is
    chi_{beta*(n-p)} / sqrt(beta), all independent. The off-diagonal must
    be positive: the phase sweep conjugates it away (see _conjugate_block).
    """

    diag: np.ndarray
    offdiag: np.ndarray

    @property
    def n(self) -> int:
        return len(self.diag)

    def __post_init__(self):
        if len(self.diag) < 1 or len(self.offdiag) != len(self.diag) - 1:
            raise ValueError("need a non-empty diagonal and one off-diagonal entry fewer")
        if np.any(self.offdiag <= 0):
            raise ValueError("off-diagonal entries must be positive")


@dataclass(frozen=True)
class PhaseSweep:
    """Eigenvalue count at a split index, read off the phase winding."""

    count: int
    flagged: bool


@dataclass(frozen=True)
class CarouselParams:
    """Deterministic rotation data removed from raw phases around level mu.

    With n0 = (n - mu^2/4 - 1/2) clamped below by 1: rho_l are unit-modulus
    rotation factors for 0 <= l < n0; ell is the largest integer strictly
    below n0 - mu^(2/3), clamped at 0.
    """

    rho: np.ndarray = field(repr=False)
    ell: int


def _sample_tridiagonal_block(beta: float, n: int, count: int, rng: RngStream):
    """Sample `count` independent tridiagonal models of size n from one stream.

    The draw order is part of the reproducibility contract: the diagonals
    (count, n) as N(0, 2/beta), then the off-diagonals (count, n-1) as
    chi_{beta*(n-p)} / sqrt(beta). Returns (diag (count, n), offdiag
    (count, n-1)).
    """
    if not 0 < beta < math.inf:
        raise ValueError(f"beta must be positive and finite, got {beta}")
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    diag = gaussian_sample(0.0, math.sqrt(2.0 / beta), rng, size=(count, n))
    dof = beta * (n - np.arange(1, n, dtype=float))
    offdiag = chi_sample(dof, rng, size=(count, n - 1))
    offdiag /= math.sqrt(beta)
    return diag, offdiag


def sample_tridiagonal(beta: float, n: int, rng: RngStream) -> TridiagonalModel:
    """Sample the tridiagonal model of a Gaussian beta ensemble of size n: the
    one-draw case of the block sampler, with the same draw order."""
    diag, offdiag = _sample_tridiagonal_block(beta, n, 1, rng)
    return TridiagonalModel(diag=diag[0], offdiag=offdiag[0])


def _stack_models(beta: float, n: int, master_seed: int, block: range):
    """Sample the replicas of `block` from the one stream addressed by its
    first index: (diag (C, n), offdiag (C, n-1))."""
    return _sample_tridiagonal_block(beta, n, len(block), RngStream(master_seed, block.start))


def _conjugate_block(offdiag: np.ndarray):
    """Pinned subdiagonal s (n,) and fluctuation Y (C, n) of stacked draws.

    A diagonal similarity of the (positive off-diagonal) model keeps the
    diagonal X and gives subdiagonal entries s_1..s_{n-1}, with
    s_p = sqrt(n - p - 1/2), and superdiagonal entries s_{p-1} + Y_{p-1},
    with Y_{p-1} = offdiag_p^2 / s_p - s_{p-1}. Opposite off-diagonal
    products are preserved exactly, so the spectrum is unchanged.
    Y_{n-1} = 0 pads the final transfer map.
    """
    n = offdiag.shape[1] + 1
    s = np.sqrt(n - np.arange(n, dtype=float) - 0.5)
    y = np.zeros((offdiag.shape[0], n))
    y[:, : n - 1] = offdiag**2 / s[1:] - s[:-1]
    return s, y


def sturm_count(model: TridiagonalModel, lam) -> int | np.ndarray:
    """Number of eigenvalues <= lam, by counting negative pivots of T - lam*I.

    A zero pivot is replaced by -eps*(1 + |lam|) and counted as negative,
    matching half-open interval semantics (boundary eigenvalues count).
    """
    scalar = np.isscalar(lam)
    lam_arr = np.atleast_1d(np.asarray(lam, dtype=float))
    counts = _sturm_block(model.diag[None, :], model.offdiag[None, :], lam_arr)[0]
    return int(counts[0]) if scalar else counts


def _sturm_block(diag: np.ndarray, offdiag: np.ndarray, lams: np.ndarray) -> np.ndarray:
    """Vectorized pivot counts: diag (C, n), offdiag (C, n-1), lams (K,) shared
    by all draws or (C, K) one row per draw -> (C, K).

    Pivot p is d_p = (diag_p - lam) - offdiag_p^2 / d_{p-1}, in that order.
    A column of a (C, n) block is one element per row, a page apart at
    gbe-scan's size, so the levels are copied STURM_TILE at a time into
    contiguous (tile, C) rows, and the pivots, updated in place, are (K, C).
    """
    n = diag.shape[1]
    lam = np.asarray(lams, dtype=float).T
    lam = lam[:, None] if lam.ndim == 1 else lam  # (K, 1) or (K, C)
    shape = (lam.shape[0], diag.shape[0])
    neg_tiny = -(np.finfo(float).eps * (1.0 + np.abs(lam)))
    d, t = np.empty(shape), np.empty(shape)
    below = np.empty(shape, dtype=bool)
    neg = np.zeros(shape, dtype=np.int64)
    rows = np.empty((min(STURM_TILE, n - 1), diag.shape[0]))
    squares = np.empty_like(rows)

    def tally():
        if not d.all():
            np.copyto(d, neg_tiny, where=d == 0.0)
        np.less(d, 0.0, out=below)
        np.add(neg, below, out=neg)

    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        np.subtract(diag[:, 0], lam, out=d)
        tally()
        for p0 in range(1, n, STURM_TILE):
            w = min(STURM_TILE, n - p0)
            np.copyto(rows[:w], diag[:, p0 : p0 + w].T)
            np.square(offdiag[:, p0 - 1 : p0 - 1 + w].T, out=squares[:w])
            for row, square in zip(rows[:w], squares[:w]):
                np.subtract(row, lam, out=t)
                np.divide(square, d, out=d)
                np.subtract(t, d, out=d)
                tally()
    return neg.T


def _forward_phases(diag, s, a, lams, ell: int):
    """Forward phases at split ell, (C, K): pi pushed through maps 0..ell-1."""
    fwd = np.full((diag.shape[0], lams.shape[-1]), math.pi)
    for l in range(ell):
        fwd = _lift_affine(fwd + math.pi, a[:, l : l + 1], (lams - diag[:, l : l + 1]) / s[l])
    return fwd


def _backward_phases(diag, s, a, lams, ell: int):
    """Backward phases at split ell, (C, K): 0 pulled back through maps n-1..ell."""
    bwd = np.zeros((diag.shape[0], lams.shape[-1]))
    for l in range(diag.shape[1] - 1, ell - 1, -1):
        al = a[:, l : l + 1]
        bwd = _lift_affine(bwd, 1.0 / al, al * (diag[:, l : l + 1] - lams) / s[l]) - math.pi
    return bwd


def _sweep_phases(diag, offdiag, lams, ell: int):
    """Forward and backward phases at split ell for stacked draws: (C, K) each.

    diag (C, n), offdiag (C, n-1); lams is (K,) shared by all draws or
    (C, K), one row per draw. With X = diag, s and Y from _conjugate_block
    and a_l = s_l / (s_l + Y_l), transfer map l is a half turn followed by
    the lift of r -> a_l*(r + (lam - X_l)/s_l). The forward phase starts at
    pi and is pushed through maps 0..ell-1; the backward phase starts at 0
    and is pulled back through maps n-1..ell by the inverse lift
    L(1/a_l, a_l*(X_l - lam)/s_l) and a half turn back.
    """
    s, y = _conjugate_block(offdiag)
    a = s / (s + y)
    lams = np.atleast_1d(np.asarray(lams, dtype=float))
    return _forward_phases(diag, s, a, lams, ell), _backward_phases(diag, s, a, lams, ell)


def _sweep_counts_block(diag, offdiag, lams, ell):
    """Sweep counts and flags for stacked tridiagonal draws: (C, K) each.

    lams is (K,) shared by all draws or (C, K), one row per draw. The count
    is floor((fwd - bwd) / 2pi); it is flagged when that winding lies within
    NEAR_DEGENERATE_TOL of an integer (an ill-conditioned count).
    """
    fwd, bwd = _sweep_phases(diag, offdiag, lams, ell)
    winding = (fwd - bwd) / TWO_PI
    flags = np.abs(winding - np.round(winding)) < NEAR_DEGENERATE_TOL
    return np.floor(winding).astype(np.int64), flags


def phase_sweep(model: TridiagonalModel, lam: float, ell: int) -> PhaseSweep:
    """Count eigenvalues <= lam as the winding between a forward phase pushed
    from the top rows and a backward phase pushed from the bottom rows.

    The split index ell may be any value in [0, n]; the count is independent
    of it. Counts whose winding sits within 1e-8 of an integer are flagged as
    ill-conditioned rather than trusted.
    """
    if not 0 <= ell <= model.n:
        raise ValueError(f"ell must lie in [0, {model.n}], got {ell}")
    count, flagged = _sweep_counts_block(model.diag[None, :], model.offdiag[None, :], [lam], ell)
    return PhaseSweep(count=int(count[0, 0]), flagged=bool(flagged[0, 0]))


def _strict_int_part(x: float) -> int:
    """Largest integer strictly smaller than x."""
    f = math.floor(x)
    return f - 1 if f == x else f


def carousel_params(mu: float, n: int) -> CarouselParams:
    """Rotation-removal parameters at level mu for a size-n ensemble."""
    if not 0 <= mu < math.inf:
        raise ValueError(f"mu must be non-negative and finite, got {mu}")
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    q = mu * mu / 4.0
    n0 = max(n - q - 0.5, 1.0)
    levels = np.arange(math.ceil(n0), dtype=float)
    denom = q + n0 - levels
    rho = np.sqrt(q / denom) + 1j * np.sqrt((n0 - levels) / denom)
    ell = max(_strict_int_part(n0 - mu ** (2.0 / 3.0)), 0)
    return CarouselParams(rho=rho, ell=ell)


def _semicircle_antiderivative(x) -> np.ndarray:
    return 0.5 * x * np.sqrt(4.0 - x * x) + 2.0 * np.arcsin(0.5 * x)


def semicircle_count(n: int, lam1: float, lam2: float) -> float:
    """Expected point count on (lam1, lam2] under the semicircle profile:
    (n/2pi) * integral of sqrt((4 - x^2)_+) over [lam1/sqrt(n), lam2/sqrt(n)].
    """
    if lam1 > lam2:
        raise ValueError(f"need lam1 <= lam2, got ({lam1}, {lam2})")
    root = math.sqrt(n)
    a = min(max(lam1 / root, -2.0), 2.0) if math.isfinite(lam1) else math.copysign(2.0, lam1)
    b = min(max(lam2 / root, -2.0), 2.0) if math.isfinite(lam2) else math.copysign(2.0, lam2)
    return float(n / TWO_PI * (_semicircle_antiderivative(b) - _semicircle_antiderivative(a)))


def semicircle_residual(mu: float, n: int) -> float:
    """Difference between the accumulated rotation angles up to the carousel
    split and the semicircle mass beyond mu; stays O(1) uniformly in n.
    """
    params = carousel_params(mu, n)
    angle_sum = float(np.sum(np.angle(params.rho[: params.ell])))
    edge = min(mu / math.sqrt(n), 2.0)
    mass = 0.5 * n * (_semicircle_antiderivative(2.0) - _semicircle_antiderivative(edge))
    return angle_sum - float(mass)


def _cross_count_chunks(beta: float, n: int, draws: int, lams_per_draw: int, seed: int):
    """Both eigenvalue counters on random draws, one replica block at a time.

    Draw d and its lams_per_draw uniform spectral points covering the
    spectrum come from RngStream(seed, d). Yields, per block, the stacked
    (diag, offdiag, lams) with one row per draw, the sweep counts and flags
    (split at ell = n // 2), and the Sturm counts, each (C, lams_per_draw).
    """
    half_width = 2.0 * math.sqrt(n) + 2.0
    for block in replica_blocks(draws):
        diag, offdiag = np.empty((len(block), n)), np.empty((len(block), n - 1))
        lams = np.empty((len(block), lams_per_draw))
        for row, d in enumerate(block):
            rng = RngStream(seed, d)
            model = sample_tridiagonal(beta, n, rng)
            diag[row], offdiag[row] = model.diag, model.offdiag
            lams[row] = rng.generator.uniform(-half_width, half_width, lams_per_draw)
        sweep, flags = _sweep_counts_block(diag, offdiag, lams, n // 2)
        yield diag, offdiag, lams, sweep, flags, _sturm_block(diag, offdiag, lams)


def verify_counts(
    beta: float,
    n: int,
    draws: int,
    lams_per_draw: int,
    seed: int,
) -> tuple[int, int]:
    """Cross-check the two eigenvalue counters on random spectral parameters.

    For each sampled model, lams_per_draw uniform points covering the
    spectrum are counted by phase sweep and by Sturm pivots; counts must
    agree exactly except at flagged near-degenerate points. Returns
    (unflagged mismatches, flagged points).
    """
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    if draws < 1 or lams_per_draw < 1:
        raise ValueError("draws and lams_per_draw must be positive")
    mismatches = 0
    flagged = 0
    chunks = _cross_count_chunks(beta, n, draws, lams_per_draw, seed)
    for *_, sweep, flags, sturm in chunks:
        mismatches += int(np.sum((sweep != sturm) & ~flags))
        flagged += int(np.sum(flags))
    return mismatches, flagged
