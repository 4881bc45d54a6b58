"""Gaussian beta ensemble: tridiagonal models, Sturm counts, phase sweeps."""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .circlemap import _lift_affine
from .rng import BLOCK_SIZE, RngStream, block_start, chi_sample, gaussian_sample, TWO_PI

# Relative winding distance to an integer below which a sweep count is
# reported as ill-conditioned instead of silently rounded.
NEAR_DEGENERATE_TOL = 1e-8


@dataclass(frozen=True)
class TridiagonalModel:
    """Symmetric tridiagonal matrix whose spectrum is a Gaussian beta ensemble.

    diag entries are N(0, 2/beta); offdiag entry p (1-based) is
    chi_{beta*(n-p)} / sqrt(beta), all independent. The off-diagonal must
    be positive: the phase sweep conjugates it away (see _conjugate_block).
    """

    beta: float
    n: int
    diag: np.ndarray
    offdiag: np.ndarray

    def __post_init__(self):
        if self.beta <= 0:
            raise ValueError(f"beta must be positive, got {self.beta}")
        if self.n < 1:
            raise ValueError(f"n must be at least 1, got {self.n}")
        if len(self.diag) != self.n or len(self.offdiag) != self.n - 1:
            raise ValueError("inconsistent band lengths")
        if np.any(self.offdiag <= 0):
            raise ValueError("off-diagonal entries must be positive")


@dataclass(frozen=True)
class PhaseSweep:
    """Forward/backward phase pair at a split index; count is the winding."""

    phi_fwd: float
    phi_bwd: float
    count: int
    flagged: bool


@dataclass(frozen=True)
class CarouselParams:
    """Deterministic rotation data removed from raw phases around level mu.

    n0 = (n - mu^2/4 - 1/2) clamped below by 1; rho_l are unit-modulus
    rotation factors for 0 <= l < n0; eta_l are the cumulative products
    rho_0^2 ... rho_l^2; ell is the largest integer strictly below
    n0 - mu^(2/3), clamped at 0.
    """

    n0: float
    rho: np.ndarray = field(repr=False)
    ell: int
    eta: np.ndarray = field(repr=False)


def _sample_tridiagonal_block(beta: float, n: int, count: int, rng: RngStream):
    """Sample `count` independent tridiagonal models of size n from one stream.

    The draw order is part of the reproducibility contract: the diagonals
    (count, n) as N(0, 2/beta), then the off-diagonals (count, n-1) as
    chi_{beta*(n-p)} / sqrt(beta). Returns (diag (count, n), offdiag
    (count, n-1)).
    """
    if beta <= 0:
        raise ValueError(f"beta must be positive, got {beta}")
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
    return TridiagonalModel(beta=beta, n=n, diag=diag[0], offdiag=offdiag[0])


def _stack_models(beta: float, n: int, master_seed: int, indices: np.ndarray):
    """Sample the block of replicas `indices` (a contiguous range) from the
    one stream addressed by its first index: (diag (C, n), offdiag (C, n-1))."""
    rng = RngStream(master_seed, block_start(indices))
    return _sample_tridiagonal_block(beta, n, len(indices), rng)


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
    by all draws or (C, K) one row per draw -> (C, K)."""
    n = diag.shape[1]
    tiny = np.finfo(float).eps * (1.0 + np.abs(lams))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        d = diag[:, 0:1] - lams
        d = np.where(d == 0.0, -tiny, d)
        neg = (d < 0).astype(np.int64)
        for p in range(1, n):
            d = (diag[:, p : p + 1] - lams) - offdiag[:, p - 1 : p] ** 2 / d
            d = np.where(d == 0.0, -tiny, d)
            neg += d < 0
    return neg


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
    shape = (diag.shape[0], lams.shape[-1])
    fwd = np.full(shape, math.pi)
    for l in range(ell):
        fwd = _lift_affine(fwd + math.pi, a[:, l : l + 1], (lams - diag[:, l : l + 1]) / s[l])
    bwd = np.zeros(shape)
    for l in range(diag.shape[1] - 1, ell - 1, -1):
        al = a[:, l : l + 1]
        bwd = _lift_affine(bwd, 1.0 / al, al * (diag[:, l : l + 1] - lams) / s[l]) - math.pi
    return fwd, bwd


def _winding_counts(fwd, bwd):
    """Count floor((fwd - bwd) / 2pi) and whether that winding lies within
    NEAR_DEGENERATE_TOL of an integer (an ill-conditioned count)."""
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
    fwd, bwd = _sweep_phases(model.diag[None, :], model.offdiag[None, :], [lam], ell)
    count, flagged = _winding_counts(fwd, bwd)
    return PhaseSweep(
        phi_fwd=float(fwd[0, 0]),
        phi_bwd=float(bwd[0, 0]),
        count=int(count[0, 0]),
        flagged=bool(flagged[0, 0]),
    )


def _sweep_counts_block(diag, offdiag, lams, ell):
    """Sweep counts and flags for stacked tridiagonal draws: (C, K) each.

    lams is (K,) shared by all draws or (C, K), one row per draw.
    """
    return _winding_counts(*_sweep_phases(diag, offdiag, lams, ell))


def _strict_int_part(x: float) -> int:
    """Largest integer strictly smaller than x."""
    f = math.floor(x)
    return f - 1 if f == x else f


def carousel_params(mu: float, n: int) -> CarouselParams:
    """Rotation-removal parameters at level mu for a size-n ensemble."""
    if mu < 0:
        raise ValueError(f"mu must be non-negative, got {mu}")
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    q = mu * mu / 4.0
    n0 = max(n - q - 0.5, 1.0)
    levels = np.arange(math.ceil(n0), dtype=float)
    denom = q + n0 - levels
    rho = np.sqrt(q / denom) + 1j * np.sqrt((n0 - levels) / denom)
    ell = max(_strict_int_part(n0 - mu ** (2.0 / 3.0)), 0)
    return CarouselParams(n0=n0, rho=rho, ell=ell, eta=np.cumprod(rho * rho))


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


def relative_phase(model: TridiagonalModel, lam: float, mu: float, ell: int) -> float:
    """Forward phase with the deterministic fast rotation removed.

    Applies the affine straightening tied to rho_ell, then subtracts the
    accumulated rotation angles 2*(pi - Arg(rho_j)) for j < ell.
    """
    params = carousel_params(mu, model.n)
    if not 0 <= ell < params.n0:
        raise ValueError(f"ell must lie in [0, n0={params.n0}), got {ell}")
    fwd, _ = _sweep_phases(model.diag[None, :], model.offdiag[None, :], [lam], ell)
    rho = params.rho[ell]
    straightened = float(_lift_affine(fwd[0, 0], 1.0 / rho.imag, -rho.real))
    correction = 2.0 * float(np.sum(math.pi - np.angle(params.rho[:ell])))
    return straightened - correction


@dataclass(frozen=True)
class CrossCountReport:
    """Outcome of comparing phase-sweep counts against Sturm counts."""

    draws: int
    evaluations: int
    mismatches: int
    flagged: int

    @property
    def flagged_fraction(self) -> float:
        return self.flagged / self.evaluations if self.evaluations else 0.0


def _cross_count_chunks(beta: float, n: int, draws: int, lams_per_draw: int, seed: int, ell: int):
    """Both eigenvalue counters on random draws, BLOCK_SIZE draws at a time.

    Draw d and its lams_per_draw uniform spectral points covering the
    spectrum come from RngStream(seed, d). Yields, per chunk, the stacked
    (diag, offdiag, lams) with one row per draw, the sweep counts and flags,
    and the Sturm counts, each (C, lams_per_draw).
    """
    half_width = 2.0 * math.sqrt(n) + 2.0
    for start in range(0, draws, BLOCK_SIZE):
        size = min(BLOCK_SIZE, draws - start)
        diag, offdiag = np.empty((size, n)), np.empty((size, n - 1))
        lams = np.empty((size, lams_per_draw))
        for row in range(size):
            rng = RngStream(seed, start + row)
            model = sample_tridiagonal(beta, n, rng)
            diag[row], offdiag[row] = model.diag, model.offdiag
            lams[row] = rng.generator.uniform(-half_width, half_width, lams_per_draw)
        sweep, flags = _sweep_counts_block(diag, offdiag, lams, ell)
        yield diag, offdiag, lams, sweep, flags, _sturm_block(diag, offdiag, lams)


def verify_counts(
    beta: float,
    n: int,
    draws: int,
    lams_per_draw: int,
    seed: int,
) -> CrossCountReport:
    """Cross-check the two eigenvalue counters on random spectral parameters.

    For each sampled model, lams_per_draw uniform points covering the
    spectrum are counted by phase sweep and by Sturm pivots; counts must
    agree exactly except at flagged near-degenerate points. The sweep splits
    at ell = n // 2.
    """
    if draws < 1 or lams_per_draw < 1:
        raise ValueError("draws and lams_per_draw must be positive")
    mismatches = 0
    flagged = 0
    chunks = _cross_count_chunks(beta, n, draws, lams_per_draw, seed, n // 2)
    for *_, sweep, flags, sturm in chunks:
        mismatches += int(np.sum((sweep != sturm) & ~flags))
        flagged += int(np.sum(flags))
    return CrossCountReport(
        draws=draws,
        evaluations=draws * lams_per_draw,
        mismatches=mismatches,
        flagged=flagged,
    )


def straightening_map(model: TridiagonalModel, lam: float, mu: float, ell: int) -> Callable:
    """Slow-variation transfer map between consecutive straightened phases.

    The lift of one affine map r -> scale*r + offset, composed of: the inverse
    straightening r -> rho_ell.imag*r + rho_ell.real, the shift
    r -> r + (lam - mu)/s_ell, the random factor r -> a*(r - X_ell/s_ell)
    with a = s_ell/(s_ell + Y_ell), and the straightening
    r -> (r - rho_{ell+1}.real)/rho_{ell+1}.imag.
    """
    params = carousel_params(mu, model.n)
    if not 0 <= ell < params.n0 - 1:
        raise ValueError(f"ell must lie in [0, n0-1={params.n0 - 1}), got {ell}")
    rho, rho_next = params.rho[ell], params.rho[ell + 1]
    s, y = _conjugate_block(model.offdiag[None, :])
    a = s[ell] / (s[ell] + y[0, ell])
    shift = rho.real + (lam - mu - model.diag[ell]) / s[ell]
    scale = a * rho.imag / rho_next.imag
    offset = (a * shift - rho_next.real) / rho_next.imag
    return lambda x: _lift_affine(x, scale, offset / scale)
