"""Gaussian beta ensemble: tridiagonal models, Sturm counts, phase sweeps."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .rng import RngStream, StepTally, chi_sample, gaussian_sample, replica_blocks, TWO_PI

# Relative winding distance to an integer below which a sweep count is
# reported as ill-conditioned instead of silently rounded.
NEAR_DEGENERATE_TOL = 1e-8
# Draws per chunk of a block sample: each chunk is drawn into one reused
# (DRAW_CHUNK, n) buffer, 512 KB at n = 512, which stays in cache while it is
# copied, transposed, into the step-major block.
DRAW_CHUNK = 128


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
        _check_entries(self.diag, self.offdiag)


def _check_entries(diag: np.ndarray, offdiag: np.ndarray) -> None:
    """Reject a model, or stacked draws, with a non-finite entry or an
    off-diagonal entry that is not positive."""
    if not np.isfinite(diag).all():
        raise ValueError("diag entries must be finite")
    if not np.isfinite(offdiag).all():
        raise ValueError("offdiag entries must be finite")
    if (offdiag <= 0).any():
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


def _draw_step_major(draw, count: int, width: int) -> np.ndarray:
    """A (count, width) array stored step-major, as the .T view of a C-ordered
    (width, count) one, holding the values that one draw(out) call would put
    into a C-ordered (count, width) array `out`.

    draw is called on consecutive chunks of DRAW_CHUNK rows of a reused
    buffer, so it must fill its argument in order, as NumPy's `out=`
    samplers do.
    """
    block = np.empty((width, count)).T
    chunk = np.empty((min(DRAW_CHUNK, count), width))
    for lo in range(0, count, DRAW_CHUNK):
        rows = chunk[: min(DRAW_CHUNK, count - lo)]
        draw(rows)
        block[lo : lo + len(rows)] = rows
    return block


def _sample_tridiagonal_block(beta: float, n: int, count: int, rng: RngStream):
    """Sample `count` independent tridiagonal models of size n from one stream.

    The draw order is part of the reproducibility contract: the diagonals
    (count, n) as N(0, 2/beta), then the off-diagonals (count, n-1) as
    chi_{beta*(n-p)} / sqrt(beta), each in row-major order. Returns (diag
    (count, n), offdiag (count, n-1)), both stored step-major (see
    _draw_step_major), so that a recursion across the draws reads one
    contiguous row per step.
    """
    if not 0 < beta < math.inf:
        raise ValueError(f"beta must be positive and finite, got {beta}")
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    sd, scale = math.sqrt(2.0 / beta), math.sqrt(beta)
    dof = beta * (n - np.arange(1, n, dtype=float))

    def chi(out):
        chi_sample(dof, rng, out)
        out /= scale

    diag = _draw_step_major(lambda out: gaussian_sample(sd, rng, out), count, n)
    return diag, _draw_step_major(chi, count, n - 1)


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
    """Pinned subdiagonal s (n,) and transfer gains a (C, n), stored
    step-major, of stacked draws.

    A diagonal similarity of the (positive off-diagonal) model keeps the
    diagonal X and gives subdiagonal entries s_1..s_{n-1}, with
    s_p = sqrt(n - p - 1/2), and superdiagonal entries offdiag_p^2 / s_p.
    Opposite off-diagonal products are preserved exactly, so the spectrum is
    unchanged. The gain of transfer map l is the ratio of the two bands,
    a_l = s_l * s_{l+1} / offdiag_{l+1}^2, formed directly so that an
    off-diagonal far below sqrt(s_l) does not cancel to a zero band;
    a_{n-1} = 1 pads the final map.
    """
    n = offdiag.shape[1] + 1
    s = np.sqrt(n - np.arange(n, dtype=float) - 0.5)
    a = np.ones((n, offdiag.shape[0]))  # step-major, like the sampled blocks
    np.divide((s[:-1] * s[1:])[:, None], np.square(offdiag.T), out=a[: n - 1])
    return s, a.T


def _level_rows(lams) -> np.ndarray:
    """Levels (K,) shared by all draws or (C, K), one row per draw, as the
    contiguous rows (K, 1) or (K, C) that broadcast against a kernel's
    (K, C) state; step-major (C, K) levels are such rows without a copy."""
    lam = np.ascontiguousarray(np.atleast_1d(np.asarray(lams, dtype=float)).T)
    return lam[:, None] if lam.ndim == 1 else lam


def sturm_count(model: TridiagonalModel, lam) -> int | np.ndarray:
    """Number of eigenvalues <= lam, by counting negative pivots of T - lam*I.

    A zero pivot is replaced by -eps*(1 + |lam|) and counted as negative,
    matching half-open interval semantics (boundary eigenvalues count).
    lam = -inf and +inf give 0 and n; a nan level is rejected.
    """
    scalar = np.isscalar(lam)
    lam_arr = np.atleast_1d(np.asarray(lam, dtype=float))
    if np.isnan(lam_arr).any():
        raise ValueError(f"lam must not be nan, got {lam}")
    counts = _sturm_block(model.diag[None, :], model.offdiag[None, :], lam_arr)[0]
    return int(counts[0]) if scalar else counts


def _sturm_block(diag: np.ndarray, offdiag: np.ndarray, lams: np.ndarray) -> np.ndarray:
    """Vectorized pivot counts: diag (C, n), offdiag (C, n-1), lams (K,) shared
    by all draws or (C, K) one row per draw -> (C, K).

    Pivot p is d_p = (diag_p - lam) - offdiag_p^2 / d_{p-1}, in that order,
    from d_{-1} = +inf and offdiag_0 = 0. Step p reads the contiguous rows
    diag.T[p] and offdiag.T[p-1] of _sample_tridiagonal_block's step-major
    blocks (any layout gives the same counts) and updates the (K, C) pivots
    in place. A step adds at most one to a count: a StepTally counts them.
    """
    lam = _level_rows(lams)
    shape = (lam.shape[0], diag.shape[0])
    neg_tiny = -(np.finfo(float).eps * (1.0 + np.abs(lam)))
    d, t = np.full(shape, np.inf), np.empty(shape)
    neg = StepTally(shape)
    square = np.empty(diag.shape[0])
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for row, off in zip(diag.T, [np.zeros_like(square), *offdiag.T]):
            np.subtract(row, lam, out=t)
            np.square(off, out=square)
            np.divide(square, d, out=d)
            np.subtract(t, d, out=d)
            if not d.all():
                np.copyto(d, neg_tiny, where=d == 0.0)
            np.less(d, 0.0, out=neg.hits)
            neg.add()
    return neg.done().T


def _lift_affine(sheets, r) -> np.ndarray:
    """Read off the phase 2*pi*sheets + 2*arctan(r) of a sheet count and a
    chart value r = tan(x/2)."""
    return 2.0 * np.arctan(r) + TWO_PI * sheets


def _sweep_phases(diag, offdiag, lams, ell: int):
    """Forward and backward phases at split ell for stacked draws: (C, K) each.

    diag (C, n), offdiag (C, n-1); lams is (K,) shared by all draws or
    (C, K), one row per draw. With X = diag and s, a from _conjugate_block,
    transfer map l is a half turn followed by the lift of
    r -> a_l*(r + b_l), b_l = (lam - X_l)/s_l, where r = tan(x/2) is the
    projective chart of the phase x. The sweep runs in that chart: a phase
    is a sheet count k and a chart value r, x = 2*pi*k + 2*arctan(r). A lift
    keeps the sheet, so only the half turn moves it, by one exactly when
    r >= 0, and it sends r to -1/r.

    Forward, from (1, -inf) (phase pi) through maps 0..ell-1: k += (r >= 0),
    then r <- a_l*(b_l - 1/r). Backward, from (0, 0) through maps n-1..ell:
    r <- r/a_l - b_l, k -= (r < 0), r <- -1/r, carried out on
    u = a_l*(r/a_l - b_l) = r - a_l*b_l, which has the same sign, as
    r <- -a_l/u. r += 0.0 turns a -0.0 into +0.0 before the sign test, so
    that -1/r sends it to -inf like the zero it is. Each side ends with one
    read-off of its phase, _lift_affine(k, r) = 2*pi*k + 2*arctan(r).
    The state is (K, C), updated in place. X is read as the (n, C) array
    behind a step-major diag (a copy for any other layout), the levels as
    _level_rows' rows, and -a and a/s are formed once from
    _conjugate_block's step-major a, so that each step reads contiguous
    (C,) rows. A step moves a sheet count by at most one; each side counts
    its sheet moves by a StepTally.
    """
    n = diag.shape[1]
    s, a = _conjugate_block(offdiag)
    x, gain = np.ascontiguousarray(diag.T), np.ascontiguousarray(a.T)
    neg_a = -gain
    gain /= s[:, None]
    lam = _level_rows(lams)
    shape = (lam.shape[0], diag.shape[0])
    ab = np.empty(shape)  # a_l * b_l
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        up, r = StepTally(shape), np.full(shape, -np.inf)
        for l in range(ell):
            r += 0.0
            np.greater_equal(r, 0.0, out=up.hits)
            up.add()
            np.divide(neg_a[l], r, out=r)
            np.subtract(lam, x[l], out=ab)
            ab *= gain[l]
            r += ab
        fwd = _lift_affine(1 + up.done(), r)
        down, r = StepTally(shape), np.zeros(shape)
        for l in range(n - 1, ell - 1, -1):
            np.subtract(lam, x[l], out=ab)
            ab *= gain[l]
            r -= ab
            r += 0.0
            np.less(r, 0.0, out=down.hits)
            down.add()
            np.divide(neg_a[l], r, out=r)
        bwd = _lift_affine(-down.done(), r)
    return fwd.T, bwd.T


def _sweep_counts_block(diag, offdiag, lams, ell):
    """Sweep counts and flags for stacked tridiagonal draws: (C, K) each.

    lams is (K,) shared by all draws or (C, K), one row per draw. The count
    is floor((fwd - bwd) / 2pi); it is flagged when that winding lies within
    NEAR_DEGENERATE_TOL of an integer (an ill-conditioned count), or is not
    finite (a non-finite entry upstream), in which case the count is 0.
    """
    fwd, bwd = _sweep_phases(diag, offdiag, lams, ell)
    winding = (fwd - bwd) / TWO_PI
    finite = np.isfinite(winding)
    winding = np.where(finite, winding, 0.0)
    flags = ~finite | (np.abs(winding - np.round(winding)) < NEAR_DEGENERATE_TOL)
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

    A block is drawn as a scan draws it, from RngStream(seed, block.start):
    its models, checked as TridiagonalModel checks one, then its
    (C, lams_per_draw) uniform spectral points covering the spectrum, one row
    per draw. Yields, per block, (diag, offdiag, lams), the sweep counts and
    flags (split at ell = n // 2), and the Sturm counts, each
    (C, lams_per_draw).
    """
    half_width = 2.0 * math.sqrt(n) + 2.0
    for block in replica_blocks(draws):
        rng = RngStream(seed, block.start)
        diag, offdiag = _sample_tridiagonal_block(beta, n, len(block), rng)
        _check_entries(diag, offdiag)
        lams = rng.generator.uniform(-half_width, half_width, (len(block), lams_per_draw))
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
