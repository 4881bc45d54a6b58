"""Count statistics, exact beta=2 oracle, and variance scans."""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .circular import _count_arcs_block, _final_phases, _stack_draws, min_window_size
from .gaussian import _stack_models, _sturm_block, semicircle_count
from .rng import RngStream, TWO_PI, replica_blocks

# Stream-index namespace: replicas occupy [0, 2^32); per-row bootstrap
# streams live above that.
_BOOTSTRAP_STREAM_BASE = 1 << 32
BOOTSTRAP_RESAMPLES = 1000
# Quantile of each tail of the 95% bootstrap interval. Kept in this form:
# it is 0.025000000000000022, and a literal 0.025 moves var_ci_lo in its
# last bit.
_BOOTSTRAP_ALPHA = 0.5 * (1.0 - 0.95)
_WILSON_Z = 1.959963984540054  # 95%


def cue_variance_oracle(n: int, arc_length: float) -> float:
    """Exact variance of the point count of an n-point CUE (beta = 2) in an
    arc of length L, from the moment identity E|tr U^k|^2 = min(k, n):

        Var = sum_{k>=1} 2 * min(k, n) * sin^2(k L / 2) / (pi^2 k^2).

    The k >= n tail is summed in closed form via
    sum_{k>=1} sin^2(k x) / k^2 = x (pi - x) / 2 for x in [0, pi], so the
    value is exact up to rounding, tighter than any fixed truncation. It is
    evaluated at min(L, 2 pi - L): the complement arc holds n minus the count,
    so both have the same variance, and L = 2 pi gives exactly 0.
    """
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    if not 0.0 <= arc_length <= TWO_PI:
        raise ValueError(f"arc length must lie in [0, 2*pi], got {arc_length}")
    x = 0.5 * min(arc_length, TWO_PI - arc_length)
    full = 0.5 * x * (math.pi - x)
    k = np.arange(1, n, dtype=float)
    sin2 = np.sin(k * x) ** 2
    head = float(np.sum(sin2 / k)) - n * float(np.sum(sin2 / (k * k)))
    return 2.0 / math.pi**2 * (head + n * full)


@dataclass(frozen=True)
class ScanSpec:
    """Grid description for a variance scan.

    ensemble: 'cbe' (arc counts), 'gbe' (interval counts), or 'sine' (window
    counts on the rescaled circular model). xis is the grid of scale
    variables: rescaled arc length n*|I| for cbe, sqrt(n)*(lam2 - lam1) for
    gbe, window length for sine. gbe intervals are centered at `center`.
    """

    ensemble: str
    beta: float
    n: int
    xis: tuple
    center: float = 0.0

    def __post_init__(self):
        if self.ensemble not in ("cbe", "gbe", "sine"):
            raise ValueError(f"unknown ensemble {self.ensemble!r}")
        if not 0 < self.beta < math.inf:
            raise ValueError(f"beta must be positive and finite, got {self.beta}")
        if self.n < 1:
            raise ValueError(f"n must be at least 1, got {self.n}")
        if not math.isfinite(self.center):
            raise ValueError(f"center must be finite, got {self.center}")
        if len(self.xis) == 0:
            raise ValueError("empty scan grid")
        for xi in self.xis:
            if not 0 <= xi < math.inf:
                raise ValueError(f"scale values must be non-negative and finite, got {xi}")
            if self.ensemble in ("cbe", "sine") and xi >= TWO_PI * self.n:
                raise ValueError(f"arc {xi} reaches around the full circle for n={self.n}")
            if self.ensemble == "sine" and self.n < min_window_size(xi):
                raise ValueError(f"n={self.n} too small for sine window {xi}")


@dataclass(frozen=True)
class ScanRow:
    interval: str
    xi: float
    m: int
    mean: float
    variance: float
    var_ci_lo: float
    var_ci_hi: float
    ref_mean: float


@dataclass(frozen=True)
class BoundFit:
    slope: float
    max_ratio: float


@dataclass(frozen=True)
class TailRow:
    b: float
    hits: int
    empirical: float
    wilson_hi: float
    bound: float


@dataclass(frozen=True)
class TailCheckResult:
    rows: tuple
    second_moment: float


def default_grid(n: int, cap: float | None = None) -> tuple:
    """Geometric grid of 12 scale variables from 1 to n/2 (optionally capped).

    Raises ValueError when the top is below 1, where the grid would run
    downward."""
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    top = n / 2.0 if cap is None else min(n / 2.0, cap)
    if top < 1.0:
        raise ValueError(f"n={n} is too small for the default grid (top {top:g} < 1); pass --grid")
    return tuple(float(v) for v in np.geomspace(1.0, top, 12))


def resolve_workers(requested: int) -> int:
    """Count of processes that run tasks, the calling one included; 0 means
    one per CPU this process may use (its affinity mask, where the platform
    has one)."""
    if requested < 0:
        raise ValueError(f"workers must be non-negative, got {requested}")
    if requested == 0:
        if hasattr(os, "sched_getaffinity"):
            return len(os.sched_getaffinity(0))
        return os.cpu_count() or 1
    return requested


# ----------------------------------------------------------------------
# Block execution. Replicas are processed in the blocks of replica_blocks.
# Tasks must stay picklable (module-level worker, plain tuples, the block a
# range) so the process pool can run them; results are merged in task order,
# so outputs are byte-identical for any worker count.


def _run_slice(worker, tasks: list) -> list:
    """Results of one contiguous slice of a run's tasks, in task order."""
    return [worker(task) for task in tasks]


def _run_ordered(worker, tasks: list, workers: int) -> list:
    """[worker(task) for task in tasks], run by k = min(workers, len(tasks))
    processes. For k > 1 the tasks are cut into k contiguous slices of
    near-equal length; the calling process runs the first while a pool of
    k - 1 runs one slice each, one round trip per slice, and the result
    lists are joined in slice order."""
    k = min(resolve_workers(workers), len(tasks))
    if k <= 1:
        return [worker(task) for task in tasks]
    # NumPy 2 imports numpy.random lazily: loaded once here, before the
    # workers fork, rather than once in each worker. Not at module level,
    # where every run that starts no pool would pay for it at import.
    import numpy.random  # noqa: F401
    cuts = [len(tasks) * i // k for i in range(k + 1)]
    with ProcessPoolExecutor(max_workers=k - 1) as pool:
        futures = [
            pool.submit(_run_slice, worker, tasks[lo:hi]) for lo, hi in zip(cuts[1:-1], cuts[2:])
        ]
        results = _run_slice(worker, tasks[: cuts[1]])
        for future in futures:
            results += future.result()
    return results


def _scan_worker(task):
    """(offset, bincount) histogram of one scan row's counts for the replicas
    of a block, at the row's levels from _scan_row_params."""
    ensemble, beta, n, levels, seed, block = task
    if ensemble in ("cbe", "sine"):
        gamma, eta = _stack_draws(beta, n, seed, block)
        counts = _count_arcs_block(gamma, eta, n, np.array(levels))[:, 0]
    else:
        diag, offdiag = _stack_models(beta, n, seed, block)
        below = _sturm_block(diag, offdiag, np.array(levels))
        counts = below[:, 1] - below[:, 0]
    offset = int(counts.min())
    return offset, np.bincount(counts - offset)


def _merge_histograms(parts) -> tuple[np.ndarray, int]:
    """Combine (offset, bincount) pairs into one histogram over count values."""
    lo = min(offset for offset, _ in parts)
    hi = max(offset + len(hist) for offset, hist in parts)
    merged = np.zeros(hi - lo, dtype=np.int64)
    for offset, hist in parts:
        merged[offset - lo : offset - lo + len(hist)] += hist
    return merged, lo


def _histogram_moments(values: np.ndarray, weights: np.ndarray) -> tuple[int, float, float]:
    """(m, mean, sample variance) of integer data given as distinct values with
    multiplicities. The power sums are exact integers, so both moments are
    correctly rounded."""
    m = int(weights.sum())
    s1 = int(np.dot(values, weights))
    s2 = int(np.dot(values * values, weights))
    return m, s1 / m, (m * s2 - s1 * s1) / (m * (m - 1))


def bootstrap_variance_ci(
    values: np.ndarray, weights: np.ndarray, rng: RngStream
) -> tuple[float, float]:
    """95% percentile bootstrap CI, over BOOTSTRAP_RESAMPLES resamples, for
    the sample variance of weighted data.

    The empirical distribution is given as distinct values with integer
    multiplicities; each resample is a multinomial redraw of the
    multiplicities, which is the index bootstrap expressed on the histogram.
    """
    m = int(weights.sum())
    if m < 2:
        return 0.0, 0.0
    # Most frequent category last so the multinomial's implicit remainder
    # probability is the largest one, immune to rounding of the others.
    order = np.argsort(weights, kind="stable")
    values = np.asarray(values, dtype=float)[order]
    weights = np.asarray(weights)[order]
    probs = weights / m
    table = rng.generator.multinomial(m, probs, size=BOOTSTRAP_RESAMPLES).astype(float)
    center = float(np.dot(values, probs))
    centered = values - center
    mean_shift = table @ centered / m
    sq = table @ (centered * centered)
    variances = (sq - m * mean_shift**2) / (m - 1)
    variances.sort()
    lo = _sorted_quantile(variances, _BOOTSTRAP_ALPHA)
    hi = _sorted_quantile(variances, 1.0 - _BOOTSTRAP_ALPHA)
    return lo, hi


def _sorted_quantile(s: np.ndarray, q: float) -> float:
    """np.quantile(s, q) of a sorted array, bit for bit: NumPy's default
    linear rule and its _lerp, which interpolates from the nearer end. Read
    off here because in NumPy 2 np.quantile imports numpy.ma (through
    np.unique) on its first call, 9-17 ms in every scan process."""
    x = (len(s) - 1) * q
    i = math.floor(x)
    g = x - i
    a, b = float(s[i]), float(s[min(i + 1, len(s) - 1)])
    if g >= 0.5:
        return b - (b - a) * (1.0 - g)
    return a + (b - a) * g


def _scan_row_params(spec: ScanSpec, xi: float):
    """Count levels ((x,) for cbe and sine, (lam_lo, lam_hi) for gbe) and
    output fields (interval, xi, ref_mean) of the scan row at scale xi."""
    if spec.ensemble == "gbe":
        half = 0.5 * xi / math.sqrt(spec.n)
        lam_lo, lam_hi = spec.center - half, spec.center + half
        ref_mean = semicircle_count(spec.n, lam_lo, lam_hi)
        return (lam_lo, lam_hi), (f"{lam_lo!r}:{lam_hi!r}", min(xi, float(spec.n)), ref_mean)
    interval = repr(xi / spec.n) if spec.ensemble == "cbe" else repr(float(xi))
    return (xi,), (interval, float(xi), xi / TWO_PI)


def variance_scan(spec: ScanSpec, m: int, seed: int, workers: int = 1) -> list[ScanRow]:
    """Monte Carlo mean and variance of point counts over the scan grid.

    Each grid point draws its own m independent replicas, indexed row * m +
    replica. Replicas are drawn in blocks of BLOCK_SIZE, each from the one
    RngStream addressed by (seed, index of the block's first replica); see
    the block samplers for the draw order (stream contract v2; outputs
    recorded under v1, one stream per replica, no longer reproduce). All
    (row, block) tasks of the scan run in one call of the block runner and
    are merged per row in index order, so results are deterministic in
    (seed, grid, m) and identical for any worker count. A row's mean and
    variance come from its merged count histogram, which its bootstrap also
    resamples.
    """
    if m < 2:
        raise ValueError(f"need at least 2 replicas, got {m}")
    params = [_scan_row_params(spec, xi) for xi in spec.xis]
    tasks = [
        (spec.ensemble, spec.beta, spec.n, levels, seed, block)
        for row_idx, (levels, _) in enumerate(params)
        for block in replica_blocks(m, row_idx * m)
    ]
    results = _run_ordered(_scan_worker, tasks, workers)
    per_row = len(tasks) // len(params)
    rows = []
    for row_idx, (_, (interval, xi_out, ref_mean)) in enumerate(params):
        hist, lo = _merge_histograms(results[row_idx * per_row : (row_idx + 1) * per_row])
        support = np.nonzero(hist)[0]
        values, weights = support + lo, hist[support]
        row_m, mean, variance = _histogram_moments(values, weights)
        ci_lo, ci_hi = bootstrap_variance_ci(
            values, weights, RngStream(seed, _BOOTSTRAP_STREAM_BASE + row_idx)
        )
        rows.append(
            ScanRow(
                interval=interval,
                xi=xi_out,
                m=row_m,
                mean=mean,
                variance=variance,
                var_ci_lo=ci_lo,
                var_ci_hi=ci_hi,
                ref_mean=float(ref_mean),
            )
        )
    return rows


def fit_log_bound(rows) -> BoundFit:
    """Least-squares fit of row variances against log(2 + xi).

    Needs at least 3 rows spanning two decades of xi so the logarithmic
    shape is actually constrained.
    """
    xi = np.array([row.xi for row in rows], dtype=float)
    var = np.array([row.variance for row in rows], dtype=float)
    if len(xi) < 3:
        raise ValueError(f"need at least 3 rows to fit, got {len(xi)}")
    if xi.min() <= 0 or xi.max() / xi.min() < 100.0:
        raise ValueError("scan rows must span at least two decades of xi")
    logx = np.log(2.0 + xi)
    slope, _ = np.polyfit(logx, var, 1)
    return BoundFit(slope=float(slope), max_ratio=float(np.max(var / logx)))


def wilson_upper(hits: int, m: int) -> float:
    """Upper end of the 95% Wilson score interval for a binomial proportion."""
    z = _WILSON_Z
    if m == 0:
        return 1.0
    p = hits / m
    denom = 1.0 + z * z / m
    center = p + z * z / (2 * m)
    spread = z * math.sqrt(p * (1.0 - p) / m + z * z / (4.0 * m * m))
    return min(1.0, (center + spread) / denom)


def _tail_worker(task):
    beta, n, theta, a, b_grid, seed, block = task
    gamma, _ = _stack_draws(beta, n, seed, block)
    psi = _final_phases(gamma, np.array([theta]), a)[:, 0]
    excess = psi - a
    hits = np.array([int(np.sum(excess >= b)) for b in b_grid], dtype=np.int64)
    return hits, float(np.sum(excess * excess))


def tail_check(
    beta: float,
    n: int,
    m: int,
    seed: int,
    theta: float | None = None,
    a: float = 0.0,
    b_grid=(6.0, 12.0, 24.0, 36.0),
    workers: int = 1,
) -> TailCheckResult:
    """Empirical exceedance probabilities of the phase against the universal
    exponential bound 12 * exp(-b/12), valid for theta <= 1/n.

    Also reports the empirical second moment of (psi - a), which the same
    argument bounds by 3500. The phase is taken at the full depth n-1.
    """
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    if theta is None:
        theta = 1.0 / n
    if not 0.0 <= theta <= 1.0 / n:
        raise ValueError(f"theta must lie in [0, 1/n]={1.0 / n}, got {theta}")
    if not math.isfinite(a):
        raise ValueError(f"a must be finite, got {a}")
    if m < 1:
        raise ValueError(f"need at least 1 replica, got {m}")
    b_grid = tuple(float(b) for b in b_grid)
    for b in b_grid:
        if not math.isfinite(b):
            raise ValueError(f"b must be finite, got {b}")
    tasks = [(beta, n, theta, a, b_grid, seed, block) for block in replica_blocks(m)]
    results = _run_ordered(_tail_worker, tasks, workers)
    hits = np.zeros(len(b_grid), dtype=np.int64)
    sumsq = 0.0
    for blk_hits, blk_sumsq in results:
        hits += blk_hits
        sumsq += blk_sumsq
    rows = tuple(
        TailRow(
            b=b,
            hits=int(h),
            empirical=float(h / m),
            wilson_hi=wilson_upper(int(h), m),
            bound=12.0 * math.exp(-b / 12.0),
        )
        for b, h in zip(b_grid, hits)
    )
    return TailCheckResult(rows=rows, second_moment=sumsq / m)


def _regularity_worker(task):
    beta, n, alpha, grid, seed, block = task
    gamma, eta = _stack_draws(beta, n, seed, block)
    xs = np.asarray(grid)
    counts = _count_arcs_block(gamma, eta, n, xs)
    deviation = np.abs(counts - xs / TWO_PI) / (1.0 + xs) ** alpha
    return deviation.max(axis=1)


def regularity_profile(
    beta: float,
    x_max: float,
    m: int,
    seed: int,
    alpha: float = 0.4,
    workers: int = 1,
) -> np.ndarray:
    """Per-draw sup over a log grid in [1, x_max], 8 points per decade, of
    the normalized count deviation |N(0, x] - x/(2 pi)| / (1 + x)^alpha.

    The distribution of this statistic is expected to be stochastically
    stable as the window grows; the draws have the minimal window size
    n = min_window_size(x_max).
    """
    if not 1.0 <= x_max < math.inf:
        raise ValueError(f"x_max must be at least 1 and finite, got {x_max}")
    if m < 1:
        raise ValueError(f"need at least 1 draw, got {m}")
    n = min_window_size(x_max)
    npts = max(2, int(math.ceil(math.log10(x_max) * 8)) + 1)
    grid = tuple(float(v) for v in np.geomspace(1.0, x_max, npts))
    tasks = [(beta, n, alpha, grid, seed, block) for block in replica_blocks(m)]
    results = _run_ordered(_regularity_worker, tasks, workers)
    return np.concatenate(results)
