import functools
import math
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import norm, spearmanr

from betafluct.circular import _count_arcs_block, _stack_draws
from betafluct.cli import main
from betafluct.rng import BLOCK_SIZE, RngStream, replica_blocks
from betafluct.stats import (
    BOOTSTRAP_RESAMPLES,
    ScanRow,
    ScanSpec,
    bootstrap_variance_ci,
    cue_variance_oracle,
    default_grid,
    fit_log_bound,
    regularity_profile,
    resolve_workers,
    tail_check,
    variance_scan,
    wilson_upper,
    _BOOTSTRAP_ALPHA,
    _run_ordered,
    _sorted_quantile,
)

TWO_PI = 2.0 * math.pi


def _row(xi, variance):
    return ScanRow(
        interval=repr(xi / 64),
        xi=xi,
        m=100,
        mean=0.0,
        variance=variance,
        var_ci_lo=0.0,
        var_ci_hi=variance,
        ref_mean=0.0,
    )


# ---------------------------------------------------------------- oracle


def test_oracle_edges_vanish():
    for n in (1, 2, 16, 64, 1000):
        assert cue_variance_oracle(n, 0.0) == 0.0
        assert cue_variance_oracle(n, TWO_PI) == 0.0


def test_oracle_complement_symmetry():
    # N(complement) = n - N(arc), so an arc and its complement share a variance
    for n in (1, 2, 16, 64, 1000):
        for arc in np.linspace(0.0, TWO_PI, 37):
            assert cue_variance_oracle(n, arc) == pytest.approx(
                cue_variance_oracle(n, TWO_PI - arc), abs=1e-12
            )


def test_oracle_single_point_is_bernoulli():
    for arc in np.linspace(0.0, TWO_PI, 25):
        p = arc / TWO_PI
        assert cue_variance_oracle(1, arc) == pytest.approx(p * (1 - p), abs=1e-8)


def test_oracle_frozen_regression_value():
    assert cue_variance_oracle(64, TWO_PI * 8 / 64) == pytest.approx(
        0.5540551456882286, abs=1e-12
    )


def test_oracle_domain():
    with pytest.raises(ValueError):
        cue_variance_oracle(4, -0.1)
    with pytest.raises(ValueError):
        cue_variance_oracle(4, TWO_PI + 0.1)
    for n in (0, -5):
        with pytest.raises(ValueError):
            cue_variance_oracle(n, 1.0)


# ---------------------------------------------------------------- scans


def test_scan_zero_length_interval():
    rows = variance_scan(ScanSpec("cbe", 2.0, 16, (0.0,)), m=64, seed=63)
    row = rows[0]
    assert row.mean == 0.0 and row.variance == 0.0
    assert row.var_ci_lo == 0.0 and row.var_ci_hi == 0.0


def test_scan_full_circle_arc():
    n = 16
    rows = variance_scan(ScanSpec("cbe", 2.0, n, (TWO_PI * n - 1e-9,)), m=64, seed=64)
    assert rows[0].mean == n
    assert rows[0].variance == 0.0


def test_scan_moments_match_recomputed_counts():
    # row r holds replicas r*m .. r*m + m - 1, sampled in blocks of BLOCK_SIZE;
    # m is not a multiple of BLOCK_SIZE, so each row ends in a short block
    beta, n, m, seed, xis = 1.5, 24, BLOCK_SIZE + 700, 64, (3.0, 17.0)
    rows = variance_scan(ScanSpec("cbe", beta, n, xis), m=m, seed=seed)
    for r, (row, xi) in enumerate(zip(rows, xis)):
        counts = np.concatenate([
            _count_arcs_block(*_stack_draws(beta, n, seed, block), n, np.array([xi]))[:, 0]
            for block in replica_blocks(m, r * m)
        ])
        assert row.m == len(counts) == m
        assert row.mean == pytest.approx(np.mean(counts), rel=1e-12)
        assert row.variance == pytest.approx(np.var(counts, ddof=1), rel=1e-12)


def test_scan_cbe_variance_matches_oracle():
    xis = (TWO_PI, 8 * TWO_PI)
    rows = variance_scan(ScanSpec("cbe", 2.0, 64, xis), m=20000, seed=65)
    for row in rows:
        oracle = cue_variance_oracle(64, row.xi / 64)
        assert row.var_ci_lo <= oracle <= row.var_ci_hi
        assert abs(row.mean - row.ref_mean) < 0.02


def _form_factor(beta, n, k):
    """K_beta(n, k) = E|tr U^k|^2 of the n-point CbetaE at beta in {1, 2, 4}:
    the finite-n COE and CSE form factors (Haake, Quantum Signatures of
    Chaos; Mehta, Random Matrices), and min(k, n) at beta = 2."""
    k = np.asarray(k, dtype=float)
    if beta == 2.0:
        return np.minimum(k, n)
    m = np.arange(1, 2 * n + 1, dtype=float)
    if beta == 4.0:
        head = np.cumsum(1.0 / (n + 0.5 - m))[np.minimum(k, 2 * n).astype(int) - 1]
        return np.where(k <= 2 * n, 0.5 * k + 0.25 * k * head, n)
    low = np.cumsum(1.0 / (m[:n] + 0.5 * (n - 1)))[np.minimum(k, n).astype(int) - 1]
    high = np.sum(1.0 / (m[:n] + k[:, None] - 0.5 * (n + 1)), axis=1)
    return np.where(k <= n, 2.0 * k - k * low, 2.0 * n - k * high)


def _cbe_variance(beta, n, arc_length):
    """Var N(arc) = (2/pi^2) sum_k K_beta(n, k) sin^2(kL/2)/k^2, written as
    cue_variance_oracle's closed-form n-term plus the head sum of K - n, which
    is 0 from k = 2n on at beta = 4 and decays like n^3/k^2 at beta = 1."""
    x = 0.5 * min(arc_length, TWO_PI - arc_length)
    k = np.arange(1, 100 * n + 1, dtype=float)
    head = np.sum((_form_factor(beta, n, k) - n) * np.sin(k * x) ** 2 / k**2)
    return 2.0 / math.pi**2 * (head + 0.5 * n * x * (math.pi - x))


def test_exact_variance_at_beta2_is_the_cue_oracle():
    for arc_length in (0.1, 0.5, 2.0, 5.0):
        assert _cbe_variance(2.0, 64, arc_length) == pytest.approx(
            cue_variance_oracle(64, arc_length), abs=1e-13
        )


@pytest.mark.parametrize("beta, seed", [(1.0, 1301), (4.0, 1304)])
def test_cbe_count_variance_matches_exact_form_factors(beta, seed):
    # the whole sampler and Prufer count at beta = 1 and 4 against exact
    # finite-n variances: z = (var - exact)/SE per arc, SE^2 = (mu4 - var^2)/m.
    # Here the pooled z reads -0.84 and -0.39. A sampler run at 1.05 beta
    # reads -9.9 (beta = 1) and -7.2 (beta = 4); the coefficient-law KS
    # tests do not see that defect.
    n, m = 64, 100_000
    xs = np.geomspace(1.0, 32.0, 6)
    counts = np.concatenate(
        [_count_arcs_block(*_stack_draws(beta, n, seed, block), n, xs) for block in replica_blocks(m)]
    )
    centered = counts - counts.mean(axis=0)
    second, fourth = np.mean(centered**2, axis=0), np.mean(centered**4, axis=0)
    exact = np.array([_cbe_variance(beta, n, x / n) for x in xs])
    z = (second * m / (m - 1) - exact) / np.sqrt((fourth - second**2) / m)
    assert np.all(np.abs(z) <= 3.5), z
    assert abs(z.sum()) / math.sqrt(len(z)) <= 3.0, z


def test_scan_worker_invariance():
    spec = ScanSpec("gbe", 2.0, 32, (1.0, 8.0))
    baseline = variance_scan(spec, m=2000, seed=66, workers=1)
    for workers in (4, 16):
        assert variance_scan(spec, m=2000, seed=66, workers=workers) == baseline


def test_scan_runs_all_rows_in_one_pool(monkeypatch):
    import betafluct.stats as stats

    real = stats.ProcessPoolExecutor
    started = []

    def counting(*args, **kwargs):
        started.append(kwargs.get("max_workers"))
        return real(*args, **kwargs)

    monkeypatch.setattr(stats, "ProcessPoolExecutor", counting)
    spec = ScanSpec("cbe", 2.0, 16, (1.0, 4.0, 8.0))
    rows = variance_scan(spec, m=2500, seed=72, workers=2)
    # the calling process runs the first slice, so the pool holds one
    assert started == [1]
    monkeypatch.setattr(stats, "ProcessPoolExecutor", real)
    assert rows == variance_scan(spec, m=2500, seed=72, workers=1)


def _task_and_pid(task):
    return task, os.getpid()


def _fail_on(bad, task):
    if task == bad:
        raise ValueError(f"task {bad}")
    return task


@pytest.mark.parametrize("workers", [2, 3, 7, 10])
def test_run_ordered_runs_the_first_slice_in_the_caller(workers):
    tasks = list(range(7))
    results = _run_ordered(_task_and_pid, tasks, workers)
    assert [task for task, _ in results] == tasks
    first = len(tasks) // min(workers, len(tasks))
    in_caller = [pid == os.getpid() for _, pid in results]
    assert in_caller == [i < first for i in range(len(tasks))]


@pytest.mark.parametrize("bad", [1, 5])
def test_run_ordered_raises_a_task_error_and_leaves_no_child(bad):
    # slices [0, 1], [2, 3], [4, 5]: task 1 fails in the caller, task 5 in a child
    with pytest.raises(ValueError, match=f"task {bad}"):
        _run_ordered(functools.partial(_fail_on, bad), list(range(6)), 3)
    assert multiprocessing.active_children() == []


def test_cli_bytes_equal_at_one_and_two_workers(tmp_path):
    # several rows of several blocks each, so the one-pool task list spans
    # rows and the per-row merge has to restore the order
    cases = {
        "scan-cbe": ["scan-cbe", "--n", "32", "--samples", "5000", "--seed", "73",
                     "--grid", "geom:1:16:3"],
        "tail-check": ["tail-check", "--n", "30", "--samples", "5000", "--seed", "74"],
    }
    for name, args in cases.items():
        outputs = []
        for workers in ("1", "2"):
            out = str(tmp_path / f"{name}-w{workers}")
            assert main(args + ["--workers", workers, "--out", out]) == 0
            outputs.append(Path(out + ".csv").read_bytes())
        assert outputs[0] == outputs[1]


def test_scan_validation():
    with pytest.raises(ValueError):
        ScanSpec("bad", 2.0, 16, (1.0,))
    with pytest.raises(ValueError):
        ScanSpec("cbe", 2.0, 16, ())
    with pytest.raises(ValueError):
        ScanSpec("sine", 2.0, 16, (10.0,))  # violates n >= 10 x
    with pytest.raises(ValueError):
        variance_scan(ScanSpec("cbe", 2.0, 16, (1.0,)), m=1, seed=0)


def test_scan_monotone_growth_spearman():
    rows = variance_scan(ScanSpec("cbe", 2.0, 64, default_grid(64)), m=10**5, seed=67)
    xi = [row.xi for row in rows]
    var = [row.variance for row in rows]
    rho = spearmanr(xi, var).statistic
    assert rho > 0.9


# ---------------------------------------------------------------- fits


def test_fit_recovers_exact_slope():
    xis = np.geomspace(1.0, 1000.0, 10)
    rows = [_row(xi, 0.101 * math.log(2 + xi)) for xi in xis]
    fit = fit_log_bound(rows)
    assert fit.slope == pytest.approx(0.101, abs=1e-9)
    assert fit.max_ratio == pytest.approx(0.101, abs=1e-9)


def test_fit_constant_variance_gives_zero_slope():
    xis = np.geomspace(1.0, 500.0, 8)
    fit = fit_log_bound([_row(xi, 0.42) for xi in xis])
    assert fit.slope == pytest.approx(0.0, abs=1e-12)


def test_fit_degenerate_design_rejected():
    with pytest.raises(ValueError):
        fit_log_bound([_row(5.0, 0.1)] * 4)
    with pytest.raises(ValueError):
        fit_log_bound([_row(1.0, 0.1), _row(2.0, 0.2)])


# ---------------------------------------------------------------- bootstrap


def test_bootstrap_ci_contains_point_estimate():
    counts = np.array([40, 80, 60, 20])
    values = np.array([0.0, 1.0, 2.0, 3.0])
    lo, hi = bootstrap_variance_ci(values, counts, RngStream(68, 0))
    m = counts.sum()
    mean = np.dot(values, counts) / m
    point = np.dot(counts, (values - mean) ** 2) / (m - 1)
    assert lo <= point <= hi


def test_bootstrap_coverage_on_integer_gaussian_counts():
    # rounded N(50, 7^2) counts; the true variance of the rounded variable is
    # computed exactly from the normal CDF over the integer support
    grid = np.arange(0, 101)
    probs = norm.cdf((grid + 0.5 - 50.0) / 7.0) - norm.cdf((grid - 0.5 - 50.0) / 7.0)
    probs /= probs.sum()
    true_mean = float(np.dot(grid, probs))
    true_var = float(np.dot((grid - true_mean) ** 2, probs))
    trials, m = 500, 200
    covered = 0
    for t in range(trials):
        rng = RngStream(69, t)
        samples = np.round(rng.generator.normal(50.0, 7.0, size=m)).astype(int)
        values, counts = np.unique(samples, return_counts=True)
        lo, hi = bootstrap_variance_ci(values.astype(float), counts, rng)
        covered += int(lo <= true_var <= hi)
    assert covered >= 0.90 * trials


def test_bootstrap_quantiles_match_numpy():
    # the interval's ends, read off the sorted resamples, against np.quantile
    rng = RngStream(73, 0).generator
    for trial in range(3000):
        variances = rng.gamma(5.0, 0.2, size=BOOTSTRAP_RESAMPLES)
        if trial % 3 == 0:
            variances = np.round(variances, 1)  # ties
        ordered = np.sort(variances)
        for q in (_BOOTSTRAP_ALPHA, 1.0 - _BOOTSTRAP_ALPHA):
            assert _sorted_quantile(ordered, q) == np.quantile(variances, q)


def test_scan_leaves_numpy_ma_unimported():
    # in NumPy 2, np.quantile imports numpy.ma on its first call, ~9 ms
    script = (
        "import sys, numpy\n"
        "before = 'numpy.ma' in sys.modules\n"
        "from betafluct.stats import ScanSpec, variance_scan\n"
        "variance_scan(ScanSpec('cbe', 2.0, 8, (1.0, 2.0)), m=50, seed=1)\n"
        "print(before, 'numpy.ma' in sys.modules)\n"
    )
    paths = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True
    )
    before, after = proc.stdout.split()
    if before == "True":
        pytest.skip("import numpy alone loads numpy.ma")
    assert after == "False"


# ---------------------------------------------------------------- tail check


def test_tail_check_values_and_bounds():
    result = tail_check(
        2.0, 100, m=10**6, seed=70, b_grid=(0.0, 6.0, 12.0, 24.0, 30.0, 36.0, 48.0)
    )
    by_b = {row.b: row for row in result.rows}
    assert by_b[0.0].bound == pytest.approx(12.0)
    assert by_b[0.0].empirical == 1.0  # psi(theta, a) > a for theta > 0
    assert by_b[30.0].empirical <= 12.0 * math.exp(-2.5)
    for b in (12.0, 24.0, 30.0, 36.0, 48.0):
        assert by_b[b].empirical <= by_b[b].bound
    assert result.second_moment <= 3500.0
    assert result.second_moment > 0.0


def test_tail_check_theta_domain():
    with pytest.raises(ValueError):
        tail_check(2.0, 10, theta=0.2, m=100, seed=0)


@pytest.mark.parametrize("b", (math.nan, math.inf, -math.inf))
def test_tail_check_refuses_a_non_finite_threshold(b):
    # nan would give 0 hits, inf 0 hits and -inf every replica, each with a
    # bound of its own, as if they were checks
    with pytest.raises(ValueError, match=f"b must be finite, got {b}"):
        tail_check(2.0, 8, m=50, seed=0, b_grid=(6.0, b))


def test_tail_and_regularity_need_a_replica():
    with pytest.raises(ValueError):
        tail_check(2.0, 10, m=0, seed=0)
    with pytest.raises(ValueError, match="at least 1 draw"):
        regularity_profile(2.0, 10.0, m=0, seed=0)
    # a non-finite window is named, not passed on to math.ceil
    for x_max in (math.inf, math.nan):
        with pytest.raises(ValueError, match=f"x_max must be at least 1 and finite, got {x_max}"):
            regularity_profile(2.0, x_max, m=4, seed=1)


def test_tail_check_worker_invariance():
    base = tail_check(2.0, 20, m=5000, seed=71, workers=1)
    four = tail_check(2.0, 20, m=5000, seed=71, workers=4)
    assert base == four


def test_wilson_upper_monotone_sane():
    assert wilson_upper(0, 10**6) < 1e-5
    assert 0.0 < wilson_upper(5, 100) < 0.15
    assert wilson_upper(100, 100) == 1.0


# ---------------------------------------------------------------- misc


def test_resolve_workers(monkeypatch):
    assert resolve_workers(3) == 3
    assert resolve_workers(0) >= 1
    with pytest.raises(ValueError):
        resolve_workers(-1)
    # 0 counts only the CPUs this process may use, as under taskset -c 0
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert resolve_workers(0) == 1


def test_default_grid_shape():
    grid = default_grid(256)
    assert len(grid) == 12
    assert grid[0] == pytest.approx(1.0)
    assert grid[-1] == pytest.approx(128.0)
    assert default_grid(2) == (1.0,) * 12
    with pytest.raises(ValueError, match="n=1 "):
        default_grid(1)
    with pytest.raises(ValueError, match="n=12 "):
        default_grid(12, cap=12 / 16.0)
