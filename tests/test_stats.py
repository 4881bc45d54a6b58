import math
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import norm, spearmanr

from betafluct.circular import _count_arcs_block, _stack_draws
from betafluct.cli import main
from betafluct.rng import BLOCK_SIZE, RngStream, replica_blocks
from betafluct.stats import (
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
    assert started == [2]
    monkeypatch.setattr(stats, "ProcessPoolExecutor", real)
    assert rows == variance_scan(spec, m=2500, seed=72, workers=1)


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


def test_tail_and_regularity_need_a_replica():
    with pytest.raises(ValueError):
        tail_check(2.0, 10, m=0, seed=0)
    with pytest.raises(ValueError, match="at least 1 draw"):
        regularity_profile(2.0, 10.0, m=0, seed=0)


def test_tail_check_worker_invariance():
    base = tail_check(2.0, 20, m=5000, seed=71, workers=1)
    four = tail_check(2.0, 20, m=5000, seed=71, workers=4)
    assert base == four


def test_wilson_upper_monotone_sane():
    assert wilson_upper(0, 10**6) < 1e-5
    assert 0.0 < wilson_upper(5, 100) < 0.15
    assert wilson_upper(100, 100) == 1.0


# ---------------------------------------------------------------- misc


def test_resolve_workers():
    assert resolve_workers(3) == 3
    assert resolve_workers(0) >= 1
    with pytest.raises(ValueError):
        resolve_workers(-1)


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
