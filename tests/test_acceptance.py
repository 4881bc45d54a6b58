"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete. Statistical criteria use fixed seeds so the whole
suite is deterministic.
"""

import dataclasses
import math
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import eigvalsh_tridiagonal

from betafluct.cli import main
from betafluct.gaussian import (
    semicircle_residual,
    _cross_count_chunks,
)
from betafluct.stats import (
    ScanSpec,
    cue_variance_oracle,
    default_grid,
    fit_log_bound,
    regularity_profile,
    tail_check,
    variance_scan,
)

TWO_PI = 2.0 * math.pi
INV_PI2 = 1.0 / math.pi**2
_Z95 = 1.959963984540054  # two-sided 95% normal quantile


def _report(criterion: str, ok: bool, detail: str, elapsed: float) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {criterion}: {status} ({elapsed:.1f}s) {detail}")


@pytest.fixture(scope="module")
def beta2_log_scans():
    """Criterion-3 beta=2 scans, shared with criterion 7."""
    scans = {}
    for n in (256, 1024):
        rows = variance_scan(ScanSpec("cbe", 2.0, n, default_grid(n)), m=10_000, seed=1)
        scans[n] = rows
    return scans


def test_criterion_1_cross_oracle_counts():
    """Sweep, Sturm and dense counts agree at every unflagged level.

    The phase sweep and the Sturm pivots are one transfer recursion read in
    two charts: the forward chart value after map l is -(a_l / s_l) times
    Sturm's pivot d_l. Their agreement checks the arithmetic of each chart,
    not the model; the independent leg is the dense eigvalsh_tridiagonal
    spectrum.
    """
    t0 = time.monotonic()
    mismatches = 0
    flagged = 0
    evaluations = 0
    for beta in (0.5, 1.0, 2.0, 4.0):
        for n in (8, 32, 64, 200):
            # the chunks verify_counts checks, plus the dense-eigenvalue oracle
            chunks = _cross_count_chunks(beta, n, draws=100, lams_per_draw=50, seed=101)
            for diag, offdiag, lams, sweep, flags, sturm in chunks:
                for d in range(len(diag)):
                    eigs = eigvalsh_tridiagonal(diag[d], offdiag[d]) if n > 1 else diag[d]
                    dense = np.searchsorted(np.sort(eigs), lams[d], side="right")
                    good = ~flags[d]
                    mismatches += int(np.sum((sweep[d] != dense) & good))
                    mismatches += int(np.sum((sturm[d] != dense) & good))
                flagged += int(np.sum(flags))
                evaluations += flags.size
    elapsed = time.monotonic() - t0
    ok = mismatches == 0 and flagged < 1e-3 * evaluations and elapsed < 120.0
    _report(
        "1 (cross-oracle counts)",
        ok,
        f"mismatches={mismatches}, flagged={flagged}/{evaluations}",
        elapsed,
    )
    assert mismatches == 0
    assert flagged < 1e-3 * evaluations
    assert elapsed < 120.0


def test_criterion_2_beta2_exactness_anchor():
    t0 = time.monotonic()
    xis = (TWO_PI, 4 * TWO_PI, 16 * TWO_PI)  # mean counts 1, 4, 16
    rows = variance_scan(ScanSpec("cbe", 2.0, 64, xis), m=100_000, seed=1)
    ok = True
    details = []
    for row in rows:
        oracle = cue_variance_oracle(64, row.xi / 64)
        half_width = 0.5 * (row.var_ci_hi - row.var_ci_lo)
        in_ci = row.var_ci_lo <= oracle <= row.var_ci_hi
        near = abs(row.variance - oracle) <= half_width
        ok &= in_ci and near
        details.append(f"xi={row.xi:.1f}: var={row.variance:.5f} oracle={oracle:.5f}")
    elapsed = time.monotonic() - t0
    ok &= elapsed < 300.0
    _report("2 (beta=2 exactness anchor)", ok, "; ".join(details), elapsed)
    assert ok


def test_criterion_3_logarithmic_bound(beta2_log_scans):
    t0 = time.monotonic()
    ratios = {}
    for beta in (1.0, 2.0, 4.0):
        for n in (256, 1024):
            if beta == 2.0:
                rows = beta2_log_scans[n]
            else:
                rows = variance_scan(ScanSpec("cbe", beta, n, default_grid(n)), m=10_000, seed=1)
            ratios[(beta, n)] = fit_log_bound(rows).max_ratio
    drift_ok = True
    details = []
    for beta in (1.0, 2.0, 4.0):
        lo, hi = sorted((ratios[(beta, 256)], ratios[(beta, 1024)]))
        drift = hi / lo - 1.0
        drift_ok &= drift < 0.5
        details.append(f"beta={beta}: maxratio {lo:.4f}/{hi:.4f} drift {100 * drift:.1f}%")
    slope = fit_log_bound(beta2_log_scans[1024]).slope
    headroom = 0.2 * INV_PI2 - abs(slope - INV_PI2)
    slope_ok = abs(slope - INV_PI2) <= 0.2 * INV_PI2
    details.append(
        f"beta=2 slope={slope:.6f} (target {INV_PI2:.5f} +-20%, headroom {headroom:.6f})"
    )
    elapsed = time.monotonic() - t0
    ok = drift_ok and slope_ok and elapsed < 1800.0
    _report("3 (logarithmic bound)", ok, "; ".join(details), elapsed)
    assert drift_ok
    assert slope_ok
    assert elapsed < 1800.0


def test_criterion_3_oracle_anchored_slope(beta2_log_scans):
    """Companion to criterion 3: the beta=2 Monte Carlo slope at n=1024 must
    match the slope of the exact oracle variances fitted on the same grid.

    Criterion 3's +-20% band around 1/pi^2 is nearly used up by the fit
    itself (the oracle's own slope sits ~18% above 1/pi^2), so this check
    separates Monte Carlo error from fit bias. The standard error of the OLS
    slope combines each row's standard error, taken from its 95% bootstrap
    half-width, with that row's OLS weight.
    """
    t0 = time.monotonic()
    rows = beta2_log_scans[1024]
    oracle_rows = [
        dataclasses.replace(row, variance=cue_variance_oracle(1024, row.xi / 1024))
        for row in rows
    ]
    slope = fit_log_bound(rows).slope
    oracle_slope = fit_log_bound(oracle_rows).slope
    logx = np.log(2.0 + np.array([row.xi for row in rows]))
    weights = (logx - logx.mean()) / np.sum((logx - logx.mean()) ** 2)
    row_se = np.array([0.5 * (row.var_ci_hi - row.var_ci_lo) for row in rows]) / _Z95
    se = math.sqrt(float(np.sum((weights * row_se) ** 2)))
    z = abs(slope - oracle_slope) / se
    elapsed = time.monotonic() - t0
    ok = z <= 3.0
    _report(
        "3b (oracle-anchored slope)",
        ok,
        f"MC slope={slope:.6f} oracle-fit slope={oracle_slope:.6f} SE={se:.6f} z={z:.2f} (<= 3)",
        elapsed,
    )
    assert ok


def test_criterion_4_gbe_interval_bound():
    t0 = time.monotonic()
    max_ratio = {}
    mean_ok = True
    details = []
    for n in (128, 512):
        ratios = []
        for k, center in enumerate((0.0, math.sqrt(n))):
            spec = ScanSpec("gbe", 2.0, n, (1.0, 8.0, 64.0), center=center)
            rows = variance_scan(spec, m=10_000, seed=401 + k)
            for row in rows:
                ratios.append(row.variance / math.log(2.0 + row.xi))
                if abs(row.mean - row.ref_mean) >= 5.0 * math.log(2.0 + n):
                    mean_ok = False
        max_ratio[n] = max(ratios)
        details.append(f"n={n}: max ratio {max_ratio[n]:.4f}")
    lo, hi = sorted(max_ratio.values())
    drift = hi / lo - 1.0
    details.append(f"drift {100 * drift:.1f}%")
    elapsed = time.monotonic() - t0
    ok = drift < 0.5 and mean_ok and elapsed < 1800.0
    _report("4 (GbE interval bound)", ok, "; ".join(details), elapsed)
    assert drift < 0.5
    assert mean_ok
    assert elapsed < 1800.0


def test_criterion_5_tail_and_second_moment():
    t0 = time.monotonic()
    result = tail_check(2.0, 100, theta=1.0 / 100, b_grid=(6.0, 12.0, 24.0, 36.0), m=10**6, seed=1)
    tail_ok = all(row.wilson_hi <= row.bound for row in result.rows)
    moment_ok = result.second_moment <= 3500.0
    elapsed = time.monotonic() - t0
    ok = tail_ok and moment_ok and elapsed < 120.0
    detail = (
        "; ".join(f"b={r.b:.0f}: wilson={r.wilson_hi:.2e} bound={r.bound:.3f}" for r in result.rows)
        + f"; E[(psi-a)^2]={result.second_moment:.2f}"
    )
    _report("5 (exponential tail and second moment)", ok, detail, elapsed)
    assert tail_ok
    assert moment_ok
    assert elapsed < 120.0


def test_criterion_6_semicircle_identity():
    t0 = time.monotonic()
    worst = {}
    all_ok = True
    for n in (100, 1000, 10_000, 100_000):
        residuals = [
            abs(semicircle_residual(f * math.sqrt(n), n)) for f in (0.0, 0.5, 1.0, 1.5, 1.9, 2.0)
        ]
        worst[n] = max(residuals)
        all_ok &= worst[n] <= 10.0
    growth_ok = worst[100_000] < 1.10 * worst[1000]
    elapsed = time.monotonic() - t0
    ok = all_ok and growth_ok and elapsed < 1.0
    detail = "; ".join(f"n={n}: max|res|={v:.3f}" for n, v in worst.items())
    _report("6 (semicircle identity)", ok, detail, elapsed)
    assert all_ok
    assert growth_ok
    assert elapsed < 1.0


def test_criterion_7_sine_centering(beta2_log_scans):
    t0 = time.monotonic()
    c2_constant = max(fit_log_bound(rows).max_ratio for rows in beta2_log_scans.values())
    rows = variance_scan(ScanSpec("sine", 2.0, 4096, (5.0, 20.0, 80.0)), m=10_000, seed=1)
    ok = True
    details = [f"C2={c2_constant:.4f}"]
    for row in rows:
        sd = math.sqrt(row.variance)
        mean_ok = abs(row.mean - row.xi / TWO_PI) < 3.0 * sd / math.sqrt(row.m) + 0.5
        bound = c2_constant * math.log(2.0 + row.xi)
        var_ok = row.variance <= bound
        ok &= mean_ok and var_ok
        details.append(f"x={row.xi:.0f}: mean={row.mean:.4f} var={row.variance:.4f}<={bound:.4f}")
    elapsed = time.monotonic() - t0
    _report("7 (sine-process centering)", ok, "; ".join(details), elapsed)
    assert ok


def test_criterion_8_regularity():
    t0 = time.monotonic()
    q99 = {}
    for x_max, seed in ((100.0, 801), (1000.0, 802)):
        stats = regularity_profile(2.0, x_max, m=1000, seed=seed, alpha=0.4)
        q99[x_max] = float(np.quantile(stats, 0.99))
    growth = q99[1000.0] / q99[100.0] - 1.0
    elapsed = time.monotonic() - t0
    ok = growth < 0.25
    _report(
        "8 (count regularity)",
        ok,
        f"q99@100={q99[100.0]:.4f} q99@1000={q99[1000.0]:.4f} growth={100 * growth:.1f}%",
        elapsed,
    )
    assert ok


def test_criterion_9_worker_reproducibility(tmp_path):
    t0 = time.monotonic()
    cases = {
        "scan-cbe": ["scan-cbe", "--beta", "2", "--n", "64", "--samples", "4096",
                     "--seed", "11", "--grid", "geom:1:32:6"],
        "scan-gbe": ["scan-gbe", "--beta", "2", "--n", "64", "--samples", "4096",
                     "--seed", "12", "--grid", "geom:1:32:4"],
        "scan-sine": ["scan-sine", "--beta", "2", "--n", "512", "--samples", "2048",
                      "--seed", "13", "--grid", "1:32:4"],
        "tail-check": ["tail-check", "--beta", "2", "--n", "50", "--samples", "20000",
                       "--seed", "14"],
    }
    ok = True
    for name, args in cases.items():
        outputs = []
        for workers in ("1", "4", "16"):
            out = str(tmp_path / f"{name}-w{workers}")
            rc = main(args + ["--workers", workers, "--out", out])
            assert rc == 0
            outputs.append(Path(out + ".csv").read_bytes())
        ok &= outputs[0] == outputs[1] == outputs[2]
    profile_1 = regularity_profile(2.0, 50.0, m=512, seed=15, workers=1)
    profile_4 = regularity_profile(2.0, 50.0, m=512, seed=15, workers=4)
    ok &= bool(np.array_equal(profile_1, profile_4))
    elapsed = time.monotonic() - t0
    _report("9 (worker reproducibility)", ok, f"{len(cases)} CLI surfaces + profiles", elapsed)
    assert ok
