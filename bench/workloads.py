"""The four benchmark workloads: how each is called, sized and checked.

Every workload runs one betafluct entry point at a fixed size. The inputs
are generated from the workload seed only, so the same benchmark seed always
gives the same inputs; correctness is judged by statistical checks that hold
for any seed, never by comparing against stored bytes.
"""

from __future__ import annotations

import hashlib
import math

TWO_PI = 2.0 * math.pi
# Draws per call of gbe-verify and per row of gbe-scan. Both cost the same
# per draw at any count (gbe-verify runs one draw per block call, gbe-scan
# one 2048-draw block at a time), so ~1.3 s calls (100 draws; 2048 per row)
# instead of ~5 s ones (400; 8192) let a run interleave many short
# repetitions with the host-speed calibration in run.py. Four 5 s
# repetitions per run followed the host's speed swings too coarsely to be
# steady.
VERIFY_DRAWS = 100
GBE_SCAN_SAMPLES = 2048


def workload_seed(bench_seed: int, name: str) -> int:
    """Per-workload master seed derived from the benchmark seed."""
    digest = hashlib.sha256(f"{bench_seed}:{name}".encode()).digest()
    return int.from_bytes(digest[:4], "little") & 0x7FFFFFFF


def _scan_argv(command, n, samples, grid, workers, seed, out):
    return [command, "--beta", "2", "--n", str(n), "--samples", str(samples),
            "--grid", grid, "--workers", str(workers), "--seed", str(seed), "--out", out]


def _read_scan_csv(path):
    with open(path) as fh:
        header, *lines = fh.read().strip().split("\n")
    keys = header.split(",")
    return [dict(zip(keys, line.split(","))) for line in lines]


def _check_cbe_scan(ctx):
    from betafluct.stats import cue_variance_oracle

    rows = _read_scan_csv(ctx["out"] + ".csv")
    problems = [] if len(rows) == 6 else [f"expected 6 rows, got {len(rows)}"]
    for row in rows:
        xi, m = float(row["xi"]), int(row["m"])
        mean, var = float(row["mean"]), float(row["variance"])
        half_width = 0.5 * (float(row["var_ci_hi"]) - float(row["var_ci_lo"]))
        oracle = cue_variance_oracle(64, xi / 64)
        if m != 20000:
            problems.append(f"xi={xi}: m={m}")
        if not abs(var - oracle) <= 5.0 * half_width:
            problems.append(f"xi={xi}: variance {var} vs oracle {oracle} (half-width {half_width})")
        if not abs(mean - xi / TWO_PI) <= 5.0 * math.sqrt(var / m):
            problems.append(f"xi={xi}: mean {mean} vs {xi / TWO_PI}")
    return problems


def _check_gbe_scan(ctx):
    rows = _read_scan_csv(ctx["out"] + ".csv")
    problems = [] if len(rows) == 4 else [f"expected 4 rows, got {len(rows)}"]
    allowance = 5.0 * math.log(2.0 + 512)  # criterion 4's mean allowance
    for row in rows:
        xi, m = float(row["xi"]), int(row["m"])
        mean, var = float(row["mean"]), float(row["variance"])
        if m != GBE_SCAN_SAMPLES:
            problems.append(f"xi={xi}: m={m}")
        if not abs(mean - float(row["ref_mean"])) < allowance:
            problems.append(f"xi={xi}: mean {mean} vs ref {row['ref_mean']}")
        if not var / math.log(2.0 + xi) <= 0.5:
            problems.append(f"xi={xi}: variance/log(2+xi) = {var / math.log(2.0 + xi)}")
    return problems


def _check_gbe_verify(ctx):
    text = ctx["stdout"]
    problems = [] if ctx["rc"] == 0 else [f"exit code {ctx['rc']}"]
    try:
        mismatches = int(text.split(" mismatches")[0].split()[-1])
        evaluations = int(text.split("checked ")[1].split()[0])
        flagged = int(text.split("; ")[-1].split()[0])
    except (IndexError, ValueError):
        return problems + [f"unparsed output {text!r}"]
    if mismatches != 0:
        problems.append(f"{mismatches} mismatches")
    if evaluations != VERIFY_DRAWS * 50:
        problems.append(f"{evaluations} evaluations")
    if not flagged < 1e-3 * evaluations:
        problems.append(f"{flagged} flagged of {evaluations}")
    return problems


def _check_cbe_regularity(ctx):
    import numpy as np

    stats = np.asarray(ctx["result"])
    if stats.shape != (1024,):
        return [f"shape {stats.shape}"]
    problems = []
    if not np.all(np.isfinite(stats)):
        problems.append("non-finite statistic")
    if np.any(stats < 0):
        problems.append("negative statistic")
    q99 = float(np.quantile(stats, 0.99))
    if not 0.7 <= q99 <= 1.0:
        problems.append(f"q99 {q99} outside [0.7, 1.0]")
    return problems


# kind "cli": argv for betafluct.cli.main; kind "call": kwargs for the named
# library function. replicas: ensemble draws the call completes.
WORKLOADS = {
    "cbe-scan": {
        "kind": "cli",
        "workers": 2,
        "replicas": 6 * 20000,
        "argv": lambda seed, workers, out: _scan_argv(
            "scan-cbe", 64, 20000, "geom:1:32:6", workers, seed, out),
        "check": _check_cbe_scan,
    },
    "cbe-regularity": {
        "kind": "call",
        "workers": 1,
        "replicas": 1024,
        "function": "betafluct.stats.regularity_profile",
        "kwargs": lambda seed, workers: dict(
            beta=2.0, x_max=300.0, m=1024, seed=seed, alpha=0.4, workers=workers),
        "check": _check_cbe_regularity,
    },
    "gbe-scan": {
        "kind": "cli",
        "workers": 1,
        "replicas": 4 * GBE_SCAN_SAMPLES,
        "argv": lambda seed, workers, out: _scan_argv(
            "scan-gbe", 512, GBE_SCAN_SAMPLES, "geom:1:64:4", workers, seed, out),
        "check": _check_gbe_scan,
    },
    "gbe-verify": {
        "kind": "cli",
        "workers": 1,
        "replicas": VERIFY_DRAWS,
        "argv": lambda seed, workers, out: [
            "verify-count", "--beta", "2", "--n", "200", "--samples", str(VERIFY_DRAWS),
            "--lams", "50", "--seed", str(seed)],
        "check": _check_gbe_verify,
    },
}
