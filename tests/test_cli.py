import json
import math
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy

from betafluct import cli
from betafluct.cli import SCAN_HEADER, _git_revision, main

TWO_PI = 2.0 * math.pi


def _read_csv(path):
    with open(path) as fh:
        lines = fh.read().strip().split("\n")
    return lines[0], [line.split(",") for line in lines[1:]]


def test_oracle_cue_single_point_column(tmp_path, capsys):
    out = str(tmp_path / "oracle")
    rc = main(["oracle-cue", "--n", "1", "--grid", "0:6.2832:8", "--out", out])
    assert rc == 0
    header, rows = _read_csv(out + ".csv")
    assert header == "arc_length,variance"
    assert len(rows) == 8
    for arc_s, var_s in rows:
        p = min(float(arc_s) / TWO_PI, 1.0)
        assert float(var_s) == pytest.approx(p * (1 - p), abs=1e-8)


def test_oracle_cue_forgives_only_the_rounding_of_an_endpoint(capsys):
    # an arc within 1e-4 of [0, 2 pi] is read as the endpoint; one farther
    # out is refused
    assert main(["oracle-cue", "--n", "3", "--grid=-0.00009:6.28327:2"]) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
    assert [float(arc) for arc, _ in rows] == [0.0, TWO_PI]
    assert [float(var) for _, var in rows] == [0.0, 0.0]
    for grid in ("--grid=-0.0002:1:2", "--grid=1:6.2834:2"):
        assert main(["oracle-cue", "--n", "3", grid]) == 2, grid
        assert "arc length must lie in [0, 2*pi]" in capsys.readouterr().err, grid


def test_verify_count_reports_zero_mismatches(capsys):
    rc = main(["verify-count", "--beta", "2", "--n", "64", "--samples", "100", "--seed", "7"])
    captured = capsys.readouterr()
    assert rc == 0
    assert "0 mismatches" in captured.out
    assert "checked 5000 points over 100 draws" in captured.out


def test_verify_count_refuses_an_underflowed_offdiagonal(capsys):
    # at beta = 0.01 a chi draw underflows to exactly 0, which the sweep
    # cannot conjugate away; the draw is refused, not counted
    rc = main(["verify-count", "--beta", "0.01", "--n", "50", "--samples", "200", "--seed", "3"])
    assert rc == 2
    assert "off-diagonal entries must be positive" in capsys.readouterr().err


def test_scan_cbe_schema_and_reproducibility(tmp_path):
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    args = ["scan-cbe", "--beta", "2", "--n", "32", "--samples", "600", "--seed", "3",
            "--grid", "geom:1:16:4"]
    assert main(args + ["--out", out1]) == 0
    assert main(args + ["--out", out2]) == 0
    csv1 = Path(out1 + ".csv").read_bytes()
    assert csv1 == Path(out2 + ".csv").read_bytes()
    header, rows = _read_csv(out1 + ".csv")
    assert header == SCAN_HEADER
    assert len(rows) == 4
    manifest = json.loads(Path(out1 + ".manifest.json").read_text())
    assert manifest["command"] == "scan-cbe"
    assert manifest["master_seed"] == 3
    assert "duration_s" in manifest and "version" in manifest
    assert manifest["stream_contract"] == 3
    assert "start_time" not in manifest["params"]
    assert manifest["grid"][0] == 1.0


def test_scan_worker_count_does_not_change_bytes(tmp_path):
    args = ["scan-gbe", "--beta", "1", "--n", "24", "--samples", "800", "--seed", "5",
            "--grid", "geom:1:8:3"]
    outputs = []
    for workers in ("1", "4"):
        out = str(tmp_path / f"w{workers}")
        assert main(args + ["--workers", workers, "--out", out]) == 0
        outputs.append(Path(out + ".csv").read_bytes())
    assert outputs[0] == outputs[1]


def test_scan_sine_runs(tmp_path):
    out = str(tmp_path / "sine")
    rc = main(["scan-sine", "--beta", "2", "--n", "256", "--samples", "300", "--seed", "2",
               "--grid", "1:9:3", "--out", out])
    assert rc == 0
    header, rows = _read_csv(out + ".csv")
    assert header == SCAN_HEADER
    assert [r[0] for r in rows] == ["sine"] * 3


def test_json_format(tmp_path):
    out = str(tmp_path / "rows")
    rc = main(["scan-cbe", "--n", "16", "--samples", "300", "--seed", "1",
               "--grid", "geom:1:8:3", "--format", "json", "--out", out])
    assert rc == 0
    rows = json.loads(Path(out + ".json").read_text())
    assert len(rows) == 3
    assert rows[0]["ensemble"] == "cbe"
    for row in rows:
        assert list(row) == SCAN_HEADER.split(",")
        assert isinstance(row["interval"], str)
        assert type(row["n"]) is int and type(row["m"]) is int
        for key in ("beta", "xi", "mean", "variance", "var_ci_lo", "var_ci_hi", "ref_mean"):
            assert type(row[key]) is float


def test_tail_check_output(tmp_path):
    out = str(tmp_path / "tail")
    args = ["tail-check", "--beta", "2", "--n", "20", "--samples", "4000", "--seed", "6",
            "--b-grid", "6,12"]
    rc = main(args + ["--out", out])
    assert rc == 0
    header, rows = _read_csv(out + ".csv")
    assert header == "b,hits,m,empirical,wilson_hi,bound"
    assert len(rows) == 2
    assert [row[2] for row in rows] == ["4000", "4000"]
    assert main(args + ["--format", "json", "--out", out]) == 0
    json_rows = json.loads(Path(out + ".json").read_text())
    assert [list(row) for row in json_rows] == [header.split(",")] * 2
    manifest = json.loads(Path(out + ".manifest.json").read_text())
    assert "second_moment" in manifest
    assert "grid" not in manifest["params"]


def test_manifest_records_resolved_workers_and_environment(tmp_path):
    # one block, so --workers 0 starts no pool whatever the CPU count
    out = str(tmp_path / "tail")
    argv = ["tail-check", "--n", "8", "--samples", "100", "--b-grid", "6", "--workers", "0",
            "--out", out]
    assert main(argv) == 0
    manifest = json.loads(Path(out + ".manifest.json").read_text())
    assert manifest["argv"] == argv
    # --workers 0 counts only the CPUs this process may use
    if hasattr(os, "sched_getaffinity"):
        assert manifest["params"]["workers"] == len(os.sched_getaffinity(0))
    else:
        assert manifest["params"]["workers"] == (os.cpu_count() or 1)
    assert manifest["environment"] == {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "cpu_count": os.cpu_count(),
    }


def test_manifest_records_the_git_revision(tmp_path):
    out = str(tmp_path / "oracle")
    assert main(["oracle-cue", "--n", "4", "--grid", "0:1:2", "--out", out]) == 0
    manifest = json.loads(Path(out + ".manifest.json").read_text())
    root = Path(cli.__file__).resolve().parents[2]
    assert manifest["git_revision"] == _git_revision(Path(cli.__file__))
    # against git itself, where this is a checkout that git will read
    git = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"], capture_output=True,
                         text=True, check=False) if (root / ".git").exists() else None
    if git is not None and git.returncode == 0:
        assert manifest["git_revision"] == git.stdout.strip()


def test_git_revision_read_from_git_files(tmp_path):
    sha = [c * 40 for c in "abc"]
    git = tmp_path / "repo" / ".git"
    module = git.parent / "src" / "betafluct" / "cli.py"
    (git / "refs" / "heads").mkdir(parents=True)
    (git / "HEAD").write_text("ref: refs/heads/main\n")
    (git / "refs" / "heads" / "main").write_text(sha[0] + "\n")
    assert _git_revision(module) == sha[0]
    # a packed ref, once the loose one is gone
    (git / "refs" / "heads" / "main").unlink()
    (git / "packed-refs").write_text(
        f"# pack-refs with: peeled fully-peeled sorted\n{sha[2]} refs/heads/dev\n"
        f"{sha[1]} refs/heads/main\n")
    assert _git_revision(module) == sha[1]
    # a linked worktree: its HEAD in its own git directory, refs in the common one
    linked = git / "worktrees" / "wt"
    linked.mkdir(parents=True)
    (linked / "HEAD").write_text("ref: refs/heads/dev\n")
    (linked / "commondir").write_text("../..\n")
    (tmp_path / "wt").mkdir()
    (tmp_path / "wt" / ".git").write_text(f"gitdir: {linked}\n")
    assert _git_revision(tmp_path / "wt" / "src" / "betafluct" / "cli.py") == sha[2]
    # a detached HEAD holds the commit itself
    (git / "HEAD").write_text(sha[2] + "\n")
    assert _git_revision(module) == sha[2]
    # installed flat into another project's checkout: that project's HEAD is not ours
    assert _git_revision(git.parent / "vendor" / "betafluct" / "cli.py") == "unavailable"
    assert _git_revision(git.parent / "src" / "other" / "cli.py") == "unavailable"
    # no checkout, an unborn branch, a HEAD that is not a commit
    assert _git_revision(tmp_path / "src" / "betafluct" / "cli.py") == "unavailable"
    (git / "HEAD").write_text("ref: refs/heads/none\n")
    assert _git_revision(module) == "unavailable"
    (git / "HEAD").write_text("garbage\n")
    assert _git_revision(module) == "unavailable"


def test_tail_check_stdout_is_only_the_table(capsys):
    rc = main(["tail-check", "--n", "20", "--samples", "500", "--format", "json"])
    captured = capsys.readouterr()
    assert rc == 0
    rows = json.loads(captured.out)
    assert [row["b"] for row in rows] == [6.0, 12.0, 24.0, 36.0]
    assert "second moment of (psi - a)" in captured.err


def test_semicircle_residual_table(capsys):
    rc = main(["semicircle-residual", "--n-grid", "100,1000", "--mu-factors", "0,1,2"])
    captured = capsys.readouterr()
    assert rc == 0
    lines = captured.out.strip().split("\n")
    assert lines[0] == "n,mu,residual"
    assert len(lines) == 7
    for line in lines[1:]:
        assert abs(float(line.split(",")[2])) <= 10.0


def test_sample_commands(tmp_path, capsys):
    for extra in (["--ensemble", "cbe", "--n", "8", "--samples", "2"],
                  ["--ensemble", "gbe", "--n", "8", "--samples", "2"],
                  ["--ensemble", "sine", "--n", "128", "--xmax", "5", "--samples", "2"],
                  # without --n, sine takes the library's window size, not 64
                  ["--ensemble", "sine", "--samples", "1"]):
        rc = main(["sample", "--seed", "4"] + extra)
        assert rc == 0
        captured = capsys.readouterr()
        assert len(captured.out.strip().split("\n")) >= 2


def test_sample_gbe_draws_each_replica_from_its_own_stream(tmp_path):
    # draw d is the one-draw sample of the stream (seed, d), also past the
    # first replica block of the scans
    from scipy.linalg import eigvalsh_tridiagonal

    from betafluct.gaussian import sample_tridiagonal
    from betafluct.rng import BLOCK_SIZE, RngStream

    draws, beta, seed = BLOCK_SIZE + 2, 1.3, 5
    out = str(tmp_path / "eigs")
    argv = ["sample", "--ensemble", "gbe", "--n", "4", "--beta", str(beta)]
    assert main(argv + ["--samples", str(draws), "--seed", str(seed), "--out", out]) == 0
    header, rows = _read_csv(out + ".csv")
    assert header == "draw,eigenvalue"
    eigs = np.array([float(e) for _, e in rows]).reshape(draws, 4)
    assert [int(d) for d, _ in rows] == [d for d in range(draws) for _ in range(4)]
    for d in range(draws):
        model = sample_tridiagonal(beta, 4, RngStream(seed, d))
        assert np.array_equal(eigs[d], eigvalsh_tridiagonal(model.diag, model.offdiag)), d


def test_sample_small_beta_exits_0(capsys):
    # at seed 1 both commands draw a radius that rounds to 1 unless capped
    for extra in (["--ensemble", "cbe", "--n", "3", "--samples", "50", "--beta", "0.1"],
                  ["--ensemble", "sine", "--xmax", "2", "--samples", "1", "--beta", "0.05"]):
        assert main(["sample", "--seed", "1"] + extra) == 0
        assert "error" not in capsys.readouterr().err


def test_usage_errors_exit_2(tmp_path, capsys):
    assert main(["scan-cbe", "--badflag"]) == 2
    assert main(["nonsense-command"]) == 2
    assert main(["scan-cbe", "--beta", "-1", "--samples", "10"]) == 2
    assert main(["scan-cbe", "--grid", "oops"]) == 2
    assert main(["tail-check", "--samples", "0"]) == 2
    assert main(["oracle-cue", "--n", "-5", "--grid", "0:3:3"]) == 2
    assert main(["oracle-cue", "--n", "0"]) == 2
    assert main(["sample", "--samples", "-2"]) == 2
    assert main(["sample", "--samples", "0", "--ensemble", "gbe"]) == 2
    # each subcommand takes only the flags it reads
    for argv in (["verify-count", "--workers", "2"],
                 ["verify-count", "--out", "X"],
                 ["tail-check", "--grid", "1:2:3"],
                 ["semicircle-residual", "--seed", "1"],
                 ["oracle-cue", "--beta", "3"],
                 ["sample", "--workers", "2"],
                 ["scan-cbe", "--center", "1"],
                 ["scan-sine", "--center", "1"]):
        assert main(argv) == 2, argv
    capsys.readouterr()
    # a bad size is named where it enters, not by a later arithmetic error
    for argv in (["tail-check", "--n", "0"],
                 ["tail-check", "--n", "-3"],
                 ["verify-count", "--n", "0"],
                 ["verify-count", "--n", "-3"],
                 ["scan-cbe", "--n", "0"],
                 ["scan-gbe", "--n", "0"],
                 ["scan-sine", "--n", "0"],
                 ["scan-cbe", "--n", "-1"],
                 ["semicircle-residual", "--n-grid", "-4"]):
        assert main(argv) == 2, argv
        assert f"n must be at least 1, got {argv[-1]}" in capsys.readouterr().err, argv
    # a non-finite value is named where it enters, not passed on to give
    # constant counts or an overflow
    for argv, message in (
        (["tail-check", "--a", "nan", "--samples", "10"], "a must be finite, got nan"),
        (["tail-check", "--a", "inf", "--samples", "10"], "a must be finite, got inf"),
        (["tail-check", "--n", "8", "--samples", "50", "--b-grid", "nan,inf,-inf,6"],
         "b must be finite, got nan"),
        (["tail-check", "--samples", "10", "--b-grid", "6,inf"], "b must be finite, got inf"),
        (["tail-check", "--samples", "10", "--b-grid=6,-inf"], "b must be finite, got -inf"),
        (["scan-cbe", "--beta", "nan", "--samples", "10"], "beta must be positive and finite, got nan"),
        (["scan-cbe", "--beta", "inf", "--samples", "10"], "beta must be positive and finite, got inf"),
        (["scan-gbe", "--center", "nan", "--samples", "10"], "center must be finite, got nan"),
        (["scan-gbe", "--center=-inf", "--samples", "10"], "center must be finite, got -inf"),
        (["scan-cbe", "--grid", "1:nan:2", "--samples", "10"],
         "scale values must be non-negative and finite, got nan"),
        (["scan-gbe", "--grid", "geom:1:nan:2", "--samples", "10"],
         "scale values must be non-negative and finite, got nan"),
        (["scan-gbe", "--grid", "1:inf:2", "--samples", "10"], "grid endpoints must be finite, got inf"),
        (["scan-cbe", "--grid", "geom:1:inf:3", "--samples", "10"],
         "grid endpoints must be finite, got inf"),
        (["oracle-cue", "--grid", "geom:1:inf:2"], "grid endpoints must be finite, got inf"),
        # only the rounding of a typed 2 pi is forgiven, not an arc past it
        (["oracle-cue", "--grid", "0:20:5"], "arc length must lie in [0, 2*pi], got 10.0"),
        # an output stem in a missing directory is named, not a traceback
        (["oracle-cue", "--n", "4", "--out", str(tmp_path / "missing" / "x")],
         str(tmp_path / "missing" / "x.csv")),
        (["verify-count", "--beta", "nan", "--samples", "10"],
         "beta must be positive and finite, got nan"),
        (["sample", "--ensemble", "cbe", "--beta", "inf", "--samples", "1"],
         "beta must be positive and finite, got inf"),
        (["sample", "--ensemble", "sine", "--xmax", "inf", "--samples", "1"],
         "x_max must be non-negative and finite, got inf"),
        (["sample", "--ensemble", "sine", "--xmax", "nan", "--samples", "1"],
         "x_max must be non-negative and finite, got nan"),
        (["semicircle-residual", "--mu-factors", "nan"], "mu must be non-negative and finite, got nan"),
        # int() would truncate a fractional size and run n = 1
        (["semicircle-residual", "--n-grid", "1.5"], "n must be an integer, got 1.5"),
    ):
        assert main(argv) == 2, argv
        assert message in capsys.readouterr().err, argv
    # the default grid would run downward from 1 when its top is below 1
    for argv in (["scan-cbe", "--n", "1", "--samples", "10"],
                 ["scan-sine", "--n", "12", "--samples", "10"]):
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert f"n={argv[2]}" in err and "--grid" in err, argv


def test_scan_explicit_grid_at_n1(capsys):
    assert main(["scan-cbe", "--n", "1", "--samples", "10", "--seed", "3", "--grid", "1:3:2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3


def test_cli_entrypoint_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "betafluct.cli", "oracle-cue", "--n", "2", "--grid", "0:3:4"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("arc_length,variance")
