"""betafluct benchmark: one workload, end-to-end or traced, one JSON line last.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Every repetition is a fresh process
(bench/rep.py) with PYTHONPATH pointing at ./src and BLAS/OpenMP pinned to
one thread, so no pool, import cache or thread team leaks between runs and
the load stays within the machine's cores.

--trace 0 repeats the workload until S seconds have passed and reports the
end-to-end metrics over the repetitions (mean wall time, median set-up time
and memory), each timing scaled to a reference host speed by a calibration
kernel timed next to it (see _calibrate); the unscaled values are printed
and kept too. --trace 1 repeats a cycle of an untraced and a traced run at
workers=1 (plus, for a multi-worker workload, a traced run at its own worker
count) and reports per-layer metrics. Human-readable lines come first; the
last line is the JSON record. The full record, with the environment, every
repetition and the output digests, is written to
.bench_out/result-<workload>-trace<t>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata

import numpy as np

from tracer import absent_groups
from workloads import WORKLOADS, workload_seed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_out")
# A run must end within 180 s; stop starting repetitions past this point.
BUDGET_S = 150.0
# At least three repetitions per run, and nine set-up samples, so that the
# medians of memory and set-up time have a middle. Two traced cycles show
# that the work counters repeat exactly.
MIN_REPS = 3
SETUP_SAMPLES = 9
MIN_CYCLES = 2
# The host's speed drifts by 20-40%, at times 2x, over seconds to minutes
# (neighbours on the shared machine), which no run length averages out: raw
# wall times of ten 25 s runs spread by 0.1-0.25 (interquartile range over
# median). A fixed kernel timed right before and after each repetition, on
# the CPUs the repetition runs on (see run_end_to_end), moves with that
# drift: their times correlated at about 0.9. So each repetition's timings
# are multiplied by CALIBRATION_REF_S over the mean of its two calibrations.
# CALIBRATION_REF_S is about the kernel's time on the 2-vCPU machine the
# benchmark was written on, so scaled values read as seconds at that
# machine's usual speed. The kernel runs no betafluct code, so a change to
# the program cannot move it.
CALIBRATION_REF_S = 0.6

# Per-layer metric: group of tracer bindings it is computed from, or None. A
# metric whose group has no resolvable binding is reported as absent. Names
# and units of all metrics come from BENCHMARK.json.
GROUP = {
    "rng.streams": "rng.stream",
    "rng.stream_s": "rng.stream",
    "rng.stream_us": "rng.stream",
    "circular.sample_s": "circular.sample",
    "circular.sample_us_per_replica": "circular.sample",
    "circular.count_s": "circular.count",
    "circular.prufer_s": "circular.prufer",
    "circular.prufer_steps": "circular.prufer",
    "circular.prufer_ns_per_step": "circular.prufer",
    "circular.prufer_bytes_computed": "circular.prufer",
    "gaussian.sample_s": "gaussian.sample",
    "gaussian.sample_us_per_replica": "gaussian.sample",
    "gaussian.sturm_s": "gaussian.sturm",
    "gaussian.sturm_steps": "gaussian.sturm",
    "gaussian.sturm_ns_per_step": "gaussian.sturm",
    "gaussian.sweep_s": "gaussian.sweep",
    "gaussian.sweep_steps": "gaussian.sweep",
    "gaussian.sweep_ns_per_step": "gaussian.sweep",
    "gaussian.flagged": "gaussian.sweep",
    "circlemap.lift_calls": "circlemap.lift",
    "circlemap.lift_s": "circlemap.lift",
    "stats.tasks": "stats.pool",
    "stats.pools_started": "stats.pool_start",
    "stats.pool_s": "stats.pool",
    "stats.parallel_eff": "stats.pool",
    "stats.cpu_over_wall": None,
    "stats.merge_s": "stats.merge",
    "stats.bootstrap_s": "stats.bootstrap",
    "cli.emit_s": "cli.emit",
    "trace.overhead_s": None,
    "rng.self_s": "rng.self",
    "circular.self_s": "circular.self",
    "circlemap.self_s": "circlemap.self",
    "gaussian.self_s": "gaussian.self",
    "stats.self_s": "stats.self",
    "cli.self_s": "cli.self",
}
THREAD_PINS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def _units(trace: int) -> dict:
    """Metric name -> unit, in BENCHMARK.json's order, for one kind of run."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


class RepError(RuntimeError):
    pass


def _calibrate(cpus: list[int]) -> float:
    """Seconds a fixed kernel takes now on `cpus`, an equal share of it pinned
    to each: sorts and exponentials on a 200k vector and a pure-Python loop.
    Of the kernels tried, these two tracked the workloads' repetitions best;
    a chain of small-array ufunc calls jittered more than it tracked. Leaves
    this process pinned to `cpus`."""
    share = 1.0 / len(cpus)
    began = time.perf_counter()
    for cpu in cpus:
        os.sched_setaffinity(0, {cpu})
        big = np.random.default_rng(0).random(200_000)
        for _ in range(int(160 * share)):
            np.sort(big)
            np.exp(big).sum()
        acc = 0
        for i in range(int(2_400_000 * share)):
            acc += i * i % 7
    os.sched_setaffinity(0, cpus)
    return time.perf_counter() - began


def _environment(workload: str) -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), model)
    except OSError:
        pass
    versions = {}
    for package in ("numpy", "scipy"):
        try:
            versions[package] = metadata.version(package)
        except metadata.PackageNotFoundError:
            versions[package] = "not installed"
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        **versions,
        "git_revision": _git_revision(),
        "workers": WORKLOADS[workload]["workers"],
        "thread_pins": THREAD_PINS,
    }


def _git_revision() -> str:
    """HEAD commit read from .git without running git; 'unavailable' outside a clone."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unavailable"


class Runner:
    """Spawns repetition processes for one workload, inside a time budget."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.out = os.path.join(OUT, workload)
        self.began = time.monotonic()
        self.env = {k: v for k, v in os.environ.items() if k != "BETAFLUCT_WORKERS"}
        self.env.update(
            PYTHONPATH=os.path.join(ROOT, "src"),
            **THREAD_PINS,
            TMPDIR=os.path.join(OUT, "tmp"),
        )
        os.makedirs(self.env["TMPDIR"], exist_ok=True)

    def elapsed(self) -> float:
        return time.monotonic() - self.began

    def spawn(self, workers: int, trace: int = 0, setup_only: bool = False) -> dict:
        cmd = [sys.executable, os.path.join(HERE, "rep.py"), "--workload", self.workload,
               "--seed", str(self.seed), "--workers", str(workers), "--trace", str(trace),
               "--out", self.out]
        if setup_only:
            cmd.append("--setup-only")
        spawned = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True, start_new_session=True)
        try:
            stdout, stderr = proc.communicate(timeout=max(1.0, 170.0 - self.elapsed()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise RepError(f"repetition exceeded the time budget: {' '.join(cmd)}")
        if proc.returncode != 0 or not stdout.strip():
            raise RepError(f"repetition exited {proc.returncode}: {stderr.strip()[-2000:]}")
        record = json.loads(stdout.strip().splitlines()[-1])
        record["setup_s"] = record["ready"] - spawned
        return record

    def more(self, seconds: float, done: int, minimum: int, last_s: float) -> bool:
        """Start another repetition until `minimum` are done, then while the next
        one, taking as long as the last, still ends within --seconds."""
        if self.elapsed() + last_s > BUDGET_S:
            return False
        return done < minimum or self.elapsed() + last_s <= seconds


def run_end_to_end(runner: Runner, seconds: float) -> dict:
    spec = WORKLOADS[runner.workload]
    # The CPUs' speeds swing independently (second-scale timings on one
    # correlated at -0.3 with the other's), so a calibration only tracks work
    # that ran on the CPUs it ran on: calibrate on as many CPUs as the
    # workload has workers, and pin the repetitions (children inherit this
    # process's affinity) to the same ones.
    cpus = sorted(os.sched_getaffinity(0))[: spec["workers"]]
    calibrations = [_calibrate(cpus)]

    def spawn(setup_only=False):
        record = runner.spawn(spec["workers"], setup_only=setup_only)
        calibrations.append(_calibrate(cpus))
        record["scale"] = CALIBRATION_REF_S / statistics.fmean(calibrations[-2:])
        return record

    reps = []
    while runner.more(seconds, len(reps), MIN_REPS,
                      reps[-1]["setup_s"] + reps[-1]["wall_s"] if reps else 0.0):
        reps.append(spawn())
    spawns = list(reps)
    while len(spawns) < SETUP_SAMPLES and runner.elapsed() < BUDGET_S:
        spawns.append(spawn(setup_only=True))
    good = [rep for rep in reps if not rep["problems"]] or reps
    wall_s = statistics.fmean([rep["wall_s"] * rep["scale"] for rep in good])
    metrics = {
        "wall_s": wall_s,
        "replicas_per_s": spec["replicas"] / wall_s,
        "peak_rss_mb": statistics.median([rep["peak_rss_mb"] for rep in good]),
        "setup_s": statistics.median([s["setup_s"] * s["scale"] for s in spawns]),
    }
    raw = {
        "wall_s": statistics.fmean([rep["wall_s"] for rep in good]),
        "setup_s": statistics.median([s["setup_s"] for s in spawns]),
        "calibration_s": statistics.fmean(calibrations),
    }
    return {"runs": reps, "setup_samples": [s["setup_s"] for s in spawns],
            "calibrations_s": calibrations, "metrics": metrics, "raw": raw}


def _layer_metrics(ref: dict, traced: dict, own: dict, workers: int) -> dict:
    """Per-layer values from one cycle: untraced and traced runs at workers=1
    and the traced run at the workload's own worker count."""
    fam = traced["trace"]["families"]
    cnt = traced["counters"]

    def per(total_s, count, scale):
        return scale * total_s / count if count else 0.0

    pool_own = own["trace"]["families"]["stats.pool"]
    values = {
        "rng.streams": cnt["rng.streams"],
        "rng.stream_s": fam["rng.stream"],
        "rng.stream_us": per(fam["rng.stream"], cnt["rng.streams"], 1e6),
        "circular.sample_s": fam["circular.sample"],
        "circular.sample_us_per_replica": per(fam["circular.sample"],
                                              cnt["circular.replicas"], 1e6),
        "circular.count_s": fam["circular.count"],
        "circular.prufer_s": fam["circular.prufer"],
        "circular.prufer_steps": cnt["circular.prufer_steps"],
        "circular.prufer_ns_per_step": per(fam["circular.prufer"],
                                           cnt["circular.prufer_steps"], 1e9),
        "circular.prufer_bytes_computed": cnt["circular.prufer_bytes_computed"],
        "gaussian.sample_s": fam["gaussian.sample"],
        "gaussian.sample_us_per_replica": per(fam["gaussian.sample"],
                                              cnt["gaussian.replicas"], 1e6),
        "gaussian.sturm_s": fam["gaussian.sturm"],
        "gaussian.sturm_steps": cnt["gaussian.sturm_steps"],
        "gaussian.sturm_ns_per_step": per(fam["gaussian.sturm"],
                                          cnt["gaussian.sturm_steps"], 1e9),
        "gaussian.sweep_s": fam["gaussian.sweep"],
        "gaussian.sweep_steps": cnt["gaussian.sweep_steps"],
        "gaussian.sweep_ns_per_step": per(fam["gaussian.sweep"],
                                          cnt["gaussian.sweep_steps"], 1e9),
        "gaussian.flagged": cnt["gaussian.flagged"],
        "circlemap.lift_calls": cnt["circlemap.lift_calls"],
        "circlemap.lift_s": fam["circlemap.lift"],
        "stats.tasks": cnt["stats.tasks"],
        "stats.pools_started": own["counters"]["stats.pools_started"],
        "stats.pool_s": pool_own,
        "stats.parallel_eff": per(fam["stats.pool"], workers * pool_own, 1.0),
        "stats.cpu_over_wall": own["cpu_s"] / own["wall_s"],
        "stats.merge_s": fam["stats.merge"],
        "stats.bootstrap_s": fam["stats.bootstrap"],
        "cli.emit_s": fam["cli.emit"],
        "trace.overhead_s": traced["wall_s"] - ref["wall_s"],
    }
    for layer, seconds in traced["trace"]["self_s"].items():
        values[f"{layer}.self_s"] = seconds
    return values


def run_traced(runner: Runner, seconds: float) -> dict:
    workers = WORKLOADS[runner.workload]["workers"]
    cycles, runs = [], []
    while runner.more(seconds, len(cycles), MIN_CYCLES,
                      cycles[-1]["duration_s"] if cycles else 0.0):
        began = runner.elapsed()
        ref = runner.spawn(1)
        traced = runner.spawn(1, trace=1)
        own = runner.spawn(workers, trace=1) if workers > 1 else traced
        runs += [ref, traced] + ([own] if own is not traced else [])
        cycles.append({"ref": ref, "traced": traced, "own": own,
                       "duration_s": runner.elapsed() - began,
                       "values": _layer_metrics(ref, traced, own, workers)})
    first = cycles[0]
    counters_repeat = all(c["traced"]["counters"] == first["traced"]["counters"]
                          and c["own"]["counters"] == first["own"]["counters"] for c in cycles)
    # Counts repeat exactly (checked below), so they are reported as counted.
    metrics = {
        name: first["values"][name] if unit in ("count", "bytes")
        else statistics.median([c["values"][name] for c in cycles])
        for name, unit in _units(1).items()
    }
    absent = absent_groups({**first["traced"]["absent"], **first["own"]["absent"]})
    absent_metrics = {name: absent[group] for name, group in GROUP.items() if group in absent}
    for name in absent_metrics:
        metrics[name] = None
    trace = first["traced"]["trace"]
    root = first["traced"]["wall_s"]
    shares = {binding: t / root for binding, t in trace["inclusive_s"].items()}
    self_s = trace["self_s"]
    return {
        "runs": runs,
        "cycles": [{k: v for k, v in c.items() if k in ("duration_s", "values")} for c in cycles],
        "metrics": metrics,
        "absent": absent_metrics,
        "counters_repeat": counters_repeat,
        "top_self_layer": max(self_s, key=self_s.get),
        "self_share": {layer: t / root for layer, t in self_s.items()},
        "inclusive_share": shares,
    }


def _compare_predictions(workload: str, shares: dict, top_layer: str) -> list[str]:
    with open(os.path.join(HERE, "predictions.json")) as fh:
        predicted = json.load(fh)["workloads"][workload]
    lines = []
    for binding, share in predicted["inclusive_share"].items():
        measured = shares.get(binding, 0.0)
        verdict = "ok" if abs(measured - share) <= 0.10 else "MISMATCH"
        lines.append(f"share {binding}: predicted {share:.0%} measured {measured:.1%} {verdict}")
    verdict = "ok" if top_layer == predicted["top_self_layer"] else "MISMATCH"
    lines.append(f"top self-time layer: predicted {predicted['top_self_layer']} "
                 f"measured {top_layer} {verdict}")
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "betafluct", "__init__.py")):
        print(f"no betafluct sources under {ROOT}/src; run from a full checkout",
              file=sys.stderr)
        return 2
    runner = Runner(args.workload, workload_seed(args.seed, args.workload))
    try:
        runner.spawn(1, setup_only=True)  # warm the bytecode and file caches
        run = run_traced if args.trace else run_end_to_end
        result = run(runner, args.seconds)
    except RepError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    records = result["runs"]
    problems = [p for r in records for p in r["problems"]]
    failed = sum(1 for r in records if r["problems"])
    if args.trace and not result["counters_repeat"]:
        problems.append("work counters differ between traced runs of one seed")
        failed = max(failed, 1)
    metrics = {name: {"value": result["metrics"][name], "unit": unit}
               for name, unit in _units(args.trace).items()}

    summary = {
        "benchmark": "betafluct",
        "workload": args.workload,
        "bench_seed": args.seed,
        "workload_seed": runner.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": _environment(args.workload),
        "attempted": len(records),
        "failed": failed,
        "failed_frac": failed / len(records),
        "problems": problems,
        "sha256": sorted({r["sha256"] for r in records if "sha256" in r}),
        "metrics": metrics,
        **{k: v for k, v in result.items() if k != "metrics"},
    }
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"result-{args.workload}-trace{args.trace}.json"), "w") as fh:
        json.dump(summary, fh, indent=1)

    env = summary["environment"]
    print(f"betafluct benchmark: workload {args.workload}, seed {args.seed} "
          f"(workload seed {runner.seed}), trace {args.trace}, {len(records)} runs")
    print(f"environment: nproc={env['nproc']} cpu={env['cpu_model']!r} python={env['python']} "
          f"numpy={env['numpy']} scipy={env['scipy']} git={env['git_revision']} "
          f"workers={env['workers']}")
    for name, metric in metrics.items():
        note = f"  (absent: {result['absent'][name]})" if name in result.get("absent", {}) else ""
        print(f"  {name} = {metric['value']} {metric['unit']}{note}")
    if "raw" in result:
        print("unscaled: " + ", ".join(
            f"{name} {value:.4f} s" for name, value in result["raw"].items()))
    print(f"failed_frac = {summary['failed_frac']} ({failed} of {len(records)} runs)")
    for sha in summary["sha256"]:
        print(f"output sha256 {sha} (informational)")
    if args.trace:
        print("self-time share per layer: " + ", ".join(
            f"{layer} {share:.1%}" for layer, share in result["self_share"].items()))
        print(f"work counters repeat exactly: {result['counters_repeat']}")
        for line in _compare_predictions(args.workload, result["inclusive_share"],
                                         result["top_self_layer"]):
            print(line)
    for problem in problems:
        print(f"PROBLEM: {problem.strip()}")
    print(json.dumps({"correct": failed == 0, "attempted": len(records), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
