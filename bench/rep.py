"""One fresh process running one workload once; prints a JSON record last.

    python3 bench/rep.py --workload NAME --seed N --workers K --trace 0|1 \
        --out DIR [--setup-only]

The process imports betafluct from the checkout's src/ (the parent sets
PYTHONPATH), stamps the monotonic clock just before the workload call, runs
it, checks its output and reports wall time, CPU time, peak RSS of itself and
of its pool children, output digest and, with --trace 1, spans and counters.
run.py subtracts its own spawn stamp from the ready stamp to get set-up time.
"""

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import resource
import sys
import time
import traceback

import numpy as np

from workloads import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _cpu_s() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _peak_rss_mb() -> float:
    # Linux reports ru_maxrss in KiB; CHILDREN is the largest reaped child.
    return max(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024.0


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workers", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    spec = WORKLOADS[args.workload]

    # Set-up: what every invocation of the workload pays before it starts.
    import betafluct

    src = os.path.join(ROOT, "src")
    if os.path.commonpath([os.path.abspath(betafluct.__file__), src]) != src:
        print(f"betafluct imported from {betafluct.__file__}, not from {src}", file=sys.stderr)
        return 2
    if spec["kind"] == "cli":
        import betafluct.cli as cli

        cli.build_parser()
        module_name, attr = "betafluct.cli", "main"
    else:
        module_name, attr = spec["function"].rsplit(".", 1)
        importlib.import_module(module_name)

    if args.setup_only:
        print(json.dumps({"ready": time.monotonic()}))
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    os.makedirs(args.out, exist_ok=True)
    stem = os.path.join(args.out, "output")
    for stale in (stem + ".csv", stem + ".manifest.json"):
        if os.path.exists(stale):
            os.remove(stale)
    captured = io.StringIO()
    ctx = {"out": stem, "rc": None, "result": None}
    error = None
    cpu0 = _cpu_s()
    ready = time.monotonic()
    try:
        # Looked up at call time so a traced binding is the one called.
        func = getattr(sys.modules[module_name], attr)
        with contextlib.redirect_stdout(captured):
            if spec["kind"] == "cli":
                ctx["rc"] = func(spec["argv"](args.seed, args.workers, stem))
            else:
                ctx["result"] = func(**spec["kwargs"](args.seed, args.workers))
    except Exception:
        error = traceback.format_exc()
    done = time.monotonic()
    cpu1 = _cpu_s()

    record = {
        "ready": ready,
        "wall_s": done - ready,
        "cpu_s": cpu1 - cpu0,
        "peak_rss_mb": _peak_rss_mb(),
        "workers": args.workers,
    }
    if tracer is not None:
        tracer.uninstall()
        tracer.dump(os.path.join(args.out, f"spans-workers{args.workers}.json"))
        record["trace"] = tracer.summary()
        record["counters"] = tracer.counters
        record["absent"] = tracer.absent

    ctx["stdout"] = captured.getvalue()
    if error is not None:
        problems = [error]
    else:
        problems = [] if ctx["rc"] in (None, 0) else [f"exit code {ctx['rc']}"]
        try:
            problems += spec["check"](ctx)
        except (OSError, KeyError, ValueError) as exc:
            problems.append(f"check could not read the output: {exc!r}")
    record["problems"] = problems
    if error is None:
        if spec["kind"] == "call":
            payload = np.ascontiguousarray(ctx["result"]).tobytes()
        elif os.path.exists(stem + ".csv"):
            with open(stem + ".csv", "rb") as fh:
                payload = fh.read()
        else:
            payload = ctx["stdout"].encode()
        record["sha256"] = hashlib.sha256(payload).hexdigest()
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
