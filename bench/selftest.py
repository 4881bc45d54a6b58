"""Benchmark self-test: two traced runs at one seed give identical work counters.

    python3 bench/selftest.py [--seed N] [--workload NAME ...]

The counters (streams, Prufer/Sturm/sweep steps, lift calls, tasks, pools)
are computed from argument shapes at the layer boundaries, so they must
repeat exactly; a difference means the tracer or the program is not
deterministic in its seed. Exits 1 on any difference or failed check.
"""

import argparse
import sys

from run import RepError, Runner
from workloads import WORKLOADS, workload_seed


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = parser.parse_args()
    ok = True
    for name in args.workload or sorted(WORKLOADS):
        runner = Runner(name, workload_seed(args.seed, name))
        try:
            first, second = (runner.spawn(1, trace=1) for _ in range(2))
        except RepError as exc:
            print(f"FAIL {name}: {exc}")
            ok = False
            continue
        same = first["counters"] == second["counters"]
        checked = not first["problems"] and not second["problems"]
        ok &= same and checked
        print(f"{'PASS' if same and checked else 'FAIL'} {name}: counters "
              f"{'repeat' if same else 'differ'}, checks {'pass' if checked else 'fail'}")
        for key, value in first["counters"].items():
            mark = "" if value == second["counters"][key] else f" != {second['counters'][key]}"
            print(f"    {key} = {value}{mark}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
