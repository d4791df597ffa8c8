"""One benchmark job in a fresh process.

Run by ``run.py``, never by hand::

    python3 perfbench/child.py --workload NAME --seed N --trace 0|1 --limit S [--setup-only]

It imports ``superw`` from the checkout (``run.py`` puts ``src`` on
``PYTHONPATH``), sets the workload up, stamps the monotonic clock, times one
call between two calibration loops, and prints one JSON line: the set-up
stamp, the call's wall and CPU time, the calibration times, its outcome
summary and, when traced, the aggregated spans.  A failure prints a JSON line
with ``error`` and exits 1.
"""

from __future__ import annotations

import argparse
from fractions import Fraction
import json
import os
import resource
import signal
import sys
import time
import traceback

import workloads


def _cpu_s():
    """User+sys CPU of this process and of the children it has waited for."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def calibrate():
    """Seconds this machine takes for a fixed stdlib-only loop.

    The loop does what the package spends its time on: exact rational
    arithmetic and updates of tuple-keyed dicts.  The sandbox's speed drifts
    by 20 % and more over tens of seconds; timing this loop just before and
    just after a job tracks that drift (run.py scales each job by it), and no
    change to the package can change the loop.
    """
    t0 = time.perf_counter()
    acc = {}
    f = Fraction(1, 3)
    for i in range(8000):
        key = (i % 61, (i * 7) % 13)
        f = f * Fraction(i % 17 + 1, i % 19 + 2) + Fraction(1, i % 23 + 1)
        if f.denominator > 10**30:
            f = Fraction(f.numerator % 997 + 1, f.denominator % 991 + 1)
        acc[key] = acc.get(key, 0) + f
    return time.perf_counter() - t0


def run(args):
    import superw
    import superw.cli  # noqa: F401  -- loads every layer before tracing

    src = os.environ["PERFBENCH_SRC"]
    if os.path.dirname(os.path.dirname(os.path.abspath(superw.__file__))) != src:
        raise RuntimeError("imported superw from %s, not %s" % (superw.__file__, src))

    tracer = None
    if args.trace:
        import spans
        tracer = spans.Tracer()
        tracer.install()
    job = workloads.prepare(args.workload, args.seed)
    setup_end = time.monotonic()
    before = calibrate()
    if args.setup_only:
        return {"setup_end": setup_end, "calib_s": [before]}

    cpu0 = _cpu_s()
    t0 = time.perf_counter()
    raw = job()
    wall = time.perf_counter() - t0
    cpu = _cpu_s() - cpu0
    out = {
        "setup_end": setup_end,
        "calib_s": [before, calibrate()],
        "wall_s": wall,
        "cpu_s": cpu,
        "outcome": workloads.summarize(args.workload, raw),
    }
    if tracer is not None:
        out["trace"] = tracer.report()
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--limit", type=int, required=True,
                    help="seconds after which the child is ended by SIGALRM")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    signal.alarm(args.limit)
    try:
        result = run(args)
    except Exception:  # reported to the parent, which counts the job as failed
        print(json.dumps({"error": traceback.format_exc()}))
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
