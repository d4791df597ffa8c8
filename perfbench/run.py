"""Outside-in benchmark of the superw pipeline.

    python3 perfbench/run.py                      # every workload, untraced then traced
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Load is closed-loop: one job at a time, each in a fresh child process
(``child.py``), so memos and peak RSS belong to that job alone.  An untraced
run (``--trace 0``) reports the end-to-end metrics; a traced run
(``--trace 1``) alternates untraced and traced jobs and reports the per-layer
metrics and the tracing overhead.  Every job's output is checked; a failed
check or a crash counts as a failed job, its time is left out, and the run
exits 1.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"

SETUP_PROBES = 10  # set-up-only children per untraced run, besides the jobs
MIN_JOBS = 3  # timed jobs per untraced run, even when they overrun --seconds
RUN_LIMIT_S = 170  # a child still running this long after the run began is killed
# Times are reported at reference speed: each child's times are scaled by
# REF_CALIB_S over its own calibration time (see child.calibrate).  0.1 s is
# the median calibration time measured on the seed commit's 2-vCPU sandbox.
REF_CALIB_S = 0.1

END_TO_END = (
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("setup_s", "s"),
)

PER_LAYER = (
    ("linalg.rref.calls", "count"),
    ("linalg.rref.self_s", "s"),
    ("linalg.rref.cells", "count"),
    ("linalg.nullspace.calls", "count"),
    ("linalg.nullspace.self_s", "s"),
    ("linalg.solve.calls", "count"),
    ("linalg.solve.self_s", "s"),
    ("linalg.solve.distinct_frac", "ratio"),
    ("linalg.expand_filtered.calls", "count"),
    ("linalg.expand_filtered.self_s", "s"),
    ("starprod.star.h2.calls", "count"),
    ("starprod.star.h2.self_s", "s"),
    ("starprod.star.unit.calls", "count"),
    ("starprod.star.unit.self_s", "s"),
    ("starprod.quantum_darboux.incl_s", "s"),
    ("starprod.quantum_darboux.self_s", "s"),
    ("starprod.QuantumChart.verify.incl_s", "s"),
    ("poisson.bracket.calls", "count"),
    ("poisson.bracket.self_s", "s"),
    ("darboux.equivariant_darboux.incl_s", "s"),
    ("darboux.equivariant_darboux.self_s", "s"),
    ("darboux.Chart.verify.incl_s", "s"),
    ("supercore.Series.mul.calls", "count"),
    ("supercore.Series.mul.self_s", "s"),
    ("wslice.whittaker_walgebra.self_s", "s"),
    ("wslice.slice_walgebra.self_s", "s"),
    ("wslice.compare_realizations.incl_s", "s"),
    ("wslice.splitting_check.self_s", "s"),
    ("wslice.slice_setup.incl_s", "s"),
    ("algebras.load_algebra.incl_s", "s"),
    ("cli.main.self_s", "s"),
    ("cli.report_bytes", "bytes"),
    ("trace.overhead_frac", "ratio"),
)

LAYER_NAMES = frozenset(name for _, _, name in spans.LAYERS)


# -- children -------------------------------------------------------------


def run_child(workload, seed, trace, run_start, setup_only=False):
    """Run one child to completion; return its JSON result, or one with ``error``.

    The parent adds ``setup_raw_s`` (spawn to the child's set-up stamp, on
    the shared monotonic clock), ``peak_rss_mb`` (the child's own peak RSS,
    from ``wait4``), ``elapsed_s`` (spawn to exit) and ``scale``, the factor
    that brings the job's times to reference speed.  ``setup_s`` is the
    set-up time scaled by the calibration right after it.
    """
    limit = max(1, int(RUN_LIMIT_S - (time.monotonic() - run_start)))
    argv = [sys.executable, str(CHILD), "--workload", workload,
            "--seed", str(seed), "--trace", str(trace), "--limit", str(limit)]
    if setup_only:
        argv.append("--setup-only")
    env = dict(os.environ, PYTHONPATH=str(SRC), PERFBENCH_SRC=str(SRC))
    start = time.monotonic()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                            env=env, cwd=str(ROOT))
    with proc.stdout:
        text = proc.stdout.read().decode("utf-8", "replace")
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    elapsed = time.monotonic() - start
    lines = text.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = {"error": "no result (exit %d): %s" % (proc.returncode, text[-2000:])}
    if proc.returncode != 0 and "error" not in result:
        result = {"error": "exit code %d" % proc.returncode}
    if "error" not in result:
        calib = result["calib_s"]
        result["setup_raw_s"] = result["setup_end"] - start
        result["setup_s"] = result["setup_raw_s"] * REF_CALIB_S / calib[0]
        result["scale"] = REF_CALIB_S / statistics.fmean(calib)
        result["peak_rss_mb"] = usage.ru_maxrss / 1024.0
    result["elapsed_s"] = elapsed
    return result


class Run:
    """The children of one run and what was wrong with them."""

    def __init__(self, workload, seed):
        self.workload = workload
        self.seed = seed
        self.start = time.monotonic()
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self._digest = None

    def elapsed(self):
        return time.monotonic() - self.start

    def child(self, trace, setup_only=False):
        """Run and check one child; return its result, or None if it failed."""
        self.attempted += 1
        res = run_child(self.workload, self.seed, trace, self.start, setup_only)
        found = []
        if "error" in res:
            found.append(res["error"].strip())
        elif not setup_only:
            out = res["outcome"]
            found = workloads.problems(self.workload, self.seed, out)
            digest = out.get("sha256")
            if self._digest is None:
                self._digest = digest
            elif digest != self._digest:
                found.append("report differs from the first job of this run")
        if found:
            self.failed += 1
            self.problems.extend(found)
            return None
        return res


def _median(values):
    return statistics.median(values) if values else None


def _more_fits(elapsed, durations, seconds):
    """Closed loop: start another job only if it should end within the run."""
    return elapsed + statistics.median(durations) <= seconds


def measure(workload, seed, seconds):
    """Untraced run: set-up probes, then timed jobs for ``seconds``."""
    run = Run(workload, seed)
    # The first child compiles bytecode and warms the file cache; every later
    # child, like a user's second command, finds both ready.
    run.child(0, setup_only=True)
    setups = [r for r in (run.child(0, setup_only=True)
                          for _ in range(SETUP_PROBES)) if r]
    jobs, durations = [], []
    while len(durations) < MIN_JOBS or _more_fits(run.elapsed(), durations, seconds):
        res = run.child(0)
        durations.append(res["elapsed_s"] if res else 0.0)
        if res:
            jobs.append(res)
            setups.append(res)
    walls = [r["wall_s"] * r["scale"] for r in jobs]
    metrics = {
        "wall_s": _median(walls),
        "cpu_s": _median([r["cpu_s"] * r["scale"] for r in jobs]),
        "peak_rss_mb": _median([r["peak_rss_mb"] for r in jobs]),
        "setup_s": _median([r["setup_s"] for r in setups]),
    }
    notes = {
        "wall_s": _wall_note(walls, [r["wall_s"] for r in jobs]),
        "cpu_s": "unscaled median %s" % _fmt(_median([r["cpu_s"] for r in jobs])),
        "setup_s": "median of n=%d; unscaled median %s" % (
            len(setups), _fmt(_median([r["setup_raw_s"] for r in setups]))),
    }
    return run, metrics, dict(END_TO_END), notes


def _fmt(value):
    return "n/a" if value is None else "%.6g" % value


def _wall_note(walls, unscaled):
    """Sample count, samples, unscaled median, and the tail percentile.

    The tail is the highest percentile with at least ten samples above it,
    reported only when it lies above the median, that is from 21 samples on.
    """
    n = len(walls)
    walls = sorted(walls)
    note = "median of n=%d (%s); unscaled median %s; " % (
        n, " ".join("%.3f" % w for w in walls), _fmt(_median(unscaled)))
    if n < 21:
        return note + "no tail percentile above the median (needs n >= 21)"
    k = n - 11
    return note + "p%d = %.4f s" % (100 * (k + 1) // n, walls[k])


def measure_traced(workload, seed, seconds):
    """Traced run: alternate untraced and traced jobs for ``seconds``."""
    run = Run(workload, seed)
    plain, traced, durations = [], [], []
    while not durations or _more_fits(run.elapsed(), durations, seconds):
        t0 = time.monotonic()
        a = run.child(0)
        b = run.child(1)
        durations.append(time.monotonic() - t0)
        if a:
            plain.append(a)
        if b:
            traced.append(b)
    metrics, units = {}, dict(PER_LAYER)
    notes = {}
    if traced:
        first = traced[0]["trace"]
        for other in traced[1:]:
            if _counts(other["trace"]) != _counts(first):
                run.failed += 1
                run.problems.append("per-layer counts differ between traced jobs")
        notes["wrapped"] = first["wrapped"]
        notes["missing"] = first["missing"]
        metrics = _layer_metrics(traced, plain, first)
    return run, metrics, units, notes


def _counts(trace):
    return ({k: v[0] for k, v in trace["spans"].items()},
            trace["rref_cells"], trace["solve_distinct"])


def _layer_metrics(traced, plain, first):
    missing = set(first["missing"])

    def span_values(span, field):
        if field == "calls":
            return [t["trace"]["spans"].get(span, [0])[0] for t in traced]
        idx = {"self_s": 1, "incl_s": 2}[field]
        return [t["trace"]["spans"].get(span, [0, 0.0, 0.0])[idx] * t["scale"]
                for t in traced]

    metrics = {}
    for name, _ in PER_LAYER:
        span, _, field = name.rpartition(".")
        layer = span if span in LAYER_NAMES else span.rpartition(".")[0]
        if name == "cli.report_bytes":
            layer = "cli.main"
        if layer in missing:
            continue
        if name == "trace.overhead_frac":
            if plain:
                value = (_median([t["wall_s"] * t["scale"] for t in traced])
                         / _median([p["wall_s"] * p["scale"] for p in plain]) - 1.0)
            else:
                continue
        elif name == "cli.report_bytes":
            value = traced[0]["outcome"].get("report_bytes", 0)
        elif name == "linalg.rref.cells":
            value = first["rref_cells"]
        elif name == "linalg.solve.distinct_frac":
            calls = span_values("linalg.solve", "calls")[0]
            value = first["solve_distinct"] / calls if calls else 0.0
        elif field == "calls":
            value = span_values(span, field)[0]
        else:
            value = _median(span_values(span, field))
        metrics[name] = value
    return metrics


# -- output -----------------------------------------------------------------


def _print_metrics(workload, run, metrics, units, notes):
    print("== %s, seed %d, %s" % (workload, run.seed,
                                  "traced" if "wrapped" in notes else "untraced"))
    print("   %-38s %12.6g %-6s %d of %d children" % (
        "fail_frac", run.failed / run.attempted, "ratio", run.failed, run.attempted))
    for name, unit in units.items():
        if name not in metrics:
            print("   %-38s missing" % name)
            continue
        note = notes.get(name, "")
        print("   %-38s %12s %-6s %s" % (name, _fmt(metrics[name]), unit, note))
    for key in ("wrapped", "missing"):
        if key in notes:
            print("   %s: %s" % (key, ", ".join(notes[key]) or "none"))
    for p in run.problems:
        print("   FAILED: %s" % p)


def _result_line(correct, attempted, failed, metrics, units):
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    })


def _seconds(text):
    value = int(text)
    if not 1 <= value <= 120:
        raise argparse.ArgumentTypeError("must be 1 to 120, not %d" % value)
    return value


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=workloads.NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=_seconds, default=40,
                    help="how long one run measures, 1 to 120")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "superw" / "__init__.py").is_file():
        print("perfbench: no superw package under %s; run from a checkout of the "
              "repository" % SRC, file=sys.stderr)
        return 2

    if args.workload != "all":
        how = measure_traced if args.trace else measure
        run, metrics, units, notes = how(args.workload, args.seed, args.seconds)
        _print_metrics(args.workload, run, metrics, units, notes)
        correct = run.failed == 0
        print(_result_line(correct, run.attempted, run.failed, metrics, units))
        return 0 if correct else 1

    attempted = failed = 0
    merged, merged_units = {}, {}
    for workload in workloads.NAMES:
        w_attempted = w_failed = 0
        for how in (measure, measure_traced):
            run, metrics, units, notes = how(workload, args.seed, args.seconds)
            _print_metrics(workload, run, metrics, units, notes)
            w_attempted += run.attempted
            w_failed += run.failed
            for k, v in metrics.items():
                merged["%s.%s" % (workload, k)] = v
                merged_units["%s.%s" % (workload, k)] = units[k]
        merged["%s.fail_frac" % workload] = w_failed / w_attempted
        merged_units["%s.fail_frac" % workload] = "ratio"
        attempted += w_attempted
        failed += w_failed
    correct = failed == 0
    print(_result_line(correct, attempted, failed, merged, merged_units))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
