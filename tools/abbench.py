"""Alternating base/change pairs of perfbench runs.

    python3 tools/abbench.py REV --workload W --pairs N --seconds S

Exports commit REV (the base) into a temporary directory with ``git
archive`` and runs ``perfbench/run.py --workload W --seed K --seconds S
--trace 0`` by turns in that copy and in this checkout (the change).  Pair K
gives both runs seed K; odd pairs run the base first, even pairs the change
first, so a drift of the machine's speed falls on both sides.  For every
end-to-end metric of ``BENCHMARK.json`` it prints the median and quartiles
on each side, the change of the medians, how many pairs the change won and
a verdict against the metric's relative ``bound`` (see ``verdict``), then
one JSON line with the same summary.  A pair with a failed run is left
out of the summary and counted.  The temporary copy is removed at the end.
A workload that perfbench does not run, or ``--seconds`` outside the 1 to
120 that perfbench accepts, is a usage error (exit 2) before anything is
exported.

An export, unlike a git worktree, leaves nothing registered in the
repository when a run is interrupted.  Only the standard library is used.
"""

from __future__ import annotations

import argparse
import importlib.util
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def perfbench_workloads():
    """The workload names of perfbench/workloads.py (it imports only the
    standard library at module level)."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.NAMES


def load_metrics(root=ROOT):
    """The end-to-end metrics of BENCHMARK.json as
    ``[(name, unit, better, bound)]``, bound relative or None."""
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return [(m["name"], m.get("unit", ""), m.get("better", "lower"), m.get("bound"))
            for m in spec["end_to_end"]]


def _quartiles(values):
    """(first quartile, median, third quartile) of at least one value."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def verdict(base, change, better, bound):
    """The change's runs against the base's under a relative ``bound``.

    ``worse beyond bound`` when the change's median is worse than the
    base's by more than bound times the base median; else ``unresolved``
    when the base's quartile spread exceeds bound times its median and not
    every change run beats every base run; else ``within bound``.
    """
    sign = 1 if better == "lower" else -1
    q1, median, q3 = _quartiles(base)
    limit = bound * abs(median)
    if sign * (_quartiles(change)[1] - median) > limit:
        return "worse beyond bound"
    if q3 - q1 > limit and not all(sign * (c - b) < 0 for c in change for b in base):
        return "unresolved"
    return "within bound"


def summarize(pairs, metrics):
    """Summarize ``pairs``, a list of ``(base, change)`` result dicts.

    A result dict is the last line of a perfbench run: ``correct`` and
    ``metrics`` ``{name: {"value": v}}``, or None when the run failed.
    Returns ``{"pairs", "failed_pairs", "metrics"}``; each metric entry
    holds the base and change quartiles ``[q1, median, q3]``, the relative
    change of the medians, ``wins``, the pairs where the change was
    strictly better, and the ``bound`` with its ``verdict`` (both None
    when the metric declares no bound).
    """
    good = [(b, c) for b, c in pairs
            if b and c and b.get("correct") and c.get("correct")]
    out = {"pairs": len(good), "failed_pairs": len(pairs) - len(good), "metrics": {}}
    for name, unit, better, bound in metrics:
        both = [(b["metrics"][name]["value"], c["metrics"][name]["value"])
                for b, c in good if name in b["metrics"] and name in c["metrics"]]
        if not both:
            continue
        base = _quartiles([b for b, _ in both])
        change = _quartiles([c for _, c in both])
        sign = 1 if better == "lower" else -1
        out["metrics"][name] = {
            "unit": unit,
            "better": better,
            "base": list(base),
            "change": list(change),
            "rel_change": change[1] / base[1] - 1 if base[1] else None,
            "wins": sum(1 for b, c in both if sign * (c - b) < 0),
            "n": len(both),
            "bound": bound,
            "verdict": None if bound is None else verdict(
                [b for b, _ in both], [c for _, c in both], better, bound),
        }
    return out


def format_summary(summary):
    """The summary as human-readable lines."""
    lines = ["%d pairs, %d left out for a failed run"
             % (summary["pairs"], summary["failed_pairs"])]
    for name, m in summary["metrics"].items():
        rel = m["rel_change"]
        line = (
            "%-12s base %.4g [%.4g, %.4g] -> change %.4g [%.4g, %.4g] %s  %s, "
            "change won %d/%d (%s is better)" % (
                name, m["base"][1], m["base"][0], m["base"][2],
                m["change"][1], m["change"][0], m["change"][2], m["unit"],
                "n/a" if rel is None else "%+.1f %%" % (100 * rel),
                m["wins"], m["n"], m["better"]))
        if m["verdict"] is not None:
            line += ": %s (bound %g %%)" % (m["verdict"], 100 * m["bound"])
        lines.append(line)
    return lines


def run_once(checkout, workload, seed, seconds):
    """One untraced perfbench run in ``checkout``: its result line, or None."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=str(checkout), capture_output=True, text=True)
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        sys.stderr.write("abbench: run in %s gave no result (exit %d)\n%s"
                         % (checkout, proc.returncode, proc.stderr[-2000:]))
        return None


def export(rev, dest):
    """Write the files of commit ``rev`` of this repository into ``dest``."""
    tar = subprocess.run(["git", "archive", "--format=tar", rev], cwd=str(ROOT),
                         capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as tf:
        if hasattr(tarfile, "data_filter"):
            tf.extractall(dest, filter="data")
        else:
            tf.extractall(dest)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("rev", help="the base commit")
    ap.add_argument("--workload", required=True, choices=perfbench_workloads())
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=10,
                    help="perfbench --seconds of each run, 1 to 120")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    if not 1 <= args.seconds <= 120:  # the range perfbench/run.py accepts
        ap.error("--seconds must be 1 to 120, not %d" % args.seconds)
    check = subprocess.run(["git", "rev-parse", "--verify", args.rev + "^{commit}"],
                           cwd=str(ROOT), capture_output=True, text=True)
    if check.returncode:
        ap.error("not a commit: %s" % args.rev)

    metrics = load_metrics()
    pairs = []
    with tempfile.TemporaryDirectory(prefix="abbench-") as tmp:
        base = Path(tmp)
        export(check.stdout.strip(), base)
        for k in range(1, args.pairs + 1):
            order = (base, ROOT) if k % 2 else (ROOT, base)
            res = {where: run_once(where, args.workload, k, args.seconds)
                   for where in order}
            pairs.append((res[base], res[ROOT]))
            print("pair %d done" % k, file=sys.stderr)
    summary = summarize(pairs, metrics)
    summary["workload"] = args.workload
    summary["base"] = args.rev
    for line in format_summary(summary):
        print(line)
    print(json.dumps(summary, sort_keys=True))
    return 0 if summary["pairs"] else 1


if __name__ == "__main__":
    sys.exit(main())
