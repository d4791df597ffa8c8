"""Tests of the benchmark itself.

    python3 -m pytest perfbench/test_bench.py

The slow ones run real jobs: a planted wrong answer and a planted exception
in a copy of the package must count as failed jobs, and the exact per-layer
counts must come out the same on every traced run.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

IGNORE = shutil.ignore_patterns("__pycache__")


def test_metric_tables_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    # splitting is left out of BENCHMARK.json: its 10 s jobs are too few per run
    # to be steady on a 2-vCPU sandbox (see README.md)
    assert [w["name"] for w in spec["workloads"]] == [
        n for n in workloads.NAMES if n != "splitting"]


def test_splitting_target_count_is_brute_force():
    assert workloads.normal_monomial_count(workloads.SL21_VARIABLES, 5, 5) == 143
    good = {"ok": True, "checked": 143, "coeff_failures": [], "recon_failures": []}
    assert workloads.problems("splitting", 0, good) == []
    assert workloads.problems("splitting", 0, dict(good, checked=142))
    assert workloads.problems("splitting", 0, dict(good, recon_failures=["e"]))


def test_digest_and_suite_checks():
    golden = workloads.GOLDEN_SHA256["whittaker"]
    ok = {"rc": 0, "sha256": golden}
    assert workloads.problems("whittaker", 7, ok) == []
    assert workloads.problems("whittaker", 7, dict(ok, sha256="0" * 64))
    assert workloads.problems("whittaker", 7, dict(ok, rc=1))
    checks = [[name, True] for name in workloads.SUITE_CHECKS]
    suite = {"rc": 0, "sha256": "0" * 64, "seed": 7, "checks": checks}
    assert workloads.problems("suite", 7, suite) == []
    assert workloads.problems("suite", 0, suite)  # seed 0 has a golden digest
    assert workloads.problems("suite", 7, dict(suite, seed=8))
    assert workloads.problems("suite", 7, dict(suite, checks=checks[1:]))
    assert workloads.problems(
        "suite", 7, dict(suite, checks=[[checks[0][0], False]] + checks[1:]))


def _checkout(tmp_path, path=None, old=None, new=None):
    """A copy of the benchmark and the package, with one planted edit."""
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=IGNORE)
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    if path is not None:
        shutil.copytree(ROOT / "src", tmp_path / "src", ignore=IGNORE)
        target = tmp_path / "src" / "superw" / path
        text = target.read_text(encoding="utf-8")
        assert old in text
        target.write_text(text.replace(old, new, 1), encoding="utf-8")
    return tmp_path


def _bench(root, *args):
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), *args],
        cwd=root, capture_output=True, text=True, timeout=170)
    return proc


def _result(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_wrong_answer_is_a_failed_job_not_a_fast_one(tmp_path):
    root = _checkout(tmp_path, "cli.py", "indent=2", "indent=1")
    proc = _bench(root, "--workload", "whittaker", "--seed", "0", "--seconds", "1")
    res = _result(proc)
    assert proc.returncode == 1
    assert res["correct"] is False
    assert res["failed"] == run.MIN_JOBS
    assert res["metrics"]["wall_s"]["value"] is None


def test_exception_is_a_failed_job_not_a_fast_one(tmp_path):
    root = _checkout(tmp_path, "wslice.py",
                     '    modulo k-fold products of shift generators.\n    """\n',
                     '    """\n    raise RuntimeError("planted")\n')
    proc = _bench(root, "--workload", "splitting", "--seed", "0", "--seconds", "1")
    res = _result(proc)
    assert proc.returncode == 1
    assert res["correct"] is False
    assert res["failed"] == run.MIN_JOBS
    assert res["metrics"]["wall_s"]["value"] is None
    assert "planted" in proc.stdout


def test_without_the_package_it_fails_without_a_result(tmp_path):
    root = _checkout(tmp_path)
    proc = _bench(root, "--workload", "walgebra", "--seed", "0", "--seconds", "1")
    assert proc.returncode != 0
    assert proc.stdout == ""


def _traced(workload):
    res = run.run_child(workload, 0, 1, time.monotonic())
    assert "error" not in res, res
    assert workloads.problems(workload, 0, res["outcome"]) == []
    assert res["trace"]["missing"] == []
    return res["trace"]


def test_exact_counts_repeat():
    split = _traced("splitting")
    assert split["spans"]["linalg.solve"][0] == 1245
    assert split["solve_distinct"] == 36
    first, second = _traced("walgebra"), _traced("walgebra")
    assert first["spans"]["starprod.star.h2"][0] == 198
    assert run._counts(first) == run._counts(second)


def test_a_removed_layer_is_a_missing_metric_not_a_crash(tmp_path):
    # the whittaker route never verifies a classical chart, so it still runs
    root = _checkout(tmp_path, "darboux.py", "    def verify(self):", "    def check(self):")
    proc = _bench(root, "--workload", "whittaker", "--seed", "0", "--seconds", "1",
                  "--trace", "1")
    res = _result(proc)
    assert proc.returncode == 0
    assert res["correct"] is True
    assert "darboux.Chart.verify.incl_s" not in res["metrics"]
    assert "darboux.equivariant_darboux.incl_s" in res["metrics"]
    assert "missing: darboux.Chart.verify" in proc.stdout
