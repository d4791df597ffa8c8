"""The summary of tools/abbench.py, the alternating-pairs bench driver."""

import importlib.util
import subprocess
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "abbench.py"
_SPEC = importlib.util.spec_from_file_location("abbench", _PATH)
abbench = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(abbench)

METRICS = [("wall_s", "s", "lower", 0.2), ("score", "", "higher", None)]


def result(wall, score=None, correct=True):
    metrics = {"wall_s": {"value": wall, "unit": "s"}}
    if score is not None:
        metrics["score"] = {"value": score, "unit": ""}
    return {"correct": correct, "attempted": 3, "failed": 0, "metrics": metrics}


def test_summary_of_canned_pairs():
    pairs = [
        (result(1.0, 5), result(0.8, 6)),
        (result(1.2, 5), result(0.9, 4)),
        (result(0.9, 5), result(1.0, 7)),
        (result(1.1, 5), result(0.7, 5)),
        (result(1.0, 5), result(0.6, 9)),
        (result(2.0), None),  # the change's run failed
        (result(9.0, correct=False), result(0.5)),  # the base's checks failed
    ]
    s = abbench.summarize(pairs, METRICS)
    assert s["pairs"] == 5 and s["failed_pairs"] == 2
    wall = s["metrics"]["wall_s"]
    assert wall["base"] == pytest.approx([1.0, 1.0, 1.1])
    assert wall["change"] == pytest.approx([0.7, 0.8, 0.9])
    assert wall["rel_change"] == pytest.approx(-0.2)
    assert (wall["wins"], wall["n"]) == (4, 5)
    assert (wall["bound"], wall["verdict"]) == (0.2, "within bound")
    score = s["metrics"]["score"]
    assert score["change"][1] == 6
    # higher is better: 6, 7 and 9 beat 5; a tie is no win
    assert (score["wins"], score["n"]) == (3, 5)
    assert (score["bound"], score["verdict"]) == (None, None)  # no bound declared
    lines = abbench.format_summary(s)
    assert lines[0] == "5 pairs, 2 left out for a failed run"
    assert "change won 4/5" in lines[1] and "-20.0 %" in lines[1]
    assert lines[1].endswith(": within bound (bound 20 %); no gain")
    assert "bound" not in lines[2] and lines[2].endswith("; no gain")
    assert (wall["gain"], score["gain"]) == (False, False)  # 5 pairs claim none


def test_summary_of_one_pair_and_of_none():
    s = abbench.summarize([(result(2.0), result(1.0))], METRICS)
    assert s["metrics"]["wall_s"]["base"] == [2.0, 2.0, 2.0]
    assert "score" not in s["metrics"]
    empty = abbench.summarize([(None, None)], METRICS)
    assert empty == {"pairs": 0, "failed_pairs": 1, "metrics": {}}


def test_metrics_come_from_the_benchmark_declaration():
    metrics = abbench.load_metrics()
    assert [name for name, *_ in metrics][:2] == ["wall_s", "cpu_s"]
    assert all(better in ("lower", "higher") for _, _, better, _ in metrics)
    assert all(0 < bound < 1 for *_, bound in metrics)


def _verdict(base, change, better="lower"):
    pairs = [(result(b, b), result(c, c)) for b, c in zip(base, change)]
    metrics = [("wall_s", "s", better, 0.2), ("score", "", better, 0.2)]
    s = abbench.summarize(pairs, metrics)
    return s["metrics"]["wall_s" if better == "lower" else "score"]["verdict"]


def test_verdict_against_the_bound():
    tight = [1.0, 1.02, 0.98, 1.01, 0.99]  # quartile spread 0.02, median 1.0
    assert _verdict(tight, [1.1, 1.12, 1.08, 1.15, 1.1]) == "within bound"
    assert _verdict(tight, [1.3, 1.25, 1.22, 1.3, 1.4]) == "worse beyond bound"
    # a median exactly at the bound is not beyond it
    assert _verdict(tight, [1.2, 1.2, 1.2, 1.2, 1.2]) == "within bound"
    # the base spreads more than the bound: only a change that beats every
    # base run is told apart from noise
    wide = [0.6, 0.8, 1.0, 1.3, 1.5]  # quartiles 0.8, 1.0, 1.3
    assert _verdict(wide, [1.1, 0.7, 1.0, 1.2, 0.9]) == "unresolved"
    assert _verdict(wide, [0.5, 0.55, 0.4, 0.45, 0.5]) == "within bound"
    # worse beyond the bound is read before the spread
    assert _verdict(wide, [1.4, 1.3, 1.5, 1.6, 1.3]) == "worse beyond bound"
    # higher is better: a drop below the bound is worse
    assert _verdict([10, 10, 10, 10, 10], [7, 7, 8, 7, 7], "higher") == "worse beyond bound"
    assert _verdict([10, 10, 10, 10, 10], [9, 9, 9, 9, 9], "higher") == "within bound"
    assert _verdict([6, 8, 10, 13, 15], [9, 12, 10, 11, 8], "higher") == "unresolved"
    assert _verdict([6, 8, 10, 13, 15], [16, 17, 16, 18, 20], "higher") == "within bound"


def _gain(base, change, better="lower"):
    pairs = [(result(b), result(c)) for b, c in zip(base, change)]
    s = abbench.summarize(pairs, [("wall_s", "s", better, 0.2)])
    return s["metrics"]["wall_s"]["gain"], abbench.format_summary(s)[1]


def test_gain_needs_ten_pairs_nine_wins_and_a_gap_past_the_spread():
    # quartiles 0.9925 and 1.01: a spread of 0.0175 around the median 1.0
    base = [1.0, 1.02, 0.98, 1.01, 0.99, 1.0, 1.03, 0.97, 1.0, 1.01]
    faster = [b - 0.1 for b in base]
    got, line = _gain(base, faster)
    assert got and line.endswith(": within bound (bound 20 %); gain")
    # 9 wins of 10 are enough, 8 are not, though the medians stay as far apart
    slower = [b + 0.01 for b in base]
    assert _gain(base, faster[:9] + slower[9:])[0]
    got, line = _gain(base, faster[:8] + slower[8:])
    assert not got and line.endswith("; no gain")
    # every pair won, but the gap between the medians is within the spread
    wide = [0.6, 0.8, 1.0, 1.3, 1.5, 0.7, 0.9, 1.1, 1.2, 1.4]  # spread 0.45
    assert not _gain(wide, [b - 0.3 for b in wide])[0]
    assert _gain(wide, [b - 0.5 for b in wide])[0]
    # fewer than 10 pairs claim nothing, however clear
    assert not _gain(base[:9], faster[:9])[0]
    # higher is better: the change must be higher
    assert _gain([10] * 10, [12] * 10, "higher")[0]
    assert not _gain([10] * 10, [8] * 10, "higher")[0]


def test_bad_workload_or_seconds_is_a_usage_error_before_any_export(monkeypatch, capsys):
    def forbidden(*args, **kwargs):
        pytest.fail("nothing may be exported or run for a usage error")

    monkeypatch.setattr(abbench, "export", forbidden)
    monkeypatch.setattr(abbench, "run_once", forbidden)
    assert "suite" in abbench.perfbench_workloads()
    for argv, message in (
            (["HEAD", "--workload", "walgebar"], "invalid choice: 'walgebar'"),
            (["HEAD", "--workload", "all"], "invalid choice: 'all'"),
            (["HEAD", "--workload", "suite", "--seconds", "0"], "1 to 120, not 0"),
            (["HEAD", "--workload", "suite", "--seconds", "121"], "1 to 120, not 121")):
        with pytest.raises(SystemExit) as exit_:
            abbench.main(argv)
        assert exit_.value.code == 2
        assert message in capsys.readouterr().err


def _git(repo, *args):
    return subprocess.run(["git", "-c", "commit.gpgsign=false", *args], cwd=str(repo),
                          capture_output=True, text=True, check=True).stdout.strip()


def test_both_sides_run_in_exports_and_a_dirty_tree_exports_its_stash_commit(
        monkeypatch, tmp_path, capsys):
    for role in ("AUTHOR", "COMMITTER"):
        monkeypatch.setenv("GIT_%s_NAME" % role, "bench")
        monkeypatch.setenv("GIT_%s_EMAIL" % role, "bench@example.invalid")
    repo = tmp_path / "repo"
    repo.mkdir()
    _git(repo, "init", "-q")
    (repo / "f.txt").write_text("committed\n")
    _git(repo, "add", "f.txt")
    _git(repo, "commit", "-q", "-m", "base")
    head = _git(repo, "rev-parse", "HEAD")
    exported, ran = [], []

    def export(rev, dest):
        exported.append((rev, Path(dest)))

    def run_once(checkout, workload, seed, seconds):
        ran.append(Path(checkout))
        return result(1.0)

    real_root = abbench.ROOT
    monkeypatch.setattr(abbench, "ROOT", repo)
    monkeypatch.setattr(abbench, "perfbench_workloads", lambda: ("suite",))
    monkeypatch.setattr(abbench, "export", export)
    monkeypatch.setattr(abbench, "run_once", run_once)

    def bench():
        exported.clear()
        ran.clear()
        assert abbench.main(["HEAD", "--workload", "suite", "--pairs", "2"]) == 0
        capsys.readouterr()
        (base_rev, base), (change_rev, change) = exported
        assert base != change and not {base, change} & {repo, real_root}
        # every run is in one of the two exports, the base first in pair 1
        assert ran == [base, change, change, base]
        return base_rev, change_rev

    assert bench() == (head, "HEAD")  # a clean tree is its HEAD
    (repo / "f.txt").write_text("changed\n")
    base_rev, change_rev = bench()
    assert base_rev == head and change_rev not in (head, "HEAD")
    assert _git(repo, "show", change_rev + ":f.txt") == "changed"
    # the stash commit leaves the tree and the stash list alone
    assert (repo / "f.txt").read_text() == "changed\n"
    assert _git(repo, "stash", "list") == ""
