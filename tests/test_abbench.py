"""The summary of tools/abbench.py, the alternating-pairs bench driver."""

import importlib.util
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
    assert lines[1].endswith(": within bound (bound 20 %)")
    assert "bound" not in lines[2]


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
