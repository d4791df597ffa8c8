"""The summary of tools/abbench.py, the alternating-pairs bench driver."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "abbench.py"
_SPEC = importlib.util.spec_from_file_location("abbench", _PATH)
abbench = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(abbench)

METRICS = [("wall_s", "s", "lower"), ("score", "", "higher")]


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
    score = s["metrics"]["score"]
    assert score["change"][1] == 6
    # higher is better: 6, 7 and 9 beat 5; a tie is no win
    assert (score["wins"], score["n"]) == (3, 5)
    lines = abbench.format_summary(s)
    assert lines[0] == "5 pairs, 2 left out for a failed run"
    assert "change won 4/5" in lines[1] and "-20.0 %" in lines[1]


def test_summary_of_one_pair_and_of_none():
    s = abbench.summarize([(result(2.0), result(1.0))], METRICS)
    assert s["metrics"]["wall_s"]["base"] == [2.0, 2.0, 2.0]
    assert "score" not in s["metrics"]
    empty = abbench.summarize([(None, None)], METRICS)
    assert empty == {"pairs": 0, "failed_pairs": 1, "metrics": {}}


def test_metrics_come_from_the_benchmark_declaration():
    names = [name for name, _, _ in abbench.load_metrics()]
    assert names[:2] == ["wall_s", "cpu_s"]
    assert all(better in ("lower", "higher") for _, _, better in abbench.load_metrics())
