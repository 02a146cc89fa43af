"""The summary of ``tools/ab_pairs.py`` on made-up parent and change runs."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "ab_pairs.py"
_SPEC = importlib.util.spec_from_file_location("ab_pairs", _PATH)
ab_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab_pairs)

METRICS = [
    {"name": "op_ms_p50", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
]


def _runs(op_ms, ops):
    return [
        {"correct": True, "failed": 0, "metrics": {"op_ms_p50": {"value": a}, "ops_per_s": {"value": b}}}
        for a, b in zip(op_ms, ops)
    ]


def test_summary_medians_quartiles_and_wins():
    parent = _runs([2.0, 2.4, 2.2, 2.6, 2.3], [500.0, 410.0, 450.0, 380.0, 430.0])
    # pair 4 ties on op_ms_p50 and loses on ops_per_s
    change = _runs([1.5, 1.8, 1.6, 2.6, 1.7], [660.0, 550.0, 620.0, 370.0, 580.0])
    summary = ab_pairs.summarize(METRICS, parent, change)
    assert list(summary) == ["op_ms_p50", "ops_per_s"]

    op = summary["op_ms_p50"]
    assert (op["unit"], op["better"], op["pairs"]) == ("ms", "lower", 5)
    assert op["parent"] == pytest.approx({"median": 2.3, "q1": 2.2, "q3": 2.4})
    assert op["change"] == pytest.approx({"median": 1.7, "q1": 1.6, "q3": 1.8})
    assert op["change_wins"] == 4  # a tie is no win
    assert op["relative_change"] == pytest.approx(1.7 / 2.3 - 1.0)

    ops = summary["ops_per_s"]
    assert ops["better"] == "higher"
    assert ops["parent"] == pytest.approx({"median": 430.0, "q1": 410.0, "q3": 450.0})
    assert ops["change"]["median"] == pytest.approx(580.0)
    assert ops["change_wins"] == 4  # higher is better: the 370 < 380 pair is a loss


def test_summary_of_one_pair_and_a_zero_median():
    summary = ab_pairs.summarize(METRICS, _runs([0.0], [1.0]), _runs([0.5], [2.0]))
    op = summary["op_ms_p50"]
    assert op["parent"] == {"median": 0.0, "q1": 0.0, "q3": 0.0}
    assert op["change_wins"] == 0
    assert op["relative_change"] is None  # no relative change from a zero median
    assert summary["ops_per_s"]["relative_change"] == pytest.approx(1.0)
