import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("ab_trees", ROOT / "scripts" / "ab_trees.py")
ab_trees = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_trees)

TINY = {"roll_n": 3, "picard_n": 3, "grad_n": 4, "steer_n": 3, "evade_m": 2, "dsm_batch": 4,
        "train_steps": 2, "ift_n": 3}


def test_summary_of_canned_timings():
    times = {"roll": {"parent": [1.0, 2.0, 3.0, 4.0], "change": [0.9, 2.2, 3.0, 3.6]},
             "dsm": {"parent": [2.0], "change": [3.0]}}
    summary = ab_trees.summarize(times)
    assert list(summary) == ["roll", "dsm"]
    roll = summary["roll"]
    assert roll["parent_median_s"] == 2.5 and roll["change_median_s"] == 2.6
    # ratios 0.9, 1.1, 1.0, 0.9; the tie in round 3 counts for neither side
    assert roll["median_ratio"] == pytest.approx(0.95)
    assert roll["won"] == {"parent": 1, "change": 2} and roll["rounds"] == 4
    assert summary["dsm"]["median_ratio"] == 1.5
    assert summary["dsm"]["won"] == {"parent": 1, "change": 0}


def test_one_round_of_one_checkout_under_two_names(monkeypatch):
    monkeypatch.setattr(ab_trees, "SAMPLE_S", 0.001)
    result = ab_trees.run({"parent": ROOT, "change": ROOT}, 1, TINY)
    ops = ["roll", "roll8", "picard", "sdo", "sdo_full", "sdo8", "bptt", "bptt_latent",
           "bptt8", "steer", "evade", "dsm", "train", "ift", "objective", "finetune"]
    assert list(result["times"]) == ops
    assert result["same_bits"] == dict.fromkeys(ops, True)
    assert all(len(result["times"][op][side]) == 1 for op in ops for side in ab_trees.SIDES)
    parent, change = (ab_trees.sys.modules[f"ab_{side}_shortcutdiff"] for side in ab_trees.SIDES)
    assert parent is not change and parent.model is not change.model
    assert parent.model.__file__ == change.model.__file__
