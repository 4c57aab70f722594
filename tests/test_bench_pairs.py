import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]


def _result(mix, rss, failed=0, attempted=10):
    """A perfbench result object as its last output line gives it."""
    return {"correct": not failed, "attempted": attempted, "failed": failed,
            "metrics": {"mix_ops_per_s": {"value": mix, "unit": "1/s"},
                        "peak_rss_mib": {"value": rss, "unit": "MiB"}}}


def _runs(workload, parent, change):
    return [{"workload": workload, "pair": i, "seed": 40 + i,
             "first": bench_pairs.pair_order(i)[0], "parent": p, "change": c}
            for i, (p, c) in enumerate(zip(parent, change))]


def test_pairs_alternate_which_side_runs_first():
    assert [bench_pairs.pair_order(i)[0] for i in range(4)] == [
        "parent", "change", "parent", "change"]
    assert all(sorted(bench_pairs.pair_order(i)) == ["change", "parent"] for i in range(4))


def test_summary_of_synthetic_runs():
    parent = [_result(m, 40.0) for m in (10.0, 11.0, 12.0, 13.0, 14.0)]
    change = [_result(m, r, failed=f) for m, r, f in
              ((12.0, 40.0, 0), (13.0, 41.0, 1), (12.0, 40.5, 0), (15.0, 40.0, 0),
               (16.0, 44.0, 0))]
    runs = _runs("tune", parent, change) + _runs("train", parent[:2], parent[:2])
    summary = bench_pairs.summarize(runs, SPEC)
    assert list(summary) == ["tune", "train"]

    tune = summary["tune"]
    assert tune["pairs"] == 5 and tune["seeds"] == [40, 41, 42, 43, 44]
    assert tune["failed"] == {"parent": 0, "change": 1}
    assert tune["attempted"] == {"parent": 50, "change": 50}
    mix = tune["metrics"]["mix_ops_per_s"]
    assert mix["parent"] == {"median": 12.0, "q1": 10.5, "q3": 13.5, "n": 5}
    assert mix["change"] == {"median": 13.0, "q1": 12.0, "q3": 15.5, "n": 5}
    # higher is better: the change wins 4 pairs, and 12 vs 12 is a tie
    assert mix["pairs_won"] == {"parent": 0, "change": 4}
    assert mix["gain_beyond_parent_spread"] is False  # 1.0 is not above 3.0
    assert mix["worse_by"] == pytest.approx(-1.0 / 12.0)
    rss = tune["metrics"]["peak_rss_mib"]
    # lower is better: the change is worse in 3 pairs and ties 2
    assert rss["pairs_won"] == {"parent": 3, "change": 0}
    assert rss["worse_by"] == pytest.approx(0.5 / 40.0) and rss["bound"] == 0.1
    # a metric no run reports has no sides to compare
    assert tune["metrics"]["setup_s"]["parent"]["n"] == 0
    assert "worse_by" not in tune["metrics"]["setup_s"]

    train = summary["train"]["metrics"]["mix_ops_per_s"]
    assert train["pairs_won"] == {"parent": 0, "change": 0}  # identical runs tie


def test_a_run_without_a_result_counts_and_drops_out_of_the_statistics():
    missing = {"correct": False, "attempted": 0, "failed": 0, "metrics": {},
               "error": "exit 2: no program sources"}
    runs = _runs("sample", [_result(5.0, 30.0), _result(6.0, 30.0)],
                 [_result(7.0, 30.0), missing])
    sample = bench_pairs.summarize(runs, SPEC)["sample"]
    assert sample["runs_without_result"] == {"parent": 0, "change": 1}
    mix = sample["metrics"]["mix_ops_per_s"]
    assert mix["change"] == {"median": 7.0, "q1": 7.0, "q3": 7.0, "n": 1}
    assert mix["pairs_won"] == {"parent": 0, "change": 1}
