import importlib.util
import json
from pathlib import Path

import numpy as np

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "compare_engines.py"
_spec = importlib.util.spec_from_file_location("compare_engines", SCRIPT)
compare_engines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_engines)


def _entry(grad, j):
    return compare_engines._entry(np.asarray(grad), J=float(j).hex())


def test_diff_reports_fd_oracle_entries_in_ulps_of_j_over_2h():
    j = 0.75
    unit = np.spacing(j) / (2.0 * compare_engines.engines.FD_STEP)  # one ulp of J over 2h
    g = np.array([1e-4, -2e-4])
    a = {"p/latent-pass-fd-oracle": _entry(g, j),
         "p/latent-pass-sdo": _entry(g, j),
         "p/sdo-full": _entry(g, j),
         "p/only-a": _entry(g, j)}
    b = {"p/latent-pass-fd-oracle": _entry(g + [0.0, 0.25 * unit], j),
         "p/latent-pass-sdo": _entry(g + [0.0, 0.25 * unit], j),
         "p/sdo-full": _entry(g, 0.5)}
    lines = dict(line.split(": ", 1) for line in compare_engines.diff(a, b))
    assert lines["p/latent-pass-fd-oracle"] == ("max difference 0.25 ulp(J)/2h "
                                                "(max abs 1.39e-12); J bit-identical")
    # every other entry keeps the relative report
    assert lines["p/latent-pass-sdo"] == ("max relative difference 6.94e-09 "
                                          "(max abs 1.39e-12); J bit-identical")
    assert lines["p/sdo-full"] == "array bit-identical; J differ"
    assert lines["p/only-a"] == "only in A"
    assert compare_engines.diff(a, a) == [f"{key}: bit-identical" for key in sorted(a)]


def test_summary_names_the_kinds_that_differ_and_their_largest_relative_difference():
    g = np.array([2.0, -4.0])
    a = {"p/N=7/bptt-params": _entry(g, 1.0), "p/N=30/bptt-params": _entry(g, 1.0),
         "p/N=7/truncated-3": _entry(g, 1.0), "p/N=7/sdo-full": _entry(g, 1.0),
         "p/N=7/ift-params": _entry(g, 1.0)}
    b = dict(a)
    b["p/N=7/bptt-params"] = _entry(g + [0.0, np.spacing(4.0)], 1.0)  # 2^-52 of 4
    b["p/N=30/bptt-params"] = _entry(g, 2.0)  # scalars only
    b["p/N=7/truncated-3"] = _entry(g + [np.spacing(2.0), 0.0], 1.0)
    del b["p/N=7/ift-params"]
    a["p/N=7/sdo"] = compare_engines._entry(g, J=(1.0).hex(), nodes=6)
    b["p/N=7/sdo"] = compare_engines._entry(g, J=(1.0).hex(), nodes=5)  # nodes only
    assert compare_engines.summary(a, b) == (
        "1 of 6 entries bit-identical; 1 differ only in nodes (sdo 1); 4 differ "
        "otherwise (bptt-params 2, ift-params 1, truncated-3 1), max relative "
        "difference 2.22e-16")
    assert compare_engines.summary(a, a) == "6 of 6 entries bit-identical"
    node_only = {key: a[key] for key in ("p/N=7/sdo-full", "p/N=7/sdo")}
    assert compare_engines.summary(node_only, {**node_only, "p/N=7/sdo": b["p/N=7/sdo"]}) == (
        "1 of 2 entries bit-identical; 1 differ only in nodes (sdo 1); 0 differ otherwise")


def test_diff_exits_1_when_any_entry_differs_or_is_missing(tmp_path, capsys):
    g = np.array([2.0, -4.0])
    a = {"p/N=7/sdo-full": _entry(g, 1.0), "p/N=7/bptt-params": _entry(g, 1.0)}
    dumps = {"a": a, "same": dict(a), "scalars": {**a, "p/N=7/sdo-full": _entry(g, 2.0)},
             "missing": {"p/N=7/sdo-full": a["p/N=7/sdo-full"]}}
    for name, dump in dumps.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(dump), encoding="utf-8")
    codes = {name: compare_engines.main(["--diff", str(tmp_path / "a.json"),
                                         str(tmp_path / f"{name}.json")])
             for name in dumps}
    assert codes == {"a": 0, "same": 0, "scalars": 1, "missing": 1}
    assert capsys.readouterr().out.splitlines()[-1] == (
        "1 of 2 entries bit-identical; 0 differ only in nodes; 1 differ otherwise "
        "(bptt-params 1)")
