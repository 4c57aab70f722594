import importlib.util
import json
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "compare_outputs.py"
_spec = importlib.util.spec_from_file_location("compare_outputs", SCRIPT)
compare_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_outputs)


def _tree(root: Path, files: dict[str, str | bytes]) -> Path:
    for rel, data in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        if isinstance(data, bytes):
            path.write_bytes(data)
        else:
            path.write_text(data, encoding="utf-8")
    return root


def _manifest(**entry):
    base = {"subcommand": "finetune", "config_hash": "aa", "seed": 0,
            "artifacts": {"runlog.csv": "bb"}}
    return json.dumps({**base, **entry}, sort_keys=True) + "\n"


def test_synthetic_trees_compare_without_timing_and_run_paths(tmp_path, capsys):
    runlog = "step,loss_or_reward,grad_l2,estimator,elapsed_s\n1,0.5,2,sdo,{t}\n"
    a = _tree(tmp_path / "a", {
        "ft/runlog.csv": runlog.format(t=0.125),
        "ft/manifest.jsonl": _manifest(out_dir="/a/ft", wall_time_s=1.0),
        "ft/model.ckpt": b"\x00\x01\x02",
        "ft/finetune_resolved.cfg": "[finetune]\nbatch = 8\nk = none\nlr = 1\n",
        "bench/bench.csv": "N,wall_time_s\n10,0.5\n",
        "bench/manifest.jsonl": _manifest(out_dir="/a/bench", wall_time_s=2.0),
        "only_a.svg": "<svg/>"})
    b = _tree(tmp_path / "b", {
        "ft/runlog.csv": runlog.format(t=0.25),
        "ft/manifest.jsonl": _manifest(out_dir="/b/ft", wall_time_s=3.0,
                                       config_hash="cc"),
        "ft/model.ckpt": b"\x00\x01\x03\x04",
        "ft/finetune_resolved.cfg": "[finetune]\nbatch = 8\nlr = 1\n",
        "bench/bench.csv": "N,wall_time_s\n10,0.75\n",
        "bench/manifest.jsonl": _manifest(out_dir="/b/bench", wall_time_s=4.0),
        "only_b.txt": "x"})
    lines = compare_outputs.compare_trees(a, b)
    assert lines == [
        "bench/bench.csv: identical",
        "bench/manifest.jsonl: identical",
        "ft/finetune_resolved.cfg: differ from line 3",
        "ft/manifest.jsonl: differ in config_hash",
        "ft/model.ckpt: differ: 3 against 4 bytes",
        "ft/runlog.csv: identical",
        "only_a.svg: only in A",
        "only_b.txt: only in B",
        "3 of 8 files identical",
    ]
    assert compare_outputs.main([str(a), str(b)]) == 1
    assert capsys.readouterr().out.splitlines() == lines
    assert compare_outputs.main([str(a), str(a)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "7 of 7 files identical"


def test_a_csv_row_that_differs_outside_the_timing_columns_is_named():
    a = b"step,loss,elapsed_s\n0,1.0,0.1\n1,0.5,0.1\n"
    b = b"step,loss,elapsed_s\n0,1.0,0.2\n1,0.25,0.1\n"
    assert compare_outputs.compare_file("x/runlog.csv", a, b) == "differ from line 3"
    # a manifest with a line more names the count
    m = _manifest().encode("utf-8")
    assert (compare_outputs.compare_file("manifest.jsonl", m, m + m)
            == "differ: 1 against 2 manifest lines")
