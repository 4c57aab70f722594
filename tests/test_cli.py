import dataclasses
import json
import re
from pathlib import Path

import numpy as np
import pytest

from shortcutdiff import drivers, engines, sampler
from shortcutdiff.assets import asset_path
from shortcutdiff.cli import main
from shortcutdiff.checkpoint import load_checkpoint, save_checkpoint
from shortcutdiff.config import (SCHEMAS, ConfigError, load_config, parse_config_text,
                                 resolve_section, resolved_text)
from shortcutdiff.drivers import FinetuneConfig, LatentOptConfig
from shortcutdiff.model import Denoiser, DenoiserField, TrainConfig
from shortcutdiff.objectives import (KINDS as OBJECTIVE_KINDS, ClassifierMargin,
                                     Composite, RbfReward)
from shortcutdiff.reporting import csv_without_timing, hash_artifact, line_plot_svg
from shortcutdiff.sampler import rollout
from shortcutdiff.schedule import Schedule

TINY_TRAIN = """
[train]
dataset = gaussian-mixture-ring
dataset_seed = 1
modes = 4
radius = 0.8
noise = 0.1
n_steps = 6
hidden = 6
steps = 30
batch = 8
lr = 0.002
seed = 7
checkpoint = tiny.ckpt
"""


def write_cfg(tmp_path, text, name="exp.cfg"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


@pytest.fixture(scope="module")
def tiny_ckpt(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("tinymodel")
    cfg = write_cfg(tmp, TINY_TRAIN)
    assert main(["train", "--config", str(cfg), "--out", str(tmp / "out"),
                 "--quiet"]) == 0
    return tmp / "out" / "tiny.ckpt"


# ------------------------------------------------------------------ config

def test_parse_sections_and_comments():
    text = "# comment\n[train]\nsteps = 5  # trailing\n\n[bench]\ndraws = 2\n"
    sections = parse_config_text(text)
    assert sections == {"train": {"steps": "5"}, "bench": {"draws": "2"}}


def test_unknown_key_rejected_by_name():
    with pytest.raises(ConfigError, match="optimizer_momentum"):
        resolve_section("train", {"dataset": "two-moons",
                                  "optimizer_momentum": "0.9"})


# Every key whose value is a float or a list of floats, by section.
FLOAT_KEYS = {"train": ["radius", "noise", "gap", "beta_min", "beta_max", "lr", "t_min"],
              "verify": ["tolerance"],
              "bench": ["target", "center", "width"],
              "optimize": ["target", "center", "width", "mix", "reference", "lr", "tau"],
              "finetune": ["center", "width", "lr", "grad_clip"]}
REQUIRED_KEYS = {"train": {"dataset": "two-moons"}, "verify": {}, "bench": {"checkpoint": "x"},
                 "optimize": {"checkpoint": "x"}, "finetune": {"checkpoint": "x"}}


def test_the_float_keys_are_every_key_that_reads_a_float():
    for section, schema in SCHEMAS.items():
        floats = []
        for key, (parse, _) in schema.items():
            try:
                value = parse("1.5")
            except ValueError:
                continue
            if isinstance(value, float) or value == (1.5,):
                floats.append(key)
        assert floats == FLOAT_KEYS[section], section


@pytest.mark.parametrize("section, key",
                         [(section, key) for section in FLOAT_KEYS for key in FLOAT_KEYS[section]])
def test_a_float_key_that_is_not_finite_is_a_config_error_naming_it(section, key):
    many = isinstance(SCHEMAS[section][key][1], tuple)
    for text in ("nan", "inf", "-inf", "NaN", "1e400"):
        for value in [text] + (["1.0," + text] if many else []):
            with pytest.raises(ConfigError, match=f"^\\[{section}\\] bad value for '{key}': "
                                                 "not a finite number: "):
                resolve_section(section, {**REQUIRED_KEYS[section], key: value})
    resolve_section(section, {**REQUIRED_KEYS[section], key: "0.5"})  # a finite value reads


def test_missing_required_key_named():
    with pytest.raises(ConfigError, match="dataset"):
        resolve_section("train", {"steps": "5"})
    with pytest.raises(ConfigError, match="checkpoint"):
        resolve_section("bench", {})


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError, match="duplicate key"):
        parse_config_text("[train]\nsteps = 1\nsteps = 2\n")


def test_resolved_text_reparses_identically(tmp_path):
    cfg = resolve_section("train", {"dataset": "two-moons", "steps": "12"})
    text = resolved_text("train", cfg)
    again = resolve_section("train", parse_config_text(text)["train"])
    assert again == cfg


def test_resolved_text_writes_each_kind_of_value():
    cfg = resolve_section("optimize", {"checkpoint": "c.ckpt", "target": "1, -0.5",
                                       "evade": "yes", "lr": "0.1"})
    lines = resolved_text("optimize", cfg).splitlines()
    for line in ("checkpoint = c.ckpt", "target = 1,-0.5", "evade = true",
                 "track_best = true", "clamp_samples = false", "m = none", "tau = none",
                 "lr = 0.10000000000000001", "steps = 200", "classifier = "):
        assert line in lines


def test_load_config_missing_section(tmp_path):
    p = write_cfg(tmp_path, "[train]\ndataset = two-moons\n")
    with pytest.raises(ConfigError, match="no \\[bench\\] section"):
        load_config(p, "bench")


# --------------------------------------------------------------------- cli

def test_train_is_deterministic(tmp_path):
    cfg = write_cfg(tmp_path, TINY_TRAIN)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["train", "--config", str(cfg), "--out", str(out1), "--quiet"]) == 0
    assert main(["train", "--config", str(cfg), "--out", str(out2), "--quiet"]) == 0
    assert (out1 / "tiny.ckpt").read_bytes() == (out2 / "tiny.ckpt").read_bytes()
    assert (out1 / "loss.csv").read_bytes() == (out2 / "loss.csv").read_bytes()


def test_train_loss_csv_ends_with_final_loss(tmp_path):
    cfg = write_cfg(tmp_path, TINY_TRAIN)
    out = tmp_path / "out"
    assert main(["train", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
    lines = (out / "loss.csv").read_text().strip().splitlines()
    assert lines[0] == "step,loss"
    assert len(lines) == 31
    assert lines[-1].startswith("29,")


def test_train_seed_flag_overrides(tmp_path):
    cfg = write_cfg(tmp_path, TINY_TRAIN)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["train", "--config", str(cfg), "--out", str(out1),
                 "--seed", "7", "--quiet"]) == 0
    assert main(["train", "--config", str(cfg), "--out", str(out2),
                 "--seed", "8", "--quiet"]) == 0
    assert (out1 / "tiny.ckpt").read_bytes() != (out2 / "tiny.ckpt").read_bytes()


def test_a_diverging_train_run_is_a_numeric_abort_that_writes_nothing(tmp_path, capsys):
    cfg = write_cfg(tmp_path, TINY_TRAIN.replace("lr = 0.002", "lr = 1e300"))
    out = tmp_path / "out"
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(["train", "--config", str(cfg), "--out", str(out), "--quiet"]) == 3
    assert capsys.readouterr().err.startswith("numeric abort: training diverged at step 1")
    assert list(out.iterdir()) == []  # no checkpoint, loss, resolved config or manifest


def test_unknown_config_key_exit_code(tmp_path):
    cfg = write_cfg(tmp_path, "[train]\ndataset = two-moons\nwidth = 3\n")
    assert main(["train", "--config", str(cfg), "--out",
                 str(tmp_path / "o"), "--quiet"]) == 2


def test_missing_dataset_key_exit_code(tmp_path):
    cfg = write_cfg(tmp_path, "[train]\nsteps = 5\n")
    assert main(["train", "--config", str(cfg), "--out",
                 str(tmp_path / "o"), "--quiet"]) == 2


def test_verify_builtin_passes(tmp_path):
    cfg = write_cfg(tmp_path, "[verify]\n")
    out = tmp_path / "out"
    assert main(["verify", "--config", str(cfg), "--out", str(out),
                 "--quiet"]) == 0
    report = (out / "verify_report.csv").read_text().splitlines()
    assert report[0] == "check,value,threshold,status"
    assert all(",FAIL" not in line for line in report)


def test_verify_summary_counts_the_rows_with_a_threshold(tmp_path, tiny_ckpt, capsys):
    cfg = write_cfg(tmp_path, f"[verify]\ncheckpoint = {tiny_ckpt}\nn_steps = 6\n")
    out = tmp_path / "out"
    assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 0
    statuses = [line.rsplit(",", 1)[1]
                for line in (out / "verify_report.csv").read_text().splitlines()[1:]]
    checks, info = sum(s != "info" for s in statuses), statuses.count("info")
    assert info > 0 and checks > 0
    assert (f"all {checks} checks passed; {info} report-only rows"
            in capsys.readouterr().out.splitlines())


def test_verify_checkpoint_and_corruption(tmp_path, tiny_ckpt):
    cfg = write_cfg(tmp_path, f"[verify]\ncheckpoint = {tiny_ckpt}\nn_steps = 6\n")
    out = tmp_path / "ok"
    assert main(["verify", "--config", str(cfg), "--out", str(out),
                 "--quiet"]) == 0
    text = (out / "verify_report.csv").read_text()
    assert "fixed-point-checkpoint" in text

    broken = tmp_path / "broken.ckpt"
    raw = bytearray(Path(tiny_ckpt).read_bytes())
    raw[2] ^= 0x55
    broken.write_bytes(bytes(raw))
    cfg2 = write_cfg(tmp_path, f"[verify]\ncheckpoint = {broken}\n", "b.cfg")
    assert main(["verify", "--config", str(cfg2), "--out",
                 str(tmp_path / "bad"), "--quiet"]) == 2


def test_verify_nonfinite_sample_is_numeric_abort(tmp_path, tiny_ckpt):
    # finite weights whose output bias overflows the first sampled state
    den, sched = load_checkpoint(tiny_ckpt)
    huge = Denoiser(den.data_dim, den.hidden, den.parameterization,
                    [*den.weights[:-1], np.full_like(den.weights[-1], 1e308)])
    ckpt = tmp_path / "huge.ckpt"
    save_checkpoint(ckpt, huge, sched)
    cfg = write_cfg(tmp_path, f"[verify]\ncheckpoint = {ckpt}\nn_steps = 6\n")
    with np.errstate(over="ignore"):
        assert main(["verify", "--config", str(cfg), "--out",
                     str(tmp_path / "out"), "--quiet"]) == 3


def test_corrupt_checkpoint_is_a_checkpoint_error(tmp_path, capsys):
    ckpt = tmp_path / "garbage.ckpt"
    ckpt.write_bytes(b"SDOCKPT1garbage")  # 15 bytes: shorter than the header
    cfg = write_cfg(tmp_path, f"""
[finetune]
checkpoint = {ckpt}
objective = rbf-reward
center = 0.5,0.0
""")
    assert main(["finetune", "--config", str(cfg), "--out", str(tmp_path / "out"),
                 "--quiet"]) == 2
    assert capsys.readouterr().err.startswith(
        "checkpoint error: truncated header: file has 15 bytes")


def _drop_weights(payload):
    del payload["weights"]


def _nan_weight(payload):
    payload["weights"][0][0][0] = float("nan")


def _short_output_weight(payload):
    payload["weights"][2] = np.ravel(payload["weights"][2])[:-1].tolist()


def _three_arrays(payload):
    del payload["weights"][3]


@pytest.mark.parametrize("edit, named", [
    (_drop_weights, "missing key 'weights'"),
    (_nan_weight, "weights[0] has non-finite entries"),
    (_short_output_weight, "weights[2] has shape (1, 127); expected (1, 128)"),
    (_three_arrays, "3 weight arrays"),
])
def test_corrupt_classifier_file_is_a_named_error(tmp_path, tiny_ckpt, capsys,
                                                  edit, named):
    payload = json.loads(Path(asset_path("evasion_classifier.json")).read_text())
    edit(payload)
    clf = tmp_path / "clf.json"
    clf.write_text(json.dumps(payload), encoding="utf-8")
    cfg = write_cfg(tmp_path, f"[optimize]\ncheckpoint = {tiny_ckpt}\n"
                              "objective = classifier-margin\n"
                              f"classifier = {clf}\nlabel = 0\nsteps = 1\n")
    assert main(["optimize", "--config", str(cfg), "--out", str(tmp_path / "out"),
                 "--quiet"]) == 2
    err = capsys.readouterr().err
    assert f"classifier file {clf}: {named}" in err
    assert "Traceback" not in err


def test_verify_singular_ift_system_is_numeric_abort(tmp_path, capsys, monkeypatch):
    def singular(a, b):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "solve", singular)
    cfg = write_cfg(tmp_path, "[verify]\n")
    assert main(["verify", "--config", str(cfg), "--out", str(tmp_path / "out"),
                 "--quiet"]) == 3
    assert capsys.readouterr().err.startswith(
        "numeric abort: ift oracle: singular stacked system")


@pytest.mark.parametrize("section, key, value", [
    ("finetune", "eval_every", 0),
    ("finetune", "eval_batch", 0),
    ("finetune", "steps", -1),
    ("finetune", "lr", -0.001),
    ("finetune", "grad_clip", -1),
    ("finetune", "grad_clip", 0),
    ("optimize", "steps", -1),
    ("optimize", "lr", -0.05),
    ("train", "steps", 0),
    ("train", "batch", 0),
    ("train", "lr", -0.002),
    ("train", "data_size", 0),
    ("train", "modes", 0),
    ("train", "t_min", 0),
    ("train", "t_min", 2),
    ("train", "hidden", 0),
    ("bench", "draws", 0),
    ("bench", "reps", 0),
])
def test_bad_config_value_is_a_named_config_error(tmp_path, tiny_ckpt, capsys,
                                                  section, key, value):
    if section == "train":  # the tiny config with the key set to the value
        text = re.sub(rf"^{key} = .*\n", "", TINY_TRAIN, flags=re.M) + f"{key} = {value}\n"
    else:
        text = f"[{section}]\ncheckpoint = {tiny_ckpt}\n{key} = {value}\n"
    cfg = write_cfg(tmp_path, text)
    assert main([section, "--config", str(cfg), "--out", str(tmp_path / "out"),
                 "--quiet"]) == 2
    err = capsys.readouterr().err
    assert f"{key} must be" in err
    assert "Traceback" not in err


# the smallest run of each section that names an objective
SMALL_RUN = {"bench": "n_list = 2\nestimators = sdo\nreps = 1\n",
             "optimize": "steps = 1\n",
             "finetune": "steps = 1\nbatch = 2\neval_batch = 2\n"}
# the first key of the objective that the section does not have
MISSING_KEY = {("bench", "composite"): "reference",
               ("finetune", "quadratic-target"): "target",
               ("finetune", "composite"): "target"}


@pytest.mark.parametrize("section", sorted(SMALL_RUN))
@pytest.mark.parametrize("kind", OBJECTIVE_KINDS)
def test_every_objective_in_every_section_runs_or_is_a_config_error(
        tmp_path, tiny_ckpt, capsys, section, kind):
    cfg = write_cfg(tmp_path, f"[{section}]\ncheckpoint = {tiny_ckpt}\n"
                              f"objective = {kind}\n{SMALL_RUN[section]}")
    code = main([section, "--config", str(cfg), "--out", str(tmp_path / "out"),
                 "--quiet"])
    err = capsys.readouterr().err
    assert code in (0, 2)
    assert "Traceback" not in err
    if code == 2:
        assert err.startswith("config error:") and kind in err
    if (section, kind) in MISSING_KEY:
        assert f"needs the key '{MISSING_KEY[section, kind]}', which [{section}]" in err


@pytest.mark.parametrize("section, kind, key", [
    ("optimize", "quadratic-target", "target"), ("optimize", "rbf-reward", "center"),
    ("optimize", "composite", "target"), ("optimize", "composite", "reference"),
    ("bench", "quadratic-target", "target"), ("bench", "rbf-reward", "center"),
    ("finetune", "rbf-reward", "center")])
@pytest.mark.parametrize("value", ["1.0,0.0,0.0", "1.0", ""])
def test_an_objective_point_of_the_wrong_length_fails_before_any_roll(
        tmp_path, tiny_ckpt, capsys, monkeypatch, section, kind, key, value):
    def no_roll(*args, **kwargs):
        raise AssertionError("rolled")

    monkeypatch.setattr(drivers, "rollout", no_roll)
    monkeypatch.setattr(engines, "rollout", no_roll)
    cfg = write_cfg(tmp_path, f"[{section}]\ncheckpoint = {tiny_ckpt}\nobjective = {kind}\n"
                              f"{SMALL_RUN[section]}{key} = {value}\n")
    out = tmp_path / "out"
    assert main([section, "--config", str(cfg), "--out", str(out), "--quiet"]) == 2
    n = len(value.split(",")) if value else 0
    assert capsys.readouterr().err == (f"config error: [{section}] {key} has {n} values, but "
                                       "the checkpoint's samples have d=2\n")
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("weights", [
    [[[1.0, 0.0, 0.5]], [0.0]],  # logistic
    [np.full((4, 3), 0.25).tolist(), [0.0] * 4, [[1.0] * 4], [0.0]]])  # hidden layer
def test_a_classifier_of_another_input_width_fails_before_any_roll(
        tmp_path, tiny_ckpt, capsys, monkeypatch, weights):
    def no_roll(*args, **kwargs):
        raise AssertionError("rolled")

    monkeypatch.setattr(drivers, "rollout", no_roll)
    monkeypatch.setattr(engines, "rollout", no_roll)
    clf = tmp_path / "clf.json"
    clf.write_text(json.dumps({"weights": weights}), encoding="utf-8")
    cfg = write_cfg(tmp_path, f"[optimize]\ncheckpoint = {tiny_ckpt}\n"
                              "objective = classifier-margin\n"
                              f"classifier = {clf}\nlabel = 0\nsteps = 1\n")
    out = tmp_path / "out"
    assert main(["optimize", "--config", str(cfg), "--out", str(out), "--quiet"]) == 2
    assert capsys.readouterr().err == (f"config error: [optimize] classifier {clf} takes "
                                       "inputs of width 3, but the checkpoint's samples "
                                       "have d=2\n")
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("label", [2, -1])
def test_a_classifier_margin_label_other_than_0_or_1_exits_2_before_any_roll(
        tmp_path, tiny_ckpt, capsys, monkeypatch, label):
    def no_roll(*args, **kwargs):
        raise AssertionError("rolled")

    monkeypatch.setattr(drivers, "rollout", no_roll)
    monkeypatch.setattr(engines, "rollout", no_roll)
    cfg = write_cfg(tmp_path, f"[optimize]\ncheckpoint = {tiny_ckpt}\n"
                              "objective = classifier-margin\n"
                              f"classifier = {asset_path('evasion_classifier.json')}\n"
                              f"label = {label}\nevade = true\nsteps = 1\n")
    out = tmp_path / "out"
    assert main(["optimize", "--config", str(cfg), "--out", str(out), "--quiet"]) == 2
    assert capsys.readouterr().err == ("invalid request: a classifier-margin label is "
                                       f"0 or 1, got {label}\n")
    assert list(out.iterdir()) == []


# Each run class a section reads its defaults from, with the number of keys
# it backs there; Schedule.kind is the key `schedule`.
@pytest.mark.parametrize("cls, section, count", [
    pytest.param(TrainConfig, "train", 8, id="TrainConfig-train"),
    pytest.param(Schedule, "train", 4, id="Schedule-train"),
    pytest.param(LatentOptConfig, "optimize", 7, id="LatentOptConfig-optimize"),
    pytest.param(FinetuneConfig, "finetune", 9, id="FinetuneConfig-finetune"),
    pytest.param(RbfReward, "bench", 1, id="RbfReward-bench"),
    pytest.param(RbfReward, "optimize", 1, id="RbfReward-optimize"),
    pytest.param(RbfReward, "finetune", 1, id="RbfReward-finetune"),
    pytest.param(Composite, "optimize", 1, id="Composite-optimize"),
    pytest.param(ClassifierMargin, "optimize", 1, id="ClassifierMargin-optimize"),
])
def test_run_config_defaults_are_the_section_defaults(cls, section, count):
    required = {"train": {"dataset": "two-moons"}}.get(section, {"checkpoint": "x"})
    resolved = resolve_section(section, required)
    defaults = {"schedule" if f.name == "kind" else f.name: f.default
                for f in dataclasses.fields(cls) if f.default is not dataclasses.MISSING}
    assert len(defaults) == count
    assert defaults == {name: resolved[name] for name in defaults}


@pytest.mark.parametrize("k_past_n", [-6, 1])  # truncated-0 and truncated-<N+1>
def test_finetune_truncated_window_outside_n_fails_before_any_roll(
        tmp_path, tiny_ckpt, capsys, k_past_n):
    n = load_checkpoint(tiny_ckpt)[1].n_steps
    k = n + k_past_n
    cfg = write_cfg(tmp_path, f"[finetune]\ncheckpoint = {tiny_ckpt}\n"
                              f"estimator = truncated-{k}\nsteps = 1\nbatch = 2\n")
    out = tmp_path / "out"
    assert main(["finetune", "--config", str(cfg), "--out", str(out), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: [finetune] estimator 'truncated-{k}'")
    assert f"k={k}" in err and f"N={n}" in err
    assert not (out / "runlog.csv").exists()


def test_bench_truncated_window_outside_an_n_of_n_list_fails_before_any_roll(
        tmp_path, tiny_ckpt, capsys):
    # the sweep runs N = 9 first; k = 6 fits it and not N = 3
    cfg = write_cfg(tmp_path, f"[bench]\ncheckpoint = {tiny_ckpt}\nn_list = 9,3\n"
                              "estimators = sdo,truncated-6\nreps = 1\n")
    out = tmp_path / "out"
    assert main(["bench", "--config", str(cfg), "--out", str(out), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err == ("config error: [bench] estimators 'truncated-6': window k=6 is "
                   "outside 1..N, and n_list has N=3\n")
    assert not (out / "bench.csv").exists()


@pytest.mark.parametrize("section, key, value", [
    ("bench", "n_list", "10,0"), ("bench", "n_list", "-3"),
    ("verify", "n_steps", "0"), ("train", "n_steps", "0")])
def test_a_grid_of_fewer_than_one_step_is_a_config_error_before_any_roll(
        tmp_path, tiny_ckpt, capsys, monkeypatch, section, key, value):
    def no_roll(*args, **kwargs):
        raise AssertionError("rolled")

    for module in (drivers, engines, sampler):
        monkeypatch.setattr(module, "rollout", no_roll)
    given = {"train": "dataset = two-moons\nsteps = 1\n",
             "verify": "", "bench": f"checkpoint = {tiny_ckpt}\nreps = 1\n"}[section]
    cfg = write_cfg(tmp_path, f"[{section}]\n{given}{key} = {value}\n")
    out = tmp_path / "out"
    assert main([section, "--config", str(cfg), "--out", str(out), "--quiet"]) == 2
    n = value.split(",")[-1]
    assert capsys.readouterr().err == (f"config error: [{section}] bad value for "
                                       f"'{key}': a step grid needs N >= 1, got {n}\n")
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("section, key", [("bench", "width"), ("verify", "tolerance"),
                                          ("finetune", "grad_clip"), ("optimize", "tau")])
def test_a_non_finite_float_exits_2_naming_its_key_before_any_roll(
        tmp_path, tiny_ckpt, capsys, monkeypatch, section, key):
    def no_roll(*args, **kwargs):
        raise AssertionError("rolled")

    for module in (drivers, engines, sampler):
        monkeypatch.setattr(module, "rollout", no_roll)
    given = "" if section == "verify" else f"checkpoint = {tiny_ckpt}\n"
    cfg = write_cfg(tmp_path, f"[{section}]\n{given}{key} = nan\n")
    out = tmp_path / "out"
    assert main([section, "--config", str(cfg), "--out", str(out), "--quiet"]) == 2
    assert capsys.readouterr().err == (f"config error: [{section}] bad value for "
                                       f"'{key}': not a finite number: 'nan'\n")
    assert list(out.iterdir()) == []


def test_bench_with_no_estimator_exits_2_naming_the_key(tmp_path, tiny_ckpt, capsys):
    cfg = write_cfg(tmp_path, f"[bench]\ncheckpoint = {tiny_ckpt}\nestimators = ,\n")
    out = tmp_path / "out"
    assert main(["bench", "--config", str(cfg), "--out", str(out), "--quiet"]) == 2
    assert capsys.readouterr().err == "invalid request: estimators is empty\n"
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("m_past_n", [-6, 1, -7])  # m = 0, N + 1 and -1
def test_optimize_m_outside_1_to_n_is_a_config_error_before_any_roll(
        tmp_path, tiny_ckpt, capsys, monkeypatch, m_past_n):
    def no_roll(*args, **kwargs):
        raise AssertionError("rolled")

    for module in (drivers, engines, sampler):
        monkeypatch.setattr(module, "rollout", no_roll)
    m = load_checkpoint(tiny_ckpt)[1].n_steps + m_past_n
    cfg = write_cfg(tmp_path, f"[optimize]\ncheckpoint = {tiny_ckpt}\nm = {m}\n")
    out = tmp_path / "out"
    assert main(["optimize", "--config", str(cfg), "--out", str(out), "--quiet"]) == 2
    assert capsys.readouterr().err == (f"config error: [optimize] m={m} is outside "
                                       "1..N, and the checkpoint has N=6\n")
    assert list(out.iterdir()) == []


def _polylines(svg: str) -> list[list[tuple[float, float]]]:
    return [[tuple(map(float, p.split(","))) for p in line.split()]
            for line in re.findall(r'<polyline [^>]*points="([^"]*)"', svg)]


def test_a_non_positive_value_is_a_gap_that_leaves_the_log_axis_alone():
    series = {"bptt": [(4, 120.0), (8, 240.0)], "sdo": [(4, 6.0), (8, 6.0)]}
    plain = line_plot_svg(series, "tape nodes", "N", "nodes")
    assert "nodes (log)</text>" in plain
    lines = _polylines(plain)
    # the least value sits on the axis floor, the greatest at the top
    assert min(y for line in lines for _, y in line) == 60.0
    assert max(y for line in lines for _, y in line) == 360.0
    for extra in ([(4, 0.0), (8, 0.0)], [(6, -1.0)], [(4, float("nan"))]):
        svg = line_plot_svg({**series, "ift-oracle": extra}, "tape nodes", "N", "nodes")
        assert _polylines(svg) == lines
    gapped = line_plot_svg({"bptt": [(4, 120.0), (6, 0.0), (8, 240.0)],
                            "sdo": series["sdo"]}, "tape nodes", "N", "nodes")
    assert _polylines(gapped) == [[lines[0][0]], [lines[0][1]], lines[1]]


def test_finetune_nonfinite_heldout_is_numeric_abort(tmp_path, tiny_ckpt, capsys):
    # finite weights whose output bias overflows the held-out samples
    den, sched = load_checkpoint(tiny_ckpt)
    huge = Denoiser(den.data_dim, den.hidden, den.parameterization,
                    [*den.weights[:-1], np.full_like(den.weights[-1], 1e308)])
    ckpt = tmp_path / "huge.ckpt"
    save_checkpoint(ckpt, huge, sched)
    cfg = write_cfg(tmp_path, f"""
[finetune]
checkpoint = {ckpt}
objective = rbf-reward
center = 0.5,0.0
batch = 2
steps = 2
eval_batch = 4
""")
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(["finetune", "--config", str(cfg), "--out",
                     str(tmp_path / "out"), "--quiet"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numeric abort: finetune: held-out mean objective")
    assert "at step 0" in err


def test_optimize_nonfinite_loss_is_numeric_abort(tmp_path, tiny_ckpt, capsys):
    cfg = write_cfg(tmp_path, f"""
[optimize]
checkpoint = {tiny_ckpt}
objective = quadratic-target
target = 0.3,0.3
steps = 5
lr = 1e308
""")
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(["optimize", "--config", str(cfg), "--out",
                     str(tmp_path / "out"), "--quiet"]) == 3
    assert capsys.readouterr().err.startswith("numeric abort: non-finite loss at step")


def test_bench_outputs_and_determinism(tmp_path, tiny_ckpt):
    cfg = write_cfg(tmp_path, f"""
[bench]
checkpoint = {tiny_ckpt}
n_list = 3,6
estimators = bptt,sdo
draws = 2
reps = 1
""")
    out1, out2 = tmp_path / "b1", tmp_path / "b2"
    for out in (out1, out2):
        assert main(["bench", "--config", str(cfg), "--out", str(out),
                     "--quiet"]) == 0
    text = (out1 / "bench.csv").read_text()
    assert text.splitlines()[0] == "N,estimator,grad_l2,tape_nodes,wall_time_s,finite,seed"
    assert len(text.strip().splitlines()) == 1 + 2 * 2 * 2
    assert hash_artifact(out1 / "bench.csv") == hash_artifact(out2 / "bench.csv")
    assert (out1 / "bench_norms.svg").exists()
    assert (out1 / "bench_nodes.svg").exists()
    assert (out1 / "bench_norms.svg").read_bytes() == (out2 / "bench_norms.svg").read_bytes()


def test_optimize_zero_steps_and_determinism(tmp_path, tiny_ckpt):
    cfg = write_cfg(tmp_path, f"""
[optimize]
checkpoint = {tiny_ckpt}
objective = quadratic-target
target = 0.3,0.3
steps = 0
""")
    out = tmp_path / "o1"
    assert main(["optimize", "--config", str(cfg), "--out", str(out),
                 "--quiet"]) == 0
    summary = (out / "summary.csv").read_text().strip().splitlines()
    initial, final, best = summary[1].split(",")
    assert initial == final == best
    runlog = (out / "runlog.csv").read_text().strip().splitlines()
    assert len(runlog) == 1  # header only: no steps taken

    cfg2 = write_cfg(tmp_path, f"""
[optimize]
checkpoint = {tiny_ckpt}
objective = quadratic-target
target = 0.3,0.3
steps = 5
lr = 0.1
""", "o2.cfg")
    outs = []
    for name in ("o2a", "o2b"):
        out = tmp_path / name
        assert main(["optimize", "--config", str(cfg2), "--out", str(out),
                     "--quiet"]) == 0
        outs.append(out)
    assert hash_artifact(outs[0] / "runlog.csv") == hash_artifact(outs[1] / "runlog.csv")
    assert (outs[0] / "trajectory.csv").read_bytes() == (outs[1] / "trajectory.csv").read_bytes()



def test_optimize_from_an_intermediate_step_rolls_on_the_checkpoint_grid(
        tmp_path, tiny_ckpt):
    """With m < N the trajectory starts at the optimized latent x_m, at
    t = m/N, and rolls the checkpoint's N-step map down to x_0."""
    cfg = write_cfg(tmp_path, f"""
[optimize]
checkpoint = {tiny_ckpt}
objective = quadratic-target
target = 0.3,0.3
m = 3
steps = 2
lr = 0.1
""")
    out = tmp_path / "o"
    assert main(["optimize", "--config", str(cfg), "--out", str(out),
                 "--quiet"]) == 0
    header, *lines = (out / "trajectory.csv").read_text().strip().splitlines()
    assert header == "step_index,t,x0,x1"
    rows = [line.split(",") for line in lines]
    denoiser, sched = load_checkpoint(tiny_ckpt)
    assert sched.n_steps == 6
    assert [r[:2] for r in rows[::3]] == [["3", "0.5"], ["0", "0"]]
    assert [int(r[0]) for r in rows] == [3, 2, 1, 0]
    assert [float(r[1]) for r in rows] == [n / 6 for n in (3, 2, 1, 0)]
    states = np.array([[float(v) for v in r[2:]] for r in rows])
    rolled = rollout(DenoiserField(denoiser, sched), sched, states[0], 3)
    assert np.array_equal(states, rolled)


def test_finetune_outputs_and_determinism(tmp_path, tiny_ckpt):
    # two runs of each estimator setting must write the same outputs
    pairs = [("estimator = sdo", "estimator = sdo"),
             ("estimator = truncated-3", "estimator = truncated-3")]
    for pair_index, pair in enumerate(pairs):
        outs = []
        for name, estimator in zip(("f1", "f2"), pair):
            cfg = write_cfg(tmp_path, f"""
[finetune]
checkpoint = {tiny_ckpt}
objective = rbf-reward
center = 0.5,0.0
width = 0.6
{estimator}
batch = 2
steps = 3
lr = 0.001
eval_every = 3
eval_batch = 4
""", f"{name}.cfg")
            out = tmp_path / f"{name}_{pair_index}"
            assert main(["finetune", "--config", str(cfg), "--out", str(out),
                         "--quiet"]) == 0
            outs.append(out)
        assert ((outs[0] / "finetuned.ckpt").read_bytes()
                == (outs[1] / "finetuned.ckpt").read_bytes())
        for csv in ("heldout.csv", "runlog.csv"):
            assert hash_artifact(outs[0] / csv) == hash_artifact(outs[1] / csv)
        heldout = (outs[0] / "heldout.csv").read_text().strip().splitlines()
        assert heldout[0] == "step,mean_objective"
        assert heldout[1].startswith("0,")
        denoiser, _ = load_checkpoint(outs[0] / "finetuned.ckpt")
        assert denoiser.hidden == (6,)


def test_manifest_written_with_hashes(tmp_path, tiny_ckpt):
    cfg = write_cfg(tmp_path, "[verify]\n")
    out = tmp_path / "out"
    assert main(["verify", "--config", str(cfg), "--out", str(out),
                 "--quiet"]) == 0
    lines = (out / "manifest.jsonl").read_text().strip().splitlines()
    entry = json.loads(lines[-1])
    assert entry["subcommand"] == "verify"
    assert "verify_report.csv" in entry["artifacts"]
    assert len(entry["config_hash"]) == 64


def test_resolved_config_written_and_reusable(tmp_path, tiny_ckpt):
    cfg = write_cfg(tmp_path, f"""
[optimize]
checkpoint = {tiny_ckpt}
steps = 2
""")
    out1 = tmp_path / "r1"
    assert main(["optimize", "--config", str(cfg), "--out", str(out1),
                 "--quiet"]) == 0
    resolved = out1 / "optimize_resolved.cfg"
    assert resolved.exists()
    out2 = tmp_path / "r2"
    assert main(["optimize", "--config", str(resolved), "--out", str(out2),
                 "--quiet"]) == 0
    assert hash_artifact(out1 / "runlog.csv") == hash_artifact(out2 / "runlog.csv")


def test_csv_without_timing_zeroes_columns():
    text = "step,loss_or_reward,grad_l2,estimator,elapsed_s\n1,0.5,0.1,sdo,0.123\n"
    cleaned = csv_without_timing(text)
    assert cleaned.splitlines()[1] == "1,0.5,0.1,sdo,0"
