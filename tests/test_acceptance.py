"""Acceptance suite: one test per shipped claim, each printing a pass/fail
line. Tolerances are pinned here and nowhere else."""

import sys
import time
from pathlib import Path

import numpy as np
import pytest

from shortcutdiff.assets import asset_path
from shortcutdiff.checkpoint import load_checkpoint
from shortcutdiff.cli import main
from shortcutdiff.data import Dataset2D
from shortcutdiff.drivers import (FinetuneConfig, LatentOptConfig,
                                  finetune_params, optimize_latent)
from shortcutdiff.engines import (GradTarget, grad_bptt, grad_fd_oracle,
                                  grad_ift_oracle, grad_sdo_latent,
                                  grad_sdo_params)
from shortcutdiff.model import Denoiser, DenoiserField, ScalarGainField, ZeroField
from shortcutdiff.objectives import (ClassifierMargin, QuadraticTarget,
                                     RbfReward, load_classifier)
from shortcutdiff.reporting import hash_artifact
from shortcutdiff.sampler import rollout, sample_sequential, verify_fixed_point
from shortcutdiff.schedule import Schedule
from shortcutdiff.seeding import stream_rng

REPO = Path(__file__).resolve().parent.parent

LATENT = GradTarget("latent")
PARAMS = GradTarget("params")


def report(criterion: str, ok: bool, detail: str):
    line = f"{'PASS' if ok else 'FAIL'}  criterion {criterion}: {detail}"
    print(line, file=sys.stderr)
    assert ok, line


def rel_err(a, b):
    denom = max(np.linalg.norm(a), np.linalg.norm(b), 1e-300)
    return float(np.linalg.norm(np.asarray(a) - np.asarray(b)) / denom)


@pytest.fixture(scope="module")
def ring8():
    denoiser, sched = load_checkpoint(asset_path("ring8.ckpt"))
    return DenoiserField(denoiser, sched), sched


@pytest.fixture(scope="module")
def ring24():
    denoiser, sched = load_checkpoint(asset_path("ring24.ckpt"))
    return DenoiserField(denoiser, sched), sched


def test_criterion_1_fixed_point_equivalence(ring8):
    field, sched = ring8
    t0 = time.perf_counter()
    noise = stream_rng(7, "noise").standard_normal(2)
    rep = verify_fixed_point(field, sched, noise, tolerance=1e-10)
    lin = verify_fixed_point(ScalarGainField(1.0, dim=1), Schedule("vp-linear", 2),
                       np.array([1.0]), tolerance=1e-12)
    elapsed = time.perf_counter() - t0
    ok = (rep.converged and rep.max_deviation <= 1e-8
          and lin.max_deviation <= 1e-12 and elapsed < 5.0)
    report("1 (Picard/sequential equivalence)", ok,
           f"checkpoint dev {rep.max_deviation:.2e} (<=1e-8), linear dev "
           f"{lin.max_deviation:.2e} (<=1e-12), {elapsed:.2f}s (<5s)")


def test_criterion_2_bptt_exactness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for draw in range(20):
        sched = Schedule("vp-linear", int(rng.integers(4, 9)))
        field = DenoiserField(Denoiser.create(rng, hidden=(5,)), sched)
        x_n = rng.standard_normal(2)
        if draw % 2 == 0:
            obj = QuadraticTarget(rng.standard_normal(2))
        else:
            # keep the bump near the endpoint so the gradient scale stays
            # healthy enough for finite differences to certify 1e-5
            x0 = sample_sequential(field, sched, x_n).x0
            obj = RbfReward(x0 + 0.3 * rng.standard_normal(2), width=0.8)
        for target in (LATENT, PARAMS):
            ad = grad_bptt(field, sched, x_n, obj, target).gradient
            fd = grad_fd_oracle(field, sched, x_n, obj, target, "true-map")
            worst = max(worst, rel_err(ad, fd))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-5 and elapsed < 60.0
    report("2 (BPTT matches true-map finite differences)", ok,
           f"worst rel err {worst:.2e} (<=1e-5) over 20 draws x 2 targets, "
           f"{elapsed:.1f}s (<60s)")


def test_criterion_3_ift_oracle_equality():
    rng = np.random.default_rng(31)
    worst = 0.0
    for dim in (1, 2, 4):
        for n in (2, 5, 8):
            sched = Schedule("vp-linear", n)
            field = DenoiserField(
                Denoiser.create(rng, data_dim=dim, hidden=(5,)), sched)
            x_n = rng.standard_normal(dim)
            obj = QuadraticTarget(rng.standard_normal(dim))
            for target in (LATENT, PARAMS):
                ad = grad_bptt(field, sched, x_n, obj, target).gradient
                ift = grad_ift_oracle(field, sched, x_n, obj, target).gradient
                worst = max(worst, rel_err(ad, ift))
    ok = worst <= 1e-8
    report("3 (implicit-function oracle equals BPTT)", ok,
           f"worst rel err {worst:.2e} (<=1e-8) over N in 2/5/8, dim in 1/2/4")


def test_criterion_4_one_step_surrogate_correctness():
    lin = ScalarGainField(1.0, dim=1)
    s2 = Schedule("vp-linear", 2)
    x1 = np.array([1.0])
    half_sq = QuadraticTarget(np.array([0.0]))
    closed = [
        (grad_sdo_latent(lin, s2, x1, half_sq).gradient[0], 0.125),
        (grad_sdo_params(lin, s2, x1, half_sq, "fixed", iprime=2).gradient[0], -0.125),
        (grad_sdo_params(lin, s2, x1, half_sq, "fixed", iprime=1).gradient[0], -0.0625),
        (grad_sdo_params(lin, s2, x1, half_sq, "full-sum").gradient[0], -0.1875),
    ]
    closed_err = max(abs(got - want) for got, want in closed)

    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(5):
        sched = Schedule("vp-linear", 6)
        field = DenoiserField(Denoiser.create(rng, hidden=(5,)), sched)
        x_n = rng.standard_normal(2)
        obj = QuadraticTarget(rng.standard_normal(2))
        m = int(rng.integers(1, 7))
        ad = grad_sdo_latent(field, sched, x_n, obj, m=m).gradient
        fd = grad_fd_oracle(field, sched, x_n, obj, LATENT,
                            "sdo-surrogate-at-m", m=m)
        worst = max(worst, rel_err(ad, fd))
        ip = int(rng.integers(1, 7))
        ad = grad_sdo_params(field, sched, x_n, obj, "fixed", iprime=ip).gradient
        fd = grad_fd_oracle(field, sched, x_n, obj, PARAMS,
                            "sdo-surrogate-at-iprime", iprime=ip)
        worst = max(worst, rel_err(ad, fd))
    ok = worst <= 1e-5 and closed_err <= 1e-12
    report("4 (one-step gradients match their stop-gradient surrogates)", ok,
           f"surrogate-FD worst rel err {worst:.2e} (<=1e-5), closed-form "
           f"err {closed_err:.2e} (<=1e-12)")


def test_criterion_5_decomposition(ring8):
    field, sched = ring8
    noise = stream_rng(5, "noise").standard_normal(2)
    obj = QuadraticTarget(np.array([1.0, 0.0]))
    total = sum(grad_sdo_params(field, sched, noise, obj, "fixed",
                                iprime=i).gradient
                for i in range(1, sched.n_steps + 1))
    full = grad_sdo_params(field, sched, noise, obj, "full-sum").gradient
    gap = float(np.max(np.abs(total - full)))
    ok = gap <= 1e-10
    report("5 (per-step sum equals full-sum gradient)", ok,
           f"max abs gap {gap:.2e} (<=1e-10) at N={sched.n_steps}")


def test_criterion_6_efficiency(ring8):
    field, _ = ring8
    sched = Schedule("vp-linear", 100)
    f100 = DenoiserField(field.denoiser, sched)
    noise = stream_rng(6, "noise").standard_normal(2)
    obj = QuadraticTarget(np.array([1.0, 0.0]))

    def median_times(*fns, reps=5):
        """The median time of each fn over reps rounds, one call of each per
        round, so that a burst of host load falls on both estimators."""
        times = [[] for _ in fns]
        for _ in range(reps):
            for fn, fn_times in zip(fns, times):
                t0 = time.perf_counter()
                fn()
                fn_times.append(time.perf_counter() - t0)
        return [sorted(fn_times)[reps // 2] for fn_times in times]

    bptt_par = grad_bptt(f100, sched, noise, obj, PARAMS)
    sdo_par = grad_sdo_params(f100, sched, noise, obj, "fixed", iprime=100)
    bptt_lat = grad_bptt(f100, sched, noise, obj, LATENT)
    sdo_lat = grad_sdo_latent(f100, sched, noise, obj)

    node_ok = (sdo_par.tape_node_count <= bptt_par.tape_node_count / 10
               and sdo_lat.tape_node_count <= bptt_lat.tape_node_count / 10)
    t_bptt, t_sdo = median_times(
        lambda: grad_bptt(f100, sched, noise, obj, PARAMS),
        lambda: grad_sdo_params(f100, sched, noise, obj, "fixed", iprime=100))
    time_ok = t_sdo <= 0.5 * t_bptt
    ok = node_ok and time_ok
    report("6 (one-step cost: tape and wall time)", ok,
           f"nodes {sdo_par.tape_node_count}/{bptt_par.tape_node_count} params "
           f"and {sdo_lat.tape_node_count}/{bptt_lat.tape_node_count} latent "
           f"(<=1/10), time {t_sdo * 1e3:.1f}ms vs {t_bptt * 1e3:.1f}ms "
           f"(ratio {t_sdo / t_bptt:.2f} <= 0.5)")


def test_criterion_7_stability_sweep(tmp_path):
    shipped = (REPO / "configs" / "bench_ring8.cfg").read_text(encoding="utf-8")
    shipped = shipped.replace("src/shortcutdiff/assets/ring8.ckpt",
                              str(asset_path("ring8.ckpt")))
    cfg = tmp_path / "bench.cfg"
    cfg.write_text(shipped, encoding="utf-8")
    out = tmp_path / "bench"
    code = main(["bench", "--config", str(cfg), "--out", str(out), "--quiet"])
    assert code == 0

    rows = (out / "bench.csv").read_text().strip().splitlines()
    header = rows[0].split(",")
    worst: dict[tuple[str, int], float] = {}
    for line in rows[1:]:
        rec = dict(zip(header, line.split(",")))
        key = (rec["estimator"], int(rec["N"]))
        worst[key] = max(worst.get(key, 0.0), float(rec["grad_l2"]))

    def ratio(est):
        vals = [v for (e, _), v in worst.items() if e == est]
        return max(vals) / min(vals)

    r_bptt, r_sdo = ratio("bptt"), ratio("sdo-full")
    svg_ok = (out / "bench_norms.svg").exists() and (out / "bench_nodes.svg").exists()
    ok = r_sdo <= r_bptt and svg_ok
    report("7 (one-step norms at least as stable across N)", ok,
           f"max/min worst-case norm ratio: one-step {r_sdo:.3f} <= "
           f"bptt {r_bptt:.3f}; CSV+SVG emitted")


def test_criterion_8_latent_steering(ring8):
    target = np.array([0.8, -0.3])
    cfg = LatentOptConfig(estimator="sdo", lr=0.05, steps=200)
    res = optimize_latent(ZeroField(2), Schedule("vp-linear", 5),
                          np.array([2.0, 2.0]), QuadraticTarget(target), cfg)
    identity_ok = np.linalg.norm(res.x0 - target) <= 1e-3

    field, sched = ring8
    obj = QuadraticTarget(np.array([1.0, 0.0]))
    wins = 0
    ratios = []
    for seed in range(5):
        noise = stream_rng(seed, "noise").standard_normal(2)
        res = optimize_latent(field, sched, noise, obj,
                              LatentOptConfig(estimator="sdo", lr=0.05, steps=300))
        ratios.append(res.best_loss / res.loss_history[0])
        wins += ratios[-1] <= 0.10
    ok = identity_ok and wins >= 4
    report("8 (latent steering)", ok,
           f"identity case within 1e-3: {identity_ok}; checkpoint loss ratios "
           f"{['%.3f' % r for r in ratios]}, {wins}/5 <= 0.10 (need >=4)")


def test_criterion_9_evasion(ring24):
    field, sched = ring24
    clf = load_classifier(asset_path("evasion_classifier.json"))
    dataset = Dataset2D("gaussian-mixture-ring", seed=300,
                        params={"modes": 24, "radius": 1.0, "noise": 0.05})
    points, labels = dataset.sample(1600)

    noises = stream_rng(42, "noise").standard_normal((60, 2))
    samples = np.stack([sample_sequential(field, sched, xn).x0 for xn in noises])
    nearest = np.linalg.norm(samples[:, None, :] - points[None, :, :], axis=2)
    true_labels = labels[nearest.argmin(axis=1)]
    correct = np.array([clf.predict(s) for s in samples]) == true_labels

    flips = total = 0
    violations = []
    for xn, label, good in zip(noises, true_labels, correct):
        if not good:
            continue
        total += 1
        center = rollout(field, sched, xn, sched.n_steps, 4)[-1]
        obj = ClassifierMargin(clf, int(label), evade=True)
        cfg = LatentOptConfig(m=4, estimator="sdo", lr=0.15, steps=30,
                              tau=0.1, track_best=True)
        res = optimize_latent(
            field, sched, xn, obj, cfg,
            on_iterate=lambda step, z, c=center: violations.append(step)
            if np.max(np.abs(z - c)) > 0.1 else None)
        if np.max(np.abs(res.latent - center)) > 0.1:
            violations.append(-1)
        flips += int(clf.predict(res.best_x0) != label)
    constraint_ok = not violations
    rate = flips / total
    ok = rate >= 0.80 and constraint_ok and total > 0
    report("9 (classifier evasion inside the latent ball)", ok,
           f"{flips}/{total} flips ({rate:.2f} >= 0.80), every iterate within "
           f"tau=0.1: {constraint_ok}")


def test_criterion_10_reward_finetuning(ring8):
    field, sched = ring8
    obj = RbfReward(np.array([1.0, 0.0]), width=0.5)
    finals = {}
    improved = 0
    for estimator in ("sdo", "last-step"):
        vals = []
        for seed in range(5):
            cfg = FinetuneConfig(estimator=estimator, batch=8, steps=40,
                                 lr=5e-4, eval_every=10, eval_batch=32,
                                 seed=seed)
            res = finetune_params(field, sched, obj, cfg)
            start, end = -res.heldout[0][1], -res.heldout[-1][1]
            vals.append((start, end))
            if estimator == "sdo" and end > start:
                improved += 1
            assert len(res.heldout) >= 4  # full curves logged
        finals[estimator] = vals
    sdo_better = sum(ls <= sd for (_, sd), (_, ls)
                     in zip(finals["sdo"], finals["last-step"]))
    ok = improved == 5 and sdo_better >= 4
    report("10 (reward fine-tuning)", ok,
           f"one-step improved held-out reward {improved}/5 (need 5); "
           f"final-step-only <= one-step on {sdo_better}/5 seeds (need >=4)")


def test_criterion_11_determinism(tmp_path):
    tiny_train = """
[train]
dataset = gaussian-mixture-ring
dataset_seed = 1
modes = 4
noise = 0.1
n_steps = 6
hidden = 6
steps = 25
batch = 8
seed = 7
checkpoint = tiny.ckpt
"""
    (tmp_path / "train.cfg").write_text(tiny_train, encoding="utf-8")
    assert main(["train", "--config", str(tmp_path / "train.cfg"),
                 "--out", str(tmp_path / "model"), "--quiet"]) == 0
    ckpt = tmp_path / "model" / "tiny.ckpt"

    configs = {
        "train": tiny_train,
        "verify": f"[verify]\ncheckpoint = {ckpt}\nn_steps = 6\n",
        "bench": f"[bench]\ncheckpoint = {ckpt}\nn_list = 3,6\n"
                 "estimators = bptt,sdo,sdo-full\ndraws = 2\nreps = 1\n",
        "optimize": f"[optimize]\ncheckpoint = {ckpt}\nsteps = 5\n"
                    "objective = quadratic-target\ntarget = 0.4,0.0\n",
        "finetune": f"[finetune]\ncheckpoint = {ckpt}\nsteps = 3\nbatch = 2\n"
                    "eval_every = 3\neval_batch = 4\n",
    }
    mismatches = []
    for sub, text in configs.items():
        cfg = tmp_path / f"{sub}.cfg"
        cfg.write_text(text, encoding="utf-8")
        hashes = []
        for run in ("x", "y"):
            out = tmp_path / f"{sub}_{run}"
            assert main([sub, "--config", str(cfg), "--out", str(out),
                         "--seed", "11", "--quiet"]) == 0
            arts = sorted(p for p in out.iterdir()
                          if p.name != "manifest.jsonl")
            hashes.append({p.name: hash_artifact(p) for p in arts})
        if hashes[0] != hashes[1]:
            mismatches.append(sub)
    ok = not mismatches
    report("11 (byte-identical non-timing outputs)", ok,
           f"subcommands train/verify/bench/optimize/finetune re-run under a "
           f"fixed seed; mismatches: {mismatches or 'none'}")
