"""Time the same operations of two checkouts in one process, interleaved.

Run from the repository root:

    python3 scripts/ab_trees.py --parent A --change B --rounds 30 --json ab.json

A and B are two checkout directories. Each checkout's `src/shortcutdiff`
is loaded as a package of its own under a distinct name, so both run in
one interpreter on one host state. Both sides build the same seeded
operations from the ring8 and ring24 checkpoints and the evasion
classifier of A:

  roll       a 50-step value roll of one state;
  roll8      a 50-step value roll of an (8, d) block, finetune's gradient
             block;
  picard     a Picard solve at N = 50;
  sdo        the sdo parameter gradient at N = 100 (fixed i');
  sdo_full   the sdo-full parameter gradient at N = 100: one contraction of
             the N per-column steps;
  sdo8       the sdo parameter gradient of an (8, d) block at N = 100
             (fixed i'), finetune's sdo path;
  bptt       the bptt parameter gradient at N = 100;
  bptt_latent  the bptt latent gradient at N = 100;
  bptt8      the bptt parameter gradient of an (8, d) block at N = 100,
             finetune's bptt path;
  steer      a steering pass: the sdo latent gradient at m = N = 50;
  evade      an evasion pass: the sdo latent gradient at m = 4 of a
             classifier margin on ring24;
  dsm        the tape reference of one score-matching step at batch 96:
             `dsm_loss_var` on a Tape, its backward, Adam and the Denoiser
             rebuilt from the new vector by `with_flat`, as each
             `train_denoiser` step ran while it recorded a tape;
  train      `train_denoiser` of a 20-step seeded `TrainConfig` at batch 96
             on ring8's dataset and schedule, its final flat weights the
             output: the training loop as the program runs it;
  ift        the IFT oracle's parameter gradient at N = 50: N·d pullbacks
             of one block call on the trajectory and a dense solve;
  objective  the engines' objective gradient, `Objective.gradient`, of
             evade's classifier margin on an (8, d) block of samples.

Each operation is called once on each side before timing, and the script
reports whether the two sides' outputs are bit-identical. A round then
times every operation on both sides, A first in even rounds and B first in
odd ones; a sample is the mean time of enough back-to-back calls to fill
about 20 ms. Per operation it prints each side's median per call, the
median over rounds of the paired ratio change/parent, and the rounds each
side won (ties count for neither). `--json` also writes every sample.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import os
import platform
import statistics
import sys
import time
from pathlib import Path

import numpy as np

SIDES = ("parent", "change")
SIZES = {"roll_n": 50, "picard_n": 50, "grad_n": 100, "steer_n": 50, "evade_m": 4,
         "dsm_batch": 96, "train_steps": 20, "ift_n": 50}
SAMPLE_S = 0.02


def load_package(checkout: Path, name: str):
    """The checkout's `src/shortcutdiff` imported as the package `name`; its
    modules import each other relatively, so they load under that name."""
    src = checkout / "src" / "shortcutdiff"
    spec = importlib.util.spec_from_file_location(
        name, src / "__init__.py", submodule_search_locations=[str(src)])
    pkg = importlib.util.module_from_spec(spec)
    sys.modules[name] = pkg
    spec.loader.exec_module(pkg)
    return pkg


def operations(pkg, assets: Path, sizes: dict) -> dict:
    """Name -> a call of no arguments returning an array, built by `pkg`
    from fixed seeds, the checkpoints and the classifier in `assets`. Each
    field is built once, so repeated calls reuse its weights."""
    rng = np.random.default_rng(2020)
    den8, s8 = pkg.load_checkpoint(assets / "ring8.ckpt")
    den24, s24 = pkg.load_checkpoint(assets / "ring24.ckpt")
    clf = pkg.load_classifier(assets / "evasion_classifier.json")

    def field(den, like, n):
        sched = pkg.Schedule(like.kind, n, like.beta_min, like.beta_max)
        return pkg.DenoiserField(den, sched), sched

    x = rng.standard_normal(2)
    target = pkg.QuadraticTarget(np.array([1.0, 0.0]))
    roll_f, roll_s = field(den8, s8, sizes["roll_n"])
    pic_f, pic_s = field(den8, s8, sizes["picard_n"])
    grad_f, grad_s = field(den8, s8, sizes["grad_n"])
    iprime = int(rng.integers(1, sizes["grad_n"] + 1))
    steer_f, steer_s = field(den8, s8, sizes["steer_n"])
    ift_f, ift_s = field(den8, s8, sizes["ift_n"])
    evade_f, evade_s = field(den24, s24, s24.n_steps)
    evade = pkg.ClassifierMargin(clf, 0, evade=True)
    z = rng.standard_normal(2)

    batch = sizes["dsm_batch"]
    x0, ts = rng.standard_normal((batch, 2)), rng.uniform(1e-3, 1.0, batch)
    eps, flat = rng.standard_normal((batch, 2)), den8.flatten()
    x8 = rng.standard_normal((8, 2))
    adam = pkg.AdamState(flat.size, lr=2e-3)

    def dsm():
        tape = pkg.Tape()
        theta = [tape.variable(w) for w in den8.weights]
        loss = pkg.model.dsm_loss_var(tape, den8, s8, x0, ts, eps, theta)
        grads = tape.backward(loss)
        gflat = np.concatenate([grads[v].ravel() for v in theta])
        return den8.with_flat(pkg.adam_step(adam, flat, gflat)).flatten()

    train = pkg.TrainConfig(
        dataset=pkg.Dataset2D("gaussian-mixture-ring", 100,
                              {"modes": 8, "radius": 1.0, "noise": 0.1}),
        schedule=s8, hidden=den8.hidden, steps=sizes["train_steps"], batch=batch,
        lr=1.5e-3, seed=2024)

    return {
        "roll": lambda: pkg.rollout(roll_f, roll_s, x, sizes["roll_n"]),
        "roll8": lambda: pkg.rollout(roll_f, roll_s, x8, sizes["roll_n"]),
        "picard": lambda: pkg.sample_picard(pic_f, pic_s, x).trajectory.states,
        "sdo": lambda: pkg.grad_sdo_params(grad_f, grad_s, x, target, "fixed",
                                           iprime).gradient,
        "sdo_full": lambda: pkg.grad_sdo_params(grad_f, grad_s, x, target,
                                                "full-sum").gradient,
        "sdo8": lambda: pkg.grad_sdo_params(grad_f, grad_s, x8, target, "fixed",
                                            iprime).gradient,
        "bptt": lambda: pkg.grad_bptt(grad_f, grad_s, x, target,
                                      pkg.GradTarget("params")).gradient,
        "bptt_latent": lambda: pkg.grad_bptt(grad_f, grad_s, x, target,
                                             pkg.GradTarget("latent")).gradient,
        "bptt8": lambda: pkg.grad_bptt(grad_f, grad_s, x8, target,
                                       pkg.GradTarget("params")).gradient,
        "steer": lambda: pkg.drivers.latent_pass(steer_f, steer_s, z, sizes["steer_n"],
                                                 target, "sdo")[0],
        "evade": lambda: pkg.drivers.latent_pass(evade_f, evade_s, z, sizes["evade_m"],
                                                 evade, "sdo")[0],
        "dsm": dsm,
        "train": lambda: pkg.train_denoiser(train)[0].flatten(),
        "ift": lambda: pkg.grad_ift_oracle(ift_f, ift_s, x, target,
                                           pkg.GradTarget("params")).gradient,
        "objective": lambda: evade.gradient(x8)[0],
    }


def sample(call, calls: int) -> float:
    """Seconds per call, the mean of `calls` back-to-back calls."""
    t0 = time.perf_counter()
    for _ in range(calls):
        call()
    return (time.perf_counter() - t0) / calls


def run(checkouts: dict, rounds: int, sizes: dict = SIZES) -> dict:
    """Every operation of both checkouts timed over `rounds` interleaved
    rounds: {"same_bits": {op: bool}, "calls": {op: n},
    "times": {op: {side: [seconds per call, one per round]}}}."""
    assets = checkouts["parent"] / "src" / "shortcutdiff" / "assets"
    ops = {side: operations(load_package(path, f"ab_{side}_shortcutdiff"), assets, sizes)
           for side, path in checkouts.items()}
    names = list(ops["parent"])
    same, calls = {}, {}
    for name in names:
        first = {side: np.asarray(ops[side][name]()) for side in SIDES}
        same[name] = first["parent"].tobytes() == first["change"].tobytes()
        single = sample(ops["parent"][name], 1)
        calls[name] = max(1, math.ceil(SAMPLE_S / single))
    times = {name: {side: [] for side in SIDES} for name in names}
    for r in range(rounds):
        for name in names:
            for side in (SIDES if r % 2 == 0 else SIDES[::-1]):
                times[name][side].append(sample(ops[side][name], calls[name]))
    return {"same_bits": same, "calls": calls, "times": times}


def summarize(times: dict) -> dict:
    """Per operation: each side's median seconds per call, the median of
    the per-round ratios change/parent, and the rounds each side won."""
    out = {}
    for name, by_side in times.items():
        pairs = list(zip(by_side["parent"], by_side["change"]))
        out[name] = {
            "parent_median_s": statistics.median(by_side["parent"]),
            "change_median_s": statistics.median(by_side["change"]),
            "median_ratio": statistics.median(c / p for p, c in pairs),
            "won": {"parent": sum(p < c for p, c in pairs),
                    "change": sum(c < p for p, c in pairs)},
            "rounds": len(pairs)}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="parent checkout")
    parser.add_argument("--change", type=Path, required=True, help="changed checkout")
    parser.add_argument("--rounds", type=int, default=30)
    parser.add_argument("--json", type=Path, default=None, help="write every sample here")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be >= 1")
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for side, path in checkouts.items():
        if not (path / "src" / "shortcutdiff" / "__init__.py").is_file():
            parser.error(f"--{side} {path} has no src/shortcutdiff package")
    result = run(checkouts, args.rounds)
    summary = summarize(result["times"])
    print(f"{'op':11} {'parent ms':>10} {'change ms':>10} {'ratio':>7}  won p/c  bits")
    for name, s in summary.items():
        print(f"{name:11} {1e3 * s['parent_median_s']:10.3f} {1e3 * s['change_median_s']:10.3f} "
              f"{s['median_ratio']:7.3f}  {s['won']['parent']:3d}/{s['won']['change']:<3d}  "
              f"{'same' if result['same_bits'][name] else 'DIFFER'}")
    if args.json:
        host = {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
                "numpy": np.__version__}
        args.json.write_text(json.dumps({"host": host, "rounds": args.rounds,
                                         "checkouts": {s: str(p) for s, p in checkouts.items()},
                                         **result, "summary": summary}, indent=1) + "\n",
                             encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
