"""Experiment runner: train / verify / bench / optimize / finetune.

Every subcommand is a pure function of (config, seed): outputs are
byte-identical across runs except for the named timing columns. Each run
writes a resolved config beside its artifacts plus a manifest line with
the config hash and artifact hashes.

Exit codes: 0 success, 1 verification failure, 2 config error, 3 numeric
abort.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .config import ConfigError, load_config, resolved_text
from .data import Dataset2D
from .drivers import (FinetuneConfig, LatentOptConfig, OptimizationDiverged,
                      finetune_params, optimize_latent)
from .engines import (EstimatorSpec, GradTarget, evaluate_bounds, grad_bptt,
                      grad_fd_oracle, grad_ift_oracle, grad_norm_sweep,
                      grad_sdo_latent, grad_sdo_params, grad_truncated,
                      sweep_norm_ratios, sweep_worst_norms)
from .model import (Denoiser, DenoiserField, DivergenceError, ScalarGainField,
                    TrainConfig, ZeroField, train_denoiser)
from .objectives import (QuadraticTarget, load_classifier, make_objective)
from .reporting import (append_manifest, fmt, hash_artifact, line_plot_svg,
                        write_csv)
from .sampler import (residual_violations, sample_picard, sample_sequential,
                      verify_fixed_point)
from .schedule import Schedule
from .seeding import stream_rng


def _say(args, message: str) -> None:
    if not args.quiet:
        print(message)


def _finish(args, subcommand: str, resolved: dict, artifacts: list[Path],
            t0: float) -> None:
    out = Path(args.out)
    cfg_path = out / f"{subcommand}_resolved.cfg"
    text = resolved_text(subcommand, resolved)
    cfg_path.write_text(text, encoding="utf-8")
    entry = {
        "subcommand": subcommand,
        "version": __version__,
        "seed": resolved.get("seed"),
        "config_hash": hashlib.sha256(text.encode("utf-8")).hexdigest(),
        "out_dir": str(out),
        "artifacts": {p.name: hash_artifact(p) for p in sorted(artifacts)},
        "wall_time_s": time.perf_counter() - t0,
    }
    append_manifest(out, entry)
    _say(args, f"wrote {len(artifacts)} artifact(s) to {out}")


def _dataset_from(cfg: dict) -> Dataset2D:
    if cfg["dataset"] == "gaussian-mixture-ring":
        params = {"modes": cfg["modes"], "radius": cfg["radius"],
                  "noise": cfg["noise"]}
    elif cfg["dataset"] == "two-moons":
        params = {"radius": cfg["radius"], "gap": cfg["gap"],
                  "noise": cfg["noise"]}
    else:
        raise ConfigError(f"unknown dataset {cfg['dataset']!r}")
    return Dataset2D(cfg["dataset"], seed=cfg["dataset_seed"], params=params)


def _objective_from(cfg: dict):
    kind = cfg["objective"]
    if kind == "quadratic-target":
        return make_objective(kind, target=cfg["target"])
    if kind == "rbf-reward":
        return make_objective(kind, center=cfg["center"], width=cfg["width"])
    if kind == "classifier-margin":
        if not cfg.get("classifier"):
            raise ConfigError("classifier-margin needs a classifier file")
        clf = load_classifier(cfg["classifier"])
        return make_objective(kind, classifier=clf, label=cfg["label"],
                              evade=cfg["evade"])
    if kind == "composite":
        metric = make_objective("quadratic-target", target=cfg["target"])
        return make_objective(kind, metric=metric, reference=cfg["reference"],
                              mix=cfg["mix"])
    raise ConfigError(f"objective kind {kind!r} is not runnable from config")


# ------------------------------------------------------------------- train

def cmd_train(args) -> int:
    t0 = time.perf_counter()
    cfg = load_config(args.config, "train")
    if args.seed is not None:
        cfg["seed"] = args.seed
    out = Path(args.out)

    train_cfg = TrainConfig(
        dataset=_dataset_from(cfg),
        schedule=Schedule(cfg["schedule"], cfg["n_steps"], cfg["beta_min"],
                          cfg["beta_max"]),
        hidden=cfg["hidden"],
        parameterization=cfg["parameterization"],
        steps=cfg["steps"],
        batch=cfg["batch"],
        lr=cfg["lr"],
        t_min=cfg["t_min"],
        data_size=cfg["data_size"],
        seed=cfg["seed"],
    )
    denoiser, losses = train_denoiser(train_cfg)

    ckpt = out / cfg["checkpoint"]
    save_checkpoint(ckpt, denoiser, train_cfg.schedule)
    loss_csv = out / "loss.csv"
    write_csv(loss_csv, ["step", "loss"],
              [{"step": i, "loss": v} for i, v in enumerate(losses)])
    _say(args, f"final loss {losses[-1]:.6f} after {len(losses)} steps")
    _finish(args, "train", cfg, [ckpt, loss_csv], t0)
    return 0


# ------------------------------------------------------------------ verify

def _verify_rows(cfg: dict) -> list[dict]:
    rows = []

    def check(name, value, threshold):
        rows.append({"check": name, "value": value, "threshold": threshold,
                     "status": "pass" if value <= threshold else "FAIL"})

    # built-in linear oracle: u = x, two steps, J = x^2/2; all closed forms
    lin = ScalarGainField(1.0, dim=1)
    s2 = Schedule("vp-linear", 2)
    x1 = np.array([1.0])
    half_sq = QuadraticTarget(np.array([0.0]))

    rep = verify_fixed_point(lin, s2, x1, tolerance=1e-12)
    check("fixed-point-linear-oracle", rep.max_deviation, 1e-12)

    zero = ZeroField(2)
    s9 = Schedule("vp-linear", 9)
    rep = verify_fixed_point(zero, s9, np.array([0.3, -0.7]), tolerance=1e-12)
    check("fixed-point-zero-velocity", rep.max_deviation, 1e-12)

    closed = [
        ("bptt-latent-closed-form",
         grad_bptt(lin, s2, x1, half_sq, GradTarget("latent")).gradient[0], 0.0625),
        ("bptt-params-closed-form",
         grad_bptt(lin, s2, x1, half_sq, GradTarget("params")).gradient[0], -0.125),
        ("sdo-latent-closed-form",
         grad_sdo_latent(lin, s2, x1, half_sq).gradient[0], 0.125),
        ("sdo-params-i2-closed-form",
         grad_sdo_params(lin, s2, x1, half_sq, "fixed", iprime=2).gradient[0], -0.125),
        ("sdo-params-i1-closed-form",
         grad_sdo_params(lin, s2, x1, half_sq, "fixed", iprime=1).gradient[0], -0.0625),
        ("sdo-params-full-closed-form",
         grad_sdo_params(lin, s2, x1, half_sq, "full-sum").gradient[0], -0.1875),
        ("ift-latent-closed-form",
         grad_ift_oracle(lin, s2, x1, half_sq, GradTarget("latent")).gradient[0], 0.0625),
        ("ift-params-closed-form",
         grad_ift_oracle(lin, s2, x1, half_sq, GradTarget("params")).gradient[0], -0.125),
        ("last-step-closed-form",
         grad_truncated(lin, s2, x1, half_sq, 1).gradient[0], -0.0625),
    ]
    for name, got, expected in closed:
        check(name, abs(got - expected), 1e-12)

    # random small network: oracle agreement at the shipped tolerances
    rng = np.random.Generator(np.random.PCG64(cfg["seed"]))
    s6 = Schedule("vp-linear", 6)
    mlp = DenoiserField(Denoiser.create(rng, hidden=(5,)), s6)
    x_n = rng.standard_normal(2)
    obj = QuadraticTarget(rng.standard_normal(2))

    def rel(a, b):
        return float(np.linalg.norm(a - b)
                     / max(np.linalg.norm(a), np.linalg.norm(b), 1e-300))

    for target in ("latent", "params"):
        ad = grad_bptt(mlp, s6, x_n, obj, GradTarget(target)).gradient
        fd = grad_fd_oracle(mlp, s6, x_n, obj, GradTarget(target), "true-map")
        check(f"bptt-vs-fd-{target}", rel(ad, fd), 1e-5)
        ift = grad_ift_oracle(mlp, s6, x_n, obj, GradTarget(target)).gradient
        check(f"bptt-vs-ift-{target}", rel(ad, ift), 1e-8)

    sdo_lat = grad_sdo_latent(mlp, s6, x_n, obj, m=3).gradient
    fd_lat = grad_fd_oracle(mlp, s6, x_n, obj, GradTarget("latent"),
                            "sdo-surrogate-at-m", m=3)
    check("sdo-latent-vs-surrogate-fd", rel(sdo_lat, fd_lat), 1e-5)

    sdo_par = grad_sdo_params(mlp, s6, x_n, obj, "fixed", iprime=4).gradient
    fd_par = grad_fd_oracle(mlp, s6, x_n, obj, GradTarget("params"),
                            "sdo-surrogate-at-iprime", iprime=4)
    check("sdo-params-vs-surrogate-fd", rel(sdo_par, fd_par), 1e-5)

    total = sum(grad_sdo_params(mlp, s6, x_n, obj, "fixed", iprime=i).gradient
                for i in range(1, 7))
    full = grad_sdo_params(mlp, s6, x_n, obj, "full-sum").gradient
    check("sdo-params-decomposition", float(np.max(np.abs(total - full))), 1e-10)

    # checkpoint-level checks
    if cfg["checkpoint"]:
        denoiser, ck_sched = load_checkpoint(cfg["checkpoint"])
        sched = Schedule(ck_sched.kind, cfg["n_steps"], ck_sched.beta_min,
                         ck_sched.beta_max)
        field = DenoiserField(denoiser, sched)
        noise = stream_rng(cfg["seed"], "noise").standard_normal(denoiser.data_dim)
        rep = verify_fixed_point(field, sched, noise, tolerance=cfg["tolerance"])
        check("fixed-point-checkpoint", rep.max_deviation, 1e-8)

        pic = sample_picard(field, sched, noise, tolerance=cfg["tolerance"])
        rows.append({"check": "picard-iters-within-n",
                     "value": pic.iters_used, "threshold": sched.n_steps,
                     "status": "pass" if pic.iters_used <= sched.n_steps else "FAIL"})
        rows.append({"check": "picard-residual-violations",
                     "value": residual_violations(pic.residuals),
                     "threshold": "report-only", "status": "info"})

        obj_ck = QuadraticTarget(np.zeros(denoiser.data_dim))
        total = sum(grad_sdo_params(field, sched, noise, obj_ck,
                                    "fixed", iprime=i).gradient
                    for i in range(1, sched.n_steps + 1))
        full = grad_sdo_params(field, sched, noise, obj_ck, "full-sum").gradient
        check("sdo-decomposition-checkpoint",
              float(np.max(np.abs(total - full))), 1e-10)

        s8 = Schedule(ck_sched.kind, 8, ck_sched.beta_min, ck_sched.beta_max)
        f8 = DenoiserField(denoiser, s8)
        for target in ("latent", "params"):
            ad = grad_bptt(f8, s8, noise, obj_ck, GradTarget(target)).gradient
            ift = grad_ift_oracle(f8, s8, noise, obj_ck, GradTarget(target)).gradient
            check(f"ift-vs-bptt-checkpoint-{target}", rel(ad, ift), 1e-8)

        # contraction-bound report: informational only, since the stacked
        # operator norm routinely exceeds one even when the one-step error
        # is small (the update is triangular, not a contraction)
        bounds = evaluate_bounds(f8, s8, noise, obj_ck)
        for name, value in (("bound-lambda", bounds.lambda_hat),
                            ("bound-rho", bounds.rho_hat),
                            ("bound-lipschitz", bounds.l_f_hat),
                            ("bound-error-latent", bounds.measured_error_latent),
                            ("bound-error-params", bounds.measured_error_params),
                            ("bound-valid", bounds.bound_valid)):
            rows.append({"check": name, "value": value,
                         "threshold": "report-only", "status": "info"})
    return rows


def cmd_verify(args) -> int:
    t0 = time.perf_counter()
    cfg = load_config(args.config, "verify")
    if args.seed is not None:
        cfg["seed"] = args.seed
    out = Path(args.out)
    rows = _verify_rows(cfg)
    report = out / "verify_report.csv"
    write_csv(report, ["check", "value", "threshold", "status"], rows)
    failures = [r for r in rows if r["status"] == "FAIL"]
    for row in rows:
        _say(args, f"  {row['status']:>4}  {row['check']}: "
                   f"{fmt(row['value'])} (threshold {fmt(row['threshold'])})")
    _finish(args, "verify", cfg, [report], t0)
    if failures:
        _say(args, f"{len(failures)} verification check(s) FAILED")
        return 1
    _say(args, f"all {len(rows)} checks passed")
    return 0


# ------------------------------------------------------------------- bench

def cmd_bench(args) -> int:
    t0 = time.perf_counter()
    cfg = load_config(args.config, "bench")
    if args.seed is not None:
        cfg["seed"] = args.seed
    out = Path(args.out)
    denoiser, ck_sched = load_checkpoint(cfg["checkpoint"])
    objective = _objective_from(cfg)
    estimators = [EstimatorSpec.parse(e) for e in cfg["estimators"]]

    def make_field(n):
        sched = Schedule(ck_sched.kind, n, ck_sched.beta_min, ck_sched.beta_max)
        return DenoiserField(denoiser, sched), sched

    rows = grad_norm_sweep(make_field, objective, list(cfg["n_list"]), estimators,
                           seed=cfg["seed"],
                           noise_rng=stream_rng(cfg["seed"], "noise"),
                           select_rng=stream_rng(cfg["seed"], "iprime"),
                           draws=cfg["draws"], reps=cfg["reps"])
    sweep_csv = out / "bench.csv"
    write_csv(sweep_csv, ["N", "estimator", "grad_l2", "tape_nodes",
                          "wall_time_s", "finite", "seed"], rows)

    norm_series = sweep_worst_norms(rows)
    nodes = {(r["estimator"], r["N"]): r["tape_nodes"] for r in rows}
    node_series = {est: [(n, float(nodes[(est, n)])) for n, _ in series]
                   for est, series in norm_series.items()}
    norms_svg = out / "bench_norms.svg"
    norms_svg.write_text(line_plot_svg(norm_series,
                                       "parameter gradient norms (worst over draws)",
                                       "N", "grad l2", log_y=True), encoding="utf-8")
    nodes_svg = out / "bench_nodes.svg"
    nodes_svg.write_text(line_plot_svg(node_series, "tape nodes", "N", "nodes",
                                       log_y=True), encoding="utf-8")

    for est, ratio in sorted(sweep_norm_ratios(rows).items()):
        _say(args, f"  {est}: max/min worst-case norm ratio {ratio:.3f}")
    _finish(args, "bench", cfg, [sweep_csv, norms_svg, nodes_svg], t0)
    return 0


# ---------------------------------------------------------------- optimize

def cmd_optimize(args) -> int:
    t0 = time.perf_counter()
    cfg = load_config(args.config, "optimize")
    if args.seed is not None:
        cfg["seed"] = args.seed
    out = Path(args.out)
    denoiser, sched = load_checkpoint(cfg["checkpoint"])
    field = DenoiserField(denoiser, sched)
    objective = _objective_from(cfg)

    opt_cfg = LatentOptConfig(m=cfg["m"], estimator=cfg["estimator"],
                              lr=cfg["lr"], steps=cfg["steps"], tau=cfg["tau"],
                              track_best=cfg["track_best"],
                              clamp_samples=cfg["clamp_samples"])
    x_init = stream_rng(cfg["seed"], "noise").standard_normal(denoiser.data_dim)
    result = optimize_latent(field, sched, x_init, objective, opt_cfg)

    runlog = out / "runlog.csv"
    write_csv(runlog, ["step", "loss_or_reward", "grad_l2", "estimator",
                       "elapsed_s"], result.log)
    traj = sample_sequential(field, sched, result.latent, cfg["m"])
    traj_csv = out / "trajectory.csv"
    traj_csv.write_text(traj.to_csv(), encoding="utf-8")
    summary = out / "summary.csv"
    write_csv(summary, ["initial_loss", "final_loss", "best_loss"],
              [{"initial_loss": result.loss_history[0],
                "final_loss": result.loss_history[-1],
                "best_loss": result.best_loss}])
    _say(args, f"loss {result.loss_history[0]:.6g} -> {result.loss_history[-1]:.6g} "
               f"(best {result.best_loss:.6g})")
    _finish(args, "optimize", cfg, [runlog, traj_csv, summary], t0)
    return 0


# ---------------------------------------------------------------- finetune

def cmd_finetune(args) -> int:
    t0 = time.perf_counter()
    cfg = load_config(args.config, "finetune")
    if args.seed is not None:
        cfg["seed"] = args.seed
    out = Path(args.out)
    denoiser, sched = load_checkpoint(cfg["checkpoint"])
    field = DenoiserField(denoiser, sched)
    objective = _objective_from(cfg)

    ft_cfg = FinetuneConfig(estimator=cfg["estimator"], batch=cfg["batch"],
                            steps=cfg["steps"], lr=cfg["lr"],
                            grad_clip=cfg["grad_clip"], k=cfg["k"],
                            eval_every=cfg["eval_every"],
                            eval_batch=cfg["eval_batch"],
                            clamp_samples=cfg["clamp_samples"],
                            seed=cfg["seed"])
    result = finetune_params(field, sched, objective, ft_cfg)

    runlog = out / "runlog.csv"
    write_csv(runlog, ["step", "loss_or_reward", "grad_l2", "estimator",
                       "elapsed_s"], result.log)
    heldout = out / "heldout.csv"
    write_csv(heldout, ["step", "mean_objective"],
              [{"step": s, "mean_objective": v} for s, v in result.heldout])
    ckpt = out / cfg["out_checkpoint"]
    save_checkpoint(ckpt, result.field.denoiser, sched)
    _say(args, f"held-out objective {result.heldout[0][1]:.6g} -> "
               f"{result.heldout[-1][1]:.6g}; skipped {len(result.skipped_steps)}")
    _finish(args, "finetune", cfg, [runlog, heldout, ckpt], t0)
    return 0


# -------------------------------------------------------------------- main

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="shortcutdiff",
        description="one-step diffusion-sampling gradients: experiment runner")
    parser.add_argument("subcommand",
                        choices=["train", "verify", "bench", "optimize", "finetune"])
    parser.add_argument("--config", required=True, help="experiment config file")
    parser.add_argument("--seed", type=int, default=None,
                        help="master seed override (u64)")
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--quiet", action="store_true")
    args = parser.parse_args(argv)

    Path(args.out).mkdir(parents=True, exist_ok=True)
    handler = {"train": cmd_train, "verify": cmd_verify, "bench": cmd_bench,
               "optimize": cmd_optimize, "finetune": cmd_finetune}[args.subcommand]
    try:
        return handler(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except CheckpointError as exc:  # a ValueError, so it must come first
        print(f"checkpoint error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"invalid request: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"missing file: {exc}", file=sys.stderr)
        return 2
    except (DivergenceError, OptimizationDiverged) as exc:
        print(f"numeric abort: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
