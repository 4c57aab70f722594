"""Experiment runner: train / verify / bench / optimize / finetune.

Every subcommand is a pure function of (config, seed): outputs are
byte-identical across runs except for the named timing columns. `main`
loads the subcommand's section, applies `--seed` and creates `--out`;
each `cmd_*` takes that section, the output directory and a `say`
function and returns its artifacts and exit code. `main` then writes the
resolved config beside the artifacts plus a manifest line with the config
hash and artifact hashes.

Exit codes: 0 success, 1 verification failure, 2 config error, 3 numeric
abort.
"""

from __future__ import annotations

import argparse
import dataclasses
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

RUNLOG_COLUMNS = ["step", "loss_or_reward", "grad_l2", "estimator", "elapsed_s"]


def _finish(subcommand: str, resolved: dict, out: Path, artifacts: list[Path],
            t0: float, say) -> None:
    text = resolved_text(subcommand, resolved)
    (out / f"{subcommand}_resolved.cfg").write_text(text, encoding="utf-8")
    entry = {
        "subcommand": subcommand,
        "version": __version__,
        "seed": resolved["seed"],
        "config_hash": hashlib.sha256(text.encode("utf-8")).hexdigest(),
        "out_dir": str(out),
        "artifacts": {p.name: hash_artifact(p) for p in sorted(artifacts)},
        "wall_time_s": time.perf_counter() - t0,
    }
    append_manifest(out, entry)
    say(f"wrote {len(artifacts)} artifact(s) to {out}")


def _from_section(cls, cfg: dict, **given):
    """A run dataclass from a config section: every field that the section
    names takes the section's value, and `given` sets the rest."""
    names = {f.name for f in dataclasses.fields(cls)} - set(given)
    return cls(**{k: v for k, v in cfg.items() if k in names}, **given)


# The section keys that each runnable dataset and objective kind reads.
_KIND_KEYS = {
    "dataset": {"gaussian-mixture-ring": ("modes", "radius", "noise"),
                "two-moons": ("radius", "gap", "noise")},
    "objective": {"quadratic-target": ("target",), "rbf-reward": ("center", "width"),
                  "classifier-margin": ("classifier", "label", "evade"),
                  "composite": ("target", "reference", "mix")},
}


def _kind_params(cfg: dict, section: str, what: str) -> tuple[str, dict]:
    """(kind, keyword values) of the dataset or objective that a section
    names; a kind no config runs, or a key the section lacks, is a ConfigError."""
    kind, table = cfg[what], _KIND_KEYS[what]
    if kind not in table:
        raise ConfigError(f"[{section}] {what} {kind!r} is not one of "
                          f"{', '.join(table)}")
    missing = [key for key in table[kind] if key not in cfg]
    if missing:
        raise ConfigError(f"{what} {kind!r} needs the key {missing[0]!r}, "
                          f"which [{section}] does not have")
    return kind, {key: cfg[key] for key in table[kind]}


def _objective_from(cfg: dict, section: str, data_dim: int):
    """The objective a section names, for samples of `data_dim` values; a
    point key (target, center, reference) of another length, or a classifier
    of another input width, is a ConfigError."""
    kind, kw = _kind_params(cfg, section, "objective")
    for key in ("target", "center", "reference"):
        if key in kw and len(kw[key]) != data_dim:
            raise ConfigError(f"[{section}] {key} has {len(kw[key])} values, but the "
                              f"checkpoint's samples have d={data_dim}")
    if kind == "classifier-margin":
        if not kw["classifier"]:
            raise ConfigError("classifier-margin needs a classifier file")
        clf = load_classifier(kw["classifier"])
        width = clf.weights[0].shape[1]
        if width != data_dim:
            raise ConfigError(f"[{section}] classifier {kw['classifier']} takes inputs of "
                              f"width {width}, but the checkpoint's samples have d={data_dim}")
        kw["classifier"] = clf
    if kind == "composite":
        kw["metric"] = make_objective("quadratic-target", target=kw.pop("target"))
    return make_objective(kind, **kw)


# ------------------------------------------------------------------- train

def cmd_train(cfg: dict, out: Path, say):
    kind, params = _kind_params(cfg, "train", "dataset")
    train_cfg = _from_section(
        TrainConfig, cfg, dataset=Dataset2D(kind, cfg["dataset_seed"], params),
        schedule=_from_section(Schedule, cfg, kind=cfg["schedule"]))
    denoiser, losses = train_denoiser(train_cfg)

    ckpt = out / cfg["checkpoint"]
    save_checkpoint(ckpt, denoiser, train_cfg.schedule)
    loss_csv = out / "loss.csv"
    write_csv(loss_csv, ["step", "loss"],
              [{"step": i, "loss": v} for i, v in enumerate(losses)])
    say(f"final loss {losses[-1]:.6f} after {len(losses)} steps")
    return [ckpt, loss_csv], 0


# ------------------------------------------------------------------ verify

def _verify_rows(cfg: dict) -> list[dict]:
    rows = []

    def check(name, value, threshold):
        rows.append({"check": name, "value": value, "threshold": threshold,
                     "status": "pass" if value <= threshold else "FAIL"})

    def report(name, value):
        rows.append({"check": name, "value": value, "threshold": "report-only",
                     "status": "info"})

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
        sched = dataclasses.replace(ck_sched, n_steps=cfg["n_steps"])
        field = DenoiserField(denoiser, sched)
        noise = stream_rng(cfg["seed"], "noise").standard_normal(denoiser.data_dim)
        rep = verify_fixed_point(field, sched, noise, tolerance=cfg["tolerance"])
        check("fixed-point-checkpoint", rep.max_deviation, 1e-8)

        pic = sample_picard(field, sched, noise, tolerance=cfg["tolerance"])
        check("picard-iters-within-n", pic.iters_used, sched.n_steps)
        report("picard-residual-violations", residual_violations(pic.residuals))

        obj_ck = QuadraticTarget(np.zeros(denoiser.data_dim))
        total = sum(grad_sdo_params(field, sched, noise, obj_ck,
                                    "fixed", iprime=i).gradient
                    for i in range(1, sched.n_steps + 1))
        full = grad_sdo_params(field, sched, noise, obj_ck, "full-sum").gradient
        check("sdo-decomposition-checkpoint",
              float(np.max(np.abs(total - full))), 1e-10)

        s8 = dataclasses.replace(ck_sched, n_steps=8)
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
            report(name, value)
    return rows


def cmd_verify(cfg: dict, out: Path, say):
    rows = _verify_rows(cfg)
    report = out / "verify_report.csv"
    write_csv(report, ["check", "value", "threshold", "status"], rows)
    failures = [r for r in rows if r["status"] == "FAIL"]
    for row in rows:
        say(f"  {row['status']:>4}  {row['check']}: "
            f"{fmt(row['value'])} (threshold {fmt(row['threshold'])})")
    if failures:
        say(f"{len(failures)} verification check(s) FAILED")
        return [report], 1
    info = sum(r["status"] == "info" for r in rows)
    say(f"all {len(rows) - info} checks passed; {info} report-only rows")
    return [report], 0


# ------------------------------------------------------------------- bench

def _check_window(where: str, spec: EstimatorSpec, n: int, source: str) -> None:
    if spec.k is not None and not 1 <= spec.k <= n:  # a fixed truncated-<k> window
        raise ConfigError(f"{where} {spec.label()!r}: window k={spec.k} is outside "
                          f"1..N, and {source} has N={n}")


def cmd_bench(cfg: dict, out: Path, say):
    denoiser, ck_sched = load_checkpoint(cfg["checkpoint"])
    objective = _objective_from(cfg, "bench", denoiser.data_dim)
    estimators = [EstimatorSpec.parse(e) for e in cfg["estimators"]]
    for spec in estimators:
        for n in cfg["n_list"]:
            _check_window("[bench] estimators", spec, n, "n_list")

    def make_field(n):
        sched = dataclasses.replace(ck_sched, n_steps=n)
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
        say(f"  {est}: max/min worst-case norm ratio {ratio:.3f}")
    return [sweep_csv, norms_svg, nodes_svg], 0


# ---------------------------------------------------------------- optimize

def cmd_optimize(cfg: dict, out: Path, say):
    denoiser, sched = load_checkpoint(cfg["checkpoint"])
    field = DenoiserField(denoiser, sched)
    objective = _objective_from(cfg, "optimize", denoiser.data_dim)
    x_init = stream_rng(cfg["seed"], "noise").standard_normal(denoiser.data_dim)
    result = optimize_latent(field, sched, x_init, objective,
                             _from_section(LatentOptConfig, cfg))

    runlog = out / "runlog.csv"
    write_csv(runlog, RUNLOG_COLUMNS, result.log)
    traj = sample_sequential(field, sched, result.latent, cfg["m"])
    traj_csv = out / "trajectory.csv"
    traj_csv.write_text(traj.to_csv(), encoding="utf-8")
    summary = out / "summary.csv"
    write_csv(summary, ["initial_loss", "final_loss", "best_loss"],
              [{"initial_loss": result.loss_history[0],
                "final_loss": result.loss_history[-1],
                "best_loss": result.best_loss}])
    say(f"loss {result.loss_history[0]:.6g} -> {result.loss_history[-1]:.6g} "
        f"(best {result.best_loss:.6g})")
    return [runlog, traj_csv, summary], 0


# ---------------------------------------------------------------- finetune

def cmd_finetune(cfg: dict, out: Path, say):
    denoiser, sched = load_checkpoint(cfg["checkpoint"])
    field = DenoiserField(denoiser, sched)
    objective = _objective_from(cfg, "finetune", denoiser.data_dim)
    run = _from_section(FinetuneConfig, cfg)
    _check_window("[finetune] estimator", EstimatorSpec.parse(run.estimator),
                  sched.n_steps, "the checkpoint")
    result = finetune_params(field, sched, objective, run)

    runlog = out / "runlog.csv"
    write_csv(runlog, RUNLOG_COLUMNS, result.log)
    heldout = out / "heldout.csv"
    write_csv(heldout, ["step", "mean_objective"],
              [{"step": s, "mean_objective": v} for s, v in result.heldout])
    ckpt = out / cfg["out_checkpoint"]
    save_checkpoint(ckpt, result.field.denoiser, sched)
    say(f"held-out objective {result.heldout[0][1]:.6g} -> "
        f"{result.heldout[-1][1]:.6g}; skipped {len(result.skipped_steps)}")
    return [runlog, heldout, ckpt], 0


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

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    say = (lambda message: None) if args.quiet else print
    handler = {"train": cmd_train, "verify": cmd_verify, "bench": cmd_bench,
               "optimize": cmd_optimize, "finetune": cmd_finetune}[args.subcommand]
    try:
        t0 = time.perf_counter()
        cfg = load_config(args.config, args.subcommand)
        if args.seed is not None:
            cfg["seed"] = args.seed
        artifacts, code = handler(cfg, out, say)
        _finish(args.subcommand, cfg, out, artifacts, t0, say)
        return code
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
