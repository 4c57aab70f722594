"""The four benchmark workloads and the checks on their outputs.

A workload builds its inputs from the workload seed alone (`setup`), hands
the runner one cycle of timed operations at a time (`cycle`), and checks
outputs outside the timed regions: each operation's output right after it
is timed, and the warm-up cycle's outputs against the repository's oracles
once the timed loop is over (`final_checks`). Every call into the program
goes through a module attribute, so the traced run's wrappers see it.
"""

from __future__ import annotations

import csv
import math
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from shortcutdiff import (checkpoint, cli, data, drivers, engines, model,
                          objectives, sampler, seeding)
from shortcutdiff.schedule import Schedule
from shortcutdiff.tape import Tape

ROOT = Path(__file__).resolve().parents[1]
CLASSIFIER = ROOT / "src" / "shortcutdiff" / "assets" / "evasion_classifier.json"

PARAMS = engines.GradTarget("params")
LATENT = engines.GradTarget("latent")
BETA_MIN, BETA_MAX = 0.1, 20.0

# Tolerances pinned by the repository's own verification (cli._verify_rows).
IFT_TOL = 1e-8           # bptt vs IFT oracle, relative
SURROGATE_FD_TOL = 1e-5  # one-step gradients vs surrogate central differences
DECOMPOSITION_TOL = 1e-10
PICARD_TOL = 1e-10       # Picard stopping tolerance
FIXED_POINT_TOL = 1e-8   # Picard vs sequential trajectory, max abs
DSM_FD_TOL = 1e-5
DSM_FD_COORDS = 16
EVADE_M, EVADE_TAU, EVADE_LR, EVADE_LABEL = 4, 0.1, 0.15, 0


@dataclass(frozen=True)
class Size:
    """Problem sizes; `FULL` is the benchmark, `TINY` the smoke pass."""

    hidden: tuple[int, ...] = (64, 64)
    sweep_n: tuple[int, ...] = (10, 25, 50, 100, 200)
    key_n: int = 100            # N of the named grad-sweep metrics
    sample_n: int = 50          # sampling steps, and the checkpoint's schedule
    train_steps: int = 20
    train_batch: int = 96
    finetune_steps: int = 4
    finetune_batch: int = 8
    finetune_eval_every: int = 4
    heldout: int = 32
    steer_steps: int = 40
    evade_steps: int = 30
    setup_reps: int = 7         # fresh-interpreter set-ups per run


FULL = Size()
TINY = Size(hidden=(6, 6), sweep_n=(4, 6), key_n=6, sample_n=8, train_steps=2,
            train_batch=8, finetune_steps=2, finetune_batch=2,
            finetune_eval_every=1, heldout=2, steer_steps=3, evade_steps=3,
            setup_reps=1)
SIZES = {"full": FULL, "tiny": TINY}


def rel_err(a, b) -> float:
    """Relative gap as the repository's verify report computes it."""
    a, b = np.asarray(a), np.asarray(b)
    return float(np.linalg.norm(a - b)
                 / max(np.linalg.norm(a), np.linalg.norm(b), 1e-300))


def _over(label: str, err: float, tol: float) -> str | None:
    return None if err <= tol else f"{label}: {err:.3g} > {tol:g}"


def _finite_csv(path: Path, columns: tuple[str, ...]) -> str | None:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    if not rows:
        return f"{path.name} has no rows"
    for row in rows:
        for col in columns:
            if not math.isfinite(float(row[col])):
                return f"{path.name}: non-finite {col} in row {row}"
    return None


class Workload:
    name = ""
    key_op = ""                 # operation kind reported as key_op_ms
    ops_per_cycle = None        # units of mix_ops_per_s per cycle; None: one per operation
    traced_cycles = 1

    def __init__(self, seed: int, size: Size, work: Path):
        self.seed = seed
        self.size = size
        self.work = work
        self.first: dict = {}   # warm-up cycle outputs, for final_checks

    def named_metrics(self) -> list[tuple[str, str, str, float]]:
        """(metric, unit, operation kind or "mix", scale) for the report."""
        raise NotImplementedError

    def _model(self):
        """Seeded model, written as a checkpoint and read back."""
        den = model.Denoiser.create(seeding.stream_rng(self.seed, "init"),
                                    hidden=self.size.hidden)
        sched = Schedule("vp-linear", self.size.sample_n, BETA_MIN, BETA_MAX)
        path = self.work / "model.ckpt"
        checkpoint.save_checkpoint(path, den, sched)
        loaded, loaded_sched = checkpoint.load_checkpoint(path)
        if not all(np.array_equal(a, b) for a, b in zip(den.weights, loaded.weights)):
            raise RuntimeError("checkpoint round trip changed the weights")
        return loaded, loaded_sched, path

    def setup(self) -> None:
        raise NotImplementedError

    def cycle(self, c: int) -> list[tuple[str, object, object]]:
        """One pass of the operation mix: (kind, run, check) triples. `run()`
        is timed; `check(output)` returns an error string or None."""
        raise NotImplementedError

    def final_checks(self) -> list[tuple[str, str | None]]:
        return []


# ------------------------------------------------------------------ grad-sweep

class GradSweep(Workload):
    """Tape recording and backward dominate: tapes from ~20 to 3,002 nodes
    and up to ~8 MiB saved. Picard never runs."""

    name = "grad-sweep"
    traced_cycles = 3

    @property
    def key_op(self):
        return f"sdo@{self.size.key_n}"

    def named_metrics(self):
        n = self.size.key_n
        return [("bptt_params_ms", "ms", f"bptt@{n}", 1e3),
                ("sdo_params_ms", "ms", f"sdo@{n}", 1e3),
                ("sdo_latent_ms", "ms", f"sdo_latent@{n}", 1e3),
                ("sweep_grads_per_s", "1/s", "mix", 1.0)]

    def setup(self):
        den, _, _ = self._model()
        self.fields = {}
        for n in self.size.sweep_n:
            sched = Schedule("vp-linear", n, BETA_MIN, BETA_MAX)
            self.fields[n] = (model.DenoiserField(den, sched), sched)
        target = seeding.stream_rng(self.seed, "objective").standard_normal(2)
        self.objective = objectives.QuadraticTarget(target)
        self.noise_rng = seeding.stream_rng(self.seed, "noise")
        self.iprime_rng = seeding.stream_rng(self.seed, "iprime")

    def cycle(self, c):
        x = self.noise_rng.standard_normal(2)
        obj = self.objective
        if c == 0:
            self.first = {"x": x, "iprime": {}, "out": {}}

        def check(kind):
            def verify(rep):
                if c == 0:
                    self.first["out"][kind] = rep.gradient
                return None if rep.finite else f"{kind}: non-finite gradient"
            return verify

        ops = []
        for n in self.size.sweep_n:
            f, s = self.fields[n]
            ip = int(self.iprime_rng.integers(1, n + 1))
            if c == 0:
                self.first["iprime"][n] = ip
            calls = {
                "bptt": lambda f=f, s=s: engines.grad_bptt(f, s, x, obj, PARAMS),
                "sdo": lambda f=f, s=s, ip=ip: engines.grad_sdo_params(
                    f, s, x, obj, "fixed", iprime=ip),
                "sdo_full": lambda f=f, s=s: engines.grad_sdo_params(
                    f, s, x, obj, "full-sum"),
                "sdo_latent": lambda f=f, s=s: engines.grad_sdo_latent(f, s, x, obj),
                "bptt_latent": lambda f=f, s=s: engines.grad_bptt(f, s, x, obj, LATENT),
            }
            ops += [(f"{est}@{n}", run, check(f"{est}@{n}")) for est, run in calls.items()]
        return ops

    def final_checks(self):
        """Warm-up outputs against the oracles: IFT for bptt at every N,
        surrogate differences for the one-step gradients, and the per-step
        decomposition of the full-sum gradient at the smallest N."""
        x, out, obj = self.first["x"], self.first["out"], self.objective
        results = []
        for n in self.size.sweep_n:
            f, s = self.fields[n]
            for kind, target in ((f"bptt@{n}", PARAMS), (f"bptt_latent@{n}", LATENT)):
                ift = engines.grad_ift_oracle(f, s, x, obj, target).gradient
                results.append((f"{kind} vs IFT oracle",
                                _over(kind, rel_err(out[kind], ift), IFT_TOL)))
            fd = engines.grad_fd_oracle(f, s, x, obj, LATENT, "sdo-surrogate-at-m", m=n)
            results.append((f"sdo_latent@{n} vs surrogate FD", _over(
                f"sdo_latent@{n}", rel_err(out[f"sdo_latent@{n}"], fd), SURROGATE_FD_TOL)))
        n = min(self.size.sweep_n)
        f, s = self.fields[n]
        ip = self.first["iprime"][n]
        fd = engines.grad_fd_oracle(f, s, x, obj, PARAMS, "sdo-surrogate-at-iprime",
                                    iprime=ip)
        results.append((f"sdo@{n} (i'={ip}) vs surrogate FD", _over(
            f"sdo@{n}", rel_err(out[f"sdo@{n}"], fd), SURROGATE_FD_TOL)))
        total = sum(engines.grad_sdo_params(f, s, x, obj, "fixed", iprime=i).gradient
                    for i in range(1, n + 1))
        gap = float(np.max(np.abs(total - out[f"sdo_full@{n}"])))
        results.append((f"sum of fixed-i sdo@{n} vs sdo_full@{n}",
                        _over(f"sdo_full@{n}", gap, DECOMPOSITION_TOL)))
        return results


# ---------------------------------------------------------------------- sample

class Sample(Workload):
    """Values only: no node recorded and no backward; ~15,600 primitive
    calls per Picard solve."""

    name = "sample"
    traced_cycles = 10

    @property
    def key_op(self):
        return f"picard@{self.size.sample_n}"

    def named_metrics(self):
        n = self.size.sample_n
        return [("sequential_ms", "ms", f"sequential@{n}", 1e3),
                ("picard_solve_ms", "ms", f"picard@{n}", 1e3)]

    def setup(self):
        den, sched, _ = self._model()
        self.field = model.DenoiserField(den, sched)
        self.schedule = sched
        self.noise_rng = seeding.stream_rng(self.seed, "noise")

    def cycle(self, c):
        x = self.noise_rng.standard_normal(2)
        f, s, n = self.field, self.schedule, self.size.sample_n
        seq = {}

        def check_seq(traj):
            seq["states"] = traj.states
            ok = np.all(np.isfinite(traj.states))
            return None if ok else "sequential: non-finite state"

        def check_picard(res):
            return check_fixed_point(res, seq.get("states"), n)

        return [(f"sequential@{n}", lambda: sampler.sample_sequential(f, s, x), check_seq),
                (f"picard@{n}", lambda: sampler.sample_picard(f, s, x, PICARD_TOL),
                 check_picard)]


def check_fixed_point(res, sequential_states, n_steps: int) -> str | None:
    """Picard result against the sequential trajectory from the same noise."""
    if sequential_states is None:
        return "picard: no sequential trajectory to compare"
    if not res.converged:
        return f"picard: not converged after {res.iters_used} iterations"
    if res.iters_used > n_steps:
        return f"picard: {res.iters_used} iterations > N={n_steps}"
    gap = float(np.max(np.abs(res.trajectory.states - sequential_states)))
    return _over("picard vs sequential", gap, FIXED_POINT_TOL)


# ----------------------------------------------------------------------- train

TRAIN_CFG = """[train]
dataset = gaussian-mixture-ring
dataset_seed = {dataset_seed}
modes = 8
radius = 1.0
noise = 0.1
schedule = vp-linear
beta_min = {beta_min}
beta_max = {beta_max}
n_steps = {n_steps}
hidden = {hidden}
parameterization = epsilon
steps = {steps}
batch = {batch}
lr = 0.0015
t_min = 0.001
data_size = 4096
seed = {seed}
checkpoint = model.ckpt
"""


def _cli_seed(seed: int, c: int) -> int:
    """Per-invocation master seed, so no two invocations repeat inputs."""
    return (seed * 1_000_003 + c) % 2 ** 63


class Train(Workload):
    """A wide, shallow tape: 96 independent subgraphs per backward, and no
    sampler."""

    name = "train"
    key_op = "train"
    traced_cycles = 3

    def named_metrics(self):
        return [("dsm_steps_per_s", "1/s", "mix", 1.0)]

    @property
    def ops_per_cycle(self):
        return self.size.train_steps  # DSM steps per invocation

    def setup(self):
        self.denoiser, self.schedule, _ = self._model()
        self.config = self.work / "train.cfg"
        self.config.write_text(TRAIN_CFG.format(
            dataset_seed=self.seed % 2 ** 31, beta_min=BETA_MIN,
            beta_max=BETA_MAX, n_steps=self.size.sample_n,
            hidden=",".join(map(str, self.size.hidden)), steps=self.size.train_steps,
            batch=self.size.train_batch, seed=self.seed), encoding="utf-8")

    def cycle(self, c):
        out = self.work / f"train-{c}"
        argv = ["train", "--config", str(self.config), "--seed",
                str(_cli_seed(self.seed, c)), "--out", str(out), "--quiet"]

        def check(code):
            try:
                if code != 0:
                    return f"train: exit code {code}"
                err = _finite_csv(out / "loss.csv", ("loss",))
                if err:
                    return f"train: {err}"
                den, _ = checkpoint.load_checkpoint(out / "model.ckpt")
                if not all(np.all(np.isfinite(w)) for w in den.weights):
                    return "train: non-finite weights in the checkpoint"
                return None
            finally:
                shutil.rmtree(out, ignore_errors=True)
        return [("train", lambda: cli.main(argv), check)]

    def final_checks(self):
        """The DSM loss gradient the training step uses, against central
        differences on seeded coordinates, at the benchmark's batch size."""
        den, sched = self.denoiser, self.schedule
        ring = data.Dataset2D("gaussian-mixture-ring", seed=self.seed % 2 ** 31,
                              params={"modes": 8, "radius": 1.0, "noise": 0.1})
        x0, _ = ring.sample(self.size.train_batch)
        rng = seeding.stream_rng(self.seed, "training")
        ts = rng.uniform(1e-3, 1.0, size=x0.shape[0])
        eps = rng.standard_normal(x0.shape)

        tape = Tape()
        theta = [tape.variable(w) for w in den.weights]
        loss = model.dsm_loss_var(tape, den, sched, x0, ts, eps, theta)
        if not math.isfinite(float(loss.value)):
            return [("dsm loss finite", "dsm loss is not finite")]
        grads = tape.backward(loss)
        flat = np.concatenate([grads[v].ravel() for v in theta])
        base = den.flatten()
        coords = seeding.stream_rng(self.seed, "fd").choice(
            base.size, size=min(DSM_FD_COORDS, base.size), replace=False)

        def loss_at(vec):
            value_tape = Tape(recording=False)
            return float(model.dsm_loss_var(value_tape, den.with_flat(vec), sched,
                                            x0, ts, eps).value)

        h = 1e-5
        fd = []
        for j in coords:
            e = np.zeros_like(base)
            e[j] = h
            fd.append((loss_at(base + e) - loss_at(base - e)) / (2 * h))
        return [("dsm_loss_var gradient vs central differences",
                 _over("dsm gradient", rel_err(flat[coords], fd), DSM_FD_TOL))]


# ------------------------------------------------------------------------ tune

FINETUNE_CFG = """[finetune]
checkpoint = {ckpt}
objective = rbf-reward
center = 1.0,0.0
width = 0.5
estimator = sdo
batch = {batch}
steps = {steps}
lr = 0.0005
eval_every = {eval_every}
eval_batch = {heldout}
out_checkpoint = tuned.ckpt
"""

STEER_CFG = """[optimize]
checkpoint = {ckpt}
objective = quadratic-target
target = 1.0,0.0
estimator = sdo
lr = 0.05
steps = {steps}
"""

EVADE_CFG = """[optimize]
checkpoint = {ckpt}
objective = classifier-margin
classifier = {classifier}
label = {label}
evade = true
m = {m}
estimator = sdo
lr = {lr}
steps = {steps}
tau = {tau}
track_best = true
"""

RUNLOG_COLUMNS = ("loss_or_reward", "grad_l2", "elapsed_s")


class Tune(Workload):
    """The only path through drivers, non-quadratic objectives and the CLI:
    value rollouts and held-out evaluation against one-step gradients."""

    name = "tune"
    key_op = "finetune"
    traced_cycles = 2

    def named_metrics(self):
        return [("finetune_run_s", "s", "finetune", 1.0),
                ("steer_run_s", "s", "steer", 1.0),
                ("evade_run_s", "s", "evade", 1.0)]

    def setup(self):
        den, sched, ckpt = self._model()
        self.field = model.DenoiserField(den, sched)
        self.schedule = sched
        sz = self.size
        self.configs = {}
        for kind, text in (
                ("finetune", FINETUNE_CFG.format(
                    ckpt=ckpt, batch=sz.finetune_batch, steps=sz.finetune_steps,
                    eval_every=sz.finetune_eval_every, heldout=sz.heldout)),
                ("steer", STEER_CFG.format(ckpt=ckpt, steps=sz.steer_steps)),
                ("evade", EVADE_CFG.format(
                    ckpt=ckpt, classifier=CLASSIFIER, label=EVADE_LABEL, m=EVADE_M,
                    lr=EVADE_LR, steps=sz.evade_steps, tau=EVADE_TAU))):
            path = self.work / f"{kind}.cfg"
            path.write_text(text, encoding="utf-8")
            self.configs[kind] = path

    def _evade_center(self, seed: int) -> tuple[np.ndarray, np.ndarray]:
        """(initial noise, its latent at step m): the evasion ball's center."""
        x_init = seeding.stream_rng(seed, "noise").standard_normal(2)
        z = x_init
        for n in range(self.schedule.n_steps, EVADE_M, -1):
            z = sampler.ddim_step(self.field, self.schedule, z, n)
        return x_init, z

    def cycle(self, c):
        seed = _cli_seed(self.seed, c)
        ops = []
        for kind, sub in (("finetune", "finetune"), ("steer", "optimize"),
                          ("evade", "optimize")):
            out = self.work / f"{kind}-{c}"
            argv = [sub, "--config", str(self.configs[kind]), "--seed", str(seed),
                    "--out", str(out), "--quiet"]
            ops.append((kind, lambda argv=argv: cli.main(argv),
                        self._checker(kind, out, seed, c)))
        return ops

    def _checker(self, kind, out, seed, c):
        def check(code):
            try:
                if code != 0:
                    return f"{kind}: exit code {code}"
                err = _finite_csv(out / "runlog.csv", RUNLOG_COLUMNS)
                if not err and kind == "finetune":
                    err = _finite_csv(out / "heldout.csv", ("mean_objective",))
                if not err and kind == "evade":
                    z = self._final_latent(out / "trajectory.csv")
                    if c == 0:
                        self.first["evade"] = (seed, z)
                    _, center = self._evade_center(seed)
                    gap = float(np.max(np.abs(z - center)))
                    if gap > EVADE_TAU:
                        err = f"final latent {gap:.3g} from center"
                return f"{kind}: {err}" if err else None
            finally:
                shutil.rmtree(out, ignore_errors=True)
        return check

    @staticmethod
    def _final_latent(path: Path) -> np.ndarray:
        with open(path, newline="", encoding="utf-8") as fh:
            first = next(csv.DictReader(fh))  # rows run from step m down to 0
        return np.array([float(first["x0"]), float(first["x1"])])

    def final_checks(self):
        """Replay the warm-up evasion through `drivers.optimize_latent`: every
        iterate must lie in the tau-ball, and the CLI must end at the same
        latent."""
        seed, cli_latent = self.first["evade"]
        x_init, center = self._evade_center(seed)
        clf = objectives.load_classifier(CLASSIFIER)
        objective = objectives.make_objective("classifier-margin", classifier=clf,
                                              label=EVADE_LABEL, evade=True)
        worst = []
        config = drivers.LatentOptConfig(m=EVADE_M, estimator="sdo", lr=EVADE_LR,
                                         steps=self.size.evade_steps, tau=EVADE_TAU)
        result = drivers.optimize_latent(
            self.field, self.schedule, x_init, objective, config,
            on_iterate=lambda step, z: worst.append(float(np.max(np.abs(z - center)))))
        err = _over("evasion iterate distance", max(worst), EVADE_TAU)
        if err is None and not np.array_equal(result.latent, cli_latent):
            err = "optimize CLI final latent differs from the drivers replay"
        return [(f"every evasion iterate within tau={EVADE_TAU}", err)]


WORKLOADS = {w.name: w for w in (GradSweep, Sample, Train, Tune)}
