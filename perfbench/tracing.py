"""Out-of-program tracing for the traced benchmark run.

`Tracer.install` replaces the public functions of each shortcutdiff layer
with timing wrappers, and rebinds every module-level name that was imported
by value (for example `engines.ddim_step_var` or `drivers.grad_sdo_params`),
so calls made between layers are seen too. Nothing here is imported by the
program; the untraced run never installs it.

Each wrapper call records one span (name, start, end, parent) in flat
in-memory arrays. Self time is a span's duration minus the durations of its
direct children; a layer's busy time is the length of the union of its spans.
The whole program runs on one thread, so no span ever waits on another and
there is no wait time to report.
"""

from __future__ import annotations

import functools
import inspect
import os
import statistics
import sys
from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np

# Public functions wrapped per layer: "name" is a module-level function,
# "Class.method" a method patched on the class that defines it.
TARGETS = {
    "tape": ["Tape.backward"],  # the 13 primitives are added from tape.PRIMITIVES
    "schedule": ["Schedule.beta", "Schedule.alpha_sigma", "Schedule.drift_coeffs",
                 "Schedule.score_scale"],
    "model": ["Denoiser.build", "DenoiserField.build", "VelocityField.value",
              "velocity", "kernel_rates", "dsm_loss_var", "dsm_loss",
              "train_denoiser"],
    "sampler": ["ddim_step_var", "ddim_step", "sample_sequential", "picard_update",
                "sample_picard", "verify_fixed_point", "residual_violations"],
    "engines": ["grad_bptt", "grad_sdo_latent", "grad_sdo_params", "grad_truncated",
                "grad_fd_oracle", "grad_ift_oracle", "evaluate_bounds",
                "parameter_gradient", "grad_norm_sweep", "sweep_norm_ratios"],
    "objectives": ["QuadraticTarget.build", "RbfReward.build",
                   "MomentMatch.build_batch", "ClassifierMargin.build",
                   "Composite.build", "ToyClassifier.build_logit",
                   "Objective.value", "eval_objective", "make_objective",
                   "load_classifier"],
    "optim": ["adam_step"],
    "drivers": ["latent_pass", "optimize_latent", "finetune_params", "project_ball"],
    "cli": ["main", "cmd_train", "cmd_verify", "cmd_bench", "cmd_optimize",
            "cmd_finetune"],
    "checkpoint": ["load_checkpoint", "save_checkpoint"],
}

OBJECTIVE_BUILDS = ("objectives.QuadraticTarget.build", "objectives.RbfReward.build",
                    "objectives.MomentMatch.build_batch",
                    "objectives.ClassifierMargin.build", "objectives.Composite.build")

ENGINE_LABELS = ("bptt", "sdo", "sdo_full", "sdo_latent", "bptt_latent")

# (name, unit) of every per-layer metric, in report order.
PER_LAYER = (
    ("tape.prim_calls", "count"), ("tape.prim_calls_unrecorded", "count"),
    ("tape.prim_s", "s"), ("tape.nodes_recorded", "count"), ("tape.saved_mib", "MiB"),
    ("tape.backward_calls", "count"), ("tape.backward_self_s", "s"),
    ("schedule.coeff_calls", "count"), ("schedule.self_s", "s"),
    ("model.net_calls", "count"), ("model.net_self_s", "s"),
    ("model.field_self_s", "s"), ("model.dsm_loss_s", "s"),
    ("sampler.ddim_steps", "count"), ("sampler.ddim_self_s", "s"),
    ("sampler.picard_updates", "count"), ("sampler.picard_update_s", "s"),
    ("sampler.picard_iters", "count"), ("sampler.picard_useful_ratio", "ratio"),
    *((f"engines.{e}_s", "s") for e in ENGINE_LABELS),
    *((f"engines.tape_nodes.{e}", "count") for e in ENGINE_LABELS),
    ("engines.time_ratio_sdo_bptt", "ratio"), ("engines.time_ratio_sdo_bptt.q1", "ratio"),
    ("engines.time_ratio_sdo_bptt.q3", "ratio"),
    ("objectives.build_calls", "count"), ("objectives.build_s", "s"),
    ("objectives.value_calls", "count"), ("objectives.value_s", "s"),
    ("optim.adam_calls", "count"), ("optim.adam_s", "s"),
    ("drivers.latent_pass_calls", "count"), ("drivers.latent_pass_s", "s"),
    ("drivers.finetune_self_s", "s"), ("drivers.value_net_calls_per_grad", "ratio"),
    ("drivers.skipped_steps", "count"),
    ("cli.self_s", "s"), ("cli.checkpoint_load_s", "s"), ("cli.bytes_written", "bytes"),
    ("trace.overhead_ratio", "ratio"),
)


def _dir_bytes(path) -> int:
    total = 0
    for dirpath, _, files in os.walk(path):
        total += sum(os.path.getsize(os.path.join(dirpath, f)) for f in files)
    return total


def _saved_bytes(tape) -> int:
    """Computed bytes the tape holds for backward: node outputs and saved
    arrays, each distinct array counted once."""
    seen = {}
    for node in tape.nodes:
        seen[id(node.out.value)] = node.out.value.nbytes
        for s in node.saved:
            if isinstance(s, np.ndarray):
                seen[id(s)] = s.nbytes
    return sum(seen.values())


class Tracer:
    """In-memory span store plus the counters read at layer boundaries."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_unrecorded = array("b")  # prim or net call that added no node
        self.stack = [-1]
        self._patches: list[tuple[object, str, object, object]] = []
        self.net_calls = 0
        self.drivers_depth = 0
        self.driver_value_net_calls = 0
        self.driver_grads = 0
        self.saved_bytes_max = 0
        self.picard = []       # (N, iterations, network calls) per solve
        self.engine_calls = {}  # (label, N) -> [(seconds, tape nodes)]
        self.skipped_steps = 0
        self.cli_bytes = 0

    # ----------------------------------------------------------------- spans

    def _nid(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin(self, name: str) -> int:
        idx = len(self.span_name)
        self.span_name.append(self._nid(name))
        self.span_parent.append(self.stack[-1])
        self.span_unrecorded.append(0)
        self.span_end.append(0.0)
        self.stack.append(idx)
        self.span_start.append(perf_counter())
        return idx

    def end(self, idx: int) -> None:
        self.span_end[idx] = perf_counter()
        self.stack.pop()

    def _wrap(self, fn, name, enter=None, leave=None):
        begin, end = self.begin, self.end

        def traced(*args, **kwargs):
            state = enter(args, kwargs) if enter is not None else None
            idx = begin(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end(idx)
                if leave is not None:
                    leave(state, args, kwargs, result, idx)
        return functools.update_wrapper(traced, fn)

    def _wrap_recorder(self, fn, name, net=False):
        """Tape primitives and network builds: flag calls that added no node.
        A primitive's tape is its `self`; `Denoiser.build` takes it first."""
        nid = self._nid(name)
        span_name, span_parent = self.span_name, self.span_parent
        span_start, span_end, flag = self.span_start, self.span_end, self.span_unrecorded
        stack = self.stack

        def traced(owner, *args, **kwargs):
            tape = args[0] if net else owner
            n0 = len(tape.nodes)
            idx = len(span_name)
            span_name.append(nid)
            span_parent.append(stack[-1])
            flag.append(0)
            span_end.append(0.0)
            stack.append(idx)
            span_start.append(perf_counter())
            try:
                return fn(owner, *args, **kwargs)
            finally:
                span_end[idx] = perf_counter()
                stack.pop()
                unrecorded = len(tape.nodes) == n0
                flag[idx] = unrecorded
                if net:
                    self.net_calls += 1
                    if unrecorded and self.drivers_depth:
                        self.driver_value_net_calls += 1
        return functools.update_wrapper(traced, fn)

    # ---------------------------------------------------------------- hooks

    def _before_backward(self, args, kwargs):
        idx = self.begin("trace.saved_bytes_accounting")
        self.saved_bytes_max = max(self.saved_bytes_max, _saved_bytes(args[0]))
        self.end(idx)

    def _engine_leave(self, fn):
        sig = inspect.signature(fn)
        fname = fn.__name__

        def leave(state, args, kwargs, result, idx):
            if self.drivers_depth:
                self.driver_grads += 1
            if result is None:
                return
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            a = bound.arguments
            if fname == "grad_bptt":
                label = "bptt" if a["target"].kind == "params" else "bptt_latent"
            elif fname == "grad_sdo_params":
                label = "sdo_full" if a["selection"] == "full-sum" else "sdo"
            else:
                label = "sdo_latent"
            dur = self.span_end[idx] - self.span_start[idx]
            self.engine_calls.setdefault((label, a["schedule"].n_steps), []).append(
                (dur, result.tape_node_count))
        return leave

    def _picard_enter(self, args, kwargs):
        return self.net_calls

    def _picard_leave(self, net0, args, kwargs, result, idx):
        if result is not None:
            self.picard.append((args[1].n_steps, result.iters_used,
                                self.net_calls - net0))

    def _drivers_enter(self, args, kwargs):
        self.drivers_depth += 1

    def _drivers_leave(self, state, args, kwargs, result, idx):
        self.drivers_depth -= 1

    def _latent_pass_leave(self, state, args, kwargs, result, idx):
        self.drivers_depth -= 1
        self.driver_grads += 1

    def _finetune_leave(self, state, args, kwargs, result, idx):
        self.drivers_depth -= 1
        if result is not None:
            self.skipped_steps += len(result.skipped_steps)

    def _cli_main_leave(self, state, args, kwargs, result, idx):
        argv = list(args[0]) if args else list(kwargs.get("argv") or [])
        if "--out" in argv:
            self.cli_bytes += _dir_bytes(argv[argv.index("--out") + 1])

    # -------------------------------------------------------------- install

    def _replace(self, owner, attr, new):
        self._patches.append((owner, attr, getattr(owner, attr), new))
        setattr(owner, attr, new)

    def install(self, package) -> None:
        """Wrap every target of every layer of the imported package."""
        mods = {name: sys.modules[f"{package.__name__}.{name}"] for name in TARGETS}
        program_modules = [m for n, m in sys.modules.items()
                           if n == package.__name__ or n.startswith(package.__name__ + ".")]
        targets = dict(TARGETS)
        targets["tape"] = [f"Tape.{p}" for p in mods["tape"].PRIMITIVES] + TARGETS["tape"]
        for layer, names in targets.items():
            mod = mods[layer]
            for target in names:
                owner_name, _, attr = target.rpartition(".")
                owner = getattr(mod, owner_name) if owner_name else mod
                fn = owner.__dict__[attr] if owner_name else getattr(mod, attr)
                wrapped = self._make(layer, target, fn)
                if owner_name:
                    self._replace(owner, attr, wrapped)
                    continue
                for m in program_modules:  # rebind names imported by value
                    for key, value in list(vars(m).items()):
                        if value is fn:
                            self._replace(m, key, wrapped)

    def _make(self, layer, target, fn):
        name = f"{layer}.{target}"
        if layer == "tape" and target != "Tape.backward":
            return self._wrap_recorder(fn, name)
        if target == "Denoiser.build":
            return self._wrap_recorder(fn, name, net=True)
        if target == "Tape.backward":
            return self._wrap(fn, name, enter=self._before_backward)
        if target in ("grad_bptt", "grad_sdo_params", "grad_sdo_latent"):
            return self._wrap(fn, name, leave=self._engine_leave(fn))
        if target == "sample_picard":
            return self._wrap(fn, name, self._picard_enter, self._picard_leave)
        if target == "latent_pass":
            return self._wrap(fn, name, self._drivers_enter, self._latent_pass_leave)
        if target == "optimize_latent":
            return self._wrap(fn, name, self._drivers_enter, self._drivers_leave)
        if target == "finetune_params":
            return self._wrap(fn, name, self._drivers_enter, self._finetune_leave)
        if layer == "cli" and target == "main":
            return self._wrap(fn, name, leave=self._cli_main_leave)
        return self._wrap(fn, name)

    def uninstall(self) -> None:
        for owner, attr, original, _ in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    @contextmanager
    def suspended(self):
        """Run the benchmark's own checks without recording them."""
        patches = list(self._patches)
        self.uninstall()
        try:
            yield
        finally:
            for owner, attr, _, wrapped in patches:
                setattr(owner, attr, wrapped)
            self._patches = patches

    # --------------------------------------------------------------- output

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.span_name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.span_parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.span_start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.span_end, dtype=np.float64).copy(),
            "unrecorded": np.frombuffer(self.span_unrecorded, dtype=np.int8).copy(),
            "names": np.array(self.names),
        }

    def write(self, path) -> None:
        np.savez(path, **self.arrays())

    def layer_metrics(self, key_n: int, sdo_bptt_ratio: tuple[float, float, float],
                      overhead_ratio: float) -> dict[str, float]:
        """Every per-layer metric; 0 where the workload never reaches the layer."""
        a = self.arrays()
        name, parent = a["name"], a["parent"]
        dur = a["end"] - a["start"]
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        self_time = dur - child
        ids = {n: i for i, n in enumerate(self.names)}

        def mask(*names):
            want = [ids[n] for n in names if n in ids]
            return np.isin(name, want)

        def prefix_mask(prefix):
            return mask(*[n for n in self.names if n.startswith(prefix)])

        def busy(m):
            """Length of the union of the selected spans (they nest or are disjoint)."""
            s, e = a["start"][m], a["end"][m]
            if not s.size:
                return 0.0
            prev_end = np.concatenate(([-np.inf], np.maximum.accumulate(e)[:-1]))
            outer = s >= prev_end
            return float((e - s)[outer].sum())

        prims = mask(*[n for n in self.names
                       if n.startswith("tape.Tape.") and n != "tape.Tape.backward"])
        backward = mask("tape.Tape.backward")
        net = mask("model.Denoiser.build")
        n_prims = int(prims.sum())
        unrec = int(a["unrecorded"][prims].sum())

        m = {
            "tape.prim_calls": n_prims,
            "tape.prim_calls_unrecorded": unrec,
            "tape.prim_s": busy(prims),
            "tape.nodes_recorded": n_prims - unrec,
            "tape.saved_mib": self.saved_bytes_max / 2 ** 20,
            "tape.backward_calls": int(backward.sum()),
            "tape.backward_self_s": float(self_time[backward].sum()),
            "schedule.coeff_calls": int(prefix_mask("schedule.").sum()),
            "schedule.self_s": float(self_time[prefix_mask("schedule.")].sum()),
            "model.net_calls": int(net.sum()),
            "model.net_self_s": float(self_time[net].sum()),
            "model.field_self_s": float(self_time[mask("model.DenoiserField.build")].sum()),
            "model.dsm_loss_s": busy(mask("model.dsm_loss_var")),
            "sampler.ddim_steps": int(mask("sampler.ddim_step_var").sum()),
            "sampler.ddim_self_s": float(self_time[mask("sampler.ddim_step_var")].sum()),
            "sampler.picard_updates": int(mask("sampler.picard_update").sum()),
            "sampler.picard_update_s": busy(mask("sampler.picard_update")),
            "sampler.picard_iters": (statistics.mean(p[1] for p in self.picard)
                                     if self.picard else 0),
            "sampler.picard_useful_ratio": (
                sum(p[0] for p in self.picard) / sum(p[2] for p in self.picard)
                if self.picard else 0.0),
        }
        for label in ENGINE_LABELS:
            calls = self.engine_calls.get((label, key_n), [])
            m[f"engines.{label}_s"] = (statistics.median(c[0] for c in calls)
                                       if calls else 0.0)
            m[f"engines.tape_nodes.{label}"] = (statistics.median(c[1] for c in calls)
                                                if calls else 0)
        (m["engines.time_ratio_sdo_bptt.q1"], m["engines.time_ratio_sdo_bptt"],
         m["engines.time_ratio_sdo_bptt.q3"]) = sdo_bptt_ratio
        builds = mask(*OBJECTIVE_BUILDS)
        value = mask("objectives.Objective.value")
        adam = mask("optim.adam_step")
        lp = mask("drivers.latent_pass")
        cli = prefix_mask("cli.")
        m.update({
            "objectives.build_calls": int(builds.sum()),
            "objectives.build_s": busy(builds),
            "objectives.value_calls": int(value.sum()),
            "objectives.value_s": busy(value),
            "optim.adam_calls": int(adam.sum()),
            "optim.adam_s": busy(adam),
            "drivers.latent_pass_calls": int(lp.sum()),
            "drivers.latent_pass_s": busy(lp),
            "drivers.finetune_self_s": float(
                self_time[mask("drivers.finetune_params")].sum()),
            "drivers.value_net_calls_per_grad": (
                self.driver_value_net_calls / self.driver_grads
                if self.driver_grads else 0.0),
            "drivers.skipped_steps": self.skipped_steps,
            "cli.self_s": float(self_time[cli].sum()),
            "cli.checkpoint_load_s": busy(mask("checkpoint.load_checkpoint")),
            "cli.bytes_written": self.cli_bytes,
            "trace.overhead_ratio": overhead_ratio,
        })
        return m
