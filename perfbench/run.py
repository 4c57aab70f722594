#!/usr/bin/env python3
"""shortcutdiff benchmark: one seeded, single-process, closed-loop workload.

    python3 perfbench/run.py --workload grad-sweep --seed 1 --seconds 20 --trace 0

Run from the repository root; the program is imported from `src/` of the
same checkout. One client runs one operation at a time (closed loop). A run
times several fresh interpreters that import the program and set the
workload up (`setup_s`), runs one untimed warm-up cycle of the workload's
operation mix, then timed cycles until `--seconds` have passed, and checks
every output outside the timed regions. With `--trace 1` a fixed number of
traced cycles runs first, and the run reports per-layer metrics instead of
the end-to-end ones. The last line of standard output is one JSON object;
the exit code is 1 if any check failed and 2 if the program's sources are
missing.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import tempfile
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

NPROC = len(os.sched_getaffinity(0))
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_ENV:  # must happen before numpy loads its BLAS
    if not os.environ.get(_var, "").isdigit() or int(os.environ[_var]) > NPROC:
        os.environ[_var] = str(NPROC)

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("grad-sweep", "sample", "train", "tune")
END_TO_END = (("setup_s", "s"), ("key_op_ms", "ms"), ("mix_ops_per_s", "1/s"),
              ("peak_rss_mib", "MiB"))
# Typical time of `HostSpeed.kernel` on the 2-core development host. Timings
# are reported at this nominal speed: raw x KERNEL_REF_S / kernel time.
KERNEL_REF_S = 3.0e-3


def load_program():
    """Import shortcutdiff from this checkout's src/ and nowhere else."""
    package_dir = SRC / "shortcutdiff"
    if not (package_dir / "__init__.py").is_file():
        print(f"perfbench: no program sources at {package_dir}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import shortcutdiff
    if Path(shortcutdiff.__file__).resolve().parent != package_dir.resolve():
        print(f"perfbench: imported shortcutdiff from {shortcutdiff.__file__}, "
              f"not {package_dir}", file=sys.stderr)
        sys.exit(2)
    return shortcutdiff


def host_block() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    max_threads = re.search(r"MAX_THREADS=(\d+)", blas.get("openblas configuration", ""))
    in_use = None
    for lib in (Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*"):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                in_use = int(getattr(handle, symbol)())
    return {"nproc": NPROC, "python": platform.python_version(),
            "numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}",
            "blas_max_threads": int(max_threads.group(1)) if max_threads else None,
            "blas_threads_cap": NPROC, "blas_threads_in_use": in_use}


class HostSpeed:
    """A fixed reference kernel, timed between cycles.

    The shared host's speed drifts by tens of percent over minutes, which
    no statistic inside one run can remove. The kernel has the shape of the
    program's own work (64-wide tanh layers, small numpy calls, Python
    loops) and calls no program code, so scaling a timing by the kernel's
    time measured next to it takes the drift out of the comparison.
    """

    def __init__(self):
        import numpy as np
        rng = np.random.Generator(np.random.PCG64(0))
        self.np = np
        self.w = rng.standard_normal((64, 64)) / 8.0
        self.h = rng.standard_normal(64)
        self.b = np.zeros(64)
        self.last = self.kernel()

    def kernel(self) -> float:
        tanh = self.np.tanh
        t0 = perf_counter()
        for _ in range(150):
            x = self.h
            for _ in range(4):
                x = tanh(self.w @ x + self.b)
            [float(v) for v in x[:8]]
        return perf_counter() - t0

    def factor(self) -> float:
        """KERNEL_REF_S over the mean of the kernel times before and after
        the work done since the previous call."""
        before, self.last = self.last, self.kernel()
        return KERNEL_REF_S / (0.5 * (before + self.last))


def tail(samples: list[float]) -> tuple[int, float] | None:
    """Highest whole percentile with at least ten samples beyond it (nearest
    rank), or None when that percentile would not exceed the median."""
    n = len(samples)
    p = math.floor(100 * (n - 10) / n) if n else 0
    if p <= 50:
        return None
    rank = math.ceil(p / 100 * n)
    return p, sorted(samples)[rank - 1]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as statistics.quantiles gives them."""
    if len(values) < 2:
        return tuple((values or [0.0]) * 3)
    return tuple(statistics.quantiles(values, n=4))


def run_cycle(wl, c: int, tracer=None) -> tuple[dict, int, list[str]]:
    """Run and check one cycle: ({kind: seconds} of the operations that
    passed, operations attempted, errors)."""
    times, errors, ops = {}, [], wl.cycle(c)
    for kind, run, check in ops:
        span = tracer.begin(f"op.{kind}") if tracer else None
        t0 = perf_counter()
        try:
            out, err = run(), None
        except Exception as exc:  # the benchmark's boundary: count and go on
            out, err = None, f"{kind}: {type(exc).__name__}: {exc}"
        dt = perf_counter() - t0
        if tracer:
            tracer.end(span)
        if err is None:
            try:
                with tracer.suspended() if tracer else nullcontext():
                    err = check(out)
            except Exception as exc:
                err = f"{kind}: check raised {type(exc).__name__}: {exc}"
        if err is None:
            times[kind] = dt
        else:
            errors.append(err)
    return times, len(ops), errors


def timed_setup(name: str, seed: int, size_name: str) -> float:
    """Seconds for a fresh interpreter to import the program and set the
    workload up: the set-up a user pays before any work. Not scaled by
    HostSpeed: process start and imports are not what its kernel measures,
    and scaling widened this metric's spread."""
    t0 = perf_counter()
    subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", name,
                    "--seed", str(seed), "--size", size_name, "--setup-only"],
                   check=True, stdout=subprocess.DEVNULL)
    return perf_counter() - t0


def setup_only(name: str, seed: int, size_name: str) -> None:
    load_program()
    import workloads
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix="setup-") as tmp:
        workloads.WORKLOADS[name](seed, workloads.SIZES[size_name], Path(tmp)).setup()


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 size_name: str = "full") -> dict:
    """Run one workload; returns metrics, counts, errors and report lines."""
    shortcutdiff = load_program()
    import tracing
    import workloads

    size = workloads.SIZES[size_name]
    OUT.mkdir(exist_ok=True)
    errors: list[str] = []
    attempted = 0
    setup_times = [timed_setup(name, seed, size_name) for _ in range(size.setup_reps)]
    with tempfile.TemporaryDirectory(dir=OUT, prefix="work-") as tmp:
        wl = workloads.WORKLOADS[name](seed, size, Path(tmp))
        wl.setup()

        def account(result):
            nonlocal attempted
            times, n_ops, errs = result
            attempted += n_ops
            errors.extend(errs)
            return times, n_ops

        account(run_cycle(wl, 0))  # warm-up: checked, not timed
        speed = HostSpeed()
        c = 1
        tracer, traced = None, []
        if trace:
            tracer = tracing.Tracer()
            tracer.install(shortcutdiff)
            try:
                for _ in range(wl.traced_cycles):
                    times, _ = account(run_cycle(wl, c, tracer))
                    traced.append(sum(times.values()) * speed.factor())
                    c += 1
            finally:
                tracer.uninstall()
        cycles = []  # (times, operations attempted, speed factor) per timed cycle
        deadline = perf_counter() + seconds
        while True:
            times, n_ops = account(run_cycle(wl, c))
            cycles.append((times, n_ops, speed.factor()))
            c += 1
            if perf_counter() >= deadline:
                break
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        try:
            finals = wl.final_checks()
        except Exception as exc:
            finals = [("final checks", f"raised {type(exc).__name__}: {exc}")]
        attempted += len(finals)
        errors.extend(f"{label}: {err}" for label, err in finals if err)

    ops_per_cycle = wl.ops_per_cycle or cycles[0][1]
    complete = [(t, f) for t, n, f in cycles if len(t) == n]
    raw_cycles = [t for t, _, _ in cycles]

    def samples(kind, scale, scaled=True):
        """Samples of an operation kind, or per-cycle rates for "mix";
        at the nominal host speed unless scaled is False."""
        if kind == "mix":
            return [ops_per_cycle / (sum(t.values()) * (f if scaled else 1.0))
                    for t, f in complete]
        return [t[kind] * scale * (f if scaled else 1.0) for t, _, f in cycles if kind in t]

    cycle_s = [sum(t.values()) * f for t, f in complete]

    key_n = size.key_n
    ratios = [cyc[f"sdo@{key_n}"] / cyc[f"bptt@{key_n}"] for cyc in raw_cycles
              if f"sdo@{key_n}" in cyc and f"bptt@{key_n}" in cyc]
    end_to_end = {
        "setup_s": statistics.median(setup_times),
        "key_op_ms": statistics.median(samples(wl.key_op, 1e3) or [math.nan]),
        "mix_ops_per_s": statistics.median(samples("mix", 1.0) or [math.nan]),
        "peak_rss_mib": peak_rss_mib,
    }

    lines = [f"perfbench workload={name} seed={seed} seconds={seconds:g} "
             f"trace={int(trace)}",
             "host " + " ".join(f"{k}={v}" for k, v in host_block().items()),
             "load single process, closed loop: one client, one operation at a time; "
             f"warm-up cycle untimed; {len(cycles)} timed cycles"
             + (f"; {len(traced)} traced cycles before them" if trace else ""),
             "host speed: reference kernel median "
             f"{KERNEL_REF_S / statistics.median(f for _, _, f in cycles) * 1e3:.4g} ms; "
             f"timings below are scaled to the nominal {KERNEL_REF_S * 1e3:g} ms, "
             "raw alongside",
             f"{'metric':<26} {'median':>12} {'unit':<6} {'raw':>12}  "
             "tail (highest pctl with >=10 beyond)"]

    def row(metric, unit, values, raw, higher=False):
        median = statistics.median(values) if values else math.nan
        raw_median = statistics.median(raw) if raw else math.nan
        t = tail([1 / v for v in values] if higher else values)
        if t is None:
            tail_txt = "n too small for a tail"
        else:
            tail_txt = f"p{t[0]}={1 / t[1] if higher else t[1]:.6g}"
        lines.append(f"{metric:<26} {median:>12.6g} {unit:<6} {raw_median:>12.6g}  "
                     f"{tail_txt} n={len(values)}")

    if not trace:  # a traced run's tracer skews memory and set-up order
        row("setup_s", "s", setup_times, setup_times)
        for metric, unit, kind, scale in wl.named_metrics():
            row(metric, unit, samples(kind, scale), samples(kind, scale, False),
                higher=kind == "mix")
        row("key_op_ms", "ms", samples(wl.key_op, 1e3), samples(wl.key_op, 1e3, False))
        row("mix_ops_per_s", "1/s", samples("mix", 1.0), samples("mix", 1.0, False),
            higher=True)
        lines.append(f"{'peak_rss_mib':<26} {peak_rss_mib:>12.6g} MiB    n=1")
    lines.append(f"{'failed_ops_ratio':<26} {len(errors) / attempted:>12.6g} ratio  "
                 f"failed={len(errors)} attempted={attempted}")
    if ratios:
        q = quartiles(ratios)
        lines.append(f"engines.time_ratio_sdo_bptt at N={key_n}: q1={q[0]:.4g} "
                     f"median={q[1]:.4g} q3={q[2]:.4g} n={len(ratios)} "
                     f"share>0.5={sum(r > 0.5 for r in ratios) / len(ratios):.3g}")
    for kind in sorted({k for cyc in raw_cycles for k in cyc}):
        vals, raw = samples(kind, 1e3), samples(kind, 1e3, False)
        lines.append(f"  op {kind:<22} median {statistics.median(vals):.6g} ms "
                     f"(raw {statistics.median(raw):.6g}) n={len(vals)}")

    metrics = {k: {"value": end_to_end[k], "unit": u} for k, u in END_TO_END}
    if trace:
        overhead = statistics.median(traced) / statistics.median(cycle_s)
        layer = tracer.layer_metrics(key_n, quartiles(ratios), overhead)
        metrics = {k: {"value": layer[k], "unit": u} for k, u in tracing.PER_LAYER}
        spans = OUT / f"trace-{name}-seed{seed}.npz"
        tracer.write(spans)
        lines.append("wait time: none to report; the program runs on one thread, "
                     "so no span waits on another")
        lines += [f"{k:<36} {layer[k]:.6g} {u}" for k, u in tracing.PER_LAYER]
        lines.append(f"spans: {len(tracer.span_name)} written to {spans.relative_to(ROOT)}")
    for err in errors[:20]:
        lines.append(f"FAILED {err}")
    return {"correct": not errors, "attempted": attempted, "failed": len(errors),
            "metrics": metrics, "lines": lines}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, help="length of the timed loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="problem sizes; tiny is the smoke-test size")
    parser.add_argument("--setup-only", action="store_true",
                        help="set the workload up and exit (times setup_s)")
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2 ** 63:
        parser.error("--seed must be in [0, 2^63)")
    if args.setup_only:
        setup_only(args.workload, args.seed, args.size)
        return 0
    if args.seconds is None:
        parser.error("--seconds is required")
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                          args.size)
    for line in result.pop("lines"):
        print(line)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
