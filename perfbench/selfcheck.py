#!/usr/bin/env python3
"""The benchmark's own test, at tiny sizes:

    python3 perfbench/selfcheck.py

1. a smoke pass of every workload, untraced and traced, whose metrics must
   match the names and units that BENCHMARK.json declares;
2. the grad-sweep checker must reject each kind of perturbed gradient;
3. the sample checker must reject a perturbed trajectory.

Exits 0 when every step passes.
"""

from __future__ import annotations

import json
import math
import sys
import tempfile
from pathlib import Path

import run

run.load_program()
import numpy as np  # noqa: E402  (after run.py caps the BLAS threads)
import workloads  # noqa: E402

SEED = 3


def smoke(failures: list[str]) -> None:
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expect = {False: {m["name"]: m["unit"] for m in declared["end_to_end"]},
              True: {m["name"]: m["unit"] for m in declared["per_layer"]}}
    for name in run.WORKLOAD_NAMES:
        for trace in (False, True):
            res = run.run_workload(name, SEED, 0.05, trace, "tiny")
            label = f"smoke {name} trace={int(trace)}"
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if not res["correct"] or res["attempted"] < 1:
                failures.append(f"{label}: {res['failed']} failed: {res['lines'][-3:]}")
            elif got != expect[trace]:
                failures.append(f"{label}: metrics {sorted(got.items())} differ "
                                f"from BENCHMARK.json")
            elif not all(math.isfinite(v["value"]) for v in res["metrics"].values()):
                failures.append(f"{label}: non-finite metric value")
            else:
                print(f"ok   {label}: {res['attempted']} operations checked")


def warm_cycle(wl) -> None:
    times, n_ops, errors = run.run_cycle(wl, 0)
    if errors:
        raise AssertionError(f"{wl.name}: unperturbed cycle failed: {errors}")


def perturbed_gradient_rejected(failures: list[str], work: Path) -> None:
    wl = workloads.GradSweep(SEED, workloads.TINY, work)
    wl.setup()
    warm_cycle(wl)
    clean = [err for _, err in wl.final_checks() if err]
    if clean:
        failures.append(f"grad-sweep oracle checks fail unperturbed: {clean}")
        return
    n = min(wl.size.sweep_n)
    for kind in (f"bptt@{n}", f"bptt_latent@{n}", f"sdo@{n}", f"sdo_latent@{n}",
                 f"sdo_full@{n}"):
        original = wl.first["out"][kind]
        bumped = original.copy()
        bumped[0] += 1e-4 * max(np.linalg.norm(original), 1.0)
        wl.first["out"][kind] = bumped
        caught = [err for _, err in wl.final_checks() if err and err.startswith(kind)]
        wl.first["out"][kind] = original
        if caught:
            print(f"ok   perturbed {kind} rejected: {caught[0]}")
        else:
            failures.append(f"perturbed {kind} was not rejected")


def perturbed_trajectory_rejected(failures: list[str], work: Path) -> None:
    wl = workloads.Sample(SEED, workloads.TINY, work)
    wl.setup()
    warm_cycle(wl)
    x = workloads.seeding.stream_rng(SEED, "noise").standard_normal(2)
    traj = workloads.sampler.sample_sequential(wl.field, wl.schedule, x)
    pic = workloads.sampler.sample_picard(wl.field, wl.schedule, x, workloads.PICARD_TOL)
    n = wl.size.sample_n
    err = workloads.check_fixed_point(pic, traj.states, n)
    if err:
        failures.append(f"unperturbed trajectory rejected: {err}")
        return
    bumped = traj.states.copy()
    bumped[n // 2, 0] += 1e-6
    err = workloads.check_fixed_point(pic, bumped, n)
    if err:
        print(f"ok   perturbed trajectory rejected: {err}")
    else:
        failures.append("perturbed trajectory was not rejected")


def main() -> int:
    failures: list[str] = []
    smoke(failures)
    run.OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT, prefix="selfcheck-") as tmp:
        perturbed_gradient_rejected(failures, Path(tmp))
        perturbed_trajectory_rejected(failures, Path(tmp))
    for failure in failures:
        print(f"FAIL {failure}")
    print("selfcheck " + ("failed" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
