"""Dump every gradient engine's and sampler's output on a fixed grid, or
diff two dumps.

Run from the repository root; the program is imported from `src/` of the
checkout that holds this script:

    python3 scripts/compare_engines.py --out engines.json
    python3 scripts/compare_engines.py --diff before.json after.json

The grid: 16-16 and 64-64 networks (fixed seeds, vp-linear schedule),
N in {1, 7, 30, 100}, the quadratic, RBF and classifier-margin objectives,
and one noise (d,) or a (4, d) block. Each entry keys one call on one grid
point and holds an array's bytes and shape plus named scalars:
  engines       the gradient, J and the tape node count;
  latent_pass   sdo, bptt and fd-oracle from the noise: the gradient, J
                and the bytes of x_0;
  samplers      per network and N: the sequential states and the Picard
                states, iteration count, residuals and convergence flag of
                the first noise, and the rollout of the whole block.
`--diff` prints, per entry, "bit-identical" when everything agrees bit for
bit; otherwise the max relative difference of the array (max |a - b| over
the largest |a|) and the max absolute difference, and which scalars
differ. The dump takes about 5 s on a 2-core x86-64 host.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from shortcutdiff import engines  # noqa: E402
from shortcutdiff.drivers import latent_pass  # noqa: E402
from shortcutdiff.engines import GradTarget  # noqa: E402
from shortcutdiff.model import Denoiser, DenoiserField  # noqa: E402
from shortcutdiff.objectives import (ClassifierMargin, QuadraticTarget,  # noqa: E402
                                     RbfReward, ToyClassifier)
from shortcutdiff.sampler import rollout, sample_picard, sample_sequential  # noqa: E402
from shortcutdiff.schedule import Schedule  # noqa: E402

NETS = ((16, 16), (64, 64))
N_LIST = (1, 7, 30, 100)
BATCH = 4
PARAMS, LATENT = GradTarget("params"), GradTarget("latent")


def _objectives(rng):
    clf = ToyClassifier([rng.standard_normal((8, 2)), rng.standard_normal(8),
                         rng.standard_normal(8), rng.standard_normal(())])
    return {"quadratic": QuadraticTarget(rng.standard_normal(2)),
            "rbf": RbfReward(rng.standard_normal(2), 0.7),
            "classifier-margin": ClassifierMargin(clf, 1)}


def _engines(field, sched, x, obj, single):
    """(label, report) for every engine on one grid point; the ift oracle
    takes one noise only."""
    n = sched.n_steps
    calls = {
        "bptt-params": lambda: engines.grad_bptt(field, sched, x, obj, PARAMS),
        "bptt-latent": lambda: engines.grad_bptt(field, sched, x, obj, LATENT),
        "bptt-latent-m": lambda: engines.grad_bptt(
            field, sched, x, obj, GradTarget("latent", max(1, n // 2))),
        "sdo-params-1": lambda: engines.grad_sdo_params(
            field, sched, x, obj, "fixed", iprime=1),
        "sdo-params-N": lambda: engines.grad_sdo_params(
            field, sched, x, obj, "fixed", iprime=n),
        "sdo-full": lambda: engines.grad_sdo_params(field, sched, x, obj, "full-sum"),
        "sdo-latent": lambda: engines.grad_sdo_latent(field, sched, x, obj),
        "sdo-latent-m": lambda: engines.grad_sdo_latent(
            field, sched, x, obj, m=max(1, n // 3)),
        "last-step": lambda: engines.grad_truncated(field, sched, x, obj, 1),
        "truncated-3": lambda: engines.grad_truncated(field, sched, x, obj, min(3, n)),
    }
    if single:
        calls["ift-params"] = lambda: engines.grad_ift_oracle(field, sched, x, obj,
                                                              PARAMS)
        calls["ift-latent"] = lambda: engines.grad_ift_oracle(field, sched, x, obj,
                                                              LATENT)
    return [(label, call()) for label, call in calls.items()]


def _entry(array, **scalars) -> dict:
    array = np.asarray(array, dtype=np.float64)
    return {"array": array.tobytes().hex(), "shape": list(array.shape),
            "scalars": scalars}


def _samplers(field, sched, noises) -> dict:
    pic = sample_picard(field, sched, noises[0])
    return {
        "sequential": _entry(sample_sequential(field, sched, noises[0]).states),
        "picard": _entry(pic.trajectory.states, iters=pic.iters_used,
                         residuals=[r.hex() for r in pic.residuals],
                         converged=pic.converged),
        "rollout-block": _entry(rollout(field, sched, noises, sched.n_steps)),
    }


def _latent_passes(field, sched, x, obj) -> dict:
    out = {}
    for estimator in ("sdo", "bptt", "fd-oracle"):
        grad, loss, x0 = latent_pass(field, sched, x, sched.n_steps, obj, estimator)
        out[f"latent-pass-{estimator}"] = _entry(
            grad, J=float(loss).hex(), x0=np.asarray(x0).tobytes().hex())
    return out


def dump() -> dict:
    rng = np.random.default_rng(20250507)
    objectives = _objectives(rng)
    out = {}
    for hidden in NETS:
        den = Denoiser.create(rng, hidden=hidden)
        noises = rng.standard_normal((BATCH, 2))
        for n in N_LIST:
            sched = Schedule("vp-linear", n, 0.1, 20.0)
            field = DenoiserField(den, sched)
            prefix = f"{hidden[0]}-{hidden[1]}/N={n}"
            for label, entry in _samplers(field, sched, noises).items():
                out[f"{prefix}/sampler/{label}"] = entry
            for obj_name, obj in objectives.items():
                for noise_name, x in (("noise", noises[0]), ("block", noises)):
                    point = f"{prefix}/{obj_name}/{noise_name}"
                    for label, rep in _engines(field, sched, x, obj,
                                               noise_name == "noise"):
                        out[f"{point}/{label}"] = _entry(
                            rep.gradient, J=rep.loss.hex(),
                            nodes=rep.tape_node_count)
                    for label, entry in _latent_passes(field, sched, x, obj).items():
                        out[f"{point}/{label}"] = entry
    return out


def _array(entry) -> np.ndarray:
    return np.frombuffer(bytes.fromhex(entry["array"])).reshape(entry["shape"])


def diff(a: dict, b: dict) -> list[str]:
    lines = []
    for key in sorted(set(a) | set(b)):
        if key not in a or key not in b:
            lines.append(f"{key}: only in {'B' if key not in a else 'A'}")
            continue
        ea, eb = a[key], b[key]
        if ea == eb:
            lines.append(f"{key}: bit-identical")
            continue
        ga, gb = _array(ea), _array(eb)
        if ga.shape != gb.shape:
            lines.append(f"{key}: array shape {ga.shape} -> {gb.shape}")
            continue
        with np.errstate(invalid="ignore"):  # inf - inf in a diverged roll
            gap = float(np.max(np.abs(ga - gb))) if ga.size else 0.0
        scale = float(np.max(np.abs(ga))) if ga.size else 0.0
        rel = gap / scale if scale > 0 else (0.0 if gap == 0 else float("inf"))
        if ea["array"] == eb["array"]:
            array = "array bit-identical"
        elif gap == 0:
            array = "array equal up to the signs of zeros"
        else:
            array = f"max relative difference {rel:.3g} (max abs {gap:.3g})"
        names = sorted(set(ea["scalars"]) | set(eb["scalars"]))
        differ = [n for n in names if ea["scalars"].get(n) != eb["scalars"].get(n)]
        scalars = (f"{', '.join(differ)} differ" if differ
                   else f"{', '.join(names) or 'no scalars'} bit-identical")
        lines.append(f"{key}: {array}; {scalars}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--out", help="write the dump of this checkout here")
    mode.add_argument("--diff", nargs=2, metavar=("A", "B"),
                      help="compare two dumps entry by entry")
    args = parser.parse_args(argv)
    if args.out:
        Path(args.out).write_text(json.dumps(dump(), indent=0, sort_keys=True),
                                  encoding="utf-8")
        return 0
    a, b = (json.loads(Path(p).read_text(encoding="utf-8")) for p in args.diff)
    lines = diff(a, b)
    print("\n".join(lines))
    same = sum(line.endswith(": bit-identical") for line in lines)
    print(f"{same} of {len(lines)} entries bit-identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
