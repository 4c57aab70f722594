"""Dump every gradient engine's and sampler's output on a fixed grid, or
diff two dumps.

Run from the repository root; the program is imported from `src/` of the
checkout that holds this script:

    python3 scripts/compare_engines.py --out engines.json
    python3 scripts/compare_engines.py --diff before.json after.json

The grid: 16-16 and 64-64 networks (fixed seeds, vp-linear schedule),
N in {1, 7, 30, 100}, the quadratic, RBF, classifier-margin, composite and
moment-match objectives, and one noise (d,) or a (4, d) block (the block
only for moment matching, a batch objective). Each entry keys one call on one grid
point and holds an array's bytes and shape plus named scalars:
  engines       the gradient, J and the tape node count;
  latent_pass   sdo, bptt and fd-oracle with the noise as the latent at
                m = N, and sdo and bptt with it as the latent at the
                intermediate m = max(1, N // 2): the gradient, J and the
                bytes of x_0;
  samplers      per network and N: the sequential states and the Picard
                states, iteration count, residuals and convergence flag of
                the first noise, and the rollout of the whole block;
  surrogates    on the 16-16 network with one noise and the quadratic
                objective: the fd oracle through the sdo surrogates, the
                latent's at m = max(1, N // 3) and the parameters' at
                i' = max(1, N // 2).
`--diff` prints, per entry, "bit-identical" when everything agrees bit for
bit; otherwise the max relative difference of the array (max |a - b| over
the largest |a|) and the max absolute difference, and which scalars
differ. An fd-oracle latent pass is a central difference of J with step h =
`engines.FD_STEP`, so a one-ulp move of J moves it by ulp(J)/2h; its
difference is reported in that unit, with J read from the first dump's
entry. The last line counts the bit-identical entries, those that differ
only in their tape node count, and those that differ otherwise, each per
kind (the key's last part, such as `bptt-params`), with the largest
relative difference among the last; the exit code is 1 when any entry
differs or is in one dump only. The dump takes about 5 s on a 2-core x86-64
host.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from shortcutdiff import engines  # noqa: E402
from shortcutdiff.drivers import latent_pass  # noqa: E402
from shortcutdiff.engines import GradTarget  # noqa: E402
from shortcutdiff.model import Denoiser, DenoiserField  # noqa: E402
from shortcutdiff.objectives import (ClassifierMargin, Composite,  # noqa: E402
                                     MomentMatch, QuadraticTarget, RbfReward,
                                     ToyClassifier)
from shortcutdiff.sampler import rollout, sample_picard, sample_sequential  # noqa: E402
from shortcutdiff.schedule import Schedule  # noqa: E402

NETS = ((16, 16), (64, 64))
N_LIST = (1, 7, 30, 100)
BATCH = 4
PARAMS, LATENT = GradTarget("params"), GradTarget("latent")


def _objectives(rng):
    clf = ToyClassifier([rng.standard_normal((8, 2)), rng.standard_normal(8),
                         rng.standard_normal(8), rng.standard_normal(())])
    objectives = {"quadratic": QuadraticTarget(rng.standard_normal(2)),
                  "rbf": RbfReward(rng.standard_normal(2), 0.7),
                  "classifier-margin": ClassifierMargin(clf, 1)}
    # drawn from a stream of their own, so the entries above keep their draws
    own = np.random.default_rng(20251018)
    objectives["composite"] = Composite(RbfReward(own.standard_normal(2), 0.7),
                                        own.standard_normal(2), 0.3)
    objectives["moment-match"] = MomentMatch(own.standard_normal((6, 2)))
    return objectives


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
    n = sched.n_steps
    calls = [(f"latent-pass-{e}", n, e) for e in ("sdo", "bptt", "fd-oracle")]
    calls += [(f"latent-pass-{e}-m", max(1, n // 2), e) for e in ("sdo", "bptt")]
    out = {}
    for label, m, estimator in calls:
        grad, loss, x0 = latent_pass(field, sched, x, m, obj, estimator)
        out[label] = _entry(grad, J=float(loss).hex(), x0=np.asarray(x0).tobytes().hex())
    return out


def _surrogates(field, sched, x, obj) -> dict:
    n = sched.n_steps
    return {
        "sdo-surrogate-at-m": engines.grad_fd_oracle(
            field, sched, x, obj, LATENT, "sdo-surrogate-at-m", m=max(1, n // 3)),
        "sdo-surrogate-at-iprime": engines.grad_fd_oracle(
            field, sched, x, obj, PARAMS, "sdo-surrogate-at-iprime",
            iprime=max(1, n // 2)),
    }


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
                    if obj.batch and noise_name == "noise":
                        continue
                    point = f"{prefix}/{obj_name}/{noise_name}"
                    for label, rep in _engines(field, sched, x, obj,
                                               noise_name == "noise"):
                        out[f"{point}/{label}"] = _entry(
                            rep.gradient, J=rep.loss.hex(),
                            nodes=rep.tape_node_count)
                    for label, entry in _latent_passes(field, sched, x, obj).items():
                        out[f"{point}/{label}"] = entry
                    if (hidden, obj_name, noise_name) == (NETS[0], "quadratic", "noise"):
                        for label, grad in _surrogates(field, sched, x, obj).items():
                            out[f"{point}/{label}"] = _entry(grad)
    return out


def _array(entry) -> np.ndarray:
    return np.frombuffer(bytes.fromhex(entry["array"])).reshape(entry["shape"])


def _gap(ga: np.ndarray, gb: np.ndarray) -> tuple[float, float]:
    """(max |a - b|, that over max |a|) for two arrays of one shape."""
    with np.errstate(invalid="ignore"):  # inf - inf in a diverged roll
        gap = float(np.max(np.abs(ga - gb))) if ga.size else 0.0
    scale = float(np.max(np.abs(ga))) if ga.size else 0.0
    return gap, gap / scale if scale > 0 else (0.0 if gap == 0 else float("inf"))


def _without_nodes(entry: dict) -> dict:
    return {**entry, "scalars": {k: v for k, v in entry["scalars"].items() if k != "nodes"}}


def _kinds(keys: list[str]) -> str:
    kinds = Counter(key.rsplit("/", 1)[-1] for key in keys)
    return f" ({', '.join(f'{k} {n}' for k, n in sorted(kinds.items()))})" if keys else ""


def summary(a: dict, b: dict) -> str:
    """How many entries are bit-identical; how many differ only in their
    tape node count, and how many otherwise (in the array, another scalar,
    or by being in one dump only), each with its count per kind (the last
    part of the key); and the largest relative difference of the arrays of
    the latter."""
    keys = sorted(set(a) | set(b))
    differ = [key for key in keys if a.get(key) != b.get(key)]
    line = f"{len(keys) - len(differ)} of {len(keys)} entries bit-identical"
    if not differ:
        return line
    nodes = [key for key in differ if key in a and key in b
             and _without_nodes(a[key]) == _without_nodes(b[key])]
    rest = [key for key in differ if key not in nodes]
    line += (f"; {len(nodes)} differ only in nodes{_kinds(nodes)}"
             f"; {len(rest)} differ otherwise{_kinds(rest)}")
    rels = [_gap(ga, gb)[1] for ga, gb in ((_array(a[key]), _array(b[key]))
                                           for key in rest if key in a and key in b)
            if ga.shape == gb.shape]
    return line + (f", max relative difference {max(rels):.3g}" if rels else "")


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
        gap, rel = _gap(ga, gb)
        if ea["array"] == eb["array"]:
            array = "array bit-identical"
        elif gap == 0:
            array = "array equal up to the signs of zeros"
        elif key.endswith("/latent-pass-fd-oracle"):
            unit = np.spacing(abs(float.fromhex(ea["scalars"]["J"]))) / (2.0 * engines.FD_STEP)
            array = f"max difference {gap / unit:.3g} ulp(J)/2h (max abs {gap:.3g})"
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
    print("\n".join(diff(a, b)))
    print(summary(a, b))
    return int(a != b)


if __name__ == "__main__":
    sys.exit(main())
