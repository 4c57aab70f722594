"""Run the benchmark in alternating pairs on two checkouts and summarize.

Run from the repository root:

    python3 scripts/bench_pairs.py --parent A --change B --workload tune \
        --pairs 10 --seconds 20 --seed 1301 --out BENCH_13.json

A and B are two checkout directories. Pair i runs `perfbench/run.py
--workload W --seed S+i --seconds T` once in each, with the same seed, in
each checkout's own directory; even pairs run A first and odd pairs B
first, so that slow drift of the host falls on both sides alike. Several
`--workload` options run their pairs one workload after the other.

The output JSON is rewritten after every pair, so an interrupted run keeps
the pairs it finished. It holds the host (nproc and the python, numpy and
BLAS versions), the settings, a sha256 of each side's `src/shortcutdiff`
sources, every run's end-to-end metrics, and per workload and end-to-end
metric (from `BENCHMARK.json`): each side's median, q1, q3 and n, the pairs
each side won (ties count for neither), whether the change is better by
more than the parent's quartile spread, and the relative move in the
metric's worse direction against its bound. Per workload it also holds the
operations failed and attempted on each side.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def host_block() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}"}


def source_digest(checkout: Path) -> str:
    """sha256 over the names and bytes of the checkout's package sources."""
    digest = hashlib.sha256()
    for path in sorted((checkout / "src" / "shortcutdiff").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def pair_order(i: int) -> tuple[str, str]:
    """The side that runs first in pair i, then the other."""
    return SIDES if i % 2 == 0 else SIDES[::-1]


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench run: its final JSON line, or a failed record when the
    run printed none."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", f"{seconds:g}"],
        cwd=checkout, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        tail = (proc.stderr.strip().splitlines() or ["no output"])[-1]
        return {"correct": False, "attempted": 0, "failed": 0, "metrics": {},
                "error": f"exit {proc.returncode}: {tail}"}


def quartiles(values: list[float]) -> dict:
    """median, q1, q3 and n, with quartiles as `statistics.quantiles` gives them."""
    if not values:
        return {"median": None, "q1": None, "q3": None, "n": 0}
    q1, med, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                   else values * 3)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def summarize(runs: list[dict], spec: list[dict]) -> dict:
    """Per workload, the comparison of the two sides over the pairs in runs.

    Each run is {"workload", "pair", "seed", "first", "parent", "change"},
    the last two being perfbench result objects; spec is BENCHMARK.json's
    "end_to_end" list of {"name", "unit", "better", "bound"}."""
    out = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        pairs = [r for r in runs if r["workload"] == workload]
        metrics = {}
        for m in spec:
            name, sign = m["name"], 1.0 if m["better"] == "higher" else -1.0
            values = {s: [] for s in SIDES}
            won = {s: 0 for s in SIDES}
            for r in pairs:
                got = {s: r[s]["metrics"].get(name, {}).get("value") for s in SIDES}
                for s in SIDES:
                    if got[s] is not None:
                        values[s].append(got[s])
                if None in got.values() or got["parent"] == got["change"]:
                    continue
                won["change" if sign * (got["change"] - got["parent"]) > 0
                    else "parent"] += 1
            stats = {s: quartiles(values[s]) for s in SIDES}
            entry = {"unit": m["unit"], "better": m["better"], "bound": m["bound"],
                     **stats, "pairs_won": won}
            if stats["parent"]["n"] and stats["change"]["n"]:
                base, new = stats["parent"]["median"], stats["change"]["median"]
                spread = stats["parent"]["q3"] - stats["parent"]["q1"]
                entry["gain_beyond_parent_spread"] = sign * (new - base) > spread
                entry["worse_by"] = -sign * (new - base) / abs(base) if base else None
            metrics[name] = entry
        out[workload] = {
            "pairs": len(pairs),
            "seeds": [r["seed"] for r in pairs],
            "metrics": metrics,
            "failed": {s: sum(r[s]["failed"] for r in pairs) for s in SIDES},
            "attempted": {s: sum(r[s]["attempted"] for r in pairs) for s in SIDES},
            "runs_without_result": {s: sum("error" in r[s] for r in pairs)
                                    for s in SIDES},
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="parent checkout")
    parser.add_argument("--change", type=Path, required=True, help="changed checkout")
    parser.add_argument("--workload", action="append", required=True,
                        help="workload to run; repeat for several")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--seed", type=int, required=True,
                        help="seed of pair 0; pair i runs seed + i")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for side, path in checkouts.items():
        if not (path / "perfbench" / "run.py").is_file():
            parser.error(f"--{side} {path} has no perfbench/run.py")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]
    result = {"host": host_block(),
              "settings": {"seconds": args.seconds, "pairs": args.pairs,
                           "first_seed": args.seed, "workloads": args.workload},
              "sources_sha256": {s: source_digest(p) for s, p in checkouts.items()},
              "runs": []}
    for workload in args.workload:
        for i in range(args.pairs):
            order = pair_order(i)
            run = {"workload": workload, "pair": i, "seed": args.seed + i,
                   "first": order[0]}
            for side in order:
                run[side] = run_once(checkouts[side], workload, args.seed + i,
                                     args.seconds)
            result["runs"].append(run)
            result["summary"] = summarize(result["runs"], spec)
            args.out.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
            mix = {s: run[s]["metrics"].get("mix_ops_per_s", {}).get("value")
                   for s in SIDES}
            print(f"{workload} pair {i} seed {args.seed + i}: mix_ops_per_s "
                  f"parent {mix['parent']} change {mix['change']}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
