"""Run acceptance criterion 6 in two checkouts in alternating order.

Run from the repository root:

    python3 scripts/criterion6_runs.py --parent A --change B --runs 11

A and B are two checkout directories. Run i runs
`tests/test_acceptance.py::test_criterion_6_efficiency` once in each, with
pytest in the checkout's own directory and its `src` on PYTHONPATH; even
runs start with A and odd runs with B, so that slow drift of the host falls
on both sides alike. The script prints each run's sdo/bptt time ratio and
verdict as the test reports them, then each side's median ratio and its
passes. It exits 1 when any run of either side printed no criterion line.
"""

from __future__ import annotations

import argparse
import os
import re
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
TEST = "tests/test_acceptance.py::test_criterion_6_efficiency"
LINE = re.compile(r"^(PASS|FAIL)  criterion 6 .*\(ratio (\d+(?:\.\d+)?) <= 0\.5\)$",
                  re.MULTILINE)


def parse(output: str) -> tuple[bool, float] | None:
    """(passed, ratio) from the criterion 6 line of a pytest run's output,
    or None when the output holds no such line."""
    match = LINE.search(output)
    if match is None:
        return None
    return match.group(1) == "PASS", float(match.group(2))


def run_once(checkout: Path) -> tuple[bool, float] | None:
    env = dict(os.environ)
    src = str(checkout / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-s", "-p", "no:cacheprovider", TEST],
        cwd=checkout, env=env, capture_output=True, text=True, check=False)
    return parse(proc.stdout + proc.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="parent checkout")
    parser.add_argument("--change", type=Path, required=True, help="changed checkout")
    parser.add_argument("--runs", type=int, default=11)
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be >= 1")
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for side, path in checkouts.items():
        if not (path / "tests" / "test_acceptance.py").is_file():
            parser.error(f"--{side} {path} has no tests/test_acceptance.py")
    results = {s: [] for s in SIDES}
    for i in range(args.runs):
        for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
            got = run_once(checkouts[side])
            results[side].append(got)
            shown = "no criterion line" if got is None else (
                f"ratio {got[1]:.2f} {'PASS' if got[0] else 'FAIL'}")
            print(f"run {i} {side}: {shown}", flush=True)
    for side in SIDES:
        ratios = [r[1] for r in results[side] if r is not None]
        passed = sum(r[0] for r in results[side] if r is not None)
        median = f"{statistics.median(ratios):.3f}" if ratios else "none"
        print(f"{side}: median ratio {median} over {len(ratios)} runs, "
              f"{passed} of {args.runs} passed; ratios "
              + " ".join(f"{r:.2f}" for r in ratios))
    return 1 if any(r is None for s in SIDES for r in results[s]) else 0


if __name__ == "__main__":
    sys.exit(main())
