"""Write or check the digest of the program's bits.

Run from the repository root at one BLAS thread:

    OPENBLAS_NUM_THREADS=1 python3 scripts/bits_digest.py --out tests/bits_digest.json
    OPENBLAS_NUM_THREADS=1 python3 scripts/bits_digest.py --check tests/bits_digest.json

The digest holds one sha256 per entry of `compare_engines.py`'s dump (its
array, shape and scalars, node counts included), keyed `engines/<key>`,
and one per output file of the five shipped non-train configs (verify,
bench, steering, evasion and fine-tuning), keyed `outputs/<config>/<file>`
and read as `compare_outputs.py` reads it: a CSV without its timing
columns, a manifest without its run path and wall time. It also records
the python, numpy and BLAS versions and `OPENBLAS_NUM_THREADS`, because
the block contractions move in their last bits with the BLAS thread count.

`--check` recomputes the digest and prints one line per entry that
differs, is new or is missing, and one per recorded version that differs
from this host's; the last line counts the entries that match. It exits 0
when everything matches and 1 otherwise. A change that moves bits on
purpose writes the digest again with `--out` and says which entries moved
and why. The digest takes about 8 s on a 2-core x86-64 host.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

import compare_engines  # noqa: E402
import compare_outputs  # noqa: E402
from shortcutdiff import cli  # noqa: E402

CONFIGS = (("verify", "verify_ring8"), ("bench", "bench_ring8"),
           ("optimize", "optimize_steer"), ("optimize", "optimize_evasion"),
           ("finetune", "finetune_rbf"))


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def versions() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS")}


def output_entries() -> dict:
    """sha256 of every output file of the shipped non-train configs, run in
    this process into a temporary directory."""
    entries = {}
    with tempfile.TemporaryDirectory() as tmp:
        for subcommand, name in CONFIGS:
            out = Path(tmp) / name
            code = cli.main([subcommand, "--config", f"configs/{name}.cfg",
                             "--out", str(out), "--quiet"])
            if code != 0:
                raise SystemExit(f"{subcommand} --config configs/{name}.cfg exited {code}")
            for rel, path in compare_outputs.tree_files(out).items():
                data = compare_outputs.without_timing(rel, path.read_bytes())
                entries[f"outputs/{name}/{rel}"] = _sha(data)
    return entries


def digest() -> dict:
    entries = {f"engines/{key}": _sha(json.dumps(entry, sort_keys=True).encode("utf-8"))
               for key, entry in compare_engines.dump().items()}
    entries.update(output_entries())
    return {"versions": versions(), "entries": dict(sorted(entries.items()))}


def differences(recorded: dict, now: dict) -> list[str]:
    """One line per entry that differs between two digests, and one per
    version that does."""
    a, b = recorded["entries"], now["entries"]
    lines = []
    for key in sorted(a.keys() | b.keys()):
        if key not in b:
            lines.append(f"{key}: missing now")
        elif key not in a:
            lines.append(f"{key}: not in the recorded digest")
        elif a[key] != b[key]:
            lines.append(f"{key}: differs")
    va, vb = recorded["versions"], now["versions"]
    lines += [f"version {name}: recorded {va.get(name)}, now {vb.get(name)}"
              for name in sorted(va.keys() | vb.keys()) if va.get(name) != vb.get(name)]
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--out", type=Path, help="write the digest of this checkout here")
    mode.add_argument("--check", type=Path, help="compare this checkout with a digest")
    args = parser.parse_args(argv)
    now = digest()
    if args.out:
        args.out.write_text(json.dumps(now, indent=1) + "\n", encoding="utf-8")
        return 0
    recorded = json.loads(args.check.read_text(encoding="utf-8"))
    lines = differences(recorded, now)
    same = sum(now["entries"].get(key) == sha for key, sha in recorded["entries"].items())
    print("\n".join([*lines, f"{same} of {len(recorded['entries'])} entries match"]))
    return int(bool(lines))


if __name__ == "__main__":
    sys.exit(main())
