"""Diff two trees of CLI outputs file by file.

Run from the repository root, for example on the outputs of one config
at two commits:

    python3 scripts/compare_outputs.py DIR_A DIR_B

Files pair up by their path relative to each tree. A CSV is compared
after `reporting.csv_without_timing`, which zeroes the timing columns; a
`manifest.jsonl` line by line without its `out_dir` and `wall_time_s`;
every other file byte for byte. The script prints one line per file:
"identical", which manifest keys or which first line differ, the sizes of
two binary files that differ, or the tree that lacks the file. The last
line counts the identical files. Exits 0 when every file is identical and
1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from shortcutdiff.reporting import csv_without_timing  # noqa: E402

MANIFEST_SKIP = ("out_dir", "wall_time_s")


def _manifest(data: bytes) -> list[dict]:
    entries = [json.loads(line) for line in data.decode("utf-8").splitlines() if line]
    return [{k: v for k, v in e.items() if k not in MANIFEST_SKIP} for e in entries]


def _lines(data: bytes) -> list[str] | None:
    """The lines of a text file; None for a binary one."""
    if b"\0" in data:
        return None
    try:
        return data.decode("utf-8").splitlines()
    except UnicodeDecodeError:
        return None


def without_timing(rel: str, data: bytes) -> bytes:
    """The bytes of the output file `rel` that a comparison reads: a
    manifest's entries without `MANIFEST_SKIP`, a CSV through
    `csv_without_timing`, any other file as it is."""
    if Path(rel).name == "manifest.jsonl":
        return json.dumps(_manifest(data), sort_keys=True).encode("utf-8")
    if rel.endswith(".csv"):
        return csv_without_timing(data.decode("utf-8")).encode("utf-8")
    return data


def compare_file(rel: str, a: bytes, b: bytes) -> str:
    """What differs between two versions of one output file."""
    if Path(rel).name == "manifest.jsonl":
        ma, mb = _manifest(a), _manifest(b)
        if ma == mb:
            return "identical"
        if len(ma) != len(mb):
            return f"differ: {len(ma)} against {len(mb)} manifest lines"
        keys = sorted({k for ea, eb in zip(ma, mb) for k in ea.keys() | eb.keys()
                       if ea.get(k) != eb.get(k)})
        return f"differ in {', '.join(keys)}"
    a, b = without_timing(rel, a), without_timing(rel, b)
    if a == b:
        return "identical"
    la, lb = _lines(a), _lines(b)
    if la is None or lb is None:
        return f"differ: {len(a)} against {len(b)} bytes"
    first = next((i for i, (x, y) in enumerate(zip(la, lb)) if x != y),
                 min(len(la), len(lb)))
    return f"differ from line {first + 1}"


def tree_files(root: Path) -> dict[str, Path]:
    """The files under root, keyed by their path relative to it."""
    return {p.relative_to(root).as_posix(): p for p in root.rglob("*") if p.is_file()}


def compare_trees(dir_a: Path, dir_b: Path) -> list[str]:
    fa, fb = tree_files(dir_a), tree_files(dir_b)
    lines = []
    for rel in sorted(fa.keys() | fb.keys()):
        if rel not in fb:
            lines.append(f"{rel}: only in A")
        elif rel not in fa:
            lines.append(f"{rel}: only in B")
        else:
            status = compare_file(rel, fa[rel].read_bytes(), fb[rel].read_bytes())
            lines.append(f"{rel}: {status}")
    same = sum(line.endswith(": identical") for line in lines)
    lines.append(f"{same} of {len(lines)} files identical")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("dir_a", type=Path)
    parser.add_argument("dir_b", type=Path)
    args = parser.parse_args(argv)
    for d in (args.dir_a, args.dir_b):
        if not d.is_dir():
            parser.error(f"{d} is not a directory")
    lines = compare_trees(args.dir_a, args.dir_b)
    print("\n".join(lines))
    return 0 if all(line.endswith(": identical") for line in lines[:-1]) else 1


if __name__ == "__main__":
    sys.exit(main())
