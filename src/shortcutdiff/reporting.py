"""CSV, SVG, and manifest emission shared by the CLI subcommands.

Everything written here is byte-deterministic for a fixed seed except the
named timing columns, which the determinism checks zero out before hashing.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

TIMING_COLUMNS = ("wall_time_s", "elapsed_s")


def fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def write_csv(path, columns: list[str], rows: list[dict]) -> None:
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(fmt(row[c]) for c in columns))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def csv_without_timing(text: str) -> str:
    """Zero the timing columns so byte comparison ignores wall-clock noise."""
    lines = text.splitlines()
    if not lines:
        return text
    header = lines[0].split(",")
    drop = [i for i, name in enumerate(header) if name in TIMING_COLUMNS]
    if not drop:
        return text
    out = [lines[0]]
    for line in lines[1:]:
        cells = line.split(",")
        for i in drop:
            if i < len(cells):
                cells[i] = "0"
        out.append(",".join(cells))
    return "\n".join(out) + "\n"


def hash_artifact(path) -> str:
    """Content hash with timing columns neutralized for CSVs."""
    p = Path(path)
    if p.suffix == ".csv":
        data = csv_without_timing(p.read_text(encoding="utf-8")).encode("utf-8")
    else:
        data = p.read_bytes()
    return hashlib.sha256(data).hexdigest()


def append_manifest(out_dir, entry: dict) -> Path:
    path = Path(out_dir) / "manifest.jsonl"
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(entry, sort_keys=True) + "\n")
    return path


def line_plot_svg(series: dict[str, list[tuple[float, float]]], title: str,
                  x_label: str, y_label: str) -> str:
    """Standalone SVG line plot on a log y-axis, with the data table
    embedded as a comment.

    Points with a non-finite or non-positive y are left as gaps in the
    polyline and take no part in the axis ranges.
    """
    import math

    width, height, pad = 640, 420, 60
    palette = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")

    def shown(y):
        return math.isfinite(y) and y > 0

    plotted = [(x, y) for pts in series.values() for x, y in pts if shown(y)]
    if not plotted:
        xs_min, xs_max, ys_min, ys_max = 0.0, 1.0, 0.0, 1.0
    else:
        xs = [p[0] for p in plotted]
        ys = [math.log10(p[1]) for p in plotted]
        xs_min, xs_max = min(xs), max(xs)
        ys_min, ys_max = min(ys), max(ys)
    if xs_max == xs_min:
        xs_max = xs_min + 1.0
    if ys_max == ys_min:
        ys_max = ys_min + 1.0

    def sx(x):
        return pad + (x - xs_min) / (xs_max - xs_min) * (width - 2 * pad)

    def sy(y):
        y = math.log10(y)
        return height - pad - (y - ys_min) / (ys_max - ys_min) * (height - 2 * pad)

    table = ["series,x,y"]
    for name, pts in sorted(series.items()):
        for x, y in pts:
            table.append(f"{name},{fmt(float(x))},{fmt(float(y))}")

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        "<!-- data:\n" + "\n".join(table) + "\n-->",
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.1f}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="15">{title}</text>',
        f'<text x="{width / 2:.1f}" y="{height - 12}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12">{x_label}</text>',
        f'<text x="16" y="{height / 2:.1f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12" '
        f'transform="rotate(-90 16 {height / 2:.1f})">'
        f'{y_label} (log)</text>',
        f'<line x1="{pad}" y1="{height - pad}" x2="{width - pad}" '
        f'y2="{height - pad}" stroke="black"/>',
        f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{height - pad}" '
        f'stroke="black"/>',
    ]
    for idx, (name, pts) in enumerate(sorted(series.items())):
        color = palette[idx % len(palette)]
        segment: list[str] = []
        chunks: list[list[str]] = []
        for x, y in pts:
            if shown(y):
                segment.append(f"{sx(x):.2f},{sy(y):.2f}")
            elif segment:
                chunks.append(segment)
                segment = []
        if segment:
            chunks.append(segment)
        for chunk in chunks:
            parts.append(f'<polyline fill="none" stroke="{color}" '
                         f'stroke-width="1.5" points="{" ".join(chunk)}"/>')
        parts.append(f'<text x="{width - pad + 4}" y="{pad + 16 * idx}" '
                     f'font-family="sans-serif" font-size="11" '
                     f'fill="{color}">{name}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
