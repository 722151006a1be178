"""File output: CSV tables, a small self-contained SVG plotter, manifests.

Floats are written with repr, the shortest round-trip form, so identical
runs give byte-identical tables.  Manifests carry wall time and are the
one output that may differ between otherwise identical runs.
"""

from __future__ import annotations

import csv
import io
import math
from pathlib import Path
from typing import Dict, List, Sequence, Tuple, Union

import numpy as np

__all__ = ["write_csv", "read_csv", "write_manifest", "line_plot"]

Number = Union[int, float]


def _cell(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


def write_csv(path: Union[str, Path], header: Sequence[str],
              columns: Sequence[np.ndarray]) -> None:
    if len(header) != len(columns):
        raise ValueError("header/column count mismatch")
    rows = {len(c) for c in columns}
    if len(rows) > 1:
        raise ValueError("columns of unequal length")
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for i in range(rows.pop() if rows else 0):
        writer.writerow([_cell(col[i]) for col in columns])
    Path(path).write_text(buf.getvalue())


def read_csv(path: Union[str, Path]) -> Tuple[List[str], np.ndarray]:
    """Header list plus a float array of shape (rows, cols)."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        data = [[float(cell) for cell in row] for row in reader]
    return header, np.array(data, dtype=float)


def write_manifest(path: Union[str, Path], entries: Dict[str, str],
                   config_text: str = "") -> None:
    lines = [f"{key} = {value}" for key, value in entries.items()]
    body = "\n".join(lines) + "\n"
    if config_text:
        body += "--- config ---\n" + config_text
    Path(path).write_text(body)


def _ticks(lo: float, hi: float, want: int = 5) -> List[float]:
    span = hi - lo
    if span <= 0:
        return [lo]
    raw = span / want
    mag = 10.0 ** math.floor(math.log10(raw))
    step = min(s for s in (mag, 2 * mag, 2.5 * mag, 5 * mag, 10 * mag)
               if s >= raw)
    # count by index: where step is below half an ulp of v, v += step
    # would never move
    last = math.floor((hi + 1e-9 * span) / step)
    return [k * step for k in range(math.ceil(lo / step), last + 1)]


def _fmt_tick(v: float) -> str:
    if v == int(v) and abs(v) < 1e6:
        return str(int(v))
    return f"{v:.4g}"


def line_plot(path: Union[str, Path], x: np.ndarray,
              series: Sequence[Tuple[str, np.ndarray]],
              *, xlabel: str = "", ylabel: str = "",
              title: str = "") -> None:
    """Write an SVG line plot.  No plotting library, no style surprises."""
    width, height = 640, 420
    ml, mr, mt, mb = 64, 16, 34, 46
    pw, ph = width - ml - mr, height - mt - mb

    x = np.asarray(x, dtype=float)
    ys = [np.asarray(y, dtype=float) for _, y in series]
    xlo, xhi = float(x.min()), float(x.max())
    ylo = min(float(y.min()) for y in ys)
    yhi = max(float(y.max()) for y in ys)
    if xhi == xlo:
        xhi = xlo + 1.0
    if yhi - ylo <= 4 * math.ulp(max(abs(ylo), abs(yhi))):
        yhi, ylo = ylo + 0.5, ylo - 0.5
    pad = 0.05 * (yhi - ylo)
    ylo, yhi = ylo - pad, yhi + pad

    def sx(v: float) -> float:
        return ml + (v - xlo) / (xhi - xlo) * pw

    def sy(v: float) -> float:
        return mt + (yhi - v) / (yhi - ylo) * ph

    colors = ["#1f6fb2", "#c44e52", "#55a868", "#8172b3", "#937860"]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<rect x="{ml}" y="{mt}" width="{pw}" height="{ph}" fill="none" '
        'stroke="#444" stroke-width="1"/>',
    ]
    for tx in _ticks(xlo, xhi):
        px = sx(tx)
        parts.append(f'<line x1="{px:.2f}" y1="{mt + ph}" x2="{px:.2f}" '
                     f'y2="{mt + ph + 4}" stroke="#444"/>')
        parts.append(f'<text x="{px:.2f}" y="{mt + ph + 18}" '
                     'font-size="12" text-anchor="middle" '
                     f'font-family="sans-serif">{_fmt_tick(tx)}</text>')
    for ty in _ticks(ylo, yhi):
        py = sy(ty)
        parts.append(f'<line x1="{ml - 4}" y1="{py:.2f}" x2="{ml}" '
                     f'y2="{py:.2f}" stroke="#444"/>')
        parts.append(f'<text x="{ml - 8}" y="{py + 4:.2f}" font-size="12" '
                     'text-anchor="end" '
                     f'font-family="sans-serif">{_fmt_tick(ty)}</text>')
    if title:
        parts.append(f'<text x="{width / 2}" y="{mt - 12}" font-size="14" '
                     'text-anchor="middle" '
                     f'font-family="sans-serif">{title}</text>')
    if xlabel:
        parts.append(f'<text x="{ml + pw / 2}" y="{height - 10}" '
                     'font-size="13" text-anchor="middle" '
                     f'font-family="sans-serif">{xlabel}</text>')
    if ylabel:
        parts.append(f'<text x="16" y="{mt + ph / 2}" font-size="13" '
                     'text-anchor="middle" font-family="sans-serif" '
                     f'transform="rotate(-90 16 {mt + ph / 2})">'
                     f'{ylabel}</text>')
    for i, (label, y) in enumerate(series):
        color = colors[i % len(colors)]
        pts = " ".join(f"{sx(xv):.2f},{sy(yv):.2f}" for xv, yv in zip(x, y))
        parts.append(f'<polyline points="{pts}" fill="none" '
                     f'stroke="{color}" stroke-width="1.6"/>')
        if label:
            ly = mt + 16 + 16 * i
            parts.append(f'<line x1="{ml + pw - 120}" y1="{ly - 4}" '
                         f'x2="{ml + pw - 96}" y2="{ly - 4}" '
                         f'stroke="{color}" stroke-width="1.6"/>')
            parts.append(f'<text x="{ml + pw - 90}" y="{ly}" font-size="12" '
                         f'font-family="sans-serif">{label}</text>')
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n")
