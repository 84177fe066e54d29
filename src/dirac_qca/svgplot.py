"""Tiny SVG line-plot emitter: polylines, axes, ticks, legend. Needs only numpy."""

from __future__ import annotations

import math
import os
import tempfile

import numpy as np

WIDTH, HEIGHT = 960, 540
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 70, 20, 40, 50
PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#17becf"]


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _ticks(lo: float, hi: float, count: int = 5):
    if hi <= lo:
        hi = lo + 1.0
    span = hi - lo
    raw = span / (count - 1)
    mag = 10.0 ** math.floor(math.log10(raw))
    for step in (1.0, 2.0, 2.5, 5.0, 10.0):
        if raw <= step * mag:
            raw = step * mag
            break
    start = math.ceil(lo / raw) * raw
    ticks = []
    v = start
    while v <= hi + 1e-12 * span:
        ticks.append(0.0 if abs(v) < 1e-12 * span else v)
        v += raw
    return ticks


def write_plot(path, curves, *, title="", xlabel="", ylabel=""):
    """Write one SVG file with the given curves [(label, xs, ys), ...].

    ``xs`` and ``ys`` are equal-length sequences or arrays of numbers; points
    whose y is not finite are left out of the polyline and of the y range.
    """
    curves = [(label, np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)) for label, xs, ys in curves]
    xs_all = np.concatenate([np.empty(0), *(xs for _, xs, _ in curves)])
    ys_all = np.concatenate([np.empty(0), *(ys for _, _, ys in curves)])
    ys_all = ys_all[np.isfinite(ys_all)]
    if not xs_all.size or not ys_all.size:
        raise ValueError("nothing to plot")
    x_lo, x_hi = float(xs_all.min()), float(xs_all.max())
    y_lo, y_hi = float(ys_all.min()), float(ys_all.max())
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    # applied to scalars (ticks) and to whole arrays (polylines): the same IEEE operations either way
    def sx(x):
        return MARGIN_L + (x - x_lo) / (x_hi - x_lo) * (WIDTH - MARGIN_L - MARGIN_R)

    def sy(y):
        return HEIGHT - MARGIN_B - (y - y_lo) / (y_hi - y_lo) * (HEIGHT - MARGIN_T - MARGIN_B)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}" font-family="sans-serif" font-size="12">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
    ]
    if title:
        parts.append(f'<text x="{WIDTH / 2}" y="24" text-anchor="middle" font-size="15">{title}</text>')

    axis_y = HEIGHT - MARGIN_B
    parts.append(
        f'<line x1="{MARGIN_L}" y1="{axis_y}" x2="{WIDTH - MARGIN_R}" y2="{axis_y}" stroke="black"/>'
    )
    parts.append(f'<line x1="{MARGIN_L}" y1="{MARGIN_T}" x2="{MARGIN_L}" y2="{axis_y}" stroke="black"/>')
    for t in _ticks(x_lo, x_hi):
        x = sx(t)
        parts.append(f'<line x1="{x:.1f}" y1="{axis_y}" x2="{x:.1f}" y2="{axis_y + 5}" stroke="black"/>')
        parts.append(f'<text x="{x:.1f}" y="{axis_y + 18}" text-anchor="middle">{_fmt(t)}</text>')
    for t in _ticks(y_lo, y_hi):
        y = sy(t)
        parts.append(f'<line x1="{MARGIN_L - 5}" y1="{y:.1f}" x2="{MARGIN_L}" y2="{y:.1f}" stroke="black"/>')
        parts.append(f'<text x="{MARGIN_L - 8}" y="{y + 4:.1f}" text-anchor="end">{_fmt(t)}</text>')
    if xlabel:
        parts.append(
            f'<text x="{(MARGIN_L + WIDTH - MARGIN_R) / 2}" y="{HEIGHT - 12}" text-anchor="middle">{xlabel}</text>'
        )
    if ylabel:
        parts.append(
            f'<text x="16" y="{(MARGIN_T + axis_y) / 2}" text-anchor="middle" '
            f'transform="rotate(-90 16 {(MARGIN_T + axis_y) / 2})">{ylabel}</text>'
        )

    for i, (label, xs, ys) in enumerate(curves):
        color = PALETTE[i % len(PALETTE)]
        finite = np.isfinite(ys)
        points = " ".join(f"{x:.2f},{y:.2f}" for x, y in zip(sx(xs[finite]).tolist(), sy(ys[finite]).tolist()))
        parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{points}"/>')
        ly = MARGIN_T + 16 * (i + 1)
        lx = WIDTH - MARGIN_R - 150
        parts.append(f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 24}" y2="{ly - 4}" stroke="{color}" stroke-width="2"/>')
        parts.append(f'<text x="{lx + 30}" y="{ly}">{label}</text>')

    parts.append("</svg>")
    text = "\n".join(parts) + "\n"

    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
