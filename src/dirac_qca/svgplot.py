"""Tiny SVG line-plot emitter: polylines, axes, ticks, legend. Needs only numpy."""

from __future__ import annotations

import math

import numpy as np

from .textfile import write_text

WIDTH, HEIGHT = 960, 540
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 70, 20, 40, 50
PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#17becf"]


def _fmt(x: float) -> str:
    return f"{x:.6g}"


# outside XML 1.0's Char production, so no escape can carry them: C0 controls but tab, LF and CR, U+FFFE, U+FFFF
# (a lone surrogate, the other such character, already fails as UTF-8)
_NOT_XML = frozenset(map(chr, [*range(0x09), 0x0B, 0x0C, *range(0x0E, 0x20), 0xFFFE, 0xFFFF]))


def _escape(text: str) -> str:
    """``text`` as XML character data: what ``xml.sax.saxutils.escape`` does, without importing urllib and http.

    A character that XML cannot carry at all is a ``ValueError``.
    """
    if bad := _NOT_XML.intersection(text):
        raise ValueError(f"label {text!r} holds {min(bad)!r}, which XML cannot carry")
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _polyline_points(xs: np.ndarray, ys: np.ndarray) -> str:
    """The points attribute "x,y x,y ..." with each coordinate spelled as f"{v:.2f}" spells it, in one numpy pass.

    v * 100 rounds once, and rounding is monotone: a half-integer below 1e15 is
    a double, so none lies strictly between the exact and the rounded product,
    and rint of the rounded product is the correctly rounded count of
    hundredths unless that product is a half-integer itself.  Those ties, and
    entries that are not finite or reach 1e15 hundredths, are formatted one by one.
    """
    values = np.column_stack([xs, ys]).ravel()  # x0, y0, x1, y1, ...
    with np.errstate(over="ignore", invalid="ignore"):
        scaled = values * 100.0
        rounded = np.rint(scaled)
        exact = (np.abs(scaled) < 1e15) & (np.abs(scaled - rounded) != 0.5)  # nan and inf fail the first test
    rest = np.abs(np.where(exact, rounded, 0.0))  # hundredths, an integer below 1e15
    others = [f"{v:.2f}" for v in values[~exact].tolist()]
    digits = max(3, len(str(int(rest.max(initial=0.0)))))
    # one token per row: sign, integer digits, point, two decimals, NUL padding, separator; NULs are dropped
    rows = np.zeros((values.size, max([digits + 3] + [len(text) + 1 for text in others])), dtype=np.uint8)
    rows[:, 0] = np.where(np.signbit(values), ord("-"), 0)
    rows[:, digits - 1] = ord(".")
    for k, column in enumerate([digits + 1, digits, *range(digits - 2, 0, -1)]):  # k-th digit from the right
        quotient = np.floor(rest / 10.0)
        digit = rest - 10.0 * quotient + ord("0")
        rows[:, column] = digit if k < 3 else np.where(rest > 0.0, digit, 0)  # leading zeros stay NUL
        rest = quotient
    rows[0::2, -1], rows[1::2, -1] = ord(","), ord(" ")
    for row, text in zip(np.flatnonzero(~exact).tolist(), others):
        rows[row, :-1] = 0
        rows[row, : len(text)] = np.frombuffer(text.encode("ascii"), dtype=np.uint8)
    return rows[rows != 0][:-1].tobytes().decode("ascii")


def _ticks(lo: float, hi: float):
    if hi <= lo:
        hi = lo + 1.0
    span = hi - lo
    raw = span / 4  # five ticks, before the step is rounded up to 1, 2, 2.5, 5 or 10 times a power of ten
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


def write_plot(path, curves, *, title, xlabel, ylabel):
    """Write one SVG file with the given curves [(label, xs, ys), ...], its title and its axis labels.

    ``xs`` and ``ys`` are equal-length sequences or arrays of numbers; points
    whose y is not finite are left out of the polyline and of the y range.
    Every polyline coordinate is spelled as ``f"{v:.2f}"`` would spell it, and the title and
    labels are XML-escaped (``&``, ``<``, ``>``); one that holds a character XML cannot carry
    (``_NOT_XML``, or a lone surrogate) is a ``ValueError``, and nothing is written.
    An x that is not finite, or an axis range whose width (after padding) is
    not a positive finite double, is a ``ValueError`` naming its series.
    """
    curves = [(label, np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)) for label, xs, ys in curves]
    for label, xs, _ in curves:
        if not np.all(np.isfinite(xs)):
            raise ValueError(f"series {label!r} has an x that is nan or infinite")
    xs_all = np.concatenate([np.empty(0), *(xs for _, xs, _ in curves)])
    ys_all = np.concatenate([np.empty(0), *(ys for _, _, ys in curves)])
    ys_all = ys_all[np.isfinite(ys_all)]
    if not xs_all.size or not ys_all.size:
        raise ValueError("nothing to plot")
    ends = [(1, float(xs_all.min()), float(xs_all.max())), (2, float(ys_all.min()), float(ys_all.max()))]
    (_, x_lo, x_hi), (_, y_lo, y_hi) = ends
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad
    for (axis, lo, hi), width in zip(ends, (x_hi - x_lo, y_hi - y_lo)):
        if not 0.0 < width < math.inf:  # the ticks and the scaling divide by it
            holders = dict.fromkeys(repr(next(c[0] for c in curves if np.any(c[axis] == v))) for v in (lo, hi))
            raise ValueError(
                f"{'xy'[axis - 1]} range [{lo!r}, {hi!r}] of series {' and '.join(holders)}: no positive finite width"
            )

    # applied to scalars (ticks) and to whole arrays (polylines): the same IEEE operations either way
    def sx(x):
        return MARGIN_L + (x - x_lo) / (x_hi - x_lo) * (WIDTH - MARGIN_L - MARGIN_R)

    def sy(y):
        return HEIGHT - MARGIN_B - (y - y_lo) / (y_hi - y_lo) * (HEIGHT - MARGIN_T - MARGIN_B)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}" font-family="sans-serif" font-size="12">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH / 2}" y="24" text-anchor="middle" font-size="15">{_escape(title)}</text>',
    ]

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
    parts.append(
        f'<text x="{(MARGIN_L + WIDTH - MARGIN_R) / 2}" y="{HEIGHT - 12}" text-anchor="middle">{_escape(xlabel)}</text>'
    )
    parts.append(
        f'<text x="16" y="{(MARGIN_T + axis_y) / 2}" text-anchor="middle" '
        f'transform="rotate(-90 16 {(MARGIN_T + axis_y) / 2})">{_escape(ylabel)}</text>'
    )

    for i, (label, xs, ys) in enumerate(curves):
        color = PALETTE[i % len(PALETTE)]
        finite = np.isfinite(ys)
        points = _polyline_points(sx(xs[finite]), sy(ys[finite]))
        parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{points}"/>')
        ly = MARGIN_T + 16 * (i + 1)
        lx = WIDTH - MARGIN_R - 150
        parts.append(f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 24}" y2="{ly - 4}" stroke="{color}" stroke-width="2"/>')
        parts.append(f'<text x="{lx + 30}" y="{ly}">{_escape(label)}</text>')

    parts.append("</svg>")
    write_text(path, "\n".join(parts) + "\n")
