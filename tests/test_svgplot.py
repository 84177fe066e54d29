import math

import numpy as np
import pytest

from dirac_qca import svgplot
from dirac_qca.svgplot import HEIGHT, MARGIN_B, MARGIN_L, MARGIN_R, MARGIN_T, PALETTE, WIDTH, _fmt, _ticks


def reference_svg(curves, *, title="", xlabel="", ylabel=""):
    """Oracle: the SVG text of the per-point implementation, with Python lists and scalar sx/sy.

    ``write_plot`` maps whole arrays with the same affine expressions, so its
    bytes must equal these exactly.
    """
    xs_all = [x for _, xs, _ in curves for x in xs]
    ys_all = [y for _, _, ys in curves for y in ys if math.isfinite(y)]
    if not xs_all or not ys_all:
        raise ValueError("nothing to plot")
    x_lo, x_hi = min(xs_all), max(xs_all)
    y_lo, y_hi = min(ys_all), max(ys_all)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad

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
    parts.append(f'<line x1="{MARGIN_L}" y1="{axis_y}" x2="{WIDTH - MARGIN_R}" y2="{axis_y}" stroke="black"/>')
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
        points = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(xs, ys) if math.isfinite(y))
        parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{points}"/>')
        ly = MARGIN_T + 16 * (i + 1)
        lx = WIDTH - MARGIN_R - 150
        parts.append(f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 24}" y2="{ly - 4}" stroke="{color}" stroke-width="2"/>')
        parts.append(f'<text x="{lx + 30}" y="{ly}">{label}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _as_lists(curves):
    return [(label, np.asarray(xs).tolist(), np.asarray(ys).tolist()) for label, xs, ys in curves]


_rng = np.random.default_rng(7)
_k = np.linspace(-math.pi, math.pi, 257)
CASES = {
    "signed zero xs": [
        ("a", [-0.0, 0.0, 1.0, -1.0], [1.0, 2.0, 3.0, 4.0]),
        ("b", [0.0, -0.0], [-0.0, 0.0]),
    ],
    "all xs signed zeros": [("a", [-0.0, 0.0, -0.0], [0.5, -0.25, 1.0])],
    "nonfinite ys": [
        ("a", [0.0, 1.0, 2.0, 3.0, 4.0], [1.0, math.nan, math.inf, -math.inf, 2.0]),
        ("b", [-5.0, 10.0], [math.nan, 0.5]),
    ],
    "one point": [("a", [3.0], [7.0])],
    "int lists": [("a", [0, 1, 2, 3], [5, 3, 8, 1]), ("b", [-2, 9], [0, 0])],
    "mixed lists and arrays": [
        ("list", [float(k) for k in _k[::8]], [math.sin(k) for k in _k[::8]]),
        ("array", _k, np.cos(_k)),
        ("int array", np.arange(-3, 4), _rng.standard_normal(7)),
    ],
    "tiny span": [("a", [1.0, 1.0 + 2e-15], [1e-300, 2e-300])],
    "wide random": [("a", _rng.uniform(-1e6, 1e6, 500), _rng.standard_normal(500) * 1e-9)],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_write_plot_matches_per_point_oracle(tmp_path, name):
    curves = CASES[name]
    labels = dict(title="t", xlabel="x", ylabel="y")
    path = tmp_path / "plot.svg"
    svgplot.write_plot(path, curves, **labels)
    text = path.read_bytes().decode()
    # the oracle sees the values as the old callers passed them: Python scalars in lists
    assert text == reference_svg(_as_lists(curves), **labels)


@pytest.mark.parametrize(
    "curves",
    [
        [],
        [("a", [], [])],
        [("a", [0.0, 1.0], [math.nan, math.inf])],
        [("a", np.arange(3.0), np.full(3, -np.inf)), ("b", [1.0], [math.nan])],
    ],
)
def test_nothing_to_plot(tmp_path, curves):
    with pytest.raises(ValueError, match="nothing to plot"):
        svgplot.write_plot(tmp_path / "plot.svg", curves)
    assert not list(tmp_path.iterdir())
