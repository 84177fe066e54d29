import math
import os
import subprocess
import sys
from xml.etree import ElementTree
from xml.sax import saxutils

import numpy as np
import pytest

from dirac_qca import svgplot
from dirac_qca.svgplot import (
    HEIGHT, MARGIN_B, MARGIN_L, MARGIN_R, MARGIN_T, PALETTE, WIDTH, _fmt, _polyline_points, _ticks,
)


LABELS = dict(title="t", xlabel="x", ylabel="y")


def reference_svg(curves, *, title, xlabel, ylabel):
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
        f'<text x="{WIDTH / 2}" y="24" text-anchor="middle" font-size="15">{title}</text>',
    ]
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
    parts.append(
        f'<text x="{(MARGIN_L + WIDTH - MARGIN_R) / 2}" y="{HEIGHT - 12}" text-anchor="middle">{xlabel}</text>'
    )
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
    "xs near the double range": [("a", [-8e307, 0.0, 8e307], [1.0, 2.0, 3.0])],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_write_plot_matches_per_point_oracle(tmp_path, name):
    curves = CASES[name]
    path = tmp_path / "plot.svg"
    svgplot.write_plot(path, curves, **LABELS)
    text = path.read_bytes().decode()
    # the oracle sees the values as the old callers passed them: Python scalars in lists
    assert text == reference_svg(_as_lists(curves), **LABELS)


def test_span_beyond_the_double_range_fails_as_the_oracle_does(tmp_path):
    # xs spanning +-1e308 make x_hi - x_lo infinite, so their coordinates would be nan; the oracle's
    # ticks fail with a bare OverflowError, write_plot with a ValueError that names the series
    curves = [("a", [-1e308, 0.0, 1e308], [1.0, 2.0, 3.0])]
    with pytest.raises(OverflowError):
        reference_svg(curves, **LABELS)
    with pytest.raises(ValueError, match=r"^x range \[-1e\+308, 1e\+308\] of series 'a': no positive finite width$"):
        svgplot.write_plot(tmp_path / "plot.svg", curves, **LABELS)
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize(
    "curves, message",
    [
        ([("ok", [0.0, 1.0], [1.0, 2.0]), ("a", [0.0, math.nan], [1.0, 2.0])], "series 'a' has an x that is nan"),
        ([("a", [0.0, math.inf], [1.0, 2.0])], "series 'a' has an x that is nan or infinite"),
        ([("a", [-math.inf, 0.0], [1.0, 2.0])], "series 'a' has an x that is nan or infinite"),
        # a nan y is left out, a nan x is not
        ([("a", [1.0, 2.0], [0.0, math.nan]), ("b", [0.0, math.nan], [1.0, 1.0])], "series 'b' has an x"),
        # finite ys whose span, or padded span, overflows
        ([("lo", [0.0], [-1e308]), ("hi", [1.0], [1e308])], r"^y range \[-1e\+308, 1e\+308\] of series 'lo' and 'hi'"),
        ([("a", [0.0, 1.0], [0.0, 1.75e308])], r"^y range \[0\.0, 1\.75e\+308\] of series 'a'"),
        # a flat range that + 1.0 cannot widen
        ([("a", [1e17], [1.0])], r"^x range \[1e\+17, 1e\+17\] of series 'a': no positive finite width$"),
        ([("a", [0.0], [1e300])], r"^y range \[1e\+300, 1e\+300\] of series 'a'"),
    ],
    ids=["nan x", "inf x", "-inf x", "nan x beside a nan y", "y span overflows", "padded y span overflows",
         "flat x at 1e17", "flat y at 1e300"],
)
def test_unplottable_values_name_their_series(tmp_path, curves, message):
    with pytest.raises(ValueError, match=message):
        svgplot.write_plot(tmp_path / "plot.svg", curves, **LABELS)
    assert not list(tmp_path.iterdir())


def per_point_points(xs, ys):
    """Oracle: the points attribute as the per-point generator spelled it."""
    return " ".join(f"{x:.2f},{y:.2f}" for x, y in zip(np.asarray(xs).tolist(), np.asarray(ys).tolist()))


_TIES = [0.125, 0.375, 100.125, -0.125, 0.005, 1.005, 2.675, 12345.125]  # products on or next to a half-integer
_CARRIES = [99.995, 9.995, 0.995, 999.995, -9.995, 0.0049999999999999999]
_SPECIALS = [0.0, -0.0, -0.001, -0.004, math.nan, math.inf, -math.inf, 1e300, -1e300, 5e-324]
_LARGE = [1e13, 9999999999999.99, 1e13 - 0.005, 1e17, 123456789012345678.0, 2.0**70 + 2.0**18]  # 1e15 hundredths and up
POINT_CASES = {
    "ties": _TIES,
    "ties +1 ulp": [math.nextafter(v, math.inf) for v in _TIES],
    "ties -1 ulp": [math.nextafter(v, -math.inf) for v in _TIES],
    "carries": _CARRIES + [math.nextafter(v, s) for v in _CARRIES for s in (-math.inf, math.inf)],
    "specials": _SPECIALS,
    "large": _LARGE + [-v for v in _LARGE],
    "random in the plot area": np.random.default_rng(11).uniform(40.0, 940.0, 100_000),
    "random magnitudes": np.exp(np.random.default_rng(12).uniform(-30.0, 30.0, 10_000)) * np.resize([1, -1], 10_000),
    "thousandths": np.random.default_rng(13).integers(-10**6, 10**6, 10_000) / 1000.0,
    "empty": [],
}


@pytest.mark.parametrize("name", sorted(POINT_CASES))
def test_polyline_points_match_per_point_oracle(name):
    xs = np.asarray(POINT_CASES[name], dtype=float)
    ys = xs[::-1].copy()  # every value is both an x and a y
    assert _polyline_points(xs, ys) == per_point_points(xs, ys)


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
        svgplot.write_plot(tmp_path / "plot.svg", curves, **LABELS)
    assert not list(tmp_path.iterdir())


def test_markup_in_labels_is_escaped(tmp_path):
    # every label is XML character data: the file parses, and the parser gives back each label as it was given
    path = tmp_path / "plot.svg"
    svgplot.write_plot(path, [("m<1 & k", [0, 1], [0, 1])], title="a&b", xlabel="x>0", ylabel="<y>")
    texts = [element.text for element in ElementTree.parse(path).iter("{http://www.w3.org/2000/svg}text")]
    assert {"a&b", "x>0", "<y>", "m<1 & k"} <= set(texts)
    labels = ["m<1 & k", "a&b", "&amp;", "x>0", "plain"]
    assert [svgplot._escape(label) for label in labels] == [saxutils.escape(label) for label in labels]


@pytest.mark.parametrize("where", ["series", "title", "xlabel", "ylabel"])
@pytest.mark.parametrize("bad", ["\x00", "\x01", "\x1f", "\ud800", "\ufffe", "\uffff"])
def test_characters_xml_cannot_carry_are_rejected(tmp_path, where, bad):
    # escaping cannot save these: written, the file would not parse; nothing is written, no temporary file is left
    labels = dict(LABELS)
    label = f"a{bad}b"
    if where != "series":
        labels[where], label = label, "s"
    with pytest.raises(ValueError, match="XML cannot carry|surrogates not allowed"):
        svgplot.write_plot(tmp_path / "plot.svg", [(label, [0, 1], [0, 1])], **labels)
    assert list(tmp_path.iterdir()) == []


def test_tab_newline_and_every_other_character_are_kept(tmp_path):
    label = "a\tb\nc\rd \u00e9\ud7ff\ue000\ufffd\U0001f600\U0010ffff"
    path = tmp_path / "plot.svg"
    svgplot.write_plot(path, [(label, [0, 1], [0, 1])], **LABELS)
    ElementTree.parse(path)  # well-formed; XML normalizes a CR in character data, so the text is not compared


def test_non_ascii_labels_are_utf8_under_the_c_locale(tmp_path):
    # the locale's encoding is ASCII here; the file must still be UTF-8, as CSV and JSON are
    curves = [("\u03c9(k)", [0.0, 1.0], [0.5, 2.0])]
    labels = dict(title="\u03c9 vs k", xlabel="k", ylabel="\u03c9")
    code = (
        "import sys; from dirac_qca import svgplot\n"
        f"svgplot.write_plot(sys.argv[1], {ascii(curves)}, **{ascii(labels)})\n"
    )
    env = dict(os.environ, LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0", PYTHONPATH=os.pathsep.join(sys.path))
    path = tmp_path / "plot.svg"
    done = subprocess.run([sys.executable, "-c", code, str(path)], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert path.read_bytes() == reference_svg(curves, **labels).encode("utf-8")
    assert [p.name for p in tmp_path.iterdir()] == ["plot.svg"]
