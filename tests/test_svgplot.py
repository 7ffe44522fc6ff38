"""Structural checks of the self-contained SVG renderings."""

import xml.etree.ElementTree as ET

import numpy as np
import pytest

from omitlab.svgplot import (_diverging_colors, _finite_range, _fmt_tick, heatmap_svg,
                             line_svg)
from omitlab.util import table_text

SVG_NS = "{http://www.w3.org/2000/svg}"


def _colors(v):
    """The colors _diverging_colors gives v, as strings."""
    return table_text(_diverging_colors(v), b"\n").splitlines()


def _parse(text):
    root = ET.fromstring(text)
    assert root.tag == f"{SVG_NS}svg"
    return root


def test_line_svg_is_well_formed():
    x = np.linspace(0.0, 1.0, 40)
    text = line_svg(x, [("alpha", np.sin(6 * x)), ("beta", np.cos(6 * x))],
                    title="two curves", xlabel="x", ylabel="y")
    root = _parse(text)
    polylines = root.findall(f"{SVG_NS}polyline")
    assert len(polylines) == 2
    labels = [t.text for t in root.findall(f"{SVG_NS}text")]
    assert "alpha" in labels and "beta" in labels
    assert "two curves" in labels
    # no external references: the file must be self-contained
    assert "href" not in text and "url(" not in text


def test_line_svg_splits_on_nonfinite():
    x = np.linspace(0.0, 1.0, 20)
    y = np.sin(x)
    y[7:10] = np.nan
    text = line_svg(x, [("s", y)])
    root = _parse(text)
    assert len(root.findall(f"{SVG_NS}polyline")) == 2


def test_line_svg_escapes_markup():
    x = np.array([0.0, 1.0])
    text = line_svg(x, [("a<b>&c", x)], title="t<&>")
    _parse(text)
    assert "a<b>" not in text


def test_heatmap_svg_cells_and_colorbar():
    z = np.array([[1.0, -2.0, 0.5], [0.0, 3.0, -1.0]])
    text = heatmap_svg(np.array([0.0, 1.0, 2.0]), np.array([10.0, 20.0]), z,
                       title="map", xlabel="c", ylabel="r")
    root = _parse(text)
    rects = root.findall(f"{SVG_NS}rect")
    # background + 6 cells + frame + 64 color-bar segments
    assert len(rects) == 1 + 6 + 1 + 64
    # signed data: both endpoints of the diverging scale appear
    assert "rgb(255,76,59)" in text and "rgb(59,76,255)" in text


def test_heatmap_svg_marks_nonfinite_cells():
    z = np.array([[1.0, np.nan], [2.0, 4.0]])
    text = heatmap_svg(np.array([0.0, 1.0]), np.array([0.0, 1.0]), z)
    _parse(text)
    assert "#bbbbbb" in text


def test_heatmap_svg_draws_a_descending_grid_ascending():
    """A descending axis is drawn as the ascending one with its cells
    reversed, so each cell stays under its own tick."""
    x, y = np.array([0.9, 1.0, 1.1]), np.array([10.0, 20.0])
    z = np.array([[1.0, -2.0, 0.5], [0.0, 3.0, -1.0]])
    text = heatmap_svg(x, y, z, xlabel="x", ylabel="y")
    assert heatmap_svg(x[::-1], y, z[:, ::-1], xlabel="x", ylabel="y") == text
    assert heatmap_svg(x, y[::-1], z[::-1], xlabel="x", ylabel="y") == text


@pytest.mark.parametrize("grid", [[0.0, 100.0], [100.0, 0.0],
                                  [0.9, 1.0, 1.1], [1.1, 1.0, 0.9]])
@pytest.mark.parametrize("axis", ["x", "y"])
def test_heatmap_svg_ticks_sit_on_cell_centres(grid, axis):
    """The tick of each grid value sits at the centre of the cells of that
    value, on either axis of 2 or 3 points, ascending or descending."""
    g, other = np.array(grid), np.array([0.0, 1.0])
    if axis == "x":
        z = np.broadcast_to(g, (other.size, g.size))
        text = heatmap_svg(g, other, z)
        # the x ticks stand below the plot area, the y ticks left of it
        ticks = [t for t in _parse(text).findall(f"{SVG_NS}text") if t.get("y") == "489"]
    else:
        z = np.broadcast_to(g[:, None], (g.size, other.size))
        text = heatmap_svg(other, g, z)
        ticks = [t for t in _parse(text).findall(f"{SVG_NS}text") if t.get("x") == "58"]
    at = {t.text: float(t.get(axis)) for t in ticks}
    size = "width" if axis == "x" else "height"
    centres = {}
    for r in _parse(text).findall(f"{SVG_NS}rect")[1:1 + z.size]:
        # a cell is drawn 0.5 larger than its pitch, to close the seams
        centres.setdefault(r.get("fill"), set()).add(
            round(float(r.get(axis)) + (float(r.get(size)) - 0.5) / 2, 2))
    for v in g:
        (centre,) = centres[_colors(np.array([v / g.max()]))[0]]
        assert at[_fmt_tick(v)] == pytest.approx(centre, abs=0.02)


def test_heatmap_svg_shape_mismatch():
    with pytest.raises(ValueError):
        heatmap_svg(np.array([0.0, 1.0]), np.array([0.0]), np.zeros((3, 3)))


@pytest.mark.parametrize("x, y", [([], [1.0]), ([1.0], [])])
def test_heatmap_svg_rejects_an_empty_axis(x, y):
    with pytest.raises(ValueError, match="empty"):
        heatmap_svg(x, y, np.zeros((len(y), len(x))))


def test_finite_range_pads_a_constant_series():
    assert _finite_range([np.full(3, 2.0), [np.nan]]) == (1.5, 2.5)


def _cell_fills(text, n):
    return [r.get("fill") for r in _parse(text).findall(f"{SVG_NS}rect")[1:1 + n]]


@pytest.mark.parametrize("z, fills", [
    # signed data: the scale runs from -max|z| to +max|z|
    ([-1.0, -0.5, 0.0, 0.5, 1.0], ["rgb(59,76,255)", "rgb(157,165,255)",
                                   "rgb(255,255,255)", "rgb(255,165,157)",
                                   "rgb(255,76,59)"]),
    # unsigned data: |z| from 0 to max|z|, whatever its sign
    ([0.0, 0.5, 1.0], ["rgb(255,255,255)", "rgb(255,165,157)", "rgb(255,76,59)"]),
    ([-1.0, -0.5, -0.0], ["rgb(255,76,59)", "rgb(255,165,157)", "rgb(255,255,255)"]),
    ([0.0, 0.0, 0.0], ["rgb(255,255,255)"] * 3),
])
def test_heatmap_svg_cell_colors(z, fills):
    z = np.array([z])
    text = heatmap_svg(np.arange(z.shape[1], dtype=float), np.array([0.0]), z)
    assert _cell_fills(text, z.size) == fills


def _per_cell_colors(v):
    """The colors of v formatted cell by cell, as one string each."""
    v = np.ravel(v)
    ok = np.isfinite(v)
    t = 1.0 - np.abs(np.where(ok, v, 0.0))
    return [("#bbbbbb" if not o else f"rgb({int(59 + x * 196)},{int(76 + x * 179)},255)"
             if neg else f"rgb(255,{int(76 + x * 179)},{int(59 + x * 196)})")
            for o, neg, x in zip(ok.tolist(), (v < 0).tolist(), t.tolist())]


def test_diverging_colors_match_the_per_cell_formatter():
    """Formatting each distinct color once gives the color of every cell:
    seeded values over [-1, 1], the ends, both zeros and non-finite values."""
    v = np.random.default_rng(14).uniform(-1.0, 1.0, (50, 41))
    v.flat[:8] = [-1.0, 1.0, 0.0, -0.0, np.nan, np.inf, -np.inf, -1e-300]
    assert _colors(v) == _per_cell_colors(v)


def test_line_svg_draws_the_inner_runs():
    x = np.linspace(0.0, 1.0, 6)
    y = np.array([np.nan, 1.0, 2.0, np.nan, 3.0, np.nan])
    polylines = _parse(line_svg(x, [("s", y)])).findall(f"{SVG_NS}polyline")
    xs = [[float(p.split(",")[0]) for p in pl.get("points").split()]
          for pl in polylines]
    # x maps [0, 1] onto the 632-unit plot width starting at 64
    assert xs == [[64 + 632 * 0.2, 64 + 632 * 0.4], [64 + 632 * 0.8]]


def test_line_svg_all_nan_series_keeps_its_legend():
    x = np.linspace(0.0, 1.0, 5)
    text = line_svg(x, [("gone", np.full(5, np.nan))])
    root = _parse(text)
    assert root.findall(f"{SVG_NS}polyline") == []
    assert "gone" in [t.text for t in root.findall(f"{SVG_NS}text")]
    assert 'stroke="#1f77b4" stroke-width="1.6"' in text
