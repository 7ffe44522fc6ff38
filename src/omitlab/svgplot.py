"""Self-contained static SVG output: line plots and heat maps.

Deliberately minimal, no plotting dependency. `_figure` writes what both
figures share (the document, its background, the title and axis labels);
the renderers add their marks, computed over whole arrays and formatted
once. Sizes are fixed: 720x460 for a line plot, 720x520 for a heat map.
"""

import math

import numpy as np

from .util import fixed_cells, table_text, text_cells

_WIDTH = 720
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 64, 24, 28, 46
_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _esc(s):
    return (str(s).replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;"))


def _ticks(lo, hi):
    if not (math.isfinite(lo) and math.isfinite(hi)) or lo == hi:
        return [lo]
    return list(np.linspace(lo, hi, 5))


def _fmt_tick(v):
    if v == 0:
        return "0"
    a = abs(v)
    if 1e-3 <= a < 1e4:
        return f"{v:.4g}"
    return f"{v:.2e}"


def _finite_range(arrs):
    a = np.concatenate([np.ravel(np.asarray(v, dtype=float)) for v in arrs] + [[]])
    a = a[np.isfinite(a)]
    lo, hi = (float(a.min()), float(a.max())) if a.size else (0.0, 1.0)
    if lo == hi:
        lo, hi = lo - 0.5, hi + 0.5
    return lo, hi


def _figure(height, iw, title, xlabel, ylabel, under, axes, marks):
    """SVG text of one figure: the <svg> element and its background, then
    `under`, the title, `axes`, the axis labels and `marks`, in that order.
    iw is the width of the plot area."""
    ih = height - _MARGIN_T - _MARGIN_B
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
        f'height="{height}" viewBox="0 0 {_WIDTH} {height}">',
        f'<rect x="0" y="0" width="{_WIDTH}" height="{height}" fill="white"/>',
        *under,
    ]
    if title:
        parts.append(f'<text x="{_WIDTH / 2}" y="18" text-anchor="middle" '
                     f'font-family="sans-serif" font-size="13">{_esc(title)}</text>')
    parts += axes
    if xlabel:
        parts.append(f'<text x="{_MARGIN_L + iw / 2}" y="{height - 8}" '
                     f'text-anchor="middle" font-family="sans-serif" '
                     f'font-size="11">{_esc(xlabel)}</text>')
    if ylabel:
        yc = _MARGIN_T + ih / 2
        parts.append(f'<text x="14" y="{yc}" text-anchor="middle" '
                     f'font-family="sans-serif" font-size="11" '
                     f'transform="rotate(-90 14 {yc})">{_esc(ylabel)}</text>')
    parts += marks
    parts += ["</svg>", ""]
    return "\n".join(parts)


def line_svg(x, series, title="", xlabel="", ylabel=""):
    """SVG line plot.

    series is a list of (label, y) pairs sharing the x grid; non-finite
    samples split the polyline. Returns the SVG text.
    """
    x = np.asarray(x, dtype=float)
    xlo, xhi = _finite_range([x])
    ylo, yhi = _finite_range([y for _, y in series])
    height = 460
    iw = _WIDTH - _MARGIN_L - _MARGIN_R
    ih = height - _MARGIN_T - _MARGIN_B

    def px(v):
        return _MARGIN_L + (v - xlo) / (xhi - xlo) * iw

    def py(v):
        return _MARGIN_T + (yhi - v) / (yhi - ylo) * ih

    axes = []
    for tv in _ticks(xlo, xhi):
        tx = f"{px(tv):.2f}"
        axes.append(f'<line x1="{tx}" y1="{_MARGIN_T + ih}" '
                    f'x2="{tx}" y2="{_MARGIN_T + ih + 4}" stroke="#333"/>')
        axes.append(f'<text x="{tx}" y="{_MARGIN_T + ih + 17}" '
                    f'text-anchor="middle" font-family="sans-serif" '
                    f'font-size="10">{_fmt_tick(tv)}</text>')
    for tv in _ticks(ylo, yhi):
        ty = f"{py(tv):.2f}"
        axes.append(f'<line x1="{_MARGIN_L - 4}" y1="{ty}" '
                    f'x2="{_MARGIN_L}" y2="{ty}" stroke="#333"/>')
        axes.append(f'<text x="{_MARGIN_L - 7}" y="{ty}" '
                    f'text-anchor="end" dominant-baseline="middle" '
                    f'font-family="sans-serif" font-size="10">{_fmt_tick(tv)}</text>')

    xs = fixed_cells(px(x))
    marks = []
    for k, (label, y) in enumerate(series):
        y = np.asarray(y, dtype=float)[:x.size]
        color = _PALETTE[k % len(_PALETTE)]
        ys = fixed_cells(py(y))
        # the runs of finite samples start and stop where the mask flips
        edges = np.flatnonzero(np.diff(np.isfinite(y), prepend=False, append=False)).tolist()
        for a, b in zip(edges[::2], edges[1::2]):
            marks.append(f'<polyline points="{table_text(xs[a:b], b",", ys[a:b], b" ")[:-1]}" '
                         f'fill="none" stroke="{color}" stroke-width="1.3"/>')
        if label:
            ly = _MARGIN_T + 14 + 14 * k
            lx = _MARGIN_L + iw - 120
            marks.append(f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" '
                         f'y2="{ly - 4}" stroke="{color}" stroke-width="1.6"/>')
            marks.append(f'<text x="{lx + 27}" y="{ly}" font-family="sans-serif" '
                         f'font-size="10">{_esc(label)}</text>')
    frame = (f'<rect x="{_MARGIN_L}" y="{_MARGIN_T}" width="{iw}" height="{ih}" '
             f'fill="none" stroke="#333" stroke-width="1"/>')
    return _figure(height, iw, title, xlabel, ylabel, [frame], axes, marks)


def _color(key):
    """The color of a key of _diverging_colors."""
    if not key:
        return "#bbbbbb"
    c, g = divmod(abs(key) - 1, 256)
    return f"rgb({c},{g},255)" if key < 0 else f"rgb(255,{g},{c})"


def _diverging_colors(v):
    """Blue through white to red over v in [-1, 1], grey where v is not
    finite: the cells of one color per element of v, in C order, each
    distinct color formatted once."""
    v = np.ravel(v)
    ok = np.isfinite(v)
    # 1 - |v| is 1 + v exactly for v < 0, and the channels are positive, so
    # astype(int) truncates as int() does
    t = 1.0 - np.abs(np.where(ok, v, 0.0))
    outer = (59 + t * 196).astype(int)
    mid = (76 + t * 179).astype(int)
    # one integer per color: 0 for grey, else +-(256 outer + mid + 1) with
    # the sign of v
    keys = np.where(ok, np.where(v < 0, -1, 1) * (256 * outer + mid + 1), 0)
    table, index = np.unique(keys, return_inverse=True)
    return text_cells([_color(k) for k in table.tolist()]).take(index, axis=0)


def _rects(x, y, size, colors):
    """The <rect> lines of cells x, y (or bytes, the same in each) and colors."""
    return table_text(b'<rect x="', x, b'" y="', y, f'" {size} fill="'.encode(), colors,
                      b'"/>\n')[:-1]


def heatmap_svg(x, y, z, title="", xlabel="", ylabel=""):
    """SVG heat map of z[i, j] at (x[j], y[i]), diverging scale centered at 0
    when z takes both signs. Non-finite cells are drawn grey."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    z = np.asarray(z, dtype=float)
    if z.shape != (y.size, x.size):
        raise ValueError(f"z shape {z.shape} does not match grids "
                         f"({y.size}, {x.size})")
    if not (x.size and y.size):
        raise ValueError("heat map grids must not be empty")
    # the ticks run from the minimum up, so a descending axis is reversed
    # together with its cells
    if x[-1] < x[0]:
        x, z = x[::-1], z[:, ::-1]
    if y[-1] < y[0]:
        y, z = y[::-1], z[::-1]
    finite = z[np.isfinite(z)]
    vmax = float(np.max(np.abs(finite))) if finite.size else 1.0
    if vmax == 0:
        vmax = 1.0
    signed = finite.size > 0 and finite.min() < 0 < finite.max()
    height = 520
    iw = _WIDTH - _MARGIN_L - _MARGIN_R - 58
    ih = height - _MARGIN_T - _MARGIN_B
    cw, ch = iw / x.size, ih / y.size

    size = f'width="{cw + 0.5:.2f}" height="{ch + 0.5:.2f}"'
    rows = fixed_cells(_MARGIN_T + ih - np.arange(1, y.size + 1) * ch)
    cols = fixed_cells(_MARGIN_L + np.arange(x.size) * cw)
    colors = _diverging_colors((z if signed else np.abs(z)) / vmax)
    axes = [_rects(np.tile(cols, (y.size, 1)), np.repeat(rows, x.size, axis=0), size, colors)]
    axes.append(f'<rect x="{_MARGIN_L}" y="{_MARGIN_T}" width="{iw:.2f}" '
                f'height="{ih}" fill="none" stroke="#333"/>')
    # ticks run from the centre of the first cell (the minimum) to the
    # centre of the last (the maximum)
    for tv in _ticks(float(x.min()), float(x.max())):
        tx = _MARGIN_L + cw / 2 + (tv - x.min()) / (x.max() - x.min() or 1.0) * (iw - cw)
        axes.append(f'<text x="{tx:.2f}" y="{_MARGIN_T + ih + 15}" '
                    f'text-anchor="middle" font-family="sans-serif" '
                    f'font-size="10">{_fmt_tick(tv)}</text>')
    for tv in _ticks(float(y.min()), float(y.max())):
        ty = _MARGIN_T + ih - ch / 2 - (tv - y.min()) / (y.max() - y.min() or 1.0) * (ih - ch)
        axes.append(f'<text x="{_MARGIN_L - 6}" y="{ty:.2f}" text-anchor="end" '
                    f'dominant-baseline="middle" font-family="sans-serif" '
                    f'font-size="10">{_fmt_tick(tv)}</text>')

    # color bar: 64 segments from the bottom of the scale to its top
    bx = _MARGIN_L + iw + 16
    frac = np.arange(64) / 63
    seg = fixed_cells(_MARGIN_T + ih * (1 - np.arange(1, 65) / 64))
    marks = [_rects(f"{bx}".encode(), seg, f'width="14" height="{ih / 64 + 0.5:.2f}"',
                    _diverging_colors(2 * frac - 1 if signed else frac))]
    marks.append(f'<text x="{bx + 18}" y="{_MARGIN_T + 4}" '
                 f'font-family="sans-serif" font-size="10">{_fmt_tick(vmax)}</text>')
    marks.append(f'<text x="{bx + 18}" y="{_MARGIN_T + ih}" font-family="sans-serif" '
                 f'font-size="10">{_fmt_tick(-vmax if signed else 0.0)}</text>')
    return _figure(height, iw, title, xlabel, ylabel, [], axes, marks)
