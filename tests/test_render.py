"""The array kernels of the text tables against the per-value formatters:
repr for CSV floats and the .2f f-string for SVG coordinates, byte for byte,
and every CSV and SVG writer against a rendering that formats value by
value."""

import warnings
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import omitlab.svgplot as svgplot
import omitlab.sweep as sweep
import omitlab.util as util
from omitlab import (SelfConsistent, default_config, delay_map_csv, map_csv,
                     spectrum_csv, spectrum_sweep, sweep_2d)
from omitlab.svgplot import heatmap_svg, line_svg
from omitlab.sweep import SPECTRUM_HEADER
from omitlab.util import fixed_cells, repr_cells, table_text, text_cells


def _cells(cells):
    """The cells as strings, one per row."""
    return table_text(cells, b"\n").splitlines()


def _assert_repr(values):
    values = np.asarray(values, dtype=float)
    assert _cells(repr_cells(values)) == list(map(repr, values.tolist()))


def _assert_fixed(values):
    values = np.asarray(values, dtype=float)
    assert _cells(fixed_cells(values)) == [f"{v:.2f}" for v in values.tolist()]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(), min_size=1, max_size=40))
def test_repr_cells_are_repr(values):
    _assert_repr(values)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(), min_size=1, max_size=40))
def test_fixed_cells_are_the_f_string(values):
    _assert_fixed(values)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(min_value=1e-4, max_value=1e16, exclude_max=True),
                min_size=1, max_size=40))
def test_repr_cells_over_the_fast_range(values):
    _assert_repr(values + [-v for v in values])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(min_value=1e-29, max_value=1e-4, exclude_max=True),
                min_size=1, max_size=40))
def test_repr_cells_over_the_scientific_range(values):
    _assert_repr(values + [-v for v in values])


def _neighbours(v):
    v = np.asarray(v, dtype=float)
    return np.concatenate([np.nextafter(v, -np.inf), v, np.nextafter(v, np.inf)])


def _digit_strings(rng, digits, count, low=-4, high=16):
    """Floats parsed from decimal strings of the given number of significant
    digits, with decimal exponents from low to below high (by default the
    positional range of repr)."""
    mantissas = rng.integers(10 ** (digits - 1), 10 ** digits, count)
    exponents = rng.integers(low - digits + 1, high - digits + 1, count)
    return [float(f"{m}e{e}") for m, e in zip(mantissas.tolist(), exponents.tolist())]


def test_repr_cells_on_the_hard_cases():
    rng = np.random.default_rng(21)
    cases = [
        # powers of two (an asymmetric rounding interval), in range and out
        2.0 ** np.arange(-20, 60),
        # powers of ten and their neighbours, the range edges among them
        _neighbours([float(f"1e{k}") for k in range(-32, 18)]),
        # 1-, 2-, 15-, 16- and 17-digit reprs, positional and scientific
        *(_digit_strings(rng, d, 3000) for d in (1, 2, 15, 16, 17)),
        *(_digit_strings(rng, d, 3000, -29, -4) for d in (1, 2, 15, 16, 17)),
        # doubles with random mantissas and exponents
        rng.uniform(1.0, 2.0, 20000) * 2.0 ** rng.integers(-100, 60, 20000),
        # subnormals, zeros, non-finite values and the extremes
        [5e-324, 2.5e-308, np.finfo(float).tiny, 0.0, -0.0, np.nan, np.inf,
         -np.inf, np.finfo(float).max, 1e-4, 9.999999999999999e15, 1e16,
         9.999999999999999e-5, 1e-29, 9.99999999999999e-30, 1e-30],
        # mantissas with zeros inside, and the 10**22 seam of the scaling
        [1.0000000000000002e-05, 1.05e-07, 1.000001e-20, 5.4e-06, 9.5e-07,
         1e-06, 1.0000000000000001e-06, 9.999999999999999e-07, 2.2250738585072014e-20],
        # integral values, which gain .0, and values with zeros inside
        [1.0, 100.0, 1200.0, 1e15, 123456789012345.0, 1000000.5, 0.1000000000000001,
         0.30000000000000004, 100.25, 10.000000000000002],
    ]
    for values in cases:
        values = np.asarray(values, dtype=float)
        _assert_repr(np.concatenate([values, -values]))


def test_fixed_cells_on_ties_and_near_ties():
    rng = np.random.default_rng(22)
    eighths = np.arange(-8000, 8001) / 8  # every .x25, .x75 an exact tie
    grid = np.arange(-4000, 4001) * 0.005  # near-ties either side of .xx5
    for values in (eighths, grid, _neighbours(grid), rng.uniform(-1000, 1000, 20000),
                   [0.0, -0.0, -0.001, -0.004999, 0.005, 0.015, 0.025, 9.995,
                    9.999999999999e12, 1e13, -1e13, 1e300, np.nan, np.inf, -np.inf,
                    5e-324, -5e-324]):
        _assert_fixed(values)


def test_two_product_is_exact():
    rng = np.random.default_rng(23)
    a = rng.uniform(0.5, 1.0, 2000) * 2.0 ** rng.integers(-30, 55, 2000)
    p = rng.integers(0, 23, 2000)
    hi, lo = util._two_product(a, p)
    for x, k, h, lo_ in zip(a.tolist(), p.tolist(), hi.tolist(), lo.tolist()):
        assert Fraction(h) + Fraction(lo_) == Fraction(x) * 10 ** k


def test_text_cells_and_tables():
    assert _cells(text_cells(["", "ab", "c"])) == ["", "ab", "c"]
    assert _cells(text_cells([["x", ""], ["", "yz"]])) == ["x", "", "", "yz"]
    assert _cells(text_cells(np.array([0, -5, 100]))) == ["0", "-5", "100"]
    parts = (b"<", text_cells(["a", "bc"]), b"|", repr_cells([1.5, -2.0]), b">")
    assert table_text(*parts, head="h") == "h<a|1.5><bc|-2.0>"
    assert table_text(repr_cells([]), b"\n") == ""
    # blocks of rows join seamlessly
    values = np.arange(1500) * 1.5
    assert table_text(repr_cells(values), b";") == "".join(f"{v!r};" for v in values.tolist())


def _per_value_kernels(monkeypatch):
    """Replace the array kernels, wherever they are bound, by formatting
    value by value."""
    def by_value(fmt):
        return lambda a: text_cells([fmt(v) for v in np.ravel(np.asarray(a, dtype=float)).tolist()])

    for module in (util, sweep, svgplot):
        for name, fmt in (("repr_cells", repr), ("fixed_cells", "{:.2f}".format)):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, by_value(fmt))


def _maps(cfg):
    """A fixed-mode L x Delta map, with nan and negative values and flags,
    and a self-consistent delay map whose upper branch is missing in some
    cells (MissingBranch)."""
    m = sweep_2d(cfg, ("L", np.array([0.0, 60.0, 140.0])),
                 ("Delta", np.linspace(0.95, 1.05, 5) * cfg.omega_m))
    values = m.values.copy()
    values[1, 2], values[2, 0] = np.nan, -values[2, 0]
    flags = [list(r) for r in m.flags]
    flags[1][2] = "NumericalError"
    sc = replace(cfg, detuning_mode=SelfConsistent(1.5 * cfg.omega_m))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # bistable points
        dm = sweep_2d(sc, ("P", np.array([1e-3, 2.5e-3, 4e-3])), ("L", np.array([0, 100, 200])),
                      observable="tau_g", delta=1.1 * cfg.omega_m, branch=1)
    assert "MissingBranch" in {f for r in dm.flags for f in r}
    return replace(m, values=values, flags=flags), dm


def test_writers_match_the_per_value_rendering(monkeypatch):
    """Every CSV and SVG writer gives the bytes of the same writer with
    its kernels replaced by repr and the f-string value by value: a
    spectrum with flagged and nan rows, a map with nan, negative and
    flagged cells, and a delay map with MissingBranch cells."""
    cfg = default_config()
    series = spectrum_sweep(cfg)
    nu = series.nu_p.copy()
    nu[[5, 6, 9]] = np.nan
    flags = list(series.flags)
    flags[5] = flags[100] = "DegenerateDenominator"
    series = replace(series, nu_p=nu, flags=flags)
    m, dm = _maps(cfg)
    x = series.delta_grid / series.omega_m

    def render():
        return [spectrum_csv(series), map_csv(m), delay_map_csv(dm),
                line_svg(x, [("nu_p", series.nu_p), ("u_p", -series.u_p)], title="t"),
                heatmap_svg(m.axis2_grid, m.axis1_grid, m.values),
                heatmap_svg(dm.axis2_grid, dm.axis1_grid * 1e3, dm.values * 1e6)]

    fast = render()
    _per_value_kernels(monkeypatch)
    assert fast == render()
    # and the spectrum against the row-by-row join of the cells' str
    cols = [x, series.nu_p, series.u_p, series.phase_unwrapped, series.tau_g * 1e6]
    rows = [",".join([*map(str, r), f]) for r, f in zip(zip(*[c.tolist() for c in cols]), flags)]
    assert fast[0] == "\n".join([",".join(SPECTRUM_HEADER), *rows]) + "\n"


def test_kernel_covers_the_default_spectrum(monkeypatch):
    """At least 99 % of the float cells of the default spectrum's CSV take
    the array path, not the per-value fallback."""
    fallback, counts = util._fallback, []

    def spy(cells, a, slow, fmt):
        counts.append((slow.size, a.size))
        return fallback(cells, a, slow, fmt)

    monkeypatch.setattr(util, "_fallback", spy)
    spectrum_csv(spectrum_sweep(default_config()))
    slow, total = map(sum, zip(*counts))
    assert total == 5 * 4161 and slow <= 0.01 * total


def test_kernel_covers_the_self_consistent_delay_map(monkeypatch):
    """At least 99 % of the tau_g cells (seconds, about 1e-7, which repr
    writes in scientific notation) of a self-consistent P x L map take the
    array path, not the per-value fallback."""
    cfg = default_config()
    sc = replace(cfg, detuning_mode=SelfConsistent(1.5 * cfg.omega_m))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # bistable points
        m = sweep_2d(sc, ("P", np.linspace(1e-4, 4e-3, 41)), ("L", np.linspace(0, 200, 101)),
                     observable="tau_g", delta=1.1 * cfg.omega_m)
    fallback, counts = util._fallback, []

    def spy(cells, a, slow, fmt):
        counts.append((slow.size, a.size))
        return fallback(cells, a, slow, fmt)

    monkeypatch.setattr(util, "_fallback", spy)
    assert _cells(repr_cells(m.values)) == list(map(repr, m.values.ravel().tolist()))
    ((slow, total),) = counts
    assert total == 4141 and np.all(np.abs(m.values) < 1e-4) and slow <= 0.01 * total
