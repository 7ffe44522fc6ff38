"""Spectra over detuning grids, transparency-dip detection and 2-D parameter
maps (the (P, L) group-delay map among them), plus their CSV renderings.

The default detuning grid is 4001 uniform points over [0.5, 1.5] omega_m with
automatic refinement to gamma_j/4 spacing within +-10 gamma_j of each mirror
resonance: at Q = 1.2e5 the transparency windows are gamma-narrow and a
uniform grid would step right over them.

Dips are the peaks of -nu_p, found as scipy.signal's find_peaks/peak_widths
find them (bit for bit) and refined in one array pass to the vertices of
their three-point parabolas.
"""

from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .delay import KIND_NAMES, _delays, kind_codes, unwrap_phase
from .errors import ConfigError
from .model import effective_params
from .steadystate import effective_grid, solve_steady
from .util import FLAG_NAMES, name_text, render_csv, repr_cells, text_cells

_DIP_PROMINENCE = 1e-3
_AXIS_NAMES = ("P", "L", "kappa", "Q1", "Q2", "Delta")


# the uniform part of the default detuning grid, the defaults of the CLI's
# --delta-min and --delta-max (in units of omega_m) and --points
DEFAULT_GRID = (0.5, 1.5, 4001)


def default_delta_grid(ep):
    """DEFAULT_GRID's uniform points plus resonance refinement."""
    start, stop, points = DEFAULT_GRID
    return _refine_grid(np.linspace(start * ep.omega_m, stop * ep.omega_m, points), ep)


def _refine_grid(grid, ep):
    """Insert gamma/4-spaced points within +-10 gamma of each mirror resonance
    wherever the grid is coarser than that."""
    pieces = [np.asarray(grid, dtype=float)]
    for om, gam in ((ep.omega_phi1, ep.gamma1), (ep.omega_phi2, ep.gamma2)):
        lo, hi = om - 10.0 * gam, om + 10.0 * gam
        inside = pieces[0][(pieces[0] >= lo) & (pieces[0] <= hi)]
        if inside.size < 2 or np.max(np.diff(inside)) > gam / 4.0:
            pieces.append(np.linspace(lo, hi, 81))
    # sorted, each value once (np.unique would import numpy.ma)
    out = np.sort(np.concatenate(pieces))
    return out[np.concatenate(([True], out[1:] != out[:-1]))]


@dataclass(frozen=True)
class SpectrumSeries:
    """Aligned response series over a strictly increasing detuning grid;
    flags holds the uint8 flag code of each point (flag_names gives their
    names). The series does not copy its configuration: a run's manifest
    hashes it."""

    delta_grid: object
    omega_m: float
    nu_p: object
    u_p: object
    phase_unwrapped: object
    tau_g: object
    flags: object

    def __post_init__(self):
        n = len(self.delta_grid)
        for name in ("nu_p", "u_p", "phase_unwrapped", "tau_g", "flags"):
            if len(getattr(self, name)) != n:
                raise ConfigError(f"series {name} length mismatch")
        if np.any(np.diff(self.delta_grid) <= 0):
            raise ConfigError("delta_grid must be strictly increasing")


def spectrum_sweep(cfg, delta_grid=None, branch=0):
    """Evaluate nu_p, u_p, unwrapped phase and tau_g over a detuning grid.

    The steady state is computed once for the configuration (selected branch
    in self-consistent mode); a user grid is refined near the mirror
    resonances if it is too coarse there. A user grid that is not a
    nonempty 1-d sequence is a ConfigError.
    """
    ss = solve_steady(cfg, branch=branch)
    ep = effective_params(cfg, ss)
    if delta_grid is None:
        grid = default_delta_grid(ep)
    else:
        grid = np.asarray(delta_grid, dtype=float)
        if grid.ndim != 1 or grid.size == 0:
            raise ConfigError("delta_grid must be a nonempty 1-d sequence")
        grid = _refine_grid(np.sort(grid), ep)

    pr, tau, _, flags = _delays(ep, grid)
    return SpectrumSeries(
        delta_grid=grid, omega_m=ep.omega_m, nu_p=pr.nu_p, u_p=pr.u_p,
        phase_unwrapped=unwrap_phase(pr.phase), tau_g=tau, flags=flags)


DipReport = namedtuple("DipReport", "positions depths widths count")
DipReport.__doc__ = """Local minima of nu_p: refined positions, values there, and full widths
at half depth measured between the flanking maxima."""


def _local_maxima(x):
    """Midpoints of the local maxima of x: runs of equal samples with a lower
    sample on each side (so no run at either edge, and no NaN)."""
    if x.size < 3:
        return np.array([], dtype=np.intp)
    starts = np.flatnonzero(np.concatenate(([True], x[1:] != x[:-1])))
    v = x[starts]
    r = np.flatnonzero((v[1:-1] > v[:-2]) & (v[1:-1] > v[2:])) + 1
    return (starts[r] + starts[r + 1] - 1) // 2


def _crossing(walk, base, height):
    """(k, frac): walk[k] is the first sample not above height, or the base if
    none is before it, and frac the linear interpolation towards walk[k-1]
    when walk[k] is below height."""
    below = ~(height < walk[:base + 1])
    below[-1] = True
    k = int(np.argmax(below))
    if walk[k] < height:
        return k, (height - walk[k]) / (walk[k - 1] - walk[k])
    return k, 0.0


def _peaks(x):
    """Peaks of x with prominence >= _DIP_PROMINENCE and their half-prominence
    crossings, as ``scipy.signal.find_peaks(x, prominence=_DIP_PROMINENCE)``
    then ``peak_widths(x, peaks, rel_height=0.5)`` compute them.

    Returns the arrays (peaks, prominences, left_bases, right_bases, left_ips,
    right_ips); the bases are the lowest samples between a peak and the
    nearest higher sample (or NaN, or the edge) on each side, the closest to
    the peak on ties, and the crossings are fractional sample indices.
    """
    rows = []
    for p in _local_maxima(x):
        # from the peak outwards, up to the first sample not <= x[p] (NaN too)
        left, right = (run[:np.argmax(np.append(~(run <= x[p]), True))]
                       for run in (x[p::-1], x[p:]))
        lb, rb = int(np.argmin(left)), int(np.argmin(right))
        prominence = x[p] - max(left[lb], right[rb])
        if not prominence >= _DIP_PROMINENCE:
            continue
        with np.errstate(invalid="ignore"):  # an infinite peak has height nan
            height = x[p] - prominence * 0.5
            kl, fl = _crossing(left, lb, height)
            kr, fr = _crossing(right, rb, height)
        rows.append((p, prominence, p - lb, p + rb, (p - kl) + fl, (p + kr) - fr))
    cols = list(zip(*rows)) or [()] * 6
    kinds = (np.intp, float, np.intp, np.intp, float, float)
    return tuple(np.array(c, dtype=t) for c, t in zip(cols, kinds))


def find_dips(series):
    """Transparency dips of a spectrum.

    Minima are detected on -nu_p with absolute prominence 1e-3. Each is
    refined to the vertex of the parabola through it and its two neighbours,
    all at once; where that parabola is not convex or its vertex leaves the
    bracket of the neighbours (a flat or asymmetric minimum), the grid point
    stays. Widths are taken at half prominence (half depth relative to the
    flanking maxima), with fractional sample indices interpolated back onto
    the detuning grid so a non-uniform grid is handled correctly.
    """
    x = np.asarray(series.delta_grid, dtype=float)
    y = np.asarray(series.nu_p, dtype=float)
    i, _, _, _, left_ips, right_ips = _peaks(-y)  # never at an edge
    with np.errstate(divide="ignore", invalid="ignore"):  # flat or infinite minima
        h1, h2 = x[i] - x[i - 1], x[i + 1] - x[i]
        s1, s2 = (y[i] - y[i - 1]) / h1, (y[i + 1] - y[i]) / h2
        a = (s2 - s1) / (h1 + h2)
        b = s1 + a * h1
        offset = -b / (2.0 * a)
        vertex = (a > 0) & (-h1 < offset) & (offset < h2)
        positions = np.where(vertex, x[i] + offset, x[i])
        depths = np.where(vertex, y[i] - b * b / (4.0 * a), y[i])

    samples = np.arange(x.size, dtype=float)
    widths = np.interp(right_ips, samples, x) - np.interp(left_ips, samples, x)
    return DipReport(positions, depths, widths, int(i.size))


Map2D = namedtuple("Map2D", "axis1_name axis1_grid axis2_name axis2_grid observable delta "
                            "values flags")
Map2D.__doc__ = """Long-format 2-D map: values[i, j] at (axis1_grid[i], axis2_grid[j]),
and flags[i, j] the uint8 flag code of the cell (flag_names gives their
names). Like SpectrumSeries, it does not copy its configuration."""


def sweep_2d(cfg, axis1, axis2, observable="nu_p", delta=None, branch=0, method="analytic"):
    """Observable over a 2-D parameter grid.

    axis1/axis2 are (name, grid) pairs with names among P, L, kappa, Q1, Q2,
    Delta; the Delta axis feeds the response detuning directly instead of the
    configuration. observable is "nu_p" or "tau_g", evaluated at the Delta
    axis values or at the fixed delta argument; tau_g by method, as in
    group_delay. branch is as in solve_steady; a cell without it is flagged
    MissingBranch. L grids are rounded to integer quantum numbers, and the
    map holds the rounded grid. The whole grid is one batched evaluation;
    per-cell numerical failures are flagged, not raised.
    """
    (n1, g1), (n2, g2) = axis1, axis2
    for n in (n1, n2):
        if n not in _AXIS_NAMES:
            raise ConfigError(f"axis name {n!r} not in {_AXIS_NAMES}")
    if n1 == n2:
        raise ConfigError("the two axes must differ")
    if observable not in ("nu_p", "tau_g"):
        raise ConfigError(f"observable must be nu_p or tau_g, got {observable!r}")
    if observable == "nu_p" and method != "analytic":
        raise ConfigError(f"group-delay method {method!r} applies to tau_g only")
    g1 = np.asarray(g1, dtype=float)
    g2 = np.asarray(g2, dtype=float)
    g1, g2 = (np.round(g) if n == "L" else g for n, g in ((n1, g1), (n2, g2)))
    if g1.size == 0 or g2.size == 0:
        raise ConfigError("axis grids must be nonempty")
    if "Delta" not in (n1, n2) and delta is None:
        raise ConfigError("a fixed delta is required when no axis is Delta")
    if "Delta" in (n1, n2) and delta is not None:
        raise ConfigError("a fixed delta conflicts with the Delta axis")

    axes = {n1: g1[:, None], n2: g2[None, :]}
    dlt = axes.pop("Delta") if "Delta" in axes else float(delta)
    dlt = np.broadcast_to(dlt, (g1.size, g2.size))
    ep, flags = effective_grid(cfg, branch, **axes)
    pr, tau, _, flags = _delays(ep, dlt, method, flags=flags)
    values = np.where(flags == 0, pr.nu_p if observable == "nu_p" else tau, np.nan)
    return Map2D(axis1_name=n1, axis1_grid=g1, axis2_name=n2, axis2_grid=g2,
                 observable=observable, delta=delta, values=values, flags=flags)


# ---------------------------------------------------------------------------
# CSV renderings

SPECTRUM_HEADER = ("delta_over_omega_m", "nu_p", "u_p", "phase_rad",
                   "tau_g_us", "flag")
MAP_HEADER = ("axis1", "axis2", "value", "flag")
DELAY_MAP_HEADER = ("P_mW", "L", "tau_g_us", "classification", "flag")


def _map_csv(header, m, axis1, axis2, *columns):
    """CSV text of map m: its axes' cells, each formatted once, in C order
    (axis1 slowest), the cells of the (n1, n2) columns, then the flags."""
    return render_csv(header, np.repeat(axis1, len(axis2), axis=0),
                      np.tile(axis2, (len(axis1), 1)), *columns,
                      name_text(m.flags, FLAG_NAMES))


def spectrum_csv(series):
    grid = np.asarray(series.delta_grid, dtype=float)
    return render_csv(SPECTRUM_HEADER, *map(repr_cells, (
        grid / series.omega_m, series.nu_p, series.u_p, series.phase_unwrapped,
        np.asarray(series.tau_g) * 1e6)), name_text(series.flags, FLAG_NAMES))


def map_csv(m):
    return _map_csv(MAP_HEADER, m, repr_cells(m.axis1_grid), repr_cells(m.axis2_grid),
                    repr_cells(m.values))


def delay_map_csv(m):
    if (m.axis1_name, m.axis2_name, m.observable) != ("P", "L", "tau_g"):
        raise ConfigError("delay_map_csv renders only a (P, L) tau_g map")
    return _map_csv(DELAY_MAP_HEADER, m, repr_cells(m.axis1_grid * 1e3),
                    text_cells(m.axis2_grid.astype(int)), repr_cells(m.values * 1e6),
                    name_text(kind_codes(m.values), KIND_NAMES))
