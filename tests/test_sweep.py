"""Detuning grids, spectra, dip detection, 2-D maps and CSV rendering."""

import time
import warnings
from dataclasses import is_dataclass, replace
from fractions import Fraction

import numpy as np
import pytest

from omitlab import (ConfigError, NumericalError, SelfConsistent,
                     SpectrumSeries, default_config, default_delta_grid,
                     delay_map_csv, effective_params, find_dips, flag_names,
                     group_delay, map_csv, probe_response, solve_steady,
                     spectrum_csv, spectrum_sweep, sweep_2d, tau_g_analytic,
                     unwrap_phase)
from omitlab.delay import KIND_NAMES, kind_codes
from omitlab.util import FLAG_ERRORS, FLAG_NAMES, name_text
from omitlab.sweep import DELAY_MAP_HEADER, MAP_HEADER, SPECTRUM_HEADER, _peaks


def test_default_grid_spans_and_refines(ep):
    grid = default_delta_grid(ep)
    assert grid[0] == 0.5 * ep.omega_m
    assert grid[-1] == 1.5 * ep.omega_m
    assert np.all(np.diff(grid) > 0)
    assert grid.size > 4001
    for om, gam in ((ep.omega_phi1, ep.gamma1), (ep.omega_phi2, ep.gamma2)):
        inside = grid[(grid >= om - 10 * gam) & (grid <= om + 10 * gam)]
        assert inside.size >= 2
        assert np.max(np.diff(inside)) <= gam / 4.0 + 1e-9 * gam


def test_spectrum_series_validation():
    g = np.array([1.0, 2.0, 3.0])
    z = np.zeros(3)
    with pytest.raises(ConfigError, match="length"):
        SpectrumSeries(g, 1.0, z[:2], z, z, z, ["", "", ""], "fp")
    with pytest.raises(ConfigError, match="increasing"):
        SpectrumSeries(g[::-1], 1.0, z, z, z, z, ["", "", ""], "fp")


def test_undriven_spectrum_is_single_lorentzian(undriven_cfg):
    series = spectrum_sweep(undriven_cfg)
    cfg = undriven_cfg
    expect = 2.0 * cfg.kappa ** 2 / (cfg.kappa ** 2 +
                                     (cfg.omega_m - series.delta_grid) ** 2)
    np.testing.assert_allclose(series.nu_p, expect, rtol=1e-12)
    i = np.argmax(series.nu_p)
    assert series.delta_grid[i] == pytest.approx(cfg.omega_m, rel=1e-3)
    assert find_dips(series).count == 0
    assert all(f == "" for f in flag_names(series.flags))


def test_driven_spectrum_has_two_dips(cfg):
    series = spectrum_sweep(cfg)
    rep = find_dips(series)
    assert rep.count == 2
    # dips sit close to (not exactly at) the mirror frequencies
    assert abs(rep.positions[0] - cfg.omega_phi2) < 0.01 * cfg.omega_m
    assert abs(rep.positions[1] - cfg.omega_phi1) < 0.01 * cfg.omega_m
    assert np.all(rep.depths < 0.1)
    assert np.all(rep.widths > 0)


def test_degenerate_mirrors_give_single_dip(degenerate_cfg):
    series = spectrum_sweep(degenerate_cfg)
    rep = find_dips(series)
    assert rep.count == 1


def test_windows_widen_with_power(cfg):
    widths = []
    for P in (1e-3, 4e-3):
        series = spectrum_sweep(replace(cfg, P=P))
        rep = find_dips(series)
        assert rep.count == 2
        widths.append(rep.widths)
    assert widths[1][0] > widths[0][0]
    assert widths[1][1] > widths[0][1]


def test_user_grid_is_refined_when_coarse(cfg):
    coarse = np.linspace(0.5, 1.5, 101) * cfg.omega_m
    series = spectrum_sweep(cfg, coarse)
    assert series.delta_grid.size > 101
    assert find_dips(series).count == 2



def test_user_grid_must_be_a_nonempty_sequence(cfg):
    """An empty, 2-d or 0-d detuning grid is a ConfigError, as an empty map
    axis is, rather than the refinement bands alone or numpy's error."""
    grid = np.linspace(0.5, 1.5, 101) * cfg.omega_m
    for bad in ([], grid.reshape(1, -1), grid.reshape(-1, 1), grid[0]):
        with pytest.raises(ConfigError, match="nonempty 1-d"):
            spectrum_sweep(cfg, bad)


def test_dip_refinement_is_subgrid():
    x = np.linspace(0.0, 1.0, 101)
    true_pos = 0.413
    y = 1.0 + 5.0 * (x - true_pos) ** 2
    z = np.zeros_like(x)
    series = SpectrumSeries(x, 1.0, y, z, z, z, [""] * x.size, "fp")
    rep = find_dips(series)
    assert rep.count == 1
    # parabola vertex recovered far below the 0.01 grid spacing
    assert rep.positions[0] == pytest.approx(true_pos, abs=1e-6)
    assert rep.depths[0] == pytest.approx(1.0, abs=1e-6)


def _exact_vertex(x, y, i):
    """find_dips' refinement of the minimum at sample i in exact rational
    arithmetic: the vertex of the parabola through samples i - 1, i and
    i + 1, or the grid point where that parabola is not convex or its vertex
    leaves the bracket."""
    x0, x1, x2 = map(Fraction, x[i - 1:i + 2])
    y0, y1, y2 = map(Fraction, y[i - 1:i + 2])
    h1, h2 = x1 - x0, x2 - x1
    s1, s2 = (y1 - y0) / h1, (y2 - y1) / h2
    a = (s2 - s1) / (h1 + h2)
    b = s1 + a * h1
    if a > 0 and -h1 < -b / (2 * a) < h2:
        return x1 - b / (2 * a), y1 - b * b / (4 * a)
    return x1, y1


def test_dips_are_the_exact_three_point_vertices():
    """Seeded spectra over wide P, kappa, Q1, Q2 and L on the default grid
    and 101-, 500- and 4001-point user grids: each dip lies within 1e-14
    omega_m, and its depth within 1e-14 max|nu_p|, of the exact vertex of
    its three samples. np.polyfit missed the depth bound by up to 1.8e-11.
    On a flat minimum the grid point stays."""
    rng = np.random.default_rng(17)
    base = default_config()
    dips = 0
    for k in range(40):
        cfg = replace(base, P=base.P * 10 ** rng.uniform(-3.0, 1.0),
                      kappa=base.kappa * 10 ** rng.uniform(-0.7, 0.7),
                      Q1=10 ** rng.uniform(2.5, 6.0), Q2=10 ** rng.uniform(2.5, 6.0),
                      L=int(rng.integers(0, 301)))
        points = (None, 101, 500, 4001)[k % 4]
        grid = None if points is None else np.linspace(0.5, 1.5, points) * base.omega_m
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # phase undersampled on coarse grids
            series = spectrum_sweep(cfg, grid)
        x, y = series.delta_grid, series.nu_p
        rep = find_dips(series)
        idx = _peaks(-y)[0]
        assert rep.count == idx.size
        for i, pos, depth in zip(idx, rep.positions, rep.depths):
            xv, yv = _exact_vertex(x, y, i)
            assert abs(Fraction(pos) - xv) <= 1e-14 * base.omega_m
            assert abs(Fraction(depth) - yv) <= 1e-14 * np.max(np.abs(y))
        dips += rep.count
    assert dips > 50

    x = np.linspace(0.0, 1.0, 78)
    y = np.full(x.size, 0.05)
    y[11:14] = 0.018
    z = np.zeros_like(x)
    rep = find_dips(SpectrumSeries(x, 1.0, y, z, z, z, [""] * x.size, "fp"))
    assert (rep.count, rep.positions[0], rep.depths[0]) == (1, x[12], 0.018)


def _scipy_peaks(x):
    """The reference route find_dips used to take, through scipy.signal."""
    from scipy.signal import find_peaks, peak_widths
    idx, props = find_peaks(x, prominence=1e-3)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # zero-width peaks on plateau data
        _, _, left_ips, right_ips = peak_widths(x, idx, rel_height=0.5)
    return (idx, props["prominences"], props["left_bases"], props["right_bases"],
            left_ips, right_ips)


def _dip_inputs():
    """-nu_p of seeded spectra over wide P, kappa, Q1, Q2 and L on 101- and
    500-point user grids (refined near the mirrors) and the default grid;
    seeded random walks rounded into plateaus; arrays of length 0 to 3."""
    rng = np.random.default_rng(20231)
    base = default_config()
    for k in range(24):
        cfg = replace(base, P=base.P * 10 ** rng.uniform(-1.5, 1.0),
                      kappa=base.kappa * 10 ** rng.uniform(-0.5, 0.5),
                      Q1=10 ** rng.uniform(3.0, 6.0), Q2=10 ** rng.uniform(3.0, 6.0),
                      L=int(rng.integers(0, 201)))
        points = (None, 101, 500)[k % 3]
        grid = None if points is None else np.linspace(0.5, 1.5, points) * base.omega_m
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # phase undersampled on coarse grids
            yield -spectrum_sweep(cfg, grid).nu_p
    for k in range(300):
        walk = np.cumsum(rng.normal(size=int(rng.integers(4, 400))))
        yield np.round(walk * rng.uniform(0.5, 50.0)) * 1e-3
    for n in range(4):
        yield np.zeros(n)
        yield np.arange(n, dtype=float)
        yield np.array([0.0, 1.0, 0.0])[:n]


def test_dip_finder_matches_scipy_signal():
    """Peaks, prominences, bases and interpolated half-prominence crossings
    equal scipy.signal.find_peaks(prominence=1e-3) + peak_widths(rel_height
    =0.5) bit for bit."""
    found = 0
    for x in _dip_inputs():
        ours, ref = _peaks(x), _scipy_peaks(x)
        for a, b in zip(ours, ref):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        found += ref[0].size
    assert found > 1000


def test_undersampled_warning_names_the_caller(cfg):
    """The phase warning names the line that called into the package, from
    a spectrum on a coarse grid as from unwrap_phase itself."""
    narrow = replace(cfg, kappa=cfg.kappa / 20.0)
    with pytest.warns(UserWarning, match="undersampled") as record:
        spectrum_sweep(narrow, np.linspace(0.5, 1.5, 11) * cfg.omega_m)
        unwrap_phase([0.0, 0.96 * np.pi])
    assert [w.filename for w in record] == [__file__] * 2


def test_dip_finder_cost_on_noise():
    """About 1400 candidate minima on a 4161-point noisy spectrum: the walks
    from each candidate stop at the first higher sample, so the call stays
    far below the second that scipy.signal took to import."""
    x = np.linspace(0.5, 1.5, 4161)
    z = np.zeros_like(x)
    nu = np.random.default_rng(5).normal(scale=1e-2, size=x.size)
    series = SpectrumSeries(x, 1.0, nu, z, z, z, [""] * x.size, "fp")
    t0 = time.perf_counter()
    rep = find_dips(series)
    assert time.perf_counter() - t0 < 0.5
    assert rep.count > 1000


def test_sweep2d_delta_axis_matches_pointwise(cfg, ep):
    grid_L = np.array([0.0, 100.0])
    grid_d = np.array([0.9, 1.0, 1.1]) * cfg.omega_m
    m = sweep_2d(cfg, ("L", grid_L), ("Delta", grid_d))
    assert m.values.shape == (2, 3)
    # L = 0 row is the bare cavity
    bare = 2.0 * cfg.kappa ** 2 / (cfg.kappa ** 2 + (cfg.omega_m - grid_d) ** 2)
    np.testing.assert_allclose(m.values[0], bare, rtol=1e-12)
    # L = 100 row matches the direct response evaluation
    direct = [float(probe_response(ep, float(d)).nu_p) for d in grid_d]
    np.testing.assert_allclose(m.values[1], direct, rtol=1e-12)
    assert all(f == "" for row in flag_names(m.flags) for f in row)


def test_sweep2d_tau_over_power_and_kappa(cfg):
    m = sweep_2d(cfg, ("P", np.array([1e-6, 2e-3])),
                 ("kappa", np.array([0.5, 1.0, 1.5]) * cfg.kappa),
                 observable="tau_g", delta=1.1 * cfg.omega_m)
    assert m.values.shape == (2, 3)
    assert np.all(np.isfinite(m.values))


def test_sweep2d_validation(cfg):
    d = np.array([1.0]) * cfg.omega_m
    with pytest.raises(ConfigError, match="axis"):
        sweep_2d(cfg, ("volume", d), ("Delta", d))
    with pytest.raises(ConfigError, match="differ"):
        sweep_2d(cfg, ("P", np.array([1e-3])), ("P", np.array([2e-3])))
    with pytest.raises(ConfigError, match="observable"):
        sweep_2d(cfg, ("P", np.array([1e-3])), ("Delta", d), observable="phase")
    with pytest.raises(ConfigError, match="delta"):
        sweep_2d(cfg, ("P", np.array([1e-3])), ("L", np.array([10.0])))
    with pytest.raises(ConfigError, match="conflicts"):
        sweep_2d(cfg, ("P", np.array([1e-3])), ("Delta", d), delta=d[0])
    with pytest.raises(ConfigError, match="nonempty"):
        sweep_2d(cfg, ("P", np.array([])), ("Delta", d))
    # the group-delay method applies to tau_g only and is "analytic" or "fd"
    with pytest.raises(ConfigError, match="tau_g only"):
        sweep_2d(cfg, ("P", np.array([1e-3])), ("Delta", d), method="fd")
    with pytest.raises(ConfigError, match="method"):
        sweep_2d(cfg, ("P", np.array([1e-3])), ("Delta", d), observable="tau_g",
                 method="secret")
    sc = replace(cfg, detuning_mode=SelfConsistent(cfg.omega_m))
    with pytest.raises(ConfigError, match="branch -1"):
        sweep_2d(sc, ("P", np.array([1e-3])), ("Delta", d), branch=-1)


def _scalar_route(cfg, axis1, axis2, observable, delta, branch, references):
    """values and flags of sweep_2d, one cell at a time through the scalar
    API: replace -> solve_steady -> effective_params -> probe_response /
    tau_g_analytic, with the flag of a raising group_delay (nan where
    flagged) for either observable, and MissingBranch where solve_steady
    refuses the branch; each unflagged value is also checked with references
    against the linear solve or the finite difference."""
    (n1, g1), (n2, g2) = axis1, axis2
    values = np.empty((len(g1), len(g2)))
    flags = []
    for i, v1 in enumerate(g1):
        flags.append([])
        for j, v2 in enumerate(g2):
            c, dlt = cfg, delta
            for name, v in ((n1, v1), (n2, v2)):
                if name == "Delta":
                    dlt = v
                else:
                    c = replace(c, **{name: int(round(v)) if name == "L" else v})
            try:
                ss = solve_steady(c, branch=branch)
            except ConfigError as e:  # a map flags a cell without the branch
                assert "out of range" in str(e)
                values[i, j] = np.nan
                flags[-1].append("MissingBranch")
                continue
            ep = effective_params(c, ss)
            flag = ""
            try:
                group_delay(ep, ss.a0, dlt)
            except NumericalError as e:
                flag = type(e).__name__
            values[i, j] = np.nan if flag else (
                probe_response(ep, dlt).nu_p if observable == "nu_p"
                else tau_g_analytic(ep, dlt))
            if not flag:
                references(ep, ss.a0, dlt, **{observable: values[i, j]})
            flags[-1].append(flag)
    return values, flags


def _transmission_zero(cfg, delta):
    """(P, Q1) where t_p vanishes at detuning delta, with Q2 = 180: a Newton
    hunt through the scalar route, at broad damping so the zero is isolated."""
    def tp(p, q):
        c = replace(cfg, P=p * 1e-4, Q1=220.0 * q, Q2=180.0)
        return complex(probe_response(effective_params(c, solve_steady(c)), delta).t_p)

    x = np.array([1.486, 1.0])
    for _ in range(60):
        f0 = tp(*x)
        if abs(f0) < 3e-16:
            break
        h = 1e-9
        fp = (tp(x[0] + h, x[1]) - tp(x[0] - h, x[1])) / (2 * h)
        fq = (tp(x[0], x[1] + h) - tp(x[0], x[1] - h)) / (2 * h)
        J = np.array([[fp.real, fq.real], [fp.imag, fq.imag]])
        x = x - np.linalg.solve(J, [f0.real, f0.imag])
    assert abs(tp(*x)) < 1e-14, "zero hunt did not converge"
    return x[0] * 1e-4, 220.0 * x[1]


def test_sweep2d_matches_scalar_route(cfg, references):
    om = cfg.omega_m
    cases = [
        (cfg, ("Q1", np.array([1e4, 1e5])), ("Delta", np.array([0.9, 1.1]) * om),
         "nu_p", None, 0),
        (cfg, ("P", np.array([1e-6, 1e-3, 2e-3])),
         ("kappa", np.array([0.5, 1.0, 1.5]) * cfg.kappa), "tau_g", 1.1 * om, 0),
    ]
    # self-consistent (P, L): branch 0 across the edge of the bistable
    # region, the top branch inside it
    sc = replace(cfg, detuning_mode=SelfConsistent(2.0 * om))
    cases += [
        (sc, ("P", np.array([2e-3, 4e-3, 6e-3])), ("L", np.array([60.0, 100.0, 140.0])),
         "tau_g", 1.1 * om, 0),
        (sc, ("P", np.array([5e-3, 6e-3])), ("L", np.array([120.0, 140.0])),
         "tau_g", 1.1 * om, 2),
    ]
    # a cell at an exact zero of t_p, where tau_g is undefined; a nu_p map
    # flags it too
    P0, Q10 = _transmission_zero(cfg, 1.101 * om)
    cases += [(replace(cfg, Q1=Q10, Q2=180.0), ("P", np.array([1e-4, P0])),
               ("Delta", np.array([1.0, 1.101]) * om), obs, None, 0)
              for obs in ("nu_p", "tau_g")]

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # bistable points
        for c, ax1, ax2, obs, delta, branch in cases:
            m = sweep_2d(c, ax1, ax2, observable=obs, delta=delta, branch=branch)
            values, flags = _scalar_route(c, ax1, ax2, obs, delta, branch, references)
            assert flag_names(m.flags).tolist() == flags
            np.testing.assert_allclose(m.values, values, rtol=1e-12, atol=0)
        # the top branch over the grid that crosses the edge of the bistable
        # region: the cells with a single branch are flagged, not the map
        # refused, and the others match the scalar route
        top = sweep_2d(sc, *cases[2][1:3], observable="tau_g", delta=1.1 * om, branch=2)
        values, flags = _scalar_route(sc, *cases[2][1:3], "tau_g", 1.1 * om, 2, references)
        assert flag_names(top.flags).tolist() == flags
        assert {f for row in flags for f in row} == {"", "MissingBranch"}
        np.testing.assert_allclose(top.values, values, rtol=1e-12, atol=0)
    assert flag_names(m.flags).tolist() == [["", ""], ["", "NearZeroTransmission"]]
    assert np.isnan(m.values[1, 1])


# ---------------------------------------------------------------------------
# CSV

def test_spectrum_csv_schema_and_determinism(cfg, ep, ss, references):
    series = spectrum_sweep(cfg, np.linspace(0.8, 1.2, 51) * cfg.omega_m)
    # every row, the refined ones across both windows included, against the
    # linear solve and the finite difference; and nu_p, u_p on every row of
    # the default spectrum
    references(ep, ss.a0, series.delta_grid, series.nu_p, series.u_p, series.tau_g)
    full = spectrum_sweep(cfg)
    assert full.delta_grid.size == 4161
    references(ep, ss.a0, full.delta_grid, full.nu_p, full.u_p)
    text = spectrum_csv(series)
    lines = text.splitlines()
    assert lines[0] == ",".join(SPECTRUM_HEADER)
    assert len(lines) == series.delta_grid.size + 1
    assert text.endswith("\n")
    # byte-for-byte reproducible
    again = spectrum_csv(spectrum_sweep(cfg, np.linspace(0.8, 1.2, 51) * cfg.omega_m))
    assert again == text
    first = lines[1].split(",")
    assert float(first[0]) == pytest.approx(series.delta_grid[0] / cfg.omega_m)
    assert float(first[4]) == pytest.approx(series.tau_g[0] * 1e6)
    # values round-trip exactly through the shortest-repr rendering
    assert float(first[1]) == series.nu_p[0]


def test_map_csv_long_format(cfg):
    m = sweep_2d(cfg, ("L", np.array([0.0, 50.0])),
                 ("Delta", np.array([0.9, 1.1]) * cfg.omega_m))
    text = map_csv(m)
    lines = text.splitlines()
    assert lines[0] == ",".join(MAP_HEADER)
    assert len(lines) == 1 + 2 * 2
    assert lines[1].split(",")[3] == ""


def _delay_map(cfg, P, L):
    return sweep_2d(cfg, ("P", P), ("L", L), observable="tau_g", delta=1.1 * cfg.omega_m)


def test_delay_map_csv_schema(cfg):
    text = delay_map_csv(_delay_map(cfg, [1e-6, 2e-6], [0, 100]))
    lines = text.splitlines()
    assert lines[0] == ",".join(DELAY_MAP_HEADER)
    assert len(lines) == 5
    cells = lines[1].split(",")
    assert cells[0] == "0.001"          # 1e-6 W rendered in mW
    assert cells[1] == "0"              # integer angular momentum
    assert cells[3] in ("slow", "fast", "neutral")
    # only a (P, L) tau_g map has this schema
    for axes, obs in (((("P", [1e-6]), ("L", [0])), "nu_p"),
                      ((("L", [0]), ("P", [1e-6])), "tau_g"),
                      ((("P", [1e-6]), ("kappa", [cfg.kappa])), "tau_g")):
        m = sweep_2d(cfg, *axes, observable=obs, delta=cfg.omega_m)
        with pytest.raises(ConfigError, match="delay_map_csv"):
            delay_map_csv(m)


def _meshgrid_csv(header, axis1, axis2, *columns):
    """The map rendering that formats every cell of both meshgridded axes."""
    g1, g2 = np.meshgrid(axis1, axis2, indexing="ij")
    cells = [map(str, np.asarray(c).ravel().tolist()) for c in (g1, g2, *columns)]
    return "\n".join([",".join(header), *map(",".join, zip(*cells))]) + "\n"


def test_map_csvs_match_the_meshgrid_rendering(cfg):
    """Formatting each axis value once and repeating it, and the flags'
    names from a table indexed by their codes, gives the bytes of
    formatting every cell and every name through an array, on grids that
    are not square, with and without flagged cells."""
    m = sweep_2d(cfg, ("L", np.array([0.0, 50.0, 125.0])),
                 ("Delta", np.linspace(0.9, 1.1, 4) * cfg.omega_m))
    dm = _delay_map(cfg, [1e-6, 2e-6], [0, 100, 200])
    flagged_m = m._replace(flags=_codes([["", "NumericalError", "", ""],
                                         ["NearZeroTransmission", "", "", ""],
                                         ["", "", "", "DegenerateDenominator"]]))
    flagged_dm = dm._replace(flags=_codes([["", "RootRefinementError", ""],
                                           ["NumericalError", "", ""]]))
    for a in (m, flagged_m):
        assert map_csv(a) == _meshgrid_csv(MAP_HEADER, a.axis1_grid, a.axis2_grid,
                                           a.values, flag_names(a.flags))
    for d in (dm, flagged_dm):
        assert delay_map_csv(d) == _meshgrid_csv(
            DELAY_MAP_HEADER, d.axis1_grid * 1e3, d.axis2_grid.astype(int),
            d.values * 1e6, np.array(KIND_NAMES)[kind_codes(d.values)],
            flag_names(d.flags))


def _codes(names):
    """The flag codes of nested lists of flag names."""
    return np.array([[FLAG_NAMES.index(n) for n in row] for row in names], np.uint8)


def test_every_flag_code_round_trips_to_its_name(monkeypatch):
    """Each code names its error, and the names of a code array keep its
    shape; a map's flag column is the names of its codes, cell by cell, on
    a self-consistent map with MissingBranch and StepTooLarge cells. Each
    kind code names its kind, both tables are written as the names of
    their codes, and the package's public names resolve, the removed ones
    gone."""
    assert FLAG_NAMES[0] == "" and FLAG_ERRORS[0] is None
    for code, error in enumerate(FLAG_ERRORS[1:], start=1):
        assert issubclass(error, NumericalError)
        assert flag_names(np.uint8(code)) == error.__name__ == FLAG_NAMES[code]
        assert FLAG_ERRORS.index(error) == code
    codes = np.arange(len(FLAG_NAMES), dtype=np.uint8).reshape(1, -1)
    assert flag_names(codes).tolist() == [list(FLAG_NAMES)]
    assert (_codes(flag_names(codes).tolist()) == codes).all()

    # branch 1 is missing at low drive; where it exists, its Richardson
    # pair agrees within 1e-9, and a tolerance of 0 flags it
    import omitlab.delay as dmod
    monkeypatch.setattr(dmod, "_RICHARDSON_RTOL", 0.0)
    cfg = default_config()
    sc = replace(cfg, detuning_mode=SelfConsistent(2.0 * cfg.omega_m))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # bistable points
        m = sweep_2d(sc, ("P", np.linspace(1e-4, 6e-3, 4)), ("L", np.linspace(0, 200, 4)),
                     observable="tau_g", delta=1.1 * cfg.omega_m, branch=1, method="fd")
    names = flag_names(m.flags)
    assert set(names.ravel()) == {"MissingBranch", "StepTooLarge"}
    column = [row.rsplit(",", 1)[1] for row in delay_map_csv(m).splitlines()[1:]]
    assert column == names.ravel().tolist()

    assert kind_codes([np.nan, 1e-9, -1e-9, 0.0]).tolist() == [0, 1, 2, 3]
    assert KIND_NAMES == ("", "slow", "fast", "neutral")
    # the tables hold no order of length: a shorter name may follow a
    # longer one (as a new flag appended after DegenerateDenominator would),
    # and the longer comes out whole; no codes make a column 0 wide
    appended = (*FLAG_NAMES, "Unstable")
    text = name_text(np.uint8([len(FLAG_NAMES), FLAG_NAMES.index("DegenerateDenominator")]),
                     appended)
    assert [c.tobytes().rstrip(b"\0").decode() for c in text] == \
        ["Unstable", "DegenerateDenominator"]
    assert name_text(np.array([], np.uint8), appended).shape == (0, 0)
    for table in (FLAG_NAMES, KIND_NAMES, appended):
        for top in range(len(table)):
            text = name_text(np.arange(top, -1, -1, dtype=np.uint8), table)
            assert [c.tobytes().rstrip(b"\0").decode() for c in text] == \
                list(table[top::-1])

    import omitlab
    assert all(hasattr(omitlab, name) for name in omitlab.__all__)
    assert len(set(omitlab.__all__)) == len(omitlab.__all__)
    assert "eps_out_zero" not in omitlab.__all__ and not hasattr(omitlab, "eps_out_zero")
    assert {"eps_out_plus", "eps_out_minus"}.isdisjoint(omitlab.ProbeResponse._fields)
    assert "da_plus" not in omitlab.SidebandAmplitudes._fields
    # the frozen dataclasses are the records that check their fields, and
    # the two detuning modes, which must not compare equal at equal value;
    # every other record is a named tuple
    classes = {name for name in omitlab.__all__ if isinstance(getattr(omitlab, name), type)
               and not issubclass(getattr(omitlab, name), Exception)}
    frozen = {name for name in classes if is_dataclass(getattr(omitlab, name))}
    assert frozen == {"PhysicalConfig", "FixedEffective", "SelfConsistent",
                      "EffectiveParams", "SpectrumSeries"}
    assert all(issubclass(getattr(omitlab, name), tuple) for name in classes - frozen)
    assert omitlab.FixedEffective(1.0) != omitlab.SelfConsistent(1.0)
