"""Acceptance gate: one test per release criterion, each printing a single
PASS/FAIL line (bypassing capture so the lines always appear in the run log).

Criteria 4 and 6 carry position-tolerance clauses that the physics at the
pinned 1 mm cavity length does not satisfy; they are implemented faithfully
and left failing rather than weakened. See the assertion messages for the
measured values.
"""

import json
import math
import time
from dataclasses import replace

import numpy as np

from omitlab import (EffectiveParams, config_from_json, default_config,
                     effective_params, find_dips, group_delay, oracle_check,
                     probe_response, sideband_amplitudes,
                     sideband_linear_solve, solve_steady, spectrum_sweep)
from omitlab.cli import main

OMEGA_M = default_config().omega_m


def _report(capsys, num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    tail = f"  ({detail})" if detail else ""
    with capsys.disabled():
        print(f"ACCEPTANCE {num} {name}: {status}{tail}")


def test_criterion_1_undriven_lorentzian(capsys):
    t0 = time.perf_counter()
    cfg = replace(default_config(), P=0.0)
    series = spectrum_sweep(cfg)
    dgrid = series.delta_grid
    denom = cfg.kappa + 1j * (cfg.omega_m - dgrid)
    expect = 2.0 * cfg.kappa / denom
    nu_ok = np.allclose(series.nu_p, expect.real, rtol=1e-12, atol=1e-12)
    u_ok = np.allclose(series.u_p, expect.imag, rtol=1e-12, atol=1e-12)

    ss = solve_steady(cfg)
    peak = probe_response(effective_params(cfg, ss), cfg.omega_m).nu_p
    peak_ok = abs(peak - 2.0) <= 1e-12
    elapsed = time.perf_counter() - t0
    ok = nu_ok and u_ok and peak_ok and elapsed < 1.0
    _report(capsys, 1, "undriven response is the cavity Lorentzian", ok,
            f"peak nu_p = {peak:.15f}, {elapsed:.2f}s")
    assert nu_ok and u_ok, "undriven spectrum deviates from the Lorentzian"
    assert peak_ok, f"peak nu_p = {peak!r} is not 2 within 1e-12"
    assert elapsed < 1.0, f"took {elapsed:.2f}s"


def test_criterion_2_closed_form_vs_linear_solve(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(50):
        G1 = 10.0 ** rng.uniform(-3, math.log10(0.3)) * OMEGA_M
        G2 = 10.0 ** rng.uniform(-3, math.log10(0.3)) * OMEGA_M
        delta = rng.uniform(0.0, 2.0) * OMEGA_M
        ep = EffectiveParams(
            kappa=0.1875 * OMEGA_M, delta_prime=OMEGA_M, G1=G1, G2=G2,
            omega_phi1=1.1 * OMEGA_M, omega_phi2=0.9 * OMEGA_M,
            gamma1=OMEGA_M / 1.2e5, gamma2=OMEGA_M / 1.2e5, omega_m=OMEGA_M)
        # the steady state eps_c/(kappa + i Delta') of some real drive eps_c
        a0 = 1e3 * OMEGA_M / (ep.kappa + 1j * ep.delta_prime)
        cf = sideband_amplitudes(ep, delta)
        ls = sideband_linear_solve(ep, a0, delta)
        worst = max(worst,
                    abs(cf.a_plus - ls.a_plus) / abs(ls.a_plus),
                    abs(cf.a_minus - ls.a_minus) / max(abs(ls.a_minus), 1e-300))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 1.0
    _report(capsys, 2, "closed form equals the raw sideband system", ok,
            f"worst rel dev {worst:.2e} over 50 points, {elapsed:.2f}s")
    assert worst <= 1e-10, f"worst relative deviation {worst:.3e}"
    assert elapsed < 1.0, f"took {elapsed:.2f}s"


def test_criterion_3_time_domain_oracle(capsys):
    t0 = time.perf_counter()
    cfg = default_config()
    details = []
    ok = True
    for x in (0.9, 1.0, 1.1):
        rep = oracle_check(replace(cfg, Q1=50.0, Q2=50.0), x * OMEGA_M)
        details.append(f"{x}: a+ {rep.a_plus_rel_err:.1e} "
                       f"lin {rep.linearity_rel_change:.1e}")
        ok = ok and rep.a_plus_rel_err <= 1e-3 \
            and rep.linearity_rel_change <= 1e-3
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 60.0
    _report(capsys, 3, "integrated dynamics reproduce the closed form", ok,
            "; ".join(details) + f", {elapsed:.1f}s")
    assert ok, "; ".join(details)
    assert elapsed < 60.0, f"took {elapsed:.1f}s"


def test_criterion_4_window_count_and_positions(capsys):
    t0 = time.perf_counter()
    cfg = default_config()  # 1 mm cavity, 2 mW
    deg = replace(cfg, omega_phi1=cfg.omega_m, omega_phi2=cfg.omega_m)
    rep_deg = find_dips(spectrum_sweep(deg))
    rep_split = find_dips(spectrum_sweep(cfg))
    count_ok = rep_deg.count == 1 and rep_split.count == 2

    off2 = abs(rep_split.positions[0] - cfg.omega_phi2) / cfg.omega_m
    off1 = abs(rep_split.positions[1] - cfg.omega_phi1) / cfg.omega_m
    pos_ok = count_ok and off1 <= 1e-3 and off2 <= 1e-3
    elapsed = time.perf_counter() - t0
    ok = count_ok and pos_ok and elapsed < 5.0
    _report(capsys, 4, "window count and dip positions", ok,
            f"counts {rep_deg.count}/{rep_split.count}, offsets "
            f"{off2:.2e}, {off1:.2e} omega_m, {elapsed:.2f}s")
    assert count_ok, (rep_deg.count, rep_split.count)
    assert pos_ok, (
        f"dips sit {off2:.3e} and {off1:.3e} omega_m from the mirror "
        f"frequencies, beyond the 1e-3 tolerance: the optical spring at "
        f"this drive displaces them by G_j^2-order terms")
    assert elapsed < 5.0, f"took {elapsed:.2f}s"


def test_criterion_5_window_width_grows_with_power(capsys):
    t0 = time.perf_counter()
    ok = True
    details = []
    for L in (50, 100, 150):
        widths = []
        for P in (1e-3, 2e-3, 5e-3):
            cfg = replace(default_config(), P=P, L=L)
            rep = find_dips(spectrum_sweep(cfg))
            ok = ok and rep.count == 2
            widths.append(rep.widths)
        for k in (0, 1):
            seq = [w[k] for w in widths]
            ok = ok and seq[0] <= seq[1] <= seq[2]
        details.append(f"L={L} ok")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 10.0
    _report(capsys, 5, "window width nondecreasing in drive power", ok,
            f"{elapsed:.2f}s")
    assert ok
    assert elapsed < 10.0, f"took {elapsed:.2f}s"


def test_criterion_6_damping_and_linewidth_response(capsys):
    t0 = time.perf_counter()
    cfg = default_config()
    base = find_dips(spectrum_sweep(cfg))
    lowq = find_dips(spectrum_sweep(replace(cfg, Q1=cfg.Q1 / 10.0)))
    q_ok = base.count == 2 and lowq.count == 2
    if q_ok:
        # dip order is ascending: index 1 is the omega_phi1 window
        raised = lowq.depths[1] > base.depths[1]
        other_change = abs(lowq.depths[0] - base.depths[0]) / abs(base.depths[0])
        q_ok = raised and other_change < 0.05

    positions = []
    for f_mhz in (5.0, 15.0, 25.0, 35.0):
        c = replace(cfg, kappa=2 * math.pi * f_mhz * 1e6)
        rep = find_dips(spectrum_sweep(c))
        q_ok = q_ok and rep.count == 2
        positions.append(rep.positions)
    positions = np.array(positions)
    spread = positions.max(axis=0) - positions.min(axis=0)
    kappa_ok = bool(np.all(spread <= 1e-3 * cfg.omega_m))
    elapsed = time.perf_counter() - t0
    ok = q_ok and kappa_ok and elapsed < 10.0
    _report(capsys, 6, "damping raises its window, positions stable in kappa", ok,
            f"kappa spread {spread[0] / cfg.omega_m:.2e}, "
            f"{spread[1] / cfg.omega_m:.2e} omega_m, {elapsed:.2f}s")
    assert q_ok, "damping clause failed"
    assert kappa_ok, (
        f"dip positions move {spread / cfg.omega_m} omega_m across the "
        f"kappa list, beyond 1e-3: the kappa-dependent optical spring "
        f"shifts the windows at this drive")
    assert elapsed < 10.0, f"took {elapsed:.2f}s"


def test_criterion_7_group_delay_methods_agree(capsys):
    t0 = time.perf_counter()
    cfg = replace(default_config(), P=0.0)
    ss = solve_steady(cfg)
    ep = effective_params(cfg, ss)
    bare_ok = True
    for method in ("analytic", "fd"):
        res = group_delay(ep, ss.a0, cfg.omega_m, method=method)
        bare_ok = bare_ok and abs(res.tau_g - 2.0 / cfg.kappa) <= \
            1e-10 * (2.0 / cfg.kappa)

    drv = default_config()
    ss2 = solve_steady(drv)
    ep2 = effective_params(drv, ss2)
    grid = np.linspace(0.5, 1.5, 2001) * OMEGA_M
    worst = 0.0
    for delta in grid:
        a = group_delay(ep2, ss2.a0, float(delta), method="analytic").tau_g
        f = group_delay(ep2, ss2.a0, float(delta), method="fd").tau_g
        worst = max(worst, abs(f - a) / max(abs(a), 1e-300))
    fd_ok = worst <= 1e-6
    elapsed = time.perf_counter() - t0
    ok = bare_ok and fd_ok and elapsed < 5.0
    _report(capsys, 7, "group delay: 2/kappa limit and method agreement", ok,
            f"worst rel dev {worst:.2e} over 2001 points, {elapsed:.2f}s")
    assert bare_ok, "bare-cavity delay is not 2/kappa to 1e-10"
    assert fd_ok, f"methods disagree by {worst:.3e}"
    assert elapsed < 5.0, f"took {elapsed:.2f}s"


def test_criterion_8_fast_and_slow_regions(tmp_path, capsys):
    t0 = time.perf_counter()
    out = tmp_path / "dm.csv"
    rc = main(["delay-map", "--out", str(out)])
    assert rc == 0
    with open(out) as fh:
        lines = fh.read().splitlines()
    assert len(lines) == 1 + 40 * 40
    tau = np.array([float(ln.split(",")[2]) for ln in lines[1:]]).reshape(40, 40)

    has_both = bool(np.any(tau > 0) and np.any(tau < 0))
    row_cross = any(np.any(np.sign(r[np.isfinite(r)])[:-1] *
                           np.sign(r[np.isfinite(r)])[1:] < 0) for r in tau)
    col_cross = any(np.any(np.sign(c[np.isfinite(c)])[:-1] *
                           np.sign(c[np.isfinite(c)])[1:] < 0) for c in tau.T)
    with open(tmp_path / "dm.manifest.json") as fh:
        manifest = json.load(fh)
    max_rec = manifest["stats"]["max_abs_tau_g_us"]
    max_ok = max_rec is not None and \
        abs(max_rec - np.nanmax(np.abs(tau))) <= 1e-9 * abs(max_rec)
    elapsed = time.perf_counter() - t0
    ok = has_both and row_cross and col_cross and max_ok and elapsed < 60.0
    _report(capsys, 8, "delay map shows slow and fast light with crossings", ok,
            f"n_fast {int(np.sum(tau < 0))}, max |tau_g| {max_rec:.1f} us, "
            f"{elapsed:.1f}s")
    assert has_both, "delay map does not contain both signs"
    assert row_cross and col_cross, "no sign crossing along a row or column"
    assert max_ok, "manifest does not record max |tau_g|"
    assert elapsed < 60.0, f"took {elapsed:.1f}s"


def test_criterion_9_byte_identical_reruns(tmp_path, capsys):
    t0 = time.perf_counter()
    cfgfile = tmp_path / "c.json"
    assert main(["defaults", "--out", str(cfgfile)]) == 0
    pairs = []
    for tag in ("a", "b"):
        s = tmp_path / f"spec_{tag}.csv"
        d = tmp_path / f"dm_{tag}.csv"
        assert main(["spectrum", "--config", str(cfgfile), "--out", str(s)]) == 0
        assert main(["delay-map", "--config", str(cfgfile),
                     "--p-points", "8", "--l-points", "8",
                     "--out", str(d)]) == 0
        pairs.append((s.read_bytes(), d.read_bytes()))
    same = pairs[0][0] == pairs[1][0] and pairs[0][1] == pairs[1][1]
    elapsed = time.perf_counter() - t0
    _report(capsys, 9, "reruns are byte-identical", same, f"{elapsed:.2f}s")
    assert same, "CSV outputs differ between identical runs"


def test_config_round_trip_through_cli(tmp_path):
    """Supporting check for criterion 9: the defaults emitted by the CLI
    reload to the identical configuration object."""
    cfgfile = tmp_path / "c.json"
    assert main(["defaults", "--out", str(cfgfile)]) == 0
    with open(cfgfile) as fh:
        assert config_from_json(fh.read()) == default_config()
