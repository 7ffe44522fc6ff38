"""Time-domain integration, lock-in demodulation and the end-to-end oracle."""

import math
from dataclasses import replace

import numpy as np
import pytest

from omitlab import (BlowUp, ConfigError, IllConditionedFit, OdeSeries,
                     StepFailure, default_config, demodulate, derive_constants,
                     integrate, oracle_check, solve_steady)


def _synthetic_series(delta=1e6, eps_p=7.0, a0=2.0 - 1.5j,
                      ap=0.3 + 0.1j, am=-0.05 + 0.02j, n=4096, T=1e-3):
    t = np.linspace(0.0, T, n)
    a = (a0 + ap * eps_p * np.exp(-1j * delta * t)
         + am * np.conj(eps_p) * np.exp(+1j * delta * t))
    z = np.zeros_like(t)
    return OdeSeries(t=t, a=a, phi1=z, phi2=z, lz1=z, lz2=z,
                     delta=delta, eps_p=eps_p, duration=T)


def test_demodulation_recovers_exact_components():
    s = _synthetic_series()
    rep = demodulate(s, s.delta, s.eps_p)
    assert rep.a0_est == pytest.approx(2.0 - 1.5j, rel=1e-12)
    assert rep.a_plus_est == pytest.approx(0.3 + 0.1j, rel=1e-12)
    assert rep.a_minus_est == pytest.approx(-0.05 + 0.02j, rel=1e-12)
    assert rep.fit_residual < 1e-12
    # the fit window is the final half
    assert rep.window[0] == pytest.approx(0.5e-3, rel=1e-3)


def test_demodulation_tolerates_noise():
    s = _synthetic_series()
    rng = np.random.default_rng(7)
    noisy = s.a + 1e-6 * (rng.standard_normal(s.a.size)
                          + 1j * rng.standard_normal(s.a.size))
    s = OdeSeries(t=s.t, a=noisy, phi1=s.phi1, phi2=s.phi2, lz1=s.lz1,
                  lz2=s.lz2, delta=s.delta, eps_p=s.eps_p, duration=s.duration)
    rep = demodulate(s, s.delta, s.eps_p)
    assert rep.a0_est == pytest.approx(2.0 - 1.5j, rel=1e-6)
    assert rep.a_plus_est == pytest.approx(0.3 + 0.1j, rel=1e-5)


def test_demodulation_rejects_short_window():
    # fewer than one beat period across the fit window
    s = _synthetic_series(delta=1e3)
    with pytest.raises(IllConditionedFit):
        demodulate(s, s.delta, s.eps_p)


def test_demodulation_rejects_zero_probe():
    s = _synthetic_series()
    with pytest.raises(IllConditionedFit):
        demodulate(s, s.delta, 0.0)


def test_integrate_validates_inputs(cfg, dc):
    with pytest.raises(ConfigError):
        integrate(cfg, dc, cfg.omega_m, tol=1e-3)
    with pytest.raises(ConfigError):
        integrate(cfg, dc, cfg.omega_m, tol=1e-14)
    relaxed = replace(cfg, Q1=50.0, Q2=50.0)
    rdc = derive_constants(relaxed)
    gamma_min = min(rdc.gamma1, rdc.gamma2)
    with pytest.raises(ConfigError, match="damping"):
        integrate(relaxed, rdc, cfg.omega_m, duration=10.0 / gamma_min)
    with pytest.raises(ConfigError, match="y0"):
        integrate(relaxed, rdc, cfg.omega_m, y0=np.zeros(3))
    with pytest.raises(ConfigError, match="eps_p_scale"):
        integrate(relaxed, rdc, cfg.omega_m, eps_p_scale=())


def test_probe_off_state_stays_at_steady_state():
    cfg = replace(default_config(), Q1=50.0, Q2=50.0, P_p=0.0)
    dc = derive_constants(cfg)
    ss = solve_steady(cfg, dc=dc)
    series = integrate(cfg, dc, cfg.omega_m)
    assert series.eps_p == 0.0
    dev = np.max(np.abs(series.a - ss.a0)) / abs(ss.a0)
    assert dev < 1e-8


def test_cavity_relaxation_matches_exact_solution():
    """With L = 0 the cavity decouples and relaxes analytically; the
    integrator must track the exact exponential."""
    cfg = replace(default_config(), L=0, Q1=50.0, Q2=50.0, P_p=0.0)
    dc = derive_constants(cfg)
    ss = solve_steady(cfg, dc=dc)
    gamma_min = min(dc.gamma1, dc.gamma2)
    duration = 20.0 / gamma_min
    y0 = np.array([0.0, 0.0, 0.0, 0.0, 1.5 * ss.a0], dtype=complex)
    series = integrate(cfg, dc, 0.9 * cfg.omega_m, duration=duration, y0=y0)
    # delta0 equals delta_prime here (no static displacement at L = 0)
    lam = -(1j * ss.delta_prime + cfg.kappa)
    expect = ss.a0 + (y0[4] - ss.a0) * np.exp(lam * series.t)
    np.testing.assert_allclose(series.a, expect, rtol=0,
                               atol=1e-7 * abs(ss.a0))


def test_integrator_failure_is_reported(cfg, dc, monkeypatch):
    import omitlab.oracle as om

    class Fake:
        success = False
        message = "step size underflow"

    monkeypatch.setattr(om, "solve_ivp", lambda *a, **k: Fake())
    relaxed = replace(cfg, Q1=50.0, Q2=50.0)
    rdc = derive_constants(relaxed)
    with pytest.raises(StepFailure):
        om.integrate(relaxed, rdc, cfg.omega_m)


def test_nonfinite_state_is_reported(cfg, monkeypatch):
    import omitlab.oracle as om

    class Fake:
        success = True
        message = ""
        y = np.full((5, 8), np.inf, dtype=complex)
        t = np.linspace(0, 1, 8)

    monkeypatch.setattr(om, "solve_ivp", lambda *a, **k: Fake())
    relaxed = replace(cfg, Q1=50.0, Q2=50.0)
    rdc = derive_constants(relaxed)
    with pytest.raises(BlowUp):
        om.integrate(relaxed, rdc, cfg.omega_m)


def test_stacked_run_matches_separate_runs(monkeypatch):
    """The two probe amplitudes integrated as one stacked state give, copy by
    copy, the trajectories of two separate runs, for about half their
    right-hand-side evaluations; oracle_check integrates once, stacked."""
    from scipy.integrate import solve_ivp

    import omitlab.oracle as om

    calls = []

    def counting(*args, **kwargs):
        calls.append(solve_ivp(*args, **kwargs))
        return calls[-1]

    monkeypatch.setattr(om, "solve_ivp", counting)
    cfg = replace(default_config(), Q1=50.0, Q2=50.0)
    dc = derive_constants(cfg)
    delta = 0.93 * cfg.omega_m
    stacked = integrate(cfg, dc, delta, eps_p_scale=(1.0, 0.5))
    singles = [integrate(cfg, dc, delta, eps_p_scale=s) for s in (1.0, 0.5)]
    assert isinstance(stacked, tuple) and len(stacked) == 2
    a0 = abs(solve_steady(cfg, dc=dc).a0)
    for copy, single in zip(stacked, singles):
        assert copy.eps_p == single.eps_p
        np.testing.assert_array_equal(copy.t, single.t)
        window = single.t >= single.t[-1] / 2
        assert np.max(np.abs(copy.a[window] - single.a[window])) < 1e-8 * a0
    nfev = [sol.nfev for sol in calls]
    assert stacked[0].rhs_evals == stacked[1].rhs_evals == nfev[0]
    assert nfev[0] <= 0.6 * (nfev[1] + nfev[2])

    calls.clear()
    rep = oracle_check(cfg, delta)
    assert len(calls) == 1
    assert rep.rhs_evals == nfev[0]


@pytest.fixture(scope="module")
def oracle_rep(cfg):
    # a weak probe keeps the physical O(eps_p^2) shift of the mean field
    # well under the a0 threshold at this off-window detuning
    return oracle_check(cfg, 1.05 * cfg.omega_m, p_p_override=2e-11,
                        tol=1e-9)


def test_oracle_passes_at_relaxed_damping(oracle_rep):
    rep = oracle_rep
    assert rep.passed
    assert rep.a0_rel_err < 1e-6
    assert rep.a_plus_rel_err < 1e-3
    assert rep.a_minus_rel_err < 1e-2
    assert rep.linearity_rel_change < 1e-3
    d = rep.as_dict()
    assert d["pass"] is True
    assert set(d) == {"delta", "q_override", "a0_rel_err", "a_plus_rel_err",
                      "a_minus_rel_err", "linearity_rel_change",
                      "fit_residual", "pass"}


def test_oracle_estimates_carry_closed_form(oracle_rep, cfg):
    # the report exposes both sides of the comparison for inspection
    rel = abs(oracle_rep.a_plus_est - oracle_rep.a_plus_closed) / \
        abs(oracle_rep.a_plus_closed)
    assert rel == pytest.approx(oracle_rep.a_plus_rel_err, rel=1e-12)
    assert oracle_rep.q_override == 50.0


def test_oracle_detects_nonlinearity(cfg):
    """A probe 1e4 times stronger drives the system out of the linear-response
    regime; the linearity cross-check must catch it."""
    rep = oracle_check(cfg, 1.05 * cfg.omega_m, p_p_override=2e-5, tol=1e-9)
    assert rep.linearity_rel_change > 1e-3
    assert not rep.passed


def test_oracle_undriven_cavity():
    # L = 0: no mechanics in the loop, the checks reduce to the bare cavity
    cfg = replace(default_config(), L=0)
    rep = oracle_check(cfg, 0.95 * cfg.omega_m, tol=1e-9)
    assert rep.passed
    expect = 1.0 / (cfg.kappa + 1j * (cfg.omega_m - 0.95 * cfg.omega_m))
    assert rep.a_plus_closed == pytest.approx(expect, rel=1e-12)
