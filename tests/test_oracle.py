"""Time-domain integration, lock-in demodulation and the end-to-end oracle."""

import math
import re
from dataclasses import replace

import numpy as np
import pytest

import omitlab.oracle as om
from omitlab import (BlowUp, ConfigError, IllConditionedFit, OdeSeries,
                     SelfConsistent, StepFailure, Unstable, default_config,
                     demodulate, derive_constants, effective_params, integrate,
                     oracle_check, sideband_amplitudes, solve_steady)
from omitlab.dop853 import TOO_SMALL_STEP
from omitlab.response import _drift_matrix


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


def test_demodulation_fits_a_single_period_whole():
    # one closed period of a periodic orbit has no transient to discard
    s = _synthetic_series(T=2 * math.pi / 1e6, n=1025)
    rep = demodulate(s, s.delta, s.eps_p)
    assert rep.window == (0.0, s.t[-1])
    assert rep.a0_est == pytest.approx(2.0 - 1.5j, rel=1e-12)
    assert rep.a_plus_est == pytest.approx(0.3 + 0.1j, rel=1e-12)
    assert rep.a_minus_est == pytest.approx(-0.05 + 0.02j, rel=1e-12)


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


def _lstsq_fit(series, delta, eps_p, window):
    """The least-squares fit over the window by np.linalg.lstsq on the
    stacked basis: (a0, a_plus, a_minus, residual)."""
    sel = series.t >= window[0]
    t, a = series.t[sel], series.a[sel]
    M = np.column_stack([np.ones_like(t, dtype=complex),
                         eps_p * np.exp(-1j * delta * t),
                         np.conj(eps_p) * np.exp(+1j * delta * t)])
    coef = np.linalg.lstsq(M, a, rcond=None)[0]
    return (*coef, np.linalg.norm(a - M @ coef) / np.linalg.norm(a))


def _oracle_series(cfg, x):
    """The uniformly sampled period of the periodic orbit that oracle_check
    demodulates at x omega_m."""
    c, delta = replace(cfg, Q1=50.0, Q2=50.0), x * cfg.omega_m
    orbit = om._periodic_orbit(c, delta, 1e-10)
    t = np.linspace(0.0, orbit.period, om._PERIOD_SAMPLES + 1)
    sol = orbit.run(orbit.states, orbit.eps_ps, orbit.period, t_eval=t)
    return om._series(sol, delta, orbit.eps_ps, orbit.period)[0]


@pytest.mark.parametrize("which", ["harmonics", "oracle"])
def test_demodulation_matches_lstsq(cfg, which):
    """The normal equations give the coefficients and the residual of
    np.linalg.lstsq within 1e-12 relative: on a signal with 2nd and 3rd
    harmonics outside the basis, and on a period of the oracle's orbit."""
    if which == "harmonics":
        s = _synthetic_series(T=1.37e-3)
        w = np.exp(-1j * s.delta * s.t)
        s = replace(s, a=s.a + (0.2 - 0.1j) * w ** 2 + 0.05j * np.conj(w) ** 3)
    else:
        s = _oracle_series(cfg, 0.93)
    rep = demodulate(s, s.delta, s.eps_p)
    ref = _lstsq_fit(s, s.delta, s.eps_p, rep.window)
    est = (rep.a0_est, rep.a_plus_est, rep.a_minus_est, rep.fit_residual)
    assert est == pytest.approx(ref, rel=1e-12)


def test_demodulation_rejects_short_window():
    # fewer than one beat period across the fit window
    s = _synthetic_series(delta=1e3)
    with pytest.raises(IllConditionedFit, match="collinear"):
        demodulate(s, s.delta, s.eps_p)


def test_demodulation_rejects_zero_probe():
    s = _synthetic_series()
    with pytest.raises(IllConditionedFit, match="eps_p = 0"):
        demodulate(s, s.delta, 0.0)


def test_oracle_without_probe_refuses_before_integrating(monkeypatch):
    """With P_p = 0 there are no sidebands to find: the oracle says so,
    naming the probe, before its first integration."""
    calls = []
    solve_ivp = om.solve_ivp
    monkeypatch.setattr(om, "solve_ivp",
                        lambda *a, **k: calls.append(a) or solve_ivp(*a, **k))
    cfg = replace(default_config(), P_p=0.0)
    with pytest.raises(IllConditionedFit, match="probe.*P_p = 0"):
        oracle_check(cfg, cfg.omega_m, tol=1e-9)
    assert calls == []


def test_integrate_validates_inputs(cfg):
    with pytest.raises(ConfigError):
        integrate(cfg, cfg.omega_m, tol=1e-3)
    with pytest.raises(ConfigError):
        integrate(cfg, cfg.omega_m, tol=1e-14)
    relaxed = replace(cfg, Q1=50.0, Q2=50.0)
    rdc = derive_constants(relaxed)
    gamma_min = min(rdc.gamma1, rdc.gamma2)
    with pytest.raises(ConfigError, match="damping"):
        integrate(relaxed, cfg.omega_m, duration=10.0 / gamma_min)
    with pytest.raises(ConfigError, match="y0"):
        integrate(relaxed, cfg.omega_m, y0=np.zeros(3))
    with pytest.raises(ConfigError, match="eps_p_scale"):
        integrate(relaxed, cfg.omega_m, eps_p_scale=())


def test_probe_off_state_stays_at_steady_state():
    cfg = replace(default_config(), Q1=50.0, Q2=50.0, P_p=0.0)
    ss = solve_steady(cfg)
    series, = integrate(cfg, cfg.omega_m)
    assert series.eps_p == 0.0
    dev = np.max(np.abs(series.a - ss.a0)) / abs(ss.a0)
    assert dev < 1e-8


def test_cavity_relaxation_matches_exact_solution():
    """With L = 0 the cavity decouples and relaxes analytically; the
    integrator must track the exact exponential."""
    cfg = replace(default_config(), L=0, Q1=50.0, Q2=50.0, P_p=0.0)
    dc = derive_constants(cfg)
    ss = solve_steady(cfg)
    gamma_min = min(dc.gamma1, dc.gamma2)
    duration = 20.0 / gamma_min
    y0 = np.array([0.0, 0.0, 0.0, 0.0, 1.5 * ss.a0], dtype=complex)
    series, = integrate(cfg, 0.9 * cfg.omega_m, duration=duration, y0=y0)
    # delta0 equals delta_prime here (no static displacement at L = 0)
    lam = -(1j * ss.delta_prime + cfg.kappa)
    expect = ss.a0 + (y0[4] - ss.a0) * np.exp(lam * series.t)
    np.testing.assert_allclose(series.a, expect, rtol=0,
                               atol=1e-7 * abs(ss.a0))


def test_integrator_failure_is_reported(cfg, monkeypatch):
    class Fake:
        success = False
        message = "step size underflow"

    monkeypatch.setattr(om, "solve_ivp", lambda *a, **k: Fake())
    for route in (integrate, oracle_check):
        with pytest.raises(StepFailure):
            route(replace(cfg, Q1=50.0, Q2=50.0), cfg.omega_m)


def test_nonfinite_state_is_reported(cfg, monkeypatch):
    class Fake:
        success = True
        message = ""
        y = np.full((5, 8), np.inf, dtype=complex)
        t = np.linspace(0, 1, 8)

    monkeypatch.setattr(om, "solve_ivp", lambda *a, **k: Fake())
    for route in (integrate, oracle_check):
        with pytest.raises(BlowUp):
            route(replace(cfg, Q1=50.0, Q2=50.0), cfg.omega_m)


def test_stacked_run_matches_separate_runs(monkeypatch):
    """The two probe amplitudes integrated as one stacked state give, copy by
    copy, the trajectories of two separate runs, for about half their
    right-hand-side evaluations; oracle_check's rhs_evals counts every call
    of all its integrations."""
    solve_ivp = om.solve_ivp
    calls = []

    def counting(*args, **kwargs):
        calls.append(solve_ivp(*args, **kwargs))
        return calls[-1]

    monkeypatch.setattr(om, "solve_ivp", counting)
    cfg = replace(default_config(), Q1=50.0, Q2=50.0)
    delta = 0.93 * cfg.omega_m
    stacked = integrate(cfg, delta, eps_p_scale=(1.0, 0.5))
    singles = [integrate(cfg, delta, eps_p_scale=(s,))[0] for s in (1.0, 0.5)]
    assert isinstance(stacked, tuple) and len(stacked) == 2
    a0 = abs(solve_steady(cfg).a0)
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
    assert rep.rhs_evals == sum(sol.nfev for sol in calls) < 2000


def _oracle_runs(cfg, delta, monkeypatch):
    """(fun, t_span, y0, options) of every integration of one oracle_check:
    the shooting runs on the stacked flow, then the sampled period."""
    runs = []
    solve_ivp = om.solve_ivp

    def recording(fun, t_span, y0, **options):
        runs.append((fun, t_span, y0, options))
        return solve_ivp(fun, t_span, y0, **options)

    monkeypatch.setattr(om, "solve_ivp", recording)
    oracle_check(cfg, delta)
    monkeypatch.undo()
    return runs


def test_stepper_matches_scipy_dop853(cfg, monkeypatch):
    """On the oracle's stacked flow the package's DOP853 takes the steps of
    scipy.integrate.solve_ivp(method="DOP853"): the same right-hand-side
    count and times, and end states and t_eval samples within 1e-12 of each
    component's scale; also from an oversized first step, which the step
    controller must reject."""
    from scipy.integrate import solve_ivp as scipy_solve_ivp

    runs = _oracle_runs(cfg, 0.93 * cfg.omega_m, monkeypatch)
    assert runs[-1][3]["t_eval"] is not None
    fun, t_span, y0, options = runs[0]
    oversized = (fun, t_span, y0, {**options, "first_step": t_span[1]})
    for fun, t_span, y0, options in runs + [oversized]:
        ours = om.solve_ivp(fun, t_span, y0, **options)
        ref = scipy_solve_ivp(fun, t_span, y0, method="DOP853", **options)
        assert ours.success and ref.success
        assert ours.nfev == ref.nfev
        np.testing.assert_array_equal(ours.t, ref.t)
        scale = np.max(np.abs(ref.y), axis=1, keepdims=True)
        assert np.all(np.abs(ours.y - ref.y) <= 1e-12 * scale)
    # without t_eval a step costs 12 calls, plus 1 for the start: more
    # attempts than accepted steps means a rejection
    assert (ours.nfev - 1) // 12 > len(ours.t) - 1


def test_too_small_step_is_a_step_failure(cfg, monkeypatch):
    """y' = y^2 from y = 1 blows up at t = 1: both steppers stop where the
    step falls below ten units in the last place of t, after the same calls,
    and the oracle's integration reports that as StepFailure."""
    from scipy.integrate import solve_ivp as scipy_solve_ivp

    def blowup(t, y):
        return y * y

    options = {"rtol": 1e-10, "atol": 1e-10, "first_step": 1e-3}
    y0 = np.ones(1, dtype=complex)
    ours = om.solve_ivp(blowup, (0.0, 2.0), y0, **options)
    ref = scipy_solve_ivp(blowup, (0.0, 2.0), y0, method="DOP853", **options)
    assert not ours.success and not ref.success
    assert ours.message == ref.message == TOO_SMALL_STEP
    assert ours.nfev == ref.nfev
    assert ours.t[-1] == ref.t[-1] == pytest.approx(1.0, rel=1e-9)

    solve_ivp = om.solve_ivp
    monkeypatch.setattr(om, "solve_ivp", lambda fun, t_span, y0, **o: solve_ivp(
        blowup, (0.0, 2.0), np.ones_like(y0), **{**o, "first_step": 1e-3}))
    with pytest.raises(StepFailure, match="spacing between numbers"):
        integrate(replace(cfg, Q1=50.0, Q2=50.0), cfg.omega_m)


@pytest.fixture(scope="module")
def oracle_rep(cfg):
    # a weak probe keeps the physical O(eps_p^2) shift of the mean field
    # well under the a0 threshold at this off-window detuning
    return oracle_check(replace(cfg, P_p=2e-11), 1.05 * cfg.omega_m, tol=1e-9)


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
    rep = oracle_check(replace(cfg, P_p=2e-5), 1.05 * cfg.omega_m, tol=1e-9)
    assert rep.linearity_rel_change > 1e-3
    assert not rep.passed


def test_oracle_undriven_cavity():
    # L = 0: no mechanics in the loop, the checks reduce to the bare cavity
    cfg = replace(default_config(), L=0)
    rep = oracle_check(cfg, 0.95 * cfg.omega_m, tol=1e-9)
    assert rep.passed
    expect = 1.0 / (cfg.kappa + 1j * (cfg.omega_m - 0.95 * cfg.omega_m))
    assert rep.a_plus_closed == pytest.approx(expect, rel=1e-12)


def _growth_rate(c):
    """Largest Re lambda of the drift matrix at c's steady state."""
    ss = solve_steady(c)
    return np.linalg.eigvals(_drift_matrix(effective_params(c, ss), ss.a0)).real.max()


@pytest.mark.parametrize("x", [0.93, 1.1])
def test_periodic_orbit_matches_the_long_run(cfg, x):
    """Integrating 40 damping times from the steady state and demodulating
    the final half gives the verdict and the a0 error of the shooting route."""
    rep = oracle_check(cfg, x * cfg.omega_m)
    c = replace(cfg, Q1=50.0, Q2=50.0)
    delta = x * cfg.omega_m
    series, half = integrate(c, delta, eps_p_scale=(1.0, 0.5))
    fit = demodulate(series, delta, series.eps_p)
    fit_half = demodulate(half, delta, half.eps_p)
    ss = solve_steady(c)
    sb = sideband_amplitudes(effective_params(c, ss), delta, a0=ss.a0)
    errs = {"a0_rel_err": om._rel(fit.a0_est, ss.a0),
            "a_plus_rel_err": om._rel(fit.a_plus_est, sb.a_plus),
            "a_minus_rel_err": om._rel(fit.a_minus_est, sb.a_minus),
            "linearity_rel_change": om._rel(fit_half.a_plus_est, fit.a_plus_est)}
    assert rep.passed == all(errs[f] < thr for _, f, thr in om._THRESHOLDS)
    assert rep.a0_rel_err == pytest.approx(errs["a0_rel_err"], rel=1e-3)


def test_periodic_orbit_closes_over_twenty_periods(cfg):
    """The converged states return to themselves within tol after 20 more
    periods, where the steady state they started from does not."""
    c = replace(cfg, Q1=50.0, Q2=50.0)
    tol = 1e-10
    orbit = om._periodic_orbit(c, 0.93 * cfg.omega_m, tol)
    ss = solve_steady(c)
    y_ss = np.array([ss.phi10, 0.0, ss.phi20, 0.0, ss.a0])
    atol = tol * np.maximum(np.abs(orbit.states), max(abs(ss.a0), 1.0))
    for start, closes in ((orbit.states, True), (np.tile(y_ss, (2, 1)), False)):
        ends = orbit.run(start, orbit.eps_ps, 20 * orbit.period).y[:, -1]
        assert np.all(np.abs(ends.reshape(2, 5) - start) <= atol) == closes


def test_floquet_multiplier_matches_the_drift_matrix(oracle_rep, cfg):
    """The largest |eigenvalue| of the finite-difference monodromy matrix is
    e^{T max Re lambda}, lambda the eigenvalues of the drift matrix."""
    growth = _growth_rate(replace(cfg, P_p=2e-11, Q1=50.0, Q2=50.0))
    period = 2 * math.pi / oracle_rep.delta
    assert oracle_rep.floquet_max == pytest.approx(math.exp(growth * period), rel=1e-4)
    assert 1 <= oracle_rep.newton_iterations <= om._MAX_NEWTON


def test_unstable_steady_state_is_refused(cfg):
    """Branch 0 of the self-consistent map grows at 0.45 omega_m at 4 mW,
    L = 200 and Delta_0 = 1.2 omega_m: the oracle names its multiplier."""
    c = replace(cfg, P=4e-3, L=200, detuning_mode=SelfConsistent(1.2 * cfg.omega_m))
    growth = _growth_rate(c)
    assert growth > 0
    with pytest.raises(Unstable, match="Floquet multiplier") as err:
        oracle_check(c, cfg.omega_m, q_override=1.2e5)
    mu = float(re.search(r"\|mu\| = (\S+)", str(err.value)).group(1))
    assert mu == pytest.approx(math.exp(growth * 2 * math.pi / cfg.omega_m), rel=1e-2)


def test_unconverged_orbit_is_reported(cfg, monkeypatch):
    monkeypatch.setattr(om, "_MAX_NEWTON", 1)
    with pytest.raises(StepFailure, match="Newton steps.*times atol"):
        oracle_check(cfg, 0.93 * cfg.omega_m)
