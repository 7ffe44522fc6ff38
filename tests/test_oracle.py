"""Time-domain integration, demodulation by quadrature and the end-to-end
oracle."""

import math
import re
from dataclasses import replace

import numpy as np
import pytest

import omitlab.oracle as om
from omitlab import (BlowUp, ConfigError, IllConditionedFit, SelfConsistent,
                     StepFailure, Unstable, default_config, derive_constants,
                     effective_params, oracle_check, sideband_amplitudes,
                     solve_steady)
from omitlab.dop853 import TOO_SMALL_STEP
from omitlab.response import _drift_matrix


def _synthetic(delta=1e6, eps_p=7.0, a0=2.0 - 1.5j, ap=0.3 + 0.1j,
               am=-0.05 + 0.02j, n=4096):
    """n uniform samples t of one closed period 2 pi/delta (its end left
    out), w = e^{-i delta t} and a = a0 + ap eps_p w + am eps_p w^*."""
    t = np.arange(n) * (2 * math.pi / delta / n)
    w = np.exp(-1j * delta * t)
    return t, w, a0 + ap * eps_p * w + am * eps_p * np.conj(w)


def _quadratures(a, w, a_ss):
    """The means of (a, a w^*, a w, |a - a_ss|^2) over the samples: on a
    closed period, the exact quadratures of a trigonometric polynomial of
    degree below half the sample count."""
    return [np.mean(a), np.mean(a * np.conj(w)), np.mean(a * w),
            np.mean(np.abs(a - a_ss) ** 2)]


def _flow(c, delta):
    """The oracle's flow of c at probe detuning delta, about c's steady
    state."""
    return om._flow(c, delta, solve_steady(c))


def _lstsq_fit(t, a, delta, eps_p):
    """The least-squares fit of the samples a(t) by np.linalg.lstsq on the
    stacked basis {1, eps_p w, eps_p w^*}: (a0, a_plus, a_minus, residual)."""
    w = np.exp(-1j * delta * t)
    M = np.column_stack([np.ones_like(w), eps_p * w, eps_p * np.conj(w)])
    coef = np.linalg.lstsq(M, a, rcond=None)[0]
    return (*coef, np.linalg.norm(a - M @ coef) / np.linalg.norm(a))


def test_demodulation_recovers_exact_components():
    """The quadratures of a field in the basis give its components, and a
    residual at the rounding floor of the power subtraction, whatever the
    steady state the power is taken about."""
    t, w, a = _synthetic()
    for a_ss in (2.0 - 1.5j, 2.1 - 1.4j):
        a0, a_plus, a_minus, resid = om._demodulate(_quadratures(a, w, a_ss), 7.0, a_ss)
        assert a0 == pytest.approx(2.0 - 1.5j, rel=1e-12)
        assert a_plus == pytest.approx(0.3 + 0.1j, rel=1e-12)
        assert a_minus == pytest.approx(-0.05 + 0.02j, rel=1e-12)
        assert resid < 1e-7


def test_demodulation_tolerates_noise():
    """White noise outside the basis moves the components by its projection
    only, and the residual is its rms relative to that of the field."""
    t, w, a = _synthetic()
    rng = np.random.default_rng(7)
    noise = 1e-6 * (rng.standard_normal(a.size) + 1j * rng.standard_normal(a.size))
    a0, a_plus, _, resid = om._demodulate(_quadratures(a + noise, w, 2.0 - 1.5j),
                                          7.0, 2.0 - 1.5j)
    assert a0 == pytest.approx(2.0 - 1.5j, rel=1e-6)
    assert a_plus == pytest.approx(0.3 + 0.1j, rel=1e-5)
    rms = math.sqrt(np.mean(np.abs(noise) ** 2) / np.mean(np.abs(a) ** 2))
    assert resid == pytest.approx(rms, rel=1e-3)


def _oracle_runs(cfg, delta, monkeypatch):
    """The report of one oracle_check and the (fun, t_span, y0, options) of
    each of its integrations: the shooting runs on the stacked flow, then
    the period that carries the quadratures."""
    runs = []
    solve_ivp = om.solve_ivp

    def recording(fun, t_span, y0, **options):
        runs.append((fun, t_span, y0, options))
        return solve_ivp(fun, t_span, y0, **options)

    monkeypatch.setattr(om, "solve_ivp", recording)
    rep = oracle_check(cfg, delta)
    monkeypatch.undo()
    return rep, runs


# largest relative difference, over the band 0.9-1.1 omega_m at Q = 50 and
# Q = 1.2e5, of the oracle's quadrature estimates (a0, a_plus, a_minus, fit
# residual) from a lstsq fit of 4096 samples of the same period: 3.3e-15,
# 1.4e-9, 9.5e-9 and 1.05e-2, the last at 1.0 omega_m and Q = 1.2e5 (the
# residual's power is the difference of integrals 1e5 times larger, so the
# integration error shows in it)
_QUADRATURE_VS_SAMPLES = (1e-14, 1e-8, 1e-7, 0.02)


@pytest.mark.parametrize("which", ["harmonics", "oracle"])
def test_demodulation_matches_lstsq(cfg, monkeypatch, which):
    """The quadratures give the coefficients and the residual of
    np.linalg.lstsq on uniform samples of the same closed period: within
    1e-12 relative on a signal with 2nd and 3rd harmonics outside the
    basis; and within the measured _QUADRATURE_VS_SAMPLES on the period the
    oracle integrates at 0.93 omega_m and Q = 50, and at 1.0 omega_m and
    Q = 1.2e5 (where the fit residual differs most), sampled by scipy's
    dense output."""
    if which == "harmonics":
        delta, eps_p, a_ss = 1e6, 7.0, 2.0 - 1.5j
        t, w, a = _synthetic(delta, eps_p)
        a = a + (0.2 - 0.1j) * w ** 2 + 0.05j * np.conj(w) ** 3
        cases = [(_quadratures(a, w, a_ss), eps_p, a_ss, t, a, delta, (1e-12,) * 4)]
    else:
        from scipy.integrate import solve_ivp as scipy_solve_ivp

        cases = []
        for x, q in ((0.93, 50.0), (1.0, 1.2e5)):
            delta = x * cfg.omega_m
            c = replace(cfg, Q1=q, Q2=q)
            _, runs = _oracle_runs(c, delta, monkeypatch)
            _, y_ss, eps_p, _, _ = _flow(c, delta)
            fun, t_span, y0, options = runs[-1]
            quadratures = om.solve_ivp(fun, t_span, y0, **options).y[5:9, -1].tolist()
            t = np.linspace(*t_span, 4096, endpoint=False)
            a = scipy_solve_ivp(fun, t_span, y0, method="DOP853", t_eval=t, **options).y[4]
            cases.append((quadratures, eps_p, y_ss[4], t, a, delta, _QUADRATURE_VS_SAMPLES))
    for quadratures, eps_p, a_ss, t, a, delta, tols in cases:
        est = om._demodulate(quadratures, eps_p, a_ss)
        ref = _lstsq_fit(t, a, delta, eps_p)
        for x, r, tol in zip(est, ref, tols):
            assert abs(x - r) <= tol * abs(r)


def test_oracle_without_probe_refuses_before_integrating(monkeypatch):
    """With P_p = 0 there are no sidebands to find: the oracle says so,
    naming the probe, before its first integration."""
    calls = []
    solve_ivp = om.solve_ivp
    monkeypatch.setattr(om, "solve_ivp",
                        lambda *a, **k: calls.append(a) or solve_ivp(*a, **k))
    cfg = replace(default_config(), P_p=0.0)
    with pytest.raises(IllConditionedFit, match="probe.*P_p = 0"):
        oracle_check(cfg, cfg.omega_m)
    assert calls == []


@pytest.mark.parametrize("x", [1e-9, 0.0])
def test_oracle_at_a_tiny_detuning_refuses_before_integrating(cfg, monkeypatch, x):
    """A check integrates a beat period 2 pi/|delta| in steps of the flow's
    fastest rate, so its work grows like 1/|delta|: beyond
    _MAX_BEAT_PERIODS periods of that rate (delta = 0 included) the oracle
    refuses the detuning before its first integration."""
    calls = []
    solve_ivp = om.solve_ivp
    monkeypatch.setattr(om, "solve_ivp",
                        lambda *a, **k: calls.append(a) or solve_ivp(*a, **k))
    with pytest.raises(ConfigError, match="fastest rate"):
        oracle_check(cfg, x * cfg.omega_m)
    assert calls == []


def _gamma_min(c):
    dc = derive_constants(c)
    return min(dc.gamma1, dc.gamma2)


def test_probe_off_state_stays_at_steady_state():
    cfg = replace(default_config(), Q1=50.0, Q2=50.0, P_p=0.0)
    ss = solve_steady(cfg)
    run, y_ss, eps_p, _, _ = _flow(cfg, cfg.omega_m)
    assert eps_p == 0.0
    sol = run(y_ss[None], (eps_p,), 40.0 / _gamma_min(cfg))
    dev = np.max(np.abs(sol.y[4] - ss.a0)) / abs(ss.a0)
    assert dev < 1e-8


def test_cavity_relaxation_matches_exact_solution():
    """With L = 0 the cavity decouples and relaxes analytically; the
    integrator must track the exact exponential."""
    cfg = replace(default_config(), L=0, Q1=50.0, Q2=50.0, P_p=0.0)
    ss = solve_steady(cfg)
    y0 = np.array([0.0, 0.0, 0.0, 0.0, 1.5 * ss.a0], dtype=complex)
    run, _, eps_p, _, _ = _flow(cfg, 0.9 * cfg.omega_m)
    sol = run(y0[None], (eps_p,), 20.0 / _gamma_min(cfg))
    # delta0 equals delta_prime here (no static displacement at L = 0)
    lam = -(1j * ss.delta_prime + cfg.kappa)
    expect = ss.a0 + (y0[4] - ss.a0) * np.exp(lam * sol.t)
    np.testing.assert_allclose(sol.y[4], expect, rtol=0, atol=1e-7 * abs(ss.a0))


def _one_period(c):
    """One beat period at omega_m of c's flow, from its steady state."""
    run, y_ss, eps_p, _, _ = _flow(c, c.omega_m)
    return run(y_ss[None], (eps_p,), 2 * math.pi / c.omega_m)


def test_integrator_failure_is_reported(cfg, monkeypatch):
    class Fake:
        success = False
        message = "step size underflow"

    monkeypatch.setattr(om, "solve_ivp", lambda *a, **k: Fake())
    for route in (_one_period, lambda c: oracle_check(c, c.omega_m)):
        with pytest.raises(StepFailure):
            route(replace(cfg, Q1=50.0, Q2=50.0))


def test_nonfinite_state_is_reported(cfg, monkeypatch):
    class Fake:
        success = True
        message = ""
        y = np.full((5, 8), np.inf, dtype=complex)
        t = np.linspace(0, 1, 8)

    monkeypatch.setattr(om, "solve_ivp", lambda *a, **k: Fake())
    for route in (_one_period, lambda c: oracle_check(c, c.omega_m)):
        with pytest.raises(BlowUp):
            route(replace(cfg, Q1=50.0, Q2=50.0))


def test_stacked_run_matches_separate_runs(monkeypatch):
    """The two probe amplitudes integrated as one stacked state end, copy by
    copy, where two separate runs end, for about half their right-hand-side
    evaluations; oracle_check's rhs_evals counts every call of all its
    integrations."""
    solve_ivp = om.solve_ivp
    calls = []

    def counting(*args, **kwargs):
        calls.append(solve_ivp(*args, **kwargs))
        return calls[-1]

    monkeypatch.setattr(om, "solve_ivp", counting)
    cfg = replace(default_config(), Q1=50.0, Q2=50.0)
    delta = 0.93 * cfg.omega_m
    run, y_ss, eps_p, _, _ = _flow(cfg, delta)
    duration = 20 * 2 * math.pi / delta
    eps_ps = (eps_p, 0.5 * eps_p)
    stacked = run(np.tile(y_ss, (2, 1)), eps_ps, duration).y[:, -1].reshape(2, 5)
    singles = [run(y_ss[None], (eps,), duration).y[:, -1] for eps in eps_ps]
    a0 = abs(solve_steady(cfg).a0)
    for copy, single in zip(stacked, singles):
        assert np.max(np.abs(copy - single)) < 1e-8 * a0
    nfev = [sol.nfev for sol in calls]
    assert nfev[0] <= 0.6 * (nfev[1] + nfev[2])

    calls.clear()
    rep = oracle_check(cfg, delta)
    assert rep.rhs_evals == sum(sol.nfev for sol in calls) < 2000


def test_stepper_matches_scipy_dop853(cfg, monkeypatch):
    """On the oracle's stacked flow the package's DOP853 takes the steps of
    scipy.integrate.solve_ivp(method="DOP853"): the same right-hand-side
    count and times, and states within 1e-12 of each component's scale, on
    every run of a check (the last one carrying the quadratures); also from
    an oversized first step, which the step controller must reject."""
    from scipy.integrate import solve_ivp as scipy_solve_ivp

    _, runs = _oracle_runs(replace(cfg, Q1=50.0, Q2=50.0), 0.93 * cfg.omega_m,
                           monkeypatch)
    assert runs[-1][2].size == 2 * 9
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
    # a step costs 12 calls, plus 1 for the start: more attempts than
    # accepted steps means a rejection
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
        _one_period(replace(cfg, Q1=50.0, Q2=50.0))


@pytest.fixture(scope="module")
def oracle_rep(cfg):
    # a weak probe keeps the physical O(eps_p^2) shift of the mean field
    # well under the a0 threshold at this off-window detuning
    return oracle_check(replace(cfg, P_p=2e-11, Q1=50.0, Q2=50.0), 1.05 * cfg.omega_m)


def test_oracle_passes_at_relaxed_damping(oracle_rep):
    rep = oracle_rep
    assert rep.passed
    assert rep.a0_rel_err < 1e-6
    assert rep.a_plus_rel_err < 1e-3
    assert rep.a_minus_rel_err < 1e-2
    assert rep.linearity_rel_change < 1e-3
    d = rep.as_dict()
    assert d["pass"] is True
    assert set(d) == {"delta", "a0_rel_err", "a_plus_rel_err",
                      "a_minus_rel_err", "linearity_rel_change",
                      "full_amplitude", "half_amplitude", "fit_residual", "pass"}
    for block in ("full_amplitude", "half_amplitude"):
        assert set(d[block]) == {"a0_rel_err", "a_plus_rel_err", "a_minus_rel_err"}


def test_oracle_estimates_carry_closed_form(oracle_rep, cfg):
    # the report exposes both sides of the comparison for inspection
    rel = abs(oracle_rep.a_plus_est - oracle_rep.a_plus_closed) / \
        abs(oracle_rep.a_plus_closed)
    assert rel == pytest.approx(oracle_rep.a_plus_rel_err, rel=1e-12)


def test_oracle_detects_nonlinearity(cfg):
    """A probe 1e4 times stronger drives the system out of the linear-response
    regime; the linearity cross-check must catch it."""
    rep = oracle_check(replace(cfg, P_p=2e-5, Q1=50.0, Q2=50.0), 1.05 * cfg.omega_m)
    assert rep.linearity_rel_change > 1e-3
    assert not rep.passed


def test_oracle_undriven_cavity():
    # L = 0: no mechanics in the loop, the checks reduce to the bare cavity
    cfg = replace(default_config(), L=0, Q1=50.0, Q2=50.0)
    rep = oracle_check(cfg, 0.95 * cfg.omega_m)
    assert rep.passed
    expect = 1.0 / (cfg.kappa + 1j * (cfg.omega_m - 0.95 * cfg.omega_m))
    assert rep.a_plus_closed == pytest.approx(expect, rel=1e-12)


def _growth_rate(c):
    """Largest Re lambda of the drift matrix at c's steady state."""
    ss = solve_steady(c)
    return np.linalg.eigvals(_drift_matrix(effective_params(c, ss), ss.a0)).real.max()


@pytest.mark.parametrize("x", [0.93, 1.1])
def test_periodic_orbit_matches_the_long_run(cfg, monkeypatch, x):
    """scipy's DOP853 on the oracle's right-hand side for both amplitudes,
    run for 40 damping times from the steady state, with the final period
    fitted by least squares, gives the full-amplitude a0 error of the
    shooting route, and the verdict on its own extrapolation (4 half -
    full)/3."""
    from scipy.integrate import solve_ivp as scipy_solve_ivp

    delta = x * cfg.omega_m
    c = replace(cfg, Q1=50.0, Q2=50.0)
    rep, runs = _oracle_runs(c, delta, monkeypatch)
    # the check's one Newton step's run: the full and the half amplitude, 5
    # components of state and 4 quadratures each; the long run starts both
    # copies at the steady state
    fun, _, y0, options = runs[0]
    assert y0.size == 2 * 9
    ss = solve_steady(c)
    _, y_ss, eps_p, _, _ = om._flow(c, delta, ss)
    duration = 40.0 / _gamma_min(c)
    period = 2 * math.pi / delta
    t = np.linspace(duration - period, duration, 4096, endpoint=False)
    start = np.tile(np.concatenate([y_ss, np.zeros(4)]), 2)
    sol = scipy_solve_ivp(fun, (0.0, duration), start, method="DOP853",
                          t_eval=t, **options)
    fit = _lstsq_fit(t, sol.y[4], delta, eps_p)
    fit_half = _lstsq_fit(t, sol.y[9 + 4], delta, 0.5 * eps_p)
    sb = sideband_amplitudes(effective_params(c, ss), delta)
    a0, a_plus, a_minus = ((4 * h - f) / 3 for f, h in zip(fit[:3], fit_half[:3]))
    errs = {"a0_rel_err": om._rel(a0, ss.a0),
            "a_plus_rel_err": om._rel(a_plus, sb.a_plus),
            "a_minus_rel_err": om._rel(a_minus, sb.a_minus),
            "linearity_rel_change": om._rel(fit_half[1], fit[1])}
    assert rep.passed == all(errs[f] < thr for _, f, thr in om._THRESHOLDS)
    assert rep.full_amplitude["a0_rel_err"] == pytest.approx(
        om._rel(fit[0], ss.a0), rel=1e-3)


def test_periodic_orbit_closes_over_twenty_periods(cfg):
    """The converged states return to themselves within _TOL after 20 more
    periods, where the steady state they started from does not."""
    c = replace(cfg, Q1=50.0, Q2=50.0)
    delta = 0.93 * cfg.omega_m
    ss = solve_steady(c)
    states, _, eps_ps = om._periodic_orbit(c, delta, ss)[:3]
    run = om._flow(c, delta, ss)[0]
    y_ss = np.array([ss.phi10, 0.0, ss.phi20, 0.0, ss.a0])
    atol = om._TOL * np.maximum(np.abs(states), max(abs(ss.a0), 1.0))
    for start, closes in ((states, True), (np.tile(y_ss, (2, 1)), False)):
        ends = run(start, eps_ps, 20 * 2 * math.pi / delta).y[:, -1]
        assert np.all(np.abs(ends.reshape(2, 5) - start) <= atol) == closes


def test_floquet_multiplier_matches_the_drift_matrix(oracle_rep, cfg):
    """The largest Floquet multiplier, max |e^{mu T}| over the eigenvalues mu
    of the finite-difference Jacobian of the flow's own field, is
    e^{T max Re lambda}, lambda the eigenvalues of the drift matrix."""
    growth = _growth_rate(replace(cfg, P_p=2e-11, Q1=50.0, Q2=50.0))
    period = 2 * math.pi / oracle_rep.delta
    assert oracle_rep.floquet_max == pytest.approx(math.exp(growth * period), rel=1e-4)
    assert 1 <= oracle_rep.newton_iterations <= om._MAX_NEWTON


# the seven detunings [omega_m] of criterion 3's band that the maps-oracle
# benchmark workload draws from. The full-amplitude a0 error exceeds 1e-6
# at the first three (the O(eps_p^2) rectification of a finite probe)
_BAND = (0.93, 1.04, 1.08, 0.9, 0.97, 1.0, 1.1)


@pytest.mark.parametrize("x", _BAND)
def test_oracle_at_the_configured_q_across_the_band(cfg, x):
    """At the configured Q = 1.2e5 the oracle passes at every detuning of
    the band, and a check takes 1 Newton step, one run of at most 169
    right-hand-side calls. The half-amplitude a0 error is a quarter of the
    full one (within 1e-5), so the error is O(eps_p^2), and the extrapolation
    the verdict judges removes it: a0 within 1e-11, a_plus and a_minus
    within 1e-7 (measured at most 2.3e-12, 3.6e-8 and 2.2e-8)."""
    rep = oracle_check(cfg, x * cfg.omega_m)
    over = [label for label, field, thr in om._THRESHOLDS
            if not getattr(rep, field) < thr]
    assert over == []
    assert rep.passed
    assert rep.rhs_evals <= 169 and rep.newton_iterations == 1
    full, half = rep.full_amplitude["a0_rel_err"], rep.half_amplitude["a0_rel_err"]
    assert 4 * half == pytest.approx(full, rel=1e-5)
    assert (full > 1e-6) == (x in _BAND[:3])
    assert rep.a0_rel_err <= 1e-11
    assert max(rep.a_plus_rel_err, rep.a_minus_rel_err) <= 1e-7


@pytest.mark.parametrize("q", [50.0, 1.2e5])
@pytest.mark.parametrize("x", _BAND)
def test_demodulated_orbit_matches_one_more_period(cfg, q, x):
    """The quadratures the shooting carries to the converged states, with
    their first-order correction over the last step, give the estimates of
    one more period integrated from those states with the quadratures:
    within 1e-10 relative, at every band point and both Q."""
    c = replace(cfg, Q1=q, Q2=q)
    delta = x * cfg.omega_m
    ss = solve_steady(c)
    states, quadratures, eps_ps = om._periodic_orbit(c, delta, ss)[:3]
    n = len(eps_ps)
    sol = om._flow(c, delta, ss)[0](np.hstack([states, np.zeros((n, 4))]),
                                    eps_ps, 2 * math.pi / delta)
    a_ss = ss.a0
    for q_est, q_run, eps in zip(quadratures.tolist(),
                                 sol.y[:, -1].reshape(n, 9)[:, 5:].tolist(), eps_ps):
        est = om._demodulate(q_est, eps, a_ss)[:3]
        ref = om._demodulate(q_run, eps, a_ss)[:3]
        for x_est, x_ref in zip(est, ref):
            assert abs(x_est - x_ref) <= 1e-10 * abs(x_ref)


@pytest.mark.parametrize("q", [50.0, 1.2e5])
@pytest.mark.parametrize("x", [0.93, 1.1])
def test_every_run_carries_only_the_two_amplitudes(cfg, monkeypatch, q, x):
    """A check integrates one run per Newton step, each of the full and the
    half amplitude alone: 2 copies of 5 components of state and 4
    quadratures, no kicked copies."""
    rep, runs = _oracle_runs(replace(cfg, Q1=q, Q2=q), x * cfg.omega_m, monkeypatch)
    assert len(runs) == rep.newton_iterations
    assert all(y0.size <= 2 * 9 for _, _, y0, _ in runs)


def _steady_state_start(J, H, y_ss, eps_ps, delta):
    return np.tile(y_ss, (len(eps_ps), 1))


# starts is bound at import, so that it is still the module's own _starts
# when a test patches that name with one of these functions
def _first_order_start(J, H, y_ss, eps_ps, delta, starts=om._starts):
    return starts(J, 0 * H, y_ss, eps_ps, delta)


def _orders(J, H, y_ss, eps, delta, starts=om._starts):
    """The terms eps^n c_n, n = 1, 2, 3, of the start at amplitude eps:
    the start is y_ss plus a cubic in eps, so its values at eps, -eps and
    eps/2 give them exactly."""
    t = np.array([1.0, -1.0, 0.5])
    return np.linalg.solve(t[:, None] ** np.arange(1, 4),
                           starts(J, H, y_ss, tuple(eps * t), delta) - y_ss)


def _second_order_start(J, H, y_ss, eps_ps, delta):
    return np.array([y_ss + _orders(J, H, y_ss, eps, delta)[:2].sum(axis=0)
                     for eps in eps_ps])


@pytest.mark.parametrize("x, q, start", [
    pytest.param(x, q, start, id=f"{x}-{q}{suffix}")
    for start, suffix in ((_steady_state_start, ""), (_first_order_start, "-first-order"),
                          (_second_order_start, "-second-order"))
    for x in (0.93, 1.1) for q in (50.0, 1.2e5)])
def test_the_linear_start_only_steers(cfg, monkeypatch, x, q, start):
    """Started from the steady state, or from the periodic response to
    first or second order only, the shooting takes more Newton steps to the
    same orbit: the estimates agree within 1e-10 relative, and so do the
    verdicts."""
    c = replace(cfg, Q1=q, Q2=q)
    rep = oracle_check(c, x * cfg.omega_m)
    monkeypatch.setattr(om, "_starts", start)
    ref = oracle_check(c, x * cfg.omega_m)
    assert ref.newton_iterations > rep.newton_iterations
    for field in ("a_plus_est", "a_minus_est"):
        assert abs(getattr(rep, field) - getattr(ref, field)) <= 1e-10 * abs(getattr(ref, field))
    # a0_rel_err moves by at most the relative move of the a0 estimate
    assert abs(rep.a0_rel_err - ref.a0_rel_err) <= 1e-10
    assert rep.passed == ref.passed


@pytest.mark.parametrize("x", [0.9, 1.04])
def test_linear_start_is_the_linear_response(cfg, x):
    """The Jacobian of the flow's own field has the eigenvalues of the drift
    matrix, and the first-order part of the start of each amplitude eps is
    the closed form's field at t = 0, a_ss + eps (a_plus + a_minus). The
    start is cubic in eps, so _orders gives that part exactly."""
    delta = x * cfg.omega_m
    ss = solve_steady(cfg)
    _, y_ss, eps_p, floor, field = om._flow(cfg, delta, ss)
    J, H = om._derivatives(field, y_ss, np.maximum(np.abs(y_ss), floor)[[0, 1, 2, 3, 4, 4]])
    ep = effective_params(cfg, ss)
    lam = np.linalg.eigvals(J)
    ref = np.linalg.eigvals(_drift_matrix(ep, ss.a0))
    gap = np.abs(lam[:, None] - ref[None, :])
    assert max(gap.min(axis=0).max(), gap.min(axis=1).max()) <= 1e-12 * np.max(np.abs(ref))
    sb = sideband_amplitudes(ep, delta)
    for eps in (eps_p, 0.5 * eps_p):
        first_order = _orders(J, H, y_ss, eps, delta)[0]
        linear = eps * (sb.a_plus + sb.a_minus)
        assert abs(first_order[4] - linear) <= 1e-10 * abs(linear)


def test_unstable_steady_state_is_refused(cfg):
    """Branch 0 of the self-consistent map grows at 0.45 omega_m at 4 mW,
    L = 200 and Delta_0 = 1.2 omega_m: the oracle names its multiplier."""
    c = replace(cfg, P=4e-3, L=200, detuning_mode=SelfConsistent(1.2 * cfg.omega_m))
    growth = _growth_rate(c)
    assert growth > 0
    with pytest.raises(Unstable, match="Floquet multiplier") as err:
        oracle_check(c, cfg.omega_m)
    mu = float(re.search(r"\|mu\| = (\S+)", str(err.value)).group(1))
    assert mu == pytest.approx(math.exp(growth * 2 * math.pi / cfg.omega_m), rel=1e-2)


def test_unconverged_orbit_is_reported(cfg, monkeypatch):
    """One Newton step from the steady state does not reach the orbit (the
    check's own start does, in one step)."""
    monkeypatch.setattr(om, "_MAX_NEWTON", 1)
    monkeypatch.setattr(om, "_starts", _steady_state_start)
    with pytest.raises(StepFailure, match="Newton steps.*times atol"):
        oracle_check(replace(cfg, Q1=50.0, Q2=50.0), 0.93 * cfg.omega_m)


@pytest.mark.parametrize("t_span, y0, first_step, match", [
    ((1.0, 1.0), [1.0], 0.1, "t_span must increase"),
    ((0.0, 1.0), [1.0], 2.0, "first_step"),
    ((0.0, 1.0), [1.0], 0.0, "first_step"),
    ((0.0, 1.0), [[1.0]], 0.1, "y0 must be"),
    ((0.0, 1.0), [np.nan], 0.1, "y0 must be")])
def test_solve_ivp_rejects_bad_arguments(t_span, y0, first_step, match):
    with pytest.raises(ValueError, match=match):
        om.solve_ivp(lambda t, y: -y, t_span, y0, rtol=1e-9, atol=1e-12,
                     first_step=first_step)
