"""End-to-end physics oracle: solve the nonlinear mean-value equations in
the time domain for their probe-driven periodic orbit, demodulate one period
of the cavity field into its dc and first-sideband components, and compare
with the closed-form response.

With a stable steady state the probe drive e^{-i delta t} has period
T = 2 pi/|delta|, and the late-time state is the system's T-periodic orbit.
oracle_check finds that orbit by shooting (a monodromy matrix from finite
differences over one period, then Newton steps on y(T) = y(0)) and fits one
more period of it, so a check costs a few periods of integration whatever
the damping: under 2k right-hand-side calls at Q = 50 and at the production
Q = 1.2e5 alike. A largest Floquet multiplier |mu| >= 1 means the steady
state is unstable and has no steady sidebands; the oracle raises Unstable.
The closed form enters only the final comparison, so the time domain stays
an independent route. integrate is the transient integrator of the same
equations, from the steady state over tens of damping times.

Every integration goes through solve_ivp, the package's DOP853 stepper
(dop853.py), which takes the steps of scipy's; the package needs numpy only.
"""

import cmath
import math
from dataclasses import dataclass, replace as dc_replace

import numpy as np

from .dop853 import solve_ivp
from .errors import (BlowUp, ConfigError, IllConditionedFit, StepFailure,
                     Unstable)
from .model import derive_constants, effective_params
from .response import sideband_amplitudes
from .steadystate import solve_steady

_TOL_RANGE = (1e-12, 1e-6)
# default integration length in units of the slowest bare mechanical damping
# time 1/gamma: a bound, since optical damping makes probe transients decay
# faster than gamma/2 (e^-20 residual after 40 damping times at gamma/2)
_DEFAULT_DAMPING_TIMES = 40.0
_MIN_DAMPING_TIMES = 20.0
# Newton steps on the periodic orbit before StepFailure
_MAX_NEWTON = 30
# uniform samples (plus the closing endpoint) of the demodulated period
_PERIOD_SAMPLES = 4096
# oracle pass thresholds on relative errors of (a0, a_plus, a_minus) and on
# the linearity check: (label, OracleReport field, threshold)
_THRESHOLDS = (("a0", "a0_rel_err", 1e-6),
               ("a_plus", "a_plus_rel_err", 1e-3),
               ("a_minus", "a_minus_rel_err", 1e-2),
               ("linearity", "linearity_rel_change", 1e-3))


@dataclass(frozen=True)
class OdeSeries:
    """Sampled trajectory of the mean-value equations.

    Arrays are aligned with t; a is complex, the mechanical coordinates are
    real. eps_p records the probe amplitude actually used (after scaling);
    rhs_evals counts the right-hand-side evaluations of the integration that
    produced the series, shared by every copy of a stacked run.
    """

    t: object
    a: object
    phi1: object
    phi2: object
    lz1: object
    lz2: object
    delta: float
    eps_p: float
    duration: float
    rhs_evals: int = 0


@dataclass(frozen=True)
class DemodulationReport:
    a0_est: complex
    a_plus_est: complex
    a_minus_est: complex
    fit_residual: float
    window: tuple


def _flow(cfg, delta, tol):
    """The mean-value equations of cfg at probe detuning delta, with both
    drives on, as (run, y_ss, eps_p, floor).

    The frame rotates at the drive frequency; the bare detuning is chosen so
    that the steady state reproduces the configured effective detuning
    (fixed mode) or equals the configured value (self-consistent mode).
    y_ss is that probe-off steady state (phi1, lz1, phi2, lz2, a) and eps_p
    the probe amplitude. run(y0s, eps_ps, t_end, t_eval=None) integrates one
    copy of the system per row of y0s, copy j at probe amplitude eps_ps[j],
    from t = 0 to t_end as one stacked state in one solve_ivp (DOP853) call
    (the copies share their steps, so the per-step overhead is paid once)
    and returns its result, with t, y and nfev; it raises StepFailure where
    the stepper stops short and BlowUp on a non-finite state. Copy j's
    absolute tolerance is tol times max(|y0s[j]|, floor), componentwise.
    """
    if not _TOL_RANGE[0] <= tol <= _TOL_RANGE[1]:
        raise ConfigError(f"tol must lie in {_TOL_RANGE}, got {tol!r}")
    if not math.isfinite(delta):
        raise ConfigError(f"the detuning must be finite, got {delta!r}")
    dc = derive_constants(cfg)
    ss = solve_steady(cfg)
    # Delta_0 such that Delta_0 + g1 phi10 - g2 phi20 = delta_prime
    delta0 = ss.delta_prime - dc.g1 * ss.phi10 + dc.g2 * ss.phi20
    eps_c = dc.eps_c
    eps_p = float(dc.eps_p(dc.omega_c + delta)) if cfg.P_p > 0 else 0.0
    g1, g2 = dc.g1, dc.g2
    om1, om2 = cfg.omega_phi1, cfg.omega_phi2
    gam1, gam2 = dc.gamma1, dc.gamma2
    kappa = cfg.kappa
    floor = max(abs(ss.a0), 1.0)
    first_step = 0.01 / max(om1, om2, abs(delta), abs(delta0), kappa)

    def run(y0s, eps_ps, t_end, t_eval=None):
        # Python-scalar arithmetic: on a few copies of 5 components, numpy's
        # per-call overhead would cost more than the arithmetic itself
        def rhs(t, y):
            probe = cmath.exp(-1j * delta * t)
            y = y.tolist()
            out = []
            for j, eps in enumerate(eps_ps):
                phi1, lz1, phi2, lz2, a = y[5 * j:5 * j + 5]
                phi1, lz1, phi2, lz2 = phi1.real, lz1.real, phi2.real, lz2.real
                inten = a.real * a.real + a.imag * a.imag
                out += [om1 * lz1,
                        -om1 * phi1 - g1 * inten - gam1 * lz1,
                        om2 * lz2,
                        -om2 * phi2 + g2 * inten - gam2 * lz2,
                        ((-1j * (delta0 + g1 * phi1 - g2 * phi2) - kappa) * a
                         + eps_c + eps * probe)]
            return out

        y0s = np.asarray(y0s, dtype=complex)
        sol = solve_ivp(rhs, (0.0, t_end), y0s.ravel(),
                        rtol=tol, atol=tol * np.maximum(np.abs(y0s), floor).ravel(),
                        t_eval=t_eval, first_step=first_step)
        if not sol.success:
            raise StepFailure(f"integrator failed: {sol.message}")
        if not np.all(np.isfinite(sol.y)):
            raise BlowUp("non-finite state encountered during integration")
        return sol

    y_ss = np.array([ss.phi10, 0.0, ss.phi20, 0.0, ss.a0], dtype=complex)
    return run, y_ss, eps_p, floor


def _series(sol, delta, eps_ps, duration):
    """One OdeSeries per copy of a stacked run."""
    return tuple(OdeSeries(
        t=sol.t, a=y[4], phi1=y[0].real, phi2=y[2].real,
        lz1=y[1].real, lz2=y[3].real, delta=delta, eps_p=eps_p,
        duration=float(duration), rhs_evals=int(sol.nfev))
        for eps_p, y in zip(eps_ps, np.split(sol.y, len(eps_ps))))


def integrate(cfg, delta, duration=None, tol=1e-10, eps_p_scale=(1.0,), y0=None):
    """Integrate the mean-value equations with both drives on, from t = 0.

    Initial state defaults to the probe-off steady state so only
    probe-induced transients must decay. duration defaults to 40 slowest
    damping times and must be at least 20.

    The k scales of eps_p_scale integrate k copies of the system, one per
    probe amplitude, as one stacked 5k-component state in a single DOP853
    run (each copy starts from y0), and return a tuple of k OdeSeries.
    """
    if not eps_p_scale:
        raise ConfigError("eps_p_scale must be a non-empty sequence")
    delta = float(delta)
    run, y_ss, eps_p, _ = _flow(cfg, delta, tol)
    dc = derive_constants(cfg)
    gamma_min = min(dc.gamma1, dc.gamma2)
    if duration is None:
        duration = _DEFAULT_DAMPING_TIMES / gamma_min
    if duration < _MIN_DAMPING_TIMES / gamma_min:
        raise ConfigError(
            f"duration {duration!r} shorter than {_MIN_DAMPING_TIMES} damping "
            f"times ({_MIN_DAMPING_TIMES / gamma_min:.3e} s)")
    if y0 is None:
        y0 = y_ss
    else:
        y0 = np.asarray(y0, dtype=complex)
        if y0.shape != (5,):
            raise ConfigError("y0 must have shape (5,): phi1, lz1, phi2, lz2, a")

    # >= 40 samples per probe beat period over the demodulation (final) half
    if delta > 0:
        n_half = max(8192, int(math.ceil(40.0 * (duration / 2) * delta / (2 * math.pi))))
    else:
        n_half = 8192
    t_eval = np.linspace(0.0, duration, 2 * n_half)
    eps_ps = [eps_p * s for s in eps_p_scale]
    sol = run(np.tile(y0, (len(eps_ps), 1)), eps_ps, duration, t_eval)
    return _series(sol, delta, eps_ps, duration)


def _real(y):
    """(..., 5) complex states as (..., 6) real: phi1, lz1, phi2, lz2, Re a, Im a."""
    return np.concatenate([y[..., :4].real, y[..., 4:].real, y[..., 4:].imag], axis=-1)


def _complex(x):
    """Inverse of _real."""
    return np.concatenate([x[..., :4], x[..., 4:5] + 1j * x[..., 5:]], axis=-1)


@dataclass(frozen=True)
class _Orbit:
    """Initial states, one row per probe amplitude, of the periodic orbit of
    period T, with the run that integrates them and the shooting's cost."""

    run: object
    states: object
    eps_ps: tuple
    period: float
    newton_iterations: int
    floquet_max: float
    rhs_evals: int


def _periodic_orbit(cfg, delta, tol):
    """Shoot for the orbit of period T = 2 pi/|delta| that the probe drive
    e^{-i delta t} forces at the full and at half the probe amplitude.

    One stacked run over T carries the steady state once per amplitude and
    six copies of the first, perturbed along phi1, lz1, phi2, lz2, Re a and
    Im a. Their end states give the residuals y(T) - y(0) and, by finite
    differences, the monodromy matrix M. Newton steps (M - I) s =
    -(y(T) - y(0)), with M held fixed and every amplitude stacked in one run
    per step, move the initial states until a step is below tol in the
    integrator's atol scale: the integration's own residual decides, M only
    steers. Raises Unstable if the largest Floquet multiplier |mu| (the
    largest |eigenvalue| of M) is >= 1, and StepFailure if Newton has not
    converged after _MAX_NEWTON steps.
    """
    if delta == 0:
        raise IllConditionedFit("no probe beat period at delta = 0")
    run, y_ss, eps_p, floor = _flow(cfg, delta, tol)
    if eps_p == 0:
        raise IllConditionedFit("no probe to demodulate: P_p = 0")
    period = 2 * math.pi / abs(delta)
    eps_ps = (eps_p, 0.5 * eps_p)
    n = len(eps_ps)
    h = math.sqrt(tol) * np.maximum(np.abs(y_ss), floor)[[0, 1, 2, 3, 4, 4]]
    kicks = _complex(np.diag(h))
    sol = run(np.vstack([np.tile(y_ss, (n, 1)), y_ss + kicks]),
              eps_ps + (eps_ps[0],) * 6, period)
    rhs_evals = sol.nfev
    ends = sol.y[:, -1].reshape(-1, 5)
    M = (_real(ends[n:]) - _real(ends[0])).T / h
    floquet_max = float(np.max(np.abs(np.linalg.eigvals(M))))
    if floquet_max >= 1.0:
        raise Unstable(
            f"Floquet multiplier |mu| = {floquet_max:.6g} >= 1 over one probe "
            f"period at delta = {delta!r}: the steady state is unstable and "
            f"has no steady sidebands")

    states = np.tile(y_ss, (n, 1))
    residual = ends[:n] - states
    shooting = M - np.eye(6)
    for iteration in range(1, _MAX_NEWTON + 1):
        step = _complex(np.linalg.solve(shooting, -_real(residual).T).T)
        states = states + step
        atol = tol * np.maximum(np.abs(states), floor)
        if np.all(np.abs(step) <= atol):
            break
        sol = run(states, eps_ps, period)
        rhs_evals += sol.nfev
        residual = sol.y[:, -1].reshape(n, 5) - states
    else:
        raise StepFailure(
            f"periodic orbit not found in {_MAX_NEWTON} Newton steps: "
            f"|y(T) - y(0)| is {np.max(np.abs(residual) / atol):.3e} times atol")
    return _Orbit(run=run, states=states, eps_ps=eps_ps, period=period,
                  newton_iterations=iteration, floquet_max=floquet_max,
                  rhs_evals=int(rhs_evals))


def _norm2(z):
    """Squared 2-norm of a complex array, summed elementwise."""
    return float(np.sum(z.real * z.real + z.imag * z.imag))


def demodulate(series, delta, eps_p):
    """Least-squares fit of a(t) over the final half of the series, or over
    its final beat period 2 pi/|delta| where that is longer, against the
    basis {1, eps_p e^{-i delta t}, eps_p^* e^{+i delta t}}.

    The fitted coefficients are the estimates of a0, a_plus, a_minus. The
    final half discards the transients of a run from the steady state; a
    series of exactly one period of the periodic orbit is fitted whole.
    """
    t = np.asarray(series.t, dtype=float)
    a = np.asarray(series.a, dtype=complex)
    period = 2 * math.pi / abs(delta) if delta else math.inf
    t_start = max(t[0], min(t[0] + 0.5 * (t[-1] - t[0]), t[-1] - period))
    sel = t >= t_start
    tw, aw = t[sel], a[sel]
    window = (float(tw[0]), float(tw[-1]))
    if eps_p == 0:
        raise IllConditionedFit("no probe sidebands to fit: eps_p = 0")
    if window[1] - window[0] < period:
        raise IllConditionedFit(
            f"demodulation basis collinear over window {window} at "
            f"delta = {delta!r}")

    # the 3x3 normal equations of the basis {1, w, w*}, w = e^{-i delta t},
    # from sums over the window; the coefficients of w and w* are
    # eps_p a_plus and eps_p^* a_minus
    w = np.exp(-1j * delta * tw)
    wc = w.conj()
    s1, s2 = complex(w.sum()), complex((w * w).sum())
    s1c, n = s1.conjugate(), float(tw.size)
    gram = np.array([[n, s1, s1c], [s1c, n, s2.conjugate()], [s1, s2, n]])
    c0, c1, c2 = np.linalg.solve(gram, [aw.sum(), (wc * aw).sum(), (w * aw).sum()])
    miss = aw - (c0 + c1 * w + c2 * wc)
    resid = math.sqrt(_norm2(miss)) / max(math.sqrt(_norm2(aw)), 1e-300)
    return DemodulationReport(
        a0_est=complex(c0), a_plus_est=complex(c1 / eps_p),
        a_minus_est=complex(c2 / np.conj(eps_p)), fit_residual=resid, window=window)


@dataclass(frozen=True)
class OracleReport:
    """Closed form vs time domain at one detuning."""

    delta: float
    q_override: float
    a0_rel_err: float
    a_plus_rel_err: float
    a_minus_rel_err: float
    linearity_rel_change: float
    fit_residual: float
    passed: bool
    a_plus_est: complex
    a_plus_closed: complex
    a_minus_est: complex
    a_minus_closed: complex
    rhs_evals: int
    newton_iterations: int
    floquet_max: float

    def as_dict(self):
        return {
            "delta": self.delta,
            "q_override": self.q_override,
            "a0_rel_err": self.a0_rel_err,
            "a_plus_rel_err": self.a_plus_rel_err,
            "a_minus_rel_err": self.a_minus_rel_err,
            "linearity_rel_change": self.linearity_rel_change,
            "fit_residual": self.fit_residual,
            "pass": self.passed,
        }


def _rel(x, ref, scale=0.0):
    """Relative deviation; a zero reference is judged against scale."""
    denom = abs(ref) if ref != 0 else scale
    return abs(x - ref) / max(denom, 1e-300)


def oracle_check(cfg, delta, q_override=50.0, tol=1e-10):
    """Compare the closed form with the time domain at one detuning, with
    both mirrors' Q set to q_override.

    The periodic orbit is found by shooting (_periodic_orbit) for the full
    and the half probe amplitude together; one more period of each, on
    uniform samples, is demodulated. Thresholds: a0 within 1e-6, a_plus
    within 1e-3, a_minus within 1e-2 relative; halving eps_p must change
    the a_plus estimate by < 1e-3 relative (linearity). rhs_evals counts
    the right-hand-side calls of every integration of the check. Raises
    Unstable where the steady state has a Floquet multiplier |mu| >= 1.
    """
    c = dc_replace(cfg, Q1=float(q_override), Q2=float(q_override))
    delta = float(delta)
    orbit = _periodic_orbit(c, delta, tol)
    t = np.linspace(0.0, orbit.period, _PERIOD_SAMPLES + 1)
    sol = orbit.run(orbit.states, orbit.eps_ps, orbit.period, t_eval=t)
    series, series_half = _series(sol, delta, orbit.eps_ps, orbit.period)
    rep = demodulate(series, delta, series.eps_p)
    rep_half = demodulate(series_half, delta, series_half.eps_p)

    # the closed form enters here, for the comparison only
    ss = solve_steady(c)
    sb = sideband_amplitudes(effective_params(c, ss), delta, a0=ss.a0)
    # undriven configurations have a0 = a_minus = 0 exactly; judge those
    # estimates against the field scale actually present in the trace
    errs = {"a0_rel_err": _rel(rep.a0_est, ss.a0,
                               scale=abs(series.eps_p) * abs(sb.a_plus)),
            "a_plus_rel_err": _rel(rep.a_plus_est, sb.a_plus),
            "a_minus_rel_err": _rel(rep.a_minus_est, sb.a_minus,
                                    scale=abs(sb.a_plus)),
            "linearity_rel_change": _rel(rep_half.a_plus_est, rep.a_plus_est)}
    return OracleReport(
        delta=delta, q_override=float(q_override), **errs,
        fit_residual=rep.fit_residual,
        passed=all(errs[field] < thr for _, field, thr in _THRESHOLDS),
        a_plus_est=rep.a_plus_est, a_plus_closed=sb.a_plus,
        a_minus_est=rep.a_minus_est, a_minus_closed=sb.a_minus,
        rhs_evals=orbit.rhs_evals + int(sol.nfev),
        newton_iterations=orbit.newton_iterations,
        floquet_max=orbit.floquet_max)
