"""End-to-end physics oracle: integrate the nonlinear mean-value equations in
the time domain, demodulate the late-time cavity field into its dc and
first-sideband components, and compare with the closed-form response.

The production quality factor (1.2e5) makes probe transients last ~1e8
mechanical periods, so the oracle runs at a relaxed Q (default 50). The
closed form is parameter-agnostic; validating it at relaxed damping
validates the algebra.
"""

import cmath
import math
from dataclasses import dataclass, replace as dc_replace

import numpy as np

from .errors import BlowUp, ConfigError, IllConditionedFit, StepFailure
from .model import derive_constants, effective_params
from .response import sideband_amplitudes
from .steadystate import solve_steady

_TOL_RANGE = (1e-12, 1e-6)
# default integration length in units of the slowest mechanical damping time;
# probe transients decay at gamma/2, so 40 damping times leaves e^-20 residual
_DEFAULT_DAMPING_TIMES = 40.0
_MIN_DAMPING_TIMES = 20.0
# oracle pass thresholds on relative errors of (a0, a_plus, a_minus) and on
# the linearity check: (label, OracleReport field, threshold)
_THRESHOLDS = (("a0", "a0_rel_err", 1e-6),
               ("a_plus", "a_plus_rel_err", 1e-3),
               ("a_minus", "a_minus_rel_err", 1e-2),
               ("linearity", "linearity_rel_change", 1e-3))


def solve_ivp(*args, **kwargs):
    """scipy.integrate.solve_ivp, imported on the first call: the oracle is
    the only part of the package that needs scipy, whose import takes longer
    than any other subcommand's whole run."""
    from scipy.integrate import solve_ivp as scipy_solve_ivp
    return scipy_solve_ivp(*args, **kwargs)


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


def integrate(cfg, dc, delta, duration=None, tol=1e-10, eps_p_scale=1.0, y0=None):
    """Integrate the mean-value equations with both drives on.

    The frame rotates at the drive frequency; the bare detuning is chosen so
    that the steady state reproduces the configured effective detuning
    (fixed mode) or equals the configured value (self-consistent mode).
    Initial state defaults to the probe-off steady state so only
    probe-induced transients must decay. duration defaults to 40 slowest
    damping times and must be at least 20.

    A float eps_p_scale returns one OdeSeries. A sequence of k scales
    integrates k copies of the system, one per probe amplitude, as one
    stacked 5k-component state in a single DOP853 run (each copy starts
    from y0), and returns a tuple of k OdeSeries; the copies share their
    steps, so the per-step overhead is paid once.
    """
    if not _TOL_RANGE[0] <= tol <= _TOL_RANGE[1]:
        raise ConfigError(f"tol must lie in {_TOL_RANGE}, got {tol!r}")
    scales = tuple(eps_p_scale) if np.ndim(eps_p_scale) else (eps_p_scale,)
    if not scales:
        raise ConfigError("eps_p_scale must be a float or a non-empty sequence")
    delta = float(delta)
    if not math.isfinite(delta):
        raise ConfigError(f"the detuning must be finite, got {delta!r}")
    gamma_min = min(dc.gamma1, dc.gamma2)
    if duration is None:
        duration = _DEFAULT_DAMPING_TIMES / gamma_min
    if duration < _MIN_DAMPING_TIMES / gamma_min:
        raise ConfigError(
            f"duration {duration!r} shorter than {_MIN_DAMPING_TIMES} damping "
            f"times ({_MIN_DAMPING_TIMES / gamma_min:.3e} s)")

    ss = solve_steady(cfg, dc=dc)
    # Delta_0 such that Delta_0 + g1 phi10 - g2 phi20 = delta_prime
    delta0 = ss.delta_prime - dc.g1 * ss.phi10 + dc.g2 * ss.phi20
    eps_c = dc.eps_c
    eps_ps = [float(dc.eps_p(dc.omega_c + delta) * s if cfg.P_p > 0 else 0.0)
              for s in scales]
    g1, g2 = dc.g1, dc.g2
    om1, om2 = cfg.omega_phi1, cfg.omega_phi2
    gam1, gam2 = dc.gamma1, dc.gamma2
    kappa = cfg.kappa

    if y0 is None:
        y0 = np.array([ss.phi10, 0.0, ss.phi20, 0.0, ss.a0], dtype=complex)
    else:
        y0 = np.asarray(y0, dtype=complex)
        if y0.shape != (5,):
            raise ConfigError("y0 must have shape (5,): phi1, lz1, phi2, lz2, a")

    # Python-scalar arithmetic: on k copies of 5 components, numpy's per-call
    # overhead would cost more than the arithmetic itself
    def rhs(t, y):
        probe = cmath.exp(-1j * delta * t)
        y = y.tolist()
        out = []
        for j, eps_p in enumerate(eps_ps):
            phi1, lz1, phi2, lz2, a = y[5 * j:5 * j + 5]
            phi1, lz1, phi2, lz2 = phi1.real, lz1.real, phi2.real, lz2.real
            inten = a.real * a.real + a.imag * a.imag
            out += [om1 * lz1,
                    -om1 * phi1 - g1 * inten - gam1 * lz1,
                    om2 * lz2,
                    -om2 * phi2 + g2 * inten - gam2 * lz2,
                    ((-1j * (delta0 + g1 * phi1 - g2 * phi2) - kappa) * a
                     + eps_c + eps_p * probe)]
        return out

    # >= 40 samples per probe beat period over the demodulation (final) half
    if delta > 0:
        n_half = max(8192, int(math.ceil(40.0 * (duration / 2) * delta / (2 * math.pi))))
    else:
        n_half = 8192
    t_eval = np.linspace(0.0, duration, 2 * n_half)

    w_max = max(om1, om2, abs(delta), abs(delta0), kappa)
    scale = np.maximum(np.abs(y0), max(abs(ss.a0), 1.0))
    k = len(eps_ps)
    sol = solve_ivp(rhs, (0.0, duration), np.tile(y0, k), method="DOP853",
                    rtol=tol, atol=tol * np.tile(scale, k), t_eval=t_eval,
                    first_step=0.01 / w_max)
    if not sol.success:
        raise StepFailure(f"integrator failed: {sol.message}")
    if not np.all(np.isfinite(sol.y)):
        raise BlowUp("non-finite state encountered during integration")

    series = tuple(OdeSeries(
        t=sol.t, a=y[4], phi1=y[0].real, phi2=y[2].real,
        lz1=y[1].real, lz2=y[3].real, delta=delta, eps_p=eps_p,
        duration=float(duration), rhs_evals=int(sol.nfev))
        for eps_p, y in zip(eps_ps, np.split(sol.y, k)))
    return series if np.ndim(eps_p_scale) else series[0]


def demodulate(series, delta, eps_p):
    """Least-squares fit of a(t) over the final half of the series against
    the basis {1, eps_p e^{-i delta t}, eps_p^* e^{+i delta t}}.

    The fitted coefficients are the estimates of a0, a_plus, a_minus.
    """
    t = np.asarray(series.t, dtype=float)
    a = np.asarray(series.a, dtype=complex)
    t_mid = t[0] + 0.5 * (t[-1] - t[0])
    sel = t >= t_mid
    tw, aw = t[sel], a[sel]
    window = (float(tw[0]), float(tw[-1]))
    if eps_p == 0 or abs(delta) * (window[1] - window[0]) < 2 * math.pi:
        raise IllConditionedFit(
            f"demodulation basis collinear over window {window} at "
            f"delta = {delta!r}")

    M = np.column_stack([
        np.ones_like(tw, dtype=complex),
        eps_p * np.exp(-1j * delta * tw),
        np.conj(eps_p) * np.exp(+1j * delta * tw)])
    coef, _, _, _ = np.linalg.lstsq(M, aw, rcond=None)
    resid = np.linalg.norm(aw - M @ coef) / max(np.linalg.norm(aw), 1e-300)
    return DemodulationReport(
        a0_est=complex(coef[0]), a_plus_est=complex(coef[1]),
        a_minus_est=complex(coef[2]), fit_residual=float(resid), window=window)


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


def oracle_check(cfg, delta, q_override=50.0, p_p_override=None,
                 tol=1e-10, duration=None):
    """Run the time-domain oracle at relaxed damping and compare to the
    closed form.

    Thresholds: a0 within 1e-6, a_plus within 1e-3, a_minus within 1e-2
    relative; halving eps_p must change the a_plus estimate by < 1e-3
    relative (linearity).
    """
    over = {"Q1": float(q_override), "Q2": float(q_override)}
    if p_p_override is not None:
        over["P_p"] = float(p_p_override)
    c = dc_replace(cfg, **over)
    dc = derive_constants(c)
    ss = solve_steady(c, dc=dc)
    ep = effective_params(c, ss)
    delta = float(delta)

    series, series_half = integrate(c, dc, delta, duration=duration, tol=tol,
                                    eps_p_scale=(1.0, 0.5))
    rep = demodulate(series, delta, series.eps_p)
    rep_half = demodulate(series_half, delta, series_half.eps_p)

    sb = sideband_amplitudes(ep, delta, a0=ss.a0)
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
        rhs_evals=series.rhs_evals)
