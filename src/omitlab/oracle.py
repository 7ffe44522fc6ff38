"""End-to-end physics oracle: solve the nonlinear mean-value equations in
the time domain for their probe-driven periodic orbit, demodulate one period
of the cavity field into its dc and first-sideband components, and compare
with the closed-form response.

With a stable steady state the probe drive e^{-i delta t} has period
T = 2 pi/|delta|, and the late-time state is the system's T-periodic orbit.
oracle_check finds that orbit by shooting: it starts from the linear
response of the flow's own field, takes a monodromy matrix from finite
differences over one period, then Newton steps on y(T) = y(0). Every run
carries the quadratures that demodulate the orbit, and those of the
converged states follow from the last run's by a first-order correction
over the last step. So a check costs two periods of integration whatever
the damping: 266 right-hand-side calls and 2 Newton steps across the band
0.9-1.1 omega_m, at Q = 50 and at the production Q = 1.2e5 alike. The
check integrates the configured system, mirror Q included: a relaxed
damping is a config with smaller Q1 and Q2. A largest Floquet multiplier
|mu| >= 1 means the steady state is unstable and has no steady sidebands;
the oracle raises Unstable.
The closed form enters only the final comparison, so the time domain stays
an independent route.

Every integration goes through solve_ivp, the package's DOP853 stepper
(dop853.py), which takes the steps of scipy's; the package needs numpy only.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .dop853 import solve_ivp
from .errors import (BlowUp, ConfigError, IllConditionedFit, StepFailure,
                     Unstable)
from .model import derive_constants, effective_params
from .response import sideband_amplitudes
from .steadystate import solve_steady

# the integrator's rtol, and the scale of its atol and of the shooting's
# convergence test; read at call time
_TOL = 1e-10
# the longest beat period 2 pi/|delta| integrated, in periods of the flow's
# fastest rate: the steps of a check grow like that ratio
_MAX_BEAT_PERIODS = 100.0
# Newton steps on the periodic orbit before StepFailure
_MAX_NEWTON = 30
# oracle pass thresholds on relative errors of (a0, a_plus, a_minus) and on
# the linearity check: (label, OracleReport field, threshold)
_THRESHOLDS = (("a0", "a0_rel_err", 1e-6),
               ("a_plus", "a_plus_rel_err", 1e-3),
               ("a_minus", "a_minus_rel_err", 1e-2),
               ("linearity", "linearity_rel_change", 1e-3))


def _flow(cfg, delta):
    """The mean-value equations of cfg at probe detuning delta, with both
    drives on, as (run, y_ss, eps_p, floor, field).

    The frame rotates at the drive frequency; the bare detuning is chosen so
    that the steady state reproduces the configured effective detuning
    (fixed mode) or equals the configured value (self-consistent mode).
    y_ss is that probe-off steady state (phi1, lz1, phi2, lz2, a), eps_p
    the probe amplitude and field(y) the probe-off derivative of one copy,
    y a complex array of 5 components, by the run's right-hand side.
    run(y0s, eps_ps, t_end) integrates one copy of the system per row of
    y0s, copy j at probe amplitude eps_ps[j], from t = 0 to t_end as one
    stacked state in one solve_ivp (DOP853) call (the copies share their
    steps, so the per-step overhead is paid once) and returns its result,
    with t, y and nfev; it raises StepFailure where the stepper stops short
    and BlowUp on a non-finite state. Copy j's absolute tolerance is _TOL
    times max(|y0s[j]|, floor), componentwise. Rows of 9 components rather
    than 5 also carry the quadratures q' = (a, a w^*, a w, |a - a_ss|^2)/T,
    w = e^{-i delta t}, T = 2 pi/|delta|, that _demodulate reads after one
    period.

    Raises ConfigError for a non-finite delta or a |delta| whose beat
    period spans more than _MAX_BEAT_PERIODS periods of the flow's fastest
    rate (delta = 0 included).
    """
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
    a_ss = ss.a0
    floor = max(abs(a_ss), 1.0)
    rate = max(om1, om2, abs(delta), abs(delta0), kappa)
    if rate > _MAX_BEAT_PERIODS * abs(delta):
        raise ConfigError(
            f"|delta| = {abs(delta):.4g} rad/s is below 1/{_MAX_BEAT_PERIODS:g} "
            f"of the flow's fastest rate {rate:.4g} rad/s: its beat period "
            f"2 pi/|delta| is too long to integrate")
    period = 2 * math.pi / abs(delta)
    # a first step from the configuration and delta alone, so that a run's
    # steps, and so the estimates, do not depend on an earlier run
    first_step = min(period / 16, 1 / rate)

    def rhs_of(eps_ps, width):
        # Python-scalar arithmetic: on a few copies of 5 components, numpy's
        # per-call overhead would cost more than the arithmetic itself
        copies = [(width * j, eps) for j, eps in enumerate(eps_ps)]

        def rhs(t, y):
            probe = cmath.exp(-1j * delta * t)
            y = y.tolist()
            out = []
            for k, eps in copies:
                phi1, lz1, phi2, lz2, a = y[k:k + 5]
                phi1, lz1, phi2, lz2 = phi1.real, lz1.real, phi2.real, lz2.real
                inten = a.real * a.real + a.imag * a.imag
                out += (om1 * lz1,
                        -om1 * phi1 - g1 * inten - gam1 * lz1,
                        om2 * lz2,
                        -om2 * phi2 + g2 * inten - gam2 * lz2,
                        ((-1j * (delta0 + g1 * phi1 - g2 * phi2) - kappa) * a
                         + eps_c + eps * probe))
                if width == 9:
                    d = a - a_ss
                    out += (a / period, a * probe.conjugate() / period,
                            a * probe / period,
                            (d.real * d.real + d.imag * d.imag) / period)
            return out
        return rhs

    def run(y0s, eps_ps, t_end):
        y0s = np.asarray(y0s, dtype=complex)
        sol = solve_ivp(rhs_of(eps_ps, y0s.shape[1]), (0.0, t_end), y0s.ravel(),
                        rtol=_TOL, atol=_TOL * np.maximum(np.abs(y0s), floor).ravel(),
                        first_step=first_step)
        if not sol.success:
            raise StepFailure(f"integrator failed: {sol.message}")
        if not np.all(np.isfinite(sol.y)):
            raise BlowUp("non-finite state encountered during integration")
        return sol

    def field(y):
        return rhs_of((0.0,), 5)(0.0, y)

    y_ss = np.array([ss.phi10, 0.0, ss.phi20, 0.0, a_ss], dtype=complex)
    return run, y_ss, eps_p, floor, field


def _real(y):
    """(..., 5) complex states as (..., 6) real: phi1, lz1, phi2, lz2, Re a, Im a."""
    return np.concatenate([y[..., :4].real, y[..., 4:].real, y[..., 4:].imag], axis=-1)


def _complex(x):
    """Inverse of _real."""
    return np.concatenate([x[..., :4], x[..., 4:5] + 1j * x[..., 5:]], axis=-1)


def _jacobian(field, y, scale):
    """The real 6x6 Jacobian of field at y, by central differences of steps
    scale: exact up to rounding, the field being quadratic."""
    steps = _complex(np.diag(scale))
    return np.column_stack([_real(np.subtract(field(y + s), field(y - s))) / (2 * d)
                            for s, d in zip(steps, scale.tolist())])


def _linear_starts(J, y_ss, eps_ps, delta):
    """One start per probe amplitude eps: y_ss + Re[eps u], the state at
    t = 0 of the linearised flow's periodic response to the probe, u =
    (-i delta - J)^-1 p with p = (0, 0, 0, 0, 1, -i) the probe's direction
    in the real coordinates of _real."""
    p = np.array([0, 0, 0, 0, 1, -1j])
    u = np.linalg.solve(-1j * delta * np.eye(6) - J, p)
    return y_ss + _complex(np.outer(eps_ps, u).real)


def _periodic_orbit(cfg, delta):
    """Shoot for the orbit of period T = 2 pi/|delta| that the probe drive
    e^{-i delta t} forces at the full and at half the probe amplitude, and
    demodulate it on the shooting's own runs.

    Returns (states, quadratures, eps_ps, newton_iterations, floquet_max,
    rhs_evals): the orbit's initial states, one row per probe amplitude of
    the tuple eps_ps; the quadratures of _flow over one period from them,
    one row of 4 per amplitude, as _demodulate reads them; and the
    shooting's cost and largest Floquet multiplier.

    The shooting starts from the linear response of the flow's own field
    (_linear_starts), its Jacobian J at the steady state taken by central
    differences (_jacobian). One stacked run over T carries that start once
    per amplitude and six copies of the full-amplitude one, perturbed by h_k
    along phi1, lz1, phi2, lz2, Re a and Im a. Their end states give the
    residuals y(T) - y(0) and, by finite differences, the monodromy matrix
    M. Newton steps (M' - I) s = -(y(T) - y(0)), with M' held fixed and
    every amplitude stacked in one run per step, move the initial states
    until a step is below _TOL in the integrator's atol scale: the
    integration's own residual decides, M' only steers. M' is M at the full
    amplitude and (M + e^{JT})/2 at the half: to first order M is linear in
    the amplitude, and e^{JT} is M at amplitude 0. J and the start only
    steer too; the closed form plays no part.

    Every copy of every run carries the quadratures of _flow, so the last
    run has those of the states x it started from. The final step s moves
    the states to x + s, and their quadratures to q(x) + Dq _real(s) to
    first order, Dq = (q_k - q)/h_k the derivative of the full-amplitude
    quadratures with respect to the real start, from the perturbed copies
    of the first run. s is below atol, so the rest is far below the
    integration error, and no run is spent on the converged states: a
    check integrates one period per Newton step, two across the band
    0.9-1.1 omega_m.

    Raises Unstable if the largest Floquet multiplier |mu| (the largest
    |eigenvalue| of M) is >= 1, and StepFailure if Newton has not converged
    after _MAX_NEWTON steps.
    """
    run, y_ss, eps_p, floor, field = _flow(cfg, delta)
    if eps_p == 0:
        raise IllConditionedFit("no probe to demodulate: P_p = 0")
    period = 2 * math.pi / abs(delta)
    eps_ps = (eps_p, 0.5 * eps_p)
    n = len(eps_ps)
    scale = np.maximum(np.abs(y_ss), floor)[[0, 1, 2, 3, 4, 4]]
    J = _jacobian(field, y_ss, scale)
    states = _linear_starts(J, y_ss, eps_ps, delta)
    h = math.sqrt(_TOL) * scale
    starts = np.vstack([states, states[0] + _complex(np.diag(h))])
    sol = run(np.hstack([starts, np.zeros((n + 6, 4))]), eps_ps + (eps_ps[0],) * 6, period)
    rhs_evals = sol.nfev
    ends = sol.y[:, -1].reshape(-1, 9)
    M = (_real(ends[n:, :5]) - _real(ends[0, :5])).T / h
    dq = (ends[n:, 5:] - ends[0, 5:]).T / h
    floquet_max = float(np.max(np.abs(np.linalg.eigvals(M))))
    if floquet_max >= 1.0:
        raise Unstable(
            f"Floquet multiplier |mu| = {floquet_max:.6g} >= 1 over one probe "
            f"period at delta = {delta!r}: the steady state is unstable and "
            f"has no steady sidebands")

    lam, V = np.linalg.eig(J)
    linear = ((V * np.exp(lam * period)) @ np.linalg.inv(V)).real  # e^{JT}
    shooting = np.stack([M, (M + linear) / 2]) - np.eye(6)
    ends = ends[:n]
    residual = ends[:, :5] - states
    for iteration in range(1, _MAX_NEWTON + 1):
        real_step = np.linalg.solve(shooting, -_real(residual)[..., None])[..., 0]
        step = _complex(real_step)
        states = states + step
        atol = _TOL * np.maximum(np.abs(states), floor)
        if np.all(np.abs(step) <= atol):
            break
        sol = run(np.hstack([states, np.zeros((n, 4))]), eps_ps, period)
        rhs_evals += sol.nfev
        ends = sol.y[:, -1].reshape(n, 9)
        residual = ends[:, :5] - states
    else:
        raise StepFailure(
            f"periodic orbit not found in {_MAX_NEWTON} Newton steps: "
            f"|y(T) - y(0)| is {np.max(np.abs(residual) / atol):.3e} times atol")
    return (states, ends[:, 5:] + real_step @ dq.T, eps_ps, iteration, floquet_max,
            int(rhs_evals))


def _demodulate(q, eps_p, a_ss):
    """(a0, a_plus, a_minus, fit residual) of one closed period of the
    orbit from its quadratures q = (1/T) int_0^T (a, a w^*, a w,
    |a - a_ss|^2) dt, w = e^{-i delta t}, at the real probe amplitude eps_p.

    Over a closed period the basis {1, w, w^*} is orthonormal, so the first
    three are the coefficients c0 = a0, c1 = eps_p a_plus and
    c2 = eps_p a_minus, and by Parseval the part of a outside the basis has
    mean power r^2 = q3 - |c0 - a_ss|^2 - |c1|^2 - |c2|^2. The residual is
    r over the rms of a. Taking the power about the steady state a_ss
    rather than about 0 keeps r^2 clear of the cancellation of |a0|^2.
    """
    c0, c1, c2, power = q
    r2 = max(power.real - abs(c0 - a_ss) ** 2 - abs(c1) ** 2 - abs(c2) ** 2, 0.0)
    total = abs(c0) ** 2 + abs(c1) ** 2 + abs(c2) ** 2 + r2
    return c0, c1 / eps_p, c2 / eps_p, math.sqrt(r2 / total)


@dataclass(frozen=True)
class OracleReport:
    """Closed form vs time domain at one detuning of the configured system.
    fit_residual carries the integration error of the power quadrature it
    is the small difference of (up to 11 % high at _TOL = 1e-10); passed
    does not use it."""

    delta: float
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


def oracle_check(cfg, delta):
    """Compare the closed form with the time domain of cfg at one detuning.

    The periodic orbit is found by shooting (_periodic_orbit) for the full
    and the half probe amplitude together, and demodulated from the
    quadratures the shooting's runs carry. Thresholds: a0 within 1e-6, a_plus
    within 1e-3, a_minus within 1e-2 relative; halving eps_p must change
    the a_plus estimate by < 1e-3 relative (linearity). rhs_evals counts
    the right-hand-side calls of every integration of the check. Raises
    Unstable where the steady state has a Floquet multiplier |mu| >= 1.
    To check at a relaxed damping, pass replace(cfg, Q1=q, Q2=q).
    """
    delta = float(delta)
    (_, quadratures, (eps_p, eps_half), newton_iterations, floquet_max,
     rhs_evals) = _periodic_orbit(cfg, delta)
    ss = solve_steady(cfg)
    q, q_half = quadratures.tolist()
    a0_est, a_plus_est, a_minus_est, fit_residual = _demodulate(q, eps_p, ss.a0)
    a_plus_half = _demodulate(q_half, eps_half, ss.a0)[1]

    # the closed form enters here, for the comparison only
    sb = sideband_amplitudes(effective_params(cfg, ss), delta, a0=ss.a0)
    # undriven configurations have a0 = a_minus = 0 exactly; judge those
    # estimates against the field scale actually present in the trace
    errs = {"a0_rel_err": _rel(a0_est, ss.a0, scale=abs(eps_p) * abs(sb.a_plus)),
            "a_plus_rel_err": _rel(a_plus_est, sb.a_plus),
            "a_minus_rel_err": _rel(a_minus_est, sb.a_minus,
                                    scale=abs(sb.a_plus)),
            "linearity_rel_change": _rel(a_plus_half, a_plus_est)}
    return OracleReport(
        delta=delta, **errs, fit_residual=fit_residual,
        passed=all(errs[field] < thr for _, field, thr in _THRESHOLDS),
        a_plus_est=a_plus_est, a_plus_closed=sb.a_plus,
        a_minus_est=a_minus_est, a_minus_closed=sb.a_minus,
        rhs_evals=rhs_evals, newton_iterations=newton_iterations,
        floquet_max=floquet_max)
