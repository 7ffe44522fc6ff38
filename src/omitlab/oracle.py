"""End-to-end physics oracle: solve the nonlinear mean-value equations in
the time domain for their probe-driven periodic orbit, demodulate one period
of the cavity field into its dc and first-sideband components, and compare
with the closed-form response.

With a stable steady state the probe drive e^{-i delta t} has period
T = 2 pi/|delta|, and the late-time state is the system's T-periodic orbit.
oracle_check finds that orbit by shooting, with one linearisation of the
flow, its Jacobian J at the steady state: from the third-order response of
its own field, Newton steps on y(T) = y(0) with e^{JT}, on runs that carry
the quadratures demodulating the orbit. A check costs one period of
integration whatever the damping: 169 right-hand-side calls and 1 Newton
step across the band 0.9-1.1 omega_m, at Q = 50 and at Q = 1.2e5 alike. A
Floquet multiplier |e^{lambda T}| >= 1, lambda an eigenvalue of J, means
the steady state is unstable and has no steady sidebands, and the oracle
raises Unstable. The closed form enters only the final comparison, so the
time domain stays an independent route.

Every integration goes through solve_ivp, the package's DOP853 stepper
(dop853.py), which takes the steps of scipy's; the package needs numpy only.
"""

import cmath
import math
from collections import namedtuple

import numpy as np

from .dop853 import solve_ivp
from .errors import (BlowUp, ConfigError, IllConditionedFit, StepFailure,
                     Unstable)
from .model import derive_constants, effective_params
from .response import sideband_amplitudes
from .steadystate import solve_steady
from .util import real_array

# the scale of the shooting's convergence test, and ten times the
# integrator's rtol and atol scale (so that the integration error leaves the
# first step from the third-order start within it); read at call time
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


def _flow(cfg, delta, ss=None):
    """The mean-value equations of cfg at probe detuning delta, with both
    drives on, as (run, y_ss, eps_p, floor, field); ss is cfg's steady
    state, solved here if not given.

    The frame rotates at the drive frequency; the bare detuning is chosen so
    that the steady state reproduces the configured effective detuning
    (fixed mode) or equals the configured value (self-consistent mode).
    y_ss is that probe-off steady state (phi1, lz1, phi2, lz2, a), eps_p
    the probe amplitude and field(ys) the probe-off derivatives of the rows
    of ys, complex states of 5 components, by one call of a run's
    right-hand side.
    run(y0s, eps_ps, t_end) integrates one copy of the system per row of
    y0s, copy j at probe amplitude eps_ps[j], from t = 0 to t_end as one
    stacked state in one solve_ivp (DOP853) call (the copies share their
    steps, so the per-step overhead is paid once) and returns its result,
    with t, y and nfev; it raises StepFailure where the stepper stops short
    and BlowUp on a non-finite state. The run's rtol is _TOL/10, and copy
    j's atol _TOL/10 times max(|y0s[j]|, floor), componentwise. Rows of 9
    components rather than 5 also carry the quadratures q' = (a, a w^*,
    a w, |a - a_ss|^2)/T, w = e^{-i delta t}, T = 2 pi/|delta|, that
    _demodulate reads after one period.

    Raises ConfigError for a non-finite delta or a |delta| whose beat
    period spans more than _MAX_BEAT_PERIODS periods of the flow's fastest
    rate (delta = 0 included).
    """
    if not math.isfinite(delta):
        raise ConfigError(f"the detuning must be finite, got {delta!r}")
    dc = derive_constants(cfg)
    ss = solve_steady(cfg) if ss is None else ss
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
        tol = _TOL / 10
        sol = solve_ivp(rhs_of(eps_ps, y0s.shape[1]), (0.0, t_end), y0s.ravel(),
                        rtol=tol, atol=tol * np.maximum(np.abs(y0s), floor).ravel(),
                        first_step=first_step)
        if not sol.success:
            raise StepFailure(f"integrator failed: {sol.message}")
        if not np.all(np.isfinite(sol.y)):
            raise BlowUp("non-finite state encountered during integration")
        return sol

    def field(ys):
        return np.reshape(rhs_of((0.0,) * len(ys), 5)(0.0, ys.ravel()), ys.shape)

    y_ss = np.array([ss.phi10, 0.0, ss.phi20, 0.0, a_ss], dtype=complex)
    return run, y_ss, eps_p, floor, field


def _real(y):
    """(..., 5) complex states as (..., 6) real: phi1, lz1, phi2, lz2, Re a, Im a."""
    return np.concatenate([y[..., :4].real, y[..., 4:].real, y[..., 4:].imag], axis=-1)


def _complex(x):
    """Inverse of _real."""
    return np.concatenate([x[..., :4], x[..., 4:5] + 1j * x[..., 5:]], axis=-1)


def _derivatives(field, y, scale):
    """(J, H) of the quadratic field at y, exact up to rounding, from one
    call of field over the difference points: the real 6x6 Jacobian J, and
    the constant Hessian H, a 6x6x6 array, H(a, b) = H @ b @ a. The
    differences step along each coordinate by its scale (along a small
    step, the second difference cancels to rounding): central for J and
    the diagonal of H, f(y + a + b) - f(y + a) - f(y + b) + f(y) for the
    rest."""
    s = 1 / scale
    steps = np.eye(6) / s[:, None]
    j, k = np.triu_indices(6, 1)
    f = _real(field(y + _complex(np.vstack([np.zeros(6), steps, -steps,
                                            steps[j] + steps[k]]))))
    f0, plus, minus = f[0], f[1:7], f[7:13]
    H = np.empty((6, 6, 6))
    H[:, range(6), range(6)] = ((plus + minus - 2 * f0) * (s * s)[:, None]).T
    mixed = (f[13:] - plus[j] - plus[k] + f0) * (s[j] * s[k])[:, None]
    H[:, j, k] = H[:, k, j] = mixed.T
    return ((plus - minus) * (s / 2)[:, None]).T, H


def _starts(J, H, y_ss, eps_ps, delta):
    """One start per probe amplitude eps: the flow's periodic response to
    the probe at t = 0 to third order, y_ss + eps 2 Re x1 + eps^2 (2 Re x22
    + x20) + eps^3 2 Re (x33 + x31). With R(m) = (-i m delta - J)^-1 and
    p = (0, 0, 0, 0, 1, -i) the probe's direction in the coordinates of
    _real, x1 = R(1) p/2; the field's quadratic part H(x, x)/2 then drives
    x22 = R(2) H(x1, x1)/2 and x20 = R(0) H(x1^*, x1), and x33 = R(3)
    H(x1, x22) and x31 = R(1) [H(x1, x20) + H(x1^*, x22)]."""
    def R(m, v):
        return np.linalg.solve(-1j * m * delta * np.eye(6) - J, v)

    def h(a, b):
        return H @ b @ a
    x1 = R(1, np.array([0, 0, 0, 0, 1, -1j])) / 2
    x22 = R(2, h(x1, x1)) / 2
    x20 = R(0, h(x1.conj(), x1)).real
    x3 = R(3, h(x1, x22)) + R(1, h(x1, x20) + h(x1.conj(), x22))
    eps = np.asarray(eps_ps)[:, None]
    return y_ss + _complex(eps * (2 * x1.real + eps * (2 * x22.real + x20
                                                       + 2 * eps * x3.real)))


def _periodic_orbit(cfg, delta):
    """Shoot for the orbit of period T = 2 pi/|delta| that the probe drive
    e^{-i delta t} forces at the full and at half the probe amplitude, and
    demodulate it on the shooting's own runs.

    Returns (states, quadratures, eps_ps, newton_iterations, floquet_max,
    rhs_evals, ss): the orbit's initial states, one row per amplitude of
    the tuple eps_ps; their quadratures of _flow over one period, as
    _demodulate reads them; the shooting's cost; max |e^{lambda T}| over
    the eigenvalues lambda of J, the flow's Jacobian (_derivatives); and
    cfg's steady state, solved once per check.

    From the third-order start (_starts), each Newton step integrates both
    amplitudes over T in one stacked run and solves (e^{JT} - I) s =
    -(y(T) - y(0)), until a step is within _TOL in the integrator's atol
    scale: the integration decides, J only steers. Across the band the
    first step is within it, so a check is one run. The last run carries
    the quadratures q of the states x it started from; the converged x + s
    have q + Dq _real(s) to first order, Dq the rows (1/T) P (J + i
    sigma)^-1 (e^{JT} - I), sigma = 0, delta, -delta, P = (0, 0, 0, 0, 1,
    i), of the linear flow (exact, as e^{i sigma T} = 1; the power row,
    read only by the fit residual, is 0). So no run is spent on the
    converged states.

    Raises Unstable, before any run, where floquet_max >= 1, and
    StepFailure if Newton has not converged in _MAX_NEWTON steps.
    """
    ss = solve_steady(cfg)
    run, y_ss, eps_p, floor, field = _flow(cfg, delta, ss)
    if eps_p == 0:
        raise IllConditionedFit("no probe to demodulate: P_p = 0")
    period = 2 * math.pi / abs(delta)
    eps_ps = (eps_p, 0.5 * eps_p)
    scale = np.maximum(np.abs(y_ss), floor)[[0, 1, 2, 3, 4, 4]]
    J, H = _derivatives(field, y_ss, scale)
    lam, V = np.linalg.eig(J)
    floquet_max = float(np.max(np.abs(np.exp(lam * period))))
    if floquet_max >= 1.0:
        raise Unstable(
            f"Floquet multiplier |mu| = {floquet_max:.6g} >= 1 over one probe "
            f"period at delta = {delta!r}: the steady state is unstable and "
            f"has no steady sidebands")
    shooting = ((V * np.exp(lam * period)) @ np.linalg.inv(V)).real - np.eye(6)
    sigma = np.array([0.0, delta, -delta])[:, None, None]
    dq = np.vstack([np.array([0, 0, 0, 0, 1, 1j]) @ np.linalg.solve(
        J + 1j * sigma * np.eye(6), shooting) / period, np.zeros(6)])

    states = _starts(J, H, y_ss, eps_ps, delta)
    rhs_evals = 0
    for iteration in range(1, _MAX_NEWTON + 1):
        sol = run(np.hstack([states, np.zeros_like(states[:, :4])]), eps_ps, period)
        rhs_evals += sol.nfev
        ends = sol.y[:, -1].reshape(-1, 9)
        residual = ends[:, :5] - states
        real_step = np.linalg.solve(shooting, -_real(residual).T).T
        step = _complex(real_step)
        states = states + step
        atol = _TOL * np.maximum(np.abs(states), floor)
        if np.all(np.abs(step) <= atol):
            break
    else:
        raise StepFailure(
            f"periodic orbit not found in {_MAX_NEWTON} Newton steps: "
            f"|y(T) - y(0)| is {np.max(np.abs(residual) / atol):.3e} times atol")
    return (states, ends[:, 5:] + real_step @ dq.T, eps_ps, iteration, floquet_max,
            int(rhs_evals), ss)


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


class OracleReport(namedtuple("OracleReport", (
        "delta a0_rel_err a_plus_rel_err a_minus_rel_err linearity_rel_change full_amplitude "
        "half_amplitude fit_residual passed a_plus_est a_plus_closed a_minus_est a_minus_closed "
        "rhs_evals newton_iterations floquet_max"))):
    """Closed form vs time domain at one detuning of the configured system.
    The *_rel_err, a_plus_est and a_minus_est are those of the estimates
    extrapolated from the full and the half probe amplitude (oracle_check);
    full_amplitude and half_amplitude hold the three errors of each
    amplitude alone. fit_residual, the full amplitude's, carries the
    integration error of the power quadrature it is the small difference
    of (1.1 % high at most across the band); passed does not use it."""

    __slots__ = ()

    def as_dict(self):
        keys = ("delta", "a0_rel_err", "a_plus_rel_err", "a_minus_rel_err",
                "linearity_rel_change", "full_amplitude", "half_amplitude", "fit_residual")
        return {**{k: getattr(self, k) for k in keys}, "pass": self.passed}


def _rel(x, ref, scale=0.0):
    """Relative deviation; a zero reference is judged against scale."""
    denom = abs(ref) if ref != 0 else scale
    return abs(x - ref) / max(denom, 1e-300)


def oracle_check(cfg, delta):
    """Compare the closed form with the time domain of cfg at one detuning.

    The periodic orbit is found by shooting (_periodic_orbit) for the full
    and the half probe amplitude together, and demodulated from the
    quadratures the shooting's runs carry. A finite probe shifts a0,
    a_plus and a_minus by O(eps_p^2) (a0's rectification reaches 2.6e-6 at
    the default Q), so the verdict judges their extrapolation
    (4 half - full)/3, in which those terms cancel. Thresholds: a0 within
    1e-6, a_plus within 1e-3, a_minus within 1e-2 relative; halving eps_p
    must change the a_plus estimate by < 1e-3 relative (linearity).
    rhs_evals counts the right-hand-side calls of every integration of the
    check. Raises Unstable where the steady state has a Floquet multiplier
    |mu| >= 1. To check at a relaxed damping, pass replace(cfg, Q1=q, Q2=q).
    """
    delta = float(real_array(delta))
    (_, quadratures, (eps_p, eps_half), newton_iterations, floquet_max,
     rhs_evals, ss) = _periodic_orbit(cfg, delta)
    q, q_half = quadratures.tolist()
    *full, fit_residual = _demodulate(q, eps_p, ss.a0)
    half = _demodulate(q_half, eps_half, ss.a0)[:3]
    estimates = [(4 * h - f) / 3 for f, h in zip(full, half)]

    # the closed form enters here, for the comparison only
    sb = sideband_amplitudes(effective_params(cfg, ss), delta, a0=ss.a0)

    def errors(a0_est, a_plus_est, a_minus_est, eps):
        # undriven configurations have a0 = a_minus = 0 exactly; judge those
        # estimates against the field scale actually present in the trace
        return {"a0_rel_err": _rel(a0_est, ss.a0, scale=abs(eps) * abs(sb.a_plus)),
                "a_plus_rel_err": _rel(a_plus_est, sb.a_plus),
                "a_minus_rel_err": _rel(a_minus_est, sb.a_minus, scale=abs(sb.a_plus))}
    errs = {**errors(*estimates, eps_p), "linearity_rel_change": _rel(half[1], full[1])}
    return OracleReport(
        delta=delta, **errs, full_amplitude=errors(*full, eps_p),
        half_amplitude=errors(*half, eps_half), fit_residual=fit_residual,
        passed=all(errs[field] < thr for _, field, thr in _THRESHOLDS),
        a_plus_est=estimates[1], a_plus_closed=sb.a_plus,
        a_minus_est=estimates[2], a_minus_closed=sb.a_minus,
        rhs_evals=rhs_evals, newton_iterations=newton_iterations,
        floquet_max=floquet_max)
