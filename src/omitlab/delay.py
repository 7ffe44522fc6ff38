"""Phase dispersion and group delay of the transmitted probe.

tau_g = d arg(t_p) / d omega_p, evaluated at fixed drive frequency so the
derivative is with respect to Delta. Two independent methods are provided:
an exact derivative of the closed-form response (default) and a central
finite difference with one Richardson step; they cross-validate each other.
A positive tau_g is slow light, negative is fast light. Both methods run
batched, flagging the cells where the delay is undefined.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NearZeroTransmission, StepTooLarge
from .response import _pieces, probe_response
from .steadystate import effective_grid
from .util import flag_cells, with_python_scalars

# |t_p| below this leaves the phase (and its derivative) undefined
_TP_FLOOR = 1e-14
# classification threshold on |tau_g| in seconds
_NEUTRAL_THRESH = 1e-12
# Richardson pair disagreement tolerance, relative
_RICHARDSON_RTOL = 1e-4


def unwrap_phase(phases):
    """Unwrap a phase sequence sampled on a monotone grid.

    Each output differs from its input by a multiple of 2*pi, the first
    element is unchanged, and successive differences lie in (-pi, pi].
    Warns when any corrected difference exceeds 0.95*pi: at that spacing the
    branch choice is ambiguous and the grid is likely undersampled.
    """
    ph = np.asarray(phases, dtype=float)
    if ph.ndim != 1:
        raise ConfigError("unwrap_phase expects a 1-d sequence")
    out = np.unwrap(ph)
    if out.size > 1 and np.max(np.abs(np.diff(out))) > 0.95 * np.pi:
        warnings.warn("phase grid undersampled: a successive difference "
                      "exceeds 0.95*pi after unwrapping", stacklevel=2)
    return out


def _tp_and_derivative(ep, delta):
    """t_p and dt_p/dDelta from exact differentiation of the closed form."""
    # 1-element arrays keep scalar input on the vector ufunc path
    scalar = np.ndim(delta) == 0
    delta = np.atleast_1d(np.asarray(delta, dtype=float))
    A, Ap, L1, L2, B, d = _pieces(ep, delta)
    N = A * L1 * L2 + 1j * B

    dL1 = -2.0 * delta - 1j * ep.gamma1
    dL2 = -2.0 * delta - 1j * ep.gamma2
    dA = -1j
    dAp = -1j
    dB = ep.G1 ** 2 * ep.omega_phi1 * dL2 + ep.G2 ** 2 * ep.omega_phi2 * dL1
    dN = dA * L1 * L2 + A * (dL1 * L2 + L1 * dL2) + 1j * dB
    dd = (dA * Ap + A * dAp) * L1 * L2 + A * Ap * (dL1 * L2 + L1 * dL2) \
        - 2.0 * ep.delta_prime * dB

    with np.errstate(divide="ignore", invalid="ignore"):
        da_plus = (dN * d - N * dd) / (d * d)
        t_p = 1.0 - 2.0 * ep.kappa * N / d
    dt_p = -2.0 * ep.kappa * da_plus
    if scalar:
        return complex(t_p[0]), complex(dt_p[0])
    return t_p, dt_p


@dataclass(frozen=True)
class DelayResult:
    """Group delay at one point.

    method is "analytic" or "central-difference" (step recorded for the
    latter); classification is "slow", "fast" or "neutral" per the sign of
    tau_g against the 1e-12 s threshold.
    """

    tau_g: float
    method: str
    step: object
    classification: str
    t_p_magnitude: float


def _classify(tau):
    """Per element of tau: slow, fast or neutral; "" where tau is nan."""
    return np.select([tau > _NEUTRAL_THRESH, tau < -_NEUTRAL_THRESH, np.isnan(tau)],
                     ["slow", "fast", ""], "neutral")


def _local_unwrap(center, value):
    """Shift value by multiples of 2*pi into (center - pi, center + pi]."""
    two_pi = 2.0 * np.pi
    k = np.floor((value - center + np.pi) / two_pi)
    return value - k * two_pi


def _fd_slope(ep, delta, h):
    pc = probe_response(ep, delta).phase
    pp = _local_unwrap(pc, probe_response(ep, delta + h).phase)
    pm = _local_unwrap(pc, probe_response(ep, delta - h).phase)
    return (pp - pm) / (2.0 * h)


def _delays(ep, delta, method="analytic", h=None, flags=""):
    """Group delay over the broadcast of ep and delta.

    Returns a DelayResult with array fields and the per-cell flags: on top
    of the incoming flags, NearZeroTransmission where |t_p| < 1e-14 and
    StepTooLarge where the Richardson pair disagrees beyond 1e-4 relative.
    A flagged cell has tau_g nan and classification "".
    """
    if method not in ("analytic", "fd", "central-difference"):
        raise ConfigError(f"unknown group-delay method {method!r}")
    t_p, dt_p = _tp_and_derivative(ep, delta)
    tp_mag = np.abs(t_p)
    flags = flag_cells(flags, tp_mag < _TP_FLOOR, NearZeroTransmission)
    step = None
    if method == "analytic":
        with np.errstate(divide="ignore", invalid="ignore"):
            tau = np.imag(dt_p / t_p)
    else:
        method, step = "central-difference", float(1e-6 * ep.omega_m if h is None else h)
        if step <= 0:
            raise ConfigError(f"finite-difference step must be > 0, got {step!r}")
        d1 = _fd_slope(ep, delta, step)
        d2 = _fd_slope(ep, delta, step / 2.0)
        tau = (4.0 * d2 - d1) / 3.0
        flags = flag_cells(flags, np.abs(d1 - d2) > _RICHARDSON_RTOL * np.maximum(
            np.abs(tau), _NEUTRAL_THRESH), StepTooLarge)
    tau = np.where(flags == "", tau, np.nan)
    return DelayResult(tau, method, step, _classify(tau), tp_mag), flags


def tau_g_analytic(ep, delta):
    """Vectorized analytic group delay; nan where |t_p| is below the floor."""
    return _delays(ep, delta)[0].tau_g


def group_delay(ep, a0, delta, method="analytic", h=None):
    """DelayResult at a single detuning.

    method "analytic" differentiates the closed form exactly; "fd" uses the
    centered stencil with branch-consistent phases at steps h and h/2 and one
    Richardson extrapolation (default h = 1e-6 * omega_m). Raises
    NearZeroTransmission when |t_p| < 1e-14 and StepTooLarge when the
    Richardson pair disagrees beyond 1e-4 relative. a0 sets only the phase
    of the a_minus sideband, so it does not enter t_p or tau_g.
    """
    delta = float(delta)
    # a 1-element array keeps the point on the vector ufunc path of the maps
    res, flags = _delays(ep, np.array([delta]), method, h)
    if flags[0] == "NearZeroTransmission":
        raise NearZeroTransmission(
            f"|t_p| = {res.t_p_magnitude[0]:.3e} at delta = {delta!r}: phase undefined")
    if flags[0]:
        raise StepTooLarge(f"Richardson pair disagrees beyond {_RICHARDSON_RTOL:g} "
                           f"relative at delta = {delta!r} (h = {res.step!r})")
    return with_python_scalars(
        DelayResult, tau_g=res.tau_g[0], method=res.method, step=res.step,
        classification=res.classification[0], t_p_magnitude=res.t_p_magnitude[0])


@dataclass(frozen=True)
class DelayMap:
    """Group delay over a (P, L) grid at fixed detuning.

    Index [i, j] is (P_grid[i], L_grid[j]). flags[i][j] names the error of
    a failed cell ("" on success); there tau_g [s] is nan and classification
    "". cells[i][j] is the cell's DelayResult, or None if it failed.
    """

    P_grid: object
    L_grid: object
    delta: float
    flags: object
    tau_g: object
    classification: object
    t_p_magnitude: object
    method: str
    step: object

    @property
    def cells(self):
        rows = zip(self.flags, self.tau_g, self.classification, self.t_p_magnitude)
        return [[None if f else DelayResult(float(t), self.method, self.step,
                                            str(c), float(m))
                 for f, t, c, m in zip(*row)] for row in rows]


def delay_map(cfg, P_grid, L_grid, delta, method="analytic"):
    """Evaluate the group delay on a (P, L) grid at one detuning.

    L values are rounded to the nearest integer quantum number. One batched
    steady-state solve covers the grid; per-cell numerical failures are
    recorded in the flags matrix and do not abort the map.
    """
    P_grid = np.asarray(P_grid, dtype=float)
    L_grid = np.asarray(L_grid, dtype=float)
    if P_grid.size == 0 or L_grid.size == 0:
        raise ConfigError("delay_map grids must be nonempty")
    delta = float(delta)
    ep, flags = effective_grid(cfg, P=P_grid[:, None], L=L_grid[None, :])
    res, flags = _delays(ep, np.full((P_grid.size, L_grid.size), delta),
                         method, flags=flags)
    return DelayMap(P_grid=P_grid, L_grid=L_grid, delta=delta,
                    flags=flags.tolist(), tau_g=res.tau_g,
                    classification=res.classification,
                    t_p_magnitude=res.t_p_magnitude, method=res.method,
                    step=res.step)
