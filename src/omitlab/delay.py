"""Phase dispersion and group delay of the transmitted probe.

tau_g = d arg(t_p) / d omega_p, evaluated at fixed drive frequency so the
derivative is with respect to Delta. Two independent methods are provided:
an exact derivative of the closed-form response (default) and a central
finite difference with one Richardson step; they cross-validate each other.
A positive tau_g is slow light, negative is fast light: kind_codes gives
each delay a one-byte code, named by KIND_NAMES only where it is printed.
Both methods run batched and flag the cells where the delay is undefined;
the (P, L) delay map is a sweep.sweep_2d map.
"""

import warnings
from collections import namedtuple

import numpy as np

from . import errors
from .errors import ConfigError
from .response import probe_response
from .util import FLAG_ERRORS, flag_cells, scalar_in_scalar_out, stacklevel_outside

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
        warnings.warn("phase grid undersampled: a successive difference exceeds "
                      "0.95*pi after unwrapping", stacklevel=stacklevel_outside())
    return out


DelayResult = namedtuple("DelayResult", "tau_g method step classification t_p_magnitude")
DelayResult.__doc__ = """Group delay at one point.

method is "analytic" or "central-difference" (step recorded for the
latter); classification is "slow", "fast" or "neutral" per the sign of
tau_g against the 1e-12 s threshold.
"""


# the names of the kind codes of kind_codes; codes are stable, and a new
# kind takes the next code
KIND_NAMES = ("", "slow", "fast", "neutral")


def kind_codes(tau):
    """Per element of tau, the uint8 code of its kind in KIND_NAMES: slow
    above 1e-12 s, fast below -1e-12 s, neutral between, 0 where tau is
    nan."""
    tau = np.asarray(tau)
    return np.select([tau > _NEUTRAL_THRESH, tau < -_NEUTRAL_THRESH,
                      np.abs(tau) <= _NEUTRAL_THRESH], [1, 2, 3], 0).astype(np.uint8)


def _local_unwrap(center, value):
    """Shift value by multiples of 2*pi into (center - pi, center + pi]."""
    two_pi = 2.0 * np.pi
    k = np.floor((value - center + np.pi) / two_pi)
    return value - k * two_pi


@scalar_in_scalar_out
def _delays(ep, delta, method="analytic", h=None, flags=0):
    """(pr, tau_g, step, flags) over the broadcast of ep and delta, from one
    pass of the closed-form kernel: its ProbeResponse, the group delay by
    method, the finite-difference step (None for "analytic") and the
    per-cell flag codes.

    On top of the incoming flags: DegenerateDenominator where the kernel
    marks d degenerate, NearZeroTransmission where |t_p| < 1e-14 and
    StepTooLarge where the Richardson pair disagrees beyond 1e-4 relative.
    A flagged cell has tau_g nan.
    """
    if method not in ("analytic", "fd"):
        raise ConfigError(f"unknown group-delay method {method!r}")
    if method == "analytic" and h is not None:
        raise ConfigError("a finite-difference step applies to method 'fd' only")
    if not np.isfinite(delta).all():
        raise ConfigError("the detuning must be finite")
    pr = probe_response(ep, delta)
    flags = flag_cells(flags, pr.degenerate, errors.DegenerateDenominator)
    flags = flag_cells(flags, np.abs(pr.t_p) < _TP_FLOOR, errors.NearZeroTransmission)
    step = None
    if method == "analytic":
        with np.errstate(divide="ignore", invalid="ignore"):
            tau = np.imag(-pr.deps_T / pr.t_p)
    else:
        step = float(1e-6 * ep.omega_m if h is None else h)
        if not 0 < step < np.inf:
            raise ConfigError(f"finite-difference step must lie in (0, inf), got {step!r}")
        # the stencil Delta +- h, Delta +- h/2 stacks on axis 0 of one
        # kernel call; each phase is taken on the centre's branch
        delta = np.broadcast_to(delta, pr.t_p.shape)
        half = step / 2.0
        pp, pm, pp2, pm2 = _local_unwrap(pr.phase, probe_response(ep, np.stack(
            [delta + step, delta - step, delta + half, delta - half])).phase)
        d1 = (pp - pm) / (2.0 * step)
        d2 = (pp2 - pm2) / (2.0 * half)
        tau = (4.0 * d2 - d1) / 3.0
        flags = flag_cells(flags, np.abs(d1 - d2) > _RICHARDSON_RTOL * np.maximum(
            np.abs(tau), _NEUTRAL_THRESH), errors.StepTooLarge)
    return pr, np.where(flags == 0, tau, np.nan), step, flags


def tau_g_analytic(ep, delta):
    """Analytic group delay at delta (scalar or array); nan where the cell
    is flagged (degenerate d, or |t_p| below the floor)."""
    return _delays(ep, delta)[1]


def group_delay(ep, a0, delta, method="analytic", h=None):
    """DelayResult at a single detuning.

    method "analytic" differentiates the closed form exactly; "fd" uses the
    centered stencil with branch-consistent phases at steps h and h/2 and one
    Richardson extrapolation (default h = 1e-6 * omega_m; with "analytic" an
    h is a ConfigError). Raises DegenerateDenominator where d is degenerate,
    NearZeroTransmission when |t_p| < 1e-14 and StepTooLarge when the
    Richardson pair disagrees beyond 1e-4 relative. a0 sets only the phase
    of the a_minus sideband, so it does not enter t_p or tau_g. A complex
    delta is a ConfigError, raised by _delays.
    """
    pr, tau, step, flag = _delays(ep, delta, method, h)
    delta = float(delta)
    t_p_magnitude = float(np.abs(pr.t_p))  # abs() can differ in the last bit
    if flag:
        error = FLAG_ERRORS[flag]
        raise error(f"at delta = {delta!r} (|t_p| = {t_p_magnitude:.3e}, "
                    f"h = {step!r}): {error.__doc__}")
    return DelayResult(tau, "analytic" if step is None else "central-difference", step,
                       KIND_NAMES[kind_codes(tau)], t_p_magnitude)
