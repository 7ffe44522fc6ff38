"""First-order probe response of the driven cavity.

Linearizing the mean-value equations around the steady state with the ansatz
<s> = s0 + s_plus eps_p e^{-i Delta t} + s_minus eps_p^* e^{+i Delta t} gives
closed-form sideband amplitudes

    a_plus  = [A L1 L2 + i B] / d,
    a_minus = (a0^2/|a0|^2) * i * conj(B) / conj(d),

with A = kappa - i(Delta' + Delta), A' = kappa + i(Delta' - Delta),
Lj = omega_phi_j^2 - Delta^2 - i gamma_j Delta,
B = G1^2 omega_phi1 L2 + G2^2 omega_phi2 L1 and
d = A A' L1 L2 - 2 Delta' B.

The output-field quantities follow from input-output theory:
eps_T = 2 kappa a_plus = nu_p + i u_p, t_p = 1 - eps_T. ``probe_response``
returns them with the exact Delta-derivative of eps_T, in one batched pass
that every spectrum, map and group delay goes through.

``sideband_linear_solve`` re-derives a_plus and a_minus by assembling and
solving the raw 10x10 linear system of e^{-+i Delta t} coefficients with a
dense solver; it shares no algebra with the closed form and serves as an
independent check of it.
"""

from dataclasses import dataclass

import numpy as np

from .errors import SingularSystem
from .util import scalar_in_scalar_out

# relative threshold below which d(delta) counts as degenerate
_DEGENERATE_RTOL = 1e-30


def lambda_j(delta, omega_phi, gamma):
    """Mechanical response denominator omega_phi^2 - delta^2 - i gamma delta."""
    return omega_phi ** 2 - delta ** 2 - 1j * gamma * delta


@dataclass(frozen=True)
class SidebandAmplitudes:
    """First-order sideband amplitudes and the shared denominator.

    degenerate marks points where |d| fell below the threshold relative to
    |A A' L1 L2|; values are still returned (possibly inf/nan), never silently
    patched. da_plus is d a_plus / d Delta, differentiated exactly (None from
    the linear solve).
    """

    a_plus: object
    a_minus: object
    d_delta: object
    degenerate: object
    da_plus: object = None


def _pieces(ep, delta):
    delta = np.asarray(delta, dtype=float)
    A = ep.kappa - 1j * (ep.delta_prime + delta)
    Ap = ep.kappa + 1j * (ep.delta_prime - delta)
    L1 = lambda_j(delta, ep.omega_phi1, ep.gamma1)
    L2 = lambda_j(delta, ep.omega_phi2, ep.gamma2)
    B = ep.G1 ** 2 * ep.omega_phi1 * L2 + ep.G2 ** 2 * ep.omega_phi2 * L1
    d = A * Ap * L1 * L2 - 2.0 * ep.delta_prime * B
    return A, Ap, L1, L2, B, d


def _phase_factor(a0):
    """a0^2/|a0|^2, defined as 1 at a0 = 0 (a_minus vanishes there anyway)."""
    if a0 is None:
        return 1.0
    a0 = complex(a0)
    mag2 = a0.real ** 2 + a0.imag ** 2
    if mag2 == 0.0:
        return 1.0
    return a0 * a0 / mag2


@scalar_in_scalar_out
def sideband_amplitudes(ep, delta, a0=None):
    """Closed-form a_plus, a_minus and d a_plus / d Delta at detuning delta
    (scalar or array): the one kernel behind every response and delay.

    a0 only sets the phase factor a0^2/|a0|^2 of a_minus; omit it and the
    factor defaults to 1 (a_plus is unaffected either way).
    """
    A, Ap, L1, L2, B, d = _pieces(ep, delta)
    N = A * L1 * L2 + 1j * B
    dA = dAp = -1j
    dL1 = -2.0 * delta - 1j * ep.gamma1
    dL2 = -2.0 * delta - 1j * ep.gamma2
    dB = ep.G1 ** 2 * ep.omega_phi1 * dL2 + ep.G2 ** 2 * ep.omega_phi2 * dL1
    dN = dA * L1 * L2 + A * (dL1 * L2 + L1 * dL2) + 1j * dB
    dd = (dA * Ap + A * dAp) * L1 * L2 + A * Ap * (dL1 * L2 + L1 * dL2) \
        - 2.0 * ep.delta_prime * dB
    with np.errstate(divide="ignore", invalid="ignore"):
        a_plus = N / d
        a_minus = _phase_factor(a0) * 1j * np.conj(B) / np.conj(d)
        da_plus = (dN * d - N * dd) / (d * d)
    degenerate = np.abs(d) <= _DEGENERATE_RTOL * np.abs(A * Ap * L1 * L2)
    return SidebandAmplitudes(a_plus, a_minus, d, degenerate, da_plus)


@dataclass(frozen=True)
class ProbeResponse:
    """Output-field quantities at the probe frequency.

    nu_p + i u_p = 2 kappa a_plus exactly; t_p = 1 - eps_T = -eps_out_plus;
    phase is the principal-value argument of t_p; deps_T is the exact
    derivative of eps_T with respect to Delta.
    """

    eps_T: object
    nu_p: object
    u_p: object
    eps_out_plus: object
    eps_out_minus: object
    t_p: object
    phase: object
    degenerate: object
    deps_T: object


@scalar_in_scalar_out
def probe_response(ep, delta, a0=None):
    """ProbeResponse at detuning delta (scalar or array)."""
    sb = sideband_amplitudes(ep, delta, a0=a0)
    eps_T = 2.0 * ep.kappa * sb.a_plus
    t_p = 1.0 - eps_T
    return ProbeResponse(
        eps_T=eps_T, nu_p=eps_T.real, u_p=eps_T.imag,
        eps_out_plus=eps_T - 1.0, eps_out_minus=2.0 * ep.kappa * sb.a_minus,
        t_p=t_p, phase=np.angle(t_p), degenerate=sb.degenerate,
        deps_T=2.0 * ep.kappa * sb.da_plus)


def eps_out_zero(kappa, a0, eps_c):
    """Output field at the drive frequency, 2 kappa a0 - eps_c."""
    return 2.0 * kappa * a0 - eps_c


def sideband_linear_solve(ep, a0, delta):
    """a_plus, a_minus from the raw 10x10 sideband system (scalar delta).

    Unknowns: [phi1+, phi2+, lz1+, lz2+, a+, phi1-*, phi2-*, lz1-*, lz2-*, a-*].
    The plus block collects e^{-i Delta t} coefficients of the linearized
    equations; the minus block is the complex conjugate of the e^{+i Delta t}
    coefficients. Both mirror blocks couple to the same intensity beat
    S = a0* a+ + a0 a-*. Requires ep and a0 consistent (G_j = g_j |a0|).
    """
    delta = float(delta)
    kappa, dp = ep.kappa, ep.delta_prime
    om1, om2 = ep.omega_phi1, ep.omega_phi2
    g1m, g2m = ep.gamma1, ep.gamma2
    a0 = complex(a0)
    mag = abs(a0)
    if mag > 0:
        g1a0 = ep.G1 * (a0 / mag)   # g1 * a0
        g2a0 = ep.G2 * (a0 / mag)
    else:
        g1a0 = g2a0 = 0.0 + 0.0j

    M = np.zeros((10, 10), dtype=complex)
    b = np.zeros(10, dtype=complex)
    miD = -1j * delta

    # plus block: mirror kinematics, mirror dynamics, cavity
    M[0, 0] = miD
    M[0, 2] = -om1
    M[1, 1] = miD
    M[1, 3] = -om2
    # g_alpha1 = -g1: rhs term is -g1 * S, moved to the LHS as +g1 * S
    M[2, 0] = om1
    M[2, 2] = g1m - 1j * delta
    M[2, 4] = +np.conj(g1a0)
    M[2, 9] = +g1a0
    # g_alpha2 = +g2
    M[3, 1] = om2
    M[3, 3] = g2m - 1j * delta
    M[3, 4] = -np.conj(g2a0)
    M[3, 9] = -g2a0
    M[4, 0] = 1j * g1a0
    M[4, 1] = -1j * g2a0
    M[4, 4] = kappa + 1j * (dp - delta)
    b[4] = 1.0

    # minus block (conjugated e^{+i Delta t} rows): same structure, the beat
    # term couples to the same unknowns a+ and a-*
    M[5, 5] = miD
    M[5, 7] = -om1
    M[6, 6] = miD
    M[6, 8] = -om2
    M[7, 5] = om1
    M[7, 7] = g1m - 1j * delta
    M[7, 4] = +np.conj(g1a0)
    M[7, 9] = +g1a0
    M[8, 6] = om2
    M[8, 8] = g2m - 1j * delta
    M[8, 4] = -np.conj(g2a0)
    M[8, 9] = -g2a0
    M[9, 5] = -1j * np.conj(g1a0)
    M[9, 6] = +1j * np.conj(g2a0)
    M[9, 9] = kappa - 1j * (dp + delta)

    try:
        x = np.linalg.solve(M, b)
    except np.linalg.LinAlgError as e:
        raise SingularSystem(f"sideband system singular at delta={delta!r}: {e}")

    A, Ap, L1, L2, _, d = _pieces(ep, delta)
    degenerate = bool(abs(d) <= _DEGENERATE_RTOL * abs(A * Ap * L1 * L2))
    return SidebandAmplitudes(complex(x[4]), complex(np.conj(x[9])),
                              complex(d), degenerate)
