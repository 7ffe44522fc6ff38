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

The transmitted probe follows from input-output theory:
eps_T = 2 kappa a_plus = nu_p + i u_p, t_p = 1 - eps_T. ``probe_response``
returns them with the exact Delta-derivative of eps_T, in one batched pass
that every spectrum, map and group delay goes through. They depend on
a_plus alone, so only ``sideband_amplitudes`` forms a_minus.

``sideband_linear_solve`` re-derives a_plus and a_minus from the 6x6 drift
matrix K of the linearized equations in (phi1, lz1, phi2, lz2, a, a*), one
batched dense solve over all points; it shares no algebra with the closed
form and serves as an independent check of it. The eigenvalues lambda of K
are the roots Delta = i lambda of d.
"""

from dataclasses import dataclass

import numpy as np

from .errors import SingularSystem
from .util import scalar_in_scalar_out, with_python_scalars

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
    patched. da_plus is d a_plus / d Delta, differentiated exactly. The
    linear solve fills a_plus and a_minus only (the rest is None).
    """

    a_plus: object
    a_minus: object
    d_delta: object = None
    degenerate: object = None
    da_plus: object = None


def _phase_factor(a0):
    """a0^2/|a0|^2 over an array a0, 1 where a0 = 0 (a_minus vanishes there
    anyway), formed part by part as Python's complex arithmetic forms it
    (float_power is libm pow, as ** on a float): the bits of a scalar a0."""
    if a0 is None:
        return 1.0
    a0 = np.asarray(a0, dtype=complex)
    x, y = a0.real, a0.imag
    mag2 = np.float_power(x, 2) + np.float_power(y, 2)
    out = np.ones(a0.shape, dtype=complex)
    np.divide(x * x - y * y, mag2, out=out.real, where=mag2 != 0.0)
    np.divide(x * y + y * x, mag2, out=out.imag, where=mag2 != 0.0)
    return out


def _a_plus(ep, delta):
    """(a_plus, d a_plus / d Delta, B, d, degenerate) of the closed form."""
    A = ep.kappa - 1j * (ep.delta_prime + delta)
    Ap = ep.kappa + 1j * (ep.delta_prime - delta)
    L1 = lambda_j(delta, ep.omega_phi1, ep.gamma1)
    L2 = lambda_j(delta, ep.omega_phi2, ep.gamma2)
    B = ep.G1 ** 2 * ep.omega_phi1 * L2 + ep.G2 ** 2 * ep.omega_phi2 * L1
    d = A * Ap * L1 * L2 - 2.0 * ep.delta_prime * B
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
        da_plus = (dN * d - N * dd) / (d * d)
    return a_plus, da_plus, B, d, np.abs(d) <= _DEGENERATE_RTOL * np.abs(A * Ap * L1 * L2)


@scalar_in_scalar_out
def sideband_amplitudes(ep, delta, a0=None):
    """Closed-form a_plus, a_minus and d a_plus / d Delta at detuning delta
    (scalar or array).

    a0 only sets the phase factor a0^2/|a0|^2 of a_minus; omit it and the
    factor defaults to 1 (a_plus is unaffected either way).
    """
    a_plus, da_plus, B, d, degenerate = _a_plus(ep, delta)
    with np.errstate(divide="ignore", invalid="ignore"):
        a_minus = _phase_factor(a0) * 1j * np.conj(B) / np.conj(d)
    return SidebandAmplitudes(a_plus, a_minus, d, degenerate, da_plus)


@dataclass(frozen=True)
class ProbeResponse:
    """The transmitted probe at detuning Delta.

    nu_p + i u_p = eps_T = 2 kappa a_plus exactly; t_p = 1 - eps_T; phase
    is the principal-value argument of t_p; degenerate is the kernel's mark
    of a degenerate d; deps_T is the exact derivative of eps_T with respect
    to Delta.
    """

    eps_T: object
    nu_p: object
    u_p: object
    t_p: object
    phase: object
    degenerate: object
    deps_T: object


@scalar_in_scalar_out
def probe_response(ep, delta):
    """ProbeResponse at detuning delta (scalar or array)."""
    a_plus, da_plus, _, _, degenerate = _a_plus(ep, delta)
    eps_T = 2.0 * ep.kappa * a_plus
    t_p = 1.0 - eps_T
    return ProbeResponse(
        eps_T=eps_T, nu_p=eps_T.real, u_p=eps_T.imag, t_p=t_p, phase=np.angle(t_p),
        degenerate=degenerate, deps_T=2.0 * ep.kappa * da_plus)


def _drift_matrix(ep, a0):
    """Drift matrix K, d(dx)/dt = K dx, of the mean-value equations the
    oracle integrates, linearized about the steady state a0 in dx = (phi1,
    lz1, phi2, lz2, a, a*), over the broadcast of ep and a0: (..., 6, 6).

        phi_j' = omega_phi_j lz_j,
        lz_j' = -omega_phi_j phi_j - gamma_j lz_j -+ g_j |a|^2,
        a' = -(kappa + i (Delta_0 + g1 phi1 - g2 phi2)) a + drives,

    with g_j a0 = G_j a0/|a0| (and G_j = 0 at a0 = 0). A mode e^{lambda t}
    grows where Re lambda > 0.
    """
    a0 = np.asarray(a0, dtype=complex)
    u = np.divide(a0, np.abs(a0), out=np.ones_like(a0), where=a0 != 0)
    g1a0, g2a0 = ep.G1 * u, ep.G2 * u
    entries = {
        (0, 1): ep.omega_phi1, (1, 0): -ep.omega_phi1, (1, 1): -ep.gamma1,
        (1, 4): -np.conj(g1a0), (1, 5): -g1a0,
        (2, 3): ep.omega_phi2, (3, 2): -ep.omega_phi2, (3, 3): -ep.gamma2,
        (3, 4): np.conj(g2a0), (3, 5): g2a0,
        (4, 0): -1j * g1a0, (4, 2): 1j * g2a0,
        (4, 4): -(ep.kappa + 1j * ep.delta_prime),
        (5, 0): 1j * np.conj(g1a0), (5, 2): -1j * np.conj(g2a0),
        (5, 5): -(ep.kappa - 1j * ep.delta_prime),
    }
    K = np.zeros(np.broadcast(*entries.values()).shape + (6, 6), dtype=complex)
    for (i, j), value in entries.items():
        K[..., i, j] = value
    return K


def sideband_linear_solve(ep, a0, delta):
    """a_plus, a_minus from (-i Delta I - K) x = e_a, with K the drift
    matrix, in one batched solve over the broadcast of ep, a0 and delta.

    x holds the e^{-i Delta t} coefficients of dx under a unit probe drive
    of a, so a_plus = x[4] and a_minus = conj(x[5]). A 0-d result comes
    back as Python complex. Raises SingularSystem if any system is singular.
    """
    M = -1j * np.asarray(delta, dtype=float)[..., None, None] * np.eye(6) \
        - _drift_matrix(ep, a0)
    try:
        x = np.linalg.solve(M, np.broadcast_to(np.eye(6)[:, 4:5], M.shape[:-1] + (1,)))
    except np.linalg.LinAlgError as e:
        raise SingularSystem(f"sideband system singular: {e}")
    return with_python_scalars(SidebandAmplitudes, a_plus=x[..., 4, 0],
                               a_minus=np.conj(x[..., 5, 0]))
