"""Zeroth-order steady state of the driven cavity with two rotating mirrors.

Two entry points: ``steady_state_fixed`` takes the effective detuning Delta'
as given (the operating mode of all the spectra), and
``steady_state_self_consistent`` takes the bare detuning Delta_0 and solves
the back-action condition, which is cubic in the intracavity photon number
n = |a0|^2 and can have one or three real branches (optical bistability).

With chi = g1^2/omega_phi1 + g2^2/omega_phi2 the cubic reads

    n * [kappa^2 + (Delta_0 - chi*n)^2] = eps_c^2,

and every real root gives Delta' = Delta_0 - chi*n, a0 = eps_c/(kappa + i Delta').

Both solvers broadcast over a ``config_grid`` and flag failed cells; the
scalar entry points run them on one configuration and raise the flag.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from . import errors
from .errors import ConfigError, NumericalError, RootRefinementError
from .model import (config_fingerprint, config_grid, derive_constants,
                    fold_steady_state)
from .util import flag_cells, with_python_scalars

# Newton polish of the cubic roots: hard iteration cap and relative residual target
_POLISH_MAX_ITER = 50
_POLISH_RTOL = 1e-12


@dataclass(frozen=True)
class SteadyState:
    """One steady-state branch.

    a0 is the complex intracavity amplitude, phi10/phi20 the static angular
    displacements (phi10 <= 0 <= phi20 whenever the cavity is driven, from the
    signs of the two couplings), lz1 = lz2 = 0 always. n_branches counts the
    real solutions at this drive; branch_index identifies this one (ascending
    photon number).
    """

    a0: complex
    phi10: float
    phi20: float
    lz1: float
    lz2: float
    delta_prime: float
    n_branches: int
    branch_index: int
    config_fingerprint: str

    @property
    def n(self):
        """Intracavity photon number |a0|^2."""
        return abs(self.a0) ** 2


@dataclass(frozen=True)
class Branches:
    """Steady states over a configuration grid. delta_prime and a0 have a
    leading branch axis: the real branches in ascending photon number, then
    nan. count is the number of real branches and flags the error name of
    each failed cell ("" elsewhere)."""

    delta_prime: object
    a0: object
    count: object
    flags: object


def residual(cfg, dc, delta_prime, a0):
    """|a0 (kappa + i Delta') - eps_c|, the miss of the steady-state equation."""
    return np.abs(a0 * (cfg.kappa + 1j * delta_prime) - dc.eps_c)


def _branches(cfg, dc, delta_prime, flags):
    """Branches with a0 = eps_c / (kappa + i Delta'), flagging a cell where
    the residual exceeds 1e-10 max(eps_c, kappa)."""
    with np.errstate(invalid="ignore"):  # nan on the missing branches
        a0 = dc.eps_c / (cfg.kappa + 1j * delta_prime)
        miss = residual(cfg, dc, delta_prime, a0)
    bad = np.any(miss > 1e-10 * np.maximum(dc.eps_c, cfg.kappa), axis=0)
    return Branches(delta_prime, a0, np.isfinite(delta_prime).sum(axis=0),
                    flag_cells(flags, bad, NumericalError))


def fixed_branches(cfg, dc, delta_prime):
    """Branches at a prescribed effective detuning: one per cell."""
    shape = (1,) + np.broadcast(cfg.kappa, dc.eps_c).shape
    return _branches(cfg, dc, np.full(shape, float(delta_prime)), "")


def _polish(n, active, kappa, delta0, chi, eps2):
    """Newton iterations on the cubic residual where active, at most
    _POLISH_MAX_ITER; returns n and where it meets the residual target."""
    target = _POLISH_RTOL * eps2
    for _ in range(_POLISH_MAX_ITER):
        det = delta0 - chi * n
        f = n * (kappa * kappa + det * det) - eps2
        fp = kappa * kappa + det * det - 2.0 * chi * n * det
        active = active & (np.abs(f) > target) & (fp != 0)
        if not active.any():
            break
        n = np.where(active, n - f / np.where(active, fp, 1.0), n)
    det = delta0 - chi * n
    return n, np.abs(n * (kappa * kappa + det * det) - eps2) <= target


def self_consistent_branches(cfg, dc, delta0):
    """Branches at a prescribed bare detuning: every real root of the cubic.

    All cubics are solved at once as the eigenvalues of their stacked
    companion matrices, then polished by Newton's method. Three branches
    (bistability) anywhere on the grid are surfaced with one warning.
    """
    kappa, chi, eps2 = np.broadcast_arrays(
        cfg.kappa, dc.g1 ** 2 / cfg.omega_phi1 + dc.g2 ** 2 / cfg.omega_phi2,
        dc.eps_c ** 2)
    # without drive n = 0; without back-action (L = 0) the cubic is linear
    cubic = (eps2 != 0.0) & (chi != 0.0)
    coeffs = (chi * chi, -2.0 * delta0 * chi, kappa * kappa + delta0 * delta0, -eps2)
    lead = np.where(cubic, coeffs[0], 1.0)
    companion = np.zeros(kappa.shape + (3, 3))
    for k in range(3):
        companion[..., 0, k] = np.where(cubic, -coeffs[k + 1] / lead, 0.0)
    companion[..., 1, 0] = companion[..., 2, 1] = 1.0
    raw = np.moveaxis(np.linalg.eigvals(companion), -1, 0)

    scale = eps2 / (kappa * kappa)
    real = np.abs(raw.imag) <= 1e-7 * np.maximum(np.abs(raw), scale)
    keep = cubic & real & ~(raw.real < -1e-18 * scale)
    n, polished = _polish(np.maximum(raw.real, 0.0), keep, kappa, delta0, chi, eps2)
    stalled = np.any(keep & ~polished, axis=0)
    # polish can re-converge two nearly-degenerate roots onto one another
    for k in range(1, 3):
        for j in range(k):
            tol = 1e-9 * np.maximum(np.maximum(np.abs(n[k]), np.abs(n[j])), scale)
            keep[k] &= ~(keep[j] & (np.abs(n[k] - n[j]) <= tol))
    n = np.sort(np.where(keep, n, np.nan), axis=0)
    n[0] = np.where(cubic, n[0],
                    np.where(eps2 == 0.0, 0.0, eps2 / (kappa * kappa + delta0 * delta0)))

    count = np.where(cubic, keep.sum(axis=0), 1)
    if np.any((count == 3) & ~stalled):
        warnings.warn("bistable point: three steady-state branches", stacklevel=3)
    flags = flag_cells("", stalled, RootRefinementError)
    return _branches(cfg, dc, delta0 - chi * n, flag_cells(flags, count == 0, NumericalError))


def _states(cfg, dc, br, where):
    """SteadyState list of one configuration; raises the error its flag names."""
    flag = br.flags.item()
    if flag:
        what = ("root polish stalled" if flag == "RootRefinementError" else
                "residual exceeds tolerance" if br.count else "no physical root found")
        raise getattr(errors, flag)(f"steady state at {where}: {what}")
    fp = config_fingerprint(cfg)
    n = np.abs(br.a0) ** 2
    return [with_python_scalars(
        SteadyState, a0=br.a0[k], phi10=dc.g_alpha1 * n[k] / cfg.omega_phi1,
        phi20=dc.g_alpha2 * n[k] / cfg.omega_phi2, lz1=0.0, lz2=0.0,
        delta_prime=br.delta_prime[k], n_branches=br.count, branch_index=k,
        config_fingerprint=fp) for k in range(br.count)]


def steady_state_fixed(cfg, dc, delta_prime):
    """Steady state at a prescribed effective detuning."""
    if not np.isfinite(delta_prime):
        raise ConfigError(f"delta_prime must be finite, got {delta_prime!r}")
    return _states(cfg, dc, fixed_branches(cfg, dc, delta_prime),
                   f"delta_prime={delta_prime!r}")[0]


def steady_state_self_consistent(cfg, dc, delta0):
    """All real steady-state branches at a prescribed bare detuning.

    Returns a list of SteadyState sorted by ascending photon number. Three
    branches (bistability) are surfaced with a warning; dynamical stability
    of the branches is not classified here.
    """
    if not np.isfinite(delta0):
        raise ConfigError(f"delta0 must be finite, got {delta0!r}")
    delta0 = float(delta0)
    return _states(cfg, dc, self_consistent_branches(cfg, dc, delta0),
                   f"delta0={delta0!r}")


def _solve(cfg, dc, branch):
    """Branches in cfg's detuning mode; ConfigError unless every cell that
    did not fail has the requested branch."""
    mode = cfg.detuning_mode
    if mode.mode == "fixed_effective":
        if branch != 0:
            raise ConfigError("fixed effective detuning has a single branch (0)")
        return fixed_branches(cfg, dc, mode.value)
    br = self_consistent_branches(cfg, dc, mode.value)
    missing = (br.flags == "") & ~((0 <= branch) & (branch < br.count))
    if np.any(missing):
        raise ConfigError(f"branch {branch} out of range: {br.count[missing][0]} "
                          f"branch(es) at this drive")
    return br


def solve_steady(cfg, branch=0, dc=None):
    """Steady state dispatch on cfg.detuning_mode.

    In fixed mode there is a single branch and branch must be 0. In
    self-consistent mode branch selects among the ascending-n roots
    (default 0, the lowest branch).
    """
    if dc is None:
        dc = derive_constants(cfg)
    br = _solve(cfg, dc, branch)
    return _states(cfg, dc, br, repr(cfg.detuning_mode))[branch]


def effective_grid(cfg, branch=0, **axes):
    """EffectiveParams and per-cell flags over config_grid(cfg, **axes),
    from one batched steady-state solve; branch as in solve_steady. A failed
    cell keeps its error name in flags and placeholder parameters (a0 = 0)."""
    c = config_grid(cfg, **axes)
    dc = derive_constants(c)
    br = _solve(c, dc, branch)
    ok = br.flags == ""
    k = min(branch, len(br.delta_prime) - 1)  # a placeholder if every cell failed
    ep = fold_steady_state(c, dc, np.where(ok, br.delta_prime[k], 0.0),
                           np.where(ok, br.a0[k], 0.0))
    return ep, br.flags
