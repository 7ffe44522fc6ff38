"""Zeroth-order steady state of the driven cavity with two rotating mirrors.

The configuration's detuning mode picks the solver: a fixed effective
detuning Delta' (the operating mode of all the spectra) gives one branch; a
fixed bare detuning Delta_0 solves the back-action condition, which is cubic
in the intracavity photon number n = |a0|^2 and can have one or three real
branches (optical bistability).

With chi = g1^2/omega_phi1 + g2^2/omega_phi2 the cubic reads

    n * [kappa^2 + (Delta_0 - chi*n)^2] = eps_c^2,

and every real root gives Delta' = Delta_0 - chi*n, a0 = eps_c/(kappa + i Delta').

Both solvers broadcast over a ``config_grid`` and flag failed cells.
``steady_states`` returns every branch of one configuration and
``solve_steady`` one of them; both raise the error a failed cell names.
"""

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from . import errors
from .errors import ConfigError, NumericalError, RootRefinementError
from .model import (config_fingerprint, config_grid, derive_constants,
                    fold_steady_state)
from .util import flag_cells, stacklevel_outside, with_python_scalars

# Newton polish of the cubic roots: hard iteration cap, relative residual
# target, and the relative step that ends it as well
_POLISH_MAX_ITER = 50
_POLISH_RTOL = 1e-12
_POLISH_STEP_RTOL = 4.0 * np.finfo(float).eps
# the angles 0, 2 pi/3 and 4 pi/3 of the trigonometric roots of a cubic
_THIRDS = np.array([0.0, 2.0, 4.0]) * (math.pi / 3.0)


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
    _POLISH_MAX_ITER; returns n and where it has converged: the residual
    meets its target, or the step is within 4 eps of n (where no float meets
    the target, the steps alternate between the two around the root)."""
    target = _POLISH_RTOL * eps2
    for k in range(_POLISH_MAX_ITER + 1):
        det = delta0 - chi * n
        f = n * (kappa * kappa + det * det) - eps2
        fp = kappa * kappa + det * det - 2.0 * chi * n * det
        converged = np.abs(f) <= np.maximum(target, _POLISH_STEP_RTOL * np.abs(n * fp))
        active = active & ~converged & (fp != 0)
        if k == _POLISH_MAX_ITER or not active.any():
            return n, converged
        n = np.where(active, n - f / np.where(active, fp, 1.0), n)


def _cubic_roots(kappa, chi, eps2, delta0, cubic):
    """The three roots n of the cubic in closed form, stacked on a leading
    axis: three real ones, or one real root and a complex conjugate pair.
    Cells where cubic is false get finite placeholders.

    In t = chi n / kappa the cubic is monic with coefficients of order
    one, t [1 + (D - t)^2] = beta with D = delta0/kappa and
    beta = chi eps2/kappa^3, and t = x + 2D/3 depresses it to
    x^3 + p x + q = 0. A negative discriminant gives three real roots in
    trigonometric form, otherwise Cardano's form gives the real root and
    the pair. The root the shift by 2D/3 would cancel, the smallest when
    all are real and the real one when it is smaller than the pair, comes
    from the product of the roots, which is beta.
    """
    chi = np.where(cubic, chi, 1.0)
    d = delta0 / kappa
    beta = chi * eps2 / kappa ** 3
    p = 1.0 - d * d / 3.0
    q = d * (2.0 / 3.0 + d * d * (2.0 / 27.0)) - beta
    disc = 0.25 * q * q + p * p * p / 27.0
    three = disc < 0.0
    shift = 2.0 * d / 3.0
    # three real roots, in descending order
    m = 2.0 * np.sqrt(np.where(three, -p, 3.0) / 3.0)
    phi = np.arccos(np.clip(-4.0 * q / (m * m * m), -1.0, 1.0)) / 3.0
    trig = m * np.cos(phi - _THIRDS.reshape((3,) + (1,) * phi.ndim)) + shift
    with np.errstate(divide="ignore", invalid="ignore"):  # cells with one real root
        trig[2] = beta / (trig[0] * trig[1])
    # one real root and a pair; u^3 is formed without cancellation, and
    # u = 0 only at a triple root, where p = 0 and so v = 0
    u = np.cbrt(-0.5 * q - np.copysign(np.sqrt(np.maximum(disc, 0.0)), q))
    v = -p / (3.0 * np.where(u == 0.0, 1.0, u))
    pair = (shift - 0.5 * (u + v)) + (0.5j * math.sqrt(3.0)) * (u - v)
    mod2 = pair.real ** 2 + pair.imag ** 2
    one = u + v + shift
    one = np.where(mod2 >= one * one, beta / mod2, one)
    return np.where(three, trig, np.stack([one, pair, pair.conj()])) * (kappa / chi)


def self_consistent_branches(cfg, dc, delta0):
    """Branches at a prescribed bare detuning: every real root of the cubic.

    All cubics are solved at once in closed form (_cubic_roots), then
    polished by Newton's method. Three branches (bistability) anywhere on
    the grid are surfaced with one warning.
    """
    kappa, chi, eps2 = np.broadcast_arrays(
        cfg.kappa, dc.g1 ** 2 / cfg.omega_phi1 + dc.g2 ** 2 / cfg.omega_phi2,
        dc.eps_c ** 2)
    # without drive n = 0; without back-action (L = 0) the cubic is linear
    cubic = (eps2 != 0.0) & (chi != 0.0)
    raw = _cubic_roots(kappa, chi, eps2, delta0, cubic)

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
        warnings.warn("bistable point: three steady-state branches",
                      stacklevel=stacklevel_outside())
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


def _solve(cfg, dc, branch):
    """Branches in cfg's detuning mode, with MissingBranch flagged in every
    cell that did not fail and has fewer than branch + 1 branches."""
    mode = cfg.detuning_mode
    if mode.mode == "fixed_effective":
        if branch != 0:
            raise ConfigError("fixed effective detuning has a single branch (0)")
        return fixed_branches(cfg, dc, mode.value)
    if branch < 0:
        raise ConfigError(f"branch {branch} out of range: branches count from 0")
    br = self_consistent_branches(cfg, dc, mode.value)
    return replace(br, flags=flag_cells(br.flags, br.count <= branch, errors.MissingBranch))


def steady_states(cfg):
    """Every steady-state branch of cfg in its detuning mode, a list of
    SteadyState in ascending photon number: one in fixed mode, up to three
    in self-consistent mode. Three branches (bistability) are surfaced with
    a warning; dynamical stability of the branches is not classified here.
    """
    dc = derive_constants(cfg)
    return _states(cfg, dc, _solve(cfg, dc, 0), repr(cfg.detuning_mode))


def solve_steady(cfg, branch=0):
    """One steady-state branch of cfg: in fixed mode the single branch
    (branch must be 0), in self-consistent mode the branch-th of the
    ascending-n roots (default 0, the lowest branch)."""
    dc = derive_constants(cfg)
    br = _solve(cfg, dc, branch)
    if br.flags == "MissingBranch":
        raise ConfigError(f"branch {branch} out of range: {br.count} "
                          f"branch(es) at this drive")
    return _states(cfg, dc, br, repr(cfg.detuning_mode))[branch]


def effective_grid(cfg, branch=0, **axes):
    """EffectiveParams and per-cell flags over config_grid(cfg, **axes),
    from one batched steady-state solve; a failed cell (MissingBranch where
    it lacks the branch) keeps its error name and parameters with a0 = 0."""
    c = config_grid(cfg, **axes)
    dc = derive_constants(c)
    br = _solve(c, dc, branch)
    ok = br.flags == ""
    k = min(branch, len(br.delta_prime) - 1)  # a placeholder if every cell failed
    ep = fold_steady_state(c, dc, np.where(ok, br.delta_prime[k], 0.0),
                           np.where(ok, br.a0[k], 0.0))
    return ep, br.flags
