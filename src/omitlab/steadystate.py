"""Zeroth-order steady state of the driven cavity with two rotating mirrors.

The configuration's detuning mode picks the solver: a fixed effective
detuning Delta' (the operating mode of all the spectra) gives one branch; a
fixed bare detuning Delta_0 solves the back-action condition, which is cubic
in the intracavity photon number n = |a0|^2 and can have one or three real
branches (optical bistability).

With chi = g1^2/omega_phi1 + g2^2/omega_phi2 the cubic reads

    f(n) = n * [kappa^2 + (Delta_0 - chi*n)^2] - eps_c^2 = 0,

and every root gives Delta' = Delta_0 - chi*n, a0 = eps_c/(kappa + i Delta').
The folds of f (f' = 0, the saddle-node points) split n >= 0 into monotone
stretches with at most one root each: the signs of f there count the
branches, and Newton's method from the end of each stretch where f has the
sign of f'' finds its root, with no tolerance deciding which roots exist.

Both solvers broadcast over a ``config_grid`` and flag failed cells.
``steady_states`` returns every branch of one configuration and
``solve_steady`` one of them; both raise the error a failed cell names.
"""

import warnings
from collections import namedtuple

import numpy as np

from .errors import ConfigError, MissingBranch, RootRefinementError
from .model import (config_fingerprint, config_grid, derive_constants,
                    fold_steady_state)
from .util import FLAG_ERRORS, flag_cells, stacklevel_outside, with_python_scalars

# Newton steps per root before its cell is flagged RootRefinementError
_MAX_STEPS = 100


SteadyState = namedtuple("SteadyState", "a0 n phi10 phi20 lz1 lz2 delta_prime n_branches "
                                        "branch_index config_fingerprint")
SteadyState.__doc__ = """One steady-state branch.

a0 is the complex intracavity amplitude, phi10/phi20 the static angular
displacements (phi10 <= 0 <= phi20 whenever the cavity is driven, from the
signs of the two couplings), lz1 = lz2 = 0 always. n is the intracavity
photon number: |a0|^2 at a fixed effective detuning, the root of the
cubic at a fixed bare detuning. n_branches counts the real solutions at
this drive; branch_index identifies this one (ascending photon number).
"""


# Steady states over a configuration grid. delta_prime, a0 and n (the roots
# of the cubic; None at a fixed effective detuning) have a leading branch
# axis: the real branches in ascending photon number, then nan. count is the
# number of real branches and flags the flag code of each cell
# (util.FLAG_ERRORS: the error of a failed cell, 0 elsewhere)
Branches = namedtuple("Branches", "delta_prime a0 n count flags")


def residual(cfg, dc, delta_prime, a0):
    """|a0 (kappa + i Delta') - eps_c|, the miss of the steady-state
    equation: for a0 = eps_c / (kappa + i Delta') the rounding of the
    division, not a test of the root."""
    return np.abs(a0 * (cfg.kappa + 1j * delta_prime) - dc.eps_c)


def _branches(cfg, dc, delta_prime, flags, n=None):
    """Branches with a0 = eps_c / (kappa + i Delta')."""
    with np.errstate(invalid="ignore"):  # nan on the missing branches
        a0 = dc.eps_c / (cfg.kappa + 1j * delta_prime)
    return Branches(delta_prime, a0, n, np.isfinite(delta_prime).sum(axis=0), flags)


def fixed_branches(cfg, dc, delta_prime):
    """Branches at a prescribed effective detuning: one per cell."""
    shape = np.broadcast(cfg.kappa, dc.eps_c).shape
    return _branches(cfg, dc, np.full((1,) + shape, float(delta_prime)),
                     np.zeros(shape, np.uint8))


def _cubic(n, kappa, delta0, chi, eps2):
    """f(n) = n [kappa^2 + (Delta_0 - chi n)^2] - eps_c^2 and its slope f'(n)."""
    det = delta0 - chi * n
    k2d2 = kappa * kappa + det * det
    return n * k2d2 - eps2, k2d2 - 2.0 * chi * n * det


def _newton(n, kappa, delta0, chi, eps2):
    """Newton's method on f from starts n where f has the sign of f'' on
    the way to the root (Fourier's condition), so each step is shorter than
    the last; a root stops at the first step that is not (a nan start at
    once). Each step evaluates only the roots still moving. Returns the
    roots and where they still moved after _MAX_STEPS."""
    flat = n.flatten()
    coeffs = [np.broadcast_to(c, n.shape).ravel() for c in (kappa, delta0, chi, eps2)]
    active, last = np.arange(flat.size), np.inf
    with np.errstate(divide="ignore", invalid="ignore"):  # 0/0 at a fold root
        for k in range(_MAX_STEPS + 1):
            f, slope = _cubic(flat[active], *(c[active] for c in coeffs))
            step = f / slope
            going = np.abs(step) < last
            active, last, step = active[going], np.abs(step[going]), step[going]
            if k == _MAX_STEPS or not active.size:
                break
            flat[active] -= step
    moving = np.zeros(flat.size, bool)
    moving[active] = True
    return flat.reshape(n.shape), moving.reshape(n.shape)


def self_consistent_branches(cfg, dc, delta0):
    """Branches at a prescribed bare detuning: every root n >= 0 of the
    cubic f(n) = n [kappa^2 + (Delta_0 - chi n)^2] - eps_c^2.

    f(0) = -eps_c^2 and f >= 0 from n = eps_c^2/kappa^2 on, so a driven
    cubic has a root. Its folds n_-+ = (2 Delta_0 -+ s)/(3 chi) with
    s = sqrt(Delta_0^2 - 3 kappa^2), where f' = 0 (the saddle-node points;
    both at the inflection 2 Delta_0/(3 chi) where s is not real and f is
    monotone), split it into three monotone stretches with at most one root
    each. So the signs of f at the folds count the branches: the lower
    exists where f(n_-) >= 0, the middle where f(n_-) > 0 > f(n_+), and the
    upper where f(n_+) < 0, or = 0 at a fold of its own. Each root is
    Newton's from the end of its stretch where f has the sign of f'': 0,
    the inflection and eps_c^2/kappa^2, or the fold where f is 0 there. All
    cells are solved at once; three branches (bistability) anywhere on the
    grid are surfaced with one warning.
    """
    kappa, chi, eps2 = np.broadcast_arrays(
        cfg.kappa, dc.g1 ** 2 / cfg.omega_phi1 + dc.g2 ** 2 / cfg.omega_phi2,
        dc.eps_c ** 2)
    linear = chi == 0.0  # no back-action (L = 0): one root
    s = np.sqrt(np.maximum(delta0 * delta0 - 3.0 * kappa * kappa, 0.0))
    folds = (2.0 * delta0 + np.stack([-s, np.zeros_like(s), s])) / (
        3.0 * np.where(linear, 1.0, chi))
    f = _cubic(folds, kappa, delta0, chi, eps2)[0]
    exist = np.stack([linear | (f[0] >= 0.0), ~linear & (f[0] > 0.0) & (f[2] < 0.0),
                      ~linear & ((f[2] < 0.0) | (f[2] == 0.0) & (s > 0.0))])
    start = np.stack([np.where(f[0] == 0.0, folds[0], 0.0), folds[1],
                      np.where(f[2] == 0.0, folds[2], eps2 / (kappa * kappa))])
    n, moving = _newton(np.where(exist, start, np.nan), kappa, delta0, chi, eps2)
    n, stalled = np.sort(n, axis=0), moving.any(axis=0)
    if np.any(exist.all(axis=0) & ~stalled):
        warnings.warn("bistable point: three steady-state branches",
                      stacklevel=stacklevel_outside())
    return _branches(cfg, dc, delta0 - chi * n,
                     flag_cells(0, stalled, RootRefinementError), n)


def _states(cfg, dc, br, where):
    """SteadyState list of one configuration; raises the error of its flag."""
    error = FLAG_ERRORS[br.flags.item()]
    if error:
        raise error(f"steady state at {where}: {error.__doc__} ({error.__name__})")
    fp = config_fingerprint(cfg)
    # fixed mode: n and the displacements from |a0|^2; else from the root
    n = [abs(a) ** 2 for a in br.a0.tolist()] if br.n is None else br.n
    a2 = np.abs(br.a0) ** 2 if br.n is None else br.n
    return [with_python_scalars(
        SteadyState, a0=br.a0[k], n=n[k], phi10=dc.g_alpha1 * a2[k] / cfg.omega_phi1,
        phi20=dc.g_alpha2 * a2[k] / cfg.omega_phi2, lz1=0.0, lz2=0.0,
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
    return br._replace(flags=flag_cells(br.flags, br.count <= branch, MissingBranch))


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
    if FLAG_ERRORS[br.flags.item()] is MissingBranch:
        raise ConfigError(f"branch {branch} out of range: {br.count} "
                          f"branch(es) at this drive")
    return _states(cfg, dc, br, repr(cfg.detuning_mode))[branch]


def effective_grid(cfg, branch=0, **axes):
    """EffectiveParams and per-cell flags over config_grid(cfg, **axes),
    from one batched steady-state solve; a failed cell (MissingBranch where
    it lacks the branch) keeps its flag and parameters with a0 = 0."""
    c = config_grid(cfg, **axes)
    dc = derive_constants(c)
    br = _solve(c, dc, branch)
    ok = br.flags == 0
    k = min(branch, len(br.delta_prime) - 1)  # a placeholder if every cell failed
    ep = fold_steady_state(c, dc, np.where(ok, br.delta_prime[k], 0.0),
                           np.where(ok, br.a0[k], 0.0))
    return ep, br.flags
