"""Steady-state branches: fixed effective detuning and the back-action cubic."""

import warnings
from dataclasses import replace

import numpy as np
import pytest

from omitlab import (ConfigError, SelfConsistent, default_config,
                     derive_constants, solve_steady)
from omitlab.steadystate import (steady_state_fixed,
                                 steady_state_self_consistent)


def test_fixed_point_reference_value(ss):
    # frozen: |eps_c/(kappa + i omega_m)|^2 at the 2 mW reference point
    assert ss.n == pytest.approx(5877515.5418814251708, rel=1e-12)
    assert ss.delta_prime == pytest.approx(default_config().omega_m, rel=0)
    assert ss.n_branches == 1 and ss.branch_index == 0


def test_fixed_point_closed_form(cfg, dc, ss):
    expect = dc.eps_c / (cfg.kappa + 1j * ss.delta_prime)
    assert ss.a0 == pytest.approx(expect, rel=1e-15)
    resid = abs(ss.a0 * (cfg.kappa + 1j * ss.delta_prime) - dc.eps_c)
    assert resid <= 1e-10 * max(dc.eps_c, cfg.kappa)


def test_static_displacements(cfg, dc, ss):
    # mirror 1 is pushed negative, mirror 2 positive; no residual rotation
    assert ss.phi10 == pytest.approx(-dc.g1 * ss.n / cfg.omega_phi1, rel=1e-15)
    assert ss.phi20 == pytest.approx(+dc.g2 * ss.n / cfg.omega_phi2, rel=1e-15)
    assert ss.phi10 < 0 < ss.phi20
    assert ss.lz1 == 0.0 and ss.lz2 == 0.0


def test_fixed_rejects_nonfinite(cfg, dc):
    with pytest.raises(ConfigError):
        steady_state_fixed(cfg, dc, float("nan"))


def test_self_consistent_no_backaction():
    # L = 0 removes the coupling; the cubic degenerates to the linear root
    cfg = replace(default_config(), L=0)
    dc = derive_constants(cfg)
    delta0 = 0.7 * cfg.omega_m
    states = steady_state_self_consistent(cfg, dc, delta0)
    assert len(states) == 1
    expect = dc.eps_c ** 2 / (cfg.kappa ** 2 + delta0 ** 2)
    assert states[0].n == pytest.approx(expect, rel=1e-13)
    assert states[0].delta_prime == pytest.approx(delta0, rel=1e-15)


def test_self_consistent_undriven():
    cfg = replace(default_config(), P=0.0)
    dc = derive_constants(cfg)
    states = steady_state_self_consistent(cfg, dc, 1.3 * cfg.omega_m)
    assert len(states) == 1
    assert states[0].n == 0.0
    assert states[0].a0 == 0.0


def _cubic(n, kappa, delta0, chi, eps2):
    det = delta0 - chi * n
    return n * (kappa * kappa + det * det) - eps2


def _brute_force_roots(kappa, delta0, chi, eps2):
    """Bisection on sign changes of the cubic over a dense log-spaced grid."""
    lo, hi = 0.0, 4.0 * eps2 / kappa ** 2
    grid = np.concatenate([[lo], np.geomspace(1e-12 * hi, hi, 20001)])
    vals = _cubic(grid, kappa, delta0, chi, eps2)
    roots = []
    for i in range(len(grid) - 1):
        if vals[i] == 0.0:
            roots.append(grid[i])
        elif vals[i] * vals[i + 1] < 0:
            a, b = grid[i], grid[i + 1]
            for _ in range(200):
                m = 0.5 * (a + b)
                if _cubic(a, kappa, delta0, chi, eps2) * \
                        _cubic(m, kappa, delta0, chi, eps2) <= 0:
                    b = m
                else:
                    a = m
            roots.append(0.5 * (a + b))
    return roots


def test_bistable_point_against_bisection():
    """Three branches at strong drive and large bare detuning, matching an
    algebra-free bisection root finder."""
    cfg = replace(default_config(), P=5e-3)
    dc = derive_constants(cfg)
    delta0 = 2.0 * cfg.omega_m
    chi = dc.g1 ** 2 / cfg.omega_phi1 + dc.g2 ** 2 / cfg.omega_phi2
    eps2 = dc.eps_c ** 2

    with pytest.warns(UserWarning, match="bistable"):
        states = steady_state_self_consistent(cfg, dc, delta0)
    assert len(states) == 3
    ns = [s.n for s in states]
    assert ns == sorted(ns)
    assert all(s.n_branches == 3 for s in states)
    assert [s.branch_index for s in states] == [0, 1, 2]

    expected = _brute_force_roots(cfg.kappa, delta0, chi, eps2)
    assert len(expected) == 3
    for n, n_ref in zip(ns, expected):
        assert n == pytest.approx(n_ref, rel=1e-8)
    for s in states:
        assert s.delta_prime == pytest.approx(delta0 - chi * s.n, rel=1e-12)
        # polished residual meets the refinement target
        assert abs(_cubic(s.n, cfg.kappa, delta0, chi, eps2)) <= 1e-11 * eps2


def test_saddle_node_edge_reports_merged_roots_once():
    """At the upper edge of the bistable band in delta0 the two upper roots
    of the cubic merge. The eigenvalue solve returns them as a nearly real
    complex pair, which the polish brings onto one number: one branch, not
    two copies."""
    cfg = replace(default_config(), P=5e-3)
    dc = derive_constants(cfg)
    kappa = cfg.kappa
    chi = dc.g1 ** 2 / cfg.omega_phi1 + dc.g2 ** 2 / cfg.omega_phi2
    eps2 = dc.eps_c ** 2
    # A double root n* with u = delta0 - chi n* has zero slope,
    # kappa^2 + 3 u^2 - 2 delta0 u = 0, and zero residual,
    # n* (kappa^2 + u^2) = eps2; eliminating delta0 and n* leaves
    # u^4 + 2 kappa^2 u^2 - 2 chi eps2 u + kappa^4 = 0, whose smaller
    # positive root is the edge at the larger delta0.
    us = np.roots([1.0, 0.0, 2.0 * kappa ** 2, -2.0 * chi * eps2, kappa ** 4])
    u = min(r.real for r in us if abs(r.imag) <= 1e-9 * abs(r))
    delta0 = (kappa ** 2 + 3.0 * u ** 2) / (2.0 * u)
    n_double = (delta0 - u) / chi

    ns = [s.n for s in steady_state_self_consistent(cfg, dc, delta0)]
    assert len(ns) == 2
    assert ns[1] - ns[0] > 1e-9 * ns[1]
    # the simple root: np.roots on the same coefficients, then one Newton
    # step in float
    roots = np.roots([chi * chi, -2.0 * delta0 * chi, kappa ** 2 + delta0 ** 2, -eps2])
    n = min(roots, key=lambda r: abs(r.real)).real
    det = delta0 - chi * n
    n -= _cubic(n, kappa, delta0, chi, eps2) / (kappa ** 2 + det ** 2 - 2.0 * chi * n * det)
    assert ns[0] == pytest.approx(n, rel=1e-12)
    # the mean of the pair is well conditioned (their sum is 2 delta0/chi -
    # ns[0]) and already meets the residual target, so no Newton step moves it
    assert ns[1] == pytest.approx(n_double, rel=1e-12)


def test_single_branch_at_weak_drive():
    cfg = replace(default_config(), P=1e-6)
    dc = derive_constants(cfg)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        states = steady_state_self_consistent(cfg, dc, 1.0 * cfg.omega_m)
    assert len(states) == 1


def test_lowest_branch_monotone_in_power():
    delta0 = 2.0 * default_config().omega_m
    last = 0.0
    for P in np.linspace(0.2e-3, 6e-3, 12):
        cfg = replace(default_config(), P=float(P),
                      detuning_mode=SelfConsistent(delta0))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            n = solve_steady(cfg).n
        assert n > last
        last = n


def test_solve_steady_dispatch(cfg):
    with pytest.raises(ConfigError, match="single branch"):
        solve_steady(cfg, branch=1)
    sc = replace(cfg, P=5e-3, detuning_mode=SelfConsistent(2.0 * cfg.omega_m))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        lowest = solve_steady(sc, branch=0)
        top = solve_steady(sc, branch=2)
        assert lowest.n < top.n
        with pytest.raises(ConfigError, match="branch"):
            solve_steady(sc, branch=3)


def test_fingerprint_travels_with_state(cfg, ss):
    from omitlab import config_fingerprint
    assert ss.config_fingerprint == config_fingerprint(cfg)
