"""Closed-form sideband amplitudes against limits, symmetries and the
linear solve with the 6x6 drift matrix."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omitlab import (ConfigError, EffectiveParams, SelfConsistent,
                     SingularSystem, default_config, derive_constants,
                     effective_params, flag_names, group_delay, lambda_j,
                     oracle_check, probe_response, sideband_amplitudes,
                     sideband_linear_solve, solve_steady, tau_g_analytic)
from omitlab.model import config_grid, fold_steady_state
from omitlab.response import _drift_matrix
from omitlab.steadystate import self_consistent_branches

OMEGA_M = default_config().omega_m


def _bare_ep(G1=0.0, G2=0.0, delta_prime=None, omega1=None, omega2=None,
             gamma=None, kappa=None):
    om = OMEGA_M
    g = om / 1.2e5 if gamma is None else gamma
    return EffectiveParams(
        kappa=0.1875 * om if kappa is None else kappa,
        delta_prime=om if delta_prime is None else delta_prime,
        G1=G1, G2=G2,
        omega_phi1=1.1 * om if omega1 is None else omega1,
        omega_phi2=0.9 * om if omega2 is None else omega2,
        gamma1=g, gamma2=g, omega_m=om)


def test_lambda_j_values():
    assert lambda_j(0.0, 3.0, 0.5) == 9.0 + 0.0j
    assert lambda_j(2.0, 3.0, 0.5) == 9.0 - 4.0 - 1j
    arr = lambda_j(np.array([0.0, 2.0]), 3.0, 0.5)
    assert arr.shape == (2,) and arr[1] == 5.0 - 1j


def test_bare_cavity_amplitudes():
    ep = _bare_ep()
    for x in (0.6, 1.0, 1.37):
        delta = x * OMEGA_M
        sb = sideband_amplitudes(ep, delta)
        expect = 1.0 / (ep.kappa + 1j * (ep.delta_prime - delta))
        assert sb.a_plus == pytest.approx(expect, rel=1e-14)
        assert sb.a_minus == 0.0
        assert not sb.degenerate


def test_bare_cavity_peak_and_half_width():
    ep = _bare_ep()
    pr = probe_response(ep, ep.delta_prime)
    assert pr.nu_p == pytest.approx(2.0, rel=1e-14)
    assert pr.u_p == pytest.approx(0.0, abs=1e-14)
    # one linewidth above resonance: eps_T = 2/(1 - i) = 1 + i
    pr = probe_response(ep, ep.delta_prime + ep.kappa)
    assert pr.nu_p == pytest.approx(1.0, rel=1e-14)
    assert pr.u_p == pytest.approx(1.0, rel=1e-14)


def test_output_field_identities(ep, ss):
    delta = np.linspace(0.5, 1.5, 7) * OMEGA_M
    pr = probe_response(ep, delta)
    np.testing.assert_allclose(pr.nu_p + 1j * pr.u_p,
                               2.0 * ep.kappa *
                               sideband_amplitudes(ep, delta, a0=ss.a0).a_plus,
                               rtol=1e-15)
    np.testing.assert_allclose(pr.t_p, 1.0 - pr.eps_T, rtol=0, atol=0)
    np.testing.assert_allclose(pr.phase, np.angle(pr.t_p), rtol=0, atol=0)


def test_response_goldens_at_resonance():
    # frozen at P = 5 mW, split mirrors, Delta = omega_m
    cfg = replace(default_config(), P=5e-3)
    ss = solve_steady(cfg)
    ep = effective_params(cfg, ss)
    pr = probe_response(ep, cfg.omega_m)
    assert pr.nu_p == pytest.approx(1.9734886249443232709, rel=1e-10)
    assert pr.u_p == pytest.approx(-0.22892592356179991092, rel=1e-10)


def test_probe_power_does_not_enter_response(cfg, ep, ss):
    strong = replace(cfg, P_p=cfg.P_p * 1e3)
    ss2 = solve_steady(strong)
    ep2 = effective_params(strong, ss2)
    delta = 1.05 * OMEGA_M
    assert sideband_amplitudes(ep2, delta, a0=ss2.a0).a_plus == \
        sideband_amplitudes(ep, delta, a0=ss.a0).a_plus


def test_far_detuned_transparency(ep):
    pr = probe_response(ep, 50.0 * OMEGA_M)
    assert abs(pr.eps_T) < 0.01
    assert abs(pr.t_p) == pytest.approx(1.0, abs=0.01)


def _rng_points(n, seed=42):
    """n seeded (G1, G2, delta, a0) over a broad coupling range, |a0| = 1234.5."""
    rng = np.random.default_rng(seed)
    G1 = 10 ** rng.uniform(-3, math.log10(0.3), n) * OMEGA_M
    G2 = 10 ** rng.uniform(-3, math.log10(0.3), n) * OMEGA_M
    delta = rng.uniform(0.0, 2.0, n) * OMEGA_M
    a0 = 1234.5 * np.exp(1j * rng.uniform(0, 2 * math.pi, n))
    return G1, G2, delta, a0


def test_closed_form_matches_linear_solve():
    """The closed form and the 6x6 drift-matrix solve share no algebra; they
    must agree to near machine precision over a broad coupling range, 2000
    points in one batched call of each."""
    G1, G2, delta, a0 = _rng_points(2000)
    ep = _bare_ep(G1=G1, G2=G2)
    cf = sideband_amplitudes(ep, delta, a0=a0)
    ls = sideband_linear_solve(ep, a0, delta)
    assert ls.a_plus.shape == ls.a_minus.shape == (2000,)
    assert np.all(np.abs(cf.a_plus - ls.a_plus) <= 1e-10 * np.abs(ls.a_plus))
    assert np.all(np.abs(cf.a_minus - ls.a_minus) <=
                  np.maximum(1e-10 * np.abs(ls.a_minus), 1e-18))


def test_minus_sideband_with_per_cell_a0():
    """a_minus over a self-consistent P x kappa map grid, each cell with its
    own a0 (whose phase sets a_minus's), against the batched linear solve."""
    cfg = replace(default_config(), detuning_mode=SelfConsistent(1.5 * OMEGA_M))
    c = config_grid(cfg, P=np.linspace(0.2e-3, 1.5e-3, 6)[:, None],
                    kappa=np.geomspace(1.0, 8.0, 5)[None, :] * cfg.kappa)
    dc = derive_constants(c)
    br = self_consistent_branches(c, dc, cfg.detuning_mode.value)
    assert (br.count == 1).all() and (flag_names(br.flags) == "").all()
    a0 = br.a0[0]
    assert np.ptp(np.angle(a0)) > 0.5
    ep = fold_steady_state(c, dc, br.delta_prime[0], a0)
    delta = np.full(a0.shape, 1.05 * OMEGA_M)
    cf = sideband_amplitudes(ep, delta, a0=a0)
    ls = sideband_linear_solve(ep, a0, delta)
    assert ls.a_minus.shape == a0.shape
    assert np.all(np.abs(cf.a_minus - ls.a_minus) <= 1e-10 * np.abs(ls.a_minus))


def _denominator(ep, delta):
    """d(Delta) = A A' L1 L2 - 2 Delta' B, written out again from the paper
    so that it takes a complex Delta, and its scale |A A' L1 L2|."""
    A = ep.kappa - 1j * (ep.delta_prime + delta)
    Ap = ep.kappa + 1j * (ep.delta_prime - delta)
    L1 = lambda_j(delta, ep.omega_phi1, ep.gamma1)
    L2 = lambda_j(delta, ep.omega_phi2, ep.gamma2)
    B = ep.G1 ** 2 * ep.omega_phi1 * L2 + ep.G2 ** 2 * ep.omega_phi2 * L1
    return A * Ap * L1 * L2 - 2.0 * ep.delta_prime * B, np.abs(A * Ap * L1 * L2)


def test_drift_matrix_has_no_spurious_modes():
    """Each eigenvalue lambda of K is a root Delta = i lambda of the closed
    form's denominator: modes go as e^{lambda t} and the probe as
    e^{-i Delta t}, so a mode grows where Re lambda = Im Delta > 0. At the
    default point and on the three branches at P = 1.9 mW, L = 100,
    Delta_0 = omega_m; the largest growth rates [omega_m] say branch 0 is
    stable, branch 1 a saddle and branch 2 oscillatory-unstable there."""
    cfg = default_config()
    sc = replace(cfg, P=1.9e-3, detuning_mode=SelfConsistent(OMEGA_M))
    cases = [(cfg, 0, -0.0396), (sc, 0, -0.0310), (sc, 1, 0.1036), (sc, 2, 0.0025)]
    for c, branch, growth in cases:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # bistable point
            ss = solve_steady(c, branch=branch)
        ep = effective_params(c, ss)
        lam = np.linalg.eigvals(_drift_matrix(ep, ss.a0))
        d, scale = _denominator(ep, 1j * lam)
        assert np.all(np.abs(d) <= 1e-11 * scale), np.abs(d) / scale
        assert lam.real.max() / OMEGA_M == pytest.approx(growth, abs=1e-4)
    # on the real axis the denominator above is the kernel's
    grid = np.linspace(0.5, 1.5, 11) * OMEGA_M
    np.testing.assert_array_equal(_denominator(ep, grid)[0],
                                  sideband_amplitudes(ep, grid).d_delta)


def test_linear_solve_undriven_limit():
    ep = _bare_ep()
    ls = sideband_linear_solve(ep, 0.0, 1.2 * OMEGA_M)
    assert ls.a_plus == pytest.approx(
        1.0 / (ep.kappa + 1j * (ep.delta_prime - 1.2 * OMEGA_M)), rel=1e-14)
    assert ls.a_minus == 0.0


@settings(max_examples=30, deadline=None)
@given(g1=st.floats(min_value=1e-3, max_value=0.3),
       g2=st.floats(min_value=1e-3, max_value=0.3),
       x=st.floats(min_value=0.1, max_value=1.9))
def test_mirror_swap_symmetry(g1, g2, x):
    """Relabeling the two mirrors cannot change the observable response."""
    ep = _bare_ep(G1=g1 * OMEGA_M, G2=g2 * OMEGA_M)
    sw = EffectiveParams(
        kappa=ep.kappa, delta_prime=ep.delta_prime, G1=ep.G2, G2=ep.G1,
        omega_phi1=ep.omega_phi2, omega_phi2=ep.omega_phi1,
        gamma1=ep.gamma2, gamma2=ep.gamma1, omega_m=ep.omega_m)
    delta = x * OMEGA_M
    a = sideband_amplitudes(ep, delta, a0=3.0 - 4.0j)
    b = sideband_amplitudes(sw, delta, a0=3.0 - 4.0j)
    assert a.a_plus == pytest.approx(b.a_plus, rel=1e-12)
    assert a.a_minus == pytest.approx(b.a_minus, rel=1e-12, abs=1e-18)


def test_degenerate_mirrors_reduce_to_single_effective_coupling():
    """Equal mirrors behave as one mirror with G^2 = G1^2 + G2^2."""
    om = OMEGA_M
    ep2 = _bare_ep(G1=0.08 * om, G2=0.05 * om, omega1=om, omega2=om)
    Geff = math.sqrt(ep2.G1 ** 2 + ep2.G2 ** 2)
    ep1 = _bare_ep(G1=Geff, G2=0.0, omega1=om, omega2=om)
    for x in (0.9, 0.999, 1.0, 1.001, 1.1):
        a = sideband_amplitudes(ep2, x * om).a_plus
        b = sideband_amplitudes(ep1, x * om).a_plus
        assert a == pytest.approx(b, rel=1e-12)


def test_degenerate_denominator_flag():
    # undamped mirror exactly on resonance: L1 = 0 and G = 0 make d = 0
    ep = _bare_ep(gamma=0.0)
    sb = sideband_amplitudes(ep, ep.omega_phi1)
    assert sb.degenerate
    assert sb.d_delta == 0.0
    # values are surfaced as non-finite rather than silently patched
    assert not np.isfinite(sb.a_plus.real)
    # and the linear system is exactly singular there
    with pytest.raises(SingularSystem):
        sideband_linear_solve(ep, 0.0, ep.omega_phi1)
    ok = sideband_amplitudes(ep, 1.3 * OMEGA_M)
    assert not ok.degenerate


@pytest.mark.parametrize("func", [
    sideband_amplitudes, probe_response, tau_g_analytic,
    pytest.param(lambda ep, delta: group_delay(ep, 1.0, delta), id="group_delay"),
    pytest.param(lambda ep, delta: oracle_check(default_config(), delta), id="oracle_check")])
def test_complex_detuning_is_rejected(ep, func):
    """A complex detuning is a ConfigError, as a scalar and as an array,
    with no ComplexWarning: the imaginary part is never dropped. group_delay
    and oracle_check, which take one detuning, reject it before converting
    it to a float."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for delta in (1.1 * OMEGA_M + 0.3j * OMEGA_M,
                      np.array([1.1 * OMEGA_M + 0.3j * OMEGA_M]),
                      np.array([1.1 * OMEGA_M + 0j])):
            with pytest.raises(ConfigError, match="must be real"):
                func(ep, delta)


def test_array_and_scalar_paths_agree(ep, ss):
    grid = np.array([0.7, 1.0, 1.3, 1.1]) * OMEGA_M
    a0s = np.array([ss.a0, -ss.a0.real, 1j * ss.a0, 0.0])
    vec = sideband_amplitudes(ep, grid, a0=ss.a0)
    per_a0 = sideband_amplitudes(ep, grid, a0=a0s)
    for k, d in enumerate(grid):
        one = sideband_amplitudes(ep, float(d), a0=ss.a0)
        assert one.a_plus == vec.a_plus[k]
        assert one.a_minus == vec.a_minus[k]
        assert isinstance(one.a_plus, complex)
        assert sideband_amplitudes(ep, float(d), a0=complex(a0s[k])).a_minus == \
            per_a0.a_minus[k]
