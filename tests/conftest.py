from dataclasses import replace

import pytest

from omitlab import (default_config, derive_constants, effective_params,
                     group_delay, sideband_linear_solve, solve_steady)


@pytest.fixture(scope="session")
def cfg():
    return default_config()


@pytest.fixture(scope="session")
def dc(cfg):
    return derive_constants(cfg)


@pytest.fixture(scope="session")
def ss(cfg):
    return solve_steady(cfg)


@pytest.fixture(scope="session")
def ep(cfg, ss):
    return effective_params(cfg, ss)


@pytest.fixture(scope="session")
def degenerate_cfg():
    """Both mirrors at omega_m: the two transparency windows merge."""
    c = default_config()
    return replace(c, omega_phi1=c.omega_m, omega_phi2=c.omega_m)


@pytest.fixture(scope="session")
def undriven_cfg():
    """P = 0: bare-cavity limit, G1 = G2 = 0."""
    return replace(default_config(), P=0.0)


def _assert_matches_references(ep, a0, delta, nu_p=None, u_p=None, tau_g=None):
    """Values of the closed-form kernel at one point against the routes that
    share no algebra with it: nu_p (and u_p) against 2 kappa a_plus of the
    raw 10x10 sideband_linear_solve within 1e-10 of |eps_T| (criterion 2),
    tau_g against group_delay(method="fd") within 1e-6 relative (criterion
    7), with the step a thousandth of the narrower mirror linewidth so that
    the Richardson pair resolves a window sitting on the point."""
    if nu_p is not None:
        eps_T = 2.0 * ep.kappa * sideband_linear_solve(ep, a0, delta).a_plus
        err = abs(nu_p - eps_T.real) if u_p is None else abs(complex(nu_p, u_p) - eps_T)
        assert err <= 1e-10 * abs(eps_T)
    if tau_g is not None:
        h = 1e-3 * min(ep.gamma1, ep.gamma2)
        assert tau_g == pytest.approx(group_delay(ep, a0, delta, method="fd", h=h).tau_g,
                                      rel=1e-6)


@pytest.fixture(scope="session")
def references():
    """_assert_matches_references, for the tests that sample the batched
    spectra and maps."""
    return _assert_matches_references
