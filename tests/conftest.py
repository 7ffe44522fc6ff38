from dataclasses import replace

import numpy as np
import pytest

from omitlab import (default_config, derive_constants, effective_params,
                     flag_names, sideband_linear_solve, solve_steady)
from omitlab.delay import _delays


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
    """Values of the closed-form kernel at one point, or over arrays that
    broadcast with ep, a0 and delta, against the routes that share no
    algebra with it: nu_p (and u_p) against 2 kappa a_plus of the batched
    6x6 drift-matrix sideband_linear_solve within 1e-10 of |eps_T|
    (criterion 2), tau_g against the Richardson finite difference of
    group_delay(method="fd") within 1e-6 relative (criterion 7), with the
    step a thousandth of the narrower mirror linewidth so that the
    Richardson pair resolves a window sitting on the point. The finite
    difference runs batched, through the kernel of group_delay, and must
    flag no point (where group_delay would raise)."""
    if nu_p is not None:
        eps_T = 2.0 * ep.kappa * sideband_linear_solve(ep, a0, delta).a_plus
        err = np.abs(nu_p - np.real(eps_T) if u_p is None else nu_p + 1j * u_p - eps_T)
        assert np.all(err <= 1e-10 * np.abs(eps_T))
    if tau_g is not None:
        h = 1e-3 * min(ep.gamma1, ep.gamma2)
        _, ref, _, flags = _delays(ep, delta, method="fd", h=h)
        assert np.all(flag_names(flags) == "")
        assert np.all(np.abs(tau_g - ref) <= np.maximum(1e-6 * np.abs(ref), 1e-12))


@pytest.fixture(scope="session")
def references():
    """_assert_matches_references, for the tests that check the batched
    spectra and maps."""
    return _assert_matches_references
