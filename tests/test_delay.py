"""Phase unwrapping, group delay by both methods, and the (P, L) delay map
through sweep_2d."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from omitlab import (ConfigError, DegenerateDenominator, EffectiveParams,
                     NearZeroTransmission, NumericalError, StepTooLarge,
                     default_config, effective_params, flag_names, group_delay,
                     probe_response, solve_steady, spectrum_sweep, sweep_2d,
                     tau_g_analytic, unwrap_phase)
from omitlab.delay import KIND_NAMES, kind_codes

OMEGA_M = default_config().omega_m


def _bare_ep(G1=0.0, G2=0.0, gamma=None, kappa=None, delta_prime=None):
    om = OMEGA_M
    g = om / 1.2e5 if gamma is None else gamma
    return EffectiveParams(
        kappa=0.1875 * om if kappa is None else kappa,
        delta_prime=om if delta_prime is None else delta_prime,
        G1=G1, G2=G2, omega_phi1=1.1 * om, omega_phi2=0.9 * om,
        gamma1=g, gamma2=g, omega_m=om)


# ---------------------------------------------------------------------------
# unwrapping

def test_unwrap_identity_on_smooth_data():
    ph = np.linspace(-0.4, 0.4, 50)
    np.testing.assert_array_equal(unwrap_phase(ph), ph)


def test_unwrap_restores_continuity():
    out = unwrap_phase([3.0, -3.0])
    assert out[0] == 3.0
    assert out[1] == pytest.approx(2 * math.pi - 3.0, rel=1e-15)
    # a wrapped linear ramp comes back linear
    t = np.linspace(0.0, 6 * math.pi, 400)
    wrapped = np.angle(np.exp(1j * t))
    np.testing.assert_allclose(unwrap_phase(wrapped), t, atol=1e-12)


def test_unwrap_warns_when_undersampled():
    with pytest.warns(UserWarning, match="undersampled"):
        unwrap_phase([0.0, 0.96 * math.pi])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        unwrap_phase([0.0, 0.5 * math.pi, math.pi])


def test_unwrap_rejects_2d():
    with pytest.raises(ConfigError):
        unwrap_phase(np.zeros((2, 2)))


def test_bare_cavity_phase_profile():
    """Without coupling the transmitted phase is pi - 2*arctan((D'-D)/kappa)."""
    ep = _bare_ep()
    grid = np.linspace(0.5, 1.5, 801) * OMEGA_M
    pr = probe_response(ep, grid)
    got = unwrap_phase(np.angle(pr.t_p))
    expect = math.pi - 2.0 * np.arctan((ep.delta_prime - grid) / ep.kappa)
    np.testing.assert_allclose(got, expect, atol=1e-12)


# ---------------------------------------------------------------------------
# group delay

def test_bare_cavity_delay_both_methods():
    ep = _bare_ep()
    for method in ("analytic", "fd"):
        res = group_delay(ep, 0.0, ep.delta_prime, method=method)
        assert res.tau_g == pytest.approx(2.0 / ep.kappa, rel=1e-10)
        assert res.classification == "slow"
    # 2/kappa at the reference kappa is 21.22 ns
    assert 2.0 / ep.kappa == pytest.approx(21.220659078919379e-9, rel=1e-12)


def test_bare_cavity_delay_lorentzian_profile():
    ep = _bare_ep()
    for x in (0.8, 1.0, 1.3):
        delta = x * OMEGA_M
        expect = 2.0 * ep.kappa / (ep.kappa ** 2 + (ep.delta_prime - delta) ** 2)
        res = group_delay(ep, 0.0, delta)
        assert res.tau_g == pytest.approx(expect, rel=1e-10)
    off = group_delay(ep, 0.0, ep.delta_prime + ep.kappa)
    assert off.tau_g == pytest.approx(1.0 / ep.kappa, rel=1e-10)


def test_fd_matches_analytic_across_spectrum(ep, ss):
    grid = np.linspace(0.5, 1.5, 201) * OMEGA_M
    for delta in grid:
        a = group_delay(ep, ss.a0, delta, method="analytic")
        f = group_delay(ep, ss.a0, delta, method="fd")
        assert f.tau_g == pytest.approx(a.tau_g, rel=1e-6)
        assert f.method == "central-difference" and f.step is not None


def test_fd_delay_takes_one_stencil_call(ep, monkeypatch):
    """The fd delay evaluates the kernel at the centre and, in one more
    call, at the four stencil points Delta +- h, Delta +- h/2; its tau_g
    keeps the bits of the Richardson pair of three-point slopes at h and
    h/2, each of which evaluated the centre again."""
    import omitlab.delay as dmod

    grid = np.linspace(0.9, 1.1, 7) * OMEGA_M
    step = 1e-6 * OMEGA_M

    def slope(h):
        pc, pp, pm = probe_response(ep, np.stack([grid, grid + h, grid - h])).phase
        return (dmod._local_unwrap(pc, pp) - dmod._local_unwrap(pc, pm)) / (2.0 * h)

    d1, d2 = slope(step), slope(step / 2.0)
    calls = []
    monkeypatch.setattr(dmod, "probe_response", lambda ep, x: calls.append(
        np.shape(x)) or probe_response(ep, x))
    tau = dmod._delays(ep, grid, "fd")[1]
    assert calls == [(7,), (4, 7)]
    np.testing.assert_array_equal(tau, (4.0 * d2 - d1) / 3.0)


def test_vectorized_delay_matches_scalar(ep, ss):
    grid = np.linspace(0.7, 1.3, 11) * OMEGA_M
    vec = tau_g_analytic(ep, grid)
    for k, d in enumerate(grid):
        assert vec[k] == group_delay(ep, ss.a0, float(d)).tau_g


class _BC:
    """Bicomplex scalar a + j*b with an independent unit j^2 = -1.

    Evaluating an analytic expression at delta + j*h propagates the exact
    first derivative in the j-component with no subtractive cancellation,
    which makes it an algebra-free check of hand-written derivatives.
    """

    __slots__ = ("re", "im")

    def __init__(self, re, im=0j):
        self.re = complex(re)
        self.im = complex(im)

    @staticmethod
    def _lift(v):
        return v if isinstance(v, _BC) else _BC(v)

    def __add__(self, o):
        o = self._lift(o)
        return _BC(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, o):
        o = self._lift(o)
        return _BC(self.re - o.re, self.im - o.im)

    def __rsub__(self, o):
        return self._lift(o) - self

    def __mul__(self, o):
        o = self._lift(o)
        return _BC(self.re * o.re - self.im * o.im,
                   self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __truediv__(self, o):
        o = self._lift(o)
        den = o.re * o.re + o.im * o.im
        num = self * _BC(o.re, -o.im)
        return _BC(num.re / den, num.im / den)

    def __rtruediv__(self, o):
        return self._lift(o) / self


def _tp_bicomplex(ep, delta):
    """t_p rebuilt from the closed form on bicomplex arguments."""
    L1 = ep.omega_phi1 ** 2 - delta * delta - 1j * ep.gamma1 * delta
    L2 = ep.omega_phi2 ** 2 - delta * delta - 1j * ep.gamma2 * delta
    A = ep.kappa - 1j * (ep.delta_prime + delta)
    Ap = ep.kappa + 1j * (ep.delta_prime - delta)
    B = ep.G1 ** 2 * ep.omega_phi1 * L2 + ep.G2 ** 2 * ep.omega_phi2 * L1
    d = A * Ap * L1 * L2 - 2.0 * ep.delta_prime * B
    a_plus = (A * L1 * L2 + 1j * B) / d
    return 1.0 - 2.0 * ep.kappa * a_plus


def test_analytic_derivative_against_bicomplex_step(ep):
    # truncation is O(h^2) with no cancellation, so h can sit far below
    # anything a real-valued finite difference could tolerate
    h = 1e-20 * OMEGA_M
    for x in (0.62, 0.9, 1.0, 1.09, 1.1, 1.33):
        delta = x * OMEGA_M
        pr = probe_response(ep, delta)
        t_p, dt_p = pr.t_p, -pr.deps_T
        bc = _tp_bicomplex(ep, _BC(delta, h))
        assert bc.re == pytest.approx(t_p, rel=1e-14)
        assert bc.im / h == pytest.approx(dt_p, rel=1e-12)


def test_step_too_large_near_narrow_window(ep, ss):
    with pytest.raises(StepTooLarge):
        group_delay(ep, ss.a0, 1.1 * OMEGA_M, method="fd", h=0.05 * OMEGA_M)


def test_method_and_step_validation(ep, ss):
    for method in ("secret", "central-difference"):  # the label is not a method
        with pytest.raises(ConfigError):
            group_delay(ep, ss.a0, OMEGA_M, method=method)
    with pytest.raises(ConfigError):
        group_delay(ep, ss.a0, OMEGA_M, method="fd", h=-1.0)
    # the analytic derivative takes no step: one given would be ignored
    with pytest.raises(ConfigError, match="method 'fd' only"):
        group_delay(ep, ss.a0, OMEGA_M, method="analytic", h=1e-3 * OMEGA_M)


def test_near_zero_transmission_raises():
    """Hunt the exact transmission zero in (delta, G1) at broad damping and
    check that the phase derivative refuses to evaluate there."""
    om = OMEGA_M
    gam = om / 200.0

    def make_ep(G1):
        return EffectiveParams(kappa=0.1875 * om, delta_prime=om,
                               G1=float(G1), G2=0.1 * om,
                               omega_phi1=1.1 * om, omega_phi2=0.9 * om,
                               gamma1=gam, gamma2=gam, omega_m=om)

    def tp(d, g1):
        return complex(probe_response(make_ep(g1 * om), d * om).t_p)

    x = np.array([1.10075, 0.0325])
    for _ in range(60):
        f0 = tp(*x)
        if abs(f0) < 3e-16:
            break
        hd = 1e-9
        fd = (tp(x[0] + hd, x[1]) - tp(x[0] - hd, x[1])) / (2 * hd)
        fg = (tp(x[0], x[1] + hd) - tp(x[0], x[1] - hd)) / (2 * hd)
        J = np.array([[fd.real, fg.real], [fd.imag, fg.imag]])
        x = x - np.linalg.solve(J, [f0.real, f0.imag])

    assert abs(tp(*x)) < 1e-14, "zero hunt did not converge"
    with pytest.raises(NearZeroTransmission):
        group_delay(make_ep(x[1] * om), 100.0 + 0j, x[0] * om)
    assert np.isnan(tau_g_analytic(make_ep(x[1] * om), x[0] * om))


def test_classification_thresholds():
    """|tau_g| <= 1e-12 s is neutral, the doubles just beyond are slow and
    fast, and nan has no kind, through the codes and their names."""
    taus = np.array([1e-12, -1e-12, 0.0, np.nextafter(1e-12, np.inf),
                     np.nextafter(-1e-12, -np.inf), np.nan])
    codes = kind_codes(taus)
    assert codes.dtype == np.uint8
    assert [KIND_NAMES[c] for c in codes] == ["neutral", "neutral", "neutral",
                                              "slow", "fast", ""]
    assert [KIND_NAMES[kind_codes(t)] for t in taus.tolist()] == \
        [KIND_NAMES[c] for c in codes]
    ep = _bare_ep()
    assert group_delay(ep, 0.0, OMEGA_M).classification == "slow"


# ---------------------------------------------------------------------------
# the (P, L) delay map, a sweep_2d map

def _delay_map(cfg, P, L, delta, method="analytic"):
    return sweep_2d(cfg, ("P", P), ("L", L), observable="tau_g", delta=delta,
                    method=method)


def test_delay_map_undriven_row_is_bare_cavity():
    cfg = default_config()
    delta = 1.1 * cfg.omega_m
    m = _delay_map(cfg, [0.0], [0, 100], delta)
    bare = 2.0 * cfg.kappa / (cfg.kappa ** 2 + (cfg.omega_m - delta) ** 2)
    assert m.values.shape == (1, 2)
    np.testing.assert_allclose(m.values[0], bare, rtol=1e-12)


def test_delay_map_single_cell_reference():
    cfg = default_config()
    m = _delay_map(cfg, [0.0], [50], cfg.omega_m)
    assert m.values[0, 0] == pytest.approx(2.0 / cfg.kappa, rel=1e-12)


def test_delay_map_rounds_oam():
    cfg = default_config()
    m = _delay_map(cfg, [1e-6], [99.6], 1.1 * cfg.omega_m)
    direct = _delay_map(cfg, [1e-6], [100], 1.1 * cfg.omega_m)
    assert m.values[0, 0] == direct.values[0, 0]
    assert m.axis2_grid.tolist() == [100.0]


def test_delay_map_sign_change_along_oam():
    """At microwatt drive the delay at Delta = 1.1 omega_m changes sign as
    the angular momentum grows."""
    cfg = default_config()
    m = _delay_map(cfg, [1e-6], np.linspace(0, 200, 9), 1.1 * cfg.omega_m)
    taus = m.values[0]
    assert np.any(taus > 0) and np.any(taus < 0)
    assert {"slow", "fast"} <= {KIND_NAMES[c] for c in kind_codes(taus)}


def test_delay_map_captures_cell_failures(monkeypatch):
    cfg = default_config()
    import omitlab.delay as dmod

    # with the floor raised to 0.9 the driven cell (P = 1e-6 W, L = 100,
    # |t_p| = 0.633) fails; the three bare cells (|t_p| ~ 1) do not
    delta = 1.1 * cfg.omega_m
    monkeypatch.setattr(dmod, "_TP_FLOOR", 0.9)
    m = _delay_map(cfg, [0.0, 1e-6], [0, 100], delta)
    assert flag_names(m.flags).tolist() == [["", ""], ["", "NearZeroTransmission"]]
    assert np.isnan(m.values[1, 1])
    driven = replace(cfg, P=1e-6, L=100)
    ep = effective_params(driven, solve_steady(driven))
    assert abs(probe_response(ep, delta).t_p) == pytest.approx(0.633, abs=1e-3)
    for i, j in ((0, 0), (0, 1), (1, 0)):
        assert np.isfinite(m.values[i, j])

    # with the floor back, the driven cell at P = 1e120 W overflows the
    # closed form and the bare one (L = 0) keeps its finite value, for
    # either observable; the spectrum flags every row with the same name,
    # and the undamped bare mirror on resonance (d = 0) raises it
    monkeypatch.undo()
    want = [["", ""], ["", "DegenerateDenominator"]]
    for obs in ("nu_p", "tau_g"):
        m = sweep_2d(cfg, ("P", [1e-6, 1e120]), ("L", [0, 100]), observable=obs,
                     delta=delta)
        assert flag_names(m.flags).tolist() == want
        assert np.isnan(m.values[1, 1])
        assert np.isfinite(m.values[:, 0]).all() and np.isfinite(m.values[0, 1])
        assert m.values[1, 0] == m.values[0, 0]
    with pytest.raises(DegenerateDenominator):
        group_delay(_bare_ep(gamma=0.0), 0.0, 1.1 * OMEGA_M)
    series = spectrum_sweep(replace(cfg, P=1e120), np.linspace(0.9, 1.1, 5) * OMEGA_M)
    assert set(flag_names(series.flags)) == {"DegenerateDenominator"}
    assert np.isnan(series.tau_g).all()


def test_extreme_drive_is_finite_or_flagged():
    """Fixed-mode maps over P = 1e-3 ... 1e300 W, where the closed form
    overflows (from about 5e102 W by the analytic route and 3e259 W by fd)
    and so does eps_c (from about 2.3e281 W): with warnings as errors, every
    cell is finite or flagged and no map aborts. A spectrum at 1e120 W
    flags every row, and group_delay raises there."""
    cfg = default_config()
    P = np.geomspace(1e-3, 1e300, 31)
    grid = np.linspace(0.5, 1.5, 21) * OMEGA_M
    strong = replace(cfg, P=1e120)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        maps = [sweep_2d(cfg, ("P", P), ("Delta", grid), observable=obs, method=method)
                for obs, method in (("nu_p", "analytic"), ("tau_g", "analytic"),
                                    ("tau_g", "fd"))]
        series = spectrum_sweep(strong)
        with pytest.raises(DegenerateDenominator):
            group_delay(effective_params(strong, solve_steady(strong)), 0.0, 1.1 * OMEGA_M)
    for m in maps:
        names = flag_names(m.flags)
        np.testing.assert_array_equal(np.isfinite(m.values), names == "")
        assert (names[P < 1e100] == "").all()
        assert "DegenerateDenominator" in names
        assert set(names[P > 1e282].ravel()) == {"NumericalError"}
    assert len(series.flags) == 4161
    assert set(flag_names(series.flags)) == {"DegenerateDenominator"}


def test_delay_map_rejects_empty_grid():
    with pytest.raises(ConfigError):
        _delay_map(default_config(), [], [0], OMEGA_M)


def test_delay_map_matches_group_delay(references):
    """Every cell against the scalar group_delay, flags and classification
    included, and the analytic cells against the finite difference at a fine
    step."""
    cfg = default_config()
    P = np.linspace(1e-7, 2e-6, 5)
    L = np.linspace(0, 200, 5)
    delta = 1.1 * cfg.omega_m
    seen = set()
    for method in ("analytic", "fd"):
        m = _delay_map(cfg, P, L, delta, method)
        kinds, names = np.array(KIND_NAMES)[kind_codes(m.values)], flag_names(m.flags)
        for i, Pi in enumerate(P):
            for j, Lj in enumerate(L):
                c = replace(cfg, P=float(Pi), L=int(round(Lj)))
                ss = solve_steady(c)
                ep = effective_params(c, ss)
                try:
                    ref = group_delay(ep, ss.a0, delta, method=method)
                except NumericalError as e:
                    assert names[i, j] == type(e).__name__
                    assert np.isnan(m.values[i, j]) and kinds[i, j] == ""
                    seen.add(names[i, j])
                    continue
                assert names[i, j] == ""
                assert m.values[i, j] == pytest.approx(ref.tau_g, rel=1e-12)
                assert kinds[i, j] == ref.classification
                if method == "analytic":
                    references(ep, ss.a0, delta, tau_g=m.values[i, j])
    # the default fd step is too coarse at this resonance for part of the grid
    assert seen == {"StepTooLarge"}
