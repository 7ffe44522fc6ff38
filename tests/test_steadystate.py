"""Steady-state branches: fixed effective detuning and the back-action cubic."""

import warnings
from dataclasses import replace
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest

import omitlab.steadystate as steadystate
from omitlab import (ConfigError, FixedEffective, NumericalError, SelfConsistent,
                     default_config, derive_constants, flag_names,
                     solve_steady, spectrum_sweep, steady_states, sweep_2d)
from omitlab.cli import main
from omitlab.model import config_grid, effective_params
from omitlab.response import _drift_matrix


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
    # over a grid, each cell has its one branch and no flag: uint8 codes
    # of the shape of the cells
    for c in (cfg, config_grid(cfg, P=[[0.0], [1e-3]], kappa=[1e6, 1e8, 1e9])):
        br = steadystate.fixed_branches(c, derive_constants(c), cfg.omega_m)
        assert br.flags.dtype == np.uint8 and br.flags.shape == br.a0.shape[1:]
        assert not br.flags.any() and (br.count == 1).all()


def test_static_displacements(cfg, dc, ss):
    # mirror 1 is pushed negative, mirror 2 positive; no residual rotation
    assert ss.phi10 == pytest.approx(-dc.g1 * ss.n / cfg.omega_phi1, rel=1e-15)
    assert ss.phi20 == pytest.approx(+dc.g2 * ss.n / cfg.omega_phi2, rel=1e-15)
    assert ss.phi10 < 0 < ss.phi20
    assert ss.lz1 == 0.0 and ss.lz2 == 0.0


def test_fixed_rejects_nonfinite(cfg):
    # a non-finite detuning in either mode is refused before any solve
    for mode in (FixedEffective(float("nan")), SelfConsistent(float("inf"))):
        with pytest.raises(ConfigError, match="detuning_mode.value must be finite"):
            steady_states(replace(cfg, detuning_mode=mode))


def test_self_consistent_no_backaction():
    # L = 0 removes the coupling; the cubic degenerates to the linear root
    delta0 = 0.7 * default_config().omega_m
    cfg = replace(default_config(), L=0, detuning_mode=SelfConsistent(delta0))
    dc = derive_constants(cfg)
    states = steady_states(cfg)
    assert len(states) == 1
    expect = dc.eps_c ** 2 / (cfg.kappa ** 2 + delta0 ** 2)
    assert states[0].n == pytest.approx(expect, rel=1e-13)
    assert states[0].delta_prime == pytest.approx(delta0, rel=1e-15)


def test_self_consistent_undriven():
    cfg = replace(default_config(), P=0.0,
                  detuning_mode=SelfConsistent(1.3 * default_config().omega_m))
    states = steady_states(cfg)
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
    """Three branches at strong drive and large bare detuning, counted by
    the signs of the cubic at its folds and found by Newton from the ends
    of their monotone stretches, matching an algebra-free bisection root
    finder."""
    delta0 = 2.0 * default_config().omega_m
    cfg = replace(default_config(), P=5e-3, detuning_mode=SelfConsistent(delta0))
    dc = derive_constants(cfg)
    chi = dc.g1 ** 2 / cfg.omega_phi1 + dc.g2 ** 2 / cfg.omega_phi2
    eps2 = dc.eps_c ** 2

    with pytest.warns(UserWarning, match="bistable"):
        states = steady_states(cfg)
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
        # Newton's root, stopped at the first step that is not shorter than
        # the last, meets the refinement target
        assert abs(_cubic(s.n, cfg.kappa, delta0, chi, eps2)) <= 1e-11 * eps2


def _upper_edge(cfg):
    """(delta0, n*): the larger bare detuning at which two roots of the
    cubic merge into the double root n*, at cfg's drive."""
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
    return delta0, (delta0 - u) / chi


def test_saddle_node_edge_reports_merged_roots_once():
    """At the upper edge of the bistable band in delta0 the two upper roots
    of the cubic merge at its upper fold n_+, where f = 0. The fold signs
    count one branch there, not two copies: the upper one (f(n_+) = 0 at a
    fold of its own) and no middle one (f(n_+) is not below 0); and the
    monotone Newton solve starts the upper root at n_+ itself."""
    cfg = replace(default_config(), P=5e-3)
    dc = derive_constants(cfg)
    kappa = cfg.kappa
    chi = dc.g1 ** 2 / cfg.omega_phi1 + dc.g2 ** 2 / cfg.omega_phi2
    eps2 = dc.eps_c ** 2
    delta0, n_double = _upper_edge(cfg)

    ns = [s.n for s in steady_states(replace(cfg, detuning_mode=SelfConsistent(delta0)))]
    assert len(ns) == 2
    assert ns[1] - ns[0] > 1e-9 * ns[1]
    # the simple root: np.roots on the same coefficients, then one Newton
    # step in float
    roots = np.roots([chi * chi, -2.0 * delta0 * chi, kappa ** 2 + delta0 ** 2, -eps2])
    n = min(roots, key=lambda r: abs(r.real)).real
    det = delta0 - chi * n
    n -= _cubic(n, kappa, delta0, chi, eps2) / (kappa ** 2 + det ** 2 - 2.0 * chi * n * det)
    assert ns[0] == pytest.approx(n, rel=1e-12)
    # at the double root f' = 0 too, so Newton's first step is 0/0 and the
    # root stays at the fold
    assert ns[1] == pytest.approx(n_double, rel=1e-12)


def _eigvals_roots(kappa, chi, eps2, delta0):
    """The roots of the cubic as the eigenvalues of the stacked companion
    matrices (placeholders where chi = 0)."""
    cubic = chi != 0.0
    coeffs = (chi * chi, -2.0 * delta0 * chi, kappa * kappa + delta0 * delta0, -eps2)
    lead = np.where(cubic, coeffs[0], 1.0)
    companion = np.zeros(kappa.shape + (3, 3))
    for k in range(3):
        companion[..., 0, k] = np.where(cubic, -coeffs[k + 1] / lead, 0.0)
    companion[..., 1, 0] = companion[..., 2, 1] = 1.0
    return np.linalg.eigvals(companion)


def _reference_roots(kappa, chi, eps2, delta0, roots):
    """Ascending roots n >= 0 of one cubic from its three eigenvalue roots.
    Two within 1e-7 relative of each other are a double root that rounding
    split (by about sqrt(eps)) or made complex: they count once, at their
    mean, which is well conditioned. Another root z is real where
    |Im z| <= 1e-7 |z|, and gets three Newton steps in float."""
    if chi == 0.0:
        return [eps2 / (kappa * kappa + delta0 * delta0)]
    r = sorted(roots, key=lambda z: (z.real, z.imag))
    out, i = [], 0
    while i < 3:
        if i < 2 and abs(r[i + 1] - r[i]) <= 1e-7 * abs(r[i + 1]):
            out.append(0.5 * (r[i] + r[i + 1]).real)
            i += 2
            continue
        z, i = r[i], i + 1
        if abs(z.imag) <= 1e-7 * abs(z) and z.real >= 0.0:
            n = z.real
            for _ in range(3):
                det = delta0 - chi * n
                n -= _cubic(n, kappa, delta0, chi, eps2) / (
                    kappa * kappa + det * det - 2.0 * chi * n * det)
            out.append(n)
    return sorted(out)


def test_branches_match_the_eigenvalue_solve():
    """The fold-sign count and the Newton roots give the branch counts and n
    of the companion-matrix eigenvalues, n within 1e-12 relative, and flag
    no cell: on a seeded P x L grid with P = 0 and L = 0 cells at bare
    detunings across the bistable band, and at the saddle-node edge."""
    rng = np.random.default_rng(1018)
    base = default_config()
    P = np.concatenate([[0.0], np.sort(rng.uniform(1e-5, 1e-2, 24))])
    L = np.concatenate([[0.0, 1.0], np.sort(rng.integers(2, 300, 24))])
    grid = config_grid(base, P=P[:, None], L=L[None, :])
    edge = replace(base, P=5e-3)
    cases = [(grid, x * base.omega_m) for x in rng.uniform(-1.0, 3.0, 6)]
    cases.append((edge, _upper_edge(edge)[0]))
    bistable = 0
    for c, delta0 in cases:
        dc = derive_constants(c)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            got = steadystate.self_consistent_branches(c, dc, delta0)
        assert (flag_names(got.flags) == "").all()
        kappa, chi, eps2 = np.broadcast_arrays(c.kappa, *_chi_eps2(c, dc))
        roots = _eigvals_roots(kappa, chi, eps2, delta0)
        for i in np.ndindex(kappa.shape):
            ref = _reference_roots(kappa[i], chi[i], eps2[i], delta0, roots[i])
            assert got.count[i] == len(ref), (i, ref)
            n = got.n[(slice(None),) + i]
            np.testing.assert_allclose(n[:len(ref)], ref, rtol=1e-12)
            assert np.isnan(n[len(ref):]).all()
        bistable += np.count_nonzero(got.count == 3)
    assert bistable > 0


def test_single_branch_at_weak_drive():
    cfg = replace(default_config(), P=1e-6,
                  detuning_mode=SelfConsistent(default_config().omega_m))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        states = steady_states(cfg)
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
    weak = replace(cfg, P=1e-6, detuning_mode=SelfConsistent(cfg.omega_m))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        lowest = solve_steady(sc, branch=0)
        top = solve_steady(sc, branch=2)
        assert lowest.n < top.n
        with pytest.raises(ConfigError, match="branch"):
            solve_steady(sc, branch=3)
        # every branch of steady_states is solve_steady's, field for field
        for c, count in ((cfg, 1), (weak, 1), (sc, 3)):
            states = steady_states(c)
            assert len(states) == count
            for b, s in enumerate(states):
                assert s == solve_steady(c, b)


def test_bistable_warning_names_the_caller():
    """Whichever route reaches the solver, the warning names the line that
    called into the package, not one inside it."""
    cfg = replace(default_config(), P=5e-3,
                  detuning_mode=SelfConsistent(2.0 * default_config().omega_m))
    axes = (("P", [5e-3]), ("Delta", [cfg.omega_m]))
    for solve in (solve_steady, steady_states, spectrum_sweep,
                  lambda c: sweep_2d(c, *axes)):
        with pytest.warns(UserWarning, match="bistable") as record:
            solve(cfg)
        assert [w.filename for w in record] == [__file__]


def test_fingerprint_travels_with_state(cfg, ss):
    from omitlab import config_fingerprint
    assert ss.config_fingerprint == config_fingerprint(cfg)


def test_root_no_float_polishes_further_is_accepted(capsys, monkeypatch):
    """On the upper branch here Newton's steps from eps_c^2/kappa^2 shrink
    until the root is within an ulp, where the residual is rounding noise
    and a step no longer shrinks. The command reports the three branches,
    no root reaches the step cap, and each lies within 1e-15 of the exact
    root of the same cubic."""
    newton, calls = steadystate._newton, []

    def spy(*args):
        calls.append((args, newton(*args)))
        return calls[-1][1]

    monkeypatch.setattr(steadystate, "_newton", spy)
    argv = ["steady", "--P", "0.01", "--kappa", "942477.796076938", "--delta0", "40"]
    with pytest.warns(UserWarning, match="bistable"):
        assert main(argv) == 0
    assert len(capsys.readouterr().out.splitlines()) == 1 + 3
    [((start, kappa, delta0, chi, eps2), (roots, stalled))] = calls
    assert np.isfinite(start).all() and not stalled.any()
    for root in roots:
        n = _exact_root(root, kappa, delta0, chi, eps2)
        assert abs(Fraction(float(root)) - n) <= Fraction(1e-15) * n


def _chi_eps2(c, dc):
    return dc.g1 ** 2 / c.omega_phi1 + dc.g2 ** 2 / c.omega_phi2, dc.eps_c ** 2


def _exact_root(n, kappa, delta0, chi, eps2):
    """The root of the cubic next to n, by Newton's method in exact
    arithmetic on the float coefficients."""
    n, kappa, delta0, chi, eps2 = (Fraction(float(v)) for v in (n, kappa, delta0, chi, eps2))
    for _ in range(3):
        det = delta0 - chi * n
        n -= (n * (kappa ** 2 + det * det) - eps2) / (kappa ** 2 + det * det - 2 * chi * n * det)
    return n


def test_extreme_drive_is_solved_or_flagged():
    """Over P = 1e-3 to 1e300 W at the default point in self-consistent
    mode, every root is within 1e-12 of the exact root of its cubic, or its
    cell is flagged: RootRefinementError where Newton still moves after its
    step cap (from about 5.6e21 W), NumericalError where the cubic is not
    finite at the root (from about 3e91 W, where it overflows at the upper
    start, to 1e300 W, where eps_c itself does). Its first Newton step
    there was not finite, so the start came back as the root. In fixed mode
    the cells where eps_c overflows (from about 2.3e281 W) are flagged
    NumericalError, where n came back inf without a flag. No numpy warning
    reaches the caller, and the scalar solves raise the flag."""
    base = replace(default_config(), detuning_mode=SelfConsistent(default_config().omega_m))
    delta0 = base.detuning_mode.value
    c = config_grid(base, P=np.geomspace(1e-3, 1e300, 304))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        dc = derive_constants(c)
        br = steadystate.self_consistent_branches(c, dc, delta0)
        fixed = steadystate.fixed_branches(c, dc, delta0)
        with pytest.raises(NumericalError):
            steady_states(replace(base, P=1e100))
        with pytest.raises(NumericalError) as exc:
            solve_steady(replace(default_config(), P=1e290))
    assert exc.type is NumericalError
    overflow = ~np.isfinite(dc.eps_c)
    assert 1e281 < c.P[overflow].min() < 2e282
    np.testing.assert_array_equal(flag_names(fixed.flags), np.where(overflow, "NumericalError", ""))
    names = flag_names(br.flags)
    assert names[0] == "" and names[-1] == "NumericalError"
    assert set(names) == {"", "RootRefinementError", "NumericalError"}
    assert c.P[names == "NumericalError"].min() > 1e91
    with np.errstate(over="ignore"):
        kappa, chi, eps2 = np.broadcast_arrays(c.kappa, *_chi_eps2(c, dc))
    for i in np.flatnonzero(names == ""):
        n = br.n[0, i]
        exact = _exact_root(n, kappa[i], delta0, chi[i], eps2[i])
        assert br.count[i] == 1 and abs(Fraction(float(n)) - exact) <= Fraction(1e-12) * exact


def test_displacements_scale_with_the_root():
    """In self-consistent mode phi10 and phi20 are g_alpha n / omega_phi of
    the root n itself, not of |a0|^2 rebuilt from Delta' = Delta_0 - chi n,
    which misses the root by up to 1e-12 here on the upper branches."""
    cfg = replace(default_config(), P=0.01, kappa=942477.796076938,
                  detuning_mode=SelfConsistent(40.0 * default_config().omega_m))
    dc = derive_constants(cfg)
    with pytest.warns(UserWarning, match="bistable"):
        states = steady_states(cfg)
    assert len(states) == 3
    for s in states:
        n = _exact_root(s.n, cfg.kappa, cfg.detuning_mode.value, *_chi_eps2(cfg, dc))
        for phi, g, om in ((s.phi10, dc.g_alpha1, cfg.omega_phi1),
                           (s.phi20, dc.g_alpha2, cfg.omega_phi2)):
            exact = Fraction(g) * n / Fraction(om)
            assert abs(Fraction(phi) - exact) <= Fraction(1e-15) * abs(exact)


@pytest.mark.parametrize("argv, tol", [
    (["--P", "0.01", "--kappa", "942477.796076938", "--delta0", "40"], 1e-15),
    (["--P", "0.02180270416773971", "--kappa", "9424.77796076938", "--L", "419",
      "--delta0", "802.7276018574377"], 1e-12)])
def test_steady_prints_the_roots_of_the_cubic(capsys, argv, tol):
    """The n column of `steady` is the solver's root, not |a0|^2 rebuilt
    from Delta' = Delta_0 - chi n, which rounds at eps |Delta_0| (6.3e-13
    and 1.0e-12 off on the upper branches of the first point). At the
    second point the two upper roots lie 2.4e-6 relative apart, far below
    eps_c^2/kappa^2: still three branches."""
    with pytest.warns(UserWarning, match="bistable"):
        assert main(["steady", *argv]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert len(rows) == 3
    opt = dict(zip(argv[::2], map(float, argv[1::2])))
    base = default_config()
    cfg = replace(base, P=opt["--P"], kappa=opt["--kappa"], L=int(opt.get("--L", base.L)),
                  detuning_mode=SelfConsistent(opt["--delta0"] * base.omega_m))
    chi, eps2 = _chi_eps2(cfg, derive_constants(cfg))
    for row in rows:
        n = float(row.split()[1])
        exact = _exact_root(n, cfg.kappa, cfg.detuning_mode.value, chi, eps2)
        assert abs(Fraction(n) - exact) <= Fraction(tol) * exact


@pytest.mark.parametrize("P, rel", [(5e-3, 1e-12), (40e-3, 1e-11)])
def test_branch_count_never_rises_across_the_upper_edge(P, rel):
    """Over 2001 bare detunings within rel of the upper saddle-node edge the
    count falls from 3 to 1 and never rises again: it rests on the signs of
    the cubic at its folds, not on a tolerance between computed roots."""
    cfg = replace(default_config(), P=P)
    dc = derive_constants(cfg)
    edge = _upper_edge(cfg)[0]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        counts = [int(steadystate.self_consistent_branches(cfg, dc, d0).count)
                  for d0 in edge * (1.0 + np.linspace(-rel, rel, 2001))]
    assert counts[0] == 3 and counts[-1] == 1
    assert all(b <= a for a, b in zip(counts, counts[1:]))


def _fold_sign_count(kappa, chi, eps2, delta0):
    """The branch count from the signs of the cubic at its folds, in
    60-digit decimal arithmetic on the float coefficients."""
    with localcontext() as ctx:
        ctx.prec = 60
        kappa, chi, eps2, delta0 = (Decimal(float(v)) for v in (kappa, chi, eps2, delta0))
        disc = delta0 * delta0 - 3 * kappa * kappa
        if disc <= 0:
            return 1
        f = [n * (kappa * kappa + (delta0 - chi * n) ** 2) - eps2
             for n in ((2 * delta0 - disc.sqrt()) / (3 * chi),
                       (2 * delta0 + disc.sqrt()) / (3 * chi))]
        return (f[0] >= 0) + (f[0] > 0 > f[1]) + (f[1] <= 0)


def test_branch_counts_match_fold_signs_in_decimal():
    """On a seeded grid at extreme drive and linewidth (P from 1e-7 to 1 W,
    kappa from 1e-4 to 1e-3 of the reference, L = 355, Delta_0 = 682
    omega_m), where twin upper roots can lie far closer than
    eps_c^2/kappa^2, every count is the fold-sign rule in exact decimals
    and no cell is flagged."""
    rng = np.random.default_rng(355)
    base = default_config()
    c = config_grid(replace(base, L=355), P=np.sort(10 ** rng.uniform(-7, 0, 40))[:, None],
                    kappa=np.sort(10 ** rng.uniform(-4, -3, 40))[None, :] * base.kappa)
    dc = derive_constants(c)
    delta0 = 682.0 * base.omega_m
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        br = steadystate.self_consistent_branches(c, dc, delta0)
    kappa, chi, eps2 = np.broadcast_arrays(c.kappa, *_chi_eps2(c, dc))
    ref = [[_fold_sign_count(kappa[i, j], chi[i, j], eps2[i, j], delta0)
            for j in range(40)] for i in range(40)]
    np.testing.assert_array_equal(br.count, ref)
    assert np.count_nonzero(br.count == 3) > 0
    assert (flag_names(br.flags) == "").all()


def test_slope_sign_matches_the_drift_determinant():
    """On every branch of 300 seeded self-consistent configurations the sign
    of f'(n) is that of det K, the drift matrix of the linearized dynamics:
    + on branches 0 and 2, - on branch 1, where K has a zero eigenvalue at
    each saddle-node edge. The check shares no algebra with the solver."""
    rng = np.random.default_rng(424)
    base = default_config()
    signs = {0: set(), 1: set(), 2: set()}
    for _ in range(300):
        cfg = replace(base, P=10 ** rng.uniform(-4, -2), L=int(rng.integers(1, 300)),
                      kappa=10 ** rng.uniform(-0.7, 0.7) * base.kappa,
                      detuning_mode=SelfConsistent(rng.uniform(-1.0, 3.0) * base.omega_m))
        chi, _ = _chi_eps2(cfg, derive_constants(cfg))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            states = steady_states(cfg)
        for s in states:
            det = cfg.detuning_mode.value - chi * s.n
            slope = cfg.kappa ** 2 + det * det - 2.0 * chi * s.n * det
            det_k = np.linalg.det(_drift_matrix(effective_params(cfg, s), s.a0))
            assert np.sign(slope) == np.sign(det_k.real), (cfg, s)
            signs[s.branch_index].add(np.sign(slope))
    assert signs == {0: {1.0}, 1: {-1.0}, 2: {1.0}}


def test_step_cap_flags_the_cell(capsys, monkeypatch):
    """A root still moving at the step cap is a RootRefinementError: the
    command exits 2 and names it, and a map flags the cell and completes."""
    monkeypatch.setattr(steadystate, "_MAX_STEPS", 1)
    assert main(["steady", "--P", "5e-3", "--delta0", "2"]) == 2
    assert "RootRefinementError" in capsys.readouterr().err
    cfg = replace(default_config(), detuning_mode=SelfConsistent(2.0 * default_config().omega_m))
    m = sweep_2d(cfg, ("P", [1e-6, 5e-3]), ("Delta", [cfg.omega_m]))
    assert flag_names(m.flags).tolist() == [["RootRefinementError"]] * 2
    assert np.isnan(m.values).all()
