"""Command-line interface: subcommands, manifests, exit codes, determinism."""

import json
import os
import subprocess
import sys
import warnings
import xml.etree.ElementTree as ET
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from omitlab import (ConfigError, SelfConsistent, config_fingerprint,
                     config_from_dict, config_from_json, config_to_json,
                     default_config, effective_params, group_delay,
                     oracle_check, solve_steady)
from omitlab.cli import build_parser, main
from omitlab.sweep import default_delta_grid


def _read(path):
    with open(path) as fh:
        return fh.read()


def _rows(csv_text):
    lines = csv_text.splitlines()
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


def test_defaults_round_trip(capsys):
    assert main(["defaults"]) == 0
    out = capsys.readouterr().out
    cfg = config_from_json(out)
    assert cfg == default_config()
    assert config_fingerprint(cfg) == config_fingerprint(default_config())
    assert "notes" in json.loads(out)


def test_defaults_to_file(tmp_path):
    out = tmp_path / "cfg.json"
    assert main(["defaults", "--out", str(out)]) == 0
    assert config_from_json(_read(out)) == default_config()
    manifest = json.loads(_read(tmp_path / "cfg.manifest.json"))
    assert manifest["subcommand"] == "defaults"
    assert manifest["outputs"] == ["cfg.json"]
    assert manifest["config_fingerprint"] == config_fingerprint(default_config())


def test_steady_table(capsys):
    assert main(["steady"]) == 0
    out = capsys.readouterr().out
    head, row = out.splitlines()[0], out.splitlines()[1]
    for col in ("branch", "n", "Re_a0", "Im_a0", "delta_prime/omega_m",
                "residual"):
        assert col in head
    cells = row.split()
    assert int(cells[0]) == 0
    assert float(cells[1]) == pytest.approx(5877515.5418814251708, rel=1e-10)
    assert float(cells[4]) == pytest.approx(1.0, rel=1e-12)


def test_spectrum_undriven_peak(tmp_path):
    out = tmp_path / "s.csv"
    assert main(["spectrum", "--P", "0", "--out", str(out)]) == 0
    head, rows = _rows(_read(out))
    assert head == ["delta_over_omega_m", "nu_p", "u_p", "phase_rad",
                    "tau_g_us", "flag"]
    nu = np.array([float(r[1]) for r in rows])
    x = np.array([float(r[0]) for r in rows])
    assert nu.max() == pytest.approx(2.0, abs=1e-6)
    assert x[np.argmax(nu)] == pytest.approx(1.0, abs=1e-3)
    manifest = json.loads(_read(tmp_path / "s.manifest.json"))
    assert manifest["stats"]["n_points"] == len(rows)


def test_default_spectrum_is_the_default_grid(tmp_path):
    """A spectrum at the CLI's default grid flags writes one row per point
    of sweep.default_delta_grid, at the same detunings: the benchmark's
    checks rebuild the grid from the library."""
    out = tmp_path / "s.csv"
    assert main(["spectrum", "--out", str(out)]) == 0
    rows = _rows(_read(out))[1]
    ep = effective_params(default_config(), solve_steady(default_config()))
    grid = default_delta_grid(ep)
    assert len(rows) == grid.size
    assert [r[0] for r in rows] == [repr(x) for x in (grid / ep.omega_m).tolist()]


def test_spectrum_svg(tmp_path):
    out = tmp_path / "s.csv"
    assert main(["spectrum", "--points", "201", "--out", str(out), "--svg"]) == 0
    svg = tmp_path / "s.svg"
    root = ET.fromstring(_read(svg))
    assert root.tag.endswith("svg")
    manifest = json.loads(_read(tmp_path / "s.manifest.json"))
    assert manifest["outputs"] == ["s.csv", "s.svg"]


def test_spectrum_grid_validation():
    assert main(["spectrum", "--delta-min", "1.5", "--delta-max", "0.5"]) == 1
    assert main(["spectrum", "--points", "1"]) == 1


def test_csv_byte_determinism(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["spectrum", "--points", "301"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_dips_report(tmp_path, capsys):
    out = tmp_path / "d.json"
    assert main(["dips", "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert text.startswith("dips: 2")
    rep = json.loads(_read(out))
    assert rep["count"] == 2
    assert len(rep["positions_over_omega_m"]) == 2
    assert rep["positions_over_omega_m"][0] == pytest.approx(0.894, abs=5e-3)
    assert rep["positions_over_omega_m"][1] == pytest.approx(1.096, abs=5e-3)


def test_delay_matches_library(tmp_path, capsys):
    out = tmp_path / "g.json"
    assert main(["delay", "--delta", "1.05", "--out", str(out)]) == 0
    cfg = default_config()
    ss = solve_steady(cfg)
    ep = effective_params(cfg, ss)
    expect = group_delay(ep, ss.a0, 1.05 * cfg.omega_m)
    rep = json.loads(_read(out))
    assert rep["tau_g_us"] == pytest.approx(expect.tau_g * 1e6, rel=1e-12)
    assert rep["classification"] == expect.classification
    assert "tau_g" in capsys.readouterr().out


def test_delay_fd_method(capsys):
    assert main(["delay", "--delta", "1.0", "--method", "fd"]) == 0
    assert "central-difference" in capsys.readouterr().out


def test_delay_map_outputs(tmp_path):
    out = tmp_path / "dm.csv"
    assert main(["delay-map", "--p-points", "6", "--l-points", "6",
                 "--out", str(out), "--svg"]) == 0
    head, rows = _rows(_read(out))
    assert head == ["P_mW", "L", "tau_g_us", "classification", "flag"]
    assert len(rows) == 36
    kinds = {r[3] for r in rows}
    assert "slow" in kinds and "fast" in kinds
    manifest = json.loads(_read(tmp_path / "dm.manifest.json"))
    stats = manifest["stats"]
    assert stats["max_abs_tau_g_us"] > 0
    assert stats["n_slow"] > 0 and stats["n_fast"] > 0
    assert stats["n_error"] == 0
    ET.fromstring(_read(tmp_path / "dm.svg"))


def test_map2d_delta_axis_units(tmp_path):
    out = tmp_path / "m.csv"
    assert main(["map2d", "--axis1", "L", "--grid1", "0:100:2",
                 "--axis2", "Delta", "--grid2", "0.9:1.1:3",
                 "--out", str(out)]) == 0
    head, rows = _rows(_read(out))
    assert head == ["axis1", "axis2", "value", "flag"]
    assert len(rows) == 6
    # Delta column keeps the units the flag was given in
    assert [r[1] for r in rows[:3]] == ["0.9", "1.0", "1.1"]
    cfg = default_config()
    bare = 2 * cfg.kappa ** 2 / (cfg.kappa ** 2 + (cfg.omega_m - 0.9 * cfg.omega_m) ** 2)
    assert float(rows[0][2]) == pytest.approx(bare, rel=1e-12)
    # an L axis is written at the integer quantum numbers it was computed at
    assert main(["map2d", "--axis1", "L", "--grid1", "0:10:4",
                 "--axis2", "Delta", "--grid2", "0.9:1.1:2",
                 "--out", str(out)]) == 0
    assert [r[0] for r in _rows(_read(out))[1][::2]] == ["0.0", "3.0", "7.0", "10.0"]
    # a Delta first axis too, cell for cell the transpose of the map above
    first = tmp_path / "first.csv"
    assert main(["map2d", "--axis1", "Delta", "--grid1", "0.9:1.1:2",
                 "--axis2", "L", "--grid2", "0:10:4", "--out", str(first)]) == 0
    rows_first = _rows(_read(first))[1]
    assert [r[0] for r in rows_first] == ["0.9"] * 4 + ["1.1"] * 4
    assert sorted([r[1], r[0], *r[2:]] for r in rows_first) == sorted(_rows(_read(out))[1])


def test_map2d_grid_validation():
    assert main(["map2d", "--axis1", "P", "--grid1", "junk",
                 "--axis2", "Delta", "--grid2", "0.9:1.1:3"]) == 1
    assert main(["map2d", "--axis1", "P", "--grid1", "0:1:2",
                 "--axis2", "P", "--grid2", "0:1:2"]) == 1
    # a fixed --delta next to a Delta axis would be ignored
    assert main(["map2d", "--axis1", "L", "--grid1", "0:100:2",
                 "--axis2", "Delta", "--grid2", "0.9:1.1:3", "--delta", "0.3"]) == 1


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
def test_outputs_get_the_umask_mode(tmp_path, umask, mode):
    """Outputs and manifests get the mode open() would give them."""
    old = os.umask(umask)
    try:
        assert main(["spectrum", "--points", "101", "--svg",
                     "--out", str(tmp_path / "s.csv")]) == 0
    finally:
        os.umask(old)
    assert [p.stat().st_mode & 0o777 for p in sorted(tmp_path.iterdir())] == [mode] * 3


def test_oracle_json(tmp_path, capsys):
    out_path = tmp_path / "o.json"
    assert main(["oracle", "--delta", "1.0", "--Q1", "50", "--Q2", "50",
                 "--out", str(out_path)]) == 0
    out = capsys.readouterr().out
    assert "pass: true" in out
    rep = json.loads(out.splitlines()[-1])
    assert rep["pass"] is True
    assert rep["a_plus_rel_err"] < 1e-3
    assert json.loads(_read(out_path)) == rep
    stats = json.loads(_read(tmp_path / "o.manifest.json"))["stats"]
    assert set(stats) == {"pass", "fit_residual", "rhs_evals",
                          "newton_iterations", "floquet_max"}
    assert stats["pass"] is True
    assert stats["fit_residual"] == rep["fit_residual"]
    assert stats["rhs_evals"] > 0
    assert stats["newton_iterations"] >= 1
    assert 0 < stats["floquet_max"] < 1


def test_oracle_checks_the_configured_q(tmp_path):
    """The oracle integrates the Q that --Q1 and --Q2 configure, not a
    relaxed Q = 50, and its manifest records that Q."""
    out_path = tmp_path / "o.json"
    assert main(["oracle", "--delta", "0.93", "--Q1", "2e4", "--Q2", "2e4",
                 "--out", str(out_path)]) == 0
    cfg = replace(default_config(), Q1=2e4, Q2=2e4)
    report = json.loads(_read(out_path))
    assert report == oracle_check(cfg, 0.93 * cfg.omega_m).as_dict()
    relaxed = replace(cfg, Q1=50.0, Q2=50.0)
    assert report != oracle_check(relaxed, 0.93 * cfg.omega_m).as_dict()
    manifest = json.loads(_read(tmp_path / "o.manifest.json"))
    assert config_from_dict(manifest["config"]) == cfg


def test_flag_overrides_config(tmp_path, capsys):
    cfgfile = tmp_path / "c.json"
    assert main(["defaults", "--out", str(cfgfile)]) == 0
    out = tmp_path / "s.csv"
    assert main(["spectrum", "--config", str(cfgfile), "--P", "0.004",
                 "--points", "101", "--out", str(out)]) == 0
    manifest = json.loads(_read(tmp_path / "s.manifest.json"))
    assert manifest["config"]["P"] == 0.004


def test_branch_and_detuning_flags(tmp_path, capsys):
    assert main(["steady", "--delta-prime", "0.5"]) == 0
    assert capsys.readouterr().out.splitlines()[1].split()[4] == "0.500000000000000"
    assert main(["steady", "--delta-prime", "0.5", "--delta0", "1.0"]) == 1
    assert "mutually exclusive" in capsys.readouterr().err
    with pytest.warns(UserWarning, match="bistable"):
        assert main(["steady", "--delta0", "2.0", "--P", "0.005"]) == 0
    out = capsys.readouterr().out
    assert len(out.splitlines()) == 1 + 3  # header plus three branches
    # delay-map honours --branch: on the top branch at 1.9 mW, L = 100 the
    # delay is fast (branch 0 gives +0.104 us, slow), cell for cell as map2d
    grid = ["--delta0", "1.0", "--branch", "2"]
    dm, m = tmp_path / "dm.csv", tmp_path / "m.csv"
    with pytest.warns(UserWarning, match="bistable"):
        assert main(["delay-map", *grid, "--p-start", "1.9", "--p-stop", "2.1",
                     "--p-points", "2", "--l-start", "99", "--l-stop", "100",
                     "--l-points", "2", "--out", str(dm)]) == 0
        assert main(["map2d", *grid, "--axis1", "P", "--grid1", "0.0019:0.0021:2",
                     "--axis2", "L", "--grid2", "99:100:2", "--observable", "tau_g",
                     "--delta", "1.1", "--out", str(m)]) == 0
    _, dm_rows = _rows(_read(dm))
    _, m_rows = _rows(_read(m))
    assert [r[4] for r in dm_rows] == [r[3] for r in m_rows] == [""] * 4
    for a, b in zip(dm_rows, m_rows):
        assert float(a[2]) * 1e-6 == pytest.approx(float(b[2]), rel=1e-14)
    P_mW, L, tau_us, kind, _ = dm_rows[1]
    assert (P_mW, L, kind) == ("1.9", "100", "fast")
    assert float(tau_us) == pytest.approx(-0.172, abs=1e-3)
    # the default grid reaches powers with a single branch: those cells are
    # flagged and the map is written
    assert main(["delay-map", *grid, "--p-points", "2", "--l-points", "2",
                 "--out", str(dm)]) == 0
    _, dm_rows = _rows(_read(dm))
    assert [r[2:] for r in dm_rows] == [["nan", "", "MissingBranch"]] * 4


def test_delay_map_flags_cells_without_the_branch(tmp_path):
    """At --branch 1 a map that crosses the bistable region flags the cells
    with a single branch as MissingBranch instead of exiting 1. The other
    cells are the scalar group delay on branch 1, and the manifest counts
    the flagged ones."""
    out = tmp_path / "dm.csv"
    with pytest.warns(UserWarning, match="bistable"):
        assert main(["delay-map", "--delta0", "1.5", "--branch", "1",
                     "--p-start", "1", "--p-stop", "4", "--p-points", "3",
                     "--l-points", "3", "--out", str(out)]) == 0
    _, rows = _rows(_read(out))
    flags = [r[4] for r in rows]
    assert set(flags) == {"", "MissingBranch"}
    cfg = default_config()
    sc = replace(cfg, detuning_mode=SelfConsistent(1.5 * cfg.omega_m))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # bistable points
        for P_mW, L, tau_us, kind, flag in rows:
            c = replace(sc, P=float(P_mW) * 1e-3, L=int(L))
            if flag:
                assert (tau_us, kind) == ("nan", "")
                with pytest.raises(ConfigError, match="branch 1 out of range"):
                    solve_steady(c, branch=1)
                continue
            ss = solve_steady(c, branch=1)
            ref = group_delay(effective_params(c, ss), ss.a0, 1.1 * cfg.omega_m)
            assert float(tau_us) * 1e-6 == pytest.approx(ref.tau_g, rel=1e-12)
            assert kind == ref.classification
    stats = json.loads(_read(tmp_path / "dm.manifest.json"))["stats"]
    assert stats["n_error"] == flags.count("MissingBranch")


def test_delay_map_manifest_counts_its_csv(tmp_path):
    """The manifest's n_slow, n_fast and n_error are the counts of the CSV's
    classification and flag columns, on a map with slow, fast and flagged
    cells (branch 2 exists only in the bistable region); every flagged cell
    has no classification and every other cell one of slow, fast or
    neutral, by the sign of its tau_g against 1e-12 s."""
    out = tmp_path / "dm.csv"
    with pytest.warns(UserWarning, match="bistable"):
        assert main(["delay-map", "--delta0", "2.0", "--branch", "2", "--delta", "0.9",
                     "--p-start", "1", "--p-stop", "4", "--p-points", "3",
                     "--l-points", "3", "--out", str(out)]) == 0
    _, rows = _rows(_read(out))
    kinds = [r[3] for r in rows]
    flags = [r[4] for r in rows]
    for (_, _, tau_us, kind, flag) in rows:
        tau = float(tau_us) * 1e-6
        assert kind == ("" if flag else "slow" if tau > 1e-12 else
                        "fast" if tau < -1e-12 else "neutral")
    stats = json.loads(_read(tmp_path / "dm.manifest.json"))["stats"]
    assert (stats["n_slow"], stats["n_fast"], stats["n_error"]) == \
        (kinds.count("slow"), kinds.count("fast"), len(flags) - flags.count(""))
    assert stats["n_slow"] > 0 and stats["n_fast"] > 0 and stats["n_error"] > 0


@pytest.mark.parametrize("mode", [[], ["--delta0", "1.5"],
                                  ["--delta0", "1.5", "--branch", "1"]],
                         ids=["fixed", "branch0", "branch1"])
def test_delay_map_and_map2d_agree(tmp_path, mode):
    """delay-map and map2d --axis1 P --axis2 L --observable tau_g on one
    grid (P in mW and in W) give the same tau_g within 1e-12 relative and
    the same flags, cell by cell: in fixed mode, and in self-consistent mode
    on branches 0 and 1 across the edge of the bistable region. The
    classification column is the sign of tau_g against 1e-12 s."""
    dm, m = tmp_path / "dm.csv", tmp_path / "m.csv"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["delay-map", *mode, "--p-start", "1", "--p-stop", "4",
                     "--p-points", "4", "--l-start", "0", "--l-stop", "200",
                     "--l-points", "5", "--delta", "1.1", "--out", str(dm)]) == 0
        assert main(["map2d", *mode, "--axis1", "P", "--grid1", "0.001:0.004:4",
                     "--axis2", "L", "--grid2", "0:200:5", "--observable", "tau_g",
                     "--delta", "1.1", "--out", str(m)]) == 0
    assert any("bistable" in str(w.message) for w in caught) == bool(mode)
    _, dm_rows = _rows(_read(dm))
    _, m_rows = _rows(_read(m))
    assert len(dm_rows) == len(m_rows) == 20
    flags = {r[4] for r in dm_rows}
    assert flags == ({"", "MissingBranch"} if "--branch" in mode else {""})
    for (P_mW, L, tau_us, kind, flag), (P, L2, tau, flag2) in zip(dm_rows, m_rows):
        assert float(P_mW) * 1e-3 == pytest.approx(float(P), rel=1e-12)
        assert (float(L), flag) == (float(L2), flag2)
        if flag:
            assert (tau_us, tau, kind) == ("nan", "nan", "")
            continue
        t = float(tau)
        assert float(tau_us) * 1e-6 == pytest.approx(t, rel=1e-12)
        assert kind == ("slow" if t > 1e-12 else "fast" if t < -1e-12 else "neutral")


_DELAY_MAP_STATS = {"max_abs_tau_g_us", "min_tau_g_us", "max_tau_g_us",
                    "n_slow", "n_fast", "n_error"}


@pytest.mark.parametrize("argv, name, stats", [
    (["defaults"], "run.json", set()),
    (["steady"], "run.txt", {"n_branches"}),
    (["spectrum", "--points", "101", "--svg"], "run.csv", {"n_points"}),
    (["dips", "--points", "401"], "run.json", {"count"}),
    (["delay", "--delta", "1.05"], "run.json", set()),
    (["delay-map", "--p-points", "3", "--l-points", "3", "--svg"], "run.csv",
     _DELAY_MAP_STATS),
    (["map2d", "--axis1", "L", "--grid1", "0:100:2", "--axis2", "Delta",
      "--grid2", "0.9:1.1:3", "--svg"], "run.csv", {"observable"}),
])
def test_run_writes_outputs_and_manifest(tmp_path, argv, name, stats):
    """A run writes exactly the files its manifest lists, plus the manifest."""
    assert main(argv + ["--out", str(tmp_path / name)]) == 0
    manifest = json.loads(_read(tmp_path / "run.manifest.json"))
    assert set(manifest) == {"subcommand", "tool_version", "config",
                             "config_fingerprint", "outputs", "duration_s",
                             "stats"}
    assert manifest["subcommand"] == argv[0]
    assert manifest["outputs"][0] == name
    assert len(manifest["outputs"]) == 1 + ("--svg" in argv)
    assert sorted(os.listdir(tmp_path)) == sorted(
        manifest["outputs"] + ["run.manifest.json"])
    assert set(manifest["stats"]) == stats


@pytest.mark.parametrize("argv, code", [
    (["spectrum", "--points", "101", "--svg", "--out", "spec.svg"], 1),
    (["delay-map", "--p-points", "2", "--l-points", "2", "--svg",
      "--out", "dm.svg"], 1),
    (["map2d", "--axis1", "L", "--grid1", "0:100:2", "--axis2", "Delta",
      "--grid2", "0.9:1.1:3", "--svg", "--out", "m.svg"], 1),
    (["map2d", "--axis1", "L", "--grid1", "0:100:2", "--axis2", "Delta",
      "--grid2", "0.9:1.1:3", "--delta", "0.3", "--out", "m.csv"], 1),
    (["oracle", "--delta", "1.0", "--P-p", "0", "--out", "o.json"], 2),
    (["steady", "--out", os.path.join("missing", "x.txt")], 1),
    # a non-finite detuning or finite-difference step
    (["delay", "--delta", "nan", "--out", "d.json"], 1),
    (["delay", "--delta", "1.0", "--method", "fd", "--fd-step", "nan",
      "--out", "d.json"], 1),
    (["map2d", "--axis1", "L", "--grid1", "0:100:2", "--axis2", "Delta",
      "--grid2", "nan:1.5:2", "--out", "m.csv"], 1),
    (["map2d", "--axis1", "P", "--grid1", "0.001:0.002:2", "--axis2", "L",
      "--grid2", "0:100:2", "--delta", "nan", "--out", "m.csv"], 1),
    (["delay-map", "--delta", "inf", "--p-points", "2", "--l-points", "2",
      "--out", "dm.csv"], 1),
    (["spectrum", "--delta-min", "nan", "--out", "s.csv"], 1),
    (["oracle", "--delta", "nan", "--out", "o.json"], 1),
    # a beat period too long to integrate
    (["oracle", "--delta", "1e-9", "--out", "o.json"], 1),
    # a step the analytic method would ignore
    (["delay", "--delta", "1.1", "--fd-step", "0.5", "--out", "d.json"], 1),
    # malformed grids
    (["delay-map", "--p-points", "0", "--out", "dm.csv"], 1),
    (["map2d", "--axis1", "P", "--grid1", "0:1:x", "--axis2", "L",
      "--grid2", "0:100:2", "--delta", "1.1", "--out", "m.csv"], 1),
    (["map2d", "--axis1", "P", "--grid1", "a:1:2", "--axis2", "L",
      "--grid2", "0:100:2", "--delta", "1.1", "--out", "m.csv"], 1),
    (["map2d", "--axis1", "P", "--grid1", "0:1:0", "--axis2", "L",
      "--grid2", "0:100:2", "--delta", "1.1", "--out", "m.csv"], 1),
])
def test_failed_run_writes_nothing(tmp_path, monkeypatch, argv, code):
    """An output path that its SVG would overwrite, or one in a directory
    that does not exist, is a usage error, and a run that exits 1 or 2
    leaves no file behind."""
    monkeypatch.chdir(tmp_path)
    assert main(argv) == code
    assert os.listdir(tmp_path) == []


def test_unwritable_out_exits_one(tmp_path, capsys):
    """A write that fails (here --out names a directory) ends the run with
    one line on stderr and exit 1, not a traceback."""
    target = tmp_path / "d"
    target.mkdir()
    assert main(["defaults", "--out", str(target)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("omitlab: error: cannot write") and err.count("\n") == 1
    assert os.listdir(tmp_path) == ["d"] and os.listdir(target) == []


def test_exit_code_config_error(capsys):
    assert main(["steady", "--P", "-1"]) == 1
    assert "error" in capsys.readouterr().err
    assert main(["spectrum", "--config", "/no/such/file.json"]) == 1


def test_infinite_oam_in_config_exits_one(tmp_path, capsys):
    """Python's json reads Infinity; as L it is one error line and exit 1,
    and the run writes no file."""
    path = tmp_path / "config.json"
    path.write_text(config_to_json(default_config()).replace('"L": 100', '"L": Infinity'))
    out = tmp_path / "steady.txt"
    assert main(["steady", "--config", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("omitlab: error: L") and err.count("\n") == 1
    assert os.listdir(tmp_path) == ["config.json"]


def test_exit_code_numerical_error(capsys):
    # zero probe power makes the oracle demodulation ill-conditioned
    assert main(["oracle", "--delta", "1.0", "--P-p", "0"]) == 2
    assert "numerical" in capsys.readouterr().err


def test_extreme_drive_exits_two_or_flags(tmp_path, capsys, monkeypatch):
    """At extreme drive a point whose closed form has no finite value, or
    whose drive amplitude overflows, exits 2; a spectrum flags its rows
    instead, and no numpy warning reaches stderr."""
    monkeypatch.chdir(tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["delay", "--P", "1e200", "--delta", "1.1"]) == 2
        assert "closed form has no finite value" in capsys.readouterr().err
        assert main(["steady", "--P", "1e290"]) == 2
        assert "numerical" in capsys.readouterr().err
        assert main(["spectrum", "--P", "1e120", "--out", "s.csv"]) == 0
    assert capsys.readouterr().err == ""
    _, rows = _rows(_read(tmp_path / "s.csv"))
    assert len(rows) == 4161 and {r[-1] for r in rows} == {"DegenerateDenominator"}


def test_usage_error_exits_one():
    # --delta is required; then options a subcommand does not read: defaults
    # takes only --out, steady prints every branch, oracle always uses
    # branch 0, and only spectrum, delay-map and map2d draw an SVG; no
    # subcommand takes a seed, and the oracle neither a Q nor a tolerance
    # of its own
    for argv in (["delay"], ["nonsense"],
                 ["defaults", "--P", "5e-3"], ["defaults", "--branch", "3"],
                 ["defaults", "--svg"], ["defaults", "--config", "c.json"],
                 ["steady", "--svg"], ["steady", "--branch", "1"],
                 ["dips", "--svg"], ["delay", "--delta", "1.0", "--svg"],
                 ["oracle", "--svg"], ["oracle", "--branch", "0"],
                 ["defaults", "--seed", "1"], ["spectrum", "--seed", "1"],
                 ["oracle", "--relax-q", "50"], ["oracle", "--tol", "1e-9"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1, argv


def test_entry_point_subprocess(tmp_path):
    """Exit codes across the process boundary, via python -m.

    The subprocesses get the checkout's ``src`` as an absolute path ahead of
    any inherited ``PYTHONPATH``, so a relative ``PYTHONPATH=src`` does not
    stop the package from importing under ``cwd=tmp_path``.
    """
    src = str(Path(__file__).resolve().parents[1] / "src")
    inherited = os.environ.get("PYTHONPATH")
    env = dict(os.environ,
               PYTHONPATH=src + os.pathsep + inherited if inherited else src)
    r = subprocess.run([sys.executable, "-m", "omitlab", "defaults"],
                       capture_output=True, text=True, env=env)
    assert r.returncode == 0
    assert config_from_json(r.stdout) == default_config()
    r = subprocess.run([sys.executable, "-m", "omitlab", "steady", "--Q1", "0"],
                       capture_output=True, text=True, env=env)
    assert r.returncode == 1
    r = subprocess.run(
        [sys.executable, "-m", "omitlab", "oracle", "--delta", "1.0",
         "--P-p", "0"],
        capture_output=True, text=True, cwd=tmp_path, env=env)
    assert r.returncode == 2


def test_python_m_warning_names_no_file_of_the_package(tmp_path):
    """Under python -m omitlab, a warning is not attributed to the
    package's own __main__.py, so its text on stderr holds no path into the
    checkout: two checkouts of one commit print the same stderr."""
    src = Path(__file__).resolve().parents[1] / "src"
    r = subprocess.run([sys.executable, "-m", "omitlab", "steady", "--omega-phi1", "6e8"],
                       capture_output=True, text=True, cwd=tmp_path,
                       env=dict(os.environ, PYTHONPATH=str(src)))
    assert r.returncode == 0, r.stderr
    assert "UserWarning: omega_m = 5.02655e+08 differs from the mirror-frequency midpoint" \
        in r.stderr
    assert str(src) not in r.stderr and "src/omitlab" not in r.stderr
    assert "__main__.py" not in r.stderr


def _modules_after(argvs, cwd, block_scipy):
    """Exit codes of omitlab.cli.main on each argv in turn, in a fresh
    interpreter given the checkout's src, and the modules of scipy and of
    numpy.ma it loaded. With block_scipy, sys.modules["scipy"] is None from
    the start, so any import of scipy fails as it would without scipy
    installed."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    script = (
        "import json, sys\n"
        f"sys.path.insert(0, {src!r})\n"
        + ("sys.modules['scipy'] = None\n" if block_scipy else "")
        + "from omitlab.cli import main\n"
        f"codes = [main(a) for a in {argvs!r}]\n"
        "mods = [m for m, v in sys.modules.items() if v is not None and\n"
        "        (m.split('.')[0] == 'scipy' or m.split('.')[:2] == ['numpy', 'ma'])]\n"
        "print(json.dumps([codes, mods]))\n")
    r = subprocess.run([sys.executable, "-c", script], capture_output=True,
                       text=True, cwd=cwd)
    assert r.returncode == 0, r.stderr
    return json.loads(r.stdout.splitlines()[-1])


def test_no_subcommand_imports_scipy(tmp_path):
    """Every subcommand, the oracle included, runs on numpy alone: none
    loads a scipy module, and each runs where scipy cannot be imported.
    None loads numpy.ma either, which costs several milliseconds to import
    (np.unique, for one, imports it on its first call)."""
    argvs = [["defaults"], ["steady"], ["spectrum", "--svg", "--out", "s.csv"],
             ["dips"], ["delay", "--delta", "1.1"],
             ["delay-map", "--svg", "--out", "dm.csv"],
             ["map2d", "--axis1", "L", "--grid1", "0:200:3", "--axis2", "Delta",
              "--grid2", "0.9:1.1:5", "--out", "m.csv"],
             ["oracle", "--delta", "1.0", "--out", "o.json"]]
    for block_scipy in (False, True):
        codes, mods = _modules_after(argvs, tmp_path, block_scipy)
        assert codes == [0] * len(argvs)
        assert mods == []
        assert json.loads(_read(tmp_path / "o.json"))["pass"] is True


def test_one_parser_serves_every_call(capsys):
    """main() builds its parser once per process: a usage error between two
    valid calls exits 1 with the usage text of a freshly built parser, and
    the options of one call do not carry over to the next."""
    assert main(["delay", "--delta", "1.1", "--method", "fd"]) == 0
    assert "method=central-difference" in capsys.readouterr().out
    bad = ["delay", "--delta", "1.1", "--svg"]
    with pytest.raises(SystemExit) as exc:
        main(bad)
    assert exc.value.code == 1
    err = capsys.readouterr().err
    with pytest.raises(SystemExit):
        build_parser().parse_args(bad)
    assert err == capsys.readouterr().err and "usage: omitlab" in err
    assert main(["delay", "--delta", "1.1"]) == 0
    assert "method=analytic" in capsys.readouterr().out


def test_readme_config_example(tmp_path):
    """The README's example config, copied verbatim, drives `steady`."""
    readme = _read(Path(__file__).resolve().parents[1] / "README.md")
    section = readme.split("## Configuration files", 1)[1]
    block = section.split("```json\n", 1)[1].split("```", 1)[0]
    path = tmp_path / "config.json"
    path.write_text(block)
    assert main(["steady", "--config", str(path)]) == 0
    assert config_from_json(block).omega_m == pytest.approx(default_config().omega_m,
                                                          rel=1e-15)


def test_readme_library_example(capsys):
    """The README's "Library use" block runs as written, so the documented
    API follows every rename."""
    readme = _read(Path(__file__).resolve().parents[1] / "README.md")
    section = readme.split("## Library use", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out


def test_threads_env(tmp_path, monkeypatch):
    """There is no thread pool: --threads is a usage error, OMITLAB_THREADS
    is ignored, and the manifest records no thread count."""
    out = tmp_path / "s.csv"
    with pytest.raises(SystemExit) as exc:
        main(["spectrum", "--points", "101", "--threads", "2", "--out", str(out)])
    assert exc.value.code == 1
    monkeypatch.setenv("OMITLAB_THREADS", "zero")
    assert main(["spectrum", "--points", "101", "--out", str(out)]) == 0
    manifest = json.loads(_read(tmp_path / "s.manifest.json"))
    assert "threads" not in manifest
