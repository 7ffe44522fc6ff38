"""Configuration validation, derived constants and the JSON boundary."""

import json
import math
import warnings
from dataclasses import fields, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omitlab import (ConfigError, FixedEffective, PhysicalConfig,
                     SelfConsistent, config_fingerprint, config_from_dict,
                     config_from_json, config_to_dict, config_to_json,
                     default_config, derive_constants, effective_params,
                     oracle_check, solve_steady)
from omitlab import oracle as om
from omitlab.model import config_grid


def test_moment_of_inertia(dc):
    # m R^2 / 2 for a disc of 50 ng and 0.1 um radius
    assert dc.I == pytest.approx(2.5e-25, rel=1e-15)


def test_damping_rates(cfg, dc):
    assert dc.gamma1 == pytest.approx(4607.6692252650300831, rel=1e-14)
    assert dc.gamma1 == pytest.approx(cfg.omega_phi1 / cfg.Q1, rel=1e-15)
    assert dc.gamma2 == pytest.approx(cfg.omega_phi2 / cfg.Q2, rel=1e-15)


def test_signed_couplings(dc):
    assert dc.g_alpha1 == -dc.g1
    assert dc.g_alpha2 == +dc.g2
    assert dc.g1 > 0 and dc.g2 > 0
    # the softer mirror couples more strongly: g ~ 1/sqrt(omega_phi)
    assert dc.g2 > dc.g1


def test_effective_coupling_reference_value(ep, cfg):
    # frozen from the reference point: P = 2 mW, L = 100, 1 mm cavity
    assert ep.G1 / cfg.omega_m == pytest.approx(0.12629453158665736649, rel=1e-12)
    assert ep.G2 / ep.G1 == pytest.approx(math.sqrt(cfg.omega_phi1 / cfg.omega_phi2),
                                          rel=1e-12)


def test_undriven_limits():
    c = replace(default_config(), P=0.0)
    assert derive_constants(c).eps_c == 0.0
    c = replace(default_config(), L=0)
    dc = derive_constants(c)
    assert dc.g1 == 0.0 and dc.g2 == 0.0


def test_probe_amplitude(dc, cfg, ss, monkeypatch):
    """The oracle drives the probe at sqrt(2 kappa P_p/(hbar omega_p)), and
    refuses a probe frequency omega_p = omega_c + delta <= 0 before any
    integration."""
    omega_p = dc.omega_c + 0.9 * cfg.omega_m
    expect = math.sqrt(2 * cfg.kappa * cfg.P_p / (1.054571817e-34 * omega_p))
    assert om._flow(cfg, 0.9 * cfg.omega_m, ss)[2] == pytest.approx(expect, rel=1e-15)
    calls = []
    monkeypatch.setattr(om, "solve_ivp", lambda *a, **k: calls.append(a))
    with pytest.raises(ConfigError, match="omega_p must be > 0"):
        oracle_check(cfg, -1.01 * dc.omega_c)
    assert calls == []


@settings(max_examples=40, deadline=None)
@given(s=st.floats(min_value=0.2, max_value=5.0))
def test_coupling_scaling_laws(s):
    base = default_config()
    d0 = derive_constants(base)
    # g ~ 1/cav_len
    d = derive_constants(replace(base, cav_len=base.cav_len * s))
    assert d.g1 == pytest.approx(d0.g1 / s, rel=1e-12)
    # eps_c ~ sqrt(P)
    d = derive_constants(replace(base, P=base.P * s))
    assert d.eps_c == pytest.approx(d0.eps_c * math.sqrt(s), rel=1e-12)
    # g ~ 1/(R sqrt(m)) through the moment of inertia
    d = derive_constants(replace(base, m=base.m * s))
    assert d.g2 == pytest.approx(d0.g2 / math.sqrt(s), rel=1e-12)


def test_coupling_proportional_to_oam():
    base = default_config()
    d100 = derive_constants(base)
    d300 = derive_constants(replace(base, L=300))
    assert d300.g1 == pytest.approx(3.0 * d100.g1, rel=1e-14)


def _assert_rejected_alone_and_on_a_grid(field, value):
    """value is a ConfigError for field both in a PhysicalConfig and as a
    1-element config_grid axis, with the same message."""
    with pytest.raises(ConfigError) as alone:
        replace(default_config(), **{field: value})
    with pytest.raises(ConfigError) as grid:
        config_grid(default_config(), **{field: [value]})
    assert str(grid.value) == str(alone.value)


@pytest.mark.parametrize("field,value", [
    ("m", -1.0), ("m", 0.0), ("R", 0.0), ("cav_len", -2.0),
    ("kappa", 0.0), ("lambda_c", 0.0), ("P", -1e-3), ("P_p", -1e-9),
    ("Q1", 0.5), ("Q2", 0.0), ("omega_phi1", -1.0),
])
def test_rejects_nonphysical_values(field, value):
    _assert_rejected_alone_and_on_a_grid(field, value)


def test_rejects_bad_oam():
    with pytest.raises(ConfigError):
        replace(default_config(), L=-1)
    with pytest.raises(ConfigError):
        replace(default_config(), L=1.5)
    # an integral float is accepted and coerced
    c = replace(default_config(), L=3.0)
    assert c.L == 3 and isinstance(c.L, int)
    # a grid rejects -1 the same way, but rounds 1.5 to the nearest quantum
    # number
    _assert_rejected_alone_and_on_a_grid("L", -1.0)
    assert config_grid(default_config(), L=[1.5, 3.2]).L.tolist() == [2.0, 3.0]


def test_rejects_nonfinite():
    for field, value in (("kappa", float("nan")), ("P", float("inf")),
                         ("L", float("inf")), ("L", float("nan"))):
        _assert_rejected_alone_and_on_a_grid(field, value)


def test_midpoint_warning():
    c = default_config()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        replace(c, omega_phi1=c.omega_phi1)  # midpoint holds: no warning
    with pytest.warns(UserWarning, match="midpoint"):
        replace(c, omega_m=c.omega_m * 1.001)


def test_midpoint_warning_names_the_constructing_line():
    c = default_config()
    kwargs = {f.name: getattr(c, f.name) for f in fields(c)}
    with pytest.warns(UserWarning, match="midpoint") as record:
        PhysicalConfig(**{**kwargs, "omega_m": c.omega_m * 1.001})
        replace(c, omega_phi1=1.01 * c.omega_phi1)  # as the CLI's overrides
    assert [w.filename for w in record] == [__file__] * 2


def test_detuning_mode_types():
    c = default_config()
    assert isinstance(c.detuning_mode, FixedEffective)
    assert c.detuning_mode.value == c.omega_m
    with pytest.raises(ConfigError):
        replace(c, detuning_mode="fixed")
    c2 = replace(c, detuning_mode=SelfConsistent(2.0 * c.omega_m))
    assert c2.detuning_mode.mode == "self_consistent"


def test_json_round_trip(cfg):
    text = config_to_json(cfg)
    back = config_from_json(text)
    assert back == cfg
    assert config_fingerprint(back) == config_fingerprint(cfg)


def test_json_round_trip_with_notes(cfg):
    d = config_to_dict(cfg, notes="anything")
    assert d["notes"] == "anything"
    assert config_from_dict(d) == cfg


def test_json_self_consistent_mode(cfg):
    """A config file can set the bare detuning of the self-consistent
    mode, in units of omega_m as in rad/s."""
    d = config_to_dict(cfg)
    d["detuning_mode"] = {"mode": "self_consistent",
                          "value": {"value": 1.5, "unit": "units_of_omega_m"}}
    back = config_from_json(json.dumps(d))
    assert back == replace(cfg, detuning_mode=SelfConsistent(1.5 * cfg.omega_m))
    assert config_from_json(config_to_json(back)) == back


def test_effective_params_rejects_bad_rates(ep):
    for change, match in (({"kappa": 0.0}, "kappa must be > 0"),
                          ({"kappa": -ep.kappa}, "kappa must be > 0"),
                          ({"G1": -1.0}, "G1, G2 must be >= 0"),
                          ({"G2": -1e-3}, "G1, G2 must be >= 0")):
        with pytest.raises(ConfigError, match=match):
            replace(ep, **change)


def test_unit_conversions(cfg):
    d = config_to_dict(cfg)
    d["kappa"] = {"value": cfg.kappa / (2 * math.pi), "unit": "Hz"}
    d["omega_phi1"] = {"value": 1.1, "unit": "units_of_omega_m"}
    d["omega_phi2"] = cfg.omega_phi2  # bare number means rad/s
    back = config_from_dict(d)
    assert back.kappa == pytest.approx(cfg.kappa, rel=1e-15)
    assert back.omega_phi1 == pytest.approx(cfg.omega_phi1, rel=1e-15)
    assert back.omega_phi2 == cfg.omega_phi2
    # unit spelling must not change the fingerprint
    assert config_fingerprint(back) == config_fingerprint(cfg)


def test_omega_m_cannot_be_relative(cfg):
    d = config_to_dict(cfg)
    d["omega_m"] = {"value": 1.0, "unit": "units_of_omega_m"}
    with pytest.raises(ConfigError, match="omega_m"):
        config_from_dict(d)


def test_json_schema_errors(cfg):
    with pytest.raises(ConfigError):
        config_from_json("not json {")
    with pytest.raises(ConfigError):  # more digits than Python reads
        config_from_json('{"P": ' + "9" * 5000 + "}")
    d = config_to_dict(cfg)
    d["surprise"] = 1
    with pytest.raises(ConfigError, match="unknown"):
        config_from_dict(d)
    d = config_to_dict(cfg)
    del d["m"]
    with pytest.raises(ConfigError, match="missing"):
        config_from_dict(d)
    d = config_to_dict(cfg)
    d["kappa"] = {"value": 1.0, "unit": "THz"}
    with pytest.raises(ConfigError, match="unit"):
        config_from_dict(d)
    d = config_to_dict(cfg)
    d["L"] = 99.5
    with pytest.raises(ConfigError, match="L"):
        config_from_dict(d)
    # a JSON string or boolean is not a number, also inside a value/unit
    # object, and an integer too large for a float is out of range
    for key, raw in (("P", "0.002"), ("Q1", True), ("L", True), ("L", float("inf")),
                     ("kappa", {"value": "9.4e7"}), ("kappa", {"value": True}),
                     ("omega_m", False), ("P", 10 ** 400)):
        d = config_to_dict(cfg)
        d[key] = raw
        with pytest.raises(ConfigError, match=key):
            config_from_dict(d)


@pytest.mark.parametrize("change, match", [
    ({"kappa": {"value": 1.0, "unit": "Hz", "scale": 2}}, "value/unit object malformed"),
    ({"kappa": {"unit": "Hz"}}, "value/unit object malformed"),
    ({"detuning_mode": "fixed_effective"}, "detuning_mode must be"),
    ({"detuning_mode": {"value": 1.0}}, "detuning_mode must be"),
    ({"detuning_mode": {"mode": "locked", "value": 1.0}}, "detuning_mode.mode must be")])
def test_json_object_shape_errors(cfg, change, match):
    d = config_to_dict(cfg)
    d.update(change)
    with pytest.raises(ConfigError, match=match):
        config_from_dict(d)


def test_config_must_be_an_object():
    with pytest.raises(ConfigError, match="config must be a JSON object, got list"):
        config_from_json("[1, 2]")


def test_fingerprint_sensitivity(cfg):
    fp = config_fingerprint(cfg)
    assert fp != config_fingerprint(replace(cfg, P=cfg.P * (1 + 1e-12)))
    assert fp != config_fingerprint(
        replace(cfg, detuning_mode=SelfConsistent(cfg.detuning_mode.value)))
    assert json.dumps(fp)  # plain hex string


def test_equal_configurations_have_equal_fingerprints(cfg):
    """Equal configurations hash alike, so a steady state of one folds
    into the other: integer-valued floats, -0.0 and the detuning value are
    stored as the floats they equal, L as an int."""
    w = cfg.omega_m
    pairs = [(replace(cfg, Q1=120000, Q2=120000), replace(cfg, Q1=120000.0, Q2=120000.0)),
             (replace(cfg, P=-0.0), replace(cfg, P=0.0)),
             (replace(cfg, L=100.0), replace(cfg, L=100)),
             (replace(cfg, detuning_mode=FixedEffective(int(w))),
              replace(cfg, detuning_mode=FixedEffective(float(int(w))))),
             (replace(cfg, detuning_mode=SelfConsistent(-0.0)),
              replace(cfg, detuning_mode=SelfConsistent(0.0)))]
    for a, b in pairs:
        assert a == b
        assert config_fingerprint(a) == config_fingerprint(b)
        assert config_to_json(a) == config_to_json(b)
    a, b = pairs[0]
    assert effective_params(b, solve_steady(a)) == effective_params(b, solve_steady(b))
    assert type(a.Q1) is float and type(pairs[2][0].L) is int


def test_effective_params_provenance_check(cfg):
    ss = solve_steady(cfg)
    other = replace(cfg, P=1e-3)
    with pytest.raises(ConfigError, match="configuration"):
        effective_params(other, ss)


def test_effective_params_consistency(cfg, ss, ep, dc):
    assert ep.G1 == pytest.approx(dc.g1 * abs(ss.a0), rel=1e-15)
    assert ep.G2 == pytest.approx(dc.g2 * abs(ss.a0), rel=1e-15)
    assert ep.delta_prime == ss.delta_prime
    assert ep.kappa == cfg.kappa
