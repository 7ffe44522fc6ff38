"""Physical configuration of the rotational-cavity system and the constants
derived from it.

The raw configuration mirrors the experimental knobs: coupling/probe powers,
mirror mass and radius, orbital angular momentum number L of the cavity mode,
cavity length, decay and damping rates. ``derive_constants`` turns those into
the quantities the response formulas actually consume (moment of inertia,
optorotational couplings g_j, drive amplitudes), and ``effective_params``
folds in a steady state to produce the effective coupling rates G_j = g_j|a0|.
Both broadcast over the arrays of a ``config_grid``.

All frequencies are angular (rad/s) internally. The JSON loader accepts
{"value": x, "unit": "rad/s" | "Hz" | "units_of_omega_m"} wrappers for the
frequency-valued fields and converts at the boundary.
"""

import json
import math
import warnings
from collections import namedtuple
from dataclasses import dataclass, field, fields
from types import SimpleNamespace

import numpy as np

from .errors import ConfigError
from .util import fingerprint_dict, stacklevel_outside, with_python_scalars

HBAR = 1.054571817e-34  # J s
C_LIGHT = 2.99792458e8  # m / s

@dataclass(frozen=True)
class FixedEffective:
    """Operate at a prescribed effective detuning Delta' [rad/s].

    This is the regime of all the spectra figures: the drive is tuned so that
    the static back-action already satisfies Delta' = value.
    """

    value: float

    mode = "fixed_effective"


@dataclass(frozen=True)
class SelfConsistent:
    """Operate at a prescribed bare detuning Delta_0 [rad/s]; the effective
    detuning then follows from the back-action cubic and may be multivalued."""

    value: float

    mode = "self_consistent"


def _check_finite(name, x):
    if not (np.isfinite(x).all() if isinstance(x, np.ndarray) else math.isfinite(x)):
        raise ConfigError(f"{name} must be finite, got {x!r}")


def _num(low, strict=False, kind="number"):
    """A numeric PhysicalConfig field: finite, >= low (> low if strict) and
    written in JSON as kind, "number", "integer" (nonnegative, low 0) or
    "frequency" (rad/s, or a value/unit object)."""
    return field(metadata={"low": low, "strict": strict, "kind": kind})


@dataclass(frozen=True)
class PhysicalConfig:
    """Raw physical parameters.

    Parameters
    ----------
    lambda_c : float
        Coupling-field wavelength [m].
    P, P_p : float
        Coupling and probe powers [W]. Zero is allowed (undriven limits).
    L : int
        Orbital angular momentum quantum number of the cavity mode, >= 0.
    m : float
        Mirror mass [kg], shared by both mirrors.
    R : float
        Mirror radius [m].
    cav_len : float
        Cavity length [m].
    kappa : float
        Cavity amplitude decay rate [rad/s].
    omega_phi1, omega_phi2 : float
        Rotating-mirror angular frequencies [rad/s].
    Q1, Q2 : float
        Mechanical quality factors, >= 1.
    omega_m : float
        Normalization frequency [rad/s]; conventionally the mirror-frequency
        midpoint, a deviation beyond 1e-9 relative only warns.
    detuning_mode : FixedEffective | SelfConsistent
    """

    lambda_c: float = _num(0.0, strict=True)
    P: float = _num(0.0)
    P_p: float = _num(0.0)
    L: int = _num(0, kind="integer")
    m: float = _num(0.0, strict=True)
    R: float = _num(0.0, strict=True)
    cav_len: float = _num(0.0, strict=True)
    kappa: float = _num(0.0, strict=True, kind="frequency")
    omega_phi1: float = _num(0.0, strict=True, kind="frequency")
    omega_phi2: float = _num(0.0, strict=True, kind="frequency")
    Q1: float = _num(1.0)
    Q2: float = _num(1.0)
    omega_m: float = _num(0.0, strict=True, kind="frequency")
    detuning_mode: object

    def __post_init__(self):
        for name, rule in _RULES.items():
            x = getattr(self, name)
            _check_field(name, x)
            if rule["kind"] == "integer":
                object.__setattr__(self, name, int(x))
        if not isinstance(self.detuning_mode, (FixedEffective, SelfConsistent)):
            raise ConfigError(
                f"detuning_mode must be FixedEffective or SelfConsistent, "
                f"got {self.detuning_mode!r}")
        _check_finite("detuning_mode.value", self.detuning_mode.value)
        mid = 0.5 * (self.omega_phi1 + self.omega_phi2)
        if abs(self.omega_m - mid) > 1e-9 * self.omega_m:
            warnings.warn(
                f"omega_m = {self.omega_m:g} differs from the mirror-frequency "
                f"midpoint {mid:g} by more than 1e-9 relative",
                stacklevel=stacklevel_outside())


# the rule of each numeric field, in declaration order (config_to_dict's key order)
_RULES = {f.name: f.metadata for f in fields(PhysicalConfig) if f.metadata}


def _check_field(name, x):
    """Raise ConfigError unless x, a Python scalar or an array of values of
    field name, obeys its rule; the message names the first bad value."""
    rule = _RULES[name]
    low, strict, integer = rule["low"], rule["strict"], rule["kind"] == "integer"
    if isinstance(x, np.ndarray):
        ok = np.isfinite(x) & ((x > low) if strict else (x >= low))
        if integer:
            ok &= x == np.round(x)
        if ok.all():
            return
        x = x[~ok].flat[0].item()
    if not math.isfinite(x):
        raise ConfigError(f"{name} must be finite, got {x!r}")
    if integer:
        if isinstance(x, bool) or x != int(x) or x < low:
            raise ConfigError(f"{name} must be a nonnegative integer, got {x!r}")
    elif not (x > low if strict else x >= low):
        raise ConfigError(f"{name} must be {'>' if strict else '>='} {low:g}, got {x!r}")


class DerivedConstants(namedtuple("DerivedConstants", "I g1 g2 g_alpha1 g_alpha2 gamma1 gamma2 "
                                                      "omega_c eps_c P_p kappa")):
    """Constants computed from a PhysicalConfig.

    g1, g2 are the optorotational coupling constants; the signed couplings
    entering the angular-momentum equations are g_alpha1 = -g1, g_alpha2 = +g2.
    eps_p depends on the probe frequency and is exposed as a method.
    """

    __slots__ = ()

    def eps_p(self, omega_p):
        """Probe drive amplitude sqrt(2*kappa*P_p/(hbar*omega_p))."""
        if omega_p <= 0:
            raise ConfigError(f"omega_p must be > 0, got {omega_p!r}")
        return math.sqrt(2.0 * self.kappa * self.P_p / (HBAR * omega_p))


def derive_constants(cfg):
    """DerivedConstants from a validated PhysicalConfig or a config_grid.

    I = m R^2 / 2, g_j = (c L / cav_len) sqrt(hbar / (I omega_phi_j)),
    gamma_j = omega_phi_j / Q_j, eps_c = sqrt(2 kappa P / (hbar omega_c)).
    """
    I = 0.5 * cfg.m * cfg.R ** 2
    pref = C_LIGHT * cfg.L / cfg.cav_len
    g1 = pref * np.sqrt(HBAR / (I * cfg.omega_phi1))
    g2 = pref * np.sqrt(HBAR / (I * cfg.omega_phi2))
    omega_c = 2.0 * math.pi * C_LIGHT / cfg.lambda_c
    eps_c = np.sqrt(2.0 * cfg.kappa * cfg.P / (HBAR * omega_c))
    return with_python_scalars(
        DerivedConstants, I=I, g1=g1, g2=g2, g_alpha1=-g1, g_alpha2=+g2,
        gamma1=cfg.omega_phi1 / cfg.Q1, gamma2=cfg.omega_phi2 / cfg.Q2,
        omega_c=omega_c, eps_c=eps_c, P_p=cfg.P_p, kappa=cfg.kappa)


def config_grid(cfg, **axes):
    """cfg with the named numeric fields replaced by arrays that broadcast
    against each other. Each axis is checked against its field's rule, so
    an invalid value raises ConfigError; L values are rounded to the
    nearest integer quantum number."""
    grid = dict(vars(cfg))
    for name, values in axes.items():
        values = np.asarray(values, dtype=float)
        if _RULES[name]["kind"] == "integer":
            values = np.round(values)
        _check_field(name, values)
        grid[name] = values
    return SimpleNamespace(**grid)


@dataclass(frozen=True)
class EffectiveParams:
    """The parameter set the linear-response formulas consume (arrays over
    a config_grid)."""

    kappa: float
    delta_prime: float
    G1: float
    G2: float
    omega_phi1: float
    omega_phi2: float
    gamma1: float
    gamma2: float
    omega_m: float

    def __post_init__(self):
        for name in ("kappa", "delta_prime", "G1", "G2", "omega_phi1",
                     "omega_phi2", "gamma1", "gamma2", "omega_m"):
            _check_finite(name, getattr(self, name))
        if np.any(self.kappa <= 0):
            raise ConfigError(f"kappa must be > 0, got {self.kappa!r}")
        if np.any(self.G1 < 0) or np.any(self.G2 < 0):
            raise ConfigError("G1, G2 must be >= 0")


def effective_params(cfg, ss):
    """Fold a steady state into the effective parameters G_j = g_j |a0|.

    ss must have been produced from the same cfg; the fingerprint carried by
    the steady state is checked against cfg and a mismatch is rejected.
    """
    fp = config_fingerprint(cfg)
    if getattr(ss, "config_fingerprint", None) != fp:
        raise ConfigError("steady state was not produced from this configuration")
    return fold_steady_state(cfg, derive_constants(cfg), ss.delta_prime, ss.a0)


def fold_steady_state(cfg, dc, delta_prime, a0):
    """EffectiveParams from the steady state (delta_prime, a0) of cfg, a
    PhysicalConfig or a config_grid, with dc = derive_constants(cfg)."""
    mag = np.abs(a0)
    return with_python_scalars(
        EffectiveParams, kappa=cfg.kappa, delta_prime=delta_prime,
        G1=dc.g1 * mag, G2=dc.g2 * mag,
        omega_phi1=cfg.omega_phi1, omega_phi2=cfg.omega_phi2,
        gamma1=dc.gamma1, gamma2=dc.gamma2, omega_m=cfg.omega_m)


def default_config():
    """The reference parameter point used throughout the spectra figures.

    lambda_c = 810 nm, L = 100, m = 50 ng, R = 0.1 um, cavity length 1 mm,
    kappa = 2*pi*15 MHz, omega_m = 160*pi MHz, mirror frequencies 1.1/0.9
    omega_m, Q = 1.2e5, P = 2 mW, P_p = 1e-6 P, fixed effective detuning
    Delta' = omega_m.

    The 1 mm cavity length is a documented choice (the coupling constants
    need a length and the reference parameter lists omit it); it places the
    2 mW spectra in a clearly resolved double-window regime.
    """
    omega_m = 160e6 * math.pi
    return PhysicalConfig(
        lambda_c=810e-9, P=2e-3, P_p=2e-9, L=100, m=50e-12,
        R=0.1e-6, cav_len=1e-3, kappa=2 * math.pi * 15e6,
        omega_phi1=1.1 * omega_m, omega_phi2=0.9 * omega_m,
        Q1=1.2e5, Q2=1.2e5, omega_m=omega_m,
        detuning_mode=FixedEffective(omega_m))


# ---------------------------------------------------------------------------
# JSON boundary

def _from_json(name, raw, kind, omega_m=None):
    """The value of a field of JSON form kind (see _num) from its JSON value
    raw: a number, or for a frequency also {"value": x, "unit": u}, where
    "units_of_omega_m" needs omega_m."""
    if kind == "frequency" and isinstance(raw, dict):
        if set(raw) - {"value", "unit"} or "value" not in raw:
            raise ConfigError(f"{name}: value/unit object malformed: {raw!r}")
        scale = {"rad/s": 1.0, "Hz": 2.0 * math.pi, "units_of_omega_m": omega_m}
        unit = raw.get("unit", "rad/s")
        if not isinstance(unit, str) or unit not in scale:
            raise ConfigError(f"{name}: unknown unit {unit!r}, "
                              f"expected one of {tuple(scale)}")
        if scale[unit] is None:
            raise ConfigError(f"{name}: units_of_omega_m is not allowed for omega_m itself")
        return scale[unit] * _from_json(f"{name}.value", raw["value"], "number")
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        raise ConfigError(f"{name}: expected a number, got {raw!r}")
    try:
        v = float(raw)
    except OverflowError:
        raise ConfigError(f"{name}: {raw} is out of range") from None
    if kind != "integer":
        return v
    if not v.is_integer():
        raise ConfigError(f"{name}: expected an integer, got {raw!r}")
    return int(v)


def config_from_dict(d):
    """Build a PhysicalConfig from a plain dict (parsed JSON).

    Keys are exactly the PhysicalConfig field names; an optional "notes" key
    is ignored. Values are JSON numbers, L an integer; frequency fields and
    the detuning value take value/unit wrappers, and "units_of_omega_m" is
    resolved against the omega_m entry.
    """
    if not isinstance(d, dict):
        raise ConfigError(f"config must be a JSON object, got {type(d).__name__}")
    d = dict(d)
    d.pop("notes", None)
    known = {f.name for f in fields(PhysicalConfig)}
    unknown = set(d) - known
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    missing = known - set(d)
    if missing:
        raise ConfigError(f"missing config keys: {sorted(missing)}")

    omega_m = _from_json("omega_m", d["omega_m"], "frequency")
    kw = {name: _from_json(name, d[name], rule["kind"], omega_m)
          for name, rule in _RULES.items()}

    dm = d["detuning_mode"]
    if not isinstance(dm, dict) or set(dm) - {"mode", "value"} or "mode" not in dm:
        raise ConfigError(f"detuning_mode must be {{mode, value}}, got {dm!r}")
    val = _from_json("detuning_mode.value", dm.get("value"), "frequency", omega_m)
    if dm["mode"] == FixedEffective.mode:
        kw["detuning_mode"] = FixedEffective(val)
    elif dm["mode"] == SelfConsistent.mode:
        kw["detuning_mode"] = SelfConsistent(val)
    else:
        raise ConfigError(f"detuning_mode.mode must be "
                          f"'{FixedEffective.mode}' or '{SelfConsistent.mode}', "
                          f"got {dm['mode']!r}")
    return PhysicalConfig(**kw)


def config_from_json(text):
    try:
        d = json.loads(text)
    except ValueError as e:  # a JSONDecodeError, or an integer too long to read
        raise ConfigError(f"config is not valid JSON: {e}")
    return config_from_dict(d)


def config_to_dict(cfg, notes=None):
    """Canonical dict form; frequencies emitted as rad/s value/unit objects."""
    mode = cfg.detuning_mode
    d = {name: {"value": getattr(cfg, name), "unit": "rad/s"}
         if rule["kind"] == "frequency" else getattr(cfg, name)
         for name, rule in _RULES.items()}
    d["detuning_mode"] = {"mode": mode.mode,
                          "value": {"value": mode.value, "unit": "rad/s"}}
    if notes:
        d["notes"] = notes
    return d


def config_to_json(cfg, notes=None):
    return json.dumps(config_to_dict(cfg, notes=notes), indent=2) + "\n"


def config_fingerprint(cfg):
    """Stable hash of the resolved SI values; unit spellings do not matter."""
    mode = cfg.detuning_mode
    return fingerprint_dict({**vars(cfg), "detuning_mode": mode.mode,
                             "detuning_value": mode.value})
