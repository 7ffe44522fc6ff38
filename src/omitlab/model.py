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
from dataclasses import dataclass, replace as dc_replace
from types import SimpleNamespace

import numpy as np

from .errors import ConfigError
from .util import fingerprint_dict, with_python_scalars

HBAR = 1.054571817e-34  # J s
C_LIGHT = 2.99792458e8  # m / s

_FREQ_UNITS = ("rad/s", "Hz", "units_of_omega_m")


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


def _check_positive(name, x):
    _check_finite(name, x)
    if x <= 0:
        raise ConfigError(f"{name} must be > 0, got {x!r}")


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

    lambda_c: float
    P: float
    P_p: float
    L: int
    m: float
    R: float
    cav_len: float
    kappa: float
    omega_phi1: float
    omega_phi2: float
    Q1: float
    Q2: float
    omega_m: float
    detuning_mode: object

    def __post_init__(self):
        for name in ("lambda_c", "m", "R", "cav_len", "kappa",
                     "omega_phi1", "omega_phi2", "omega_m"):
            _check_positive(name, getattr(self, name))
        for name in ("P", "P_p"):
            v = getattr(self, name)
            _check_finite(name, v)
            if v < 0:
                raise ConfigError(f"{name} must be >= 0, got {v!r}")
        L = self.L
        if isinstance(L, bool) or (not isinstance(L, int) and float(L) != int(L)):
            raise ConfigError(f"L must be a nonnegative integer, got {L!r}")
        object.__setattr__(self, "L", int(L))
        if self.L < 0:
            raise ConfigError(f"L must be a nonnegative integer, got {L!r}")
        for name in ("Q1", "Q2"):
            v = getattr(self, name)
            _check_finite(name, v)
            if v < 1:
                raise ConfigError(f"{name} must be >= 1, got {v!r}")
        if not isinstance(self.detuning_mode, (FixedEffective, SelfConsistent)):
            raise ConfigError(
                f"detuning_mode must be FixedEffective or SelfConsistent, "
                f"got {self.detuning_mode!r}")
        _check_finite("detuning_mode.value", self.detuning_mode.value)
        mid = 0.5 * (self.omega_phi1 + self.omega_phi2)
        if abs(self.omega_m - mid) > 1e-9 * self.omega_m:
            warnings.warn(
                f"omega_m = {self.omega_m:g} differs from the mirror-frequency "
                f"midpoint {mid:g} by more than 1e-9 relative", stacklevel=2)


@dataclass(frozen=True)
class DerivedConstants:
    """Constants computed from a PhysicalConfig.

    g1, g2 are the optorotational coupling constants; the signed couplings
    entering the angular-momentum equations are g_alpha1 = -g1, g_alpha2 = +g2.
    eps_p depends on the probe frequency and is exposed as a method.
    """

    I: float
    g1: float
    g2: float
    g_alpha1: float
    g_alpha2: float
    gamma1: float
    gamma2: float
    omega_c: float
    eps_c: float
    P_p: float
    kappa: float

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
    against each other. Each value is validated once through PhysicalConfig,
    so an invalid one raises ConfigError; L values are rounded to the
    nearest integer quantum number."""
    grid = dict(vars(cfg))
    for name, values in axes.items():
        values = np.asarray(values, dtype=float)
        if name == "L":
            values = np.round(values)
        for v in values.ravel():
            dc_replace(cfg, **{name: int(v) if name == "L" else float(v)})
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

def _freq_from_json(name, raw, omega_m):
    """Accept a bare number (rad/s) or {"value": x, "unit": u}."""
    if isinstance(raw, (int, float)) and not isinstance(raw, bool):
        return float(raw)
    if not isinstance(raw, dict):
        raise ConfigError(f"{name}: expected a number or a value/unit object, got {raw!r}")
    extra = set(raw) - {"value", "unit"}
    if extra or "value" not in raw:
        raise ConfigError(f"{name}: value/unit object malformed: {raw!r}")
    unit = raw.get("unit", "rad/s")
    if unit not in _FREQ_UNITS:
        raise ConfigError(f"{name}: unknown unit {unit!r}, expected one of {_FREQ_UNITS}")
    try:
        v = float(raw["value"])
    except (TypeError, ValueError):
        raise ConfigError(f"{name}: value is not numeric: {raw['value']!r}")
    if unit == "Hz":
        return 2.0 * math.pi * v
    if unit == "units_of_omega_m":
        if omega_m is None:
            raise ConfigError(f"{name}: units_of_omega_m is not allowed for omega_m itself")
        return v * omega_m
    return v


def config_from_dict(d):
    """Build a PhysicalConfig from a plain dict (parsed JSON).

    Keys are exactly the PhysicalConfig field names; an optional "notes" key
    is ignored. Frequency fields and the detuning value take value/unit
    wrappers; "units_of_omega_m" is resolved against the omega_m entry.
    """
    if not isinstance(d, dict):
        raise ConfigError(f"config must be a JSON object, got {type(d).__name__}")
    d = dict(d)
    d.pop("notes", None)
    known = {"lambda_c", "P", "P_p", "L", "m", "R", "cav_len", "kappa",
             "omega_phi1", "omega_phi2", "Q1", "Q2", "omega_m", "detuning_mode"}
    unknown = set(d) - known
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    missing = known - set(d)
    if missing:
        raise ConfigError(f"missing config keys: {sorted(missing)}")

    omega_m = _freq_from_json("omega_m", d["omega_m"], None)
    kw = {}
    for name in ("lambda_c", "P", "P_p", "m", "R", "cav_len", "Q1", "Q2"):
        try:
            kw[name] = float(d[name])
        except (TypeError, ValueError):
            raise ConfigError(f"{name}: expected a number, got {d[name]!r}")
    try:
        kw["L"] = int(d["L"])
    except (TypeError, ValueError):
        raise ConfigError(f"L: expected an integer, got {d['L']!r}")
    if kw["L"] != d["L"]:
        raise ConfigError(f"L: expected an integer, got {d['L']!r}")
    for name in ("kappa", "omega_phi1", "omega_phi2"):
        kw[name] = _freq_from_json(name, d[name], omega_m)
    kw["omega_m"] = omega_m

    dm = d["detuning_mode"]
    if not isinstance(dm, dict) or set(dm) - {"mode", "value"} or "mode" not in dm:
        raise ConfigError(f"detuning_mode must be {{mode, value}}, got {dm!r}")
    val = _freq_from_json("detuning_mode.value", dm.get("value"), omega_m)
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
    except json.JSONDecodeError as e:
        raise ConfigError(f"config is not valid JSON: {e}")
    return config_from_dict(d)


def config_to_dict(cfg, notes=None):
    """Canonical dict form; frequencies emitted as rad/s value/unit objects."""
    d = {
        "lambda_c": cfg.lambda_c, "P": cfg.P, "P_p": cfg.P_p, "L": cfg.L,
        "m": cfg.m, "R": cfg.R, "cav_len": cfg.cav_len,
        "kappa": {"value": cfg.kappa, "unit": "rad/s"},
        "omega_phi1": {"value": cfg.omega_phi1, "unit": "rad/s"},
        "omega_phi2": {"value": cfg.omega_phi2, "unit": "rad/s"},
        "Q1": cfg.Q1, "Q2": cfg.Q2,
        "omega_m": {"value": cfg.omega_m, "unit": "rad/s"},
        "detuning_mode": {"mode": cfg.detuning_mode.mode,
                          "value": {"value": cfg.detuning_mode.value,
                                    "unit": "rad/s"}},
    }
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
