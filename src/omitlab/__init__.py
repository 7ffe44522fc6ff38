"""Optical response and group delay of a two-rotating-mirror cavity.

A driven optical cavity couples to the orbital angular momentum of two
rotating mirrors. The package solves the classical mean-value dynamics:
steady state (single-branch at fixed effective detuning, or all branches of
the self-consistent cubic), the closed-form probe sidebands with an
independent linear-solve cross-check, transparency-dip structure of the
output quadratures, and the probe group delay with slow/fast classification,
validated against direct time-domain integration.
"""

__version__ = "0.1.0"

from .delay import DelayResult, group_delay, tau_g_analytic, unwrap_phase
from .errors import (BlowUp, ConfigError, DegenerateDenominator,
                     IllConditionedFit, MissingBranch, NearZeroTransmission,
                     NumericalError, OmitlabError, RootRefinementError,
                     SingularSystem, StepFailure, StepTooLarge, Unstable)
from .model import (C_LIGHT, HBAR, DerivedConstants, EffectiveParams,
                    FixedEffective, PhysicalConfig, SelfConsistent,
                    config_fingerprint, config_from_dict, config_from_json,
                    config_to_dict, config_to_json, default_config,
                    derive_constants, effective_params)
from .oracle import OracleReport, oracle_check
from .response import (ProbeResponse, SidebandAmplitudes, lambda_j,
                       probe_response, sideband_amplitudes,
                       sideband_linear_solve)
from .steadystate import SteadyState, solve_steady, steady_states
from .sweep import (DipReport, Map2D, SpectrumSeries, default_delta_grid,
                    delay_map_csv, find_dips, map_csv, spectrum_csv,
                    spectrum_sweep, sweep_2d)
from .util import flag_names

__all__ = [
    "__version__",
    "BlowUp", "ConfigError", "DegenerateDenominator", "IllConditionedFit",
    "MissingBranch", "NearZeroTransmission", "NumericalError", "OmitlabError",
    "RootRefinementError", "SingularSystem", "StepFailure", "StepTooLarge",
    "Unstable",
    "C_LIGHT", "HBAR", "DerivedConstants", "EffectiveParams",
    "FixedEffective", "PhysicalConfig", "SelfConsistent",
    "config_fingerprint", "config_from_dict", "config_from_json",
    "config_to_dict", "config_to_json", "default_config", "derive_constants",
    "effective_params",
    "SteadyState", "solve_steady", "steady_states",
    "ProbeResponse", "SidebandAmplitudes", "lambda_j", "probe_response",
    "sideband_amplitudes", "sideband_linear_solve",
    "DelayResult", "group_delay", "tau_g_analytic", "unwrap_phase",
    "OracleReport", "oracle_check",
    "DipReport", "Map2D", "SpectrumSeries", "default_delta_grid",
    "delay_map_csv", "find_dips", "map_csv", "spectrum_csv", "spectrum_sweep",
    "sweep_2d", "flag_names",
]
