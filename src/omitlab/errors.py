"""Exception hierarchy.

Two top branches matter for the CLI exit code: ConfigError (bad input,
exit 1) and NumericalError (a computation that started from valid input
but could not be completed, exit 2).
"""


class OmitlabError(Exception):
    pass


class ConfigError(OmitlabError):
    """Invalid configuration, units, schema or argument values."""


class NumericalError(OmitlabError):
    """A numerical procedure failed or hit a degenerate point."""


class SingularSystem(NumericalError):
    """The sideband linear system is singular at this parameter point."""


class DegenerateDenominator(NumericalError):
    """|d(delta)| fell below the degeneracy threshold relative to A*A'*L1*L2."""


class NearZeroTransmission(NumericalError):
    """|t_p| too small for the transmitted phase (and its derivative) to be defined."""


class StepTooLarge(NumericalError):
    """Finite-difference Richardson pair disagrees beyond tolerance."""


class BlowUp(NumericalError):
    """Time integration produced a non-finite state."""


class StepFailure(NumericalError):
    """Adaptive integrator could not meet the requested tolerance."""


class IllConditionedFit(NumericalError):
    """No probe sidebands to demodulate: the probe amplitude is zero."""


class MissingBranch(NumericalError):
    """The requested steady-state branch does not exist at this drive."""


class RootRefinementError(NumericalError):
    """Newton's method on a steady-state root still moved after its step cap."""


class Unstable(NumericalError):
    """The steady state is dynamically unstable: a small perturbation grows."""
