"""Exception hierarchy shared by all pwmstab modules.

Every failure mode that callers are expected to branch on gets its own
class; the CLI maps these onto its exit-code contract.
"""


class PwmStabError(Exception):
    """Base class for all pwmstab errors."""


class DimensionError(PwmStabError):
    """Matrix or vector dimensions are inconsistent."""


class DomainError(PwmStabError):
    """An argument is outside the operation's domain (non-finite, wrong sign, ...)."""


class SingularMatrixError(PwmStabError):
    """A linear solve hit a pivot below the singularity threshold."""


class NoSwitchingError(PwmStabError):
    """The switching condition has no interior solution: duty saturated at 0 or 1."""


class DegenerateOrbitError(PwmStabError):
    """The periodic-orbit solve is singular: the open-loop cycle map has a
    multiplier at +1, so no isolated periodic orbit exists."""


class GrazingError(PwmStabError):
    """The compensator output is tangent to the ramp at the switching
    instant; the sampled-data linearization is undefined there."""


class ResolventPoleError(SingularMatrixError):
    """An evaluation frequency coincides with a pole: lambda is an
    eigenvalue of the open-loop cycle map, or s is an eigenvalue of A."""


class NoConvergenceError(PwmStabError):
    """An iteration exhausted its budget without meeting its tolerance."""


class DivergenceError(PwmStabError):
    """A simulated state or a root-finder function value stopped being finite."""


class OracleInvalidError(PwmStabError):
    """A finite-difference probe left the one-switching-per-cycle regime,
    so the resulting derivative estimate would be meaningless."""


class ConfigError(PwmStabError):
    """Converter config text failed to parse or validate."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line
