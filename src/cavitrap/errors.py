"""Exception hierarchy shared across the toolkit.

Errors are split so the CLI can map them to distinct exit codes:
configuration/validation problems versus failures of the numerics.
"""


class CavitrapError(Exception):
    """Base class for all toolkit errors."""


class DomainError(CavitrapError):
    """An input is outside the physically meaningful domain."""


class ValidationError(CavitrapError):
    """A config or data file parsed but failed semantic validation."""


class ResonanceError(DomainError):
    """Laser or drive frequency too close to a resonance for the formula to hold."""


class AntiTrappedError(DomainError):
    """Requested parameters give no 3D confinement (effective frequency squared <= 0)."""


class SingularConfigurationError(DomainError):
    """Two ions closer than the minimum allowed pair distance."""


class ConvergenceError(CavitrapError):
    """An iterative solver exhausted its budget without converging."""


class BracketError(ConvergenceError):
    """No finite transition point: an ion sees no lattice curvature at
    double precision (c_i <= eps max c), so no depth stabilizes the plane."""


class SamplingError(ConvergenceError):
    """Rejection sampling produced no admissible candidates within budget."""


class FitError(CavitrapError):
    """A least-squares fit is degenerate or has insufficient data."""
