"""Exception types shared across the package."""


class MagsysError(Exception):
    """Base class for all magsys-lab errors."""


class QuadratureFailure(MagsysError):
    """Raised when an adaptive quadrature cannot reach the requested tolerance."""


class StepFailure(MagsysError):
    """Raised when the adaptive ODE stepper fails (step underflow or solver error)."""


class NoReturn(MagsysError):
    """Raised when a trajectory does not come back to its Poincare section in time."""


class TangencyError(MagsysError):
    """Raised when the flow is (close to) tangent to the chosen section."""


class NoConvergence(MagsysError):
    """Raised when the orbit Newton iteration exhausts its iteration budget."""


class DivergedFromFamily(MagsysError):
    """Raised when an orbit search leaves the short-loop neighborhood of the Zoll family."""


class CapNotFound(MagsysError):
    """Raised when a closed orbit does not bound a disk in its chart."""


class NoOrbitsFound(MagsysError):
    """Raised when an experiment's orbit enumeration comes back empty."""


class ParseError(MagsysError):
    """Raised on malformed config files; message carries the line number."""


class ValidationError(MagsysError):
    """Raised on structurally valid configs with bad keys or values."""


class ZollRegimeViolation(ValidationError):
    """Raised when (kappa, strength) lies outside the Zoll regime; see check_zoll_regime."""


class IoError(MagsysError):
    """Raised when report emission cannot write its output files."""
