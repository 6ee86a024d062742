"""Exceptions and warning categories shared across the package."""


class GsdaError(Exception):
    """Base class for package-specific errors."""


class InvalidInput(GsdaError):
    """Input violates a documented precondition."""


class NumericalFailure(GsdaError):
    """An iterative numeric routine broke down or hit its iteration cap."""


class SamplingExhausted(GsdaError):
    """Too many sampled points fell outside the objective's domain.

    Signals that the current sampling radius is too large for the
    feasible neighbourhood of the iterate; callers shrink the radius.
    ``rejected`` is the number of draws rejected before giving up.
    """

    def __init__(self, message, rejected=0):
        super().__init__(message)
        self.rejected = rejected


class FunctionalUndefined(GsdaError):
    """A tail functional is requested outside its parameter domain."""


class SingularBlock(GsdaError):
    """A per-observation Jacobian block is numerically singular."""


class InfeasiblePoint(GsdaError):
    """Evaluation requested where the log-likelihood is -inf."""


class ParseError(GsdaError):
    """Malformed input file; carries a 1-based line number."""

    def __init__(self, message, line=None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


class MissingColumn(GsdaError):
    """A required column is absent from the input table."""


class DegenerateDesignWarning(UserWarning):
    """Smoother design has no spread; a trivial fit is returned."""


class ExtrapolationWarning(UserWarning):
    """Prediction requested outside the training covariate range."""


class SampleSizeWarning(UserWarning):
    """Sampling size below the dimension+1 theory requirement."""
