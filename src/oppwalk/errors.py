"""Exception types shared across the package."""

__all__ = [
    "ParameterError",
    "ValidationError",
    "DisconnectedGraphError",
    "EstimationError",
]


class ParameterError(ValueError):
    """A constructor or operation argument violates its stated constraint."""


class ValidationError(ValueError):
    """Input data fails a structural check (asymmetry, bad matrix, ...)."""


class DisconnectedGraphError(ValueError):
    """Random-walk quantity requested on a graph that is not connected."""


class EstimationError(RuntimeError):
    """Monte-Carlo estimate could not be formed (e.g. every walk truncated)."""
