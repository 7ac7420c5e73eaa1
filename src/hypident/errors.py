"""Semantic exception hierarchy shared by all modules."""

__all__ = [
    "DomainError",
    "SingularInputError",
    "NonHyperbolicError",
    "NoRealStructureError",
    "ResourceLimitError",
]


class DomainError(ValueError):
    """An input lies outside the mathematical domain of an operation."""


class SingularInputError(DomainError):
    """The input hits a genuine singularity (e.g. the lasso at xy = 1)."""


class NonHyperbolicError(DomainError):
    """A trace or trace triple does not describe a hyperbolic structure."""


class NoRealStructureError(DomainError):
    """No real solution exists for the requested trace coordinates."""


class ResourceLimitError(RuntimeError):
    """An enumeration exceeded its configured record cap."""
