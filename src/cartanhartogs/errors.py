"""Shared exception types."""


class ShapeError(ValueError):
    """An array argument has the wrong shape for the domain."""


class DomainError(ValueError):
    """A point violates a domain constraint (membership, sign, feasibility)."""


class ConvergenceError(RuntimeError):
    """The auto-refined quadrature or a member sampler ran out of its budget."""
