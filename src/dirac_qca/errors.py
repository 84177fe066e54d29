"""Exceptions signalling numerical-invariant failures (CLI exit code 2)."""


class NumericalInvariantError(RuntimeError):
    """A quantity violated an invariant that should hold up to roundoff."""


class BoundViolationError(NumericalInvariantError):
    """A Monte Carlo sample exceeded a proven analytic bound."""
