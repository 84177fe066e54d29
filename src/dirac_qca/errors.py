"""Exceptions signalling numerical-invariant failures (CLI exit code 2)."""


class NumericalInvariantError(RuntimeError):
    """A quantity violated an invariant that should hold up to roundoff."""


class MonotonicityError(NumericalInvariantError):
    """A numerically verified monotonicity property failed on a grid."""


class BoundViolationError(NumericalInvariantError):
    """A Monte Carlo sample exceeded a proven analytic bound."""
