"""Planck-unit conversion factor, four significant figures.

Comparisons against it are order-of-magnitude, so higher precision would
be spurious.
"""

PLANCK_TIME_SECONDS = 5.391e-44


def planck_times_to_seconds(t: float) -> float:
    return t * PLANCK_TIME_SECONDS
