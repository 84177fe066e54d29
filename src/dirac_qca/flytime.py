"""Flying-time separation estimates for a single wavepacket.

How long must a packet fly before the lattice and continuum trajectories
separate by more than its own width, and is the separation still visible
once both packets have spread?  All quantities are in Planck units with SI
conversions from :mod:`.constants`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .constants import planck_times_to_seconds
from .dispersion import _check_mass, _check_time, derivatives

__all__ = [
    "FlytimeInput",
    "FlytimeReport",
    "SeparationTimes",
    "separation_time",
    "broadening",
    "visibility_report",
]

VISIBILITY_FLAG_RATIO = 10.0


@dataclass(frozen=True)
class FlytimeInput:
    """Packet parameters: mass, peak momentum, position spread (Planck units)."""

    m: float
    k: float
    sigma_hat: float

    def __post_init__(self):
        if _check_mass(self.m) == 0.0:
            raise ValueError("need 0 < m <= 1")
        if not (self.k != 0.0 and abs(self.k) <= math.pi):  # also rejects nan
            raise ValueError(f"need 0 < |k| <= pi, got {self.k}")
        if not 0.0 < self.sigma_hat < math.inf:
            raise ValueError(f"need a finite sigma_hat > 0, got {self.sigma_hat}")


def _in_range(value: float, product: str) -> float:
    """value, or a ValueError naming the ``product`` that under- or overflowed out of the double range."""
    if not 0.0 < value < math.inf:
        raise ValueError(f"{product} = {value!r} left the double range")
    return value


class SeparationTimes(NamedTuple):
    t_general: float
    t_relativistic: float


def separation_time(inp: FlytimeInput) -> SeparationTimes:
    """Estimates of the time for the two drift velocities to open a gap of one packet width.

    t_general = sigma_hat |6 (k^2+m^2)^{3/2} / (m^2 k^2 (2 m^2 + k))|; for
    m << k this collapses to 6 sigma_hat / m^2.  It matches the velocity-gap
    time sigma_hat / |v_c - v| only for m << k: it is 4x too long at
    m = k = 1e-3 (ROADMAP item 4).  The step is parity symmetric, so the
    time is even in k: the formula takes |k|.
    """
    m, k, sh = inp.m, abs(inp.k), inp.sigma_hat
    lam2 = k * k + m * m
    den = _in_range(m * m * k * k * (2.0 * m * m + k), "m^2 k^2 (2 m^2 + k)")
    general = _in_range(sh * (6.0 * lam2 * math.sqrt(lam2) / den), "6 sigma_hat lambda^3 / (m^2 k^2 (2 m^2 + k))")
    relativistic = _in_range(6.0 * sh / (m * m), "6 sigma_hat / m^2")  # den > 0, so m^2 > 0
    return SeparationTimes(general, relativistic)


def _spread_term(rate: float, t: float, sigma_hat: float) -> float:
    # sqrt(1 + x^2) - 1 evaluated as x^2/(1 + sqrt(1 + x^2)): no cancellation
    x = rate * t / _in_range(2.0 * sigma_hat * sigma_hat, "2 sigma_hat^2")
    if x * x == math.inf:
        raise ValueError("(D t / 2 sigma_hat^2)^2 = inf left the double range")
    return x * x / (1.0 + math.sqrt(1.0 + x * x))


def broadening(inp: FlytimeInput, t: float) -> float:
    """Combined spreading of the two packets after time t (Planck lengths).

    sigma_br = sigma_hat (sqrt(1 + (D t / 2 sh^2)^2) + sqrt(1 + (D_c t / 2 sh^2)^2) - 2)
    with D the lattice diffusion coefficient and D_c = m^2 (k^2 + m^2)^{-3/2}.
    """
    _check_time(t)
    _, d_lattice, _ = derivatives(inp.k, inp.m)
    lam2 = inp.k * inp.k + inp.m * inp.m
    d_cont = inp.m * inp.m / lam2 ** 1.5
    spread = _spread_term(abs(d_lattice), t, inp.sigma_hat) + _spread_term(d_cont, t, inp.sigma_hat)
    return inp.sigma_hat * spread


@dataclass(frozen=True)
class FlytimeReport:
    t_general: float
    t_relativistic: float
    broadening_at_t: float
    visibility_ratio: float
    t_seconds: float
    low_visibility: bool  # the separation is not comfortably visible


def visibility_report(inp: FlytimeInput) -> FlytimeReport:
    """Assemble separation times, spreading at t_general, and SI conversions."""
    times = separation_time(inp)
    spread = broadening(inp, times.t_general)
    ratio = inp.sigma_hat / spread if spread > 0.0 else math.inf
    return FlytimeReport(
        t_general=times.t_general,
        t_relativistic=times.t_relativistic,
        broadening_at_t=spread,
        visibility_ratio=ratio,
        t_seconds=planck_times_to_seconds(times.t_general),
        low_visibility=ratio < VISIBILITY_FLAG_RATIO,
    )
