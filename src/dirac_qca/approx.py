"""Drift-diffusion phase evolution and its accuracy bound.

The second-order Taylor expansion of the dispersion around the packet's peak
momentum turns the per-mode evolution into the pure phase

    exp(-i s (omega0 + v K + D K^2 / 2) t),     K = k - k0 folded into [-pi, pi),

which solves a momentum-dependent drift-diffusion (Schrodinger-type) equation
exactly, mode by mode.  The quadratic sign follows the Taylor expansion.

The fidelity floor is 1 - epsilon - gamma sigma^3 t with epsilon the
out-of-window momentum mass and gamma = |omega'''(k0)| times the in-window
mass; it is deliberately conservative (the true cubic remainder carries an
extra 1/6).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .automaton import AutomatonParams, ModeSpectrum
from .dispersion import _check_branch, _check_time, derivatives, omega
from .wavepacket import bandwidth, wrap_momentum

__all__ = [
    "AccuracyBound",
    "schrodinger_evolve",
    "fidelity",
    "accuracy_bound",
]


def schrodinger_evolve(spec: ModeSpectrum, params: AutomatonParams, k0: float, s: int, t: float) -> ModeSpectrum:
    """Multiply every mode by exp(-i s phase t), the quadratic-dispersion phase around k0."""
    _check_time(t)
    s = _check_branch(s)
    v, d, _ = derivatives(k0, params.m)
    K = wrap_momentum(spec.ks - k0)
    phase = omega(k0, params.m) + v * K + 0.5 * d * K * K
    return ModeSpectrum(spec.modes * np.exp(-1j * s * phase * t)[:, None])


def fidelity(a: ModeSpectrum, b: ModeSpectrum) -> float:
    """|<a|b>| with the two-component inner product summed over modes."""
    if a.L != b.L:
        raise ValueError(f"mode counts differ: {a.L} vs {b.L}")
    return float(abs(np.sum(np.conj(a.modes) * b.modes)))


@dataclass(frozen=True)
class AccuracyBound:
    """Fidelity floor 1 - epsilon - gamma sigma^3 t, clamped below at zero."""

    epsilon: float
    gamma: float
    sigma: float
    t: float
    bound: float


def accuracy_bound(
    spec: ModeSpectrum, params: AutomatonParams, k0: float, sigma: float, t: float
) -> AccuracyBound:
    """Assemble the fidelity floor for the given packet, window and time.

    gamma uses |omega'''(k0)| (the bound controls a modulus) scaled by the
    in-window momentum mass, matching the normalization in which the total
    mass is 1.
    """
    _check_time(t)
    report = bandwidth(spec, k0, sigma)
    _, _, w3 = derivatives(k0, params.m)
    gamma = abs(w3) * (1.0 - report.epsilon)
    sigma, t = float(sigma), float(t)
    bound = max(0.0, 1.0 - report.epsilon - gamma * sigma ** 3 * t)
    return AccuracyBound(epsilon=report.epsilon, gamma=gamma, sigma=sigma, t=t, bound=bound)
