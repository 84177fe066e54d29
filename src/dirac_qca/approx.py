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

from . import dispersion
from .automaton import AutomatonParams, ModeSpectrum, _momenta
from .dispersion import _blocks, _check_branch, _check_time, derivatives, omega
from .wavepacket import bandwidth, wrap_momentum

__all__ = [
    "AccuracyBound",
    "schrodinger_evolve",
    "fidelity",
    "accuracy_bound",
]


def schrodinger_evolve(spec: ModeSpectrum, params: AutomatonParams, k0: float, s: int, t: float) -> ModeSpectrum:
    """Multiply every mode by exp(-i s phase t), the quadratic-dispersion phase around k0.

    Formed per block of ``dispersion.MODE_BLOCK`` modes into the one output; the bits do not depend on the block size.
    """
    _check_time(t)
    s = _check_branch(s)
    v, d, _ = derivatives(k0, params.m)
    w0 = omega(k0, params.m)
    out = np.empty_like(spec.modes)
    for block in _blocks(spec.L):
        K = wrap_momentum(_momenta(spec.L, block) - k0)
        phase = w0 + v * K + 0.5 * d * K * K
        np.multiply(spec.modes[block], np.exp(-1j * s * phase * t)[:, None], out=out[block])
    return ModeSpectrum(out)


def _overlap(a: np.ndarray, b: np.ndarray):
    """sum conj(a) b over two (L, 2) arrays, split where numpy's pairwise sum splits it: the bits of the whole sum.

    numpy sums a run of n doubles (4 per mode here) in one pass when n <= 128, and otherwise halves it at n/2
    rounded down to a multiple of 8, an even number of modes.  The runs are taken apart here as numpy would,
    down to ``dispersion.MODE_BLOCK`` modes, so no whole-ring product is formed, and added in the same order.
    """
    L = a.shape[0]
    if L <= max(dispersion.MODE_BLOCK, 32):
        return np.sum(np.conj(a) * b)
    half = (L - L % 4) // 2
    return _overlap(a[:half], b[:half]) + _overlap(a[half:], b[half:])


def fidelity(a: ModeSpectrum, b: ModeSpectrum) -> float:
    """|<a|b>| with the two-component inner product summed over modes, by ``_overlap``.

    It has the bits of ``abs(np.sum(np.conj(a.modes) * b.modes))`` at any block size.
    """
    if a.L != b.L:
        raise ValueError(f"mode counts differ: {a.L} vs {b.L}")
    return float(abs(_overlap(a.modes, b.modes)))


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
