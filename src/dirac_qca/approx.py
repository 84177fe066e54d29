"""Drift-diffusion phase evolution and its accuracy bound.

The second-order Taylor expansion of the dispersion around the packet's peak
momentum turns the per-mode evolution into the pure phase

    exp(-i s (omega0 + v K + D K^2 / 2) t),     K = k - k0 folded into [-pi, pi),

which solves a momentum-dependent drift-diffusion (Schrodinger-type) equation
exactly, mode by mode.  The quadratic sign follows the Taylor expansion.
``_phases`` is its one form.  When every mode is a branch-s eigenvector, the
exact and approximate states' fidelity is one weighted phase sum, ``fidelity``.

The fidelity floor is 1 - epsilon - gamma sigma^3 t with epsilon the
out-of-window momentum mass and gamma = |omega'''(k0)| times the in-window
mass; it is deliberately conservative (the true cubic remainder carries an
extra 1/6).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .automaton import AutomatonParams, ModeSpectrum, _momenta
from .dispersion import _blocks, _check_branch, _check_time, derivatives, omega
from .wavepacket import bandwidth, wrap_momentum

__all__ = ["AccuracyBound", "schrodinger_evolve", "fidelity", "accuracy_bound"]


def _phases(L: int, params: AutomatonParams, k0: float):
    """(block, k, omega0 + v K + D K^2 / 2) per ``_blocks`` block of the L modes' momenta k, v and D taken at k0."""
    v, d, _ = derivatives(k0, params.m)
    w0 = omega(k0, params.m)
    for block in _blocks(L):
        k = _momenta(L, block)
        K = wrap_momentum(k - k0)
        yield block, k, w0 + v * K + 0.5 * d * K * K


def schrodinger_evolve(spec: ModeSpectrum, params: AutomatonParams, k0: float, s: int, t: float) -> ModeSpectrum:
    """Multiply every mode by exp(-i s phase t), the quadratic-dispersion phase around k0.

    Formed per block of ``dispersion.MODE_BLOCK`` modes into the one output; the bits do not depend on the block size.
    """
    _check_time(t)
    s = _check_branch(s)
    out = np.empty_like(spec.modes)
    for block, _, phase in _phases(spec.L, params, k0):
        np.multiply(spec.modes[block], np.exp(-1j * s * phase * t)[:, None], out=out[block])
    return ModeSpectrum(out)


def fidelity(spec: ModeSpectrum, params: AutomatonParams, k0: float, times) -> list:
    """|<U^t spec | schrodinger_evolve(spec, params, k0, s, t)>| per time t, as |sum_k w_k exp(-i t delta_k)|.

    Precondition: every mode is an eigenvector of one branch s, as ``wavepacket.build`` makes them; s only conjugates
    the terms, so it leaves the modulus.  w and delta_k = omega(k) - phase are formed once; per time, the blocks'
    terms fill one buffer of L terms, summed at once, so the bits do not depend on the block size.
    """
    for t in times:
        _check_time(t)
    delta = np.empty(spec.L)
    for block, k, phase in _phases(spec.L, params, k0):
        np.subtract(omega(k, params.m), phase, out=delta[block])
    weights, terms = spec.mode_weights(), np.empty(spec.L, dtype=complex)  # after the phases' pieces are freed
    values = []
    for t in times:
        for block in _blocks(spec.L):
            np.multiply(weights[block], np.exp(-1j * (t * delta[block])), out=terms[block])
        values.append(float(abs(np.sum(terms))))
    return values


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
