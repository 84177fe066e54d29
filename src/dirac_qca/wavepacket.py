"""Smooth and localized single-particle states on the ring.

Packets are assembled in momentum space: the scalar envelope is laid down in
position space, transformed, and each DFT mode is dressed with the exact
branch eigenvector at that mode's momentum.  This makes the branch projection
exact per mode (the position-space picture with a single spinor for all sites
is the same state to leading order in the bandwidth).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from .automaton import AutomatonParams, ModeSpectrum, SpinorField, _momenta
from .dispersion import _blocks, _check_branch, branch_spinors

__all__ = [
    "WavepacketSpec",
    "BandwidthReport",
    "build",
    "localized",
    "bandwidth",
    "position_moments",
    "wrap_momentum",
]


def wrap_momentum(k):
    """Reduce momenta into the first zone [-pi, pi)."""
    return (np.asarray(k, dtype=float) + np.pi) % (2.0 * np.pi) - np.pi


@dataclass(frozen=True)
class WavepacketSpec:
    """Recipe for a smooth packet: peak momentum, width, center, branch, envelope.

    ``sigma_hat`` is the position spread in lattice (Planck) units.  The
    envelope is the Hermite coefficient list ``hermite_coeffs``,

        sum_j c_j * exp(-(x - x0)^2 / (4 sigma_hat^2)) * H_j((x - x0) / (2 sigma_hat))

    with physicists' Hermite polynomials H_j and real c_j, sum_j c_j^2 = 1; the default
    ``(1.0,)`` is the Gaussian.  The overall normalization of the state is
    numeric.
    """

    k0: float
    sigma_hat: float
    x0: float
    s: int = +1
    hermite_coeffs: Tuple[float, ...] = (1.0,)

    def __post_init__(self):
        if not 0.0 < self.sigma_hat < math.inf:
            raise ValueError(f"sigma_hat must be positive and finite, got {self.sigma_hat}")
        if not math.isfinite(self.x0):
            raise ValueError(f"packet center must be finite, got {self.x0}")
        if not abs(self.k0) < math.pi:
            raise ValueError("peak momentum must satisfy |k0| < pi")
        _check_branch(self.s)
        if not self.hermite_coeffs:
            raise ValueError("the envelope needs a nonempty hermite coefficient list")
        if not all(isinstance(c, numbers.Real) and math.isfinite(c) for c in self.hermite_coeffs):
            raise ValueError(f"hermite coefficients must be real and finite, got {self.hermite_coeffs}")
        total = sum(c * c for c in self.hermite_coeffs)
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"hermite coefficients must satisfy sum c_j^2 = 1, got {total}")


@dataclass(frozen=True)
class BandwidthReport:
    """Out-of-window momentum mass: epsilon = 1 - (mass within |k - k0| <= sigma)."""

    sigma: float
    epsilon: float


ENVELOPE_REACH = 2.0 * math.sqrt(746.0)  # exp(-746) rounds to 0: the Gaussian is 0 beyond this many sigma_hat


def _hermite_values(order: int, y: np.ndarray) -> list:
    """Physicists' Hermite polynomials H_0..H_order by the three-term recurrence."""
    values = [np.ones_like(y)]
    if order >= 1:
        values.append(2.0 * y)
    for j in range(1, order):
        values.append(2.0 * y * values[j] - 2.0 * j * values[j - 1])
    return values


def _envelope(spec: WavepacketSpec, displacement: np.ndarray) -> np.ndarray:
    """The packet's scalar envelope at ``displacement`` from its centre, 1 at the centre.

    Beyond ``ENVELOPE_REACH * sigma_hat`` the Gaussian is 0 in double
    precision, and so is the envelope: neither factor is evaluated there, so
    a very narrow packet neither overflows nor divides 0 by 0.
    """
    near = np.abs(displacement) <= ENVELOPE_REACH * spec.sigma_hat
    off_centre = near & (displacement != 0.0)
    exponent = np.where(near, 0.0, -np.inf)  # exp(-inf) is the 0 far out; exp(0) the 1 at the centre
    exponent[off_centre] = -(displacement[off_centre] ** 2) / (4.0 * spec.sigma_hat ** 2)
    envelope = np.exp(exponent)
    y = displacement[near] / (2.0 * spec.sigma_hat)
    hermites = _hermite_values(len(spec.hermite_coeffs) - 1, y)
    envelope[near] *= sum(c * h for c, h in zip(spec.hermite_coeffs, hermites) if c != 0.0)
    return envelope


def build(spec: WavepacketSpec, params: AutomatonParams, L: int) -> ModeSpectrum:
    """Construct the packet in the momentum picture.

    The support precondition 6 * sigma_hat < L keeps the wrapped envelope
    tails negligible on the ring; the centre x0 must lie in [0, L).
    The scalar packet and the dressed modes are formed over blocks of
    ``dispersion.MODE_BLOCK`` sites and modes, each written into its one
    whole-ring array, so beyond the output the call holds the scalar's
    transform and one block's pieces; the bits do not depend on the block size.
    """
    if 6.0 * spec.sigma_hat >= L:
        raise ValueError(
            f"packet does not fit the ring: need 6 * sigma_hat < L, got sigma_hat={spec.sigma_hat}, L={L}"
        )
    if not 0.0 <= spec.x0 < L:
        raise ValueError(f"packet center must satisfy 0 <= x0 < L, got x0={spec.x0}, L={L}")
    scalar = np.empty(L, dtype=complex)
    for block in _blocks(L):
        x = np.arange(*block.indices(L), dtype=float)
        displacement = (x - spec.x0 + L / 2.0) % L - L / 2.0
        np.multiply(np.exp(1j * spec.k0 * x), _envelope(spec, displacement), out=scalar[block])
    g = np.fft.fft(scalar)
    del scalar
    g /= math.sqrt(L)
    modes = np.empty((L, 2), dtype=complex)
    for block in _blocks(L):  # g before the spinor: complex products are not bitwise commutative
        np.multiply(g[block, None], branch_spinors(_momenta(L, block), params.m, spec.s), out=modes[block])
    del g
    norm = np.linalg.norm(modes)
    if not norm >= math.sqrt(np.finfo(float).tiny):  # below this, the squared norm is no normal double; nan fails too
        raise ValueError(f"packet envelope underflows: sigma_hat={spec.sigma_hat} is too narrow for x0={spec.x0}")
    modes /= norm
    return ModeSpectrum(modes)


def localized(x0: int, spinor: Sequence[complex], L: int) -> SpinorField:
    """Single-site state |x0> with the given (already normalized) spinor."""
    if not (0 <= x0 < L):
        raise ValueError(f"site index must satisfy 0 <= x0 < L, got {x0}")
    if x0 != int(x0):
        raise ValueError(f"site index must be an integer, got {x0}")
    spinor = np.asarray(spinor, dtype=complex)
    if spinor.shape != (2,):
        raise ValueError("spinor must have exactly two components")
    if abs(np.linalg.norm(spinor) - 1.0) > 1e-12:
        raise ValueError("spinor must be normalized to 1 within 1e-12")
    sites = np.zeros((L, 2), dtype=complex)
    sites[int(x0)] = spinor
    return SpinorField(sites)


def bandwidth(spectrum: ModeSpectrum, k0: float, sigma: float) -> BandwidthReport:
    """Momentum mass outside the window |k - k0| <= sigma (grid sum).

    On the uniform periodic DFT grid the trapezoid rule coincides with the
    plain sum of mode weights, which is what is used here.
    """
    if not 0.0 < sigma < math.inf:
        raise ValueError(f"sigma must be positive and finite, got {sigma}")
    weights = spectrum.mode_weights()
    total = weights.sum()
    if total <= 0.0:
        raise ValueError("empty spectrum")
    offsets = wrap_momentum(spectrum.ks - k0)
    inside = weights[np.abs(offsets) <= sigma].sum()
    return BandwidthReport(sigma=float(sigma), epsilon=float(max(0.0, 1.0 - inside / total)))


def position_moments(density: np.ndarray) -> Tuple[float, float]:
    """Circular mean position (in site units) and wrapped variance of a per-site density (``SpinorField.density``)."""
    weights = density / density.sum()
    L = weights.size
    angles = 2.0 * np.pi * np.arange(L) / L
    mean_angle = math.atan2(float(np.sum(weights * np.sin(angles))), float(np.sum(weights * np.cos(angles))))
    mean_site = (mean_angle / (2.0 * np.pi) * L) % L
    offsets = (np.arange(L) - mean_site + L / 2.0) % L - L / 2.0
    return float(mean_site), float(np.sum(weights * offsets ** 2))
