"""Exact evolution of the two-component lattice automaton.

The model lives on a periodic ring of ``L`` sites with unit (Planck) spacing.
One time step applies, sitewise,

    psi_R'(x) = n * psi_R(x + 1) - i * m * psi_L(x)
    psi_L'(x) = -i * m * psi_R(x) + n * psi_L(x - 1)

with ``n = sqrt(1 - m^2)`` and indices wrapping modulo ``L``.  Note the shift
convention: the "right" component transports toward decreasing x.  In the
momentum representation the step acts per DFT mode ``k_j = 2*pi*j/L`` (mapped
into [-pi, pi)) as the SU(2) matrix

    U(k) = [[n e^{ik}, -i m], [-i m, n e^{-ik}]].

Real powers ``U(k)^t`` are defined through the spectral decomposition with
eigenphases ``exp(-i s omega(k) t)``, ``s = +-1`` -- the unique interpolation
between integer steps whose generator has eigenvalues ``+-omega``.  Since
``U(k)`` is the SU(2) rotation ``exp(-i omega u.sigma)``, that power is the
closed form ``dispersion.su2_power`` on the axis ``dispersion.lattice_axis``.

All functions are pure; reductions use numpy's deterministic pairwise
summation, so results are reproducible bit-for-bit for a given input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dispersion import _check_mass, _check_time, lattice_axis, su2_power

__all__ = [
    "AutomatonParams",
    "SpinorField",
    "ModeSpectrum",
    "SymmetryReport",
    "unitary_k",
    "evolve_position",
    "evolve_momentum",
    "transform",
    "inverse_transform",
    "symmetry_check",
]


@dataclass(frozen=True)
class AutomatonParams:
    """The single physical knob: adimensional mass ``m`` in Planck units.

    ``n`` is always derived as ``sqrt(1 - m^2)``, never stored, so the
    unitarity constraint ``n^2 + m^2 = 1`` holds to within one ulp.
    """

    m: float

    def __post_init__(self):
        _check_mass(self.m)

    @property
    def n(self) -> float:
        return math.sqrt(1.0 - self.m * self.m)


def _as_sites(array) -> np.ndarray:
    sites = np.asarray(array, dtype=complex)
    if sites.ndim != 2 or sites.shape[1] != 2:
        raise ValueError(f"expected an (L, 2) array of spinors, got shape {sites.shape}")
    if sites.shape[0] < 2:
        raise ValueError("the ring needs at least L = 2 sites")
    return sites


@dataclass
class SpinorField:
    """Position-space state: one (psi_R, psi_L) pair per site of the ring."""

    sites: np.ndarray

    def __post_init__(self):
        self.sites = _as_sites(self.sites)

    @property
    def L(self) -> int:
        return self.sites.shape[0]

    def norm(self) -> float:
        return float(np.linalg.norm(self.sites))

    def density(self) -> np.ndarray:
        """Per-site probability density |psi_R|^2 + |psi_L|^2."""
        return np.abs(self.sites[:, 0]) ** 2 + np.abs(self.sites[:, 1]) ** 2


@dataclass
class ModeSpectrum:
    """Momentum-space state: one two-component amplitude per DFT mode."""

    modes: np.ndarray

    def __post_init__(self):
        self.modes = _as_sites(self.modes)

    @property
    def L(self) -> int:
        return self.modes.shape[0]

    @property
    def ks(self) -> np.ndarray:
        """Mode momenta 2*pi*j/L folded into [-pi, pi), in FFT order."""
        return 2.0 * np.pi * np.fft.fftfreq(self.L)

    def norm(self) -> float:
        return float(np.linalg.norm(self.modes))

    def mode_weights(self) -> np.ndarray:
        """Per-mode probability |g_j|^2 summed over both components."""
        return np.abs(self.modes[:, 0]) ** 2 + np.abs(self.modes[:, 1]) ** 2


def unitary_k(params: AutomatonParams, k) -> np.ndarray:
    """Single-mode step matrix [[n e^{ik}, -im], [-im, n e^{-ik}]], shape k.shape + (2, 2)."""
    k = np.asarray(k, dtype=float)
    if not np.all(np.isfinite(k)):
        raise ValueError("momentum must be finite")
    n, m = params.n, params.m
    phase = np.exp(1j * k)
    out = np.empty(k.shape + (2, 2), dtype=complex)
    out[..., 0, 0] = n * phase
    out[..., 0, 1] = out[..., 1, 0] = -1j * m
    out[..., 1, 1] = n * np.conj(phase)
    return out


def evolve_position(field: SpinorField, params: AutomatonParams, t: int) -> SpinorField:
    """t steps of the sitewise update on the ring (t a nonnegative integer).

    The step is a stencil on five buffers allocated before the loop: the
    shifts are slice copies, and the arithmetic runs in place with the same
    ufunc calls, in the same order, as ``n * roll(psi_r, -1) - 1j * m * psi_l``
    and ``-1j * m * psi_r + n * roll(psi_l, 1)``, so every amplitude is
    bit-identical to that form.  Stepping on from an evolved state is
    bit-identical to evolving from the start.
    """
    _check_time(t)
    if t != int(t):
        raise ValueError(f"position-space evolution needs a nonnegative integer time, got {t}")
    n, m = params.n, params.m
    mix_r, mix_l = 1j * m, -1j * m  # the two scalars of the expressions above
    psi_r, psi_l = field.sites[:, 0].copy(), field.sites[:, 1].copy()
    next_r, next_l, mixed = np.empty_like(psi_r), np.empty_like(psi_l), np.empty_like(psi_r)
    for _ in range(int(t)):
        next_r[:-1], next_r[-1] = psi_r[1:], psi_r[0]  # roll(psi_r, -1)
        np.multiply(n, next_r, out=next_r)
        np.multiply(mix_r, psi_l, out=mixed)
        np.subtract(next_r, mixed, out=next_r)
        next_l[1:], next_l[0] = psi_l[:-1], psi_l[-1]  # roll(psi_l, 1)
        np.multiply(n, next_l, out=next_l)
        np.multiply(mix_l, psi_r, out=mixed)
        np.add(mixed, next_l, out=next_l)
        psi_r, next_r, psi_l, next_l = next_r, psi_r, next_l, psi_l
    del next_r, next_l, mixed  # free the buffers before the output is stacked
    return SpinorField(np.stack([psi_r, psi_l], axis=1))


def evolve_momentum(spec: ModeSpectrum, params: AutomatonParams, t: float) -> ModeSpectrum:
    """Multiply each mode by U(k_j)^t; ``t`` may be any nonnegative real."""
    _check_time(t)
    out = np.empty_like(spec.modes)  # before the per-mode temporaries, which would fragment the heap under it
    c, vs, us = su2_power(*lattice_axis(spec.ks, params.m), float(t))
    a, b = c + 1j * vs, -1j * us  # U^t = [[a, b], [b, conj(a)]]
    psi_r, psi_l = spec.modes[:, 0], spec.modes[:, 1]
    out[:, 0] = a * psi_r + b * psi_l
    out[:, 1] = b * psi_r + np.conj(a) * psi_l
    return ModeSpectrum(out)


def transform(field: SpinorField) -> ModeSpectrum:
    """Unitary DFT per spinor component (Parseval-preserving)."""
    return ModeSpectrum(np.fft.fft(field.sites, axis=0) / math.sqrt(field.L))


def inverse_transform(spec: ModeSpectrum) -> SpinorField:
    """Inverse of :func:`transform`; round-trips to 1e-12 per amplitude."""
    return SpinorField(np.fft.ifft(spec.modes, axis=0) * math.sqrt(spec.L))


@dataclass
class SymmetryReport:
    """Max absolute residuals of the parity / time-reversal / unitarity identities."""

    parity: float
    time_reversal: float
    unitarity: float
    max_residual: float


def symmetry_check(params: AutomatonParams, k_samples) -> SymmetryReport:
    """Verify, per sample momentum, the defining identities of the step.

    (a) parity:        sigma_x U(-k) sigma_x = U(k)
    (b) time reversal: sigma_x conj(U(-k)) sigma_x = U(k)^dagger
    (c) unitarity of the position-space stencil U = R S + L S^dag + M:
        R R^+ + L L^+ + M M^+ = 1,  M R^+ + L M^+ = 0,  L R^+ = 0.

    sigma_x A sigma_x swaps both the rows and the columns of A, so (a) and
    (b) are checked on all samples at once as axis reversals.
    """
    ks = np.atleast_1d(np.asarray(k_samples, dtype=float))
    if ks.size == 0:
        raise ValueError("need at least one momentum sample")
    n, m = params.n, params.m

    uk = unitary_k(params, ks)
    flipped = unitary_k(params, -ks)[:, ::-1, ::-1]  # sigma_x U(-k) sigma_x
    parity = float(np.max(np.abs(flipped - uk)))
    trev = float(np.max(np.abs(np.conj(flipped) - np.conj(np.swapaxes(uk, 1, 2)))))

    r = np.array([[n, 0.0], [0.0, 0.0]], dtype=complex)
    l = np.array([[0.0, 0.0], [0.0, n]], dtype=complex)
    mm = np.array([[0.0, -1j * m], [-1j * m, 0.0]])
    res_complete = r @ r.conj().T + l @ l.conj().T + mm @ mm.conj().T - np.eye(2)
    res_cross = mm @ r.conj().T + l @ mm.conj().T
    res_lr = l @ r.conj().T
    unit = float(max(np.max(np.abs(res_complete)), np.max(np.abs(res_cross)), np.max(np.abs(res_lr))))

    return SymmetryReport(parity=parity, time_reversal=trev, unitarity=unit, max_residual=max(parity, trev, unit))
