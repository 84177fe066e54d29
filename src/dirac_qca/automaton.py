"""Exact evolution of the two-component lattice automaton.

The model lives on a periodic ring of ``L`` sites with unit (Planck) spacing.
One time step is the stencil ``U = R S + L S^dag + M``: sitewise,

    psi'(x) = R psi(x + 1) + L psi(x - 1) + M psi(x),

    R = [[n, 0], [0, 0]],  L = [[0, 0], [0, n]],  M = [[0, -i m], [-i m, 0]],

with ``n = sqrt(1 - m^2)`` and indices wrapping modulo ``L``.  Note the shift
convention: the "right" component transports toward decreasing x.  The triple
is written once, in ``_stencil``: ``evolve_position`` applies it as it stands,
``unitary_k`` is its Fourier symbol and ``symmetry_check`` checks its
unitarity identities.  In the momentum representation the step acts per DFT
mode ``k_j = 2*pi*j/L`` (mapped into [-pi, pi)) as the SU(2) matrix

    U(k) = R e^{ik} + L e^{-ik} + M = [[n e^{ik}, -i m], [-i m, n e^{-ik}]].

Real powers ``U(k)^t`` are defined through the spectral decomposition with
eigenphases ``exp(-i s omega(k) t)``, ``s = +-1`` -- the unique interpolation
between integer steps whose generator has eigenvalues ``+-omega``.  Since
``U(k)`` is the SU(2) rotation ``exp(-i omega u.sigma)`` about the axis
``u = (m, 0, -n sin k) / sin(omega)``, that power is the closed form
``cos(omega t) I - i sin(omega t) u.sigma``, which ``evolve_momentum`` forms.

All functions are pure; reductions use numpy's deterministic pairwise
summation, so results are reproducible bit-for-bit for a given input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dispersion import _angle, _blocks, _check_mass, _check_time, _mode, _n, _over

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

    ``n`` is derived, never stored, as ``dispersion._n``'s sqrt((1 - m)(1 + m)):
    full relative precision as m -> 1, and ``n^2 + m^2 = 1`` to roundoff.
    """

    m: float

    def __post_init__(self):
        _check_mass(self.m)

    @property
    def n(self) -> float:
        return _n(self.m)


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
        return _momenta(self.L, slice(None))

    def norm(self) -> float:
        return float(np.linalg.norm(self.modes))

    def mode_weights(self) -> np.ndarray:
        """Per-mode probability |g_j|^2 summed over both components."""
        return np.abs(self.modes[:, 0]) ** 2 + np.abs(self.modes[:, 1]) ** 2


def _momenta(L: int, block: slice) -> np.ndarray:
    """The momenta of the DFT modes ``block`` of an L-site ring: the bits of ``2 pi fftfreq(L)[block]``, built alone."""
    j = np.arange(*block.indices(L))
    j[j > (L - 1) // 2] -= L  # fftfreq's negative half
    return 2.0 * np.pi * (j * (1.0 / L))


def _stencil(params: AutomatonParams):
    """The step's 2x2 coefficients (R, L, M): psi'(x) = R psi(x+1) + L psi(x-1) + M psi(x)."""
    n, mix = params.n, -1j * params.m
    R = np.array([[n, 0.0], [0.0, 0.0]], dtype=complex)
    L = np.array([[0.0, 0.0], [0.0, n]], dtype=complex)
    M = np.array([[0.0, mix], [mix, 0.0]])
    return R, L, M


def unitary_k(params: AutomatonParams, k) -> np.ndarray:
    """Single-mode step matrix R e^{ik} + L e^{-ik} + M, shape k.shape + (2, 2)."""
    k = np.asarray(k, dtype=float)
    if not np.all(np.isfinite(k)):
        raise ValueError("momentum must be finite")
    R, L, M = _stencil(params)
    phase = np.exp(1j * k)[..., None, None]
    return phase * R + np.conj(phase) * L + M


def evolve_position(field: SpinorField, params: AutomatonParams, t: int) -> SpinorField:
    """t steps of the stencil rule on the ring (t a nonnegative integer).

    This is the automaton's defining update rule and the oracle of the CLI's
    closed-form path.  Each step scales the norm by sqrt(n^2 + m^2), which in
    doubles is not exactly 1 (1 + 2.1e-17 at m = 0.92), so its drift grows
    linearly in t, where the closed form's does not.
    """
    _check_time(t)
    if t != int(t):
        raise ValueError(f"position-space evolution needs a nonnegative integer time, got {t}")
    R, L, M = _stencil(params)
    psi = field.sites.copy()
    for _ in range(int(t)):
        psi = np.roll(psi, -1, axis=0) @ R.T + np.roll(psi, 1, axis=0) @ L.T + psi @ M.T
    return SpinorField(psi)


def evolve_momentum(spec: ModeSpectrum, params: AutomatonParams, t: float) -> ModeSpectrum:
    """Multiply each mode by U(k_j)^t; ``t`` may be any nonnegative real.

    U^t = [[c + i v s, -i u_x s], [-i u_x s, c - i v s]] with c, s = cos, sin(omega t) and the axis (u_x, 0, -v).
    It is formed over blocks of ``dispersion.MODE_BLOCK`` modes, each written into the output before the next is
    formed, and the bits do not depend on the block size.  Each piece, the block's momenta too, is dropped after
    its last read, so beyond its output the call holds only one block's pieces.
    """
    _check_time(t)
    out = np.empty_like(spec.modes)  # before the per-mode temporaries, which would fragment the heap under it
    m = params.m
    for block in _blocks(spec.L):
        sk, ck, s2, sw, v = _mode(_momenta(spec.L, block), m)
        del sk, s2  # the power reads only cos k, sin omega and v
        phase = _angle(sw, ck, m) * float(t)
        u_x = _over(m, sw)
        del ck, sw
        s = np.sin(phase)
        c, vs, us = np.cos(phase), v * s, u_x * s
        del phase, s, v, u_x
        a, b = c + 1j * vs, -1j * us  # U^t = [[a, b], [b, conj(a)]]
        del c, vs, us
        psi_r, psi_l = spec.modes[block, 0], spec.modes[block, 1]
        out[block, 0] = a * psi_r + b * psi_l
        out[block, 1] = b * psi_r + np.conj(a) * psi_l
    return ModeSpectrum(out)


def _dft(array: np.ndarray, fft, out=None) -> np.ndarray:
    """``fft`` of each spinor component of the (L, 2) ``array``, one at a time: the bits of ``fft(array, axis=0)``.

    The result goes to ``out``, a new array by default; ``out`` may be ``array`` itself, since each component is
    read in full before it is written.
    """
    if out is None:
        out = np.empty_like(array)
    for c in range(2):
        out[:, c] = fft(array[:, c])
    return out


def transform(field: SpinorField) -> ModeSpectrum:
    """Unitary DFT per spinor component (Parseval-preserving), one component at a time."""
    modes = _dft(field.sites, np.fft.fft)
    modes /= math.sqrt(field.L)
    return ModeSpectrum(modes)


def inverse_transform(spec: ModeSpectrum, *, out=None) -> SpinorField:
    """Inverse of :func:`transform`; round-trips to 1e-12 per amplitude.

    Each spinor component is transformed on its own into the output, which is then scaled in place, so the
    call never holds a second (L, 2) array.  By default the output is new and ``spec`` is left as it was.
    ``out=spec.modes`` transforms in place, with the same bits: the spectrum is consumed, and the returned
    field's sites are that array.  Any other ``out`` is a ``ValueError``.
    """
    if out is not None and out is not spec.modes:
        raise ValueError("out must be None or the spectrum's own modes")
    sites = _dft(spec.modes, np.fft.ifft, out)
    sites *= math.sqrt(spec.L)
    return SpinorField(sites)


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
    (c) unitarity of the stencil U = R S + L S^dag + M, on the same triple:
        R R^+ + L L^+ + M M^+ = 1,  M R^+ + L M^+ = 0,  L R^+ = 0.

    sigma_x A sigma_x swaps both the rows and the columns of A, so (a) and
    (b) are checked on all samples at once as axis reversals.
    """
    ks = np.atleast_1d(np.asarray(k_samples, dtype=float))
    if ks.size == 0:
        raise ValueError("need at least one momentum sample")
    uk = unitary_k(params, ks)
    flipped = unitary_k(params, -ks)[:, ::-1, ::-1]  # sigma_x U(-k) sigma_x
    parity = float(np.max(np.abs(flipped - uk)))
    trev = float(np.max(np.abs(np.conj(flipped) - np.conj(np.swapaxes(uk, 1, 2)))))

    R, L, M = _stencil(params)
    res_complete = R @ R.conj().T + L @ L.conj().T + M @ M.conj().T - np.eye(2)
    res_cross = M @ R.conj().T + L @ M.conj().T
    res_lr = L @ R.conj().T
    unit = float(max(np.max(np.abs(res_complete)), np.max(np.abs(res_cross)), np.max(np.abs(res_lr))))

    return SymmetryReport(parity=parity, time_reversal=trev, unitarity=unit, max_residual=max(parity, trev, unit))
