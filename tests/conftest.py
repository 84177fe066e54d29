import math
import tracemalloc

import numpy as np
import pytest

from dirac_qca import AutomatonParams, WavepacketSpec, build, dirac_omega, inverse_transform, omega
from dirac_qca.cli import PRESETS
from dirac_qca.discrimination import _alpha_beta
from dirac_qca.dispersion import _check_mass, sin_omega

_FIG4 = PRESETS["evolve"]["fig4"]  # the one definition of the fig4 packet
FIG4_COEFFS = _FIG4["coeffs"]
FIG4_K0 = _FIG4["k0"]
FIG4_M = _FIG4["m"]
FIG4_SIGMA_HAT = _FIG4["sigma_hat"]
FIG4_L = _FIG4["L"]
FIG4_X0 = _FIG4["x0"]


def omega_longdouble(k, m):
    """Extended-precision dispersion, used only as a finite-difference oracle.

    80-bit arithmetic keeps the roundoff of second differences at step 1e-5
    below the suite's stated tolerances (double precision would not).
    """
    k = np.asarray(k, dtype=np.longdouble)
    m = np.longdouble(m)
    n = np.sqrt(np.longdouble(1.0) - m * m)
    delta = 2.0 * np.sin(k / 2.0) ** 2 + (m * m / (1.0 + n)) * np.cos(k)
    return 2.0 * np.arcsin(np.sqrt(delta / 2.0))


def alpha_beta(k, m):
    """Phase mismatch rate alpha and velocity mismatch beta for one momentum: the scalar oracle of the array forms.

    alpha is signed (the lattice eigenphase can overtake the continuum one);
    beta >= 0 always, and beta = 0 exactly at k = 0 or m = 0.  Note: the
    inequality cos(mu) >= cos(alpha t) - beta holds with this beta; a halved
    variant breaks the trace identity and the inequality with it.  A scalar
    reader of the one kernel ``discrimination._alpha_beta`` (alpha: a
    half-angle identity below k = pi/2, the sum (lambda - k) + (k - omega)
    from pi/2 on; beta: |u - u_c|^2 / 2 over the two rotation axes).
    """
    if not abs(k) <= math.pi:  # also rejects nan
        raise ValueError(f"momentum must be finite with |k| <= pi, got {k}")
    _check_mass(m)
    if k == 0.0 and m == 0.0:
        raise ValueError("alpha/beta undefined at (k, m) = (0, 0)")
    alpha, beta, _ = _alpha_beta(k, m)
    return float(alpha), float(beta)


def hamiltonian_k(k, m):
    """Generator of the step, exp(-i H) = U(k): (w / sin w) [[-n sin k, m], [m, n sin k]].

    The massless case is the limit diag(-k, k), which also covers sin w -> 0.
    """
    if m == 0.0:
        return np.diag([-k, k]).astype(complex)
    n = math.sqrt(1.0 - m * m)
    ratio = omega(k, m) / sin_omega(k, m)  # sin w > 0 strictly for m > 0
    return ratio * np.array([[-n * math.sin(k), m], [m, n * math.sin(k)]], dtype=complex)


def dirac_hamiltonian_k(k, m):
    """Continuum generator [[-k, m], [m, k]]."""
    return np.array([[-k, m], [m, k]], dtype=complex)


def dispersion_correction(k, m):
    """(omega_approx, omega - omega_approx), omega_approx = omega_D (1 - (m^2/6) (k^2 - m^2)/(k^2 + m^2)).

    The residual is a fifth-order quantity near the origin.
    """
    approx = dirac_omega(k, m) * (1.0 - (m * m / 6.0) * (k * k - m * m) / (k * k + m * m))
    return approx, omega(k, m) - approx


def regime_series(k, m, regime):
    """(v leading, v with first correction, D leading, D with first correction) in a named regime.

    ``relativistic`` is the paper's series for k, m << 1 with k/m > 1,
    ``nonrelativistic`` the one for k/m < 1.
    """
    lam2 = k * k + m * m
    if regime == "relativistic":
        v_lead, d_lead = k / math.sqrt(lam2), m * m / lam2 ** 1.5
        return (
            v_lead,
            v_lead * (1.0 - m * m / 3.0 + (m * m * k * k) / (6.0 * lam2)),
            d_lead,
            d_lead * (1.0 + m * m * k * k / 3.0 - 0.5 * m * m * k ** 4 / lam2),
        )
    if regime == "nonrelativistic":
        return k / m, k / m * (1.0 + m * m / 3.0), 1.0 / m, 1.0 / m * (1.0 + 5.0 * k * k / 6.0)
    raise ValueError(f"unknown regime {regime!r}")


def overlap(a, b):
    """|<a|b>| of two ``ModeSpectrum`` states, summed over both components of every mode: the two-state oracle of
    ``approx.fidelity``'s phase sum."""
    return float(abs(np.vdot(a.modes, b.modes)))


def traced_peak(call):
    """(``call()``'s result, the peak bytes ``tracemalloc`` saw during it), after one untraced call that keeps
    first-call allocations out of the peak."""
    call()
    tracemalloc.start()
    try:
        result = call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


def build_fig4(L: int = FIG4_L):
    spec = WavepacketSpec(
        k0=FIG4_K0,
        sigma_hat=FIG4_SIGMA_HAT,
        x0=FIG4_X0,
        s=+1,
        hermite_coeffs=FIG4_COEFFS,
    )
    params = AutomatonParams(FIG4_M)
    spectrum = build(spec, params, L)
    return spec, params, inverse_transform(spectrum), spectrum


@pytest.fixture(scope="session")
def fig4_state():
    return build_fig4()
