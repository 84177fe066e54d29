import math

import numpy as np
import pytest

from dirac_qca import AutomatonParams, WavepacketSpec, build, cli

FIG4_COEFFS = (
    math.sqrt(1 / 3), 0.0, math.sqrt(4 / 9), 0.0, 0.0, 0.0, 0.0, math.sqrt(2 / 9),
)
FIG4_K0 = 0.3 * math.pi
FIG4_M = 0.6
FIG4_SIGMA_HAT = 20.0
FIG4_L = 1024
FIG4_X0 = 256.0


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


def build_fig4(L: int = FIG4_L):
    spec = WavepacketSpec(
        k0=FIG4_K0,
        sigma_hat=FIG4_SIGMA_HAT,
        x0=FIG4_X0,
        s=+1,
        shape="hermite",
        hermite_coeffs=FIG4_COEFFS,
    )
    params = AutomatonParams(FIG4_M)
    field, spectrum = build(spec, params, L)
    return spec, params, field, spectrum


@pytest.fixture(scope="session")
def fig4_state():
    return build_fig4()


def shutdown_csv_pool():
    """Stop the CSV formatting pool's workers and forget the pool, if one was built."""
    if cli._csv_pool.cache_info().currsize:
        cli._csv_pool().shutdown(wait=True)
        cli._csv_pool.cache_clear()


@pytest.fixture(scope="session", autouse=True)
def _no_leftover_csv_workers():
    # cli keeps its pool for the life of the process; a test run leaves no workers behind
    yield
    shutdown_csv_pool()
