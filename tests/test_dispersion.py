import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from dirac_qca import (
    AutomatonParams,
    FlytimeInput,
    ModeSpectrum,
    SpinorField,
    accuracy_bound,
    broadening,
    derivatives,
    dirac_omega,
    evolve_momentum,
    evolve_position,
    mu,
    omega,
    schrodinger_evolve,
    unitary_k,
)
from dirac_qca.dispersion import branch_spinors, sin_omega

from conftest import dirac_hamiltonian_k, dispersion_correction, hamiltonian_k, omega_longdouble, regime_series


def _time_entry_points():
    """Every library function that takes an evolution time, as t -> call."""
    p = AutomatonParams(0.5)
    spec = ModeSpectrum(np.eye(8, 2, dtype=complex))
    return {
        "evolve_momentum": lambda t: evolve_momentum(spec, p, t),
        "evolve_position": lambda t: evolve_position(SpinorField(np.eye(8, 2, dtype=complex)), p, t),
        "schrodinger_evolve": lambda t: schrodinger_evolve(spec, p, 0.3, 1, t),
        "accuracy_bound": lambda t: accuracy_bound(spec, p, 0.3, 0.5, t),
        "mu": lambda t: mu(0.3, 0.5, t),
        "broadening": lambda t: broadening(FlytimeInput(m=0.5, k=0.3, sigma_hat=10.0), t),
    }


class TestTimeCheck:
    @pytest.mark.parametrize("name", sorted(_time_entry_points()))
    @pytest.mark.parametrize("t", [math.nan, math.inf, -1.0])
    def test_rejects_time_outside_zero_to_infinity(self, name, t):
        with pytest.raises(ValueError):
            _time_entry_points()[name](t)


# frozen: mpmath acos(0.8*cos(3*pi/10)) at 60 digits
OMEGA_AT_FIG4_POINT = 1.0812469940849838


class TestOmega:
    def test_massless_is_abs_k(self):
        for k in np.linspace(-np.pi, np.pi, 41):
            assert omega(k, 0.0) == pytest.approx(abs(k), abs=1e-13)

    def test_rest_is_arcsin_m(self):
        for m in np.linspace(0.0, 1.0, 21):
            assert omega(0.0, m) == pytest.approx(math.asin(m), rel=1e-15, abs=1e-300)

    def test_frozen_reference_value(self):
        assert omega(3 * np.pi / 10, 0.6) == pytest.approx(OMEGA_AT_FIG4_POINT, abs=2e-15)

    def test_deep_subplanckian_keeps_relative_precision(self):
        # naive arccos would return exactly 0 here
        assert omega(1e-8, 1e-19) == pytest.approx(1e-8, rel=1e-12, abs=0)

    def test_sin_omega_identity(self):
        for m in (0.0, 0.2, 0.81, 1.0):
            for k in np.linspace(-np.pi, np.pi, 17):
                assert sin_omega(k, m) == pytest.approx(math.sin(omega(k, m)), abs=1e-14)

    @given(k=st.floats(-np.pi, np.pi), m=st.floats(0.0, 1.0))
    @settings(max_examples=200, deadline=None)
    def test_even_in_k_and_in_range(self, k, m):
        w = omega(k, m)
        assert omega(-k, m) == w  # bitwise: built from even pieces
        assert 0.0 <= w <= np.pi

    def test_rejects_bad_mass(self):
        with pytest.raises(ValueError):
            omega(0.1, 1.5)


class TestDiracOmega:
    def test_examples(self):
        assert dirac_omega(0.0, 0.37) == 0.37
        assert dirac_omega(-1.2, 0.0) == 1.2
        assert dirac_omega(3e-8, 4e-8) == pytest.approx(5e-8, rel=1e-15, abs=0)


class TestDerivatives:
    def test_finite_difference_agreement(self):
        # oracle: central differences of the extended-precision dispersion
        h = np.longdouble(1e-5)
        ks = np.linspace(-np.pi + 0.05, np.pi - 0.05, 64)
        for m in np.linspace(0.05, 1.0, 16):
            for k in ks:
                v, d, _ = derivatives(k, m)
                kl = np.longdouble(k)
                v_fd = float((omega_longdouble(kl + h, m) - omega_longdouble(kl - h, m)) / (2 * h))
                d_fd = float(
                    (omega_longdouble(kl + h, m) - 2 * omega_longdouble(kl, m) + omega_longdouble(kl - h, m))
                    / h**2
                )
                assert abs(v - v_fd) <= 1e-8
                assert abs(d - d_fd) <= 1e-6

    def test_third_derivative_against_finite_difference(self):
        h = np.longdouble(1e-3)
        for m in (0.3, 0.6, 0.9):
            for k in np.linspace(-2.5, 2.5, 21):
                _, _, w3 = derivatives(k, m)
                kl = np.longdouble(k)
                w3_fd = float(
                    (
                        omega_longdouble(kl + 2 * h, m)
                        - 2 * omega_longdouble(kl + h, m)
                        + 2 * omega_longdouble(kl - h, m)
                        - omega_longdouble(kl - 2 * h, m)
                    )
                    / (2 * h**3)
                )
                assert w3 == pytest.approx(w3_fd, rel=1e-3, abs=1e-9)

    def test_massless_light_speed(self):
        for k in (0.1, 1.0, 3.0):
            assert derivatives(k, 0.0) == (1.0, 0.0, 0.0)
            assert derivatives(-k, 0.0) == (-1.0, 0.0, 0.0)

    def test_rest_values(self):
        for m in (0.1, 0.6, 0.92):
            v, d, w3 = derivatives(0.0, m)
            assert v == 0.0
            assert d == pytest.approx(math.sqrt(1 - m * m) / m, rel=1e-14)
            assert w3 == 0.0

    def test_reference_drift_value(self):
        v, d, _ = derivatives(3 * np.pi / 10, 0.6)
        assert v == pytest.approx(0.73, abs=0.005)
        # mpmath mp.diff oracle: 0.246263924589690304 (conflicts with the
        # often-quoted 0.31; the closed form and the oracle agree)
        assert d == pytest.approx(0.24626392458969030, abs=1e-13)

    def test_undefined_at_origin(self):
        with pytest.raises(ValueError):
            derivatives(0.0, 0.0)

    @given(k=st.floats(1e-3, np.pi - 1e-3), m=st.floats(0.05, 1.0))
    @settings(max_examples=150, deadline=None)
    def test_parity_and_speed_limit(self, k, m):
        v, d, w3 = derivatives(k, m)
        v_neg, d_neg, w3_neg = derivatives(-k, m)
        assert v_neg == -v and d_neg == d and w3_neg == -w3
        assert abs(v) <= 1.0


class TestEigenpair:
    """U(k) has the eigenphase s omega on branch s, with eigenvector ``branch_spinors``."""

    def test_eigen_relation_residual(self):
        for m in (0.1, 0.6, 0.92, 1.0):
            p = AutomatonParams(m)
            for k in np.linspace(-3.1, 3.1, 25):
                u = unitary_k(p, k)
                for s in (+1, -1):
                    phase, spinor = s * omega(k, m), branch_spinors(k, m, s)[0]
                    assert abs(np.linalg.norm(spinor) - 1.0) <= 1e-14
                    assert np.max(np.abs(u @ spinor - np.exp(-1j * phase) * spinor)) <= 1e-12

    def test_planck_mass_point(self):
        # oracle: numpy eigendecomposition of the explicit 2x2
        phase, spinor = omega(0.4, 1.0), branch_spinors(0.4, 1.0, +1)[0]
        assert phase == pytest.approx(np.pi / 2, rel=1e-15)
        vals, vecs = np.linalg.eig(unitary_k(AutomatonParams(1.0), 0.4))
        idx = int(np.argmin(np.abs(vals - np.exp(-1j * np.pi / 2))))
        reference = vecs[:, idx]
        reference = reference / (reference[0] / abs(reference[0]))  # same phase gauge
        assert np.max(np.abs(spinor - reference)) <= 1e-12
        assert np.max(np.abs(spinor - np.array([1.0, 1.0]) / math.sqrt(2))) <= 1e-12

    def test_massless_diagonal_branches(self):
        assert omega(np.pi / 4, 0.0) == pytest.approx(np.pi / 4)
        assert np.array_equal(branch_spinors(np.pi / 4, 0.0, +1)[0], np.array([0.0, 1.0], dtype=complex))
        assert np.array_equal(branch_spinors(np.pi / 4, 0.0, -1)[0], np.array([1.0, 0.0], dtype=complex))

    def test_degenerate_point_uses_canonical_basis(self):
        plus = branch_spinors(0.0, 0.0, +1)[0]
        minus = branch_spinors(0.0, 0.0, -1)[0]
        assert np.array_equal(plus, np.array([1.0, 0.0], dtype=complex))
        assert np.array_equal(minus, np.array([0.0, 1.0], dtype=complex))

    def test_phase_convention_first_component_positive(self):
        for m in (0.3, 0.9):
            for k in np.linspace(-3.0, 3.0, 13):
                for s in (+1, -1):
                    spinor = branch_spinors(k, m, s)[0]
                    assert spinor[0].real > 0.0 and spinor[0].imag == 0.0

    def test_vectorized_matches_scalar_bitwise(self):
        ks = np.linspace(-3.0, 3.0, 11)
        batch = branch_spinors(ks, 0.6, +1)
        for j, k in enumerate(ks):
            assert np.array_equal(batch[j], branch_spinors(k, 0.6, +1)[0])


class TestHamiltonians:
    def test_exp_reproduces_step_unitary(self):
        # independent oracle: scipy's generic matrix exponential
        for m in (0.2, 0.6, 0.95):
            p = AutomatonParams(m)
            for k in np.linspace(-3.0, 3.0, 25):
                h = hamiltonian_k(k, m)
                assert np.max(np.abs(h - h.conj().T)) <= 1e-14
                assert np.max(np.abs(scipy.linalg.expm(-1j * h) - unitary_k(p, k))) <= 1e-12

    def test_massless_limit_is_diagonal(self):
        for k in (0.0, 0.5, -2.0, np.pi):
            h = hamiltonian_k(k, 0.0)
            assert np.array_equal(h, np.diag([-k, k]).astype(complex))
            assert np.max(np.abs(scipy.linalg.expm(-1j * h) - unitary_k(AutomatonParams(0.0), k))) <= 1e-12

    def test_rest_off_diagonal_is_arcsin(self):
        for m in (0.1, 0.6, 0.9):
            h = hamiltonian_k(0.0, m)
            assert h[0, 0] == 0.0 and h[1, 1] == 0.0
            assert h[0, 1].real == pytest.approx(math.asin(m), rel=1e-14)

    def test_dirac_hamiltonian_basics(self):
        assert np.array_equal(dirac_hamiltonian_k(0.0, 0.0), np.zeros((2, 2)))
        for k, m in ((0.4, 0.3), (2.0, 0.9)):
            vals = np.linalg.eigvalsh(dirac_hamiltonian_k(k, m))
            lam = math.hypot(k, m)
            assert np.allclose(sorted(vals), [-lam, lam], rtol=1e-14)

    def test_small_scale_agreement(self):
        h = hamiltonian_k(1e-8, 1e-19)
        hd = dirac_hamiltonian_k(1e-8, 1e-19)
        assert np.max(np.abs(h - hd)) <= 1e-15 * np.max(np.abs(hd))


class TestDispersionCorrection:
    def test_massless_exact(self):
        for k in (0.2, 1.0, 2.5):
            approx_val, residual = dispersion_correction(k, 0.0)
            assert approx_val == dirac_omega(k, 0.0)
            assert abs(residual) <= 1e-13

    def test_equal_k_and_m_has_unit_factor(self):
        approx_val, _ = dispersion_correction(0.3, 0.3)
        assert approx_val == dirac_omega(0.3, 0.3)

    def test_fifth_order_scaling(self):
        k, m = 0.2, 0.1
        residuals = [abs(dispersion_correction(lam * k, lam * m)[1]) for lam in (1.0, 0.5, 0.25)]
        assert residuals[0] / residuals[1] >= 16.0
        assert residuals[1] / residuals[2] >= 16.0

    def test_correction_beats_raw_reference(self):
        # wherever k^2 + m^2 <= 0.25 the corrected value is closer than omega_D
        for m in np.linspace(0.0, 0.5, 11):
            for k in np.linspace(-0.5, 0.5, 21):
                if k * k + m * m > 0.25 or (k == 0.0 and m == 0.0):
                    continue
                approx_val, residual = dispersion_correction(k, m)
                assert abs(residual) <= abs(omega(k, m) - dirac_omega(k, m)) + 1e-16


class TestRegimeCoefficients:
    def test_relativistic_collapse_at_proton_scale(self):
        k, m = 1e-8, 1e-19
        v_leading, v_series, _, d_series = regime_series(k, m, "relativistic")
        v_exact, d_exact, _ = derivatives(k, m)
        assert v_leading == k / math.hypot(k, m)
        assert abs(v_series - v_exact) / v_exact < 1e-15
        assert abs(d_series - d_exact) / d_exact < 1e-10

    def test_relativistic_series_improves_drift(self):
        v_leading, v_series, _, d_series = regime_series(0.05, 0.005, "relativistic")
        v_exact, d_exact, _ = derivatives(0.05, 0.005)
        assert abs(v_series - v_exact) <= abs(v_leading - v_exact) / 10.0
        # the printed diffusion correction does NOT improve on its leading
        # term here (it misses the O(m^2) factor of n), but stays close
        assert abs(d_series - d_exact) / d_exact < 1e-4

    def test_nonrelativistic_leading_terms(self):
        v_leading, _, d_leading, _ = regime_series(1e-3, 0.1, "nonrelativistic")
        assert d_leading == 10.0
        v_exact, _, _ = derivatives(1e-3, 0.1)
        assert abs(v_leading - v_exact) / v_exact <= 1e-2

    def test_unknown_regime_rejected(self):
        with pytest.raises(ValueError):
            regime_series(0.1, 0.1, "ultrarelativistic")
