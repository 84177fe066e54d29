import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dirac_qca import (
    AutomatonParams,
    WavepacketSpec,
    accuracy_bound,
    build,
    dispersion,
    evolve_momentum,
    fidelity,
    omega,
    schrodinger_evolve,
)
from dirac_qca.automaton import ModeSpectrum
from dirac_qca.dispersion import derivatives
from dirac_qca.wavepacket import wrap_momentum

from conftest import FIG4_COEFFS, FIG4_K0, traced_peak


def evolve_with_phase(spec, phase, s, t):
    """Multiply mode j by exp(-i s phase[j] t), leaving spinor parts untouched."""
    return ModeSpectrum(spec.modes * np.exp(-1j * s * phase * t)[:, None])


def random_pair(L, seed):
    """Two random unit (L, 2) spectra about 0.1 apart, so their overlap is neither 0 nor 1."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((L, 2)) + 1j * rng.standard_normal((L, 2))
    b = a + 0.1 * (rng.standard_normal((L, 2)) + 1j * rng.standard_normal((L, 2)))
    return ModeSpectrum(a / np.linalg.norm(a)), ModeSpectrum(b / np.linalg.norm(b))


def gaussian_state(m=0.0, k0=np.pi / 2, sigma_hat=10.0, L=256, s=+1):
    spec = WavepacketSpec(k0=k0, sigma_hat=sigma_hat, x0=L / 2, s=s)
    params = AutomatonParams(m)
    spectrum = build(spec, params, L)
    return spec, params, spectrum


class TestSchrodingerEvolve:
    def test_t0_is_identity(self):
        _, params, spectrum = gaussian_state(m=0.6, k0=0.3 * np.pi)
        out = schrodinger_evolve(spectrum, params, 0.3 * np.pi, +1, 0.0)
        assert np.array_equal(out.modes, spectrum.modes)

    def test_norm_is_preserved(self):
        _, params, spectrum = gaussian_state(m=0.3, k0=0.2 * np.pi)
        out = schrodinger_evolve(spectrum, params, 0.2 * np.pi, +1, 321.5)
        assert abs(out.norm() - 1.0) <= 1e-14

    @given(t1=st.floats(0.0, 500.0), t2=st.floats(0.0, 500.0))
    @settings(max_examples=25, deadline=None)
    def test_composition(self, t1, t2):
        _, params, spectrum = gaussian_state(m=0.6, k0=0.3 * np.pi)
        joint = schrodinger_evolve(spectrum, params, 0.3 * np.pi, +1, t1 + t2)
        stepped = schrodinger_evolve(
            schrodinger_evolve(spectrum, params, 0.3 * np.pi, +1, t1), params, 0.3 * np.pi, +1, t2
        )
        assert np.max(np.abs(joint.modes - stepped.modes)) <= 1e-12

    @pytest.mark.parametrize("s", [0, 2, -2])
    def test_rejects_branch_other_than_plus_minus_one(self, s):
        # s = 0 used to return the state unevolved, s = 2 with twice the phase
        _, params, spectrum = gaussian_state(m=0.6, k0=0.3 * np.pi)
        with pytest.raises(ValueError, match="branch"):
            schrodinger_evolve(spectrum, params, 0.3 * np.pi, s, 100.0)

    def test_massless_positive_band_is_exact(self):
        # omega = k exactly on k > 0, so drift alone reproduces the evolution
        spec, params, spectrum = gaussian_state(m=0.0, k0=np.pi / 2, sigma_hat=10.0)
        negative_mass = spectrum.mode_weights()[spectrum.ks <= 0].sum()
        assert negative_mass <= 1e-20  # support in k > 0 up to wrapped-tail dust
        for t in (1.0, 17.0, 400.0):
            exact = evolve_momentum(spectrum, params, t)
            approx = schrodinger_evolve(spectrum, params, spec.k0, spec.s, t)
            assert fidelity(exact, approx) >= 1.0 - 1e-10

    def test_per_mode_phase_error_within_taylor_remainder(self, fig4_state):
        # |omega(k0+K) - (w0 + vK + DK^2/2)| <= max |omega'''| |K|^3 / 6
        spec, params, _, spectrum = fig4_state
        v, d, _ = derivatives(spec.k0, params.m)
        K = wrap_momentum(spectrum.ks - spec.k0)
        window = np.abs(K) <= 0.6
        exact_phase = omega(spectrum.ks, params.m)
        quad_phase = omega(spec.k0, params.m) + v * K + 0.5 * d * K * K
        for kk, remainder in zip(K[window], np.abs(exact_phase - quad_phase)[window]):
            grid = np.linspace(spec.k0 - abs(kk), spec.k0 + abs(kk), 31)
            w3_max = np.max(np.abs(derivatives(grid, params.m).omega3)) if abs(kk) > 0 else 0.0
            assert remainder <= w3_max * abs(kk) ** 3 / 6.0 * (1.0 + 1e-9) + 1e-15

    def test_wrapping_never_activates_for_narrow_packets(self, fig4_state):
        _, _, _, spectrum = fig4_state
        K = wrap_momentum(spectrum.ks - FIG4_K0)
        assert spectrum.mode_weights()[np.abs(K) > np.pi / 2].sum() <= 1e-12

    def test_printed_quadratic_sign_is_worse(self, fig4_state):
        # the opposite K^2 sign (a transcription variant) degrades the match
        spec, params, _, spectrum = fig4_state
        exact = evolve_momentum(spectrum, params, 200.0)
        taylor = schrodinger_evolve(spectrum, params, spec.k0, spec.s, 200.0)
        v, d, _ = derivatives(spec.k0, params.m)
        K = wrap_momentum(spectrum.ks - spec.k0)
        printed = evolve_with_phase(spectrum, omega(spec.k0, params.m) + v * K - 0.5 * d * K * K, spec.s, 200.0)
        assert fidelity(exact, taylor) > fidelity(exact, printed)
        assert fidelity(exact, taylor) >= 0.999


    @pytest.mark.parametrize("m", [0.0, 0.3, 1.0])
    def test_block_size_does_not_change_the_bits(self, monkeypatch, m):
        _, params, spectrum = gaussian_state(m=m, k0=-0.4 * np.pi, sigma_hat=3.0, L=1000)
        results = []
        for block in (1, 7, dispersion.MODE_BLOCK, spectrum.L):
            monkeypatch.setattr(dispersion, "MODE_BLOCK", block)
            results.append(schrodinger_evolve(spectrum, params, -0.4 * np.pi, -1, 123.4).modes.tobytes())
        assert len(set(results)) == 1

    def test_memory_beyond_the_output(self):
        # one block's phase and factor: at most 8 arrays of MODE_BLOCK doubles, plus 4 KiB for the objects around
        # them; 2 arrays of L doubles at L = 65536, where the whole-ring form held 17
        L = 65536
        spectrum, _ = random_pair(L, seed=1)
        out, peak = traced_peak(lambda: schrodinger_evolve(spectrum, AutomatonParams(0.3), 1.0, +1, 10.0))
        assert peak - out.modes.nbytes <= 8 * dispersion.MODE_BLOCK * 8 + 4096


class TestFidelity:
    def test_identical_states(self, fig4_state):
        _, _, _, spectrum = fig4_state
        assert fidelity(spectrum, spectrum) == pytest.approx(1.0, abs=1e-14)

    def test_orthogonal_single_modes(self):
        a = np.zeros((8, 2), dtype=complex)
        b = np.zeros((8, 2), dtype=complex)
        a[1, 0] = 1.0
        b[2, 0] = 1.0
        assert fidelity(ModeSpectrum(a), ModeSpectrum(b)) == 0.0

    def test_length_mismatch(self):
        a = ModeSpectrum(np.zeros((8, 2), dtype=complex))
        b = ModeSpectrum(np.zeros((16, 2), dtype=complex))
        with pytest.raises(ValueError):
            fidelity(a, b)

    @pytest.mark.parametrize("L", [2, 3, 33, 67, 1000, 16384, 20000, 49152, 65536, 100000, 131072, 200003])
    def test_bits_of_the_whole_array_sum(self, L):
        # the oracle forms the whole product and sums it at once; the blocked sum splits where that sum splits
        a, b = random_pair(L, seed=L)
        assert fidelity(a, b) == float(abs(np.sum(np.conj(a.modes) * b.modes)))

    def test_block_size_does_not_change_the_bits(self, monkeypatch):
        a, b = random_pair(4097, seed=5)
        results = []
        for block in (1, 7, 100, dispersion.MODE_BLOCK, a.L):
            monkeypatch.setattr(dispersion, "MODE_BLOCK", block)
            results.append(fidelity(a, b))
        assert len(set(results)) == 1

    def test_memory_is_one_block_product(self):
        # conj(a) b over one block of modes: 4 arrays of MODE_BLOCK doubles, plus 8 KiB for the views and objects
        # around them; 1 array of L doubles at L = 65536, where the whole product took 4
        a, b = random_pair(65536, seed=2)
        _, peak = traced_peak(lambda: fidelity(a, b))
        assert peak <= 4 * dispersion.MODE_BLOCK * 8 + 8192

    @given(t=st.floats(0.0, 1000.0))
    @settings(max_examples=30, deadline=None)
    def test_range(self, t):
        _, params, spectrum = gaussian_state(m=0.6, k0=0.3 * np.pi)
        out = evolve_momentum(spectrum, params, t)
        value = fidelity(spectrum, out)
        assert 0.0 <= value <= 1.0 + 1e-12


class TestQuadraticExactness:
    def test_quadratic_dispersion_gives_unit_fidelity(self):
        # replace the true dispersion by its second-order Taylor polynomial:
        # the drift-diffusion evolver then matches it exactly for all t
        k0 = 0.3 * np.pi
        _, params, spectrum = gaussian_state(m=0.6, k0=k0, L=512)
        v, d, _ = derivatives(k0, params.m)
        K = wrap_momentum(spectrum.ks - k0)
        taylor_phase = omega(k0, params.m) + v * K + 0.5 * d * K * K
        for t in (10.0, 100.0, 1000.0):
            reference = evolve_with_phase(spectrum, taylor_phase, +1, t)
            approx = schrodinger_evolve(spectrum, params, k0, +1, t)
            assert fidelity(reference, approx) >= 1.0 - 1e-10


class TestAccuracyBound:
    def test_t0_bound_is_one_minus_epsilon(self, fig4_state):
        spec, params, _, spectrum = fig4_state
        bound = accuracy_bound(spectrum, params, spec.k0, 3.0 / spec.sigma_hat, 0.0)
        assert bound.bound == pytest.approx(1.0 - bound.epsilon, abs=1e-15)

    def test_massless_gamma_vanishes(self):
        spec, params, spectrum = gaussian_state(m=0.0, k0=np.pi / 2, sigma_hat=10.0)
        bound = accuracy_bound(spectrum, params, spec.k0, 0.3, 500.0)
        assert bound.gamma == 0.0
        assert bound.bound == pytest.approx(1.0 - bound.epsilon, abs=1e-15)

    def test_reference_times_bound_and_monotonicity(self, fig4_state):
        spec, params, _, spectrum = fig4_state
        sigma = 3.0 / spec.sigma_hat
        bounds = []
        for t in (100.0, 200.0, 600.0):
            exact = evolve_momentum(spectrum, params, t)
            approx = schrodinger_evolve(spectrum, params, spec.k0, spec.s, t)
            value = accuracy_bound(spectrum, params, spec.k0, sigma, t).bound
            bounds.append(value)
            assert fidelity(exact, approx) >= value
        assert bounds[0] >= bounds[1] >= bounds[2]

    @pytest.mark.parametrize("coeffs", [(1.0,), FIG4_COEFFS], ids=["gaussian", "hermite"])
    @pytest.mark.parametrize("m", [0.0, 0.3, 0.6, 0.92])
    def test_bound_soundness_across_regimes(self, coeffs, m):
        # the central property: measured fidelity never undercuts the bound
        params = AutomatonParams(m)
        L = 1024
        for k0 in (0.1 * np.pi, 0.3 * np.pi):
            for sigma_hat in (10.0, 20.0, 40.0):
                spec = WavepacketSpec(k0=k0, sigma_hat=sigma_hat, x0=L / 2, s=+1, hermite_coeffs=coeffs)
                spectrum = build(spec, params, L)
                sigma = 3.0 / sigma_hat
                for t in (10.0, 100.0, 600.0):
                    exact = evolve_momentum(spectrum, params, t)
                    approx = schrodinger_evolve(spectrum, params, k0, +1, t)
                    bound = accuracy_bound(spectrum, params, k0, sigma, t).bound
                    assert fidelity(exact, approx) >= bound - 1e-9

    def test_rejects_negative_t(self, fig4_state):
        spec, params, _, spectrum = fig4_state
        with pytest.raises(ValueError):
            accuracy_bound(spectrum, params, spec.k0, 0.1, -1.0)
