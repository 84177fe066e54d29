import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dirac_qca import (
    AutomatonParams,
    WavepacketSpec,
    accuracy_bound,
    approx as approx_module,
    build,
    dispersion,
    evolve_momentum,
    fidelity,
    omega,
    schrodinger_evolve,
)
from dirac_qca.automaton import ModeSpectrum
from dirac_qca.cli import PRESETS
from dirac_qca.dispersion import branch_spinors, derivatives
from dirac_qca.wavepacket import wrap_momentum

from conftest import FIG4_COEFFS, FIG4_K0, overlap, traced_peak

EPS = np.finfo(float).eps


def evolve_with_phase(spec, phase, s, t):
    """Multiply mode j by exp(-i s phase[j] t), leaving spinor parts untouched."""
    return ModeSpectrum(spec.modes * np.exp(-1j * s * phase * t)[:, None])


def branch_spectrum(L, m, s, seed):
    """A random unit spectrum whose every mode is a branch-s eigenvector, as ``fidelity`` requires."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal(L) + 1j * rng.standard_normal(L)
    modes = g[:, None] * branch_spinors(ModeSpectrum(np.zeros((L, 2))).ks, m, s)
    return ModeSpectrum(modes / np.linalg.norm(modes))


def phase_remainders(spectrum, m, k0):
    """delta_k = omega(k) - (omega0 + v K + D K^2 / 2), formed over the whole ring at once."""
    v, d, _ = derivatives(k0, m)
    K = wrap_momentum(spectrum.ks - k0)
    return omega(spectrum.ks, m) - (omega(k0, m) + v * K + 0.5 * d * K * K)


def preset_state(name, s=+1, **changes):
    """(spec, params, spectrum) of a ``compare`` preset packet on branch s, with ``changes`` to its values."""
    values = {**PRESETS["compare"][name], **changes}
    coeffs = values.get("coeffs", WavepacketSpec.hermite_coeffs)
    spec = WavepacketSpec(k0=values["k0"], sigma_hat=values["sigma_hat"], x0=values["x0"], s=s, hermite_coeffs=coeffs)
    params = AutomatonParams(values["m"])
    return spec, params, build(spec, params, values["L"])


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
        times = (1.0, 17.0, 400.0)
        for t in times:
            exact = evolve_momentum(spectrum, params, t)
            approx = schrodinger_evolve(spectrum, params, spec.k0, spec.s, t)
            assert overlap(exact, approx) >= 1.0 - 1e-10
        assert min(fidelity(spectrum, params, spec.k0, times)) >= 1.0 - 1e-10

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
        assert overlap(exact, taylor) > overlap(exact, printed)
        assert overlap(exact, taylor) >= 0.999
        assert fidelity(spectrum, params, spec.k0, [200.0])[0] >= 0.999


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
        spectrum = branch_spectrum(L, 0.3, +1, seed=1)
        out, peak = traced_peak(lambda: schrodinger_evolve(spectrum, AutomatonParams(0.3), 1.0, +1, 10.0))
        assert peak - out.modes.nbytes <= 8 * dispersion.MODE_BLOCK * 8 + 4096


class TestFidelity:
    def test_identical_states(self, fig4_state):
        spec, params, _, spectrum = fig4_state
        value = fidelity(spectrum, params, spec.k0, [0.0])[0]
        assert value == pytest.approx(1.0, abs=1e-14)
        assert value == pytest.approx(overlap(spectrum, spectrum), abs=2 * EPS)

    def test_orthogonal_single_modes(self):
        # two modes of equal weight whose remainders differ by pi/t: the exact and approximate states are orthogonal
        m, k0 = 0.6, 0.3 * np.pi
        modes = np.zeros((8, 2), dtype=complex)
        ks = ModeSpectrum(modes).ks
        modes[1:3] = branch_spinors(ks[1:3], m, +1) / np.sqrt(2.0)
        spectrum, params = ModeSpectrum(modes), AutomatonParams(m)
        delta = phase_remainders(spectrum, m, k0)
        t = np.pi / abs(delta[2] - delta[1])
        assert fidelity(spectrum, params, k0, [t])[0] <= 4 * EPS
        # the two states' phases, omega t and phase t ~ 170, are each rounded to about t eps
        assert overlap(evolve_momentum(spectrum, params, t), schrodinger_evolve(spectrum, params, k0, +1, t)) <= t * EPS

    @pytest.mark.parametrize("L", [2, 3, 33, 67, 1000, 16384, 20000, 49152, 65536, 100000, 131072, 200003])
    def test_bits_of_the_whole_array_sum(self, L):
        # the oracle forms every term over the whole ring and sums them at once; the blocked terms are summed at once
        times = [0.0, 123.4, 1e4]
        spectrum = branch_spectrum(L, 0.3, -1, seed=L)
        delta = phase_remainders(spectrum, 0.3, 1.0)
        expected = [float(abs(np.sum(spectrum.mode_weights() * np.exp(-1j * (t * delta))))) for t in times]
        assert fidelity(spectrum, AutomatonParams(0.3), 1.0, times) == expected

    def test_block_size_does_not_change_the_bits(self, monkeypatch):
        spectrum = branch_spectrum(100003, 0.3, -1, seed=5)
        results = []
        for block in (13, 1000, 16384, 65536, 131072):
            monkeypatch.setattr(dispersion, "MODE_BLOCK", block)
            results.append(tuple(fidelity(spectrum, AutomatonParams(0.3), -0.4 * np.pi, [0.0, 123.4, 1e4])))
        assert len(set(results)) == 1

    def test_memory_is_four_arrays_and_one_block(self):
        # the weights, the remainders and the L terms (4 arrays of L doubles), and one block's phase pieces, at most 6
        # arrays of MODE_BLOCK doubles, plus 8 KiB for the objects around them: 2.76 MiB at L = 65536, measured
        # 2.75, whatever the number of times; the two evolved (L, 2) states it replaces took 4 MiB before their sum
        L = 65536
        spectrum = branch_spectrum(L, 0.3, +1, seed=2)
        _, peak = traced_peak(lambda: fidelity(spectrum, AutomatonParams(0.3), 1.0, [0.0, 10.0, 1000.0]))
        assert peak <= 4 * L * 8 + 6 * dispersion.MODE_BLOCK * 8 + 8192

    @given(t=st.floats(0.0, 1000.0))
    @settings(max_examples=30, deadline=None)
    def test_range(self, t):
        spec, params, spectrum = gaussian_state(m=0.6, k0=0.3 * np.pi)
        value = fidelity(spectrum, params, spec.k0, [t])[0]
        assert 0.0 <= value <= 1.0 + 1e-12


# the phase sum against the two evolved states' overlap: (spec, params, spectrum) builder and times
AGREEMENT_CASES = {
    "fig4": (lambda: preset_state("fig4"), [0.0, 100.0, 200.0, 600.0, 1e4]),
    "fig4-minus": (lambda: preset_state("fig4", s=-1), [0.0, 100.0, 200.0, 600.0, 1e4]),
    "fig2-smooth": (lambda: preset_state("fig2-smooth"), [0.0, 100.0, 200.0, 600.0, 1e4]),
    "fig2-smooth-minus": (lambda: preset_state("fig2-smooth", s=-1), [0.0, 100.0, 200.0, 600.0, 1e4]),
    "massless": (lambda: preset_state("fig4", m=0.0), [0.0, 100.0, 200.0, 600.0, 1e4]),
    "65536-sites": (lambda: preset_state("fig4", L=65536, x0=30000.0, k0=1.0, coeffs=(1.0,)), [1000.0, 2000.0, 4000.0]),
}


class TestAgreement:
    @pytest.mark.parametrize("case", sorted(AGREEMENT_CASES))
    def test_phase_sum_is_the_overlap_of_the_evolved_states(self, case):
        # within (4 + t/32) eps: each side rounds its phases at t times their size.  Measured: at most 2 eps on fig4
        # up to t = 600, 12 on fig2-smooth at 600, 195 and 210 at 1e4 (where both forms are about 1e-13 from a 60-digit
        # mpmath sum), 3.5 on the 65536-site packet at 4000
        build_case, times = AGREEMENT_CASES[case]
        spec, params, spectrum = build_case()
        values = fidelity(spectrum, params, spec.k0, times)
        for t, value in zip(times, values):
            exact = evolve_momentum(spectrum, params, t)
            approx = schrodinger_evolve(spectrum, params, spec.k0, spec.s, t)
            assert abs(value - overlap(exact, approx)) <= (4.0 + t / 32.0) * EPS, t


class TestQuadraticExactness:
    def test_quadratic_dispersion_gives_unit_fidelity(self, monkeypatch):
        # replace the true dispersion by its second-order Taylor polynomial:
        # the drift-diffusion evolver then matches it exactly for all t
        k0 = 0.3 * np.pi
        _, params, spectrum = gaussian_state(m=0.6, k0=k0, L=512)
        v, d, _ = derivatives(k0, params.m)
        w0 = omega(k0, params.m)

        def taylor(k, m):
            K = wrap_momentum(np.asarray(k) - k0)
            return w0 + v * K + 0.5 * d * K * K

        times = (10.0, 100.0, 1000.0)
        for t in times:
            reference = evolve_with_phase(spectrum, taylor(spectrum.ks, params.m), +1, t)
            approx = schrodinger_evolve(spectrum, params, k0, +1, t)
            assert overlap(reference, approx) >= 1.0 - 1e-10
        monkeypatch.setattr(approx_module, "omega", taylor)
        assert min(fidelity(spectrum, params, k0, times)) >= 1.0 - 1e-10


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
        times = (100.0, 200.0, 600.0)
        bounds = [accuracy_bound(spectrum, params, spec.k0, sigma, t).bound for t in times]
        for value, bound in zip(fidelity(spectrum, params, spec.k0, times), bounds):
            assert value >= bound
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
                times = (10.0, 100.0, 600.0)
                for t, value in zip(times, fidelity(spectrum, params, k0, times)):
                    assert value >= accuracy_bound(spectrum, params, k0, sigma, t).bound - 1e-9

    def test_rejects_negative_t(self, fig4_state):
        spec, params, _, spectrum = fig4_state
        with pytest.raises(ValueError):
            accuracy_bound(spectrum, params, spec.k0, 0.1, -1.0)
