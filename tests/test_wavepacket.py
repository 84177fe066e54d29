import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dirac_qca import (
    AutomatonParams,
    WavepacketSpec,
    bandwidth,
    build,
    dispersion,
    inverse_transform,
    localized,
    transform,
)
from dirac_qca.automaton import ModeSpectrum
from dirac_qca.dispersion import branch_spinors
from dirac_qca.wavepacket import position_moments, wrap_momentum

from conftest import FIG4_COEFFS, traced_peak


def momentum_spread(spectrum):
    """Circular mean and second-moment spread of the momentum distribution.

    The mean is taken on the circle to avoid wraparound bias; offsets are
    folded into [-pi, pi) before the second moment.
    """
    weights = spectrum.mode_weights()
    weights = weights / weights.sum()
    ks = spectrum.ks
    mean = math.atan2(float(np.sum(weights * np.sin(ks))), float(np.sum(weights * np.cos(ks))))
    return mean, float(np.sqrt(np.sum(weights * wrap_momentum(ks - mean) ** 2)))


class TestSpecValidation:
    def test_rejects_bad_width_and_momentum(self):
        with pytest.raises(ValueError):
            WavepacketSpec(k0=0.3, sigma_hat=0.0, x0=0.0)
        with pytest.raises(ValueError):
            WavepacketSpec(k0=np.pi, sigma_hat=3.0, x0=0.0)

    def test_hermite_needs_normalized_coefficients(self):
        with pytest.raises(ValueError):
            WavepacketSpec(k0=0.3, sigma_hat=5.0, x0=0.0, hermite_coeffs=(0.5, 0.5))
        # the reference coefficient triple is exactly normalized
        WavepacketSpec(k0=0.3, sigma_hat=5.0, x0=0.0, hermite_coeffs=FIG4_COEFFS)

    @pytest.mark.parametrize("coeffs", [(1j,), (math.nan,), (0.6, math.nan)], ids=["complex", "nan", "nan-tail"])
    def test_hermite_needs_real_finite_coefficients(self, coeffs):
        # a complex one failed in build with numpy's UFuncTypeError, a nan one as an underflowing envelope
        with pytest.raises(ValueError, match="real and finite"):
            WavepacketSpec(k0=0.3, sigma_hat=5.0, x0=0.0, hermite_coeffs=coeffs)

    def test_support_precondition(self):
        spec = WavepacketSpec(k0=0.3, sigma_hat=30.0, x0=64.0)
        with pytest.raises(ValueError):
            build(spec, AutomatonParams(0.5), 128)


class TestLocalized:
    def test_reference_localized_state(self):
        state = localized(30, np.array([1.0, 1.0]) / math.sqrt(2), 128)
        assert state.norm() == pytest.approx(1.0, abs=1e-15)
        assert np.all(state.sites[np.arange(128) != 30] == 0.0)

    def test_basis_state_and_flat_spectrum(self):
        state = localized(0, (1.0, 0.0), 4)
        spec = transform(state)
        assert np.allclose(np.abs(spec.modes[:, 0]), 0.5, atol=1e-15)

    def test_rejects_unnormalized_spinor(self):
        with pytest.raises(ValueError):
            localized(1, (1.0, 1.0), 8)
        with pytest.raises(ValueError):
            localized(9, (1.0, 0.0), 8)
        for x0 in (3.5, np.float64(7.9)):  # int() would truncate these to sites 3 and 7
            with pytest.raises(ValueError, match="integer"):
                localized(x0, (1.0, 0.0), 8)


class TestBuild:
    def test_returns_the_momentum_picture(self):
        spec = WavepacketSpec(k0=0.3 * np.pi, sigma_hat=3.0, x0=30.0)
        assert isinstance(build(spec, AutomatonParams(0.92), 128), ModeSpectrum)

    def test_fig2_bottom_panel_state(self):
        spec = WavepacketSpec(k0=0.3 * np.pi, sigma_hat=3.0, x0=30.0)
        spectrum = build(spec, AutomatonParams(0.92), 128)
        field = inverse_transform(spectrum)
        assert field.norm() == pytest.approx(1.0, abs=1e-12)
        mean, _ = position_moments(field.density())
        assert mean == pytest.approx(30.0, abs=0.2)
        k_mean, _ = momentum_spread(spectrum)
        assert k_mean == pytest.approx(0.3 * np.pi, abs=0.02)

    def test_fig4_state_norm(self, fig4_state):
        _, _, field, spectrum = fig4_state
        assert field.norm() == pytest.approx(1.0, abs=1e-12)
        assert spectrum.norm() == pytest.approx(1.0, abs=1e-12)

    def test_wide_packet_concentrates_on_few_modes(self):
        L = 128
        spec = WavepacketSpec(k0=0.3 * np.pi, sigma_hat=L / 8, x0=64.0)
        spectrum = build(spec, AutomatonParams(0.6), L)
        weights = spectrum.mode_weights()
        heavy = np.argsort(weights)[::-1][:5]
        assert weights[heavy].sum() >= 0.999
        # and those five really are the modes nearest k0
        offsets = np.abs(wrap_momentum(spectrum.ks[heavy] - spec.k0))
        assert np.all(offsets <= 3.0 * 2.0 * np.pi / L)

    def test_modes_lie_on_requested_branch(self, fig4_state):
        # spinor part proportional to the branch eigenvector, mode by mode
        spec, params, _, spectrum = fig4_state
        spinors = branch_spinors(spectrum.ks, params.m, spec.s)
        weights = spectrum.mode_weights()
        cross = spectrum.modes[:, 0] * spinors[:, 1] - spectrum.modes[:, 1] * spinors[:, 0]
        mask = weights > 1e-20
        assert np.max(np.abs(cross[mask])) <= 1e-14

    @pytest.mark.parametrize("sigma_hat", [10.0, 20.0, 40.0])
    def test_gaussian_momentum_spread(self, sigma_hat):
        spec = WavepacketSpec(k0=0.3 * np.pi, sigma_hat=sigma_hat, x0=512.0)
        spectrum = build(spec, AutomatonParams(0.6), 1024)
        _, spread = momentum_spread(spectrum)
        assert spread == pytest.approx(1.0 / (2.0 * sigma_hat), rel=0.05)

    @given(
        k0=st.floats(-2.0, 2.0),
        sigma_hat=st.floats(4.0, 30.0),
        x0=st.floats(0.0, 255.0),
        m=st.floats(0.0, 1.0),
        s=st.sampled_from([+1, -1]),
    )
    @settings(max_examples=30, deadline=None)
    def test_built_states_are_normalized(self, k0, sigma_hat, x0, m, s):
        spec = WavepacketSpec(k0=k0, sigma_hat=sigma_hat, x0=x0, s=s)
        spectrum = build(spec, AutomatonParams(m), 256)
        field = inverse_transform(spectrum)
        assert field.norm() == pytest.approx(1.0, abs=1e-12)
        assert spectrum.norm() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("m", [0.0, 0.3, 1.0])
    def test_block_size_does_not_change_the_bits(self, monkeypatch, m):
        # a Hermite packet centred next to the wrap point, so its envelope is split between the first and last blocks
        spec = WavepacketSpec(k0=-0.7, sigma_hat=30.0, x0=995.5, hermite_coeffs=FIG4_COEFFS)
        results = []
        for block in (1, 7, dispersion.MODE_BLOCK, 1000):
            monkeypatch.setattr(dispersion, "MODE_BLOCK", block)
            results.append(build(spec, AutomatonParams(m), 1000).modes.tobytes())
        assert len(set(results)) == 1

    def test_memory_beyond_the_output(self):
        # the scalar's transform (L complex) and one block's pieces: at most 12 arrays of MODE_BLOCK doubles, plus
        # 4 KiB for the objects around them; 5 arrays of L doubles at L = 65536, where the whole-ring form held 12
        L = 65536
        spec = WavepacketSpec(k0=1.0, sigma_hat=20.0, x0=30000.0)
        out, peak = traced_peak(lambda: build(spec, AutomatonParams(0.6), L))
        assert peak - out.modes.nbytes <= L * 16 + 12 * dispersion.MODE_BLOCK * 8 + 4096


class TestBandwidth:
    def test_full_band_captures_everything(self, fig4_state):
        _, _, _, spectrum = fig4_state
        assert bandwidth(spectrum, 0.3 * np.pi, np.pi).epsilon <= 1e-12

    def test_vanishing_window_misses_everything(self):
        spec = WavepacketSpec(k0=0.3 * np.pi, sigma_hat=10.0, x0=128.0)
        spectrum = build(spec, AutomatonParams(0.6), 256)
        assert bandwidth(spectrum, 0.3 * np.pi, 1e-12).epsilon >= 0.9

    def test_gaussian_window_masses(self):
        # two readings of the "3 sigma leaves ~1e-3 outside" rule of thumb:
        # against the measured spread 1/(2 sigma_hat) it is ~2.7e-3, against
        # the nominal width 1/sigma_hat the leak is far below 1e-3
        spec = WavepacketSpec(k0=0.3 * np.pi, sigma_hat=20.0, x0=512.0)
        spectrum = build(spec, AutomatonParams(0.6), 1024)
        eps_std = bandwidth(spectrum, 0.3 * np.pi, 3.0 / (2 * 20.0)).epsilon
        assert 1e-3 <= eps_std <= 5e-3
        eps_nominal = bandwidth(spectrum, 0.3 * np.pi, 3.0 / 20.0).epsilon
        assert eps_nominal <= 1e-3

    def test_hermite_three_sigma_leak_is_milli_scale(self, fig4_state):
        spec, _, _, spectrum = fig4_state
        eps = bandwidth(spectrum, spec.k0, 3.0 / spec.sigma_hat).epsilon
        assert 5e-4 <= eps <= 5e-3

    def test_rejects_nonpositive_sigma(self, fig4_state):
        _, _, _, spectrum = fig4_state
        with pytest.raises(ValueError):
            bandwidth(spectrum, 0.0, 0.0)


class TestHelpers:
    def test_wrap_momentum_range(self):
        wrapped = wrap_momentum(np.linspace(-10, 10, 101))
        assert np.all(wrapped >= -np.pi) and np.all(wrapped < np.pi)
        assert wrap_momentum(0.3) == pytest.approx(0.3, rel=1e-15)

    def test_position_moments_of_delta(self):
        state = localized(5, (1.0, 0.0), 32)
        mean, var = position_moments(state.density())
        assert mean == pytest.approx(5.0, abs=1e-9)
        assert var == pytest.approx(0.0, abs=1e-12)
