import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dirac_qca import (
    AutomatonParams,
    automaton,
    dispersion,
    ModeSpectrum,
    SpinorField,
    evolve_momentum,
    evolve_position,
    inverse_transform,
    localized,
    symmetry_check,
    transform,
    unitary_k,
)
from dirac_qca.automaton import _momenta

from conftest import traced_peak

# frozen oracle: 2 * 0.8 * cos(3*pi/10) to 20 digits via mpmath
TRACE_AT_FIG4_POINT = 0.94045640366795700667


def roll_steps(field, params, t):
    """Oracle: t steps of the update written with np.roll, one new array per term."""
    n, m = params.n, params.m
    psi_r, psi_l = field.sites[:, 0].copy(), field.sites[:, 1].copy()
    for _ in range(t):
        psi_r, psi_l = (
            n * np.roll(psi_r, -1) - 1j * m * psi_l,
            -1j * m * psi_r + n * np.roll(psi_l, 1),
        )
    return np.stack([psi_r, psi_l], axis=1)


def fig2_state():
    return localized(30, np.array([1.0, 1.0]) / math.sqrt(2.0), 128), AutomatonParams(0.92)


def random_field(L, seed=0):
    rng = np.random.default_rng(seed)
    sites = rng.standard_normal((L, 2)) + 1j * rng.standard_normal((L, 2))
    sites /= np.linalg.norm(sites)
    return SpinorField(sites)


class TestParams:
    def test_mass_range(self):
        with pytest.raises(ValueError):
            AutomatonParams(-0.1)
        with pytest.raises(ValueError):
            AutomatonParams(1.0000001)

    def test_n_is_derived_and_consistent(self):
        for m in np.linspace(0.0, 1.0, 101):
            p = AutomatonParams(float(m))
            assert abs(p.n ** 2 + p.m ** 2 - 1.0) <= math.ulp(1.0)


class TestUnitaryK:
    def test_massless_at_rest_is_identity(self):
        u = unitary_k(AutomatonParams(0.0), 0.0)
        assert np.array_equal(u, np.eye(2))

    def test_planck_mass_kills_shift(self):
        expected = np.array([[0.0, -1j], [-1j, 0.0]])
        for k in (0.0, 0.7, -2.0):
            assert np.array_equal(unitary_k(AutomatonParams(1.0), k), expected)

    def test_trace_at_reference_point(self):
        u = unitary_k(AutomatonParams(0.6), 3 * np.pi / 10)
        assert np.trace(u).real == pytest.approx(TRACE_AT_FIG4_POINT, abs=1e-15)
        assert abs(np.trace(u).imag) < 1e-16

    @pytest.mark.parametrize("m", [0.0, 0.3, 0.6, 0.92, 1.0])
    def test_unitarity_and_det(self, m):
        p = AutomatonParams(m)
        for k in np.linspace(-np.pi, np.pi, 33):
            u = unitary_k(p, k)
            assert np.max(np.abs(u.conj().T @ u - np.eye(2))) <= 1e-14
            assert abs(np.linalg.det(u) - 1.0) <= 1e-14

    def test_rejects_nonfinite_k(self):
        with pytest.raises(ValueError):
            unitary_k(AutomatonParams(0.5), math.inf)


class TestStep:
    def test_massless_pure_shift(self):
        L, x0 = 16, 5
        sites = np.zeros((L, 2), dtype=complex)
        sites[x0, 0] = 1.0
        out = evolve_position(SpinorField(sites), AutomatonParams(0.0), 1)
        expected = np.zeros((L, 2), dtype=complex)
        expected[(x0 - 1) % L, 0] = 1.0
        assert np.array_equal(out.sites, expected)

    def test_planck_mass_mixes_sitewise(self):
        field = random_field(12, seed=3)
        out = evolve_position(field, AutomatonParams(1.0), 1)
        assert np.allclose(out.sites[:, 0], -1j * field.sites[:, 1], atol=0, rtol=0)
        assert np.allclose(out.sites[:, 1], -1j * field.sites[:, 0], atol=0, rtol=0)

    def test_light_cone_after_ten_steps(self):
        # delta at site 30, spinor (1,1)/sqrt(2): support stays within [20, 40]
        L = 128
        sites = np.zeros((L, 2), dtype=complex)
        sites[30] = 1.0 / math.sqrt(2.0)
        state = evolve_position(SpinorField(sites), AutomatonParams(0.92), 10)
        outside = np.ones(L, dtype=bool)
        outside[20:41] = False
        assert np.all(state.sites[outside] == 0.0)


class TestEvolvePosition:
    def test_t0_is_identity(self):
        field = random_field(32, seed=1)
        out = evolve_position(field, AutomatonParams(0.6), 0)
        assert np.array_equal(out.sites, field.sites)

    def test_rejects_negative_or_fractional_t(self):
        field = random_field(8)
        with pytest.raises(ValueError):
            evolve_position(field, AutomatonParams(0.5), -1)
        with pytest.raises(ValueError):
            evolve_position(field, AutomatonParams(0.5), 2.5)

    def test_norm_preservation_long_run(self):
        field = random_field(64, seed=11)
        t = 10_000
        out = evolve_position(field, AutomatonParams(0.73), t)
        assert abs(out.norm() - field.norm()) <= 1e-12 * t

    @given(
        m=st.floats(0.0, 1.0),
        t=st.integers(0, 50),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=40, deadline=None)
    def test_norm_preserved_property(self, m, t, seed):
        field = random_field(24, seed=seed)
        out = evolve_position(field, AutomatonParams(m), t)
        assert abs(out.norm() - field.norm()) <= 1e-12 * max(t, 1)

    @given(m=st.floats(0.0, 1.0), t=st.integers(0, 12))
    @settings(max_examples=40, deadline=None)
    def test_strict_causality(self, m, t):
        L = 48
        sites = np.zeros((L, 2), dtype=complex)
        sites[20] = [0.6, 0.8j]
        out = evolve_position(SpinorField(sites), AutomatonParams(m), t)
        allowed = {(20 + d) % L for d in range(-t, t + 1)}
        outside = np.array([x not in allowed for x in range(L)])
        assert np.all(out.sites[outside] == 0.0)


class TestStencil:
    @pytest.mark.parametrize("t", [1, 60, 2500])
    def test_matches_roll_oracle_bit_for_bit(self, t):
        field, params = fig2_state()
        assert np.array_equal(evolve_position(field, params, t).sites, roll_steps(field, params, t))

    @pytest.mark.parametrize("m", [0.0, 0.37, 1.0])
    def test_matches_roll_oracle_on_random_fields(self, m):
        for L in (2, 3, 33):
            field = random_field(L, seed=L)
            expected = roll_steps(field, AutomatonParams(m), 17)
            # tobytes also compares the signs of zeros
            assert evolve_position(field, AutomatonParams(m), 17).sites.tobytes() == expected.tobytes()

    def test_stepping_on_equals_restarting(self):
        field, params = fig2_state()
        state = field
        for _ in range(4):
            state = evolve_position(state, params, 2500)
        assert np.array_equal(state.sites, evolve_position(field, params, 10_000).sites)

    @pytest.mark.parametrize("m", [0.0, 0.6, 1.0])
    def test_plane_waves_step_by_the_symbol(self, m):
        # one step of e^{ikx} g is e^{ikx} U(k) g on every DFT mode: the stencil's
        # position rule and its Fourier symbol agree without the closed form
        params, L = AutomatonParams(m), 16
        g = np.array([0.6 - 0.48j, 0.64j])
        x = np.arange(L)
        for j, k in enumerate(2.0 * np.pi * np.fft.fftfreq(L)):
            wave = np.exp(2j * np.pi * (j * x % L) / L)[:, None]  # phases reduced mod 2 pi first
            stepped = evolve_position(SpinorField(wave * g), params, 1).sites
            assert np.max(np.abs(stepped - wave * (unitary_k(params, k) @ g))) <= 1e-15


def scaled_stencil(r_scale, l_scale):
    """``automaton._stencil`` with R and L multiplied by the given factors."""
    exact = automaton._stencil

    def stencil(params):
        R, L, M = exact(params)
        return r_scale * R, l_scale * L, M

    return stencil


class TestEvolveMomentum:
    def test_t0_identity(self):
        spec = transform(random_field(32, seed=5))
        out = evolve_momentum(spec, AutomatonParams(0.6), 0.0)
        assert np.max(np.abs(out.modes - spec.modes)) <= 1e-15

    def test_t1_matches_per_mode_unitary(self):
        spec = transform(random_field(16, seed=6))
        p = AutomatonParams(0.35)
        out = evolve_momentum(spec, p, 1.0)
        for j, k in enumerate(spec.ks):
            expected = unitary_k(p, k) @ spec.modes[j]
            assert np.max(np.abs(out.modes[j] - expected)) <= 1e-12

    def test_fractional_power_semigroup(self):
        # U^{7.5} applied twice equals U^{15} built by repeated multiplication;
        # the L = 4 ring carries k = pi/2 exactly
        p = AutomatonParams(0.6)
        L = 4
        basis_r = np.zeros((L, 2), dtype=complex)
        basis_r[:, 0] = 1.0
        basis_l = np.zeros((L, 2), dtype=complex)
        basis_l[:, 1] = 1.0
        half_r = evolve_momentum(evolve_momentum(ModeSpectrum(basis_r), p, 7.5), p, 7.5)
        half_l = evolve_momentum(evolve_momentum(ModeSpectrum(basis_l), p, 7.5), p, 7.5)
        j = int(np.argmin(np.abs(ModeSpectrum(basis_r).ks - np.pi / 2)))
        u15 = np.linalg.matrix_power(unitary_k(p, np.pi / 2), 15)
        got = np.stack([half_r.modes[j], half_l.modes[j]], axis=1)
        assert np.max(np.abs(got - u15)) <= 1e-12

    def test_integer_power_matches_repeated_multiplication(self):
        p = AutomatonParams(0.81)
        spec = transform(random_field(8, seed=7))
        out = evolve_momentum(spec, p, 5.0)
        for j, k in enumerate(spec.ks):
            u = np.linalg.matrix_power(unitary_k(p, k), 5)
            assert np.max(np.abs(out.modes[j] - u @ spec.modes[j])) <= 1e-12

    def test_rejects_negative_t(self):
        spec = transform(random_field(8))
        with pytest.raises(ValueError):
            evolve_momentum(spec, AutomatonParams(0.5), -0.5)

    def test_memory_beyond_the_output(self):
        # one block's pieces, its momenta too, each dropped after its last read: at most 12 arrays of MODE_BLOCK
        # doubles, plus 4 KiB for the objects around them; 3 arrays of L doubles at L = 65536, where the whole-ring
        # form held 11 and the form with whole-ring momenta 4
        L = 65536
        spec = transform(random_field(L, seed=8))
        out, peak = traced_peak(lambda: evolve_momentum(spec, AutomatonParams(0.3), 10.0))
        assert peak - out.modes.nbytes <= 12 * dispersion.MODE_BLOCK * 8 + 4096

    @pytest.mark.parametrize("m", [0.0, 0.3, 1.0])
    def test_block_size_does_not_change_the_bits(self, monkeypatch, m):
        spec = transform(random_field(1000, seed=9))
        results = []
        for block in (1, 7, dispersion.MODE_BLOCK, spec.L):
            monkeypatch.setattr(dispersion, "MODE_BLOCK", block)
            results.append(evolve_momentum(spec, AutomatonParams(m), 123.4).modes.tobytes())
        assert len(set(results)) == 1


class TestTransform:
    def test_delta_gives_flat_spectrum(self):
        L = 64
        sites = np.zeros((L, 2), dtype=complex)
        sites[0, 0] = 1.0
        spec = transform(SpinorField(sites))
        assert np.allclose(np.abs(spec.modes[:, 0]), 1.0 / math.sqrt(L), atol=1e-14)

    def test_plane_wave_hits_single_mode(self):
        L = 64
        j = 5
        k = 2 * np.pi * j / L
        sites = np.zeros((L, 2), dtype=complex)
        sites[:, 0] = np.exp(1j * k * np.arange(L)) / math.sqrt(L)
        spec = transform(SpinorField(sites))
        weights = spec.mode_weights()
        assert weights[j] == pytest.approx(1.0, abs=1e-12)
        assert np.sum(weights) - weights[j] <= 1e-12

    def test_round_trip_and_parseval(self):
        field = random_field(96, seed=8)
        spec = transform(field)
        back = inverse_transform(spec)
        assert np.max(np.abs(back.sites - field.sites)) <= 1e-12
        assert abs(spec.norm() - field.norm()) <= 1e-12

    @pytest.mark.parametrize("L", [2, 3, 128, 1000, 1024, 65536])
    def test_bits_of_the_whole_array_transforms(self, L):
        # oracle: the transforms over axis 0 of the whole (L, 2) array; the spectrum going back is left as it was
        field = random_field(L, seed=L)
        spec = transform(field)
        assert spec.modes.tobytes() == (np.fft.fft(field.sites, axis=0) / math.sqrt(L)).tobytes()
        kept = spec.modes.copy()
        back = inverse_transform(spec)
        assert back.sites.tobytes() == (np.fft.ifft(kept, axis=0) * math.sqrt(L)).tobytes()
        assert spec.modes.tobytes() == kept.tobytes()

    @pytest.mark.parametrize("L", [2, 3, 128, 1000, 65536])
    def test_in_place_inverse_gives_the_same_bits(self, L):
        spec = transform(random_field(L, seed=L))
        expected = inverse_transform(spec).sites.tobytes()
        modes = spec.modes
        back = inverse_transform(spec, out=spec.modes)
        assert back.sites is modes
        assert back.sites.tobytes() == expected

    def test_inverse_out_may_only_be_the_spectrum_itself(self):
        spec = transform(random_field(16, seed=3))
        kept = spec.modes.copy()
        for out in (np.empty_like(spec.modes), spec.modes.copy(), spec.modes[:], spec.modes.view()):
            with pytest.raises(ValueError, match="out"):
                inverse_transform(spec, out=out)
        assert spec.modes.tobytes() == kept.tobytes()

    @pytest.mark.parametrize("L", [2, 3, 4, 5, 1000, 65537])
    def test_mode_momenta_are_the_fft_frequencies(self, L):
        # ks and any run of blocks of it: the bits of 2 pi fftfreq(L)
        expected = (2.0 * np.pi * np.fft.fftfreq(L)).tobytes()
        assert ModeSpectrum(np.zeros((L, 2))).ks.tobytes() == expected
        for step in (1, 7, L):
            blocks = [_momenta(L, slice(start, start + step)) for start in range(0, L, step)]
            assert np.concatenate(blocks).tobytes() == expected

    def test_mode_grid_is_first_zone(self):
        spec = transform(random_field(10))
        assert np.all(spec.ks >= -np.pi) and np.all(spec.ks < np.pi)


class TestBackendEquivalence:
    # (0.3, 4096, 1000) pins the far corner of the supported envelope
    @pytest.mark.parametrize(
        "m,L,t", [(0.0, 64, 37), (0.6, 64, 37), (1.0, 64, 37), (0.3, 4096, 1000)]
    )
    def test_position_vs_momentum(self, m, L, t):
        field = random_field(L, seed=13)
        p = AutomatonParams(m)
        via_position = evolve_position(field, p, t)
        via_momentum = inverse_transform(evolve_momentum(transform(field), p, float(t)))
        assert np.max(np.abs(via_position.sites - via_momentum.sites)) <= 1e-10


class TestSymmetry:
    @pytest.mark.parametrize("m", [0.0, 0.25, 0.6, 0.92, 1.0])
    def test_identities_hold_to_1e14(self, m):
        report = symmetry_check(AutomatonParams(m), np.linspace(-np.pi, np.pi, 64))
        assert report.max_residual <= 1e-14

    @pytest.mark.parametrize("m", [0.0, 0.3, 0.92])
    def test_residuals_equal_explicit_sigma_x_products(self, m):
        # oracle: sigma_x U(-k) sigma_x as matrix products, one sample at a time
        p, sx = AutomatonParams(m), np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        ks = np.linspace(-np.pi, np.pi, 257)
        parity = trev = 0.0
        for k in ks:
            uk, umk = unitary_k(p, k), unitary_k(p, -k)
            parity = max(parity, float(np.max(np.abs(sx @ umk @ sx - uk))))
            trev = max(trev, float(np.max(np.abs(sx @ np.conj(umk) @ sx - uk.conj().T))))
        report = symmetry_check(p, ks)
        assert (report.parity, report.time_reversal) == (parity, trev)

    def test_unitary_k_broadcasts_over_momenta(self):
        p, ks = AutomatonParams(0.6), np.linspace(-3.0, 3.0, 7).reshape(7, 1)
        stacked = unitary_k(p, ks)
        assert stacked.shape == (7, 1, 2, 2)
        assert all(np.array_equal(stacked[i, 0], unitary_k(p, k)) for i, k in enumerate(ks[:, 0]))
        with pytest.raises(ValueError):
            unitary_k(p, np.array([0.1, np.nan]))

    @pytest.mark.parametrize("m", [0.0, 0.6, 0.92])
    def test_equal_shift_scaling_breaks_unitarity_only(self, monkeypatch, m):
        # sigma_x swaps R and L, so scaling both keeps parity and time reversal
        # while R R^+ + L L^+ + M M^+ = 1 fails by (2 eps + eps^2) n^2
        monkeypatch.setattr(automaton, "_stencil", scaled_stencil(1.0 + 1e-6, 1.0 + 1e-6))
        params = AutomatonParams(m)
        report = symmetry_check(params, np.linspace(-np.pi, np.pi, 64))
        assert report.parity <= 1e-14 and report.time_reversal <= 1e-14
        assert report.unitarity == pytest.approx(2e-6 * params.n ** 2, rel=1e-5)
        assert report.max_residual == report.unitarity

    def test_scaling_r_alone_breaks_parity(self, monkeypatch):
        monkeypatch.setattr(automaton, "_stencil", scaled_stencil(1.0 + 1e-6, 1.0))
        params = AutomatonParams(0.6)
        report = symmetry_check(params, np.linspace(-np.pi, np.pi, 64))
        assert report.parity == pytest.approx(1e-6 * params.n, rel=1e-6)

    def test_massless_and_planck_mass_exact(self):
        for m in (0.0, 1.0):
            report = symmetry_check(AutomatonParams(m), np.linspace(-2.0, 2.0, 17))
            assert report.max_residual == 0.0

    def test_eigen_relation_against_spectral(self):
        from dirac_qca.dispersion import branch_spinors, omega

        for m in (0.3, 0.6, 0.92):
            p = AutomatonParams(m)
            for k in np.linspace(-3.0, 3.0, 17):
                u = unitary_k(p, k)
                for s in (+1, -1):
                    spinor = branch_spinors(k, m, s)[0]
                    residual = u @ spinor - np.exp(-1j * s * omega(k, m)) * spinor
                    assert np.max(np.abs(residual)) <= 1e-12
