import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings, strategies as st

from dirac_qca import (
    AutomatonParams,
    DiscriminationInput,
    ModeSpectrum,
    evolve_momentum,
    extremal_alpha_beta,
    mu,
    omega,
    pe_lower_bound,
    t_min_approx,
    t_min_exact,
    unitary_k,
    validate_bound_montecarlo,
)
from dirac_qca import discrimination
from dirac_qca.discrimination import MC_BLOCK, _pairwise_trace_distance
from dirac_qca.dispersion import dirac_axis, lattice_axis, su2_power
from dirac_qca.errors import BoundViolationError, MonotonicityError, NumericalInvariantError

from conftest import alpha_beta, dirac_hamiltonian_k, hamiltonian_k

# frozen mpmath references (60-digit arithmetic, evaluated at the exact
# float64 representations of the inputs; ALPHA_PROTON at 250 digits)
ALPHA_05_06 = -0.011476696887052928
BETA_05_06 = 0.007923564932435428
ALPHA_08_03 = 0.010583607770434625
BETA_08_03 = 0.0014788196457598798
ALPHA_PROTON = 1.6666666666666665e-47  # k = 1e-8, m = 1e-19


def unitary_pair_t(k, m, t):
    """[lattice, continuum] finite-time unitaries of one mode, from the closed-form SU(2) powers."""
    pair = [su2_power(*axis(k, m), t) for axis in (lattice_axis, dirac_axis)]
    return [np.array([[c + 1j * vs, -1j * us], [-1j * us, c - 1j * vs]]) for c, vs, us in pair]


class TestUnitaryPair:
    def test_t0_both_identity(self):
        u, ud = unitary_pair_t(0.7, 0.4, 0.0)
        assert np.array_equal(u, np.eye(2))
        assert np.array_equal(ud, np.eye(2))

    def test_massless_evolutions_coincide(self):
        for k in (0.3, 1.5, -2.0):
            for t in (0.5, 3.0, 10.0):
                u, ud = unitary_pair_t(k, 0.0, t)
                assert np.max(np.abs(u - ud)) <= 1e-12

    def test_matches_repeated_multiplication(self):
        u, _ = unitary_pair_t(0.3, 0.6, 5.0)
        u5 = np.linalg.matrix_power(unitary_k(AutomatonParams(0.6), 0.3), 5)
        assert np.max(np.abs(u - u5)) <= 1e-12

    def test_both_unitary(self):
        for k in np.linspace(-3.0, 3.0, 13):
            for m in (0.0, 0.3, 0.9):
                for t in (0.7, 4.0):
                    for matrix in unitary_pair_t(k, m, t):
                        assert np.max(np.abs(matrix.conj().T @ matrix - np.eye(2))) <= 1e-12

    def test_origin_is_identity_blocks(self):
        u, ud = unitary_pair_t(0.0, 0.0, 3.0)
        assert np.array_equal(ud, np.eye(2))
        assert np.max(np.abs(u - np.eye(2))) <= 1e-15

    def test_agrees_with_spectral_power_at_fractional_time(self):
        # same matrix as the momentum-space evolver's per-mode power
        from dirac_qca.automaton import AutomatonParams as AP, ModeSpectrum as MS
        from dirac_qca import evolve_momentum

        L, t = 4, 2.7  # the L = 4 ring carries k = pi/2 exactly
        p = AP(0.6)
        basis_r = np.zeros((L, 2), dtype=complex)
        basis_r[:, 0] = 1.0
        basis_l = np.zeros((L, 2), dtype=complex)
        basis_l[:, 1] = 1.0
        j = int(np.argmin(np.abs(MS(basis_r).ks - np.pi / 2)))
        spectral_power = np.stack(
            [evolve_momentum(MS(basis_r), p, t).modes[j], evolve_momentum(MS(basis_l), p, t).modes[j]],
            axis=1,
        )
        u, _ = unitary_pair_t(np.pi / 2, 0.6, t)
        assert np.max(np.abs(u - spectral_power)) <= 1e-12

    @pytest.mark.parametrize("m", [0.0, 0.3, 0.9, 1.0])
    @pytest.mark.parametrize("t", [0.5, 2.7, 37.3])
    def test_powers_match_matrix_exponential(self, m, t):
        # independent oracle: scipy's generic expm of each generator; the
        # L = 16 ring carries k = 0 and k = -pi
        L = 16
        basis = [np.zeros((L, 2), dtype=complex) for _ in range(2)]
        basis[0][:, 0] = 1.0
        basis[1][:, 1] = 1.0
        columns = [evolve_momentum(ModeSpectrum(b), AutomatonParams(m), t).modes for b in basis]
        ks = ModeSpectrum(basis[0]).ks
        assert 0.0 in ks and -np.pi in ks
        for j, k in enumerate(ks):
            power = np.stack([columns[0][j], columns[1][j]], axis=1)
            assert np.max(np.abs(power - scipy.linalg.expm(-1j * t * hamiltonian_k(k, m)))) <= 1e-12
            continuum = scipy.linalg.expm(-1j * t * dirac_hamiltonian_k(k, m))
            assert np.max(np.abs(unitary_pair_t(k, m, t)[1] - continuum)) <= 1e-12


class TestMu:
    def test_zero_time(self):
        assert mu(0.8, 0.5, 0.0) == 0.0

    def test_massless_is_zero(self):
        for k in np.linspace(-3.0, 3.0, 11):
            assert mu(k, 0.0, 7.3) <= 1e-12  # angles of identical rotations

    @given(k=st.floats(-3.0, 3.0), t=st.floats(0.0, 10.0))
    @settings(max_examples=100, deadline=None)
    def test_even_in_k(self, k, t):
        assert mu(k, 0.6, t) == mu(-k, 0.6, t)

    def test_angle_inequality_at_reference_point(self):
        k, m, t = 0.5, 0.6, 3.0
        a, b = alpha_beta(k, m)
        assert math.cos(mu(k, m, t)) >= math.cos(a * t) - b - 1e-12

    def test_trace_identity(self):
        # cos(mu) = (1 - b/2) cos(alpha t) + (b/2) cos((w + w_D) t)
        k, m, t = 0.7, 0.45, 3.3
        a, b = alpha_beta(k, m)
        gamma = omega(k, m) + math.hypot(k, m)
        lhs = math.cos(mu(k, m, t))
        rhs = (1 - b / 2) * math.cos(a * t) + (b / 2) * math.cos(gamma * t)
        assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_clamp_guard(self):
        with pytest.raises(ValueError):
            mu(0.5, 0.5, -1.0)

    @pytest.mark.parametrize("m", [0.0, 0.01, 0.3, 0.9, 1.0])
    def test_matches_the_su2_product_at_moderate_t(self, m):
        # the oracle: arccos of the half-trace of V, formed from the two SU(2) powers themselves
        for k in np.linspace(-3.0, 3.0, 25):
            for t in (0.3, 2.7, 11.0):
                u, ud = unitary_pair_t(k, m, t)
                half_trace = (np.trace(ud @ u.conj().T) / 2.0).real
                assert mu(k, m, t) == pytest.approx(math.acos(min(1.0, half_trace)), abs=1e-7)

    def test_shapes_and_broadcasting(self):
        ts = np.linspace(0.0, 10.0, 16)
        assert isinstance(mu(0.3, 0.2, 4.0), float)
        assert mu(0.3, 0.2, ts).shape == (16,)
        assert np.array_equal(mu(0.3, 0.2, ts), [mu(0.3, 0.2, t) for t in ts])
        ks = np.linspace(-1.0, 1.0, 12).reshape(3, 4)
        assert mu(ks, 0.2, 4.0).shape == (3, 4)
        assert np.array_equal(mu(ks, 0.2, 4.0), mu(ks.ravel(), 0.2, 4.0).reshape(3, 4))
        assert mu(ks[:, :, None], 0.2, ts).shape == (3, 4, 16)
        assert mu(np.array([]), 0.2, 1.0).shape == (0,)

    @pytest.mark.parametrize("m", [0.01, 0.6, 1e-10])
    def test_block_size_does_not_change_the_bits(self, monkeypatch, m):
        rng = np.random.default_rng(26)
        ks = np.concatenate([rng.uniform(-3.1, 3.1, 500), np.exp(rng.uniform(np.log(1e-12), 0.0, 200))])
        ts = rng.uniform(0.0, 50.0, ks.size)
        results = []
        for block in (1, 7, discrimination.MU_BLOCK, ks.size):
            monkeypatch.setattr(discrimination, "MU_BLOCK", block)
            results.append((mu(ks, m, 10.0).tobytes(), mu(ks, m, ts).tobytes()))
        assert len(set(results)) == 1

    def test_leaves_the_callers_momenta_alone(self):
        ks = np.linspace(-3.1, 3.1, 101)
        kept = ks.copy()
        mu(ks, 0.3, 7.0)
        discrimination._alpha_beta(ks, 0.3)
        assert ks.tobytes() == kept.tobytes()

    def test_overflowed_phase_is_not_weighed_at_zero_mass(self):
        # beta = 0 at m = 0, so sigma t/2 (inf past t ~ 5e307 near k = pi) is never formed: no 0 x nan
        assert mu(3.0, 0.0, 1e308) == 0.0
        assert np.array_equal(mu(np.linspace(-3.1, 3.1, 9), 0.0, 1e308), np.zeros(9))

    def test_overflowed_phase_stays_nan_at_positive_mass(self):
        with np.errstate(over="ignore", invalid="ignore"):
            assert math.isnan(mu(3.0, 0.5, 1e308))

    def test_peak_memory_is_a_few_blocks(self):
        # the kernel works in place: about 12 block-sized arrays at once (out of place it took 23)
        ks = np.random.default_rng(27).uniform(-3.1, 3.1, 200_000)
        mu(ks[:10], 0.01, 10.0)  # first-call allocations stay out of the peak
        tracemalloc.start()
        try:
            mu(ks, 0.01, 10.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= ks.nbytes + 16 * discrimination.MU_BLOCK * ks.itemsize

    @given(
        k=st.floats(-3.1, 3.1),
        m=st.floats(0.0, 1.0),
        t=st.one_of(st.floats(0.0, 100.0), st.floats(0.0, 1e40)),
    )
    @settings(max_examples=300, deadline=None)
    def test_never_above_the_per_particle_cap(self, k, m, t):
        # (1 - beta/2) x <= x and (beta/2) y <= beta/2 survive rounding, so however sigma t rounds the
        # sampled angle stays under 2 asin(sqrt(sin^2(|alpha| t/2) + beta/2)), with no slack
        alpha, beta, _ = discrimination._alpha_beta(np.array([k]), m)
        radicand = np.sin(np.abs(alpha) * (0.5 * t)) ** 2 + 0.5 * beta  # nan where sin omega underflows
        assume(abs(alpha[0]) * t <= math.pi and radicand[0] <= 1.0)  # past 1 the cap is pi, and says nothing
        assert mu(np.array([k]), m, t)[0] <= 2.0 * np.arcsin(np.sqrt(radicand[0]))


class TestAlphaBeta:
    def test_massless_line(self):
        for k in (0.2, 1.0, 2.5):
            assert alpha_beta(k, 0.0) == (0.0, 0.0)

    def test_rest_point(self):
        for m in (0.2, 0.6, 0.9):
            a, b = alpha_beta(0.0, m)
            assert a == pytest.approx(m - math.asin(m), rel=1e-12)
            assert b == 0.0

    def test_frozen_reference_values(self):
        a, b = alpha_beta(0.5, 0.6)
        assert a == pytest.approx(ALPHA_05_06, rel=1e-12)
        assert b == pytest.approx(BETA_05_06, rel=1e-12)
        a, b = alpha_beta(0.8, 0.3)
        assert a == pytest.approx(ALPHA_08_03, rel=1e-12)
        assert b == pytest.approx(BETA_08_03, rel=1e-12)

    def test_alpha_is_negative_at_reference_point(self):
        # the lattice eigenphase exceeds the continuum one here: alpha < 0
        # (|alpha| is therefore NOT monotone from k = 0; only signed alpha is)
        a, _ = alpha_beta(0.5, 0.6)
        assert a < 0.0

    def test_series_regime_against_mpmath(self):
        a, b = alpha_beta(1e-8, 1e-19)
        assert a == pytest.approx(ALPHA_PROTON, rel=1e-5, abs=0)
        assert b == pytest.approx(1.3888898e-56, rel=1e-4, abs=0)

    def test_alpha_at_the_zone_edge(self):
        # 250-digit mpmath value; a series in 1/sin k would blow up here
        assert alpha_beta(math.pi, 1e-4)[0] == pytest.approx(1.0000159171597473e-4, rel=1e-14, abs=0)

    @pytest.mark.parametrize(
        "ks",
        [
            np.linspace(0.0, 0.5, 256),
            np.linspace(0.0, 3.1, 256),
            np.linspace(0.0, 1e-8, 256),
            np.array([np.nextafter(1.0, 0.0), 1.0, np.nextafter(1.0, 2.0), 1.0 - 2**-20, 1.0 + 2**-20]),
        ],
        ids=["to-0.5", "to-3.1", "to-1e-8", "around-1"],
    )
    def test_k_minus_sin_matches_its_piecewise_oracle(self, ks):
        # oracle: the np.piecewise form, which evaluated each side only on its own momenta
        sides = [lambda k: k * (k * k) * np.polyval(discrimination._K_MINUS_SIN_SERIES, k * k), lambda k: k - np.sin(k)]
        expected = np.piecewise(ks, [np.abs(ks) < 1.0], sides)
        assert discrimination._k_minus_sin(ks).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("m", [0.0, 1e-19, 0.01, 0.6, 1.0])
    def test_in_place_kernel_matches_one_call_per_momentum(self, m):
        # both half-zones in one call, each momentum's bits as in a call of its own (0-d in, 0-d out)
        ks = np.array([0.0, -0.0, 5e-324, 1e-310, 1e-8, 0.4, -1.0, math.pi / 2, np.nextafter(math.pi / 2, 0.0),
                       2.0, -3.0, np.nextafter(math.pi, 0.0), math.pi])
        together = discrimination._alpha_beta(ks, m)
        alone = [discrimination._alpha_beta(np.array(k), m) for k in ks]
        for column, values in enumerate(together):
            assert all(part[column].shape == () for part in alone)
            assert values.tobytes() == np.array([part[column] for part in alone]).tobytes()
        assert all(x.shape == (0,) for x in discrimination._alpha_beta(np.array([]), m))

    def test_beta_nonnegative(self):
        for k in np.linspace(0.0, 3.0, 31):
            for m in np.linspace(0.0, 1.0, 11):
                if k == 0.0 and m == 0.0:
                    continue
                _, b = alpha_beta(k, m)
                assert b >= 0.0

    def test_origin_rejected(self):
        with pytest.raises(ValueError):
            alpha_beta(0.0, 0.0)

    @pytest.mark.parametrize("k", [math.nan, math.inf, -math.inf, 3.2, -3.2])
    def test_nonfinite_or_out_of_zone_momentum_rejected(self, k):
        # the cancellation-free beta needs v + v_c > 0, which holds for |k| <= pi
        with pytest.raises(ValueError):
            alpha_beta(k, 0.5)


class TestAngleInequalities:
    def test_angle_inequality_grid(self):
        # 32 x 8 x 16 (k, m, t) grid: cos(mu) >= cos(alpha t) - beta
        ks = np.linspace(-3.0, 3.0, 32)
        ms = np.linspace(0.1, 0.9, 8)
        ts = np.linspace(0.0, 10.0, 16)
        worst = 0.0
        for m in ms:
            for k in ks:
                a, b = alpha_beta(k, m)
                angles = mu(k, m, ts)
                slack = np.cos(angles) - (np.cos(a * ts) - b)
                worst = min(worst, float(slack.min()))
        assert worst >= -1e-10

    def test_mismatch_monotonicity_and_endpoint_maxima(self):
        # alpha (signed) and beta are nondecreasing on [0, pi); the extreme
        # moduli over any [0, k_bar] therefore sit on {0, k_bar}
        ks = np.linspace(0.0, np.pi - 1e-3, 256)
        for m in np.linspace(0.1, 0.9, 9):
            alphas = np.array([alpha_beta(k, m)[0] for k in ks])
            betas = np.array([alpha_beta(k, m)[1] for k in ks])
            assert np.min(np.diff(alphas)) >= -1e-10
            assert np.min(np.diff(betas)) >= -1e-10
            assert np.max(np.abs(alphas)) <= max(abs(alphas[0]), abs(alphas[-1])) + 1e-10
            assert np.max(np.abs(betas)) <= max(abs(betas[0]), abs(betas[-1])) + 1e-10

    def test_abs_alpha_dips_before_rising(self):
        # pins the sign subtlety: |alpha| decreases near k = 0 because
        # alpha(0) = m - arcsin(m) < 0 and alpha is increasing through zero
        m = 0.5
        a0 = abs(alpha_beta(1e-6, m)[0])
        a_mid = abs(alpha_beta(0.3, m)[0])
        assert a_mid < a0

    @pytest.mark.parametrize("m,k_bar,n_bar", [(0.3, 0.8, 2), (0.6, 0.5, 1), (0.2, 1.2, 3)])
    def test_angle_cap_sandwich(self, m, k_bar, n_bar):
        alpha_bar, beta_bar = extremal_alpha_beta(k_bar, m)
        assert beta_bar <= 1.0 - math.cos(math.pi / (2 * n_bar))
        f = math.acos(math.cos(math.pi / (2 * n_bar)) + beta_bar) / alpha_bar
        t = 0.9 * f
        g = n_bar * math.acos(math.cos(alpha_bar * t) - beta_bar)
        assert g <= math.pi / 2 + 1e-12
        for k in np.linspace(0.0, k_bar, 64):
            assert n_bar * mu(k, m, t) <= g + 1e-10


class TestExtremal:
    def test_massless(self):
        assert extremal_alpha_beta(1.0, 0.0) == (0.0, 0.0)

    def test_zero_cap_reduces_to_rest_point(self):
        for m in (0.3, 0.7):
            alpha_bar, beta_bar = extremal_alpha_beta(0.0, m)
            assert alpha_bar == pytest.approx(math.asin(m) - m, rel=1e-12)
            assert beta_bar == 0.0

    def test_grid_maximum_sits_on_endpoints(self):
        alpha_bar, beta_bar = extremal_alpha_beta(1.0, 0.6)
        grid = np.linspace(0.0, 1.0, 2048)
        grid_alpha = max(abs(alpha_beta(k, 0.6)[0]) for k in grid)
        grid_beta = max(alpha_beta(k, 0.6)[1] for k in grid)
        assert alpha_bar == pytest.approx(grid_alpha, abs=1e-10)
        assert beta_bar == pytest.approx(grid_beta, abs=1e-10)

    def test_rejects_bad_cap(self):
        with pytest.raises(ValueError):
            extremal_alpha_beta(np.pi, 0.5)

    def test_relative_dip_in_tiny_alpha_is_caught(self, monkeypatch):
        # at proton scale alpha ~ 1e-47: the slack must scale with the endpoint values
        exact = discrimination._alpha_beta

        def dipped(k, m):
            a, b, sigma = exact(k, m)
            a[100] = a[99] - 1e-11 * np.max(np.abs(a))
            return a, b, sigma

        extremal_alpha_beta(1e-8, 1e-19)
        monkeypatch.setattr(discrimination, "_alpha_beta", dipped)
        with pytest.raises(MonotonicityError):
            extremal_alpha_beta(1e-8, 1e-19)

    @pytest.mark.parametrize("output", [0, 1], ids=["_alpha", "_beta"])  # the kernel's alpha, then its beta
    @pytest.mark.parametrize("index", [0, 100, -1])
    def test_nan_on_the_grid_is_caught(self, monkeypatch, output, index):
        # nan compares false, so a check written as "violation found" would let it through
        exact = discrimination._alpha_beta

        def holed(k, m):
            values = exact(k, m)
            values[output][index] = math.nan
            return values

        monkeypatch.setattr(discrimination, "_alpha_beta", holed)
        with pytest.raises(MonotonicityError):
            extremal_alpha_beta(0.8, 0.3)

    def test_one_kernel_call_per_grid(self, monkeypatch):
        calls = []
        exact = discrimination._alpha_beta

        def counted(k, m):
            calls.append(np.shape(k))
            return exact(k, m)

        monkeypatch.setattr(discrimination, "_alpha_beta", counted)
        for k_bar, m in [(0.5, 0.01), (3.1, 0.3), (0.0, 0.7), (1.0, 0.0)]:
            calls.clear()
            extremal_alpha_beta(k_bar, m)
            assert calls == [(discrimination.GRID_POINTS,)]

    # (alpha_bar, beta_bar) as float.hex: the golden jobs reach only m <= 0.5 and k_bar <= 2.5, so
    # these pin both sides of pi/2 and the zone's far end at the extreme masses, where any one-bit
    # drift fails them
    BIT_PINS = {
        (1e-19, 1.5): ("0x1.037c8c4723ae5p-128", "0x1.89057cd6dac0fp-131"),
        (1e-19, 1.6): ("0x1.1cf312ba80e81p-128", "0x1.eb1f3eae9616cp-131"),
        (1e-19, 3.1): ("0x1.4b74527ce4d08p-123", "0x1.deecbf3922db0p-119"),
        (1e-3, 1.5): ("0x1.3fd77e90532b0p-22", "0x1.e46fe46cfa64dp-25"),
        (1e-3, 1.6): ("0x1.5f3a33c673f0dp-22", "0x1.2ead7f97e08b9p-24"),
        (1e-3, 3.1): ("0x1.987db1f3fb6f3p-17", "0x1.2708066bc5775p-12"),
        (0.3, 1.5): ("0x1.b130b1945dacep-6", "0x1.7df1e83bb4c33p-8"),
        (0.3, 1.6): ("0x1.dedd463faf291p-6", "0x1.d31e7ecf9256ap-8"),
        (0.3, 3.1): ("0x1.1f0c51b0d63ebp-2", "0x1.8c4ed913441c5p-1"),
        (1.0, 1.5): ("0x1.243f6a8885a31p-1", "0x1.c7fcabf882ed4p-2"),
        (1.0, 1.6): ("0x1.243f6a8885a31p-1", "0x1.e147f53716327p-2"),
        (1.0, 3.1): ("0x1.afbeabeff518cp+0", "0x1.62d08818e6be0p-1"),
        **{(0.0, k_bar): ("0x0.0p+0", "0x0.0p+0") for k_bar in (1.5, 1.6, 3.1)},
    }

    @pytest.mark.parametrize("m,k_bar", sorted(BIT_PINS))
    def test_extremal_values_are_bit_pinned(self, m, k_bar):
        alpha_bar, beta_bar = extremal_alpha_beta(k_bar, m)
        assert (alpha_bar.hex(), beta_bar.hex()) == self.BIT_PINS[m, k_bar]


class TestPeLowerBound:
    def test_identical_theories_are_indistinguishable(self):
        report = pe_lower_bound(DiscriminationInput(m=0.0, k_bar=0.5, N_bar=1, t=100.0))
        assert report.hypotheses_ok
        assert report.g == 0.0
        assert report.pe_lower == 0.5
        assert report.f_limit == math.inf

    def test_zero_time_zero_beta(self):
        report = pe_lower_bound(DiscriminationInput(m=0.6, k_bar=0.0, N_bar=1, t=0.0))
        assert report.hypotheses_ok
        assert report.g == 0.0
        assert report.pe_lower == 0.5

    def test_bound_decreases_with_time(self):
        alpha_bar, beta_bar = extremal_alpha_beta(0.8, 0.3)
        f = math.acos(math.cos(math.pi / 2) + beta_bar) / alpha_bar
        previous = 0.5 + 1e-12
        for t in np.linspace(0.0, 0.999 * f, 12):
            report = pe_lower_bound(DiscriminationInput(m=0.3, k_bar=0.8, N_bar=1, t=float(t)))
            assert report.hypotheses_ok
            assert 0.0 <= report.pe_lower <= 0.5
            assert report.pe_lower <= previous + 1e-12
            # pe = 1/2 - 1/2 sqrt(1 - cos^2 g), written as (1 - sin g)/2
            assert report.pe_lower == pytest.approx(
                0.5 - 0.5 * math.sqrt(1.0 - math.cos(report.g) ** 2), abs=1e-15
            )
            previous = report.pe_lower

    def test_out_of_window_time_reports_no_bound(self):
        report = pe_lower_bound(DiscriminationInput(m=0.3, k_bar=0.8, N_bar=1, t=1e9))
        assert not report.hypotheses_ok
        assert report.g is None and report.pe_lower is None

    def test_proton_scale_perfect_discrimination_time(self):
        t = t_min_exact(1e-19, 1e-8, 1)
        assert t == pytest.approx(3 * math.pi * 1e46, rel=1e-6)
        report = pe_lower_bound(DiscriminationInput(m=1e-19, k_bar=1e-8, N_bar=1, t=t))
        assert report.hypotheses_ok
        assert report.g == pytest.approx(math.pi / 2, rel=1e-6)
        assert report.pe_lower <= 1e-9


class TestTmin:
    def test_approximate_scaling_in_particle_number(self):
        assert t_min_approx(0.1, 0.5, 2) == t_min_approx(0.1, 0.5, 1) / 2.0

    def test_proton_scale_headline(self):
        t = t_min_approx(1e-19, 1e-8, 1)
        assert t == 3.0 * math.pi / (1e-19 * 1e-19 * 1e-8 * 1)
        assert t == pytest.approx(3 * math.pi * 1e46, rel=1e-12)

    def test_exact_and_approximate_agree_to_20_percent(self):
        exact = t_min_exact(0.1, 0.5, 1)
        approx = t_min_approx(0.1, 0.5, 1)
        assert exact is not None
        assert abs(exact - approx) / approx <= 0.20

    def test_unreachable_when_beta_hypothesis_fails(self):
        assert t_min_exact(0.9, 3.0, 50) is None

    def test_exact_time_is_the_time_cap(self):
        # g(t) = pi/2 defines both: t_min_exact returns the report's f_limit bit for bit
        for m in (1e-19, 1e-6, 0.01, 0.3, 0.9):
            for k_bar in (1e-8, 1e-3, 0.5, 2.5):
                for n_bar in (1, 3, 64):
                    t = t_min_exact(m, k_bar, n_bar)
                    if t is not None:
                        assert t == pe_lower_bound(DiscriminationInput(m, k_bar, n_bar, 0.0)).f_limit, (m, k_bar, n_bar)

    @pytest.mark.parametrize("m, k_bar, n_bar", [(0.3, 0.8, 1), (0.01, 0.5, 64), (1e-19, 1e-8, 1), (0.9, 3.0, 50)])
    def test_time_cap_does_not_depend_on_t(self, m, k_bar, n_bar):
        # the CLI reads t_min_exact from the report at the job's own t, inside the cap, beyond it or at inf
        caps = {pe_lower_bound(DiscriminationInput(m, k_bar, n_bar, t)).f_limit for t in (0.0, 10.0, 1e300)}
        assert caps == {t_min_exact(m, k_bar, n_bar)}

    @pytest.mark.parametrize("m, n_bar", [(0.9, 50), (0.6, 8), (0.5, 4), (0.3, 2)])
    def test_beta_hypothesis_edge_is_one_test(self, m, n_bar):
        # bisect k_bar down to the two adjacent doubles where beta_bar crosses 2 sin^2(pi / 4 N_bar): beta_bar <= edge
        # exactly where the time cap's room = sin^2(pi / 4 N_bar) - beta_bar / 2 is >= 0, halving being exact
        edge = 2.0 * math.sin(math.pi / (4.0 * n_bar)) ** 2
        lo, hi = 1e-3, 3.0
        assert extremal_alpha_beta(lo, m)[1] <= edge < extremal_alpha_beta(hi, m)[1]
        while math.nextafter(lo, hi) < hi:
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if extremal_alpha_beta(mid, m)[1] <= edge else (lo, mid)
        for k_bar in (lo, hi):
            report = pe_lower_bound(DiscriminationInput(m, k_bar, n_bar, 0.0))
            t = t_min_exact(m, k_bar, n_bar)
            if not report.hypotheses_ok:  # at t = 0 only the beta_bar test can fail
                assert report.f_limit is None and t is None
            else:
                assert t == report.f_limit

    def test_rejects_degenerate_inputs(self):
        with pytest.raises(ValueError):
            t_min_approx(0.0, 0.5, 1)
        with pytest.raises(ValueError):
            t_min_exact(0.5, 0.0, 1)

    @pytest.mark.parametrize(
        "solver, m, k_bar, n_bar, message",
        [
            (t_min_approx, 0.5, 0.5, 0, "particle cap"),  # used to raise ZeroDivisionError
            (t_min_exact, 0.5, 0.5, 0, "particle cap"),
            (t_min_approx, 0.5, 0.5, -1, "particle cap"),  # used to return -75.4
            (t_min_exact, 0.5, 0.5, -1, "particle cap"),
            (t_min_approx, 0.5, 0.5, 1.5, "particle cap"),
            (t_min_exact, 0.5, 0.5, 1.5, "particle cap"),
            (t_min_approx, 0.5, 5.0, 1, "momentum cap"),
            (t_min_exact, 0.5, 5.0, 1, "momentum cap"),
            (t_min_approx, 2.0, 0.5, 1, "mass"),
            (t_min_exact, 2.0, 0.5, 1, "mass"),  # used to raise "math domain error"
            (t_min_approx, 1e-160, 1e-8, 1, "double range"),  # m^2 k_bar N_bar underflows: used to divide by 0
            (t_min_exact, 1e-150, 1e-8, 1, "double range"),  # alpha_bar = 1.7e-309 is subnormal: f would overflow
            (lambda m, k, n: DiscriminationInput(m=m, k_bar=k, N_bar=n, t=1.0), 0.5, 0.5, 1.5, "particle cap"),
            # no double holds the cap: used to raise OverflowError
            (t_min_approx, 0.5, 0.5, 10**400, "particle cap"),
            (t_min_exact, 0.5, 0.5, 10**400, "particle cap"),
            (lambda m, k, n: DiscriminationInput(m=m, k_bar=k, N_bar=n, t=1.0), 0.5, 0.5, 10**400, "particle cap"),
            # valid caps, but no perfect-discrimination time: one message for both solvers
            (t_min_approx, 0.0, 0.5, 1, "^need m > 0 and k_bar > 0$"),
            (t_min_exact, 0.0, 0.5, 1, "^need m > 0 and k_bar > 0$"),
            (t_min_approx, 0.5, 0.0, 1, "^need m > 0 and k_bar > 0$"),
            (t_min_exact, 0.5, 0.0, 1, "^need m > 0 and k_bar > 0$"),
        ],
        ids=["approx-n0", "exact-n0", "approx-n-1", "exact-n-1", "approx-n1.5", "exact-n1.5",
             "approx-k5", "exact-k5", "approx-m2", "exact-m2", "approx-overflow", "exact-overflow", "input-n1.5",
             "approx-n1e400", "exact-n1e400", "input-n1e400", "approx-m0", "exact-m0", "approx-k0", "exact-k0"],
    )
    def test_rejects_caps_outside_their_range(self, solver, m, k_bar, n_bar, message):
        with pytest.raises(ValueError, match=message):
            solver(m, k_bar, n_bar)


class TestMonteCarlo:
    def _input(self, t_fraction=0.8, m=0.3, k_bar=0.8, n_bar=2):
        alpha_bar, beta_bar = extremal_alpha_beta(k_bar, m)
        f = math.acos(math.cos(math.pi / (2 * n_bar)) + beta_bar) / alpha_bar
        return DiscriminationInput(m=m, k_bar=k_bar, N_bar=n_bar, t=t_fraction * f)

    def test_massless_samples_saturate_zero(self):
        inp = DiscriminationInput(m=0.0, k_bar=0.5, N_bar=2, t=10.0)
        report = validate_bound_montecarlo(inp, samples=200, seed=1)
        assert report.bound == 0.0
        assert report.max_observed <= 1e-9

    def test_single_momentum_pure_eigenphase_pair(self):
        # equal superposition of the two branches at one momentum: the trace
        # distance is exactly sqrt(1 - cos^2 mu)
        k, m, t = 0.6, 0.3, 4.0
        angle = mu(k, m, t)
        value = _pairwise_trace_distance(np.array([angle, -angle]), np.array([0.5, 0.5]))
        assert value == pytest.approx(math.sqrt(1.0 - math.cos(angle) ** 2), rel=1e-12)

    def test_reference_run_stays_below_bound(self):
        report = validate_bound_montecarlo(self._input(), samples=10_000, seed=42)
        assert report.max_observed <= report.bound + 1e-9
        assert report.margin >= 0.0

    def test_reproducible_given_seed_and_workers(self):
        inp = self._input()
        a = validate_bound_montecarlo(inp, samples=500, seed=9, workers=3)
        b = validate_bound_montecarlo(inp, samples=500, seed=9, workers=3)
        assert a.max_observed == b.max_observed

    def test_workers_only_set_parallelism(self):
        inp = self._input()
        reports = [
            validate_bound_montecarlo(inp, samples=3 * MC_BLOCK + 17, seed=9, workers=w) for w in (1, 2, 3)
        ]
        assert len({r.max_observed for r in reports}) == 1
        assert [r.workers for r in reports] == [1, 2, 3]  # echoes the request, not the thread count

    @pytest.mark.parametrize("samples", [1, MC_BLOCK - 1, MC_BLOCK, MC_BLOCK + 1])
    def test_block_edge_sample_counts(self, samples):
        inp = self._input()
        a = validate_bound_montecarlo(inp, samples=samples, seed=4)
        b = validate_bound_montecarlo(inp, samples=samples, seed=4, workers=2)
        assert a.samples == samples
        assert 0.0 <= a.max_observed <= a.bound + 1e-9
        assert a.max_observed == b.max_observed

    def test_block_streams_are_spawned_children(self):
        inp, samples = self._input(), MC_BLOCK + 5
        streams = np.random.SeedSequence(8).spawn(2)
        expected = max(
            float(discrimination._pairwise_trace_distance(*discrimination._draw_block(inp, n, s)).max())
            for n, s in zip((MC_BLOCK, 5), streams)
        )
        assert validate_bound_montecarlo(inp, samples=samples, seed=8).max_observed == expected

    def test_masked_phase_sums_match_full_tensor(self):
        # only the kept particles are drawn, in one flat run; the reference sums
        # each configuration's own run of counts[i] signed angles, one at a time
        inp, c = self._input(n_bar=4), discrimination.CONFIGS_PER_STATE
        phases, _ = discrimination._draw_block(inp, MC_BLOCK, np.random.SeedSequence(11))
        rng = np.random.default_rng(np.random.SeedSequence(11))
        counts = rng.integers(1, inp.N_bar + 1, size=MC_BLOCK * c)
        momenta = rng.uniform(-inp.k_bar, inp.k_bar, size=counts.sum())
        signs = rng.choice(np.array([-1.0, 1.0]), size=counts.sum())
        signed = signs * mu(momenta, inp.m, inp.t)
        reference, start = [], 0
        for count in counts:
            reference.append(math.fsum(signed[start:start + count]))
            start += count
        assert start == momenta.size
        assert phases.shape == (MC_BLOCK, c)
        assert np.max(np.abs(phases.ravel() - reference)) <= 1e-14

    def test_block_peak_memory(self):
        # momenta are freed before the signs are drawn and mu works in place: about 2.9 MiB (8.0 out of place)
        inp = self._input(m=0.01, k_bar=0.5, n_bar=20)
        discrimination._draw_block(inp, MC_BLOCK, np.random.SeedSequence(1))  # first-call allocations stay out
        tracemalloc.start()
        try:
            discrimination._draw_block(inp, MC_BLOCK, np.random.SeedSequence(1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4.5 * 2**20

    def test_memory_flat_in_sample_count(self):
        inp = self._input(n_bar=2)

        def peak(blocks):
            tracemalloc.start()
            try:
                validate_bound_montecarlo(inp, samples=blocks * MC_BLOCK, seed=3)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(1)  # first-call allocations (lazy imports, caches) stay out of the comparison
        assert peak(16) <= 1.25 * peak(2)

    @staticmethod
    def _block(n_bar):
        return min(MC_BLOCK, max(1, 1024 * 8 * 20 // (discrimination.CONFIGS_PER_STATE * n_bar)))

    def test_memory_flat_in_n_bar(self):
        def peak(n_bar):
            inp = self._input(m=0.01, k_bar=0.05, n_bar=n_bar)
            tracemalloc.start()
            try:
                validate_bound_montecarlo(inp, samples=2 * self._block(n_bar), seed=3)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(2)  # first-call allocations (lazy imports, caches) stay out of the comparison
        base = peak(20)
        assert peak(200) <= 1.25 * base
        assert peak(2000) <= 1.25 * base

    @pytest.mark.parametrize("n_bar", [20, 21, 200])
    def test_block_size_follows_n_bar(self, n_bar):
        # blocks of MC_BLOCK samples up to N_bar = 20 (the stream layout of
        # every earlier run), fewer samples per block above it
        inp, block = self._input(m=0.01, k_bar=0.05, n_bar=n_bar), self._block(n_bar)
        samples = 2 * block + 3
        streams = np.random.SeedSequence(8).spawn(3)
        expected = max(
            float(discrimination._pairwise_trace_distance(*discrimination._draw_block(inp, n, s)).max())
            for n, s in zip((block, block, 3), streams)
        )
        assert validate_bound_montecarlo(inp, samples=samples, seed=8).max_observed == expected

    @pytest.mark.parametrize("n_bar", [2, 200])
    def test_result_depends_on_seed_samples_and_n_bar_only(self, n_bar):
        inp = self._input(m=0.01, k_bar=0.05, n_bar=n_bar)
        samples = 3 * self._block(n_bar) + 17
        reports = [validate_bound_montecarlo(inp, samples=samples, seed=5, workers=w) for w in (1, 2, 3)]
        assert len({r.max_observed for r in reports}) == 1

    def test_violation_stops_the_remaining_blocks(self, monkeypatch):
        calls = []

        def huge_angles(k, m, t):
            calls.append(1)
            return np.full(np.shape(k), math.pi / 2)

        monkeypatch.setattr(discrimination, "mu", huge_angles)
        with pytest.raises(BoundViolationError):
            validate_bound_montecarlo(self._input(), samples=50 * MC_BLOCK, seed=1, workers=2)
        assert len(calls) <= 4  # two blocks in flight per thread, at most two threads

    def test_nan_angle_is_a_violation(self, monkeypatch):
        # a nan compares false with the cap, so a test written as "worst > cap" let it through with exit 0
        monkeypatch.setattr(discrimination, "mu", lambda k, m, t: np.full(np.shape(k), math.nan))
        with pytest.raises(BoundViolationError, match="nan"):
            validate_bound_montecarlo(self._input(), samples=10, seed=1)

    def test_block_error_propagates(self, monkeypatch):
        def broken(k, m, t):
            raise NumericalInvariantError("synthetic")

        monkeypatch.setattr(discrimination, "mu", broken)
        with pytest.raises(NumericalInvariantError):
            validate_bound_montecarlo(self._input(), samples=10 * MC_BLOCK, seed=1, workers=2)

    def test_requires_hypotheses(self):
        with pytest.raises(ValueError):
            validate_bound_montecarlo(self._input(t_fraction=1.5), samples=10, seed=0)
