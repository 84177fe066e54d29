import math

import numpy as np
import pytest

from dirac_qca import FlytimeInput, broadening, separation_time, visibility_report
from dirac_qca.constants import PLANCK_TIME_SECONDS, planck_times_to_seconds

PROTON = FlytimeInput(m=1e-19, k=1e-8, sigma_hat=1e22)


def broadening_collapsed(inp, t):
    """m << k oracle: 2 sigma_hat (sqrt(1 + x^2) - 1), x = m^2 t / (2 sigma_hat^2 |k|^3)."""
    x = inp.m * inp.m / abs(inp.k) ** 3 * t / (2.0 * inp.sigma_hat ** 2)
    return 2.0 * inp.sigma_hat * x * x / (1.0 + math.sqrt(1.0 + x * x))


class TestSeparationTime:
    def test_proton_headline(self):
        times = separation_time(PROTON)
        assert times.t_relativistic == pytest.approx(6e60, rel=1e-12)
        seconds = planck_times_to_seconds(times.t_relativistic)
        assert 1e16 <= seconds <= 1e18  # ~1e17 s, within a factor 10

    def test_general_reduces_to_relativistic(self):
        for m_over_k in (1e-3, 1e-5):
            for k in (1e-8, 1e-3, 0.5):
                inp = FlytimeInput(m=m_over_k * k, k=k, sigma_hat=100.0)
                t_gen, t_rel = separation_time(inp)
                assert abs(t_gen - t_rel) / t_rel <= 1e-2
                assert abs(t_gen - t_rel) / t_rel <= 10.0 * m_over_k

    def test_quartic_mass_scaling(self):
        base = separation_time(FlytimeInput(m=1e-6, k=1e-3, sigma_hat=10.0)).t_relativistic
        quad = separation_time(FlytimeInput(m=4e-6, k=1e-3, sigma_hat=10.0)).t_relativistic
        assert quad == pytest.approx(base / 16.0, rel=1e-12)

    def test_outputs_positive_finite(self):
        for m, k, sh in ((0.5, 0.3, 5.0), (1e-10, -1e-4, 1e10)):
            times = separation_time(FlytimeInput(m=m, k=k, sigma_hat=sh))
            assert 0 < times.t_general < math.inf
            assert 0 < times.t_relativistic < math.inf

    @pytest.mark.parametrize("m, k", [(0.5, 0.5), (0.1, 0.02), (1e-10, 1e-4)])
    def test_even_in_momentum(self, m, k):
        # k = 2 m^2 once divided by 2 m^2 - k = 0 when taken as -k
        assert separation_time(FlytimeInput(m=m, k=-k, sigma_hat=3.0)) == separation_time(
            FlytimeInput(m=m, k=k, sigma_hat=3.0)
        )


class TestBroadening:
    def test_zero_time(self):
        assert broadening(PROTON, 0.0) == 0.0

    def test_monotone_in_time(self):
        inp = FlytimeInput(m=1e-4, k=1e-2, sigma_hat=50.0)
        values = [broadening(inp, t) for t in np.logspace(0, 12, 25)]
        assert all(b2 >= b1 for b1, b2 in zip(values, values[1:]))

    def test_collapsed_form_matches_for_small_mass_ratio(self):
        t = separation_time(PROTON).t_relativistic
        full = broadening(PROTON, t)
        collapsed = broadening_collapsed(PROTON, t)
        assert collapsed == pytest.approx(full, rel=1e-3)

    def test_no_underflow_for_tiny_spreading(self):
        # sqrt(1 + x^2) - 1 must not flush to zero when x ~ 1e-9
        inp = FlytimeInput(m=1e-19, k=1e-8, sigma_hat=1e33)
        assert broadening(inp, separation_time(inp).t_general) > 0.0

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError):
            broadening(PROTON, -1.0)


class TestVisibility:
    def test_proton_report(self):
        report = visibility_report(PROTON)
        assert report.t_seconds == pytest.approx(6e60 * PLANCK_TIME_SECONDS, rel=1e-2)
        # at sigma_hat = 1e22 the spreading dominates: flagged as not visible
        assert report.visibility_ratio < 1.0
        assert report.low_visibility

    def test_ratio_crosses_unity_near_k_cubed_scaling(self):
        # threshold sits at sigma_hat ~ 3 k^-3 = 3e24 for k = 1e-8
        ratios = {}
        for exponent in range(20, 27):
            inp = FlytimeInput(m=1e-19, k=1e-8, sigma_hat=10.0 ** exponent)
            ratios[exponent] = visibility_report(inp).visibility_ratio
        assert ratios[24] < 1.0 < ratios[25]
        assert all(ratios[e] < ratios[e + 1] for e in range(20, 26))

    def test_all_fields_nonnegative(self):
        report = visibility_report(FlytimeInput(m=1e-3, k=1e-2, sigma_hat=1e4))
        for value in (report.t_general, report.t_relativistic, report.broadening_at_t, report.t_seconds):
            assert value >= 0.0


class TestConstants:
    def test_si_round_trips(self):
        for t in (1.0, 6e60, 3.14e46):
            assert planck_times_to_seconds(t) / PLANCK_TIME_SECONDS == pytest.approx(t, rel=1e-12)


class TestValidation:
    def test_input_invariants(self):
        with pytest.raises(ValueError):
            FlytimeInput(m=0.0, k=0.1, sigma_hat=1.0)
        with pytest.raises(ValueError):
            FlytimeInput(m=0.1, k=0.0, sigma_hat=1.0)
        with pytest.raises(ValueError):
            FlytimeInput(m=0.1, k=0.1, sigma_hat=0.0)

    @pytest.mark.parametrize("k", [math.pi + 1e-15, -4.0, 100.0, math.inf, math.nan])
    def test_momentum_outside_the_zone_rejected(self, k):
        with pytest.raises(ValueError, match="pi"):
            FlytimeInput(m=0.1, k=k, sigma_hat=1.0)

    @pytest.mark.parametrize(
        "m, k, sigma_hat, product",
        [
            (0.5, 1.0, 1e-200, "2 sigma_hat^2"),
            (0.05, -1e-260, 1.0, "m^2 k^2 (2 m^2 + k)"),
            (5e-324, 1.0, 1.0, "m^2 k^2 (2 m^2 + k)"),
            (0.5, 1.0, 1e308, "6 sigma_hat lambda^3 / (m^2 k^2 (2 m^2 + k))"),
            (0.5, 1.0, 1e-155, "(D t / 2 sigma_hat^2)^2"),
        ],
    )
    def test_product_outside_the_double_range_is_named(self, m, k, sigma_hat, product):
        with pytest.raises(ValueError, match="left the double range") as raised:
            visibility_report(FlytimeInput(m=m, k=k, sigma_hat=sigma_hat))
        assert str(raised.value).startswith(product + " = ")
