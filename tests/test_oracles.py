"""Recompute the frozen reference constants with mpmath, and pin alpha/beta.

The package never imports mpmath; this module keeps the frozen literals in
the other test files honest by rebuilding them from scratch at runtime, and
checks alpha and beta against their defining formulas across the Brillouin
half-zone, next to k = pi/2 and k = pi, and around alpha's sign change.
"""

import math

import mpmath as mp
import numpy as np
import pytest

from dirac_qca import alpha_beta, derivatives, omega
from dirac_qca.discrimination import _alpha, _beta

import test_discrimination as td
from test_automaton import TRACE_AT_FIG4_POINT
from test_dispersion import OMEGA_AT_FIG4_POINT

mp.mp.dps = 60
# alpha and beta by their defining differences: beta ~ 1e-58 cancels against
# 1, so 80 digits still leave a 1e-6 error there; 250 leave none
MISMATCH_DPS = 250


def mp_omega(k, m):
    return mp.acos(mp.sqrt(1 - mp.mpf(m) ** 2) * mp.cos(mp.mpf(k)))


def mp_alpha(k, m):
    with mp.workdps(MISMATCH_DPS):
        k, m = mp.mpf(k), mp.mpf(m)
        return +(mp.sqrt(k * k + m * m) - mp_omega(k, m))


def mp_alpha_root(m):
    """The k > 0 where alpha changes sign (k ~ m for small m)."""
    with mp.workdps(MISMATCH_DPS):
        return float(mp.findroot(lambda k: mp_alpha(k, m), 1.2 * mp.mpf(m)))


def mp_beta(k, m):
    with mp.workdps(MISMATCH_DPS):
        k, m = mp.mpf(k), mp.mpf(m)
        w = mp_omega(k, m)
        n = mp.sqrt(1 - m * m)
        v = n * mp.sin(k) / mp.sin(w)
        vd = k / mp.sqrt(k * k + m * m)
        return +(1 - v * vd - mp.sqrt((1 - v * v) * (1 - vd * vd)))


class TestFrozenConstants:
    def test_omega_reference(self):
        live = float(mp_omega(3 * np.pi / 10, 0.6))
        assert OMEGA_AT_FIG4_POINT == pytest.approx(live, abs=1e-16)
        assert omega(3 * np.pi / 10, 0.6) == pytest.approx(live, abs=5e-16)  # within ~2 ulp

    def test_trace_reference(self):
        live = float(2 * mp.mpf("0.8") * mp.cos(3 * mp.pi / 10))
        assert TRACE_AT_FIG4_POINT == pytest.approx(live, abs=1e-16)

    @pytest.mark.parametrize("k,m,frozen_a,frozen_b", [
        (0.5, 0.6, td.ALPHA_05_06, td.BETA_05_06),
        (0.8, 0.3, td.ALPHA_08_03, td.BETA_08_03),
    ])
    def test_alpha_beta_references(self, k, m, frozen_a, frozen_b):
        assert frozen_a == pytest.approx(float(mp_alpha(k, m)), rel=1e-14)
        assert frozen_b == pytest.approx(float(mp_beta(k, m)), rel=1e-14)
        a, b = alpha_beta(k, m)
        assert a == pytest.approx(float(mp_alpha(k, m)), rel=1e-12)
        assert b == pytest.approx(float(mp_beta(k, m)), rel=1e-12)

    def test_proton_scale_alpha(self):
        live = float(mp_alpha(1e-8, 1e-19))
        assert td.ALPHA_PROTON == pytest.approx(live, rel=1e-12, abs=0)

    def test_drift_diffusion_against_mp_derivatives(self):
        k0 = 3 * np.pi / 10
        v, d, w3 = derivatives(k0, 0.6)
        assert v == pytest.approx(float(mp.diff(lambda k: mp_omega(k, "0.6"), k0, 1)), rel=1e-12)
        assert d == pytest.approx(float(mp.diff(lambda k: mp_omega(k, "0.6"), k0, 2)), rel=1e-10)
        assert w3 == pytest.approx(float(mp.diff(lambda k: mp_omega(k, "0.6"), k0, 3)), rel=1e-8)

    def test_small_regime_branches_against_mp(self):
        # alpha and beta where cancellation makes direct float subtraction
        # meaningless
        for k, m in [(1e-8, 1e-19), (1e-4, 1e-6), (0.5, 1e-4), (2.0, 1e-5)]:
            a, b = alpha_beta(k, m)
            assert a == pytest.approx(float(mp_alpha(k, m)), rel=1e-5, abs=0)
            assert b == pytest.approx(float(mp_beta(k, m)), rel=1e-4, abs=0)

    def test_arcsin_gap_identity(self):
        # alpha(0, m) = m - arcsin(m); pins the criterion-4 analysis numbers
        for m, expected_ratio in ((0.6, 1.0070), (0.9, 1.5075)):
            gap = float(mp.asin(m) - mp.mpf(m))
            ratio = gap / (0.2 * m * m * m)
            assert ratio == pytest.approx(expected_ratio, abs=2e-4)
            assert abs(alpha_beta(0.0, m)[0]) == pytest.approx(gap, rel=1e-12)


def _rel(value, reference):
    return abs(value - float(reference)) / abs(float(reference))


def _sides(x):
    return (float(np.nextafter(x, 0.0)), x, float(np.nextafter(x, np.inf)))


# alpha changes sign at k ~ m, so its error is measured against
# max(|alpha|, m^2 lambda / 6), the size of its terms there
ALPHA_TOL = 1e-14
ORACLE_MASSES = (1e-19, 1e-6, 1e-3, 0.3, 1.0)


def _alpha_error(k, m):
    reference = float(mp_alpha(k, m))
    return abs(alpha_beta(k, m)[0] - reference) / max(abs(reference), m * m * math.hypot(k, m) / 6.0)


def _sweep_points():
    """2000 log-uniform points in k in [1e-9, pi], m in [1e-19, 1], plus edges."""
    rng = np.random.default_rng(20121)
    ks = np.exp(rng.uniform(math.log(1e-9), math.log(math.pi), 2000))
    ms = np.exp(rng.uniform(math.log(1e-19), 0.0, 2000))
    points = [(float(k), float(m)) for k, m in zip(ks, ms)] + [(math.pi, 1.0), (math.pi, 1e-19), (1e-9, 1.0)]
    for edge in (1e-3, 1.0):  # where a series for k - sin k may hand over to the subtraction
        points += [(k, m) for k in _sides(edge) for m in (1e-19, 1e-3, 0.5, 1.0)]
    return points


# momenta so small that ((u_x + u_xc)/(v + v_c))^2 ~ (m/k)^2 leaves the double range
TINY_K_POINTS = [(k, m) for k in (1e-20, 1e-60, 1e-100) for m in (1e-3, 0.3, 1.0)]


class TestAlphaBetaOracles:
    """alpha and beta against 250-digit mpmath."""

    def test_beta_full_precision_everywhere(self):
        worst = max(_rel(alpha_beta(k, m)[1], mp_beta(k, m)) for k, m in _sweep_points() + TINY_K_POINTS)
        assert worst <= 1e-14

    def test_alpha_full_precision_everywhere(self):
        assert max(_alpha_error(k, m) for k, m in _sweep_points()) <= ALPHA_TOL

    @pytest.mark.parametrize("m", ORACLE_MASSES)
    def test_alpha_next_to_pi_half_and_pi(self, m):
        ks = [math.pi / 2.0 + s * d for d in (1e-12, 1e-9, 1e-3) for s in (-1.0, 1.0)]
        ks += [math.pi - d for d in (0.0, 1e-12, 1e-9, 1e-6, 1e-3)]
        assert max(_alpha_error(k, m) for k in ks) <= ALPHA_TOL

    @pytest.mark.parametrize("m", ORACLE_MASSES)
    def test_alpha_around_its_sign_change(self, m):
        root = mp_alpha_root(m)
        ks = list(_sides(root)) + [root * (1.0 + s * f) for f in (1e-12, 1e-9, 1e-6, 1e-3) for s in (-1.0, 1.0)]
        assert max(_alpha_error(k, m) for k in ks) <= ALPHA_TOL

    # (label, k, m, envelope): both sides of k = 0 at m = 1e-5, of lambda =
    # 1e-3, of m = 1e-3 and of k = 100 m, all held to the oracle bound
    ALPHA_SWITCHES = (
        [("rest", 0.0, m, ALPHA_TOL) for m in _sides(1e-5) + (0.9e-5, 1.1e-5)]
        + [
            ("joint", r * s / math.hypot(r, 1.0) * 1e-3, s / math.hypot(r, 1.0) * 1e-3, ALPHA_TOL)
            for r in (1e3, 3.0, 1.0 / 3.0)
            for s in (0.999, 1.0, 1.001)
        ]
        + [("small-m", k, m, ALPHA_TOL) for k in (0.05, 0.5, 2.0) for m in _sides(1e-3) + (0.99e-3, 1.01e-3)]
        + [
            ("k=100m", k, m, ALPHA_TOL)
            for m in (1e-5, 1e-4, 5e-4, 9e-4)
            for k in _sides(100.0 * m) + (99.0 * m, 101.0 * m)
        ]
    )

    @pytest.mark.parametrize("regime,k,m,envelope", ALPHA_SWITCHES)
    def test_alpha_on_both_sides_of_each_switch(self, regime, k, m, envelope):
        assert _alpha_error(k, m) <= envelope

    @pytest.mark.parametrize(
        "m,ks",
        [
            (1e-6, np.concatenate([[0.0], np.geomspace(1e-9, 9e-4, 40)])),  # through alpha's sign change
            (1e-4, np.geomspace(1e-2, 3.1, 40)),  # across k = pi/2
            (0.3, np.linspace(0.0, math.pi, 41)),  # k = pi/2 exactly, and beta's k - sin k switch
            (1.0, np.geomspace(1e-9, math.pi, 41)),
            (0.3, np.array([])),
            (0.3, np.array(0.7)),  # 0-d
            # both sides of |k| = 1 (the k - sin k series) and of pi/2 (the alpha identities), signs mixed
            (1e-3, np.array([-3.0, -1.0, *_sides(1.0), -0.5, 0.0, *_sides(math.pi / 2.0), -math.pi / 2.0, 2.0])),
        ],
    )
    def test_array_and_scalar_forms_agree(self, m, ks):
        scalar = np.array([alpha_beta(k, m) for k in np.ravel(ks)]).reshape(-1, 2)
        tol = 4 * np.spacing(np.abs(scalar))
        alphas, betas = _alpha(ks, m), _beta(ks, m)
        assert np.shape(alphas) == np.shape(betas) == np.shape(ks)
        assert np.all(np.abs(np.ravel(alphas) - scalar[:, 0]) <= tol[:, 0])
        assert np.all(np.abs(np.ravel(betas) - scalar[:, 1]) <= tol[:, 1])
