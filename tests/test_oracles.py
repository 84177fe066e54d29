"""Recompute the frozen reference constants with mpmath, and pin omega, v, D, alpha/beta and U^t.

The package never imports mpmath; this module keeps the frozen literals in
the other test files honest by rebuilding them from scratch at runtime, and
checks omega across the whole zone, v and D next to m = 1, alpha and beta
against their defining formulas across the Brillouin half-zone, next to
k = pi/2 and k = pi, and around alpha's sign change, the discrimination
chain (g, the time cap f and its beta_bar test, the validator's cap) built
on them, the relative rotation angle mu, the phase of long-time mode
evolution, and the monotonicity in k of alpha and beta that
``extremal_alpha_beta`` rests on.
"""

import math

import mpmath as mp
import numpy as np
import pytest

from dirac_qca import AutomatonParams, ModeSpectrum, derivatives, evolve_momentum, omega
from dirac_qca.discrimination import (
    DiscriminationInput, _alpha_beta, extremal_alpha_beta, mu, pe_lower_bound, validate_bound_montecarlo,
)
from dirac_qca.flytime import FlytimeInput, separation_time

import test_discrimination as td
from conftest import alpha_beta
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
        alphas, betas, _ = _alpha_beta(ks, m)
        assert np.shape(alphas) == np.shape(betas) == np.shape(ks)
        assert np.all(np.abs(np.ravel(alphas) - scalar[:, 0]) <= tol[:, 0])
        assert np.all(np.abs(np.ravel(betas) - scalar[:, 1]) <= tol[:, 1])


def mp_chain(report, n_bar, t):
    """(g, f, sin^2(pi/4N_bar), room) at 60 digits, from the report's own double alpha_bar and beta_bar.

    The inputs are taken as exact, so only the chain is measured: room = sin^2(pi/4N_bar) - beta_bar/2,
    f = 2 asin(sqrt(room)) / alpha_bar (None when room < 0), g = 2 N_bar asin(sqrt(sin^2(alpha_bar t/2) + beta_bar/2)).
    """
    a, b, n = mp.mpf(report.alpha_bar), mp.mpf(report.beta_bar), mp.mpf(n_bar)
    cap = mp.sin(mp.pi / (4 * n)) ** 2
    room = cap - b / 2
    f = 2 * mp.asin(mp.sqrt(room)) / a if room >= 0 else None
    g = 2 * n * mp.asin(mp.sqrt(mp.sin(a * mp.mpf(t) / 2) ** 2 + b / 2))
    return g, f, cap, room


G_REL_TOL = 1e-15


def _check_time_cap(report, n_bar):
    """f is None exactly where room < 0, and else within 4 ulp times the subtraction's condition number cap/room."""
    _, f, cap, room = mp_chain(report, n_bar, 0.0)
    assert (report.f_limit is None) == (f is None)
    if f is not None:
        assert abs(mp.mpf(report.f_limit) - f) <= 4 * math.ulp(float(f)) * cap / room


class TestDiscriminationChainOracle:
    """g, f and the beta_bar test where a cosine next to 1 loses them: the cos/acos form failed each named point."""

    @pytest.mark.parametrize(
        "m, k_bar, n_bar, t",
        [
            (1e-19, 1e-8, 1, 1e40),  # the headline point: the cos/acos form was 4.0e-4 off
            (1e-4, 1e-4, 10**6, 1.0),  # the cos/acos form gave g = 0.0 for the true 3.3e-3
            (1e-8, 1e-6, 10**12, 1e10),  # the cos/acos form said "no cap", and so gave no g
        ],
    )
    def test_g_and_time_cap_at_named_points(self, m, k_bar, n_bar, t):
        report = pe_lower_bound(DiscriminationInput(m, k_bar, n_bar, t))
        assert report.hypotheses_ok
        g = mp_chain(report, n_bar, t)[0]
        assert abs(mp.mpf(report.g) - g) <= G_REL_TOL * g
        _check_time_cap(report, n_bar)

    def test_log_uniform_sweep(self):
        """300 draws of m in [1e-19, 0.99], k_bar in [1e-8, 3], N_bar in [1, 1e12], each at four fractions of f."""
        rng = np.random.default_rng(25)
        for _ in range(300):
            m, k_bar, n_bar = np.exp(rng.uniform(np.log([1e-19, 1e-8, 1.0]), np.log([0.99, 3.0, 1e12])))
            m, k_bar, n_bar = float(m), float(k_bar), round(n_bar)
            report = pe_lower_bound(DiscriminationInput(m, k_bar, n_bar, 0.0))
            _check_time_cap(report, n_bar)
            for share in (1e-6, 1e-3, 0.3, 0.999) if report.f_limit is not None else ():
                t = share * report.f_limit
                report_t = pe_lower_bound(DiscriminationInput(m, k_bar, n_bar, t))
                g = mp_chain(report_t, n_bar, t)[0]
                assert abs(mp.mpf(report_t.g) - g) <= G_REL_TOL * g

    def test_montecarlo_job_cap(self):
        """The validator's cap sin g at the montecarlo workload's point to an ulp; the cos form was 2.0e-11 off."""
        inp = DiscriminationInput(0.01, 0.5, 20, 10.0)
        bound = validate_bound_montecarlo(inp, samples=1, seed=1).bound
        exact = mp.sin(mp_chain(pe_lower_bound(inp), 20, 10.0)[0])
        assert abs(mp.mpf(bound) - exact) <= math.ulp(bound)
        assert abs(exact - mp.mpf("0.0172620958041701400")) <= mp.mpf(1e-19)


def mp_mu(k, m, t):
    """arccos(Re Tr V / 2) at 250 digits from the SU(2) half-trace cos(w t) cos(lambda t) + sin(w t) sin(lambda t) u.u_c.

    The phases reach 1e32 at the headline point and mu^2 ~ 1e-14 cancels against 1, so the digits are needed.
    """
    with mp.workdps(MISMATCH_DPS):
        k, m, t = mp.mpf(k), mp.mpf(m), mp.mpf(t)
        n = mp.sqrt(1 - m * m)
        w, lam = mp_omega(k, m), mp.sqrt(k * k + m * m)
        dot = (m * m + n * mp.sin(k) * k) / (mp.sin(w) * lam)
        half_trace = mp.cos(w * t) * mp.cos(lam * t) + mp.sin(w * t) * mp.sin(lam * t) * dot
        return 2 * mp.asin(mp.sqrt((1 - half_trace) / 2))


# The trace identity is good to a few ulp wherever its phases are well conditioned.  At the montecarlo job's
# k = 0.3, sigma t/2 = 3.0 lies 0.14 from pi, where sin is 21 times as sensitive, relatively, as its argument:
# the half-ulp rounding of that phase alone is then 10 ulp of mu, and the identity is 13.3 ulp off there
MU_ULPS = 16.0


class TestMuOracle:
    """mu against 250 digits; the SU(2) product form was 1.7e4 ulp off at the first point and 100% off at the last four."""

    @pytest.mark.parametrize(
        "k, m, t",
        [
            (0.3, 0.01, 10.0),  # the montecarlo job's (m, t)
            (0.5, 0.6, 3.0),
            (0.7, 0.45, 3.3),
            (2.5, 0.3, 7.3),  # beyond k = pi/2
            (1e-8, 1e-19, 1e40),  # the headline point, at k_bar
            (7.3e-9, 1e-19, 1e40),
            (1e-5, 1e-10, 1e20),  # the point where validate-bound reported a false violation, at k_bar
        ],
    )
    def test_pins(self, k, m, t):
        exact = mp_mu(k, m, t)
        assert abs(mp.mpf(mu(k, m, t)) - exact) <= MU_ULPS * math.ulp(float(exact))


# omega against arccos(n cos k) at 250 digits: at k, m ~ 1e-19 the argument is 1 - O(1e-38), and a
# 50-digit arccos of it is itself about 100 ulp off
OMEGA_ULPS = 3.0


def _omega_ulps(k, m):
    """|omega(k, m) - arccos(n cos k)| in ulps of the exact value."""
    with mp.workdps(MISMATCH_DPS):
        exact = mp_omega(k, m)
        return float(abs(mp.mpf(omega(k, m)) - exact) / math.ulp(float(exact)))


class TestOmegaOracle:
    """omega to within ``OMEGA_ULPS`` everywhere in the zone, where an arcsine or arccos form is ill-conditioned too."""

    @pytest.mark.parametrize("m", [0.0, 1e-19, 1e-12, 1e-10, 1e-8])
    def test_next_to_pi_at_tiny_mass(self, m):
        ks = [s * (math.pi - d) for d in (0.0, 1e-16, 1e-12, 1e-10, 1e-9, 3e-9, 1e-8) for s in (-1.0, 1.0)]
        assert max(_omega_ulps(k, m) for k in ks) <= OMEGA_ULPS

    def test_massless_is_abs_k(self):
        ks = np.concatenate([np.linspace(-math.pi, math.pi, 401), [10.0 ** -e for e in range(1, 20)], [math.pi]])
        assert np.all(np.abs(omega(ks, 0.0) - np.abs(ks)) <= np.spacing(np.abs(ks)))

    @pytest.mark.xfail(
        reason="ROADMAP item 8: sin^2 k in _mode leaves the normal double range below |k| ~ 1.5e-154, "
               "so omega(1e-160, 0) is 5.6e-6 relative off and omega(1e-163, 0) is 0.0",
        strict=True,
    )
    @pytest.mark.parametrize("k", [1e-160, 1e-163])
    def test_massless_is_abs_k_below_the_normal_square(self, k):
        assert abs(omega(k, 0.0) - k) <= math.ulp(k)

    @pytest.mark.parametrize("m", [0.9998, 1.0 - 1e-7, 1.0 - 1e-12, float(np.nextafter(1.0, 0.0)), 1.0])
    def test_near_unit_mass(self, m):
        assert max(_omega_ulps(float(k), m) for k in np.linspace(-math.pi, math.pi, 41)) <= OMEGA_ULPS

    def test_down_to_1e_19(self):
        points = [(10.0 ** -a, 10.0 ** -b) for a in range(8, 20) for b in range(8, 20)]
        assert max(_omega_ulps(k, m) for k, m in points) <= OMEGA_ULPS

    def test_log_uniform_sweep(self):
        assert max(_omega_ulps(k, m) for k, m in _sweep_points()) <= OMEGA_ULPS


@pytest.mark.parametrize("m", [0.9998, 1.0 - 1e-7, 1.0 - 1e-12])
def test_velocity_and_diffusion_near_unit_mass(m):
    """v = n sin k / sin w and D = n m^2 cos k / sin^3 w to 1e-15, where 1 - m^2 would cancel in n."""
    for k in (0.0, 1e-8, 0.3, 1.0, 2.0, 3.0):
        v, d, _ = derivatives(k, m)
        with mp.workdps(MISMATCH_DPS):
            k_, m_ = mp.mpf(k), mp.mpf(m)
            n, sw = mp.sqrt(1 - m_ * m_), mp.sqrt(mp.sin(k_) ** 2 + (m_ * mp.cos(k_)) ** 2)
            exact_v, exact_d = n * mp.sin(k_) / sw, n * m_ * m_ * mp.cos(k_) / sw ** 3
            assert abs(v - exact_v) <= 1e-15 * abs(exact_v)
            assert abs(d - exact_d) <= 1e-15 * abs(exact_d)


def _mp_evolve(ks, m, t, modes):
    """U(k)^t psi per mode at 40 digits, U^t = cos(w t) I - i sin(w t) u.sigma with u = (m, 0, -n sin k) / sin w."""
    with mp.workdps(40):
        m_, t_ = mp.mpf(m), mp.mpf(t)
        n = mp.sqrt(1 - m_ * m_)
        out = []
        for k, (r, l) in zip(ks, modes):
            k_ = mp.mpf(float(k))
            w = mp.acos(n * mp.cos(k_))
            c, s = mp.cos(w * t_), mp.sin(w * t_) / mp.sin(w)
            a, b = mp.mpc(c, n * mp.sin(k_) * s), mp.mpc(0, -m_ * s)
            r, l = mp.mpc(r.real, r.imag), mp.mpc(l.real, l.imag)
            out.append((complex(a * r + b * l), complex(b * r + mp.conj(a) * l)))
        return np.array(out)


# The phase w t of a mode is off by t times omega's error (``OMEGA_ULPS`` ulp, and omega <= pi) plus the
# rounding of the product (half an ulp of it), so a unit mode's error is at most 3.5 ulp(pi) t ~ 1.6e-15 t
# and terms that do not grow with t; the half-angle arcsine form was off by 7.6e-15 t at m = 0.01
PHASE_ERROR_PER_STEP = (OMEGA_ULPS + 0.5) * math.ulp(math.pi)


@pytest.mark.parametrize("t", [1e4, 1e6])
@pytest.mark.parametrize("m", [0.01, 0.6, 0.92])
def test_long_time_phase(m, t):
    rng = np.random.default_rng(6)
    modes = rng.standard_normal((64, 2)) + 1j * rng.standard_normal((64, 2))
    modes /= np.linalg.norm(modes, axis=1, keepdims=True)  # unit modes, k = -pi included
    spectrum = ModeSpectrum(modes)
    got = evolve_momentum(spectrum, AutomatonParams(m), t).modes
    assert np.max(np.abs(got - _mp_evolve(spectrum.ks, m, t, modes))) <= PHASE_ERROR_PER_STEP * t


# -- alpha and beta are nondecreasing in k, so extremal_alpha_beta reads only k = 0 and k = k_bar --------------------

SLOPE_DPS = 50
# the smallest alpha'/(k m^2) and (theta - theta_c)'/m on the property's grid are 0.18555 (in the m -> 0 limit, at
# k ~ 1.39) and 0.0919998 (m = 1, k -> pi, where it is 1/(1 + k^2))
ALPHA_SLOPE_FLOOR = 0.185
ANGLE_SLOPE_FLOOR = 0.0919


def mp_slopes(k, m):
    """(alpha', (theta - theta_c)') at (k, m) by their closed forms, at ``SLOPE_DPS`` digits.

    alpha' = v_c - v is the velocity gap.  theta = atan2(m, n sin k) and theta_c = atan2(m, k) are the angles with
    cos theta = v and cos theta_c = v_c, and beta = 2 sin^2((theta - theta_c)/2).
    """
    with mp.workdps(SLOPE_DPS):
        k, m = mp.mpf(k), mp.mpf(m)
        n = mp.sqrt(1 - m * m)
        sw2 = m * m + (n * mp.sin(k)) ** 2  # sin^2 omega, free of cancellation
        lam2 = k * k + m * m
        gap = k / mp.sqrt(lam2) - n * mp.sin(k) / mp.sqrt(sw2)
        return gap, m * (sw2 - n * lam2 * mp.cos(k)) / (lam2 * sw2)


class TestEndpointExtremality:
    """alpha and beta rise with k on (0, pi): the argument of ``discrimination``'s module docstring, checked."""

    MASSES = [1e-19, *np.logspace(-12.0, 0.0, 41)]  # the proton scale, then 41 masses over [1e-12, 1]
    MOMENTA = np.logspace(-10.0, math.log10(3.14159), 120)

    @pytest.mark.parametrize("k,m", [(1e-3, 1e-4), (0.5, 0.3), (2.0, 0.7), (3.1, 1.0)])
    def test_closed_forms_are_the_derivatives(self, k, m):
        with mp.workdps(SLOPE_DPS):
            k_, m_ = mp.mpf(k), mp.mpf(m)
            n = mp.sqrt(1 - m_ * m_)

            def angle(x):  # theta - theta_c
                return mp.atan2(m_, n * mp.sin(x)) - mp.atan2(m_, x)

            pairs = [  # pytest.approx would round mpf values to doubles
                (mp.diff(lambda x: mp.sqrt(x * x + m_ * m_) - mp_omega(x, m_), k_), mp_slopes(k, m)[0]),
                (mp.diff(angle, k_), mp_slopes(k, m)[1]),
                (2 * mp.sin(angle(k_) / 2) ** 2, mp_beta(k, m)),
            ]
            for value, closed_form in pairs:
                assert abs(value / closed_form - 1) <= mp.mpf("1e-25")

    def test_both_slopes_are_positive_over_the_zone(self):
        alpha_ratio = angle_ratio = math.inf
        for m in self.MASSES:
            for k in self.MOMENTA:
                alpha_slope, angle_slope = mp_slopes(k, m)
                alpha_ratio = min(alpha_ratio, float(alpha_slope / (mp.mpf(k) * mp.mpf(m) ** 2)))
                angle_ratio = min(angle_ratio, float(angle_slope / m))
        assert alpha_ratio >= ALPHA_SLOPE_FLOOR
        assert angle_ratio >= ANGLE_SLOPE_FLOOR

    def test_slopes_near_the_origin(self):
        import sympy as sp

        a, b, eps = sp.symbols("a b epsilon", positive=True)
        k, m = eps * a, eps * b  # k, m -> 0 along a ray
        n = sp.sqrt(1 - m ** 2)
        sw2, lam2 = m ** 2 + (n * sp.sin(k)) ** 2, k ** 2 + m ** 2
        lam = eps * sp.sqrt(a ** 2 + b ** 2)
        alpha_slope = a / sp.sqrt(a ** 2 + b ** 2) - n * sp.sin(k) / sp.sqrt(sw2)
        angle_slope = m * (sw2 - n * lam2 * sp.cos(k)) / (lam2 * sw2)
        # both leading terms are the whole series to one order past them: the next order is 0
        alpha_lead = k * m ** 2 * (k ** 2 + 3 * m ** 2) / (6 * lam ** 3)  # of order eps^2
        angle_lead = m * (k ** 4 + 3 * m ** 4) / (6 * lam ** 4)  # of order eps
        assert sp.simplify(sp.series(alpha_slope, eps, 0, 4).removeO() - alpha_lead) == 0
        assert sp.simplify(sp.series(angle_slope, eps, 0, 3).removeO() - angle_lead) == 0


@pytest.mark.xfail(
    reason="ROADMAP item 8: below pi/2 alpha is 2 asin(b / (4 sin(sigma/2))), with b = m^2 (...) ~ 2 alpha sin(sigma/2); "
           "where b leaves the normal double range, alpha keeps few digits though alpha_bar is a normal double",
    raises=AssertionError,
    strict=True,
)
def test_extremal_alpha_where_the_identity_product_is_subnormal():
    # 77% off at (3e-136, 1.7e-81), where b(0) ~ m^4/3, and 26% off at (1.6e-66, 2.8e-96), where b(k_bar) ~ m^2 k^2
    for k_bar, m in [(3e-136, 1.7e-81), (1.6e-66, 2.8e-96)]:
        with mp.workdps(700):  # lambda - omega cancels 192 digits here, and acos(n cos k) 132 more
            k_, m_ = mp.mpf(k_bar), mp.mpf(m)
            exact = max(abs(mp.sqrt(k_ * k_ + m_ * m_) - mp_omega(k_, m_)), abs(m_ - mp.asin(m_)))
            assert abs(extremal_alpha_beta(k_bar, m)[0] / exact - 1) <= 1e-14


@pytest.mark.xfail(
    reason="ROADMAP item 4: t_general = 6 sigma_hat lambda^3/(m^2 k^2 (2 m^2 + k)) is sigma_hat/|v_c - v| only "
           "for m << k",
    raises=AssertionError,
    strict=True,
)
def test_flytime_separation_is_the_velocity_gap_time():
    # t_general / (sigma_hat/|v_c - v|) is 1.0000032, 3.99 and 1.66 at these points
    for m, k in [(1e-6, 1e-3), (1e-3, 1e-3), (0.3, 0.5)]:
        t_general = separation_time(FlytimeInput(m, k, 1.0)).t_general
        assert t_general == pytest.approx(float(1 / abs(mp_slopes(k, m)[0])), rel=1e-12)
