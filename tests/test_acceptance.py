"""Acceptance suite: one test (or parametrized family) per release criterion,
each printing a PASS/FAIL line (run pytest with -s to see them).

Criterion 4's overlap envelope is kept verbatim even though it cannot hold
for the two heavier masses: the exact deviation at k = 0 is arcsin(m) - m,
and (arcsin(m) - m)/(0.2 m^2 sqrt(k^2 + m^2)) evaluates to 1.007 at m = 0.6
and 1.498 at m = 0.9, so the 0.2 m^2 omega_D envelope is exceeded no matter
how the k <= 0.1 grid is chosen.  Those two cases are marked strict-xfail:
the assertion is unweakened and a pass would flag the suite.
"""

import math
import warnings

import numpy as np
import pytest

from dirac_qca import (
    AutomatonParams,
    DiscriminationInput,
    accuracy_bound,
    derivatives,
    dirac_omega,
    evolve_momentum,
    evolve_position,
    extremal_alpha_beta,
    fidelity,
    inverse_transform,
    localized,
    mu,
    omega,
    pe_lower_bound,
    schrodinger_evolve,
    symmetry_check,
    t_min_approx,
    transform,
    validate_bound_montecarlo,
)
from dirac_qca.constants import PLANCK_TIME_SECONDS
from dirac_qca.discrimination import BOUND_REL_TOL
from dirac_qca.wavepacket import WavepacketSpec, build, position_moments

from conftest import FIG4_X0, alpha_beta, dispersion_correction


def report(name, ok, detail=""):
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    return ok


class TestCriterion1Drift:
    def test_drift_coefficient(self):
        v, d, _ = derivatives(3 * np.pi / 10, 0.6)
        ok = abs(v - 0.73) <= 0.005
        # D asserted against its 60-digit finite-difference value (mp.diff)
        assert d == pytest.approx(0.24626392458969030, abs=1e-12)
        # the often-quoted companion diffusion value 0.31 disagrees with the
        # closed form and with finite differences; flag it once, loudly
        warnings.warn(
            "diffusion coefficient at (k=3pi/10, m=0.6) is 0.2463 from the closed form "
            "and finite differences; the often-quoted companion value 0.31 is "
            "inconsistent with the dispersion and is not asserted",
            stacklevel=1,
        )
        assert report("1 drift coefficient v(3pi/10, 0.6) = 0.73 +- 0.005", ok, f"v={v:.6f}")


class TestCriterion2Fig4:
    def test_packet_reproduction(self, fig4_state):
        spec, params, field, spectrum = fig4_state
        v = derivatives(spec.k0, params.m).v
        sigma = 3.0 / spec.sigma_hat

        # (a) the density centroid rides at the drift velocity.  The literal
        # argmax is ill-posed for this packet: its profile has twin humps of
        # near-equal height ~15 sites either side of x0, and the argmax hops
        # between them as the relative phase turns (30-site jumps), while the
        # centroid stays within half a site of x0 + v t.
        centroid_ok = True
        details = []
        for t in (100.0, 200.0):
            state = inverse_transform(evolve_momentum(spectrum, params, t))
            mean_x, _ = position_moments(state.density())
            offset = mean_x - (FIG4_X0 + v * t)
            details.append(f"t={t:g}: centroid-(x0+vt)={offset:+.2f}")
            centroid_ok &= abs(offset) <= 3.0
        assert report("2a density centroid at x0 + v t (+-3 sites)", centroid_ok, "; ".join(details))

        # (b) measured fidelity clears the accuracy bound
        fidelity_ok = True
        fids = {}
        for t in (100.0, 200.0):
            exact = evolve_momentum(spectrum, params, t)
            approximate = schrodinger_evolve(spectrum, params, spec.k0, spec.s, t)
            fids[t] = fidelity(exact, approximate)
            floor = accuracy_bound(spectrum, params, spec.k0, sigma, t).bound
            fidelity_ok &= fids[t] >= floor
        assert report("2b fidelity >= accuracy bound at t in {100, 200}", fidelity_ok)

        # (c) dephasing accumulates: fidelity at 600 strictly below 200
        exact = evolve_momentum(spectrum, params, 600.0)
        approximate = schrodinger_evolve(spectrum, params, spec.k0, spec.s, 600.0)
        fid600 = fidelity(exact, approximate)
        ok = fid600 < fids[200.0]
        assert report("2c fidelity(600) < fidelity(200)", ok, f"{fid600:.6f} < {fids[200.0]:.6f}")


class TestCriterion3LightCone:
    def test_strict_light_cone(self):
        L, x0 = 128, 30
        state = localized(x0, np.array([1.0, 1.0]) / math.sqrt(2.0), L)
        params = AutomatonParams(0.92)
        ok = True
        for t in range(61):
            evolved = evolve_position(state, params, t)
            allowed = {(x0 + d) % L for d in range(-t, t + 1)}
            outside = np.array([x not in allowed for x in range(L)])
            ok &= bool(np.all(evolved.sites[outside] == 0.0))
            ok &= abs(evolved.norm() - 1.0) <= 1e-10
        assert report("3 light cone exact zeros outside [30-t, 30+t], t <= 60", ok)


class TestCriterion4DispersionOverlap:
    K_GRID = np.linspace(-0.1, 0.1, 41)

    def test_massless_dispersions_identical(self):
        residual = max(abs(omega(k, 0.0) - dirac_omega(k, 0.0)) for k in self.K_GRID)
        assert report("4 massless dispersions identical (1e-14)", residual <= 1e-14, f"max={residual:.2e}")

    @pytest.mark.parametrize(
        "m",
        [
            0.3,
            pytest.param(0.6, marks=pytest.mark.xfail(
                reason="exact k=0 deviation arcsin(m)-m exceeds the 0.2 m^2 omega_D envelope "
                       "by 0.7% at m=0.6 (see module docstring)", strict=True)),
            pytest.param(0.9, marks=pytest.mark.xfail(
                reason="exact k=0 deviation arcsin(m)-m exceeds the 0.2 m^2 omega_D envelope "
                       "by 50% at m=0.9 (see module docstring)", strict=True)),
        ],
    )
    def test_overlap_envelope(self, m):
        ratio = max(
            abs(omega(k, m) - dirac_omega(k, m)) / (m * m * dirac_omega(k, m)) for k in self.K_GRID
        )
        report(f"4 overlap envelope |w - w_D| <= 0.2 m^2 w_D at m={m}", ratio <= 0.2, f"max ratio={ratio:.4f}")
        assert ratio <= 0.2


class TestCriterion5CorrectionOrder:
    def test_fifth_order_shrinkage(self):
        k, m = 0.2, 0.1
        residuals = [abs(dispersion_correction(lam * k, lam * m)[1]) for lam in (1.0, 0.5, 0.25)]
        ratios = (residuals[0] / residuals[1], residuals[1] / residuals[2])
        ok = ratios[0] >= 16.0 and ratios[1] >= 16.0
        assert report("5 correction residual shrinks >= 2^4 per halving", ok,
                      f"ratios={ratios[0]:.1f}, {ratios[1]:.1f}")


class TestCriterion6DiscriminationHeadline:
    def test_t_min(self):
        t = t_min_approx(1e-19, 1e-8, 1)
        exact_expression = 3.0 * math.pi / (1e-19 * 1e-19 * 1e-8 * 1)
        seconds = t * PLANCK_TIME_SECONDS
        ok = t == exact_expression and abs(t - 3e46 * math.pi) <= 1e-12 * t and 1e3 <= seconds <= 1e4
        assert report("6 t_min(1e-19, 1e-8, 1) = 3pi x 10^46, ~10^3 s", ok,
                      f"t={t:.6e}, {seconds:.0f} s")


class TestCriterion7FlytimeHeadline:
    def test_separation_time(self):
        from dirac_qca import FlytimeInput, separation_time

        times = separation_time(FlytimeInput(m=1e-19, k=1e-8, sigma_hat=1e22))
        seconds = times.t_relativistic * PLANCK_TIME_SECONDS
        ok = abs(times.t_relativistic - 6e60) <= 1e-12 * 6e60 and 1e16 <= seconds <= 1e18
        assert report("7 t_relativistic = 6 x 10^60 Planck times, ~10^17 s", ok,
                      f"t={times.t_relativistic:.3e}, {seconds:.2e} s")


class TestCriterion8InequalitySuite:
    def test_per_mode_angle_inequality(self):
        worst = 0.0
        ks = np.linspace(-3.0, 3.0, 32)
        for m in np.linspace(0.1, 0.9, 8):
            a, b = np.array([alpha_beta(k, m) for k in ks]).T
            for t in np.linspace(0.0, 10.0, 16):
                slack = np.cos(mu(ks, m, t)) - (np.cos(a * t) - b)
                worst = min(worst, float(slack.min()))
        assert report("8 per-mode angle inequality slack >= -1e-10", worst >= -1e-10, f"worst={worst:.2e}")

    def test_mismatch_monotonicity(self):
        ks = np.linspace(0.0, np.pi - 1e-3, 256)
        worst = 0.0
        for m in np.linspace(0.1, 0.9, 9):
            alphas = np.array([alpha_beta(k, m)[0] for k in ks])
            betas = np.array([alpha_beta(k, m)[1] for k in ks])
            # and the consequence used downstream: no grid value beats the endpoint values
            alpha_bar, beta_bar = extremal_alpha_beta(ks[-1], m)
            worst = min(worst, float(np.diff(alphas).min()), float(np.diff(betas).min()),
                        alpha_bar - float(np.abs(alphas).max()), beta_bar - float(betas.max()))
        assert report("8 mismatch monotonicity slack >= -1e-10", worst >= -1e-10, f"worst={worst:.2e}")

    def test_angle_cap_sandwich(self):
        ok = True
        for m, k_bar, n_bar in ((0.3, 0.8, 2), (0.6, 0.5, 1)):
            alpha_bar, beta_bar = extremal_alpha_beta(k_bar, m)
            f = math.acos(math.cos(math.pi / (2 * n_bar)) + beta_bar) / alpha_bar
            t = 0.9 * f
            g = pe_lower_bound(DiscriminationInput(m=m, k_bar=k_bar, N_bar=n_bar, t=t)).g
            ok &= g <= math.pi / 2 + 1e-12
            ok &= all(n_bar * mu(k, m, t) <= g + 1e-10 for k in np.linspace(0.0, k_bar, 64))
        assert report("8 angle-cap sandwich N mu <= g <= pi/2", ok)

    @pytest.mark.parametrize("n_bar", [1, 2])
    def test_monte_carlo_proposition(self, n_bar):
        m, k_bar = 0.3, 0.8
        alpha_bar, beta_bar = extremal_alpha_beta(k_bar, m)
        f = math.acos(math.cos(math.pi / (2 * n_bar)) + beta_bar) / alpha_bar
        inp = DiscriminationInput(m=m, k_bar=k_bar, N_bar=n_bar, t=0.8 * f)
        mc = validate_bound_montecarlo(inp, samples=10_000, seed=42)
        ok = mc.max_observed <= mc.bound * (1.0 + BOUND_REL_TOL)
        assert report(f"8 monte-carlo proposition (N_bar={n_bar}, 1e4 samples, seed 42)", ok,
                      f"max={mc.max_observed:.6f} <= bound={mc.bound:.6f}")


class TestCriterion9BackendEquivalence:
    @pytest.mark.parametrize("m", [0.0, 0.6, 1.0])
    def test_position_vs_momentum(self, m):
        L, t = 256, 100
        params = AutomatonParams(m)
        spec = WavepacketSpec(k0=0.3 * np.pi, sigma_hat=12.0, x0=L / 2)
        field = inverse_transform(build(spec, params, L))
        via_position = evolve_position(field, params, t)
        via_momentum = inverse_transform(evolve_momentum(transform(field), params, float(t)))
        residual = float(np.max(np.abs(via_position.sites - via_momentum.sites)))
        assert report(f"9 backend equivalence m={m} (1e-10/amplitude)", residual <= 1e-10,
                      f"max={residual:.2e}")


class TestCriterion10SymmetrySuite:
    def test_identities_on_grid(self):
        worst = 0.0
        for m in np.linspace(0.0, 1.0, 32):
            rep = symmetry_check(AutomatonParams(float(m)), np.linspace(-np.pi, np.pi, 64))
            worst = max(worst, rep.max_residual)
        assert report("10 parity/time-reversal/unitarity residual <= 1e-14", worst <= 1e-14,
                      f"max={worst:.2e}")
