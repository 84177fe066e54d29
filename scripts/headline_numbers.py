#!/usr/bin/env python3
"""Print the headline quantities at proton scale (m = 1e-19, k = 1e-8).

- drift and diffusion coefficients of the reference Hermite packet point;
- minimum perfect-discrimination time (~3pi x 10^46 Planck times ~ 10^3 s);
- the trace-distance cap sin g at t = 1e40 and how close the supremum of
  ``validate-bound``'s sampled states comes to it (tightness = sup / cap);
- flying-time separation (~6 x 10^60 Planck times ~ 10^17 s) and visibility.
"""
import math

from dirac_qca import (
    DiscriminationInput,
    FlytimeInput,
    derivatives,
    separation_time,
    t_min_approx,
    t_min_exact,
    validate_bound_montecarlo,
    visibility_report,
)
from dirac_qca.constants import planck_times_to_seconds


def main():
    v, d, w3 = derivatives(3 * math.pi / 10, 0.6)
    print(f"packet point (k0=3pi/10, m=0.6): v = {v:.4f}, D = {d:.4f}, omega''' = {w3:.4f}")
    print("  (note: the widely quoted companion value D = 0.31 disagrees with the")
    print("   closed form and with finite differences; 0.2463 is correct)")

    m, k = 1e-19, 1e-8
    t_apx = t_min_approx(m, k, 1)
    t_exc = t_min_exact(m, k, 1)
    print(f"t_min({m:g}, {k:g}, 1): approx = {t_apx:.4e} Planck times "
          f"({planck_times_to_seconds(t_apx):.0f} s), exact = {t_exc:.4e}")
    mc = validate_bound_montecarlo(DiscriminationInput(m, k, 1, 1e40), samples=1000, seed=0)
    print(f"trace-distance cap at t = 1e40: sin g = {mc.bound:.10e}, sup = {mc.sup:.10e} at k* = {mc.k_star:.4g}, "
          f"tightness = {mc.tightness:.6f}")

    inp = FlytimeInput(m=m, k=k, sigma_hat=1e22)
    times = separation_time(inp)
    report = visibility_report(inp)
    print(f"flying time (sigma_hat = 1e22): t_rel = {times.t_relativistic:.3e} Planck times "
          f"({report.t_seconds:.2e} s)")
    print(f"  visibility ratio sigma_hat / broadening = {report.visibility_ratio:.3g}"
          + ("  [flagged: separation not visible]" if report.low_visibility else ""))
    print("  (the visibility threshold scales as sigma_hat ~ 3 k^-3 = 3e24 Planck lengths here)")


if __name__ == "__main__":
    main()
