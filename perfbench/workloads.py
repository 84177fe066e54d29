"""Seeded job lists for the three benchmark workloads.

A job is the argument list of one ``dirac-qca`` CLI call, without
``--out-dir`` (the harness adds one directory per job).  Everything a job
varies is drawn from ``random.Random(seed)``, so the same seed gives the same
job list, and the program only ever sees the generated arguments.
"""

from __future__ import annotations

import math
import random

WHY = {
    "propagate": (
        "automaton position path (fig2 localized, t up to 1e4), the 65536-site FFT path with "
        "65536-row density CSVs, and fig4 evolve/compare with SVG emission"
    ),
    "spectrum-scan": (
        "many short jobs on the scalar-call paths: fig3 dispersion at 4096 points, symcheck, and "
        "20 discriminate --solve-tmin plus 20 flytime across every alpha/beta series regime"
    ),
    "montecarlo": (
        "one validate-bound job, 20000 samples at N_bar = 20: discrimination.mu in vectorized "
        "form and the validator's peak memory"
    ),
}

SCAN_DRAWS = 20


def _f(x: float) -> str:
    return repr(float(x))


def _log_strata(rng: random.Random, lo: float, hi: float, count: int) -> list:
    """One log-uniform draw per equal-width stratum of [log lo, log hi], shuffled.

    Stratifying keeps every seed spread over the whole range, so each seed
    reaches every series regime and the per-pass work barely depends on it.
    """
    span = math.log(hi / lo)
    draws = [lo * math.exp(span * (i + rng.random()) / count) for i in range(count)]
    rng.shuffle(draws)
    return draws


def _propagate(rng: random.Random) -> list:
    x0 = rng.randrange(16384, 49152)  # keeps the packet 12000+ sites from the wrap point
    k0 = rng.uniform(0.1, 0.6) * math.pi
    return [
        ["evolve", "--preset", "fig2", "--times", "0,2500,5000,7500,10000"],
        ["evolve", "--L", "65536", "--x0", str(x0), "--k0", _f(k0), "--times", "0,1000,2000,4000"],
        ["evolve", "--preset", "fig4", "--svg"],
        ["compare", "--preset", "fig4", "--svg"],
    ]


def _spectrum_scan(rng: random.Random) -> list:
    masses = _log_strata(rng, 1e-19, 0.5, SCAN_DRAWS)
    kbars = _log_strata(rng, 1e-8, 2.5, SCAN_DRAWS)
    times = _log_strata(rng, 1.0, 1e12, SCAN_DRAWS)
    widths = _log_strata(rng, 1.0, 1e6, SCAN_DRAWS)
    nbars = [rng.randint(1, 64) for _ in range(SCAN_DRAWS)]
    jobs = [
        ["dispersion", "--preset", "fig3", "--samples", "4096", "--svg"],
        ["symcheck", "--k-samples", "4096"],
    ]
    for m, kbar, nbar, t in zip(masses, kbars, nbars, times):
        jobs.append(
            ["discriminate", "--m", _f(m), "--kbar", _f(kbar), "--nbar", str(nbar), "--t", _f(t), "--solve-tmin"]
        )
    for m, kbar, width in zip(masses, kbars, widths):
        jobs.append(["flytime", "--m", _f(m), "--k", _f(kbar), "--sigma-hat", _f(width)])
    return jobs


def _montecarlo(rng: random.Random) -> list:
    return [
        [
            "validate-bound", "--m", "0.01", "--kbar", "0.5", "--nbar", "20", "--t", "10",
            "--samples", "20000", "--workers", "2", "--seed", str(rng.randrange(1, 2**31)),
        ]
    ]


GENERATORS = {"propagate": _propagate, "spectrum-scan": _spectrum_scan, "montecarlo": _montecarlo}


def jobs(workload: str, seed: int) -> list:
    """The job list of one pass of ``workload`` for benchmark seed ``seed``."""
    return GENERATORS[workload](random.Random(f"{workload}:{seed}"))
