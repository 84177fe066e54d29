"""Distinguishability bounds between the lattice step and continuum evolution.

For one momentum mode the two finite-time unitaries are SU(2) matrices, both
taken from the closed form ``dispersion.su2_power``, so their relative
rotation V(k, t) = U_cont^t U_latt^{t,dagger} has eigenphases exp(+-i mu)
with cos(mu) = Re Tr V / 2.  The per-mode angle obeys

    cos(mu(k, m, t)) >= cos(alpha t) - beta
    alpha = omega_cont - omega_latt
    beta  = 1 - v v_c - sqrt((1 - v^2)(1 - v_c^2))

(the trace identity is cos mu = (1 - beta/2) cos(alpha t) + (beta/2)
cos((omega_latt + omega_cont) t), which makes the inequality immediate).
With momentum capped at k_bar and particle number at N_bar, the extremal
values alpha_bar, beta_bar over {0, k_bar} give

    g = N_bar * arccos(cos(alpha_bar t) - beta_bar)

and, while beta_bar <= 1 - cos(pi / 2 N_bar) and t <= f (the time cap that
keeps g <= pi/2), every admissible state has trace distance at most
sqrt(1 - cos^2 g), hence error probability at least (1 - sin g)/2 for the
equal-prior guess between the two dynamics.

alpha and beta vanish in the deep sub-Planckian regime (alpha ~ 1e-47 at
proton scale), where their defining differences cancel, so both are built from
pieces that do not: alpha from one identity on each side of k = pi/2, beta as
|u - u_c|^2 / 2 = hypot(d, d (u_x + u_x^c)/(v + v_c))^2 / 2 over the two rotation
axes, with d = u_x - u_x^c.  See ``_alpha`` and ``_beta``.
"""

from __future__ import annotations

import math
import numbers
import os
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .dispersion import _check_mass, _check_time, _mode, _over, dirac_axis, dirac_omega, lattice_axis, omega, su2_power
from .errors import BoundViolationError, MonotonicityError, UnitarityLossError

__all__ = [
    "DiscriminationInput",
    "DiscriminationReport",
    "MonteCarloReport",
    "mu",
    "alpha_beta",
    "extremal_alpha_beta",
    "pe_lower_bound",
    "t_min_approx",
    "t_min_exact",
    "validate_bound_montecarlo",
]

MU_CLAMP_TOL = 1e-9
GRID_POINTS = 256  # monotonicity grid of extremal_alpha_beta
MONOTONE_REL_TOL = 1e-12  # slack of that grid check, relative to the endpoint values
T_MIN_REL_TOL = 1e-9  # relative bracket width at which t_min_exact stops bisecting
MC_BLOCK = 1024  # samples per Monte Carlo block at N_bar <= 20: fixes the stream layout, bounds memory
CONFIGS_PER_STATE = 8  # joint eigenmodes superposed in each Monte Carlo sample state
MC_BLOCK_DRAWS = MC_BLOCK * CONFIGS_PER_STATE * 20  # particle draws per block: fewer samples for N_bar > 20


def _check_k_bar(k_bar: float):
    if not 0.0 <= k_bar < math.pi:  # also rejects nan
        raise ValueError(f"momentum cap must lie in [0, pi), got {k_bar}")


def _check_caps(m: float, k_bar: float, n_bar: int):
    """The one check of the caps: 0 <= m <= 1, 0 <= k_bar < pi and N_bar a positive integer."""
    _check_mass(m)
    _check_k_bar(k_bar)
    if not (isinstance(n_bar, numbers.Integral) and n_bar >= 1):
        raise ValueError(f"particle cap must be a positive integer, got {n_bar!r}")


@dataclass(frozen=True)
class DiscriminationInput:
    """Physical caps and duration: mass, momentum cap, particle cap, time."""

    m: float
    k_bar: float
    N_bar: int
    t: float

    def __post_init__(self):
        _check_caps(self.m, self.k_bar, self.N_bar)
        _check_time(self.t)


@dataclass(frozen=True)
class DiscriminationReport:
    alpha_bar: float
    beta_bar: float
    f_limit: float
    hypotheses_ok: bool
    g: Optional[float] = None
    pe_lower: Optional[float] = None


def mu(k, m, t):
    """Relative rotation angle arccos(Re Tr V / 2) in [0, pi], vectorized in k.

    Both powers come from ``dispersion.su2_power`` as
    U^t = [[c + i vs, -i us], [-i us, c - i vs]], so V has the SU(2) shape
    [[V00, V01], [-conj(V01), conj(V00)]] and cos mu = Re V00 = Re Tr V / 2,
    sin mu = sqrt(Im(V00)^2 + |V01|^2).  The products are expanded into real
    arithmetic, in the order complex multiplication would take them.  mu is
    atan2(sin mu, cos mu): identical to the arccos of the half-trace but
    without the square-root noise floor of arccos near mu = 0, which matters
    when comparing against a vanishing bound.
    """
    _check_time(t)
    ca, vs, us = su2_power(*lattice_axis(k, m), t)
    cd, ws, xs = su2_power(*dirac_axis(k, m), t)
    cos_mu = cd * ca + ws * vs + xs * us
    if np.any(np.abs(cos_mu) > 1.0 + MU_CLAMP_TOL):
        raise UnitarityLossError(f"|Re Tr V / 2| = {float(np.max(np.abs(cos_mu)))} exceeds 1 beyond tolerance")
    sin_mu = np.sqrt((ws * ca - cd * vs) ** 2 + (xs * vs - ws * us) ** 2 + (cd * us - xs * ca) ** 2)
    result = np.arctan2(sin_mu, cos_mu)
    return result if result.ndim else float(result)


# -- stable alpha and beta ------------------------------------------------

# 1/19!, -1/17!, ..., 1/3!: (k - sin k)/k^3 as a polynomial in k^2, highest power first
_K_MINUS_SIN_SERIES = [(-1) ** j / math.factorial(2 * j + 3) for j in range(8, -1, -1)]
_PI_LOW = 1.2246467991473532e-16  # pi - math.pi: the part of pi that math.pi drops


def _k_minus_sin(k):
    """k - sin k to full relative precision: the series (Horner form) below |k| = 1, each side on its own k."""
    sides = [lambda k: k * (k * k) * np.polyval(_K_MINUS_SIN_SERIES, k * k), lambda k: k - np.sin(k)]
    return np.piecewise(k, [np.abs(k) < 1.0], sides)


def _one_minus_sinc(x):
    """1 - sin(x)/x for x >= 0, with the value 0 at x = 0."""
    return np.divide(_k_minus_sin(x), x, out=np.zeros_like(x), where=x > 0.0)


def _alpha(k, m):
    """omega_cont - omega_latt = lambda - omega, one cancellation-free identity per half-zone.

    Below k = pi/2: cos w - cos lambda = 2 sin((lambda + w)/2) sin(alpha/2) = (m^2/2) B,
        B = (4 sin^2(k/2) - m^2/(1+n))/(1+n) - [s(e) + (1 - s(e)) s(h)],  s(x) = 1 - sin(x)/x,
    with e = (lambda - k)/2 = m^2/(2(lambda + k)) and h = (lambda + k)/2, so h e = m^2/4.
    From pi/2 on, with kappa = pi - k, alpha = (lambda - k) + (w(kappa) - kappa) adds the
    nonnegative m^2/(lambda + k) and 2 asin(m^2 cos kappa / (2(1+n) sin((w(kappa) + kappa)/2))).
    Each identity is evaluated only on its own half.  m = 0 gives alpha = 0 exactly.
    """
    k = np.abs(np.asarray(k, dtype=float))
    m2 = m * m
    n1 = 1.0 + math.sqrt(1.0 - m2)

    def below(k):
        lam = dirac_omega(k, m)
        s_e = _one_minus_sinc(m2 / (2.0 * (lam + k)))
        s_h = _one_minus_sinc((lam + k) / 2.0)
        b = (4.0 * np.sin(k / 2.0) ** 2 - m2 / n1) / n1 - (s_e + (1.0 - s_e) * s_h)
        return 2.0 * np.arcsin(m2 * b / (4.0 * np.sin((lam + omega(k, m)) / 2.0)))

    def above(k):
        kappa = (math.pi - k) + _PI_LOW  # pi - k exactly, then rounded once
        w_kappa = omega(kappa, m)
        return m2 / (dirac_omega(k, m) + k) + 2.0 * np.arcsin(
            m2 * np.cos(kappa) / (2.0 * n1 * np.sin((w_kappa + kappa) / 2.0))
        )

    result = np.zeros_like(k) if m2 == 0.0 else np.piecewise(k, [k < math.pi / 2.0], [below, above])
    return result if result.ndim else float(result)


def _beta(k, m):
    """1 - v v_c - sqrt((1 - v^2)(1 - v_c^2)) = 1 - u.u_c, to full relative precision.

    For the unit axes u = (u_x, 0, -v), u_c = (u_x^c, 0, -v_c) of the lattice
    and continuum steps, v - v_c = -d (u_x + u_x^c)/(v + v_c) with d = u_x - u_x^c:

        beta = |u - u_c|^2 / 2 = hypot(d, d (u_x + u_x^c)/(v + v_c))^2 / 2,
        d = m (lambda - sin w)/(lambda sin w),
        lambda - sin w = [(k - sin k)(k + sin k) + m^2 sin^2 k]/(lambda + sin w),

    which adds only positive terms for 0 < |k| <= pi (v + v_c > 0 there).  hypot multiplies
    d in before dividing by v + v_c ~ k, so nothing under- or overflows at tiny k.
    beta(0) = 0; where sin w underflows to 0 (k and m below about 1e-162) beta is nan.
    """

    def positive(k):
        sk, _, _, sw, v = _mode(k, m)
        lam, v_c, u_xc = dirac_axis(k, m)
        gap = (_k_minus_sin(k) * (k + sk) + m * m * sk ** 2) / (lam + sw)  # lambda - sin w
        den = lam * sw  # 0 where sin w underflows: beta is undefined there, and nan
        d = np.divide(m * gap, den, out=np.full_like(k, math.nan), where=den > 0.0)
        return 0.5 * np.hypot(d, d * (_over(m, sw) + u_xc) / (v + v_c)) ** 2

    k = np.abs(np.asarray(k, dtype=float))
    result = np.piecewise(k, [k > 0.0], [positive])
    return result if result.ndim else float(result)


def alpha_beta(k: float, m: float) -> Tuple[float, float]:
    """Phase mismatch rate alpha and velocity mismatch beta for one momentum.

    alpha is signed (the lattice eigenphase can overtake the continuum one);
    beta >= 0 always, and beta = 0 exactly at k = 0 or m = 0.  Note: the
    inequality cos(mu) >= cos(alpha t) - beta holds with this beta; a halved
    variant breaks the trace identity and the inequality with it.  A scalar
    wrapper over the array forms ``_alpha`` (a half-angle identity below
    k = pi/2, the sum (lambda - k) + (k - omega) from pi/2 on) and ``_beta``.
    """
    if not abs(k) <= math.pi:  # also rejects nan
        raise ValueError(f"momentum must be finite with |k| <= pi, got {k}")
    _check_mass(m)
    if k == 0.0 and m == 0.0:
        raise ValueError("alpha/beta undefined at (k, m) = (0, 0)")
    return _alpha(k, m), _beta(k, m)


def extremal_alpha_beta(k_bar: float, m: float) -> Tuple[float, float]:
    """max |alpha| and max |beta| over [0, k_bar], realized on {0, k_bar}.

    The endpoint property follows from alpha and beta being nondecreasing in
    k on [0, pi); both facts are re-verified here on a ``GRID_POINTS`` grid,
    and a violation beyond ``MONOTONE_REL_TOL`` times the endpoint scale
    (max |alpha| and beta(k_bar)) raises :class:`MonotonicityError`.  (|alpha|
    itself is not monotone: alpha starts negative at k = 0 and crosses zero,
    but a monotone function still attains its extreme modulus at an endpoint.)
    """
    _check_k_bar(k_bar)
    _check_mass(m)
    ks = np.linspace(0.0, k_bar, GRID_POINTS)  # ks[-1] == k_bar exactly
    alphas, betas = _alpha(ks, m), _beta(ks, m)
    alpha_bar, beta_bar = max(abs(alphas[0]), abs(alphas[-1])), betas[-1]  # beta(0) = 0
    alpha_slack, beta_slack = MONOTONE_REL_TOL * alpha_bar, MONOTONE_REL_TOL * beta_bar
    # written so that a nan anywhere on the grid fails them
    if not (np.all(np.diff(alphas) >= -alpha_slack) and np.all(np.diff(betas) >= -beta_slack)):
        raise MonotonicityError(f"alpha/beta not finite and nondecreasing on [0, {k_bar}] at m = {m}")
    if not (np.max(np.abs(alphas)) <= alpha_bar + alpha_slack and np.max(betas) <= beta_bar + beta_slack):
        raise MonotonicityError("interior grid maximum exceeded the endpoint values")
    return float(alpha_bar), float(beta_bar)


def _time_cap(alpha_bar: float, beta_bar: float, n_bar: int) -> float:
    edge = math.cos(math.pi / (2.0 * n_bar)) + beta_bar
    if edge > 1.0:
        return 0.0  # hypotheses already broken
    if alpha_bar == 0.0:
        return math.inf
    return math.acos(edge) / alpha_bar


def pe_lower_bound(inp: DiscriminationInput) -> DiscriminationReport:
    """Error-probability floor for guessing lattice vs continuum dynamics.

    Outside the hypotheses (beta_bar too large, or t beyond the cap f) no
    bound is produced and ``hypotheses_ok`` is False.
    """
    alpha_bar, beta_bar = extremal_alpha_beta(inp.k_bar, inp.m)
    f = _time_cap(alpha_bar, beta_bar, inp.N_bar)
    hyp = beta_bar <= 1.0 - math.cos(math.pi / (2.0 * inp.N_bar)) and inp.t <= f
    if not hyp:
        return DiscriminationReport(alpha_bar=alpha_bar, beta_bar=beta_bar, f_limit=f, hypotheses_ok=False)
    g = inp.N_bar * math.acos(min(1.0, math.cos(alpha_bar * inp.t) - beta_bar))
    pe = 0.5 * (1.0 - math.sin(g))
    return DiscriminationReport(
        alpha_bar=alpha_bar, beta_bar=beta_bar, f_limit=f, hypotheses_ok=True, g=g, pe_lower=pe
    )


def t_min_approx(m: float, k_bar: float, n_bar: int) -> float:
    """Leading-order perfect-discrimination time 3 pi / (m^2 k_bar N_bar)."""
    _check_caps(m, k_bar, n_bar)
    if m == 0.0 or k_bar == 0.0:
        raise ValueError("need m > 0 and k_bar > 0")
    return 3.0 * math.pi / (m * m * k_bar * n_bar)


def t_min_exact(m: float, k_bar: float, n_bar: int) -> Optional[float]:
    """Root of g(t) = pi/2 inside the validity window, by bisection.

    Returns None when pi/2 is unreachable: either the beta_bar hypothesis
    fails outright or alpha_bar = 0 (identical dispersions up to roundoff).
    """
    _check_caps(m, k_bar, n_bar)
    if m == 0.0 or k_bar == 0.0:
        raise ValueError("need m > 0 and k_bar > 0")
    alpha_bar, beta_bar = extremal_alpha_beta(k_bar, m)
    if beta_bar > 1.0 - math.cos(math.pi / (2.0 * n_bar)) or alpha_bar == 0.0:
        return None

    def g_of(t: float) -> float:
        return n_bar * math.acos(max(-1.0, math.cos(alpha_bar * t) - beta_bar))

    # bracket: g is increasing up to t_dom, where its argument reaches -1
    t_dom = math.acos(max(-1.0, beta_bar - 1.0)) / alpha_bar
    lo, hi = 0.0, t_dom
    if g_of(hi) < math.pi / 2.0:
        return None
    while (hi - lo) > T_MIN_REL_TOL * hi:
        mid = 0.5 * (lo + hi)
        if g_of(mid) < math.pi / 2.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _pairwise_trace_distance(phases: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """sqrt(1 - |sum_c p_c e^{i phi_c}|^2) along the last axis.

    Uses the identity 1 - |sum p e^{i phi}|^2 = sum_{c,c'} 2 p_c p_c'
    sin^2((phi_c - phi_c')/2): a sum of nonnegative terms, so a state whose
    phases all coincide yields exactly zero instead of sqrt-of-roundoff.
    """
    delta = phases[..., :, None] - phases[..., None, :]
    weights = probs[..., :, None] * probs[..., None, :]
    squared = np.sum(2.0 * weights * np.sin(delta / 2.0) ** 2, axis=(-2, -1))
    return np.sqrt(squared)


@dataclass(frozen=True)
class MonteCarloReport:
    samples: int
    seed: int
    workers: int
    bound: float
    max_observed: float
    margin: float


def _draw_block(inp: DiscriminationInput, count: int, stream):
    """Phases and probabilities, each (count, CONFIGS_PER_STATE), of one block of states."""
    rng = np.random.default_rng(stream)
    c = CONFIGS_PER_STATE
    counts = rng.integers(1, inp.N_bar + 1, size=(count, c))
    momenta = rng.uniform(-inp.k_bar, inp.k_bar, size=(count, c, inp.N_bar))
    signs = rng.choice(np.array([-1.0, 1.0]), size=(count, c, inp.N_bar))
    amplitudes = rng.standard_normal((count, c)) + 1j * rng.standard_normal((count, c))
    mask = np.arange(inp.N_bar)[None, None, :] < counts[..., None]
    angles = np.zeros_like(momenta)
    angles[mask] = mu(momenta[mask], inp.m, inp.t)  # dropped particles keep angle 0
    phases = np.sum(signs * angles, axis=2)
    probs = np.abs(amplitudes) ** 2
    probs /= probs.sum(axis=1, keepdims=True)
    return phases, probs


def validate_bound_montecarlo(
    inp: DiscriminationInput,
    samples: int,
    seed: int,
    *,
    workers: int = 1,
) -> MonteCarloReport:
    """Sample admissible pure states and check none beats the trace-distance cap.

    Each sample state is a superposition of ``CONFIGS_PER_STATE`` joint
    eigenmodes with particle number uniform on {1..N_bar}, momenta uniform on
    [-k_bar, k_bar], branch signs uniform, and spherically drawn amplitudes.

    Samples are drawn in blocks of min(``MC_BLOCK``, ``MC_BLOCK_DRAWS`` //
    (``CONFIGS_PER_STATE`` N_bar)) samples, at least one, so a block holds
    at most ``MC_BLOCK_DRAWS`` particle draws whatever N_bar; block i draws
    from the i-th child of numpy's ``SeedSequence(seed).spawn(n_blocks)``,
    so results depend only on (seed, samples, N_bar).  ``workers`` only sets
    parallelism: the blocks run on min(workers, os.cpu_count(), n_blocks)
    threads (numpy releases the GIL in its loops), two blocks per thread at
    a time, so memory is bounded by workers x block whatever the sample
    count and N_bar.  Block maxima are reduced in block order; the first
    block with a sample exceeding the bound by more than 1e-9 raises
    :class:`BoundViolationError` -- that would falsify the analytic cap.
    """
    if samples < 1:
        raise ValueError(f"need samples >= 1, got {samples}")
    if workers < 1:
        raise ValueError(f"need workers >= 1, got {workers}")
    report = pe_lower_bound(inp)
    if not report.hypotheses_ok:
        raise ValueError("the analytic bound requires the time-cap hypotheses to hold")
    bound = math.sqrt(max(0.0, 1.0 - math.cos(report.g) ** 2))

    from concurrent.futures import ThreadPoolExecutor  # kept off the CLI import path

    block = min(MC_BLOCK, max(1, MC_BLOCK_DRAWS // (CONFIGS_PER_STATE * inp.N_bar)))
    n_blocks = -(-samples // block)
    threads = min(workers, os.cpu_count() or 1, n_blocks)

    def run_block(i: int) -> float:
        # SeedSequence(seed, spawn_key=(i,)) is spawn(n_blocks)[i], built lazily
        stream = np.random.SeedSequence(seed, spawn_key=(i,))
        count = min(block, samples - i * block)
        phases, probs = _draw_block(inp, count, stream)
        return float(_pairwise_trace_distance(phases, probs).max())

    max_observed = 0.0
    with ThreadPoolExecutor(max_workers=threads) as pool:
        # map blocks in batches of two per thread, so few are queued at once;
        # map cancels a batch's unstarted blocks when one of them raises
        for start in range(0, n_blocks, 2 * threads):
            for worst in pool.map(run_block, range(start, min(start + 2 * threads, n_blocks))):
                if worst > bound + 1e-9:
                    raise BoundViolationError(
                        f"sampled trace distance {worst} exceeds the analytic cap {bound}"
                    )
                max_observed = max(max_observed, worst)

    return MonteCarloReport(
        samples=samples,
        seed=seed,
        workers=workers,
        bound=bound,
        max_observed=max_observed,
        margin=bound - max_observed,
    )
