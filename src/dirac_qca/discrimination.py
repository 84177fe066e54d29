"""Distinguishability bounds between the lattice step and continuum evolution.

For one momentum mode the two finite-time unitaries are SU(2) rotations by omega t
and lambda t about axes u and u_c, so their relative rotation V(k, t) = U_cont^t
U_latt^{t,dagger} has eigenphases exp(+-i mu), cos(mu) = Re Tr V / 2.  With
u.u_c = 1 - beta and sigma = omega + lambda, the trace identity in convex half-angle form is

    sin^2(mu/2) = (1 - beta/2) sin^2(alpha t/2) + (beta/2) sin^2(sigma t/2) <= sin^2(alpha t/2) + beta/2
    alpha = lambda - omega   (lambda = omega_cont, omega = omega_latt)
    beta  = 1 - v v_c - sqrt((1 - v^2)(1 - v_c^2))

With momentum capped at k_bar and particle number at N_bar, the extremal
values alpha_bar, beta_bar over {0, k_bar} give

    g = 2 N_bar asin(sqrt(sin^2(alpha_bar t/2) + beta_bar/2))

and, while beta_bar/2 <= sin^2(pi / 4 N_bar) and t <= f, every admissible
state has trace distance at most sin g, hence error probability at least
(1 - sin g)/2 for the equal-prior guess between the two dynamics.  The time
cap f is the root of g(f) = pi/2, so it is also the perfect-discrimination
time ``t_min_exact``.  No cosine next to 1 is formed, so nothing cancels.

alpha and beta vanish in the deep sub-Planckian regime (alpha ~ 1e-47 at
proton scale), where their defining differences cancel, so both are built from
pieces that do not: alpha from one identity on each side of k = pi/2, beta as
|u - u_c|^2 / 2 = hypot(d, d (u_x + u_x^c)/(v + v_c))^2 / 2 over the two rotation
axes, with d = u_x - u_x^c.  One kernel, ``_alpha_beta``, computes both, and sigma for ``mu``.
"""

from __future__ import annotations

import math
import numbers
import os
import sys
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .dispersion import _angle, _check_mass, _check_time, _mode, _n, _over, dirac_axis
from .errors import BoundViolationError, MonotonicityError

__all__ = [
    "DiscriminationInput",
    "DiscriminationReport",
    "MonteCarloReport",
    "mu",
    "extremal_alpha_beta",
    "pe_lower_bound",
    "t_min_approx",
    "t_min_exact",
    "validate_bound_montecarlo",
]

MU_BLOCK = 16384  # momenta per kernel pass of mu: bounds its temporaries, and the bits do not depend on it
GRID_POINTS = 256  # monotonicity grid of extremal_alpha_beta
MONOTONE_REL_TOL = 1e-12  # slack of that grid check, relative to the endpoint values
MC_BLOCK = 1024  # samples per Monte Carlo block at N_bar <= 20: fixes the stream layout, bounds memory
CONFIGS_PER_STATE = 8  # joint eigenmodes superposed in each Monte Carlo sample state
MC_BLOCK_DRAWS = MC_BLOCK * CONFIGS_PER_STATE * 20  # particle draws per block: fewer samples for N_bar > 20


def _check_k_bar(k_bar: float):
    if not 0.0 <= k_bar < math.pi:  # also rejects nan
        raise ValueError(f"momentum cap must lie in [0, pi), got {k_bar}")


@dataclass(frozen=True)
class DiscriminationInput:
    """Physical caps and duration: mass, momentum cap, particle cap, time."""

    m: float
    k_bar: float
    N_bar: int
    t: float

    def __post_init__(self):
        """The one check of the caps: 0 <= m <= 1, 0 <= k_bar < pi and N_bar a positive integer that a double holds."""
        _check_mass(self.m)
        _check_k_bar(self.k_bar)
        n_bar = self.N_bar
        if not (isinstance(n_bar, numbers.Integral) and 1 <= n_bar <= sys.float_info.max):
            raise ValueError(
                f"particle cap must be a positive integer no larger than the largest double, got {n_bar!r}"
            )
        _check_time(self.t)


@dataclass(frozen=True)
class DiscriminationReport:
    alpha_bar: float
    beta_bar: float
    f_limit: Optional[float]  # the time cap; None when the beta_bar hypothesis fails
    hypotheses_ok: bool
    g: Optional[float] = None
    pe_lower: Optional[float] = None


def mu(k, m, t):
    """Relative rotation angle arccos(Re Tr V / 2) in [0, pi], from the trace identity; k and t broadcast.

    mu = 2 asin(sqrt((1 - beta/2) sin^2(alpha t/2) + (beta/2) sin^2(sigma t/2))) over ``_alpha_beta``: both
    terms are nonnegative and their weights sum to 1 (beta <= 1), so nothing is clamped, and nothing cancels at
    any scale.  The kernel runs over blocks of ``MU_BLOCK`` momenta, whose size does not change the bits, and the
    rest of each block is formed in the kernel's own arrays and the output.  The phase sigma t/2 is formed only where
    beta > 0, so where beta = 0 (as at m = 0) an overflowed phase is never weighed by 0: mu(3, 0, 1e308) = 0.  mu is
    nan where beta is (sin omega underflows, see ``_alpha_beta``), and where a weighed phase overflows.
    """
    _check_time(t)
    k, t = np.broadcast_arrays(np.asarray(k, dtype=float), np.asarray(t, dtype=float))
    result = np.empty(k.shape)
    flat, k, t = result.reshape(-1), k.reshape(-1), t.reshape(-1)  # views, except where a broadcast must copy
    for start in range(0, flat.size, MU_BLOCK):
        block = slice(start, start + MU_BLOCK)
        alpha, beta, sigma = _alpha_beta(k[block], m)
        half_t = np.multiply(0.5, t[block], out=flat[block])  # the output holds t/2 until it holds the radicand
        alpha *= half_t
        np.sin(alpha, out=alpha)
        np.square(alpha, out=alpha)
        np.multiply(sigma, half_t, out=sigma, where=beta > 0.0)
        np.sin(sigma, out=sigma)
        np.square(sigma, out=sigma)
        beta *= 0.5
        radicand = np.subtract(1.0, beta, out=half_t)
        radicand *= alpha
        sigma *= beta  # 0 where beta = 0, whatever sigma holds there
        radicand += sigma
        np.sqrt(radicand, out=radicand)
        np.arcsin(radicand, out=radicand)
        radicand *= 2.0
        del alpha, beta, sigma  # freed before the next block's kernel runs
    return result if result.ndim else float(result)


# -- stable alpha and beta ------------------------------------------------

# 1/19!, -1/17!, ..., 1/3!: (k - sin k)/k^3 as a polynomial in k^2, highest power first
_K_MINUS_SIN_SERIES = [(-1) ** j / math.factorial(2 * j + 3) for j in range(8, -1, -1)]
_PI_LOW = 1.2246467991473532e-16  # pi - math.pi: the part of pi that math.pi drops


def _k_minus_sin(k, out=None):
    """k - sin k to full relative precision: the series in place, in Horner form, below |k| = 1; k - sin k from 1.

    k is a 1-d array; the result is formed in ``out`` (not k) or a new buffer.
    """
    x = k * k
    poly = np.empty(k.shape) if out is None else out
    poly.fill(_K_MINUS_SIN_SERIES[0])
    for coefficient in _K_MINUS_SIN_SERIES[1:]:
        poly *= x
        poly += coefficient
    x *= k
    poly *= x  # k (k^2) poly, in np.polyval's rounding
    big = np.abs(k, out=x) >= 1.0
    poly[big] = k[big] - np.sin(k[big])
    return poly


def _one_minus_sinc(x, out):
    """1 - sin(x)/x for x >= 0, with the value 0 at x = 0 (where k - sin k is 0); formed in ``out`` (not x)."""
    result = _k_minus_sin(x, out)
    return np.divide(result, x, out=result, where=x > 0.0)


def _alpha_beta(k, m):
    """(alpha, beta, sigma) = (lambda - omega, 1 - u.u_c, omega + lambda) at |k|, from one set of per-mode pieces.

    alpha and beta are free of cancellation.  alpha takes one identity per half-zone, each run only on its own
    momenta (m^2 = 0 gives alpha = 0).  Below k = pi/2,
    cos w - cos lambda = 2 sin((lambda + w)/2) sin(alpha/2) = (m^2/2) B with
        B = (4 sin^2(k/2) - m^2/(1+n))/(1+n) - [s(e) + (1 - s(e)) s(h)],  s(x) = 1 - sin(x)/x,
    e = (lambda - k)/2 = m^2/(2(lambda + k)) and h = (lambda + k)/2.  From pi/2 on, with kappa = pi - k,
    alpha = (lambda - k) + (w(kappa) - kappa) = m^2/(lambda + k) + 2 asin(m^2 cos kappa / (2(1+n) sin((w + kappa)/2))).
    beta uses v - v_c = -d (u_x + u_x^c)/(v + v_c) (unit axes) and d = u_x - u_x^c = m (lambda - sin w)/(lambda sin w),
        lambda - sin w = [(k - sin k)(k + sin k) + m^2 sin^2 k]/(lambda + sin w),
    positive terms only; v + v_c > 0 for k > 0, and hypot multiplies d in before dividing by v + v_c ~ k, so nothing
    under- or overflows at tiny k.  beta(0) = 0; beta is nan where sin w underflows to 0 (k and m below ~1e-162).

    The kernel works in place: after the pieces, each step writes into an array whose value is no longer needed, and
    every product and sum keeps its operands, so the bits are those of the plain expressions above.  The caller's k
    is never written.
    """
    shape = np.shape(k)
    k = np.abs(np.asarray(k, dtype=float).reshape(-1))  # a 1-d copy
    m2 = m * m
    sk, ck, s2, sw, v = _mode(k, m)
    lam, v_c, u_xc = dirac_axis(k, m)
    sigma = _angle(sw, ck, m)  # omega until lambda is added in
    gap = _k_minus_sin(k, out=s2)
    spare = np.add(k, sk, out=ck)
    gap *= spare
    np.square(sk, out=sk)
    sk *= m2
    gap += sk
    _over(gap, np.add(lam, sw, out=spare), out=gap)  # lambda - sin w, 0 at k = 0 (even at m = 0)
    gap *= m
    den = np.multiply(lam, sw, out=spare)  # 0 where sin w underflows: beta is undefined there (nan), but beta(0) = 0
    d = sk
    d.fill(0.0)
    np.copyto(d, math.nan, where=k > 0.0)
    np.divide(gap, den, out=d, where=den > 0.0)
    dv = _over(m, sw, out=gap)  # u_x, until it is d (u_x + u_x^c) / (v + v_c) = v_c - v
    dv += u_xc
    dv *= d
    _over(dv, np.add(v, v_c, out=v), out=dv)
    beta = np.hypot(d, dv, out=d)
    np.square(beta, out=beta)
    beta *= 0.5
    sigma += lam

    alpha = u_xc
    alpha.fill(0.0)  # its value at m = 0; otherwise each identity fills its own momenta
    if m2 > 0.0:
        n1 = 1.0 + _n(m)
        lam_k = np.add(lam, k, out=lam)  # lambda + k, in both identities
        lower = k < math.pi / 2.0
        below, above = np.flatnonzero(lower), np.flatnonzero(~lower)
        # take's mode "clip" writes straight into out (the default buffers it); every index is in range
        h, e, s_e = (buffer[:below.size] for buffer in (spare, gap, v))  # below pi/2: B from e and h
        np.take(lam_k, below, out=h, mode="clip")
        np.multiply(2.0, h, out=e)
        np.divide(m2, e, out=e)
        _one_minus_sinc(e, out=s_e)
        h /= 2.0
        s_h = _one_minus_sinc(h, out=e)
        mix = np.subtract(1.0, s_e, out=h)
        mix *= s_h
        mix += s_e  # s(e) + (1 - s(e)) s(h)
        b = np.take(k, below, out=s_h, mode="clip")
        b /= 2.0
        np.sin(b, out=b)
        np.square(b, out=b)
        b *= 4.0
        b -= m2 / n1
        b /= n1
        b -= mix
        b *= m2
        half_sum = np.take(sigma, below, out=mix, mode="clip")
        half_sum /= 2.0
        np.sin(half_sum, out=half_sum)
        half_sum *= 4.0
        b /= half_sum
        np.arcsin(b, out=b)
        b *= 2.0
        alpha.put(below, b)

        kappa, half, lk = (buffer[:above.size] for buffer in (spare, gap, v))  # from pi/2 on
        np.take(k, above, out=kappa, mode="clip")
        np.subtract(math.pi, kappa, out=kappa)
        kappa += _PI_LOW  # pi - k exactly, then rounded once
        c_kappa = np.cos(kappa, out=half)
        w = _angle(np.take(sw, above, out=lk, mode="clip"), c_kappa, m)  # omega(kappa): sin omega(kappa) = sin omega(k)
        w += kappa
        w /= 2.0
        np.sin(w, out=w)
        w *= 2.0 * n1
        c_kappa *= m2
        c_kappa /= w
        np.arcsin(c_kappa, out=half)
        np.take(lam_k, above, out=lk, mode="clip")
        np.divide(m2, lk, out=lk)
        half *= 2.0
        lk += half
        alpha.put(above, lk)
    return alpha.reshape(shape), beta.reshape(shape), sigma.reshape(shape)


def extremal_alpha_beta(k_bar: float, m: float) -> Tuple[float, float]:
    """max |alpha| and max |beta| over [0, k_bar], realized on {0, k_bar}.

    The endpoint property follows from alpha and beta being nondecreasing in
    k on [0, pi); both facts are re-verified here on a ``GRID_POINTS`` grid,
    and a violation beyond ``MONOTONE_REL_TOL`` times the endpoint scale
    (max |alpha| and beta(k_bar)) raises :class:`MonotonicityError`.  (|alpha|
    itself is not monotone: alpha starts negative at k = 0 and crosses zero,
    but a monotone function still attains its extreme modulus at an endpoint.)
    A positive ``m`` and ``k_bar`` whose ``alpha_bar`` falls below the normal
    double range (zero or subnormal) raise ``ValueError``.
    """
    _check_k_bar(k_bar)
    _check_mass(m)
    ks = np.linspace(0.0, k_bar, GRID_POINTS)  # ks[-1] == k_bar exactly
    alphas, betas, _ = _alpha_beta(ks, m)
    alpha_bar, beta_bar = max(abs(alphas[0]), abs(alphas[-1])), betas[-1]  # beta(0) = 0
    finite = np.all(np.isfinite(alphas)) and np.all(np.isfinite(betas))  # a nan on the grid fails below, as exit 2
    if finite and m > 0.0 and k_bar > 0.0 and alpha_bar < sys.float_info.min:
        raise ValueError(f"alpha_bar = {float(alpha_bar)!r} at m = {m!r} lies below the normal double range")
    alpha_slack, beta_slack = MONOTONE_REL_TOL * alpha_bar, MONOTONE_REL_TOL * beta_bar
    # written so that a nan anywhere on the grid fails them
    if not (np.all(np.diff(alphas) >= -alpha_slack) and np.all(np.diff(betas) >= -beta_slack)):
        raise MonotonicityError(f"alpha/beta not finite and nondecreasing on [0, {k_bar}] at m = {m}")
    if not (np.max(np.abs(alphas)) <= alpha_bar + alpha_slack and np.max(betas) <= beta_bar + beta_slack):
        raise MonotonicityError("interior grid maximum exceeded the endpoint values")
    return float(alpha_bar), float(beta_bar)


def _time_cap(alpha_bar: float, beta_bar: float, n_bar: int) -> Optional[float]:
    """f = 2 asin(sqrt(room)) / alpha_bar, the root of g(f) = pi/2 (inf at alpha_bar = 0); None if room < 0."""
    room = math.sin(math.pi / (4.0 * n_bar)) ** 2 - beta_bar / 2.0
    if room < 0.0:
        return None
    if alpha_bar == 0.0:
        return math.inf
    return 2.0 * math.asin(math.sqrt(room)) / alpha_bar


def pe_lower_bound(inp: DiscriminationInput) -> DiscriminationReport:
    """Error-probability floor (1 - sin g)/2 for guessing lattice vs continuum dynamics.

    g = 2 N_bar asin(sqrt(sin^2(alpha_bar t/2) + beta_bar/2)), the half-angle form, free of cancellation at any scale.
    Outside the hypotheses (beta_bar too large, where ``f_limit`` is None, or t
    beyond the cap f) no bound is produced and ``hypotheses_ok`` is False.
    """
    alpha_bar, beta_bar = extremal_alpha_beta(inp.k_bar, inp.m)
    f = _time_cap(alpha_bar, beta_bar, inp.N_bar)
    if f is None or not inp.t <= f:
        return DiscriminationReport(alpha_bar=alpha_bar, beta_bar=beta_bar, f_limit=f, hypotheses_ok=False)
    g = 2.0 * inp.N_bar * math.asin(math.sqrt(math.sin(alpha_bar * inp.t / 2.0) ** 2 + beta_bar / 2.0))
    pe = 0.5 * (1.0 - math.sin(g))
    return DiscriminationReport(
        alpha_bar=alpha_bar, beta_bar=beta_bar, f_limit=f, hypotheses_ok=True, g=g, pe_lower=pe
    )


def _t_min_input(m: float, k_bar: float, n_bar: int) -> DiscriminationInput:
    """The caps of a perfect-discrimination time, checked as ``DiscriminationInput``'s, with m > 0 and k_bar > 0."""
    inp = DiscriminationInput(m, k_bar, n_bar, 0.0)
    if m == 0.0 or k_bar == 0.0:
        raise ValueError("need m > 0 and k_bar > 0")
    return inp


def t_min_approx(m: float, k_bar: float, n_bar: int) -> float:
    """Leading-order perfect-discrimination time 3 pi / (m^2 k_bar N_bar); ValueError beyond the double range."""
    _t_min_input(m, k_bar, n_bar)
    rate = m * m * k_bar * n_bar
    t = 3.0 * math.pi / rate if rate > 0.0 else math.inf  # rate is 0 where it underflows
    if t == math.inf:
        raise ValueError("the perfect-discrimination time lies beyond the double range")
    return t


def t_min_exact(m: float, k_bar: float, n_bar: int) -> Optional[float]:
    """The root of g(t) = pi/2, which is the time cap ``f_limit`` of ``pe_lower_bound`` at any t.

    None when pi/2 is unreachable: the beta_bar hypothesis fails.  f is finite: for
    m, k_bar > 0 ``extremal_alpha_beta`` rejects an alpha_bar below the normal double
    range, and that check is what rejects an input outside the double range.
    """
    return pe_lower_bound(_t_min_input(m, k_bar, n_bar)).f_limit


def _pairwise_trace_distance(phases: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """sqrt(1 - |sum_c p_c e^{i phi_c}|^2) along the last axis.

    Uses the identity 1 - |sum p e^{i phi}|^2 = sum_{c,c'} 2 p_c p_c'
    sin^2((phi_c - phi_c')/2): a sum of nonnegative terms, so a state whose
    phases all coincide yields exactly zero instead of sqrt-of-roundoff.
    """
    sines = phases[..., :, None] - phases[..., None, :]
    sines /= 2.0
    np.sin(sines, out=sines)
    np.square(sines, out=sines)
    terms = probs[..., :, None] * probs[..., None, :]
    terms *= 2.0
    terms *= sines
    return np.sqrt(np.sum(terms, axis=(-2, -1)))


@dataclass(frozen=True)
class MonteCarloReport:
    samples: int
    seed: int
    workers: int
    bound: float
    max_observed: float
    margin: float


def _draw_block(inp: DiscriminationInput, count: int, stream):
    """Phases and probabilities, each (count, CONFIGS_PER_STATE), of one block of states, from kept particles only."""
    rng = np.random.default_rng(stream)
    c = CONFIGS_PER_STATE
    counts = rng.integers(1, inp.N_bar + 1, size=count * c)
    momenta = rng.uniform(-inp.k_bar, inp.k_bar, size=counts.sum())
    angles = mu(momenta, inp.m, inp.t)
    del momenta  # freed before the signs are drawn
    angles *= rng.choice(np.array([-1.0, 1.0]), size=angles.size)  # the signs, in the stream's order
    amplitudes = rng.standard_normal((count, c)) + 1j * rng.standard_normal((count, c))
    starts = np.cumsum(counts) - counts  # configuration i is the run of counts[i] draws from starts[i]; none is empty
    phases = np.add.reduceat(angles, starts).reshape(count, c)
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
    (``CONFIGS_PER_STATE`` N_bar)) samples, at least one, so a block holds at
    most max(``MC_BLOCK_DRAWS``, ``CONFIGS_PER_STATE`` N_bar) particle draws;
    block i draws from the i-th child of ``SeedSequence(seed).spawn(n_blocks)``,
    so results depend only on (seed, samples, N_bar).  ``workers`` only sets
    parallelism: the blocks run on min(workers, os.cpu_count(), n_blocks)
    threads (numpy releases the GIL in its loops), two blocks per thread at a
    time, so memory is bounded by workers x block whatever the sample count.
    One block of ``MC_BLOCK`` samples at N_bar = 20 (about 86000 particle
    draws) peaks at about 2.9 MiB under ``tracemalloc``: its momenta, their
    angles and ``mu``'s arrays of ``MU_BLOCK`` momenta.
    Block maxima are reduced in block order; the first block with a sample
    exceeding the bound by more than 1e-9, or with a nan, raises
    :class:`BoundViolationError` -- that would falsify the analytic cap.
    """
    if samples < 1:
        raise ValueError(f"need samples >= 1, got {samples}")
    if workers < 1:
        raise ValueError(f"need workers >= 1, got {workers}")
    report = pe_lower_bound(inp)
    if not report.hypotheses_ok:
        raise ValueError("the analytic bound requires the time-cap hypotheses to hold")
    bound = math.sin(report.g)

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
                if not worst <= bound + 1e-9:  # a nan fails it too
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
