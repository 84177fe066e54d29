"""Closed-form dispersion analytics of the lattice step.

Everything here derives from the eigenphase of the single-mode step matrix,

    omega(k, m) = arccos(n cos k),   n = sqrt(1 - m^2),   principal branch in [0, pi],

and its continuum reference sqrt(k^2 + m^2).  The k-derivatives are coded in
closed form (cross-checked against finite differences in the test suite):

    v  = n sin k / sin(omega)
    D  = n m^2 cos k / sin(omega)^3
    w3 = -n m^2 sin k (1 + 2 n^2 cos^2 k) / sin(omega)^5

using the exact identity sin(omega)^2 = sin^2 k + m^2 cos^2 k, which avoids
the catastrophic cancellation of 1 - n^2 cos^2 k at small k; ``_mode`` is the
one kernel of these pieces, and ``_n`` the one n, as sqrt((1 - m)(1 + m)).
omega is ``_angle``'s atan2(sin omega, n cos k) over them: full relative precision
down to k, m ~ 1e-19, next to k = pi and as m -> 1, and at m = 0 while sin^2 k is a
normal double, |k| >~ 1.5e-154 (below, sin^2 k underflows: omega(1e-163, 0) = 0).

Both the lattice step and the continuum evolution of one mode are SU(2)
rotations exp(-i angle u.sigma), u = (u_x, 0, -v): ``lattice_axis`` and
``dirac_axis`` give (angle, v, u_x), and ``su2_power`` is the one closed form
of their real powers U^t = cos(angle t) I - i sin(angle t) u.sigma.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

__all__ = [
    "omega",
    "sin_omega",
    "dirac_omega",
    "Derivatives",
    "derivatives",
    "lattice_axis",
    "dirac_axis",
    "su2_power",
    "branch_spinors",
]


def _check_mass(m: float) -> float:
    m = float(m)
    if not 0.0 <= m <= 1.0:  # also rejects nan
        raise ValueError(f"mass must lie in [0, 1], got {m}")
    return m


def _check_branch(s: int) -> int:
    if s not in (+1, -1):
        raise ValueError(f"branch label must be +1 or -1, got {s}")
    return int(s)


def _check_time(t):
    """Reject a time outside [0, inf), nan included; arrays are checked entrywise."""
    t_arr = np.asarray(t, dtype=float)
    if not np.all((t_arr >= 0.0) & (t_arr < math.inf)):
        raise ValueError(f"time must be finite and nonnegative, got {t}")


def _over(x, r, scale=1.0, out=None):
    """scale x / r, and 0 (the zero axis) where the angle r = 0, formed in ``out`` (which may be x) or a new buffer."""
    ok = r > 0.0
    if out is None:
        out = np.zeros(np.shape(r))
    else:
        np.copyto(out, 0.0, where=~ok)
    np.multiply(scale, x, out=out, where=ok)
    return np.divide(out, r, out=out, where=ok)


def _n(m: float) -> float:
    """n = sqrt(1 - m^2), as sqrt((1 - m)(1 + m)): 1 - m is exact for m in [1/2, 1], so nothing cancels near m = 1."""
    return math.sqrt((1.0 - m) * (1.0 + m))


def _mode(k, m):
    """(sin k, cos k, sin^2 w, sin w, v): the per-k pieces of U(k) = exp(-i omega u.sigma) that come from cos k.

    sin^2 w = sin^2 k + m^2 cos^2 k, free of cancellation.  The axis u = (u_x, 0, -v) = (m, 0, -n sin k) / sin w
    is zero where sin w = 0: at k = 0 for m = 0, and for k, m both below about 1e-162.
    """
    sk, ck = np.sin(k), np.cos(k)
    s2 = sk ** 2 + m * m * ck ** 2
    sw = np.sqrt(s2)
    return sk, ck, s2, sw, _over(sk, sw, _n(m))


def _angle(sw, ck, m):
    """omega = atan2(sin w, n cos k), in [0, pi] since sin w >= 0: the one form of omega, from ``_mode``'s pieces."""
    return np.arctan2(sw, _n(m) * ck)


def omega(k, m):
    """Automaton dispersion arccos(n cos k), branch in [0, pi], as ``_angle`` of ``_mode``'s sin omega and cos k."""
    m = _check_mass(m)
    _, ck, _, sw, _ = _mode(np.asarray(k, dtype=float), m)
    result = _angle(sw, ck, m)
    return result if result.ndim else float(result)


def sin_omega(k, m):
    """sin(omega(k, m)) via the exact identity sin^2 w = sin^2 k + m^2 cos^2 k."""
    result = _mode(np.asarray(k, dtype=float), _check_mass(m))[3]
    return result if result.ndim else float(result)


def dirac_omega(k, m):
    """Continuum reference dispersion sqrt(k^2 + m^2)."""
    result = np.hypot(np.asarray(k, dtype=float), m)
    return result if result.ndim else float(result)


class Derivatives(NamedTuple):
    v: float
    D: float
    omega3: float


def derivatives(k, m) -> Derivatives:
    """Group velocity, diffusion coefficient and third k-derivative of omega.

    v is signed (odd in k); at k = 0 with m > 0 it is exactly 0 and
    D = sqrt(1 - m^2)/m.  The point (k, m) = (0, 0) is rejected: omega has a
    cone there and no derivative exists.
    """
    m = _check_mass(m)
    k_arr = np.asarray(k, dtype=float)
    n = _n(m)
    sk, ck, s2, sw, v = _mode(k_arr, m)
    if np.any(sw == 0.0):
        raise ValueError("derivatives undefined where sin omega = 0 (k = 0 at m = 0, or k and m below ~1e-162)")
    d = n * m * m * ck / (s2 * sw)
    w3 = -n * m * m * sk * (1.0 + 2.0 * n * n * ck ** 2) / (s2 * s2 * sw)
    return Derivatives(v, d, w3) if k_arr.ndim else Derivatives(float(v), float(d), float(w3))


def branch_spinors(k, m, s: int) -> np.ndarray:
    """Unit eigenvectors of U(k) for branch ``s``, one per momentum sample.

    For m > 0 the closed form ((sqrt(1 - s v), s sqrt(1 + s v)) / sqrt(2)) is
    used; its first component is strictly positive, which fixes the global
    phase.  Degenerate modes (sin omega = 0, see ``_mode``) fall back to the
    canonical basis, + branch first.
    """
    s = _check_branch(s)
    m = _check_mass(m)
    sw, v = _mode(np.atleast_1d(np.asarray(k, dtype=float)), m)[3:]
    sv = np.clip(s * v, -1.0, 1.0)
    out = np.empty((v.size, 2), dtype=complex)
    out[:, 0] = np.sqrt((1.0 - sv) / 2.0)
    out[:, 1] = s * np.sqrt((1.0 + sv) / 2.0)
    out[sw == 0.0] = (1.0, 0.0) if s == +1 else (0.0, 1.0)
    return out


def lattice_axis(k, m):
    """(omega, v, u_x): angle and rotation axis of U(k) = exp(-i omega u.sigma).

    u = (m, 0, -n sin k) / sin(omega), so v is the group velocity.  Where
    sin(omega) = 0 the axis is zero (see ``_mode``), which makes every power
    cos(omega t) I.
    """
    m = _check_mass(m)
    _, ck, _, sw, v = _mode(np.asarray(k, dtype=float), m)
    return _angle(sw, ck, m), v, _over(m, sw)


def dirac_axis(k, m):
    """(lambda, k/lambda, m/lambda): angle and axis of the continuum step exp(-i H_D).

    The zero axis stands in at lambda = sqrt(k^2 + m^2) = 0.
    """
    k = np.asarray(k, dtype=float)
    lam = np.asarray(dirac_omega(k, m))
    return lam, _over(k, lam), _over(m, lam)


def su2_power(angle, v, u_x, t):
    """(c, v s, u_x s) with c = cos(angle t), s = sin(angle t).

    The t-th power of the rotation with axis (u_x, 0, -v) is
    [[c + i v s, -i u_x s], [-i u_x s, c - i v s]]; a zero axis gives c I.
    """
    phase = angle * t
    s = np.sin(phase)
    return np.cos(phase), v * s, u_x * s
