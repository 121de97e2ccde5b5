"""Radial Fourier multipliers: the log-smoothing family, dyadic frequency
cutoffs, and a numerical checker for the Mikhlin-type derivative bounds that
make the cutoff calculus work.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

__all__ = [
    "BoundReport",
    "tgamma_eval",
    "phi_eval",
    "mtilde",
    "verify_symbol_bound",
    "is_dyadic",
]


def tgamma_eval(r, gamma: float):
    """Log-smoothing symbol 1/log^gamma(r + 10), natural logarithm.

    Positive, bounded by 1 and non-increasing in r for gamma >= 0.
    """
    if gamma < 0:
        raise ValueError(f"gamma must be >= 0, got {gamma}")
    return np.log(np.asarray(r, dtype=float) + 10.0) ** (-gamma)


# ---------------------------------------------------------------------------
# smooth dyadic cutoff
# ---------------------------------------------------------------------------

def _bridge(s):
    """Smooth partition function q(s)/(q(s)+q(1-s)), q(s)=exp(-1/s) for s>0."""
    s = np.asarray(s, dtype=float)
    with np.errstate(divide="ignore", over="ignore"):
        qa = np.where(s > 0.0, np.exp(-1.0 / np.where(s > 0.0, s, 1.0)), 0.0)
        qb = np.where(s < 1.0, np.exp(-1.0 / np.where(s < 1.0, 1.0 - s, 1.0)), 0.0)
    return qa / (qa + qb)


def phi_eval(r):
    """Smooth cutoff: 1 on r <= 1, 0 on r >= 2, exp-based bridge in between.

    The bridge is symmetric about r = 3/2, so phi(3/2) = 1/2 exactly.
    """
    r = np.asarray(r, dtype=float)
    out = np.ones_like(r)
    out[r >= 2.0] = 0.0
    mid = (r > 1.0) & (r < 2.0)
    out[mid] = _bridge(2.0 - r[mid])
    if out.ndim == 0:
        return float(out)
    return out


def is_dyadic(value) -> bool:
    """True when value equals 2**j for some integer j (j may be negative)."""
    v = float(value)
    if not math.isfinite(v) or v <= 0.0:
        return False
    mantissa, _ = math.frexp(v)
    return mantissa == 0.5


# ---------------------------------------------------------------------------
# Mikhlin-type symbol-bound checker
# ---------------------------------------------------------------------------

def mtilde(N, gamma: float) -> float:
    """Dyadic-block bound log^{-gamma}(N/8 + 10) for the log-smoothing symbol."""
    return float(tgamma_eval(float(N) / 8.0, gamma))


def _symbol_partial(x, y, gamma: float, ax: int, ay: int):
    """d^ax_x d^ay_y of m(|xi|) = log(|xi| + 10)^-gamma at xi = (x, y) != 0,
    for ax + ay <= 3.

    The radial derivatives m1, m2, m3 of m(r) are closed forms in
    L = log(s), s = r + 10; the chain rule along e = xi / r gives
    d_i = m1 e_i, d_ij = m2 e_i e_j + (m1 / r)(delta_ij - e_i e_j) and
    d_ijk = m3 e_i e_j e_k + (m2 / r - m1 / r^2)(delta_ij e_k + delta_ik e_j
    + delta_jk e_i - 3 e_i e_j e_k).
    """
    r = np.hypot(x, y)
    s = r + 10.0
    L = np.log(s)
    g = gamma
    e = (x / r, y / r)
    idx = (0,) * ax + (1,) * ay
    if not idx:
        return L ** (-g)
    m1 = -g * L ** (-g - 1.0) / s
    if len(idx) == 1:
        return m1 * e[idx[0]]
    m2 = g * L ** (-g - 2.0) * (L + g + 1.0) / s**2
    if len(idx) == 2:
        i, j = idx
        eij = e[i] * e[j]
        return m2 * eij + m1 / r * (float(i == j) - eij)
    m3 = -g * L ** (-g - 3.0) * (
        2.0 * L**2 + 3.0 * (g + 1.0) * L + (g + 1.0) * (g + 2.0)
    ) / s**3
    i, j, k = idx
    eijk = e[i] * e[j] * e[k]
    sym = float(i == j) * e[k] + float(i == k) * e[j] + float(j == k) * e[i]
    return m3 * eijk + (m2 / r - m1 / r**2) * (sym - 3.0 * eijk)


@dataclass(frozen=True)
class BoundReport:
    """Sampled derivative bounds of the log-smoothing symbol on one annulus.

    max_ratio[j] is the largest observed |d^a m(xi)| * N^|a| / mtilde(N) over
    all multi-indices of order |a| = j and all sample points with
    N/8 <= |xi| <= 8N.  fd_rel_error is the relative discrepancy between the
    analytic d/dx1 derivative and a central finite difference at xi = (N, 0).
    """

    gamma: float
    N: float
    mtilde: float
    max_ratio: Mapping[int, float]
    fd_rel_error: float


def verify_symbol_bound(
    gamma: float,
    N,
    alpha_max: int = 3,
    n_radii: int = 64,
    n_angles: int = 16,
) -> BoundReport:
    """Check the scaled derivative bounds of the log-smoothing symbol.

    Samples the annulus N/8 <= |xi| <= 8N on a log-radial grid and evaluates
    every partial derivative up to total order alpha_max <= 3 in closed
    form, cross-checked against a finite difference.
    """
    if gamma < 0:
        raise ValueError(f"gamma must be >= 0, got {gamma}")
    if not 0 <= alpha_max <= 3:
        raise ValueError(f"alpha_max must be in 0..3, got {alpha_max}")
    if not is_dyadic(N):
        raise ValueError(f"N must be dyadic, got {N!r}")
    N = float(N)
    radii = np.geomspace(N / 8.0, 8.0 * N, n_radii)
    angles = np.arange(n_angles) * (2.0 * np.pi / n_angles)
    xs = np.outer(radii, np.cos(angles)).ravel()
    ys = np.outer(radii, np.sin(angles)).ravel()
    mt = mtilde(N, gamma)

    max_ratio: dict[int, float] = {}
    for order in range(alpha_max + 1):
        worst = 0.0
        for ax in range(order + 1):
            d = _symbol_partial(xs, ys, gamma, ax, order - ax)
            worst = max(worst, float(np.max(np.abs(d))) * N**order / mt)
        max_ratio[order] = worst

    h = max(N, 1.0) * 6e-6
    fd = (tgamma_eval(N + h, gamma) - tgamma_eval(N - h, gamma)) / (2.0 * h)
    exact = float(_symbol_partial(N, 0.0, gamma, 1, 0))
    fd_rel = abs(fd - exact) / abs(exact) if exact != 0.0 else abs(fd)

    return BoundReport(gamma, N, mt, max_ratio, float(fd_rel))
