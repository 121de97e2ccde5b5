"""Radial Fourier multipliers: the log-smoothing family, dyadic frequency
cutoffs, and a numerical checker for the Mikhlin-type derivative bounds that
make the cutoff calculus work.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
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


@lru_cache(maxsize=None)
def _symbol_derivative(ax: int, ay: int):
    """Lambdified partial derivative d^ax_x d^ay_y of log(|xi|+10)^(-g)."""
    import sympy as sp

    x, y, g = sp.symbols("x y g", real=True)
    expr = sp.log(sp.sqrt(x**2 + y**2) + 10) ** (-g)
    expr = sp.diff(expr, x, ax, y, ay)
    return sp.lambdify((x, y, g), expr, modules="numpy")


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
    every partial derivative up to total order alpha_max analytically
    (symbolic differentiation), cross-checked against a finite difference.
    """
    if gamma < 0:
        raise ValueError(f"gamma must be >= 0, got {gamma}")
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
            ay = order - ax
            d = _symbol_derivative(ax, ay)(xs, ys, gamma)
            worst = max(worst, float(np.max(np.abs(d))) * N**order / mt)
        max_ratio[order] = worst

    h = max(N, 1.0) * 6e-6
    fd = (
        _symbol_derivative(0, 0)(N + h, 0.0, gamma)
        - _symbol_derivative(0, 0)(N - h, 0.0, gamma)
    ) / (2.0 * h)
    exact = float(_symbol_derivative(1, 0)(N, 0.0, gamma))
    fd_rel = abs(fd - exact) / abs(exact) if exact != 0.0 else abs(fd)

    return BoundReport(gamma, N, mt, max_ratio, float(fd_rel))
