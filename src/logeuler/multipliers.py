"""Radial Fourier multipliers: the log-smoothing family, dyadic frequency
cutoffs, and the dyadic-block bound of the log-smoothing symbol.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "check_gamma",
    "tgamma_eval",
    "phi_eval",
    "mtilde",
    "is_dyadic",
]


def check_gamma(gamma: float) -> None:
    """Raise ValueError unless the smoothing exponent is finite and >= 0."""
    if not (math.isfinite(gamma) and gamma >= 0):
        raise ValueError(f"gamma must be finite and >= 0, got {gamma}")


def tgamma_eval(r, gamma: float):
    """Log-smoothing symbol 1/log^gamma(r + 10), natural logarithm.

    Positive, bounded by 1 and non-increasing in r for finite gamma >= 0.
    """
    check_gamma(gamma)
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
# dyadic-block bound
# ---------------------------------------------------------------------------

def mtilde(N, gamma: float) -> float:
    """Dyadic-block bound log^{-gamma}(N/8 + 10) for the log-smoothing symbol."""
    return float(tgamma_eval(float(N) / 8.0, gamma))
