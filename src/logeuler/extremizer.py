"""Norms of a radial extremizer family on the plane for sharpness
experiments.

The profile f_p takes the value sqrt(p) inside radius e^{-p}, equals
sqrt(-log r) on [e^{-p}, e^{-1}] and falls by the cubic smoothstep
(1-u)^2 (1+2u), u = (r - e^{-1}) / (1 - e^{-1}), to zero at r = 1.  Only its
norms are computed, for 4 <= p <= 2^100.  They witness that the sqrt(p)
growth of the L^p embedding constant cannot be improved by more than a
sqrt(log p) factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .spectral import read_only

__all__ = [
    "RadialNorms",
    "SharpnessRow",
    "radial_norms",
    "sharpness_curve",
]

_R_KNEE = math.exp(-1.0)  # the middle piece meets the cubic tail here
_SPAN = 1.0 - _R_KNEE  # on the tail r = _R_KNEE + _SPAN u, u in [0, 1]

# int f^2 r dr and int f'^2 r dr over the tail f = (1-u)^2 (1+2u), both
# polynomials in u integrated exactly (Beta integrals)
_TAIL_L2 = _SPAN * (13.0 * _R_KNEE + 3.0 * _SPAN) / 35.0
_TAIL_H1 = (1.2 * _R_KNEE + 0.6 * _SPAN) / _SPAN


@dataclass(frozen=True)
class RadialNorms:
    l2: float
    lp: float
    h1dot: float


# past about 2^120, 40 widths sqrt(p/8) fall below one ulp of the middle
# piece's peak p/4 and its quadrature window has zero length
_P_MAX = 2.0**100


@lru_cache(maxsize=1)
def _gauss_rule() -> tuple[np.ndarray, ...]:
    """Nodes and weights of the 200-point Gauss-Legendre rule on [-1, 1];
    read-only, built on first use."""
    return tuple(map(read_only, np.polynomial.legendre.leggauss(200)))


def _log_integral(g, lo: float, hi: float, peak: float, width: float) -> float:
    """log of int_lo^hi exp(g(x)) dx for a g with one maximum, at ``peak``,
    of curvature -1/width^2: the 200-node Gauss-Legendre rule on 40 widths
    either side of the peak, clipped to [lo, hi], with max g factored out."""
    a, b = max(lo, peak - 40.0 * width), min(hi, peak + 40.0 * width)
    nodes, weights = _gauss_rule()
    half = 0.5 * (b - a)
    values = g(a + half * (nodes + 1.0))
    top = values.max()
    return float(top + math.log(half * np.sum(weights * np.exp(values - top))))


def radial_norms(p: float) -> RadialNorms:
    """L^2, L^p and homogeneous H^1 norms on the plane of the profile f_p.

    Each norm is 2 pi int g(r) r dr summed over the three pieces.  Every
    piece's L^2 and H^1 integral has a closed form; the L^p integrals of
    (f_p / sqrt(p))^p over the middle piece (in t = -log r) and the tail
    are taken in log space, which keeps large p inside double range.
    """
    if not 4 <= p <= _P_MAX:
        raise ValueError(f"p must be in [4, 2^100], got {p}")
    log_p = math.log(p)
    e2p = math.exp(-2.0 * p)
    l2 = p * e2p / 2.0 + (0.75 * math.exp(-2.0) - (2.0 * p + 1.0) * e2p / 4.0) + _TAIL_L2
    h1 = log_p / 4.0 + _TAIL_H1

    def middle(t):  # (t/p)^{p/2} e^{-2t}, from f = sqrt(t) and r dr = e^{-2t} dt
        return (p / 2.0) * np.log(t / p) - 2.0 * t

    def tail(u):  # (f/sqrt(p))^p r dr with f = (1-u)^2 (1+2u)
        log_f = 2.0 * np.log1p(-u) + np.log1p(2.0 * u)
        return p * log_f - (p / 2.0) * log_p + np.log((_R_KNEE + _SPAN * u) * _SPAN)

    log_terms = np.array([
        -2.0 * p - math.log(2.0),  # the constant piece: e^{-2p} / 2
        _log_integral(middle, 1.0, p, p / 4.0, math.sqrt(p / 8.0)),
        _log_integral(tail, 0.0, 1.0, 0.0, 1.0 / math.sqrt(6.0 * p)),
    ])
    top = log_terms.max()
    log_ip = top + math.log(np.sum(np.exp(log_terms - top)))
    two_pi = 2.0 * math.pi
    lp = math.sqrt(p) * math.exp((math.log(two_pi) + log_ip) / p)
    return RadialNorms(math.sqrt(two_pi * l2), lp, math.sqrt(two_pi * h1))


@dataclass(frozen=True)
class SharpnessRow:
    """One row of the embedding-sharpness table for the profile family."""

    p: float
    l2: float
    h1dot: float
    lp: float
    embed_ratio: float       # ||f_p||_p / (sqrt(p) * (||f_p||_2 + ||f_p||_H1dot))
    inv_sqrt_log_p: float    # comparison column sqrt(1 / log p)
    c_h1: float              # ||f_p||_H1dot / sqrt(log p)
    c_lp: float              # ||f_p||_p / sqrt(p)


def sharpness_curve(p_list: Sequence[float]) -> list[SharpnessRow]:
    """Norm table of the extremizer family over a list of exponents p >= 4.

    The embedding ratio decays no faster than a constant times
    1/sqrt(log p); the comparison column makes that visible directly.
    """
    if not p_list:
        raise ValueError("sharpness needs at least one p >= 4")
    rows = []
    for p in p_list:
        norms = radial_norms(p)
        sqrt_p = math.sqrt(p)
        log_p = math.log(p)
        denom = sqrt_p * (norms.l2 + norms.h1dot)
        rows.append(
            SharpnessRow(
                p=float(p),
                l2=norms.l2,
                h1dot=norms.h1dot,
                lp=norms.lp,
                embed_ratio=norms.lp / denom,
                inv_sqrt_log_p=math.sqrt(1.0 / log_p),
                c_h1=norms.h1dot / math.sqrt(log_p),
                c_lp=norms.lp / sqrt_p,
            )
        )
    return rows
