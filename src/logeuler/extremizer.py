"""Radial profiles on the plane for sharpness experiments.

The profile family f_p takes the value sqrt(p) inside radius e^{-p}, equals
sqrt(-log r) on [e^{-p}, e^{-1}] and decays smoothly to zero at r = 1.  Its
norms witness that the sqrt(p) growth of the L^p embedding constant cannot
be improved by more than a sqrt(log p) factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "RadialPiece",
    "RadialProfile",
    "RadialNorms",
    "QuadratureError",
    "SharpnessRow",
    "build_extremizer",
    "radial_norms",
    "sharpness_curve",
]

QUAD_REL_TOL = 1e-8


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to converge; message carries diagnostics."""


@dataclass(frozen=True)
class RadialPiece:
    """One smooth piece of a radial profile on [r_lo, r_hi].

    ``constant`` marks pieces with a constant value (integrated in closed
    form); ``log_substitution`` integrates in t = -log r, which keeps the
    quadrature well conditioned when the piece spans many decades of r.
    """

    r_lo: float
    r_hi: float
    func: Callable[[np.ndarray], np.ndarray]
    deriv: Callable[[np.ndarray], np.ndarray]
    constant: float | None = None
    log_substitution: bool = False


@dataclass(frozen=True)
class RadialProfile:
    """Piecewise radial function vanishing beyond r_support."""

    pieces: tuple[RadialPiece, ...]
    r_support: float

    def __call__(self, r):
        r = np.asarray(r, dtype=float)
        out = np.zeros_like(r)
        for piece in self.pieces:
            sel = (r >= piece.r_lo) & (r <= piece.r_hi)
            if np.any(sel):
                out[sel] = piece.func(r[sel])
        if out.ndim == 0:
            return float(out)
        return out


@dataclass(frozen=True)
class RadialNorms:
    l2: float
    lp: float
    h1dot: float


def build_extremizer(p: float) -> RadialProfile:
    """The three-piece profile: sqrt(p), then sqrt(-log r), then a cubic
    smoothstep from 1 at r = e^{-1} down to 0 at r = 1.

    Continuous at both breakpoints since sqrt(-log e^{-p}) = sqrt(p) and
    sqrt(-log e^{-1}) = 1.  Requires p >= 4.
    """
    if p < 4:
        raise ValueError(f"p must be >= 4, got {p}")
    r_in = math.exp(-p)
    r_mid = math.exp(-1.0)
    sqrt_p = math.sqrt(p)

    def middle(r):
        return np.sqrt(-np.log(r))

    def middle_deriv(r):
        return -1.0 / (2.0 * r * np.sqrt(-np.log(r)))

    span = 1.0 - r_mid

    def tail(r):
        u = (np.asarray(r, float) - r_mid) / span
        return 1.0 - u * u * (3.0 - 2.0 * u)

    def tail_deriv(r):
        u = (np.asarray(r, float) - r_mid) / span
        return -6.0 * u * (1.0 - u) / span

    pieces = (
        RadialPiece(0.0, r_in, lambda r: np.full_like(np.asarray(r, float), sqrt_p),
                    lambda r: np.zeros_like(np.asarray(r, float)), constant=sqrt_p),
        RadialPiece(r_in, r_mid, middle, middle_deriv, log_substitution=True),
        RadialPiece(r_mid, 1.0, tail, tail_deriv),
    )
    return RadialProfile(pieces, 1.0)


def _quad(fn, a, b, what: str) -> float:
    # imported here so that only the sharpness table pays for loading the
    # quadrature stack (about 25 MB of RSS and 0.2 s of start-up)
    from scipy.integrate import quad

    value, abserr, info, *stuff = quad(
        fn, a, b, epsabs=0.0, epsrel=QUAD_REL_TOL, limit=200, full_output=True
    )
    if stuff:  # quadpack appended an explanation: it did not converge
        raise QuadratureError(
            f"quadrature for {what} on [{a:g}, {b:g}] failed: {stuff[0]} "
            f"(value {value:.6e}, abserr {abserr:.3e})"
        )
    return value


def _scaled_pow(x: np.ndarray, p: float) -> np.ndarray:
    """x**p for x in [0, 1], evaluated in log space to dodge underflow noise."""
    x = np.asarray(x, dtype=float)
    with np.errstate(divide="ignore", under="ignore"):
        return np.where(x > 0.0, np.exp(p * np.log(np.where(x > 0.0, x, 1.0))), 0.0)


def _piece_integrals(piece: RadialPiece, p: float, scale: float):
    """(int f^2 r dr, int (f/scale)^p r dr, int f'^2 r dr) over one piece."""
    if piece.constant is not None:
        c = piece.constant
        geom = 0.5 * (piece.r_hi**2 - piece.r_lo**2)
        # exact closed forms; the L^p part in log space to avoid under/overflow
        log_ip = p * (math.log(c) - math.log(scale)) + math.log(geom)
        return c * c * geom, math.exp(log_ip), 0.0

    integrands = (
        ("L2", lambda r: piece.func(r) ** 2),
        ("Lp", lambda r: _scaled_pow(np.abs(piece.func(r)) / scale, p)),
        ("H1", lambda r: piece.deriv(r) ** 2),
    )
    if piece.log_substitution:  # r dr = r^2 dt with r = e^{-t}
        t_lo, t_hi = -math.log(piece.r_hi), -math.log(piece.r_lo)
        return tuple(
            _quad(lambda t, g=g: g(np.exp(-t)) * np.exp(-2.0 * t), t_lo, t_hi,
                  f"{name} piece (log variable)")
            for name, g in integrands
        )
    return tuple(
        _quad(lambda r, g=g: g(r) * r, piece.r_lo, piece.r_hi, f"{name} piece")
        for name, g in integrands
    )


def _profile_max(profile: RadialProfile) -> float:
    worst = 0.0
    for piece in profile.pieces:
        if piece.constant is not None:
            worst = max(worst, abs(piece.constant))
            continue
        r = np.linspace(piece.r_lo, piece.r_hi, 65)
        r[0] = min(piece.r_lo * (1 + 1e-12), piece.r_hi)  # keep inside the domain
        worst = max(worst, float(np.max(np.abs(piece.func(r)))))
    return worst


def radial_norms(profile: RadialProfile, p: float) -> RadialNorms:
    """L^2, L^p and homogeneous H^1 norms of a radial profile on the plane.

    Uses 2 pi int g(r) r dr with adaptive quadrature at relative tolerance
    1e-8 per piece; the L^p integrand is globally rescaled by the profile
    max so that large p stays inside double-precision range.
    """
    scale = _profile_max(profile)
    if scale == 0.0:
        return RadialNorms(0.0, 0.0, 0.0)
    i2 = ip = ih = 0.0
    for piece in profile.pieces:
        a, b, c = _piece_integrals(piece, p, scale)
        i2, ip, ih = i2 + a, ip + b, ih + c
    two_pi = 2.0 * math.pi
    lp = scale * math.exp((math.log(two_pi * ip)) / p) if ip > 0.0 else 0.0
    return RadialNorms(math.sqrt(two_pi * i2), lp, math.sqrt(two_pi * ih))


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
        profile = build_extremizer(p)
        norms = radial_norms(profile, p)
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
