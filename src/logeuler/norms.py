"""Norms and functionals tracked along solver trajectories: Lebesgue norms,
homogeneous Sobolev norms, the sup_p ||f||_p / sqrt(p) functional, the sup
norm of the velocity gradient, and the conserved generalized energy.

Quadrature convention: integrals over the torus use the uniform rectangle
rule, which is spectrally accurate for band-limited integrands, and
Plancherel reads sum_j |f_j|^2 dx^2 = 4 pi^2 sum_k |coeff(k)|^2.

Spectral functionals read the rfft half of the coefficients (columns
0..n/2), which holds all the data of a real field: Plancherel sums weight
columns 0 and n/2 by 1 and the others by 2, and the physical fields (the
vorticity, three components of grad u) come from the grid's transform plan,
into its slots "omega" and "grad"; ``lp_norm_map`` sweeps its powers in the
slots "lp_base" and "lp_acc".
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping

import numpy as np

from .multipliers import tgamma_eval
from .spectral import (
    FOUR_PI_SQ,
    Grid,
    RealField,
    SpectralField,
    check_zero_mean,
    half_sum,
)

__all__ = [
    "NormBundle",
    "lp_norm",
    "lp_norm_map",
    "sobolev_norm",
    "sup_p_ratio",
    "grad_u_sup",
    "generalized_energy",
    "compute_norm_bundle",
]


def _sup_abs(values: np.ndarray) -> float:
    """max |values| without an abs copy of the array."""
    return max(float(values.max()), -float(values.min()))


# at n = 1024 a table takes about 4 MB; the solver's workspace parts keep
# the same four entries
@lru_cache(maxsize=4)
def _smoothed_inverse_k2(n: int, gamma: float) -> np.ndarray:
    """T_gamma(|k|) / |k|^2 on the rfft half of grid size n, 0 at the
    origin; read-only, shared by every call with the same (n, gamma)."""
    g = Grid(n)
    k2 = g.k2.copy()
    k2[0, 0] = 1.0
    out = tgamma_eval(g.kmod, gamma) / k2
    out[0, 0] = 0.0
    out.flags.writeable = False
    return out


def lp_norm(f: RealField, p) -> float:
    """Lebesgue norm (sum_j |f|^p dx^2)^(1/p); p = inf gives the grid max.

    Only p >= 2 is supported; the scale is factored out before exponentiation
    so large p cannot overflow.
    """
    p = float(p)
    if not p >= 2.0:
        raise ValueError(f"p must be >= 2 (or inf), got {p}")
    m = _sup_abs(f.values)
    if np.isinf(p) or m == 0.0:
        return m
    scaled = np.abs(f.values)
    scaled /= m
    scaled **= p
    total = float(np.sum(scaled)) * f.grid.dx**2
    return m * total ** (1.0 / p)


def lp_norm_map(f: RealField, p_values) -> dict[int, float]:
    """L^p norms for a set of integer exponents >= 2, sharing one power sweep."""
    ps = sorted(set(int(p) for p in p_values))
    if ps and ps[0] < 2:
        raise ValueError(f"p must be >= 2, got {ps[0]}")
    out: dict[int, float] = {}
    m = _sup_abs(f.values)
    if m == 0.0:
        return {p: 0.0 for p in ps}
    plan = f.grid.plan
    base = np.abs(f.values, out=plan.real("lp_base"))
    base /= m
    dx2 = f.grid.dx**2
    acc = np.multiply(base, base, out=plan.real("lp_acc"))
    power = 2
    for p in ps:
        while power < p:
            np.multiply(acc, base, out=acc)
            power += 1
        out[p] = m * (float(np.sum(acc)) * dx2) ** (1.0 / p)
    return out


def sobolev_norm(s: SpectralField, order: float) -> float:
    """Homogeneous Sobolev norm (4 pi^2 sum_{k!=0} |k|^{2s} |coeff|^2)^(1/2).

    Negative orders require a zero-mean field.
    """
    if order < 0:
        check_zero_mean(s, f"Sobolev norm of order {order}")
    kmod = s.grid.kmod.copy()
    kmod[0, 0] = 1.0  # origin excluded from the sum below
    power = np.abs(s.coeffs) ** 2 * kmod ** (2.0 * order)
    power[0, 0] = 0.0
    return float(np.sqrt(FOUR_PI_SQ * half_sum(power)))


def sup_p_ratio(f: RealField, p_max: int) -> float:
    """max over integer p in {2, ..., p_max} of ||f||_p / sqrt(p)."""
    if p_max < 2:
        raise ValueError(f"p_max must be >= 2, got {p_max}")
    norms = lp_norm_map(f, range(2, p_max + 1))
    return max(norms[p] / np.sqrt(p) for p in norms)


def grad_u_sup(omega: SpectralField, gamma: float) -> float:
    """Sup norm over all four components of grad u, u the smoothed velocity.

    With psi = T_gamma omega / |k|^2 the velocity is u = (i k2, -i k1) psi,
    so d1 u1 = -k1 k2 psi, d2 u1 = -k2^2 psi, d1 u2 = k1^2 psi and
    d2 u2 = -d1 u1: three inverse transforms cover all four components.
    """
    check_zero_mean(omega, "velocity-gradient sup")
    g = omega.grid
    psi = omega.coeffs * _smoothed_inverse_k2(g.n, gamma)
    kx, ky = g.kx, g.ky
    worst = 0.0
    for symbol in (-kx * ky, -ky * ky, kx * kx):
        d = g.plan.inverse(symbol, psi, "grad", norm="forward")
        worst = max(worst, _sup_abs(d))
    return worst


def generalized_energy(omega: SpectralField, gamma: float) -> float:
    """Conserved quadratic functional 4 pi^2 sum_{k!=0} m(|k|) |coeff|^2 / |k|^2,

    with m the log-smoothing symbol; at gamma = 0 this is the kinetic energy
    ||u||_2^2 of the classical flow.
    """
    check_zero_mean(omega, "generalized energy")
    inv_k2 = _smoothed_inverse_k2(omega.grid.n, gamma)
    return FOUR_PI_SQ * half_sum(inv_k2 * np.abs(omega.coeffs) ** 2)


@dataclass(frozen=True)
class NormBundle:
    """All proof-relevant norms of one vorticity snapshot."""

    l2: float
    h1dot: float
    hm1dot: float
    lp: Mapping[int, float]
    sup_p_ratio: float
    grad_u_sup: float
    energy_gamma: float


def compute_norm_bundle(
    omega: SpectralField, gamma: float, p_max: int = 64
) -> NormBundle:
    """Evaluate the full norm bundle of a zero-mean vorticity field."""
    g = omega.grid
    phys = RealField(g, g.plan.inverse(None, omega.coeffs, "omega", norm="forward"))
    p_grid = range(2, max(p_max, 8) + 1)  # always include p = 4, 8 for reports
    lp = lp_norm_map(phys, p_grid)
    ratio = max(lp[p] / np.sqrt(p) for p in range(2, p_max + 1))
    return NormBundle(
        l2=lp[2],
        h1dot=sobolev_norm(omega, 1.0),
        hm1dot=sobolev_norm(omega, -1.0),
        lp=lp,
        sup_p_ratio=ratio,
        grad_u_sup=grad_u_sup(omega, gamma),
        energy_gamma=generalized_energy(omega, gamma),
    )
