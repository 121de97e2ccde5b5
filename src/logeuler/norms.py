"""Norms and functionals tracked along solver trajectories: Lebesgue norms,
homogeneous Sobolev norms, the sup_p ||f||_p / sqrt(p) functional, the sup
norm of the velocity gradient, and the conserved generalized energy.

Quadrature convention: integrals over the torus use the uniform rectangle
rule, which is spectrally accurate for band-limited integrands, and
Plancherel reads sum_j |f_j|^2 dx^2 = 4 pi^2 sum_k |coeff(k)|^2.

Spectral functionals read the rfft half of the coefficients (columns
0..n/2), which holds all the data of a real field: Plancherel sums weight
columns 0 and n/2 by 1 and the others by 2.  The physical fields (the
vorticity, three components of grad u) come from the calling thread's
transform plan (``Grid.plan``) and the occupied columns only (``occupied``):
the vorticity into slot "lp_base", the sup norm of grad u block by block
with no n x n array.  One kernel (``_powers``) makes every L^p norm: |f|
once into slot "lp_base", m = max|f| read from it, the powers |f/m|^p in
slot "lp_acc", one multiply each, and a sum only at the p its caller needs,
``lp_norms`` a set of p (inf included) and ``sup_over_p`` p = 2, 3, ... in
turn.  Samples made for it go straight into the slot it overwrites
(``lp_samples``), which no other module names.

Holder's early stop: with m = max|f|, ||f||_p <= m (4 pi^2)^(1/p), and that
bound over sqrt(p) falls strictly in p.  So a sweep for sup_p ||f||_p/sqrt(p)
stops at p once the bound at p + 1, taken through the same ratio and raised by
a relative 1e-12 for the rounding of the computed norms, is below the best
ratio so far: no later p can win, and the maximum and its p are the floats of
the full sweep.  ``NormBundle.lp`` holds exactly p = 2..8.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import count
from typing import Iterator, Mapping

import numpy as np

from .multipliers import tgamma_eval
from .spectral import (
    FOUR_PI_SQ,
    Grid,
    RealField,
    SpectralField,
    TransformPlan,
    _sup_abs,
    check_zero_mean,
    occupied,
    plancherel,
    read_only,
)

__all__ = [
    "NormBundle",
    "P_LIMIT",
    "lp_norm",
    "lp_norms",
    "lp_norm_map",
    "lp_samples",
    "sobolev_norm",
    "sup_over_p",
    "grad_u_sup",
    "generalized_energy",
    "compute_norm_bundle",
]


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
    return read_only(out)


@lru_cache(maxsize=4)
def _grad_symbols(n: int) -> tuple[np.ndarray, ...]:
    """The integer symbols -k1 k2, -k2^2 and k1^2 of d1 u1, d2 u1 and d1 u2
    on the rfft half of grid size n, the last two as the row and column
    they are constant along; read-only."""
    k1 = Grid(n).k1
    kx, ky = k1[:, None], k1[None, : n // 2 + 1]
    return tuple(map(read_only, (-kx * ky, -ky * ky, kx * kx)))


@lru_cache(maxsize=4)
def _sobolev_weight(n: int, order: float) -> np.ndarray:
    """|k|^(2 order) on the rfft half of grid size n, 1 at the origin (which
    the Sobolev sums leave out); read-only."""
    kmod = Grid(n).kmod.copy()
    kmod[0, 0] = 1.0
    return read_only(kmod ** (2.0 * order))


def _powers(values: np.ndarray, plan: TransformPlan) -> Iterator:
    """The L^p kernel: m = max|f| of the samples ``values``, then, unless
    m = 0, the powers |f/m|^p for p = 2, 3, ...

    |f|/m goes to ``plan``'s slot "lp_base", which ``values`` may be, and
    each power to slot "lp_acc", one multiply from the last, made only when
    the next p is asked for; the caller sums at the p it needs, ||f||_p =
    m (sum |f/m|^p dx^2)^(1/p), and stops when it has them.  So one kernel
    per plan runs at a time.
    """
    base = np.abs(values, out=plan.real("lp_base"))
    m = float(base.max())
    yield m
    if m != 0.0:
        base /= m
        acc = np.multiply(base, base, out=plan.real("lp_acc"))
        while True:
            yield acc
            np.multiply(acc, base, out=acc)


# the largest finite p of lp_norms: the kernel makes p - 1 products, so the
# call's time grows linearly in p
P_LIMIT = 1024


def _integer_p(p) -> int:
    """p as an int, or ValueError unless p is an integer in [2, P_LIMIT]."""
    p = float(p)
    if not (p >= 2.0 and p.is_integer()):
        raise ValueError(f"p must be >= 2 and an integer, got {p}")
    if p > P_LIMIT:
        raise ValueError(f"p must be at most {P_LIMIT}, got {p:g}")
    return int(p)


def lp_norms(values: np.ndarray, dx: float, ps, plan: TransformPlan) -> dict:
    """{p: ||f||_p} of the samples ``values`` at grid spacing dx for each p
    in ``ps``, an integer in [2, P_LIMIT] (keyed as an int) or inf, in one
    pass of the kernel on ``plan``, which should be the calling thread's
    own (``Grid.plan``); ``values`` may be its slot "lp_base"."""
    ps = {float(p) for p in ps}
    finite = sorted(map(_integer_p, ps - {np.inf}))
    powers = _powers(values, plan)
    m, out = next(powers), dict.fromkeys(finite, 0.0)
    for p, acc in zip(range(2, max(finite, default=1) + 1), powers):
        if p in out:
            out[p] = m * (float(np.sum(acc)) * dx**2) ** (1.0 / p)
    if np.inf in ps:
        out[np.inf] = m
    return out


def lp_samples(half: np.ndarray, grid: Grid) -> RealField:
    """The real field on ``grid`` with leading rfft-layout columns ``half``
    (the rest zero), its samples in the slot of the calling thread's plan
    that the kernel overwrites: valid for one ``lp_norms`` or
    ``sup_over_p`` call on that plan."""
    return RealField(grid, grid.plan.inverse(None, half, "lp_base"))


def lp_norm(f: RealField, p) -> float:
    """Lebesgue norm (sum_j |f|^p dx^2)^(1/p), p an integer in [2, P_LIMIT],
    or the grid max at p = inf; the scale is factored out before the powers
    so large p cannot overflow."""
    return next(iter(lp_norms(f.values, f.grid.dx, [p], f.grid.plan).values()))


def lp_norm_map(f: RealField, p_values) -> dict:
    """``lp_norms`` of f on its grid's plan."""
    return lp_norms(f.values, f.grid.dx, p_values, f.grid.plan)


def _sobolev(power: np.ndarray, order: float) -> float:
    """``sobolev_norm`` from the power |coeff|^2 of the rfft half."""
    weighted = power * _sobolev_weight(power.shape[0], order)
    weighted[0, 0] = 0.0
    return float(np.sqrt(plancherel(weighted)))


def sobolev_norm(s: SpectralField, order: float) -> float:
    """Homogeneous Sobolev norm (4 pi^2 sum_{k!=0} |k|^{2s} |coeff|^2)^(1/2).

    Negative orders require a zero-mean field.
    """
    if order < 0:
        check_zero_mean(s, f"Sobolev norm of order {order}")
    return _sobolev(np.abs(s.coeffs) ** 2, order)


def sup_over_p(
    f: RealField, p_max: int, p_keep: int = 2
) -> tuple[dict[int, float], float]:
    """({p: ||f||_p}, max over p in {2, ..., p_max} of ||f||_p / sqrt(p)).

    The map holds p = 2..p_keep and every p the sweep reached past it: it
    stops at p_max or once Holder's bound shows no later p can win.
    """
    if p_max < 2:
        raise ValueError(f"p_max must be >= 2, got {p_max}")
    powers = _powers(f.values, f.grid.plan)
    m, lp = next(powers), {}
    for p, acc in zip(count(2), powers):
        lp[p] = norm = m * (float(np.sum(acc)) * f.grid.dx**2) ** (1.0 / p)
        if p <= p_max:
            ratio = norm / np.sqrt(p)
            best = ratio if p == 2 else max(best, ratio)
        cap = m * FOUR_PI_SQ ** (1.0 / (p + 1)) / np.sqrt(p + 1)
        if p >= p_keep and (p >= p_max or cap * (1.0 + 1e-12) < best):
            return lp, best
    # m = 0: every norm is 0, so no p stops the sweep early
    return dict.fromkeys(range(2, max(p_max, p_keep) + 1), 0.0), 0.0


def grad_u_sup(omega: SpectralField, gamma: float) -> float:
    """Sup norm over all four components of grad u, u the smoothed velocity.

    With psi = T_gamma omega / |k|^2 the velocity is u = (i k2, -i k1) psi,
    so d1 u1 = -k1 k2 psi, d2 u1 = -k2^2 psi, d1 u2 = k1^2 psi and
    d2 u2 = -d1 u1: three inverse transforms cover all four components,
    each reduced to its sup norm block by block (``sup_inverse``) on the
    occupied columns of omega only.  A NaN in any component gives NaN.
    """
    check_zero_mean(omega, "velocity-gradient sup")
    g, cols = omega.grid, occupied(omega.coeffs).shape[1]
    psi = omega.coeffs[:, :cols] * _smoothed_inverse_k2(g.n, gamma)[:, :cols]
    sups = [g.plan.sup_inverse(s[:, :cols], psi) for s in _grad_symbols(g.n)]
    return float(np.max(sups))


def generalized_energy(omega: SpectralField, gamma: float) -> float:
    """Conserved quadratic functional 4 pi^2 sum_{k!=0} m(|k|) |coeff|^2 / |k|^2,

    with m the log-smoothing symbol; at gamma = 0 this is the kinetic energy
    ||u||_2^2 of the classical flow.
    """
    check_zero_mean(omega, "generalized energy")
    inv_k2 = _smoothed_inverse_k2(omega.grid.n, gamma)
    return plancherel(inv_k2 * np.abs(omega.coeffs) ** 2)


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
    # p = 4, 8 for the CSV
    lp, ratio = sup_over_p(lp_samples(occupied(omega.coeffs), g), p_max, p_keep=8)
    power = np.abs(omega.coeffs) ** 2  # for the three spectral sums
    return NormBundle(
        l2=lp[2],
        h1dot=_sobolev(power, 1.0),
        hm1dot=_sobolev(power, -1.0),
        lp={p: lp[p] for p in range(2, 9)},
        sup_p_ratio=ratio,
        grad_u_sup=grad_u_sup(omega, gamma),
        energy_gamma=plancherel(_smoothed_inverse_k2(g.n, gamma) * power),
    )
