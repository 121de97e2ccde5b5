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
into its slots "lp_base" and "grad".  Every L^p norm comes from one power
sweep, which makes the powers |f/m|^p, p = 2, 3, ..., in the slots "lp_base"
and "lp_acc" of a given plan.

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
    check_zero_mean,
    plancherel,
    read_only,
)

__all__ = [
    "NormBundle",
    "P_LIMIT",
    "lp_norm",
    "lp_norm_samples",
    "lp_norm_map",
    "lp_sweep",
    "out_of_reach",
    "sobolev_norm",
    "sup_over_p",
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


def _power_sweep(
    values: np.ndarray, dx: float, plan: TransformPlan
) -> Iterator[tuple[int, float, float]]:
    """(p, ||f||_p, cap) for p = 2, 3, ... of the samples ``values`` at grid
    spacing dx, where cap = m (4 pi^2)^(1/(p+1)) is Holder's bound on
    ||f||_{p+1}, m = max|f|.

    Each power costs one multiply and one sum, made only when asked for; the
    caller ends the sweep with ``break``.  The powers live in ``plan``'s
    slots "lp_base" and "lp_acc", so one sweep per plan runs at a time;
    ``values`` may itself be slot "lp_base", which the sweep then overwrites.
    """
    m = _sup_abs(values)
    if m == 0.0:
        for p in count(2):
            yield p, 0.0, 0.0
    base = np.abs(values, out=plan.real("lp_base"))
    base /= m
    dx2 = dx**2
    acc = np.multiply(base, base, out=plan.real("lp_acc"))
    for p in count(2):  # acc holds |f/m|^p
        yield (p, m * (float(np.sum(acc)) * dx2) ** (1.0 / p),
               m * FOUR_PI_SQ ** (1.0 / (p + 1)))
        np.multiply(acc, base, out=acc)


# the largest finite p of lp_norm and lp_norm_map: the sweep makes p - 1
# products, so the call's time grows linearly in p
P_LIMIT = 1024


def _integer_p(p) -> int:
    """p as an int, or ValueError unless p is an integer in [2, P_LIMIT]."""
    p = float(p)
    if not (p >= 2.0 and p.is_integer()):
        raise ValueError(f"p must be >= 2 and an integer, got {p}")
    if p > P_LIMIT:
        raise ValueError(f"p must be at most {P_LIMIT}, got {p:g}")
    return int(p)


def lp_norm(f: RealField, p) -> float:
    """Lebesgue norm (sum_j |f|^p dx^2)^(1/p); p = inf gives the grid max.

    p is an integer in [2, P_LIMIT] or inf; the scale is factored out before
    the powers so large p cannot overflow.
    """
    return lp_norm_samples(f.values, f.grid.dx, p, f.grid.plan)


def lp_norm_samples(values: np.ndarray, dx: float, p, plan: TransformPlan) -> float:
    """``lp_norm`` of the samples ``values`` at grid spacing dx: the power
    sweep's value at p, in ``plan``'s slots "lp_base" and "lp_acc".

    It calls nothing perfbench's tracer wraps, so a worker thread may run it
    on a plan of its own: the tracer wraps ``lp_norm`` and keeps one span
    stack for one calling thread.
    """
    if float(p) == np.inf:
        return _sup_abs(values)
    p = _integer_p(p)
    for q, norm, _ in _power_sweep(values, dx, plan):
        if q == p:
            return norm


def lp_sweep(f: RealField) -> Iterator[tuple[int, float, float]]:
    """The power sweep (p, ||f||_p, cap), p = 2, 3, ..., of f on its grid's
    plan; f may itself be the plan's slot "lp_base"."""
    return _power_sweep(f.values, f.grid.dx, f.grid.plan)


def out_of_reach(cap_ratio: float, best: float) -> bool:
    """Whether Holder's bound on every later ratio, ``cap_ratio``, stays
    below ``best`` with a relative 1e-12 to spare for rounding."""
    return cap_ratio * (1.0 + 1e-12) < best


def lp_norm_map(f: RealField, p_values) -> dict[int, float]:
    """L^p norms for a set of integer exponents in [2, P_LIMIT], sharing one
    power sweep."""
    ps = sorted({_integer_p(p) for p in p_values})
    out: dict[int, float] = {}
    if not ps:
        return out
    for p, norm, _ in lp_sweep(f):
        if p in ps:
            out[p] = norm
        if p == ps[-1]:
            return out


def sobolev_norm(s: SpectralField, order: float) -> float:
    """Homogeneous Sobolev norm (4 pi^2 sum_{k!=0} |k|^{2s} |coeff|^2)^(1/2).

    Negative orders require a zero-mean field.
    """
    if order < 0:
        check_zero_mean(s, f"Sobolev norm of order {order}")
    power = np.abs(s.coeffs) ** 2 * _sobolev_weight(s.grid.n, order)
    power[0, 0] = 0.0
    return float(np.sqrt(plancherel(power)))


def sup_over_p(
    f: RealField, p_max: int, p_keep: int = 2
) -> tuple[dict[int, float], float]:
    """({p: ||f||_p}, max over p in {2, ..., p_max} of ||f||_p / sqrt(p)).

    The map holds p = 2..p_keep and every p the sweep reached past it: it
    stops at p_max or once Holder's bound shows no later p can win.
    """
    if p_max < 2:
        raise ValueError(f"p_max must be >= 2, got {p_max}")
    lp: dict[int, float] = {}
    for p, norm, cap in lp_sweep(f):
        lp[p] = norm
        if p <= p_max:
            ratio = norm / np.sqrt(p)
            best = ratio if p == 2 else max(best, ratio)
        if p >= p_keep and (
            p >= p_max or out_of_reach(cap / np.sqrt(p + 1), best)
        ):
            return lp, best


def grad_u_sup(omega: SpectralField, gamma: float) -> float:
    """Sup norm over all four components of grad u, u the smoothed velocity.

    With psi = T_gamma omega / |k|^2 the velocity is u = (i k2, -i k1) psi,
    so d1 u1 = -k1 k2 psi, d2 u1 = -k2^2 psi, d1 u2 = k1^2 psi and
    d2 u2 = -d1 u1: three inverse transforms cover all four components.
    """
    check_zero_mean(omega, "velocity-gradient sup")
    g = omega.grid
    psi = omega.coeffs * _smoothed_inverse_k2(g.n, gamma)
    worst = 0.0
    for symbol in _grad_symbols(g.n):
        d = g.plan.inverse(symbol, psi, "grad")
        worst = max(worst, _sup_abs(d))
    return worst


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
    # the sweep turns these samples into |f|/m in place: no slot of their own
    phys = RealField(g, g.plan.inverse(None, omega.coeffs, "lp_base"))
    lp, ratio = sup_over_p(phys, p_max, p_keep=8)  # p = 4, 8 for the CSV
    return NormBundle(
        l2=lp[2],
        h1dot=sobolev_norm(omega, 1.0),
        hm1dot=sobolev_norm(omega, -1.0),
        lp={p: lp[p] for p in range(2, 9)},
        sup_p_ratio=ratio,
        grad_u_sup=grad_u_sup(omega, gamma),
        energy_gamma=generalized_energy(omega, gamma),
    )
