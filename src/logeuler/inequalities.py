"""Numerical verification of the functional inequalities behind the solver:
the dyadic multiplier bound, the sqrt(p) Lebesgue embedding, the logarithmic
interpolation estimate for the smoothed velocity gradient, and the Bernstein
estimates.  All checks run over deterministic, seeded corpora of torus
fields and report the worst observed ratio.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from typing import Mapping, Sequence

import numpy as np
import scipy.fft as _fft

from .multipliers import is_dyadic, mtilde, phi_eval, tgamma_eval
from .norms import (
    FOUR_PI_SQ,
    grad_u_sup,
    lp_norm,
    lp_norm_map,
    sobolev_norm,
    sup_p_ratio,
)
from .spectral import (
    Grid,
    RealField,
    SpectralField,
    dft_inverse,
    half_spectrum_weights,
    hermitian_part,
)

__all__ = [
    "CorpusSpec",
    "ReportRow",
    "InequalityReport",
    "build_corpus",
    "check_embedding",
    "check_log_interpolation",
    "check_multiplier_bound",
    "check_bernstein",
]

# deterministic mode table for the single-mode corpus members
_SINGLE_MODES = [(1, 0), (0, 1), (2, 0), (0, 4), (3, 4), (8, 0), (0, 16), (12, 5)]
# squared radii of lattice shells with several lattice points each
_SHELL_RADII_SQ = [2, 5, 25, 50]


def _single_modes_for(n: int) -> list[tuple[int, int]]:
    """Mode table folded into the resolvable band of an n-point grid."""
    out = []
    for k1, k2 in _SINGLE_MODES:
        while max(k1, k2) > n // 3:
            k1 = (k1 + 1) // 2 if k1 else 0
            k2 = (k2 + 1) // 2 if k2 else 0
        out.append((k1, k2))
    return out


@dataclass(frozen=True)
class CorpusSpec:
    """Deterministic description of a test-function corpus.

    kind "default" assembles the standard mixture: ``size - 16`` random
    band-limited fields plus 8 single modes, 4 lattice shells and 4
    lacunary (multiscale) fields.  band = 0 resolves to n // 4.
    """

    kind: str = "default"
    seed: int = 0
    size: int = 80
    band: int = 0
    n: int = 128

    def __post_init__(self) -> None:
        kinds = {"default", "random_band", "single_mode", "shell", "multiscale"}
        if self.kind not in kinds:
            raise ValueError(f"unknown corpus kind {self.kind!r}")
        if self.kind == "default" and self.size < 20:
            raise ValueError("default corpus needs size >= 20")

    @property
    def resolved_band(self) -> int:
        return self.band if self.band > 0 else self.n // 4


def _random_band_field(grid: Grid, rng: np.random.Generator, band: int) -> np.ndarray:
    z = rng.standard_normal((grid.n, grid.n)) + 1j * rng.standard_normal(
        (grid.n, grid.n)
    )
    mask = (grid.kmod > 0) & (grid.kmod <= band)
    coeffs = hermitian_part(np.where(mask, z, 0.0))
    l2 = math.sqrt(FOUR_PI_SQ * float(np.sum(np.abs(coeffs) ** 2)))
    return coeffs / l2


def _add_mode(coeffs: np.ndarray, k: tuple[int, int], amp: complex) -> None:
    """Add amp * exp(i k.x) + conj to keep the field real."""
    n = coeffs.shape[0]
    coeffs[k[0] % n, k[1] % n] += amp
    coeffs[(-k[0]) % n, (-k[1]) % n] += np.conj(amp)


def _single_mode_field(grid: Grid, k: tuple[int, int]) -> np.ndarray:
    coeffs = np.zeros((grid.n, grid.n), dtype=complex)
    _add_mode(coeffs, k, -0.5j)  # sin(k . x)
    return coeffs


def _shell_field(grid: Grid, rsq: int, rng: np.random.Generator) -> np.ndarray:
    coeffs = np.zeros((grid.n, grid.n), dtype=complex)
    limit = int(math.isqrt(rsq)) + 1
    for k1 in range(-limit, limit + 1):
        for k2 in range(0, limit + 1):
            if k1 * k1 + k2 * k2 != rsq or (k2 == 0 and k1 <= 0):
                continue
            phase = rng.uniform(0.0, 2.0 * np.pi)
            _add_mode(coeffs, (k1, k2), 0.5 * np.exp(1j * phase))
    return coeffs


def _multiscale_field(
    grid: Grid, band: int, rng: np.random.Generator
) -> np.ndarray:
    """Lacunary spectrum: one mode per dyadic shell, weights 1/(j+1)."""
    coeffs = np.zeros((grid.n, grid.n), dtype=complex)
    j = 0
    while 2**j <= band:
        k = (2**j, 0) if j % 2 == 0 else (0, 2**j)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        _add_mode(coeffs, k, 0.5 * np.exp(1j * phase) / (j + 1))
        j += 1
    return coeffs


def build_corpus(spec: CorpusSpec) -> list[tuple[str, SpectralField]]:
    """Materialize a corpus; the same spec always yields identical fields."""
    grid = Grid(spec.n)
    band = spec.resolved_band
    rng = np.random.default_rng(spec.seed)
    out: list[tuple[str, SpectralField]] = []

    def emit(name, coeffs):
        out.append((name, SpectralField(grid, coeffs)))

    kind = spec.kind
    if kind in ("default", "random_band"):
        count = spec.size - 16 if kind == "default" else spec.size
        for i in range(count):
            emit(f"random_band[{i}]", _random_band_field(grid, rng, band))
    if kind in ("default", "single_mode"):
        modes = _single_modes_for(grid.n)
        count = 8 if kind == "default" else spec.size
        for i in range(count):
            k = modes[i % len(modes)]
            emit(f"single_mode[{k[0]},{k[1]}]", _single_mode_field(grid, k))
    if kind in ("default", "shell"):
        count = 4 if kind == "default" else spec.size
        for i in range(count):
            rsq = _SHELL_RADII_SQ[i % len(_SHELL_RADII_SQ)]
            emit(f"shell[{rsq}]", _shell_field(grid, rsq, rng))
    if kind in ("default", "multiscale"):
        count = 4 if kind == "default" else spec.size
        for i in range(count):
            emit(f"multiscale[{i}]", _multiscale_field(grid, band, rng))
    return out


@dataclass(frozen=True)
class ReportRow:
    function_id: str
    params: tuple[tuple[str, float], ...]
    ratio: float


@dataclass(frozen=True)
class InequalityReport:
    """Per-function ratios of one inequality check plus the worst case."""

    name: str
    params: Mapping[str, object] = dc_field(default_factory=dict)
    rows: tuple[ReportRow, ...] = ()

    @property
    def max_ratio(self) -> float:
        return max((row.ratio for row in self.rows), default=0.0)

    @property
    def attaining_id(self) -> str | None:
        if not self.rows:
            return None
        return max(self.rows, key=lambda row: row.ratio).function_id


def check_embedding(corpus: CorpusSpec, p_max: int) -> InequalityReport:
    """Worst ratio ||f||_p / (sqrt(p) (||f||_2 + ||f||_H1dot)) over the corpus.

    Zero fields are excluded (0/0 convention); each row records the p at
    which the per-function maximum is attained.
    """
    rows = []
    for fid, f in build_corpus(corpus):
        phys = dft_inverse(f)
        lp = lp_norm_map(phys, range(2, p_max + 1))
        denom_base = lp[2] + sobolev_norm(f, 1.0)
        if denom_base == 0.0:
            continue
        best_p, best = max(
            ((p, lp[p] / (math.sqrt(p) * denom_base)) for p in lp),
            key=lambda item: item[1],
        )
        rows.append(ReportRow(fid, (("p", float(best_p)),), best))
    params = {"p_max": p_max, "n": corpus.n, "seed": corpus.seed,
              "band": corpus.resolved_band, "size": corpus.size}
    return InequalityReport("embedding", params, tuple(rows))


def check_log_interpolation(
    corpus: CorpusSpec, gamma: float, p_max: int
) -> InequalityReport:
    """Worst ratio of the smoothed-velocity-gradient sup norm against
    log(||f||_H1 + e) * sup_p ||f||_p / sqrt(p).

    gamma below 3/2 is allowed but flagged exploratory: the estimate is only
    claimed for gamma >= 3/2.
    """
    if gamma < 0:
        raise ValueError(f"gamma must be >= 0, got {gamma}")
    rows = []
    for fid, f in build_corpus(corpus):
        phys = dft_inverse(f)
        spr = sup_p_ratio(phys, p_max)
        if spr == 0.0:
            continue
        h1 = lp_norm(phys, 2) + sobolev_norm(f, 1.0)
        denom = math.log(h1 + math.e) * spr
        rows.append(
            ReportRow(fid, (("gamma", gamma),), grad_u_sup(f, gamma) / denom)
        )
    params = {"gamma": gamma, "p_max": p_max, "n": corpus.n, "seed": corpus.seed,
              "band": corpus.resolved_band, "size": corpus.size,
              "exploratory": gamma < 1.5}
    return InequalityReport("log_interpolation", params, tuple(rows))


def _annuli(grid: Grid, N_set: Sequence[float]) -> list[tuple[float, np.ndarray]]:
    """Dyadic annulus weights phi(|k|/N) - phi(2|k|/N) on the half spectrum.

    The weight is supported in |k| <= 2N, so each table keeps only the rfft
    columns 0 .. floor(2N) it can reach (all n//2 + 1 once 2N >= n/2, which
    spares the inverse transform a zero-padded copy).
    """
    out = []
    for N in N_set:
        N = float(N)
        cols = min(math.floor(2.0 * N) + 1, grid.n // 2 + 1)
        r = grid.kmod[:, :cols] / N
        out.append((N, phi_eval(r) - phi_eval(2.0 * r)))
    return out


def _multiplier_tables(grid: Grid, N_set: Sequence[float], gamma: float):
    """Per dyadic N: N, the cropped annulus weight, the symbol T_gamma(|k|)
    on the same columns (views of one table), and mtilde(N)."""
    annuli = _annuli(grid, N_set)
    widest = max((w.shape[1] for _, w in annuli), default=0)
    symbol = tgamma_eval(grid.kmod[:, :widest], gamma)
    return [
        (N, w, symbol[:, : w.shape[1]], mtilde(N, gamma)) for N, w in annuli
    ]


def _block_inverse(half: np.ndarray, n: int) -> np.ndarray:
    """Physical samples sum_k c(k) exp(i k.x) of a real field given by its
    first K rfft-layout columns (the rest zero).

    Equal bit for bit to ``scipy.fft.irfft2(half, s=(n, n), norm="forward")``:
    below half the columns, the column transforms run on the K occupied
    columns only and the row transforms zero-pad the rest.
    """
    if half.shape[1] >= (n // 2 + 1) // 2:
        return _fft.irfft2(half, s=(n, n), norm="forward")
    cols = _fft.ifft(half, axis=0, norm="forward")
    return _fft.irfft(cols, n=n, axis=1, norm="forward")


def _block_norm(grid: Grid, half: np.ndarray, q) -> float:
    """L^q norm of the real field whose leading rfft-layout columns are
    ``half``: weighted Plancherel at q = 2, the inverse transform otherwise."""
    if float(q) == 2.0:
        weights = half_spectrum_weights(grid.n)[: half.shape[1]]
        power = half.real**2 + half.imag**2
        return math.sqrt(FOUR_PI_SQ * float(np.sum(power @ weights)))
    return lp_norm(RealField(grid, _block_inverse(half, grid.n)), q)


def check_multiplier_bound(
    gamma: float,
    N_set: Sequence[float],
    q: Sequence[float],
    corpus: CorpusSpec,
) -> InequalityReport:
    """Worst ratio ||T_gamma P_N f||_q / (mtilde(N) ||P_N f||_q).

    At q = 2 the ratio is bounded by 1 exactly (diagonal operator, symbol
    sup over the dyadic annulus below mtilde(N)).  Pairs with an empty
    frequency block are skipped.
    """
    if gamma < 0:
        raise ValueError(f"gamma must be >= 0, got {gamma}")
    for N in N_set:
        if not is_dyadic(N):
            raise ValueError(f"N_set must be dyadic, got {N!r}")
    fields = build_corpus(corpus)
    # tables built once, from the grid every corpus field shares
    tables = _multiplier_tables(fields[0][1].grid, N_set, gamma) if fields else []
    rows = []
    for fid, f in fields:
        for N, weight, symbol, bound in tables:
            block = f.coeffs[:, : weight.shape[1]] * weight
            if not block.any():  # an empty block has zero norm at every q
                continue
            denoms = [_block_norm(f.grid, block, q_val) for q_val in q]
            block *= symbol  # now T_gamma P_N f; in place keeps peak memory down
            for q_val, denom in zip(q, denoms):
                if denom == 0.0:
                    continue
                rows.append(
                    ReportRow(
                        fid,
                        (("N", N), ("q", float(q_val))),
                        _block_norm(f.grid, block, q_val) / (bound * denom),
                    )
                )
    params = {"gamma": gamma, "N_set": tuple(float(N) for N in N_set),
              "q": tuple(float(v) for v in q), "n": corpus.n,
              "seed": corpus.seed, "band": corpus.resolved_band}
    return InequalityReport("multiplier_bound", params, tuple(rows))


def check_bernstein(
    corpus: CorpusSpec,
    N_set: Sequence[float],
    pq_pairs: Sequence[tuple[float, float]],
) -> InequalityReport:
    """Worst ratio ||P_N f||_q / (N^{2(1/p - 1/q)} ||f||_p) for 2 <= p <= q."""
    for N in N_set:
        if not is_dyadic(N):
            raise ValueError(f"N_set must be dyadic, got {N!r}")
    for p, q_val in pq_pairs:
        if not (2.0 <= float(p) <= float(q_val)):
            raise ValueError(f"need 2 <= p <= q, got ({p}, {q_val})")
    fields = build_corpus(corpus)
    annuli = _annuli(fields[0][1].grid, N_set) if fields else []
    rows = []
    for fid, f in fields:
        phys = dft_inverse(f)
        base = {p: lp_norm(phys, p) for p in {pair[0] for pair in pq_pairs}}
        for N, weight in annuli:
            block = f.coeffs[:, : weight.shape[1]] * weight
            norms = {q_val: _block_norm(f.grid, block, q_val) for _, q_val in pq_pairs}
            for p, q_val in pq_pairs:
                if base[p] == 0.0:
                    continue
                inv_p = 0.0 if np.isinf(float(p)) else 1.0 / float(p)
                inv_q = 0.0 if np.isinf(float(q_val)) else 1.0 / float(q_val)
                scale = N ** (2.0 * (inv_p - inv_q))
                rows.append(
                    ReportRow(
                        fid,
                        (("N", N), ("p", float(p)), ("q", float(q_val))),
                        norms[q_val] / (scale * base[p]),
                    )
                )
    params = {"N_set": tuple(float(N) for N in N_set),
              "pq_pairs": tuple((float(p), float(q_val)) for p, q_val in pq_pairs),
              "n": corpus.n, "seed": corpus.seed, "band": corpus.resolved_band}
    return InequalityReport("bernstein", params, tuple(rows))
