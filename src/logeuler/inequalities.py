"""Numerical verification of the functional inequalities behind the solver:
the dyadic multiplier bound, the sqrt(p) Lebesgue embedding, the logarithmic
interpolation estimate for the smoothed velocity gradient, and the Bernstein
estimates.  All checks run over deterministic, seeded corpora of torus
fields and report the worst observed ratio.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field as dc_field
from queue import Queue
from typing import Mapping, Sequence

import numpy as np

from .multipliers import check_gamma, is_dyadic, mtilde, phi_eval, tgamma_eval
from .norms import (
    grad_u_sup,
    lp_norm,
    lp_norm_map,
    lp_norm_samples,
    sobolev_norm,
    sup_over_p,
)
from .spectral import (
    Grid,
    RealField,
    SpectralField,
    TransformPlan,
    check_grid_size,
    half_spectrum_l2,
    mode_sum,
    random_band_half,
)

__all__ = [
    "CorpusSpec",
    "Corpus",
    "ReportRow",
    "InequalityReport",
    "family_maxima",
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
    lacunary (multiscale) fields.  band = 0 resolves to n // 4; n follows
    ``Grid``'s rule, and band and seed are >= 0.
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
        check_grid_size(self.n)
        if self.band < 0:
            raise ValueError(f"corpus band must be >= 0 (0 = n/4), got {self.band}")
        if self.seed < 0:
            raise ValueError(f"corpus seed must be >= 0, got {self.seed}")

    @property
    def resolved_band(self) -> int:
        return self.band if self.band > 0 else self.n // 4


def _shell_modes(rsq: int, rng: np.random.Generator):
    """(k, amp) pairs of a lattice shell |k|^2 = rsq, one random phase per
    +/-k pair."""
    limit = int(math.isqrt(rsq)) + 1
    for k1 in range(-limit, limit + 1):
        for k2 in range(0, limit + 1):
            if k1 * k1 + k2 * k2 != rsq or (k2 == 0 and k1 <= 0):
                continue
            phase = rng.uniform(0.0, 2.0 * np.pi)
            yield (k1, k2), 0.5 * np.exp(1j * phase)


def _multiscale_modes(band: int, rng: np.random.Generator):
    """Lacunary spectrum: one mode per dyadic shell, weights 1/(j+1)."""
    j = 0
    while 2**j <= band:
        k = (2**j, 0) if j % 2 == 0 else (0, 2**j)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        yield k, 0.5 * np.exp(1j * phase) / (j + 1)
        j += 1


@dataclass(frozen=True)
class Corpus:
    """(id, rfft-layout ``SpectralField``) members of a spec, of which there
    are ``spec.size``; each iteration replays the seeded stream and builds
    them one at a time, so memory does not grow with the size."""

    spec: CorpusSpec

    def __len__(self) -> int:
        return self.spec.size

    def __iter__(self):
        spec, grid = self.spec, Grid(self.spec.n)
        band = spec.resolved_band
        rng = np.random.default_rng(spec.seed)
        kind = spec.kind
        if kind in ("default", "random_band"):
            count = spec.size - 16 if kind == "default" else spec.size
            for i in range(count):  # no name holds a member across the next draw
                yield (f"random_band[{i}]",
                       SpectralField(grid, random_band_half(grid, rng, band)))
        if kind in ("default", "single_mode"):
            modes = _single_modes_for(grid.n)  # members sin(k . x)
            count = 8 if kind == "default" else spec.size
            for i in range(count):
                k = modes[i % len(modes)]
                yield f"single_mode[{k[0]},{k[1]}]", mode_sum(grid, [(k, -0.5j)])
        if kind in ("default", "shell"):
            count = 4 if kind == "default" else spec.size
            for i in range(count):
                rsq = _SHELL_RADII_SQ[i % len(_SHELL_RADII_SQ)]
                yield f"shell[{rsq}]", mode_sum(grid, _shell_modes(rsq, rng))
        if kind in ("default", "multiscale"):
            count = 4 if kind == "default" else spec.size
            for i in range(count):
                yield f"multiscale[{i}]", mode_sum(grid, _multiscale_modes(band, rng))


def build_corpus(spec: CorpusSpec) -> Corpus:
    """The corpus of a spec; the same spec always yields identical fields."""
    return Corpus(spec)


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

    @property
    def family_maxima(self) -> dict[str, float]:
        return family_maxima((row.function_id, row.ratio) for row in self.rows)


def family_maxima(rows) -> dict[str, float]:
    """Largest ratio per member family (the id before its "["), in order of
    first appearance, over (function id, ratio) pairs."""
    out: dict[str, float] = {}
    for fid, ratio in rows:
        family = fid.split("[")[0]
        out[family] = max(out.get(family, ratio), ratio)
    return out


def _physical_members(corpus: CorpusSpec, p_max: int):
    """(id, member, its physical samples) over the corpus; the sup over p
    needs p_max >= 2."""
    if p_max < 2:
        raise ValueError(f"p_max must be >= 2, got {p_max}")
    for fid, f in build_corpus(corpus):
        yield fid, f, RealField(f.grid, _block_inverse(f.coeffs, f.grid.plan))


def _check_dyadic(N_set: Sequence[float]) -> None:
    if not N_set:  # a check over no block would read as met
        raise ValueError("N_set must hold at least one dyadic block")
    for N in N_set:
        if not is_dyadic(N):
            raise ValueError(f"N_set must be dyadic, got {N!r}")


def check_embedding(corpus: CorpusSpec, p_max: int) -> InequalityReport:
    """Worst ratio ||f||_p / (sqrt(p) (||f||_2 + ||f||_H1dot)) over the corpus.

    Zero fields are excluded (0/0 convention); each row records the p at
    which the per-function maximum is attained.  The denominator does not
    depend on p, so the norms are those of ``sup_over_p``'s sweep.
    """
    rows = []
    for fid, f, phys in _physical_members(corpus, p_max):
        h1 = sobolev_norm(f, 1.0)
        lp, _ = sup_over_p(phys, p_max)
        denom_base = lp[2] + h1
        if denom_base == 0.0:
            continue
        ratios = {p: norm / (math.sqrt(p) * denom_base) for p, norm in lp.items()}
        best_p = max(ratios, key=ratios.get)  # the first maximum in p
        rows.append(ReportRow(fid, (("p", float(best_p)),), ratios[best_p]))
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
    check_gamma(gamma)
    rows = []
    for fid, f, phys in _physical_members(corpus, p_max):
        lp, spr = sup_over_p(phys, p_max)  # sup_p ||f||_p / sqrt(p)
        if spr == 0.0:
            continue
        h1 = lp[2] + sobolev_norm(f, 1.0)
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


def _block_inverse(half: np.ndarray, plan: TransformPlan) -> np.ndarray:
    """Physical samples of the real field whose leading rfft-layout columns
    are ``half`` (the rest zero), in ``plan``'s slot "block"."""
    return plan.inverse(None, half, "block")


def _block_norms(grid: Grid, half: np.ndarray, qs, plan: TransformPlan) -> dict:
    """L^q norms, q in ``qs``, of the real field whose leading rfft-layout
    columns are ``half``: weighted Plancherel at q = 2, and one inverse
    transform on ``plan`` shared by every other q (in place when ``half`` is
    the plan's work buffer).  Nothing here is traced by perfbench, so a
    worker thread may run it on a plan of its own."""
    norms = {q: half_spectrum_l2(half) for q in qs if float(q) == 2.0}
    rest = [q for q in qs if float(q) != 2.0]
    if rest:
        values = _block_inverse(half, plan)
        norms.update((q, lp_norm_samples(values, grid.dx, q, plan)) for q in rest)
    return norms


def _product_norms(plans: Queue, grid: Grid, coeffs: np.ndarray,
                   weight: np.ndarray, symbol: np.ndarray | None, qs) -> dict | None:
    """``_block_norms`` of P_N f (``symbol`` None) or T_gamma P_N f, formed
    as weight * coeffs, then times the symbol, in the work buffer of a plan
    taken from ``plans`` for the task; None when the product is zero."""
    plan = plans.get()
    try:
        half = plan.work(weight.shape[1])
        np.multiply(weight, coeffs[:, : weight.shape[1]], out=half)
        if symbol is not None:
            half *= symbol
        if not half.any():
            return None
        return _block_norms(grid, half, qs, plan)
    finally:
        plans.put(plan)


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

    Each block's norms and its image's are two tasks for a pool of two
    worker threads, which share two transform plans (the grid's and one made
    for the call; a plan serves one task at a time).  The calling thread
    submits a member's tasks and draws the next member while they run:
    numpy releases the interpreter lock inside the transforms, so the draw
    and the transforms overlap.  Rows are appended in the serial order.
    """
    check_gamma(gamma)
    _check_dyadic(N_set)
    rows = []
    tables = None
    plans: Queue = Queue()
    members = iter(build_corpus(corpus))
    member = next(members, None)
    with ThreadPoolExecutor(max_workers=2) as pool:
        while member is not None:
            fid, f = member
            if tables is None:  # built once, from the grid every member shares
                tables = _multiplier_tables(f.grid, N_set, gamma)
                plans.put(f.grid.plan)
                plans.put(TransformPlan(f.grid.n))
            tasks = [
                (N, bound,
                 pool.submit(_product_norms, plans, f.grid, f.coeffs, weight, None, q),
                 pool.submit(_product_norms, plans, f.grid, f.coeffs, weight, symbol, q))
                for N, weight, symbol, bound in tables
            ]
            del f
            member = next(members, None)  # drawn while the tasks run
            for N, bound, block, image in tasks:
                denoms = block.result()
                if denoms is None:  # an empty block has zero norm at every q
                    continue
                images = image.result() or dict.fromkeys(q, 0.0)
                for q_val in q:
                    if denoms[q_val] == 0.0:
                        continue
                    rows.append(
                        ReportRow(
                            fid,
                            (("N", N), ("q", float(q_val))),
                            images[q_val] / (bound * denoms[q_val]),
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
    _check_dyadic(N_set)
    for p, q_val in pq_pairs:
        if not (2.0 <= float(p) <= float(q_val)):
            raise ValueError(f"need 2 <= p <= q, got ({p}, {q_val})")
    qs = {q_val for _, q_val in pq_pairs}
    ps = {float(p) for p, _ in pq_pairs}
    rows = []
    annuli = None
    for fid, f in build_corpus(corpus):
        if annuli is None:  # built once, from the grid every member shares
            annuli = _annuli(f.grid, N_set)
        phys = RealField(f.grid, _block_inverse(f.coeffs, f.grid.plan))
        base = lp_norm_map(phys, ps - {math.inf})  # one sweep, every finite p
        if math.inf in ps:
            base[math.inf] = lp_norm(phys, math.inf)
        for N, weight in annuli:
            block = f.coeffs[:, : weight.shape[1]] * weight
            if block.any():
                norms = _block_norms(f.grid, block, qs, f.grid.plan)
            else:  # an empty block has zero norm at every q
                norms = dict.fromkeys(qs, 0.0)
            for p, q_val in pq_pairs:
                if base[p] == 0.0:
                    continue
                scale = N ** (2.0 * (1.0 / float(p) - 1.0 / float(q_val)))  # 1/inf = 0
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
