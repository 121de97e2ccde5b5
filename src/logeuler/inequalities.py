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
from typing import Callable, Mapping, Sequence

import numpy as np

from .multipliers import check_gamma, is_dyadic, mtilde, phi_eval, tgamma_eval
from .norms import (
    _check_p_max,
    _integer_p,
    grad_u_sup,
    lp_norms,
    lp_samples,
    sobolev_norm,
    sup_over_p,
)
from .spectral import (
    Grid,
    SpectralField,
    check_grid_size,
    half_spectrum_l2,
    mode_sum,
    occupied,
    random_band_half,
    row_crop,
)

__all__ = [
    "CorpusSpec",
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
    """A test-function corpus, given by its deterministic description.

    kind "default" assembles the standard mixture: ``size - 16`` random
    band-limited fields plus 8 single modes, 4 lattice shells and 4
    lacunary (multiscale) fields.  band = 0 resolves to n // 4; n follows
    ``Grid``'s rule, seed >= 0 and 0 <= band <= n/2 (k = n folds onto the mean).
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
        if self.size < 0:  # it would give an empty report, read as met
            raise ValueError(f"corpus size must be >= 0, got {self.size}")
        if self.kind == "default" and self.size < 20:
            raise ValueError("default corpus needs size >= 20")
        check_grid_size(self.n)
        if not 0 <= self.band <= self.n // 2:
            raise ValueError(f"corpus band must be >= 0 (0 = n/4) and <= n/2 = "
                             f"{self.n // 2}, got {self.band}")
        if self.seed < 0:
            raise ValueError(f"corpus seed must be >= 0, got {self.seed}")

    @property
    def resolved_band(self) -> int:
        return self.band if self.band > 0 else self.n // 4

    def __len__(self) -> int:
        return self.size

    def __iter__(self):
        """(id, rfft-layout ``SpectralField``) members, ``size`` of them;
        each iteration replays the seeded stream and builds them one at a
        time, so memory does not grow with the size."""
        grid, kind = Grid(self.n), self.kind
        band = self.resolved_band
        rng = np.random.default_rng(self.seed)
        if kind in ("default", "random_band"):
            count = self.size - 16 if kind == "default" else self.size
            for i in range(count):  # no name holds a member across the next draw
                yield (f"random_band[{i}]",
                       SpectralField(grid, random_band_half(grid, rng, band)))
        if kind in ("default", "single_mode"):
            modes = _single_modes_for(grid.n)  # members sin(k . x)
            count = 8 if kind == "default" else self.size
            for i in range(count):
                k = modes[i % len(modes)]
                yield f"single_mode[{k[0]},{k[1]}]", mode_sum(grid, [(k, -0.5j)])
        if kind in ("default", "shell"):
            count = 4 if kind == "default" else self.size
            for i in range(count):
                rsq = _SHELL_RADII_SQ[i % len(_SHELL_RADII_SQ)]
                yield f"shell[{rsq}]", mode_sum(grid, _shell_modes(rsq, rng))
        if kind in ("default", "multiscale"):
            count = 4 if kind == "default" else self.size
            for i in range(count):
                yield f"multiscale[{i}]", mode_sum(grid, _multiscale_modes(band, rng))


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


def build_corpus(spec: CorpusSpec) -> CorpusSpec:
    """The corpus of a spec, the spec itself; it always yields identical fields."""
    return spec


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


def _member_rows(corpus: CorpusSpec, rows_of: Callable) -> list[ReportRow]:
    """Every member's ``rows_of(fid, f)`` in the serial order, checked on
    the calling thread and one helper thread.  The caller draws each member
    and queues it for the helper, so at most one member waits.  A member
    that still waits when the caller has drawn the next one is taken back
    and checked by the caller, and after the last draw the caller checks
    whatever still waits.  So the helper always has a next member, no
    member waits behind a busy thread, and only the caller runs the draw's
    many small lock-holding numpy steps.  A waiting member sits in a holder
    that whichever thread checks it empties, so at a draw at most two
    earlier members are referenced: the helper's and the waiting one.
    Each thread transforms on its own plan (``Grid.plan``); the caller's
    stays in its thread's four-size LRU after the call.  An error on either
    thread propagates once the helper has stopped."""
    def check(held):
        return rows_of(*held.pop())

    parts, held = [], []
    with ThreadPoolExecutor(max_workers=1) as helper:
        for member in build_corpus(corpus):  # not enumerate: its tuple holds a member
            older, held = held, [member]
            del member  # so no name holds it across the next draw
            parts.append(helper.submit(check, held))
            if len(parts) > 1 and parts[-2].cancel():  # the older one still waited
                parts[-2] = rows_of(*older.pop())
        if parts and parts[-1].cancel():
            parts[-1] = rows_of(*held.pop())
    rows = []
    for part in parts:
        rows.extend(part if isinstance(part, list) else part.result())
    return rows


def _check_dyadic(N_set: Sequence[float]) -> None:
    if not N_set:  # a check over no block would read as met
        raise ValueError("N_set must hold at least one dyadic block")
    for N in N_set:
        if not is_dyadic(N):
            raise ValueError(f"N_set must be dyadic, got {N!r}")


def _check_exponents(name: str, exponents: Sequence[float]) -> None:
    """Raise ValueError unless ``exponents`` is nonempty and each one is an
    integer in [2, P_LIMIT] or inf, before any member is drawn."""
    if not exponents:  # a check over no exponent would read as met
        raise ValueError(f"{name} must hold at least one exponent")
    for q in exponents:
        if float(q) != math.inf:
            _integer_p(q)


def check_embedding(corpus: CorpusSpec, p_max: int) -> InequalityReport:
    """Worst ratio ||f||_p / (sqrt(p) (||f||_2 + ||f||_H1dot)) over the corpus.

    Zero fields are excluded (0/0 convention); each row records the p at
    which the per-function maximum is attained.  The denominator does not
    depend on p, so the norms are those of ``sup_over_p``'s sweep.
    """
    _check_p_max(p_max)

    def rows_of(fid, f):
        h1 = sobolev_norm(f, 1.0)
        lp, _ = sup_over_p(lp_samples(occupied(f.coeffs), f.grid), p_max)
        denom_base = lp[2] + h1
        if denom_base == 0.0:
            return []
        ratios = {p: norm / (math.sqrt(p) * denom_base) for p, norm in lp.items()}
        best_p = max(ratios, key=ratios.get)  # the first maximum in p
        return [ReportRow(fid, (("p", float(best_p)),), ratios[best_p])]

    rows = _member_rows(corpus, rows_of)
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
    _check_p_max(p_max)

    def rows_of(fid, f):
        # spr = sup_p ||f||_p / sqrt(p)
        lp, spr = sup_over_p(lp_samples(occupied(f.coeffs), f.grid), p_max)
        if spr == 0.0:
            return []
        h1 = lp[2] + sobolev_norm(f, 1.0)
        denom = math.log(h1 + math.e) * spr
        return [ReportRow(fid, (("gamma", gamma),), grad_u_sup(f, gamma) / denom)]

    rows = _member_rows(corpus, rows_of)
    params = {"gamma": gamma, "p_max": p_max, "n": corpus.n, "seed": corpus.seed,
              "band": corpus.resolved_band, "size": corpus.size,
              "exploratory": gamma < 1.5}
    return InequalityReport("log_interpolation", params, tuple(rows))


def _annuli(grid: Grid, N_set: Sequence[float]) -> list[tuple[float, np.ndarray]]:
    """Dyadic annulus weights phi(|k|/N) - phi(2|k|/N) on the half spectrum,
    cropped to where they can be nonzero.

    The weight is supported in |k| <= 2N, so each table keeps only the rfft
    columns 0 .. floor(2N) and the rows |k1| <= floor(2N) it can reach, in
    the cropped-row layout (``row_crop``; all n rows and n//2 + 1 columns
    once 2N >= n/2, which spares the inverse transform a zero-padded copy).
    A block past the lattice (N >= sqrt(2) n: no |k| <= n/sqrt(2) of the
    half lies in its annulus N/2 < |k| < 2N) gets an empty table, no product.
    """
    n, out = grid.n, []
    for N in N_set:
        N = float(N)
        if N * N >= 2.0 * n * n:
            out.append((N, np.empty((0, 0))))
            continue
        reach = math.floor(2.0 * N)
        top, lower = row_crop(n, min(2 * reach + 1, n))
        kmod = grid.kmod[:, : min(reach + 1, n // 2 + 1)]
        r = np.concatenate((kmod[:top], kmod[lower:])) / N
        out.append((N, phi_eval(r) - phi_eval(2.0 * r)))
    return out


def _multiplier_tables(grid: Grid, N_set: Sequence[float], gamma: float):
    """Per dyadic N: N, the cropped annulus weight, the symbol T_gamma(|k|)
    on its columns and every row (views of one table), and mtilde(N)."""
    annuli = _annuli(grid, N_set)
    widest = max((w.shape[1] for _, w in annuli), default=0)
    symbol = tgamma_eval(grid.kmod[:, :widest], gamma)
    return [
        (N, w, symbol[:, : w.shape[1]], mtilde(N, gamma)) for N, w in annuli
    ]


def _product_norms(grid: Grid, coeffs: np.ndarray, weight: np.ndarray,
                   symbol: np.ndarray | None, qs) -> dict | None:
    """L^q norms, q in ``qs``, of P_N f (``symbol`` None) or T_gamma P_N f,
    or None when it is zero; ``weight`` is an ``_annuli`` table.

    The product, weight * coeffs and then times the symbol, is formed on
    the weight's rows only, in the work buffer of the calling thread's
    plan, and the rows between them are zeroed there.  q = 2 is weighted
    Plancherel, which leaves out the row blocks known to be zero; the sup
    norm comes by row blocks when inf is the only other q, and else one
    inverse transform (``lp_samples``) is shared by every other q.  A
    non-finite coefficient outside the weight's rows and columns does not
    reach the block.  Nothing here is traced by perfbench."""
    plan, n = grid.plan, grid.n
    rows, cols = weight.shape
    top, lower = row_crop(n, rows)
    half = plan.work(cols)
    for w, part in ((weight[:top], slice(0, top)), (weight[top:], slice(lower, n))):
        np.multiply(w, coeffs[part, :cols], out=half[part])
        if symbol is not None:
            half[part] *= symbol[part]
    if not (half[:top].any() or half[lower:].any()):
        return None
    half[top:lower] = 0.0
    norms = {q: half_spectrum_l2(half, range(top, lower)) for q in qs if float(q) == 2.0}
    rest = [q for q in qs if float(q) != 2.0]
    if rest and all(float(q) == math.inf for q in rest):
        norms.update(dict.fromkeys(rest, plan.sup_inverse(None, half)))
    elif rest:
        norms.update(lp_norms(lp_samples(half, grid), rest))
    return norms


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

    ``_member_rows`` checks each member's blocks and images on the helper
    thread, or on the calling thread when the member still waits for the
    helper once the next one is drawn or the last draw is done, and keeps
    the serial order.  A block and its image are formed in the work buffer
    of that thread's plan, on the rows |k1| <= 2N the annulus reaches, so
    no block or image array is made.
    """
    check_gamma(gamma)
    _check_dyadic(N_set)
    _check_exponents("q", q)
    tables = _multiplier_tables(Grid(corpus.n), N_set, gamma)  # every member's n

    def rows_of(fid, f):
        out = []
        for N, weight, symbol, bound in tables:
            denoms = _product_norms(f.grid, f.coeffs, weight, None, q)
            if denoms is None:  # an empty block has zero norm at every q
                continue
            images = (_product_norms(f.grid, f.coeffs, weight, symbol, q)
                      or dict.fromkeys(q, 0.0))
            for q_val in q:
                if denoms[q_val] == 0.0:
                    continue
                key = (("N", N), ("q", float(q_val)))
                out.append(ReportRow(fid, key, images[q_val] / (bound * denoms[q_val])))
        return out

    rows = _member_rows(corpus, rows_of)
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
    _check_exponents("pq_pairs", [v for pair in pq_pairs for v in pair])
    qs = {q_val for _, q_val in pq_pairs}
    ps = {float(p) for p, _ in pq_pairs}
    annuli = _annuli(Grid(corpus.n), N_set)  # every member's grid has this n

    def rows_of(fid, f):
        base = lp_norms(lp_samples(occupied(f.coeffs), f.grid), ps)
        out = []
        for N, weight in annuli:
            norms = (_product_norms(f.grid, f.coeffs, weight, None, qs)
                     or dict.fromkeys(qs, 0.0))  # an empty block: zero at every q
            for p, q_val in pq_pairs:
                if base[p] == 0.0:
                    continue
                scale = N ** (2.0 * (1.0 / float(p) - 1.0 / float(q_val)))  # 1/inf = 0
                key = (("N", N), ("p", float(p)), ("q", float(q_val)))
                out.append(ReportRow(fid, key, norms[q_val] / (scale * base[p])))
        return out

    rows = _member_rows(corpus, rows_of)
    params = {"N_set": tuple(float(N) for N in N_set),
              "pq_pairs": tuple((float(p), float(q_val)) for p, q_val in pq_pairs),
              "n": corpus.n, "seed": corpus.seed, "band": corpus.resolved_band}
    return InequalityReport("bernstein", params, tuple(rows))
