import math

import numpy as np
import pytest
import scipy.fft

from logeuler.inequalities import (
    CorpusSpec,
    _annuli,
    _block_inverse,
    build_corpus,
    check_bernstein,
    check_embedding,
    check_log_interpolation,
    check_multiplier_bound,
)
from logeuler.multipliers import (
    apply_multiplier,
    lp_project,
    mtilde,
    tgamma_eval,
    tgamma_symbol,
)
from logeuler.norms import lp_norm
from logeuler.spectral import dft_inverse

# closed-form single-mode values, frozen from 40-digit evaluation
EMBED_SINGLE_MODE = 0.3535533905932737622004221810524245196424  # 1/(2 sqrt 2)
LOGINTERP_SINGLE_MODE = 0.03497025360213881640872195449763307405028


class TestCorpus:
    def test_default_mixture_size(self):
        corpus = build_corpus(CorpusSpec(n=64))
        assert len(corpus) == 80
        kinds = {name.split("[")[0] for name, _ in corpus}
        assert kinds == {"random_band", "single_mode", "shell", "multiscale"}

    def test_deterministic(self):
        spec = CorpusSpec(n=64, seed=5, size=24)
        first = build_corpus(spec)
        second = build_corpus(spec)
        for (id_a, f_a), (id_b, f_b) in zip(first, second):
            assert id_a == id_b
            assert np.array_equal(f_a.coeffs, f_b.coeffs)

    def test_all_fields_zero_mean_and_real(self):
        from logeuler.spectral import dft_inverse

        for _, f in build_corpus(CorpusSpec(n=64, size=24)):
            assert f.coeffs[0, 0] == 0.0
            dft_inverse(f)  # raises on broken Hermitian symmetry

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            CorpusSpec(kind="bogus")


class TestEmbedding:
    def test_single_mode_row(self):
        report = check_embedding(CorpusSpec(n=64, size=20), 16)
        rows = {r.function_id: r for r in report.rows}
        row = rows["single_mode[1,0]"]
        assert row.ratio == pytest.approx(EMBED_SINGLE_MODE, rel=1e-12)
        assert dict(row.params)["p"] == 2.0

    def test_max_matches_rows(self):
        report = check_embedding(CorpusSpec(n=64, size=20), 16)
        assert report.max_ratio == max(r.ratio for r in report.rows)

    def test_stable_across_seeds(self):
        maxima = [
            check_embedding(CorpusSpec(n=64, seed=s, size=32), 32).max_ratio
            for s in (0, 1)
        ]
        assert abs(maxima[1] - maxima[0]) <= 0.05 * maxima[0]


class TestLogInterpolation:
    def test_single_mode_row(self):
        report = check_log_interpolation(CorpusSpec(n=64, size=20), 1.5, 16)
        rows = {r.function_id: r for r in report.rows}
        ratio = rows["single_mode[1,0]"].ratio
        assert ratio == pytest.approx(LOGINTERP_SINGLE_MODE, rel=1e-12)

    def test_exploratory_flag(self):
        spec = CorpusSpec(n=64, size=20)
        assert check_log_interpolation(spec, 1.5, 8).params["exploratory"] is False
        assert check_log_interpolation(spec, 1.0, 8).params["exploratory"] is True

    def test_finite_over_corpus(self):
        report = check_log_interpolation(CorpusSpec(n=64, size=32), 1.5, 32)
        assert np.isfinite(report.max_ratio)
        assert all(np.isfinite(r.ratio) for r in report.rows)


class TestMultiplierBound:
    def test_q2_never_exceeds_one(self):
        spec = CorpusSpec(n=64, size=28)
        report = check_multiplier_bound(1.5, (2.0, 4.0, 8.0, 16.0), (2.0,), spec)
        assert report.max_ratio <= 1.0 + 1e-12

    def test_single_mode_at_block_scale_qinf(self):
        # the (0, 4) member sits exactly on |k| = N = 4: its block is itself,
        # so the sup-norm ratio is m(4)/mtilde(4)
        spec = CorpusSpec(kind="single_mode", n=64, size=8)
        report = check_multiplier_bound(
            1.5, (4.0,), (float("inf"),), spec
        )
        rows = {r.function_id: r for r in report.rows}
        expected = tgamma_eval(4.0, 1.5) / mtilde(4.0, 1.5)
        assert rows["single_mode[0,4]"].ratio == pytest.approx(expected, rel=1e-12)
        assert expected < 1.0

    def test_empty_blocks_skipped(self):
        # band-2 corpus has nothing in the N = 64 annulus (support > 32)
        spec = CorpusSpec(kind="random_band", n=64, size=4, band=2)
        report = check_multiplier_bound(1.5, (64.0,), (2.0,), spec)
        assert len(report.rows) == 0
        assert report.max_ratio == 0.0

    def test_rejects_non_dyadic(self):
        with pytest.raises(ValueError):
            check_multiplier_bound(1.5, (3.0,), (2.0,), CorpusSpec(n=64, size=20))


class TestBernstein:
    def test_block_contraction_at_p2q2(self):
        # for f already localized to one block, projecting again contracts L2
        spec = CorpusSpec(kind="random_band", n=64, size=4, band=12)
        for fid, f in build_corpus(spec):
            block = lp_project(f, 8.0, "at")
            twice = lp_project(block, 8.0, "at")
            num = np.sqrt(np.sum(np.abs(twice.coeffs) ** 2))
            den = np.sqrt(np.sum(np.abs(block.coeffs) ** 2))
            assert num <= den * (1 + 1e-12)

    def test_single_mode_closed_form_q_inf(self):
        # member (0, 4) at |k| = N = 4, (p, q) = (2, inf):
        # ratio = 1 / (N * pi sqrt 2)
        spec = CorpusSpec(kind="single_mode", n=64, size=8)
        report = check_bernstein(spec, (4.0,), ((2.0, float("inf")),))
        rows = {r.function_id: r for r in report.rows}
        expected = 1.0 / (4.0 * math.pi * math.sqrt(2.0))
        assert rows["single_mode[0,4]"].ratio == pytest.approx(expected, rel=1e-12)

    def test_max_stable_as_block_doubles(self):
        # flat-spectrum fields populate every block proportionally, so the
        # normalized ratio is essentially independent of the block scale
        # (observed 0.023 / 0.025 / 0.027)
        spec = CorpusSpec(kind="random_band", n=128, size=16, band=32)
        per_n = {}
        report = check_bernstein(
            spec, (4.0, 8.0, 16.0), ((2.0, float("inf")),)
        )
        for row in report.rows:
            n_block = dict(row.params)["N"]
            per_n[n_block] = max(per_n.get(n_block, 0.0), row.ratio)
        values = [per_n[key] for key in sorted(per_n)]
        assert max(values) <= 1.5 * min(values)

    def test_rejects_bad_pairs(self):
        spec = CorpusSpec(n=64, size=20)
        with pytest.raises(ValueError):
            check_bernstein(spec, (4.0,), ((4.0, 2.0),))
        with pytest.raises(ValueError):
            check_bernstein(spec, (4.0,), ((1.0, 2.0),))

    def test_deterministic_report(self):
        spec = CorpusSpec(n=64, size=24, seed=3)
        first = check_bernstein(spec, (4.0, 8.0), ((2.0, 4.0),))
        second = check_bernstein(spec, (4.0, 8.0), ((2.0, 4.0),))
        assert first.rows == second.rows


# ---------------------------------------------------------------------------
# the cropped half-spectrum block path against the full-lattice computation
# ---------------------------------------------------------------------------

def _reference_rows_multiplier(gamma, N_set, q, spec):
    """Full-lattice blocks (lp_project, apply_multiplier) and physical-space
    norms of dft_inverse, as the check computed them before it was cropped."""
    symbol = tgamma_symbol(gamma)
    rows = []
    for fid, f in build_corpus(spec):
        for N in N_set:
            block = lp_project(f, N, "at")
            image = apply_multiplier(block, symbol)
            for q_val in q:
                denom = lp_norm(dft_inverse(block), q_val)
                if denom == 0.0:
                    continue
                ratio = lp_norm(dft_inverse(image), q_val) / (mtilde(N, gamma) * denom)
                rows.append((fid, (("N", N), ("q", q_val)), ratio))
    return rows


def _reference_rows_bernstein(spec, N_set, pq_pairs):
    rows = []
    for fid, f in build_corpus(spec):
        phys = dft_inverse(f)
        for N in N_set:
            block = dft_inverse(lp_project(f, N, "at"))
            for p, q_val in pq_pairs:
                inv_q = 0.0 if math.isinf(q_val) else 1.0 / q_val
                scale = N ** (2.0 * (1.0 / p - inv_q))
                ratio = lp_norm(block, q_val) / (scale * lp_norm(phys, p))
                rows.append((fid, (("N", N), ("p", p), ("q", q_val)), ratio))
    return rows


def _assert_rows_match(report, reference):
    assert [(r.function_id, r.params) for r in report.rows] == [
        (fid, params) for fid, params, _ in reference
    ]
    for row, (_, _, ratio) in zip(report.rows, reference):
        assert row.ratio == pytest.approx(ratio, rel=1e-13, abs=1e-300)


class TestHalfSpectrumBlocks:
    @pytest.mark.parametrize("n", [64, 128])
    @pytest.mark.parametrize("N", [2.0, 8.0, 32.0])
    def test_pruned_inverse_is_irfft2(self, n, N):
        spec = CorpusSpec(kind="random_band", n=n, size=2, band=n // 2, seed=4)
        for _, f in build_corpus(spec):
            ((_, weight),) = _annuli(f.grid, (N,))
            block = f.coeffs[:, : weight.shape[1]] * weight
            full = scipy.fft.irfft2(block, s=(n, n), norm="forward")
            assert np.array_equal(_block_inverse(block, n), full)

    @pytest.mark.parametrize("n", [64, 128])
    def test_multiplier_bound_matches_full_lattice(self, n):
        # band n/2 reaches the Nyquist column; N = n/2 spans the half spectrum
        spec = CorpusSpec(n=n, size=24, band=n // 2, seed=6)
        N_set = tuple(2.0**j for j in range(0, int(math.log2(n))))
        q = (2.0, 4.0, float("inf"))
        report = check_multiplier_bound(1.5, N_set, q, spec)
        _assert_rows_match(report, _reference_rows_multiplier(1.5, N_set, q, spec))

    @pytest.mark.parametrize("n", [64, 128])
    def test_bernstein_matches_full_lattice(self, n):
        spec = CorpusSpec(n=n, size=24, band=n // 2, seed=6)
        N_set = tuple(2.0**j for j in range(0, int(math.log2(n))))
        pairs = ((2.0, 2.0), (2.0, 4.0), (2.0, float("inf")), (4.0, float("inf")))
        report = check_bernstein(spec, N_set, pairs)
        _assert_rows_match(report, _reference_rows_bernstein(spec, N_set, pairs))
