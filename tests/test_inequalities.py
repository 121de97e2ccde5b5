import math
import sys
import threading
import tracemalloc
import weakref

import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import (
    apply_multiplier,
    box_draw_band,
    full_inverse,
    half_to_full,
    lp_project,
    tgamma_symbol,
    to_full,
)

from logeuler import inequalities
from logeuler.inequalities import (
    _SHELL_RADII_SQ,
    CorpusSpec,
    ReportRow,
    _annuli,
    _block_inverse,
    _single_modes_for,
    build_corpus,
    check_bernstein,
    check_embedding,
    check_log_interpolation,
    check_multiplier_bound,
)
from logeuler.multipliers import mtilde, tgamma_eval
from logeuler.norms import FOUR_PI_SQ, grad_u_sup, lp_norm, lp_norm_map, sobolev_norm
from logeuler.spectral import (
    Grid,
    RealField,
    SpectralField,
    dft_forward,
    dft_inverse,
    half_spectrum_l2,
    random_band_half,
)

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
        for _, f in build_corpus(CorpusSpec(n=64, size=24)):
            assert f.coeffs[0, 0] == 0.0
            full_inverse(to_full(f))  # raises on broken Hermitian symmetry

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            CorpusSpec(kind="bogus")

    @pytest.mark.parametrize(
        "bad, message",
        [({"n": 12}, "n must be a power of two >= 8, got 12"),
         ({"band": -3}, "corpus band must be >= 0"),
         ({"seed": -1}, "corpus seed must be >= 0")],
    )
    def test_rejects_bad_grid_band_and_seed(self, bad, message):
        with pytest.raises(ValueError, match=message):
            CorpusSpec(**bad)

    def test_iterating_again_replays_the_stream(self):
        corpus = build_corpus(CorpusSpec(n=32, seed=2, size=20))
        assert len(corpus) == 20
        first, second = list(corpus), list(corpus)
        assert [fid for fid, _ in first] == [fid for fid, _ in second]
        for (_, f_a), (_, f_b) in zip(first, second):
            assert np.array_equal(f_a.coeffs, f_b.coeffs)

    def test_peak_memory_does_not_grow_with_size(self):
        def peak(size):
            corpus = build_corpus(CorpusSpec(kind="random_band", n=128, size=size))
            tracemalloc.start()
            try:
                count = sum(1 for _ in corpus)
                return count, tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        (small, peak_small), (large, peak_large) = peak(40), peak(200)
        assert (small, large) == (40, 200)
        # one member is 128 x 65 complex (133 kB); a list of 160 more would
        # add about 21 MB
        assert peak_large < peak_small + 200_000

    def test_a_dropped_member_is_freed_before_the_next_draw(self):
        it = iter(build_corpus(CorpusSpec(kind="random_band", n=32, size=3)))
        _, member = next(it)
        ref = weakref.ref(member.coeffs)
        del member
        assert ref() is None


# ---------------------------------------------------------------------------
# the streamed rfft-layout corpus against the full-lattice builder it replaced
# ---------------------------------------------------------------------------

def _ref_random_band(grid, rng, band):
    coeffs = box_draw_band(grid.n, rng, band)
    return coeffs / math.sqrt(FOUR_PI_SQ * float(np.sum(np.abs(coeffs) ** 2)))


def _ref_add_mode(coeffs, k, amp):
    n = coeffs.shape[0]
    coeffs[k[0] % n, k[1] % n] += amp
    coeffs[(-k[0]) % n, (-k[1]) % n] += np.conj(amp)


def _ref_corpus(spec):
    """Full-lattice members of a default corpus, built as a list."""
    grid = Grid(spec.n)
    band = spec.resolved_band
    rng = np.random.default_rng(spec.seed)
    out = [(f"random_band[{i}]", _ref_random_band(grid, rng, band))
           for i in range(spec.size - 16)]
    for k in _single_modes_for(grid.n):
        coeffs = np.zeros((grid.n, grid.n), dtype=complex)
        _ref_add_mode(coeffs, k, -0.5j)
        out.append((f"single_mode[{k[0]},{k[1]}]", coeffs))
    for rsq in _SHELL_RADII_SQ:
        coeffs = np.zeros((grid.n, grid.n), dtype=complex)
        limit = int(math.isqrt(rsq)) + 1
        for k1 in range(-limit, limit + 1):
            for k2 in range(0, limit + 1):
                if k1 * k1 + k2 * k2 != rsq or (k2 == 0 and k1 <= 0):
                    continue
                phase = rng.uniform(0.0, 2.0 * np.pi)
                _ref_add_mode(coeffs, (k1, k2), 0.5 * np.exp(1j * phase))
        out.append((f"shell[{rsq}]", coeffs))
    for i in range(4):
        coeffs = np.zeros((grid.n, grid.n), dtype=complex)
        j = 0
        while 2**j <= band:
            k = (2**j, 0) if j % 2 == 0 else (0, 2**j)
            phase = rng.uniform(0.0, 2.0 * np.pi)
            _ref_add_mode(coeffs, k, 0.5 * np.exp(1j * phase) / (j + 1))
            j += 1
        out.append((f"multiscale[{i}]", coeffs))
    return out


@pytest.mark.parametrize("n", [16, 64])
def test_corpus_matches_full_lattice_builder(n):
    # band n/2 puts random-band and multiscale modes on the Nyquist column
    spec = CorpusSpec(n=n, size=24, band=n // 2, seed=9)
    members = list(build_corpus(spec))
    reference = _ref_corpus(spec)
    assert [fid for fid, _ in members] == [fid for fid, _ in reference]
    assert any(np.any(f.coeffs[:, n // 2]) for _, f in members)
    for (fid, f), (_, ref) in zip(members, reference):
        assert f.coeffs.shape == (n, n // 2 + 1)
        if fid.startswith("random_band"):
            # only the normalisation's summation order differs
            np.testing.assert_allclose(f.coeffs, ref[:, : n // 2 + 1],
                                       rtol=1e-15, atol=0)
            np.testing.assert_allclose(half_to_full(f.coeffs), ref,
                                       rtol=1e-15, atol=0)
        else:
            assert np.array_equal(f.coeffs, ref[:, : n // 2 + 1]), fid
            assert np.array_equal(half_to_full(f.coeffs), ref), fid


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

    def test_family_maxima_match_rows(self):
        report = check_embedding(CorpusSpec(n=64, size=24), 16)
        maxima = report.family_maxima
        assert list(maxima) == ["random_band", "single_mode", "shell", "multiscale"]
        for family, value in maxima.items():
            assert value == max(r.ratio for r in report.rows
                                if r.function_id.startswith(family + "["))
        assert max(maxima.values()) == report.max_ratio
        assert maxima["single_mode"] == pytest.approx(EMBED_SINGLE_MODE, rel=1e-12)

    def test_rejects_p_max_below_two(self):
        # p_max = 1 used to end in a KeyError on the missing p = 2 norm
        with pytest.raises(ValueError, match="p_max must be >= 2"):
            check_embedding(CorpusSpec(n=64, size=20), 1)

    def test_stable_across_seeds(self):
        maxima = [
            check_embedding(CorpusSpec(n=64, seed=s, size=32), 32).max_ratio
            for s in (0, 1)
        ]
        assert abs(maxima[1] - maxima[0]) <= 0.05 * maxima[0]


def _full_sweep_rows(members, p_max, gamma):
    """Embedding and log-interpolation rows rebuilt from a full sweep of
    p = 2..p_max, as the checks made them before the early stop."""
    embedding, loginterp = [], []
    for fid, f in members:
        lp = lp_norm_map(dft_inverse(f), range(2, p_max + 1))
        denom_base = lp[2] + sobolev_norm(f, 1.0)
        if denom_base != 0.0:
            best_p, best = max(
                ((p, lp[p] / (math.sqrt(p) * denom_base)) for p in lp),
                key=lambda item: item[1],
            )
            embedding.append(ReportRow(fid, (("p", float(best_p)),), best))
        spr = max(lp[p] / np.sqrt(p) for p in lp)
        if spr != 0.0:
            denom = math.log(denom_base + math.e) * spr
            loginterp.append(
                ReportRow(fid, (("gamma", gamma),), grad_u_sup(f, gamma) / denom)
            )
    return tuple(embedding), tuple(loginterp)


class TestHolderStop:
    """Rows of the early-stopped checks equal rows from the full sweep: the
    same maximum and, for the embedding, the same argmax p."""

    def _assert_rows_equal_full_sweep(self, spec, p_max, gamma=1.5):
        embedding, loginterp = _full_sweep_rows(build_corpus(spec), p_max, gamma)
        assert check_embedding(spec, p_max).rows == embedding
        assert check_log_interpolation(spec, gamma, p_max).rows == loginterp

    def test_default_corpus(self):
        self._assert_rows_equal_full_sweep(CorpusSpec(n=128, size=40), 64)

    @settings(max_examples=15, deadline=None)
    @given(
        n=st.sampled_from([32, 64, 128]),
        seed=st.integers(0, 10_000),
        band=st.integers(1, 42),
        p_max=st.integers(2, 64),
    )
    def test_random_band_corpora(self, n, seed, band, p_max):
        spec = CorpusSpec(kind="random_band", n=n, seed=seed, size=3,
                          band=min(band, n // 3))
        self._assert_rows_equal_full_sweep(spec, p_max)

    def test_zero_field_and_one_point_spike(self, monkeypatch):
        g = Grid(256)
        spike = np.zeros((256, 256))
        spike[17, 91] = 5.0
        coeffs = dft_forward(RealField(g, spike)).coeffs
        coeffs[0, 0] = 0.0  # zero mean, as the gradient sup needs
        members = [("zero", SpectralField(g, np.zeros_like(coeffs))),
                   ("spike", SpectralField(g, coeffs))]
        monkeypatch.setattr(inequalities, "build_corpus", lambda spec: members)
        embedding, loginterp = _full_sweep_rows(members, 64, 1.5)
        assert [row.function_id for row in embedding] == ["spike"]
        assert dict(embedding[0].params)["p"] == 15.0
        spec = CorpusSpec(n=256, size=20)
        assert check_embedding(spec, 64).rows == embedding
        assert check_log_interpolation(spec, 1.5, 64).rows == loginterp


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

    def test_rejects_p_max_below_two(self):
        with pytest.raises(ValueError, match="p_max"):
            check_log_interpolation(CorpusSpec(n=64, size=20), 1.5, 1)


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

    def test_rejects_an_empty_block_set(self):
        # a check over no block used to report no rows, as if it were met
        spec = CorpusSpec(n=64, size=20)
        with pytest.raises(ValueError, match="at least one dyadic block"):
            check_multiplier_bound(1.5, (), (2.0,), spec)
        with pytest.raises(ValueError, match="at least one dyadic block"):
            check_bernstein(spec, [], ((2.0, 2.0),))

    def test_empty_corpus_gives_no_rows(self):
        spec = CorpusSpec(kind="random_band", n=64, size=0)
        assert check_multiplier_bound(1.5, (4.0,), (2.0,), spec).rows == ()
        assert check_bernstein(spec, (4.0,), ((2.0, 2.0),)).rows == ()


def _serial_multiplier_rows(gamma, N_set, q, spec):
    """check_multiplier_bound's loop on one thread: each block's norms and
    then its image's, both on the shared plan."""
    rows = []
    for fid, f in build_corpus(spec):
        for N, weight in _annuli(f.grid, N_set):
            block = f.coeffs[:, : weight.shape[1]] * weight
            if not block.any():
                continue
            symbol = tgamma_eval(f.grid.kmod[:, : weight.shape[1]], gamma)
            denoms, images = (
                {q_val: half_spectrum_l2(half) if q_val == 2.0 else lp_norm(
                    RealField(f.grid, f.grid.plan.inverse(None, half, None)), q_val)
                 for q_val in q}
                for half in (block, block * symbol)
            )
            for q_val in q:
                if denoms[q_val] == 0.0:
                    continue
                rows.append(ReportRow(
                    fid, (("N", N), ("q", float(q_val))),
                    images[q_val] / (mtilde(N, gamma) * denoms[q_val]),
                ))
    return tuple(rows)


class TestThreadedMultiplierBound:
    @pytest.mark.parametrize("n", [32, 64, 128, 256])
    def test_rows_equal_the_serial_loop(self, n):
        # band n/8 leaves the top blocks empty
        spec = CorpusSpec(n=n, size=20, band=n // 8, seed=5)
        N_set = tuple(2.0**j for j in range(int(math.log2(n))))
        q = (2.0, 4.0, float("inf"))
        report = check_multiplier_bound(1.5, N_set, q, spec)
        blocks = [
            (f.coeffs[:, : w.shape[1]] * w).any()
            for _, f in build_corpus(spec)
            for _, w in _annuli(f.grid, N_set)
        ]
        assert 0 < sum(blocks) < len(blocks)
        assert report.rows == _serial_multiplier_rows(1.5, N_set, q, spec)

    def test_rows_hold_under_fast_thread_switching(self):
        spec = CorpusSpec(n=64, size=20, band=16, seed=8)
        N_set = (2.0, 4.0, 8.0, 16.0)
        q = (2.0, float("inf"))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            report = check_multiplier_bound(1.5, N_set, q, spec)
        finally:
            sys.setswitchinterval(interval)
        assert report.rows == _serial_multiplier_rows(1.5, N_set, q, spec)

    def test_q_below_two_raises_and_no_thread_is_left(self):
        spec = CorpusSpec(n=32, size=20)
        threads = threading.active_count()
        check_multiplier_bound(1.5, (2.0, 4.0), (2.0, float("inf")), spec)
        assert threading.active_count() == threads
        with pytest.raises(ValueError, match="must be >= 2"):
            check_multiplier_bound(1.5, (2.0, 4.0), (2.0, 1.0), spec)
        assert threading.active_count() == threads

    def test_only_the_previous_member_outlives_the_next_draw(self, monkeypatch):
        # the next member is drawn while the workers transform this one, and
        # the tasks form each block and image in a plan's work buffer, so no
        # block or image array is made at all
        members, alive_at_draw = [], []
        draw = random_band_half

        def tracking_draw(grid, rng, band):
            alive_at_draw.append(sum(ref() is not None for ref in members))
            half = draw(grid, rng, band)
            members.append(weakref.ref(half))
            return half

        monkeypatch.setattr(inequalities, "random_band_half", tracking_draw)
        spec = CorpusSpec(kind="random_band", n=32, size=4, seed=2)
        check_multiplier_bound(1.5, (2.0, 4.0), (2.0, float("inf")), spec)
        assert len(members) == 4
        assert alive_at_draw == [0, 1, 1, 1]


class TestBernstein:
    def test_block_contraction_at_p2q2(self):
        # for f already localized to one block, projecting again contracts L2
        spec = CorpusSpec(kind="random_band", n=64, size=4, band=12)
        for fid, f in build_corpus(spec):
            block = lp_project(to_full(f), 8.0, "at")
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

    def test_one_inverse_transform_per_member_and_nonempty_block(self, monkeypatch):
        # q = 2 is Plancherel, q = 4 and q = inf share one transform, and
        # an empty block takes none
        spec = CorpusSpec(n=64, size=24, seed=3)
        N_set = tuple(2.0**j for j in range(6))
        calls = []

        def counting(half, n):
            calls.append(half.shape)
            return _block_inverse(half, n)

        monkeypatch.setattr(inequalities, "_block_inverse", counting)
        pairs = ((2.0, 2.0), (2.0, 4.0), (2.0, float("inf")), (4.0, float("inf")))
        check_bernstein(spec, N_set, pairs)
        blocks = [
            (f.coeffs[:, : w.shape[1]] * w).any()
            for _, f in build_corpus(spec)
            for _, w in _annuli(f.grid, N_set)
        ]
        assert 0 < sum(blocks) < len(blocks)
        assert len(calls) == spec.size + sum(blocks)

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
    norms of their inverse transforms, as the check computed them before it
    was cropped."""
    symbol = tgamma_symbol(gamma)
    rows = []
    for fid, f in build_corpus(spec):
        f = to_full(f)
        for N in N_set:
            block = lp_project(f, N, "at")
            image = apply_multiplier(block, symbol)
            for q_val in q:
                denom = lp_norm(full_inverse(block), q_val)
                if denom == 0.0:
                    continue
                ratio = lp_norm(full_inverse(image), q_val) / (mtilde(N, gamma) * denom)
                rows.append((fid, (("N", N), ("q", q_val)), ratio))
    return rows


def _reference_rows_bernstein(spec, N_set, pq_pairs):
    rows = []
    for fid, f in build_corpus(spec):
        f = to_full(f)
        phys = full_inverse(f)
        for N in N_set:
            block = full_inverse(lp_project(f, N, "at"))
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
            assert np.array_equal(_block_inverse(block, f.grid.plan), full)

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
