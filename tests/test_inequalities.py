import math
import sys
from concurrent.futures import Future
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

from logeuler import inequalities, spectral
from logeuler.inequalities import (
    _SHELL_RADII_SQ,
    CorpusSpec,
    ReportRow,
    _annuli,
    _single_modes_for,
    build_corpus,
    check_bernstein,
    check_embedding,
    check_log_interpolation,
    check_multiplier_bound,
)
from logeuler.multipliers import mtilde, phi_eval, tgamma_eval
from logeuler.norms import (
    FOUR_PI_SQ,
    grad_u_sup,
    lp_norm,
    lp_norm_map,
    lp_norms,
    lp_samples,
    sobolev_norm,
)
from logeuler.spectral import (
    Grid,
    RealField,
    SpectralField,
    dft_forward,
    dft_inverse,
    half_spectrum_l2,
    mode_sum,
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
         ({"seed": -1}, "corpus seed must be >= 0"),
         # past n/2 a multiscale mode at k = n folded onto the mean
         ({"n": 64, "band": 33}, r"and <= n/2 = 32, got 33"),
         ({"n": 64, "band": 64}, r"and <= n/2 = 32, got 64")],
    )
    def test_rejects_bad_grid_band_and_seed(self, bad, message):
        with pytest.raises(ValueError, match=message):
            CorpusSpec(**bad)

    @pytest.mark.parametrize("n", [64, 128])
    def test_band_n_over_2_keeps_every_member_zero_mean(self, n):
        spec = CorpusSpec(n=n, band=n // 2, size=20)
        assert spec.resolved_band == n // 2
        for _, f in build_corpus(spec):
            assert f.coeffs[0, 0] == 0.0

    def test_the_corpus_is_its_spec(self):
        spec = CorpusSpec(kind="shell", n=32, size=3)
        assert build_corpus(spec) is spec
        assert len(spec) == 3
        assert [fid for fid, _ in spec] == ["shell[2]", "shell[5]", "shell[25]"]

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

    @pytest.mark.parametrize("kind", ["shell", "random_band", "default"])
    def test_negative_size_rejected(self, kind):
        # it gave an empty report whose max ratio read 0.0, as if met
        with pytest.raises(ValueError, match="corpus size must be >= 0, got -3"):
            CorpusSpec(kind=kind, size=-3)

    def test_empty_corpus_gives_no_rows(self):
        spec = CorpusSpec(kind="random_band", n=64, size=0)
        assert check_multiplier_bound(1.5, (4.0,), (2.0,), spec).rows == ()
        assert check_bernstein(spec, (4.0,), ((2.0, 2.0),)).rows == ()


def _full_annuli(grid, N_set):
    """The annulus weights on every row of the half spectrum, cropped to
    the columns ``_annuli`` keeps: the tables ``_annuli`` made before it
    also cropped rows."""
    out = []
    for N in N_set:
        r = grid.kmod[:, : min(math.floor(2.0 * N) + 1, grid.n // 2 + 1)] / N
        out.append((float(N), phi_eval(r) - phi_eval(2.0 * r)))
    return out


def _serial_multiplier_rows(gamma, N_set, q, spec):
    """check_multiplier_bound's loop on one thread: each block's norms and
    then its image's, both on the calling thread's plan."""
    rows = []
    for fid, f in build_corpus(spec):
        for N, weight in _full_annuli(f.grid, N_set):
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
            for _, w in _full_annuli(f.grid, N_set)
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

    def test_a_member_task_keeps_no_n_by_n_slot(self, monkeypatch):
        # q = inf comes from sup_inverse's row blocks, so neither the
        # helper's plan nor the caller's, fresh for this check, takes a
        # "block" slot
        monkeypatch.setattr(spectral._thread_plans, "by_size", {}, raising=False)
        slots, product_norms = [], inequalities._product_norms

        def recording(grid, *args):
            norms = product_norms(grid, *args)
            slots.append(set(grid.plan._slots))
            return norms

        monkeypatch.setattr(inequalities, "_product_norms", recording)
        spec = CorpusSpec(n=64, size=20, seed=1)
        check_multiplier_bound(1.5, (2.0, 4.0, 8.0), (2.0, float("inf")), spec)
        assert len(slots) > 20
        assert set().union(*slots) == {("sup", float)}


def _serial_bernstein_rows(spec, N_set, pq_pairs):
    """check_bernstein's loop on one thread, every norm on its plan."""
    rows = []
    for fid, f in build_corpus(spec):
        phys = dft_inverse(f)
        base = {p: lp_norm(phys, p) for p, _ in pq_pairs}
        for N, weight in _full_annuli(f.grid, N_set):
            block = f.coeffs[:, : weight.shape[1]] * weight
            norms = {q_val: half_spectrum_l2(block) if q_val == 2.0 else lp_norm(
                RealField(f.grid, f.grid.plan.inverse(None, block, None)), q_val)
                for _, q_val in pq_pairs}
            for p, q_val in pq_pairs:
                if base[p] == 0.0:
                    continue
                scale = N ** (2.0 * (1.0 / p - 1.0 / q_val))
                rows.append(ReportRow(fid, (("N", N), ("p", p), ("q", q_val)),
                                      norms[q_val] / (scale * base[p])))
    return tuple(rows)


_POOL_SPEC = CorpusSpec(n=64, size=24, band=16, seed=9)
_BERNSTEIN_ARGS = ((2.0, 4.0, 8.0, 16.0, 32.0),
                   ((2.0, 2.0), (2.0, 4.0), (2.0, float("inf")), (4.0, float("inf"))))
# criterion 5's exponents: its q = inf norms come from sup_inverse
_MULTIPLIER_ARGS = ((2.0, 4.0, 8.0, 16.0, 32.0), (2.0, float("inf")))
_MEMBER_CHECKS = {
    "embedding": lambda spec: check_embedding(spec, 32),
    "loginterp": lambda spec: check_log_interpolation(spec, 1.5, 32),
    "bernstein": lambda spec: check_bernstein(spec, *_BERNSTEIN_ARGS),
    "multiplier": lambda spec: check_multiplier_bound(1.5, *_MULTIPLIER_ARGS, spec),
}


def _wrap_member_rows(monkeypatch, wrap):
    """Make every check take each member's rows as ``wrap(fid, f, rows_of)``
    on the thread that checks the member."""
    member_rows = inequalities._member_rows
    monkeypatch.setattr(inequalities, "_member_rows", lambda corpus, rows_of: member_rows(
        corpus, lambda fid, f: wrap(fid, f, rows_of)))


def _hold_draw_1_until_started(monkeypatch) -> threading.Event:
    """Hold the corpus's second draw until the returned event is set, which
    the helper does once it has started member 0: the caller cannot take
    member 0 back then, whatever the timing."""
    started, draws, draw = threading.Event(), [], inequalities.random_band_half

    def held_draw(grid, rng, band):
        draws.append(band)
        if len(draws) == 2:
            started.wait(10)
        return draw(grid, rng, band)

    monkeypatch.setattr(inequalities, "random_band_half", held_draw)
    return started


class TestMemberPool:
    """Embedding, loginterp, multiplier and Bernstein check each member on
    the calling thread or on one helper thread, each on its own thread's
    plan: the caller draws the members and queues each one for the helper,
    and takes back and checks a member that still waits when it has drawn
    the next one, or when it has drawn the last."""

    @pytest.mark.parametrize("check", sorted(_MEMBER_CHECKS))
    def test_rows_hold_under_fast_thread_switching(self, check):
        embedding, loginterp = _full_sweep_rows(build_corpus(_POOL_SPEC), 32, 1.5)
        serial = {
            "embedding": embedding,
            "loginterp": loginterp,
            "bernstein": _serial_bernstein_rows(_POOL_SPEC, *_BERNSTEIN_ARGS),
            "multiplier": _serial_multiplier_rows(1.5, *_MULTIPLIER_ARGS, _POOL_SPEC),
        }[check]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            rows = _MEMBER_CHECKS[check](_POOL_SPEC).rows
        finally:
            sys.setswitchinterval(interval)
        assert len(rows) > 0
        assert rows == serial

    def test_the_caller_and_one_helper_check_members(self, monkeypatch):
        # the helper starts member 0 before draw 1 and holds it until the
        # caller has checked a member itself, so both threads take members
        # whatever the timing
        caller, checked = threading.get_ident(), []
        caller_checked = threading.Event()
        started = _hold_draw_1_until_started(monkeypatch)

        def rows_of(fid, f):
            if threading.get_ident() == caller:
                caller_checked.set()
            elif fid == "random_band[0]":
                started.set()
                caller_checked.wait(10)
            checked.append(threading.get_ident())
            return [ReportRow(fid, (), float(np.abs(f.coeffs).max()))]

        spec = CorpusSpec(n=64, size=24, seed=5)
        rows = inequalities._member_rows(spec, rows_of)
        assert len(checked) == 24
        assert caller in checked
        assert len(set(checked) - {caller}) == 1
        assert rows == [row for member in build_corpus(spec) for row in rows_of(*member)]

    def test_a_member_still_waiting_at_the_next_draw_is_taken_back(self, monkeypatch):
        # a helper that never gets to start: each member, member 0 included,
        # still waits when the next is drawn or the last draw is done, so the
        # caller checks them all and the helper, run at shutdown, none
        on_helper = []

        class IdleHelper:
            def __init__(self, max_workers):
                self.queued = []

            def __enter__(self):
                return self

            def submit(self, fn, *args):
                self.queued.append((Future(), fn, args))
                return self.queued[-1][0]

            def __exit__(self, *exc):
                for future, fn, args in self.queued:
                    if future.set_running_or_notify_cancel():
                        on_helper.append(args)
                        future.set_result(fn(*args))

        def rows_of(fid, f):
            checked.append(fid)
            return [fid]

        monkeypatch.setattr(inequalities, "ThreadPoolExecutor", IdleHelper)
        spec, checked = CorpusSpec(kind="random_band", n=32, size=5), []
        rows = inequalities._member_rows(spec, rows_of)
        assert on_helper == []
        assert rows == checked == [fid for fid, _ in spec]

    @staticmethod
    def _busy_helper_log(monkeypatch, size):
        """Run ``_member_rows`` over ``size`` random members while the
        helper holds member 0 until the caller has checked the last one;
        returns the draws and the caller's checks in order, the ids the
        helper checked, and how many members were alive at each draw."""
        caller, log, on_helper = threading.get_ident(), [], []
        members, alive_at_draw = [], []
        last_checked = threading.Event()
        started = _hold_draw_1_until_started(monkeypatch)
        draw = inequalities.random_band_half

        def logged_draw(grid, rng, band):
            log.append("draw")
            half = draw(grid, rng, band)
            alive_at_draw.append(sum(ref() is not None for ref in members))
            members.append(weakref.ref(half))
            return half

        def rows_of(fid, f):
            if threading.get_ident() == caller:
                log.append(fid)
                if fid == f"random_band[{size - 1}]":
                    last_checked.set()
            else:
                on_helper.append(fid)
                started.set()
                last_checked.wait(10)
            return [ReportRow(fid, (), float(np.abs(f.coeffs).max()))]

        monkeypatch.setattr(inequalities, "random_band_half", logged_draw)
        spec = CorpusSpec(kind="random_band", n=32, size=size, seed=4)
        rows = inequalities._member_rows(spec, rows_of)
        assert [row.function_id for row in rows] == [
            f"random_band[{i}]" for i in range(size)]
        return log, on_helper, alive_at_draw

    def test_the_caller_checks_the_member_still_waiting_after_the_last_draw(
            self, monkeypatch):
        log, on_helper, _ = self._busy_helper_log(monkeypatch, 2)
        assert log == ["draw", "draw", "random_band[1]"]
        assert on_helper == ["random_band[0]"]

    def test_the_caller_takes_back_the_older_waiting_member_at_a_draw(
            self, monkeypatch):
        # member 1 waits behind the busy helper until draw 2 queues member
        # 2; the caller then checks member 1, and so on.  A member taken
        # back is freed when its check returns, although the helper has not
        # yet dropped its cancelled task
        log, on_helper, alive_at_draw = self._busy_helper_log(monkeypatch, 4)
        assert log == ["draw", "draw", "draw", "random_band[1]",
                       "draw", "random_band[2]", "random_band[3]"]
        assert on_helper == ["random_band[0]"]
        assert alive_at_draw == [0, 1, 2, 2]

    @pytest.mark.parametrize("check", sorted(_MEMBER_CHECKS))
    @pytest.mark.parametrize("failing", ["helper", "caller"])
    def test_a_failing_member_raises_and_no_thread_is_left(
            self, check, failing, monkeypatch):
        # the helper starts member 0 before draw 1, so member 0 is the
        # helper's; in the caller case the helper holds member 0 until the
        # caller has failed, so the caller takes back member 1 at draw 2
        caller, failed, failed_on = threading.get_ident(), threading.Event(), []
        started = _hold_draw_1_until_started(monkeypatch)

        def rows_or_error(fid, f, rows_of):
            on_caller = threading.get_ident() == caller
            if fid == "random_band[0]" and not on_caller:
                started.set()
            if fid == "random_band[0]" if failing == "helper" else on_caller:
                failed_on.append(on_caller)
                failed.set()
                raise ArithmeticError(f"member {fid} failed")
            if fid == "random_band[0]":
                failed.wait(10)
            return rows_of(fid, f)

        _wrap_member_rows(monkeypatch, rows_or_error)
        threads = threading.active_count()
        index = "0" if failing == "helper" else r"\d+"
        message = rf"member random_band\[{index}\] failed"
        with pytest.raises(ArithmeticError, match=message):
            _MEMBER_CHECKS[check](CorpusSpec(n=32, size=20))
        assert failed_on == [failing == "caller"]
        assert threading.active_count() == threads

    def test_bad_input_raises_and_no_thread_is_left(self, monkeypatch):
        spec = CorpusSpec(n=32, size=20)
        threads = threading.active_count()
        with pytest.raises(ValueError, match="p_max must be >= 2"):
            check_embedding(spec, 1)
        with pytest.raises(ValueError, match="p_max must be >= 2"):
            check_log_interpolation(spec, 1.5, 1)
        with pytest.raises(ValueError, match="need 2 <= p <= q"):
            check_bernstein(spec, (2.0,), ((4.0, 2.0),))
        assert threading.active_count() == threads

        def failing(*args):  # an error inside a member task
            raise ArithmeticError("member task failed")

        monkeypatch.setattr(inequalities, "sobolev_norm", failing)
        for check in ("embedding", "loginterp"):
            with pytest.raises(ArithmeticError, match="member task failed"):
                _MEMBER_CHECKS[check](spec)
            assert threading.active_count() == threads
        monkeypatch.setattr(inequalities, "_product_norms", failing)
        with pytest.raises(ArithmeticError, match="member task failed"):
            _MEMBER_CHECKS["multiplier"](spec)
        assert threading.active_count() == threads

    @pytest.mark.parametrize("check, args, message", [
        ("multiplier", ((2.0,), ()), "q must hold at least one exponent"),
        ("multiplier", ((2.0,), (2.0, 2.5)), "must be >= 2 and an integer"),
        ("multiplier", ((2.0,), (float("inf"), 1025.0)), "at most 1024"),
        ("multiplier", ((2.0,), (float("nan"),)), "must be >= 2 and an integer"),
        ("bernstein", ((2.0,), ()), "pq_pairs must hold at least one exponent"),
        ("bernstein", ((2.0,), ((2.0, 4.0), (2.0, 6.5))), "must be >= 2 and an integer"),
        ("bernstein", ((2.0,), ((2.5, float("inf")),)), "must be >= 2 and an integer"),
    ])
    def test_bad_exponents_raise_before_a_draw_and_no_thread_is_left(
            self, check, args, message, monkeypatch):
        # a check over no exponent would read as met, and a bad q used to
        # fail only inside a worker, after the first member was drawn
        draws = []

        def counting_draw(grid, rng, band):
            draws.append(band)
            return random_band_half(grid, rng, band)

        monkeypatch.setattr(inequalities, "random_band_half", counting_draw)
        spec = CorpusSpec(n=32, size=20)
        threads = threading.active_count()
        with pytest.raises(ValueError, match=message):
            if check == "multiplier":
                check_multiplier_bound(1.5, *args, spec)
            else:
                check_bernstein(spec, *args)
        assert draws == []
        assert threading.active_count() == threads

    @pytest.mark.parametrize("check", sorted(_MEMBER_CHECKS))
    def test_at_most_two_members_outlive_a_draw(self, check, monkeypatch):
        # the caller drops each member before the next draw, and at a draw
        # only the helper's member and the waiting one are still referenced,
        # so at most two earlier members; the helper starts member 0 before
        # draw 1 and holds it until draw 1 has been counted, whatever the
        # timing
        members, alive_at_draw = [], []
        draw, counted = random_band_half, threading.Event()

        def tracking_draw(grid, rng, band):
            alive_at_draw.append(sum(ref() is not None for ref in members))
            if len(alive_at_draw) == 2:
                counted.set()
            half = draw(grid, rng, band)
            members.append(weakref.ref(half))
            return half

        def held(fid, f, rows_of):
            if fid == "random_band[0]":
                started.set()
                counted.wait(10)
            return rows_of(fid, f)

        monkeypatch.setattr(inequalities, "random_band_half", tracking_draw)
        started = _hold_draw_1_until_started(monkeypatch)
        _wrap_member_rows(monkeypatch, held)
        spec = CorpusSpec(kind="random_band", n=64, size=12, seed=2)
        assert len(_MEMBER_CHECKS[check](spec).rows) > 0
        assert len(members) == 12
        assert alive_at_draw[:2] == [0, 1]
        assert max(alive_at_draw) <= 2


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
        calls, inverse = [], spectral.TransformPlan.inverse

        def counting(plan, mult, half, slot):
            calls.append(half.shape)
            return inverse(plan, mult, half, slot)

        monkeypatch.setattr(spectral.TransformPlan, "inverse", counting)
        pairs = ((2.0, 2.0), (2.0, 4.0), (2.0, float("inf")), (4.0, float("inf")))
        check_bernstein(spec, N_set, pairs)
        blocks = [
            (f.coeffs[:, : w.shape[1]] * w).any()
            for _, f in build_corpus(spec)
            for _, w in _full_annuli(f.grid, N_set)
        ]
        assert 0 < sum(blocks) < len(blocks)
        assert len(calls) == spec.size + sum(blocks)

    def test_a_fresh_plan_keeps_no_block_slot(self, monkeypatch):
        # block samples go to slot "lp_base", which lp_norms turns into
        # |f|/m in place, on whichever thread checks the member
        monkeypatch.setattr(spectral._thread_plans, "by_size", {}, raising=False)
        slots, inverse = [], spectral.TransformPlan.inverse

        def recording(plan, mult, half, slot):
            samples = inverse(plan, mult, half, slot)
            slots.append(set(plan._slots))
            return samples

        monkeypatch.setattr(spectral.TransformPlan, "inverse", recording)
        spec = CorpusSpec(n=64, size=20, seed=1)
        check_bernstein(spec, (2.0, 4.0, 8.0), ((2.0, 4.0), (2.0, float("inf"))))
        assert len(slots) > 20
        assert set().union(*slots) == {("lp_base", float), ("lp_acc", float)}
        assert ("block", float) not in spectral.transform_plan(64)._slots

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
            ((_, weight),) = _full_annuli(f.grid, (N,))
            block = f.coeffs[:, : weight.shape[1]] * weight
            full = scipy.fft.irfft2(block, s=(n, n), norm="forward")
            assert np.array_equal(lp_samples(block, f.grid).values, full)

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


def _full_row_norms(grid, full, qs):
    """The block norms of the full-row product ``full`` as the check took
    them before it cropped rows, or None for a zero product."""
    if not full.any():
        return None
    plan = grid.plan
    norms = {q: half_spectrum_l2(full) for q in qs if q == 2.0}
    rest = [q for q in qs if q != 2.0]
    if rest == [float("inf")]:
        norms[rest[0]] = plan.sup_inverse(None, full)
    elif rest:
        norms.update(lp_norms(RealField(grid, plan.inverse(None, full, None)), rest))
    return norms


class TestRowCroppedBlocks:
    """``_annuli`` keeps a weight only on the rows |k1| <= 2N (all rows once
    4N + 1 >= n), and ``_product_norms`` forms the product on those rows
    only: every norm keeps the bits of the full-row product."""

    @pytest.mark.parametrize("n", [64, 256, 1024])
    def test_cropped_products_have_the_full_row_bits(self, n):
        g = Grid(n)
        rng = np.random.default_rng(n)
        # a band-n/4 member plus modes on the row k1 = -n/2
        nyquist = mode_sum(g, [((n // 2, j), 0.25 + 0.5j * j / n)
                               for j in range(0, n // 2 + 1, n // 16)]).coeffs
        assert nyquist[n // 2].any()
        nyquist += random_band_half(g, rng, n // 4)
        members = {"random": random_band_half(g, rng, n // 2),
                   "nyquist": nyquist,
                   "zero": np.zeros((n, n // 2 + 1), dtype=complex)}
        N_set = tuple(2.0**j for j in range(-1, int(math.log2(n))))
        symbol, nonempty = tgamma_eval(g.kmod, 1.5), set()
        # criterion 5's exponents, and q = 4 through one inverse below n = 1024
        exponents = [(2.0, float("inf"))] + [(2.0, 4.0, float("inf"))] * (n < 1024)
        for (N, weight), (_, full_weight) in zip(_annuli(g, N_set),
                                                 _full_annuli(g, N_set)):
            rows, cols = weight.shape
            assert rows == (n if 4 * N + 1 >= n else 2 * math.floor(2 * N) + 1)
            top, lower = (rows + 1) // 2, n - rows // 2
            assert np.array_equal(weight[:top], full_weight[:top])
            assert np.array_equal(weight[top:], full_weight[lower:])
            assert not full_weight[top:lower].any()
            for name, coeffs in members.items():
                for sym in (None, symbol[:, :cols]):
                    full = coeffs[:, :cols] * full_weight
                    if sym is not None:
                        full *= sym
                    for qs in exponents:
                        got = inequalities._product_norms(g, coeffs, weight, sym, qs)
                        expected = _full_row_norms(g, full, qs)
                        assert (got is None) == (expected is None)
                        if got is not None:
                            nonempty.add((name, N))
                            assert {q: v.hex() for q, v in got.items()} == {
                                q: v.hex() for q, v in expected.items()}, (name, N)
        assert nonempty == {(name, N) for name in ("random", "nyquist")
                            for N in N_set if N >= 1.0}

    def test_a_nan_outside_the_rows_no_longer_reaches_the_block(self):
        # as with a column beyond the weight's, a row it leaves out is not read
        g, N = Grid(64), 4.0
        ((_, weight),) = _annuli(g, (N,))
        coeffs = random_band_half(g, np.random.default_rng(1), 8).copy()
        clean = inequalities._product_norms(g, coeffs, weight, None, (2.0, 4.0))
        coeffs[g.n // 2, 0] = np.nan  # |k1| = 32 > 2N
        assert inequalities._product_norms(g, coeffs, weight, None, (2.0, 4.0)) == clean
        coeffs[1, 1] = np.nan  # inside the block
        assert all(math.isnan(v) for v in inequalities._product_norms(
            g, coeffs, weight, None, (2.0, 4.0)).values())


class TestBlocksPastTheLattice:
    """A block N >= sqrt(2) n, whose annulus N/2 < |k| < 2N holds no |k| <=
    n/sqrt(2) of the half lattice, gets a table with no row and no column:
    criterion 5 gives it no row, Bernstein a ratio-0 row per pair."""

    INSIDE = tuple(2.0**j for j in range(1, 7))  # --nmax 64 at n = 64
    ALL = tuple(2.0**j for j in range(1, 21))  # --nmax 1048576
    SPEC = CorpusSpec(n=64, size=20, band=32, seed=1)

    def test_no_table_is_built_past_the_lattice(self):
        for N, weight in _annuli(Grid(64), self.ALL):
            assert (weight.shape == (0, 0)) == (N >= 128), N

    def test_multiplier_rows_are_those_inside(self):
        q = (2.0, float("inf"))
        inside = check_multiplier_bound(1.5, self.INSIDE, q, self.SPEC)
        every = check_multiplier_bound(1.5, self.ALL, q, self.SPEC)
        assert every.rows == inside.rows
        assert every.params["N_set"] == self.ALL

    def test_bernstein_adds_ratio_0_rows_past_the_lattice(self):
        pairs = ((2.0, 2.0), (2.0, 4.0), (2.0, float("inf")), (4.0, float("inf")))
        inside = check_bernstein(self.SPEC, self.INSIDE, pairs)
        every = check_bernstein(self.SPEC, self.ALL, pairs)
        assert every.params["N_set"] == self.ALL
        per_member = len(self.INSIDE) * len(pairs)
        assert len(inside.rows) == 20 * per_member  # no member is zero
        expected = []
        for i in range(0, len(inside.rows), per_member):
            expected += inside.rows[i : i + per_member]
            fid = inside.rows[i].function_id
            expected += [ReportRow(fid, (("N", N), ("p", p), ("q", q_val)), 0.0)
                         for N in self.ALL[len(self.INSIDE):] for p, q_val in pairs]
        assert list(every.rows) == expected
