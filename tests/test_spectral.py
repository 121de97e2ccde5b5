import math
import tracemalloc
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import (
    FullField,
    band_mask,
    box_draw_band,
    full_forward,
    full_inverse,
    gradient,
    half_to_full,
    inv_laplacian,
    lattice,
    perp_gradient,
    two_draw_band,
)

from logeuler import spectral
from logeuler.norms import _sup_abs
from logeuler.spectral import (
    Grid,
    RealField,
    SpectralField,
    TransformPlan,
    dealias,
    dft_forward,
    dft_inverse,
    half_spectrum_l2,
    half_spectrum_weights,
    mode_sum,
    occupied,
    plancherel,
    random_band_half,
    transform_plan,
)


def random_real_field(grid, seed):
    rng = np.random.default_rng(seed)
    return RealField(grid, rng.standard_normal((grid.n, grid.n)))


def direct_dft(values):
    """O(n^4) reference transform with the amplitude normalization."""
    n = values.shape[0]
    k = np.fft.fftfreq(n, d=1.0 / n)
    x = np.arange(n) * (2.0 * np.pi / n)
    out = np.zeros((n, n), dtype=complex)
    for i, k1 in enumerate(k):
        for j, k2 in enumerate(k):
            phase = np.exp(-1j * (k1 * x[:, None] + k2 * x[None, :]))
            out[i, j] = np.sum(values * phase) / n**2
    return out


class TestGrid:
    def test_spacing_is_exact(self):
        g = Grid(64)
        assert g.dx * g.n == 2.0 * np.pi

    @pytest.mark.parametrize("n", [7, 12, 4, 0, -8])
    def test_rejects_bad_resolution(self, n):
        with pytest.raises(ValueError):
            Grid(n)

    def test_frequency_lattice(self):
        g = Grid(8)
        assert list(g.k1) == [0, 1, 2, 3, -4, -3, -2, -1]

    @pytest.mark.parametrize("n", [8, 64])
    def test_lattice_matches_meshgrid_construction(self, n):
        # the rfft half of the full-lattice meshgrid, Nyquist column ky = -n/2
        g = Grid(n)
        kx, ky = np.meshgrid(g.k1, g.k1[: n // 2 + 1], indexing="ij")
        assert np.all(g.ky[:, -1] == -n // 2)
        cut = n // 3
        assert np.array_equal(g.kx, kx)
        assert np.array_equal(g.ky, ky)
        assert np.array_equal(g.k2, kx**2 + ky**2)
        assert np.array_equal(g.kmod, np.sqrt(kx**2 + ky**2))
        assert np.array_equal(
            g.dealias_mask, (np.abs(kx) <= cut) & (np.abs(ky) <= cut)
        )
        assert not g.kx.flags.writeable and not g.ky.flags.writeable

    def test_lattice_tables_are_built_once_per_size_on_first_use(self):
        # Grid(n) builds no table; each is read-only and shared by every
        # grid of its size, and |k| is made with no |k|^2 table kept
        tables = (spectral._lattice_k2, spectral._lattice_kmod, spectral._dealias_mask)
        for table in tables:
            table.cache_clear()
        tracemalloc.start()
        try:
            a, b = Grid(512), Grid(512)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64_000  # one table at n = 512 takes 1 MB
        assert a.kmod is b.kmod
        assert [table.cache_info().currsize for table in tables] == [0, 1, 0]
        assert a.k2 is b.k2 and a.dealias_mask is b.dealias_mask
        for table in (a.k2, a.kmod, a.dealias_mask):
            assert not table.flags.writeable
        assert np.array_equal(a.kmod.view(np.int64), np.sqrt(a.k2).view(np.int64))

    def test_construction_memory(self):
        # the lattice tables are built on first use, not here; a
        # full-lattice meshgrid build peaked at 42 MB
        tracemalloc.start()
        try:
            Grid(1024)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 20_000_000


class TestTransforms:
    def test_constant_maps_to_zero_mode(self):
        g = Grid(16)
        s = dft_forward(RealField(g, np.ones((16, 16))))
        assert s.coeffs[0, 0] == pytest.approx(1.0, abs=1e-15)
        rest = s.coeffs.copy()
        rest[0, 0] = 0.0
        assert np.max(np.abs(rest)) < 1e-15

    def test_cosine_coefficients(self):
        g = Grid(16)
        x1, _ = g.mesh()
        s = dft_forward(RealField(g, np.cos(x1)))
        assert s.coeffs[1, 0] == pytest.approx(0.5, abs=1e-14)
        assert s.coeffs[-1, 0] == pytest.approx(0.5, abs=1e-14)
        assert np.sum(np.abs(s.coeffs) > 1e-12) == 2

    def test_matches_direct_summation(self):
        g = Grid(8)
        f = random_real_field(g, 11)
        fast = half_to_full(dft_forward(f).coeffs)
        slow = direct_dft(f.values)
        assert np.max(np.abs(fast - slow)) < 1e-12

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.sampled_from([8, 16, 32, 128]))
    def test_roundtrip_identity(self, seed, n):
        f = random_real_field(Grid(n), seed)
        back = dft_inverse(dft_forward(f))
        scale = np.max(np.abs(f.values))
        assert np.max(np.abs(back.values - f.values)) < 1e-12 * scale

    def test_roundtrip_large_grid(self):
        f = random_real_field(Grid(512), 0)
        back = dft_inverse(dft_forward(f))
        assert np.max(np.abs(back.values - f.values)) < 1e-12 * np.max(np.abs(f.values))

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_plancherel(self, seed):
        g = Grid(32)
        f = random_real_field(g, seed)
        s = dft_forward(f)
        physical = np.sum(f.values**2) * g.dx**2
        spectral = 4.0 * np.pi**2 * np.sum(np.abs(half_to_full(s.coeffs)) ** 2)
        assert physical == pytest.approx(spectral, rel=1e-10)

    def test_inverse_of_cosine_pair(self):
        g = Grid(16)
        c = np.zeros((16, 9), dtype=complex)
        c[1, 0] = 0.5
        c[-1, 0] = 0.5
        x1, _ = g.mesh()
        out = dft_inverse(SpectralField(g, c))
        assert np.max(np.abs(out.values - np.cos(x1))) < 1e-14

    def test_inverse_of_zero(self):
        g = Grid(8)
        out = dft_inverse(SpectralField(g, np.zeros((8, 5), dtype=complex)))
        assert np.all(out.values == 0.0)


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def random_half(n, seed, cols=None):
    """Random rfft-layout coefficients on every entry, the Nyquist row and
    column and the imaginary parts of the self-conjugate modes included."""
    rng = np.random.default_rng(seed)
    shape = (n, n // 2 + 1 if cols is None else cols)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestTransformPlan:
    """The plan has one normalization, scipy's norm="forward".  Against
    scipy's norm="backward" it differs by the exact power of two n^2, so
    the backward reference rescaled by n^2 gives the same bits too."""

    @pytest.mark.parametrize("ref_norm", ["backward", "forward"])
    @pytest.mark.parametrize("n", [8, 16, 32, 64, 128, 256, 512])
    def test_inverse_is_irfft2(self, n, ref_norm):
        plan = transform_plan(n)
        h = random_half(n, n)
        mult = random_half(n, n + 1).real
        scale = float(n * n) if ref_norm == "backward" else 1.0
        ref = scipy.fft.irfft2(scale * h, s=(n, n), norm=ref_norm)
        assert same_bits(plan.inverse(None, h, "test"), ref)
        assert same_bits(plan.inverse(None, h, None), ref)
        ref = scipy.fft.irfft2(mult * (scale * h), s=(n, n), norm=ref_norm)
        assert same_bits(plan.inverse(mult, h, "test"), ref)

    @pytest.mark.parametrize("ref_norm", ["backward", "forward"])
    @pytest.mark.parametrize("n", [8, 16, 32, 64, 128, 256, 512])
    def test_forward_is_rfft2(self, n, ref_norm):
        x = random_real_field(Grid(n), n).values
        scale = float(n * n) if ref_norm == "backward" else 1.0
        assert same_bits(transform_plan(n).forward(x),
                         scipy.fft.rfft2(x, norm=ref_norm) / scale)

    @pytest.mark.parametrize("cols", [1, 3, 17])
    def test_leading_columns_are_zero_padded(self, cols):
        n = 64
        h = random_half(n, cols, cols)
        ref = scipy.fft.irfft2(h, s=(n, n), norm="forward")
        assert same_bits(transform_plan(n).inverse(None, h, "test"), ref)

    def test_widths_in_turn_on_one_plan_are_zero_padded(self):
        # the plan clears only the work columns between a call's width and
        # the first column known to be zero, so every width must still see
        # zeros after wider calls, a forward transform, a work buffer filled
        # but not transformed (a block that needs only Plancherel), and
        # inputs formed in the work buffer itself
        n = 512
        full = n // 2 + 1
        plan = TransformPlan(n)
        for step, cols in enumerate([full, 5, 129, 3, full, 17]):
            if step == 2:
                plan.work(full)[...] = random_half(n, 99)
            if step == 3:
                plan.forward(random_real_field(Grid(n), step).values)
            h = random_half(n, step, cols)
            padded = np.zeros((n, full), dtype=complex)
            padded[:, :cols] = h
            ref = scipy.fft.irfft2(padded, s=(n, n), norm="forward")
            if step % 2:  # formed in the work buffer, as the lab's tasks do
                work = plan.work(cols)
                work[...] = h
                h = work
            assert same_bits(plan.inverse(None, h, "test"), ref)

    def test_each_thread_has_plans_of_its_own(self):
        plan = transform_plan(16)
        assert transform_plan(16) is plan and Grid(16).plan is plan
        with ThreadPoolExecutor(max_workers=1) as pool:
            other = pool.submit(transform_plan, 16).result(timeout=60)
            assert pool.submit(lambda: Grid(16).plan).result(timeout=60) is other
        assert other is not plan
        freed = weakref.ref(other)
        del other
        assert freed() is None  # the worker's plans went with its thread
        assert transform_plan(16) is plan

    def test_a_thread_keeps_its_four_latest_sizes(self):
        def kept():
            first = {n: transform_plan(n) for n in (8, 16, 32, 64)}
            transform_plan(8)  # used again, so 16 is now the oldest
            transform_plan(128)
            return {n: transform_plan(n) is first[n] for n in (8, 32, 64, 16)}

        with ThreadPoolExecutor(max_workers=1) as pool:
            assert pool.submit(kept).result(timeout=60) == {
                8: True, 32: True, 64: True, 16: False}

    def test_slots_are_reused_and_none_is_fresh(self):
        plan = Grid(16).plan
        assert plan is transform_plan(16)
        h = random_half(16, 0)
        a = plan.inverse(None, h, "test")
        assert plan.inverse(2.0, h, "test") is a
        assert plan.inverse(None, h, "other") is not a
        fresh = plan.inverse(None, h, None)
        assert not any(np.shares_memory(fresh, buf) for buf in plan._slots.values())
        k = plan.half("test")
        assert k.shape == h.shape and k.dtype == complex
        assert plan.half("test") is k and not np.shares_memory(k, a)

    def test_public_transforms_return_fresh_arrays(self):
        g = Grid(16)
        f = random_real_field(g, 3)
        s1, s2 = dft_forward(f), dft_forward(f)
        assert same_bits(s1.coeffs, s2.coeffs)
        assert not np.shares_memory(s1.coeffs, s2.coeffs)
        assert not np.shares_memory(dft_inverse(s1).values, dft_inverse(s1).values)


class TestSupInverse:
    """``sup_inverse(mult, h)`` is the float ``_sup_abs`` takes from
    ``inverse(mult, h, None)``, from row blocks of at most 1 MB (eight at
    n = 1024, one up to n = 256)."""

    @pytest.mark.parametrize("n", [8, 16, 32, 64, 128, 256, 512, 1024])
    def test_is_the_sup_of_inverse(self, n):
        plan, full = TransformPlan(n), n // 2 + 1
        for cols in sorted({full, 3, min(17, full)}):
            h = random_half(n, n + cols, cols)
            for mult in (None, random_half(n, cols, cols).real):
                ref = _sup_abs(plan.inverse(mult, h, None))
                assert same_bits(np.float64(plan.sup_inverse(mult, h)), np.float64(ref))

    def test_shares_the_zero_column_record_with_inverse(self):
        # cropped and full widths in turn, each sup_inverse checked against
        # irfft2 and each inverse after it still bit for bit irfft2
        n = 512
        full = n // 2 + 1
        plan = TransformPlan(n)
        for step, (cols, sup) in enumerate(
            [(full, True), (5, True), (full, False), (17, True), (3, False),
             (129, True), (full, True)]
        ):
            h = random_half(n, step, cols)
            padded = np.zeros((n, full), dtype=complex)
            padded[:, :cols] = h
            ref = scipy.fft.irfft2(padded, s=(n, n), norm="forward")
            if sup:
                assert plan.sup_inverse(None, h) == _sup_abs(ref)
            else:
                assert same_bits(plan.inverse(None, h, "test"), ref)

    def test_all_zero_gives_unsigned_zero(self):
        plan, h = TransformPlan(64), np.zeros((64, 33), dtype=complex)
        sup = plan.sup_inverse(None, h)
        ref = _sup_abs(plan.inverse(None, h, None))
        assert same_bits(np.float64(sup), np.float64(ref))
        assert sup == 0.0 and math.copysign(1.0, sup) == 1.0

    @pytest.mark.parametrize("row", [5, 300, 1000])
    @pytest.mark.parametrize("value, width", [
        (1e308, None), (-1e308, None), (7e307, 2), (-7e307, 2)])
    def test_a_nonfinite_row_block_propagates(self, row, value, width):
        # the row pass reads `value` on one row only, so the samples are
        # nonfinite in that row's block alone: NaN over the full width, and
        # +-inf (no NaN) from two columns
        n = 1024
        rows = np.zeros((n, n // 2 + 1), dtype=complex)
        rows[row, :width] = value
        h = np.fft.fft(rows, axis=0, norm="forward")  # the column pass undoes it
        plan = TransformPlan(n)
        with np.errstate(over="ignore", invalid="ignore"):
            values = plan.inverse(None, h, None)
            sup = plan.sup_inverse(None, h)
        assert list(np.nonzero(~np.isfinite(values).all(axis=1))[0]) == [row]
        assert same_bits(np.float64(sup), np.float64(_sup_abs(values)))
        assert math.isnan(sup) if width is None else sup == math.inf

    def test_keeps_only_its_row_block(self):
        plan = TransformPlan(1024)
        plan.sup_inverse(None, random_half(1024, 0, 9))
        assert {key: buf.shape for key, buf in plan._slots.items()} == {
            ("sup", float): (128, 1024)}


class TestOccupied:
    """The lab and the norms transform a field from its occupied columns
    only: ``inverse`` and ``sup_inverse`` give the bits of the full width.
    A multiplier may turn zero columns into -0.0 entries, so with one the
    samples are compared after ``+ 0.0``, which maps -0.0 to 0.0 alone
    (without one, after ``+ -0.0``, which changes no bit)."""

    @staticmethod
    def member(n, kind):
        half = np.zeros((n, n // 2 + 1), dtype=complex)
        if kind == "band":  # columns 0..n/8, as a band-limited lab member
            half[:, : n // 8 + 1] = random_half(n, 1, n // 8 + 1)
        elif kind == "nyquist":  # the last column is the only one past 2
            half[:, :3] = random_half(n, 2, 3)
            half[:, -1] = random_half(n, 3, 1)[:, 0]
        elif kind == "middle":  # one interior column
            half[7, n // 4] = 1.0 - 0.5j
        return half

    @pytest.mark.parametrize("kind, width", [
        ("band", 17), ("nyquist", 65), ("middle", 33), ("zero", 1)])
    def test_leading_columns_to_the_last_nonzero(self, kind, width):
        half = self.member(128, kind)
        cropped = occupied(half)
        assert cropped.shape == (128, width)
        assert np.shares_memory(cropped, half) and not half[:, width:].any()

    def test_nan_counts_as_occupied(self):
        half = self.member(64, "band")
        half[3, 20] = np.nan
        assert occupied(half).shape[1] == 21

    @pytest.mark.parametrize("n", [16, 128, 256])
    @pytest.mark.parametrize("kind", ["band", "nyquist", "middle", "zero"])
    def test_cropped_transforms_are_the_full_width(self, n, kind):
        half = self.member(n, kind)
        cropped = occupied(half)
        mult = random_half(n, 4).real
        plan = TransformPlan(n)
        for m, m_cropped, zero in ((None, None, -0.0),
                                   (mult, mult[:, : cropped.shape[1]], 0.0)):
            full = plan.inverse(m, half, None) + zero
            values = plan.inverse(m_cropped, cropped, None) + zero
            assert np.array_equal(values.view(np.int64), full.view(np.int64))
            sups = [plan.sup_inverse(m, half), plan.sup_inverse(m_cropped, cropped)]
            assert np.array(sups).view(np.int64).tolist() == [
                np.float64(_sup_abs(full)).view(np.int64)] * 2


class TestHalfSpectrum:
    @pytest.mark.parametrize("n", [8, 256, 1024])
    @pytest.mark.parametrize("cols", ["full", "cropped"])
    def test_l2_is_the_one_shot_formula(self, n, cols):
        # column sums added block by block of rows agree with one sum over
        # the whole half to rounding, and with the field's physical L2
        width = n // 2 + 1 if cols == "full" else n // 4 + 1
        rng = np.random.default_rng(n + width)
        half = scipy.fft.rfft2(rng.standard_normal((n, n)), norm="forward")
        half = half[:, :width]
        power = (half.real**2 + half.imag**2) * half_spectrum_weights(n)[:width]
        one_shot = np.sqrt(4.0 * np.pi**2 * float(np.sum(power)))
        assert half_spectrum_l2(half) == pytest.approx(one_shot, rel=1e-15)
        samples = transform_plan(n).inverse(None, half, None)
        physical = np.sqrt(np.sum(samples**2)) * 2.0 * np.pi / n
        assert half_spectrum_l2(half) == pytest.approx(physical, rel=1e-12)

    def test_random_band_half_is_the_box_formula(self):
        # the box draw's stream placed on the full lattice and normalized as
        # the draw is, over the box's columns: below n/2, at b = n/2 with
        # the corner cut off by the band, and past it
        for n, band in ((64, 20), (16, 8), (16, 12)):
            ref = box_draw_band(n, np.random.default_rng(17), band)[:, : n // 2 + 1]
            ref /= half_spectrum_l2(ref[:, : min(band, n // 2) + 1])
            half = random_band_half(Grid(n), np.random.default_rng(17), band)
            assert np.array_equal(half, ref), (n, band)

    @pytest.mark.parametrize("band", [3, 5])
    def test_random_band_half_has_the_two_draw_law(self, band):
        # band 5 at n = 8 fills the Nyquist row and column, whose
        # self-mirrored modes are real with twice a pair mode's variance
        # per part; per-mode means and variances of both parts agree with
        # the two-draw formula within 5 standard errors
        n, draws, g = 8, 10_000, Grid(8)
        rng = np.random.default_rng(band)
        new = np.array([random_band_half(g, rng, band) for _ in range(draws)])
        old = two_draw_band(n, rng, band, (draws,))[..., : n // 2 + 1]
        inside = band_mask(n, band)[:, : n // 2 + 1]
        assert np.all(new[:, ~inside] == 0.0)
        assert np.all(new[:, inside] != 0.0)
        for j in (0, n // 2):  # columns that hold their own mirror image
            col = new[:, :, j]
            assert np.array_equal(col[:, 1:], col[:, :0:-1].conj())
            assert np.all(col[:, 0].imag == 0.0)
        for draw in new[:50]:
            power = np.sum(np.abs(half_to_full(draw)) ** 2)
            assert np.sqrt(4.0 * np.pi**2 * power) == pytest.approx(1.0, rel=1e-14)
        for a, b in ((new.real, old.real), (new.imag, old.imag)):
            live = np.any(b != 0.0, axis=0)
            assert np.array_equal(np.any(a != 0.0, axis=0), live)
            (ma, va, sa), (mb, vb, sb) = (
                (x.mean(0), x.var(0), np.sqrt(np.var(x**2, 0) / draws))
                for x in (a, b)
            )
            mean_se = np.sqrt((va + vb) / draws)
            assert np.all(np.abs(ma - mb)[live] <= 5.0 * mean_se[live])
            assert np.all(np.abs(va - vb)[live] <= 5.0 * np.hypot(sa, sb)[live])

    @pytest.mark.parametrize("band, normals", [(8, (2, 17, 9)), (512, (2, 1024, 513))])
    def test_random_band_half_draws_only_the_box(self, band, normals):
        # 2 rows (b + 1) normals, rows = 2b + 1 or, once b = n/2, all n
        rng, fresh = np.random.default_rng(23), np.random.default_rng(23)
        random_band_half(Grid(1024), rng, band)
        fresh.standard_normal(normals)
        assert rng.bit_generator.state == fresh.bit_generator.state

    def test_random_band_half_allocates_only_the_half_and_the_box(self):
        # no n x n draw: at n = 256, band 32 the box is 65 x 33 complex
        # normals (34 kB) beside the 528 kB half; the grid's |k| table is
        # built once per n on first use, so it is warmed before tracing
        g = Grid(256)
        g.kmod
        rng = np.random.default_rng(0)
        tracemalloc.start()
        try:
            half = random_band_half(g, rng, 32)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= half.nbytes + 65 * 33 * 16 + 16_384

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        n=st.sampled_from([8, 16, 32, 128]),
        scale=st.floats(1e-6, 1e6),
    )
    def test_plancherel_and_expansion(self, seed, n, scale):
        g = Grid(n)
        values = scale * random_real_field(g, seed).values
        half = scipy.fft.rfft2(values, norm="forward")
        physical = np.sum(values**2) * g.dx**2
        weighted = np.sum(np.abs(half) ** 2 @ half_spectrum_weights(n))
        assert physical == pytest.approx(4.0 * np.pi**2 * weighted, rel=1e-12)
        assert half_spectrum_l2(half) == pytest.approx(np.sqrt(physical), rel=1e-12)
        full = full_forward(RealField(g, values))
        peak = np.max(np.abs(values))
        assert np.max(np.abs(half_to_full(half) - full.coeffs)) < 1e-14 * peak
        assert np.max(np.abs(dft_forward(RealField(g, values)).coeffs - half)) \
            < 1e-14 * peak
        assert np.max(np.abs(dft_inverse(SpectralField(g, half)).values
                             - full_inverse(full).values)) < 1e-12 * peak

    @pytest.mark.parametrize("k", [(3, -2), (0, 4), (-5, 8), (8, 8)])
    def test_mode_sum_is_the_real_field(self, k):
        g = Grid(16)
        x1, x2 = g.mesh()
        amp = 0.3 - 0.7j
        f = mode_sum(g, [(k, amp), ((1, 1), 2.0)])
        phase = k[0] * x1 + k[1] * x2
        expected = 2 * (amp * np.exp(1j * phase)).real + 4 * np.cos(x1 + x2)
        assert np.max(np.abs(dft_inverse(f).values - expected)) < 1e-13

    def test_plancherel_is_4pi2_times_the_full_lattice_sum(self):
        g = Grid(16)
        values = random_real_field(g, 4).values
        even = half_to_full(dft_forward(RealField(g, values)).coeffs)
        density = np.abs(even) ** 2  # even in k
        total = plancherel(density[:, :9])
        assert total == pytest.approx(4.0 * np.pi**2 * np.sum(density), rel=1e-13)
        assert total == pytest.approx(np.sum(values**2) * g.dx**2, rel=1e-12)

    def test_half_field_shape_accepted(self):
        g = Grid(16)
        assert SpectralField(g, np.zeros((16, 9), dtype=complex)).coeffs.shape == (16, 9)
        for shape in ((16, 8), (16, 16)):
            with pytest.raises(ValueError):
                SpectralField(g, np.zeros(shape, dtype=complex))


class TestOperators:
    def test_gradient_of_sine(self):
        g = Grid(16)
        x1, _ = g.mesh()
        s = full_forward(RealField(g, np.sin(x1)))
        d1, d2 = gradient(s)
        assert np.max(np.abs(full_inverse(d1).values - np.cos(x1))) < 1e-13
        assert np.max(np.abs(d2.coeffs)) < 1e-16

    def test_gradient_of_constant(self):
        g = Grid(8)
        s = full_forward(RealField(g, np.full((8, 8), 3.0)))
        d1, d2 = gradient(s)
        assert np.max(np.abs(d1.coeffs)) < 1e-15
        assert np.max(np.abs(d2.coeffs)) < 1e-15

    def test_gradient_of_single_mode(self):
        g = Grid(16)
        c = np.zeros((16, 16), dtype=complex)
        c[0, 2] = 1.0  # exp(2 i x2)
        _, d2 = gradient(FullField(g, c))
        assert d2.coeffs[0, 2] == pytest.approx(2j)

    def test_perp_gradient_examples(self):
        g = Grid(16)
        x1, x2 = g.mesh()
        u1, u2 = perp_gradient(full_forward(RealField(g, np.sin(x1))))
        assert np.max(np.abs(u1.coeffs)) < 1e-16
        assert np.max(np.abs(full_inverse(u2).values - np.cos(x1))) < 1e-13
        u1, u2 = perp_gradient(full_forward(RealField(g, np.sin(x2))))
        assert np.max(np.abs(full_inverse(u1).values + np.cos(x2))) < 1e-13
        assert np.max(np.abs(u2.coeffs)) < 1e-16

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_perp_gradient_divergence_free(self, seed):
        g = Grid(32)
        s = full_forward(random_real_field(g, seed))
        u1, u2 = perp_gradient(s)
        kx, ky, _, _ = lattice(32)
        div = 1j * kx * u1.coeffs + 1j * ky * u2.coeffs
        assert np.max(np.abs(div)) < 1e-12 * max(np.max(np.abs(s.coeffs)), 1.0)

    def test_inv_laplacian_sine(self):
        g = Grid(16)
        x1, _ = g.mesh()
        s = full_forward(RealField(g, np.sin(x1)))
        out = full_inverse(inv_laplacian(s))
        assert np.max(np.abs(out.values + np.sin(x1))) < 1e-13

    def test_inv_laplacian_diagonal_mode(self):
        g = Grid(16)
        c = np.zeros((16, 16), dtype=complex)
        c[1, 1] = 1.0  # exp(i(x1 + x2)), |k|^2 = 2
        out = inv_laplacian(FullField(g, c))
        assert out.coeffs[1, 1] == pytest.approx(-0.5)

    def test_inv_laplacian_rejects_mean(self):
        g = Grid(8)
        s = full_forward(RealField(g, np.ones((8, 8))))
        with pytest.raises(ValueError):
            inv_laplacian(s)

    def test_dealias_rule(self):
        g = Grid(16)  # cutoff floor(16/3) = 5
        c = np.zeros((16, 9), dtype=complex)
        c[6, 0] = 1.0
        c[5, 5] = 2.0
        out = dealias(SpectralField(g, c))
        assert out.coeffs[6, 0] == 0.0
        assert out.coeffs[5, 5] == 2.0

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_dealias_idempotent(self, seed):
        s = dft_forward(random_real_field(Grid(16), seed))
        once = dealias(s)
        twice = dealias(once)
        assert np.array_equal(once.coeffs, twice.coeffs)
