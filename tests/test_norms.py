from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import (
    FullField,
    biot_savart,
    full_inverse,
    gradient,
    hermitian_part,
    lattice,
    power_loop_norms,
    to_full,
    to_half,
    velocity_spectral,
)

from logeuler import norms
from logeuler.multipliers import tgamma_eval
from logeuler.norms import (
    FOUR_PI_SQ,
    P_LIMIT,
    compute_norm_bundle,
    generalized_energy,
    grad_u_sup,
    lp_norm,
    lp_norm_map,
    lp_norms,
    sobolev_norm,
    sup_over_p,
)
from logeuler.spectral import (
    Grid,
    RealField,
    SpectralField,
    TransformPlan,
    dft_forward,
    dft_inverse,
    random_band_half,
)

TGAMMA_11 = 0.2693113659868460808208717851341425549658
PI_SQRT2 = 4.442882938158366247015880990060693698615


def sine_field(n=32):
    g = Grid(n)
    x1, _ = g.mesh()
    return RealField(g, np.sin(x1))


def random_zero_mean(n, seed, band):
    g = Grid(n)
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    kmod = lattice(n)[3]
    mask = (kmod > 0) & (kmod <= band)
    return to_half(FullField(g, hermitian_part(np.where(mask, z, 0.0))))


class TestLpNorm:
    def test_sine_l2(self):
        assert lp_norm(sine_field(), 2) == pytest.approx(PI_SQRT2, rel=1e-13)

    def test_sine_l4(self):
        # mean of sin^4 over the torus is 3/8
        expected = 1.961542630300344068112835895838381913332  # (3 pi^2 / 2)^(1/4)
        assert lp_norm(sine_field(), 4) == pytest.approx(expected, rel=1e-13)

    @pytest.mark.parametrize("p", [2.0, 3.0, 64.0])
    def test_constant_field(self, p):
        g = Grid(16)
        f = RealField(g, np.ones((16, 16)))
        assert lp_norm(f, p) == pytest.approx((4 * np.pi**2) ** (1 / p), rel=1e-13)

    @pytest.mark.parametrize("p", [7.5])
    def test_rejects_non_integer_p(self, p):
        f = RealField(Grid(16), np.ones((16, 16)))
        with pytest.raises(ValueError, match="must be >= 2"):
            lp_norm(f, p)

    def test_p_is_bounded(self):
        # the sweep makes p - 1 products, so an unbounded p could take any time
        f = RealField(Grid(16), np.random.default_rng(4).standard_normal((16, 16)))
        assert P_LIMIT == 1024
        assert lp_norm(f, 1024) == lp_norm_map(f, [1024])[1024]
        for call in (lambda: lp_norm(f, 1025), lambda: lp_norm_map(f, [2, 1025])):
            with pytest.raises(ValueError, match="p must be at most 1024, got 1025"):
                call()

    def test_infinity_norm(self):
        assert lp_norm(sine_field(), np.inf) == pytest.approx(1.0, rel=1e-13)

    def test_rejects_small_p(self):
        with pytest.raises(ValueError):
            lp_norm(sine_field(), 1.5)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000), p=st.integers(2, 48))
    def test_bounded_by_sup_times_measure(self, seed, p):
        g = Grid(16)
        f = RealField(g, np.random.default_rng(seed).standard_normal((16, 16)))
        bound = lp_norm(f, np.inf) * (4 * np.pi**2) ** (1 / p)
        assert lp_norm(f, p) <= bound * (1 + 1e-12)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_every_p_is_the_sweeps_value(self, seed):
        # one L^p arithmetic: bit for bit the plain power loop's value at p,
        # also on a helper thread, whose plan is its own (x ** p gives other
        # bits at some p for seeds 0 and 2)
        g = Grid(64)
        half = random_band_half(g, np.random.default_rng(seed), 20)
        f = dft_inverse(SpectralField(g, half))
        sweep = power_loop_norms(f, 16)
        assert {p: lp_norm(f, p) for p in range(2, 17)} == sweep
        with ThreadPoolExecutor(max_workers=1) as helper:
            future = helper.submit(lp_norms, f, range(2, 17))
            assert future.result() == sweep

    def test_map_matches_individual_norms(self):
        g = Grid(16)
        f = RealField(g, np.random.default_rng(3).standard_normal((16, 16)))
        norms = lp_norm_map(f, [2, 5, 8, 17])
        for p, value in norms.items():
            assert value == pytest.approx(lp_norm(f, p), rel=1e-13)


def same_float(a, b):
    """The same float64 bits, or both NaN."""
    if np.isnan(a) or np.isnan(b):
        return bool(np.isnan(a) and np.isnan(b))
    return np.float64(a).view(np.int64) == np.float64(b).view(np.int64)


class TestLpNorms:
    """One pass for a set of p: each finite p is bit for bit the plain
    power loop's value and inf is ``_sup_abs``, a NaN sample propagated."""

    PS = (2, 3, 4, 8, np.inf)

    def assert_is_the_sweep(self, f):
        with ThreadPoolExecutor(max_workers=1) as helper:  # a plan of its own
            got = helper.submit(lp_norms, f, set(self.PS)).result()
        assert set(got) == set(self.PS)
        assert all(type(p) is int for p in got if p != np.inf)
        reference = {np.inf: norms._sup_abs(f.values), **power_loop_norms(f, 8)}
        for p in self.PS:
            assert same_float(got[p], reference[p]), p

    @settings(max_examples=20, deadline=None)
    @given(n=st.sampled_from([16, 32, 64]), seed=st.integers(0, 10_000),
           band=st.integers(1, 32), scale=st.sampled_from([1e-200, 1.0, 1e150]))
    def test_band_limited_fields(self, n, seed, band, scale):
        g = Grid(n)
        half = random_band_half(g, np.random.default_rng(seed), min(band, n // 2))
        self.assert_is_the_sweep(dft_inverse(SpectralField(g, scale * half)))

    @pytest.mark.parametrize("case", ["zero", "nan", "spike"])
    def test_zero_nan_and_one_point_spike(self, case):
        g = Grid(32)
        values = np.zeros((32, 32))
        if case != "zero":
            values[5, 17] = np.nan if case == "nan" else -3.0
            if case == "nan":
                values[2, 3] = 1.5
        f = RealField(g, values)
        self.assert_is_the_sweep(f)
        expected = {"zero": 0.0, "nan": np.nan, "spike": 3.0}[case]
        assert same_float(lp_norms(f, [np.inf])[np.inf], expected)

    def test_empty_set_and_bad_p(self):
        f = sine_field()
        assert lp_norms(f, []) == {}
        with pytest.raises(ValueError, match="p must be at most 1024, got 1025"):
            lp_norms(f, [np.inf, 1025])

    def test_wrappers_take_one_pass(self):
        f = sine_field()
        assert lp_norm_map(f, [8, 3, np.inf]) == lp_norms(f, [3, 8, np.inf])
        assert lp_norm(f, 8.0) == lp_norm_map(f, [8])[8]


class TestSobolev:
    def test_sine_orders(self):
        s = dft_forward(sine_field())
        assert sobolev_norm(s, 1.0) == pytest.approx(PI_SQRT2, rel=1e-12)
        assert sobolev_norm(s, -1.0) == pytest.approx(PI_SQRT2, rel=1e-12)

    def test_rejects_mean_for_negative_order(self):
        g = Grid(16)
        s = dft_forward(RealField(g, np.ones((16, 16))))
        with pytest.raises(ValueError):
            sobolev_norm(s, -1.0)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_order_zero_is_l2(self, seed):
        s = random_zero_mean(32, seed, 10)
        phys = dft_inverse(s)
        assert sobolev_norm(s, 0.0) == pytest.approx(lp_norm(phys, 2), rel=1e-10)


class TestSupPRatio:
    def test_sine_attains_at_p2(self):
        assert sup_over_p(sine_field(), 16)[1] == pytest.approx(np.pi, rel=1e-13)

    def test_zero_field(self):
        g = Grid(16)
        assert sup_over_p(RealField(g, np.zeros((16, 16))), 8)[1] == 0.0

    @settings(max_examples=15, deadline=None)
    @given(c=st.floats(0.01, 100.0, allow_nan=False))
    def test_homogeneous_scaling(self, c):
        g = Grid(16)
        values = np.random.default_rng(42).standard_normal((16, 16))
        base = sup_over_p(RealField(g, values), 16)[1]
        scaled = sup_over_p(RealField(g, c * values), 16)[1]
        assert scaled == pytest.approx(c * base, rel=1e-12)


class TestGradUSup:
    def test_single_mode_with_smoothing(self):
        s = dft_forward(sine_field())
        assert grad_u_sup(s, 1.5) == pytest.approx(TGAMMA_11, rel=1e-12)

    def test_single_mode_classical(self):
        s = dft_forward(sine_field())
        assert grad_u_sup(s, 0.0) == pytest.approx(1.0, rel=1e-12)

    def test_zero_field(self):
        g = Grid(16)
        s = SpectralField(g, np.zeros((16, 9), dtype=complex))
        assert grad_u_sup(s, 1.5) == 0.0

    def test_damped_on_single_shell(self):
        s = random_zero_mean(32, 5, 1)  # all modes on |k| = 1
        assert grad_u_sup(s, 1.5) <= grad_u_sup(s, 0.0)

    def test_mixed_derivative_attains_sup(self):
        # u = perp_grad(psi) for omega = Lap psi at gamma = 0, with
        # psi = f(x1) f(x2), f = sin x + sin(3x)/9: |d1 d2 psi| peaks at
        # f'(0)^2 = 16/9 while |f''| max|f| < 1.4 bounds d1^2 psi and d2^2 psi
        g = Grid(32)
        x1, x2 = g.mesh()
        f = lambda x: np.sin(x) + np.sin(3 * x) / 9
        f2 = lambda x: -np.sin(x) - np.sin(3 * x)
        omega = dft_forward(RealField(g, f2(x1) * f(x2) + f(x1) * f2(x2)))
        assert grad_u_sup(omega, 0.0) == pytest.approx(16 / 9, rel=1e-12)

    @pytest.mark.parametrize("n", [64, 1024])
    def test_is_the_largest_component_sup(self, n):
        # the three components' sup norms, each from a full inverse
        g = Grid(n)
        s = SpectralField(g, random_band_half(g, np.random.default_rng(n), n / 3))
        psi = s.coeffs * norms._smoothed_inverse_k2(n, 1.5)
        plan = TransformPlan(n)
        sups = [norms._sup_abs(plan.inverse(symbol, psi, None))
                for symbol in norms._grad_symbols(n)]
        assert grad_u_sup(s, 1.5) == max(sups)

    @pytest.mark.parametrize("member", ["band", "nyquist", "zero"])
    def test_cropped_is_the_full_width(self, member):
        # grad_u_sup transforms only the occupied columns: the bits of the
        # three full-width sup_inverse calls, also when the last occupied
        # column is the Nyquist one and for the zero field
        n = 128
        g = Grid(n)
        half = random_band_half(g, np.random.default_rng(11), n // 8)
        if member == "nyquist":
            half[5, n // 2] = half[-5, n // 2] = 0.25
        elif member == "zero":
            half[:] = 0.0
        s = SpectralField(g, half)
        psi = half * norms._smoothed_inverse_k2(n, 1.5)
        plan = TransformPlan(n)
        full = max(plan.sup_inverse(symbol, psi) for symbol in norms._grad_symbols(n))
        assert np.float64(grad_u_sup(s, 1.5)).view(np.int64) == np.float64(
            full).view(np.int64)

    def test_a_nan_coefficient_gives_nan(self):
        # it used to read 0.0: max(0.0, nan) is 0.0
        half = np.zeros((16, 9), dtype=complex)
        half[3, 2] = np.nan
        assert np.isnan(grad_u_sup(SpectralField(Grid(16), half), 1.5))

    def test_keeps_no_n_by_n_slot(self):
        # the components are reduced by row blocks: no "grad" slot is made
        s = dft_forward(sine_field(256))
        with ThreadPoolExecutor(max_workers=1) as fresh:
            slots = fresh.submit(
                lambda: (grad_u_sup(s, 1.5), set(s.grid.plan._slots))[1]
            ).result(timeout=60)
        assert slots == {("sup", float)}

    def test_coefficientwise_damping(self):
        # each spectral coefficient of grad u is damped by exactly m(|k|)
        s = to_full(random_zero_mean(32, 6, 8))
        m = tgamma_eval(lattice(32)[3], 1.5)
        for smooth, classical in zip(
            velocity_spectral(s, 1.5), velocity_spectral(s, 0.0)
        ):
            for ds, dc in zip(gradient(smooth), gradient(classical)):
                assert np.max(np.abs(ds.coeffs - m * dc.coeffs)) < 1e-14


class TestGeneralizedEnergy:
    @pytest.mark.parametrize("gamma", [0.0, 0.5, 1.5])
    def test_single_mode(self, gamma):
        s = dft_forward(sine_field())
        expected = 2.0 * np.pi**2 * tgamma_eval(1.0, gamma)
        assert generalized_energy(s, gamma) == pytest.approx(expected, rel=1e-12)

    def test_gamma_zero_is_kinetic_energy(self):
        s = random_zero_mean(32, 9, 8)
        u1, u2 = biot_savart(to_full(s), 0.0)
        kinetic = lp_norm(u1, 2) ** 2 + lp_norm(u2, 2) ** 2
        assert generalized_energy(s, 0.0) == pytest.approx(kinetic, rel=1e-10)

    def test_zero_field(self):
        g = Grid(16)
        s = SpectralField(g, np.zeros((16, 9), dtype=complex))
        assert generalized_energy(s, 1.5) == 0.0


def _full_sup(f, p_max):
    """max of ||f||_p / sqrt(p) over a full sweep of p = 2..p_max."""
    lp = lp_norm_map(f, range(2, p_max + 1))
    return max(lp[p] / np.sqrt(p) for p in lp)


class TestNormBundle:
    def test_bundle_consistency(self):
        s = random_zero_mean(64, 12, 12)
        bundle = compute_norm_bundle(s, 1.5, p_max=16)
        assert bundle.l2 == pytest.approx(sobolev_norm(s, 0.0), rel=1e-10)
        assert bundle.h1dot == pytest.approx(sobolev_norm(s, 1.0), rel=1e-13)
        assert bundle.hm1dot == pytest.approx(sobolev_norm(s, -1.0), rel=1e-13)
        assert bundle.lp.keys() == set(range(2, 9))
        lp = lp_norm_map(dft_inverse(s), range(2, 17))
        assert bundle.sup_p_ratio == max(lp[p] / np.sqrt(p) for p in lp)
        assert bundle.lp == {p: lp[p] for p in range(2, 9)}
        assert bundle.grad_u_sup > 0
        assert bundle.energy_gamma > 0

    @pytest.mark.parametrize("gamma", [0.0, 1.5])
    def test_bundle_equals_the_standalone_norms(self, gamma):
        s, _ = _nyquist_field(32, 24, disc=False)
        bundle = compute_norm_bundle(s, gamma, p_max=16)
        assert bundle.grad_u_sup == grad_u_sup(s, gamma)
        assert bundle.energy_gamma == generalized_energy(s, gamma)
        # one |coeff|^2 array serves the three spectral sums, with their floats
        assert bundle.h1dot == sobolev_norm(s, 1.0)
        assert bundle.hm1dot == sobolev_norm(s, -1.0)

    def test_smoothed_inverse_k2_is_a_shared_read_only_table(self):
        table = norms._smoothed_inverse_k2(16, 1.5)
        assert norms._smoothed_inverse_k2.cache_info().maxsize == 4
        assert norms._smoothed_inverse_k2(16, 1.5) is table
        assert table[0, 0] == 0.0
        with pytest.raises(ValueError):
            table[1, 1] = 0.0

    def test_grad_symbols_and_sobolev_weights_are_shared_read_only_tables(self):
        symbols = norms._grad_symbols(16)
        weight = norms._sobolev_weight(16, -1.0)
        assert norms._grad_symbols.cache_info().maxsize == 4
        assert norms._sobolev_weight.cache_info().maxsize == 4
        assert norms._grad_symbols(16) is symbols
        assert norms._sobolev_weight(16, -1.0) is weight
        g = Grid(16)
        for table, expected in zip(symbols, (-g.kx * g.ky, -g.ky * g.ky, g.kx * g.kx)):
            assert np.array_equal(np.broadcast_to(table, expected.shape), expected)
        assert weight[0, 0] == 1.0
        for table in (*symbols, weight):
            with pytest.raises(ValueError):
                table[1, 1] = 0.0

    def test_zero_field_bundle(self):
        g = Grid(16)
        s = SpectralField(g, np.zeros((16, 9), dtype=complex))
        bundle = compute_norm_bundle(s, 1.5, p_max=8)
        assert bundle.l2 == 0.0
        assert bundle.sup_p_ratio == 0.0
        assert bundle.grad_u_sup == 0.0
        assert bundle.energy_gamma == 0.0


class TestHolderStop:
    """The early-stopped sup over p is the full sweep's maximum, as a float."""

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.sampled_from([32, 64, 128]),
        seed=st.integers(0, 10_000),
        band=st.integers(1, 42),
        scale=st.floats(1e-3, 1e3),
        p_max=st.integers(2, 64),
        p_keep=st.integers(2, 8),
    )
    def test_random_band_fields(self, n, seed, band, scale, p_max, p_keep):
        g = Grid(n)
        half = random_band_half(g, np.random.default_rng(seed), min(band, n // 3))
        s = SpectralField(g, scale * half)
        f = dft_inverse(s)
        full = _full_sup(f, p_max)
        lp, best = sup_over_p(f, p_max, p_keep)
        assert best == full
        assert lp == lp_norm_map(f, range(2, max(lp) + 1))
        assert set(range(2, p_keep + 1)) <= lp.keys()
        assert sup_over_p(f, p_max)[1] == full
        if p_max >= 8:  # the solver's lower bound on p_max
            assert compute_norm_bundle(s, 1.5, p_max).sup_p_ratio == full

    def test_zero_field(self):
        f = RealField(Grid(32), np.zeros((32, 32)))
        assert sup_over_p(f, 64)[1] == _full_sup(f, 64) == 0.0

    @pytest.mark.parametrize("p_keep", [2, 8])
    def test_zero_field_map_stops_at_p_keep(self, p_keep):
        # every norm is 0, so the maximum is 0 at p = 2 and no p_max makes
        # the map longer than p = 2..p_keep
        f = RealField(Grid(32), np.zeros((32, 32)))
        lp, best = sup_over_p(f, 10**6, p_keep)
        assert len(lp) == p_keep - 1
        assert lp == dict.fromkeys(range(2, p_keep + 1), 0.0) and best == 0.0

    def test_constant_modulus_field_stops_at_p3(self):
        # |f| = m everywhere attains Holder's bound at every p; the bound on
        # the ratio at p = 3 is below the ratio at 2, so ||f||_3 is never made
        n = 64
        i = np.arange(n)
        f = RealField(Grid(n), 3.0 * (-1.0) ** (i[:, None] + i[None, :]))
        lp, best = sup_over_p(f, 64)
        assert best == _full_sup(f, 64)
        assert lp.keys() == {2}
        # every later norm meets Holder's bound m (4 pi^2)^(1/p)
        for p, norm in power_loop_norms(f, 64).items():
            if p > 2:
                cap = 3.0 * FOUR_PI_SQ ** (1.0 / p)
                assert norm <= cap * (1.0 + 1e-12)
                assert norm >= cap * (1.0 - 1e-12)

    def test_the_stop_spares_a_relative_1e_12(self, monkeypatch):
        # a 4 pi^2 that puts Holder's bound on the ratio at p = 3 a relative
        # ``gap`` below the ratio at p = 2 of a constant-modulus field: the
        # sweep stops at p = 2 only once the gap passes 1e-12
        n = 64
        i = np.arange(n)
        f = RealField(Grid(n), 3.0 * (-1.0) ** (i[:, None] + i[None, :]))
        best = lp_norm(f, 2) / np.sqrt(2)
        for gap, stops in ((0.0, False), (5e-13, False), (5e-12, True)):
            bound = (best / (1.0 + gap) * np.sqrt(3) / 3.0) ** 3
            monkeypatch.setattr(norms, "FOUR_PI_SQ", bound)
            lp, got = sup_over_p(f, 64)
            assert got == best
            assert (lp.keys() == {2}) == stops, gap

    def test_a_nan_bound_never_stops_the_sweep(self):
        values = np.ones((32, 32))
        values[3, 4] = np.nan
        lp, best = sup_over_p(RealField(Grid(32), values), 16)
        assert max(lp) == 16 and np.isnan(best)

    def test_one_point_spike_sweeps_past_its_maximum(self):
        # ||f||_p / sqrt(p) = m dx^(2/p) / sqrt(p) peaks at p = 15 at n = 256,
        # and the bound keeps the sweep going until p = 47
        values = np.zeros((256, 256))
        values[17, 91] = 5.0
        f = RealField(Grid(256), values)
        full = lp_norm_map(f, range(2, 65))
        ratios = [full[p] / np.sqrt(p) for p in full]
        assert 2 + ratios.index(max(ratios)) == 15
        lp, best = sup_over_p(f, 64)
        assert best == max(ratios)
        assert max(lp) == 47

    def test_rejects_p_max_below_two(self):
        with pytest.raises(ValueError, match="p_max must be >= 2"):
            sup_over_p(sine_field(), 1)


# ---------------------------------------------------------------------------
# half-spectrum path against a full-lattice reference
# ---------------------------------------------------------------------------

def _ref_grad_u_sup(s, gamma):
    u1, u2 = velocity_spectral(s, gamma)
    return max(
        float(np.max(np.abs(full_inverse(deriv).values)))
        for comp in (u1, u2)
        for deriv in gradient(comp)
    )


def _ref_spectral_sum(s, weight):
    dens = weight * np.abs(s.coeffs) ** 2
    dens[0, 0] = 0.0
    return FOUR_PI_SQ * float(np.sum(dens))


def _ref_sobolev(s, order):
    kmod = lattice(s.grid.n)[3]
    kmod[0, 0] = 1.0
    return np.sqrt(_ref_spectral_sum(s, kmod ** (2.0 * order)))


def _ref_energy(s, gamma):
    _, _, k2, kmod = lattice(s.grid.n)
    k2[0, 0] = 1.0
    return _ref_spectral_sum(s, tgamma_eval(kmod, gamma) / k2)


def _nyquist_field(n, seed, disc):
    """Random zero-mean Hermitian field with a populated Nyquist row and
    column, as (rfft half, full lattice).

    disc=False fills every mode.  disc=True fills |k| <= n/2 plus the corner
    (n/2, n/2): the Nyquist entries at which every component of grad u is
    itself a real field on the lattice, as the full-lattice reference needs.
    """
    g = Grid(n)
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    if disc:
        mask = lattice(n)[3] <= n // 2
        mask[n // 2, n // 2] = True
        z = np.where(mask, z, 0.0)
    coeffs = hermitian_part(z)
    coeffs[0, 0] = 0.0
    assert np.all(coeffs[n // 2, [0, n // 2]] != 0)
    assert np.all(coeffs[[0, n // 2], n // 2] != 0)
    full = FullField(g, coeffs)
    return to_half(full), full


HALF_CASES = [(n, gamma) for n in (16, 64) for gamma in (0.0, 1.5)]
RTOL = 1e-13


class TestHalfSpectrumOracle:
    @pytest.mark.parametrize("n, gamma", HALF_CASES)
    @pytest.mark.parametrize("disc", [False, True])
    def test_plancherel_sums(self, n, gamma, disc):
        s, full = _nyquist_field(n, 21, disc)
        for order in (-1.0, 0.0, 1.0):
            assert sobolev_norm(s, order) == pytest.approx(
                _ref_sobolev(full, order), rel=RTOL
            )
        assert generalized_energy(s, gamma) == pytest.approx(
            _ref_energy(full, gamma), rel=RTOL
        )

    @pytest.mark.parametrize("n, gamma", HALF_CASES)
    def test_grad_u_sup(self, n, gamma):
        s, full = _nyquist_field(n, 22, disc=True)
        assert grad_u_sup(s, gamma) == pytest.approx(
            _ref_grad_u_sup(full, gamma), rel=RTOL
        )

    @pytest.mark.parametrize("n, gamma", HALF_CASES)
    def test_bundle(self, n, gamma):
        s, full = _nyquist_field(n, 23, disc=True)
        bundle = compute_norm_bundle(s, gamma, p_max=16)
        lp = lp_norm_map(full_inverse(full), range(2, 17))
        assert bundle.lp.keys() == set(range(2, 9))
        for p in bundle.lp:
            assert bundle.lp[p] == pytest.approx(lp[p], rel=RTOL)
        assert bundle.l2 == pytest.approx(lp[2], rel=RTOL)
        assert bundle.sup_p_ratio == pytest.approx(
            max(lp[p] / np.sqrt(p) for p in lp), rel=RTOL
        )
        assert bundle.sup_p_ratio == _full_sup(dft_inverse(s), 16)
        assert bundle.h1dot == pytest.approx(_ref_sobolev(full, 1.0), rel=RTOL)
        assert bundle.hm1dot == pytest.approx(_ref_sobolev(full, -1.0), rel=RTOL)
        assert bundle.grad_u_sup == pytest.approx(
            _ref_grad_u_sup(full, gamma), rel=RTOL
        )
        assert bundle.energy_gamma == pytest.approx(
            _ref_energy(full, gamma), rel=RTOL
        )
