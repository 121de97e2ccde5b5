import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import (
    FullField,
    apply_multiplier,
    biot_savart,
    full_forward,
    full_inverse,
    hermitian_part,
    identity_symbol,
    inv_laplacian,
    lattice,
    lp_project,
    perp_gradient,
    tgamma_symbol,
)

from logeuler.multipliers import (
    _symbol_partial,
    mtilde,
    phi_eval,
    tgamma_eval,
    verify_symbol_bound,
)
from logeuler.spectral import Grid, RealField

# 1/log^{3/2}(11) evaluated at 40 digits
TGAMMA_11 = 0.2693113659868460808208717851341425549658


def random_band_spectral(grid, seed, band):
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((grid.n, grid.n)) + 1j * rng.standard_normal(
        (grid.n, grid.n)
    )
    kmod = lattice(grid.n)[3]
    mask = (kmod > 0) & (kmod <= band)
    return FullField(grid, hermitian_part(np.where(mask, z, 0.0)))


class TestTgamma:
    def test_gamma_zero_is_identity(self):
        assert tgamma_eval(1.0, 0.0) == 1.0
        assert tgamma_eval(123.0, 0.0) == 1.0

    def test_reference_value(self):
        assert tgamma_eval(1.0, 1.5) == pytest.approx(TGAMMA_11, rel=1e-14)

    def test_monotone_decreasing(self):
        assert tgamma_eval(100.0, 1.5) < tgamma_eval(1.0, 1.5)
        r = np.linspace(0.0, 500.0, 200)
        vals = tgamma_eval(r, 1.5)
        assert np.all(np.diff(vals) < 0)
        assert np.all(vals > 0) and np.all(vals <= 1)

    def test_negative_gamma_rejected(self):
        with pytest.raises(ValueError):
            tgamma_eval(1.0, -0.5)
        with pytest.raises(ValueError):
            tgamma_symbol(-1.0)


class TestPhi:
    def test_plateaus(self):
        assert phi_eval(0.5) == 1.0
        assert phi_eval(1.0) == 1.0
        assert phi_eval(2.0) == 0.0
        assert phi_eval(3.0) == 0.0

    def test_midpoint_symmetry(self):
        assert phi_eval(1.5) == pytest.approx(0.5, abs=1e-15)

    @settings(max_examples=50, deadline=None)
    @given(
        a=st.floats(1.0, 2.0, allow_nan=False),
        b=st.floats(1.0, 2.0, allow_nan=False),
    )
    def test_monotone_on_bridge(self, a, b):
        lo, hi = min(a, b), max(a, b)
        assert phi_eval(lo) >= phi_eval(hi)

    def test_vectorized_range(self):
        vals = phi_eval(np.linspace(0.0, 3.0, 301))
        assert np.all((0.0 <= vals) & (vals <= 1.0))


class TestApplyMultiplier:
    def test_scales_single_mode(self):
        g = Grid(16)
        x1, _ = g.mesh()
        s = full_forward(RealField(g, np.sin(x1)))
        out = full_inverse(apply_multiplier(s, tgamma_symbol(1.5)))
        assert np.max(np.abs(out.values - TGAMMA_11 * np.sin(x1))) < 1e-13

    def test_identity_symbol(self):
        s = random_band_spectral(Grid(32), 4, 8)
        out = apply_multiplier(s, identity_symbol())
        assert np.array_equal(out.coeffs, s.coeffs)

    def test_twice_equals_squared_symbol(self):
        s = random_band_spectral(Grid(32), 5, 8)
        sym = tgamma_symbol(1.5)
        twice = apply_multiplier(apply_multiplier(s, sym), sym)
        squared = s.coeffs * tgamma_eval(lattice(32)[3], 3.0)
        assert np.max(np.abs(twice.coeffs - squared)) < 1e-14

    def test_preserves_real_fields(self):
        s = random_band_spectral(Grid(32), 6, 8)
        out = apply_multiplier(s, tgamma_symbol(0.7))
        full_inverse(out)  # raises on broken Hermitian symmetry


class TestLpProject:
    def test_non_dyadic_rejected(self):
        s = random_band_spectral(Grid(16), 0, 4)
        with pytest.raises(ValueError):
            lp_project(s, 3, "at")

    def test_mode_on_shell_unchanged(self):
        g = Grid(32)
        c = np.zeros((32, 32), dtype=complex)
        c[4, 0] = c[-4, 0] = 0.5  # |k| = N exactly
        out = lp_project(FullField(g, c), 4, "at")
        assert out.coeffs[4, 0] == pytest.approx(0.5)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_leq_plus_gt_partition(self, seed):
        s = random_band_spectral(Grid(32), seed, 10)
        low = lp_project(s, 4, "leq")
        high = lp_project(s, 4, "gt")
        assert np.max(np.abs(low.coeffs + high.coeffs - s.coeffs)) < 1e-15

    def test_separated_blocks_annihilate(self):
        s = random_band_spectral(Grid(64), 1, 20)
        block = lp_project(lp_project(s, 16, "at"), 2, "at")  # N = 8M
        assert np.max(np.abs(block.coeffs)) == 0.0

    def test_telescoping_partition(self):
        s = random_band_spectral(Grid(64), 2, 20)
        total = lp_project(s, 2, "leq").coeffs.copy()
        n_block = 4
        while n_block <= 32:
            total = total + lp_project(s, n_block, "at").coeffs
            n_block *= 2
        expected = lp_project(s, 32, "leq").coeffs
        assert np.max(np.abs(total - expected)) < 1e-12


class TestBiotSavart:
    def test_single_mode_closed_form(self):
        g = Grid(32)
        x1, _ = g.mesh()
        s = full_forward(RealField(g, np.sin(x1)))
        u1, u2 = biot_savart(s, 1.5)
        assert np.max(np.abs(u1.values)) < 1e-14
        assert np.max(np.abs(u2.values + TGAMMA_11 * np.cos(x1))) < 1e-13

    def test_gamma_zero_is_classical(self):
        s = random_band_spectral(Grid(32), 7, 8)
        u1, u2 = biot_savart(s, 0.0)
        v1, v2 = perp_gradient(inv_laplacian(s))
        assert np.max(np.abs(u1.values - full_inverse(v1).values)) < 1e-13
        assert np.max(np.abs(u2.values - full_inverse(v2).values)) < 1e-13

    def test_divergence_free(self):
        g = Grid(64)
        s = random_band_spectral(g, 8, 16)
        u1, u2 = biot_savart(s, 1.5)
        kx, ky, _, _ = lattice(64)
        div = 1j * kx * full_forward(u1).coeffs + 1j * ky * full_forward(u2).coeffs
        assert np.max(np.abs(div)) < 1e-12

    def test_rejects_nonzero_mean(self):
        g = Grid(16)
        s = full_forward(RealField(g, 1.0 + np.zeros((16, 16))))
        with pytest.raises(ValueError):
            biot_savart(s, 1.5)


class TestSymbolBound:
    def test_order_zero_at_most_one(self):
        for j in (1, 4, 8):
            report = verify_symbol_bound(1.5, 2.0**j)
            assert report.max_ratio[0] <= 1.0 + 1e-12

    def test_finite_difference_agreement(self):
        for n_dyadic in (2.0, 64.0, 2.0**15):
            report = verify_symbol_bound(1.5, n_dyadic)
            assert report.fd_rel_error < 1e-6

    def test_uniformly_bounded_over_dyadic_range(self):
        # caps frozen from a direct sweep over N = 2..2^20 (observed maxima
        # 1.0 / 2.45 / 26.4 / 487, attained near N = 2^9)
        caps = {0: 1.0 + 1e-12, 1: 3.0, 2: 32.0, 3: 550.0}
        for j in range(1, 21):
            report = verify_symbol_bound(1.5, 2.0**j)
            for order, cap in caps.items():
                assert report.max_ratio[order] <= cap, (j, order)

    def test_block_bound_at_q2_via_plancherel(self):
        # ||T P_N f||_2 <= sup_annulus(m) ||P_N f||_2 <= mtilde(N) ||P_N f||_2
        g = Grid(64)
        s = random_band_spectral(g, 9, 20)
        for n_block in (2.0, 4.0, 8.0, 16.0):
            block = lp_project(s, n_block, "at")
            tgam = apply_multiplier(block, tgamma_symbol(1.5))
            lhs = np.sqrt(np.sum(np.abs(tgam.coeffs) ** 2))
            rhs = np.sqrt(np.sum(np.abs(block.coeffs) ** 2))
            if rhs == 0.0:
                continue
            sup_annulus = tgamma_eval(n_block / 2.0, 1.5)
            assert lhs <= sup_annulus * rhs * (1 + 1e-12)
            assert sup_annulus <= mtilde(n_block, 1.5)

    def test_rejects_orders_above_three(self):
        with pytest.raises(ValueError):
            verify_symbol_bound(1.5, 4.0, alpha_max=4)

    def test_closed_form_partials_match_sympy(self):
        sp = pytest.importorskip("sympy")
        x, y, g = sp.symbols("x y g", real=True)
        m = sp.log(sp.sqrt(x**2 + y**2) + 10) ** (-g)
        exact = {
            (ax, order - ax): sp.lambdify(
                (x, y, g), sp.diff(m, x, ax, y, order - ax), "numpy")
            for order in range(4) for ax in range(order + 1)
        }
        angles = np.arange(16) * (2.0 * np.pi / 16)
        for j in (1, 5, 10, 15, 20):
            radii = np.geomspace(2.0**j / 8.0, 8.0 * 2.0**j, 64)
            xs = np.outer(radii, np.cos(angles)).ravel()
            ys = np.outer(radii, np.sin(angles)).ravel()
            for gamma in (0.0, 0.5, 1.5, 3.0):
                for order in range(4):
                    alphas = [(ax, order - ax) for ax in range(order + 1)]
                    ref = [np.broadcast_to(exact[a](xs, ys, gamma), xs.shape)
                           for a in alphas]
                    ours = [_symbol_partial(xs, ys, gamma, *a) for a in alphas]
                    # relative to the largest partial of this order per point
                    scale = np.max(np.abs(ref), axis=0)
                    err = np.max(np.abs(np.subtract(ours, ref)), axis=0)
                    assert np.all(err <= 1e-12 * scale), (j, gamma, order)


def test_symbol_bound_check_does_not_import_sympy():
    script = (
        "import sys\n"
        "from logeuler.multipliers import verify_symbol_bound\n"
        "verify_symbol_bound(1.5, 16.0)\n"
        "print('sympy' in sys.modules)\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]
