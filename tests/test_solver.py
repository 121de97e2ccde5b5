import math

import numpy as np
import pytest

from logeuler import solver
from logeuler.norms import FOUR_PI_SQ
from logeuler.solver import (
    BlowUpError,
    InitialConditionSpec,
    SolverConfig,
    SolverState,
    advance,
    cfl_dt,
    gronwall_envelope,
    make_ic,
    rhs,
    run,
    step_rk4,
)
from logeuler.spectral import Grid, SpectralField, dft_inverse


def l2_of(field: SpectralField) -> float:
    return math.sqrt(FOUR_PI_SQ * float(np.sum(np.abs(field.coeffs) ** 2)))


class TestMakeIC:
    def test_single_mode_is_sine(self):
        g = Grid(64)
        x1, _ = g.mesh()
        f = make_ic(InitialConditionSpec(kind="single_mode", mode=(1, 0)), g)
        assert np.max(np.abs(dft_inverse(f).values - np.sin(x1))) < 1e-14

    def test_shell_is_product_of_sines(self):
        g = Grid(64)
        x1, x2 = g.mesh()
        f = make_ic(InitialConditionSpec(kind="shell"), g)
        assert np.max(np.abs(dft_inverse(f).values - np.sin(x1) * np.sin(x2))) < 1e-14

    def test_random_band_deterministic(self):
        g = Grid(64)
        spec = InitialConditionSpec(kind="random_band", seed=7)
        a = make_ic(spec, g)
        b = make_ic(spec, g)
        assert np.array_equal(a.coeffs, b.coeffs)

    def test_random_band_normalized(self):
        g = Grid(128)
        f = make_ic(InitialConditionSpec(kind="random_band", seed=3), g)
        assert l2_of(f) == pytest.approx(1.0, rel=1e-12)
        scaled = make_ic(
            InitialConditionSpec(kind="random_band", seed=3, amplitude=5.0), g
        )
        assert l2_of(scaled) == pytest.approx(5.0, rel=1e-12)

    def test_random_band_limited(self):
        g = Grid(64)
        f = make_ic(InitialConditionSpec(kind="random_band", band=4, seed=1), g)
        outside = np.abs(f.coeffs[g.kmod > 4])
        assert np.max(outside) == 0.0

    def test_band_beyond_dealias_rejected(self):
        g = Grid(64)
        with pytest.raises(ValueError):
            make_ic(InitialConditionSpec(kind="random_band", band=30), g)

    def test_vortex_pair_properties(self):
        g = Grid(64)
        f = make_ic(InitialConditionSpec(kind="vortex_pair"), g)
        assert f.coeffs[0, 0] == 0.0
        phys = dft_inverse(f).values  # raises if symmetry broken
        assert np.max(phys) > 0.5 and np.min(phys) < -0.5

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            make_ic(InitialConditionSpec(kind="spiral"), Grid(16))

    @pytest.mark.parametrize(
        "bad",
        [{"amplitude": math.nan}, {"amplitude": math.inf}, {"width": 0.0},
         {"width": -0.4}, {"width": math.nan}, {"separation": math.inf}],
    )
    def test_rejects_nonfinite_or_degenerate_parameters(self, bad):
        with pytest.raises(ValueError):
            InitialConditionSpec(kind="vortex_pair", **bad)


class TestConfig:
    def test_defaults_valid(self):
        cfg = SolverConfig()
        assert cfg.n == 256 and cfg.gamma == 1.5 and cfg.cfl == 0.5
        assert cfg.mollify_n == 64  # largest power of two <= 256/3

    def test_dealias_mode(self):
        assert SolverConfig(mollify="dealias").mollify_n is None

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n": 12},
            {"gamma": -0.1},
            {"t_max": 0.0},
            {"cfl": 1.5},
            {"cfl": 0.0},
            {"mollify": 3},
            {"mollify": 128, "n": 256},  # exceeds n/3
            {"p_max": 4},
            {"diag_interval": 0},
        ],
    )
    def test_invalid_configs(self, kwargs):
        with pytest.raises(ValueError):
            SolverConfig(**kwargs)


class TestRhs:
    @pytest.mark.parametrize("kind", ["single_mode", "shell"])
    @pytest.mark.parametrize("gamma", [0.0, 0.5, 1.5])
    def test_stationary_data(self, kind, gamma):
        g = Grid(64)
        f = make_ic(InitialConditionSpec(kind=kind), g)
        out = rhs(f, gamma)
        assert l2_of(out) < 1e-12

    def test_mean_exactly_zero(self):
        g = Grid(64)
        f = make_ic(InitialConditionSpec(kind="random_band", seed=2), g)
        for mollify in ("auto", "dealias", 16):
            out = rhs(f, 1.5, mollify)
            assert out.coeffs[0, 0] == 0.0

    def test_rejects_nonzero_mean(self):
        g = Grid(16)
        c = np.zeros((16, 16), dtype=complex)
        c[0, 0] = 1.0
        with pytest.raises(ValueError):
            rhs(SpectralField(g, c), 1.5)

    def test_dealias_and_dyadic_agree_on_low_modes(self):
        # both truncations are the identity far below their cutoffs
        g = Grid(128)
        f = make_ic(InitialConditionSpec(kind="random_band", band=4, seed=5), g)
        a = rhs(f, 1.5, "dealias")
        b = rhs(f, 1.5, 32)
        sel = g.kmod <= 8
        assert np.max(np.abs(a.coeffs[sel] - b.coeffs[sel])) < 1e-15

    def test_workspace_cache_stays_bounded(self):
        f = make_ic(InitialConditionSpec(kind="random_band", band=4, seed=2), Grid(32))
        first = rhs(f, 0.0, "dealias")
        for gamma in (0.5, 1.0, 1.5, 2.0, 2.5, 3.0):
            rhs(f, gamma, "dealias")
        assert len(solver._WORKSPACES) <= solver.WORKSPACE_CACHE_SIZE
        assert (32, 3.0, None) in solver._WORKSPACES
        # the evicted gamma = 0 workspace is rebuilt with identical arrays
        assert (32, 0.0, None) not in solver._WORKSPACES
        assert np.array_equal(rhs(f, 0.0, "dealias").coeffs, first.coeffs)


class TestCflDt:
    def test_single_mode_closed_form(self):
        g = Grid(256)
        f = make_ic(InitialConditionSpec(kind="single_mode"), g)
        dt = cfl_dt(f, 0.0, 0.5, g)
        assert dt == pytest.approx(0.5 * (2 * np.pi / 256), rel=1e-12)

    def test_zero_field_guard(self):
        g = Grid(64)
        f = SpectralField(g, np.zeros((64, 64), dtype=complex))
        dt = cfl_dt(f, 1.5, 0.5, g)
        assert dt == pytest.approx(0.5 * g.dx / 1e-12, rel=1e-12)

    def test_smoothing_increases_dt(self):
        g = Grid(64)
        f = make_ic(InitialConditionSpec(kind="single_mode"), g)
        assert cfl_dt(f, 1.5, 0.5, g) > cfl_dt(f, 0.0, 0.5, g)


class TestStepRK4:
    def test_stationary_over_100_steps(self):
        g = Grid(64)
        cfg = SolverConfig(n=64, gamma=1.5, t_max=10.0)
        f = make_ic(InitialConditionSpec(kind="single_mode"), g)
        state = SolverState(0.0, f, 0)
        before = l2_of(f)
        state = advance(state, cfg, 0.05, 100)
        assert abs(l2_of(state.omega) - before) < 1e-10
        assert state.step_count == 100

    def test_zero_field_stays_zero(self):
        g = Grid(32)
        cfg = SolverConfig(n=32)
        state = SolverState(0.0, SpectralField(g, np.zeros((32, 32), complex)), 0)
        state = step_rk4(state, 0.1, cfg)
        assert np.max(np.abs(state.omega.coeffs)) == 0.0

    def test_rejects_bad_dt(self):
        g = Grid(32)
        cfg = SolverConfig(n=32)
        state = SolverState(0.0, SpectralField(g, np.zeros((32, 32), complex)), 0)
        with pytest.raises(ValueError):
            step_rk4(state, 0.0, cfg)

    @pytest.mark.filterwarnings("ignore:overflow")
    @pytest.mark.filterwarnings("ignore:invalid value")
    def test_blowup_detected(self):
        g = Grid(32)
        cfg = SolverConfig(n=32)
        c = np.zeros((32, 32), dtype=complex)
        # two interacting mode pairs at 1e200: the advection product overflows
        c[1, 0] = c[-1, 0] = 1e200
        c[0, 2] = c[0, -2] = 1e200
        state = SolverState(0.0, SpectralField(g, c), 0)
        with pytest.raises(BlowUpError) as err:
            step_rk4(state, 0.1, cfg)
        assert err.value.step_count == 1

    def test_temporal_order_four(self):
        g = Grid(64)
        cfg = SolverConfig(n=64, gamma=1.5, t_max=1.0, mollify="dealias")
        ic = make_ic(
            InitialConditionSpec(kind="random_band", band=8, seed=3, amplitude=20.0),
            g,
        )
        state0 = SolverState(0.0, ic, 0)
        sols = {}
        for div in (1, 2, 4):
            dt = 0.05 / div
            sols[div] = advance(state0, cfg, dt, round(0.4 / dt)).omega.coeffs
        e1 = math.sqrt(FOUR_PI_SQ * np.sum(np.abs(sols[1] - sols[2]) ** 2))
        e2 = math.sqrt(FOUR_PI_SQ * np.sum(np.abs(sols[2] - sols[4]) ** 2))
        slope = math.log2(e1 / e2)
        assert 3.7 <= slope <= 4.3


class TestRun:
    def test_stationary_records_constant(self):
        cfg = SolverConfig(
            n=64, gamma=1.5, t_max=0.5, diag_interval=1,
            ic=InitialConditionSpec(kind="single_mode"),
        )
        result = run(cfg)
        assert not result.blown_up
        first = result.records[0].norms
        for rec in result.records[1:]:
            assert abs(rec.norms.l2 - first.l2) < 1e-8
            assert abs(rec.norms.h1dot - first.h1dot) < 1e-8
        # steady single-mode advection product is identically zero, so the
        # truncation removes nothing
        assert all(rec.aliasing_energy_discarded < 1e-28 for rec in result.records)

    def test_time_column_and_final_time(self):
        cfg = SolverConfig(
            n=64, gamma=1.5, t_max=0.3, diag_interval=1, cfl=0.4,
            ic=InitialConditionSpec(kind="random_band", band=8), seed=4,
        )
        result = run(cfg)
        times = [rec.t for rec in result.records]
        assert all(b > a for a, b in zip(times, times[1:]))
        assert times[0] == 0.0
        assert times[-1] == pytest.approx(0.3, abs=1e-12)

    def test_conservation_short_run(self):
        cfg = SolverConfig(
            n=64, gamma=1.5, t_max=0.5, cfl=0.3, mollify="dealias",
            diag_interval=1, ic=InitialConditionSpec(kind="random_band", band=8),
            seed=1,
        )
        result = run(cfg)
        l2s = [rec.norms.l2 for rec in result.records]
        energies = [rec.norms.energy_gamma for rec in result.records]
        assert (max(l2s) - min(l2s)) / l2s[0] < 1e-10
        assert (max(energies) - min(energies)) / energies[0] < 1e-10

    def test_seed_determinism(self):
        cfg = SolverConfig(
            n=32, t_max=0.2, diag_interval=1,
            ic=InitialConditionSpec(kind="random_band", band=4), seed=11,
        )
        a = run(cfg)
        b = run(cfg)
        for ra, rb in zip(a.records, b.records):
            assert ra.t == rb.t
            assert ra.norms.l2 == rb.norms.l2

    def test_snapshots_cadence(self):
        cfg = SolverConfig(
            n=32, t_max=0.2, diag_interval=1, snapshot_interval=2, cfl=0.1,
            ic=InitialConditionSpec(kind="shell"),
        )
        result = run(cfg)
        steps = [snap.step_count for snap in result.snapshots]
        assert steps[0] == 0
        assert steps == sorted(steps)
        assert all(
            s % 2 == 0 or s == steps[-1] for s in steps
        )

    @pytest.mark.filterwarnings("ignore:overflow")
    @pytest.mark.filterwarnings("ignore:invalid value")
    def test_blowup_marks_partial_result(self):
        cfg = SolverConfig(
            n=32, t_max=1.0, diag_interval=1,
            ic=InitialConditionSpec(kind="random_band", band=4, amplitude=1e160),
            seed=2,
        )
        result = run(cfg)
        assert result.blown_up
        assert result.blowup_step is not None
        assert len(result.records) >= 1


class TestGronwallEnvelope:
    def _records(self, cfg):
        return run(cfg).records

    def test_stationary_constants_vanish(self):
        cfg = SolverConfig(
            n=64, gamma=1.5, t_max=0.5, diag_interval=1,
            ic=InitialConditionSpec(kind="single_mode"),
        )
        records = self._records(cfg)
        report = gronwall_envelope(records, records[0].norms)
        assert report.c_a == pytest.approx(0.0, abs=1e-6)
        assert report.c_b == pytest.approx(0.0, abs=1e-6)
        assert not report.violated

    def test_random_run_finite_constants(self):
        cfg = SolverConfig(
            n=64, gamma=1.5, t_max=0.5, cfl=0.2, diag_interval=1,
            ic=InitialConditionSpec(kind="random_band", band=8, amplitude=10.0),
            seed=6,
        )
        records = self._records(cfg)
        report = gronwall_envelope(records, records[0].norms)
        assert np.isfinite(report.c_a) and np.isfinite(report.c_b)
        assert not report.violated
        assert len(report.ratios_a) == len(records) - 1

    def test_requires_three_records(self):
        cfg = SolverConfig(
            n=32, t_max=0.1, diag_interval=1,
            ic=InitialConditionSpec(kind="shell"),
        )
        records = self._records(cfg)
        with pytest.raises(ValueError):
            gronwall_envelope(records[:2], records[0].norms)

    def test_ceiling_flag(self):
        cfg = SolverConfig(
            n=64, gamma=1.5, t_max=0.5, cfl=0.2, diag_interval=1,
            ic=InitialConditionSpec(kind="random_band", band=8, amplitude=10.0),
            seed=6,
        )
        records = self._records(cfg)
        tiny_ceiling = gronwall_envelope(records, records[0].norms, ceiling=1e-30)
        assert tiny_ceiling.violated or tiny_ceiling.c_a == 0.0
