import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import direct_rhs, scipy_rhs

from logeuler import solver
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
from logeuler.norms import compute_norm_bundle
from logeuler.spectral import (
    Grid,
    SpectralField,
    dealias,
    dft_inverse,
    half_spectrum_l2,
    half_spectrum_weights,
    project_zero_mean,
)


def l2_of(field: SpectralField) -> float:
    return half_spectrum_l2(field.coeffs)


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
        phys = dft_inverse(f).values
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
            {"gamma": math.nan},
            {"gamma": math.inf},
            {"t_max": math.inf},  # a run would never end; only constructed
            {"ic": {"band": -3}},
            # run() would dealias the mode away, leaving a zero field
            {"n": 32, "ic": {"kind": "single_mode", "mode": (12, 0)}},
        ],
    )
    def test_invalid_configs(self, kwargs):
        with pytest.raises(ValueError):
            ic = InitialConditionSpec(**kwargs.get("ic", {}))
            SolverConfig(**{**kwargs, "ic": ic})

    def test_single_mode_on_the_dealias_band_edge_accepted(self):
        cfg = SolverConfig(n=32, ic=InitialConditionSpec(kind="single_mode",
                                                         mode=(10, -10)))
        assert cfg.ic.mode == (10, -10)


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
        c = np.zeros((16, 9), dtype=complex)
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
        solver._velocity.cache_clear()
        solver._truncation.cache_clear()
        f = make_ic(InitialConditionSpec(kind="random_band", band=4, seed=2), Grid(32))
        first = rhs(f, 0.0, "dealias")
        for gamma in (0.5, 1.0, 1.5, 2.0, 2.5, 3.0):
            rhs(f, gamma, "dealias")
        velocities = solver._velocity.cache_info()
        assert velocities.maxsize == 4 and velocities.currsize == 4
        assert solver._truncation.cache_info().maxsize == 4
        # one truncation part serves every gamma
        assert solver._truncation.cache_info().currsize == 1
        assert solver._truncation.cache_info().misses == 1
        # the evicted gamma = 0 velocity part is rebuilt with identical arrays
        again = rhs(f, 0.0, "dealias")
        assert solver._velocity.cache_info().misses == velocities.misses + 1
        assert np.array_equal(again.coeffs, first.coeffs)


class TestRhsOracles:
    """Structural properties of the fast tendency."""

    @pytest.mark.parametrize("mollify, mollify_n", [("auto", 4), ("dealias", None)])
    @pytest.mark.parametrize("gamma", [0.0, 1.5])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_direct_summation(self, mollify, mollify_n, gamma, seed):
        g = Grid(16)
        omega = make_ic(InitialConditionSpec(kind="random_band", band=5, seed=seed,
                                             amplitude=3.0), g)
        slow = direct_rhs(omega.coeffs, gamma, mollify_n)[:, :9]
        fast = rhs(omega, gamma, mollify).coeffs
        assert np.max(np.abs(slow)) > 1e-3
        assert np.max(np.abs(fast - slow)) < 1e-13 * np.max(np.abs(slow))

    @pytest.mark.parametrize("n", [16, 32, 64])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_skew_symmetric_in_dealias_mode(self, n, seed):
        # <omega, rhs(omega)> = 0: the 2/3-rule tendency conserves L2 exactly
        g = Grid(n)
        omega = make_ic(InitialConditionSpec(kind="random_band", band=n // 3,
                                             seed=seed), g)
        h = omega.coeffs
        r = rhs(omega, 1.5, "dealias").coeffs
        w = half_spectrum_weights(n)
        inner = float(np.sum(w * (h.conj() * r).real))
        norm_h = math.sqrt(float(np.sum(w * np.abs(h) ** 2)))
        norm_r = math.sqrt(float(np.sum(w * np.abs(r) ** 2)))
        assert norm_r > 0.0
        assert abs(inner) / (norm_h * norm_r) < 1e-13

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        n=st.sampled_from([16, 32]),
        amplitude=st.floats(0.01, 100.0),
        mollify=st.sampled_from(["auto", "dealias"]),
        dt_scale=st.floats(0.01, 1.0),
    )
    def test_step_keeps_the_mean_exactly_zero(self, seed, n, amplitude, mollify,
                                              dt_scale):
        g = Grid(n)
        omega = make_ic(InitialConditionSpec(kind="random_band", seed=seed,
                                             amplitude=amplitude), g)
        cfg = SolverConfig(n=n, gamma=1.5, mollify=mollify)
        dt = dt_scale * cfl_dt(omega, 1.5, 0.5, g)
        state = step_rk4(SolverState(0.0, omega, 0), dt, cfg)
        assert state.omega.coeffs[0, 0] == 0.0


class TestTransformPlanPath:
    """The solver's plan-based transforms and buffers against the allocating
    scipy.fft computation, bit for bit."""

    @pytest.mark.parametrize("mollify", ["auto", "dealias"])
    @pytest.mark.parametrize("n", [64, 128])
    def test_rhs_equals_scipy_reference(self, mollify, n):
        g = Grid(n)
        omega = make_ic(InitialConditionSpec(kind="random_band", band=n // 4, seed=7,
                                             amplitude=5.0), g)
        mollify_n = SolverConfig(n=n, mollify=mollify).mollify_n
        assert np.array_equal(rhs(omega, 1.5, mollify).coeffs,
                              scipy_rhs(omega.coeffs, 1.5, mollify_n))

    @pytest.mark.parametrize("mollify, mollify_n", [("auto", 16), ("dealias", None)])
    def test_steps_equal_scipy_reference(self, mollify, mollify_n):
        g = Grid(64)
        cfg = SolverConfig(n=64, gamma=1.5, mollify=mollify)
        h = make_ic(InitialConditionSpec(kind="random_band", band=12, seed=8,
                                         amplitude=5.0), g).coeffs
        state = SolverState(0.0, SpectralField(g, h), 0)
        dt = 0.01
        for _ in range(3):
            k1 = scipy_rhs(h, 1.5, mollify_n)
            k2 = scipy_rhs(h + (0.5 * dt) * k1, 1.5, mollify_n)
            k3 = scipy_rhs(h + (0.5 * dt) * k2, 1.5, mollify_n)
            k4 = scipy_rhs(h + dt * k3, 1.5, mollify_n)
            h = h + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            h[0, 0] = 0.0
            state = step_rk4(state, dt, cfg)
            assert np.array_equal(state.omega.coeffs, h)

    def test_returned_states_own_their_arrays(self):
        g = Grid(32)
        cfg = SolverConfig(n=32)
        f = make_ic(InitialConditionSpec(kind="random_band", band=4, seed=1), g)
        a = step_rk4(SolverState(0.0, f, 0), 0.01, cfg)
        b = step_rk4(a, 0.01, cfg)
        c = advance(b, cfg, 0.01, 2)
        d = advance(c, cfg, 0.01, 3)
        arrays = [f.coeffs, a.omega.coeffs, b.omega.coeffs, c.omega.coeffs,
                  d.omega.coeffs]
        for i, x in enumerate(arrays):
            for y in arrays[i + 1:]:
                assert not np.shares_memory(x, y)
        out = rhs(f, 1.5)
        assert not np.shares_memory(out.coeffs, rhs(a.omega, 1.5).coeffs)
        snaps = run(SolverConfig(
            n=32, t_max=0.2, snapshot_interval=1,
            ic=InitialConditionSpec(kind="random_band", amplitude=20.0),
        )).snapshots
        assert len(snaps) > 2
        for i, x in enumerate(snaps):
            for y in snaps[i + 1:]:
                assert not np.shares_memory(x.values, y.values)

    @pytest.mark.parametrize("mollify", ["auto", "dealias"])
    def test_advance_allocates_at_most_four_half_arrays(self, mollify):
        # the stage sums, tendencies and transforms reuse buffers; what
        # remains is the returned copy and small temporaries
        n = 128
        g = Grid(n)
        cfg = SolverConfig(n=n, gamma=1.5, mollify=mollify)
        state = SolverState(0.0, make_ic(InitialConditionSpec(seed=3), g), 0)
        state = advance(state, cfg, 1e-3, 1)  # warm-up: buffers and fft plans
        tracemalloc.start()
        try:
            advance(state, cfg, 1e-3, 10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * state.omega.coeffs.nbytes


class TestCflDt:
    def test_single_mode_closed_form(self):
        g = Grid(256)
        f = make_ic(InitialConditionSpec(kind="single_mode"), g)
        dt = cfl_dt(f, 0.0, 0.5, g)
        assert dt == pytest.approx(0.5 * (2 * np.pi / 256), rel=1e-12)

    def test_zero_field_guard(self):
        g = Grid(64)
        f = SpectralField(g, np.zeros((64, 33), dtype=complex))
        dt = cfl_dt(f, 1.5, 0.5, g)
        assert dt == pytest.approx(0.5 * g.dx / 1e-12, rel=1e-12)

    def test_shares_the_velocity_table_with_run(self):
        solver._velocity.cache_clear()
        solver._truncation.cache_clear()
        g = Grid(32)
        f = make_ic(InitialConditionSpec(kind="random_band", band=4, seed=1), g)
        cfl_dt(f, 1.25, 0.5, g)
        assert solver._velocity.cache_info().currsize == 1
        # no dealias tables, no RK4 buffers
        assert solver._truncation.cache_info().currsize == 0
        table = solver._velocity(32, 1.25)
        run(SolverConfig(n=32, gamma=1.25, t_max=0.01, mollify="auto"))
        assert solver._velocity.cache_info().misses == 1
        assert solver._velocity(32, 1.25) is table
        assert solver._truncation.cache_info().currsize == 1
        solver._truncation(32, 8)
        assert solver._truncation.cache_info().misses == 1

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
        state = SolverState(0.0, SpectralField(g, np.zeros((32, 17), complex)), 0)
        state = step_rk4(state, 0.1, cfg)
        assert np.max(np.abs(state.omega.coeffs)) == 0.0

    def test_rejects_bad_dt(self):
        g = Grid(32)
        cfg = SolverConfig(n=32)
        state = SolverState(0.0, SpectralField(g, np.zeros((32, 17), complex)), 0)
        with pytest.raises(ValueError):
            step_rk4(state, 0.0, cfg)

    @pytest.mark.filterwarnings("ignore:overflow")
    @pytest.mark.filterwarnings("ignore:invalid value")
    def test_blowup_detected(self):
        g = Grid(32)
        cfg = SolverConfig(n=32)
        c = np.zeros((32, 17), dtype=complex)
        # two interacting mode pairs at 1e200: the advection product overflows
        c[1, 0] = c[-1, 0] = 1e200
        c[0, 2] = 1e200  # its partner (0, -2) is implied by the rfft half
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
        e1 = half_spectrum_l2(sols[1] - sols[2])
        e2 = half_spectrum_l2(sols[2] - sols[4])
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
            ic=InitialConditionSpec(kind="random_band", band=8, seed=4),
        )
        result = run(cfg)
        times = [rec.t for rec in result.records]
        assert all(b > a for a, b in zip(times, times[1:]))
        assert times[0] == 0.0
        assert times[-1] == pytest.approx(0.3, abs=1e-12)

    def test_conservation_short_run(self):
        cfg = SolverConfig(
            n=64, gamma=1.5, t_max=0.5, cfl=0.3, mollify="dealias",
            diag_interval=1,
            ic=InitialConditionSpec(kind="random_band", band=8, seed=1),
        )
        result = run(cfg)
        l2s = [rec.norms.l2 for rec in result.records]
        energies = [rec.norms.energy_gamma for rec in result.records]
        assert (max(l2s) - min(l2s)) / l2s[0] < 1e-10
        assert (max(energies) - min(energies)) / energies[0] < 1e-10

    def test_seed_determinism(self):
        cfg = SolverConfig(
            n=32, t_max=0.2, diag_interval=1,
            ic=InitialConditionSpec(kind="random_band", band=4, seed=11),
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

    @pytest.mark.parametrize("mollify", ["auto", "dealias"])
    def test_diag_interval_leaves_trajectory_bitwise_unchanged(self, mollify):
        # a record hands its velocity and RHS to the next step as RK4's first
        # stage; recording every step or every other step must not change
        # a single bit of the trajectory or of the records
        runs = [
            run(SolverConfig(
                n=32, gamma=1.5, t_max=0.8, cfl=0.3, mollify=mollify,
                ic=InitialConditionSpec(kind="random_band", amplitude=20.0, seed=5),
                diag_interval=interval, snapshot_interval=3,
            ))
            for interval in (1, 2)
        ]
        every = {rec.t: rec for rec in runs[0].records}
        assert len(runs[0].records) > 6
        assert len(runs[1].records) > 3
        for rec in runs[1].records:
            ref = every[rec.t]
            assert rec.dt_used == ref.dt_used
            assert rec.norms == ref.norms
            assert rec.aliasing_energy_discarded == ref.aliasing_energy_discarded
        assert runs[0].records[-1].t == runs[1].records[-1].t
        # the first record is the public bundle of the dealiased initial
        # field, to the last bit
        ic = make_ic(InitialConditionSpec(kind="random_band", amplitude=20.0,
                                          seed=5), Grid(32))
        omega0 = dealias(project_zero_mean(ic))
        assert runs[0].records[0].norms == compute_norm_bundle(omega0, 1.5, 64)
        snaps = [r.snapshots for r in runs]
        assert [s.step_count for s in snaps[0]] == [s.step_count for s in snaps[1]]
        for a, b in zip(*snaps):
            assert a.time == b.time
            assert np.array_equal(a.values, b.values)

    @staticmethod
    def _cadence_run(diag_interval, snapshot_interval):
        # 14 adaptive steps to t_max
        return run(SolverConfig(
            n=32, t_max=0.6, cfl=0.3, diag_interval=diag_interval,
            snapshot_interval=snapshot_interval,
            ic=InitialConditionSpec(kind="random_band", amplitude=20.0),
        ))

    @pytest.mark.parametrize("interval", [1, 2, 3, 5, 14, 20])
    def test_records_and_snapshots_follow_one_rule(self, interval):
        result = self._cadence_run(interval, interval)
        assert [r.t for r in result.records] == [s.time for s in result.snapshots]

    def test_snapshot_steps_are_the_cadence_plus_the_final_step_once(self):
        final = self._cadence_run(1, 1).snapshots[-1].step_count
        on = [d for d in range(2, final) if final % d == 0]
        off = [d for d in range(2, final) if final % d != 0]
        assert on and off
        for d in (*on, *off[:3], final + 3):
            steps = [s.step_count for s in self._cadence_run(10, d).snapshots]
            expected = list(range(0, final + 1, d))
            if final % d != 0:
                expected.append(final)
            assert steps == expected, d

    @pytest.mark.filterwarnings("ignore:overflow")
    @pytest.mark.filterwarnings("ignore:invalid value")
    def test_blown_up_run_keeps_nothing_from_the_blowup_on(self):
        result = run(SolverConfig(
            n=32, t_max=1.0, diag_interval=1, snapshot_interval=1,
            ic=InitialConditionSpec(kind="random_band", band=4, amplitude=1e160),
        ))
        assert result.blown_up
        assert result.records
        assert all(r.t < result.blowup_t for r in result.records)
        assert all(s.step_count < result.blowup_step for s in result.snapshots)

    def test_ic_seed_is_the_run_seed(self):
        def h1dot(seed):
            cfg = SolverConfig(n=32, t_max=0.05, diag_interval=1,
                               ic=InitialConditionSpec(kind="random_band", seed=seed))
            return [rec.norms.h1dot for rec in run(cfg).records]

        assert h1dot(5) != h1dot(0)
        assert h1dot(5) == h1dot(5)

    @pytest.mark.filterwarnings("ignore:overflow")
    @pytest.mark.filterwarnings("ignore:invalid value")
    def test_blowup_marks_partial_result(self):
        cfg = SolverConfig(
            n=32, t_max=1.0, diag_interval=1,
            ic=InitialConditionSpec(kind="random_band", band=4, amplitude=1e160,
                                    seed=2),
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
            ic=InitialConditionSpec(kind="random_band", band=8, amplitude=10.0,
                                    seed=6),
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
            ic=InitialConditionSpec(kind="random_band", band=8, amplitude=10.0,
                                    seed=6),
        )
        records = self._records(cfg)
        tiny_ceiling = gronwall_envelope(records, records[0].norms, ceiling=1e-30)
        assert tiny_ceiling.violated or tiny_ceiling.c_a == 0.0
