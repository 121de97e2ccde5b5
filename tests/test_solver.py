import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import direct_rhs, scipy_rhs, serial_run

from logeuler import norms, solver
from logeuler.multipliers import phi_eval, tgamma_eval
from logeuler.runio import records_from_rows
from logeuler.solver import (
    ENVELOPE_CEILING,
    BlowUpError,
    InitialConditionSpec,
    SolverConfig,
    SolverState,
    StallError,
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
    RealField,
    SpectralField,
    dealias,
    dft_forward,
    dft_inverse,
    half_spectrum_l2,
    half_spectrum_weights,
)


def l2_of(field: SpectralField) -> float:
    return half_spectrum_l2(field.coeffs)


def collect(cfg: SolverConfig):
    """The records and snapshots that ``run(cfg)`` hands out, in order."""
    records, snapshots = [], []
    run(cfg, records.append, snapshots.append)
    return records, snapshots


INVALID_CONFIGS = [
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
]


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

    @pytest.mark.parametrize("kwargs", [c for c in INVALID_CONFIGS if "ic" in c])
    def test_rejects_the_ic_specs_solver_config_rejects(self, kwargs):
        # the same rule as SolverConfig: a single mode beyond n/3 used to
        # pass make_ic and be dealiased away by run
        with pytest.raises(ValueError):
            ic = InitialConditionSpec(**kwargs["ic"])
            make_ic(ic, Grid(kwargs.get("n", 256)))

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

    @pytest.mark.parametrize("kwargs", INVALID_CONFIGS)
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
        _, snaps = collect(SolverConfig(
            n=32, t_max=0.2, snapshot_interval=1,
            ic=InitialConditionSpec(kind="random_band", amplitude=20.0),
        ))
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
        # no truncation tables
        assert solver._truncation.cache_info().currsize == 0
        table = solver._velocity(32, 1.25)
        collect(SolverConfig(n=32, gamma=1.25, t_max=0.01, mollify="auto"))
        assert solver._velocity.cache_info().misses == 1
        assert solver._velocity(32, 1.25) is table
        assert solver._truncation.cache_info().currsize == 1
        solver._truncation(32, 8)
        assert solver._truncation.cache_info().misses == 1

    def test_records_share_one_norm_table(self):
        norms._smoothed_inverse_k2.cache_clear()
        ic = InitialConditionSpec(band=4, seed=1, amplitude=20.0)
        records, _ = collect(SolverConfig(n=32, gamma=1.25, t_max=0.2, cfl=0.05,
                                          diag_interval=1, ic=ic))
        assert len(records) > 10
        assert norms._smoothed_inverse_k2.cache_info().misses == 1

    def test_smoothing_increases_dt(self):
        g = Grid(64)
        f = make_ic(InitialConditionSpec(kind="single_mode"), g)
        assert cfl_dt(f, 1.5, 0.5, g) > cfl_dt(f, 0.0, 0.5, g)


def reachable_arrays(obj):
    """Every ndarray reachable from ``obj`` through attributes and tuples."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, (tuple, list)):
        for item in obj:
            yield from reachable_arrays(item)
    elif hasattr(obj, "__dict__"):
        for item in vars(obj).values():
            yield from reachable_arrays(item)


class TestTables:
    """The solver's and the norms' cached tables are plain read-only
    symbols; mutable per-size state lives only in the transform plan."""

    def test_tables_are_the_bare_symbols(self):
        n, gamma, g = 32, 1.5, Grid(32)
        k2 = np.where(g.k2 == 0.0, 1.0, g.k2)
        t = tgamma_eval(g.kmod, gamma)
        u1, u2 = 1j * g.ky * t / k2, -1j * g.kx * t / k2
        u1[0, 0] = u2[0, 0] = 0.0
        vel = solver._velocity(n, gamma)
        assert np.array_equal(vel.u1_mult, u1)
        assert np.array_equal(vel.u2_mult, u2)
        sharp = g.dealias_mask.astype(float)
        smooth = phi_eval(g.kmod / 8.0)
        for mollify_n, inner, outer in ((None, sharp, sharp),
                                        (8, smooth, smooth * g.dealias_mask)):
            trunc = solver._truncation(n, mollify_n)
            assert np.array_equal(trunc.gx_mult, 1j * g.kx * inner)
            assert np.array_equal(trunc.gy_mult, 1j * g.ky * inner)
            assert np.array_equal(trunc.neg_chi, -outer)
            assert np.array_equal(trunc.removed_weight, 1.0 - outer**2)

    def test_cached_tables_are_read_only(self):
        calls = {
            solver._velocity: [(32, 0.0), (32, 1.5)],
            solver._truncation: [(32, None), (32, 8)],
            norms._smoothed_inverse_k2: [(32, 0.0), (32, 1.5)],
            norms._grad_symbols: [(32,)],
            norms._sobolev_weight: [(32, 1.0), (32, -1.0)],
        }
        # a new cache in either module must join this list
        cached = {f for mod in (solver, norms) for f in vars(mod).values()
                  if hasattr(f, "cache_info") and f.__module__ == mod.__name__}
        assert cached == set(calls)
        collect(SolverConfig(n=32, gamma=1.5, t_max=0.05, mollify=8))
        for fn, arg_list in calls.items():
            for args in arg_list:
                arrays = list(reachable_arrays(fn(*args)))
                assert arrays
                assert not any(a.flags.writeable for a in arrays), fn.__name__

    def test_runs_at_one_n_share_the_rk4_buffers(self):
        plan = Grid(32).plan
        ic = InitialConditionSpec(band=4, seed=1, amplitude=20.0)

        def halves():
            return {name: buf for (name, kind), buf in plan._slots.items()
                    if kind is complex}

        collect(SolverConfig(n=32, t_max=0.2, cfl=0.05, mollify="dealias", ic=ic))
        first = halves()
        assert {"k1", "k", "stage", "rk4_a", "rk4_b"} <= set(first)
        collect(SolverConfig(n=32, t_max=0.2, cfl=0.05, mollify=8, ic=ic))
        assert halves().keys() == first.keys()
        assert all(halves()[k] is buf for k, buf in first.items())


class TestSymmetries:
    """The log-modified Biot-Savart law has a radial symbol, so the
    discrete equation commutes with lattice rotations, grid shifts and the
    reflection omega -> -omega(x2, x1) (vorticity is a pseudoscalar), and it
    is reversible: omega(t) -> -omega(-t).  Each case runs 40 ``advance``
    steps at dt = 0.01 from the criterion-4 field (n = 64, gamma = 1.5,
    random_band band 8, seed 3, amplitude 20) both ways round, and compares
    the samples relative to their max.  Measured: rotation 6.4e-16, shift
    6.8e-16, reflection 4.8e-16, reversal 5.0e-11 (RK4's error)."""

    N = 64
    ROUND_OFF = 1e-14  # about 15 times the largest measured, 6.8e-16
    REVERSAL = 5e-10  # 10 times the measured RK4 error, 5.0e-11

    def evolve(self, w):
        g = Grid(self.N)
        cfg = SolverConfig(n=self.N, gamma=1.5, t_max=1e9)
        state = SolverState(0.0, dft_forward(RealField(g, w)), 0)
        return dft_inverse(advance(state, cfg, 0.01, 40).omega).values

    @pytest.fixture(scope="class")
    def trajectory(self):
        ic = make_ic(InitialConditionSpec(kind="random_band", band=8, seed=3,
                                          amplitude=20.0), Grid(self.N))
        w0 = dft_inverse(ic).values
        return w0, self.evolve(w0)

    MAPS = {  # (R omega)(x) = omega(R^-1 x): omega(x2, -x1) for the rotation
        "rotation by 90 degrees": lambda w: w.T[-np.arange(len(w)) % len(w)],
        "shift by (5, -3)": lambda w: np.roll(w, (5, -3), axis=(0, 1)),
        "reflection": lambda w: -w.T,
    }

    @pytest.mark.parametrize("name", list(MAPS))
    def test_commutes_with(self, trajectory, name):
        w0, w1 = trajectory
        act = self.MAPS[name]
        assert not np.array_equal(act(w0), w0)
        gap = np.max(np.abs(self.evolve(act(w0)) - act(w1))) / np.max(np.abs(w1))
        assert gap < self.ROUND_OFF

    def test_transpose_without_the_sign_is_no_symmetry(self, trajectory):
        w0, w1 = trajectory
        assert np.max(np.abs(self.evolve(w0.T) - w1.T)) / np.max(np.abs(w1)) > 0.1

    def test_time_reversal(self, trajectory):
        w0, w1 = trajectory
        back = -self.evolve(-w1)
        assert np.max(np.abs(back - w0)) / np.max(np.abs(w0)) < self.REVERSAL


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
        records, _ = collect(cfg)  # raises BlowUpError on a blow-up
        first = records[0].norms
        for rec in records[1:]:
            assert abs(rec.norms.l2 - first.l2) < 1e-8
            assert abs(rec.norms.h1dot - first.h1dot) < 1e-8
        # steady single-mode advection product is identically zero, so the
        # truncation removes nothing
        assert all(rec.aliasing_energy_discarded < 1e-28 for rec in records)

    def test_time_column_and_final_time(self):
        cfg = SolverConfig(
            n=64, gamma=1.5, t_max=0.3, diag_interval=1, cfl=0.4,
            ic=InitialConditionSpec(kind="random_band", band=8, seed=4),
        )
        records, _ = collect(cfg)
        times = [rec.t for rec in records]
        assert all(b > a for a, b in zip(times, times[1:]))
        assert times[0] == 0.0
        assert times[-1] == pytest.approx(0.3, abs=1e-12)

    def test_conservation_short_run(self):
        cfg = SolverConfig(
            n=64, gamma=1.5, t_max=0.5, cfl=0.3, mollify="dealias",
            diag_interval=1,
            ic=InitialConditionSpec(kind="random_band", band=8, seed=1),
        )
        records, _ = collect(cfg)
        l2s = [rec.norms.l2 for rec in records]
        energies = [rec.norms.energy_gamma for rec in records]
        assert (max(l2s) - min(l2s)) / l2s[0] < 1e-10
        assert (max(energies) - min(energies)) / energies[0] < 1e-10

    def test_seed_determinism(self):
        cfg = SolverConfig(
            n=32, t_max=0.2, diag_interval=1,
            ic=InitialConditionSpec(kind="random_band", band=4, seed=11),
        )
        a, _ = collect(cfg)
        b, _ = collect(cfg)
        for ra, rb in zip(a, b):
            assert ra.t == rb.t
            assert ra.norms.l2 == rb.norms.l2

    def test_snapshots_cadence(self):
        cfg = SolverConfig(
            n=32, t_max=0.2, diag_interval=1, snapshot_interval=2, cfl=0.1,
            ic=InitialConditionSpec(kind="shell"),
        )
        _, snapshots = collect(cfg)
        steps = [snap.step_count for snap in snapshots]
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
            collect(SolverConfig(
                n=32, gamma=1.5, t_max=0.8, cfl=0.3, mollify=mollify,
                ic=InitialConditionSpec(kind="random_band", amplitude=20.0, seed=5),
                diag_interval=interval, snapshot_interval=3,
            ))
            for interval in (1, 2)
        ]
        (records, snaps_every), (records_other, snaps_other) = runs
        every = {rec.t: rec for rec in records}
        assert len(records) > 6
        assert len(records_other) > 3
        for rec in records_other:
            ref = every[rec.t]
            assert rec.dt_used == ref.dt_used
            assert rec.norms == ref.norms
            assert rec.aliasing_energy_discarded == ref.aliasing_energy_discarded
        assert records[-1].t == records_other[-1].t
        # the first record is the public bundle of the dealiased initial
        # field, to the last bit
        ic = make_ic(InitialConditionSpec(kind="random_band", amplitude=20.0,
                                          seed=5), Grid(32))
        omega0 = dealias(ic)
        assert records[0].norms == compute_norm_bundle(omega0, 1.5, 64)
        snaps = [snaps_every, snaps_other]
        assert [s.step_count for s in snaps[0]] == [s.step_count for s in snaps[1]]
        for a, b in zip(*snaps):
            assert a.time == b.time
            assert np.array_equal(a.values, b.values)

    @staticmethod
    def _cadence_run(diag_interval, snapshot_interval):
        # 14 adaptive steps to t_max
        return collect(SolverConfig(
            n=32, t_max=0.6, cfl=0.3, diag_interval=diag_interval,
            snapshot_interval=snapshot_interval,
            ic=InitialConditionSpec(kind="random_band", amplitude=20.0),
        ))

    @pytest.mark.parametrize("interval", [1, 2, 3, 5, 14, 20])
    def test_records_and_snapshots_follow_one_rule(self, interval):
        records, snapshots = self._cadence_run(interval, interval)
        assert [r.t for r in records] == [s.time for s in snapshots]

    def test_snapshot_steps_are_the_cadence_plus_the_final_step_once(self):
        final = self._cadence_run(1, 1)[1][-1].step_count
        on = [d for d in range(2, final) if final % d == 0]
        off = [d for d in range(2, final) if final % d != 0]
        assert on and off
        for d in (*on, *off[:3], final + 3):
            steps = [s.step_count for s in self._cadence_run(10, d)[1]]
            expected = list(range(0, final + 1, d))
            if final % d != 0:
                expected.append(final)
            assert steps == expected, d

    @pytest.mark.filterwarnings("ignore:overflow")
    @pytest.mark.filterwarnings("ignore:invalid value")
    def test_blown_up_run_keeps_nothing_from_the_blowup_on(self):
        records, snapshots = [], []
        with pytest.raises(BlowUpError) as err:
            run(SolverConfig(
                n=32, t_max=1.0, diag_interval=1, snapshot_interval=1,
                ic=InitialConditionSpec(kind="random_band", band=4, amplitude=1e160),
            ), records.append, snapshots.append)
        assert records
        assert all(r.t < err.value.t for r in records)
        assert all(s.step_count < err.value.step_count for s in snapshots)

    def test_ic_seed_is_the_run_seed(self):
        def h1dot(seed):
            cfg = SolverConfig(n=32, t_max=0.05, diag_interval=1,
                               ic=InitialConditionSpec(kind="random_band", seed=seed))
            return [rec.norms.h1dot for rec in collect(cfg)[0]]

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
        records, snapshots = [], []
        with pytest.raises(BlowUpError) as err:
            run(cfg, records.append, snapshots.append)
        assert err.value.step_count is not None
        assert len(records) >= 1

    @pytest.mark.filterwarnings("ignore:overflow")
    @pytest.mark.filterwarnings("ignore:invalid value")
    def test_a_stalled_run_stops(self):
        # dt is about 2e-150 from the start: the run used to go on for ever,
        # so a run that has not stopped by its tenth record fails here
        records, snapshots = [], []

        def on_record(record):
            records.append(record)
            assert len(records) < 10, "the run did not stop"

        with pytest.raises(StallError) as err:
            run(SolverConfig(
                n=32, t_max=1.0, diag_interval=1, snapshot_interval=1,
                ic=InitialConditionSpec(kind="random_band", band=4, amplitude=1e150),
            ), on_record, snapshots.append)
        assert not isinstance(err.value, BlowUpError)
        assert (err.value.t, err.value.step_count) == (0.0, 0)
        assert 0.0 < err.value.dt < 2.0**-52
        assert [r.t for r in records] == [0.0]
        assert [s.step_count for s in snapshots] == [0]

    def test_the_stall_floor_is_t_max_times_2_to_the_minus_52(self, monkeypatch):
        t_max = 4.0
        floor = t_max * 2.0**-52
        dts = iter([0.25, floor, 0.25, np.nextafter(floor, 0.0)])
        monkeypatch.setattr(solver, "_cfl_dt", lambda uv, cfl, dx: next(dts))
        records = []
        with pytest.raises(StallError) as err:
            run(SolverConfig(n=16, t_max=t_max, diag_interval=1,
                             ic=InitialConditionSpec(kind="single_mode")),
                records.append, lambda snap: None)
        assert err.value.step_count == 3
        assert err.value.t == 0.5 + floor > 0.5
        assert [r.t for r in records] == [0.0, 0.25, 0.25 + floor, 0.5 + floor]


def _events(run_fn, cfg, steps_by_t=None):
    """The records and snapshots ``run_fn(cfg, ...)`` hands out, as one log
    of ("record", step or t) and ("snapshot", step), and the BlowUpError it
    raised, if any."""
    log, records, snapshots = [], [], []

    def on_record(rec):
        records.append(rec)
        log.append(("record", steps_by_t[rec.t] if steps_by_t else rec.t))

    def on_snapshot(snap):
        snapshots.append(snap)
        log.append(("snapshot", snap.step_count))

    try:
        run_fn(cfg, on_record, on_snapshot)
    except BlowUpError as exc:
        return log, records, snapshots, (exc.t, exc.step_count)
    return log, records, snapshots, None


class TestRunHelperThread:
    """``run`` takes each record's norm bundle on one helper thread while
    the caller steps; the callbacks, the bytes and the threads left must be
    those of the serial loop (``reference.serial_run``)."""

    @staticmethod
    def _cfg(diag_interval, snapshot_interval, **ic):
        # 14 adaptive steps to t_max at amplitude 20
        return SolverConfig(
            n=32, t_max=0.6, cfl=0.3, diag_interval=diag_interval,
            snapshot_interval=snapshot_interval,
            ic=InitialConditionSpec(kind="random_band", **({"amplitude": 20.0} | ic)),
        )

    @pytest.fixture(scope="class")
    def steps_by_t(self):
        records = collect(self._cfg(1, 0))[0]
        return {rec.t: step for step, rec in enumerate(records)}

    # the serial loop's callback order, as it ran before the helper thread
    EVENTS = {
        (1, 1): [e for step in range(15) for e in (("record", step),
                                                   ("snapshot", step))],
        (3, 7): [("record", 0), ("snapshot", 0), ("record", 3), ("record", 6),
                 ("snapshot", 7), ("record", 9), ("record", 12), ("record", 14),
                 ("snapshot", 14)],
        (1, 0): [("record", step) for step in range(15)],
        (10, 0): [("record", 0), ("record", 10), ("record", 14)],
    }

    @pytest.mark.parametrize("cadence", list(EVENTS))
    def test_callbacks_and_records_are_the_serial_loops(self, cadence, steps_by_t):
        threads = threading.active_count()
        log, records, snapshots, err = _events(run, self._cfg(*cadence), steps_by_t)
        assert threading.active_count() == threads
        assert err is None
        assert log == self.EVENTS[cadence]
        _, ref_records, ref_snapshots, _ = _events(serial_run, self._cfg(*cadence))
        assert [repr(r) for r in records] == [repr(r) for r in ref_records]
        assert len(snapshots) == len(ref_snapshots)
        for a, b in zip(snapshots, ref_snapshots):
            assert (a.time, a.step_count) == (b.time, b.step_count)
            assert np.array_equal(a.values, b.values)

    def test_records_hold_under_fast_thread_switching(self):
        # the helper reads the state while the caller writes the other RK4
        # slot; a step that wrote the state would change a record's bits
        cfg = self._cfg(1, 1, amplitude=30.0)
        _, ref_records, _, _ = _events(serial_run, cfg)
        interval = sys.getswitchinterval()
        try:
            sys.setswitchinterval(1e-6)
            _, records, _, _ = _events(run, cfg)
        finally:
            sys.setswitchinterval(interval)
        assert [repr(r) for r in records] == [repr(r) for r in ref_records]

    def test_a_state_is_handed_over_after_the_step_from_it(self, monkeypatch):
        log, rk4 = [], solver._rk4_half

        def logged_step(*args, **kwargs):
            out = rk4(*args, **kwargs)
            log.append("step")
            return out

        monkeypatch.setattr(solver, "_rk4_half", logged_step)
        run(self._cfg(3, 7), lambda rec: log.append("record"),
            lambda snap: log.append("snapshot"))
        # states 0, 3, 6, 7, 9 and 12 hand over after their step; state 14
        # is final and has none
        assert log[:5] == ["step", "record", "snapshot", "step", "step"]
        assert log[-2:] == ["record", "snapshot"]
        assert log.count("step") == 14

    @pytest.mark.filterwarnings("ignore:overflow")
    @pytest.mark.filterwarnings("ignore:invalid value")
    @pytest.mark.parametrize("amplitude", [1e155, 1e160])
    def test_a_blow_up_hands_over_what_the_serial_loop_does(self, amplitude):
        # at 1e155 both the bundle and the step of state 0 meet an overflow;
        # at 1e160 only the bundle does
        cfg = SolverConfig(
            n=32, t_max=1.0, diag_interval=1, snapshot_interval=1,
            ic=InitialConditionSpec(kind="random_band", band=4, amplitude=amplitude),
        )
        threads = threading.active_count()
        log, records, snapshots, err = _events(run, cfg)
        assert threading.active_count() == threads
        ref_log, ref_records, ref_snapshots, ref_err = _events(serial_run, cfg)
        assert err is not None and err == ref_err
        assert log == ref_log
        assert [repr(r) for r in records] == [repr(r) for r in ref_records]
        assert all(np.array_equal(a.values, b.values, equal_nan=True)
                   for a, b in zip(snapshots, ref_snapshots))

    def test_a_bad_step_size_hands_over_the_state_then_raises(self, monkeypatch):
        cfl = solver._cfl_dt
        calls = []

        def cfl_failing_at_step_2(uv, cfl_number, dx):
            calls.append(None)
            return math.nan if len(calls) == 3 else cfl(uv, cfl_number, dx)

        monkeypatch.setattr(solver, "_cfl_dt", cfl_failing_at_step_2)
        threads = threading.active_count()
        log, *_, err = _events(run, self._cfg(1, 1))
        assert threading.active_count() == threads
        assert err[1] == 2
        assert [kind for kind, _ in log] == ["record", "snapshot"] * 3

    @pytest.mark.parametrize("failing", ["on_record", "on_snapshot"])
    def test_a_raising_callback_stops_the_run_within_one_step(
            self, monkeypatch, failing):
        steps, rk4 = [], solver._rk4_half

        def counted_step(*args, **kwargs):
            steps.append(None)
            return rk4(*args, **kwargs)

        def fail_at_step_2(event):
            calls.append(event)
            if len(calls) == 3:
                raise RuntimeError("callback failed")

        calls = []
        callbacks = {"on_record": lambda rec: None, "on_snapshot": lambda snap: None}
        callbacks[failing] = fail_at_step_2
        monkeypatch.setattr(solver, "_rk4_half", counted_step)
        threads = threading.active_count()
        with pytest.raises(RuntimeError, match="callback failed"):
            run(self._cfg(1, 1), callbacks["on_record"], callbacks["on_snapshot"])
        assert threading.active_count() == threads
        # the serial loop stopped after 2 steps; at most one more is taken
        assert 2 <= len(steps) <= 3


class TestGronwallEnvelope:
    def _records(self, cfg):
        return collect(cfg)[0]

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

    def test_requires_three_records(self):
        cfg = SolverConfig(
            n=32, t_max=0.1, diag_interval=1,
            ic=InitialConditionSpec(kind="shell"),
        )
        records = self._records(cfg)
        with pytest.raises(ValueError):
            gronwall_envelope(records[:2], records[0].norms)

    def test_ceiling_flag(self):
        # ||w||_{H^-1} grows by 1 per 1e-9 time units against a right-hand
        # side of order 1, so c_a is about 1e9
        rows = [dict(t=1e-9 * i, dt=1e-9, l2=1.0, l4=1.0, l8=1.0, h1dot=1.0,
                     hm1dot=1.0 + i, sup_p_ratio=1.0, grad_u_sup=1.0,
                     energy_gamma=1.0) for i in range(3)]
        records = records_from_rows(rows)
        report = gronwall_envelope(records, records[0].norms)
        assert report.c_a > ENVELOPE_CEILING
        assert report.violated is True
