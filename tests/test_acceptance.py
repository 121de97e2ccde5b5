"""Acceptance battery: every gate the package must clear, one test per
criterion, each printing a PASS/FAIL line (run with ``pytest -s`` to see
them all).  Tolerances are fixed here, not tuned at runtime.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest
from reference import half_to_full

from logeuler.cli import run_cli
from logeuler.extremizer import sharpness_curve
from logeuler.inequalities import (
    CorpusSpec,
    check_embedding,
    check_log_interpolation,
    check_multiplier_bound,
)
from logeuler.runio import DIAG_HEADER, diagnostics_row, read_diagnostics_csv
from logeuler.solver import (
    InitialConditionSpec,
    SolverConfig,
    SolverState,
    advance,
    cfl_dt,
    gronwall_envelope,
    make_ic,
    run,
)
from logeuler.spectral import Grid, RealField, dft_forward, half_spectrum_l2


@contextmanager
def criterion(num, name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num:2d} [{name}]: FAIL")
        raise
    print(f"ACCEPTANCE {num:2d} [{name}]: PASS")


@pytest.fixture(scope="module")
def conservation_run():
    """Shared trajectory for criteria 3 and 9.

    The sharp (dealias-only) truncation is the variant whose advection term
    is exactly skew-symmetric on the resolved band, so the L2 and
    generalized-energy invariants hold to time-integration accuracy; the
    CFL number keeps that accuracy well below the 1e-6 gates.
    """
    cfg = SolverConfig(
        n=256, gamma=1.5, t_max=1.0, cfl=0.1, mollify="dealias",
        ic=InitialConditionSpec(kind="random_band", seed=7), diag_interval=1,
    )
    records, snapshots = [], []
    start = time.perf_counter()
    run(cfg, records.append, snapshots.append)
    return records, time.perf_counter() - start


def test_criterion_1_transform_oracle():
    with criterion(1, "transform oracle"):
        start = time.perf_counter()
        g = Grid(8)
        k = g.k1
        x = np.arange(8) * g.dx
        rng = np.random.default_rng(2024)
        worst = 0.0
        for _ in range(100):
            f = RealField(g, rng.standard_normal((8, 8)))
            fast = half_to_full(dft_forward(f).coeffs)
            slow = np.zeros((8, 8), dtype=complex)
            for i, k1 in enumerate(k):
                for j, k2 in enumerate(k):
                    phase = np.exp(-1j * (k1 * x[:, None] + k2 * x[None, :]))
                    slow[i, j] = np.sum(f.values * phase) / 64.0
            worst = max(worst, float(np.max(np.abs(fast - slow))))
        elapsed = time.perf_counter() - start
        assert worst < 1e-12, f"worst deviation {worst:.3e}"
        assert elapsed < 1.0, f"took {elapsed:.2f}s"


def test_criterion_2_stationarity():
    with criterion(2, "stationarity of steady data"):
        start = time.perf_counter()
        g = Grid(128)
        for kind in ("single_mode", "shell"):
            ic = make_ic(InitialConditionSpec(kind=kind), g)
            for gamma in (0.0, 0.5, 1.5):
                cfg = SolverConfig(n=128, gamma=gamma, t_max=1e9)
                dt = cfl_dt(ic, gamma, 0.5, g)
                state = advance(SolverState(0.0, ic, 0), cfg, dt, 1000)
                diff = half_spectrum_l2(state.omega.coeffs - ic.coeffs)
                assert diff < 1e-8, (kind, gamma, diff)
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"took {elapsed:.1f}s"


def test_criterion_3_conservation(conservation_run):
    with criterion(3, "Lebesgue/energy conservation"):
        records, elapsed = conservation_run  # run raises on a blow-up
        assert records[-1].t == pytest.approx(1.0, abs=1e-12)

        def drift(get):
            values = [get(rec) for rec in records]
            return (max(values) - min(values)) / values[0]

        assert drift(lambda r: r.norms.l2) <= 1e-6
        assert drift(lambda r: r.norms.energy_gamma) <= 1e-6
        assert drift(lambda r: r.norms.lp[4]) <= 1e-4
        assert drift(lambda r: r.norms.lp[8]) <= 1e-4
        assert elapsed < 120.0, f"took {elapsed:.1f}s"


def test_criterion_4_temporal_order():
    with criterion(4, "RK4 self-convergence order"):
        g = Grid(64)
        cfg = SolverConfig(n=64, gamma=1.5, t_max=1e9, mollify="dealias")
        ic = make_ic(
            InitialConditionSpec(kind="random_band", band=8, seed=3, amplitude=20.0),
            g,
        )
        state0 = SolverState(0.0, ic, 0)
        solutions = {}
        for divider in (1, 2, 4):
            dt = 0.05 / divider
            solutions[divider] = advance(
                state0, cfg, dt, round(0.4 / dt)
            ).omega.coeffs

        e_coarse = half_spectrum_l2(solutions[1] - solutions[2])
        e_fine = half_spectrum_l2(solutions[2] - solutions[4])
        order = math.log2(e_coarse / e_fine)
        assert 3.7 <= order <= 4.3, f"observed order {order:.3f}"


def test_criterion_5_multiplier_bound():
    with criterion(5, "dyadic multiplier bound"):
        # grid chosen so every tested annulus N/2 < |k| < 2N, N <= 2^8, fits
        # inside the corpus band and no block is geometrically clipped
        corpus = CorpusSpec(kind="default", n=1024, band=512, size=24, seed=0)
        n_set = [2.0**j for j in range(1, 9)]
        report = check_multiplier_bound(1.5, n_set, (2.0, float("inf")), corpus)

        per_n_q2 = {}
        per_n_qinf = {}
        for row in report.rows:
            params = dict(row.params)
            target = per_n_q2 if params["q"] == 2.0 else per_n_qinf
            target[params["N"]] = max(target.get(params["N"], 0.0), row.ratio)
        # q = 2: exact diagonal bound for every field and every block
        q2_rows = [r.ratio for r in report.rows if dict(r.params)["q"] == 2.0]
        assert len(per_n_q2) == len(n_set)  # every block populated
        assert max(q2_rows) <= 1.0 + 1e-12
        # q = inf: finite, and no regrowth above the 2^4 level; successive
        # doubling may drift up by the symbol's own slow log-ratio creep
        # (observed +1.9% at 2^8), capped at 2%
        assert all(np.isfinite(v) for v in per_n_qinf.values())
        level = per_n_qinf[16.0]
        tail = [per_n_qinf[float(2**j)] for j in range(4, 9)]
        assert all(v <= level * (1.0 + 1e-12) for v in tail)
        for prev, nxt in zip(tail, tail[1:]):
            assert nxt <= prev * 1.02, (prev, nxt)


def test_criterion_6_embedding_constant():
    with criterion(6, "sqrt(p) embedding constant"):
        # single_mode[1,0] attains the overall maximum on every seed, so
        # the random members' own maximum is held to the same spread
        maxima, random_maxima = [], []
        for seed in range(5):
            report = check_embedding(
                CorpusSpec(kind="default", n=128, size=80, seed=seed), 64
            )
            assert len(report.rows) == 80
            assert np.isfinite(report.max_ratio)
            maxima.append(report.max_ratio)
            random_maxima.append(report.family_maxima["random_band"])
        for values in (maxima, random_maxima):
            spread = (max(values) - min(values)) / min(values)
            assert spread <= 0.05, f"seed spread {spread:.3%}"


def test_criterion_7_sharpness():
    with criterion(7, "extremizer sharpness"):
        p_list = [4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0]
        rows = sharpness_curve(p_list)
        for row in rows:
            assert row.l2 <= 2.0
            assert row.embed_ratio / row.inv_sqrt_log_p >= 0.12
        c_h1 = [row.c_h1 for row in rows]
        c_lp = [row.c_lp for row in rows]
        assert max(c_h1) <= 2.8 and min(c_lp) >= 0.30
        # fitted constants settle: <= 10% variation over the upper half of
        # the p range (the last floor(len/2) entries)
        upper = len(rows) // 2
        for series in (c_h1, c_lp):
            tail = series[-upper:]
            assert (max(tail) - min(tail)) / min(tail) <= 0.10, tail


def test_criterion_8_log_interpolation():
    with criterion(8, "log interpolation constant"):
        low = check_log_interpolation(
            CorpusSpec(kind="default", n=256, band=32, size=80, seed=0), 1.5, 64
        )
        high = check_log_interpolation(
            CorpusSpec(kind="default", n=256, band=64, size=80, seed=0), 1.5, 64
        )
        assert np.isfinite(low.max_ratio) and np.isfinite(high.max_ratio)
        # a deterministic member can attain both maxima, so the random
        # members' own maximum is held to the same growth bound
        random = [r.family_maxima["random_band"] for r in (low, high)]
        for lo, hi in ((low.max_ratio, high.max_ratio), random):
            growth = hi / lo - 1.0
            assert growth < 0.10, f"band doubling grew the constant by {growth:.3%}"


def test_criterion_9_envelope_report(conservation_run):
    with criterion(9, "norm-growth envelope fits"):
        records, _ = conservation_run
        report = gronwall_envelope(records, records[0].norms)
        assert math.isfinite(report.c_a) and math.isfinite(report.c_b)
        assert not report.violated


def test_criterion_10_io_roundtrips(tmp_path, conservation_run):
    with criterion(10, "serialization round trips"):
        # diagnostics CSV reparses exactly at 17 significant digits
        records, _ = conservation_run
        csv_path = tmp_path / "diag.csv"
        csv_path.write_text(DIAG_HEADER + "\n" + "".join(map(diagnostics_row, records)),
                            encoding="utf-8", newline="\n")
        rows = read_diagnostics_csv(str(csv_path))
        for rec, row in zip(records, rows):
            assert row["t"] == rec.t
            assert row["l2"] == rec.norms.l2
            assert row["h1dot"] == rec.norms.h1dot
            assert row["energy_gamma"] == rec.norms.energy_gamma

        # identical config + seed => bit-identical on-disk outputs
        args = [
            "simulate", "--ic", "random_band", "--seed", "7", "--n", "64",
            "--tmax", "0.2", "--diag-every", "1", "--snap-every", "2",
        ]
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run_cli(args + ["--out", str(out_a)]) == 0
        assert run_cli(args + ["--out", str(out_b)]) == 0
        for rel in ("diagnostics.csv", "config.txt"):
            assert (out_a / rel).read_bytes() == (out_b / rel).read_bytes()
        snaps_a = sorted((out_a / "snapshots").iterdir())
        snaps_b = sorted((out_b / "snapshots").iterdir())
        assert len(snaps_a) == len(snaps_b) > 0
        for pa, pb in zip(snaps_a, snaps_b):
            assert pa.read_bytes() == pb.read_bytes()

        # snapshot write/read is bit-exact
        from logeuler.runio import read_snapshot, write_snapshot

        snap = read_snapshot(str(snaps_a[-1]))
        rewritten = tmp_path / "rewrite.lgeu"
        write_snapshot(snap, str(rewritten))
        assert rewritten.read_bytes() == snaps_a[-1].read_bytes()
