"""Layer microtable: the cost of single layer calls at n = 128, 256, 512.

It reproduces the ROADMAP baseline table.  ``solver.rhs`` and
``solver.step_rk4`` are the public calls, so they include the full <-> half
lattice conversion that the table's ``_rhs_half`` and ``_rk4_half`` rows
leave out.  Each entry is the median of repeated calls after one warm-up
call, repeated for at least ``MIN_SECONDS`` and ``MIN_REPEATS`` times.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import scipy.fft

from logeuler import norms, solver, spectral

from metrics import MICRO_SIZES

MIN_SECONDS = 0.2
MIN_REPEATS = 3
GAMMA = 1.5
P_MAX = 64


def _median_ms(call) -> float:
    call()
    times = []
    start = perf_counter()
    while len(times) < MIN_REPEATS or perf_counter() - start < MIN_SECONDS:
        t0 = perf_counter()
        call()
        times.append(perf_counter() - t0)
    return statistics.median(times) * 1e3


def microtable(seed: int) -> dict[str, float]:
    out = {}
    for n in MICRO_SIZES:
        grid = spectral.Grid(n)
        omega = solver.make_ic(
            solver.InitialConditionSpec(kind="random_band", seed=seed), grid
        )
        phys = spectral.dft_inverse(omega)
        config = solver.SolverConfig(n=n, gamma=GAMMA, t_max=1e9)
        state = solver.SolverState(0.0, omega, 0)
        dt = solver.cfl_dt(omega, GAMMA, 0.5, grid)
        entries = {
            "spectral.rfft2_ms": lambda: scipy.fft.rfft2(phys.values),
            "solver.rhs_ms": lambda: solver.rhs(omega, GAMMA, config.mollify),
            "solver.step_rk4_ms": lambda: solver.step_rk4(state, dt, config),
            "norms.compute_norm_bundle_ms":
                lambda: norms.compute_norm_bundle(omega, GAMMA, P_MAX),
            "norms.grad_u_sup_ms": lambda: norms.grad_u_sup(omega, GAMMA),
            "norms.lp_norm_map_ms":
                lambda: norms.lp_norm_map(phys, range(2, P_MAX + 1)),
        }
        for name, call in entries.items():
            out[f"{name}.n{n}"] = _median_ms(call)
    return out
