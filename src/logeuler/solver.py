"""Time integration of the log-regularized vorticity equation on the torus.

The spatial discretization is the frequency-truncated system
``d/dt omega = -P(u . grad P omega)`` with ``u`` the log-smoothed
Biot-Savart velocity of the *untruncated* vorticity.  ``P`` is either a
smooth dyadic low-pass (mollified mode) or the sharp 2/3-rule projection
(dealias-only mode); quadratic products are always formed in physical space
and dealiased.  Time stepping is classical RK4 under an adaptive CFL
constraint.

Vorticity is exchanged as ``SpectralField`` values, the rfft half of the
coefficients; the multipliers are the bare symbols, in read-only tables.
The stepping loop works on bare arrays in transform-plan slots reused from
step to step, and the states it returns own fresh copies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

import numpy as np

from .multipliers import check_gamma, is_dyadic, phi_eval, tgamma_eval
from .norms import NormBundle, compute_norm_bundle
from .spectral import (
    Grid,
    RealField,
    SpectralField,
    TransformPlan,
    check_grid_size,
    check_zero_mean,
    dealias,
    dft_forward,
    dft_inverse,
    mode_sum,
    plancherel,
    random_band_half,
    read_only,
)

__all__ = [
    "InitialConditionSpec",
    "SolverConfig",
    "SolverState",
    "DiagnosticsRecord",
    "Snapshot",
    "EnvelopeReport",
    "BlowUpError",
    "make_ic",
    "rhs",
    "cfl_dt",
    "step_rk4",
    "advance",
    "run",
    "gronwall_envelope",
]

VELOCITY_FLOOR = 1e-12  # guard against division by zero in the CFL formula

IC_KINDS = ("single_mode", "shell", "random_band", "vortex_pair")


class BlowUpError(RuntimeError):
    """Non-finite values appeared during time stepping."""

    def __init__(self, t: float, step_count: int):
        super().__init__(f"non-finite vorticity at t = {t:.6g} (step {step_count})")
        self.t, self.step_count = t, step_count


@dataclass(frozen=True)
class InitialConditionSpec:
    """Recipe for the initial vorticity.

    kind "single_mode" gives amplitude * sin(k . x); "shell" gives
    amplitude * sin(x1) sin(x2); "random_band" a seeded Hermitian field with
    1 <= |k| <= band and L2 norm equal to amplitude; "vortex_pair" two
    opposite-signed periodized Gaussian blobs, mean-projected.
    """

    kind: str = "random_band"
    mode: tuple[int, int] = (1, 0)
    band: int = 0          # 0 resolves to n // 16 (at least 2)
    seed: int = 0
    amplitude: float = 1.0
    width: float = 0.4
    separation: float = math.pi / 2

    def __post_init__(self) -> None:
        if self.kind not in IC_KINDS:
            raise ValueError(
                f"unknown ic kind {self.kind!r} (expected one of "
                f"{', '.join(IC_KINDS)})"
            )
        if self.band < 0:
            raise ValueError(f"ic band must be >= 0 (0 = auto), got {self.band}")
        if self.seed < 0:
            raise ValueError(f"ic seed must be >= 0, got {self.seed}")
        if not math.isfinite(self.amplitude):
            raise ValueError(f"ic amplitude must be finite, got {self.amplitude}")
        if not (math.isfinite(self.width) and self.width > 0):
            raise ValueError(f"ic width must be finite and > 0, got {self.width}")
        if not math.isfinite(self.separation):
            raise ValueError(f"ic separation must be finite, got {self.separation}")


@dataclass(frozen=True)
class SolverConfig:
    """Run parameters.  ``ic`` is the whole initial data, its seed included;
    ``diag_interval`` and ``snapshot_interval`` are the step cadences of
    ``run``'s records and snapshots (see ``run``)."""

    n: int = 256
    gamma: float = 1.5
    t_max: float = 1.0
    cfl: float = 0.5
    mollify: int | str = "auto"   # dyadic N, "dealias", or "auto"
    ic: InitialConditionSpec = field(default_factory=InitialConditionSpec)
    p_max: int = 64
    diag_interval: int = 10
    snapshot_interval: int = 0    # 0 disables snapshots

    def __post_init__(self) -> None:
        check_grid_size(self.n)
        check_gamma(self.gamma)
        if not (math.isfinite(self.t_max) and self.t_max > 0):
            raise ValueError(f"t_max must be finite and > 0, got {self.t_max}")
        if not 0 < self.cfl <= 1:
            raise ValueError(f"cfl must be in (0, 1], got {self.cfl}")
        if self.p_max < 8:
            raise ValueError(f"p_max must be >= 8, got {self.p_max}")
        if self.diag_interval < 1:
            raise ValueError(f"diag_interval must be >= 1, got {self.diag_interval}")
        if self.snapshot_interval < 0:
            raise ValueError(
                f"snapshot_interval must be >= 0, got {self.snapshot_interval}"
            )
        _resolve_mollify(self.n, self.mollify)  # validates
        _check_ic(self.ic, self.n)

    @property
    def mollify_n(self) -> int | None:
        """Dyadic cutoff of the smooth truncation, or None in dealias mode."""
        return _resolve_mollify(self.n, self.mollify)


def _check_ic(spec: InitialConditionSpec, n: int) -> None:
    """Raise ValueError unless ``spec`` gives data inside the dealias band
    n/3 of grid size n: ``run`` dealiases the initial field, which would
    leave nothing of a single mode beyond it."""
    if spec.kind == "single_mode":
        if tuple(spec.mode) == (0, 0):
            raise ValueError("single_mode needs a nonzero wavevector")
        if max(map(abs, spec.mode)) > n // 3:
            raise ValueError(
                f"single_mode wavevector {spec.mode} lies outside the "
                f"dealias band n/3 = {n // 3}"
            )
    if spec.kind == "random_band" and spec.band > n // 3:
        raise ValueError(
            f"ic band {spec.band} exceeds the dealias band {n // 3}"
        )


def _resolve_mollify(n: int, mollify) -> int | None:
    if mollify == "dealias":
        return None
    if mollify == "auto":
        return 2 ** int(math.floor(math.log2(n // 3)))
    if not is_dyadic(mollify):
        raise ValueError(f"mollify must be dyadic, 'dealias' or 'auto', got {mollify!r}")
    value = int(mollify)
    if value > n // 3:
        raise ValueError(
            f"mollify cutoff {value} exceeds the dealias band n/3 = {n // 3}"
        )
    return value


@dataclass(frozen=True)
class SolverState:
    t: float
    omega: SpectralField
    step_count: int


@dataclass(frozen=True)
class DiagnosticsRecord:
    """Norm bundle at one instant plus the step size that led there and the
    instantaneous L2 energy the truncation removes from the advection term."""

    t: float
    norms: NormBundle
    dt_used: float
    aliasing_energy_discarded: float


@dataclass(frozen=True)
class Snapshot:
    """Physical-space vorticity ``values`` (n x n) with its run header."""

    n: int
    gamma: float
    time: float
    step_count: int
    values: np.ndarray


# ---------------------------------------------------------------------------
# initial data
# ---------------------------------------------------------------------------

def make_ic(spec: InitialConditionSpec, grid: Grid) -> SpectralField:
    """Zero-mean initial vorticity on the given grid; deterministic per spec."""
    n = grid.n
    _check_ic(spec, n)
    if spec.kind == "single_mode":
        coeffs = mode_sum(grid, [(spec.mode, -0.5j * spec.amplitude)]).coeffs
    elif spec.kind == "shell":
        # sin(x1) sin(x2): four modes on the |k| = sqrt(2) shell
        shell = [((1, -1), 0.25 * spec.amplitude), ((1, 1), -0.25 * spec.amplitude)]
        coeffs = mode_sum(grid, shell).coeffs
    elif spec.kind == "random_band":
        band = spec.band if spec.band > 0 else max(2, n // 16)
        coeffs = random_band_half(grid, np.random.default_rng(spec.seed), band)
        coeffs *= spec.amplitude
    else:  # vortex_pair
        x1, x2 = grid.mesh()
        half = 0.5 * spec.separation
        values = np.zeros((n, n))
        for sign, cx in ((1.0, math.pi - half), (-1.0, math.pi + half)):
            for sx in (-2.0 * math.pi, 0.0, 2.0 * math.pi):
                for sy in (-2.0 * math.pi, 0.0, 2.0 * math.pi):
                    d2 = (x1 - cx - sx) ** 2 + (x2 - math.pi - sy) ** 2
                    values += sign * np.exp(-d2 / (2.0 * spec.width**2))
        coeffs = dft_forward(RealField(grid, spec.amplitude * values)).coeffs
    coeffs[0, 0] = 0.0
    return SpectralField(grid, coeffs)


# ---------------------------------------------------------------------------
# half-spectrum workspace
# ---------------------------------------------------------------------------

class _Velocity:
    """Read-only rfft-layout multipliers i k2 T_gamma / |k|^2 and
    -i k1 T_gamma / |k|^2 taking the vorticity to the velocity (u1, u2),
    0 at the origin, for one (n, gamma)."""

    def __init__(self, grid: Grid, gamma: float):
        k2 = grid.k2.copy()
        k2[0, 0] = 1.0
        m = tgamma_eval(grid.kmod, gamma)
        self.u1_mult = 1j * grid.ky * m / k2
        self.u2_mult = -1j * grid.kx * m / k2
        for table in (self.u1_mult, self.u2_mult):
            table[0, 0] = 0.0
            read_only(table)


class _Truncation:
    """Read-only truncation tables for one (n, mollify)."""

    def __init__(self, grid: Grid, mollify_n: int | None):
        sharp = grid.dealias_mask
        if mollify_n is None:
            chi_inner = chi_outer = sharp.astype(float)
        else:
            chi_inner = phi_eval(grid.kmod / float(mollify_n))
            chi_outer = chi_inner * sharp
        self.gx_mult = read_only(1j * grid.kx * chi_inner)
        self.gy_mult = read_only(1j * grid.ky * chi_inner)
        # outer truncation with the minus sign of the advection term
        self.neg_chi = read_only(-chi_outer)
        # share of each mode's energy the outer truncation removes
        self.removed_weight = read_only(1.0 - chi_outer**2)


@dataclass(frozen=True)
class _Workspace:
    plan: TransformPlan
    vel: _Velocity
    trunc: _Truncation


# at n = 1024 a velocity part takes about 17 MB and a truncation part about
# 25 MB, so a sweep over many (n, gamma, mollify) keeps at most four of each
@lru_cache(maxsize=4)
def _velocity(n: int, gamma: float) -> _Velocity:
    return _Velocity(Grid(n), gamma)


@lru_cache(maxsize=4)
def _truncation(n: int, mollify_n: int | None) -> _Truncation:
    return _Truncation(Grid(n), mollify_n)


def _workspace(grid: Grid, gamma: float, mollify_n: int | None) -> _Workspace:
    return _Workspace(grid.plan, _velocity(grid.n, float(gamma)),
                      _truncation(grid.n, mollify_n))


def _velocity_phys(h: np.ndarray, vel: _Velocity, plan: TransformPlan):
    """(u1, u2) in the plan's slots "u1" and "u2"."""
    return plan.inverse(vel.u1_mult, h, "u1"), plan.inverse(vel.u2_mult, h, "u2")


def _rhs_half(h: np.ndarray, ws: _Workspace, uv=None, out=None,
              want_diag: bool = False):
    """Truncated advection tendency on the half spectrum, into ``out`` (a
    fresh array when None).

    Returns (tendency, discarded) where discarded is the L2 energy removed
    from the advection product by the outer truncation (None unless
    want_diag).
    """
    plan, trunc = ws.plan, ws.trunc
    u1, u2 = _velocity_phys(h, ws.vel, plan) if uv is None else uv
    wx = plan.inverse(trunc.gx_mult, h, "wx")
    wy = plan.inverse(trunc.gy_mult, h, "wy")
    np.multiply(u1, wx, out=wx)
    np.multiply(u2, wy, out=wy)
    wx += wy
    a = plan.forward(wx)
    out = np.multiply(trunc.neg_chi, a, out=out)
    out[0, 0] = 0.0
    discarded = None
    if want_diag:
        discarded = plancherel(trunc.removed_weight * np.abs(a) ** 2)
    return out, discarded


def rhs(omega: SpectralField, gamma: float, mollify="auto") -> SpectralField:
    """Tendency -P(u . grad P omega) with u = perp_grad inv_lap T_gamma omega.

    ``mollify`` follows SolverConfig.mollify: a dyadic cutoff for the smooth
    truncation, "dealias" for the sharp 2/3 projection, or "auto".
    """
    check_zero_mean(omega, "the advection tendency")
    ws = _workspace(omega.grid, gamma, _resolve_mollify(omega.grid.n, mollify))
    out, _ = _rhs_half(omega.coeffs, ws)
    return SpectralField(omega.grid, out)


def _cfl_dt(uv, cfl: float, dx: float) -> float:
    """Advective CFL step cfl * dx / max(||u||_inf, guard) of the velocity
    (u1, u2)."""
    umax = max(float(np.max(np.abs(uv[0]))), float(np.max(np.abs(uv[1]))))
    return cfl * dx / max(umax, VELOCITY_FLOOR)


def cfl_dt(omega: SpectralField, gamma: float, cfl: float, grid: Grid) -> float:
    """Advective CFL step cfl * dx / max(||u||_inf, guard)."""
    uv = _velocity_phys(omega.coeffs, _velocity(grid.n, float(gamma)), grid.plan)
    return _cfl_dt(uv, cfl, grid.dx)


def _rk4_half(
    h: np.ndarray, dt: float, ws: _Workspace, uv=None, k1=None
) -> np.ndarray:
    """One RK4 step into the plan slot "rk4_a" or "rk4_b" that ``h`` is not;
    ``k1``, when given, is ``_rhs_half(h, ws)[0]``.

    The operations and their order are those of h + (dt/6) (k1 + 2 k2 +
    2 k3 + k4), with the stages in the plan slots "k1" and "k" and their
    arguments h + c k in "stage".
    """
    plan = ws.plan
    if k1 is None:
        k1, _ = _rhs_half(h, ws, uv=uv, out=plan.half("k1"))
    k, stage = plan.half("k"), plan.half("stage")
    out = plan.half("rk4_b") if h is plan.half("rk4_a") else plan.half("rk4_a")
    np.multiply(0.5 * dt, k1, out=stage)
    np.add(h, stage, out=stage)
    _rhs_half(stage, ws, out=k)  # k2
    np.multiply(0.5 * dt, k, out=stage)
    np.add(h, stage, out=stage)
    np.multiply(2.0, k, out=k)
    np.add(k1, k, out=out)
    _rhs_half(stage, ws, out=k)  # k3
    np.multiply(dt, k, out=stage)
    np.add(h, stage, out=stage)
    np.multiply(2.0, k, out=k)
    out += k
    _rhs_half(stage, ws, out=k)  # k4
    out += k
    np.multiply(dt / 6.0, out, out=out)
    np.add(h, out, out=out)
    out[0, 0] = 0.0
    return out


def step_rk4(state: SolverState, dt: float, config: SolverConfig) -> SolverState:
    """One classical RK4 step; re-projects the mean and checks finiteness."""
    return advance(state, config, dt, 1)


def advance(state: SolverState, config: SolverConfig, dt: float, n_steps: int) -> SolverState:
    """Fixed-step integration helper (used by convergence studies)."""
    if not dt > 0:
        raise ValueError(f"dt must be > 0, got {dt}")
    grid = state.omega.grid
    ws = _workspace(grid, config.gamma, config.mollify_n)
    h = state.omega.coeffs
    t, step = state.t, state.step_count
    for _ in range(n_steps):
        h = _rk4_half(h, dt, ws)
        t += dt
        step += 1
        if not np.all(np.isfinite(h)):
            raise BlowUpError(t, step)
    return SolverState(t, SpectralField(grid, h.copy()), step)


def run(config: SolverConfig, on_record: Callable, on_snapshot: Callable) -> None:
    """Integrate ``config.ic`` from t = 0 to t_max under the adaptive CFL
    constraint, handing each diagnostics record to ``on_record`` and each
    snapshot to ``on_snapshot`` as it is made.

    A state at step s gets a record when s % diag_interval == 0 or it is the
    final state, and a snapshot by the same rule with ``snapshot_interval``
    (0 disables snapshots).  A non-finite step size or state raises
    ``BlowUpError`` with the time and step of the failure.
    """
    grid = Grid(config.n)
    h = dealias(make_ic(config.ic, grid)).coeffs
    ws = _workspace(grid, config.gamma, config.mollify_n)
    t_end, snap = config.t_max, config.snapshot_interval
    t, step, dt_used = 0.0, 0, 0.0
    while True:
        # the velocity, and a record's RHS as the step's first RK4 stage,
        # stay in slots that the norm bundle and the snapshot do not touch
        uv = _velocity_phys(h, ws.vel, ws.plan)
        final = not t < t_end * (1.0 - 1e-14)
        k1 = None
        if step % config.diag_interval == 0 or final:
            k1, discarded = _rhs_half(h, ws, uv=uv, out=ws.plan.half("k1"), want_diag=True)
            bundle = compute_norm_bundle(SpectralField(grid, h), config.gamma, config.p_max)
            on_record(DiagnosticsRecord(t, bundle, dt_used, discarded))
        if snap > 0 and (step % snap == 0 or final):
            phys = dft_inverse(SpectralField(grid, h)).values
            on_snapshot(Snapshot(grid.n, config.gamma, t, step, phys))
        if final:
            return
        dt = min(_cfl_dt(uv, config.cfl, grid.dx), t_end - t)
        if not (dt > 0 and math.isfinite(dt)):
            raise BlowUpError(t, step)
        h = _rk4_half(h, dt, ws, uv=uv, k1=k1)
        if not np.all(np.isfinite(h)):
            raise BlowUpError(t + dt, step + 1)
        t, step, dt_used = t + dt, step + 1, dt


# ---------------------------------------------------------------------------
# envelope fits
# ---------------------------------------------------------------------------

ENVELOPE_CEILING = 1e6  # an envelope constant above this is reported violated


@dataclass(frozen=True)
class EnvelopeReport:
    """Smallest constants closing the negative- and positive-order norm
    growth bounds along a discrete trajectory.

    c_a closes d/dt ||w||_{H^-1}^2 <= c_a (||w0||_2 ||w||_{H^-1}^2
    + ||w0||_2^2 ||w||_{H^-1}); c_b closes d/dt ||w||_{H^1}^2 <= c_b
    ||w0||_{H^1} log(||w||_{H^1} + ||w0||_2 + e) ||w||_{H^1}^2.  Each is the
    largest per-interval ratio; "violated" flags one above ENVELOPE_CEILING.
    """

    c_a: float
    c_b: float
    violated: bool


def gronwall_envelope(
    records: list[DiagnosticsRecord],
    omega0_norms: NormBundle,
) -> EnvelopeReport:
    """Fit the smallest envelope constants along a recorded trajectory.

    Time derivatives are centered finite differences across adjacent
    records; the right-hand sides use midpoint norm values.  Needs at least
    three records.
    """
    if len(records) < 3:
        raise ValueError(f"need at least 3 records, got {len(records)}")
    w0_l2 = omega0_norms.l2
    w0_h1 = omega0_norms.l2 + omega0_norms.h1dot

    c_a = c_b = 0.0
    for a, b in zip(records, records[1:]):
        dt = b.t - a.t
        if dt <= 0:
            continue
        hm_mid = 0.5 * (a.norms.hm1dot + b.norms.hm1dot)
        dy = (b.norms.hm1dot**2 - a.norms.hm1dot**2) / dt
        bound = w0_l2 * hm_mid**2 + w0_l2**2 * hm_mid
        c_a = max(c_a, dy / bound if bound > 0 else 0.0)

        h1_mid = 0.5 * (a.norms.h1dot + b.norms.h1dot)
        dy = (b.norms.h1dot**2 - a.norms.h1dot**2) / dt
        bound = w0_h1 * math.log(h1_mid + w0_l2 + math.e) * h1_mid**2
        c_b = max(c_b, dy / bound if bound > 0 else 0.0)

    return EnvelopeReport(c_a, c_b, max(c_a, c_b) > ENVELOPE_CEILING)
