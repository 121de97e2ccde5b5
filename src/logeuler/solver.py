"""Time integration of the log-regularized vorticity equation on the torus.

The spatial discretization is the frequency-truncated system
``d/dt omega = -P(u . grad P omega)`` with ``u`` the log-smoothed
Biot-Savart velocity of the *untruncated* vorticity.  ``P`` is either a
smooth dyadic low-pass (mollified mode) or the sharp 2/3-rule projection
(dealias-only mode); quadratic products are always formed in physical space
and dealiased.  Time stepping is classical RK4 under an adaptive CFL
constraint.

Vorticity is exchanged as ``SpectralField`` values, the rfft half of the
coefficients; the stepping loop works on their bare arrays, in buffers and
transform-plan slots reused from step to step, and the states it returns
own fresh copies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .multipliers import is_dyadic, phi_eval, tgamma_eval
from .norms import FOUR_PI_SQ, NormBundle, compute_norm_bundle
from .spectral import (
    Grid,
    RealField,
    SpectralField,
    TransformPlan,
    add_mode,
    check_zero_mean,
    dealias,
    dft_forward,
    dft_inverse,
    half_spectrum_weights,
    project_zero_mean,
    random_band_half,
)

__all__ = [
    "InitialConditionSpec",
    "SolverConfig",
    "SolverState",
    "DiagnosticsRecord",
    "Snapshot",
    "RunResult",
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
        self.t = t
        self.step_count = step_count


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
        if self.n < 8 or (self.n & (self.n - 1)) != 0:
            raise ValueError(f"n must be a power of two >= 8, got {self.n}")
        if not (math.isfinite(self.gamma) and self.gamma >= 0):
            raise ValueError(f"gamma must be finite and >= 0, got {self.gamma}")
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
        mode = self.ic.mode
        if self.ic.kind == "single_mode" and tuple(mode) == (0, 0):
            raise ValueError("single_mode needs a nonzero wavevector")
        if self.ic.kind == "single_mode" and max(map(abs, mode)) > self.n // 3:
            # run() dealiases the initial field, which would leave nothing
            raise ValueError(
                f"single_mode wavevector {mode} lies outside the "
                f"dealias band n/3 = {self.n // 3}"
            )
        if self.ic.kind == "random_band" and self.ic.band > self.n // 3:
            raise ValueError(
                f"ic band {self.ic.band} exceeds the dealias band {self.n // 3}"
            )

    @property
    def mollify_n(self) -> int | None:
        """Dyadic cutoff of the smooth truncation, or None in dealias mode."""
        return _resolve_mollify(self.n, self.mollify)


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


@dataclass(frozen=True)
class RunResult:
    records: list[DiagnosticsRecord]
    snapshots: list[Snapshot]
    blown_up: bool = False
    blowup_t: float | None = None
    blowup_step: int | None = None


# ---------------------------------------------------------------------------
# initial data
# ---------------------------------------------------------------------------

def make_ic(spec: InitialConditionSpec, grid: Grid) -> SpectralField:
    """Zero-mean initial vorticity on the given grid; deterministic per spec."""
    n = grid.n
    coeffs = np.zeros((n, n // 2 + 1), dtype=complex)  # rfft layout
    if spec.kind == "single_mode":
        if spec.mode == (0, 0):
            raise ValueError("single_mode needs a nonzero wavevector")
        if max(abs(spec.mode[0]), abs(spec.mode[1])) >= n // 2:
            raise ValueError(
                f"single_mode wavevector {spec.mode} is not resolvable on n = {n}"
            )
        add_mode(coeffs, spec.mode, -0.5j * spec.amplitude)
    elif spec.kind == "shell":
        # sin(x1) sin(x2): four modes on the |k| = sqrt(2) shell
        add_mode(coeffs, (1, -1), 0.25 * spec.amplitude)
        add_mode(coeffs, (1, 1), -0.25 * spec.amplitude)
    elif spec.kind == "random_band":
        band = spec.band if spec.band > 0 else max(2, n // 16)
        if band > n // 3:
            raise ValueError(f"ic band {band} exceeds the dealias band {n // 3}")
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
    """rfft-layout multipliers taking the vorticity to the physical
    velocity (u1, u2) through a backward-normalized inverse transform, for
    one (n, gamma)."""

    def __init__(self, grid: Grid, gamma: float):
        k2 = grid.k2.copy()
        k2[0, 0] = 1.0
        n2 = float(grid.n * grid.n)
        m = tgamma_eval(grid.kmod, gamma)
        self.u1_mult = 1j * grid.ky * m / k2 * n2
        self.u2_mult = -1j * grid.kx * m / k2 * n2
        self.u1_mult[0, 0] = 0.0
        self.u2_mult[0, 0] = 0.0


class _Truncation:
    """Truncation tables and RK4 buffers for one (n, mollify)."""

    def __init__(self, grid: Grid, mollify_n: int | None):
        n = grid.n
        n2 = float(n * n)
        self.inv_n2 = 1.0 / n2
        sharp = grid.dealias_mask
        if mollify_n is None:
            chi_inner = sharp.astype(float)
            chi_outer = chi_inner
        else:
            chi_inner = phi_eval(grid.kmod / float(mollify_n))
            chi_outer = chi_inner * sharp
        self.gx_mult = 1j * grid.kx * chi_inner * n2
        self.gy_mult = 1j * grid.ky * chi_inner * n2
        # outer truncation folded together with the forward-transform
        # normalization and the minus sign of the advection term
        self.neg_chi_scaled = -chi_outer * self.inv_n2
        # share of each mode's energy the outer truncation removes
        self.removed_weight = 1.0 - chi_outer**2
        self.col_weight = half_spectrum_weights(n)

        # RK4: the first stage, the later stages in turn, a stage's
        # argument h + c k, and two result buffers used in turn
        half = (n, n // 2 + 1)
        self.k1, self.k, self.stage = (np.empty(half, dtype=complex) for _ in range(3))
        self.result = (np.empty(half, dtype=complex), np.empty(half, dtype=complex))


@dataclass(frozen=True)
class _Workspace:
    plan: TransformPlan
    vel: _Velocity
    trunc: _Truncation


# at n = 1024 a velocity part takes about 17 MB and a truncation part about
# 67 MB, so a sweep over many (n, gamma, mollify) keeps at most four of each
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
    out = np.multiply(trunc.neg_chi_scaled, a, out=out)
    out[0, 0] = 0.0
    discarded = None
    if want_diag:
        removed = trunc.removed_weight * np.abs(a * trunc.inv_n2) ** 2
        discarded = float(FOUR_PI_SQ * np.sum(trunc.col_weight * removed))
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
    """One RK4 step into the workspace result buffer that ``h`` is not;
    ``k1``, when given, is ``_rhs_half(h, ws)[0]``.

    The operations and their order are those of
    h + (dt/6) (k1 + 2 k2 + 2 k3 + k4) with stage arguments h + c k.
    """
    t = ws.trunc
    if k1 is None:
        k1, _ = _rhs_half(h, ws, uv=uv, out=t.k1)
    k, stage = t.k, t.stage
    out = t.result[1] if h is t.result[0] else t.result[0]
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


def run(config: SolverConfig) -> RunResult:
    """Integrate ``config.ic`` from t = 0 to t_max under the adaptive CFL
    constraint.

    A state at step s gets a diagnostics record when s % diag_interval == 0
    or it is the final state, and a snapshot by the same rule with
    ``snapshot_interval`` (0 disables snapshots).  If the step size or the
    next state is non-finite the run stops and returns what it has, with
    the blow-up marker set.
    """
    grid = Grid(config.n)
    h = dealias(project_zero_mean(make_ic(config.ic, grid))).coeffs
    ws = _workspace(grid, config.gamma, config.mollify_n)
    t_end, snap = config.t_max, config.snapshot_interval
    records: list[DiagnosticsRecord] = []
    snapshots: list[Snapshot] = []
    t, step, dt_used = 0.0, 0, 0.0
    while True:
        # the velocity, and a record's RHS as the step's first RK4 stage,
        # stay in slots that the norm bundle and the snapshot do not touch
        uv = _velocity_phys(h, ws.vel, ws.plan)
        final = not t < t_end * (1.0 - 1e-14)
        k1 = None
        if step % config.diag_interval == 0 or final:
            k1, discarded = _rhs_half(h, ws, uv=uv, out=ws.trunc.k1, want_diag=True)
            bundle = compute_norm_bundle(SpectralField(grid, h), config.gamma, config.p_max)
            records.append(DiagnosticsRecord(t, bundle, dt_used, discarded))
        if snap > 0 and (step % snap == 0 or final):
            phys = dft_inverse(SpectralField(grid, h)).values
            snapshots.append(Snapshot(grid.n, config.gamma, t, step, phys))
        if final:
            return RunResult(records, snapshots)
        dt = min(_cfl_dt(uv, config.cfl, grid.dx), t_end - t)
        if not (dt > 0 and math.isfinite(dt)):
            return RunResult(records, snapshots, True, t, step)
        h = _rk4_half(h, dt, ws, uv=uv, k1=k1)
        if not np.all(np.isfinite(h)):
            return RunResult(records, snapshots, True, t + dt, step + 1)
        t, step, dt_used = t + dt, step + 1, dt


# ---------------------------------------------------------------------------
# envelope fits
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EnvelopeReport:
    """Smallest constants closing the negative- and positive-order norm
    growth bounds along a discrete trajectory.

    c_a closes d/dt ||w||_{H^-1}^2 <= c_a (||w0||_2 ||w||_{H^-1}^2
    + ||w0||_2^2 ||w||_{H^-1}); c_b closes d/dt ||w||_{H^1}^2 <= c_b
    ||w0||_{H^1} log(||w||_{H^1} + ||w0||_2 + e) ||w||_{H^1}^2.  Ratios are
    per-interval; "violated" flags a fit above the ceiling.
    """

    c_a: float
    c_b: float
    ceiling: float
    violated: bool
    ratios_a: tuple[float, ...]
    ratios_b: tuple[float, ...]


def gronwall_envelope(
    records: list[DiagnosticsRecord],
    omega0_norms: NormBundle,
    ceiling: float = 1e6,
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

    ratios_a: list[float] = []
    ratios_b: list[float] = []
    for a, b in zip(records, records[1:]):
        dt = b.t - a.t
        if dt <= 0:
            continue
        hm_mid = 0.5 * (a.norms.hm1dot + b.norms.hm1dot)
        dy = (b.norms.hm1dot**2 - a.norms.hm1dot**2) / dt
        bound = w0_l2 * hm_mid**2 + w0_l2**2 * hm_mid
        ratios_a.append(max(0.0, dy / bound) if bound > 0 else 0.0)

        h1_mid = 0.5 * (a.norms.h1dot + b.norms.h1dot)
        dy = (b.norms.h1dot**2 - a.norms.h1dot**2) / dt
        bound = w0_h1 * math.log(h1_mid + w0_l2 + math.e) * h1_mid**2
        ratios_b.append(max(0.0, dy / bound) if bound > 0 else 0.0)

    c_a = max(ratios_a, default=0.0)
    c_b = max(ratios_b, default=0.0)
    return EnvelopeReport(
        c_a, c_b, ceiling, c_a > ceiling or c_b > ceiling,
        tuple(ratios_a), tuple(ratios_b),
    )
