"""Time integration of the log-regularized vorticity equation on the torus.

The spatial discretization is the frequency-truncated system
``d/dt omega = -P(u . grad P omega)`` with ``u`` the log-smoothed
Biot-Savart velocity of the *untruncated* vorticity.  ``P`` is either a
smooth dyadic low-pass (mollified mode) or the sharp 2/3-rule projection
(dealias-only mode); quadratic products are always formed in physical space
and dealiased.  Time stepping is classical RK4 under an adaptive CFL
constraint.

For speed the stepping loop works on half-spectrum (rfft-layout) arrays;
the public API exchanges full-lattice ``SpectralField`` values.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.fft as _fft

from .multipliers import is_dyadic, phi_eval, tgamma_eval
from .norms import FOUR_PI_SQ, NormBundle, compute_norm_bundle
from .spectral import (
    ZERO_MEAN_TOL,
    Grid,
    RealField,
    SpectralField,
    dealias,
    half_spectrum_weights,
    hermitian_part,
    project_zero_mean,
)

__all__ = [
    "InitialConditionSpec",
    "SolverConfig",
    "SolverState",
    "DiagnosticsRecord",
    "FieldSnapshot",
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
        if not math.isfinite(self.amplitude):
            raise ValueError(f"ic amplitude must be finite, got {self.amplitude}")
        if not (math.isfinite(self.width) and self.width > 0):
            raise ValueError(f"ic width must be finite and > 0, got {self.width}")
        if not math.isfinite(self.separation):
            raise ValueError(f"ic separation must be finite, got {self.separation}")


@dataclass(frozen=True)
class SolverConfig:
    """Run parameters; ``seed`` overrides ``ic.seed`` when the run starts."""

    n: int = 256
    gamma: float = 1.5
    t_max: float = 1.0
    cfl: float = 0.5
    mollify: int | str = "auto"   # dyadic N, "dealias", or "auto"
    ic: InitialConditionSpec = field(default_factory=InitialConditionSpec)
    seed: int = 0
    p_max: int = 64
    diag_interval: int = 10
    snapshot_interval: int = 0    # 0 disables snapshots

    def __post_init__(self) -> None:
        if self.n < 8 or (self.n & (self.n - 1)) != 0:
            raise ValueError(f"n must be a power of two >= 8, got {self.n}")
        if self.gamma < 0:
            raise ValueError(f"gamma must be >= 0, got {self.gamma}")
        if not self.t_max > 0:
            raise ValueError(f"t_max must be > 0, got {self.t_max}")
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
class FieldSnapshot:
    t: float
    step_count: int
    omega: RealField


@dataclass(frozen=True)
class RunResult:
    records: list[DiagnosticsRecord]
    snapshots: list[FieldSnapshot]
    blown_up: bool = False
    blowup_t: float | None = None
    blowup_step: int | None = None


# ---------------------------------------------------------------------------
# initial data
# ---------------------------------------------------------------------------

def _add_mode(coeffs: np.ndarray, k: tuple[int, int], amp: complex) -> None:
    n = coeffs.shape[0]
    coeffs[k[0] % n, k[1] % n] += amp
    coeffs[(-k[0]) % n, (-k[1]) % n] += np.conj(amp)


def make_ic(spec: InitialConditionSpec, grid: Grid) -> SpectralField:
    """Zero-mean initial vorticity on the given grid; deterministic per spec."""
    n = grid.n
    coeffs = np.zeros((n, n), dtype=complex)
    if spec.kind == "single_mode":
        if spec.mode == (0, 0):
            raise ValueError("single_mode needs a nonzero wavevector")
        if max(abs(spec.mode[0]), abs(spec.mode[1])) >= n // 2:
            raise ValueError(
                f"single_mode wavevector {spec.mode} is not resolvable on n = {n}"
            )
        _add_mode(coeffs, spec.mode, -0.5j * spec.amplitude)
    elif spec.kind == "shell":
        # sin(x1) sin(x2): four modes on the |k| = sqrt(2) shell
        _add_mode(coeffs, (1, -1), 0.25 * spec.amplitude)
        _add_mode(coeffs, (1, 1), -0.25 * spec.amplitude)
    elif spec.kind == "random_band":
        band = spec.band if spec.band > 0 else max(2, n // 16)
        if band > n // 3:
            raise ValueError(f"ic band {band} exceeds the dealias band {n // 3}")
        rng = np.random.default_rng(spec.seed)
        z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        mask = (grid.kmod > 0) & (grid.kmod <= band)
        coeffs = hermitian_part(np.where(mask, z, 0.0))
        l2 = math.sqrt(FOUR_PI_SQ * float(np.sum(np.abs(coeffs) ** 2)))
        coeffs *= spec.amplitude / l2
    else:  # vortex_pair
        x1, x2 = grid.mesh()
        half = 0.5 * spec.separation
        values = np.zeros((n, n))
        for sign, cx in ((1.0, math.pi - half), (-1.0, math.pi + half)):
            for sx in (-2.0 * math.pi, 0.0, 2.0 * math.pi):
                for sy in (-2.0 * math.pi, 0.0, 2.0 * math.pi):
                    d2 = (x1 - cx - sx) ** 2 + (x2 - math.pi - sy) ** 2
                    values += sign * np.exp(-d2 / (2.0 * spec.width**2))
        coeffs = np.fft.fft2(spec.amplitude * values) / n**2
        coeffs = hermitian_part(coeffs)
    coeffs[0, 0] = 0.0
    return SpectralField(grid, coeffs)


# ---------------------------------------------------------------------------
# half-spectrum workspace
# ---------------------------------------------------------------------------

class _Workspace:
    """Precomputed rfft-layout multiplier arrays for one (n, gamma, mollify)."""

    def __init__(self, grid: Grid, gamma: float, mollify_n: int | None):
        n = grid.n
        nh = n // 2 + 1
        self.n = n
        self.nh = nh
        kx = grid.kx[:, :nh]
        ky = grid.ky[:, :nh]
        kmod = grid.kmod[:, :nh]
        k2 = grid.k2[:, :nh].copy()
        k2[0, 0] = 1.0

        n2 = float(n * n)
        self.inv_n2 = 1.0 / n2
        m = tgamma_eval(kmod, gamma)
        self.u1_mult = 1j * ky * m / k2 * n2   # coeff -> physical u1 via irfft2
        self.u2_mult = -1j * kx * m / k2 * n2
        self.u1_mult[0, 0] = 0.0
        self.u2_mult[0, 0] = 0.0

        sharp = grid.dealias_mask[:, :nh]
        if mollify_n is None:
            chi_inner = sharp.astype(float)
            self.chi_outer = chi_inner
        else:
            chi_inner = phi_eval(kmod / float(mollify_n))
            self.chi_outer = chi_inner * sharp
        self.gx_mult = 1j * kx * chi_inner * n2
        self.gy_mult = 1j * ky * chi_inner * n2
        # outer truncation folded together with the forward-transform
        # normalization and the minus sign of the advection term
        self.neg_chi_scaled = -self.chi_outer * self.inv_n2

        self.col_weight = half_spectrum_weights(n)
        self.rows_reflect = (-np.arange(n)) % n


# least-recently-used workspaces; one takes about 76 MB at n = 1024, so a
# sweep over many (n, gamma, mollify) keeps at most this many alive
WORKSPACE_CACHE_SIZE = 4
_WORKSPACES: OrderedDict[tuple[int, float, int | None], _Workspace] = OrderedDict()


def _workspace(grid: Grid, gamma: float, mollify_n: int | None) -> _Workspace:
    key = (grid.n, float(gamma), mollify_n)
    ws = _WORKSPACES.get(key)
    if ws is None:
        ws = _WORKSPACES[key] = _Workspace(grid, gamma, mollify_n)
        if len(_WORKSPACES) > WORKSPACE_CACHE_SIZE:
            _WORKSPACES.popitem(last=False)
    else:
        _WORKSPACES.move_to_end(key)
    return ws


def _to_half(coeffs: np.ndarray, nh: int) -> np.ndarray:
    return np.ascontiguousarray(coeffs[:, :nh])


def _to_full(h: np.ndarray, ws: _Workspace) -> np.ndarray:
    n, nh = ws.n, ws.nh
    full = np.empty((n, n), dtype=complex)
    full[:, :nh] = h
    full[:, nh:] = np.conj(h[ws.rows_reflect][:, n // 2 - 1 : 0 : -1])
    return full


def _velocity_phys(h: np.ndarray, ws: _Workspace) -> tuple[np.ndarray, np.ndarray]:
    shape = (ws.n, ws.n)
    u1 = _fft.irfft2(ws.u1_mult * h, s=shape)
    u2 = _fft.irfft2(ws.u2_mult * h, s=shape)
    return u1, u2


def _rhs_half(h: np.ndarray, ws: _Workspace, uv=None, want_diag: bool = False):
    """Truncated advection tendency on the half spectrum.

    Returns (tendency, discarded) where discarded is the L2 energy removed
    from the advection product by the outer truncation (None unless
    want_diag).
    """
    shape = (ws.n, ws.n)
    u1, u2 = _velocity_phys(h, ws) if uv is None else uv
    wx = _fft.irfft2(ws.gx_mult * h, s=shape)
    wy = _fft.irfft2(ws.gy_mult * h, s=shape)
    np.multiply(u1, wx, out=wx)
    np.multiply(u2, wy, out=wy)
    wx += wy
    a = _fft.rfft2(wx)
    out = ws.neg_chi_scaled * a
    out[0, 0] = 0.0
    discarded = None
    if want_diag:
        removed = (1.0 - ws.chi_outer**2) * np.abs(a * ws.inv_n2) ** 2
        discarded = float(FOUR_PI_SQ * np.sum(ws.col_weight * removed))
    return out, discarded


def _check_zero_mean(omega: SpectralField) -> None:
    mean = abs(omega.coeffs[0, 0])
    if mean > ZERO_MEAN_TOL:
        raise ValueError(f"vorticity must have zero mean, |coeff(0,0)| = {mean:.3e}")


def rhs(omega: SpectralField, gamma: float, mollify="auto") -> SpectralField:
    """Tendency -P(u . grad P omega) with u = perp_grad inv_lap T_gamma omega.

    ``mollify`` follows SolverConfig.mollify: a dyadic cutoff for the smooth
    truncation, "dealias" for the sharp 2/3 projection, or "auto".
    """
    _check_zero_mean(omega)
    ws = _workspace(omega.grid, gamma, _resolve_mollify(omega.grid.n, mollify))
    out, _ = _rhs_half(_to_half(omega.coeffs, ws.nh), ws)
    return SpectralField(omega.grid, _to_full(out, ws))


def cfl_dt(omega: SpectralField, gamma: float, cfl: float, grid: Grid) -> float:
    """Advective CFL step cfl * dx / max(||u||_inf, guard)."""
    ws = _workspace(grid, gamma, None)
    u1, u2 = _velocity_phys(_to_half(omega.coeffs, ws.nh), ws)
    umax = max(float(np.max(np.abs(u1))), float(np.max(np.abs(u2))))
    return cfl * grid.dx / max(umax, VELOCITY_FLOOR)


def _rk4_half(h: np.ndarray, dt: float, ws: _Workspace, uv=None) -> np.ndarray:
    k1, _ = _rhs_half(h, ws, uv=uv)
    k2, _ = _rhs_half(h + (0.5 * dt) * k1, ws)
    k3, _ = _rhs_half(h + (0.5 * dt) * k2, ws)
    k4, _ = _rhs_half(h + dt * k3, ws)
    out = h + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    out[0, 0] = 0.0
    return out


def step_rk4(state: SolverState, dt: float, config: SolverConfig) -> SolverState:
    """One classical RK4 step; re-projects the mean and checks finiteness."""
    if not dt > 0:
        raise ValueError(f"dt must be > 0, got {dt}")
    grid = state.omega.grid
    ws = _workspace(grid, config.gamma, config.mollify_n)
    h = _rk4_half(_to_half(state.omega.coeffs, ws.nh), dt, ws)
    if not np.all(np.isfinite(h)):
        raise BlowUpError(state.t + dt, state.step_count + 1)
    return SolverState(
        state.t + dt, SpectralField(grid, _to_full(h, ws)), state.step_count + 1
    )


def advance(state: SolverState, config: SolverConfig, dt: float, n_steps: int) -> SolverState:
    """Fixed-step integration helper (used by convergence studies)."""
    if not dt > 0:
        raise ValueError(f"dt must be > 0, got {dt}")
    grid = state.omega.grid
    ws = _workspace(grid, config.gamma, config.mollify_n)
    h = _to_half(state.omega.coeffs, ws.nh)
    t, step = state.t, state.step_count
    for _ in range(n_steps):
        h = _rk4_half(h, dt, ws)
        t += dt
        step += 1
        if not np.all(np.isfinite(h)):
            raise BlowUpError(t, step)
    return SolverState(t, SpectralField(grid, _to_full(h, ws)), step)


def run(config: SolverConfig) -> RunResult:
    """Integrate from t = 0 to t_max under the adaptive CFL constraint.

    Diagnostics are recorded at t = 0, every ``diag_interval`` steps and at
    the final state; snapshots follow ``snapshot_interval`` the same way.
    If non-finite values appear the run stops and returns partial results
    with the blow-up marker set.
    """
    grid = Grid(config.n)
    ic = make_ic(replace(config.ic, seed=config.seed), grid)
    omega0 = dealias(project_zero_mean(ic))
    ws = _workspace(grid, config.gamma, config.mollify_n)
    h = _to_half(omega0.coeffs, ws.nh)

    records: list[DiagnosticsRecord] = []
    snapshots: list[FieldSnapshot] = []
    t = 0.0
    step = 0
    dt_used = 0.0
    recorded_at = -1
    snapped_at = -1

    def record(h, t, step, dt_used):
        nonlocal recorded_at
        full = SpectralField(grid, _to_full(h, ws))
        _, discarded = _rhs_half(h, ws, want_diag=True)
        records.append(
            DiagnosticsRecord(
                t, compute_norm_bundle(full, config.gamma, config.p_max),
                dt_used, discarded,
            )
        )
        recorded_at = step

    def snap(h, t, step):
        nonlocal snapped_at
        phys = _fft.irfft2(h * (grid.n**2), s=(grid.n, grid.n))
        snapshots.append(FieldSnapshot(t, step, RealField(grid, phys)))
        snapped_at = step

    record(h, t, step, dt_used)
    if config.snapshot_interval > 0:
        snap(h, t, step)

    blowup: BlowUpError | None = None
    t_end = config.t_max
    while t < t_end * (1.0 - 1e-14):
        uv = _velocity_phys(h, ws)
        umax = max(float(np.max(np.abs(uv[0]))), float(np.max(np.abs(uv[1]))))
        dt = min(config.cfl * grid.dx / max(umax, VELOCITY_FLOOR), t_end - t)
        if not (dt > 0 and math.isfinite(dt)):
            blowup = BlowUpError(t, step)
            break
        h_next = _rk4_half(h, dt, ws, uv=uv)
        if not np.all(np.isfinite(h_next)):
            blowup = BlowUpError(t + dt, step + 1)
            break
        h = h_next
        t += dt
        step += 1
        dt_used = dt
        if step % config.diag_interval == 0:
            record(h, t, step, dt_used)
        if config.snapshot_interval > 0 and step % config.snapshot_interval == 0:
            snap(h, t, step)

    if recorded_at != step and blowup is None:
        record(h, t, step, dt_used)
    if config.snapshot_interval > 0 and snapped_at != step and blowup is None:
        snap(h, t, step)

    if blowup is not None:
        return RunResult(records, snapshots, True, blowup.t, blowup.step_count)
    return RunResult(records, snapshots)


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
