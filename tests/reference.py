"""Full-lattice reference implementations for the tests.

The package stores a real field by the rfft half of its coefficients.  The
helpers here work on the whole n x n lattice in numpy fft order, the way the
operators were first written, so the tests can check the half-spectrum code
against an independent computation.
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy.fft

from logeuler import solver
from logeuler.multipliers import is_dyadic, phi_eval, tgamma_eval
from logeuler.norms import compute_norm_bundle
from logeuler.spectral import (ZERO_MEAN_TOL, Grid, RealField, SpectralField,
                               dealias, dft_inverse)

SYMMETRY_RTOL = 1e-12


@dataclass(frozen=True, eq=False)
class FullField:
    """Complex coefficients on the full n x n lattice in fft layout."""

    grid: Grid
    coeffs: np.ndarray


def lattice(n: int):
    """Full-lattice wavevector components k1, k2 (axis 0, axis 1), |k|^2, |k|."""
    k = np.fft.fftfreq(n, d=1.0 / n)
    kx, ky = np.meshgrid(k, k, indexing="ij")
    k2 = kx**2 + ky**2
    return kx, ky, k2, np.sqrt(k2)


def reflect(coeffs: np.ndarray) -> np.ndarray:
    """Coefficient array evaluated at -k (index map i -> (-i) mod n) on its
    last two axes."""
    return np.roll(coeffs[..., ::-1, ::-1], shift=(1, 1), axis=(-2, -1))


def hermitian_part(coeffs: np.ndarray) -> np.ndarray:
    """Project onto Hermitian-symmetric coefficients (real-field part)."""
    return 0.5 * (coeffs + np.conj(reflect(coeffs)))


def band_mask(n: int, band: float) -> np.ndarray:
    """Full-lattice mask of 0 < |k| <= band."""
    kmod = lattice(n)[3]
    return (kmod > 0) & (kmod <= band)


def two_draw_band(n: int, rng: np.random.Generator, band: float, draws=()):
    """Full-lattice random band members as first drawn, of shape
    ``draws + (n, n)``, each with unit L2 norm: the Hermitian part of a
    standard complex normal over the whole lattice, zero outside
    0 < |k| <= band.  The law ``random_band_half`` keeps."""
    shape = tuple(draws) + (n, n)
    z = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    c = hermitian_part(np.where(band_mask(n, band), z, 0.0))
    power = np.sum(np.abs(c) ** 2, axis=(-2, -1), keepdims=True)
    return c / np.sqrt(4.0 * np.pi**2 * power)


def box_draw_band(n: int, rng: np.random.Generator, band: float) -> np.ndarray:
    """Full-lattice coefficients, not yet normalized, of the box draw: one
    standard complex normal (real part drawn first) per k in |k1| <= b,
    0 <= k2 <= b, b = min(floor(band), n/2), rows in fft order; weighted
    sqrt(2) on the columns that do not hold their own mirror image (all but
    0 and n/2), then the Hermitian part, zero outside 0 < |k| <= band."""
    b = min(math.floor(band), n // 2)
    rows = n if b == n // 2 else 2 * b + 1
    w = rng.standard_normal((rows, b + 1, 2))
    k1 = np.fft.fftfreq(rows, d=1.0 / rows).astype(int)
    z = np.zeros((n, n), dtype=complex)
    z[k1 % n, : b + 1] = w[..., 0] + 1j * w[..., 1]
    weight = np.where(np.arange(n) % (n // 2) == 0, 1.0, math.sqrt(2.0))
    return hermitian_part(np.where(band_mask(n, band), z * weight, 0.0))


def half_to_full(half: np.ndarray) -> np.ndarray:
    """Full-lattice coefficients of a real field from its rfft half."""
    n, nh = half.shape
    full = np.empty((n, n), dtype=complex)
    full[:, :nh] = half
    full[:, nh:] = np.conj(half[(-np.arange(n)) % n, n // 2 - 1 : 0 : -1])
    return full


def to_full(s: SpectralField) -> FullField:
    return FullField(s.grid, half_to_full(s.coeffs))


def to_half(s: FullField) -> SpectralField:
    return SpectralField(s.grid, s.coeffs[:, : s.grid.n // 2 + 1])


def full_forward(f: RealField) -> FullField:
    """coeff(k) = (1/n^2) sum_j f(x_j) exp(-i k.x_j) on the whole lattice."""
    return FullField(f.grid, np.fft.fft2(f.values) / f.grid.n**2)


def full_inverse(s: FullField) -> RealField:
    """f(x_j) = sum_k coeff(k) exp(i k.x_j); raises ValueError when the
    coefficients break Hermitian symmetry by more than SYMMETRY_RTOL."""
    c = s.coeffs
    violation = float(np.max(np.abs(c - np.conj(reflect(c)))))
    if violation > SYMMETRY_RTOL * float(np.max(np.abs(c))):
        raise ValueError(f"Hermitian symmetry violated by {violation:.3e}")
    return RealField(s.grid, np.fft.ifft2(c).real * s.grid.n**2)


def gradient(s: FullField) -> tuple[FullField, FullField]:
    """Spectral gradient: component m has coefficients i*k_m*coeff(k)."""
    kx, ky, _, _ = lattice(s.grid.n)
    return FullField(s.grid, 1j * kx * s.coeffs), FullField(s.grid, 1j * ky * s.coeffs)


def perp_gradient(s: FullField) -> tuple[FullField, FullField]:
    """Perpendicular gradient (-d2, d1) of a stream function."""
    kx, ky, _, _ = lattice(s.grid.n)
    return FullField(s.grid, -1j * ky * s.coeffs), FullField(s.grid, 1j * kx * s.coeffs)


def inv_laplacian(s: FullField) -> FullField:
    """Coefficients -coeff(k)/|k|^2, zero at k = 0; needs a zero-mean field."""
    if abs(s.coeffs[0, 0]) > ZERO_MEAN_TOL:
        raise ValueError("inverse Laplacian needs a zero-mean field")
    _, _, k2, _ = lattice(s.grid.n)
    k2[0, 0] = 1.0
    out = -s.coeffs / k2
    out[0, 0] = 0.0
    return FullField(s.grid, out)


def power_loop_norms(f: RealField, p_top: int) -> dict:
    """{p: ||f||_p} for p = 2 .. p_top by a plain power loop on fresh
    arrays: m = max|f|, b = |f|/m, b^p as b^(p-1) * b, and
    m (sum b^p dx^2)^(1/p) at every p; 0.0 for a zero field."""
    base = np.abs(f.values)
    m = float(base.max())
    if m == 0.0:
        return dict.fromkeys(range(2, p_top + 1), 0.0)
    base = base / m
    acc, out = base * base, {}
    for p in range(2, p_top + 1):
        out[p] = m * (float(np.sum(acc)) * f.grid.dx**2) ** (1.0 / p)
        acc = acc * base
    return out


def tgamma_symbol(gamma: float):
    """The log-smoothing symbol r -> 1/log^gamma(r + 10) as a function."""
    if gamma < 0:
        raise ValueError(f"gamma must be >= 0, got {gamma}")
    return lambda r: tgamma_eval(r, gamma)


def identity_symbol():
    return lambda r: np.ones_like(np.asarray(r, float))


def apply_multiplier(s: FullField, m) -> FullField:
    """Multiply coefficients by the radial symbol m(|k|)."""
    return FullField(s.grid, s.coeffs * m(lattice(s.grid.n)[3]))


def lp_project(s: FullField, N, kind: str) -> FullField:
    """Multiply by phi(|k|/N) ("leq"), phi(|k|/N) - phi(2|k|/N) ("at") or
    1 - phi(|k|/N) ("gt"); N must be dyadic."""
    if not is_dyadic(N):
        raise ValueError(f"N must be dyadic, got {N!r}")
    r = lattice(s.grid.n)[3] / float(N)
    if kind == "leq":
        w = phi_eval(r)
    elif kind == "at":
        w = phi_eval(r) - phi_eval(2.0 * r)
    else:
        w = 1.0 - phi_eval(r)
    return FullField(s.grid, s.coeffs * w)


def velocity_spectral(omega: FullField, gamma: float) -> tuple[FullField, FullField]:
    """u = perp_grad(inv_laplacian(T_gamma omega))."""
    return perp_gradient(inv_laplacian(apply_multiplier(omega, tgamma_symbol(gamma))))


def biot_savart(omega: FullField, gamma: float) -> tuple[RealField, RealField]:
    u1, u2 = velocity_spectral(omega, gamma)
    return full_inverse(u1), full_inverse(u2)


def dft_matrices(n: int):
    """Explicit 1-D DFT matrices: forward (1/n) exp(-i k x_j) and inverse
    exp(i k x_j), rows and columns in fft order."""
    k = np.fft.fftfreq(n, d=1.0 / n)
    x = np.arange(n) * (2.0 * np.pi / n)
    inverse = np.exp(1j * np.outer(x, k))
    return inverse.conj().T / n, inverse


def direct_rhs(half: np.ndarray, gamma: float, mollify_n: int | None) -> np.ndarray:
    """Advection tendency -P(u . grad P omega) on the full lattice by explicit
    DFT matrix products; ``mollify_n`` None is the sharp 2/3-rule truncation.
    Valid for fields with nothing on the Nyquist row or column."""
    n = half.shape[0]
    c = half_to_full(half)
    fwd, inv = dft_matrices(n)
    kx, ky, k2, kmod = lattice(n)
    k2[0, 0] = 1.0
    sharp = (np.abs(kx) <= n // 3) & (np.abs(ky) <= n // 3)
    inner = sharp.astype(float) if mollify_n is None else phi_eval(kmod / mollify_n)
    psi = tgamma_eval(kmod, gamma) * c / k2
    psi[0, 0] = 0.0

    def phys(coeffs):
        return (inv @ coeffs @ inv.T).real

    u1, u2 = phys(1j * ky * psi), phys(-1j * kx * psi)
    wx, wy = phys(1j * kx * inner * c), phys(1j * ky * inner * c)
    out = -(inner * sharp) * (fwd @ (u1 * wx + u2 * wy) @ fwd.T)
    out[0, 0] = 0.0
    return out


def scipy_rhs(half: np.ndarray, gamma: float, mollify_n: int | None) -> np.ndarray:
    """Advection tendency on the rfft half with the solver's multipliers and
    allocating ``scipy.fft`` 2-D transforms, the way it was computed before
    the transform plan; ``mollify_n`` None is the sharp 2/3-rule truncation."""
    n = half.shape[0]
    g = Grid(n)
    k2 = g.k2.copy()
    k2[0, 0] = 1.0
    n2 = float(n * n)
    m = tgamma_eval(g.kmod, gamma)
    u1_mult = 1j * g.ky * m / k2 * n2
    u2_mult = -1j * g.kx * m / k2 * n2
    u1_mult[0, 0] = 0.0
    u2_mult[0, 0] = 0.0
    if mollify_n is None:
        chi_inner = chi_outer = g.dealias_mask.astype(float)
    else:
        chi_inner = phi_eval(g.kmod / float(mollify_n))
        chi_outer = chi_inner * g.dealias_mask

    def phys(mult):
        return scipy.fft.irfft2(mult * half, s=(n, n))

    u1, u2 = phys(u1_mult), phys(u2_mult)
    wx, wy = phys(1j * g.kx * chi_inner * n2), phys(1j * g.ky * chi_inner * n2)
    out = (-chi_outer * (1.0 / n2)) * scipy.fft.rfft2(u1 * wx + u2 * wy)
    out[0, 0] = 0.0
    return out


def serial_run(config, on_record, on_snapshot) -> None:
    """``solver.run`` on the calling thread alone: each record's norm bundle
    taken and handed to ``on_record`` before the snapshot and the step, the
    way the loop was written before the bundle moved to a helper thread."""
    grid = Grid(config.n)
    h = dealias(solver.make_ic(config.ic, grid)).coeffs
    ws = solver._workspace(grid, config.gamma, config.mollify_n)
    t_end, snap = config.t_max, config.snapshot_interval
    t, step, dt_used = 0.0, 0, 0.0
    while True:
        uv = solver._velocity_phys(h, ws.vel, ws.plan)
        final = not t < t_end * (1.0 - 1e-14)
        k1 = None
        if step % config.diag_interval == 0 or final:
            k1, discarded = solver._rhs_half(h, ws, uv=uv, out=ws.plan.half("k1"),
                                             want_diag=True)
            bundle = compute_norm_bundle(SpectralField(grid, h), config.gamma,
                                         config.p_max)
            on_record(solver.DiagnosticsRecord(t, bundle, dt_used, discarded))
        if snap > 0 and (step % snap == 0 or final):
            phys = dft_inverse(SpectralField(grid, h)).values
            on_snapshot(solver.Snapshot(grid.n, config.gamma, t, step, phys))
        if final:
            return
        dt = min(solver._cfl_dt(uv, config.cfl, grid.dx), t_end - t)
        if not (dt > 0 and math.isfinite(dt)):
            raise solver.BlowUpError(t, step)
        h = solver._rk4_half(h, dt, ws, uv=uv, k1=k1)
        if not np.all(np.isfinite(h)):
            raise solver.BlowUpError(t + dt, step + 1)
        t, step, dt_used = t + dt, step + 1, dt
