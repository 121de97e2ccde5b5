"""Fourier representation of periodic scalar fields on the square torus [0, 2pi)^2.

Spectral data lives on the integer frequency lattice k = (k1, k2),
ki in {-n/2, ..., n/2 - 1}, in numpy fft layout: whole, or for a real field
its rfft half (columns k2 = 0 .. n/2).  The forward transform is normalized
so that a coefficient equals the amplitude of its mode: a pure mode
A*exp(i k.x) transforms to the single coefficient A at k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Grid",
    "RealField",
    "SpectralField",
    "NonRealFieldError",
    "dft_forward",
    "dft_inverse",
    "gradient",
    "perp_gradient",
    "inv_laplacian",
    "dealias",
    "project_zero_mean",
    "reflect",
    "hermitian_part",
    "check_full",
    "check_zero_mean",
    "half_spectrum_weights",
    "half_spectrum_l2",
    "half_to_full",
    "add_mode",
    "random_band_half",
    "FOUR_PI_SQ",
    "ZERO_MEAN_TOL",
    "SYMMETRY_RTOL",
]

# Absolute tolerance on the (0,0) coefficient for operators that require a
# zero-mean field, and relative tolerance (in units of max|coeff|) for the
# Hermitian-symmetry check of the inverse transform.
ZERO_MEAN_TOL = 1e-13
SYMMETRY_RTOL = 1e-12
FOUR_PI_SQ = 4.0 * np.pi**2


class NonRealFieldError(ValueError):
    """Spectral coefficients are too asymmetric to describe a real field."""


@dataclass(frozen=True, eq=False)
class Grid:
    """Uniform n-by-n discretization of [0, 2pi)^2 with integer wavevectors.

    Derived attributes (set in ``__post_init__``):

    dx : float
        Grid spacing 2*pi/n; ``dx * n == 2*pi`` exactly in float64 because
        n is a power of two.
    k1 : ndarray, shape (n,)
        Integer frequencies along one axis in fft order.
    kx, ky : ndarray, shape (n, n)
        Frequency lattice; axis 0 is x1, axis 1 is x2.  Read-only broadcast
        views of ``k1`` (no memory of their own): copy before writing.
    k2, kmod : ndarray, shape (n, n)
        |k|^2 and |k|.
    dealias_mask : ndarray of bool, shape (n, n)
        True where max(|k1|, |k2|) <= floor(n/3) (the 2/3-rule band).
    """

    n: int

    def __post_init__(self) -> None:
        if self.n < 8 or (self.n & (self.n - 1)) != 0:
            raise ValueError(f"n must be a power of two >= 8, got {self.n}")
        n = self.n
        object.__setattr__(self, "dx", 2.0 * np.pi / n)
        k1 = np.fft.fftfreq(n, d=1.0 / n)  # exact integers as floats
        object.__setattr__(self, "k1", k1)
        object.__setattr__(self, "kx", np.broadcast_to(k1[:, None], (n, n)))
        object.__setattr__(self, "ky", np.broadcast_to(k1[None, :], (n, n)))
        k2 = k1[:, None] ** 2 + k1[None, :] ** 2
        object.__setattr__(self, "k2", k2)
        object.__setattr__(self, "kmod", np.sqrt(k2))
        band = np.abs(k1) <= n // 3
        object.__setattr__(self, "dealias_mask", band[:, None] & band[None, :])

    def mesh(self):
        """Physical coordinates (X1, X2), each of shape (n, n)."""
        x = np.arange(self.n) * self.dx
        return np.meshgrid(x, x, indexing="ij")


@dataclass(frozen=True, eq=False)
class RealField:
    """Real samples f(x_j) of a periodic scalar field, x_j = j*dx."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self) -> None:
        if self.values.shape != (self.grid.n, self.grid.n):
            raise ValueError("values shape does not match grid")


@dataclass(frozen=True, eq=False)
class SpectralField:
    """Complex coefficients in fft layout: the full lattice (n x n), which the
    operators below need, or the rfft half (n x (n//2 + 1)) of a real field."""

    grid: Grid
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        n = self.grid.n
        if self.coeffs.shape not in ((n, n), (n, n // 2 + 1)):
            raise ValueError("coeffs shape does not match grid")


def reflect(coeffs: np.ndarray) -> np.ndarray:
    """Coefficient array evaluated at -k (index map i -> (-i) mod n)."""
    return np.roll(coeffs[::-1, ::-1], shift=(1, 1), axis=(0, 1))


def hermitian_part(coeffs: np.ndarray) -> np.ndarray:
    """Project onto Hermitian-symmetric coefficients (real-field part)."""
    return 0.5 * (coeffs + np.conj(reflect(coeffs)))


def check_full(s: SpectralField, what: str) -> None:
    """Raise ValueError unless ``s`` holds the full n x n lattice."""
    if s.coeffs.shape[1] != s.grid.n:
        raise ValueError(
            f"{what} needs full-lattice coefficients, got an rfft half "
            f"{s.coeffs.shape}; expand it with half_to_full"
        )


def check_zero_mean(s: SpectralField, what: str) -> None:
    """Raise ValueError unless |coeff(0,0)| <= ZERO_MEAN_TOL."""
    mean = abs(s.coeffs[0, 0])
    if mean > ZERO_MEAN_TOL:
        raise ValueError(f"{what} needs a zero-mean field, |coeff(0,0)| = {mean:.3e}")


def half_spectrum_weights(n: int) -> np.ndarray:
    """Plancherel column weights of the rfft layout (n // 2 + 1 columns).

    Columns 0 and n/2 hold frequencies of their own; every other column
    stands for a +/-k pair, so sum_k |c(k)|^2 over the full lattice equals
    sum_j w[j] * sum_i |c_half[i, j]|^2 for Hermitian coefficients.
    """
    w = np.full(n // 2 + 1, 2.0)
    w[0] = 1.0
    if n % 2 == 0:
        w[-1] = 1.0
    return w


def half_spectrum_l2(half: np.ndarray) -> float:
    """L2 norm of a real field from its leading rfft-layout columns."""
    weights = half_spectrum_weights(half.shape[0])[: half.shape[1]]
    power = half.real**2 + half.imag**2
    return math.sqrt(FOUR_PI_SQ * float(np.sum(power @ weights)))


def half_to_full(half: np.ndarray) -> np.ndarray:
    """Full-lattice coefficients of a real field from its rfft half."""
    n, nh = half.shape
    full = np.empty((n, n), dtype=complex)
    full[:, :nh] = half
    full[:, nh:] = np.conj(half[(-np.arange(n)) % n, n // 2 - 1 : 0 : -1])
    return full


def add_mode(half: np.ndarray, k: tuple[int, int], amp: complex) -> None:
    """Add amp * exp(i k.x) + conj to rfft-layout coefficients: k and -k
    each land in columns 0 .. n/2 or not; on columns 0 and n/2 both do."""
    n = half.shape[0]
    for (k1, k2), c in ((k, amp), ((-k[0], -k[1]), np.conj(amp))):
        if k2 % n <= n // 2:
            half[k1 % n, k2 % n] += c


def random_band_half(grid: Grid, rng: np.random.Generator, band: float) -> np.ndarray:
    """Seeded real field with unit L2 norm and 0 < |k| <= band, in rfft layout:
    the Hermitian part (z(k) + conj z(-k)) / 2 of a standard normal z."""
    n, nh = grid.n, grid.n // 2 + 1
    x = rng.standard_normal((n, n))
    y = rng.standard_normal((n, n))
    mirror = np.ix_((-np.arange(n)) % n, (-np.arange(nh)) % n)
    half = np.empty((n, nh), dtype=complex)
    half.real = x[:, :nh] + x[mirror]
    half.imag = y[:, :nh] - y[mirror]
    half *= 0.5
    kmod = grid.kmod[:, :nh]
    half[(kmod == 0.0) | (kmod > band)] = 0.0
    half /= half_spectrum_l2(half)
    return half


def dft_forward(f: RealField) -> SpectralField:
    """Forward transform: coeff(k) = (1/n^2) sum_j f(x_j) exp(-i k.x_j)."""
    n = f.grid.n
    return SpectralField(f.grid, np.fft.fft2(f.values) / n**2)


def dft_inverse(s: SpectralField) -> RealField:
    """Inverse transform f(x_j) = sum_k coeff(k) exp(i k.x_j), as a real field.

    Raises ``NonRealFieldError`` when the coefficients break Hermitian
    symmetry by more than ``SYMMETRY_RTOL * max|coeff|``; otherwise the
    (roundoff-level) imaginary residue is discarded.
    """
    check_full(s, "dft_inverse")
    c = s.coeffs
    scale = float(np.max(np.abs(c)))
    if scale == 0.0:
        return RealField(s.grid, np.zeros((s.grid.n, s.grid.n)))
    violation = float(np.max(np.abs(c - np.conj(reflect(c)))))
    if violation > SYMMETRY_RTOL * scale:
        raise NonRealFieldError(
            f"Hermitian symmetry violated: |c(k) - conj(c(-k))| = {violation:.3e} "
            f"> {SYMMETRY_RTOL:g} * max|c| = {SYMMETRY_RTOL * scale:.3e}"
        )
    values = np.fft.ifft2(c).real * s.grid.n**2
    return RealField(s.grid, values)


def gradient(s: SpectralField) -> tuple[SpectralField, SpectralField]:
    """Spectral gradient: component m has coefficients i*k_m*coeff(k)."""
    check_full(s, "gradient")
    g = s.grid
    return (
        SpectralField(g, 1j * g.kx * s.coeffs),
        SpectralField(g, 1j * g.ky * s.coeffs),
    )


def perp_gradient(s: SpectralField) -> tuple[SpectralField, SpectralField]:
    """Perpendicular gradient (-d2, d1) of a stream function; divergence-free."""
    check_full(s, "perp_gradient")
    g = s.grid
    return (
        SpectralField(g, -1j * g.ky * s.coeffs),
        SpectralField(g, 1j * g.kx * s.coeffs),
    )


def inv_laplacian(s: SpectralField) -> SpectralField:
    """Inverse Laplacian: coefficients -coeff(k)/|k|^2, zero at k = 0.

    Requires a zero-mean field (|coeff(0,0)| <= ZERO_MEAN_TOL).
    """
    check_full(s, "inv_laplacian")
    check_zero_mean(s, "inverse Laplacian")
    g = s.grid
    k2 = g.k2.copy()
    k2[0, 0] = 1.0
    out = -s.coeffs / k2
    out[0, 0] = 0.0
    return SpectralField(g, out)


def dealias(s: SpectralField) -> SpectralField:
    """Zero all coefficients with max(|k1|, |k2|) > floor(n/3) (2/3 rule)."""
    check_full(s, "dealias")
    return SpectralField(s.grid, np.where(s.grid.dealias_mask, s.coeffs, 0.0))


def project_zero_mean(s: SpectralField) -> SpectralField:
    """Set the (0,0) coefficient to exactly zero."""
    out = s.coeffs.copy()
    out[0, 0] = 0.0
    return SpectralField(s.grid, out)
