"""Fourier representation of periodic scalar fields on the square torus [0, 2pi)^2.

All spectral data lives on the full integer frequency lattice
k = (k1, k2), ki in {-n/2, ..., n/2 - 1}, in numpy fft layout.  The forward
transform is normalized so that a coefficient equals the amplitude of its
mode: a pure mode A*exp(i k.x) transforms to the single coefficient A at k.
"""

from __future__ import annotations

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
    "half_spectrum_weights",
    "ZERO_MEAN_TOL",
    "SYMMETRY_RTOL",
]

# Absolute tolerance on the (0,0) coefficient for operators that require a
# zero-mean field, and relative tolerance (in units of max|coeff|) for the
# Hermitian-symmetry check of the inverse transform.
ZERO_MEAN_TOL = 1e-13
SYMMETRY_RTOL = 1e-12


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
        Frequency lattice; axis 0 is x1, axis 1 is x2.
    k2, kmod : ndarray, shape (n, n)
        |k|^2 and |k|.
    dealias_mask : ndarray of bool, shape (n, n)
        True where max(|k1|, |k2|) <= floor(n/3) (the 2/3-rule band).
    """

    n: int

    def __post_init__(self) -> None:
        if self.n < 8 or (self.n & (self.n - 1)) != 0:
            raise ValueError(f"n must be a power of two >= 8, got {self.n}")
        object.__setattr__(self, "dx", 2.0 * np.pi / self.n)
        k1 = np.fft.fftfreq(self.n, d=1.0 / self.n)  # exact integers as floats
        kx, ky = np.meshgrid(k1, k1, indexing="ij")
        object.__setattr__(self, "k1", k1)
        object.__setattr__(self, "kx", kx)
        object.__setattr__(self, "ky", ky)
        object.__setattr__(self, "k2", kx**2 + ky**2)
        object.__setattr__(self, "kmod", np.sqrt(kx**2 + ky**2))
        cut = self.n // 3
        mask = (np.abs(kx) <= cut) & (np.abs(ky) <= cut)
        object.__setattr__(self, "dealias_mask", mask)

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
    """Complex coefficients on the full frequency lattice in fft layout."""

    grid: Grid
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        if self.coeffs.shape != (self.grid.n, self.grid.n):
            raise ValueError("coeffs shape does not match grid")


def reflect(coeffs: np.ndarray) -> np.ndarray:
    """Coefficient array evaluated at -k (index map i -> (-i) mod n)."""
    return np.roll(coeffs[::-1, ::-1], shift=(1, 1), axis=(0, 1))


def hermitian_part(coeffs: np.ndarray) -> np.ndarray:
    """Project onto Hermitian-symmetric coefficients (real-field part)."""
    return 0.5 * (coeffs + np.conj(reflect(coeffs)))


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
    g = s.grid
    return (
        SpectralField(g, 1j * g.kx * s.coeffs),
        SpectralField(g, 1j * g.ky * s.coeffs),
    )


def perp_gradient(s: SpectralField) -> tuple[SpectralField, SpectralField]:
    """Perpendicular gradient (-d2, d1) of a stream function; divergence-free."""
    g = s.grid
    return (
        SpectralField(g, -1j * g.ky * s.coeffs),
        SpectralField(g, 1j * g.kx * s.coeffs),
    )


def inv_laplacian(s: SpectralField) -> SpectralField:
    """Inverse Laplacian: coefficients -coeff(k)/|k|^2, zero at k = 0.

    Requires a zero-mean field (|coeff(0,0)| <= ZERO_MEAN_TOL).
    """
    mean = abs(s.coeffs[0, 0])
    if mean > ZERO_MEAN_TOL:
        raise ValueError(
            f"inverse Laplacian needs a zero-mean field, |coeff(0,0)| = {mean:.3e}"
        )
    g = s.grid
    k2 = g.k2.copy()
    k2[0, 0] = 1.0
    out = -s.coeffs / k2
    out[0, 0] = 0.0
    return SpectralField(g, out)


def dealias(s: SpectralField) -> SpectralField:
    """Zero all coefficients with max(|k1|, |k2|) > floor(n/3) (2/3 rule)."""
    return SpectralField(s.grid, np.where(s.grid.dealias_mask, s.coeffs, 0.0))


def project_zero_mean(s: SpectralField) -> SpectralField:
    """Set the (0,0) coefficient to exactly zero."""
    out = s.coeffs.copy()
    out[0, 0] = 0.0
    return SpectralField(s.grid, out)
