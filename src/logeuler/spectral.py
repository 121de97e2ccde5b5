"""Fourier representation of real periodic scalar fields on the square torus
[0, 2pi)^2.

Spectral data lives on the integer frequency lattice k = (k1, k2),
ki in {-n/2, ..., n/2 - 1}.  A real field is stored by its rfft half, the
n x (n//2 + 1) array of columns k2 = 0 .. n/2 in numpy fft order; Hermitian
symmetry c(-k) = conj c(k) determines the rest.  Every array of ``Grid``
has that shape.  The last (Nyquist) column keeps the fft frequency
k2 = -n/2, so it is the first n//2 + 1 columns of the full lattice
``fftfreq(n) * n``, not ``rfftfreq``.  One normalization holds everywhere:
a coefficient is the amplitude of its mode (the real field A*exp(i k.x) +
conj has the coefficient A at k), so the forward transform carries 1/n^2,
the inverse no factor, and ``plancherel`` the 4 pi^2 of the torus.

Every transform runs through a ``TransformPlan``, one per grid size and
thread, as two 1-D passes into buffers the plan keeps: pocketfft's 2-D real
transforms allocate temporaries on every call, and at n >= 256 faulting
those pages in costs more than the transform itself.  The plan is the one
owner of mutable per-size scratch; tables cached elsewhere are
``read_only`` and shared by every thread.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "Grid",
    "TransformPlan",
    "transform_plan",
    "RealField",
    "SpectralField",
    "dft_forward",
    "dft_inverse",
    "dealias",
    "check_zero_mean",
    "check_grid_size",
    "half_spectrum_weights",
    "half_spectrum_l2",
    "occupied",
    "plancherel",
    "read_only",
    "mode_sum",
    "random_band_half",
    "FOUR_PI_SQ",
    "ZERO_MEAN_TOL",
]

# Absolute tolerance on the (0,0) coefficient for operators that require a
# zero-mean field.
ZERO_MEAN_TOL = 1e-13
FOUR_PI_SQ = 4.0 * np.pi**2


def _sup_abs(values: np.ndarray) -> float:
    """max |values| without an abs copy of the array."""
    return max(float(values.max()), -float(values.min()))


def check_grid_size(n: int) -> None:
    """Raise ValueError unless n is a power of two >= 8."""
    if n < 8 or (n & (n - 1)) != 0:
        raise ValueError(f"n must be a power of two >= 8, got {n}")


@dataclass(frozen=True, eq=False)
class Grid:
    """Uniform n-by-n discretization of [0, 2pi)^2 with integer wavevectors.

    Derived attributes (set in ``__post_init__``):

    dx : float
        Grid spacing 2*pi/n; ``dx * n == 2*pi`` exactly in float64 because
        n is a power of two.
    k1 : ndarray, shape (n,)
        Integer frequencies along one axis in fft order.
    kx, ky : ndarray, shape (n, n//2 + 1)
        Frequencies of the rfft half; axis 0 is x1, axis 1 is x2, and ky's
        last column is -n/2.  Read-only broadcast views of ``k1`` (no memory
        of their own): copy before writing.

    Lattice tables, read-only and built on first use, one per n shared by
    every grid of that size (the latest four sizes are kept):

    k2, kmod : ndarray, shape (n, n//2 + 1)
        |k|^2 and |k|.
    dealias_mask : ndarray of bool, shape (n, n//2 + 1)
        True where max(|k1|, |k2|) <= floor(n/3) (the 2/3-rule band).
    """

    n: int

    def __post_init__(self) -> None:
        check_grid_size(self.n)
        n, nh = self.n, self.n // 2 + 1
        object.__setattr__(self, "dx", 2.0 * np.pi / n)
        k1 = np.fft.fftfreq(n, d=1.0 / n)  # exact integers as floats
        object.__setattr__(self, "k1", k1)
        object.__setattr__(self, "kx", np.broadcast_to(k1[:, None], (n, nh)))
        object.__setattr__(self, "ky", np.broadcast_to(k1[None, :nh], (n, nh)))

    @property
    def k2(self) -> np.ndarray:
        return _lattice_k2(self.n)

    @property
    def kmod(self) -> np.ndarray:
        return _lattice_kmod(self.n)

    @property
    def dealias_mask(self) -> np.ndarray:
        return _dealias_mask(self.n)

    @property
    def plan(self) -> TransformPlan:
        """The calling thread's transform plan of this grid size."""
        return transform_plan(self.n)

    def mesh(self):
        """Physical coordinates (X1, X2), each of shape (n, n)."""
        x = np.arange(self.n) * self.dx
        return np.meshgrid(x, x, indexing="ij")


def _squared_radii(n: int) -> np.ndarray:
    """|k|^2 on the rfft half of grid size n, exact integers as floats."""
    k1 = Grid(n).k1
    return k1[:, None] ** 2 + k1[None, : n // 2 + 1] ** 2


# at n = 1024 a table takes 4.2 MB (the mask 0.5 MB)
@lru_cache(maxsize=4)
def _lattice_k2(n: int) -> np.ndarray:
    """``Grid.k2`` of size n; read-only."""
    return read_only(_squared_radii(n))


@lru_cache(maxsize=4)
def _lattice_kmod(n: int) -> np.ndarray:
    """``Grid.kmod`` of size n, the bits of sqrt(``Grid.k2``) with no k2
    table kept; read-only."""
    return read_only(np.sqrt(_squared_radii(n)))


@lru_cache(maxsize=4)
def _dealias_mask(n: int) -> np.ndarray:
    """``Grid.dealias_mask`` of size n; read-only."""
    band = np.abs(Grid(n).k1) <= n // 3
    return read_only(band[:, None] & band[None, : n // 2 + 1])


class TransformPlan:
    """Real 2-D transforms of one grid size n into buffers reused across calls.

    The plan owns the package's mutable per-size scratch: one complex work
    buffer, the row block of ``sup_inverse`` and, per slot name, an n x n
    float buffer (``real``) and an rfft-half complex buffer (``half``, e.g.
    the solver's RK4 stages).  An inverse transform overwrites its slot's
    buffer and returns it, so a result stays valid only until the next call
    with the same slot; callers that hand a result on copy it or pass
    ``slot=None`` for a fresh array.
    Both directions are the column and row passes of ``scipy.fft.irfft2`` /
    ``rfft2`` in the same order, in the one normalization (forward 1/n^2,
    inverse none), and give the same bits.  A plan serves one thread at a
    time: ``transform_plan`` gives each thread plans of its own.
    """

    def __init__(self, n: int):
        self.n = n
        self._work = np.empty((n, n // 2 + 1), dtype=complex)
        # work columns from here on are known to be zero
        self._zero_from = n // 2 + 1
        self._slots: dict[tuple[str, type], np.ndarray] = {}

    def _buffer(self, slot: str, shape, dtype) -> np.ndarray:
        buf = self._slots.get((slot, dtype))
        if buf is None:
            buf = self._slots[slot, dtype] = np.empty(shape, dtype=dtype)
        return buf

    def real(self, slot: str) -> np.ndarray:
        """The n x n float buffer of ``slot``, made on first use."""
        return self._buffer(slot, (self.n, self.n), float)

    def half(self, slot: str) -> np.ndarray:
        """The n x (n//2 + 1) complex buffer of ``slot``, made on first use."""
        return self._buffer(slot, self._work.shape, complex)

    def work(self, width: int) -> np.ndarray:
        """The leading ``width`` columns of the complex work buffer, where a
        caller may form coefficients to hand to ``inverse`` in place (valid
        until the plan's next transform).  They no longer count as known
        zero, whether or not an inverse follows."""
        self._zero_from = max(self._zero_from, width)
        return self._work[:, :width]

    def _columns(self, mult, h: np.ndarray) -> np.ndarray:
        """``inverse``'s column pass: the work buffer, ready for the row pass."""
        width = h.shape[1]
        c = self._work[:, :width]
        if mult is None:
            np.fft.ifft(h, axis=0, norm="forward", out=c)
        else:
            np.multiply(mult, h, out=c)
            np.fft.ifft(c, axis=0, norm="forward", out=c)
        if self._zero_from > width:
            self._work[:, width : self._zero_from] = 0.0
        self._zero_from = width
        return self._work

    def inverse(self, mult, h: np.ndarray, slot: str | None) -> np.ndarray:
        """Real samples of the field with rfft-layout coefficients mult*h.

        ``h`` may hold only the leading K columns, the rest taken as zero;
        the column pass then runs on those K columns only, and only the work
        columns from K up to the first one known to be zero are cleared, so
        the row pass needs no zero-padded copy.  ``h`` may be ``work(K)``
        itself.  ``mult`` is None (h itself) or broadcasts against h.  The
        samples go to ``slot``'s buffer, or to a fresh array when ``slot`` is
        None.
        """
        out = None if slot is None else self.real(slot)
        return np.fft.irfft(self._columns(mult, h), n=self.n, axis=1,
                            norm="forward", out=out)

    def sup_inverse(self, mult, h: np.ndarray) -> float:
        """max |f| of the samples ``inverse(mult, h, slot)`` gives, bit for
        bit, with no n x n array written: the row pass runs over blocks of
        rows into the small slot "sup", and each block's max and min are
        read while it is still in cache.  A NaN anywhere gives NaN."""
        n, c = self.n, self._columns(mult, h)
        rows = min(n, _SUP_BYTES // (8 * n))
        out = self._buffer("sup", (rows, n), float)
        peaks = np.empty((n // rows, 2))
        for block, i in zip(peaks, range(0, n, rows)):
            np.fft.irfft(c[i : i + rows], n=n, axis=1, norm="forward", out=out)
            block[:] = out.max(), out.min()
        return _sup_abs(peaks)

    def forward(self, x: np.ndarray) -> np.ndarray:
        """rfft-layout coefficients of the real n x n samples ``x``, in the
        plan's work buffer (valid until the plan's next transform)."""
        c = self._work
        self._zero_from = c.shape[1]
        np.fft.rfft(x, axis=1, norm="forward", out=c)
        return np.fft.fft(c, axis=0, norm="forward", out=c)


# bytes of a sup_inverse row block: 128 rows at n = 1024, one block to n = 256
_SUP_BYTES = 1 << 20

# one plan per grid size and thread; at n = 1024 a real slot takes 8 MB and a
# complex one 8.4 MB, so a thread keeps the plans of its latest four sizes
_thread_plans = threading.local()


def transform_plan(n: int) -> TransformPlan:
    """The calling thread's ``TransformPlan`` of grid size n; a thread's
    plans are freed when it ends (a pool's, when the pool shuts down)."""
    plans = _thread_plans.__dict__.setdefault("by_size", {})
    plans[n] = plans.pop(n, None) or TransformPlan(n)  # now the latest
    if len(plans) > 4:
        del plans[next(iter(plans))]
    return plans[n]


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
    """Complex rfft-half coefficients (n x (n//2 + 1)) of a real field."""

    grid: Grid
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        n = self.grid.n
        if self.coeffs.shape != (n, n // 2 + 1):
            raise ValueError(
                f"coeffs shape {self.coeffs.shape} is not the rfft half "
                f"{(n, n // 2 + 1)} of the grid"
            )


def read_only(table: np.ndarray) -> np.ndarray:
    """Mark a cached table read-only and return it."""
    table.flags.writeable = False
    return table


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


def plancherel(density: np.ndarray) -> float:
    """4 pi^2 times the full-lattice sum of a density even in k, from its rfft half."""
    return FOUR_PI_SQ * float(np.sum(half_spectrum_weights(density.shape[0]) * density))


# rows per block in half_spectrum_l2: a block's power array stays small (one
# over a whole 1024 x 513 half took 3 to 6 times as long)
_L2_ROWS = 64


def half_spectrum_l2(half: np.ndarray, zero_rows: range = range(0)) -> float:
    """L2 norm of a real field from its leading rfft-layout columns: the
    column sums of |c|^2, added block by block of rows, then their weighted
    sum; no BLAS call, so the bits do not follow the BLAS kernel.  A block
    whose rows all lie in ``zero_rows``, which the caller knows to be zero,
    is left out: its +0.0 column sums would change no bit."""
    col_sums = np.zeros(half.shape[1])
    for i in range(0, half.shape[0], _L2_ROWS):
        rows = half[i : i + _L2_ROWS]
        if i in zero_rows and i + len(rows) - 1 in zero_rows:
            continue
        col_sums += np.add.reduce(rows.real**2 + rows.imag**2, axis=0)
    weights = half_spectrum_weights(half.shape[0])[: half.shape[1]]
    return math.sqrt(FOUR_PI_SQ * float(np.sum(weights * col_sums)))


def occupied(coeffs: np.ndarray) -> np.ndarray:
    """The leading rfft-layout columns of ``coeffs`` up to its last nonzero
    (or NaN) one, at least one: ``TransformPlan.inverse`` gives the bits of
    all of ``coeffs`` from them, but for the sign of a zero sample."""
    return coeffs[:, : max(np.flatnonzero(coeffs.any(axis=0)), default=0) + 1]


def mode_sum(grid: Grid, modes) -> SpectralField:
    """The real field sum of amp * exp(i k.x) + conj over the (k, amp) pairs
    of ``modes``, in rfft layout: k and -k each land in columns 0 .. n/2 or
    not; on columns 0 and n/2 both do."""
    n = grid.n
    half = np.zeros((n, n // 2 + 1), dtype=complex)
    for k, amp in modes:
        for (k1, k2), c in ((k, amp), ((-k[0], -k[1]), np.conj(amp))):
            if k2 % n <= n // 2:
                half[k1 % n, k2 % n] += c
    return SpectralField(grid, half)


def random_band_half(grid: Grid, rng: np.random.Generator, band: float) -> np.ndarray:
    """Seeded real field with unit L2 norm and 0 < |k| <= band, in rfft layout,
    with the law of the Hermitian part (z(k) + conj z(-k)) / 2 of a standard
    complex normal z.  Only the box |k1|, k2 <= b = min(floor(band), n/2) is
    drawn, as the rfft half of a rows x rows lattice (rows = 2b + 1, or n once
    b = n/2): variance 1/2 per part on the columns that stand for +/-k pairs,
    the Hermitian part down columns 0 and n/2, which hold their own mirror."""
    n = grid.n
    b = min(math.floor(band), n // 2)
    rows = n if b == n // 2 else 2 * b + 1
    # box rows hold k1 = 0 .. top - 1, then -(rows // 2) .. -1 from the half's row lower
    top, lower = (rows + 1) // 2, n - rows // 2
    box = rng.standard_normal((rows, b + 1, 2)).view(complex)[..., 0]
    box[:, 1 : min(b + 1, n // 2)] *= math.sqrt(0.5)
    for col in box[:, :: n // 2].T:  # row i mirrors row (-i) mod rows
        col[1:] = 0.5 * (col[1:] + col[:0:-1].conj())
        col[0] = col[0].real
    for z, kmod in ((box[:top], grid.kmod[:top]), (box[top:], grid.kmod[lower:])):
        z[(kmod[:, : b + 1] == 0.0) | (kmod[:, : b + 1] > band)] = 0.0
    box /= half_spectrum_l2(box)
    half = box if rows == n else np.zeros((n, n // 2 + 1), dtype=complex)
    half[:top, : b + 1], half[lower:, : b + 1] = box[:top], box[top:]
    return half


def dft_forward(f: RealField) -> SpectralField:
    """Forward transform: coeff(k) = (1/n^2) sum_j f(x_j) exp(-i k.x_j)."""
    coeffs = f.grid.plan.forward(f.values)
    return SpectralField(f.grid, coeffs.copy())


def dft_inverse(s: SpectralField) -> RealField:
    """Inverse transform f(x_j) = sum_k coeff(k) exp(i k.x_j) over the whole
    lattice, the columns k2 < 0 taken as conj coeff(-k)."""
    return RealField(s.grid, s.grid.plan.inverse(None, s.coeffs, None))


def dealias(s: SpectralField) -> SpectralField:
    """Zero all coefficients with max(|k1|, |k2|) > floor(n/3) (2/3 rule)."""
    return SpectralField(s.grid, np.where(s.grid.dealias_mask, s.coeffs, 0.0))
