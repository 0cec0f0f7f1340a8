"""Slab-by-slab 2D Fourier transforms and the discrete transverse mode lattice.

Convention: the forward transform approximates the continuous integral

    A(O1, O2) = int a(x, y) exp(+i(O1*x + O2*y)) dx dy

(note the plus sign in the kernel), scaled by hx*hy so spectra carry
continuum units. The inverse carries the matching 1/(2 pi)^2 measure.
Because the kernel sign is opposite to numpy's fft, the forward transform
maps onto ifft2 and the inverse onto fft2, with explicit phase factors
anchoring the lattice origin at (x_min, y_min).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import ComplexField, Grid3D, SpectralField


@dataclass(frozen=True)
class ModeLattice:
    """Flattened lattice of transverse angular frequencies (O1, O2).

    Frequencies are the standard DFT set 2*pi*k/(N*h), k in [-N/2, N/2),
    in numpy fft order, flattened with single index m = k1*N + k2.
    """

    omega1: np.ndarray  # shape (N*N,)
    omega2: np.ndarray
    nx: int
    hx: float
    hy: float

    @classmethod
    def for_grid(cls, grid: Grid3D) -> "ModeLattice":
        n = grid.nx
        w1 = 2.0 * np.pi * np.fft.fftfreq(n, d=grid.hx)
        w2 = 2.0 * np.pi * np.fft.fftfreq(n, d=grid.hy)
        o1, o2 = np.meshgrid(w1, w2, indexing="ij")
        o1 = o1.ravel()
        o2 = o2.ravel()
        o1.setflags(write=False)
        o2.setflags(write=False)
        return cls(omega1=o1, omega2=o2, nx=n, hx=grid.hx, hy=grid.hy)

    @property
    def n_modes(self) -> int:
        return self.nx * self.nx

    def symmetry_classes(self) -> tuple[np.ndarray, np.ndarray]:
        """(rep, class_of): one representative mode per class, and each mode's class.

        A kernel sampled on the centred lattice is even in each of k1 and
        k2, and symmetric under swapping them when hx == hy, so a mode's
        class is (|k1|, |k2|), taken as (min, max) when the spacings are
        equal. The representative is the class's lowest mode index; classes
        are numbered in order of (|k1|, |k2|). (N/2+1)(N/2+2)/2 classes with
        equal spacings, (N/2+1)^2 otherwise.
        """
        n = self.nx
        k = np.abs(np.fft.fftfreq(n, d=1.0 / n)).astype(np.intp)
        a1, a2 = np.repeat(k, n), np.tile(k, n)  # |k1|, |k2| of mode k1*N + k2
        if self.hx == self.hy:
            a1, a2 = np.minimum(a1, a2), np.maximum(a1, a2)
        _, rep, class_of = np.unique(a1 * (n + 1) + a2, return_index=True, return_inverse=True)
        return rep, class_of


def _phase_factors(grid: Grid3D) -> tuple[np.ndarray, np.ndarray]:
    # exp(+i O1 x_min) and exp(+i O2 y_min) along each transverse axis
    n = grid.nx
    w1 = 2.0 * np.pi * np.fft.fftfreq(n, d=grid.hx)
    w2 = 2.0 * np.pi * np.fft.fftfreq(n, d=grid.hy)
    return np.exp(1j * w1 * grid.x_min), np.exp(1j * w2 * grid.y_min)


def forward_slab(slab: np.ndarray, grid: Grid3D) -> np.ndarray:
    """Transform one (or a batch of) N x N slab(s); last two axes transverse."""
    n = grid.nx
    px, py = _phase_factors(grid)
    spec = np.fft.ifft2(slab, axes=(-2, -1)) * (n * n * grid.hx * grid.hy)
    spec *= px[:, None] * py[None, :]
    return spec


def inverse_slab(spec: np.ndarray, grid: Grid3D) -> np.ndarray:
    """Inverse of forward_slab on the last two axes."""
    px, py = _phase_factors(grid)
    scaled = spec * (np.conj(px)[:, None] * np.conj(py)[None, :])
    return np.fft.fft2(scaled, axes=(-2, -1)) / (grid.nx * grid.ny * grid.hx * grid.hy)


def forward_xy(field: ComplexField) -> SpectralField:
    """2D Fourier transform of every z-slab, kernel exp(+i Omega . r).

    Returns a SpectralField whose values approximate the continuous
    transverse transform of the sampled field (Parseval holds under the
    hx*hy / (2 pi)^-2 scaling pair).
    """
    grid = field.grid
    slabs = np.moveaxis(field.values, 2, 0)  # (nz, nx, ny)
    spec = forward_slab(slabs, grid)
    values = spec.reshape(grid.nz, grid.nx * grid.ny).T
    return SpectralField(grid, values)


def inverse_xy(spec: SpectralField) -> ComplexField:
    """Inverse transform; inverse_xy(forward_xy(f)) == f to round-off."""
    grid = spec.grid
    slabs = spec.values.T.reshape(grid.nz, grid.nx, grid.ny)
    out = inverse_slab(slabs, grid)
    return ComplexField(grid, np.moveaxis(out, 0, 2))
