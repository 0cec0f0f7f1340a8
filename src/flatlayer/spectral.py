"""Slab-by-slab 2D Fourier transforms and the discrete transverse mode lattice.

Convention: the forward transform approximates the continuous integral

    A(O1, O2) = int a(x, y) exp(+i(O1*x + O2*y)) dx dy

(note the plus sign in the kernel), scaled by hx*hy so spectra carry
continuum units. The inverse carries the matching 1/(2 pi)^2 measure.
Because the kernel sign is opposite to numpy's fft, the forward transform
maps onto ifft2 and the inverse onto fft2, with explicit phase factors
anchoring the lattice origin at (x_min, y_min). The slab transforms take
(k, N, N) slabs to per-mode values (N*N, k) and back; no other module
converts between the two layouts.
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

    nx: int
    hx: float
    hy: float

    @classmethod
    def for_grid(cls, grid: Grid3D) -> "ModeLattice":
        return cls(nx=grid.nx, hx=grid.hx, hy=grid.hy)

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


def forward_slab(slabs: np.ndarray, grid: Grid3D) -> np.ndarray:
    """Per-mode values (N*N, k) of a batch of k N x N slabs, shape (k, N, N).

    The transform writes into the per-mode array through a (k, N, N) view of it and
    scales there, so it allocates nothing else of that size.
    """
    n, k = grid.nx, slabs.shape[0]
    px, py = _phase_factors(grid)
    values = np.empty((n * n, k), dtype=complex)
    spec = values.T.reshape(k, n, n)
    np.fft.ifftn(slabs, axes=(-2, -1), out=spec)  # numpy's ifft2 ignores out
    spec *= n * n * grid.hx * grid.hy
    spec *= px[:, None] * py[None, :]
    return values


def inverse_slab(values: np.ndarray, grid: Grid3D, out: np.ndarray | None = None) -> np.ndarray:
    """Inverse of forward_slab: the (k, N, N) slabs of per-mode values (N*N, k), written
    into out when it is given, transformed and scaled there."""
    px, py = _phase_factors(grid)
    spec = values.T.reshape(values.shape[1], grid.nx, grid.ny)
    if out is None:
        out = np.empty(spec.shape, dtype=complex)
    np.multiply(spec, np.conj(px)[:, None] * np.conj(py)[None, :], out=out)
    np.fft.fft2(out, axes=(-2, -1), out=out)
    out /= grid.nx * grid.ny * grid.hx * grid.hy
    return out


def forward_xy(field: ComplexField) -> SpectralField:
    """2D Fourier transform of every z-slab, kernel exp(+i Omega . r).

    Returns a SpectralField whose values approximate the continuous
    transverse transform of the sampled field (Parseval holds under the
    hx*hy / (2 pi)^-2 scaling pair).
    """
    return SpectralField(field.grid, forward_slab(np.moveaxis(field.values, 2, 0), field.grid))


def inverse_xy(spec: SpectralField) -> ComplexField:
    """Inverse transform; inverse_xy(forward_xy(f)) == f to round-off."""
    values = np.empty(spec.grid.shape, dtype=complex)
    inverse_slab(spec.values, spec.grid, out=np.moveaxis(values, 2, 0))
    return ComplexField(spec.grid, values)
