"""Iterative spectral solution of the scattering system and receiver-data synthesis.

Starting from the incident spectrum U0, the iteration

    U_{n+1} = U0 + w^2 * int G_hat(z - z') F[xi * F^-1[U_n]] dz'

runs per transverse mode, the integral being one GreenKernelTable.apply,
stopping when the update norm falls below tol * ||U0||. The scattered receiver
data W follows from the converged interaction term V = F[xi * F^-1[U]] through
the scatterer-to-receiver kernel table. The inhomogeneity is local, so V is
transformed only on the z-slabs where xi is nonzero; a zero slab transforms
to zeros, so skipping it changes no result.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import ComplexField, Grid3D, SpectralField, l2_norm, spectral_norm
from .medium import GreenKernelTable
from .spectral import forward_slab, inverse_slab, inverse_xy

# consecutive residual increases tolerated before declaring divergence
_GROWTH_LIMIT = 10


class ForwardError(RuntimeError):
    """Born iteration gave no usable internal field."""


class DivergenceError(ForwardError):
    """Born iteration left the contraction regime (residuals grow)."""


@dataclass(frozen=True)
class ForwardResult:
    """Converged internal spectrum plus iteration diagnostics."""

    u_spec: SpectralField
    iterations: int
    residual_history: np.ndarray  # per-iteration update norms ||U_n - U_{n-1}||
    converged: bool


def _interaction_spectral(
    u_values: np.ndarray, xi_samples: np.ndarray, grid: Grid3D
) -> np.ndarray:
    """V = F[xi * F^-1[U]] for spectral values of shape (n_modes, nz), transformed
    only on the slabs where xi is nonzero somewhere; V is zero on the others."""
    nz, n = grid.nz, grid.nx
    live = np.flatnonzero(xi_samples.any(axis=(0, 1)))
    slabs = inverse_slab(u_values.T.reshape(nz, n, n)[live], grid)
    slabs *= np.moveaxis(xi_samples[:, :, live], 2, 0)
    out = np.zeros((n * n, nz), dtype=complex)
    out[:, live] = forward_slab(slabs, grid).reshape(live.size, n * n).T
    return out


def interaction_spectral(
    u_spec: SpectralField, xi_samples: np.ndarray
) -> SpectralField:
    """Spectrum of the interaction term xi * u from the field spectrum."""
    grid = u_spec.grid
    if xi_samples.shape != grid.shape:
        raise ValueError("xi samples must live on the field's grid")
    return SpectralField(grid, _interaction_spectral(u_spec.values, xi_samples, grid))


def born_iterate(
    u0_spec: SpectralField,
    kernel_xx: GreenKernelTable,
    xi_samples: np.ndarray,
    tol: float = 1e-13,
    max_iter: int = 1000,
) -> ForwardResult:
    """Fixed-point iteration for the internal field spectrum.

    Parameters
    ----------
    u0_spec : SpectralField
        Incident spectrum on the scatterer grid.
    kernel_xx : GreenKernelTable
        Scatterer-to-scatterer kernel table; its omega is the frequency.
    xi_samples : (nx, ny, nz) real ndarray
        Inhomogeneity coefficient on the scatterer grid.
    tol : float
        Relative stopping tolerance ||U_n - U_{n-1}|| <= tol * ||U0||.
    max_iter : int
        Iteration cap; reaching it returns converged=False.

    Raises
    ------
    DivergenceError
        If the update norm grows over 10 consecutive iterations.
    """
    grid = u0_spec.grid
    if kernel_xx.n_rows != grid.nz or kernel_xx.n_cols != grid.nz:
        raise ValueError("kernel table does not cover the scatterer grid")
    if xi_samples.shape != grid.shape:
        raise ValueError("xi samples must live on the scatterer grid")

    u0 = u0_spec.values
    norm0 = spectral_norm(u0_spec)
    threshold = tol * norm0

    u = u0.copy()
    residuals: list[float] = []
    growth = 0
    converged = False
    for _ in range(max_iter):
        v = _interaction_spectral(u, xi_samples, grid)
        u_next = u0 + kernel_xx.apply(v)
        res = float(np.linalg.norm(u_next - u))
        residuals.append(res)
        u = u_next
        if res <= threshold:
            converged = True
            break
        if len(residuals) > 1 and res > residuals[-2]:
            growth += 1
            if growth >= _GROWTH_LIMIT:
                raise DivergenceError(
                    f"update norm grew for {growth} consecutive iterations "
                    f"(omega = {kernel_xx.omega}; scatterer too strong for the Born series)"
                )
        else:
            growth = 0

    return ForwardResult(
        u_spec=SpectralField(grid, u),
        iterations=len(residuals),
        residual_history=np.asarray(residuals),
        converged=converged,
    )


def scattered_data(
    kernel_xy: GreenKernelTable, recv_grid: Grid3D, v_spec: SpectralField
) -> tuple[SpectralField, ComplexField]:
    """Receiver-layer data W = w^2 int G_hat(z - z') V dz' from the interaction
    spectrum V (interaction_spectral).

    Returns
    -------
    (w_spec, w_field) : spectrum and field of W on the receiver grid.
    """
    src_grid = v_spec.grid
    if kernel_xy.n_cols != src_grid.nz or kernel_xy.n_rows != recv_grid.nz:
        raise ValueError("kernel table shape does not match the grids")
    w_spec = SpectralField(recv_grid, kernel_xy.apply(v_spec.values))
    return w_spec, inverse_xy(w_spec)


def add_noise(w_field: ComplexField, delta: float, seed: int) -> ComplexField:
    """Additive complex Gaussian noise scaled to an exact relative level.

    Independent real/imaginary normal deviates are rescaled so that
    ||W_noisy - W|| = delta * ||W|| in the volume-weighted L2 norm, making
    delta the measured data accuracy. delta = 0 returns the input unchanged.
    """
    if delta < 0.0:
        raise ValueError("delta must be nonnegative")
    if delta == 0.0:
        return w_field
    rng = np.random.default_rng(seed)
    shape = w_field.values.shape
    noise = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    noise_field = ComplexField(w_field.grid, noise)
    scale = delta * l2_norm(w_field) / l2_norm(noise_field)
    return ComplexField(w_field.grid, w_field.values + scale * noise)
