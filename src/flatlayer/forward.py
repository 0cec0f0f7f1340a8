"""Iterative spectral solution of the scattering system and receiver-data synthesis.

Starting from the incident spectrum U0, the iteration

    U_{n+1} = U0 + w^2 * int G_hat(z - z') F[xi * F^-1[U_n]] dz'

runs per transverse mode, the integral being one GreenKernelTable.apply,
stopping when the update norm falls below tol * ||U0||. The scattered
receiver data W follows from the solved field's interaction term
V = F[xi * F^-1[U]] through the scatterer-to-receiver kernel table. The
inhomogeneity is local, so V is transformed only on the z-slabs where xi is
nonzero; a zero slab transforms to zeros, so skipping it changes no result.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import ComplexField, Grid3D, SpectralField, l2_norm, spectral_norm
from .medium import GreenKernelTable
from .spectral import forward_slab, inverse_slab, inverse_xy

# consecutive update-norm increases that declare divergence
_GROWTH_LIMIT = 10


class ForwardError(RuntimeError):
    """Born iteration gave no usable internal field."""


class DivergenceError(ForwardError):
    """Born iteration left the contraction regime (residuals grow)."""


@dataclass(frozen=True)
class ForwardResult:
    """Internal spectrum that met the tolerance, plus iteration diagnostics."""

    u_spec: SpectralField
    iterations: int
    residual_history: np.ndarray  # per-iteration update norms ||U_n - U_{n-1}||


def interaction_spectral(
    u_values: np.ndarray, xi_samples: np.ndarray, grid: Grid3D
) -> np.ndarray:
    """V = F[xi * F^-1[U]] from per-mode values U of shape (n_modes, nz), transformed
    only on the slabs where xi is nonzero somewhere; V is zero on the others."""
    if xi_samples.shape != grid.shape:
        raise ValueError("xi samples must live on the field's grid")
    live = np.flatnonzero(xi_samples.any(axis=(0, 1)))
    slabs = inverse_slab(u_values[:, live], grid)
    slabs *= np.moveaxis(xi_samples[:, :, live], 2, 0)
    out = np.zeros(u_values.shape, dtype=complex)
    out[:, live] = forward_slab(slabs, grid)
    return out


def born_iterate(
    u0_spec: SpectralField,
    kernel_xx: GreenKernelTable,
    xi_samples: np.ndarray,
    tol: float = 1e-13,
    max_iter: int = 1000,
) -> ForwardResult:
    """Fixed-point iteration for the internal field spectrum, returned once the
    update norm meets the tolerance; every other ending raises.

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
        Iteration cap.

    Raises
    ------
    DivergenceError
        If the last _GROWTH_LIMIT + 1 update norms strictly increase.
    ForwardError
        If max_iter iterations end short of the tolerance.
    """
    grid = u0_spec.grid
    if kernel_xx.n_rows != grid.nz or kernel_xx.n_cols != grid.nz:
        raise ValueError("kernel table does not cover the scatterer grid")

    u0 = u0_spec.values
    threshold = tol * spectral_norm(u0_spec)
    u = u0
    residuals: list[float] = []
    for _ in range(max_iter):
        u_next = u0 + kernel_xx.apply(interaction_spectral(u, xi_samples, grid))
        residuals.append(float(np.linalg.norm(u_next - u)))
        u = u_next
        if residuals[-1] <= threshold:
            return ForwardResult(SpectralField(grid, u), len(residuals), np.asarray(residuals))
        recent = residuals[-_GROWTH_LIMIT - 1:]
        if len(recent) > _GROWTH_LIMIT and all(a < b for a, b in zip(recent, recent[1:])):
            raise DivergenceError(
                f"update norm grew for {_GROWTH_LIMIT} consecutive iterations "
                f"(omega = {kernel_xx.omega}; scatterer too strong for the Born series)"
            )
    raise ForwardError(
        f"Born iteration did not converge in {max_iter} iterations "
        f"(omega = {kernel_xx.omega}, tol = {tol:g})"
    )


def scattered_data(
    kernel_xy: GreenKernelTable, recv_grid: Grid3D, v_values: np.ndarray
) -> tuple[SpectralField, ComplexField]:
    """Receiver-layer data W = w^2 int G_hat(z - z') V dz' from the interaction
    spectrum's per-mode values V (interaction_spectral).

    Returns
    -------
    (w_spec, w_field) : spectrum and field of W on the receiver grid.
    """
    w_spec = SpectralField(recv_grid, kernel_xy.apply(v_values))
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
