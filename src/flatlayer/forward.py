"""Iterative spectral solution of the scattering system and receiver-data synthesis.

The data depend on the internal field U only through the interaction term
V = F[xi * F^-1[U]], which is zero on every z-slab where xi vanishes. So the
system is posed on L, the slabs where xi is nonzero: starting from the
incident spectrum U0 on L, the iteration

    U_{n+1} = U0 + w^2 * int_L G_hat(z - z') F[xi * F^-1[U_n]] dz'

runs per transverse mode, the integral being one GreenKernelTable.apply of
the table restricted to L, and stops when the update norm on L falls below
tol * ||U0 on L||. The receiver data W follow from the solved field's V on L
through the receiver table's L columns. Since xi vanishes off L, this is the
whole grid's fixed point, with the same contraction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import ComplexField, Grid3D, SpectralField, l2_norm
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
    """Internal field that met the tolerance, plus iteration diagnostics."""

    u_values: np.ndarray  # per-mode values (n_modes, k) on the slabs iterated on
    iterations: int
    residual_history: np.ndarray  # per-iteration update norms ||U_n - U_{n-1}||


def interaction_spectral(
    u_values: np.ndarray, xi_samples: np.ndarray, grid: Grid3D
) -> np.ndarray:
    """V = F[xi * F^-1[U]] on k z-slabs, from per-mode values U of shape (n_modes, k)
    and xi's samples (nx, ny, k) on the same slabs; grid gives the transverse lattice."""
    if xi_samples.shape != (grid.nx, grid.ny, u_values.shape[1]):
        raise ValueError("xi samples must live on the field's slabs")
    slabs = inverse_slab(u_values, grid)
    slabs *= np.moveaxis(xi_samples, 2, 0)
    return forward_slab(slabs, grid)


def born_iterate(
    u0: np.ndarray,
    kernel_xx: GreenKernelTable,
    xi_samples: np.ndarray,
    grid: Grid3D,
    tol: float = 1e-13,
    max_iter: int = 1000,
) -> ForwardResult:
    """Fixed-point iteration for the internal field's per-mode values on k z-slabs,
    returned once the update norm meets the tolerance; every other ending raises.

    Parameters
    ----------
    u0 : (n_modes, k) complex ndarray
        Incident per-mode values on the slabs (medium.incident_field_spectral).
    kernel_xx : GreenKernelTable
        Scatterer-to-scatterer table on the same slabs, rows and columns;
        its omega is the frequency.
    xi_samples : (nx, ny, k) real ndarray
        Inhomogeneity coefficient on the slabs.
    grid : Grid3D
        Scatterer grid, whose transverse lattice the transforms use.
    tol : float
        Relative stopping tolerance ||U_n - U_{n-1}|| <= tol * ||U0||, both norms
        over the slabs: on xi's support L, update norm on L <= tol * ||U0 on L||.
    max_iter : int
        Iteration cap.

    Raises
    ------
    DivergenceError
        If the last _GROWTH_LIMIT + 1 update norms strictly increase.
    ForwardError
        If max_iter iterations end short of the tolerance.
    """
    if kernel_xx.n_rows != u0.shape[1] or kernel_xx.n_cols != u0.shape[1]:
        raise ValueError("kernel table does not cover the incident field's slabs")

    threshold = tol * float(np.linalg.norm(u0))
    u = u0
    residuals: list[float] = []
    for _ in range(max_iter):
        u_next = u0 + kernel_xx.apply(interaction_spectral(u, xi_samples, grid))
        residuals.append(float(np.linalg.norm(u_next - u)))
        u = u_next
        if residuals[-1] <= threshold:
            return ForwardResult(u, len(residuals), np.asarray(residuals))
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
    spectrum's per-mode values V (interaction_spectral) on the table's columns.

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
