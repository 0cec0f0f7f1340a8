"""Solution of the scattering system on xi's support and receiver-data synthesis.

The data depend on the internal field u only through V = xi * u, which is zero
off S, the nodes where xi is nonzero. So the system u = u0 + K(xi u) closes on
S: born_iterate solves (I - K xi) u = u0 there by restarted GMRES (Saad &
Schultz 1986), whose n-th iterate minimizes the residual over a Krylov space
that holds the n-th Born (Neumann series) iterate, and stops once
||u0 - (I - K xi) u|| <= tol * ||u0 on S||. For the Born series this residual
is its update norm. The operator u -> K(xi u) on S takes one of two forms
(SupportOperator): the dense S x S matrix of medium.node_kernel, or the
scatterer table on L, the z-slabs that hold S, between the slab transforms.
The receiver data W follow from V on L through the receiver table's L columns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import ComplexField, Grid3D, SpectralField, l2_norm
from .medium import GreenKernelTable, Support
from .spectral import forward_slab, inverse_slab, inverse_xy

# Krylov vectors per GMRES cycle; a restart begins the next cycle from the true residual
_RESTART = 20
# per-mode arrays on L that one application of the slab form holds at its peak
# (the slab transforms' and the table's temporaries; measured with tracemalloc)
_SLAB_ARRAYS = 5


class ForwardError(RuntimeError):
    """The forward solve gave no usable internal field."""


@dataclass(frozen=True)
class ForwardResult:
    """Internal field that met the tolerance, plus solver diagnostics."""

    u_values: np.ndarray  # internal field at the support's nodes S, shape (|S|,)
    iterations: int  # operator applications
    residual_history: np.ndarray  # ||u0 - (I - K xi) u_n|| after each application


@dataclass(frozen=True)
class SupportOperator:
    """u -> K(xi u) at the nodes of support, u given there: K is
    omega^2 hx hy sum_S mu G(. - x'), in one of two forms. With matrix, the dense
    S x S matrix of medium.node_kernel; with kernel_ll, the scatterer table on the
    support's slabs L, applied between the slab transforms of the values scattered
    onto L."""

    omega: float
    support: Support
    grid: Grid3D
    matrix: np.ndarray | None = None
    kernel_ll: GreenKernelTable | None = None

    @property
    def form(self) -> str:
        return "dense" if self.matrix is not None else "slab"

    def apply(self, u: np.ndarray) -> np.ndarray:
        if self.matrix is not None:
            return self.matrix @ u
        v = support_interaction(u, self.support, self.grid)
        return self.support.from_slabs(inverse_slab(self.kernel_ll.apply(v), self.grid))


def dense_fits(n_nodes: int, n: int, n_slabs: int) -> bool:
    """Whether the dense form's n_nodes^2 matrix needs no more memory than one
    application of the slab form holds at its peak: _SLAB_ARRAYS per-mode arrays on
    L, n^2 modes by n_slabs slabs."""
    return n_nodes * n_nodes <= _SLAB_ARRAYS * n * n * n_slabs


def support_interaction(u: np.ndarray, support: Support, grid: Grid3D) -> np.ndarray:
    """V = F[xi u] per mode on the support's slabs L, shape (n_modes, |L|), from the
    internal field u at its nodes."""
    return forward_slab(support.to_slabs(support.xi * u, grid), grid)


def born_iterate(
    u0: np.ndarray,
    operator: SupportOperator,
    tol: float = 1e-13,
    max_iter: int = 1000,
) -> ForwardResult:
    """Restarted GMRES for the internal field u at the support's nodes S, returned
    once its residual meets the tolerance; every other ending raises.

    Each application's residual is ||beta e1 - H_k y||, the residual of the field
    u + Q_k y, with y from lstsq on the cycle's Hessenberg matrix. A Krylov space that
    turns invariant short of the solution ends its cycle; the restarts then stall.

    Parameters
    ----------
    u0 : (|S|,) complex ndarray
        Incident field at the nodes (medium.incident_field_nodes).
    operator : SupportOperator
        u -> K(xi u) on S; its omega is the frequency.
    tol : float
        Relative stopping tolerance ||u0 - (I - K xi) u|| <= tol * ||u0||, both norms
        over S.
    max_iter : int
        Cap on operator applications.

    Raises
    ------
    ForwardError
        If max_iter applications end short of the tolerance, or a residual is not finite.
    """
    threshold = tol * float(np.linalg.norm(u0))
    u = np.zeros(u0.shape, dtype=complex)
    r = np.asarray(u0, dtype=complex)
    beta = float(np.linalg.norm(r))
    residuals: list[float] = []
    while beta > threshold or not np.isfinite(beta):
        if not np.isfinite(beta):  # u0, or a restart's true residual
            raise ForwardError(f"GMRES residual is not finite (omega = {operator.omega})")
        m = min(_RESTART, max_iter - len(residuals))
        if m == 0:
            raise ForwardError(
                f"GMRES did not converge in {max_iter} operator applications "
                f"(omega = {operator.omega}, tol = {tol:g})"
            )
        # Arnoldi with classical Gram-Schmidt applied twice: A basis[:k] = basis[:k+1].T h
        basis = np.zeros((m + 1, r.size), dtype=complex)
        basis[0] = r / beta
        h = np.zeros((m + 1, m), dtype=complex)
        rhs = np.zeros(m + 1, dtype=complex)  # beta e1
        rhs[0] = beta
        for k in range(1, m + 1):
            w = basis[k - 1] - operator.apply(basis[k - 1])
            for _ in range(2):
                coef = (basis[:k] @ w.conj()).conj()
                w -= coef @ basis[:k]
                h[:k, k - 1] += coef
            h[k, k - 1] = np.linalg.norm(w)
            # checked before lstsq, which raises LinAlgError on a non-finite h
            if not np.isfinite(h[k, k - 1]):
                raise ForwardError(f"GMRES residual is not finite (omega = {operator.omega})")
            y = np.linalg.lstsq(h[:k + 1, :k], rhs[:k + 1], rcond=None)[0]
            residuals.append(float(np.linalg.norm(rhs[:k + 1] - h[:k + 1, :k] @ y)))
            if residuals[-1] <= threshold or h[k, k - 1] == 0.0:
                break
            basis[k] = w / h[k, k - 1]
        u += y @ basis[:k]
        if residuals[-1] <= threshold:
            break
        if len(residuals) < max_iter:
            # a restart begins from the true residual u0 - (I - K xi) u, as the
            # Arnoldi relation's residual drifts from it over restarts
            r = u0 - u + operator.apply(u)
            beta = float(np.linalg.norm(r))
            residuals.append(beta)
    return ForwardResult(u, len(residuals), np.asarray(residuals))


def scattered_data(
    kernel_xy: GreenKernelTable, recv_grid: Grid3D, v_values: np.ndarray
) -> tuple[SpectralField, ComplexField]:
    """Receiver-layer data W = w^2 int G_hat(z - z') V dz' from the interaction
    spectrum's per-mode values V (support_interaction) on the table's columns.

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
    scale = delta * l2_norm(w_field) / l2_norm(ComplexField(w_field.grid, noise))
    noisy = noise * scale  # the field froze noise
    del noise
    noisy += w_field.values
    return ComplexField(w_field.grid, noisy)
