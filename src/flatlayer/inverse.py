"""Reconstruction from receiver-layer data: per-mode solves, field
recomputation, and extraction of the inhomogeneity coefficient.

The measured spectrum W_hat decouples into independent 1D first-kind
systems, one per transverse mode. Their regularized solutions assemble the
interaction spectrum V_hat on the scatterer slab; the internal field U_hat
follows by one application of the scatterer-to-scatterer kernel; and the
coefficient comes from the pointwise identity u * xi = V, either per
frequency (division) or jointly over frequencies (least squares), from
running sums to which each frequency's fields are added in turn (XiSums).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import ComplexField, Grid3D, SpectralField
from .medium import GreenKernelTable
from .regularizers import RegularizerConfig, solve_mode_block


class ModeSolveError(RuntimeError):
    """A batched per-mode solve raised; no interaction spectrum is returned."""


@dataclass(frozen=True)
class ModeSolveStats:
    """Per-mode solver diagnostics for one frequency."""

    ranks: np.ndarray  # retained rank per mode
    uncertified_classes: int  # classes whose sketch failed its certificate
    # always 0, as a failed solve raises ModeSolveError; the benchmark's traced
    # inverse.failed_modes still reads it
    failed_modes: int = 0

    def rank_histogram(self) -> dict[int, int]:
        uniq, counts = np.unique(self.ranks, return_counts=True)
        return {int(k): int(c) for k, c in zip(uniq, counts)}


@dataclass(frozen=True)
class XiExtraction:
    """Real coefficient field plus division diagnostics."""

    xi: np.ndarray  # real, shape (nx, ny, nz)
    imag_norm: float  # norm of the discarded imaginary residue
    masked_fraction: float  # fraction of nodes masked to the background


def solve_modes(
    w_spec: SpectralField,
    kernel_xy: GreenKernelTable,
    omega: float,
    reg: RegularizerConfig,
    scatterer_grid: Grid3D,
) -> tuple[SpectralField, ModeSolveStats]:
    """Solve the per-mode first-kind systems for the interaction spectrum.

    Parameters
    ----------
    w_spec : SpectralField
        Data spectrum on the receiver grid (forward transform of W).
    kernel_xy : GreenKernelTable
        Scatterer-to-receiver table at omega.
    omega : float
        Frequency of the data; must be the table's.
    reg : RegularizerConfig
    scatterer_grid : Grid3D
        Grid carrying the unknown V (defines the output SpectralField).

    Returns
    -------
    (v_spec, stats) : the assembled spectrum on the scatterer grid and
        per-mode diagnostics.

    Raises
    ------
    ModeSolveError
        If the solve of a chunk of classes raises LinAlgError; the message
        names omega and the chunk's class range.

    Modes of one symmetry class share one matrix in the table, so each
    class is factorized once and solved for all its member modes' data
    together (GreenKernelTable.stack_members).
    """
    n_modes = kernel_xy.n_modes
    if w_spec.values.shape != (n_modes, kernel_xy.n_rows):
        raise ValueError("data spectrum does not match the kernel table")
    if kernel_xy.n_cols != scatterer_grid.nz or scatterer_grid.nx * scatterer_grid.ny != n_modes:
        raise ValueError("kernel table does not cover the scatterer grid")
    if omega != kernel_xy.omega:
        raise ValueError(f"kernel table is for omega = {kernel_xy.omega}, data for {omega}")

    scale = kernel_xy.column_scale
    v_values = np.zeros((n_modes, scatterer_grid.nz), dtype=complex)
    ranks = np.zeros(n_modes, dtype=int)
    uncertified = 0
    for start, stop in kernel_xy.mode_chunks():
        mats = kernel_xy.mode_matrices(start, stop) * scale[None, None, :]
        # (classes, rows, members)
        rhs = kernel_xy.stack_members(start, stop, w_spec.values).transpose(0, 2, 1)
        try:
            x, k, missed = solve_mode_block(mats, rhs, reg)
        except np.linalg.LinAlgError as exc:
            raise ModeSolveError(
                f"per-mode solve failed at omega = {omega} for classes {start}-{stop - 1} "
                f"of {kernel_xy.n_classes}: {exc}"
            ) from exc
        kernel_xy.scatter_members(start, stop, x.transpose(0, 2, 1), v_values)
        kernel_xy.scatter_members(start, stop, k, ranks)
        uncertified += missed
    stats = ModeSolveStats(ranks=ranks, uncertified_classes=uncertified)
    return SpectralField(scatterer_grid, v_values), stats


def recompute_internal_field(
    v_spec: SpectralField, u0_spec: SpectralField, kernel_xx: GreenKernelTable
) -> SpectralField:
    """Internal-field spectrum U = U0 + w^2 int G_hat V dz' on the scatterer slab."""
    grid = v_spec.grid
    if u0_spec.values.shape != v_spec.values.shape:
        raise ValueError("U0 and V spectra must share shape")
    if kernel_xx.n_rows != grid.nz or kernel_xx.n_cols != grid.nz:
        raise ValueError("kernel table does not cover the scatterer grid")
    u_values = kernel_xx.apply(v_spec.values)
    u_values += u0_spec.values
    return SpectralField(grid, u_values)


class XiSums:
    """The running sums of the pointwise least squares for xi over frequencies,
    num = sum_w conj(u_w) V_w and den = sum_w |u_w|^2, one frequency added at a time."""

    def __init__(self, shape: tuple[int, int, int]):
        self.num = np.zeros(shape, dtype=complex)
        self.den = np.zeros(shape, dtype=float)

    @classmethod
    def of(cls, v_fields: list[ComplexField] | tuple[ComplexField, ...],
           u_fields: list[ComplexField] | tuple[ComplexField, ...]) -> "XiSums":
        """The sums over matching lists of V and u fields, one pair per frequency."""
        if len(v_fields) == 0 or len(v_fields) != len(u_fields):
            raise ValueError("need matching nonempty V and u field lists")
        sums = cls(v_fields[0].values.shape)
        for v_field, u_field in zip(v_fields, u_fields):
            sums.add(v_field, u_field)
        return sums

    def add(self, v_field: ComplexField, u_field: ComplexField) -> None:
        """Add one frequency's conj(u) V and |u|^2."""
        v, u = v_field.values, u_field.values
        if v.shape != self.num.shape or u.shape != self.num.shape:
            raise ValueError("all fields must share one grid")
        term = np.conj(u)
        term *= v
        self.num += term
        del term
        power = np.abs(u)
        np.square(power, out=power)
        self.den += power


def extract_xi_lsq(sums: XiSums, eps_div: float = 1e-3) -> XiExtraction:
    """Pointwise real least squares for xi over the frequencies added to sums.

    Minimizes sum_w |u_w xi - V_w|^2 over real xi:
    xi = Re(sum_w conj(u_w) V_w) / sum_w |u_w|^2, masked to 0 where the
    denominator falls below eps_div^2 of its maximum, so no NaN or Inf can
    escape; the imaginary part of the ratio is reported as imag_norm. Over
    one frequency this is Re(V / u), masked where |u| < eps_div * max|u|.
    """
    num, den, shape = sums.num, sums.den, sums.num.shape
    mask = (den >= (eps_div ** 2) * np.max(den)) & (den > 0.0)
    ratio = np.zeros(shape, dtype=complex)
    np.divide(num, den.astype(complex), out=ratio, where=mask)
    xi = np.where(mask, ratio.real, 0.0)
    imag_norm = float(np.linalg.norm(np.where(mask, ratio.imag, 0.0)))
    masked = 1.0 - float(np.count_nonzero(mask)) / mask.size
    return XiExtraction(xi=xi, imag_norm=imag_norm, masked_fraction=masked)
