"""Green's function, spectral kernel tables, point sources, and the model medium.

Units fix the background sound speed c0 = 1, so the wavenumber equals the
angular frequency. The free-space outgoing-wave kernel G (green_point) depends
on node differences only. Its transverse spectrum G_hat(dz, w, Omega) is built
numerically: sample G on the centred copy of the (truncated, periodized)
transverse lattice at fixed z-offset and apply the slab Fourier transform.
Tables store one spectrum slab per distinct z-offset, since entries depend on
z - z' only; they depend on N, the transverse periods, the z nodes and omega,
never on where the window sits.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .fields import Grid3D, SpectralField
from .spectral import ModeLattice, forward_slab

# offsets closer than this are the same physical z-difference
_OFFSET_DECIMALS = 10
# bytes of transient arrays per batch, in table construction and per-mode operations
_GATHER_BYTES = 1 << 20


def green_point(rho, omega: float):
    """Free-space Green's function -exp(i*omega*rho) / (4*pi*rho).

    Parameters
    ----------
    rho : float or ndarray
        Source-observer distance, strictly positive.
    omega : float
        Angular frequency (rad per unit time), equal to the wavenumber.
    """
    rho = np.asarray(rho, dtype=float)
    if np.any(rho <= 0.0):
        raise ValueError("green_point requires rho > 0 (singular at rho = 0)")
    out = -np.exp(1j * omega * rho) / (4.0 * np.pi * rho)
    return out if out.ndim else complex(out)


def green_cell_average(cell_area: float, omega: float) -> complex:
    """Mean of G over a disk with the given area, centred on the singularity.

    Closed form of (1/(pi a^2)) * int_0^a -exp(i omega rho)/(4 pi rho) 2 pi rho drho;
    replaces the untabulatable rho = 0 sample while preserving the integrable
    singularity's cell average.
    """
    a = np.sqrt(cell_area / np.pi)
    if abs(omega * a) < 1e-8:
        integral = a * (1.0 + 0.5j * omega * a)
    else:
        integral = (np.exp(1j * omega * a) - 1.0) / (1j * omega)
    return complex(-integral / (2.0 * np.pi * a * a))


@dataclass(frozen=True)
class GreenKernelTable:
    """Spectral Green's kernel G_hat(z_k - z'_l, omega, Omega) per mode.

    values[j, m] holds the mode-m spectrum for unique offset offsets[j];
    offset_index[k, l] maps a (receiver, source) node pair to its offset row.
    Tables are immutable and safe for concurrent reads.
    """

    omega: float
    row_z: np.ndarray  # receiver z-nodes
    col_z: np.ndarray  # source z-nodes
    offsets: np.ndarray  # unique z-differences, shape (n_off,)
    offset_index: np.ndarray  # shape (n_rows, n_cols) -> row of `values`
    values: np.ndarray  # shape (n_off, n_modes)

    @property
    def n_rows(self) -> int:
        return self.row_z.size

    @property
    def n_cols(self) -> int:
        return self.col_z.size

    @property
    def n_modes(self) -> int:
        return self.values.shape[1]

    def mode_chunks(self, count: int | None = None, width: int = 0) -> Iterator[tuple[int, int]]:
        """(start, stop) ranges over count mode matrices (default: every mode) that fit
        one gather budget, together with width right-hand sides and solutions each."""
        count = self.n_modes if count is None else count
        per_mode = (self.n_rows + width) * (self.n_cols + width) * self.values.itemsize
        step = max(1, _GATHER_BYTES // per_mode)
        for start in range(0, count, step):
            yield start, min(start + step, count)

    def mode_matrices(self, start: int | np.ndarray, stop: int | None = None) -> np.ndarray:
        """Dense kernel matrices, shape (n, rows, cols), of modes start..stop-1, or of
        the modes listed in the index array start when stop is omitted."""
        if stop is None:
            return self.values[self.offset_index[..., None], start].transpose(2, 0, 1)
        return self.values[self.offset_index, start:stop].transpose(2, 0, 1)

    def convolve(self, v: np.ndarray, weights: np.ndarray) -> np.ndarray:
        """Quadrature-weighted kernel application per mode.

        Computes out[m, k] = sum_l values[offset_index[k, l], m] * weights[l]
        * v[m, l], i.e. the discretized integral over z' for every mode and
        receiver node. The omega^2 prefactor is the caller's.

        Parameters
        ----------
        v : (n_modes, n_cols) complex ndarray
        weights : (n_cols,) quadrature weights

        Returns
        -------
        (n_modes, n_rows) complex ndarray
        """
        if v.shape != (self.n_modes, self.n_cols):
            raise ValueError(
                f"expected shape {(self.n_modes, self.n_cols)}, got {v.shape}"
            )
        vw = v * weights[None, :]
        out = np.empty((self.n_modes, self.n_rows), dtype=complex)
        for start, stop in self.mode_chunks():
            out[start:stop] = np.einsum(
                "mkl,ml->mk", self.mode_matrices(start, stop), vw[start:stop]
            )
        return out


def trapezoid_weights(z_nodes: np.ndarray) -> np.ndarray:
    """Trapezoidal quadrature weights mu_l on a uniform z grid."""
    h = float(z_nodes[1] - z_nodes[0])
    w = np.full(z_nodes.size, h)
    w[0] = w[-1] = 0.5 * h
    return w


def sample_green_slabs(grid: Grid3D, dz_list: np.ndarray, omega: float) -> np.ndarray:
    """Sample G on grid.centred()'s transverse lattice for each z-offset in dz_list.

    Its nodes are the minimum-image offsets of the periodic lattice, with
    the origin at node (N/2, N/2). At zero offset the rho = 0 sample there
    is replaced by the analytic disk average of G over one cell.
    """
    centred = grid.centred()
    x = centred.x_coords()
    y = centred.y_coords()
    rho2 = x[:, None] ** 2 + y[None, :] ** 2
    dz = np.asarray(dz_list, dtype=float)
    r = np.sqrt(rho2[None, :, :] + dz[:, None, None] ** 2)
    singular = np.abs(dz) < 1e-14
    origin = (singular, grid.nx // 2, grid.ny // 2)
    r[origin] = 1.0  # placeholder, overwritten below
    slabs = green_point(r, omega)
    slabs[origin] = green_cell_average(grid.hx * grid.hy, omega)
    return slabs


def build_green_kernel(
    grid_src: Grid3D,
    grid_recv: Grid3D,
    omega: float,
    lattice: ModeLattice,
) -> GreenKernelTable:
    """Tabulate G_hat(z_k - z'_l, omega, Omega) for all needed node pairs.

    One routine serves both the scatterer-to-scatterer and the
    scatterer-to-receiver tables; the grids must share the transverse
    lattice. G is sampled and transformed on the centred copy of that
    lattice, so shifting the window leaves the table unchanged.
    Construction batches the slab FFTs over unique offsets. Every mode's
    column is a copy of its symmetry class representative's
    (ModeLattice.symmetry_classes), so modes of one class share one matrix
    bit for bit rather than to rounding.
    """
    if not grid_src.same_transverse_lattice(grid_recv):
        raise ValueError("source and receiver grids must share the transverse lattice")
    if (lattice.nx, lattice.hx, lattice.hy) != (grid_src.nx, grid_src.hx, grid_src.hy):
        raise ValueError("mode lattice does not match the grids")

    row_z = np.asarray(grid_recv.z_nodes, dtype=float)
    col_z = np.asarray(grid_src.z_nodes, dtype=float)
    diff = np.round(row_z[:, None] - col_z[None, :], _OFFSET_DECIMALS)
    offsets, inverse = np.unique(diff, return_inverse=True)
    offset_index = inverse.reshape(diff.shape).astype(np.intp)

    centred = grid_src.centred()
    n_modes = grid_src.nx * grid_src.ny
    rep, class_of = lattice.symmetry_classes()
    fold = rep[class_of]
    values = np.empty((offsets.size, n_modes), dtype=complex)
    block = max(1, _GATHER_BYTES // (n_modes * values.itemsize))
    for start in range(0, offsets.size, block):
        chunk = offsets[start : start + block]
        spec = forward_slab(sample_green_slabs(centred, chunk, omega), centred)
        np.take(spec.reshape(chunk.size, n_modes), fold, axis=1,
                out=values[start : start + chunk.size])

    for arr in (row_z, col_z, offsets, offset_index, values):
        arr.setflags(write=False)
    return GreenKernelTable(
        omega=float(omega),
        row_z=row_z,
        col_z=col_z,
        offsets=offsets,
        offset_index=offset_index,
        values=values,
    )


@dataclass(frozen=True)
class SourceSet:
    """Point (delta) sources: positions (n, 3) and complex amplitudes (n,)."""

    positions: np.ndarray
    amplitudes: np.ndarray

    def __post_init__(self):
        pos = np.atleast_2d(np.asarray(self.positions, dtype=float))
        amp = np.atleast_1d(np.asarray(self.amplitudes, dtype=complex))
        if pos.shape != (amp.size, 3):
            raise ValueError("positions must be (n, 3) matching n amplitudes")
        pos.setflags(write=False)
        amp.setflags(write=False)
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "amplitudes", amp)

    @classmethod
    def line_y(
        cls, y_values, x: float = 0.0, z: float = 6.0, amplitude: complex = 1.0
    ) -> "SourceSet":
        """Sources along a line of constant x and z, one per y value."""
        y = np.asarray(y_values, dtype=float)
        pos = np.column_stack([np.full_like(y, x), y, np.full_like(y, z)])
        return cls(pos, np.full(y.size, amplitude, dtype=complex))


def incident_field_spectral(
    sources: SourceSet,
    grid: Grid3D,
    omega: float,
    lattice: ModeLattice,
) -> SpectralField:
    """Spectrum of the incident field u0 = sum_m A_m G(|x - x_m|) on a grid.

    Samples the superposed point-source field on every node, then transforms.
    A source coinciding with a grid node would make u0 singular there and is
    rejected.
    """
    if lattice.nx != grid.nx:
        raise ValueError("mode lattice does not match the grid")
    x = grid.x_coords()
    y = grid.y_coords()
    slabs = np.zeros((grid.nz, grid.nx, grid.ny), dtype=complex)
    for p, a in zip(sources.positions, sources.amplitudes):
        dist2_xy = (x[:, None] - p[0]) ** 2 + (y[None, :] - p[1]) ** 2
        r = np.sqrt(dist2_xy[None, :, :] + ((grid.z_nodes - p[2]) ** 2)[:, None, None])
        if r.min() < 1e-13:
            raise ValueError(f"source at {tuple(p)} coincides with a grid node")
        slabs += a * green_point(r, omega)
    spec = forward_slab(slabs, grid)
    return SpectralField(grid, spec.reshape(grid.nz, grid.nx * grid.ny).T)


@dataclass(frozen=True)
class Bump:
    """One clipped-paraboloid inhomogeneity: weight * (1 - q/radius^2)_+.

    q is the quadratic form |x - c|^2 plus optional cross terms
    cross_xy*dx*dy + cross_xz*dx*dz + cross_yz*dy*dz. q is used directly
    (never through a square root), so indefinite cross terms simply widen
    the bump where q goes negative; clipping happens at the (.)_+.
    """

    center: tuple[float, float, float]
    radius: float
    weight: float
    cross_xy: float = 0.0
    cross_xz: float = 0.0
    cross_yz: float = 0.0

    def quadratic_form(self, x, y, z):
        dx = np.asarray(x, dtype=float) - self.center[0]
        dy = np.asarray(y, dtype=float) - self.center[1]
        dz = np.asarray(z, dtype=float) - self.center[2]
        return (
            dx * dx
            + dy * dy
            + dz * dz
            + self.cross_xy * dx * dy
            + self.cross_xz * dx * dz
            + self.cross_yz * dy * dz
        )


@dataclass(frozen=True)
class Phantom:
    """Analytic nonnegative inhomogeneity coefficient xi(x, y, z)."""

    amplitude: float
    bumps: tuple[Bump, ...]

    @classmethod
    def three_bumps(cls, amplitude: float = 0.3) -> "Phantom":
        """The built-in model medium: three small local inhomogeneities."""
        return cls(
            amplitude=amplitude,
            bumps=(
                Bump(center=(1.0, 2.0, 0.5), radius=0.4, weight=1.0),
                Bump(center=(4.0, -3.0, 0.5), radius=0.25, weight=2.0, cross_yz=1.5),
                Bump(center=(-3.0, 0.0, 0.45), radius=0.3, weight=2.5, cross_yz=-1.5),
            ),
        )

    def __call__(self, x, y, z):
        """Evaluate xi at (broadcastable) coordinates."""
        total = np.zeros(np.broadcast(np.asarray(x), np.asarray(y), np.asarray(z)).shape)
        for b in self.bumps:
            q = b.quadratic_form(x, y, z)
            total += b.weight * np.maximum(1.0 - q / (b.radius * b.radius), 0.0)
        out = self.amplitude * total
        return out if out.ndim else float(out)

    def sample_on(self, grid: Grid3D) -> np.ndarray:
        """xi sampled on all grid nodes, shape (nx, ny, nz)."""
        xg, yg, zg = grid.meshgrid()
        return self(xg, yg, zg)

    def max_value(self, refine: int = 33) -> float:
        """Numeric maximum of xi: bump centers plus a local fine sampling.

        Exact at a center for isolated bumps; the sampling guards against
        overlapping supports.
        """
        best = 0.0
        for b in self.bumps:
            cx, cy, cz = b.center
            r = b.radius
            t = np.linspace(-r, r, refine)
            xg, yg, zg = np.meshgrid(cx + t, cy + t, cz + t, indexing="ij")
            best = max(best, float(np.max(self(xg, yg, zg))))
        return best


def contrast(phantom: Phantom) -> float:
    """Relative peak sound-speed deviation max{1/sqrt(1 - xi)} - 1 (c0 = 1)."""
    m = phantom.max_value()
    if m >= 1.0:
        raise ValueError(f"max xi = {m} reaches 1; sound speed undefined for this amplitude")
    return 1.0 / np.sqrt(1.0 - m) - 1.0


def xi_to_speed(xi: np.ndarray) -> np.ndarray:
    """Convert the inhomogeneity coefficient to sound speed c = (1 - xi)^-1/2 (c0 = 1)."""
    xi = np.asarray(xi, dtype=float)
    radicand = 1.0 - xi
    if np.any(radicand <= 0.0):
        idx = tuple(int(i) for i in np.argwhere(radicand <= 0.0)[0])
        raise ValueError(f"nonpositive radicand at node {idx}: xi must stay below 1")
    return 1.0 / np.sqrt(radicand)
