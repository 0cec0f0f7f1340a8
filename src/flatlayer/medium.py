"""Green's function, spectral kernel tables, point sources, and the model medium.

Units fix the background sound speed c0 = 1, so the wavenumber equals the
angular frequency. The free-space outgoing-wave kernel G (green_point) depends
on node differences only. Its transverse spectrum G_hat(dz, w, Omega) is the slab
Fourier transform on the centred copy of the (truncated, periodized) transverse
lattice, computed from one (|x|, |y|) quadrant as a cosine transform since G is even,
with G sampled once per distinct transverse distance of that quadrant.
Tables store one spectrum row per distinct z-offset, since entries depend on
z - z' only, and one column per symmetry class of modes; they depend on N,
the transverse periods, the z nodes and omega, never on where the window sits.
A table is the per-mode operator omega^2 int G_hat(z - z') . dz' of its omega, trapezoid
weights included (GreenKernelTable.apply, column_scale); every solver stage takes it from there.
The incident field samples G once per slab and distinct distance of the sources at each height.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from .fields import Grid3D, SpectralField
from .spectral import ModeLattice, forward_slab

# offsets closer than this are the same physical z-difference
_OFFSET_DECIMALS = 10
# bytes of transient arrays per batch, in table construction and per-mode operations
_GATHER_BYTES = 1 << 20
# a point source closer than this to a grid node lies on it
SOURCE_NODE_TOL = 1e-13


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
    """Spectral Green's kernel G_hat(z_k - z'_l, omega, Omega), one column per class.

    Modes of one symmetry class (ModeLattice.symmetry_classes) share one
    kernel matrix, so the table stores each class once: values[j, c] holds
    the spectrum of class c at unique offset offsets[j], class_of[m] is the
    class of mode m, and offset_index[k, l] maps a (receiver, source) node
    pair to its offset row. members[c] lists the modes of class c, padded
    with -1 to the widest class; per-mode operations stack those modes'
    vectors and apply each class matrix to them in one product. Tables are
    immutable and safe for concurrent reads.
    """

    omega: float
    row_z: np.ndarray  # receiver z-nodes
    col_z: np.ndarray  # source z-nodes
    offsets: np.ndarray  # unique z-differences, shape (n_off,)
    offset_index: np.ndarray  # shape (n_rows, n_cols) -> row of `values`
    values: np.ndarray  # shape (n_off, n_classes)
    class_of: np.ndarray  # shape (n_modes,) -> column of `values`
    members: np.ndarray = field(init=False, repr=False)  # shape (n_classes, width)

    def __post_init__(self):
        sizes = np.bincount(self.class_of, minlength=self.n_classes)
        order = np.argsort(self.class_of, kind="stable")
        slot = np.arange(self.n_modes) - np.repeat(np.cumsum(sizes) - sizes, sizes)
        members = np.full((self.n_classes, sizes.max()), -1)
        members[self.class_of[order], slot] = order
        members.setflags(write=False)
        object.__setattr__(self, "members", members)

    @property
    def n_rows(self) -> int:
        return self.row_z.size

    @property
    def n_cols(self) -> int:
        return self.col_z.size

    @property
    def n_modes(self) -> int:
        return self.class_of.size

    @property
    def n_classes(self) -> int:
        return self.values.shape[1]

    def mode_chunks(self) -> Iterator[tuple[int, int]]:
        """(start, stop) ranges of classes whose matrices fit one gather budget,
        together with their members' stacked vectors on both sides."""
        width = self.members.shape[1]
        per_class = (self.n_rows + width) * (self.n_cols + width) * self.values.itemsize
        step = max(1, _GATHER_BYTES // per_class)
        for start in range(0, self.n_classes, step):
            yield start, min(start + step, self.n_classes)

    def mode_matrices(self, start: int, stop: int) -> np.ndarray:
        """Dense kernel matrices, shape (n, rows, cols), of classes start..stop-1."""
        return self.values[:, start:stop].T[:, self.offset_index]

    def stack_members(self, start: int, stop: int, per_mode: np.ndarray) -> np.ndarray:
        """Rows of per_mode for the members of classes start..stop-1, shape
        (n, width, ...), zero where a class has fewer members than the widest."""
        mem = self.members[start:stop]
        valid = mem >= 0
        out = np.zeros(mem.shape + per_mode.shape[1:], dtype=per_mode.dtype)
        out[valid] = per_mode[mem[valid]]
        return out

    def scatter_members(self, start: int, stop: int, stacked: np.ndarray,
                        per_mode: np.ndarray) -> None:
        """Inverse of stack_members: write stacked's member rows into per_mode."""
        mem = self.members[start:stop]
        valid = mem >= 0
        per_mode[mem[valid]] = stacked[valid]

    @property
    def column_scale(self) -> np.ndarray:
        """omega^2 * mu_l, the factor of column l in every mode's system matrix
        (mu: trapezoid weights on col_z)."""
        return self.omega * self.omega * trapezoid_weights(self.col_z)

    def apply(self, v: np.ndarray) -> np.ndarray:
        """The discretized operator omega^2 int G_hat(z - z') v(z') dz', per mode.

        Computes out[m, k] = omega^2 * sum_l values[offset_index[k, l], class_of[m]]
        * mu_l * v[m, l] with the trapezoid weights mu on col_z, for every mode
        and receiver node, one matrix product per class: v is complex
        (n_modes, n_cols), out complex (n_modes, n_rows).
        """
        if v.shape != (self.n_modes, self.n_cols):
            raise ValueError(
                f"expected shape {(self.n_modes, self.n_cols)}, got {v.shape}"
            )
        vw = v * trapezoid_weights(self.col_z)[None, :]
        out = np.empty((self.n_modes, self.n_rows), dtype=complex)
        for start, stop in self.mode_chunks():
            stacked = self.stack_members(start, stop, vw).transpose(0, 2, 1)
            product = self.mode_matrices(start, stop) @ stacked
            self.scatter_members(start, stop, product.transpose(0, 2, 1), out)
        del vw  # before the product below, so that it can reuse vw's memory
        return self.omega * self.omega * out


def trapezoid_weights(z_nodes: np.ndarray) -> np.ndarray:
    """Trapezoidal quadrature weights mu_l on a uniform z grid."""
    h = float(z_nodes[1] - z_nodes[0])
    w = np.full(z_nodes.size, h)
    w[0] = w[-1] = 0.5 * h
    return w


def green_spectra(grid: Grid3D, dz: np.ndarray, omega: float, modes: np.ndarray) -> np.ndarray:
    """Transverse spectrum of G for the given modes at each z-offset, shape (dz.size, modes.size).

    G is even in x and y on grid.centred()'s lattice, so the slab transform of mode (|k1|, |k2|)
    is the cosine transform hx*hy * sum_ab w_a w_b q[a, b] cos(2 pi k1 a/N) cos(2 pi k2 b/N)
    over one (N/2+1)^2 quadrant of nodes, w = 1 at a = 0, N/2 and 2 elsewhere. G depends on
    rho^2 + dz^2 only, so each offset samples it once per distinct rho^2 of the quadrant (457
    of 1,089 nodes at N = 64 on a square window; the rho = 0 sample at zero offset is G's disk
    average over one cell) and gathers the nodes from those samples, in batches of offsets.
    """
    n, half = grid.nx, grid.nx // 2
    centred = grid.centred()
    quadrant = np.r_[half:n, 0]  # |offset| = 0, h, ..., N/2 h
    rho2 = centred.y_coords()[quadrant, None] ** 2 + centred.x_coords()[None, quadrant] ** 2
    rho2_unique, node = np.unique(rho2, return_inverse=True)  # rho2_unique[0] is the origin's
    node = node.reshape(rho2.shape)  # (b, a); the inverse's shape differs between numpy versions
    a = np.arange(half + 1)
    cos = np.cos(2 * np.pi * (np.outer(a, a) % n) / n) * np.where(a % half, 2.0, 1.0)  # (k, a)
    k = np.abs(np.fft.fftfreq(n, d=1.0 / n)).astype(np.intp)
    pick = k[modes // n] * (half + 1) + k[modes % n]
    dz = np.asarray(dz, dtype=float)
    out = np.empty((dz.size, pick.size), dtype=complex)
    block = max(1, _GATHER_BYTES // (node.size * out.itemsize))
    for start in range(0, dz.size, block):
        d = dz[start:start + block]
        r = np.sqrt(rho2_unique + d[:, None] ** 2)  # (dz, distinct rho^2)
        singular = np.abs(d) < 1e-14
        r[singular, 0] = 1.0  # placeholder, overwritten below
        g = green_point(r, omega)
        g[singular, 0] = green_cell_average(grid.hx * grid.hy, omega)
        q = np.take(g, node, axis=1)  # (dz, b, a)
        # real matrices on interleaved real/imaginary parts, one (N/2+1)^2 product per offset
        t = (grid.hy * cos @ q.view(float)).view(complex).transpose(0, 2, 1)  # (dz, a, k2)
        spec = (grid.hx * cos @ np.ascontiguousarray(t).view(float)).view(complex)  # (dz, k1, k2)
        out[start:start + block] = spec.reshape(d.size, -1)[:, pick]
    return out


def build_green_kernel(
    grid_src: Grid3D,
    grid_recv: Grid3D,
    omega: float,
    lattice: ModeLattice,
) -> GreenKernelTable:
    """Tabulate G_hat(z_k - z'_l, omega, Omega) for all needed node pairs.

    One routine serves both the scatterer-to-scatterer and the scatterer-to-receiver
    tables; the grids must share the transverse lattice. green_spectra works on its
    centred copy, so shifting the window leaves the table unchanged. One call of it
    gives every unique offset the columns of the class representatives only
    (ModeLattice.symmetry_classes).
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

    rep, class_of = lattice.symmetry_classes()
    values = green_spectra(grid_src, offsets, omega, rep)

    for arr in (row_z, col_z, offsets, offset_index, values, class_of):
        arr.setflags(write=False)
    return GreenKernelTable(
        omega=float(omega),
        row_z=row_z,
        col_z=col_z,
        offsets=offsets,
        offset_index=offset_index,
        values=values,
        class_of=class_of,
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
    def line_y(cls, y_values: tuple[float, ...], x: float = 0.0, z: float = 6.0,
               amplitude: complex = 1.0) -> "SourceSet":
        """Sources along a line of constant x and z, one per y value."""
        y = np.asarray(y_values, dtype=float)
        pos = np.column_stack([np.full_like(y, x), y, np.full_like(y, z)])
        return cls(pos, np.full(y.size, amplitude, dtype=complex))


def check_sources(sources: SourceSet, grid: Grid3D) -> None:
    """Reject a source on a node of grid, where its incident field is singular."""
    for p in sources.positions:
        if np.sqrt(grid.nearest_node_dist2(p)) < SOURCE_NODE_TOL:
            raise ValueError(f"source at {tuple(map(float, p))} coincides with a grid node")


def incident_field_spectral(sources: SourceSet, grid: Grid3D, omega: float) -> SpectralField:
    """Spectrum of the incident field u0 = sum_m A_m G(|x - x_m|) on a grid.

    Samples the superposed point-source field on every node, then transforms.
    A source coinciding with a grid node would make u0 singular there and is
    rejected.
    """
    check_sources(sources, grid)
    # sampled in a function of its own, so that its temporaries are freed before the
    # transform allocates; kept alive, they raised invert's peak on flbench thin by 3 MiB
    spec = forward_slab(_incident_slabs(sources, grid, omega), grid)
    return SpectralField(grid, spec.reshape(grid.nz, grid.nx * grid.ny).T)


def _incident_slabs(sources: SourceSet, grid: Grid3D, omega: float) -> np.ndarray:
    """u0 on every node, shape (nz, nx, ny). Sources at one height share their
    z-distances, so each such group samples G once per slab and distinct squared
    transverse distance; each source gathers its nodes from those samples, and
    the sums run over the sources in their given order."""
    x, y = grid.x_coords(), grid.y_coords()
    groups: dict[bytes, list[int]] = {}  # (z - p_z)^2 column -> its sources
    for s, p in enumerate(sources.positions):
        groups.setdefault(((grid.z_nodes - p[2]) ** 2).tobytes(), []).append(s)
    tables = []  # per group: (z - p_z)^2 and the distinct squared transverse distances
    gather = [None] * len(sources.amplitudes)  # per source: (group, node -> distance index)
    for g, (dz2, members) in enumerate(groups.items()):
        p = sources.positions[members]
        rho2 = (x[:, None] - p[:, 0, None, None]) ** 2 + (y[None, :] - p[:, 1, None, None]) ** 2
        rho2_unique, inverse = np.unique(rho2, return_inverse=True)
        tables.append((np.frombuffer(dz2), rho2_unique))
        for s, idx in zip(members, inverse.reshape(rho2.shape)):
            gather[s] = (g, idx)
    slabs = np.zeros((grid.nz, grid.nx, grid.ny), dtype=complex)
    for k in range(grid.nz):
        samples = [green_point(np.sqrt(rho2_unique + dz2[k]), omega)
                   for dz2, rho2_unique in tables]
        for (g, idx), a in zip(gather, sources.amplitudes):
            slabs[k] += a * samples[g][idx]
    return slabs


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

    amplitude: float = 0.3
    bumps: tuple[Bump, ...] = ()

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
