"""Grids and complex scalar field containers shared by all solver stages.

Two uniform Cartesian grids describe the problem geometry: the scatterer
slab X and the receiver slab Y. Both share one transverse lattice (so a
single FFT plan serves both); they differ only in their z-node sequences.
Transverse nodes follow the periodic FFT convention: x_j = x_min + j*hx
with hx = (x_max - x_min)/N, so x_max itself is the periodic image of
x_min and is not a node.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Grid3D:
    """Uniform grid: N x N transverse lattice times an explicit z-node list.

    z_nodes are stored explicitly (not as min/max/count) so the scatterer
    and receiver slabs share one code path despite different extents.
    """

    x_min: float
    x_max: float
    y_min: float
    y_max: float
    nx: int
    ny: int
    z_nodes: np.ndarray

    def __post_init__(self):
        z = np.asarray(self.z_nodes, dtype=float)
        z.setflags(write=False)
        object.__setattr__(self, "z_nodes", z)
        if self.nx != self.ny:
            raise ValueError("transverse lattice must be square (nx == ny)")
        n = self.nx
        if n < 2 or (n & (n - 1)) != 0:
            raise ValueError(f"transverse node count must be a power of two, got {n}")
        if not (self.x_max > self.x_min and self.y_max > self.y_min):
            raise ValueError("transverse bounds must be ordered")
        if z.ndim != 1 or z.size < 2:
            raise ValueError("need at least two z nodes")
        dz = np.diff(z)
        if np.any(dz <= 0):
            raise ValueError("z_nodes must be strictly increasing")
        if not np.allclose(dz, dz[0], rtol=1e-12, atol=0.0):
            raise ValueError("z_nodes must be uniformly spaced")

    @property
    def hx(self) -> float:
        return (self.x_max - self.x_min) / self.nx

    @property
    def hy(self) -> float:
        return (self.y_max - self.y_min) / self.ny

    @property
    def hz(self) -> float:
        return float(self.z_nodes[1] - self.z_nodes[0])

    @property
    def nz(self) -> int:
        return self.z_nodes.size

    @property
    def shape(self) -> tuple[int, int, int]:
        return (self.nx, self.ny, self.nz)

    @property
    def cell_volume(self) -> float:
        return self.hx * self.hy * self.hz

    def nearest_node_dist2(self, point) -> float:
        """Squared distance from point (x, y, z) to the nearest node."""
        axes = (self.x_coords(), self.y_coords(), self.z_nodes)
        dx2, dy2, dz2 = (np.min((a - c) ** 2) for a, c in zip(axes, point))
        return float(dx2 + dy2 + dz2)

    def x_coords(self) -> np.ndarray:
        return self.x_min + self.hx * np.arange(self.nx)

    def y_coords(self) -> np.ndarray:
        return self.y_min + self.hy * np.arange(self.ny)

    def centred(self) -> "Grid3D":
        """This grid with its transverse window moved to [-Lx/2, Lx/2) x [-Ly/2, Ly/2).

        Periods, spacing and z nodes are unchanged; node (N/2, N/2) is the origin.
        """
        lx, ly = self.x_max - self.x_min, self.y_max - self.y_min
        return Grid3D(-lx / 2, lx / 2, -ly / 2, ly / 2, self.nx, self.ny, self.z_nodes)

    def same_transverse_lattice(self, other: "Grid3D") -> bool:
        return (
            self.nx == other.nx
            and self.ny == other.ny
            and self.x_min == other.x_min
            and self.x_max == other.x_max
            and self.y_min == other.y_min
            and self.y_max == other.y_max
        )

    def content_key(self) -> str:
        """Stable text key for cache naming and manifest provenance."""
        return (
            f"N{self.nx}_x{self.x_min:.9g}:{self.x_max:.9g}"
            f"_y{self.y_min:.9g}:{self.y_max:.9g}"
            f"_z{self.z_nodes[0]:.9g}:{self.z_nodes[-1]:.9g}:{self.nz}"
        )


@dataclass(frozen=True)
class GridConfig:
    """Parameters defining the scatterer/receiver grid pair."""

    x_bounds: tuple[float, float] = (-10.0, 10.0)
    y_bounds: tuple[float, float] = (-10.0, 10.0)
    n_transverse: int = 128
    scatterer_z: tuple[float, float] = (-0.5, 1.5)
    scatterer_nz: int = 71
    receiver_z: tuple[float, float] = (6.01, 6.5)
    receiver_nz: int = 71


def make_grids(config: GridConfig) -> tuple[Grid3D, Grid3D]:
    """Build the scatterer grid X and receiver grid Y from one config.

    Both grids share the transverse lattice; their z-ranges must be
    disjoint (the receiver slab sits outside the scatterer slab).

    Returns
    -------
    (grid_x, grid_y) : tuple of Grid3D
    """
    common = dict(
        x_min=config.x_bounds[0],
        x_max=config.x_bounds[1],
        y_min=config.y_bounds[0],
        y_max=config.y_bounds[1],
        nx=config.n_transverse,
        ny=config.n_transverse,
    )
    grid_x = Grid3D(z_nodes=np.linspace(*config.scatterer_z, config.scatterer_nz), **common)
    grid_y = Grid3D(z_nodes=np.linspace(*config.receiver_z, config.receiver_nz), **common)
    (z1, z2), (z3, z4) = config.scatterer_z, config.receiver_z
    if max(z1, z3) <= min(z2, z4):
        raise ValueError(
            f"scatterer z-range [{z1}, {z2}] overlaps receiver z-range [{z3}, {z4}]"
        )
    return grid_x, grid_y


def _freeze(values: np.ndarray, shape: tuple, what: str) -> np.ndarray:
    arr = np.asarray(values, dtype=complex)
    if arr.shape != shape:
        raise ValueError(f"{what} values must have shape {shape}, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{what} contains non-finite entries")
    arr = arr.copy() if not arr.flags.owndata or arr.base is not None else arr
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class ComplexField:
    """Complex scalar samples on an (ix, iy, iz) grid. Immutable."""

    grid: Grid3D
    values: np.ndarray  # shape (nx, ny, nz)

    def __post_init__(self):
        object.__setattr__(
            self, "values", _freeze(self.values, self.grid.shape, "field")
        )


@dataclass(frozen=True)
class SpectralField:
    """Per-mode complex samples, shape (N*N, nz); mode m flattens (k1, k2).

    The mode ordering matches ModeLattice: m = k1*N + k2 with k1, k2 in
    numpy FFT frequency order.
    """

    grid: Grid3D
    values: np.ndarray  # shape (nx*ny, nz)

    def __post_init__(self):
        shape = (self.grid.nx * self.grid.ny, self.grid.nz)
        object.__setattr__(self, "values", _freeze(self.values, shape, "spectrum"))


def l2_norm(field: ComplexField) -> float:
    """Discrete L2 norm with uniform cell-volume weighting.

    sqrt(sum |v|^2 * hx*hy*hz); the volume weight makes relative noise
    levels resolution-independent.
    """
    v = field.values
    return float(np.sqrt(np.sum(np.abs(v) ** 2) * field.grid.cell_volume))
