"""On-disk formats for complex fields: binary dumps and per-slice CSV export.

Binary layout: magic "LAF1", three little-endian u32 (N, N, Mz), six
little-endian f64 bounds (x_min, x_max, y_min, y_max, z_min, z_max), then
the samples as little-endian f64 pairs (re, im) with iz slowest and ix
fastest. The format is self-describing enough to rebuild the uniform grid.
"""

from __future__ import annotations

import os
import struct
from pathlib import Path

import numpy as np

from .fields import ComplexField, Grid3D

MAGIC = b"LAF1"
_HEADER = struct.Struct("<4sIII6d")


class LafFormatError(ValueError):
    """A binary field dump that is truncated or not in the LAF1 format."""


def write_field(field: ComplexField, path: str | Path) -> None:
    """Write a complex field to the binary dump format."""
    g = field.grid
    header = _HEADER.pack(
        MAGIC,
        g.nx,
        g.ny,
        g.nz,
        g.x_min,
        g.x_max,
        g.y_min,
        g.y_max,
        float(g.z_nodes[0]),
        float(g.z_nodes[-1]),
    )
    # iz-major, then iy, then ix: (nx, ny, nz) -> (nz, ny, nx); a little-endian
    # complex array holds each sample as its (re, im) pair of f64
    ordered = np.ascontiguousarray(field.values.transpose(2, 1, 0), dtype="<c16")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(ordered)


def read_field(path: str | Path) -> ComplexField:
    """Read a binary field dump, rebuilding its uniform grid."""
    with open(path, "rb") as fh:
        raw = fh.read(_HEADER.size)
        if len(raw) != _HEADER.size:
            raise LafFormatError(f"{path}: truncated header")
        magic, nx, ny, nz, x0, x1, y0, y1, z0, z1 = _HEADER.unpack(raw)
        if magic != MAGIC:
            raise LafFormatError(f"{path}: bad magic {magic!r}")
        size = os.fstat(fh.fileno()).st_size - _HEADER.size
        if size != 16 * nx * ny * nz:
            raise LafFormatError(f"{path}: expected {16 * nx * ny * nz} bytes, got {size}")
        # slab by slab into the (nx, ny, nz) C-order array that ComplexField keeps,
        # so that no second copy of the samples is made
        values = np.empty((nx, ny, nz), dtype=complex)
        slab = np.empty((ny, nx), dtype="<c16")
        for iz in range(nz):
            fh.readinto(slab)
            values[:, :, iz] = slab.T
    try:
        grid = Grid3D(
            x_min=x0, x_max=x1, y_min=y0, y_max=y1,
            nx=nx, ny=ny, z_nodes=np.linspace(z0, z1, nz),
        )
        return ComplexField(grid, values)
    except ValueError as exc:  # header or samples outside the format's domain
        raise LafFormatError(f"{path}: {exc}") from exc


def export_slices_csv(field: ComplexField, directory: str | Path, stem: str) -> list[Path]:
    """Write one CSV per z-slice with columns x, y, re, im.

    Values are written with repr, rows ix-major and CRLF-terminated, as the
    csv module writes them.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    g = field.grid
    ys = [repr(y) for y in g.y_coords().tolist()]
    prefixes = [f"{x!r},{y}," for x in g.x_coords().tolist() for y in ys]
    paths = []
    for iz in range(g.nz):
        path = directory / f"{stem}_z{iz:03d}.csv"
        slab = field.values[:, :, iz]
        rows = map("{}{!r},{!r}".format, prefixes,
                   slab.real.ravel().tolist(), slab.imag.ravel().tolist())
        with open(path, "w", newline="") as fh:
            fh.write("x,y,re,im\r\n" + "\r\n".join(rows) + "\r\n")
        paths.append(path)
    return paths
