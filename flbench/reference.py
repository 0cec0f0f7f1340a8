"""Computations made apart from the program, used to check its outputs.

Everything here is written from the method's formulas and the documented
file layouts, with numpy, hashlib and the standard library only; nothing
imports flatlayer.

Discretization the program uses, restated (see README.md):

* transverse lattice x_j = x_min + j*h, h = (x_max - x_min)/N, periodic;
  the transverse convolution is circular, so G is evaluated at the
  minimum-image offset ((i - j + N/2) mod N - N/2) * h of a centred window;
* z quadrature is the trapezoid rule on the scatterer nodes;
* at rho = 0 G is replaced by its mean over a disk of one cell's area.
"""

from __future__ import annotations

import hashlib
import json
import struct
from pathlib import Path

import numpy as np

LAF_HEADER = struct.Struct("<4sIII6d")
LAF_MAGIC = b"LAF1"


# --- files -----------------------------------------------------------------


def read_laf(path: Path) -> np.ndarray:
    """Parse a LAF1 dump into values shaped (nx, ny, nz).

    Raises ValueError when the magic or the file size disagrees with the
    header.
    """
    raw = Path(path).read_bytes()
    if len(raw) < LAF_HEADER.size:
        raise ValueError(f"{path}: shorter than the header")
    magic, nx, ny, nz, *_bounds = LAF_HEADER.unpack_from(raw)
    if magic != LAF_MAGIC:
        raise ValueError(f"{path}: bad magic {magic!r}")
    expected = LAF_HEADER.size + 16 * nx * ny * nz
    if len(raw) != expected:
        raise ValueError(f"{path}: {len(raw)} bytes, header implies {expected}")
    pairs = np.frombuffer(raw, dtype="<f8", offset=LAF_HEADER.size)
    return (pairs[0::2] + 1j * pairs[1::2]).reshape(nz, ny, nx).transpose(2, 1, 0)


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def check_manifest(stage_dir: Path) -> list[str]:
    """Every file the manifest lists exists with its recorded sha256 and size."""
    problems = []
    manifest = json.loads((stage_dir / "manifest.json").read_text())
    if not manifest.get("files"):
        problems.append(f"{stage_dir.name}: manifest lists no files")
    for entry in manifest.get("files", []):
        path = stage_dir / entry["path"]
        if not path.is_file():
            problems.append(f"{stage_dir.name}: missing {entry['path']}")
            continue
        if path.stat().st_size != entry["bytes"]:
            problems.append(f"{stage_dir.name}: size of {entry['path']} differs")
        if sha256_file(path) != entry["sha256"]:
            problems.append(f"{stage_dir.name}: sha256 of {entry['path']} differs")
    return problems


def check_csv_slices(directory: Path, stem: str, values: np.ndarray,
                     x: np.ndarray, y: np.ndarray) -> list[str]:
    """Slice CSVs (x, y, re, im; ix slow, iy fast) parse back to the dump exactly."""
    nx, ny, nz = values.shape
    problems = []
    for iz in range(nz):
        path = directory / f"{stem}_z{iz:03d}.csv"
        if not path.is_file():
            return [f"missing {path.name}"]
        lines = path.read_text().split()
        if lines[0] != "x,y,re,im" or len(lines) != nx * ny + 1:
            return [f"{path.name}: bad header or row count"]
        table = np.array(",".join(lines[1:]).split(","), dtype=float).reshape(nx, ny, 4)
        if not (np.array_equal(table[..., 2], values[:, :, iz].real)
                and np.array_equal(table[..., 3], values[:, :, iz].imag)):
            problems.append(f"{path.name}: values differ from the dump")
        if not (np.allclose(table[..., 0], x[:, None], rtol=0, atol=1e-12)
                and np.allclose(table[..., 1], y[None, :], rtol=0, atol=1e-12)):
            problems.append(f"{path.name}: coordinates differ from the lattice")
    return problems


# --- geometry and model ----------------------------------------------------


class Lattice:
    """Scatterer and receiver nodes of one workload geometry."""

    def __init__(self, grid: dict):
        (x0, x1), (y0, y1) = grid["x_bounds"], grid["y_bounds"]
        if x0 != -x1 or y0 != -y1 or x1 - x0 != y1 - y0:
            raise ValueError("the checks assume a centred square window")
        self.n = grid["n_transverse"]
        self.h = (x1 - x0) / self.n
        self.x = x0 + self.h * np.arange(self.n)
        self.y = y0 + self.h * np.arange(self.n)
        self.zs = np.linspace(*grid["scatterer_z"], grid["scatterer_nz"])
        self.zr = np.linspace(*grid["receiver_z"], grid["receiver_nz"])
        hz = self.zs[1] - self.zs[0]
        self.mu = np.full(self.zs.size, hz)
        self.mu[0] = self.mu[-1] = 0.5 * hz

    def min_image(self, di: np.ndarray) -> np.ndarray:
        """Offset in lattice steps -> signed distance in [-L/2, L/2)."""
        half = self.n // 2
        return ((di + half) % self.n - half) * self.h


def phantom_xi(phantom: dict, x, y, z) -> np.ndarray:
    """xi = A * sum_b w_b (1 - q_b / r_b^2)_+ with q_b the bump's quadratic form."""
    total = np.zeros(np.broadcast(x, y, z).shape)
    for b in phantom["bumps"]:
        dx, dy, dz = x - b["center"][0], y - b["center"][1], z - b["center"][2]
        q = (dx * dx + dy * dy + dz * dz + b.get("cross_xy", 0.0) * dx * dy
             + b.get("cross_xz", 0.0) * dx * dz + b.get("cross_yz", 0.0) * dy * dz)
        total += b["weight"] * np.maximum(1.0 - q / b["radius"] ** 2, 0.0)
    return phantom["amplitude"] * total


def phantom_on_lattice(phantom: dict, lat: Lattice) -> np.ndarray:
    xg, yg, zg = np.meshgrid(lat.x, lat.y, lat.zs, indexing="ij")
    return phantom_xi(phantom, xg, yg, zg)


def green(rho: np.ndarray, omega: float) -> np.ndarray:
    """Outgoing free-space Green's function -exp(i w rho) / (4 pi rho), c0 = 1."""
    return -np.exp(1j * omega * rho) / (4.0 * np.pi * rho)


def green_cell_mean(h: float, omega: float) -> complex:
    """Mean of G over the disk of area h^2 centred on the singularity."""
    a = np.sqrt(h * h / np.pi)
    integral = (np.exp(1j * omega * a) - 1.0) / (1j * omega)
    return complex(-integral / (2.0 * np.pi * a * a))


def _offset_dz(z_obs: np.ndarray, z_src: np.ndarray) -> np.ndarray:
    # the program tabulates z-differences rounded to 10 decimals
    return np.round(z_obs[:, None] - z_src[None, :], 10)


def _green_between(lat: Lattice, omega: float, obs_ij: np.ndarray, obs_z: np.ndarray,
                   src_ij: np.ndarray, src_z: np.ndarray) -> np.ndarray:
    """G between observation and source nodes with periodic transverse offsets."""
    dx = lat.min_image(obs_ij[:, None, 0] - src_ij[None, :, 0])
    dy = lat.min_image(obs_ij[:, None, 1] - src_ij[None, :, 1])
    dz = _offset_dz(obs_z, src_z)
    rho = np.sqrt(dx * dx + dy * dy + dz * dz)
    singular = rho == 0.0
    out = green(np.where(singular, 1.0, rho), omega)
    out[singular] = green_cell_mean(lat.h, omega)
    return out


class DirectScattering:
    """Scattering by direct sums over the support of xi.

    V = xi*u vanishes off the support S, so the discrete Born fixed point
    u = u0 + w^2 sum_S h^2 mu G xi u closes on S: it is solved there as one
    dense |S| x |S| system, and the receiver data follow by one more direct
    sum W(r) = w^2 sum_S h^2 mu G(r - s) xi u.
    """

    def __init__(self, lat: Lattice, xi: np.ndarray, sources: list[tuple], omega: float):
        self.lat, self.omega = lat, omega
        ix, iy, iz = np.nonzero(xi)
        self.ij = np.column_stack([ix, iy])
        self.z = lat.zs[iz]
        self.weight = omega * omega * lat.h * lat.h * lat.mu[iz] * xi[ix, iy, iz]
        pos = np.column_stack([lat.x[ix], lat.y[iy], self.z])
        self.u0 = np.zeros(ix.size, dtype=complex)
        for (sx, sy, sz), amp in sources:
            self.u0 += amp * green(np.linalg.norm(pos - [sx, sy, sz], axis=1), omega)
        self.kernel = _green_between(lat, omega, self.ij, self.z, self.ij, self.z)
        system = np.eye(ix.size) - self.kernel * self.weight[None, :]
        self.u = np.linalg.solve(system, self.u0)

    def residual(self, sample: np.ndarray) -> float:
        """Relative residual of u = u0 + K(xi u) at sampled support nodes."""
        rhs = self.u0[sample] + self.kernel[sample] @ (self.weight * self.u)
        return float(np.max(np.abs(self.u[sample] - rhs)) / np.max(np.abs(self.u)))

    def receiver_data(self, ij: np.ndarray, z: np.ndarray, block: int = 4096) -> np.ndarray:
        """W at receiver nodes (transverse indices ij, depths z)."""
        out = np.empty(len(z), dtype=complex)
        vw = self.weight * self.u
        for s in range(0, len(z), block):
            g = _green_between(self.lat, self.omega, ij[s:s + block], z[s:s + block],
                               self.ij, self.z)
            out[s:s + block] = g @ vw
        return out


def kernel_columns(lat: Lattice, omega: float, dz: np.ndarray, modes: np.ndarray,
                   block: int = 64) -> np.ndarray:
    """Direct DFT h^2 sum_x G(x, dz) exp(+i Omega.x) of sampled G, shape (len(dz), len(modes)).

    A mode m = k1*N + k2 has Omega = 2 pi fftfreq(N, h)[(k1, k2)].
    """
    freq = 2.0 * np.pi * np.fft.fftfreq(lat.n, d=lat.h)
    xg, yg = np.meshgrid(lat.x, lat.y, indexing="ij")
    phases = np.stack([np.exp(1j * (freq[m // lat.n] * xg + freq[m % lat.n] * yg))
                       for m in modes])
    dz = np.atleast_1d(np.asarray(dz, dtype=float))
    out = np.empty((dz.size, len(modes)), dtype=complex)
    for s in range(0, dz.size, block):
        d = dz[s:s + block, None, None]
        rho = np.sqrt(xg * xg + yg * yg + d * d)
        singular = rho == 0.0
        g = green(np.where(singular, 1.0, rho), omega)
        g[singular] = green_cell_mean(lat.h, omega)
        out[s:s + block] = lat.h * lat.h * np.einsum("dxy,mxy->dm", g, phases)
    return out


def data_modes(lat: Lattice, values: np.ndarray, modes: np.ndarray) -> np.ndarray:
    """Direct DFT of receiver data at given modes: b[i, k] for z-node k."""
    freq = 2.0 * np.pi * np.fft.fftfreq(lat.n, d=lat.h)
    out = np.empty((len(modes), values.shape[2]), dtype=complex)
    for i, m in enumerate(modes):
        phase = np.exp(1j * (freq[m // lat.n] * lat.x[:, None] + freq[m % lat.n] * lat.y[None, :]))
        out[i] = lat.h * lat.h * np.einsum("xyz,xy->z", values, phase)
    return out


# --- reconstruction checks -------------------------------------------------


def slice_errors(xi: np.ndarray, xi_exact: np.ndarray) -> np.ndarray:
    """Per z-slice relative L2 error over slices where the phantom is nonzero."""
    diff = np.linalg.norm((xi - xi_exact).reshape(-1, xi.shape[2]), axis=0)
    exact = np.linalg.norm(xi_exact.reshape(-1, xi.shape[2]), axis=0)
    keep = exact > 0.0
    return diff[keep] / exact[keep]


def bump_offsets(xi: np.ndarray, phantom: dict, lat: Lattice, radius: float = 1.0) -> list[float]:
    """Distance from each bump centre to the argmax of xi within `radius` of it."""
    xg, yg, zg = np.meshgrid(lat.x, lat.y, lat.zs, indexing="ij")
    offsets = []
    for b in phantom["bumps"]:
        cx, cy, cz = b["center"]
        ball = (xg - cx) ** 2 + (yg - cy) ** 2 + (zg - cz) ** 2 <= radius * radius
        k = np.unravel_index(np.argmax(np.where(ball, xi, -np.inf)), xi.shape)
        offsets.append(float(np.sqrt((xg[k] - cx) ** 2 + (yg[k] - cy) ** 2 + (zg[k] - cz) ** 2)))
    return offsets
