from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

import flatlayer as fl
from flatlayer.medium import _GATHER_BYTES, SOURCE_NODE_TOL, green_cell_average, green_point
from flatlayer.spectral import forward_slab

# property tests replay the same examples on every run and take no timing limit
settings.register_profile("flatlayer", derandomize=True, max_examples=20, deadline=None,
                          database=None)
settings.load_profile("flatlayer")


def three_bumps(amplitude=0.3):
    """The model medium of the presets and the benchmark: three small local
    inhomogeneities, two of them tilted in (y, z)."""
    return fl.Phantom(
        amplitude=amplitude,
        bumps=(
            fl.Bump(center=(1.0, 2.0, 0.5), radius=0.4, weight=1.0),
            fl.Bump(center=(4.0, -3.0, 0.5), radius=0.25, weight=2.0, cross_yz=1.5),
            fl.Bump(center=(-3.0, 0.0, 0.45), radius=0.3, weight=2.5, cross_yz=-1.5),
        ),
    )


def complex_zeros(grid):
    """The zero field on grid."""
    return fl.ComplexField(grid, np.zeros(grid.shape, dtype=complex))


def spectral_zeros(grid):
    """The zero spectrum on grid."""
    return fl.SpectralField(grid, np.zeros((grid.nx * grid.ny, grid.nz), dtype=complex))


def mode_magnitude(lattice):
    """|Omega| per mode; modes with |Omega| < k0 propagate."""
    return np.hypot(lattice.omega1, lattice.omega2)


def sample_green_slabs(grid, dz_list, omega):
    """G on every node of grid.centred()'s transverse lattice, origin at node
    (N/2, N/2), for each z-offset; at zero offset the rho = 0 sample is the
    analytic disk average of G over one cell. Shape (n_dz, N, N)."""
    centred = grid.centred()
    x = centred.x_coords()
    y = centred.y_coords()
    dz = np.asarray(dz_list, dtype=float)
    r = np.sqrt(x[:, None] ** 2 + y[None, :] ** 2 + dz[:, None, None] ** 2)
    origin = (np.abs(dz) < 1e-14, grid.nx // 2, grid.ny // 2)
    r[origin] = 1.0  # placeholder, overwritten below
    slabs = green_point(r, omega)
    slabs[origin] = green_cell_average(grid.hx * grid.hy, omega)
    return slabs


def fft_green_spectra(grid, dz_list, omega):
    """Full-lattice FFT oracle of medium.green_spectra: the slab transform of
    sample_green_slabs for every mode, shape (n_dz, N*N)."""
    slabs = sample_green_slabs(grid, dz_list, omega)
    return forward_slab(slabs, grid.centred()).reshape(slabs.shape[0], -1)


def quadrant_green_spectra(grid, dz_list, omega, modes):
    """Per-node oracle of medium.green_spectra: G sampled on every node of one
    (N/2+1)^2 quadrant for each z-offset, cosine-transformed in the same
    batches of offsets, so that its result is bitwise the same."""
    n, half = grid.nx, grid.nx // 2
    centred = grid.centred()
    quadrant = np.r_[half:n, 0]
    rho2 = centred.y_coords()[quadrant, None] ** 2 + centred.x_coords()[None, quadrant] ** 2
    a = np.arange(half + 1)
    cos = np.cos(2 * np.pi * (np.outer(a, a) % n) / n) * np.where(a % half, 2.0, 1.0)
    k = np.abs(np.fft.fftfreq(n, d=1.0 / n)).astype(np.intp)
    dz_all = np.asarray(dz_list, dtype=float)
    out = np.empty((dz_all.size, modes.size), dtype=complex)
    block = max(1, _GATHER_BYTES // (rho2.size * out.itemsize))
    for start in range(0, dz_all.size, block):
        dz = dz_all[start:start + block]
        r = np.sqrt(rho2 + dz[:, None, None] ** 2)
        singular = np.abs(dz) < 1e-14
        r[singular, 0, 0] = 1.0  # placeholder, overwritten below
        q = green_point(r, omega)
        q[singular, 0, 0] = green_cell_average(grid.hx * grid.hy, omega)
        t = (grid.hy * cos @ q.view(float)).view(complex).transpose(0, 2, 1)
        spec = (grid.hx * cos @ np.ascontiguousarray(t).view(float)).view(complex)
        out[start:start + block] = spec.reshape(dz.size, -1)[:, k[modes // n] * (half + 1)
                                                              + k[modes % n]]
    return out


def incident_per_source(sources, grid, omega):
    """Per-source oracle of medium.incident_field_spectral: G sampled on every
    node once per source, summed in source order and transformed; values of
    shape (N*N, nz)."""
    x = grid.x_coords()
    y = grid.y_coords()
    slabs = np.zeros((grid.nz, grid.nx, grid.ny), dtype=complex)
    for p, a in zip(sources.positions, sources.amplitudes):
        dist2_xy = (x[:, None] - p[0]) ** 2 + (y[None, :] - p[1]) ** 2
        r = np.sqrt(dist2_xy[None, :, :] + ((grid.z_nodes - p[2]) ** 2)[:, None, None])
        if r.min() < SOURCE_NODE_TOL:
            raise ValueError(f"source at {tuple(p)} coincides with a grid node")
        slabs += a * green_point(r, omega)
    return forward_slab(slabs, grid).reshape(grid.nz, grid.nx * grid.ny).T


def assert_slices_parse_back(directory, stem, field):
    """The slice CSVs of field: one per z-slice of exactly 11 + 101 * N^2 bytes,
    the header x,y,re,im and ix-major rows of 99 bytes plus CRLF whose numbers
    parse back bitwise to the node's coordinates and the field's value."""
    g = field.grid
    x, y = np.meshgrid(g.x_coords(), g.y_coords(), indexing="ij")
    for iz in range(g.nz):
        raw = (Path(directory) / f"{stem}_z{iz:03d}.csv").read_bytes()
        assert len(raw) == 11 + 101 * g.nx * g.ny
        header, *rows, end = raw.split(b"\r\n")
        assert header == b"x,y,re,im" and end == b""
        assert all(len(row) == 99 for row in rows)
        table = np.array([[float(tok) for tok in row.split(b",")] for row in rows])
        slab = field.values[:, :, iz]
        expect = np.column_stack([x.ravel(), y.ravel(), slab.real.ravel(), slab.imag.ravel()])
        assert table.tobytes() == expect.tobytes()  # bitwise, signs of zero included


@pytest.fixture(scope="session")
def tiny_grids():
    """Small grid pair for contract tests (fast kernel builds)."""
    cfg = fl.GridConfig(
        n_transverse=16,
        scatterer_z=(-0.5, 1.5),
        scatterer_nz=7,
        receiver_z=(6.01, 6.5),
        receiver_nz=5,
    )
    return fl.make_grids(cfg)


@pytest.fixture(scope="session")
def desk():
    """Desk-scale bundle at omega = 2: grids, kernels, forward solve, data.

    Shared by the forward/inverse/regularizer tests and the acceptance
    suite; computed once per session.
    """
    cfg = fl.GridConfig(n_transverse=64, scatterer_nz=31, receiver_nz=31)
    grid_x, grid_y = fl.make_grids(cfg)
    lattice = fl.ModeLattice.for_grid(grid_x)
    phantom = three_bumps(0.3)
    sources = fl.SourceSet.line_y(np.arange(-5.0, 5.5, 1.0))
    omega = 2.0
    xi_exact = phantom.sample_on(grid_x)
    kernel_xx = fl.build_green_kernel(grid_x, grid_x, omega, lattice)
    kernel_xy = fl.build_green_kernel(grid_x, grid_y, omega, lattice)
    u0 = fl.incident_field_spectral(sources, grid_x, omega)
    fwd = fl.born_iterate(u0, kernel_xx, xi_exact)
    w_spec, w_field = fl.scattered_data(
        kernel_xy, grid_y, fl.interaction_spectral(fwd.u_spec, xi_exact)
    )
    return {
        "config": cfg,
        "grid_x": grid_x,
        "grid_y": grid_y,
        "lattice": lattice,
        "phantom": phantom,
        "sources": sources,
        "omega": omega,
        "xi_exact": xi_exact,
        "kernel_xx": kernel_xx,
        "kernel_xy": kernel_xy,
        "u0": u0,
        "forward": fwd,
        "w_spec": w_spec,
        "w_field": w_field,
    }


def reconstruct(desk, w_field, reg=None, eps_div=1e-3):
    """Run the inverse stage on given data; returns (extraction, curve)."""
    if reg is None:
        reg = fl.RegularizerConfig()
    grid_x = desk["grid_x"]
    v_spec, stats = fl.solve_modes(
        fl.forward_xy(w_field), desk["kernel_xy"], desk["omega"], reg, grid_x
    )
    u_spec = fl.recompute_internal_field(v_spec, desk["u0"], desk["kernel_xx"])
    ext = fl.extract_xi_single(fl.inverse_xy(v_spec), fl.inverse_xy(u_spec), eps_div)
    curve = fl.slice_relative_error(ext.xi, desk["xi_exact"], grid_x)
    return ext, curve, stats
