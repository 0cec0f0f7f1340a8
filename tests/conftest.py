from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

import flatlayer as fl
from flatlayer.medium import _GATHER_BYTES, SOURCE_NODE_TOL, green_cell_average, green_point
from flatlayer.spectral import forward_slab, inverse_slab

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


def mode_frequencies(lattice):
    """(O1, O2) per mode, each of shape (N*N,), in ModeLattice's order m = k1*N + k2."""
    w1 = 2.0 * np.pi * np.fft.fftfreq(lattice.nx, d=lattice.hx)
    w2 = 2.0 * np.pi * np.fft.fftfreq(lattice.nx, d=lattice.hy)
    return np.repeat(w1, lattice.nx), np.tile(w2, lattice.nx)


def mode_magnitude(lattice):
    """|Omega| per mode; modes with |Omega| < k0 propagate."""
    return np.hypot(*mode_frequencies(lattice))


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
    return forward_slab(slabs, grid.centred()).T


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
    return forward_slab(slabs, grid)


def full_slab_interaction(grid, u_values, xi):
    """V = F[xi * F^-1[U]] per mode on every z-slab of grid, from per-mode values U
    of shape (n_modes, nz) and xi on grid's nodes."""
    slabs = inverse_slab(u_values, grid)
    slabs *= np.moveaxis(xi, 2, 0)
    return forward_slab(slabs, grid)


def full_grid_born_data(config, omega):
    """Reference for synthesis on xi's support: config's receiver data at omega from
    the Born iteration on every scatterer slab, with the full tables and the whole
    grid's stopping rule ||U_n - U_{n-1}|| <= tol * ||U0||. Returns W's values,
    shape (N, N, M1), and the number of iterations."""
    gx, gy = fl.make_grids(config.grid)
    lattice = fl.ModeLattice.for_grid(gx)
    xi = config.phantom.sample_on(gx)
    kxx = fl.build_green_kernel(gx, gx, omega, lattice)
    kxy = fl.build_green_kernel(gx, gy, omega, lattice)
    u0 = fl.incident_field_spectral(config.sources, gx, omega)

    def interaction(u):
        return full_slab_interaction(gx, u, xi)

    u, threshold = u0, config.forward.tol * np.linalg.norm(u0)
    for iterations in range(1, config.forward.max_iter + 1):
        u_next = u0 + kxx.apply(interaction(u))
        step, u = np.linalg.norm(u_next - u), u_next
        if step <= threshold:
            break
    _, w = fl.scattered_data(kxy, gy, interaction(u))
    return w.values, iterations


def dense_operator(grid, omega, xi):
    """The dense form of u -> K(xi u) on xi's nonzero nodes of grid."""
    support = fl.Support.of(xi)
    return fl.SupportOperator(omega, support, grid, matrix=fl.node_kernel(grid, omega, support))


def forward_everywhere(xi, sources, u0, kernel_xx, kernel_xy, grid_y):
    """The forward solve on xi's support (dense form, default tol) and, for the inverse
    tests, the internal field's per-mode values on every slab, U0 + K_xx V with V zero
    off the support's slabs. u0 is the incident spectrum on kernel_xx's grid. Returns
    (fwd, u_values, w_spec, w_field)."""
    grid_x = u0.grid
    operator = dense_operator(grid_x, kernel_xx.omega, xi)
    support = operator.support
    fwd = fl.born_iterate(fl.incident_field_nodes(sources, grid_x, kernel_xx.omega, support),
                          operator)
    v = np.zeros(u0.values.shape, dtype=complex)
    v[:, support.slabs] = fl.support_interaction(fwd.u_values, support, grid_x)
    w_spec, w_field = fl.scattered_data(kernel_xy, grid_y, v)
    return fwd, u0.values + kernel_xx.apply(v), w_spec, w_field


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
    """Desk-scale bundle at omega = 2: grids, full kernel tables, forward solve on
    xi's support with the internal field on every slab, data.

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
    u0 = fl.SpectralField(grid_x, fl.incident_field_spectral(sources, grid_x, omega))
    fwd, u_values, w_spec, w_field = forward_everywhere(xi_exact, sources, u0, kernel_xx,
                                                        kernel_xy, grid_y)
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
        "u_values": u_values,
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
    sums = fl.XiSums.of([fl.inverse_xy(v_spec)], [fl.inverse_xy(u_spec)])
    ext = fl.extract_xi_lsq(sums, eps_div)
    curve = fl.slice_relative_error(ext.xi, desk["xi_exact"], grid_x)
    return ext, curve, stats
