import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import flatlayer as fl
from conftest import fft_green_spectra, incident_per_source, three_bumps
from flatlayer.fields import Grid3D
from flatlayer.medium import green_cell_average, green_spectra, trapezoid_weights


def test_green_point_static():
    assert fl.green_point(1.0, 0.0) == pytest.approx(-1.0 / (4 * np.pi))


def test_green_point_magnitude_law():
    for omega in [0.0, 1.0, 5.0]:
        assert abs(fl.green_point(2.0, omega)) == pytest.approx(1.0 / (8 * np.pi))


def test_green_point_phase():
    expected = -np.exp(2j) / (4 * np.pi)
    assert fl.green_point(1.0, 2.0) == pytest.approx(expected, rel=1e-14)


def test_green_point_rejects_origin():
    with pytest.raises(ValueError, match="rho > 0"):
        fl.green_point(0.0, 1.0)


def test_green_cell_average_static_limit():
    area = 0.04
    a = np.sqrt(area / np.pi)
    assert green_cell_average(area, 0.0) == pytest.approx(-1.0 / (2 * np.pi * a))


def test_green_cell_average_matches_radial_quadrature():
    area = 0.09
    a = np.sqrt(area / np.pi)
    omega = 2.0
    rho = np.linspace(1e-9, a, 20001)
    integrand = -np.exp(1j * omega * rho) / (4 * np.pi * rho) * 2 * np.pi * rho
    oracle = np.trapezoid(integrand, rho) / (np.pi * a * a)
    assert green_cell_average(area, omega) == pytest.approx(oracle, rel=1e-8)


def test_kernel_translation_invariance(tiny_grids):
    gx, _ = tiny_grids
    lat = fl.ModeLattice.for_grid(gx)
    table = fl.build_green_kernel(gx, gx, 2.0, lat)
    # equal z-differences share one table row, so entries agree exactly
    mats = table.mode_matrices(0, table.n_classes)[table.class_of]
    assert np.array_equal(mats[:, 3, 1], mats[:, 4, 2])
    assert np.array_equal(mats[:, 0, 2], mats[:, 4, 6])


def test_kernel_table_independent_of_window_position():
    # G depends on node differences only, so moving the window over the same
    # periods must leave the table unchanged
    def table(bounds):
        cfg = fl.GridConfig(
            x_bounds=bounds, y_bounds=bounds, n_transverse=32,
            scatterer_nz=5, receiver_nz=3,
        )
        gx, gy = fl.make_grids(cfg)
        return fl.build_green_kernel(gx, gy, 2.0, fl.ModeLattice.for_grid(gx))

    centred = table((-10.0, 10.0))
    for bounds in [(-5.0, 15.0), (-10.1, 9.9)]:
        shifted = table(bounds)
        assert np.array_equal(shifted.offsets, centred.offsets)
        assert np.array_equal(shifted.values, centred.values), bounds


def test_kernel_even_in_mode(tiny_grids):
    gx, _ = tiny_grids
    lat = fl.ModeLattice.for_grid(gx)
    table = fl.build_green_kernel(gx, gx, 2.0, lat)
    n = gx.nx
    vals = table.mode_matrices(0, table.n_classes)[table.class_of][:, 2, 0].reshape(n, n)
    for k1, k2 in [(1, 3), (2, 2), (5, 0)]:
        assert vals[(-k1) % n, (-k2) % n] == pytest.approx(vals[k1, k2], rel=1e-12)


@pytest.mark.parametrize("y_bounds, classes", [((-10.0, 10.0), 9 * 10 // 2), ((-6.0, 6.0), 9 * 9)])
def test_kernel_tables_equal_their_class_representatives(y_bounds, classes):
    # every mode holds its symmetry class representative's column bit for bit;
    # a rectangular window (Lx != Ly) keeps the sign classes only
    cfg = fl.GridConfig(
        y_bounds=y_bounds, n_transverse=16, scatterer_z=(-0.5, 1.5), scatterer_nz=5,
        receiver_z=(6.01, 6.5), receiver_nz=3,
    )
    gx, gy = fl.make_grids(cfg)
    lat = fl.ModeLattice.for_grid(gx)
    rep, class_of = lat.symmetry_classes()
    assert rep.size == classes  # (N/2+1)(N/2+2)/2 square, (N/2+1)^2 rectangular
    for recv in (gx, gy):
        table = fl.build_green_kernel(gx, recv, 2.0, lat)
        assert np.array_equal(table.class_of, class_of)
        per_mode = table.values[:, table.class_of]
        assert np.array_equal(per_mode, per_mode[:, rep[class_of]])
        # every mode matches the full-lattice FFT oracle to the rounding of the transforms
        unfolded = fft_green_spectra(gx, table.offsets, 2.0)
        scale = np.max(np.abs(unfolded), axis=1, keepdims=True)
        assert np.max(np.abs(per_mode - unfolded) / scale) < 1e-13


def test_kernel_reciprocity_between_tables():
    # grids arranged so an offset of exactly 1.0 appears in both tables
    cfg = fl.GridConfig(
        n_transverse=16, scatterer_z=(0.0, 1.0), scatterer_nz=3,
        receiver_z=(2.0, 3.0), receiver_nz=3,
    )
    gx, gy = fl.make_grids(cfg)
    lat = fl.ModeLattice.for_grid(gx)
    t_xx = fl.build_green_kernel(gx, gx, 2.0, lat)
    t_yx = fl.build_green_kernel(gx, gy, 2.0, lat)
    j_xx = np.nonzero(np.isclose(t_xx.offsets, 1.0))[0][0]
    j_yx = np.nonzero(np.isclose(t_yx.offsets, 1.0))[0][0]
    assert np.array_equal(t_xx.values[j_xx], t_yx.values[j_yx])


def test_kernel_static_limit_against_refined_quadrature(tiny_grids):
    # omega -> 0: the DC-mode value approaches the refined-lattice quadrature
    gx, _ = tiny_grids
    omega = 1e-8
    dz = 0.75
    built = green_spectra(gx, np.array([dz]), omega, np.array([0]))[0, 0]
    refine = 4
    n = gx.nx * refine
    h = gx.hx / refine
    x = gx.x_min + h * np.arange(n)
    r = np.sqrt(x[:, None] ** 2 + x[None, :] ** 2 + dz * dz)
    oracle = np.sum(-np.exp(1j * omega * r) / (4 * np.pi * r)) * h * h
    assert abs(built - oracle) / abs(oracle) < 0.02


def rectangular_xy_table():
    # Lx != Ly keeps the sign classes only: 1,089 at N=64
    cfg = fl.GridConfig(y_bounds=(-6.0, 6.0), n_transverse=64, scatterer_nz=5, receiver_nz=3)
    gx, gy = fl.make_grids(cfg)
    return fl.build_green_kernel(gx, gy, 2.0, fl.ModeLattice.for_grid(gx))


def test_apply_chunks_match_dense_mode_matrices(desk):
    # the desk table (square window, 561 classes) and a rectangular window's
    # table (sign classes only, 1,089)
    for table, classes in [(desk["kernel_xy"], 561), (rectangular_xy_table(), 1089)]:
        assert table.n_classes == classes
        chunks = list(table.mode_chunks())
        assert len(chunks) > 1
        assert chunks[0][0] == 0 and chunks[-1][1] == table.n_classes
        assert all(prev[1] == nxt[0] for prev, nxt in zip(chunks, chunks[1:]))
        # members lists every mode once, under its own class
        mem = table.members
        valid = mem >= 0
        assert np.array_equal(np.sort(mem[valid]), np.arange(table.n_modes))
        assert np.array_equal(table.class_of[mem[valid]], np.nonzero(valid)[0])
        rng = np.random.default_rng(19)
        size = (table.n_modes, table.n_cols)
        v = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        mu = trapezoid_weights(table.col_z)
        mats = table.mode_matrices(0, table.n_classes)
        # chunking changes which classes share a gather, not the arithmetic:
        # one unchunked product of every class matrix with its members' vectors
        stacked = np.zeros(mem.shape + (table.n_cols,), dtype=complex)
        stacked[valid] = (v * mu)[mem[valid]]
        product = (mats @ stacked.transpose(0, 2, 1)).transpose(0, 2, 1)
        dense = np.empty((table.n_modes, table.n_rows), dtype=complex)
        dense[mem[valid]] = product[valid]
        omega2 = table.omega * table.omega
        out = table.apply(v)
        assert np.array_equal(out, omega2 * dense)
        # and the per-mode sum it replaces, within the rounding bound of a dot product
        per_mode = omega2 * np.einsum("mkl,ml->mk", mats[table.class_of], v * mu)
        magnitude = omega2 * np.einsum("mkl,ml->mk", np.abs(mats[table.class_of]),
                                       np.abs(v * mu))
        assert np.all(np.abs(out - per_mode) <= table.n_cols * np.finfo(float).eps * magnitude)


def test_kernel_rejects_mismatched_transverse_lattice(tiny_grids):
    gx, _ = tiny_grids
    other = Grid3D(-5.0, 5.0, -5.0, 5.0, gx.nx, gx.ny, gx.z_nodes)
    lat = fl.ModeLattice.for_grid(gx)
    with pytest.raises(ValueError, match="transverse"):
        fl.build_green_kernel(gx, other, 2.0, lat)


def test_incident_field_zero_amplitudes(tiny_grids):
    gx, _ = tiny_grids
    sources = fl.SourceSet(np.array([[0.3, 0.1, 6.0]]), np.array([0.0]))
    spec = fl.incident_field_spectral(sources, gx, 2.0)
    assert np.all(spec.values == 0)


def test_incident_field_matches_direct_sampling(tiny_grids):
    gx, _ = tiny_grids
    pos = np.array([[0.31, -0.27, 6.0]])
    sources = fl.SourceSet(pos, np.array([1.0]))
    spec = fl.incident_field_spectral(sources, gx, 2.0)
    field = fl.inverse_xy(spec)
    xg, yg, zg = gx.meshgrid()
    r = np.sqrt((xg - pos[0, 0]) ** 2 + (yg - pos[0, 1]) ** 2 + (zg - pos[0, 2]) ** 2)
    direct = -np.exp(2j * r) / (4 * np.pi * r)
    away = np.sqrt((xg - pos[0, 0]) ** 2 + (yg - pos[0, 1]) ** 2) > 1.0
    err = np.max(np.abs((field.values - direct)[away])) / np.max(np.abs(direct[away]))
    assert err < 1e-10


def test_incident_field_line_sources_symmetric(tiny_grids):
    gx, _ = tiny_grids
    sources = fl.SourceSet.line_y(np.arange(-5.0, 5.5, 1.0))
    field = fl.inverse_xy(fl.incident_field_spectral(sources, gx, 2.0))
    n = gx.ny
    mirrored = field.values[:, (-np.arange(n)) % n, :]  # y -> -y on the lattice
    assert np.allclose(mirrored, field.values, rtol=1e-10, atol=1e-13)


def test_incident_field_additive_over_source_subsets(tiny_grids):
    gx, _ = tiny_grids
    s1 = fl.SourceSet(np.array([[0.3, 0.1, 6.0]]), np.array([1.0 + 0.5j]))
    s2 = fl.SourceSet(np.array([[-1.2, 2.1, -3.0]]), np.array([0.7]))
    both = fl.SourceSet(
        np.vstack([s1.positions, s2.positions]),
        np.concatenate([s1.amplitudes, s2.amplitudes]),
    )
    lhs = fl.incident_field_spectral(both, gx, 2.0).values
    rhs = (
        fl.incident_field_spectral(s1, gx, 2.0).values
        + fl.incident_field_spectral(s2, gx, 2.0).values
    )
    assert np.allclose(lhs, rhs, rtol=1e-13, atol=0)


def test_incident_field_rejects_source_on_node(tiny_grids):
    gx, _ = tiny_grids
    node = (gx.x_coords()[3], gx.y_coords()[5], float(gx.z_nodes[2]))
    sources = fl.SourceSet(np.array([node]), np.array([1.0]))
    with pytest.raises(ValueError, match="coincides"):
        fl.incident_field_spectral(sources, gx, 2.0)
    # the message names the source on the node, not another one at its height
    off_node = (node[0] + 0.3, node[1], node[2])
    sources = fl.SourceSet(np.array([off_node, node]), np.array([1.0, 1.0]))
    with pytest.raises(ValueError, match=f"source at .*{node[0]}.*coincides"):
        fl.incident_field_spectral(sources, gx, 2.0)


def test_incident_field_is_the_per_source_sum_bitwise():
    """The benchmark's thin geometry: 11 sources on one line over N = 64, M = 41."""
    cfg = fl.GridConfig(n_transverse=64, scatterer_nz=41, receiver_z=(6.01, 6.02),
                        receiver_nz=2)
    gx, _ = fl.make_grids(cfg)
    sources = fl.SourceSet.line_y(np.arange(-5.0, 5.5, 1.0), amplitude=np.exp(0.7j))
    got = fl.incident_field_spectral(sources, gx, 2.0).values
    expected = incident_per_source(sources, gx, 2.0)
    assert np.array_equal(got, expected)
    assert got.tobytes() == expected.tobytes()  # bitwise, signed zeros included


@st.composite
def incident_cases(draw):
    """A tiny scatterer grid (N <= 16, shifted and possibly rectangular window)
    and 1-6 sources at up to three heights, some sharing a position, with
    complex or zero amplitudes."""
    n = draw(st.sampled_from([2, 4, 8, 16]))
    lx = draw(st.floats(0.5, 30.0))
    ly = lx if draw(st.booleans()) else draw(st.floats(0.5, 30.0))
    x_min, y_min = draw(st.floats(-20.0, 20.0)), draw(st.floats(-20.0, 20.0))
    z0, hz = draw(st.floats(-5.0, 5.0)), draw(st.floats(0.05, 1.0))
    z_nodes = z0 + hz * np.arange(draw(st.integers(2, 6)))
    grid = Grid3D(x_min, x_min + lx, y_min, y_min + ly, n, n, z_nodes)
    heights = draw(st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=3))
    amplitude = st.one_of(st.just(0j), st.complex_numbers(max_magnitude=2.0, allow_nan=False,
                                                          allow_infinity=False))
    positions, amplitudes = [], []
    for _ in range(draw(st.integers(1, 6))):
        if positions and draw(st.booleans()):
            positions.append(draw(st.sampled_from(positions)))
        else:
            positions.append((draw(st.floats(-25.0, 25.0)), draw(st.floats(-25.0, 25.0)),
                              draw(st.sampled_from(heights))))
        amplitudes.append(draw(amplitude))
    return grid, fl.SourceSet(np.array(positions), np.array(amplitudes))


@given(incident_cases(), st.floats(0.1, 4.0))
def test_incident_field_matches_per_source_oracle(case, omega):
    grid, sources = case
    try:
        expected = incident_per_source(sources, grid, omega)
    except ValueError:
        with pytest.raises(ValueError, match="coincides"):
            fl.incident_field_spectral(sources, grid, omega)
        return
    got = fl.incident_field_spectral(sources, grid, omega).values
    assert got.tobytes() == expected.tobytes()


def test_phantom_bump_centers():
    phantom = three_bumps(0.3)
    assert phantom(1.0, 2.0, 0.5) == pytest.approx(0.3)
    assert phantom(4.0, -3.0, 0.5) == pytest.approx(0.6)
    assert phantom(-3.0, 0.0, 0.45) == pytest.approx(0.75)
    assert phantom(0.0, 0.0, 10.0) == 0.0


def test_phantom_nonnegative_and_compactly_supported():
    phantom = three_bumps(0.3)
    rng = np.random.default_rng(1)
    x = rng.uniform(-10, 10, 20000)
    y = rng.uniform(-10, 10, 20000)
    z = rng.uniform(-2, 3, 20000)
    vals = phantom(x, y, z)
    assert np.all(vals >= 0)
    outside = (np.abs(x) > 6) | (np.abs(y) > 6) | (z < -0.5) | (z > 1.5)
    assert np.all(vals[outside] == 0)
