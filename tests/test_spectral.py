import numpy as np
import pytest

import flatlayer as fl
from conftest import spectral_zeros


def random_field(grid, seed=0):
    rng = np.random.default_rng(seed)
    values = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    return fl.ComplexField(grid, values)


def naive_dft_slab(slab, grid, lattice):
    """Direct quadrature evaluation of the transform, one mode at a time."""
    out = np.empty(lattice.n_modes, dtype=complex)
    x = grid.x_coords()
    y = grid.y_coords()
    for m in range(lattice.n_modes):
        px = np.exp(1j * lattice.omega1[m] * x)
        py = np.exp(1j * lattice.omega2[m] * y)
        out[m] = grid.hx * grid.hy * (px @ slab @ py)
    return out


def test_mode_lattice_frequencies(tiny_grids):
    gx, _ = tiny_grids
    lat = fl.ModeLattice.for_grid(gx)
    expected = 2 * np.pi * np.fft.fftfreq(gx.nx, d=gx.hx)
    assert np.allclose(np.unique(lat.omega1), np.unique(expected))
    # symmetry: every mode has a negated partner on the lattice
    pairs = {(round(a, 12), round(b, 12)) for a, b in zip(lat.omega1, lat.omega2)}
    n = gx.nx
    nyquist = -2 * np.pi * (n // 2) / (n * gx.hx)
    for a, b in pairs:
        # the Nyquist line is its own negation modulo the lattice period
        am = a if a != round(nyquist, 12) else -a
        bm = b if b != round(nyquist, 12) else -b
        assert (round(-am, 12), round(-bm, 12)) in pairs


def test_round_trip_identity(tiny_grids):
    gx, _ = tiny_grids
    field = random_field(gx)
    back = fl.inverse_xy(fl.forward_xy(field))
    err = np.max(np.abs(back.values - field.values)) / np.max(np.abs(field.values))
    assert err < 1e-12


def test_forward_matches_naive_dft(tiny_grids):
    gx, _ = tiny_grids
    lat = fl.ModeLattice.for_grid(gx)
    field = random_field(gx, seed=3)
    spec = fl.forward_xy(field)
    oracle = naive_dft_slab(field.values[:, :, 0], gx, lat)
    err = np.max(np.abs(spec.values[:, 0] - oracle)) / np.max(np.abs(oracle))
    assert err < 1e-11


def test_constant_slab_concentrates_at_dc(tiny_grids):
    gx, _ = tiny_grids
    c = 2.5 - 1.5j
    field = fl.ComplexField(gx, np.full(gx.shape, c))
    spec = fl.forward_xy(field)
    expected = c * (gx.nx * gx.hx) * (gx.ny * gx.hy)
    assert spec.values[0, 0] == pytest.approx(expected, rel=1e-13)
    assert np.max(np.abs(spec.values[1:, :])) < 1e-12 * abs(expected)


def test_on_lattice_plane_wave_single_mode(tiny_grids):
    # exp(-i(W1 x + W2 y)) pairs with the +i forward kernel into a constant
    gx, _ = tiny_grids
    lat = fl.ModeLattice.for_grid(gx)
    m_star = 5 * gx.nx + 3
    xg, yg = np.meshgrid(gx.x_coords(), gx.y_coords(), indexing="ij")
    slab = np.exp(-1j * (lat.omega1[m_star] * xg + lat.omega2[m_star] * yg))
    field = fl.ComplexField(gx, np.repeat(slab[:, :, None], gx.nz, axis=2))
    spec = fl.forward_xy(field)
    expected = (gx.nx * gx.hx) * (gx.ny * gx.hy)
    assert spec.values[m_star, 0] == pytest.approx(expected, rel=1e-12)
    others = np.delete(spec.values[:, 0], m_star)
    assert np.max(np.abs(others)) < 1e-12 * expected


def test_zero_spectrum_gives_zero_field(tiny_grids):
    gx, _ = tiny_grids
    field = fl.inverse_xy(spectral_zeros(gx))
    assert np.all(field.values == 0)


def test_single_mode_spectrum_is_plane_wave(tiny_grids):
    gx, _ = tiny_grids
    lat = fl.ModeLattice.for_grid(gx)
    m_star = 2 * gx.nx + 9
    values = np.zeros((lat.n_modes, gx.nz), dtype=complex)
    values[m_star, :] = 1.0
    field = fl.inverse_xy(fl.SpectralField(gx, values))
    xg, yg = np.meshgrid(gx.x_coords(), gx.y_coords(), indexing="ij")
    analytic = np.exp(-1j * (lat.omega1[m_star] * xg + lat.omega2[m_star] * yg)) / (
        gx.nx * gx.ny * gx.hx * gx.hy
    )
    err = np.max(np.abs(field.values[:, :, 0] - analytic)) / np.max(np.abs(analytic))
    assert err < 1e-12


def test_linearity(tiny_grids):
    gx, _ = tiny_grids
    f = random_field(gx, seed=5)
    g = random_field(gx, seed=6)
    a, b = 1.5 - 0.5j, -2.0 + 1.0j
    combo = fl.ComplexField(gx, a * f.values + b * g.values)
    lhs = fl.forward_xy(combo).values
    rhs = a * fl.forward_xy(f).values + b * fl.forward_xy(g).values
    assert np.max(np.abs(lhs - rhs)) / np.max(np.abs(rhs)) < 1e-12


def test_conjugate_symmetry_for_real_slabs(tiny_grids):
    gx, _ = tiny_grids
    rng = np.random.default_rng(9)
    field = fl.ComplexField(gx, rng.standard_normal(gx.shape).astype(complex))
    spec = fl.forward_xy(field).values[:, 0].reshape(gx.nx, gx.ny)
    n = gx.nx
    for k1, k2 in [(1, 2), (3, 11), (7, 0), (5, 5)]:
        mirrored = spec[(-k1) % n, (-k2) % n]
        assert mirrored == pytest.approx(np.conj(spec[k1, k2]), rel=1e-11)


def test_parseval(tiny_grids):
    gx, _ = tiny_grids
    field = random_field(gx, seed=11)
    spec = fl.forward_xy(field)
    slab_energy = np.sum(np.abs(field.values[:, :, 0]) ** 2) * gx.hx * gx.hy
    mode_energy = np.sum(np.abs(spec.values[:, 0]) ** 2) / (
        gx.nx * gx.ny * gx.hx * gx.hy
    )
    assert mode_energy == pytest.approx(slab_energy, rel=1e-12)


@pytest.mark.parametrize("y_bounds, classes", [((-10.0, 10.0), 561), ((-7.5, 7.5), 1089)])
def test_symmetry_classes(y_bounds, classes):
    gx, _ = fl.make_grids(fl.GridConfig(n_transverse=64, y_bounds=y_bounds))
    lat = fl.ModeLattice.for_grid(gx)
    rep, class_of = lat.symmetry_classes()
    assert rep.size == classes and class_of.shape == (lat.n_modes,)
    assert np.array_equal(class_of[rep], np.arange(rep.size))
    first = np.full(classes, lat.n_modes)
    np.minimum.at(first, class_of, np.arange(lat.n_modes))
    assert np.array_equal(rep, first)  # the lowest mode index of each class
    # a class is one value of (|O1|, |O2|), unordered when hx == hy
    key = np.abs(np.column_stack([lat.omega1, lat.omega2]))
    if lat.hx == lat.hy:
        key = np.sort(key, axis=1)
    assert np.array_equal(key[rep[class_of]], key)
    assert np.unique(key, axis=0).shape[0] == classes
