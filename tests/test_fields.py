import numpy as np
import pytest

import flatlayer as fl
from conftest import complex_zeros, spectral_zeros
from flatlayer.fields import Grid3D


def test_make_grids_thick_layer_config():
    cfg = fl.GridConfig(
        n_transverse=128,
        scatterer_z=(-0.5, 1.5),
        scatterer_nz=71,
        receiver_z=(6.01, 6.5),
        receiver_nz=71,
    )
    gx, gy = fl.make_grids(cfg)
    assert gx.shape == (128, 128, 71)
    assert gy.shape == (128, 128, 71)
    assert gx.same_transverse_lattice(gy)
    assert gx.hx == pytest.approx(20.0 / 128)


def test_make_grids_thin_layer_config():
    cfg = fl.GridConfig(
        n_transverse=128, scatterer_nz=71, receiver_z=(6.01, 6.02), receiver_nz=2
    )
    _, gy = fl.make_grids(cfg)
    assert gy.nz == 2
    assert gy.hz == pytest.approx(0.01)


def test_make_grids_rejects_overlapping_slabs():
    cfg = fl.GridConfig(
        n_transverse=16, scatterer_z=(0.0, 1.0), receiver_z=(0.5, 2.0),
        scatterer_nz=5, receiver_nz=5,
    )
    with pytest.raises(ValueError, match="overlap"):
        fl.make_grids(cfg)


def test_grid_validation():
    with pytest.raises(ValueError, match="power of two"):
        Grid3D(-1, 1, -1, 1, 12, 12, np.linspace(0, 1, 3))
    with pytest.raises(ValueError, match="increasing"):
        Grid3D(-1, 1, -1, 1, 16, 16, np.array([0.0, 1.0, 0.5]))
    with pytest.raises(ValueError, match="uniform"):
        Grid3D(-1, 1, -1, 1, 16, 16, np.array([0.0, 0.1, 1.0]))
    with pytest.raises(ValueError, match="square"):
        Grid3D(-1, 1, -1, 1, 16, 32, np.linspace(0, 1, 3))


def unit_cell_grid():
    # hx = hy = hz = 1
    return Grid3D(0.0, 4.0, 0.0, 4.0, 4, 4, np.array([0.0, 1.0, 2.0]))


def test_l2_norm_zero_field():
    g = unit_cell_grid()
    assert fl.l2_norm(complex_zeros(g)) == 0.0


def test_l2_norm_single_node_unit_cells():
    g = unit_cell_grid()
    values = np.zeros(g.shape, dtype=complex)
    values[1, 2, 1] = 2.0
    assert fl.l2_norm(fl.ComplexField(g, values)) == pytest.approx(2.0)


def test_l2_norm_matches_naive_sum(tiny_grids):
    gx, _ = tiny_grids
    rng = np.random.default_rng(7)
    values = rng.standard_normal(gx.shape) + 1j * rng.standard_normal(gx.shape)
    field = fl.ComplexField(gx, values)
    total = 0.0
    for ix in range(gx.nx):
        for iy in range(gx.ny):
            for iz in range(gx.nz):
                total += abs(values[ix, iy, iz]) ** 2 * gx.cell_volume
    assert fl.l2_norm(field) == pytest.approx(np.sqrt(total), rel=1e-14)


def test_l2_norm_homogeneity(tiny_grids):
    gx, _ = tiny_grids
    rng = np.random.default_rng(8)
    values = rng.standard_normal(gx.shape) + 1j * rng.standard_normal(gx.shape)
    field = fl.ComplexField(gx, values)
    for alpha in [2.0, -3.5, 1.5 - 2.5j]:
        scaled = fl.ComplexField(gx, alpha * values)
        assert fl.l2_norm(scaled) == pytest.approx(
            abs(alpha) * fl.l2_norm(field), rel=1e-13
        )


def test_field_rejects_bad_shape_and_nonfinite(tiny_grids):
    gx, _ = tiny_grids
    with pytest.raises(ValueError, match="shape"):
        fl.ComplexField(gx, np.zeros((2, 2, 2), dtype=complex))
    bad = np.zeros(gx.shape, dtype=complex)
    bad[0, 0, 0] = np.nan
    with pytest.raises(ValueError, match="finite"):
        fl.ComplexField(gx, bad)


def test_field_values_immutable(tiny_grids):
    gx, _ = tiny_grids
    field = complex_zeros(gx)
    with pytest.raises(ValueError):
        field.values[0, 0, 0] = 1.0


def test_spectral_field_mode_count(tiny_grids):
    gx, _ = tiny_grids
    spec = spectral_zeros(gx)
    assert spec.values.shape == (gx.nx * gx.ny, gx.nz)
    with pytest.raises(ValueError, match="shape"):
        fl.SpectralField(gx, np.zeros((3, 3), dtype=complex))
