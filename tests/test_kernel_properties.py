"""Property tests of the kernel tables over tiny grids: shifted, rectangular
and non-dyadic windows, random z slabs and frequencies."""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

import flatlayer as fl
from conftest import fft_green_spectra, quadrant_green_spectra, sample_green_slabs
from flatlayer.fields import Grid3D
from flatlayer.medium import green_cell_average, green_point
from flatlayer.spectral import forward_slab


@st.composite
def grid_pairs(draw):
    """Scatterer and receiver grids on one transverse lattice, N <= 16."""
    n = draw(st.sampled_from([2, 4, 8, 16]))
    lx = draw(st.floats(0.5, 30.0))
    ly = lx if draw(st.booleans()) else draw(st.floats(0.5, 30.0))
    x_min, y_min = draw(st.floats(-20.0, 20.0)), draw(st.floats(-20.0, 20.0))

    def slab():
        z0, hz = draw(st.floats(-5.0, 5.0)), draw(st.floats(0.05, 1.0))
        return z0 + hz * np.arange(draw(st.integers(2, 6)))

    return tuple(Grid3D(x_min, x_min + lx, y_min, y_min + ly, n, n, slab()) for _ in range(2))


@given(grid_pairs(), st.floats(0.1, 4.0))
def test_kernel_tables_fold_the_fft_oracle_onto_classes(grids, omega):
    gx, gy = grids
    lat = fl.ModeLattice.for_grid(gx)
    rep, class_of = lat.symmetry_classes()
    # the scatterer table always holds the zero offset, the receiver table may not
    for recv in (gx, gy):
        table = fl.build_green_kernel(gx, recv, omega, lat)
        assert np.array_equal(table.class_of, class_of)
        # one sample per distinct rho^2 gives bitwise what one sample per node gives
        assert np.array_equal(table.values, quadrant_green_spectra(gx, table.offsets, omega, rep))
        per_mode = table.values[:, table.class_of]
        # every mode's column is its class column, to the rounding of the transforms;
        # that rounding scales with the whole slab, so each offset is measured against
        # its largest mode (evanescent columns of a far receiver table fall far below it)
        oracle = fft_green_spectra(gx, table.offsets, omega)
        scale = np.max(np.abs(oracle), axis=1, keepdims=True)
        assert np.max(np.abs(per_mode - oracle) / scale) < 1e-13
        # the origin sample contributes hx*hy times itself to every mode: the cell
        # average at zero offset and G(|dz|) at every other offset
        slabs = sample_green_slabs(gx, table.offsets, omega)
        slabs[:, gx.nx // 2, gx.ny // 2] = 0.0
        rest = forward_slab(slabs, gx.centred()).reshape(per_mode.shape)
        zero = table.offsets == 0.0
        origin = np.where(zero, green_cell_average(gx.hx * gx.hy, omega),
                          green_point(np.where(zero, 1.0, np.abs(table.offsets)), omega))
        diff = per_mode - rest - gx.hx * gx.hy * origin[:, None]
        assert np.max(np.abs(diff) / scale) < 1e-13
        assert zero.any() or recv is gy


def test_thick_benchmark_tables_equal_the_per_node_oracle_bitwise():
    """Both tables of the benchmark's thick geometry (N = 64, M = M1 = 41,
    receivers in [6.01, 6.5], omega = 2), whose offsets span many batches."""
    cfg = fl.GridConfig(n_transverse=64, scatterer_nz=41, receiver_z=(6.01, 6.5), receiver_nz=41)
    gx, gy = fl.make_grids(cfg)
    lat = fl.ModeLattice.for_grid(gx)
    rep, _ = lat.symmetry_classes()
    for recv in (gx, gy):
        table = fl.build_green_kernel(gx, recv, 2.0, lat)
        assert np.array_equal(table.values, quadrant_green_spectra(gx, table.offsets, 2.0, rep))
