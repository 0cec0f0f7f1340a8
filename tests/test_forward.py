from dataclasses import replace

import numpy as np
import pytest

import flatlayer as fl
from conftest import spectral_zeros, three_bumps
from flatlayer.forward import DivergenceError, interaction_spectral
from flatlayer.medium import trapezoid_weights
from flatlayer.spectral import forward_slab, inverse_slab

# regression lock from the first verified desk-scale build
# (N=64, M=M1=31, omega=2, thick layer, exact data)
W_SNAPSHOT = {
    (32, 32, 0): 2.1355270339755862e-05 - 4.2127344947126966e-05j,
    (20, 40, 15): 4.3959923654474056e-05 + 0.00014356191801611143j,
    (40, 20, 30): 1.555469549249503e-05 + 5.296929425314741e-05j,
    (10, 10, 7): 6.11432528237269e-05 + 7.728458551555291e-05j,
    (50, 30, 22): -0.00016172400502058489 + 9.899048878085918e-05j,
}
W_L2_SNAPSHOT = 0.0016014682019243997


@pytest.fixture(scope="module")
def small_setup():
    cfg = fl.GridConfig(n_transverse=32, scatterer_nz=11, receiver_nz=5)
    gx, gy = fl.make_grids(cfg)
    lat = fl.ModeLattice.for_grid(gx)
    sources = fl.SourceSet.line_y(np.arange(-5.0, 5.5, 1.0))
    return cfg, gx, gy, lat, sources


def test_zero_scatterer_converges_in_one_exact_step(small_setup):
    _, gx, _, lat, sources = small_setup
    omega = 2.0
    kxx = fl.build_green_kernel(gx, gx, omega, lat)
    u0 = fl.incident_field_spectral(sources, gx, omega)
    res = fl.born_iterate(u0, kxx, np.zeros(gx.shape))
    assert res.iterations == 1
    assert res.converged
    assert np.array_equal(res.u_spec.values, u0.values)


def test_small_omega_geometric_decay(small_setup):
    _, gx, _, lat, sources = small_setup
    omega = 0.1
    kxx = fl.build_green_kernel(gx, gx, omega, lat)
    u0 = fl.incident_field_spectral(sources, gx, omega)
    res = fl.born_iterate(
        u0, kxx, three_bumps(0.3).sample_on(gx), tol=0.0, max_iter=4
    )
    r = res.residual_history
    ratios = r[1:] / r[:-1]
    assert ratios.size >= 2
    assert np.all(ratios < 0.01)  # strong contraction at small omega
    assert np.max(ratios) / np.min(ratios) < 1.5  # near-constant factor


def test_monotone_residual_decay_in_contraction_regime(small_setup):
    _, gx, _, lat, sources = small_setup
    omega = 1.0
    kxx = fl.build_green_kernel(gx, gx, omega, lat)
    u0 = fl.incident_field_spectral(sources, gx, omega)
    res = fl.born_iterate(u0, kxx, three_bumps(0.3).sample_on(gx))
    assert res.converged
    assert np.all(np.diff(res.residual_history[1:]) < 0)


def test_divergence_raises(small_setup):
    _, gx, _, lat, sources = small_setup
    omega = 3.0
    kxx = fl.build_green_kernel(gx, gx, omega, lat)
    u0 = fl.incident_field_spectral(sources, gx, omega)
    with pytest.raises(DivergenceError, match="omega = 3"):
        fl.born_iterate(u0, kxx, three_bumps(20.0).sample_on(gx))


def test_max_iter_cap_flags_unconverged(small_setup):
    _, gx, _, lat, sources = small_setup
    omega = 2.0
    kxx = fl.build_green_kernel(gx, gx, omega, lat)
    u0 = fl.incident_field_spectral(sources, gx, omega)
    res = fl.born_iterate(u0, kxx, three_bumps(0.3).sample_on(gx), max_iter=2)
    assert not res.converged
    assert res.iterations == 2


def test_fixed_point_certificate(desk):
    fwd = desk["forward"]
    v = interaction_spectral(fwd.u_spec, desk["xi_exact"])
    rhs = desk["u0"].values + desk["kernel_xx"].apply(v.values)
    norm0 = fl.spectral_norm(desk["u0"])
    assert np.linalg.norm(rhs - fwd.u_spec.values) <= 10 * 1e-13 * norm0


def full_slab_interaction(u_spec, xi):
    """F[xi * F^-1[U]] with every z-slab transformed, shape (n_modes, nz)."""
    grid = u_spec.grid
    slabs = inverse_slab(u_spec.values.T.reshape(grid.nz, grid.nx, grid.ny), grid)
    slabs *= np.moveaxis(xi, 2, 0)
    return forward_slab(slabs, grid).reshape(grid.nz, grid.nx * grid.ny).T


@pytest.mark.parametrize("case, n_live", [("three bumps", 3), ("zero", 0), ("everywhere", 11)])
def test_interaction_skips_only_zero_slabs_bitwise(small_setup, case, n_live):
    _, gx, _, _, sources = small_setup
    u0 = fl.incident_field_spectral(sources, gx, 2.0)
    xi = {
        "three bumps": three_bumps(0.3).sample_on(gx),
        "zero": np.zeros(gx.shape),
        "everywhere": 0.1 + 0.2 * np.random.default_rng(3).random(gx.shape),
    }[case]
    live = xi.any(axis=(0, 1))
    assert live.sum() == n_live
    got = interaction_spectral(u0, xi).values
    expected = full_slab_interaction(u0, xi)
    assert np.array_equal(got, expected)
    # bitwise on the slabs that are transformed; the skipped ones are +0.0
    # (the full transform of a zero slab may give -0.0, equal as a number)
    assert got[:, live].tobytes() == expected[:, live].tobytes()
    assert got[:, ~live].tobytes() == bytes(got[:, ~live].nbytes)


def test_scattered_data_zero_interaction(small_setup):
    _, gx, gy, lat, _ = small_setup
    omega = 2.0
    kyx = fl.build_green_kernel(gx, gy, omega, lat)
    w_spec, w_field = fl.scattered_data(kyx, gy, spectral_zeros(gx))
    assert np.all(w_spec.values == 0)
    assert np.all(w_field.values == 0)


def test_scattered_data_delta_column(small_setup):
    # V concentrated in one z'-slab picks out one weighted kernel column
    _, gx, gy, lat, _ = small_setup
    omega = 2.0
    kyx = fl.build_green_kernel(gx, gy, omega, lat)
    l0 = 4
    values = np.zeros((lat.n_modes, gx.nz), dtype=complex)
    values[:, l0] = 1.0
    w_spec, _ = fl.scattered_data(kyx, gy, fl.SpectralField(gx, values))
    mu = trapezoid_weights(gx.z_nodes)
    mats = kyx.mode_matrices(0, kyx.n_classes)[kyx.class_of]
    for k in range(gy.nz):
        expected = omega ** 2 * mu[l0] * mats[:, k, l0]
        assert np.array_equal(w_spec.values[:, k], expected)


def test_scattered_data_linearity(small_setup):
    _, gx, gy, lat, _ = small_setup
    omega = 2.0
    kyx = fl.build_green_kernel(gx, gy, omega, lat)
    rng = np.random.default_rng(3)
    shape = (lat.n_modes, gx.nz)
    v1 = fl.SpectralField(gx, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    v2 = fl.SpectralField(gx, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    a, b = 2.0 - 1.0j, -0.5 + 3.0j
    combo = fl.SpectralField(gx, a * v1.values + b * v2.values)
    lhs, _ = fl.scattered_data(kyx, gy, combo)
    w1, _ = fl.scattered_data(kyx, gy, v1)
    w2, _ = fl.scattered_data(kyx, gy, v2)
    rhs = a * w1.values + b * w2.values
    assert np.max(np.abs(lhs.values - rhs)) / np.max(np.abs(rhs)) < 1e-12


def _translated_receiver_data(shift):
    """Receiver data with window, phantom centres and sources moved by (shift, shift)."""
    bounds = (-10.0 + shift, 10.0 + shift)
    cfg = fl.GridConfig(
        x_bounds=bounds, y_bounds=bounds, n_transverse=32, scatterer_nz=11, receiver_nz=5
    )
    gx, gy = fl.make_grids(cfg)
    lat = fl.ModeLattice.for_grid(gx)
    base = three_bumps(0.3)
    phantom = fl.Phantom(base.amplitude, tuple(
        replace(b, center=(b.center[0] + shift, b.center[1] + shift, b.center[2]))
        for b in base.bumps
    ))
    sources = fl.SourceSet.line_y(np.arange(-5.0, 5.5, 1.0) + shift, x=shift)
    omega = 2.0
    kxx = fl.build_green_kernel(gx, gx, omega, lat)
    kxy = fl.build_green_kernel(gx, gy, omega, lat)
    u0 = fl.incident_field_spectral(sources, gx, omega)
    xi = phantom.sample_on(gx)
    fwd = fl.born_iterate(u0, kxx, xi)
    assert fwd.converged
    _, w = fl.scattered_data(kxy, gy, interaction_spectral(fwd.u_spec, xi))
    return w.values


def test_receiver_data_invariant_under_translation():
    reference = _translated_receiver_data(0.0)
    for shift in (5.0, -1.25):
        moved = _translated_receiver_data(shift)
        rel = np.linalg.norm(moved - reference) / np.linalg.norm(reference)
        assert rel < 1e-12, (shift, rel)


def test_receiver_data_snapshot(desk):
    """Regression lock of desk-scale data values from the verified build."""
    w = desk["w_field"]
    for idx, expected in W_SNAPSHOT.items():
        assert w.values[idx] == pytest.approx(expected, rel=1e-6)
    assert fl.l2_norm(w) == pytest.approx(W_L2_SNAPSHOT, rel=1e-8)


def test_add_noise_zero_delta_is_identity(desk):
    w = desk["w_field"]
    assert fl.add_noise(w, 0.0, 42) is w


def test_add_noise_exact_relative_level(desk):
    w = desk["w_field"]
    noisy = fl.add_noise(w, 1e-5, 42)
    diff = fl.ComplexField(w.grid, noisy.values - w.values)
    measured = fl.l2_norm(diff) / fl.l2_norm(w)
    assert measured == pytest.approx(1e-5, rel=1e-12)


def test_add_noise_deterministic(desk):
    w = desk["w_field"]
    a = fl.add_noise(w, 1e-6, 7)
    b = fl.add_noise(w, 1e-6, 7)
    c = fl.add_noise(w, 1e-6, 8)
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)


def test_add_noise_rejects_negative_delta(desk):
    with pytest.raises(ValueError, match="nonnegative"):
        fl.add_noise(desk["w_field"], -1e-3, 0)
