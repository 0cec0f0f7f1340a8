from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np
import pytest

import flatlayer as fl
from conftest import full_grid_born_data, spectral_zeros, three_bumps
from flatlayer.fieldio import read_field
from flatlayer.forward import DivergenceError, ForwardError, interaction_spectral
from flatlayer.manifest import read_manifest
from flatlayer.medium import trapezoid_weights
from flatlayer.pipeline import run_synthesize
from flatlayer.runconfig import load_config
from flatlayer.spectral import forward_slab, inverse_slab

DESK_SMOKE = Path(__file__).resolve().parent.parent / "configs" / "desk-smoke.yaml"

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
    res = fl.born_iterate(u0, kxx, np.zeros(gx.shape), gx)
    assert res.iterations == 1
    assert np.array_equal(res.u_values, u0)


def test_small_omega_geometric_decay(small_setup):
    _, gx, _, lat, sources = small_setup
    omega = 0.1
    kxx = fl.build_green_kernel(gx, gx, omega, lat)
    u0 = fl.incident_field_spectral(sources, gx, omega)
    res = fl.born_iterate(u0, kxx, three_bumps(0.3).sample_on(gx), gx)
    assert res.iterations == 4
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
    res = fl.born_iterate(u0, kxx, three_bumps(0.3).sample_on(gx), gx)
    assert np.all(np.diff(res.residual_history[1:]) < 0)


def test_divergence_raises(small_setup):
    _, gx, _, lat, sources = small_setup
    omega = 3.0
    kxx = fl.build_green_kernel(gx, gx, omega, lat)
    u0 = fl.incident_field_spectral(sources, gx, omega)
    with pytest.raises(DivergenceError, match="omega = 3"):
        fl.born_iterate(u0, kxx, three_bumps(20.0).sample_on(gx), gx)


def test_max_iter_cap_flags_unconverged(small_setup):
    _, gx, _, lat, sources = small_setup
    omega = 2.0
    kxx = fl.build_green_kernel(gx, gx, omega, lat)
    u0 = fl.incident_field_spectral(sources, gx, omega)
    with pytest.raises(ForwardError, match="did not converge in 2 iterations"):
        fl.born_iterate(u0, kxx, three_bumps(0.3).sample_on(gx), gx, max_iter=2)


class ScriptedKernel:
    """Stands in for a scatterer table: apply returns the running sum of a
    scripted sequence times one unit vector, so with xi = 0 the n-th update
    norm ||U_n - U_{n-1}|| is exactly the n-th scripted value (and 0 once
    the script has run out)."""

    def __init__(self, grid, norms, omega=2.5):
        self.n_rows = self.n_cols = grid.nz
        self.omega = omega
        self.totals = np.cumsum(norms, dtype=float)
        self.unit = np.zeros((grid.nx * grid.ny, grid.nz), dtype=complex)
        self.unit[0, 0] = 1.0
        self.calls = 0

    def apply(self, v):
        self.calls += 1
        return self.totals[min(self.calls, self.totals.size) - 1] * self.unit


def scripted_born(norms, **kwargs):
    """A ScriptedKernel of the given norms on a tiny grid, and born_iterate
    with xi = 0 on it, ready to call."""
    gx, _ = fl.make_grids(fl.GridConfig(n_transverse=4, scatterer_nz=3, receiver_nz=2))
    u0 = np.ones((gx.nx * gx.ny, gx.nz), dtype=complex)
    kernel = ScriptedKernel(gx, norms)
    return kernel, partial(fl.born_iterate, u0, kernel, np.zeros(gx.shape), gx, **kwargs)


def test_divergence_counts_consecutive_increases_only():
    # 9 increases, a decrease (the count restarts), then 10 increases
    norms = list(range(1, 11)) + [5] + list(range(6, 16))
    kernel, solve = scripted_born(norms)
    with pytest.raises(DivergenceError, match="10 consecutive"):
        solve()
    assert kernel.calls == len(norms)  # raised on the 10th increase in a row


def test_nine_increases_then_convergence_returns():
    norms = list(range(1, 11)) + [0]
    kernel, solve = scripted_born(norms)
    res = solve()
    assert kernel.calls == res.iterations == len(norms)
    assert list(res.residual_history) == norms


def test_max_iter_cap_raises_with_count_omega_and_tol():
    # equal norms are no growth, so 12 of them reach the cap and do not diverge
    kernel, solve = scripted_born([1.0] * 12, max_iter=12)
    with pytest.raises(ForwardError) as info:
        solve()
    assert type(info.value) is ForwardError
    assert str(info.value) == (
        "Born iteration did not converge in 12 iterations (omega = 2.5, tol = 1e-13)"
    )
    assert kernel.calls == 12


def test_fixed_point_certificate(desk):
    fwd = desk["forward"]
    v = interaction_spectral(fwd.u_values, desk["xi_exact"], desk["grid_x"])
    rhs = desk["u0"].values + desk["kernel_xx"].apply(v)
    norm0 = np.linalg.norm(desk["u0"].values)
    assert np.linalg.norm(rhs - fwd.u_values) <= 10 * 1e-13 * norm0


def full_slab_interaction(grid, u_values, xi):
    """F[xi * F^-1[U]] with every z-slab of grid transformed, shape (n_modes, nz)."""
    slabs = inverse_slab(u_values, grid)
    slabs *= np.moveaxis(xi, 2, 0)
    return forward_slab(slabs, grid)


@pytest.mark.parametrize("case, n_live", [("three bumps", 3), ("zero", 0), ("everywhere", 11)])
def test_interaction_skips_only_zero_slabs_bitwise(small_setup, case, n_live):
    """V from U and xi on the slabs where xi is nonzero only is bitwise the whole
    grid's transform on those slabs, and the whole grid's V is zero on the others."""
    _, gx, _, _, sources = small_setup
    u0 = fl.incident_field_spectral(sources, gx, 2.0)
    xi = {
        "three bumps": three_bumps(0.3).sample_on(gx),
        "zero": np.zeros(gx.shape),
        "everywhere": 0.1 + 0.2 * np.random.default_rng(3).random(gx.shape),
    }[case]
    live = xi.any(axis=(0, 1))
    assert live.sum() == n_live
    got = interaction_spectral(u0[:, live], xi[:, :, live], gx)
    expected = full_slab_interaction(gx, u0, xi)
    assert got.shape == (u0.shape[0], n_live)
    assert got.tobytes() == expected[:, live].tobytes()
    assert np.all(expected[:, ~live] == 0)
    with pytest.raises(ValueError, match="slabs"):  # xi on other slabs than U
        interaction_spectral(u0, xi[:, :, 1:], gx)


@pytest.mark.parametrize("bumps, support", [
    (three_bumps(0.3).bumps, range(9, 21)),
    # two bumps apart in z: L has a gap
    ((fl.Bump((0.0, 0.0, -0.1), 0.25, 1.0), fl.Bump((0.0, 0.0, 1.1), 0.3, 1.0)),
     [*range(3, 10), *range(20, 29)]),
    # narrower than the spacings, centred on a node: xi is nonzero on one node
    ((fl.Bump((0.0, 0.0, 0.5), 0.05, 1.0),), [15]),
], ids=["desk", "gap", "one-slab"])
def test_synthesis_on_the_support_matches_full_grid_born(tmp_path, bumps, support):
    """synthesize on desk-smoke's grid (N = 64, M = M1 = 31) gives the data and
    iteration count of the Born iteration on every slab, and records its support."""
    config = load_config(DESK_SMOKE)
    config = replace(config, phantom=fl.Phantom(0.3, bumps))
    gx, _ = fl.make_grids(config.grid)
    support = list(support)
    assert list(np.flatnonzero(config.phantom.sample_on(gx).any(axis=(0, 1)))) == support
    run_synthesize(config, tmp_path)
    manifest = read_manifest(tmp_path / "manifest.json")
    assert manifest["forward_support"] == {
        "slabs": len(support), "of": 31,
        "z": [gx.z_nodes[support[0]], gx.z_nodes[support[-1]]]}
    w = read_field(tmp_path / "w_000.laf").values
    expected, iterations = full_grid_born_data(config, 2.0)
    assert manifest["forward_iterations"] == {"000": iterations}
    assert np.max(np.abs(w - expected)) <= 1e-13 * np.max(np.abs(expected))


def test_scattered_data_zero_interaction(small_setup):
    _, gx, gy, lat, _ = small_setup
    omega = 2.0
    kyx = fl.build_green_kernel(gx, gy, omega, lat)
    w_spec, w_field = fl.scattered_data(kyx, gy, spectral_zeros(gx).values)
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
    w_spec, _ = fl.scattered_data(kyx, gy, values)
    mu = trapezoid_weights(gx.z_nodes)
    mats = kyx.mode_matrices(0, kyx.n_classes)[kyx.class_of]
    for k in range(gy.nz):
        expected = omega ** 2 * mu[l0] * mats[:, k, l0]
        assert np.array_equal(w_spec.values[:, k], expected)


def test_scattered_data_rejects_values_off_the_table(small_setup):
    _, gx, gy, lat, _ = small_setup
    kyx = fl.build_green_kernel(gx, gy, 2.0, lat)
    with pytest.raises(ValueError):  # V on the receiver's z nodes, not the table's sources
        fl.scattered_data(kyx, gy, np.zeros((lat.n_modes, gy.nz), dtype=complex))
    with pytest.raises(ValueError):  # W on a grid whose z nodes are not the table's rows
        fl.scattered_data(kyx, gx, np.zeros((lat.n_modes, gx.nz), dtype=complex))


def test_scattered_data_linearity(small_setup):
    _, gx, gy, lat, _ = small_setup
    omega = 2.0
    kyx = fl.build_green_kernel(gx, gy, omega, lat)
    rng = np.random.default_rng(3)
    shape = (lat.n_modes, gx.nz)
    v1 = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    v2 = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    a, b = 2.0 - 1.0j, -0.5 + 3.0j
    lhs, _ = fl.scattered_data(kyx, gy, a * v1 + b * v2)
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
    fwd = fl.born_iterate(u0, kxx, xi, gx)
    _, w = fl.scattered_data(kxy, gy, interaction_spectral(fwd.u_values, xi, gx))
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
