from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import flatlayer as fl
from conftest import (
    dense_operator,
    forward_everywhere,
    full_grid_born_data,
    spectral_zeros,
    three_bumps,
)
from flatlayer.fieldio import read_field
from flatlayer.forward import ForwardError
from flatlayer.manifest import read_manifest
from flatlayer.medium import green_cell_average, trapezoid_weights
from flatlayer.pipeline import forward_frequency, run_synthesize, support_inputs
from flatlayer.runconfig import RunConfig, load_config
from flatlayer.spectral import forward_slab

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


def solve_on_support(gx, sources, omega, xi, **kwargs):
    """The dense operator on xi's support, u0 there and born_iterate's result."""
    operator = dense_operator(gx, omega, xi)
    u0 = fl.incident_field_nodes(sources, gx, omega, operator.support)
    return operator, u0, fl.born_iterate(u0, operator, **kwargs)


class CountingOperator:
    """A SupportOperator that counts its applications and keeps their inputs."""

    def __init__(self, operator):
        self.operator, self.omega, self.inputs = operator, operator.omega, []

    @property
    def calls(self):
        return len(self.inputs)

    def apply(self, u):
        self.inputs.append(u.copy())
        return self.operator.apply(u)


def scripted(apply):
    """A CountingOperator around the function apply, at omega = 2."""
    return CountingOperator(SimpleNamespace(omega=2.0, apply=apply))


@pytest.mark.parametrize("case", ["zero scatterer", "zero source"])
def test_zero_scatterer_or_source_gives_zero_data_in_zero_applications(small_setup, case):
    """xi = 0 has no support, and sources of amplitude 0 give u0 = 0 on it: either way
    GMRES returns at its first residual check, and the synthesize path gives W = 0."""
    cfg, gx, gy, lat, sources = small_setup
    omega = 2.0
    if case == "zero scatterer":
        phantom = fl.Phantom(0.0, three_bumps().bumps)
    else:
        phantom = three_bumps(0.3)
        sources = fl.SourceSet(sources.positions, np.zeros(sources.amplitudes.size))
    xi = phantom.sample_on(gx)
    operator = CountingOperator(dense_operator(gx, omega, xi))
    u0 = fl.incident_field_nodes(sources, gx, omega, operator.operator.support)
    res = fl.born_iterate(u0, operator)
    assert res.iterations == operator.calls == 0 and res.residual_history.size == 0
    assert np.all(res.u_values == 0) and res.u_values.size == np.count_nonzero(xi)
    config = RunConfig(grid=cfg, frequencies=(omega,), sources=sources, phantom=phantom)
    inputs = support_inputs(config, omega, gx, gy, lat, fl.Support.of(xi))
    _, fwd, w = forward_frequency(config, inputs, gy, 0)
    assert fwd.iterations == 0 and np.all(w.values == 0)


def test_small_omega_geometric_decay(small_setup):
    """At omega = 0.1 K xi is tiny, and each application cuts the residual by more
    than 100."""
    _, gx, _, _, sources = small_setup
    _, _, res = solve_on_support(gx, sources, 0.1, three_bumps(0.3).sample_on(gx))
    r = res.residual_history
    assert res.iterations == r.size <= 4
    assert np.all(r[1:] / r[:-1] < 0.01)


def test_monotone_residual_decay_in_contraction_regime(small_setup):
    _, gx, _, _, sources = small_setup
    _, _, res = solve_on_support(gx, sources, 1.0, three_bumps(0.3).sample_on(gx))
    assert np.all(np.diff(res.residual_history) < 0)


@pytest.mark.parametrize("omega, amplitude", [(2.0, 0.3), (3.0, -1.5), (3.0, -2.0), (6.0, 0.4)])
def test_gmres_residuals_never_increase(small_setup, omega, amplitude):
    """GMRES minimizes the residual over growing Krylov spaces, and a restart begins
    from the true residual of the field reached, so the recorded residuals never
    increase; the last one meets the tolerance and is the residual of the returned
    field."""
    _, gx, _, _, sources = small_setup
    operator, u0, res = solve_on_support(gx, sources, omega, three_bumps(amplitude).sample_on(gx))
    r = res.residual_history
    assert r.size == res.iterations > 0
    assert np.all(np.diff(r) <= 0)
    assert r[-1] <= 1e-13 * np.linalg.norm(u0)
    true = np.linalg.norm(u0 - res.u_values + operator.apply(res.u_values))
    assert true <= 2e-13 * np.linalg.norm(u0)


@pytest.mark.parametrize("omega, amplitude", [(2.0, 0.3), (3.0, -1.5), (3.0, -2.0), (6.0, 0.4)])
def test_first_cycle_residuals_are_krylov_minima(small_setup, omega, amplitude):
    """Within the first cycle, the k-th recorded residual is min ||u0 - A x|| over the
    Krylov space spanned by u0, A u0, ..., A^(k-1) u0, with A = I - K xi, computed here
    from an orthonormal basis of those explicit vectors."""
    _, gx, _, _, sources = small_setup
    operator, u0, res = solve_on_support(gx, sources, omega, three_bumps(amplitude).sample_on(gx))
    a = np.eye(u0.size) - operator.matrix
    n = min(res.iterations, 20)
    krylov = [u0 / np.linalg.norm(u0)]
    for _ in range(n - 1):
        v = a @ krylov[-1]
        krylov.append(v / np.linalg.norm(v))
    q, _ = np.linalg.qr(np.column_stack(krylov))
    checked = 0
    for k in range(1, n + 1):
        if res.residual_history[k - 1] <= 1e-8 * np.linalg.norm(u0):
            break
        aq = a @ q[:, :k]
        y = np.linalg.lstsq(aq, u0, rcond=None)[0]
        assert res.residual_history[k - 1] == pytest.approx(np.linalg.norm(u0 - aq @ y),
                                                             rel=1e-6)
        checked += 1
    assert checked >= 2


def test_non_finite_operator_raises():
    operator = scripted(lambda u: np.full(u.shape, np.nan, dtype=complex))
    with pytest.raises(ForwardError, match="GMRES residual is not finite"):
        fl.born_iterate(np.ones(5, dtype=complex), operator)
    assert operator.calls == 1


@pytest.mark.parametrize("u0", [[1.0, np.nan], [1.0, np.inf], [1e300, 1e300]],
                         ids=["nan", "inf", "norm-overflows"])
def test_non_finite_incident_field_raises(u0):
    """u0 with a non-finite norm is refused before the first application: its
    threshold would be as large, and u = 0 would meet it."""
    operator = scripted(lambda u: u)
    with pytest.raises(ForwardError, match="GMRES residual is not finite"):
        fl.born_iterate(np.asarray(u0, dtype=complex), operator)
    assert operator.calls == 0


def test_singular_operator_stalls_to_the_cap():
    """With I - K xi = 0 every Krylov space is invariant and misses the solution: each
    cycle ends after one application and each restart finds u0 again, so the solve
    stops at max_iter, having applied the operator to finite vectors only."""
    operator = scripted(lambda u: u)
    with pytest.raises(ForwardError, match="did not converge in 7 operator applications"):
        fl.born_iterate(np.ones(5, dtype=complex), operator, max_iter=7)
    assert operator.calls == 7
    assert all(np.all(np.isfinite(u)) for u in operator.inputs)


def test_one_node_support_converges_in_one_application(small_setup):
    _, gx, _, _, sources = small_setup
    xi = np.zeros(gx.shape)
    xi[16, 16, 5] = 0.3
    operator, u0, res = solve_on_support(gx, sources, 2.0, xi)
    assert u0.size == 1 and res.iterations == 1
    assert res.u_values[0] == pytest.approx(u0[0] / (1.0 - operator.matrix[0, 0]), rel=1e-14)


def strong_scatterer():
    """An N = 16 grid, a strong scatterer over its whole lattice and three sources:
    GMRES needs over 400 applications, some 20 restarts."""
    cfg = fl.GridConfig(scatterer_z=(-0.5, 1.5), n_transverse=16, scatterer_nz=7, receiver_nz=5)
    gx, _ = fl.make_grids(cfg)
    bump = fl.Bump(center=(0.0, 0.0, 0.5), radius=8.9, weight=1.0)
    return gx, fl.Phantom(amplitude=3.0, bumps=(bump,)).sample_on(gx), fl.SourceSet.line_y(
        (-2.0, 0.0, 2.0))


def test_many_restarts_end_on_the_true_residual():
    """Each restart begins from the true residual, so the field returned after many
    restarts meets the tolerance in it, not only in the Arnoldi relation's."""
    gx, xi, sources = strong_scatterer()
    operator, u0, res = solve_on_support(gx, sources, 2.0, xi)
    assert res.iterations == res.residual_history.size > 400
    true = np.linalg.norm(u0 - res.u_values + operator.apply(res.u_values))
    assert true <= 1e-13 * np.linalg.norm(u0)


@pytest.mark.parametrize("cap", [20, 21, 22, 41])
def test_max_iter_caps_applications_across_restarts(cap):
    """The application that gives a restart its true residual counts against max_iter:
    a cap at, just after or in the middle of a restart ends at that many applications."""
    gx, xi, sources = strong_scatterer()
    operator = CountingOperator(dense_operator(gx, 2.0, xi))
    u0 = fl.incident_field_nodes(sources, gx, 2.0, operator.operator.support)
    with pytest.raises(ForwardError, match=f"did not converge in {cap} operator"):
        fl.born_iterate(u0, operator, max_iter=cap)
    assert operator.calls == cap


# flbench thick's grid: N = 64, M = M1 = 41
THICK = fl.GridConfig(n_transverse=64, scatterer_nz=41, receiver_z=(6.01, 6.5), receiver_nz=41)


@pytest.mark.parametrize("amplitude", [-1.5, -2.0])
def test_slow_inclusions_converge_where_born_diverged(amplitude):
    """Slow inclusions (xi < 0) are physical at any magnitude. At omega = 3 on thick's
    grid the Born series needed 137 iterations at amplitude -1.5 and diverged at -2.0;
    GMRES needs at most 30 applications and matches a direct solve on S."""
    gx, _ = fl.make_grids(THICK)
    sources = fl.SourceSet.line_y(np.arange(-5.0, 5.5, 1.0))
    xi = three_bumps(amplitude).sample_on(gx)
    assert xi.min() < -3.0
    operator, u0, res = solve_on_support(gx, sources, 3.0, xi)
    assert res.iterations <= 30
    exact = np.linalg.solve(np.eye(u0.size) - operator.matrix, u0)
    assert np.max(np.abs(res.u_values - exact)) <= 1e-12 * np.max(np.abs(exact))


def test_max_iter_cap_flags_unconverged(small_setup):
    _, gx, _, _, sources = small_setup
    with pytest.raises(ForwardError, match="did not converge in 2 operator applications"):
        solve_on_support(gx, sources, 2.0, three_bumps(0.3).sample_on(gx), max_iter=2)


def test_max_iter_cap_raises_with_count_omega_and_tol(small_setup):
    _, gx, _, _, sources = small_setup
    operator = CountingOperator(dense_operator(gx, 2.5, three_bumps(0.3).sample_on(gx)))
    u0 = fl.incident_field_nodes(sources, gx, 2.5, operator.operator.support)
    with pytest.raises(ForwardError) as info:
        fl.born_iterate(u0, operator, max_iter=3)
    assert type(info.value) is ForwardError
    assert str(info.value) == (
        "GMRES did not converge in 3 operator applications (omega = 2.5, tol = 1e-13)"
    )
    assert operator.calls == 3


def test_fixed_point_certificate(desk):
    """The desk's solve meets its tolerance on S also by the slab form's operator,
    the scatterer table on L between the slab transforms."""
    support = fl.Support.of(desk["xi_exact"])
    gx, omega = desk["grid_x"], desk["omega"]
    kernel_ll = fl.build_green_kernel(gx, gx, omega, desk["lattice"],
                                      rows=support.slabs, cols=support.slabs)
    slab = fl.SupportOperator(omega, support, gx, kernel_ll=kernel_ll)
    u = desk["forward"].u_values
    u0 = fl.incident_field_nodes(desk["sources"], gx, omega, support)
    assert np.linalg.norm(u0 - u + slab.apply(u)) <= 10 * 1e-13 * np.linalg.norm(u0)


def reference_solve(config, omega):
    """u at xi's nonzero nodes, ordered as Support orders them, from a dense system
    built here from green_point: minimum-image transverse offsets, G's cell average
    at zero distance, trapezoid weights in z."""
    gx, _ = fl.make_grids(config.grid)
    xi = config.phantom.sample_on(gx)
    iz, ix, iy = np.nonzero(np.moveaxis(xi, 2, 0))
    n, half = gx.nx, gx.nx // 2
    dx = ((ix[:, None] - ix[None, :] + half) % n - half) * gx.hx
    dy = ((iy[:, None] - iy[None, :] + half) % n - half) * gx.hy
    dz = gx.z_nodes[iz][:, None] - gx.z_nodes[iz][None, :]
    rho = np.sqrt(dx * dx + dy * dy + dz * dz)
    g = fl.green_point(np.where(rho == 0, 1.0, rho), omega)
    g[rho == 0] = green_cell_average(gx.hx * gx.hy, omega)
    weight = omega ** 2 * gx.hx * gx.hy * trapezoid_weights(gx.z_nodes)[iz] * xi[ix, iy, iz]
    nodes = np.column_stack([gx.x_coords()[ix], gx.y_coords()[iy], gx.z_nodes[iz]])
    u0 = sum(a * fl.green_point(np.linalg.norm(nodes - p, axis=1), omega)
             for p, a in zip(config.sources.positions, config.sources.amplitudes))
    return np.linalg.solve(np.eye(iz.size) - g * weight[None, :], u0)


@pytest.mark.parametrize("form, grid, phantom", [
    # hx = 0.625 != hy = 0.5
    ("dense", fl.GridConfig(x_bounds=(-10.0, 10.0), y_bounds=(-8.0, 8.0), n_transverse=32,
                            scatterer_nz=11, receiver_nz=5), three_bumps(0.3)),
    # xi nonzero on every node of both slabs: |S|^2 = 512^2 against 5 N^2 |L| = 2,560
    ("slab", fl.GridConfig(n_transverse=16, scatterer_nz=2, receiver_nz=3),
     fl.Phantom(0.002, (fl.Bump((0.0, 0.0, 0.5), 20.0, 1.0),))),
], ids=["dense-unequal-spacings", "slab-extended"])
def test_operator_forms_match_a_dense_reference(form, grid, phantom):
    """support_inputs chooses each form by forward.dense_fits, forward_frequency reports
    it, and either one's solution matches a dense reference solve to 1e-12."""
    sources = fl.SourceSet.line_y(np.arange(-5.0, 5.5, 1.0))
    config = RunConfig(grid=grid, frequencies=(2.0,), sources=sources, phantom=phantom)
    gx, gy = fl.make_grids(grid)
    support = fl.Support.of(phantom.sample_on(gx))
    inputs = support_inputs(config, 2.0, gx, gy, fl.ModeLattice.for_grid(gx), support)
    got, fwd, _ = forward_frequency(config, inputs, gy, 0)
    assert got == form
    exact = reference_solve(config, 2.0)
    assert np.max(np.abs(fwd.u_values - exact)) <= 1e-12 * np.max(np.abs(exact))


@pytest.mark.parametrize("case, n_live", [("three bumps", 3), ("zero", 0), ("everywhere", 11)])
def test_interaction_skips_only_zero_slabs_bitwise(small_setup, case, n_live):
    """V from u at xi's nonzero nodes, transformed on the slabs that hold them only,
    is the whole grid's transform of xi u on those slabs, bitwise up to the sign of
    zeros, and the whole grid's V is zero on the other slabs."""
    _, gx, _, _, sources = small_setup
    u = fl.inverse_xy(fl.SpectralField(gx, fl.incident_field_spectral(sources, gx, 2.0))).values
    xi = {
        "three bumps": three_bumps(0.3).sample_on(gx),
        "zero": np.zeros(gx.shape),
        "everywhere": 0.1 + 0.2 * np.random.default_rng(3).random(gx.shape),
    }[case]
    live = xi.any(axis=(0, 1))
    assert live.sum() == n_live
    support = fl.Support.of(xi)
    assert np.array_equal(support.slabs, np.flatnonzero(live))
    got = fl.support_interaction(u[support.ix, support.iy, support.iz], support, gx)
    expected = forward_slab(np.moveaxis(xi * u, 2, 0), gx)
    assert got.shape == (gx.nx * gx.ny, n_live)
    assert np.array_equal(got, expected[:, live])
    assert np.all(expected[:, ~live] == 0)


@pytest.mark.parametrize("bumps, support", [
    (three_bumps(0.3).bumps, range(9, 21)),
    # two bumps apart in z: L has a gap
    ((fl.Bump((0.0, 0.0, -0.1), 0.25, 1.0), fl.Bump((0.0, 0.0, 1.1), 0.3, 1.0)),
     [*range(3, 10), *range(20, 29)]),
    # narrower than the spacings, centred on a node: xi is nonzero on one node
    ((fl.Bump((0.0, 0.0, 0.5), 0.05, 1.0),), [15]),
], ids=["desk", "gap", "one-slab"])
def test_synthesis_on_the_support_matches_full_grid_born(tmp_path, bumps, support):
    """synthesize on desk-smoke's grid (N = 64, M = M1 = 31) gives the data of the Born
    iteration on every slab in no more operator applications, and records its support."""
    config = load_config(DESK_SMOKE)
    config = replace(config, phantom=fl.Phantom(0.3, bumps))
    gx, _ = fl.make_grids(config.grid)
    support = list(support)
    assert list(np.flatnonzero(config.phantom.sample_on(gx).any(axis=(0, 1)))) == support
    run_synthesize(config, tmp_path)
    manifest = read_manifest(tmp_path / "manifest.json")
    assert manifest["forward_support"] == {
        "nodes": np.count_nonzero(config.phantom.sample_on(gx)), "slabs": len(support),
        "of": 31, "z": [gx.z_nodes[support[0]], gx.z_nodes[support[-1]]]}
    assert manifest["forward_operator"] == {"000": "dense"}
    w = read_field(tmp_path / "w_000.laf").values
    expected, iterations = full_grid_born_data(config, 2.0)
    assert 1 <= manifest["forward_iterations"]["000"] <= iterations
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
    u0 = fl.SpectralField(gx, fl.incident_field_spectral(sources, gx, omega))
    _, _, _, w = forward_everywhere(phantom.sample_on(gx), sources, u0, kxx, kxy, gy)
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
