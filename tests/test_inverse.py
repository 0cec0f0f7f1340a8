import numpy as np
import pytest

import flatlayer as fl
from conftest import complex_zeros, full_slab_interaction, mode_magnitude, spectral_zeros
from flatlayer import inverse
from flatlayer.medium import trapezoid_weights
from flatlayer.regularizers import solve_mode_block


def test_zero_data_gives_zero_interaction(desk):
    gx, gy = desk["grid_x"], desk["grid_y"]
    v_spec, _ = fl.solve_modes(
        spectral_zeros(gy), desk["kernel_xy"], desk["omega"],
        fl.RegularizerConfig(), gx,
    )
    assert np.all(v_spec.values == 0)


def test_forward_then_invert_recovers_rowspace_interaction(desk):
    """Data synthesized from a normal-solution pre-image is recovered mode-wise.

    Only the minimal-norm component of V is recoverable (the systems admit
    many solutions), so the probe V is built inside the row space: V = A^H y.
    """
    gx, gy = desk["grid_x"], desk["grid_y"]
    lat, omega, table = desk["lattice"], desk["omega"], desk["kernel_xy"]
    rng = np.random.default_rng(12)
    mu = trapezoid_weights(gx.z_nodes)
    prop = np.nonzero(mode_magnitude(lat) < omega)[0]
    v_values = np.zeros((lat.n_modes, gx.nz), dtype=complex)
    for m in prop:
        c = table.class_of[m]
        a = omega ** 2 * table.mode_matrices(c, c + 1)[0] * mu
        y = rng.standard_normal(gy.nz) + 1j * rng.standard_normal(gy.nz)
        v_values[m] = a.conj().T @ y
    _, w_field = fl.scattered_data(table, gy, v_values)

    reg = fl.RegularizerConfig(method="tsvd", tsvd_rel_threshold=1e-10)
    v_out, _ = fl.solve_modes(fl.forward_xy(w_field), table, omega, reg, gx)
    for m in prop:
        err = np.linalg.norm(v_out.values[m] - v_values[m])
        assert err / np.linalg.norm(v_values[m]) < 1e-3


def test_discrepancy_solves_meet_per_mode_residual_target(desk):
    """Re-synthesized data matches the measurement within the mode target.

    The retained rank was chosen so the residual falls below delta * ||b||;
    re-multiplication adds at most the standard matvec rounding error
    O(eps * ||A|| * ||x||), which dominates only on modes amplified through
    near-zero singular values. Modes left at full rank (target unreachable)
    are exempt.
    """
    from flatlayer.medium import trapezoid_weights

    gx, gy = desk["grid_x"], desk["grid_y"]
    omega, table = desk["omega"], desk["kernel_xy"]
    delta = 1e-5
    noisy = fl.add_noise(desk["w_field"], delta, 55)
    w_spec = fl.forward_xy(noisy)
    reg = fl.RegularizerConfig(
        method="tsvd", selection_policy="discrepancy", noise_delta=delta
    )
    v_spec, stats = fl.solve_modes(w_spec, table, omega, reg, gx)
    mu = trapezoid_weights(gx.z_nodes)
    resynth = table.apply(v_spec.values)
    resid = np.linalg.norm(resynth - w_spec.values, axis=1)
    b_norm = np.linalg.norm(w_spec.values, axis=1)

    # (modes, rows, cols); quadrature scales the column axis
    mats = omega ** 2 * table.mode_matrices(0, table.n_classes)[table.class_of] * mu
    a_norm = np.linalg.norm(mats.reshape(table.n_modes, -1), axis=1)
    x_norm = np.linalg.norm(v_spec.values, axis=1)
    eps = np.finfo(float).eps
    allowance = 64 * eps * (a_norm * x_norm + b_norm)

    full_rank = min(gy.nz, gx.nz)
    met = resid <= delta * b_norm * (1 + 1e-9) + allowance
    assert np.all(met | (stats.ranks == full_rank))
    # the target is genuinely reachable within rounding on most modes
    assert np.count_nonzero(resid <= delta * b_norm * (1 + 1e-9)) > 0.8 * met.size


def desk_mode_systems(desk, data):
    """Every mode's matrix scaled as solve_modes scales it, and its data."""
    table, omega = desk["kernel_xy"], desk["omega"]
    scale = omega * omega * trapezoid_weights(desk["grid_x"].z_nodes)
    mats = table.mode_matrices(0, table.n_classes)[table.class_of]
    return mats * scale, fl.forward_xy(data).values


def test_class_solves_match_tsvd_per_mode(desk):
    """One SVD per symmetry class gives every member mode its own pinv solution."""
    reg = fl.RegularizerConfig(method="tsvd", tsvd_rel_threshold=1e-7)
    mats, rhs = desk_mode_systems(desk, desk["w_field"])
    v_spec, stats = fl.solve_modes(
        fl.SpectralField(desk["grid_y"], rhs), desk["kernel_xy"], desk["omega"],
        reg, desk["grid_x"],
    )
    for m in range(mats.shape[0]):
        s = np.linalg.svd(mats[m], compute_uv=False)
        assert stats.ranks[m] == np.count_nonzero(s >= reg.tsvd_rel_threshold * s[0])
        want = np.linalg.pinv(mats[m], rcond=reg.tsvd_rel_threshold) @ rhs[m]
        err = np.linalg.norm(v_spec.values[m] - want) / np.linalg.norm(want)
        assert err <= 1e-8, (m, err)


def test_desk_table_certifies_every_class_at_the_default_cut(desk):
    """Every class's rank-8 sketch holds its certificate, so no class needs a full SVD."""
    _, stats = fl.solve_modes(
        fl.forward_xy(desk["w_field"]), desk["kernel_xy"], desk["omega"],
        fl.RegularizerConfig(), desk["grid_x"],
    )
    assert stats.uncertified_classes == 0


def test_class_solves_meet_tikhonov_normal_equations(desk):
    alpha = 1e-8
    reg = fl.RegularizerConfig(method="tikhonov", tikhonov_alpha=alpha)
    noisy = fl.add_noise(desk["w_field"], 1e-7, 56)
    mats, rhs = desk_mode_systems(desk, noisy)
    v_spec, _ = fl.solve_modes(
        fl.SpectralField(desk["grid_y"], rhs), desk["kernel_xy"], desk["omega"],
        reg, desk["grid_x"],
    )
    x = v_spec.values
    ah = np.conj(np.transpose(mats, (0, 2, 1)))
    r = np.einsum("mij,mj->mi", ah, np.einsum("mij,mj->mi", mats, x) - rhs) + alpha * x
    backward = np.linalg.norm(r, axis=1) / (
        (np.linalg.norm(ah @ mats, 2, axis=(1, 2)) + alpha) * np.linalg.norm(x, axis=1)
    )
    assert np.max(backward) <= 1e-8


@pytest.mark.parametrize("alpha, uncertified, tol", [(1e-8, 0, 1e-10), (1e-12, 97, 1e-8)])
def test_class_solves_match_the_full_svd_tikhonov_filter(desk, alpha, uncertified, tol):
    """Tikhonov from the certified sketches lies within tol of every mode's full-SVD
    filter V diag(s/(s^2 + alpha)) U^H b, and its rank counts the s^2 >= alpha; at the
    smaller alpha the cut sqrt(1e-10 alpha) sends some classes to the full SVD."""
    reg = fl.RegularizerConfig(method="tikhonov", tikhonov_alpha=alpha)
    noisy = fl.add_noise(desk["w_field"], 1e-7, 56)
    mats, rhs = desk_mode_systems(desk, noisy)
    v_spec, stats = fl.solve_modes(
        fl.SpectralField(desk["grid_y"], rhs), desk["kernel_xy"], desk["omega"],
        reg, desk["grid_x"],
    )
    u, s, vh = np.linalg.svd(mats, full_matrices=False)
    beta = np.einsum("mji,mj->mi", u.conj(), rhs) * s / (s * s + alpha)
    want = np.einsum("mji,mj->mi", vh.conj(), beta)
    err = np.linalg.norm(v_spec.values - want, axis=1) / np.linalg.norm(want, axis=1)
    assert np.max(err) <= tol
    assert stats.uncertified_classes == uncertified
    assert np.array_equal(stats.ranks, np.count_nonzero(s * s >= alpha, axis=1))


def test_class_solves_keep_discrepancy_ranks_per_mode(desk):
    delta = 1e-5
    reg = fl.RegularizerConfig(method="tsvd", selection_policy="discrepancy", noise_delta=delta)
    noisy = fl.add_noise(desk["w_field"], delta, 55)
    mats, rhs = desk_mode_systems(desk, noisy)
    _, stats = fl.solve_modes(
        fl.SpectralField(desk["grid_y"], rhs), desk["kernel_xy"], desk["omega"],
        reg, desk["grid_x"],
    )
    for m in range(mats.shape[0]):
        _, rank, _ = solve_mode_block(mats[m][None], rhs[m][None, :, None], reg)
        assert stats.ranks[m] == rank[0, 0], m


def test_failed_chunk_solve_raises_naming_omega_and_classes(desk, monkeypatch):
    """A LinAlgError in one chunk's batched solve ends the call: no mode is
    zero-filled, and the error names omega and the chunk's class range."""
    table, omega, gx = desk["kernel_xy"], desk["omega"], desk["grid_x"]
    chunks = list(table.mode_chunks())
    assert len(chunks) > 2
    calls = []

    def failing(mats, rhs, reg):
        # the second chunk raises
        calls.append(mats.shape[0])
        if len(calls) == 2:
            raise np.linalg.LinAlgError("injected")
        return solve_mode_block(mats, rhs, reg)

    monkeypatch.setattr(inverse, "solve_mode_block", failing)
    start, stop = chunks[1]
    with pytest.raises(inverse.ModeSolveError) as info:
        fl.solve_modes(fl.forward_xy(desk["w_field"]), table, omega, fl.RegularizerConfig(), gx)
    assert f"omega = {omega}" in str(info.value)
    assert f"classes {start}-{stop - 1} of {table.n_classes}" in str(info.value)
    assert isinstance(info.value.__cause__, np.linalg.LinAlgError)
    assert calls == [chunks[0][1], stop - start]  # no retry, and no later chunk


def test_inversion_error_grows_with_noise(desk):
    from conftest import reconstruct

    _, curve_exact, _ = reconstruct(desk, desk["w_field"])
    noisy = fl.add_noise(desk["w_field"], 1e-5, 99)
    _, curve_noisy, _ = reconstruct(desk, noisy)
    assert curve_noisy.mean > curve_exact.mean


def test_recompute_zero_interaction_returns_incident(desk):
    gx = desk["grid_x"]
    u = fl.recompute_internal_field(spectral_zeros(gx), desk["u0"], desk["kernel_xx"])
    assert np.array_equal(u.values, desk["u0"].values)


def test_recompute_is_linear_in_interaction(desk):
    gx = desk["grid_x"]
    rng = np.random.default_rng(13)
    shape = (desk["lattice"].n_modes, gx.nz)
    v1 = fl.SpectralField(gx, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    v2 = fl.SpectralField(gx, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    a, b = 1.5, -2.0 + 1.0j
    args = (desk["u0"], desk["kernel_xx"])
    lhs = fl.recompute_internal_field(
        fl.SpectralField(gx, a * v1.values + b * v2.values), *args
    ).values
    u1 = fl.recompute_internal_field(v1, *args).values
    u2 = fl.recompute_internal_field(v2, *args).values
    u0 = desk["u0"].values
    rhs = a * u1 + b * u2 - (a + b - 1) * u0
    assert np.allclose(lhs, rhs, rtol=1e-11, atol=1e-12)


def test_recompute_consistent_with_forward_solution(desk):
    gx, u_values = desk["grid_x"], desk["u_values"]
    v = fl.SpectralField(gx, full_slab_interaction(gx, u_values, desk["xi_exact"]))
    u = fl.recompute_internal_field(v, desk["u0"], desk["kernel_xx"])
    assert np.linalg.norm(u.values - u_values) / np.linalg.norm(u_values) < 1e-6
    # the exact V comes back as xi_exact through recomputation and extraction, so the
    # per-mode depth solve is the only source of reconstruction error
    ext = fl.extract_xi_lsq(fl.XiSums.of([fl.inverse_xy(v)], [fl.inverse_xy(u)]))
    xi = desk["xi_exact"]
    assert np.max(np.abs(ext.xi - xi)) <= 1e-12 * np.max(np.abs(xi))
    assert ext.masked_fraction == 0


def manufactured_fields(grid, seed=14):
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    xi_true = np.abs(rng.standard_normal(grid.shape))
    return fl.ComplexField(grid, u), xi_true


def test_extract_xi_single_manufactured(tiny_grids):
    gx, _ = tiny_grids
    u_field, xi_true = manufactured_fields(gx)
    v_field = fl.ComplexField(gx, xi_true * u_field.values)
    ext = fl.extract_xi_lsq(fl.XiSums.of([v_field], [u_field]), eps_div=0.0 + 1e-300)
    assert np.allclose(ext.xi, xi_true, rtol=1e-12)
    assert ext.imag_norm < 1e-10 * np.linalg.norm(xi_true)


def test_extract_xi_single_masks_small_field(tiny_grids):
    gx, _ = tiny_grids
    u_field, xi_true = manufactured_fields(gx)
    u_values = u_field.values.copy()
    u_values[2, 3, 1] = 0.0
    u_masked = fl.ComplexField(gx, u_values)
    v_field = fl.ComplexField(gx, xi_true * u_values)
    ext = fl.extract_xi_lsq(fl.XiSums.of([v_field], [u_masked]))
    assert ext.xi[2, 3, 1] == 0.0
    assert np.all(np.isfinite(ext.xi))
    assert ext.masked_fraction > 0


def test_extract_xi_safe_for_identically_zero_field(tiny_grids):
    gx, _ = tiny_grids
    zero = complex_zeros(gx)
    ext = fl.extract_xi_lsq(fl.XiSums.of([zero], [zero]))
    assert np.all(ext.xi == 0)
    assert np.all(np.isfinite(ext.xi))
    assert ext.masked_fraction == 1.0


def test_extract_xi_lsq_single_frequency_degenerates(tiny_grids):
    """Over one frequency the least-squares extraction is Re(V / u), masked where
    |u| < eps_div * max|u|."""
    gx, _ = tiny_grids
    u_field, xi_true = manufactured_fields(gx, seed=15)
    u = u_field.values
    v_field = fl.ComplexField(gx, xi_true * u + 0.01j * u)
    single = fl.extract_xi_lsq(fl.XiSums.of([v_field], [u_field]), eps_div=0.5)
    kept = np.abs(u) >= 0.5 * np.max(np.abs(u))
    assert 0 < np.count_nonzero(kept) < kept.size
    assert np.allclose(single.xi, np.where(kept, (v_field.values / u).real, 0.0),
                       rtol=1e-13, atol=1e-15)
    assert single.masked_fraction == 1.0 - np.count_nonzero(kept) / kept.size
    assert single.imag_norm == pytest.approx(0.01 * np.sqrt(np.count_nonzero(kept)), rel=1e-12)


def test_extract_xi_lsq_manufactured_multi_frequency(tiny_grids):
    gx, _ = tiny_grids
    rng = np.random.default_rng(16)
    xi_true = np.abs(rng.standard_normal(gx.shape))
    us, vs = [], []
    for _ in range(3):
        u = rng.standard_normal(gx.shape) + 1j * rng.standard_normal(gx.shape)
        us.append(fl.ComplexField(gx, u))
        vs.append(fl.ComplexField(gx, xi_true * u))
    ext = fl.extract_xi_lsq(fl.XiSums.of(vs, us), eps_div=1e-300)
    assert np.allclose(ext.xi, xi_true, rtol=1e-11)


def test_extract_xi_lsq_rejects_mismatched_lists(tiny_grids):
    gx, _ = tiny_grids
    f = complex_zeros(gx)
    with pytest.raises(ValueError, match="matching"):
        fl.XiSums.of([f, f], [f])
    with pytest.raises(ValueError, match="matching"):
        fl.XiSums.of([], [])
