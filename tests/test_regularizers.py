"""Regularized per-mode solves, all through solve_mode_block.

Single systems are solved as one-system stacks, the way solve_modes hands
any chunk of modes to the solver, and checked against numpy oracles.
"""

from dataclasses import replace

import numpy as np
import pytest

import flatlayer as fl
from conftest import mode_magnitude
from flatlayer.medium import trapezoid_weights
from flatlayer.regularizers import solve_mode_block


def random_system(rng, rows, cols):
    a = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
    b = rng.standard_normal(rows) + 1j * rng.standard_normal(rows)
    return a, b


def solve_one(a, b, reg):
    """Solution and retained rank of one system, solved as a one-system stack."""
    x, rank, _ = solve_mode_block(np.asarray(a)[None], np.asarray(b)[None, :, None], reg)
    return x[0, :, 0], int(rank[0, 0])


def tsvd(threshold=1e-7):
    return fl.RegularizerConfig(method="tsvd", tsvd_rel_threshold=threshold)


def tikhonov(alpha):
    return fl.RegularizerConfig(method="tikhonov", tikhonov_alpha=alpha)


def discrepancy(delta):
    return fl.RegularizerConfig(
        method="tsvd", selection_policy="discrepancy", noise_delta=delta
    )


def test_tsvd_identity_matrix():
    b = np.array([1.0 + 2.0j, -3.0, 0.5j])
    x, rank = solve_one(np.eye(3), b, tsvd(1e-12))
    assert rank == 3
    assert np.allclose(x, b, rtol=1e-14)


def test_tsvd_matches_pseudo_inverse():
    rng = np.random.default_rng(0)
    a, b = random_system(rng, 10, 6)
    x, _ = solve_one(a, b, tsvd(1e-15))
    assert np.allclose(x, np.linalg.pinv(a) @ b, rtol=1e-10)


def test_tsvd_rank_one_orthogonal_data():
    rng = np.random.default_rng(1)
    u = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    u /= np.linalg.norm(u)
    v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    v /= np.linalg.norm(v)
    a = 2.5 * np.outer(u, v.conj())
    # data orthogonal to the only left singular vector
    b = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    b -= (u.conj() @ b) * u
    x, _ = solve_one(a, b, tsvd())
    assert np.max(np.abs(x)) < 1e-12


def test_tsvd_zero_matrix_signals_rank_zero():
    x, rank = solve_one(np.zeros((4, 3)), np.ones(4), tsvd())
    assert rank == 0
    assert np.all(x == 0)


def test_tsvd_minimal_norm_over_retained_subspace():
    rng = np.random.default_rng(2)
    for _ in range(20):
        rows = rng.integers(3, 13)
        cols = rng.integers(3, 13)
        a, b = random_system(rng, rows, cols)
        u, s, vh = np.linalg.svd(a, full_matrices=False)
        for k in range(1, min(rows, cols) + 1):
            truncated = (u[:, :k] * s[:k]) @ vh[:k]
            oracle = np.linalg.pinv(truncated) @ b
            # a threshold strictly between sigma_k and sigma_{k+1} keeps k
            cut = np.sqrt(s[k - 1] * s[k]) if k < s.size else 0.5 * s[k - 1]
            x, rank = solve_one(a, b, tsvd(cut / s[0]))
            assert rank == k
            assert np.allclose(x, oracle, rtol=1e-9, atol=1e-12)


def test_tikhonov_penalty_dominance():
    rng = np.random.default_rng(3)
    a, b = random_system(rng, 6, 4)
    norms = [np.linalg.norm(solve_one(a, b, tikhonov(al))[0]) for al in [1e-2, 1, 1e2, 1e4]]
    assert all(n1 > n2 for n1, n2 in zip(norms, norms[1:]))


def test_tikhonov_orthonormal_columns_closed_form():
    rng = np.random.default_rng(4)
    q, _ = np.linalg.qr(rng.standard_normal((8, 4)) + 1j * rng.standard_normal((8, 4)))
    b = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    alpha = 0.37
    x, _ = solve_one(q, b, tikhonov(alpha))
    assert np.allclose(x, q.conj().T @ b / (1 + alpha), rtol=1e-12)


def test_tikhonov_normal_equation_residual():
    rng = np.random.default_rng(5)
    a, b = random_system(rng, 8, 5)
    alpha = 1e-3
    x, _ = solve_one(a, b, tikhonov(alpha))
    residual = a.conj().T @ (a @ x - b) + alpha * x
    assert np.linalg.norm(residual) / np.linalg.norm(a.conj().T @ b) < 1e-12


def test_tikhonov_rejects_nonpositive_alpha():
    with pytest.raises(ValueError, match="positive"):
        tikhonov(0.0)


def test_tikhonov_tsvd_consistency_as_alpha_vanishes():
    rng = np.random.default_rng(6)
    a, b = random_system(rng, 9, 5)
    smax = np.linalg.norm(a, 2)
    x_tik, _ = solve_one(a, b, tikhonov(1e-12 * smax ** 2))
    x_ls = np.linalg.pinv(a) @ b
    assert np.allclose(x_tik, x_ls, rtol=1e-8)


def planted_system(rng, s, rows):
    """Real rows x s.size system U[:, :n] diag(s) V^T with random orthogonal U, V."""
    u, _ = np.linalg.qr(rng.standard_normal((rows, rows)))
    v, _ = np.linalg.qr(rng.standard_normal((s.size, s.size)))
    a = (u[:, : s.size] * s) @ v.T
    return a, u, v


def test_choose_truncation_large_delta_keeps_nothing():
    s = np.array([1.0, 0.5])
    a, u, _ = planted_system(np.random.default_rng(17), s, 3)
    b = 0.3 * u[:, 0] + 0.1 * u[:, 1] + np.sqrt(0.9) * u[:, 2]  # ||b|| = 1
    x, rank = solve_one(a, b, discrepancy(2.0))
    assert rank == 0
    assert np.all(x == 0)


def test_choose_truncation_exact_data_full_rank():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((5, 5)) + np.eye(5) * 3  # well conditioned
    x_true = rng.standard_normal(5)
    b = a @ x_true
    x, rank = solve_one(a, b, discrepancy(1e-13))
    assert rank == 5
    assert np.allclose(x, x_true, rtol=1e-10)


def test_choose_truncation_planted_gap():
    rng = np.random.default_rng(8)
    s = np.array([1.0, 0.6, 0.3, 1e-9, 1e-10, 1e-11])
    a, u, v = planted_system(rng, s, 8)
    coeffs = np.array([0.5, 0.4, 0.3, 0.0, 0.0, 0.0])
    b = u[:, :6] @ coeffs + 1e-4 * u[:, :6] @ np.array([0, 0, 0, 1.0, 1.0, 1.0])
    x, rank = solve_one(a, b, discrepancy(5e-4))
    assert rank == 3
    assert np.allclose(x, v[:, :3] @ (coeffs[:3] / s[:3]), rtol=1e-9)


def toy_table():
    cfg = fl.GridConfig(
        n_transverse=16, scatterer_z=(0.0, 1.0), scatterer_nz=3,
        receiver_z=(2.0, 3.0), receiver_nz=2,
    )
    gx, gy = fl.make_grids(cfg)
    lat = fl.ModeLattice.for_grid(gx)
    return gx, gy, fl.build_green_kernel(gx, gy, 2.0, lat)


def toy_data(gy, seed=18):
    rng = np.random.default_rng(seed)
    shape = (gy.nx * gy.ny, gy.nz)
    return fl.SpectralField(gy, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def test_assemble_mode_system_entrywise():
    _, _, table = toy_table()
    mats = table.mode_matrices(4, 7)
    assert mats.shape == (3, 2, 3)
    for k in range(2):
        for l in range(3):
            j = np.nonzero(np.isclose(table.offsets, table.row_z[k] - table.col_z[l]))[0]
            assert j.size == 1
            assert np.array_equal(mats[:, k, l], table.values[j[0], 4:7])


def test_assemble_mode_system_zero_frequency_prefactor():
    gx, gy, table = toy_table()
    v_spec, stats = fl.solve_modes(toy_data(gy), replace(table, omega=0.0), 0.0, tsvd(), gx)
    assert np.all(v_spec.values == 0)
    assert np.all(stats.ranks == 0)


def test_assemble_mode_system_prefactor_scaling():
    gx, gy, table = toy_table()
    w_spec = toy_data(gy)
    v1, stats1 = fl.solve_modes(w_spec, replace(table, omega=1.0), 1.0, tsvd(), gx)
    v2, stats2 = fl.solve_modes(w_spec, table, 2.0, tsvd(), gx)
    assert np.array_equal(stats1.ranks, stats2.ranks)
    assert np.allclose(v2.values, v1.values / 4.0, rtol=1e-14)


def test_assemble_mode_system_rejects_bad_quadrature():
    _, gy, table = toy_table()
    other, _ = fl.make_grids(fl.GridConfig(
        n_transverse=16, scatterer_z=(0.0, 1.0), scatterer_nz=5,
        receiver_z=(2.0, 3.0), receiver_nz=2,
    ))
    with pytest.raises(ValueError, match="scatterer grid"):
        fl.solve_modes(toy_data(gy), table, 1.0, tsvd(), other)


def test_solve_modes_rejects_table_of_another_frequency():
    gx, gy, table = toy_table()
    with pytest.raises(ValueError, match="omega = 2.0"):
        fl.solve_modes(toy_data(gy), table, 1.0, tsvd(), gx)


def test_solve_mode_block_matches_scalar_tsvd():
    rng = np.random.default_rng(9)
    mats = rng.standard_normal((6, 5, 4)) + 1j * rng.standard_normal((6, 5, 4))
    rhs = rng.standard_normal((6, 5)) + 1j * rng.standard_normal((6, 5))
    mats[3] = 0.0  # a dead mode
    x, ranks, _ = solve_mode_block(mats, rhs[..., None], tsvd(1e-7))
    x, ranks = x[..., 0], ranks[:, 0]
    for i in range(6):
        x_one, rank_one = solve_one(mats[i], rhs[i], tsvd(1e-7))
        assert np.allclose(x[i], x_one, rtol=1e-11, atol=1e-13)
        assert ranks[i] == rank_one
        if i != 3:
            assert np.allclose(x[i], np.linalg.pinv(mats[i]) @ rhs[i], rtol=1e-10)
    assert ranks[3] == 0


def test_solve_mode_block_matches_scalar_tikhonov():
    rng = np.random.default_rng(10)
    mats = rng.standard_normal((4, 6, 5)) + 1j * rng.standard_normal((4, 6, 5))
    rhs = rng.standard_normal((4, 6)) + 1j * rng.standard_normal((4, 6))
    x = solve_mode_block(mats, rhs[..., None], tikhonov(1e-3))[0][..., 0]
    for i in range(4):
        ah = mats[i].conj().T
        oracle = np.linalg.solve(ah @ mats[i] + 1e-3 * np.eye(5), ah @ rhs[i])
        assert np.allclose(x[i], oracle, rtol=1e-11)


def test_solve_mode_block_discrepancy_policy():
    rng = np.random.default_rng(11)
    mats = rng.standard_normal((3, 6, 6)) + 1j * rng.standard_normal((3, 6, 6))
    x_true = rng.standard_normal((3, 6)) + 1j * rng.standard_normal((3, 6))
    rhs = np.einsum("nij,nj->ni", mats, x_true)
    x, ranks, _ = solve_mode_block(mats, rhs[..., None], discrepancy(1e-12))
    x = x[..., 0]
    # consistent data and tiny delta: full rank reproduces the solution
    assert np.all(ranks == 6)
    assert np.allclose(x, x_true, rtol=1e-8)
    # delta larger than the data: nothing retained
    x0, ranks0, _ = solve_mode_block(mats, rhs[..., None], discrepancy(2.0))
    assert np.all(ranks0 == 0)
    assert np.all(x0 == 0)


@pytest.mark.parametrize("reg", [tsvd(1e-3), tikhonov(1e-3), discrepancy(0.3)])
def test_solve_mode_block_columns_match_single_rhs(reg):
    # one factorization per system serves every right-hand side column
    rng = np.random.default_rng(20)
    mats = rng.standard_normal((5, 7, 6)) + 1j * rng.standard_normal((5, 7, 6))
    mats[2] = 0.0  # a dead mode
    rhs = rng.standard_normal((5, 7, 4)) + 1j * rng.standard_normal((5, 7, 4))
    rhs[:, :, 3] = 0.0  # a zero-padded column
    x, ranks, _ = solve_mode_block(mats, rhs, reg)
    assert x.shape == (5, 6, 4) and ranks.shape == (5, 4)
    for i in range(5):
        for j in range(4):
            x_one, rank_one = solve_one(mats[i], rhs[i, :, j], reg)
            assert np.allclose(x[i, :, j], x_one, rtol=1e-11, atol=1e-13)
            assert ranks[i, j] == rank_one
    assert np.all(x[:, :, 3] == 0)
    assert np.all(x[2] == 0) and np.all(ranks[2] == 0)


def planted_stack(seed, s, n_sys=6, rows=41, n_rhs=3):
    """Complex stack U diag(s) V^H with random unitary U, V per system, plus data."""
    rng = np.random.default_rng(seed)

    def unitary(n):
        return np.linalg.qr(rng.standard_normal((n_sys, n, n))
                            + 1j * rng.standard_normal((n_sys, n, n)))[0]

    u, v = unitary(rows)[:, :, : s.size], unitary(s.size)
    mats = (u * s[None, None, :]) @ np.conj(np.transpose(v, (0, 2, 1)))
    rhs = rng.standard_normal((n_sys, rows, n_rhs)) + 1j * rng.standard_normal((n_sys, rows, n_rhs))
    return mats, rhs


def assert_matches_pinv(mats, rhs, cut, x, ranks):
    for i in range(mats.shape[0]):
        s = np.linalg.svd(mats[i], compute_uv=False)
        assert np.all(ranks[i] == np.count_nonzero(s >= cut * s[0]))
        want = np.linalg.pinv(mats[i], rcond=cut) @ rhs[i]
        assert np.linalg.norm(x[i] - want) <= 1e-8 * np.linalg.norm(want)


def full_svd_tsvd(matrices, rhs, reg):
    """The TSVD of solve_mode_block from one full SVD of every system: the
    reference for the systems that the rank-8 sketch leaves to it."""
    u, s, vh = np.linalg.svd(matrices, full_matrices=False)
    beta = np.conj(np.transpose(u, (0, 2, 1))) @ rhs
    r = s.shape[1]
    if reg.selection_policy == "fixed":
        keep = (s >= reg.tsvd_rel_threshold * s[:, :1])[:, :, None]
    else:
        b_norm2 = np.sum(np.abs(rhs) ** 2, axis=1)
        target2 = (reg.noise_delta ** 2) * b_norm2
        resid2 = np.maximum(b_norm2[:, None, :] - np.cumsum(np.abs(beta) ** 2, axis=1), 0.0)
        met = resid2 <= target2[:, None, :]
        k = np.where(met.any(axis=1), met.argmax(axis=1) + 1, r)
        k = np.where(b_norm2 <= target2, 0, k)
        keep = np.arange(r)[None, :, None] < k[:, None, :]
    keep = np.broadcast_to(keep & (s > 0.0)[:, :, None], beta.shape)
    coef = np.where(keep, beta / np.where(s > 0.0, s, 1.0)[:, :, None], 0.0)
    return np.conj(np.transpose(vh, (0, 2, 1))) @ coef, keep.sum(axis=1)


# table-like spectrum: three decades per index down to a rounding-level floor
TABLE_SPECTRUM = np.maximum(10.0 ** (-3.0 * np.arange(41)), 1e-13)


@pytest.mark.parametrize("seed", [30, 31, 32])
@pytest.mark.parametrize("cut", [1e-7, 1e-5])
def test_sketch_certifies_table_like_spectra_and_matches_pinv(seed, cut):
    mats, rhs = planted_stack(seed, TABLE_SPECTRUM)
    x, ranks, uncertified = solve_mode_block(mats, rhs, tsvd(cut))
    assert uncertified == 0  # every system solved from its certified sketch
    assert_matches_pinv(mats, rhs, cut, x, ranks)


def test_sketch_with_more_kept_values_than_its_rank_falls_back():
    # 18 values above the 1e-7 cut: the 8th sketched one is kept, so (i) fails
    mats, rhs = planted_stack(33, np.maximum(10.0 ** (-0.4 * np.arange(41)), 1e-13))
    x, ranks, uncertified = solve_mode_block(mats, rhs, tsvd(1e-7))
    assert uncertified == mats.shape[0]
    assert np.all(ranks == 18)
    assert_matches_pinv(mats, rhs, 1e-7, x, ranks)
    assert np.array_equal(x, full_svd_tsvd(mats, rhs, tsvd(1e-7))[0])


@pytest.mark.parametrize("shape, reg", [
    ((41, 8), tsvd()),  # min(M, M1) <= 8: no sketch
    ((2, 41), tsvd()),  # the thin layer's two receiver planes
    ((41, 41), discrepancy(1e-7)),  # the discrepancy policy: no sketch
])
def test_systems_left_to_the_full_svd_solve_as_before(shape, reg):
    mats, rhs = planted_stack(34, TABLE_SPECTRUM[: min(shape)], rows=max(shape))
    if shape[0] < shape[1]:
        mats = np.conj(np.transpose(mats, (0, 2, 1)))
        rhs = rhs[:, : shape[0]]
    x, ranks, uncertified = solve_mode_block(mats, rhs, reg)
    want_x, want_ranks = full_svd_tsvd(mats, rhs, reg)
    assert uncertified == 0
    assert np.array_equal(x, want_x) and np.array_equal(ranks, want_ranks)


def test_regularizer_config_validation():
    with pytest.raises(ValueError, match="method"):
        fl.RegularizerConfig(method="qr")
    with pytest.raises(ValueError, match="noise level"):
        fl.RegularizerConfig(selection_policy="discrepancy")
    with pytest.raises(ValueError, match="tsvd_rel_threshold"):
        fl.RegularizerConfig(tsvd_rel_threshold=0.0)
    with pytest.raises(ValueError, match="alpha"):
        fl.RegularizerConfig(method="tikhonov", tikhonov_alpha=-1.0)
    # the discrepancy policy picks a TSVD rank; Tikhonov would silently ignore it
    with pytest.raises(ValueError, match="tikhonov"):
        fl.RegularizerConfig(method="tikhonov", selection_policy="discrepancy", noise_delta=1e-7)


def test_physical_mode_systems_decay_beyond_k0(desk):
    """Singular values of evanescent-mode systems collapse superlinearly."""
    lat = desk["lattice"]
    omega = desk["omega"]
    table = desk["kernel_xy"]
    mu = trapezoid_weights(table.col_z)
    mag = mode_magnitude(lat)
    beyond = np.nonzero((mag > omega) & (mag < omega + 1.5))[0][:6]
    for m in beyond:
        c = table.class_of[m]
        a = omega ** 2 * table.mode_matrices(c, c + 1)[0] * mu
        s = np.linalg.svd(a, compute_uv=False)
        assert s[9] / s[0] < 1e-6
