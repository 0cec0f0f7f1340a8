"""Per-mode 1D first-kind systems and their regularized solution.

Each transverse mode m yields a small dense complex system
A^(m) x = b^(m) with A^(m)[k, l] = omega^2 * mu_l * G_hat(z_k - z'_l, Omega^(m)),
rows indexed by receiver z-nodes and columns by unknown scatterer z-nodes.
The systems are severely ill-posed (singular values decay rapidly, the
faster the more evanescent the mode), so solutions are normal (minimal-norm)
least-squares solutions through a truncated SVD, or Tikhonov-regularized.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class RegularizerConfig:
    """Solver policy: method plus its parameter and truncation selection.

    selection_policy "fixed" keeps singular values >= tsvd_rel_threshold *
    sigma_max; "discrepancy" keeps the smallest rank whose residual falls
    below noise_delta * ||b|| (requires a noise level). Both select a TSVD
    rank: Tikhonov takes its alpha as given and accepts only "fixed".
    """

    method: str = "tsvd"  # "tsvd" | "tikhonov"
    tsvd_rel_threshold: float = 1e-7
    tikhonov_alpha: float = 1e-8
    selection_policy: str = "fixed"  # "fixed" | "discrepancy"
    noise_delta: float | None = None

    def __post_init__(self):
        if self.method not in ("tsvd", "tikhonov"):
            raise ValueError(f"unknown method {self.method!r}")
        if self.selection_policy not in ("fixed", "discrepancy"):
            raise ValueError(f"unknown selection policy {self.selection_policy!r}")
        if self.method == "tsvd" and not 0.0 < self.tsvd_rel_threshold <= 1.0:
            raise ValueError("tsvd_rel_threshold must lie in (0, 1]")
        if self.method == "tikhonov" and self.tikhonov_alpha <= 0.0:
            raise ValueError("tikhonov_alpha must be positive")
        if self.selection_policy == "discrepancy" and self.noise_delta is None:
            raise ValueError("discrepancy policy requires a noise level")
        if self.method == "tikhonov" and self.selection_policy != "fixed":
            raise ValueError("tikhonov takes a fixed alpha; the discrepancy policy is TSVD's")


# rank, Gaussian seed and residual bound of the fixed-cut TSVD's sketch
_SKETCH_RANK = 8
_SKETCH_SEED = 20110601
_SKETCH_RESIDUAL = 1e-8


def solve_mode_block(
    matrices: np.ndarray,
    rhs: np.ndarray,
    reg: RegularizerConfig,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Regularized solve of a stack of per-mode systems, several right-hand sides each.

    Parameters
    ----------
    matrices : (n_sys, n_recv, n_src) complex ndarray
    rhs : (n_sys, n_recv, n_rhs) complex ndarray
    reg : RegularizerConfig

    Returns
    -------
    (x, rank, uncertified) : (n_sys, n_src, n_rhs) solutions, (n_sys, n_rhs)
        retained ranks (for Tikhonov the full minimum dimension) and the
        number of systems whose sketch failed its certificate.

    TSVD returns the minimal-norm least-squares solution over the singular
    values kept by the configured truncation policy, chosen per right-hand
    side; Tikhonov returns the unique minimizer of
    ||A x - b||^2 + alpha ||x||^2 from the normal equations, solved once per
    system for all its right-hand sides. All-zero systems yield zero
    solutions with rank 0.

    The fixed cut keeps at most 4-5 singular values per mode of these
    kernels, so it takes its triplets from a rank-K sketch (_sketch_svd)
    of each system that passes a certificate: (i) the K-th sketched value
    lies below the cut, so every kept value is inside the sketch, and
    (ii) every kept triplet has ||A v_i - s_i u_i|| <= 1e-8 s_i
    (A^H u_i = s_i v_i holds by construction). A full SVD serves the
    uncertified systems, systems with min(n_recv, n_src) <= K and the
    discrepancy policy.
    """
    n_sys, n_recv, n_src = matrices.shape
    if reg.method == "tikhonov":
        ranks = np.zeros((n_sys, rhs.shape[2]), dtype=int)
        ah = np.conj(np.transpose(matrices, (0, 2, 1)))
        lhs = ah @ matrices + reg.tikhonov_alpha * np.eye(n_src)
        x = np.linalg.solve(lhs, ah @ rhs)
        ranks[np.any(matrices, axis=(1, 2))] = min(n_recv, n_src)  # an all-zero system: 0
        return x, ranks, 0

    x = np.empty((n_sys, n_src, rhs.shape[2]), dtype=complex)
    ranks = np.empty((n_sys, rhs.shape[2]), dtype=int)
    full, uncertified = np.ones(n_sys, dtype=bool), 0  # systems left to the full SVD
    if reg.selection_policy == "fixed" and min(n_recv, n_src) > _SKETCH_RANK:
        u, s, vh = _sketch_svd(matrices)
        cut = reg.tsvd_rel_threshold * s[:, :1]
        resid = np.linalg.norm(matrices @ _ct(vh) - u * s[:, None, :], axis=1)
        ok = (s[:, -1] < cut[:, 0]) & np.all((s < cut) | (resid <= _SKETCH_RESIDUAL * s), axis=1)
        x[ok], ranks[ok] = _tsvd(u[ok], s[ok], vh[ok], rhs[ok], reg)
        full, uncertified = ~ok, int(np.count_nonzero(~ok))
    if full.any():
        x[full], ranks[full] = _tsvd(
            *np.linalg.svd(matrices[full], full_matrices=False), rhs[full], reg
        )
    return x, ranks, uncertified


def _ct(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of each matrix of a stack."""
    return np.conj(np.swapaxes(a, -1, -2))


def _sketch_svd(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rank-K (u, s, vh) of each matrix of a stack from a randomized range finder
    (Halko, Martinsson & Tropp, SIAM Review 2011): Q = qr(A G) for a fixed-seed
    complex Gaussian G, one power iteration Q = qr(A qr(A^H Q)), then the SVD of
    B = Q^H A, taken from its tall conjugate transpose A^H Q."""
    n_sys, n_recv, n_src = a.shape
    g = np.random.default_rng(_SKETCH_SEED).standard_normal((2, n_src, _SKETCH_RANK))
    # every system shares G: one product for the whole stack
    q = np.linalg.qr((a.reshape(-1, n_src) @ (g[0] + 1j * g[1])).reshape(n_sys, n_recv, -1))[0]
    q = np.linalg.qr(a @ np.linalg.qr(_ct(_ct(q) @ a))[0])[0]  # A^H Q formed as (Q^H A)^H
    w, s, zh = np.linalg.svd(_ct(_ct(q) @ a), full_matrices=False)
    return q @ _ct(zh), s, _ct(w)


def _tsvd(
    u: np.ndarray, s: np.ndarray, vh: np.ndarray, rhs: np.ndarray, reg: RegularizerConfig
) -> tuple[np.ndarray, np.ndarray]:
    """TSVD solutions and ranks from the (leading) singular triplets of each system."""
    beta = _ct(u) @ rhs  # (n_sys, r, n_rhs)
    r = s.shape[1]
    if reg.selection_policy == "fixed":
        keep = (s >= reg.tsvd_rel_threshold * s[:, :1])[:, :, None]
    else:
        b_norm2 = np.sum(np.abs(rhs) ** 2, axis=1)  # (n_sys, n_rhs)
        target2 = (reg.noise_delta ** 2) * b_norm2
        resid2 = b_norm2[:, None, :] - np.cumsum(np.abs(beta) ** 2, axis=1)
        resid2 = np.maximum(resid2, 0.0)  # guard cancellation below zero
        met = resid2 <= target2[:, None, :]
        # smallest rank whose residual meets delta*||b||; full rank if none
        k = np.where(met.any(axis=1), met.argmax(axis=1) + 1, r)
        k = np.where(b_norm2 <= target2, 0, k)  # the empty solution suffices
        keep = np.arange(r)[None, :, None] < k[:, None, :]
    # a zero singular value is never kept: an all-zero system solves to x = 0, rank 0
    keep = np.broadcast_to(keep & (s > 0.0)[:, :, None], beta.shape)
    coef = np.where(keep, beta / np.where(s > 0.0, s, 1.0)[:, :, None], 0.0)
    return _ct(vh) @ coef, keep.sum(axis=1)
