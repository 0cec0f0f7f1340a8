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


def solve_mode_block(
    matrices: np.ndarray,
    rhs: np.ndarray,
    reg: RegularizerConfig,
) -> tuple[np.ndarray, np.ndarray]:
    """Regularized solve of a stack of per-mode systems, several right-hand sides each.

    Parameters
    ----------
    matrices : (n_sys, n_recv, n_src) complex ndarray
    rhs : (n_sys, n_recv, n_rhs) complex ndarray
    reg : RegularizerConfig

    Returns
    -------
    (x, rank) : (n_sys, n_src, n_rhs) solutions and (n_sys, n_rhs) retained
        ranks (for Tikhonov the rank reported is the full minimum dimension).

    TSVD returns the minimal-norm least-squares solution over the singular
    values kept by the configured truncation policy, chosen per right-hand
    side from one SVD per system; Tikhonov returns the unique minimizer of
    ||A x - b||^2 + alpha ||x||^2 from the normal equations, solved once per
    system for all its right-hand sides. All-zero systems yield zero
    solutions with rank 0.
    """
    n_sys, n_recv, n_src = matrices.shape
    ranks = np.zeros((n_sys, rhs.shape[2]), dtype=int)
    if reg.method == "tikhonov":
        ah = np.conj(np.transpose(matrices, (0, 2, 1)))
        lhs = ah @ matrices + reg.tikhonov_alpha * np.eye(n_src)
        x = np.linalg.solve(lhs, ah @ rhs)
        ranks[np.any(matrices, axis=(1, 2))] = min(n_recv, n_src)  # an all-zero system: 0
        return x, ranks

    u, s, vh = np.linalg.svd(matrices, full_matrices=False)
    beta = np.conj(np.transpose(u, (0, 2, 1))) @ rhs  # (n_sys, r, n_rhs)
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
    keep = keep & (s > 0.0)[:, :, None]
    coef = np.where(keep, beta / np.where(s > 0.0, s, 1.0)[:, :, None], 0.0)
    ranks[:] = keep.sum(axis=1)
    return np.conj(np.transpose(vh, (0, 2, 1))) @ coef, ranks
