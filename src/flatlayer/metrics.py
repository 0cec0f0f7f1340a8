"""Accuracy, localization, and timing-scaling diagnostics for reconstructions."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .fields import Grid3D
from .medium import Phantom

# bumps are located within this distance of their true centres
LOCALIZATION_RADIUS = 1.0


@dataclass(frozen=True)
class AccuracyCurve:
    """Per-slice relative reconstruction error in the transverse L2 norm."""

    z: np.ndarray
    delta: np.ndarray

    @property
    def mean(self) -> float | None:
        """Mean over the slices; None for an empty curve."""
        return float(np.mean(self.delta)) if self.delta.size else None


@dataclass(frozen=True)
class BumpLocalization:
    true_center: tuple[float, float, float]
    found_center: tuple[float, float, float]
    offset: float
    peak_value: float


@dataclass(frozen=True)
class TimingRecord:
    n: int
    m: int
    m1: int
    seconds: float

    def __post_init__(self):
        if self.seconds <= 0.0:
            raise ValueError("timing record requires a positive wall time")


def slice_relative_error(
    xi_appr: np.ndarray,
    xi_exact: np.ndarray,
    grid: Grid3D,
) -> AccuracyCurve:
    """Relative error per z-slice: ||xi_a - xi_e|| / ||xi_e|| over (x, y).

    Slices where the exact coefficient vanishes are omitted (the ratio is
    undefined there); an entirely unsupported exact field yields an empty
    curve with a warning.
    """
    if xi_appr.shape != grid.shape or xi_exact.shape != grid.shape:
        raise ValueError("fields must be sampled on the given grid")
    exact_norms = np.linalg.norm(xi_exact.reshape(-1, grid.nz), axis=0)
    # np.linalg.norm's sum of squares along axis 0, squared in the difference's memory
    diff = xi_appr - xi_exact
    np.square(diff, out=diff)
    diff_norms = np.sqrt(np.add.reduce(diff.reshape(-1, grid.nz), axis=0))
    del diff
    supported = exact_norms > 0.0
    if not np.any(supported):
        warnings.warn("exact coefficient vanishes on every slice; empty curve")
        return AccuracyCurve(z=np.empty(0), delta=np.empty(0))
    return AccuracyCurve(
        z=grid.z_nodes[supported], delta=diff_norms[supported] / exact_norms[supported]
    )


def localization_report(
    xi_appr: np.ndarray,
    phantom: Phantom,
    grid: Grid3D,
    search_radius: float = LOCALIZATION_RADIUS,
) -> list[BumpLocalization]:
    """Locate each bump as the reconstruction maximum near its true center.

    For every bump the maximum of xi_appr is searched over grid nodes within
    search_radius of the true center; the Euclidean offset between found and
    true positions quantifies localization accuracy.
    """
    if xi_appr.shape != grid.shape:
        raise ValueError("field must be sampled on the given grid")
    # node coordinates along each axis, broadcast against each other
    x, y, z = grid.x_coords(), grid.y_coords(), grid.z_nodes
    out = []
    for b in phantom.bumps:
        cx, cy, cz = b.center
        ball = ((x[:, None, None] - cx) ** 2 + (y[None, :, None] - cy) ** 2
                + (z[None, None, :] - cz) ** 2 <= search_radius ** 2)
        if not np.any(ball):
            raise ValueError(f"no grid nodes within {search_radius} of {b.center}")
        peak = np.argmax(np.where(ball, xi_appr, -np.inf))
        ix, iy, iz = np.unravel_index(peak, xi_appr.shape)
        found = (float(x[ix]), float(y[iy]), float(z[iz]))
        offset = float(np.hypot(np.hypot(found[0] - cx, found[1] - cy), found[2] - cz))
        out.append(
            BumpLocalization(
                true_center=b.center,
                found_center=found,
                offset=offset,
                peak_value=float(xi_appr[ix, iy, iz]),
            )
        )
    return out


def timing_fit(records: list[TimingRecord]) -> tuple[float, float]:
    """Power-law fit t = t0 * N^p over timing records at fixed (M, M1).

    Returns
    -------
    (t0, p) : least-squares prefactor and scaling exponent from a linear
        fit in log-log coordinates.
    """
    if len(records) < 2:
        raise ValueError("need at least two timing records to fit a scaling law")
    if len({(r.m, r.m1) for r in records}) != 1:
        raise ValueError("timing records must share (M, M1)")
    log_n = np.log([r.n for r in records])
    log_t = np.log([r.seconds for r in records])
    p, intercept = np.polyfit(log_n, log_t, 1)
    return float(np.exp(intercept)), float(p)
