"""The benchmark's workloads: program configurations and the operations of a round.

The configurations live here rather than in the repository's configs/, so
that edits to the presets do not change what the benchmark measures. They
are written out as YAML (in JSON syntax, which YAML accepts) for each run.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

PHANTOM = {
    "amplitude": 0.3,
    "bumps": [
        {"center": [1.0, 2.0, 0.5], "radius": 0.4, "weight": 1.0},
        {"center": [4.0, -3.0, 0.5], "radius": 0.25, "weight": 2.0, "cross_yz": 1.5},
        {"center": [-3.0, 0.0, 0.45], "radius": 0.3, "weight": 2.5, "cross_yz": -1.5},
    ],
}
SOURCE_Y = [-5.0, -4.0, -3.0, -2.0, -1.0, 0.0, 1.0, 2.0, 3.0, 4.0, 5.0]
THICK_RECEIVERS = [6.01, 6.5]
THIN_RECEIVERS = [6.01, 6.02]
NOISE_SEED = 1234


@dataclass(frozen=True)
class Inversion:
    """One invert + evaluate pair of a round."""

    name: str
    regularizer: dict
    checked: str  # xi artifact whose bumps must be localized
    check_solves: bool  # per-mode solves checked on the first round of every run


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    m: int
    receivers: list
    m1: int
    frequencies: list
    delta: float
    combine: str
    inversions: tuple
    primary: tuple  # (inversion name, artifact) giving recon_error
    rank_inversion: str  # inversion whose rank statistics the trace reports
    seeded_amplitude: bool

    def config(self, inversion: Inversion | None, cache_dir: Path, amplitude: complex) -> dict:
        reg = {"method": "tsvd", "tsvd_rel_threshold": 1.0e-7, "selection_policy": "fixed"}
        if inversion is not None:
            reg.update(inversion.regularizer)
        return {
            "grid": {
                "x_bounds": [-10.0, 10.0],
                "y_bounds": [-10.0, 10.0],
                "n_transverse": self.n,
                "scatterer_z": [-0.5, 1.5],
                "scatterer_nz": self.m,
                "receiver_z": list(self.receivers),
                "receiver_nz": self.m1,
            },
            "frequencies": list(self.frequencies),
            "sources": {"line_y": {"x": 0.0, "z": 6.0, "y_values": SOURCE_Y,
                                   "amplitude": [amplitude.real, amplitude.imag]}},
            "phantom": PHANTOM,
            "noise": {"delta": self.delta, "seed": NOISE_SEED},
            "regularizer": reg,
            "extraction": {"combine": self.combine, "eps_div": 1.0e-3},
            "forward": {"tol": 1.0e-13, "max_iter": 1000},
            "output": {"kernel_cache": True, "kernel_cache_dir": str(cache_dir)},
        }

    def amplitude(self, seed: int) -> complex:
        """Source amplitude of a run: a seeded unit phase, or 1.

        Data and fields are linear in the amplitude while convergence tests,
        truncation and the extracted xi are invariant to its phase, so the
        seed changes every byte of the data without changing the work.
        sweep keeps amplitude 1 and the fixed noise seed: its discrepancy
        inversion is the operation kept as failing, and its inputs must not
        depend on the seed.
        """
        if not self.seeded_amplitude:
            return complex(1.0)
        theta = np.random.default_rng([seed, 1]).uniform(0.0, 2.0 * np.pi)
        return complex(np.cos(theta), np.sin(theta))

    def sources(self, amplitude: complex) -> list[tuple]:
        return [((0.0, y, 6.0), amplitude) for y in SOURCE_Y]

    def ops_per_round(self) -> int:
        return 1 + 2 * len(self.inversions)


TSVD = Inversion("tsvd", {"method": "tsvd"}, "xi_000", True)

WORKLOADS = {
    "thick": Workload(
        name="thick", n=64, m=41, receivers=THICK_RECEIVERS, m1=41,
        frequencies=[2.0], delta=0.0, combine="per_frequency",
        inversions=(TSVD,), primary=("tsvd", "xi_000"), rank_inversion="tsvd",
        seeded_amplitude=True,
    ),
    "thin": Workload(
        name="thin", n=64, m=41, receivers=THIN_RECEIVERS, m1=2,
        frequencies=[2.0], delta=0.0, combine="per_frequency",
        inversions=(TSVD,), primary=("tsvd", "xi_000"), rank_inversion="tsvd",
        seeded_amplitude=True,
    ),
    "sweep": Workload(
        name="sweep", n=64, m=31, receivers=THICK_RECEIVERS, m1=31,
        frequencies=[1.0, 2.0, 3.0], delta=1.0e-7, combine="least_squares",
        inversions=(
            Inversion("tsvd", {"method": "tsvd"}, "xi_combined", True),
            Inversion("tikhonov", {"method": "tikhonov", "tikhonov_alpha": 1.0e-8},
                      "xi_combined", True),
            # no stable reference: it divides by rounding-level singular values
            Inversion("discrepancy", {"method": "tsvd", "selection_policy": "discrepancy",
                                      "noise_delta": 1.0e-7}, "xi_combined", False),
        ),
        primary=("tikhonov", "xi_combined"), rank_inversion="discrepancy",
        seeded_amplitude=False,
    ),
}


def write_config(path: Path, config: dict) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(config, indent=1) + "\n")
    return path
