"""Experiment configuration: YAML parsing, validation, and stable hashing."""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np
import yaml

from .fields import Grid3D, GridConfig, make_grids
from .medium import SOURCE_NODE_TOL, Bump, Phantom, SourceSet
from .metrics import LOCALIZATION_RADIUS
from .regularizers import RegularizerConfig


class ConfigError(ValueError):
    """Invalid or inconsistent run configuration."""


@dataclass(frozen=True)
class ForwardOptions:
    tol: float = 1e-13
    max_iter: int = 1000


@dataclass(frozen=True)
class ExtractionOptions:
    combine: str = "per_frequency"  # "per_frequency" | "least_squares"
    eps_div: float = 1e-3


@dataclass(frozen=True)
class OutputOptions:
    kernel_cache: bool = True
    kernel_cache_dir: str = "kernel-cache"


@dataclass(frozen=True)
class RunConfig:
    """Everything a batch run needs, parsed from one YAML file."""

    grid: GridConfig
    frequencies: tuple[float, ...]
    sources: SourceSet
    phantom: Phantom
    delta: float = 0.0
    seed: int = 1234
    regularizer: RegularizerConfig = field(default_factory=RegularizerConfig)
    extraction: ExtractionOptions = field(default_factory=ExtractionOptions)
    forward: ForwardOptions = field(default_factory=ForwardOptions)
    output: OutputOptions = field(default_factory=OutputOptions)
    bench_n: tuple[int, ...] = (32, 64, 128)

    def __post_init__(self):
        if len(self.frequencies) == 0:
            raise ConfigError("frequency list must be nonempty")
        bad = _first_nonfinite(self.canonical_dict(), "config")
        if bad is not None:
            raise ConfigError(f"{bad} must be a finite number")
        if any(w <= 0 for w in self.frequencies):
            raise ConfigError("frequencies must be positive")
        if self.delta < 0:
            raise ConfigError("noise level delta must be nonnegative")
        if self.extraction.combine not in ("per_frequency", "least_squares"):
            raise ConfigError(f"unknown extraction combine {self.extraction.combine!r}")
        try:
            grid_x, _ = make_grids(self.grid)
        except ValueError as exc:
            raise ConfigError(f"invalid grids: {exc}") from exc
        check_sources(self.sources, grid_x)
        for b in self.phantom.bumps:
            if _nearest_node_dist2(grid_x, b.center) > LOCALIZATION_RADIUS ** 2:
                raise ConfigError(
                    f"bump at {b.center} has no scatterer grid node within the "
                    f"localization radius {LOCALIZATION_RADIUS}"
                )

    def canonical_dict(self) -> dict:
        """Plain dict of everything that affects computed results.

        Every field of the grid, phantom, regularizer, extraction and forward
        records does; tuples serialize as JSON lists.
        """
        return {
            "grid": asdict(self.grid),
            "frequencies": list(self.frequencies),
            "sources": [
                {"position": list(map(float, p)), "amplitude": [a.real, a.imag]}
                for p, a in zip(self.sources.positions, self.sources.amplitudes)
            ],
            "phantom": asdict(self.phantom),
            "noise": {"delta": self.delta, "seed": self.seed},
            "regularizer": asdict(self.regularizer),
            "extraction": asdict(self.extraction),
            "forward": asdict(self.forward),
        }

    def config_hash(self) -> str:
        payload = json.dumps(self.canonical_dict(), sort_keys=True).encode()
        return hashlib.sha256(payload).hexdigest()


def _first_nonfinite(value, path: str) -> str | None:
    """Path of the first nan or infinite float inside nested dicts and lists."""
    if isinstance(value, dict):
        items = [(f"{path}.{key}", v) for key, v in value.items()]
    elif isinstance(value, (list, tuple)):
        items = [(f"{path}[{i}]", v) for i, v in enumerate(value)]
    else:
        return path if isinstance(value, float) and not math.isfinite(value) else None
    return next(filter(None, (_first_nonfinite(v, p) for p, v in items)), None)


def _nearest_node_dist2(grid: Grid3D, point) -> float:
    """Squared distance from point to the nearest node of grid."""
    axes = (grid.x_coords(), grid.y_coords(), grid.z_nodes)
    dx2, dy2, dz2 = (np.min((a - c) ** 2) for a, c in zip(axes, point))
    return float(dx2 + dy2 + dz2)


def check_sources(sources: SourceSet, grid: Grid3D) -> None:
    """Reject a source on a node of grid, where its incident field is singular."""
    for p in sources.positions:
        if np.sqrt(_nearest_node_dist2(grid, p)) < SOURCE_NODE_TOL:
            raise ConfigError(f"source at {tuple(map(float, p))} lies on a scatterer grid node")


# keys read by the longer config sections
_BUMP_KEYS = ("center", "radius", "weight", "cross_xy", "cross_xz", "cross_yz")
_TOP_KEYS = ("grid", "frequencies", "sources", "phantom", "noise", "regularizer",
             "extraction", "forward", "output", "bench")
_GRID_KEYS = ("x_bounds", "y_bounds", "n_transverse", "scatterer_z", "scatterer_nz",
              "receiver_z", "receiver_nz")
_REGULARIZER_KEYS = ("method", "tsvd_rel_threshold", "tikhonov_alpha",
                     "selection_policy", "noise_delta")
_OUTPUT_KEYS = ("kernel_cache", "kernel_cache_dir")


def _section(raw, name: str, keys: tuple[str, ...]) -> dict:
    """raw as a mapping, rejecting any key the section does not read."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{name} must be a mapping")
    unknown = [str(key) for key in raw if key not in keys]
    if unknown:
        raise ConfigError(f"unknown key(s) in {name}: {', '.join(unknown)}")
    return raw


def _parse_sources(raw: dict | list) -> SourceSet:
    if isinstance(raw, dict) and "line_y" in raw:
        spec = _section(raw, "sources", ("line_y",))["line_y"]
        spec = _section(spec, "sources.line_y", ("y_values", "x", "z", "amplitude"))
        return SourceSet.line_y(
            y_values=np.asarray(spec["y_values"], dtype=float),
            x=float(spec.get("x", 0.0)),
            z=float(spec.get("z", 6.0)),
            amplitude=_parse_amplitude(spec.get("amplitude", 1.0)),
        )
    if isinstance(raw, dict):
        raw = _section(raw, "sources", ("points",)).get("points")
    if not isinstance(raw, list) or not raw:
        raise ConfigError("sources must be a nonempty points list or a line_y spec")
    raw = [_section(entry, "sources.points", ("position", "amplitude")) for entry in raw]
    positions = [entry["position"] for entry in raw]
    amplitudes = [_parse_amplitude(entry.get("amplitude", 1.0)) for entry in raw]
    return SourceSet(np.asarray(positions, dtype=float), np.asarray(amplitudes))


def _parse_amplitude(raw) -> complex:
    if isinstance(raw, (list, tuple)):
        if len(raw) != 2:
            raise ConfigError("complex amplitude must be a [re, im] pair")
        return complex(raw[0], raw[1])
    return complex(float(raw), 0.0)


def _parse_phantom(raw: dict) -> Phantom:
    raw = _section(raw, "phantom", ("amplitude", "bumps"))
    bumps = []
    for entry in raw.get("bumps", []):
        entry = _section(entry, "phantom.bumps", _BUMP_KEYS)
        bumps.append(
            Bump(
                center=tuple(float(v) for v in entry["center"]),
                radius=float(entry["radius"]),
                weight=float(entry["weight"]),
                cross_xy=float(entry.get("cross_xy", 0.0)),
                cross_xz=float(entry.get("cross_xz", 0.0)),
                cross_yz=float(entry.get("cross_yz", 0.0)),
            )
        )
    return Phantom(amplitude=float(raw.get("amplitude", 0.3)), bumps=tuple(bumps))


def config_from_dict(data: dict) -> RunConfig:
    """Build and validate a RunConfig from parsed YAML data.

    A key that its section does not read is a ConfigError, so a misspelt
    option never runs silently on the default.
    """
    try:
        data = _section(data, "config", _TOP_KEYS)
        g = _section(data["grid"], "grid", _GRID_KEYS)
        grid = GridConfig(
            x_bounds=tuple(float(v) for v in g.get("x_bounds", (-10.0, 10.0))),
            y_bounds=tuple(float(v) for v in g.get("y_bounds", (-10.0, 10.0))),
            n_transverse=int(g["n_transverse"]),
            scatterer_z=tuple(float(v) for v in g["scatterer_z"]),
            scatterer_nz=int(g["scatterer_nz"]),
            receiver_z=tuple(float(v) for v in g["receiver_z"]),
            receiver_nz=int(g["receiver_nz"]),
        )
        noise = _section(data.get("noise", {}), "noise", ("delta", "seed"))
        reg_raw = _section(data.get("regularizer", {}), "regularizer", _REGULARIZER_KEYS)
        reg = RegularizerConfig(
            method=reg_raw.get("method", "tsvd"),
            tsvd_rel_threshold=float(reg_raw.get("tsvd_rel_threshold", 1e-7)),
            tikhonov_alpha=float(reg_raw.get("tikhonov_alpha", 1e-8)),
            selection_policy=reg_raw.get("selection_policy", "fixed"),
            noise_delta=(
                float(reg_raw["noise_delta"]) if "noise_delta" in reg_raw else None
            ),
        )
        ext_raw = _section(data.get("extraction", {}), "extraction", ("combine", "eps_div"))
        fwd_raw = _section(data.get("forward", {}), "forward", ("tol", "max_iter"))
        out_raw = _section(data.get("output", {}), "output", _OUTPUT_KEYS)
        bench = _section(data.get("bench", {}), "bench", ("n_values",))
        return RunConfig(
            grid=grid,
            frequencies=tuple(float(w) for w in data["frequencies"]),
            sources=_parse_sources(data["sources"]),
            phantom=_parse_phantom(data["phantom"]),
            delta=float(noise.get("delta", 0.0)),
            seed=int(noise.get("seed", 1234)),
            regularizer=reg,
            extraction=ExtractionOptions(
                combine=ext_raw.get("combine", "per_frequency"),
                eps_div=float(ext_raw.get("eps_div", 1e-3)),
            ),
            forward=ForwardOptions(
                tol=float(fwd_raw.get("tol", 1e-13)),
                max_iter=int(fwd_raw.get("max_iter", 1000)),
            ),
            output=OutputOptions(
                kernel_cache=bool(out_raw.get("kernel_cache", True)),
                kernel_cache_dir=str(out_raw.get("kernel_cache_dir", "kernel-cache")),
            ),
            bench_n=tuple(int(n) for n in bench.get("n_values", (32, 64, 128))),
        )
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid configuration: {exc}") from exc


def load_config(path: str | Path) -> RunConfig:
    """Parse a YAML config file into a validated RunConfig."""
    try:
        with open(path) as fh:
            data = yaml.safe_load(fh)
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: not valid YAML: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: top level must be a mapping")
    return config_from_dict(data)
