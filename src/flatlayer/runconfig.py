"""Experiment configuration: YAML parsing, validation, and stable hashing."""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, field, is_dataclass
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

import numpy as np
import yaml

from .fields import GridConfig, make_grids
from .medium import Phantom, SourceSet, check_sources
from .metrics import LOCALIZATION_RADIUS
from .regularizers import RegularizerConfig


class ConfigError(ValueError):
    """Invalid or inconsistent run configuration."""


@dataclass(frozen=True)
class ForwardOptions:
    tol: float = 1e-13
    max_iter: int = 1000

    def __post_init__(self):
        # u = 0 already meets a relative tolerance of 1 or more
        if not 0 < self.tol < 1:
            raise ConfigError(f"forward.tol must lie in (0, 1), got {self.tol!r}")
        if self.max_iter < 1:
            raise ConfigError(f"forward.max_iter must be at least 1, got {self.max_iter!r}")


@dataclass(frozen=True)
class ExtractionOptions:
    combine: str = "per_frequency"  # "per_frequency" | "least_squares"
    eps_div: float = 1e-3

    def __post_init__(self):
        if self.combine not in ("per_frequency", "least_squares"):
            raise ConfigError(f"unknown extraction.combine {self.combine!r}")
        if not 0 <= self.eps_div < 1:
            raise ConfigError(f"extraction.eps_div must lie in [0, 1), got {self.eps_div!r}")


@dataclass(frozen=True)
class OutputOptions:
    # read and ignored by every stage; flbench/child.py writes its tables to kernel_cache_dir
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
        if any(w <= 0 for w in self.frequencies):
            raise ConfigError("frequencies must be positive")
        if self.delta < 0:
            raise ConfigError("noise level delta must be nonnegative")
        if self.seed < 0:
            raise ConfigError("noise.seed must be nonnegative")
        try:
            grid_x, _ = make_grids(self.grid)
        except ValueError as exc:
            raise ConfigError(f"invalid grids: {exc}") from exc
        try:
            check_sources(self.sources, grid_x)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        for b in self.phantom.bumps:
            if grid_x.nearest_node_dist2(b.center) > LOCALIZATION_RADIUS ** 2:
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


# the top-level sections, and the grid keys a file must give although GridConfig has defaults
_TOP_KEYS = ("grid", "frequencies", "sources", "phantom", "noise", "regularizer",
             "extraction", "forward", "output", "bench")
_REQUIRED_GRID_KEYS = ("n_transverse", "scatterer_z", "scatterer_nz", "receiver_z",
                       "receiver_nz")


def _section(raw, name: str, keys) -> dict:
    """raw as a mapping, rejecting any key the section does not read."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{name} must be a mapping")
    unknown = [str(key) for key in raw if key not in keys]
    if unknown:
        raise ConfigError(f"unknown key(s) in {name}: {', '.join(unknown)}")
    return raw


def _read(hints: dict, raw, path: str) -> dict:
    """The entries of mapping raw, each read as the type hints give for its key;
    a key raw omits keeps its default."""
    raw = _section(raw, path, hints)
    return {key: _value(hints[key], value, f"{path}.{key}") for key, value in raw.items()}


_TYPE_NAMES = {float: "a number", int: "an integer", bool: "true or false", str: "a string"}


def _value(tp, raw, path: str):
    """raw read as a value of type tp; path names it in the error.

    Floats also accept numeric strings (YAML reads 1e-13 as one) and must be
    finite, ints must be integral, bools must be bools, and a fixed-length
    tuple takes exactly that many entries; a complex number is a real or an
    [re, im] pair.
    """
    if is_dataclass(tp):
        return tp(**_read(get_type_hints(tp), raw, path))
    args = get_args(tp)
    if get_origin(tp) is tuple:
        n = None if args[-1] is Ellipsis else len(args)
        if not isinstance(raw, list) or n not in (None, len(raw)):
            raise ConfigError(f"{path} must be a list" + (f" of {n} entries" if n else ""))
        return tuple(_value(args[0 if n is None else i], v, f"{path}[{i}]")
                     for i, v in enumerate(raw))
    if type(None) in args:  # an optional value
        return None if raw is None else _value(args[0], raw, path)
    if tp is complex:
        if isinstance(raw, list):
            return complex(*_value(tuple[float, float], raw, path))
        return complex(_value(float, raw, path), 0.0)
    number = isinstance(raw, (int, float)) and not isinstance(raw, bool)
    if tp is float and (number or isinstance(raw, str)):
        try:
            value = float(raw)
        except (ValueError, OverflowError):
            pass
        else:
            if not math.isfinite(value):
                raise ConfigError(f"{path} must be a finite number")
            return value
    elif tp is int and number and (isinstance(raw, int) or raw.is_integer()):
        return int(raw)
    elif tp in (bool, str) and isinstance(raw, tp):
        return raw
    raise ConfigError(f"{path} must be {_TYPE_NAMES[tp]}, got {raw!r}")


def _parse_sources(raw) -> SourceSet:
    """A line_y spec (only the keys given reach SourceSet.line_y) or a points list."""
    if isinstance(raw, dict) and "line_y" in raw:
        spec = _section(raw, "sources", ("line_y",))["line_y"]
        hints = get_type_hints(SourceSet.line_y)
        del hints["return"]
        kwargs = _read(hints, spec, "sources.line_y")
        if kwargs.get("y_values") == ():
            raise ConfigError("sources.line_y.y_values must hold at least one value")
        return SourceSet.line_y(**kwargs)
    if isinstance(raw, dict):
        raw = _section(raw, "sources", ("points",)).get("points")
    if not isinstance(raw, list) or not raw:
        raise ConfigError("sources must be a nonempty points list or a line_y spec")
    hints = {"position": tuple[float, float, float], "amplitude": complex}
    points = [_read(hints, entry, f"sources.points[{i}]") for i, entry in enumerate(raw)]
    return SourceSet(np.asarray([p["position"] for p in points]),
                     np.asarray([p.get("amplitude", 1.0) for p in points], dtype=complex))


def config_from_dict(data: dict) -> RunConfig:
    """Build and validate a RunConfig from parsed YAML data.

    Each section is read into its record by the types of the record's fields,
    and a key the file omits keeps the record's default. A key that its section
    does not read is a ConfigError, so a misspelt option never runs silently on
    the default.
    """
    try:
        data = _section(data, "config", _TOP_KEYS)
        if isinstance(data["grid"], dict):
            missing = [key for key in _REQUIRED_GRID_KEYS if key not in data["grid"]]
            if missing:
                raise ConfigError(f"invalid configuration: grid lacks {', '.join(missing)}")
        hints = get_type_hints(RunConfig)
        kwargs = {key: _value(hints[key], value, key)
                  for key, value in data.items() if key in hints and key != "sources"}
        kwargs.update(_read({key: hints[key] for key in ("delta", "seed")},
                            data.get("noise", {}), "noise"))
        bench = _read({"n_values": hints["bench_n"]}, data.get("bench", {}), "bench")
        if "n_values" in bench:
            kwargs["bench_n"] = bench["n_values"]
        return RunConfig(sources=_parse_sources(data["sources"]), **kwargs)
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid configuration: {exc}") from exc


def read_yaml(path: str | Path) -> dict:
    """The top-level mapping of a YAML config file, not yet validated."""
    try:
        with open(path) as fh:
            data = yaml.load(fh, Loader=yaml.CSafeLoader)
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: not valid YAML: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: top level must be a mapping")
    return data


def load_config(path: str | Path) -> RunConfig:
    """Parse a YAML config file into a validated RunConfig."""
    return config_from_dict(read_yaml(path))
