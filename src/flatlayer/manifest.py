"""Run provenance: manifests tying every artifact to its config and inputs."""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from . import __version__


def file_sha256(path: str | Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


class ManifestBuilder:
    """Collects stage times, diagnostics, and the emitted-file inventory."""

    def __init__(self, stage: str, config_hash: str):
        self.data: dict = {
            "stage": stage,
            "config_hash": config_hash,
            "tool_version": __version__,
            "stage_seconds": {},
            "files": [],
        }

    def set(self, key: str, value) -> None:
        self.data[key] = value

    def add_time(self, name: str, seconds: float) -> None:
        self.data["stage_seconds"][name] = round(seconds, 6)

    def add_file(self, path: Path, root: Path, **extra) -> None:
        entry = {
            "path": str(path.relative_to(root)),
            "sha256": file_sha256(path),
            "bytes": path.stat().st_size,
        }
        entry.update(extra)
        self.data["files"].append(entry)

    def write(self, path: Path) -> None:
        with open(path, "w") as fh:
            json.dump(self.data, fh, indent=2, sort_keys=True)
            fh.write("\n")


class ManifestError(ValueError):
    """A stage manifest that is not a JSON object holding the keys its reader needs."""


def read_manifest(path: str | Path, *required: str) -> dict:
    """The manifest at path; ManifestError if it is malformed or lacks a required key."""
    with open(path) as fh:
        try:
            data = json.load(fh)
        except ValueError as exc:  # invalid JSON or text encoding
            raise ManifestError(f"{path}: not a valid manifest: {exc}") from exc
    if not isinstance(data, dict) or any(key not in data for key in required):
        raise ManifestError(f"{path}: not a JSON object holding {', '.join(required)}")
    return data
