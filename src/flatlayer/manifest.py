"""Run provenance: manifests tying every artifact to its config and inputs."""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from . import __version__

# Linux's status file of the running process; its VmHWM line is the peak resident set
_STATUS = Path("/proc/self/status")


def peak_rss_mib() -> float | None:
    """This process's peak resident set so far (VmHWM) in MiB, to 0.1 MiB; None where
    the status file does not exist."""
    try:
        text = _STATUS.read_text()
    except FileNotFoundError:
        return None
    for line in text.splitlines():
        if line.startswith("VmHWM:"):
            return round(int(line.split()[1]) / 1024, 1)  # given in kB
    return None


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

    def add_file(self, path: Path, root: Path) -> None:
        self.data["files"].append({
            "path": str(path.relative_to(root)),
            "sha256": file_sha256(path),
            "bytes": path.stat().st_size,
        })

    def write(self, path: Path) -> None:
        """Write strict JSON: a nan or infinity raises ValueError before the file is opened.

        Records the process's peak resident set so far as peak_rss_mib, where it can be read.
        """
        peak = peak_rss_mib()
        if peak is not None:
            self.data["peak_rss_mib"] = peak
        text = json.dumps(self.data, indent=2, sort_keys=True, allow_nan=False)
        with open(path, "w") as fh:
            fh.write(text + "\n")


class ManifestError(ValueError):
    """A stage manifest that is not a JSON object holding the entries its reader needs."""


_TYPE_NAMES = {int: "an integer", float: "a number", str: "a string"}


def read_manifest(path: str | Path, listing: str | None = None, **fields: type) -> dict:
    """The manifest at path; ManifestError if it is malformed.

    With listing given, the manifest must hold that key as a list of JSON
    objects whose fields have the given types: int, float (any JSON number)
    or str, where true and false count as neither integers nor numbers.
    """
    with open(path) as fh:
        try:
            data = json.load(fh)
        except ValueError as exc:  # invalid JSON or text encoding
            raise ManifestError(f"{path}: not a valid manifest: {exc}") from exc
    if not isinstance(data, dict):
        raise ManifestError(f"{path}: not a JSON object")
    if listing is None:
        return data
    entries = data.get(listing)
    if not isinstance(entries, list):
        raise ManifestError(f"{path}: {listing} is not a list")
    for i, entry in enumerate(entries):
        for name, kind in fields.items():
            value = entry.get(name) if isinstance(entry, dict) else None
            accepted = (int, float) if kind is float else kind
            if isinstance(value, bool) or not isinstance(value, accepted):
                raise ManifestError(
                    f"{path}: {listing}[{i}] needs {name!r} as {_TYPE_NAMES[kind]}"
                )
    return data
