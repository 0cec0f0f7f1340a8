import struct

import numpy as np
import pytest

import flatlayer as fl
from flatlayer.fieldio import MAGIC, export_slices_csv, read_field, write_field
from flatlayer.manifest import ManifestBuilder, file_sha256, read_manifest


@pytest.fixture()
def sample_field(tiny_grids):
    gx, _ = tiny_grids
    rng = np.random.default_rng(21)
    values = rng.standard_normal(gx.shape) + 1j * rng.standard_normal(gx.shape)
    return fl.ComplexField(gx, values)


def test_binary_round_trip(sample_field, tmp_path):
    path = tmp_path / "field.laf"
    write_field(sample_field, path)
    loaded = read_field(path)
    assert loaded.values.tobytes() == sample_field.values.tobytes()  # bitwise
    signed_zeros = fl.ComplexField(sample_field.grid,
                                   np.full(sample_field.grid.shape, complex(-0.0, -0.0)))
    write_field(signed_zeros, tmp_path / "zeros.laf")
    assert read_field(tmp_path / "zeros.laf").values.tobytes() == signed_zeros.values.tobytes()
    g0, g1 = sample_field.grid, loaded.grid
    assert g0.shape == g1.shape
    assert np.allclose(g0.z_nodes, g1.z_nodes)
    assert (g0.x_min, g0.x_max, g0.y_min, g0.y_max) == (
        g1.x_min, g1.x_max, g1.y_min, g1.y_max,
    )


def test_binary_header_layout(sample_field, tmp_path):
    path = tmp_path / "field.laf"
    write_field(sample_field, path)
    raw = path.read_bytes()
    assert raw[:4] == MAGIC
    nx, ny, nz = struct.unpack("<III", raw[4:16])
    g = sample_field.grid
    assert (nx, ny, nz) == g.shape
    bounds = struct.unpack("<6d", raw[16:64])
    assert bounds == (
        g.x_min, g.x_max, g.y_min, g.y_max, g.z_nodes[0], g.z_nodes[-1],
    )
    # first sample is node (ix=0, iy=0, iz=0): iz-major, ix fastest
    re, im = struct.unpack("<2d", raw[64:80])
    assert complex(re, im) == sample_field.values[0, 0, 0]
    # second sample advances ix
    re, im = struct.unpack("<2d", raw[80:96])
    assert complex(re, im) == sample_field.values[1, 0, 0]
    # every sample in that order, as its (re, im) pair of little-endian f64
    v = sample_field.values.transpose(2, 1, 0).ravel()
    assert raw[64:] == struct.pack(f"<{2 * v.size}d", *np.column_stack([v.real, v.imag]).ravel())


def test_read_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.laf"
    path.write_bytes(b"NOPE" + b"\x00" * 100)
    with pytest.raises(ValueError, match="magic"):
        read_field(path)


def test_read_rejects_truncation(sample_field, tmp_path):
    path = tmp_path / "trunc.laf"
    write_field(sample_field, path)
    data = path.read_bytes()
    path.write_bytes(data[:-16])
    with pytest.raises(ValueError, match="expected"):
        read_field(path)


def test_csv_slice_export(sample_field, tmp_path):
    paths = export_slices_csv(sample_field, tmp_path / "slices", "w")
    g = sample_field.grid
    assert len(paths) == g.nz
    lines = paths[0].read_text().splitlines()
    assert lines[0] == "x,y,re,im"
    assert len(lines) == 1 + g.nx * g.ny
    x, y, re, im = (float(tok) for tok in lines[1].split(","))
    assert (x, y) == (g.x_coords()[0], g.y_coords()[0])
    assert complex(re, im) == sample_field.values[0, 0, 0]


def test_manifest_inventory(tmp_path):
    builder = ManifestBuilder("synthesize", "abc123")
    artifact = tmp_path / "data.bin"
    artifact.write_bytes(b"payload")
    builder.add_file(artifact, tmp_path)
    builder.add_time("forward", 1.25)
    builder.write(tmp_path / "manifest.json")

    manifest = read_manifest(tmp_path / "manifest.json")
    assert manifest["stage"] == "synthesize"
    assert manifest["config_hash"] == "abc123"
    assert manifest["files"][0]["path"] == "data.bin"
    assert manifest["files"][0]["sha256"] == file_sha256(artifact)
    assert manifest["stage_seconds"]["forward"] == 1.25
