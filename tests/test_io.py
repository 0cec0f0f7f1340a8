import re
import struct

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import flatlayer as fl
from flatlayer import fieldio
from flatlayer import manifest as manifest_module
from flatlayer.fieldio import MAGIC, export_slices_csv, number_text, read_field, write_field
from flatlayer.manifest import ManifestBuilder, file_sha256, read_manifest

from conftest import assert_slices_parse_back


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
    assert paths == [tmp_path / "slices" / f"w_z{iz:03d}.csv" for iz in range(g.nz)]
    assert_slices_parse_back(tmp_path / "slices", "w", sample_field)
    # signed zeros, subnormals and the extremes parse back too
    values = sample_field.values.copy()
    values[0, :, 0] = [-0.0, 0.0, 5e-324, -2.2250738585072014e-308, 1.7976931348623157e308,
                       1e-300, -1e300, 0.1, 9.999999999999999e-05, 1e15 + 0.75,
                       -1.0, 123.0, 1e-7, 2.0**-1074 * 3, -1e22, 7.0]
    values[1, :, 0] = -0.0
    edges = fl.ComplexField(g, values)
    export_slices_csv(edges, tmp_path / "edges", "e")
    assert_slices_parse_back(tmp_path / "edges", "e", edges)


def test_csv_slices_of_a_real_field_match_the_pairwise_text(sample_field, tmp_path):
    """A slab whose imaginary parts are all +0.0 takes one formatted zero for its im
    column; one with a -0.0 or a nonzero imaginary part formats every pair. Either
    way each row's re and im are number_text of the node's (re, im)."""
    g = sample_field.grid
    values = sample_field.values.real.astype(complex)  # +0.0 imaginary parts
    values[3, 5, 1] = complex(0.25, -0.0)  # slab 1: one -0.0
    values[:, :, 2] = sample_field.values[:, :, 2]  # slab 2: nonzero imaginary parts
    values[:, :, 3] = complex(-0.0, 0.0)  # slab 3: real, all -0.0
    field = fl.ComplexField(g, values)
    export_slices_csv(field, tmp_path / "s", "xi")
    assert_slices_parse_back(tmp_path / "s", "xi", field)
    for iz in range(g.nz):
        raw = (tmp_path / "s" / f"xi_z{iz:03d}.csv").read_bytes()
        rows = np.frombuffer(raw[11:], dtype=np.uint8).reshape(-1, 101)
        pairs = number_text(values[:, :, iz].ravel().view(np.float64)).reshape(-1, 48)
        assert rows[:, 50:74].tobytes() == pairs[:, :24].tobytes(), iz
        assert rows[:, 75:99].tobytes() == pairs[:, 24:].tobytes(), iz


def _widened(x: float) -> str:
    """The oracle: Python's "%+.16e" with its exponent padded to three digits."""
    return re.sub(r"e([+-])(\d+)$", lambda m: f"e{m[1]}{int(m[2]):03d}", "%+.16e" % x)


def _check_number_text(values):
    text = number_text(np.asarray(values, dtype=float))
    assert text.shape == (len(values), 24)
    rows = [row.tobytes().decode() for row in text]
    assert rows == [_widened(x) for x in values]
    parsed = np.array([float(row) for row in rows])
    assert parsed.tobytes() == np.asarray(values, dtype=float).tobytes()


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_number_text_matches_python_format(x):
    _check_number_text([x])


def test_number_text_random_bit_patterns():
    rng = np.random.default_rng(15)
    v = rng.integers(0, 2**64, size=200_000, dtype=np.uint64).view(np.float64)
    _check_number_text(v[np.isfinite(v)].tolist())


def test_number_text_leaves_only_undecidable_entries_to_python(monkeypatch):
    formatted = []

    def recording(x):
        formatted.append(x)
        return python_text(x)

    python_text = fieldio._python_number_text
    monkeypatch.setattr(fieldio, "_python_number_text", recording)
    # a subnormal, the smallest normal, values beyond 1e280, and 1e15 + 0.75,
    # which scales to 10000000000000007.5 exactly: a tie that rounds to even
    python = [5e-324, -2.2250738585072014e-308, 1e300, -1.7976931348623157e308, 1e15 + 0.75]
    # zeros, the ends of the scaled range and neighbours of powers of ten; the
    # double 1e-79 lies below 10**-79 and its 17 digits carry into that decade
    numpy = [0.0, -0.0, 1e280, -1e-280, 1e-7, np.nextafter(1e-7, 1.0), 9.999999999999999e-05,
             1e16, np.nextafter(1e16, 0.0), 99999999999999990.0, 0.1, -3.0, 1e-79]
    _check_number_text(numpy + python)
    assert formatted == python


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
    # the writing process's own peak resident set, read from /proc/self/status
    assert manifest["peak_rss_mib"] > 0


def test_manifest_leaves_out_the_peak_where_the_status_file_is_missing(tmp_path, monkeypatch):
    monkeypatch.setattr(manifest_module, "_STATUS", tmp_path / "no-such-status")
    ManifestBuilder("evaluate", "abc123").write(tmp_path / "manifest.json")
    assert "peak_rss_mib" not in read_manifest(tmp_path / "manifest.json")


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_manifest_refuses_non_finite_numbers(tmp_path, value):
    builder = ManifestBuilder("evaluate", "abc123")
    builder.set("summary", {"xi_000": {"mean_delta_l2": value}})
    with pytest.raises(ValueError):
        builder.write(tmp_path / "manifest.json")
    assert not (tmp_path / "manifest.json").exists()  # nothing half written
