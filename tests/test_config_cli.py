import importlib.util
from pathlib import Path

import numpy as np
import pytest
import yaml

import flatlayer as fl
from flatlayer.cli import main
from flatlayer.fieldio import read_field
from flatlayer.manifest import read_manifest
from flatlayer.runconfig import ConfigError, config_from_dict, load_config

PRESET_DIR = Path(__file__).resolve().parent.parent / "configs"


def tiny_config_dict(**overrides):
    data = {
        "grid": {
            "x_bounds": [-10.0, 10.0],
            "y_bounds": [-10.0, 10.0],
            "n_transverse": 16,
            "scatterer_z": [-0.5, 1.5],
            "scatterer_nz": 7,
            "receiver_z": [6.01, 6.5],
            "receiver_nz": 5,
        },
        "frequencies": [2.0],
        "sources": {"line_y": {"x": 0.0, "z": 6.0, "y_values": [-2, 0, 2], "amplitude": 1.0}},
        "phantom": {
            "amplitude": 0.3,
            "bumps": [
                {"center": [1.0, 2.0, 0.5], "radius": 0.4, "weight": 1.0},
                {"center": [4.0, -3.0, 0.5], "radius": 0.25, "weight": 2.0, "cross_yz": 1.5},
                {"center": [-3.0, 0.0, 0.45], "radius": 0.3, "weight": 2.5, "cross_yz": -1.5},
            ],
        },
        "noise": {"delta": 0.0, "seed": 1234},
        "output": {"kernel_cache": False},
    }
    data.update(overrides)
    return data


def write_config(tmp_path, name="run.yaml", **overrides):
    path = tmp_path / name
    with open(path, "w") as fh:
        yaml.safe_dump(tiny_config_dict(**overrides), fh)
    return path


def test_presets_parse_and_validate():
    presets = sorted(PRESET_DIR.glob("*.yaml"))
    names = {p.stem for p in presets}
    assert {
        "thick-exact", "thick-delta1e-7", "thick-delta1e-5",
        "thin-exact", "three-frequency", "bench", "desk-smoke",
    } <= names
    for preset in presets:
        config = load_config(preset)
        gx, gy = fl.make_grids(config.grid)
        assert gx.same_transverse_lattice(gy)


def test_preset_parameters_match_experiment_setup():
    thick = load_config(PRESET_DIR / "thick-exact.yaml")
    assert thick.grid.n_transverse == 128
    assert thick.grid.scatterer_nz == 71 and thick.grid.receiver_nz == 71
    assert thick.frequencies == (2.0,)
    assert thick.sources.positions.shape == (11, 3)
    assert np.all(thick.sources.positions[:, 2] == 6.0)
    assert fl.contrast(thick.phantom) == pytest.approx(1.0)
    thin = load_config(PRESET_DIR / "thin-exact.yaml")
    assert thin.grid.receiver_z == (6.01, 6.02)
    assert thin.grid.receiver_nz == 2
    multi = load_config(PRESET_DIR / "three-frequency.yaml")
    assert multi.frequencies == (1.0, 2.0, 3.0)
    assert multi.extraction.combine == "least_squares"


def test_config_hash_tracks_physics_only(tmp_path):
    c1 = config_from_dict(tiny_config_dict())
    c2 = config_from_dict(tiny_config_dict())
    assert c1.config_hash() == c2.config_hash()
    noisy = tiny_config_dict()
    noisy["noise"]["delta"] = 1e-5
    assert config_from_dict(noisy).config_hash() != c1.config_hash()


def test_config_validation_errors():
    with pytest.raises(ConfigError, match="nonempty"):
        config_from_dict(tiny_config_dict(frequencies=[]))
    with pytest.raises(ConfigError):
        config_from_dict(tiny_config_dict(noise={"delta": -1.0}))
    bad_grid = tiny_config_dict()
    del bad_grid["grid"]["n_transverse"]
    with pytest.raises(ConfigError, match="invalid configuration"):
        config_from_dict(bad_grid)


def test_cli_full_pipeline(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    # N = 32 so the coarse lattice actually resolves the bumps
    cfg = write_config(
        tmp_path,
        grid={
            "n_transverse": 32, "scatterer_z": [-0.5, 1.5], "scatterer_nz": 7,
            "receiver_z": [6.01, 6.5], "receiver_nz": 5,
        },
    )
    assert main(["phantom", "--config", str(cfg), "--out", "ph"]) == 0
    assert main(["synthesize", "--config", str(cfg), "--out", "data"]) == 0
    assert main(["invert", "--config", str(cfg), "--data", "data", "--out", "recon"]) == 0
    assert main(["evaluate", "--config", str(cfg), "--recon", "recon", "--out", "eval"]) == 0

    for stage in ["ph", "data", "recon", "eval"]:
        assert (tmp_path / stage / "manifest.json").exists()
    data_manifest = read_manifest(tmp_path / "data" / "manifest.json")
    assert data_manifest["forward_iterations"]
    assert (tmp_path / "data" / "w_000.laf").exists()
    assert (tmp_path / "recon" / "xi_000.laf").exists()
    assert (tmp_path / "eval" / "accuracy_xi_000.csv").exists()
    summary = read_manifest(tmp_path / "eval" / "manifest.json")["summary"]
    assert "xi_000" in summary

    # provenance: every listed file exists and carries a checksum
    for entry in data_manifest["files"]:
        assert (tmp_path / "data" / entry["path"]).exists()
        assert len(entry["sha256"]) == 64


def test_cli_zero_phantom_gives_zero_data(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    data = tiny_config_dict()
    data["phantom"]["amplitude"] = 0.0
    cfg = tmp_path / "zero.yaml"
    with open(cfg, "w") as fh:
        yaml.safe_dump(data, fh)
    assert main(["synthesize", "--config", str(cfg), "--out", "data"]) == 0
    w = read_field(tmp_path / "data" / "w_000.laf")
    assert np.all(w.values == 0)


def test_run_invert_returns_inversion_results(tmp_path, monkeypatch):
    from flatlayer.pipeline import run_invert, run_synthesize
    from flatlayer.runconfig import config_from_dict

    monkeypatch.chdir(tmp_path)
    data = tiny_config_dict(frequencies=[1.0, 2.0])
    data["grid"]["n_transverse"] = 32
    data["extraction"] = {"combine": "least_squares"}
    config = config_from_dict(data)
    run_synthesize(config, tmp_path / "data")
    results = run_invert(config, tmp_path / "data", tmp_path / "recon")
    assert set(results) == {"xi_000", "xi_001", "xi_combined"}
    combined = results["xi_combined"]
    assert combined.frequencies == (1.0, 2.0)
    assert len(combined.v_fields) == len(combined.u_fields) == 2
    assert combined.xi.dtype.kind == "f"
    assert np.all(np.isfinite(combined.xi))
    assert combined.xi_imag_norm >= 0
    assert len(combined.mode_stats) == 2
    # one xi dump and slice directory per artifact
    for name in results:
        assert (tmp_path / "recon" / f"{name}.laf").exists()
        assert any((tmp_path / "recon" / f"slices_{name}").glob("*.csv"))


def test_cli_rerun_reproduces_checksums(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path, noise={"delta": 1e-6, "seed": 77})
    assert main(["synthesize", "--config", str(cfg), "--out", "a"]) == 0
    assert main(["synthesize", "--config", str(cfg), "--out", "b"]) == 0
    wa = (tmp_path / "a" / "w_000.laf").read_bytes()
    wb = (tmp_path / "b" / "w_000.laf").read_bytes()
    assert wa == wb


def test_cli_overrides(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path)
    assert main([
        "synthesize", "--config", str(cfg), "--out", "d",
        "--freq", "1.5", "--delta", "1e-6", "--seed", "9",
    ]) == 0
    manifest = read_manifest(tmp_path / "d" / "manifest.json")
    assert manifest["data_files"][0]["omega"] == 1.5
    assert manifest["noise"] == {"delta": 1e-6, "seed": 9}


def test_cli_exit_codes(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    # missing config file -> I/O error
    assert main(["phantom", "--config", "missing.yaml", "--out", "o"]) == 4
    # malformed yaml -> config error
    bad = tmp_path / "bad.yaml"
    bad.write_text("grid: [unclosed")
    assert main(["phantom", "--config", str(bad), "--out", "o"]) == 2
    # overlapping slabs -> config error at grid construction
    overlap = write_config(
        tmp_path, name="overlap.yaml",
        grid={
            "n_transverse": 16, "scatterer_z": [0.0, 1.0], "scatterer_nz": 3,
            "receiver_z": [0.5, 2.0], "receiver_nz": 3,
        },
    )
    assert main(["synthesize", "--config", str(overlap), "--out", "o"]) == 2
    # bad frequency override -> config error
    cfg = write_config(tmp_path)
    assert main(["synthesize", "--config", str(cfg), "--out", "o", "--freq", "x"]) == 2
    # invert without data -> I/O error
    assert main(["invert", "--config", str(cfg), "--data", "nowhere", "--out", "o"]) == 4


def test_cli_divergence_exit_code(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    data = tiny_config_dict(frequencies=[3.0])
    # N = 32 so the coarse lattice resolves the (far too strong) scatterer
    data["grid"]["n_transverse"] = 32
    data["phantom"]["amplitude"] = 20.0
    cfg = tmp_path / "diverge.yaml"
    with open(cfg, "w") as fh:
        yaml.safe_dump(data, fh)
    assert main(["synthesize", "--config", str(cfg), "--out", "d"]) == 3


def test_cli_grid_mismatch_rejected_before_compute(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path)
    assert main(["synthesize", "--config", str(cfg), "--out", "data"]) == 0
    other = write_config(
        tmp_path, name="other.yaml",
        grid={
            "n_transverse": 32, "scatterer_z": [-0.5, 1.5], "scatterer_nz": 7,
            "receiver_z": [6.01, 6.5], "receiver_nz": 5,
        },
    )
    assert main(["invert", "--config", str(other), "--data", "data", "--out", "r"]) == 2


def test_cli_bench_smoke(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path)
    assert main(["bench", "--config", str(cfg), "--out", "b", "--n-list", "4,8"]) == 0
    rows = (tmp_path / "b" / "timing.csv").read_text().splitlines()
    assert rows[0] == "n,m,m1,seconds"
    assert len(rows) == 3
    assert all(float(r.split(",")[3]) > 0 for r in rows[1:])
    # empty/odd n lists are config errors
    assert main(["bench", "--config", str(cfg), "--out", "b2", "--n-list", "7"]) == 2


def test_cli_malformed_dump_exit_code(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path)
    assert main(["synthesize", "--config", str(cfg), "--out", "data"]) == 0
    dump = tmp_path / "data" / "w_000.laf"
    good = dump.read_bytes()
    dump.write_bytes(good[:-3])  # not a whole number of samples
    assert main(["invert", "--config", str(cfg), "--data", "data", "--out", "r1"]) == 4
    dump.write_bytes(b"NOPE" + good[4:])
    assert main(["invert", "--config", str(cfg), "--data", "data", "--out", "r2"]) == 4


def test_cli_corrupt_kernel_cache_is_rebuilt(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = write_config(
        tmp_path, output={"kernel_cache": True, "kernel_cache_dir": "cache"}
    )
    assert main(["synthesize", "--config", str(cfg), "--out", "fresh"]) == 0
    tables = sorted((tmp_path / "cache").glob("*.npz"))
    assert len(tables) == 2
    tables[0].write_bytes(tables[0].read_bytes()[:-100])  # truncated zip
    tables[1].write_bytes(b"not a table")
    for out in ("healed", "warm"):
        assert main(["synthesize", "--config", str(cfg), "--out", out]) == 0
        assert (tmp_path / out / "w_000.laf").read_bytes() == (
            tmp_path / "fresh" / "w_000.laf"
        ).read_bytes()
    assert sorted(p.name for p in (tmp_path / "cache").iterdir()) == [
        p.name for p in tables
    ]


def test_cli_unconverged_forward_writes_nothing(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    data = tiny_config_dict(forward={"tol": 1e-13, "max_iter": 2})
    # N = 32 so the coarse lattice resolves the bumps and Born needs > 2 steps
    data["grid"]["n_transverse"] = 32
    cfg = tmp_path / "capped.yaml"
    with open(cfg, "w") as fh:
        yaml.safe_dump(data, fh)
    assert main(["synthesize", "--config", str(cfg), "--out", "d"]) == 3
    assert not (tmp_path / "d").exists()
    data["forward"]["max_iter"] = 1000
    with open(cfg, "w") as fh:
        yaml.safe_dump(data, fh)
    assert main(["synthesize", "--config", str(cfg), "--out", "ok"]) == 0
    manifest = read_manifest(tmp_path / "ok" / "manifest.json")
    assert manifest["forward_converged"] == {"2": True}
    assert manifest["forward_iterations"]["2"] > 2


def test_benchmark_hook_points_exist():
    """Every pipeline attribute the benchmark's tracer wraps exists and is restored."""
    path = Path(__file__).resolve().parent.parent / "flbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("flbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    tracer = spans.Tracer("t")
    spans.install(tracer)
    patched = list(tracer._patches)
    try:
        assert patched
        for module, attr, original in patched:
            assert getattr(module, attr) is not original
    finally:
        tracer.restore()
    for module, attr, original in patched:
        assert getattr(module, attr) is original
