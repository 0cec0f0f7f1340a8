import importlib.util
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

import flatlayer as fl
from flatlayer import pipeline
from flatlayer.cli import main
from flatlayer.fieldio import read_field
from flatlayer.manifest import read_manifest
from flatlayer.runconfig import (
    ConfigError,
    ForwardOptions,
    RunConfig,
    config_from_dict,
    load_config,
)

from conftest import assert_slices_parse_back

ROOT = Path(__file__).resolve().parent.parent
PRESET_DIR = ROOT / "configs"

# config_hash() of each preset; it changes only when a physics input of the
# preset does, never with the code that consumes it
PRESET_HASHES = {
    "bench": "7bef108459076f860305f0a7e9354230d8551250a09e38f074ac8d421a83fabb",
    "desk-smoke": "0802649d0c6107d55000fb50dab24dfef8171846ceb809cb2db598f481bb6d39",
    "thick-delta1e-5": "c120f1f2e32a811c1d0126847f9f72824c798e444dccbdf960d8deee62bb2428",
    "thick-delta1e-7": "c411f818bcfccd4099a76afe63e2a3c646ecbc15c3498b101e5a5d4666bcbb2e",
    "thick-exact": "5cb41c9b93f69c41e8d02bf4674e200b6ba38478ffab5eb27eed8773a376569c",
    "thin-exact": "a900916e85356a35a79f7a26c41b35ae6dd174f5062b4c5af4bdd14feae798a0",
    "three-frequency": "df95b6cd365fdcd5cb585eeb049ab902fa58125274a0652d2bcf25f6ca4f4fd0",
}


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


# one bump centred on the scatterer node (0, 0, 0.5): unlike the three-bump
# phantom, which falls between the nodes of tiny_config_dict's N = 16 lattice,
# it samples to a nonzero xi there (on 3 of the 7 slabs) and Born runs 19 iterations
NODE_BUMP = {"amplitude": 0.3, "bumps": [{"center": [0.0, 0.0, 0.5], "radius": 0.4, "weight": 1.0}]}


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
    # peak sound-speed contrast 100%: xi peaks at 0.75 at a bump centre, c = (1 - xi)^-1/2
    peak_xi = max(thick.phantom(*b.center) for b in thick.phantom.bumps)
    assert peak_xi == pytest.approx(0.75)
    assert 1.0 / np.sqrt(1.0 - peak_xi) - 1.0 == pytest.approx(1.0)
    thin = load_config(PRESET_DIR / "thin-exact.yaml")
    assert thin.grid.receiver_z == (6.01, 6.02)
    assert thin.grid.receiver_nz == 2
    multi = load_config(PRESET_DIR / "three-frequency.yaml")
    assert multi.frequencies == (1.0, 2.0, 3.0)
    assert multi.extraction.combine == "least_squares"


def test_preset_config_hashes_are_stable():
    hashes = {p.stem: load_config(p).config_hash() for p in sorted(PRESET_DIR.glob("*.yaml"))}
    assert hashes == PRESET_HASHES


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


def test_unknown_config_keys_rejected(tmp_path, monkeypatch):
    def misspelt(path, key):
        data = tiny_config_dict(
            regularizer={"method": "tsvd"}, extraction={}, forward={}, bench={}
        )
        section = data
        for part in path:
            section = section[part]
        section[key] = 1
        return data

    cases = [
        ((), "frequency"), (("grid",), "recever_nz"), (("sources",), "points"),
        (("sources", "line_y"), "y_value"), (("phantom",), "bump"),
        (("phantom", "bumps", 0), "cross_zy"), (("noise",), "sede"),
        (("regularizer",), "tikhonov_alfa"), (("extraction",), "eps"),
        (("forward",), "max_iters"), (("output",), "cache"), (("bench",), "n_value"),
    ]
    for path, key in cases:
        with pytest.raises(ConfigError, match=f"unknown key.*{key}"):
            config_from_dict(misspelt(path, key))
    points = tiny_config_dict(sources={"points": [{"position": [0, 0, 6], "amp": 1.0}]})
    with pytest.raises(ConfigError, match="unknown key.*amp"):
        config_from_dict(points)
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path, forward={"tol": 1e-13, "max_iters": 5})
    assert main(["synthesize", "--config", str(cfg), "--out", "o"]) == 2
    assert not (tmp_path / "o").exists()


def test_cli_source_on_scatterer_node_exit_code(tmp_path, monkeypatch):
    # x = 0, y = 0 and z = 0.5 are all nodes of the N=16, 5-node scatterer grid
    monkeypatch.chdir(tmp_path)
    data = tiny_config_dict()
    data["grid"]["scatterer_nz"] = 5
    data["sources"]["line_y"]["z"] = 0.5
    with pytest.raises(ConfigError, match=r"source at \(0\.0, 0\.0, 0\.5\)"):
        config_from_dict(data)
    cfg = tmp_path / "on-node.yaml"
    cfg.write_text(yaml.safe_dump(data))
    assert main(["synthesize", "--config", str(cfg), "--out", "d"]) == 2
    assert not (tmp_path / "d").exists()
    # a source off the nodes, still inside the slab, runs
    data["sources"]["line_y"]["z"] = 0.6
    cfg.write_text(yaml.safe_dump(data))
    assert main(["synthesize", "--config", str(cfg), "--out", "d"]) == 0
    # x = 0.625 is a node at N=32 only: bench checks every N it sweeps
    data["sources"] = {"points": [{"position": [0.625, 0.0, 0.5]}]}
    cfg.write_text(yaml.safe_dump(data))
    assert main(["bench", "--config", str(cfg), "--out", "b", "--n-list", "32"]) == 2
    # every N is checked before the first is swept: nothing is run or written
    assert main(["bench", "--config", str(cfg), "--out", "b", "--n-list", "16,32"]) == 2
    assert not (tmp_path / "b").exists()


def test_cli_bump_beyond_localization_radius_exit_code(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    data = tiny_config_dict()
    data["phantom"]["bumps"][0]["center"] = [1.0, 2.0, 3.0]  # 1.5 above the top nodes
    with pytest.raises(ConfigError, match=r"bump at \(1\.0, 2\.0, 3\.0\)"):
        config_from_dict(data)
    cfg = tmp_path / "far.yaml"
    cfg.write_text(yaml.safe_dump(data))
    for stage in (["synthesize", "--out", "d"], ["evaluate", "--recon", "r", "--out", "e"]):
        assert main([stage[0], "--config", str(cfg), *stage[1:]]) == 2
    assert not (tmp_path / "d").exists() and not (tmp_path / "e").exists()
    # 0.9 from its nearest node: every stage runs and the bump is located
    data["phantom"]["bumps"][0]["center"] = [1.25, 2.5, 2.4]
    cfg.write_text(yaml.safe_dump(data))
    assert main(["synthesize", "--config", str(cfg), "--out", "d"]) == 0
    assert main(["invert", "--config", str(cfg), "--data", "d", "--out", "r"]) == 0
    assert main(["evaluate", "--config", str(cfg), "--recon", "r", "--out", "e"]) == 0


def test_bump_validation_agrees_with_localization():
    # the validator accepts a bump exactly when evaluate can search around it
    config = config_from_dict(tiny_config_dict())
    grid_x, _ = fl.make_grids(config.grid)
    rng = np.random.default_rng(23)
    accepted = 0
    for centre in rng.uniform([-11.0, -11.0, -1.7], [11.0, 11.0, 2.7], (200, 3)):
        data = tiny_config_dict()
        data["phantom"]["bumps"] = [{"center": centre.tolist(), "radius": 0.3, "weight": 1.0}]
        try:
            config = config_from_dict(data)
        except ConfigError:
            with pytest.raises(ValueError, match="no grid nodes"):
                fl.localization_report(np.zeros(grid_x.shape), fl.Phantom(0.3, (
                    fl.Bump(center=tuple(centre), radius=0.3, weight=1.0),)), grid_x)
            continue
        accepted += 1
        fl.localization_report(np.zeros(grid_x.shape), config.phantom, grid_x)
    assert 0 < accepted < 200


def test_benchmark_workload_configs_parse(tmp_path, monkeypatch):
    path = ROOT / "flbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("flbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # dataclasses look it up
    spec.loader.exec_module(workloads)
    for work in workloads.WORKLOADS.values():
        for inversion in (None,) + work.inversions:
            config = config_from_dict(work.config(inversion, tmp_path, complex(1.0)))
            assert config.grid.n_transverse == work.n


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

    # both slice writers' CSVs parse back bitwise to their dumps
    assert_slices_parse_back(tmp_path / "ph" / "slices", "xi_exact",
                             read_field(tmp_path / "ph" / "xi_exact.laf"))
    assert_slices_parse_back(tmp_path / "recon" / "slices_xi_000", "xi_000",
                             read_field(tmp_path / "recon" / "xi_000.laf"))


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


def test_run_invert_writes_inversion_outputs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    data = tiny_config_dict(frequencies=[1.0, 2.0])
    data["grid"]["n_transverse"] = 32
    data["extraction"] = {"combine": "least_squares"}
    config = config_from_dict(data)
    pipeline.run_synthesize(config, tmp_path / "data")
    recon = pipeline.run_invert(config, tmp_path / "data", tmp_path / "recon")
    assert recon == tmp_path / "recon"
    manifest = read_manifest(recon / "manifest.json")
    names = [a["name"] for a in manifest["artifacts"]]
    assert names == ["xi_000", "xi_001", "xi_combined"]
    assert set(manifest["rank_stats"]) == {"1", "2"}
    # M1 = 5 receiver planes: every class is factored in full, none sketched
    assert all(r["uncertified_classes"] == 0 for r in manifest["rank_stats"].values())
    for name in names:
        # one real, finite xi dump and one slice directory per artifact
        xi = read_field(recon / f"{name}.laf").values
        assert np.all(xi.imag == 0) and np.all(np.isfinite(xi.real))
        assert any((recon / f"slices_{name}").glob("*.csv"))
    rows = (recon / "diagnostics.csv").read_text().splitlines()
    assert rows[0].split(",")[:3] == ["artifact", "omega", "imag_norm"]
    assert [r.split(",")[0] for r in rows[1:]] == names
    assert all(float(r.split(",")[2]) >= 0 for r in rows[1:])


def test_rerun_manifests_list_only_the_files_that_run_wrote(tmp_path, monkeypatch):
    """A stage rerun into a used directory leaves the earlier run's files there,
    but its manifest lists exactly the files the rerun wrote."""
    monkeypatch.chdir(tmp_path)

    def listed(stage_dir):
        return sorted(e["path"] for e in read_manifest(tmp_path / stage_dir / "manifest.json")["files"])

    def slices(directory, name, nz=7):
        return [f"{directory}/{name}_z{iz:03d}.csv" for iz in range(nz)]

    fewer_slabs = tiny_config_dict()
    fewer_slabs["grid"]["scatterer_nz"] = 5
    five = tmp_path / "five.yaml"
    five.write_text(yaml.safe_dump(fewer_slabs))
    assert main(["phantom", "--config", str(write_config(tmp_path)), "--out", "p"]) == 0
    assert main(["phantom", "--config", str(five), "--out", "p"]) == 0
    assert listed("p") == sorted(["xi_exact.laf", *slices("slices", "xi_exact", nz=5)])

    three = write_config(tmp_path, name="three.yaml", frequencies=[1.0, 2.0, 3.0])
    one = write_config(tmp_path, name="one.yaml", frequencies=[2.0])
    assert main(["synthesize", "--config", str(three), "--out", "d"]) == 0
    assert main(["synthesize", "--config", str(one), "--out", "d"]) == 0
    assert (tmp_path / "d" / "w_002.laf").exists()
    assert listed("d") == ["residuals_000.csv", "w_000.laf"]

    per = write_config(tmp_path, name="per.yaml", frequencies=[1.0, 2.0])
    lsq = write_config(tmp_path, name="lsq.yaml", frequencies=[1.0, 2.0],
                       extraction={"combine": "least_squares"})
    assert main(["synthesize", "--config", str(per), "--out", "d2"]) == 0
    for cfg in (lsq, per):
        assert main(["invert", "--config", str(cfg), "--data", "d2", "--out", "r"]) == 0
        assert main(["evaluate", "--config", str(cfg), "--recon", "r", "--out", "e"]) == 0
    assert (tmp_path / "r" / "xi_combined.laf").exists()
    assert listed("r") == sorted([
        "diagnostics.csv", "rank_hist_000.csv", "rank_hist_001.csv", "xi_000.laf",
        "xi_001.laf", *slices("slices_xi_000", "xi_000"), *slices("slices_xi_001", "xi_001"),
    ])
    assert listed("e") == [f"{kind}_xi_{i:03d}.csv"
                           for kind in ("accuracy", "localization") for i in (0, 1)]


def test_cli_rerun_reproduces_checksums(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path, phantom=NODE_BUMP, noise={"delta": 1e-6, "seed": 77})
    assert main(["synthesize", "--config", str(cfg), "--out", "a"]) == 0
    assert main(["synthesize", "--config", str(cfg), "--out", "b"]) == 0
    wa = (tmp_path / "a" / "w_000.laf").read_bytes()
    wb = (tmp_path / "b" / "w_000.laf").read_bytes()
    assert wa == wb
    # the reruns compare real data from a real Born loop
    assert np.any(read_field(tmp_path / "a" / "w_000.laf").values != 0)
    assert read_manifest(tmp_path / "a" / "manifest.json")["forward_iterations"]["2"] > 1


def test_cli_phantom_between_nodes_gives_zero_data_in_one_step(tmp_path, monkeypatch):
    """tiny_config_dict's bumps miss every node of its N = 16 lattice: xi is zero
    on every slab, so the interaction V is zero and Born stops after one step."""
    monkeypatch.chdir(tmp_path)
    config = config_from_dict(tiny_config_dict())
    grid_x, _ = fl.make_grids(config.grid)
    xi = config.phantom.sample_on(grid_x)
    assert not xi.any(axis=(0, 1)).any()  # no slab is transformed
    u0 = fl.incident_field_spectral(config.sources, grid_x, 2.0)
    assert np.all(fl.interaction_spectral(u0, xi).values == 0)
    cfg = write_config(tmp_path)
    assert main(["synthesize", "--config", str(cfg), "--out", "d"]) == 0
    assert np.all(read_field(tmp_path / "d" / "w_000.laf").values == 0)
    assert read_manifest(tmp_path / "d" / "manifest.json")["forward_iterations"] == {"2": 1}


def test_cli_manifests_are_strict_json_for_an_empty_accuracy_curve(tmp_path, monkeypatch):
    """tiny_config_dict's xi is zero on every slice, so evaluate's accuracy curve
    is empty: its mean is written as null, never as a NaN."""
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path)
    assert main(["synthesize", "--config", str(cfg), "--out", "d"]) == 0
    assert main(["invert", "--config", str(cfg), "--data", "d", "--out", "r"]) == 0
    with pytest.warns(UserWarning, match="empty curve"):
        assert main(["evaluate", "--config", str(cfg), "--recon", "r", "--out", "e"]) == 0

    def refuse(name):
        raise ValueError(f"non-finite number {name} in a manifest")

    for stage in ("d", "r", "e"):
        text = (tmp_path / stage / "manifest.json").read_text()
        manifest = json.loads(text, parse_constant=refuse)
    assert manifest["summary"]["xi_000"]["mean_delta_l2"] is None


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


def test_cli_exit_codes(tmp_path, monkeypatch, capsys):
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
    # an override on a section that is not a mapping -> config error, nothing written
    flat = write_config(tmp_path, name="noise-5.yaml", noise=5)
    assert main(["synthesize", "--config", str(flat), "--out", "o5", "--delta", "1e-5"]) == 2
    assert not (tmp_path / "o5").exists()
    # invert without data -> I/O error
    assert main(["invert", "--config", str(cfg), "--data", "nowhere", "--out", "o"]) == 4
    # a --method override the other regularizer settings do not allow -> config error
    for name, reg, method in [
        ("neg-alpha.yaml", {"method": "tsvd", "tikhonov_alpha": -1.0}, "tikhonov"),
        ("zero-cut.yaml", {"method": "tikhonov", "tsvd_rel_threshold": 0.0}, "tsvd"),
        ("policy.yaml", {"method": "tsvd", "selection_policy": "discrepancy",
                         "noise_delta": 1e-7}, "tikhonov"),
    ]:
        cfg = write_config(tmp_path, name=name, regularizer=reg)
        assert main(["invert", "--config", str(cfg), "--data", "nowhere", "--out", "o",
                     "--method", method]) == 2
    # Tikhonov with the discrepancy policy, which only TSVD applies -> config error
    cfg = write_config(tmp_path, name="tik-disc.yaml", regularizer={
        "method": "tikhonov", "selection_policy": "discrepancy", "noise_delta": 1e-7})
    assert main(["invert", "--config", str(cfg), "--data", "nowhere", "--out", "o"]) == 2
    # a nan or infinite number in the config or an override -> config error, nothing written
    nan, inf = float("nan"), float("inf")
    tiny = tiny_config_dict()
    bump = dict(tiny["phantom"]["bumps"][0], radius=nan)
    for i, (overrides, args) in enumerate([
        ({"frequencies": [nan]}, []),
        ({"frequencies": [inf]}, []),
        ({"noise": {"delta": nan}}, []),
        ({"noise": {"delta": inf}}, []),
        ({"sources": {"points": [{"position": [0.0, nan, 6.0]}]}}, []),
        ({"sources": {"points": [{"position": [0.0, 0.0, 6.0], "amplitude": inf}]}}, []),
        ({"sources": {"points": [{"position": [0.0, 0.0, 6.0], "amplitude": [1.0, nan]}]}}, []),
        ({"phantom": dict(tiny["phantom"], amplitude=nan)}, []),
        ({"phantom": {"bumps": [bump]}}, []),
        ({}, ["--freq", "nan"]),
        ({}, ["--delta", "nan"]),
        ({}, ["--delta", "1e400"]),
    ]):
        cfg = write_config(tmp_path, name=f"nonfinite-{i}.yaml", **overrides)
        out = f"nonfinite-{i}"
        capsys.readouterr()
        assert main(["synthesize", "--config", str(cfg), "--out", out, *args]) == 2, i
        assert "must be a finite number" in capsys.readouterr().err, i
        assert not (tmp_path / out).exists()
    # a value no run can use -> config error before any table is built or cached
    for i, (overrides, named) in enumerate([
        ({"forward": {"max_iter": 0}}, "forward.max_iter"),
        ({"forward": {"max_iter": -1}}, "forward.max_iter"),
        ({"forward": {"tol": 0.0}}, "forward.tol"),
        ({"forward": {"tol": -1.0}}, "forward.tol"),
        ({"extraction": {"eps_div": 2.0}}, "extraction.eps_div"),
        ({"extraction": {"eps_div": 1.0}}, "extraction.eps_div"),
        ({"extraction": {"eps_div": -1e-3}}, "extraction.eps_div"),
        ({"extraction": {"combine": "mean"}}, "extraction.combine"),
        ({"sources": {"line_y": {"y_values": []}}}, "sources.line_y.y_values"),
        ({"sources": {"points": []}}, "sources"),
    ]):
        cache = f"unusable-cache-{i}"
        cfg = write_config(tmp_path, name=f"unusable-{i}.yaml",
                           output={"kernel_cache": True, "kernel_cache_dir": cache}, **overrides)
        out = f"unusable-{i}"
        capsys.readouterr()
        assert main(["synthesize", "--config", str(cfg), "--out", out]) == 2, i
        assert named in capsys.readouterr().err, i
        assert not (tmp_path / out).exists() and not (tmp_path / cache).exists(), i


@pytest.mark.parametrize("path, value, named", [
    (("grid", "n_transverse"), 64.7, "grid.n_transverse"),
    (("noise", "seed"), 1.5, "noise.seed"),
    (("noise", "seed"), -1, "noise.seed"),
    (("forward", "max_iter"), 10.5, "forward.max_iter"),
    (("bench", "n_values"), [32.5], "bench.n_values[0]"),
    (("output", "kernel_cache"), "false", "output.kernel_cache"),
    (("grid", "x_bounds"), [-10.0], "grid.x_bounds"),
    (("grid", "x_bounds"), [-10.0, 10.0, 99.0], "grid.x_bounds"),
    (("phantom", "bumps", 0, "center"), [1.0, 2.0, 0.5, 9.0], "phantom.bumps[0].center"),
])
def test_cli_mistyped_value_exit_code(tmp_path, monkeypatch, capsys, path, value, named):
    """A value its field's type does not allow exits 2, names its key and writes nothing."""
    monkeypatch.chdir(tmp_path)
    data = tiny_config_dict(forward={}, bench={})
    section = data
    for part in path[:-1]:
        section = section[part]
    section[path[-1]] = value
    cfg = tmp_path / "mistyped.yaml"
    cfg.write_text(yaml.safe_dump(data))
    assert main(["synthesize", "--config", str(cfg), "--out", "o"]) == 2
    assert f"{named} must be" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_omitted_keys_take_the_record_defaults():
    grid = {"n_transverse": 16, "scatterer_z": [-0.5, 1.5], "scatterer_nz": 7,
            "receiver_z": [6.01, 6.5], "receiver_nz": 5}
    sources = {"line_y": {"y_values": [-2, 0, 2]}}
    parsed = config_from_dict(
        {"grid": grid, "frequencies": [2.0], "sources": sources, "phantom": {}})
    line = fl.SourceSet.line_y([-2.0, 0.0, 2.0])
    assert np.array_equal(parsed.sources.positions, line.positions)
    assert np.array_equal(parsed.sources.amplitudes, line.amplitudes)
    expected = RunConfig(
        grid=fl.GridConfig(n_transverse=16, scatterer_z=(-0.5, 1.5), scatterer_nz=7,
                           receiver_z=(6.01, 6.5), receiver_nz=5),
        frequencies=(2.0,), sources=parsed.sources, phantom=fl.Phantom(),
    )
    assert parsed == expected
    # PyYAML reads 1e-13 as a string; a float field takes it as the number
    data = tiny_config_dict(**yaml.safe_load("forward: {tol: 1e-13, max_iter: 5}"))
    assert config_from_dict(data).forward == ForwardOptions(tol=1e-13, max_iter=5)


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


def test_cli_failing_stage_leaves_no_output_directory(tmp_path, monkeypatch):
    """Inputs are read before a stage makes its output directory."""
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path)
    assert main(["evaluate", "--config", str(cfg), "--recon", "nowhere", "--out", "e"]) == 4
    assert not (tmp_path / "e").exists()
    assert main(["synthesize", "--config", str(cfg), "--out", "data"]) == 0
    dump = tmp_path / "data" / "w_000.laf"
    dump.write_bytes(dump.read_bytes()[:100])
    assert main(["invert", "--config", str(cfg), "--data", "data", "--out", "r"]) == 4
    assert not (tmp_path / "r").exists()


def test_cli_malformed_manifest_exit_code(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path)
    assert main(["synthesize", "--config", str(cfg), "--out", "data"]) == 0
    assert main(["invert", "--config", str(cfg), "--data", "data", "--out", "r"]) == 0
    recon = tmp_path / "r" / "manifest.json"
    recon.write_text(recon.read_text().replace('"artifacts"', '"artefacts"'))
    assert main(["evaluate", "--config", str(cfg), "--recon", "r", "--out", "e"]) == 4
    data = tmp_path / "data" / "manifest.json"
    data.write_text(data.read_text()[:-20])  # truncated JSON
    assert main(["invert", "--config", str(cfg), "--data", "data", "--out", "r2"]) == 4


@pytest.fixture(scope="module")
def staged_run(tmp_path_factory):
    """A tiny synthesize + invert run whose stage directories tests copy and edit."""
    root = tmp_path_factory.mktemp("staged")
    cfg = write_config(root)
    assert main(["synthesize", "--config", str(cfg), "--out", str(root / "data")]) == 0
    assert main(["invert", "--config", str(cfg), "--data", str(root / "data"),
                 "--out", str(root / "r")]) == 0
    return root


def _drop(key):
    def edit(entries):
        del entries[0][key]
    return edit


def _set(key, value):
    def edit(entries):
        entries[0][key] = value
    return edit


@pytest.mark.parametrize("stage, listing, edit", [
    pytest.param("data", "data_files", None, id="data-intact"),
    pytest.param("data", "data_files", _drop("omega"), id="no-omega"),
    pytest.param("data", "data_files", _set("omega", "2.0"), id="text-omega"),
    pytest.param("data", "data_files", _set("index", 0.0), id="float-index"),
    pytest.param("data", "data_files", _set("index", True), id="bool-index"),
    pytest.param("data", "data_files", _set("file", 7), id="number-file"),
    pytest.param("data", "data_files", "object", id="data-files-object"),
    pytest.param("data", "data_files", "strings", id="data-files-strings"),
    pytest.param("r", "artifacts", None, id="recon-intact"),
    pytest.param("r", "artifacts", _drop("name"), id="no-name"),
    pytest.param("r", "artifacts", _set("name", 0), id="number-name"),
    pytest.param("r", "artifacts", _set("file", None), id="null-file"),
    pytest.param("r", "artifacts", "object", id="artifacts-object"),
])
def test_cli_malformed_manifest_entries_exit_code(staged_run, tmp_path, monkeypatch, stage,
                                                  listing, edit):
    monkeypatch.chdir(tmp_path)
    shutil.copytree(staged_run / stage, stage)
    path = tmp_path / stage / "manifest.json"
    manifest = json.loads(path.read_text())
    entries = manifest[listing]
    if edit == "object":  # one entry where a list belongs
        manifest[listing] = entries[0]
    elif edit == "strings":
        manifest[listing] = [e["file"] for e in entries]
    elif edit is not None:
        edit(entries)
    path.write_text(json.dumps(manifest))
    cfg = str(staged_run / "run.yaml")
    if stage == "data":
        code = main(["invert", "--config", cfg, "--data", stage, "--out", "out"])
    else:
        code = main(["evaluate", "--config", cfg, "--recon", stage, "--out", "out"])
    assert code == (0 if edit is None else 4)


def test_shifted_window_reuses_kernel_cache(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    output = {"kernel_cache": True, "kernel_cache_dir": "cache"}
    cfg = write_config(tmp_path, output=output)
    assert main(["synthesize", "--config", str(cfg), "--out", "centred"]) == 0
    tables = {p.name: p.read_bytes() for p in (tmp_path / "cache").iterdir()}
    assert len(tables) == 2
    shifted = tiny_config_dict(output=output)
    shifted["grid"].update(x_bounds=[-5.0, 15.0], y_bounds=[-11.25, 8.75])
    cfg = tmp_path / "shifted.yaml"
    cfg.write_text(yaml.safe_dump(shifted))

    def rebuild(*args):
        raise AssertionError("a shifted window rebuilt a cached kernel table")

    monkeypatch.setattr(pipeline, "build_green_kernel", rebuild)
    assert main(["synthesize", "--config", str(cfg), "--out", "shifted"]) == 0
    assert {p.name: p.read_bytes() for p in (tmp_path / "cache").iterdir()} == tables


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


def test_benchmark_reads_kernel_columns_from_cache(tmp_path, monkeypatch):
    """The benchmark's kernel checks read per-mode columns from the cache files."""
    path = ROOT / "flbench" / "reference.py"
    spec = importlib.util.spec_from_file_location("flbench_reference", path)
    reference = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(reference)
    data = tiny_config_dict()
    grid_x, grid_y = fl.make_grids(config_from_dict(data).grid)
    lattice = fl.ModeLattice.for_grid(grid_x)
    built = {
        recv.nz: pipeline.get_kernel(grid_x, recv, 2.0, lattice, tmp_path)
        for recv in (grid_x, grid_y)
    }
    # modes (k1, k2) = (0, 0), (1, 3), (3, 1), (-1, 3) and (-1, -1); the last
    # three are not their class representatives
    modes = np.array([0, 19, 49, 243, 255])
    rep, class_of = lattice.symmetry_classes()
    assert np.count_nonzero(rep[class_of[modes]] != modes) == 3
    files = sorted(tmp_path.glob("*.npz"))
    assert len(files) == 2
    for file in files:
        with np.load(file, allow_pickle=False) as t:
            omega, offsets, values = float(t["omega"]), t["offsets"], t["values"]
        assert values.shape == (offsets.size, lattice.n_modes)
        direct = reference.kernel_columns(reference.Lattice(data["grid"]), omega, offsets, modes)
        err = np.max(np.abs(values[:, modes] - direct), axis=1) / np.max(np.abs(direct), axis=1)
        assert np.all(err <= 1e-12)

    def rebuild(*args):
        raise AssertionError("a cached kernel table was rebuilt")

    monkeypatch.setattr(pipeline, "build_green_kernel", rebuild)
    for recv in (grid_x, grid_y):
        table = pipeline.get_kernel(grid_x, recv, 2.0, lattice, tmp_path)
        for name in ("row_z", "col_z", "offsets", "offset_index", "values", "class_of",
                     "members"):
            a, b = getattr(table, name), getattr(built[recv.nz], name)
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), name  # bitwise
        assert table.omega == built[recv.nz].omega


def test_benchmark_hook_points_exist():
    """Every pipeline attribute the benchmark's tracer wraps exists and is restored."""
    path = ROOT / "flbench" / "spans.py"
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


def test_benchmark_entry_points_run(tmp_path, monkeypatch):
    """The benchmark's child-process probes and one traced set-up, synthesize and
    invert run against this source tree and give every per-layer metric, so a
    signature the benchmark calls cannot change unnoticed."""
    monkeypatch.chdir(tmp_path)
    flbench = {}
    for name in ("child", "spans"):
        spec = importlib.util.spec_from_file_location(f"flbench_{name}",
                                                      ROOT / "flbench" / f"{name}.py")
        flbench[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(flbench[name])
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)

    def child(*args):
        proc = subprocess.run([sys.executable, str(ROOT / "flbench" / "child.py"), *args],
                              env=env, capture_output=True, text=True, check=True)
        return json.loads(proc.stdout)

    def config(name, cache, **overrides):
        return str(write_config(tmp_path, name=name, **overrides,
                                output={"kernel_cache": True, "kernel_cache_dir": cache}))

    cfg = config("probe.yaml", "probe-cache")
    setup = child("setup", cfg)
    assert [(t["kind"], t["omega"]) for t in setup["tables"]] == [("xy", 2.0), ("xx", 2.0)]

    spans = flbench["spans"]
    tracer = spans.Tracer("tiny")
    traced = config("traced.yaml", "traced-cache", phantom=NODE_BUMP)
    spans.install(tracer)
    try:
        tracer.call("setup", flbench["child"].setup, traced)
        tracer.context = "tsvd"
        assert main(["synthesize", "--config", traced, "--out", "data"]) == 0
        assert main(["invert", "--config", traced, "--data", "data", "--out", "recon"]) == 0
    finally:
        tracer.restore()
    metrics = spans.layer_metrics(tracer.spans, "tsvd")
    assert metrics["pipeline.cache_misses"] == 2 and metrics["pipeline.cache_hits"] == 4
    assert metrics["forward.born_iterations"] > 1
    assert metrics["medium.incident_s"] > 0 and metrics["spectral.fft_s"] > 0
    assert metrics["inverse.failed_modes"] == 0
    assert all(np.isfinite(value) for value in metrics.values())

    solve = child("solve", cfg, "data", "0,17")
    (probe,) = solve["solves"]
    assert probe["omega"] == 2.0 and probe["method"] == "tsvd"
    assert np.all(np.isfinite(probe["x"])) and len(probe["ranks"]) == 2
