import importlib.util
import json
import os
import shutil
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import flatlayer as fl
from flatlayer import inverse, pipeline
from flatlayer.cli import main
from flatlayer.fieldio import read_field
from flatlayer.manifest import read_manifest
from flatlayer.runconfig import (
    ConfigError,
    ForwardOptions,
    RunConfig,
    config_from_dict,
    load_config,
    read_yaml,
)

from conftest import assert_slices_parse_back, full_slab_interaction

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
# it samples to a nonzero xi there (on 3 nodes, one on each of 3 of the 7 slabs),
# and GMRES takes 3 operator applications (Born took 19 iterations)
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


def test_presets_read_alike_by_the_c_and_python_yaml_loaders():
    """read_yaml parses with PyYAML's C loader; every preset gives the dict that the
    pure-Python SafeLoader gives, value types included."""
    for preset in sorted(PRESET_DIR.glob("*.yaml")):
        expected = yaml.load(preset.read_text(), Loader=yaml.SafeLoader)
        assert repr(read_yaml(preset)) == repr(expected), preset.name


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
    for n_values in ([32], [16, 32]):
        data["bench"] = {"n_values": n_values}
        cfg.write_text(yaml.safe_dump(data))
        assert main(["bench", "--config", str(cfg), "--out", "b"]) == 2, n_values
    # every N is checked before the first is swept: nothing is run or written
    assert not (tmp_path / "b").exists()


@pytest.mark.parametrize("where", ["--n-list", "bench.n_values"])
def test_cli_bench_repeated_n_exit_code(tmp_path, monkeypatch, where):
    """An N given twice would fit the timing exponent to passes at one N: a config
    error before any N is swept, with nothing written."""
    monkeypatch.chdir(tmp_path)
    if where == "--n-list":
        # the flag is gone: its repeated list is refused as a usage error, and
        # the same list through its config key is a config error
        cfg = write_config(tmp_path, bench={"n_values": [16, 16]})
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--config", str(cfg), "--out", "b", "--n-list", "16,16"])
        assert exc.value.code == 2
    else:
        cfg = write_config(tmp_path, bench={"n_values": [16, 8, 16]})
    assert main(["bench", "--config", str(cfg), "--out", "b"]) == 2
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


def test_presets_and_benchmark_workloads_take_the_dense_forward_operator(tmp_path,
                                                                         monkeypatch):
    """From sizes only, with no solve: every preset's support, bench.yaml's at each of
    its N values, and every flbench workload's meets forward.dense_fits, so synthesize
    applies the dense S x S matrix and builds no scatterer table for any of them."""
    path = ROOT / "flbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("flbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # dataclasses look it up
    spec.loader.exec_module(workloads)
    configs = {}
    for preset in sorted(PRESET_DIR.glob("*.yaml")):
        configs[preset.stem] = config = load_config(preset)
        if preset.stem == "bench":
            for n in config.bench_n:
                configs[f"bench N={n}"] = replace(config, grid=replace(config.grid,
                                                                       n_transverse=n))
    for name, work in workloads.WORKLOADS.items():
        configs[f"flbench {name}"] = config_from_dict(work.config(None, tmp_path, complex(1.0)))
    assert len(configs) == 7 + 3 + 3
    for name, config in configs.items():
        grid_x, _ = fl.make_grids(config.grid)
        support = fl.Support.of(config.phantom.sample_on(grid_x))
        assert support.size > 0, name
        assert fl.dense_fits(support.size, grid_x.nx, support.slabs.size), name


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
        # each stage records its process's peak resident set
        assert read_manifest(tmp_path / stage / "manifest.json")["peak_rss_mib"] > 0
    data_manifest = read_manifest(tmp_path / "data" / "manifest.json")
    assert list(data_manifest["forward_iterations"]) == ["000"]
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
    # the combined field is the one artifact; every frequency's solves keep their ranks
    assert names == ["xi_combined"]
    assert set(manifest["rank_stats"]) == {"000", "001"}
    written = sorted(["diagnostics.csv", "rank_hist_000.csv", "rank_hist_001.csv",
                      "xi_combined.laf",
                      *(f"slices_xi_combined/xi_combined_z{iz:03d}.csv" for iz in range(7))])
    assert sorted(e["path"] for e in manifest["files"]) == written
    assert sorted(str(p.relative_to(recon)) for p in recon.rglob("*") if p.is_file()) == sorted(
        [*written, "manifest.json"])
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
    assert [r.split(",")[1] for r in rows[1:]] == ["all"]
    assert all(float(r.split(",")[2]) >= 0 for r in rows[1:])


def test_run_invert_writes_the_extraction_of_the_per_frequency_building_blocks(
        tmp_path, monkeypatch):
    """invert's xi dumps hold, bit for bit, the extraction of solve_modes ->
    recompute_internal_field -> inverse_xy at each frequency: its own for per_frequency,
    their least-squares combination for least_squares."""
    monkeypatch.chdir(tmp_path)
    data = tiny_config_dict(frequencies=[1.0, 2.0])
    data["grid"]["n_transverse"] = 32
    per = config_from_dict(data)
    combined = config_from_dict({**data, "extraction": {"combine": "least_squares"}})
    pipeline.run_synthesize(per, tmp_path / "data")
    pipeline.run_invert(per, tmp_path / "data", tmp_path / "per")
    pipeline.run_invert(combined, tmp_path / "data", tmp_path / "lsq")

    gx, gy = fl.make_grids(per.grid)
    lattice = fl.ModeLattice.for_grid(gx)
    vs, us = [], []
    for i, omega in enumerate(per.frequencies):
        w = read_field(tmp_path / "data" / f"w_{i:03d}.laf")
        kernel_xy = fl.build_green_kernel(gx, gy, omega, lattice)
        kernel_xx = fl.build_green_kernel(gx, gx, omega, lattice)
        u0 = fl.SpectralField(gx, fl.incident_field_spectral(per.sources, gx, omega))
        v_spec, _ = fl.solve_modes(fl.forward_xy(w), kernel_xy, omega, per.regularizer, gx)
        u_spec = fl.recompute_internal_field(v_spec, u0, kernel_xx)
        vs.append(fl.inverse_xy(v_spec))
        us.append(fl.inverse_xy(u_spec))

    def written(path):
        return read_field(path).values.tobytes()

    def extracted(v_fields, u_fields):
        ext = fl.extract_xi_lsq(fl.XiSums.of(v_fields, u_fields), per.extraction.eps_div)
        assert np.any(ext.xi != 0)
        return ext.xi.astype(complex).tobytes()

    for i in range(2):
        assert written(tmp_path / "per" / f"xi_{i:03d}.laf") == extracted([vs[i]], [us[i]])
    assert written(tmp_path / "lsq" / "xi_combined.laf") == extracted(vs, us)


def test_run_invert_holds_one_frequency_at_a_time(tmp_path, monkeypatch):
    """A two-frequency least-squares inversion keeps the running sums and one
    frequency's fields and tables: its traced peak stays at 8 complex scatterer fields
    (6.5 measured; keeping every frequency's V and u to the end takes 10.5)."""
    monkeypatch.chdir(tmp_path)
    data = tiny_config_dict(frequencies=[1.0, 2.0], extraction={"combine": "least_squares"})
    data["grid"].update(n_transverse=64, scatterer_nz=11, receiver_nz=3)
    config = config_from_dict(data)
    pipeline.run_synthesize(config, tmp_path / "data")
    tracemalloc.start()
    try:
        pipeline.run_invert(config, tmp_path / "data", tmp_path / "recon")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    field_bytes = 64 * 64 * 11 * 16
    assert peak <= 8 * field_bytes


def test_run_evaluate_holds_one_dump_at_a_time(tmp_path, monkeypatch):
    """A three-artifact per_frequency evaluation reads, evaluates and drops one xi dump
    before it reads the next: its traced peak stays at 2.5 complex dumps (2.32 measured:
    one dump, the sampled phantom and one real temporary of the metrics; keeping every
    dump to the end takes 4.99)."""
    monkeypatch.chdir(tmp_path)
    data = tiny_config_dict(frequencies=[1.0, 2.0, 3.0])
    data["grid"].update(n_transverse=64, scatterer_nz=11, receiver_nz=3)
    config = config_from_dict(data)
    pipeline.run_synthesize(config, tmp_path / "data")
    pipeline.run_invert(config, tmp_path / "data", tmp_path / "recon")
    tracemalloc.start()
    try:
        pipeline.run_evaluate(config, tmp_path / "recon", tmp_path / "eval")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(read_manifest(tmp_path / "eval" / "manifest.json")["summary"]) == 3
    dump_bytes = 64 * 64 * 11 * 16
    assert peak <= 2.5 * dump_bytes


@pytest.mark.parametrize("alpha", [1e-20, 1e-300])
def test_cli_tikhonov_inverts_at_a_tiny_alpha(tmp_path, monkeypatch, alpha):
    """Tikhonov filters the singular triplets, so an accepted alpha far below the
    rounding of A^H A (singular here, M1 = 5 < M = 7) still inverts to a finite xi."""
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path, phantom=NODE_BUMP,
                       regularizer={"method": "tikhonov", "tikhonov_alpha": alpha})
    assert main(["synthesize", "--config", str(cfg), "--out", "d"]) == 0
    assert main(["invert", "--config", str(cfg), "--data", "d", "--out", "r"]) == 0
    assert np.all(np.isfinite(read_field(tmp_path / "r" / "xi_000.laf").values))


def test_rerun_manifests_list_only_the_files_that_run_wrote(tmp_path, monkeypatch):
    """A stage rerun into a used directory leaves the earlier run's files there,
    but its manifest lists exactly the files the rerun wrote."""
    monkeypatch.chdir(tmp_path)

    def in_order(stage_dir):
        return [e["path"] for e in read_manifest(tmp_path / stage_dir / "manifest.json")["files"]]

    def listed(stage_dir):
        return sorted(in_order(stage_dir))

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
    assert main(["invert", "--config", str(lsq), "--data", "d2", "--out", "r"]) == 0
    assert main(["evaluate", "--config", str(lsq), "--recon", "r", "--out", "e"]) == 0
    # each artifact's dump and slices, then its frequencies' ranks, then the diagnostics
    assert in_order("r") == [
        "xi_combined.laf", *slices("slices_xi_combined", "xi_combined"),
        "rank_hist_000.csv", "rank_hist_001.csv", "diagnostics.csv",
    ]
    assert in_order("e") == ["accuracy_xi_combined.csv", "localization_xi_combined.csv"]
    ranks = {i: (tmp_path / "r" / f"rank_hist_{i}.csv").read_bytes() for i in ("000", "001")}
    assert main(["invert", "--config", str(per), "--data", "d2", "--out", "r"]) == 0
    assert main(["evaluate", "--config", str(per), "--recon", "r", "--out", "e"]) == 0
    # the same per-mode solves, whichever extraction follows them
    assert ranks == {i: (tmp_path / "r" / f"rank_hist_{i}.csv").read_bytes() for i in ranks}
    assert (tmp_path / "r" / "xi_combined.laf").exists()
    assert in_order("r") == [
        "xi_000.laf", *slices("slices_xi_000", "xi_000"), "rank_hist_000.csv",
        "xi_001.laf", *slices("slices_xi_001", "xi_001"), "rank_hist_001.csv",
        "diagnostics.csv",
    ]
    assert in_order("e") == [f"{kind}_xi_{i:03d}.csv"
                             for i in (0, 1) for kind in ("accuracy", "localization")]


def test_cli_rerun_reproduces_checksums(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path, phantom=NODE_BUMP, noise={"delta": 1e-6, "seed": 77})
    assert main(["synthesize", "--config", str(cfg), "--out", "a"]) == 0
    assert main(["synthesize", "--config", str(cfg), "--out", "b"]) == 0
    wa = (tmp_path / "a" / "w_000.laf").read_bytes()
    wb = (tmp_path / "b" / "w_000.laf").read_bytes()
    assert wa == wb
    # the reruns compare real data from a real GMRES solve
    assert np.any(read_field(tmp_path / "a" / "w_000.laf").values != 0)
    assert read_manifest(tmp_path / "a" / "manifest.json")["forward_iterations"]["000"] > 1


def test_cli_phantom_between_nodes_gives_zero_data_in_one_step(tmp_path, monkeypatch):
    """tiny_config_dict's bumps miss every node of its N = 16 lattice: xi is zero
    on every slab, so the interaction V is zero and the forward solve stops at its
    one step, the residual check on the empty support, with no operator application."""
    monkeypatch.chdir(tmp_path)
    config = config_from_dict(tiny_config_dict())
    grid_x, _ = fl.make_grids(config.grid)
    xi = config.phantom.sample_on(grid_x)
    assert not xi.any(axis=(0, 1)).any()  # the support is empty
    u0 = fl.incident_field_spectral(config.sources, grid_x, 2.0)
    assert np.all(full_slab_interaction(grid_x, u0, xi) == 0)
    cfg = write_config(tmp_path)
    assert main(["synthesize", "--config", str(cfg), "--out", "d"]) == 0
    assert np.all(read_field(tmp_path / "d" / "w_000.laf").values == 0)
    manifest = read_manifest(tmp_path / "d" / "manifest.json")
    assert manifest["forward_iterations"] == {"000": 0}
    assert manifest["forward_support"] == {"nodes": 0, "slabs": 0, "of": 7, "z": None}


def read_strict_json(path):
    """The JSON document at path, refusing the NaN and Infinity that strict JSON lacks."""
    def refuse(name):
        raise ValueError(f"non-finite number {name} in {path}")

    return json.loads(Path(path).read_text(), parse_constant=refuse)


def test_cli_manifests_are_strict_json_for_an_empty_accuracy_curve(tmp_path, monkeypatch):
    """tiny_config_dict's xi is zero on every slice, and so is a phantom with no
    bumps, so evaluate's accuracy curve is empty: its mean is written as null,
    never as a NaN. With no bump to localize, the largest offset is null too."""
    monkeypatch.chdir(tmp_path)
    for name, phantom in [("between-nodes", tiny_config_dict()["phantom"]),
                          ("no-bumps", {"bumps": []})]:
        cfg = write_config(tmp_path, name=f"{name}.yaml", phantom=phantom)
        d, r, e = (f"{name}-{stage}" for stage in "dre")
        assert main(["synthesize", "--config", str(cfg), "--out", d]) == 0
        assert main(["invert", "--config", str(cfg), "--data", d, "--out", r]) == 0
        with pytest.warns(UserWarning, match="empty curve"):
            assert main(["evaluate", "--config", str(cfg), "--recon", r, "--out", e]) == 0
        for stage in (d, r, e):
            manifest = read_strict_json(tmp_path / stage / "manifest.json")
        summary = manifest["summary"]["xi_000"]
        assert summary["mean_delta_l2"] is None
        assert (summary["max_offset"] is None) == (name == "no-bumps"), name


@st.composite
def tiny_runs(draw):
    """A config dict on an N <= 16 grid with NODE_BUMP's bump at any radius, and
    maybe a second bump of any radius, weight and cross term near a node, at an amplitude
    of either sign (slow inclusions, xi < 0, included), one or two frequencies, the
    line sources or three point sources at two heights (two sharing one), a forward
    tol from 1e-16 to 10 (1 or more exits 2) and any max_iter, any regularizer setting
    RegularizerConfig accepts (a Tikhonov alpha log-uniform over 1e-300 to 1e3), noise
    level delta, either extraction.combine and any eps_div in [0, 1)."""
    method = draw(st.sampled_from(["tsvd", "tikhonov"]))
    reg = {"method": method}
    if method == "tsvd":
        reg["tsvd_rel_threshold"] = draw(st.floats(0.0, 1.0, exclude_min=True))
        if draw(st.booleans()):
            reg.update(selection_policy="discrepancy", noise_delta=draw(st.floats(0.0, 1.0)))
    else:
        reg["tikhonov_alpha"] = 10.0 ** draw(st.floats(-300.0, 3.0))
    grid = {**tiny_config_dict()["grid"], "n_transverse": draw(st.sampled_from([2, 4, 8, 16])),
            "scatterer_nz": draw(st.integers(2, 7)), "receiver_nz": draw(st.integers(2, 5))}
    noise = {"delta": draw(st.floats(0.0, 1.0)), "seed": 1234}
    bumps = [dict(NODE_BUMP["bumps"][0], radius=draw(st.floats(0.1, 15.0)))]
    if draw(st.booleans()):
        # within 0.71 of the scatterer node (0, 0, z), z a node's height in [-0.5, 1.5]
        nz = grid["scatterer_nz"]
        z = -0.5 + 2.0 * draw(st.integers(0, nz - 1)) / (nz - 1)
        center = [draw(st.floats(-0.5, 0.5)), draw(st.floats(-0.5, 0.5)), z]
        bumps.append({"center": center, "radius": draw(st.floats(0.1, 15.0)),
                      "weight": draw(st.floats(-3.0, 3.0)),
                      "cross_yz": draw(st.floats(-1.5, 1.5))})
    phantom = {"amplitude": draw(st.floats(-50.0, 50.0)), "bumps": bumps}
    sources = tiny_config_dict()["sources"]
    if draw(st.booleans()):
        low, high = draw(st.lists(st.floats(2.0, 6.0), min_size=2, max_size=2, unique=True))
        sources = {"points": [{"position": [draw(st.floats(-5.0, 5.0)),
                                            draw(st.floats(-5.0, 5.0)), z]}
                              for z in (low, low, high)]}
    frequencies = draw(st.lists(st.floats(0.05, 8.0), min_size=1, max_size=2))
    # the exponent's simplest draw, 0, gives the default tol 1e-13, not an invalid 1
    forward = {"tol": 10.0 ** (draw(st.floats(-3.0, 14.0)) - 13.0),
               "max_iter": draw(st.integers(1, 60))}
    extraction = {"combine": draw(st.sampled_from(["per_frequency", "least_squares"])),
                  "eps_div": draw(st.floats(0.0, 1.0, exclude_max=True))}
    return tiny_config_dict(grid=grid, phantom=phantom, regularizer=reg, noise=noise,
                            sources=sources, frequencies=frequencies, forward=forward,
                            extraction=extraction)


@given(tiny_runs())
@settings(max_examples=60)  # about 25 ms each; 20 left some draw combinations unrun
def test_accepted_configs_run_or_exit_with_a_documented_code(run):
    """synthesize, invert and evaluate each exit 0, 2, 3 or 4 on every such run,
    never with a traceback, and every manifest they write is strict JSON; a synthesize
    that exits 0 records one finite residual per operator application, and a Tikhonov
    invert of its data exits 0. An invert that exits 0 lists one artifact per frequency
    or the combined field alone, each with one slice file per z-slab and no other slice
    directory, lists the same files with the same sha256 when rerun into another
    directory, and an evaluate that exits 0 reports exactly those artifacts."""
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("ignore")  # an empty accuracy curve warns
        root = Path(tmp)
        cfg = root / "run.yaml"
        cfg.write_text(yaml.safe_dump(run))
        d, r, e = (str(root / stage) for stage in "dre")
        codes = [main(["synthesize", "--config", str(cfg), "--out", d]),
                 main(["invert", "--config", str(cfg), "--data", d, "--out", r]),
                 main(["evaluate", "--config", str(cfg), "--recon", r, "--out", e])]
        assert set(codes) <= {0, 2, 3, 4}, codes
        for stage in (d, r, e):
            if (Path(stage) / "manifest.json").exists():
                read_strict_json(Path(stage) / "manifest.json")
        if codes[0] == 0:
            assert codes[1] == 0 or run["regularizer"]["method"] == "tsvd", codes
            # one finite residual per operator application, over restarts and both forms
            iterations = read_manifest(Path(d) / "manifest.json")["forward_iterations"]
            for i, count in iterations.items():
                rows = (Path(d) / f"residuals_{i}.csv").read_text().splitlines()[1:]
                assert len(rows) == count, (i, rows)
                assert all(np.isfinite(float(row.split(",")[1])) for row in rows), rows
        if codes[1] == 0:
            recon = read_manifest(Path(r) / "manifest.json")
            names = [a["name"] for a in recon["artifacts"]]
            if run["extraction"]["combine"] == "least_squares":
                assert names == ["xi_combined"], names
            else:
                assert names == [f"xi_{i:03d}" for i in range(len(run["frequencies"]))], names
            nz = run["grid"]["scatterer_nz"]
            listed = [e["path"] for e in recon["files"] if e["path"].startswith("slices_")]
            assert sorted(listed) == sorted(f"slices_{name}/{name}_z{iz:03d}.csv"
                                            for name in names for iz in range(nz)), listed
            # criterion 10: a rerun is byte-identical
            assert main(["invert", "--config", str(cfg), "--data", d, "--out", r + "2"]) == 0
            rerun = read_manifest(Path(r + "2") / "manifest.json")
            assert [(f["path"], f["sha256"]) for f in rerun["files"]] == [
                (f["path"], f["sha256"]) for f in recon["files"]]
            if codes[2] == 0:
                summary = read_manifest(Path(e) / "manifest.json")["summary"]
                assert sorted(summary) == sorted(names), summary


def test_per_frequency_manifest_maps_keep_frequencies_that_print_alike(tmp_path, monkeypatch):
    """Two frequencies equal to 6 significant digits keep one entry each in the
    synthesize and invert manifests, keyed like their w_/xi_ files."""
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path, frequencies=[2.0, 2.0000001])
    assert main(["synthesize", "--config", str(cfg), "--out", "d"]) == 0
    assert main(["invert", "--config", str(cfg), "--data", "d", "--out", "r"]) == 0
    assert list(read_manifest(tmp_path / "d" / "manifest.json")["forward_iterations"]) == [
        "000", "001"]
    assert list(read_manifest(tmp_path / "r" / "manifest.json")["rank_stats"]) == ["000", "001"]


@pytest.mark.parametrize("command, flag", [
    ("synthesize", ["--seed", "9"]),
    ("synthesize", ["--delta", "1e-6"]),
    ("synthesize", ["--freq", "1.5"]),
    ("invert", ["--method", "tikhonov"]),
    ("bench", ["--n-list", "4,8"]),
], ids=["seed", "delta", "freq", "method", "n-list"])
def test_cli_refuses_removed_override_flags(tmp_path, monkeypatch, command, flag):
    """The config file is a run's only input: a flag that once overrode one of its
    keys is argparse's usage error, exit 2, before anything is read or written."""
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path, bench={"n_values": [4, 8]})
    data = ["--data", "d"] if command == "invert" else []
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", str(cfg), "--out", "o", *data, *flag])
    assert exc.value.code == 2
    assert not (tmp_path / "o").exists()


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
    # a frequency that is not a number -> config error
    freq = write_config(tmp_path, name="freq-x.yaml", frequencies=["x"])
    assert main(["synthesize", "--config", str(freq), "--out", "o"]) == 2
    # a section that is not a mapping -> config error, nothing written
    flat = write_config(tmp_path, name="noise-5.yaml", noise=5)
    assert main(["synthesize", "--config", str(flat), "--out", "o5"]) == 2
    assert not (tmp_path / "o5").exists()
    cfg = write_config(tmp_path)
    # invert without data -> I/O error
    assert main(["invert", "--config", str(cfg), "--data", "nowhere", "--out", "o"]) == 4
    # a method the other regularizer settings do not allow -> config error
    for name, reg in [
        ("neg-alpha.yaml", {"method": "tikhonov", "tikhonov_alpha": -1.0}),
        ("zero-cut.yaml", {"method": "tsvd", "tsvd_rel_threshold": 0.0}),
    ]:
        cfg = write_config(tmp_path, name=name, regularizer=reg)
        assert main(["invert", "--config", str(cfg), "--data", "nowhere", "--out", "o"]) == 2
    # Tikhonov with the discrepancy policy, which only TSVD applies -> config error
    cfg = write_config(tmp_path, name="tik-disc.yaml", regularizer={
        "method": "tikhonov", "selection_policy": "discrepancy", "noise_delta": 1e-7})
    assert main(["invert", "--config", str(cfg), "--data", "nowhere", "--out", "o"]) == 2
    # a nan or infinite number in the config -> config error, nothing written
    nan, inf = float("nan"), float("inf")
    tiny = tiny_config_dict()
    bump = dict(tiny["phantom"]["bumps"][0], radius=nan)
    for i, overrides in enumerate([
        {"frequencies": [nan]},
        {"frequencies": [inf]},
        {"noise": {"delta": nan}},
        {"noise": {"delta": inf}},
        {"sources": {"points": [{"position": [0.0, nan, 6.0]}]}},
        {"sources": {"points": [{"position": [0.0, 0.0, 6.0], "amplitude": inf}]}},
        {"sources": {"points": [{"position": [0.0, 0.0, 6.0], "amplitude": [1.0, nan]}]}},
        {"phantom": dict(tiny["phantom"], amplitude=nan)},
        {"phantom": {"bumps": [bump]}},
        # numeric strings, as YAML reads 1e400 without a dot
        {"frequencies": ["nan"]},
        {"noise": {"delta": "nan"}},
        {"noise": {"delta": "1e400"}},
    ]):
        cfg = write_config(tmp_path, name=f"nonfinite-{i}.yaml", **overrides)
        out = f"nonfinite-{i}"
        capsys.readouterr()
        assert main(["synthesize", "--config", str(cfg), "--out", out]) == 2, i
        assert "must be a finite number" in capsys.readouterr().err, i
        assert not (tmp_path / out).exists()
    # a value no run can use -> config error before any table is built or cached
    for i, (overrides, named) in enumerate([
        ({"forward": {"max_iter": 0}}, "forward.max_iter"),
        ({"forward": {"max_iter": -1}}, "forward.max_iter"),
        ({"forward": {"tol": 0.0}}, "forward.tol"),
        ({"forward": {"tol": -1.0}}, "forward.tol"),
        ({"forward": {"tol": 1.0}}, "forward.tol"),
        ({"forward": {"tol": 10.0}}, "forward.tol"),
        ({"extraction": {"eps_div": 2.0}}, "extraction.eps_div"),
        ({"extraction": {"eps_div": 1.0}}, "extraction.eps_div"),
        ({"extraction": {"eps_div": -1e-3}}, "extraction.eps_div"),
        ({"extraction": {"combine": "mean"}}, "extraction.combine"),
        ({"sources": {"line_y": {"y_values": []}}}, "sources.line_y.y_values"),
        ({"sources": {"points": []}}, "sources"),
        ({"phantom": dict(NODE_BUMP, bumps=[dict(NODE_BUMP["bumps"][0], radius=0.0)])},
         "bump radius must be positive"),
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


def test_cli_scatterer_beyond_the_born_series_synthesizes(tmp_path, monkeypatch):
    """A scatterer far too strong for the Born series, which diverged on it (exit 3),
    synthesizes: GMRES on its |S| = 3 nodes ends within 3 operator applications. A
    cap below that still ends in exit 3 with nothing written."""
    monkeypatch.chdir(tmp_path)
    data = tiny_config_dict(frequencies=[3.0])
    # N = 32 so the coarse lattice resolves the scatterer
    data["grid"]["n_transverse"] = 32
    data["phantom"]["amplitude"] = 20.0
    cfg = tmp_path / "strong.yaml"
    with open(cfg, "w") as fh:
        yaml.safe_dump(data, fh)
    assert main(["synthesize", "--config", str(cfg), "--out", "d"]) == 0
    manifest = read_manifest(tmp_path / "d" / "manifest.json")
    assert manifest["forward_support"]["nodes"] == 3
    assert 0 < manifest["forward_iterations"]["000"] <= 3
    w = read_field(tmp_path / "d" / "w_000.laf").values
    assert np.all(np.isfinite(w)) and np.any(w != 0)
    data["forward"] = {"max_iter": 2}
    with open(cfg, "w") as fh:
        yaml.safe_dump(data, fh)
    assert main(["synthesize", "--config", str(cfg), "--out", "capped"]) == 3
    assert not (tmp_path / "capped").exists()


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


def test_cli_evaluate_rejects_artifacts_from_a_shifted_window(tmp_path, monkeypatch):
    """An xi dump made on a window of the same shape elsewhere is measured at the
    wrong nodes: evaluate exits 2, as invert does, before making its directory."""
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path)
    assert main(["synthesize", "--config", str(cfg), "--out", "data"]) == 0
    assert main(["invert", "--config", str(cfg), "--data", "data", "--out", "r"]) == 0
    shifted = tiny_config_dict()
    shifted["grid"].update(x_bounds=[-5.0, 15.0], y_bounds=[-11.25, 8.75],
                           scatterer_z=[-0.4, 1.6])
    other = tmp_path / "shifted.yaml"
    other.write_text(yaml.safe_dump(shifted))
    assert main(["invert", "--config", str(other), "--data", "data", "--out", "r2"]) == 2
    assert main(["evaluate", "--config", str(other), "--recon", "r", "--out", "e"]) == 2
    assert not (tmp_path / "r2").exists() and not (tmp_path / "e").exists()
    assert main(["evaluate", "--config", str(cfg), "--recon", "r", "--out", "e"]) == 0


def test_cli_bench_smoke(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path, bench={"n_values": [4, 8]},
                       output={"kernel_cache": True, "kernel_cache_dir": "cache"})
    assert main(["bench", "--config", str(cfg), "--out", "b"]) == 0
    rows = (tmp_path / "b" / "timing.csv").read_text().splitlines()
    assert rows[0] == "n,m,m1,seconds"
    assert len(rows) == 3
    assert all(float(r.split(",")[3]) > 0 for r in rows[1:])
    # bench times inversions on tables it builds in memory, even with the cache on
    assert not (tmp_path / "cache").exists()
    # empty/odd n lists are config errors
    for i, n_values in enumerate(([], [7])):
        cfg = write_config(tmp_path, name=f"bad-n-{i}.yaml", bench={"n_values": n_values})
        assert main(["bench", "--config", str(cfg), "--out", "b2"]) == 2, n_values
    assert not (tmp_path / "b2").exists()


def test_bench_seeds_each_frequency_as_synthesize_does(tmp_path, monkeypatch):
    """Frequency i's noise is drawn from seed + i in bench as in synthesize."""
    monkeypatch.chdir(tmp_path)
    seeds, add_noise = [], pipeline.add_noise

    def recording(w_field, delta, seed):
        seeds.append(seed)
        return add_noise(w_field, delta, seed)

    monkeypatch.setattr(pipeline, "add_noise", recording)
    cfg = write_config(tmp_path, frequencies=[2.0, 3.0], noise={"delta": 1e-5, "seed": 55},
                       bench={"n_values": [8]})
    assert main(["bench", "--config", str(cfg), "--out", "b"]) == 0
    assert seeds == [55, 56]
    seeds.clear()
    assert main(["synthesize", "--config", str(cfg), "--out", "d"]) == 0
    assert seeds == [55, 56]


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


def test_shifted_window_builds_the_same_tables_and_writes_no_cache(tmp_path, monkeypatch):
    """A shifted window's kernel tables equal the centred window's bit for bit, and
    invert builds them in memory: with output.kernel_cache on it makes no
    kernel_cache_dir and writes nothing outside --out."""
    monkeypatch.chdir(tmp_path)
    output = {"kernel_cache": True, "kernel_cache_dir": "cache"}
    centred = write_config(tmp_path, output=output, phantom=NODE_BUMP)
    shifted = tiny_config_dict(output=output, phantom=NODE_BUMP)
    shifted["grid"].update(x_bounds=[-5.0, 15.0], y_bounds=[-11.25, 8.75])
    shifted = write_config(tmp_path, name="shifted.yaml", **shifted)
    tables = []
    for cfg in (centred, shifted):
        grid_x, grid_y = fl.make_grids(load_config(cfg).grid)
        lattice = fl.ModeLattice.for_grid(grid_x)
        tables.append([fl.build_green_kernel(grid_x, recv, 2.0, lattice)
                       for recv in (grid_y, grid_x)])
    for a, b in zip(*tables):
        assert a.omega == b.omega
        for name in ("row_z", "col_z", "col_weights", "offsets", "offset_index", "values",
                     "class_of", "members"):
            x, y = getattr(a, name), getattr(b, name)
            assert x.shape == y.shape and x.tobytes() == y.tobytes(), name  # bitwise
    for cfg in (centred, shifted):
        assert main(["synthesize", "--config", str(cfg), "--out", f"d-{cfg.stem}"]) == 0
        before = set(tmp_path.rglob("*"))
        out = tmp_path / f"r-{cfg.stem}"
        assert main(["invert", "--config", str(cfg), "--data", f"d-{cfg.stem}",
                     "--out", out.name]) == 0
        assert all(out in p.parents or p == out for p in set(tmp_path.rglob("*")) - before)
    assert not (tmp_path / "cache").exists()


def test_invert_leaves_a_garbage_kernel_cache_file_alone(tmp_path, monkeypatch):
    """No stage reads the kernel cache: a garbage file where invert's receiver table
    would be cached leaves its xi byte-identical and the file untouched."""
    monkeypatch.chdir(tmp_path)
    cfg = write_config(
        tmp_path, output={"kernel_cache": True, "kernel_cache_dir": "cache"}, phantom=NODE_BUMP
    )
    assert main(["synthesize", "--config", str(cfg), "--out", "data"]) == 0
    assert main(["invert", "--config", str(cfg), "--data", "data", "--out", "fresh"]) == 0
    grid_x, grid_y = fl.make_grids(load_config(cfg).grid)
    garbage = pipeline._kernel_cache_path(tmp_path / "cache", grid_x, grid_y, 2.0)
    garbage.parent.mkdir()
    garbage.write_bytes(b"not a table")
    assert main(["invert", "--config", str(cfg), "--data", "data", "--out", "garbage"]) == 0
    assert (tmp_path / "garbage" / "xi_000.laf").read_bytes() == (
        tmp_path / "fresh" / "xi_000.laf"
    ).read_bytes()
    assert list((tmp_path / "cache").iterdir()) == [garbage]
    assert garbage.read_bytes() == b"not a table"


def test_cli_unconverged_forward_writes_nothing(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    data = tiny_config_dict(forward={"tol": 1e-13, "max_iter": 2})
    # N = 32 so the coarse lattice resolves the bumps and GMRES needs > 2 applications
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
    assert manifest["forward_iterations"]["000"] > 2


def test_cli_non_finite_forward_residual_writes_nothing(tmp_path, monkeypatch, capsys):
    """A phantom amplitude of 1e300 overflows the Arnoldi step, and sources of
    amplitude 1.7e308 the incident field: each is a numerical failure that names the
    non-finite residual, not a traceback, and no data is written."""
    monkeypatch.chdir(tmp_path)
    phantom = {"amplitude": 1.0e300,
               "bumps": [{"center": [0.0, 0.0, 0.5], "radius": 2.0, "weight": 1.0}]}
    cfg = write_config(tmp_path, phantom=phantom)
    assert main(["synthesize", "--config", str(cfg), "--out", "d"]) == 3
    assert "GMRES residual is not finite" in capsys.readouterr().err
    assert not (tmp_path / "d").exists()
    # sources whose incident field overflows at the bump's node: not all-zero data
    sources = {"points": [{"position": [0.01, 0.0, 0.5], "amplitude": 1.7e308},
                          {"position": [-0.01, 0.0, 0.5], "amplitude": -1.7e308}]}
    cfg = write_config(tmp_path, phantom=dict(phantom, amplitude=0.3), sources=sources)
    assert main(["synthesize", "--config", str(cfg), "--out", "d"]) == 3
    assert "GMRES residual is not finite" in capsys.readouterr().err
    assert not (tmp_path / "d").exists()


def test_cli_failed_mode_solve_writes_nothing(tmp_path, monkeypatch, capsys):
    """A per-mode solve that raises LinAlgError is a numerical failure: invert
    and bench exit 3, name omega and the classes, and make no output directory."""
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path)
    assert main(["synthesize", "--config", str(cfg), "--out", "data"]) == 0

    def failing(mats, rhs, reg):
        raise np.linalg.LinAlgError("injected")

    monkeypatch.setattr(inverse, "solve_mode_block", failing)
    assert main(["invert", "--config", str(cfg), "--data", "data", "--out", "r"]) == 3
    assert "omega = 2.0 for classes 0-" in capsys.readouterr().err
    bench = write_config(tmp_path, name="bench.yaml", bench={"n_values": [4, 8]})
    assert main(["bench", "--config", str(bench), "--out", "b"]) == 3
    assert not (tmp_path / "r").exists() and not (tmp_path / "b").exists()


def test_benchmark_reads_kernel_columns_from_cache(tmp_path):
    """The benchmark's kernel checks read per-mode columns from the cache files."""
    path = ROOT / "flbench" / "reference.py"
    spec = importlib.util.spec_from_file_location("flbench_reference", path)
    reference = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(reference)
    data = tiny_config_dict()
    grid_x, grid_y = fl.make_grids(config_from_dict(data).grid)
    lattice = fl.ModeLattice.for_grid(grid_x)
    for recv in (grid_x, grid_y):
        pipeline.get_kernel(grid_x, recv, 2.0, lattice, tmp_path)
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


def test_get_kernel_rejects_a_foreign_lattice_cold_and_warm(tmp_path):
    """The lattice folds the table's modes onto its classes, so the build refuses a
    lattice made for other grids, alone and through get_kernel, both with an empty
    cache directory (no file is written) and after this grid's table has been written."""
    grid_x, grid_y = fl.make_grids(fl.GridConfig(y_bounds=(-6.0, 6.0), n_transverse=16,
                                                 scatterer_nz=7, receiver_nz=5))
    square_x, _ = fl.make_grids(fl.GridConfig(n_transverse=16, scatterer_nz=7, receiver_nz=5))
    lattice, square = fl.ModeLattice.for_grid(grid_x), fl.ModeLattice.for_grid(square_x)
    assert (lattice.symmetry_classes()[0].size, square.symmetry_classes()[0].size) == (81, 45)
    with pytest.raises(ValueError, match="mode lattice"):
        fl.build_green_kernel(grid_x, grid_y, 2.0, square)
    with pytest.raises(ValueError, match="mode lattice"):
        pipeline.get_kernel(grid_x, grid_y, 2.0, square, tmp_path)
    assert not list(tmp_path.iterdir())
    pipeline.get_kernel(grid_x, grid_y, 2.0, lattice, tmp_path)
    assert len(list(tmp_path.glob("*.npz"))) == 1
    with pytest.raises(ValueError, match="mode lattice"):
        pipeline.get_kernel(grid_x, grid_y, 2.0, square, tmp_path)


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
        start = len(tracer.spans)
        assert main(["synthesize", "--config", traced, "--out", "data"]) == 0
        synthesize = [s["name"] for s in tracer.spans[start:]]
        assert main(["invert", "--config", traced, "--data", "data", "--out", "recon"]) == 0
    finally:
        tracer.restore()
    # synthesize builds the receiver table's columns on xi's support and loads none:
    # its operator on NODE_BUMP's 3 nodes is the dense matrix, with no scatterer table
    assert "pipeline.get_kernel" not in synthesize
    assert synthesize.count("medium.build_green_kernel") == 1
    metrics = spans.layer_metrics(tracer.spans, "tsvd")
    # the set-up's 2 builds, synthesize's 1 and invert's 2; no stage loads a table
    assert metrics["pipeline.cache_misses"] == 5 and metrics["pipeline.cache_hits"] == 0
    # forward.born_iterations counts GMRES's operator applications: at most |S| = 3
    assert 1 < metrics["forward.born_iterations"] <= 3
    assert metrics["medium.incident_s"] > 0 and metrics["spectral.fft_s"] > 0
    assert metrics["inverse.failed_modes"] == 0
    assert all(np.isfinite(value) for value in metrics.values())

    solve = child("solve", cfg, "data", "0,17")
    (probe,) = solve["solves"]
    assert probe["omega"] == 2.0 and probe["method"] == "tsvd"
    assert np.all(np.isfinite(probe["x"])) and len(probe["ranks"]) == 2


def test_readme_library_snippet_runs():
    """The README's Library example runs as printed."""
    readme = (ROOT / "README.md").read_text()
    snippet = readme.split("## Library", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(compile(snippet, "<README.md Library>", "exec"), namespace)
    assert namespace["fwd"].iterations >= 1
    assert namespace["operator"].form == "dense"
    assert namespace["ext"].xi.shape == namespace["grid_x"].shape
    assert np.isfinite(namespace["curve"].mean)
