"""Acceptance suite: the ten gate criteria at desk scale (N=64, M=M1=31).

Each test prints one [PASS]/[FAIL] line (visible with pytest -s) and
enforces the stated runtime budget where one applies.
"""

import contextlib
import time
from dataclasses import replace

import numpy as np
import pytest
import yaml

import flatlayer as fl
from conftest import (
    dense_operator,
    forward_everywhere,
    full_slab_interaction,
    mode_frequencies,
    mode_magnitude,
    reconstruct,
)
from flatlayer.cli import main as cli_main
from flatlayer.manifest import read_manifest
from flatlayer.medium import green_spectra
from flatlayer.pipeline import run_bench
from flatlayer.regularizers import solve_mode_block
from flatlayer.runconfig import RunConfig

NOISE_SEED = 20260810


@contextlib.contextmanager
def criterion(num, title, budget=None):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"\n[FAIL] criterion {num}: {title}")
        raise
    dt = time.perf_counter() - t0
    budget_note = f", {dt:.1f}s < {budget:.0f}s" if budget else f", {dt:.1f}s"
    print(f"\n[PASS] criterion {num}: {title}{budget_note}")
    if budget is not None:
        assert dt < budget


@pytest.fixture(scope="module")
def recon_exact(desk):
    ext, curve, stats = reconstruct(desk, desk["w_field"])
    locs = fl.localization_report(ext.xi, desk["phantom"], desk["grid_x"])
    return ext, curve, locs, stats


@pytest.fixture(scope="module")
def multi_frequency(desk):
    """Per-frequency reconstructions at k0 = 1, 2, 3 plus the joint extraction."""
    gx, gy = desk["grid_x"], desk["grid_y"]
    lat, sources = desk["lattice"], desk["sources"]
    xi_exact = desk["xi_exact"]
    reg = fl.RegularizerConfig()
    curves, vs, us, iteration_counts = {}, [], [], {}
    for omega in (1.0, 2.0, 3.0):
        if omega == desk["omega"]:
            kxx, kxy = desk["kernel_xx"], desk["kernel_xy"]
            u0, fwd = desk["u0"], desk["forward"]
            w_field = desk["w_field"]
        else:
            kxx = fl.build_green_kernel(gx, gx, omega, lat)
            kxy = fl.build_green_kernel(gx, gy, omega, lat)
            u0 = fl.SpectralField(gx, fl.incident_field_spectral(sources, gx, omega))
            fwd, _, _, w_field = forward_everywhere(xi_exact, sources, u0, kxx, kxy, gy)
        iteration_counts[omega] = fwd.iterations
        v_spec, _ = fl.solve_modes(fl.forward_xy(w_field), kxy, omega, reg, gx)
        u_spec = fl.recompute_internal_field(v_spec, u0, kxx)
        v_f, u_f = fl.inverse_xy(v_spec), fl.inverse_xy(u_spec)
        ext = fl.extract_xi_lsq(fl.XiSums.of([v_f], [u_f]))
        curves[omega] = fl.slice_relative_error(ext.xi, xi_exact, gx)
        vs.append(v_f)
        us.append(u_f)
    ext_ls = fl.extract_xi_lsq(fl.XiSums.of(vs, us))
    curve_ls = fl.slice_relative_error(ext_ls.xi, xi_exact, gx)
    return curves, curve_ls, iteration_counts


def test_criterion_1_transform_oracle(tiny_grids):
    with criterion(1, "forward transform vs naive DFT oracle", budget=5.0):
        cfg = fl.GridConfig(n_transverse=32, scatterer_nz=3, receiver_nz=2)
        gx, _ = fl.make_grids(cfg)
        lat = fl.ModeLattice.for_grid(gx)
        x, y = gx.x_coords(), gx.y_coords()
        rng = np.random.default_rng(100)
        for _ in range(3):
            values = rng.standard_normal(gx.shape) + 1j * rng.standard_normal(gx.shape)
            field = fl.ComplexField(gx, values)
            spec = fl.forward_xy(field)
            slab = values[:, :, 0]
            oracle = np.empty(lat.n_modes, dtype=complex)
            o1, o2 = mode_frequencies(lat)
            for m in range(lat.n_modes):  # direct quadrature, mode by mode
                px = np.exp(1j * o1[m] * x)
                py = np.exp(1j * o2[m] * y)
                oracle[m] = gx.hx * gx.hy * (px @ slab @ py)
            err = np.max(np.abs(spec.values[:, 0] - oracle)) / np.max(np.abs(oracle))
            assert err < 1e-11
            back = fl.inverse_xy(spec)
            rt = np.max(np.abs(back.values - values)) / np.max(np.abs(values))
            assert rt < 1e-12


def test_criterion_2_green_kernel_oracle(desk):
    with criterion(2, "kernel spectra vs refined-quadrature oracle", budget=60.0):
        gx = desk["grid_x"]
        lat = desk["lattice"]
        omega = 2.0
        prop = np.nonzero(mode_magnitude(lat) < omega)[0]

        def refined(dz, refine=4):
            n = gx.nx * refine
            h = gx.hx / refine
            r1d = gx.x_min + h * np.arange(n)
            r = np.sqrt(r1d[:, None] ** 2 + r1d[None, :] ** 2 + dz * dz)
            g = -np.exp(1j * omega * r) / (4 * np.pi * r)
            out = np.empty(prop.size, dtype=complex)
            o1, o2 = mode_frequencies(lat)
            for j, m in enumerate(prop):
                px = np.exp(1j * o1[m] * r1d)
                py = np.exp(1j * o2[m] * r1d)
                out[j] = h * h * (px @ g @ py)
            return out

        # the shipped table rows are exactly the production spectrum path
        d0 = float(desk["kernel_xy"].offsets[0])
        rep, _ = lat.symmetry_classes()  # one column per class representative
        direct = green_spectra(gx, np.array([d0]), omega, rep)
        assert np.array_equal(direct, desk["kernel_xy"].values[:1])

        # offsets spanning the scatterer-to-scatterer and data ranges
        worst = {}
        for dz in (0.25, 0.5, 1.5, 2.0, 4.51, 5.755, 7.0):
            built = green_spectra(gx, np.array([dz]), omega, prop)[0]
            oracle = refined(dz)
            worst[dz] = float(np.max(np.abs(built - oracle) / np.abs(oracle)))
            assert worst[dz] < 0.02, f"offset {dz}: {worst[dz]:.4f}"

        # documented degradation: sub-cell offsets (and evanescent modes)
        # are not certified by this oracle; the 1/rho peak is unresolved there
        dz_small = float(gx.z_nodes[1] - gx.z_nodes[0])
        built = green_spectra(gx, np.array([dz_small]), omega, prop)[0]
        oracle_small = refined(dz_small)
        small_err = float(np.max(np.abs(built - oracle_small) / np.abs(oracle_small)))
        print(
            f"\n  propagating-mode max rel err by offset: "
            f"{ {k: round(v, 4) for k, v in worst.items()} }\n"
            f"  (documented, not asserted) sub-cell offset {dz_small}: {small_err:.3f}"
        )


def test_criterion_3_regularizer_oracles():
    with criterion(3, "TSVD pseudo-inverse equivalence and Tikhonov residual", budget=10.0):
        rng = np.random.default_rng(200)
        for _ in range(100):
            rows = int(rng.integers(2, 13))
            cols = int(rng.integers(2, 13))
            a = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
            b = rng.standard_normal(rows) + 1j * rng.standard_normal(rows)
            tsvd = fl.RegularizerConfig(method="tsvd", tsvd_rel_threshold=1e-15)
            x_tsvd = solve_mode_block(a[None], b[None, :, None], tsvd)[0][..., 0]
            oracle = np.linalg.pinv(a) @ b
            scale = max(np.linalg.norm(oracle), 1.0)
            assert np.linalg.norm(x_tsvd[0] - oracle) / scale < 1e-10
            alpha = 10.0 ** rng.uniform(-6, 0)
            tikhonov = fl.RegularizerConfig(method="tikhonov", tikhonov_alpha=alpha)
            x = solve_mode_block(a[None], b[None, :, None], tikhonov)[0][0, :, 0]
            residual = a.conj().T @ (a @ x - b) + alpha * x
            assert np.linalg.norm(residual) / max(np.linalg.norm(a.conj().T @ b), 1e-30) < 1e-12


def test_criterion_4_forward_solver(desk, multi_frequency):
    with criterion(4, "forward solver: empty support, omega ordering, fixed point", budget=300.0):
        gx, omega = desk["grid_x"], desk["omega"]
        u0 = desk["u0"].values
        # xi = 0 has no support: u = u0 there, with no operator application
        empty = dense_operator(gx, omega, np.zeros(gx.shape))
        res0 = fl.born_iterate(
            fl.incident_field_nodes(desk["sources"], gx, omega, empty.support), empty)
        assert res0.iterations == 0 and res0.u_values.size == 0

        _, _, iterations = multi_frequency
        assert iterations[1.0] < iterations[2.0] < iterations[3.0], iterations

        u_values = desk["u_values"]
        v = full_slab_interaction(gx, u_values, desk["xi_exact"])
        rhs = u0 + desk["kernel_xx"].apply(v)
        residual = np.linalg.norm(rhs - u_values)
        assert residual <= 10 * 1e-13 * np.linalg.norm(u0)
        print(f"\n  iterations: {iterations}, fixed-point residual "
              f"{residual / np.linalg.norm(u0):.2e} of ||U0||")


def test_criterion_5_end_to_end_thick_layer(desk, recon_exact):
    with criterion(5, "end-to-end reconstruction, exact data, thick layer", budget=600.0):
        _, curve, locs, _ = recon_exact
        offsets = [loc.offset for loc in locs]
        assert all(off <= 0.5 for off in offsets), offsets
        assert curve.mean < 1.0
        print(f"\n  bump offsets {[round(o, 3) for o in offsets]}, "
              f"mean Delta_L2 {curve.mean:.4f}")


def test_criterion_6_noise_ordering(desk, recon_exact):
    with criterion(6, "error ordering over noise levels 0, 1e-7, 1e-5"):
        _, curve_exact, _, _ = recon_exact
        means = {0.0: curve_exact.mean}
        for delta in (1e-7, 1e-5):
            noisy = fl.add_noise(desk["w_field"], delta, NOISE_SEED)
            _, curve, _ = reconstruct(desk, noisy)
            means[delta] = curve.mean
        assert means[0.0] <= means[1e-7] <= means[1e-5], means
        print(f"\n  mean Delta_L2: { {k: round(v, 4) for k, v in means.items()} }")


def test_criterion_7_thin_layer(desk, recon_exact):
    with criterion(7, "thin receiver layer: larger error, localization intact"):
        cfg = replace(desk["config"], receiver_z=(6.01, 6.02), receiver_nz=2)
        gx, gy = fl.make_grids(cfg)
        lat, omega, phantom = desk["lattice"], desk["omega"], desk["phantom"]
        xi_exact = desk["xi_exact"]
        kxy = fl.build_green_kernel(gx, gy, omega, lat)
        _, w_field = fl.scattered_data(
            kxy, gy, full_slab_interaction(gx, desk["u_values"], xi_exact)
        )
        v_spec, _ = fl.solve_modes(
            fl.forward_xy(w_field), kxy, omega, fl.RegularizerConfig(), gx
        )
        u_spec = fl.recompute_internal_field(v_spec, desk["u0"], desk["kernel_xx"])
        ext = fl.extract_xi_lsq(fl.XiSums.of([fl.inverse_xy(v_spec)], [fl.inverse_xy(u_spec)]))
        curve_thin = fl.slice_relative_error(ext.xi, xi_exact, gx)
        locs = fl.localization_report(ext.xi, phantom, gx)

        _, curve_thick, _, _ = recon_exact
        assert curve_thin.mean > curve_thick.mean
        offsets = [loc.offset for loc in locs]
        assert all(off <= 0.5 for off in offsets), offsets
        print(f"\n  thin mean {curve_thin.mean:.4f} > thick mean {curve_thick.mean:.4f}; "
              f"offsets {[round(o, 3) for o in offsets]}")


def test_criterion_8_multi_frequency_envelope(multi_frequency):
    with criterion(8, "joint three-frequency error inside per-frequency envelope"):
        curves, curve_ls, _ = multi_frequency
        per_freq = np.vstack([curves[w].delta for w in (1.0, 2.0, 3.0)])
        lo = per_freq.min(axis=0)
        hi = per_freq.max(axis=0)
        assert np.all(curve_ls.delta >= 0.95 * lo)
        assert np.all(curve_ls.delta <= 1.05 * hi)
        means = {w: round(curves[w].mean, 4) for w in curves}
        print(f"\n  per-frequency means {means}, joint mean {curve_ls.mean:.4f}")


def test_criterion_9_timing_scaling(desk, tmp_path):
    with criterion(9, "inverse-solve time scales like N^2"):
        config = RunConfig(
            grid=fl.GridConfig(n_transverse=32, scatterer_nz=51, receiver_nz=51),
            frequencies=(2.0,),
            sources=desk["sources"],
            phantom=desk["phantom"],
            bench_n=(32, 64, 128),
        )
        out = run_bench(config, tmp_path / "bench")
        fit = read_manifest(out / "manifest.json")["fit"]
        assert 1.7 <= fit["exponent"] <= 2.4, fit
        print(f"\n  fitted exponent {fit['exponent']:.3f}, t0 {fit['t0']:.2e}s")


def test_criterion_10_determinism(tmp_path, monkeypatch):
    with criterion(10, "identical config and seed give byte-identical dumps"):
        monkeypatch.chdir(tmp_path)
        data = {
            "grid": {
                "n_transverse": 32, "scatterer_z": [-0.5, 1.5], "scatterer_nz": 11,
                "receiver_z": [6.01, 6.5], "receiver_nz": 5,
            },
            "frequencies": [2.0],
            "sources": {"line_y": {"y_values": [-5, -3, 0, 3, 5]}},
            "phantom": {
                "amplitude": 0.3,
                "bumps": [{"center": [1.0, 2.0, 0.5], "radius": 0.4, "weight": 1.0}],
            },
            "noise": {"delta": 1e-6, "seed": 4242},
        }
        cfg = tmp_path / "run.yaml"
        with open(cfg, "w") as fh:
            yaml.safe_dump(data, fh)
        for tag in ("one", "two"):
            assert cli_main(["synthesize", "--config", str(cfg), "--out", f"data_{tag}"]) == 0
            assert cli_main([
                "invert", "--config", str(cfg),
                "--data", f"data_{tag}", "--out", f"recon_{tag}",
            ]) == 0
        w1 = (tmp_path / "data_one" / "w_000.laf").read_bytes()
        w2 = (tmp_path / "data_two" / "w_000.laf").read_bytes()
        x1 = (tmp_path / "recon_one" / "xi_000.laf").read_bytes()
        x2 = (tmp_path / "recon_two" / "xi_000.laf").read_bytes()
        assert w1 == w2
        assert x1 == x2
