"""Batch pipeline stages: phantom dump, data synthesis, inversion, evaluation,
and timing benchmarks.

Every stage writes its artifacts plus a manifest (JSON, stable key order)
recording the config hash, wall times, diagnostics, and a checksummed file
inventory, so any reconstruction can be traced to the exact inputs that
produced it. Kernel tables are cached on disk keyed by lattice period, z
nodes and frequency; construction dominates setup cost and the tables are
reusable across noise levels, regularizer sweeps and window positions.
Cache files hold every mode's column, tables in memory one per class.
"""

from __future__ import annotations

import csv
import hashlib
import os
import tempfile
import time
import zipfile
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .fieldio import export_slices_csv, read_field, write_field
from .fields import ComplexField, Grid3D, make_grids
from .forward import (ForwardError, ForwardResult, add_noise, born_iterate,
                      interaction_spectral, scattered_data)
from .inverse import (
    ModeSolveStats,
    XiExtraction,
    extract_xi_lsq,
    extract_xi_single,
    recompute_internal_field,
    solve_modes,
)
from .manifest import ManifestBuilder, read_manifest
from .medium import (
    _GATHER_BYTES,
    GreenKernelTable,
    build_green_kernel,
    check_sources,
    incident_field_spectral,
)
from .metrics import TimingRecord, localization_report, slice_relative_error, timing_fit
from .regularizers import RegularizerConfig
from .runconfig import ConfigError, RunConfig
from .spectral import ModeLattice, SpectralField, forward_xy, inverse_xy

# timed passes per N in run_bench, after one untimed warm-up pass
_BENCH_PASSES = 3
# arrays of a cached kernel table, in GreenKernelTable field order
_TABLE_KEYS = ("omega", "row_z", "col_z", "offsets", "offset_index", "values")


def _kernel_cache_path(
    cache_dir: Path, src: Grid3D, recv: Grid3D, omega: float
) -> Path:
    # the table does not depend on where the window sits: key on the centred grids
    src, recv = src.centred(), recv.centred()
    key = f"{src.content_key()}|{recv.content_key()}|omega={omega:.12g}"
    digest = hashlib.sha256(key.encode()).hexdigest()[:24]
    return cache_dir / f"kernel_{digest}.npz"


def _read_columns(member, shape: tuple[int, int], columns: np.ndarray) -> np.ndarray:
    """The given columns of the complex .npy array of this shape in member,
    read a gather budget of rows at a time."""
    header = np.lib.format.read_magic(member), np.lib.format.read_array_header_1_0(member)
    if header != ((1, 0), (shape, False, np.dtype(complex))):
        raise ValueError(f"kernel values are not a complex {shape} array")
    out = np.empty((shape[0], columns.size), dtype=complex)
    step = max(1, _GATHER_BYTES // (shape[1] * out.itemsize))
    for start in range(0, shape[0], step):
        rows = np.frombuffer(member.read(step * shape[1] * out.itemsize), dtype=complex)
        np.take(rows.reshape(-1, shape[1]), columns, axis=1, out=out[start : start + step])
    return out


def _write_columns(member, values: np.ndarray, columns: np.ndarray) -> None:
    """values[:, columns] to member as one .npy array, a gather budget of rows at a time."""
    header = {"descr": np.lib.format.dtype_to_descr(values.dtype), "fortran_order": False,
              "shape": (values.shape[0], columns.size)}
    np.lib.format.write_array_header_1_0(member, header)
    step = max(1, _GATHER_BYTES // (columns.size * values.itemsize))
    for start in range(0, values.shape[0], step):
        member.write(np.take(values[start : start + step], columns, axis=1))


def _load_kernel(
    path: Path, src: Grid3D, recv: Grid3D, omega: float, lattice: ModeLattice
) -> GreenKernelTable | None:
    """The cached table at path, or None if it is missing, unreadable or off-grid.

    Files store every mode's column; the table keeps its class
    representatives' (ModeLattice.symmetry_classes).
    """
    rep, class_of = lattice.symmetry_classes()
    try:
        # np.load leaks the file it opens when the archive is corrupt
        with open(path, "rb") as fh, np.load(fh) as data:
            arrays = {key: data[key] for key in _TABLE_KEYS if key != "values"}
            fits = (
                float(arrays["omega"]) == omega
                and np.array_equal(arrays["row_z"], recv.z_nodes)
                and np.array_equal(arrays["col_z"], src.z_nodes)
                and arrays["offset_index"].shape == (recv.nz, src.nz)
                and np.allclose(arrays["offsets"][arrays["offset_index"]],
                                recv.z_nodes[:, None] - src.z_nodes[None, :], rtol=0, atol=1e-9)
            )
            if not fits:
                return None
            with data.zip.open("values.npy") as member:
                shape = (arrays["offsets"].size, class_of.size)
                arrays["values"] = _read_columns(member, shape, rep)
    except (OSError, ValueError, KeyError, TypeError, IndexError, EOFError,
            zipfile.BadZipFile):
        return None
    arrays["omega"] = float(arrays["omega"])
    return GreenKernelTable(**arrays, class_of=class_of)


def _save_kernel(path: Path, table: GreenKernelTable) -> None:
    """Write table to path as np.savez would, with every mode's column, through a
    unique temporary file."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.stem, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh, zipfile.ZipFile(fh, "w", allowZip64=True) as zf:
            for key in _TABLE_KEYS:
                with zf.open(f"{key}.npy", "w", force_zip64=True) as member:
                    if key == "values":
                        _write_columns(member, table.values, table.class_of)
                    else:
                        np.lib.format.write_array(member, np.asarray(getattr(table, key)))
        os.replace(tmp, path)
    finally:
        Path(tmp).unlink(missing_ok=True)


def get_kernel(
    src: Grid3D,
    recv: Grid3D,
    omega: float,
    lattice: ModeLattice,
    cache_dir: Path | None = None,
) -> GreenKernelTable:
    """Build a kernel table, loading/saving a disk cache when enabled.

    A cache file that cannot be read or does not match the grids counts as
    a miss and is rebuilt over. Each writer saves through its own temporary
    file, so concurrent runs never read a partly written table.
    """
    if cache_dir is None:
        return build_green_kernel(src, recv, omega, lattice)
    path = _kernel_cache_path(cache_dir, src, recv, omega)
    table = _load_kernel(path, src, recv, omega, lattice)
    if table is None:
        table = build_green_kernel(src, recv, omega, lattice)
        _save_kernel(path, table)
    return table


def _cache_dir(config: RunConfig) -> Path | None:
    if not config.output.kernel_cache:
        return None
    return Path(config.output.kernel_cache_dir)


def _write_csv(path: Path, header: list[str], rows) -> Path:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return path


def run_phantom(config: RunConfig, out_dir: str | Path) -> Path:
    """Dump the exact coefficient sampled on the scatterer grid."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    grid_x, _ = make_grids(config.grid)
    xi_field = ComplexField(grid_x, config.phantom.sample_on(grid_x).astype(complex))
    manifest = ManifestBuilder("phantom", config.config_hash())
    t0 = time.perf_counter()
    path = out / "xi_exact.laf"
    write_field(xi_field, path)
    paths = [path, *export_slices_csv(xi_field, out / "slices", "xi_exact")]
    manifest.add_time("sample_and_write", time.perf_counter() - t0)
    for p in paths:
        manifest.add_file(p, out)
    manifest.write(out / "manifest.json")
    return out


FrequencyTables = tuple[GreenKernelTable, GreenKernelTable, SpectralField]


def frequency_tables(
    config: RunConfig,
    omega: float,
    grid_x: Grid3D,
    grid_y: Grid3D,
    lattice: ModeLattice,
    cache: Path | None,
) -> FrequencyTables:
    """Scatterer and receiver kernel tables plus the incident spectrum at omega."""
    kernel_xx = get_kernel(grid_x, grid_x, omega, lattice, cache)
    kernel_xy = get_kernel(grid_x, grid_y, omega, lattice, cache)
    u0 = incident_field_spectral(config.sources, grid_x, omega)
    return kernel_xx, kernel_xy, u0


def forward_frequency(
    config: RunConfig,
    omega: float,
    tables: FrequencyTables,
    grid_y: Grid3D,
    xi: np.ndarray,
    seed: int,
) -> tuple[ForwardResult, ComplexField]:
    """Born solve and (optionally noisy) receiver data for one frequency.

    Raises ForwardError when the iteration stops at max_iter short of its
    tolerance, so no unconverged data is ever returned.
    """
    kernel_xx, kernel_xy, u0 = tables
    fwd = born_iterate(u0, kernel_xx, xi, tol=config.forward.tol, max_iter=config.forward.max_iter)
    if not fwd.converged:
        raise ForwardError(
            f"Born iteration did not converge in {fwd.iterations} iterations "
            f"(omega = {omega}, tol = {config.forward.tol:g})"
        )
    _, w_field = scattered_data(kernel_xy, grid_y, interaction_spectral(fwd.u_spec, xi))
    return fwd, add_noise(w_field, config.delta, seed)


def run_synthesize(config: RunConfig, out_dir: str | Path) -> Path:
    """Forward-solve each frequency and write (optionally noisy) data dumps.

    One W dump per frequency; deterministic given config and seed. Every
    frequency is solved before anything is written, so a Born divergence
    or non-convergence (raised with the offending frequency in its
    message) leaves no data behind.
    """
    out = Path(out_dir)
    grid_x, grid_y = make_grids(config.grid)
    lattice = ModeLattice.for_grid(grid_x)
    xi = config.phantom.sample_on(grid_x)
    cache = _cache_dir(config)

    manifest = ManifestBuilder("synthesize", config.config_hash())
    manifest.set("grid_x", grid_x.content_key())
    manifest.set("grid_y", grid_y.content_key())
    manifest.set("noise", {"delta": config.delta, "seed": config.seed})
    solved = []
    for i, omega in enumerate(config.frequencies):
        t0 = time.perf_counter()
        tables = frequency_tables(config, omega, grid_x, grid_y, lattice, cache)
        manifest.add_time(f"setup_{i:03d}", time.perf_counter() - t0)

        t0 = time.perf_counter()
        solved.append(forward_frequency(config, omega, tables, grid_y, xi, config.seed + i))
        manifest.add_time(f"forward_{i:03d}", time.perf_counter() - t0)

    out.mkdir(parents=True, exist_ok=True)
    iterations, converged, data_files = {}, {}, []
    for i, (omega, (fwd, w_out)) in enumerate(zip(config.frequencies, solved)):
        w_path = out / f"w_{i:03d}.laf"
        write_field(w_out, w_path)
        manifest.add_file(w_path, out)
        manifest.add_file(_write_csv(
            out / f"residuals_{i:03d}.csv",
            ["iteration", "update_norm"],
            [(n + 1, repr(float(r))) for n, r in enumerate(fwd.residual_history)],
        ), out)
        iterations[f"{omega:g}"] = fwd.iterations
        converged[f"{omega:g}"] = fwd.converged
        data_files.append({"index": i, "omega": omega, "file": w_path.name})

    manifest.set("forward_iterations", iterations)
    manifest.set("forward_converged", converged)
    manifest.set("data_files", data_files)
    manifest.write(out / "manifest.json")
    return out


@dataclass(frozen=True)
class FrequencyInversion:
    """Per-frequency reconstruction pieces kept for extraction and diagnostics."""

    omega: float
    v_field: ComplexField
    u_field: ComplexField
    stats: ModeSolveStats


def invert_frequency(
    w_spec: SpectralField,
    omega: float,
    tables: FrequencyTables,
    reg: RegularizerConfig,
    grid_x: Grid3D,
) -> FrequencyInversion:
    """Algorithm core for one frequency: mode solves plus field recomputation."""
    kernel_xx, kernel_xy, u0 = tables
    v_spec, stats = solve_modes(w_spec, kernel_xy, omega, reg, grid_x)
    u_spec = recompute_internal_field(v_spec, u0, kernel_xx)
    return FrequencyInversion(
        omega=omega,
        v_field=inverse_xy(v_spec),
        u_field=inverse_xy(u_spec),
        stats=stats,
    )


def _xi_artifact(out: Path, name: str, ext: XiExtraction, grid: Grid3D) -> list[Path]:
    """Write one xi dump plus its slice CSVs; the paths written."""
    field = ComplexField(grid, ext.xi.astype(complex))
    path = out / f"{name}.laf"
    write_field(field, path)
    return [path, *export_slices_csv(field, out / f"slices_{name}", name)]


def run_invert(config: RunConfig, data_dir: str | Path, out_dir: str | Path) -> Path:
    """Reconstruct the coefficient from a synthesize stage's artifacts.

    Consumes the data manifest plus W dumps, checks grid compatibility
    before any compute, and writes xi dumps (per frequency, plus the
    least-squares combination when configured), slice CSVs, diagnostics,
    and a manifest.
    """
    data_dir = Path(data_dir)
    out = Path(out_dir)
    data_manifest = read_manifest(
        data_dir / "manifest.json", "data_files", index=int, omega=float, file=str
    )
    grid_x, grid_y = make_grids(config.grid)
    if data_manifest.get("grid_x") != grid_x.content_key() or data_manifest.get(
        "grid_y"
    ) != grid_y.content_key():
        raise ConfigError(
            "data artifacts were produced on different grids than this config"
        )
    entries = data_manifest["data_files"]
    omegas = [e["omega"] for e in entries]
    if sorted(omegas) != sorted(config.frequencies):
        raise ConfigError(
            f"data frequencies {omegas} do not match config {list(config.frequencies)}"
        )

    lattice = ModeLattice.for_grid(grid_x)
    cache = _cache_dir(config)
    manifest = ManifestBuilder("invert", config.config_hash())
    manifest.set("data_manifest_config_hash", data_manifest.get("config_hash"))
    manifest.set("grid_x", grid_x.content_key())

    inversions: list[FrequencyInversion] = []
    for entry in entries:
        w_field = read_field(data_dir / entry["file"])
        if w_field.grid.content_key() != grid_y.content_key():
            raise ConfigError(
                f"data dump {entry['file']} lies on {w_field.grid.content_key()}, "
                f"config expects {grid_y.content_key()}"
            )
        t0 = time.perf_counter()
        omega = entry["omega"]
        tables = frequency_tables(config, omega, grid_x, grid_y, lattice, cache)
        inversions.append(
            invert_frequency(forward_xy(w_field), omega, tables, config.regularizer, grid_x)
        )
        manifest.add_time(f"invert_{entry['index']:03d}", time.perf_counter() - t0)

    # every dump is read and inverted before the output directory is made,
    # so a stage that fails on its inputs leaves no directory behind
    out.mkdir(parents=True, exist_ok=True)
    diag_rows = []
    rank_stats = {}
    names = []
    for i, inv in enumerate(inversions):
        ext = extract_xi_single(inv.v_field, inv.u_field, config.extraction.eps_div)
        name = f"xi_{i:03d}"
        names.append(name)
        written = _xi_artifact(out, name, ext, grid_x)
        written.append(_write_csv(
            out / f"rank_hist_{i:03d}.csv",
            ["rank", "modes"],
            sorted(inv.stats.rank_histogram().items()),
        ))
        for p in written:
            manifest.add_file(p, out)
        diag_rows.append(
            (
                name,
                repr(inv.omega),
                repr(ext.imag_norm),
                repr(ext.masked_fraction),
                inv.stats.failed_modes,
            )
        )
        rank_stats[f"{inv.omega:g}"] = {
            "min": int(inv.stats.ranks.min()),
            "median": float(np.median(inv.stats.ranks)),
            "max": int(inv.stats.ranks.max()),
            "failed": inv.stats.failed_modes,
            "uncertified_classes": inv.stats.uncertified_classes,
        }

    if config.extraction.combine == "least_squares":
        ext = extract_xi_lsq(
            [inv.v_field for inv in inversions],
            [inv.u_field for inv in inversions],
            config.extraction.eps_div,
        )
        for p in _xi_artifact(out, "xi_combined", ext, grid_x):
            manifest.add_file(p, out)
        names.append("xi_combined")
        diag_rows.append(
            ("xi_combined", "all", repr(ext.imag_norm), repr(ext.masked_fraction), 0)
        )

    manifest.add_file(_write_csv(
        out / "diagnostics.csv",
        ["artifact", "omega", "imag_norm", "masked_fraction", "failed_modes"],
        diag_rows,
    ), out)
    manifest.set("rank_stats", rank_stats)
    manifest.set("artifacts", [{"name": name, "file": f"{name}.laf"} for name in names])
    manifest.write(out / "manifest.json")
    return out


def run_evaluate(config: RunConfig, recon_dir: str | Path, out_dir: str | Path) -> Path:
    """Accuracy curves and localization tables for every xi artifact."""
    recon_dir = Path(recon_dir)
    out = Path(out_dir)
    recon_manifest = read_manifest(recon_dir / "manifest.json", "artifacts", name=str, file=str)
    grid_x, _ = make_grids(config.grid)
    xi_exact = config.phantom.sample_on(grid_x)
    artifacts = []
    for entry in recon_manifest["artifacts"]:
        xi_field = read_field(recon_dir / entry["file"])
        if xi_field.grid.shape != grid_x.shape:
            raise ConfigError(f"artifact {entry['name']} grid does not match config")
        artifacts.append((entry["name"], xi_field.values.real))

    # made only once every listed dump has been read
    out.mkdir(parents=True, exist_ok=True)
    manifest = ManifestBuilder("evaluate", config.config_hash())
    summary = {}
    for name, xi in artifacts:
        curve = slice_relative_error(xi, xi_exact, grid_x)
        manifest.add_file(_write_csv(
            out / f"accuracy_{name}.csv",
            ["z", "delta_l2"],
            [(repr(float(z)), repr(float(d))) for z, d in zip(curve.z, curve.delta)],
        ), out)
        locs = localization_report(xi, config.phantom, grid_x)
        manifest.add_file(_write_csv(
            out / f"localization_{name}.csv",
            ["true_x", "true_y", "true_z", "found_x", "found_y", "found_z", "offset", "peak"],
            [
                tuple(map(repr, L.true_center + L.found_center + (L.offset, L.peak_value)))
                for L in locs
            ],
        ), out)
        summary[name] = {
            "mean_delta_l2": curve.mean,
            "max_offset": max(L.offset for L in locs),
        }
    manifest.set("summary", summary)
    manifest.write(out / "manifest.json")
    return out


def run_bench(config: RunConfig, n_values: list[int] | None, out_dir: str | Path) -> Path:
    """Time the inverse solve over a sweep of transverse sizes N.

    Each N gets one untimed warm-up pass, so first-call costs do not weigh
    on the short runs, and records the fastest of _BENCH_PASSES timed
    passes. Writes the timing table and the fitted power law t = t0 * N^p.
    """
    n_list = list(n_values) if n_values is not None else list(config.bench_n)
    if not n_list:
        raise ConfigError("bench needs a nonempty list of N values")
    # every N is checked before any is swept: its grids by Grid3D's rules, its sources
    try:
        grids = [make_grids(replace(config.grid, n_transverse=n)) for n in n_list]
        for grid_x, _ in grids:
            check_sources(config.sources, grid_x)
    except ValueError as exc:
        raise ConfigError(f"bench: {exc}") from exc

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest = ManifestBuilder("bench", config.config_hash())
    records = []
    cache = _cache_dir(config)
    for n, (grid_x, grid_y) in zip(n_list, grids):
        # the sweep times the inversion only: no bump is localized on these grids
        lattice = ModeLattice.for_grid(grid_x)
        xi = config.phantom.sample_on(grid_x)
        prepared = []
        for omega in config.frequencies:
            tables = frequency_tables(config, omega, grid_x, grid_y, lattice, cache)
            _, w_field = forward_frequency(config, omega, tables, grid_y, xi, config.seed)
            prepared.append((omega, tables, forward_xy(w_field)))

        # timed: mode solves, recomputation and extraction on prebuilt tables,
        # after one untimed warm-up pass, as the fastest of _BENCH_PASSES passes
        seconds = []
        for _ in range(1 + _BENCH_PASSES):
            t0 = time.perf_counter()
            invs = [
                invert_frequency(w_spec, omega, tables, config.regularizer, grid_x)
                for omega, tables, w_spec in prepared
            ]
            extract_xi_lsq(
                [inv.v_field for inv in invs],
                [inv.u_field for inv in invs],
                config.extraction.eps_div,
            )
            seconds.append(time.perf_counter() - t0)
        records.append(
            TimingRecord(
                n=n, m=config.grid.scatterer_nz, m1=config.grid.receiver_nz,
                seconds=min(seconds[1:]),
            )
        )

    manifest.add_file(_write_csv(
        out / "timing.csv",
        ["n", "m", "m1", "seconds"],
        [(r.n, r.m, r.m1, repr(r.seconds)) for r in records],
    ), out)
    if len(records) >= 2:
        t0_fit, p = timing_fit(records)
        manifest.set("fit", {"t0": t0_fit, "exponent": p})
    manifest.write(out / "manifest.json")
    return out
