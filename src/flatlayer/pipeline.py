"""Batch pipeline stages: phantom dump, data synthesis, inversion, evaluation,
and timing benchmarks.

Every stage writes its artifacts plus a manifest (JSON, stable key order)
recording the config hash, wall times, diagnostics, and a checksummed file
inventory, so any reconstruction can be traced to the exact inputs that
produced it. Synthesis works on S, the nodes where xi is nonzero, and L,
the z-slabs that hold them: it solves for the internal field at S by GMRES,
with the dense S x S kernel or the scatterer table's L rows and columns, and
applies the receiver table's L columns. Inversion and the timing sweep
build the full tables in memory, one per class; no stage reads or writes a
kernel cache. Inversion takes one frequency at a time and, within it, one
table at a time (invert_frequency), folding each frequency into the
extraction's running sums, so that its memory does not grow with the
frequencies.
"""

from __future__ import annotations

import csv
import hashlib
import os
import tempfile
import time
import zipfile
from collections.abc import Iterator
from dataclasses import replace
from pathlib import Path

import numpy as np

from .fieldio import export_slices_csv, read_field, write_field
from .fields import ComplexField, Grid3D, make_grids
from .forward import (
    ForwardResult,
    SupportOperator,
    add_noise,
    born_iterate,
    dense_fits,
    scattered_data,
    support_interaction,
)
from .inverse import (
    ModeSolveStats,
    XiSums,
    extract_xi_lsq,
    recompute_internal_field,
    solve_modes,
)
from .manifest import ManifestBuilder, read_manifest
from .medium import (
    _GATHER_BYTES,
    GreenKernelTable,
    Support,
    build_green_kernel,
    check_sources,
    incident_field_nodes,
    incident_field_spectral,
    node_kernel,
)
from .metrics import TimingRecord, localization_report, slice_relative_error, timing_fit
from .regularizers import RegularizerConfig
from .runconfig import ConfigError, RunConfig
from .spectral import ModeLattice, SpectralField, forward_xy, inverse_xy

# flbench/spans.py still wraps this old name of the one-frequency extraction;
# nothing in src calls it
extract_xi_single = extract_xi_lsq

# run_bench times each N at least this many passes and seconds, after one untimed warm-up pass
_BENCH_PASSES = 3
_BENCH_SECONDS = 0.2
# arrays of a kernel cache file, in GreenKernelTable field order
_TABLE_KEYS = ("omega", "row_z", "col_z", "offsets", "offset_index", "values")


def _kernel_cache_path(
    cache_dir: Path, src: Grid3D, recv: Grid3D, omega: float
) -> Path:
    # the table does not depend on where the window sits: key on the centred grids
    src, recv = src.centred(), recv.centred()
    key = f"{src.content_key()}|{recv.content_key()}|omega={omega:.12g}"
    digest = hashlib.sha256(key.encode()).hexdigest()[:24]
    return cache_dir / f"kernel_{digest}.npz"


def _write_columns(member, values: np.ndarray, columns: np.ndarray) -> None:
    """values[:, columns] to member as one .npy array, a gather budget of rows at a time."""
    header = {"descr": np.lib.format.dtype_to_descr(values.dtype), "fortran_order": False,
              "shape": (values.shape[0], columns.size)}
    np.lib.format.write_array_header_1_0(member, header)
    step = max(1, _GATHER_BYTES // (columns.size * values.itemsize))
    for start in range(0, values.shape[0], step):
        member.write(np.take(values[start : start + step], columns, axis=1))


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
    cache_dir: Path,
) -> GreenKernelTable:
    """Build a kernel table and write it to cache_dir.

    No stage calls this: they build their tables with build_green_kernel.
    It stays, with the writer above, only because the benchmark's set-up
    (flbench/child.py) builds through it and its checks read the files it
    writes; it goes when the benchmark builds its tables through src. Each
    writer saves through its own temporary file, so concurrent runs never
    see a partly written table.
    """
    table = build_green_kernel(src, recv, omega, lattice)
    _save_kernel(_kernel_cache_path(cache_dir, src, recv, omega), table)
    return table


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


def frequency_inputs(
    config: RunConfig,
    omega: float,
    w_path: Path,
    grid_x: Grid3D,
    grid_y: Grid3D,
    lattice: ModeLattice,
) -> Iterator:
    """invert_frequency's inputs at omega, each made when it is taken: W's spectrum from
    the dump at w_path, the receiver table, the scatterer table and U0's spectrum."""
    yield forward_xy(_read_data(w_path, grid_y))
    yield build_green_kernel(grid_x, grid_y, omega, lattice)
    yield build_green_kernel(grid_x, grid_x, omega, lattice)
    yield _incident_spectrum(config, omega, grid_x)


def _read_data(path: Path, grid_y: Grid3D) -> ComplexField:
    w_field = read_field(path)
    if w_field.grid.content_key() != grid_y.content_key():
        raise ConfigError(
            f"data dump {path.name} lies on {w_field.grid.content_key()}, "
            f"config expects {grid_y.content_key()}"
        )
    return w_field


def _incident_spectrum(config: RunConfig, omega: float, grid_x: Grid3D) -> SpectralField:
    return SpectralField(grid_x, incident_field_spectral(config.sources, grid_x, omega))


def support_operator(
    omega: float, grid_x: Grid3D, lattice: ModeLattice, support: Support
) -> SupportOperator:
    """The operator u -> K(xi u) on xi's nonzero nodes S at omega: the dense S x S matrix
    when forward.dense_fits allows it, and the scatterer table's L rows and columns
    otherwise, L being the support's slabs."""
    if dense_fits(support.size, grid_x.nx, support.slabs.size):
        return SupportOperator(omega, support, grid_x, matrix=node_kernel(grid_x, omega, support))
    kernel_ll = build_green_kernel(grid_x, grid_x, omega, lattice,
                                   rows=support.slabs, cols=support.slabs)
    return SupportOperator(omega, support, grid_x, kernel_ll=kernel_ll)


def support_inputs(
    config: RunConfig,
    omega: float,
    grid_x: Grid3D,
    grid_y: Grid3D,
    lattice: ModeLattice,
    support: Support,
) -> Iterator:
    """forward_frequency's inputs at omega, each made when it is taken: support_operator,
    u0 at S and K_yL (every receiver row's L columns)."""
    yield support_operator(omega, grid_x, lattice, support)
    yield incident_field_nodes(config.sources, grid_x, omega, support)
    yield build_green_kernel(grid_x, grid_y, omega, lattice, cols=support.slabs)


def forward_frequency(
    config: RunConfig, inputs: Iterator, grid_y: Grid3D, index: int
) -> tuple[str, ForwardResult, ComplexField]:
    """The operator's form, the forward solve on xi's support and the (optionally noisy)
    receiver data at the frequency of that index, from support_inputs, with noise drawn
    from seed config.seed + index. The operator is dropped before K_yL is taken."""
    operator, u0 = next(inputs), next(inputs)
    fwd = born_iterate(u0, operator, tol=config.forward.tol, max_iter=config.forward.max_iter)
    v = support_interaction(fwd.u_values, operator.support, operator.grid)
    form = operator.form
    del operator, u0
    _, w_field = scattered_data(next(inputs), grid_y, v)
    del v
    return form, fwd, add_noise(w_field, config.delta, config.seed + index)


def run_synthesize(config: RunConfig, out_dir: str | Path) -> Path:
    """Forward-solve each frequency on xi's support and write (optionally noisy)
    data dumps.

    One W dump per frequency; deterministic given config and seed. Every
    frequency is solved before anything is written, so a forward solve that
    ends short of its tolerance (raised with the offending frequency in its
    message) leaves no data behind.
    """
    out = Path(out_dir)
    grid_x, grid_y = make_grids(config.grid)
    lattice = ModeLattice.for_grid(grid_x)
    support = Support.of(config.phantom.sample_on(grid_x))

    manifest = ManifestBuilder("synthesize", config.config_hash())
    manifest.set("grid_x", grid_x.content_key())
    manifest.set("grid_y", grid_y.content_key())
    manifest.set("noise", {"delta": config.delta, "seed": config.seed})
    z = grid_x.z_nodes[support.slabs]
    manifest.set("forward_support", {"nodes": support.size, "slabs": int(support.slabs.size),
                                     "of": grid_x.nz,
                                     "z": [float(z[0]), float(z[-1])] if z.size else None})
    solved = []
    for i, omega in enumerate(config.frequencies):
        t0 = time.perf_counter()
        inputs = support_inputs(config, omega, grid_x, grid_y, lattice, support)
        solved.append(forward_frequency(config, inputs, grid_y, i))
        manifest.add_time(f"forward_{i:03d}", time.perf_counter() - t0)

    out.mkdir(parents=True, exist_ok=True)
    forms, iterations, data_files = {}, {}, []
    for i, (omega, (form, fwd, w_out)) in enumerate(zip(config.frequencies, solved)):
        w_path = out / f"w_{i:03d}.laf"
        write_field(w_out, w_path)
        manifest.add_file(w_path, out)
        manifest.add_file(_write_csv(
            out / f"residuals_{i:03d}.csv",
            ["application", "residual_norm"],
            [(n + 1, repr(float(r))) for n, r in enumerate(fwd.residual_history)],
        ), out)
        forms[f"{i:03d}"] = form
        iterations[f"{i:03d}"] = fwd.iterations
        data_files.append({"index": i, "omega": omega, "file": w_path.name})

    manifest.set("forward_operator", forms)
    manifest.set("forward_iterations", iterations)
    manifest.set("data_files", data_files)
    manifest.write(out / "manifest.json")
    return out


def invert_frequency(
    inputs: Iterator, omega: float, reg: RegularizerConfig, grid_x: Grid3D, sums: XiSums
) -> ModeSolveStats:
    """Algorithm core for one frequency: the mode solves, the field recomputation and
    the transforms back to real space, whose V and u are added to sums.

    inputs yields W's spectrum, the receiver table, the scatterer table and U0's
    spectrum, in that order (frequency_inputs). Each is taken when its step begins and
    dropped when the step ends, so that one table is alive at a time.
    """
    w_spec, kernel_xy = next(inputs), next(inputs)
    v_spec, stats = solve_modes(w_spec, kernel_xy, omega, reg, grid_x)
    del w_spec, kernel_xy
    kernel_xx, u0 = next(inputs), next(inputs)
    u_spec = recompute_internal_field(v_spec, u0, kernel_xx)
    del kernel_xx, u0
    v_field = inverse_xy(v_spec)
    del v_spec
    u_field = inverse_xy(u_spec)
    del u_spec
    sums.add(v_field, u_field)
    return stats


def run_invert(config: RunConfig, data_dir: str | Path, out_dir: str | Path) -> Path:
    """Reconstruct the coefficient from a synthesize stage's artifacts.

    Consumes the data manifest plus W dumps, checks grid compatibility
    before any compute, and writes xi dumps (one per frequency, or the
    least-squares combination alone when configured), slice CSVs, the
    retained-rank histogram of every frequency, diagnostics, and a manifest.
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
    manifest = ManifestBuilder("invert", config.config_hash())
    manifest.set("data_manifest_config_hash", data_manifest.get("config_hash"))
    manifest.set("grid_x", grid_x.content_key())

    # one artifact xi_<tag> per group of frequency indices: each index alone, tagged by
    # it, or all of them as the least-squares combination; each group extracts over its
    # own running sums and writes its frequencies' ranks
    if config.extraction.combine == "least_squares":
        groups = [("combined", "all", range(len(entries)))]
    else:
        groups = [(f"{i:03d}", repr(e["omega"]), [i]) for i, e in enumerate(entries)]
    artifacts = []
    for tag, omega_label, indices in groups:
        sums, ranked = XiSums(grid_x.shape), []
        for i in indices:
            t0 = time.perf_counter()
            omega = entries[i]["omega"]
            inputs = frequency_inputs(config, omega, data_dir / entries[i]["file"], grid_x,
                                      grid_y, lattice)
            ranked.append((f"{i:03d}", invert_frequency(inputs, omega, config.regularizer,
                                                        grid_x, sums)))
            manifest.add_time(f"invert_{entries[i]['index']:03d}", time.perf_counter() - t0)
        artifacts.append((tag, omega_label, ranked,
                          extract_xi_lsq(sums, config.extraction.eps_div)))
        del sums

    # every dump is read and inverted before the output directory is made,
    # so a stage that fails on its inputs leaves no directory behind
    out.mkdir(parents=True, exist_ok=True)
    diag_rows = []
    rank_stats = {}
    for tag, omega, ranked, ext in artifacts:
        field = ComplexField(grid_x, ext.xi.astype(complex))
        written = [out / f"xi_{tag}.laf"]
        write_field(field, written[0])
        written += export_slices_csv(field, out / f"slices_xi_{tag}", f"xi_{tag}")
        for rank_tag, stats in ranked:
            written.append(_write_csv(
                out / f"rank_hist_{rank_tag}.csv",
                ["rank", "modes"],
                sorted(stats.rank_histogram().items()),
            ))
            rank_stats[rank_tag] = {
                "min": int(stats.ranks.min()),
                "median": float(np.median(stats.ranks)),
                "max": int(stats.ranks.max()),
                "uncertified_classes": stats.uncertified_classes,
            }
        for p in written:
            manifest.add_file(p, out)
        diag_rows.append((f"xi_{tag}", omega, repr(ext.imag_norm), repr(ext.masked_fraction)))

    manifest.add_file(_write_csv(
        out / "diagnostics.csv",
        ["artifact", "omega", "imag_norm", "masked_fraction"],
        diag_rows,
    ), out)
    manifest.set("rank_stats", rank_stats)
    manifest.set("artifacts", [{"name": f"xi_{tag}", "file": f"xi_{tag}.laf"}
                               for tag, *_ in artifacts])
    manifest.write(out / "manifest.json")
    return out


def run_evaluate(config: RunConfig, recon_dir: str | Path, out_dir: str | Path) -> Path:
    """Accuracy curves and localization tables for every xi artifact."""
    recon_dir = Path(recon_dir)
    out = Path(out_dir)
    recon_manifest = read_manifest(recon_dir / "manifest.json", "artifacts", name=str, file=str)
    grid_x, _ = make_grids(config.grid)
    xi_exact = config.phantom.sample_on(grid_x)
    # each dump is evaluated while it is read and dropped before the next is read
    evaluated = []
    for entry in recon_manifest["artifacts"]:
        xi_field = read_field(recon_dir / entry["file"])
        if xi_field.grid.content_key() != grid_x.content_key():
            raise ConfigError(f"artifact {entry['name']} grid does not match config")
        xi = xi_field.values.real
        evaluated.append((entry["name"], slice_relative_error(xi, xi_exact, grid_x),
                          localization_report(xi, config.phantom, grid_x)))
        del xi_field, xi

    # made only once every listed dump has been read
    out.mkdir(parents=True, exist_ok=True)
    manifest = ManifestBuilder("evaluate", config.config_hash())
    summary = {}
    for name, curve, locs in evaluated:
        manifest.add_file(_write_csv(
            out / f"accuracy_{name}.csv",
            ["z", "delta_l2"],
            [(repr(float(z)), repr(float(d))) for z, d in zip(curve.z, curve.delta)],
        ), out)
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
            "max_offset": max((L.offset for L in locs), default=None),
        }
    manifest.set("summary", summary)
    manifest.write(out / "manifest.json")
    return out


def run_bench(config: RunConfig, out_dir: str | Path) -> Path:
    """Time the inverse solve over the transverse sizes N of config.bench_n.

    Every N is prepared first, its tables built in memory, with one untimed
    warm-up pass so that first-call costs do not weigh on the short runs. The
    timed passes then go round-robin over the N values until each has at least
    _BENCH_PASSES passes and _BENCH_SECONDS of them, so that one slow spell of
    the machine cannot cover all passes of a short N; each N records its
    fastest pass.
    Writes the timing table and the fitted power law t = t0 * N^p.
    """
    n_list = list(config.bench_n)
    if not n_list or len(set(n_list)) < len(n_list):
        raise ConfigError(f"bench needs a nonempty list of distinct N values, got {n_list}")
    # every N is checked before any is swept: its grids by Grid3D's rules, its sources
    try:
        grids = [make_grids(replace(config.grid, n_transverse=n)) for n in n_list]
        for grid_x, _ in grids:
            check_sources(config.sources, grid_x)
    except ValueError as exc:
        raise ConfigError(f"bench: {exc}") from exc

    def invert_pass(grid_x: Grid3D, frequencies: list) -> float:
        # invert's per-frequency code and extraction, on prebuilt tables
        t0 = time.perf_counter()
        sums = XiSums(grid_x.shape)
        for omega, inputs in frequencies:
            invert_frequency(iter(inputs), omega, config.regularizer, grid_x, sums)
        extract_xi_lsq(sums, config.extraction.eps_div)
        return time.perf_counter() - t0

    prepared = []
    for grid_x, grid_y in grids:
        # the sweep times the inversion only: no bump is localized on these grids
        lattice = ModeLattice.for_grid(grid_x)
        support = Support.of(config.phantom.sample_on(grid_x))
        frequencies = []
        for i, omega in enumerate(config.frequencies):
            # the data's K_yL is the receiver table's L columns
            kernel_xy = build_green_kernel(grid_x, grid_y, omega, lattice)
            synth = iter([support_operator(omega, grid_x, lattice, support),
                          incident_field_nodes(config.sources, grid_x, omega, support),
                          kernel_xy.columns(support.slabs)])
            *_, w_field = forward_frequency(config, synth, grid_y, i)
            frequencies.append((omega, (forward_xy(w_field), kernel_xy,
                                        build_green_kernel(grid_x, grid_x, omega, lattice),
                                        _incident_spectrum(config, omega, grid_x))))
        invert_pass(grid_x, frequencies)  # warm-up
        prepared.append((grid_x, frequencies))

    seconds: list[list[float]] = [[] for _ in prepared]
    while pending := [i for i, s in enumerate(seconds)
                      if len(s) < _BENCH_PASSES or sum(s) < _BENCH_SECONDS]:
        for i in pending:
            seconds[i].append(invert_pass(*prepared[i]))
    records = [TimingRecord(n=n, m=config.grid.scatterer_nz, m1=config.grid.receiver_nz,
                            seconds=min(s)) for n, s in zip(n_list, seconds)]

    # made only once every N has been swept, so a failed solve leaves no directory
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest = ManifestBuilder("bench", config.config_hash())
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
