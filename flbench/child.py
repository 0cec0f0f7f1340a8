"""Child-process helpers that call the program's library, run with src on the path.

    python flbench/child.py setup CONFIG
        Builds every kernel table CONFIG needs into its (empty) kernel cache
        through the cold path of pipeline.get_kernel, the receiver table of
        each frequency first. Prints one JSON line: the processor seconds
        spent in get_kernel and, per table, its time and the rise of the
        process's peak resident set during its build.

    python flbench/child.py solve CONFIG DATA_DIR MODES
        For each frequency, loads the receiver table (warm cache) and the
        data file w_<i>.laf, then runs inverse.solve_modes as invert does.
        Prints one JSON line: the rise of the peak resident set during the
        first call, in MB, and per frequency the regularizer settings and
        the solutions and ranks at the comma-separated MODES.

get_kernel is called through the pipeline module, so that the traced run,
which imports setup(), sees those calls. Peak resident set comes from
getrusage on this process; the resident set before a call is read from
/proc/self/statm. A fresh process per probe keeps earlier allocations from
hiding a call's peak.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
from pathlib import Path

from flatlayer import pipeline
from flatlayer.fields import make_grids
from flatlayer.fieldio import read_field
from flatlayer.inverse import solve_modes
from flatlayer.runconfig import load_config
from flatlayer.spectral import ModeLattice, forward_xy

_PAGE = os.sysconf("SC_PAGE_SIZE")


def _rss_mb() -> float:
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * _PAGE / 1e6


def _peak_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def setup(config_path: str) -> dict:
    config = load_config(config_path)
    grid_x, grid_y = make_grids(config.grid)
    lattice = ModeLattice.for_grid(grid_x)
    cache = Path(config.output.kernel_cache_dir)
    tables, total = [], 0.0
    for omega in config.frequencies:
        for kind, recv in (("xy", grid_y), ("xx", grid_x)):
            before = _rss_mb()
            t0 = time.process_time()
            pipeline.get_kernel(grid_x, recv, omega, lattice, cache)
            seconds = time.process_time() - t0
            total += seconds
            tables.append({"kind": kind, "omega": omega, "seconds": seconds,
                           "rss_mb": max(0.0, _peak_mb() - before)})
    return {"seconds": total, "tables": tables}


def solve(config_path: str, data_dir: str, modes: str) -> dict:
    config = load_config(config_path)
    grid_x, _ = make_grids(config.grid)
    lattice = ModeLattice.for_grid(grid_x)
    reg = config.regularizer
    picks = [int(m) for m in modes.split(",")]
    rss_mb, solves = None, []
    for i, omega in enumerate(config.frequencies):
        w_field = read_field(Path(data_dir) / f"w_{i:03d}.laf")
        kernel_xy = pipeline.get_kernel(grid_x, w_field.grid, omega, lattice,
                               Path(config.output.kernel_cache_dir))
        w_spec = forward_xy(w_field)
        before = _rss_mb()
        v_spec, stats = solve_modes(w_spec, kernel_xy, omega, reg, grid_x)
        if rss_mb is None:
            rss_mb = max(0.0, _peak_mb() - before)
        x = v_spec.values[picks]
        solves.append({"omega": omega, "method": reg.method,
                       "threshold": reg.tsvd_rel_threshold, "alpha": reg.tikhonov_alpha,
                       "x": [x.real.tolist(), x.imag.tolist()],
                       "ranks": stats.ranks[picks].tolist()})
    return {"rss_mb": rss_mb, "solves": solves}


if __name__ == "__main__":
    command, *args = sys.argv[1:]
    result = {"setup": setup, "solve": solve}[command](*args)
    print(json.dumps(result))
