"""In-memory spans around calls into the program's modules, and the per-layer
metrics derived from them.

Nothing in src/ is instrumented. The traced run replaces, for its duration,
the module attributes through which the pipeline calls each layer (for
example flatlayer.pipeline.born_iterate) with wrappers that record one span
per call: name, start, end, parent span, workload and repetition. The
clock is the process's processor time, like the end-to-end timings. Spans
stay in memory and are written once, when the run ends.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
from pathlib import Path

import numpy as np


class Tracer:
    def __init__(self, workload: str):
        self.workload = workload
        self.rep = 0
        self.context = None  # inversion name of the operation in progress
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        self._patches: list[tuple] = []

    def open(self, name: str) -> dict:
        span = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1]["id"] if self._stack else None,
            "workload": self.workload,
            "rep": self.rep,
            "start": time.process_time(),
            "end": None,
            "attrs": {},
        }
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: dict) -> None:
        span["end"] = time.process_time()
        self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        span = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(span)

    def wrap(self, module, attr: str, name: str, describe=None) -> None:
        """Record a span per call of module.attr until restore()."""
        original = getattr(module, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = self.open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self.close(span)
            if describe is not None:
                span["attrs"].update(describe(args, result))
            return result

        setattr(module, attr, wrapper)
        self._patches.append((module, attr, original))

    def restore(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def span_cost(self, n: int = 20000) -> float:
        """Seconds one open/close pair costs, measured on throwaway spans."""
        saved = (self.spans, self._stack)
        self.spans, self._stack = [], []
        t0 = time.process_time()
        for _ in range(n):
            self.close(self.open("probe"))
        cost = (time.process_time() - t0) / n
        self.spans, self._stack = saved
        return cost

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.spans) + "\n")


def install(tracer: Tracer) -> None:
    """Wrap the calls into each layer that the pipeline and CLI make."""
    from flatlayer import cli, forward, inverse, manifest, medium, pipeline

    def table(args, result):
        kind = "xx" if np.array_equal(args[0].z_nodes, args[1].z_nodes) else "xy"
        return {"kind": kind, "offsets": int(result.offsets.size),
                "mb": result.values.nbytes / 1e6}

    def born(args, result):
        return {"iterations": int(result.iterations)}

    def solve(args, result):
        _, kernel_xy, _, reg, _ = args[:5]
        _, stats = result
        full = min(kernel_xy.n_rows, kernel_xy.n_cols)
        return {"modes": int(kernel_xy.n_modes), "inversion": tracer.context,
                "method": reg.method,
                "rank_counts": {int(k): int(c) for k, c in
                                zip(*np.unique(stats.ranks, return_counts=True))},
                "full_rank": int(np.count_nonzero(stats.ranks == full)),
                "failed": int(stats.failed_modes)}

    def csv_out(args, result):
        g = args[0].grid
        return {"rows": g.nx * g.ny * g.nz,
                "bytes": sum(Path(p).stat().st_size for p in result)}

    def file_size(args, result):
        return {"bytes": Path(args[1] if len(args) > 1 else args[0]).stat().st_size}

    tracer.wrap(cli, "main", "cli.main")
    tracer.wrap(pipeline, "get_kernel", "pipeline.get_kernel")
    tracer.wrap(pipeline, "build_green_kernel", "medium.build_green_kernel", table)
    tracer.wrap(pipeline, "incident_field_spectral", "medium.incident_field_spectral")
    tracer.wrap(pipeline, "born_iterate", "forward.born_iterate", born)
    tracer.wrap(pipeline, "scattered_data", "forward.scattered_data")
    tracer.wrap(pipeline, "add_noise", "forward.add_noise")
    for module in (pipeline, forward):
        tracer.wrap(module, "inverse_xy", "spectral.inverse_xy")
    tracer.wrap(pipeline, "forward_xy", "spectral.forward_xy")
    for module in (forward, medium):
        tracer.wrap(module, "forward_slab", "spectral.forward_slab")
    tracer.wrap(forward, "inverse_slab", "spectral.inverse_slab")
    tracer.wrap(pipeline, "solve_modes", "inverse.solve_modes", solve)
    tracer.wrap(inverse, "solve_mode_block", "regularizers.solve_mode_block")
    tracer.wrap(pipeline, "recompute_internal_field", "inverse.recompute_internal_field")
    tracer.wrap(pipeline, "extract_xi_single", "inverse.extract_xi")
    tracer.wrap(pipeline, "extract_xi_lsq", "inverse.extract_xi")
    tracer.wrap(pipeline, "write_field", "fieldio.write_field", file_size)
    tracer.wrap(pipeline, "read_field", "fieldio.read_field")
    tracer.wrap(pipeline, "export_slices_csv", "fieldio.export_slices_csv", csv_out)
    tracer.wrap(manifest, "file_sha256", "manifest.file_sha256", file_size)
    tracer.wrap(pipeline, "slice_relative_error", "metrics.slice_relative_error")
    tracer.wrap(pipeline, "localization_report", "metrics.localization_report")


def _duration(span: dict) -> float:
    return span["end"] - span["start"]


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span duration minus the time its child spans cover (children never overlap)."""
    own = {s["id"]: _duration(s) for s in spans}
    for s in spans:
        if s["parent"] is not None and s["parent"] in own:
            own[s["parent"]] -= _duration(s)
    return own


def layer_metrics(spans: list[dict], rank_inversion: str) -> dict[str, float]:
    """Per-layer metrics of one traced repetition (setup plus one round)."""
    by_name: dict[str, list[dict]] = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)

    def total(name, pred=lambda s: True):
        return sum(_duration(s) for s in by_name.get(name, []) if pred(s))

    def attr_sum(name, key, pred=lambda s: True):
        return sum(s["attrs"][key] for s in by_name.get(name, []) if pred(s))

    builders = {s["parent"] for s in by_name.get("medium.build_green_kernel", [])}
    loads = [s for s in by_name.get("pipeline.get_kernel", []) if s["id"] not in builders]
    tables = by_name.get("medium.build_green_kernel", [])
    xy = [s for s in tables if s["attrs"]["kind"] == "xy"]
    xx = [s for s in tables if s["attrs"]["kind"] == "xx"]
    solves = by_name.get("inverse.solve_modes", [])
    solve_ids = {s["id"] for s in solves}
    block_s = total("regularizers.solve_mode_block", lambda s: s["parent"] in solve_ids)
    solve_s = total("inverse.solve_modes")
    rank_counts: dict[int, int] = {}
    for s in solves:
        if s["attrs"]["inversion"] == rank_inversion:
            for rank, count in s["attrs"]["rank_counts"].items():
                rank_counts[rank] = rank_counts.get(rank, 0) + count
    born_s = total("forward.born_iterate")
    iterations = attr_sum("forward.born_iterate", "iterations")
    own = self_times(spans)

    return {
        "medium.kernel_xy_s": sum(map(_duration, xy)),
        "medium.kernel_xy_offsets": max(s["attrs"]["offsets"] for s in xy),
        "medium.kernel_xy_mb": sum(s["attrs"]["mb"] for s in xy),
        "medium.kernel_xx_s": sum(map(_duration, xx)),
        "medium.kernel_xx_mb": sum(s["attrs"]["mb"] for s in xx),
        "medium.incident_s": total("medium.incident_field_spectral"),
        "pipeline.kernel_load_s": sum(map(_duration, loads)),
        "pipeline.cache_hits": len(loads),
        "pipeline.cache_misses": len(tables),
        "forward.born_s": born_s,
        "forward.born_s_per_iter": born_s / iterations,
        "forward.born_iterations": iterations,
        "forward.receiver_s": total("forward.scattered_data"),
        "spectral.fft_s": sum(total(n) for n in by_name if n.startswith("spectral.")),
        "inverse.solve_modes_s": solve_s,
        "inverse.modes_per_s": sum(s["attrs"]["modes"] for s in solves) / solve_s,
        "inverse.gather_s": solve_s - block_s,
        "regularizers.solve_block_s": block_s,
        "inverse.rank_median": float(np.median(np.repeat(
            list(rank_counts), list(rank_counts.values())))),
        "inverse.full_rank_modes": sum(s["attrs"]["full_rank"] for s in solves
                                       if s["attrs"]["inversion"] == rank_inversion),
        "inverse.failed_modes": attr_sum("inverse.solve_modes", "failed"),
        "inverse.recompute_s": total("inverse.recompute_internal_field"),
        "inverse.extract_s": total("inverse.extract_xi"),
        "fieldio.csv_s": total("fieldio.export_slices_csv"),
        "fieldio.csv_rows": attr_sum("fieldio.export_slices_csv", "rows"),
        "fieldio.csv_mb": attr_sum("fieldio.export_slices_csv", "bytes") / 1e6,
        "fieldio.laf_write_s": total("fieldio.write_field"),
        "fieldio.laf_read_s": total("fieldio.read_field"),
        "fieldio.laf_mb": attr_sum("fieldio.write_field", "bytes") / 1e6,
        "manifest.hash_s": total("manifest.file_sha256"),
        "manifest.hashed_mb": attr_sum("manifest.file_sha256", "bytes") / 1e6,
        "metrics.evaluate_s": total("metrics.slice_relative_error")
        + total("metrics.localization_report"),
        "trace.traced_workload_s": sum(_duration(s) for s in spans if s["parent"] is None),
        "trace.glue_s": sum(own[s["id"]] for s in by_name.get("cli.main", [])),
        "trace.spans": len(spans),
    }


def median_metrics(per_rep: list[dict]) -> dict[str, float]:
    return {k: statistics.median(m[k] for m in per_rep) for k in per_rep[0]}
