"""End-to-end benchmark of the flatlayer CLI on one workload.

    python3 flbench/run.py --workload thick|thin|sweep --seed N --seconds S --trace 0|1

Run from the repository root. Each run gets a fresh scratch directory under
flbench/.work/ with an empty kernel cache, builds every kernel table the
workload needs three times (set-up), then runs rounds of
synthesize -> invert -> evaluate as child processes, one at a time, until
the rounds have taken S seconds (always at least one round; the time the
per-mode solve check takes after the first round does not count).
Every output is checked against computations made apart from the program
(reference.py). The last line of standard output is one JSON object:
correct, attempted, failed and metrics (end-to-end with --trace 0,
per-layer with --trace 1). See README.md.
"""

from __future__ import annotations

import os

# One BLAS thread per process: timings are processor time (see README.md),
# which extra threads would inflate by their spin-waits.
THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
os.environ.update(THREADS)  # before numpy loads: the checks and the traced run obey it too

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import reference as ref  # noqa: E402
from workloads import WORKLOADS, Inversion, Workload, write_config  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"
SETUPS = 3
TIME_LIMIT = 170.0  # seconds; a run must end within 180
STARTUP_SAMPLES = 3

# tolerances of the independent checks
W_TOL = 1e-10  # receiver data against the direct sum, relative to max |W|
NOISE_TOL = 1e-6  # relative deviation of ||W_noisy - W|| / (delta ||W||) from 1
KERNEL_TOL = 1e-12  # kernel columns against the direct DFT, relative to the column
RESIDUAL_TOL = 1e-12  # direct solve of the Born fixed point
SOLVE_TOL = 1e-6  # TSVD against pinv, relative
NORMAL_TOL = 1e-8  # Tikhonov normal-equation residual, relative backward error
EVAL_TOL = 1e-9  # evaluate's mean Delta L2 against the benchmark's
LOCALIZATION_LIMIT = 0.5


class BenchError(RuntimeError):
    """The run cannot produce a result (program missing, set-up failed, time out)."""


@dataclass
class Child:
    returncode: int
    cpu: float  # user + system seconds of the process
    peak_mb: float
    stdout: str


def run_child(argv: list, cwd: Path, log: Path, deadline: float) -> Child:
    """Run one process to its end; its own processor time and peak RSS (wait4)."""
    env = {**os.environ, **THREADS, "PYTHONPATH": str(SRC)}
    out_path, err_path = log.with_suffix(".out"), log.with_suffix(".err")
    with open(out_path, "w") as out, open(err_path, "w") as err:
        proc = subprocess.Popen([str(a) for a in argv], cwd=cwd, env=env, stdout=out, stderr=err)
        box: list = []
        waiter = threading.Thread(target=lambda: box.append(os.wait4(proc.pid, 0)))
        waiter.start()
        waiter.join(max(0.0, deadline - time.monotonic()))
        if not box:
            proc.kill()
            waiter.join()
            proc.returncode = -9
            raise BenchError(f"{argv[1:4]} passed the time limit")
    _, status, usage = box[0]
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        sys.stderr.write(err_path.read_text()[-2000:])
    return Child(proc.returncode, usage.ru_utime + usage.ru_stime,
                 usage.ru_maxrss * 1024 / 1e6, out_path.read_text())


class Run:
    def __init__(self, wl: Workload, seed: int, deadline: float, work: Path):
        self.wl, self.seed, self.deadline, self.work = wl, seed, deadline, work
        self.rng = np.random.default_rng([seed, 2])
        self.amp = wl.amplitude(seed)
        config = wl.config(None, work, self.amp)
        self.lat = ref.Lattice(config["grid"])
        self.phantom = config["phantom"]
        self.xi = ref.phantom_on_lattice(self.phantom, self.lat)
        n2 = self.lat.n ** 2
        self.modes = np.sort(np.append(self.rng.choice(np.arange(1, n2), 4, replace=False), 0))
        self.direct: dict[float, ref.DirectScattering] = {}
        self.w_exact: dict[float, np.ndarray] = {}
        self.problems: list[str] = []  # failures of run-level checks -> correct = false
        self.attempted = 0
        self.failed = 0
        self.inventory: dict[str, str] | None = None
        self.recon_error: float | None = None
        self.solve_rss_mb: float | None = None
        self.check_s = 0.0  # seconds spent in inspect() callbacks of rounds
        self.current = None  # inversion of the operation in progress

    # --- program invocations ----------------------------------------------

    def config(self, path: Path, cache: Path, inversion: Inversion | None) -> Path:
        return write_config(path, self.wl.config(inversion, cache, self.amp))

    def cli(self, args: list, cwd: Path) -> Child:
        log = cwd / f"{args[0]}-{Path(args[-1]).name}.log"
        return run_child([sys.executable, "-m", "flatlayer.cli", *args], cwd, log, self.deadline)

    def setup(self, k: int) -> dict:
        """Cold build of every kernel table into an empty cache, in a child process."""
        d = self.work / f"setup-{k}"
        cache = d / "kernel-cache"
        cfg = self.config(d / "setup.yaml", cache, None)
        child = run_child([sys.executable, BENCH / "child.py", "setup", cfg], d,
                          d / "setup.log", self.deadline)
        if child.returncode != 0:
            raise BenchError("kernel set-up failed")
        info = json.loads(child.stdout.strip().splitlines()[-1])
        if k == 0:
            self.problems += self.check_tables(cache)
        return {
            "seconds": info["seconds"], "peak_mb": child.peak_mb, "cache": cache,
            "cache_mb": sum(p.stat().st_size for p in cache.iterdir()) / 1e6,
            "xy_rss_mb": next(t["rss_mb"] for t in info["tables"] if t["kind"] == "xy"),
        }

    # --- independent checks -------------------------------------------------

    def check_tables(self, cache: Path) -> list[str]:
        """Kernel tables: node lists, offset map, and sampled columns by direct DFT."""
        problems, files = [], sorted(cache.glob("*.npz"))
        if len(files) != 2 * len(self.wl.frequencies):
            return [f"set-up left {len(files)} tables in the cache"]
        for path in files:
            with np.load(path, allow_pickle=False) as t:
                omega, row_z, col_z = float(t["omega"]), t["row_z"], t["col_z"]
                offsets, index, values = t["offsets"], t["offset_index"], t["values"]
            if not np.array_equal(col_z, self.lat.zs) or not (
                    np.array_equal(row_z, self.lat.zs) or np.array_equal(row_z, self.lat.zr)):
                problems.append(f"{path.name}: node lists differ from the grids")
                continue
            if not np.allclose(offsets[index], row_z[:, None] - col_z[None, :], rtol=0, atol=1e-9):
                problems.append(f"{path.name}: offset map does not match z - z'")
            picks = self.rng.choice(offsets.size, min(3, offsets.size), replace=False)
            picks = np.union1d(picks, np.nonzero(offsets == 0.0)[0])
            problems += columns_match(self.lat, omega, offsets[picks],
                                      values[picks][:, self.modes], self.modes)
        return problems

    def scattering(self, omega: float) -> ref.DirectScattering:
        if omega not in self.direct:
            d = ref.DirectScattering(self.lat, self.xi, self.wl.sources(self.amp), omega)
            sample = self.rng.choice(d.u.size, min(16, d.u.size), replace=False)
            res = d.residual(sample)
            if not res <= RESIDUAL_TOL:
                self.problems.append(f"direct solve residual {res:.2e} at omega={omega}")
            self.direct[omega] = d
        return self.direct[omega]

    def check_data(self, data: Path) -> list[str]:
        problems = ref.check_manifest(data)
        for i, omega in enumerate(self.wl.frequencies):
            w = ref.read_laf(data / f"w_{i:03d}.laf")
            if w.shape != (self.lat.n, self.lat.n, self.lat.zr.size):
                problems.append(f"w_{i:03d}.laf: shape {w.shape}")
                continue
            direct = self.scattering(omega)
            if self.wl.delta == 0.0:
                k = self.rng.choice(w.size, 512, replace=False)
                ix, iy, iz = np.unravel_index(k, w.shape)
                expect = direct.receiver_data(np.column_stack([ix, iy]), self.lat.zr[iz])
                err = np.max(np.abs(w[ix, iy, iz] - expect)) / np.max(np.abs(expect))
                if not err <= W_TOL:
                    problems.append(f"w_{i:03d}: receiver data off the direct sum by {err:.2e}")
            else:
                if omega not in self.w_exact:
                    ix, iy, iz = np.unravel_index(np.arange(w.size), w.shape)
                    self.w_exact[omega] = direct.receiver_data(
                        np.column_stack([ix, iy]), self.lat.zr[iz]).reshape(w.shape)
                exact = self.w_exact[omega]
                level = np.linalg.norm(w - exact) / np.linalg.norm(exact)
                if not abs(level / self.wl.delta - 1.0) <= NOISE_TOL:
                    problems.append(f"w_{i:03d}: noise level {level!r}, want {self.wl.delta!r}")
        return problems

    def check_recon(self, recon: Path, inv: Inversion, first: bool) -> tuple[list, dict]:
        """Recon files, CSV parse-back (first round), localization; returns Delta L2 per artifact."""
        problems = ref.check_manifest(recon)
        manifest = json.loads((recon / "manifest.json").read_text())
        errors = {}
        for entry in manifest["artifacts"]:
            name = entry["name"]
            xi = ref.read_laf(recon / entry["file"])
            if xi.shape != self.xi.shape:
                problems.append(f"{name}: shape {xi.shape}")
                continue
            if first:
                problems += ref.check_csv_slices(recon / f"slices_{name}", name, xi,
                                                 self.lat.x, self.lat.y)
            errors[name] = float(np.mean(ref.slice_errors(xi.real, self.xi)))
            if name == inv.checked:
                offsets = ref.bump_offsets(xi.real, self.phantom, self.lat)
                if max(offsets) > LOCALIZATION_LIMIT:
                    problems.append(f"{inv.name}/{name}: bump offsets "
                                    f"{', '.join(f'{o:.3f}' for o in offsets)} exceed "
                                    f"{LOCALIZATION_LIMIT} (mean Delta L2 {errors[name]:.4g})")
        if inv.checked not in errors:
            problems.append(f"{inv.name}: no {inv.checked} artifact")
        return problems, errors

    def check_eval(self, ev: Path, errors: dict) -> list[str]:
        problems = ref.check_manifest(ev)
        summary = json.loads((ev / "manifest.json").read_text())["summary"]
        if set(summary) != set(errors):
            problems.append(f"evaluate covers {sorted(summary)}, recon has {sorted(errors)}")
        for name in set(summary) & set(errors):
            got, want = summary[name]["mean_delta_l2"], errors[name]
            if not abs(got - want) <= EVAL_TOL * abs(want):
                problems.append(f"evaluate {name}: mean Delta L2 {got!r}, benchmark {want!r}")
        return problems

    def probe_solves(self, round_dir: Path, cache: Path) -> None:
        """Check the per-mode solves of each checked inversion on this round's data.

        A child process runs inverse.solve_modes as invert does and reports the
        solutions at the sampled modes; check_solves compares them with
        references made apart from the program.
        """
        modes = ",".join(str(m) for m in self.modes)
        for inv in self.wl.inversions:
            if not inv.check_solves:
                continue
            child = run_child([sys.executable, BENCH / "child.py", "solve",
                               round_dir / f"invert-{inv.name}.yaml", round_dir / "data", modes],
                              round_dir, round_dir / f"solve-{inv.name}.log", self.deadline)
            if child.returncode != 0:
                self.problems.append(f"{inv.name}: per-mode solve probe exit code {child.returncode}")
                continue
            info = json.loads(child.stdout.strip().splitlines()[-1])
            if self.solve_rss_mb is None:
                self.solve_rss_mb = info["rss_mb"]
            self.problems += check_solves(self, cache, round_dir, inv.name, info["solves"])

    def op(self, name: str, child: Child | None, check) -> None:
        """Count one operation: its process and the checks on its outputs."""
        self.attempted += 1
        if child is None:
            problems = ["not run: an earlier operation failed"]
        elif child.returncode != 0:
            problems = [f"exit code {child.returncode}"]
        else:
            try:
                problems = check()
            except (OSError, ValueError, KeyError) as exc:
                problems = [f"outputs unreadable: {exc!r}"]
        if problems:
            self.failed += 1
            for p in problems:
                print(f"[{self.wl.name}] {name} failed: {p}", file=sys.stderr)

    # --- rounds -------------------------------------------------------------

    def round(self, r: int, cache: Path, runner=None, inspect=None) -> dict:
        """One synthesize, then invert + evaluate per inversion; checks each output.

        runner(args, cwd) -> Child runs the CLI; the default starts a process.
        inspect(round_dir) runs before the round's outputs are deleted.
        """
        runner = runner or self.cli
        d = self.work / f"round-{r}"
        d.mkdir(parents=True)
        data = d / "data"
        synth_cfg = self.config(d / "synthesize.yaml", cache, self.wl.inversions[0])
        cpu = {"synthesize": 0.0, "invert": 0.0, "evaluate": 0.0}
        peak = 0.0
        first = self.inventory is None
        inventory = {}

        self.current = "synthesize"
        child = runner(["synthesize", "--config", synth_cfg, "--out", str(data)], d)
        cpu["synthesize"] += child.cpu
        peak = max(peak, child.peak_mb)
        self.op("synthesize", child, lambda: self.check_data(data))
        if child.returncode == 0:
            inventory.update(self.hashes(data, "data"))
        for inv in self.wl.inversions:
            cfg = self.config(d / f"invert-{inv.name}.yaml", cache, inv)
            recon, ev = d / f"recon-{inv.name}", d / f"eval-{inv.name}"
            errors: dict = {}
            inv_child = None
            self.current = inv.name
            if child.returncode == 0:
                inv_child = runner(["invert", "--config", cfg, "--data", str(data),
                                    "--out", str(recon)], d)
                cpu["invert"] += inv_child.cpu
                peak = max(peak, inv_child.peak_mb)

            def recon_checks(inv=inv):
                problems, found = self.check_recon(recon, inv, first)
                errors.update(found)
                return problems

            self.op(f"invert {inv.name}", inv_child, recon_checks)
            ev_child = None
            if inv_child is not None and inv_child.returncode == 0:
                inventory.update(self.hashes(recon, inv.name))
                ev_child = runner(["evaluate", "--config", cfg, "--recon", str(recon),
                                   "--out", str(ev)], d)
                cpu["evaluate"] += ev_child.cpu
                peak = max(peak, ev_child.peak_mb)
            self.op(f"evaluate {inv.name}", ev_child, lambda: self.check_eval(ev, errors))
            if inv.name == self.wl.primary[0] and self.recon_error is None:
                self.recon_error = errors.get(self.wl.primary[1])

        if first:
            self.inventory = inventory
        elif inventory != self.inventory:
            diff = sorted(k for k in set(inventory) | set(self.inventory)
                          if inventory.get(k) != self.inventory.get(k))
            self.problems.append(f"round {r} differs from round 0 in {diff[:5]}")
        if inspect is not None:
            t0 = time.monotonic()
            inspect(d)
            self.check_s += time.monotonic() - t0
        shutil.rmtree(d)
        return {"cpu": cpu, "peak_mb": peak}

    @staticmethod
    def hashes(stage: Path, tag: str) -> dict[str, str]:
        manifest = json.loads((stage / "manifest.json").read_text())
        return {f"{tag}/{e['path']}": e["sha256"] for e in manifest["files"]}


def end_to_end(run: Run, seconds: float) -> dict:
    setups = [run.setup(k) for k in range(SETUPS)]
    cache = setups[-1]["cache"]
    start = time.monotonic()
    rounds = [run.round(0, cache, inspect=lambda d: run.probe_solves(d, cache))]
    while time.monotonic() - start - run.check_s < seconds:
        rounds.append(run.round(len(rounds), cache))
    setup_s = statistics.median(s["seconds"] for s in setups)
    setup_peak = statistics.median(s["peak_mb"] for s in setups)
    return {
        "setup_s": setup_s,
        "synthesize_s": statistics.median(r["cpu"]["synthesize"] for r in rounds),
        "invert_s": statistics.median(r["cpu"]["invert"] for r in rounds),
        "workload_s": setup_s + statistics.median(sum(r["cpu"].values()) for r in rounds),
        "peak_rss_mb": statistics.median(max(setup_peak, r["peak_mb"]) for r in rounds),
        "cache_mb": statistics.median(s["cache_mb"] for s in setups),
        "recon_error": run.recon_error,
    }


def traced(run: Run, seconds: float) -> dict:
    """Untraced set-up and round for reference, then traced repetitions in-process.

    Each traced repetition builds the tables into a fresh cache and runs one
    round through cli.main, with spans around every call into a layer; its
    outputs must be byte-identical to the untraced round's.
    """
    sys.path.insert(0, str(SRC))
    import child
    import spans
    from flatlayer import cli

    setup = run.setup(0)
    first = run.round(0, setup["cache"], inspect=lambda d: run.probe_solves(d, setup["cache"]))
    untraced = setup["seconds"] + sum(first["cpu"].values())
    startup = statistics.median(
        run_child([sys.executable, "-m", "flatlayer.cli", "--help"], run.work,
                  run.work / f"startup-{i}.log", run.deadline).cpu
        for i in range(STARTUP_SAMPLES))

    tracer = spans.Tracer(run.wl.name)
    cost = tracer.span_cost()

    def in_process(args, cwd):
        tracer.context = run.current
        os.chdir(cwd)
        t0 = time.process_time()
        try:
            code = cli.main([str(a) for a in args])
        except Exception:  # a crash inside the program is a failed operation
            traceback.print_exc()
            code = 1
        finally:
            os.chdir(ROOT)
        return Child(code, time.process_time() - t0, 0.0, "")

    per_rep, start = [], time.monotonic()
    spans.install(tracer)
    try:
        while not per_rep or time.monotonic() - start < seconds:
            tracer.rep = len(per_rep) + 1
            mark = len(tracer.spans)
            cache = run.work / f"traced-{tracer.rep}" / "kernel-cache"
            tracer.call("setup", child.setup, run.config(cache.parent / "setup.yaml", cache, None))
            run.round(tracer.rep, cache, in_process)
            per_rep.append(spans.layer_metrics(tracer.spans[mark:], run.wl.rank_inversion))
    finally:
        tracer.restore()
        tracer.write(WORK / f"spans-{run.wl.name}-seed{run.seed}.json")

    metrics = spans.median_metrics(per_rep)
    metrics.update({
        "medium.kernel_xy_rss_mb": setup["xy_rss_mb"],
        "inverse.solve_modes_rss_mb": run.solve_rss_mb,
        "cli.startup_s": startup,
        "trace.untraced_workload_s": untraced,
        "trace.cli_startup_total_s": run.wl.ops_per_round() * startup,
        "trace.tracing_cost_s": metrics.pop("trace.spans") * cost,
    })
    return metrics


def columns_match(lat: ref.Lattice, omega: float, offsets: np.ndarray, columns: np.ndarray,
                  modes: np.ndarray) -> list[str]:
    """Kernel-table columns (offsets x modes) against a direct DFT of sampled G."""
    direct = ref.kernel_columns(lat, omega, offsets, modes)
    err = np.max(np.abs(columns - direct), axis=1) / np.max(np.abs(direct), axis=1)
    bad = np.nonzero(~(err <= KERNEL_TOL))[0]
    return [f"omega={omega:g}: kernel column dz={offsets[j]:.6g} off by {err[j]:.2e}"
            for j in bad[:3]]


def check_solves(run: Run, cache: Path, round_dir: Path, inversion: str,
                 solves: list[dict]) -> list[str]:
    """Per-mode solves at the sampled modes: TSVD against pinv, Tikhonov normal equations.

    The mode matrices come from the kernel table, whose columns at these
    modes are first compared with a direct DFT of G at every offset; the
    right-hand sides are a direct DFT of the round's data files.
    """
    problems, tables = [], {}
    for path in cache.glob("*.npz"):
        with np.load(path, allow_pickle=False) as t:
            if not np.array_equal(t["row_z"], t["col_z"]):
                omega, offsets, cols = float(t["omega"]), t["offsets"], t["values"][:, run.modes]
                problems += columns_match(run.lat, omega, offsets, cols, run.modes)
                tables[omega] = (t["offset_index"], cols)
    for solve in solves:
        index, cols = tables[solve["omega"]]
        i = run.wl.frequencies.index(solve["omega"])
        w = ref.read_laf(round_dir / "data" / f"w_{i:03d}.laf")
        b = ref.data_modes(run.lat, w, run.modes)
        scale = solve["omega"] ** 2 * run.lat.mu
        for k, m in enumerate(run.modes):
            a = cols[:, k][index] * scale[None, :]
            x = np.array(solve["x"][0][k]) + 1j * np.array(solve["x"][1][k])
            where = f"{inversion} omega={solve['omega']:g} mode {m}"
            if solve["method"] == "tsvd":
                s = np.linalg.svd(a, compute_uv=False)
                want = np.linalg.pinv(a, rcond=solve["threshold"]) @ b[k]
                rank = int(np.count_nonzero(s >= solve["threshold"] * s[0]))
                err = np.linalg.norm(x - want) / np.linalg.norm(want)
                if rank != solve["ranks"][k] or not err <= SOLVE_TOL:
                    problems.append(f"{where}: rank {solve['ranks'][k]} vs {rank}, "
                                    f"pinv difference {err:.2e}")
            else:
                ah = a.conj().T
                r = ah @ (a @ x - b[k]) + solve["alpha"] * x
                backward = np.linalg.norm(r) / (
                    (np.linalg.norm(ah @ a, 2) + solve["alpha"]) * np.linalg.norm(x))
                if not backward <= NORMAL_TOL:
                    problems.append(f"{where}: normal-equation residual {backward:.2e}")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT
    if not (SRC / "flatlayer" / "cli.py").is_file():
        print(f"flatlayer sources not found under {SRC}", file=sys.stderr)
        return 2
    work = WORK / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    run = Run(WORKLOADS[args.workload], args.seed, deadline, work)
    try:
        metrics = (traced if args.trace else end_to_end)(run, args.seconds)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 3
    finally:
        os.chdir(ROOT)
        shutil.rmtree(work, ignore_errors=True)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    for p in run.problems:
        print(f"[{args.workload}] check failed: {p}", file=sys.stderr)
    result = {
        "correct": not run.problems and all(metrics.get(k) is not None for k in units),
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": float(metrics[k]) if metrics.get(k) is not None else 0.0,
                        "unit": u} for k, u in units.items()},
    }
    for k, m in result["metrics"].items():
        print(f"{args.workload:6s} {k:30s} {m['value']:.6g} {m['unit']}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
