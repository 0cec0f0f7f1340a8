"""Run every workload over a list of seeds and keep the results as one result set.

    python3 flbench/suite.py --out RESULTS_DIR [--seeds 1-10] [--trace 0|1]

Runs flbench/run.py once per seed and workload of BENCHMARK.json, one at a
time, seed by seed, with the run length from BENCHMARK.json, and writes
each run's final JSON line to RESULTS_DIR/<workload>/seed<N>.json. Then prints, per workload,
every metric by name and unit with its median, quartiles and spread
(quartile distance over median), the spread's limit (a third of the
metric's bound in BENCHMARK.json), and the operations attempted and
failed. Two result sets are compared with compare.py.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def load_set(directory: Path) -> dict[str, dict[int, dict]]:
    """{workload: {seed: result}} from a result-set directory."""
    out: dict[str, dict[int, dict]] = {}
    for path in sorted(directory.glob("*/seed*.json")):
        out.setdefault(path.parent.name, {})[int(path.stem[4:])] = json.loads(path.read_text())
    return out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summarize(results: dict[str, dict[int, dict]], trace: bool) -> bool:
    """Print the table; True when every bounded spread is within a third of its bound."""
    s = spec()
    bounds = {m["name"]: m.get("bound") for m in s["end_to_end"]}
    steady = True
    for workload, runs in results.items():
        attempted = sum(r["attempted"] for r in runs.values())
        failed = sum(r["failed"] for r in runs.values())
        shares = sorted({f"{r['failed']}/{r['attempted']}" for r in runs.values()})
        print(f"\n{workload}: {len(runs)} runs, correct={all(r['correct'] for r in runs.values())}, "
              f"attempted={attempted}, failed={failed}, failed/attempted per run: {shares}")
        print(f"  {'metric':30s} {'unit':8s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
              f"{'spread':>8s} {'limit':>8s}")
        names = next(iter(runs.values()))["metrics"]
        for name in names:
            values = [r["metrics"][name]["value"] for r in runs.values()]
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / med if med else 0.0
            bound = None if trace else bounds.get(name)
            limit = "" if bound is None else f"{bound / 3:.4f}"
            if limit and spread > bound / 3:
                steady = False
                limit += " !"
            print(f"  {name:30s} {names[name]['unit']:8s} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{spread:8.4f} {limit:>8s}")
    return steady


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    s = spec()
    workloads = [w["name"] for w in s["workloads"]]
    for seed in parse_seeds(args.seeds):
        for workload in workloads:
            t0 = time.monotonic()
            proc = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(s["run_seconds"]), "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=900)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                sys.stderr.write(proc.stderr)
                print(f"{workload} seed {seed}: exit {proc.returncode}, no result", file=sys.stderr)
                return 1
            path = args.out / workload / f"seed{seed}.json"
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(lines[-1] + "\n")
            print(f"{workload} seed {seed}: {time.monotonic() - t0:.1f} s", file=sys.stderr)
    results = load_set(args.out)
    steady = summarize({w: results[w] for w in workloads if w in results}, bool(args.trace))
    print("\nevery bounded spread within a third of its bound" if steady
          else "\nsome spreads exceed a third of their bound (marked !)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
