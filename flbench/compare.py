"""Compare two result sets of the benchmark: a parent and a change.

    python3 flbench/compare.py PARENT_DIR CHANGE_DIR

Both directories are written by suite.py. For each workload and each
end-to-end metric in BENCHMARK.json this prints both sides' median and
quartiles, the share of seed-matched pairs the change wins (ties count for
neither side), and a verdict against the metric's bound:

  incorrect    some change run reported correct = false;
  regressed    the change fails a larger share of its operations than the
               parent (whatever the timings say);
  improved     every change run beats every parent run, or the change wins
               at least 9 in 10 pairs and the medians differ by more than
               the parent's quartile distance;
  unresolved   otherwise, when either side's spread (quartile distance over
               median) exceeds the bound;
  regressed    the change's median is worse than the parent's by more than
               the bound;
  no worse     otherwise.

It also prints the operations attempted and failed on both sides. The exit
code is 1 when any verdict is incorrect or regressed.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from suite import load_set, quartiles, spec


def verdict(parent: list[float], change: list[float], pairs: list[tuple], lower_better: bool,
            bound: float, change_correct: bool, more_failed: bool) -> tuple[str, float]:
    sign = 1.0 if lower_better else -1.0
    decided = [sign * (p - c) for p, c in pairs if p != c]
    won = sum(d > 0 for d in decided) / len(pairs) if pairs else 0.0
    if not change_correct:
        return "incorrect", won
    if more_failed:
        return "regressed", won
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    worse_by = sign * (cm - pm) / pm
    if all(sign * (p - c) > 0 for p in parent for c in change):
        return "improved", won
    if won >= 0.9 and abs(cm - pm) > p3 - p1:
        return "improved", won
    if (p3 - p1) / pm > bound or (c3 - c1) / cm > bound:
        return "unresolved", won
    if worse_by > bound:
        return "regressed", won
    return "no worse", won


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    parent, change = load_set(args.parent), load_set(args.change)
    metrics = spec()["end_to_end"]
    regressed = False
    for workload in sorted(set(parent) & set(change)):
        p_runs, c_runs = parent[workload], change[workload]
        p_att, p_fail = (sum(r[k] for r in p_runs.values()) for k in ("attempted", "failed"))
        c_att, c_fail = (sum(r[k] for r in c_runs.values()) for k in ("attempted", "failed"))
        change_correct = all(r["correct"] for r in c_runs.values())
        more_failed = c_fail * p_att > p_fail * c_att
        print(f"\n{workload}: parent {len(p_runs)} runs, attempted {p_att}, failed {p_fail}, "
              f"correct {all(r['correct'] for r in p_runs.values())}; change {len(c_runs)} runs, "
              f"attempted {c_att}, failed {c_fail}, correct {change_correct}")
        print(f"  {'metric':14s} {'unit':5s} {'parent median [q1, q3]':>36s} "
              f"{'change median [q1, q3]':>36s} {'won':>5s} {'bound':>6s}  verdict")
        for m in metrics:
            name = m["name"]
            p = [r["metrics"][name]["value"] for r in p_runs.values()]
            c = [r["metrics"][name]["value"] for r in c_runs.values()]
            pairs = [(p_runs[s]["metrics"][name]["value"], c_runs[s]["metrics"][name]["value"])
                     for s in sorted(set(p_runs) & set(c_runs))]
            result, won = verdict(p, c, pairs, m["better"] == "lower", m["bound"],
                                  change_correct, more_failed)
            regressed |= result in ("regressed", "incorrect")
            pq, cq = quartiles(p), quartiles(c)
            print(f"  {name:14s} {m['unit']:5s} "
                  f"{pq[1]:12.6g} [{pq[0]:10.6g}, {pq[2]:10.6g}] "
                  f"{cq[1]:12.6g} [{cq[0]:10.6g}, {cq[2]:10.6g}] "
                  f"{won:5.2f} {m['bound']:6.2f}  {result}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
