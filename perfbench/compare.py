"""Compare benchmark result sets written by ``run.py --results DIR``.

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR
    python3 perfbench/compare.py RESULTS_DIR          # spread of one set only

For each workload and end-to-end metric of ``BENCHMARK.json`` it prints each
side's median and quartiles, the change's win share over the pairs (runs of
both sides with the same seed; ties count for neither side) and a verdict:

* improved   -- the change wins at least 9 of 10 pairs, its median is
                better than the parent's by more than the parent's
                interquartile distance, and it fails no more ops than the
                parent;
* worse      -- the change's median is worse than the parent's by more than
                the metric's bound;
* unresolved -- the run-to-run spread (interquartile distance over median)
                of either side is wider than the bound, unless every change
                run is better than every parent run;
* unchanged  -- otherwise.

With one directory it prints each metric's spread against its bound and a
third of it.  Op digests of runs with the same workload and seed must agree
between the two sets; every disagreement is listed.  Exit code 1 when a
verdict is "worse", a digest differs or the change fails more ops.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def load(directory):
    """{workload: {seed: record}} for the untraced records in ``directory``."""
    runs = {}
    for path in sorted(Path(directory).glob("*.json")):
        record = json.loads(path.read_text())
        if record.get("trace") == 0:
            runs.setdefault(record["workload"], {})[record["seed"]] = record
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else float("inf")


def verdict(parent, change, pairs, better, bound, more_failures=False):
    sign = 1.0 if better == "higher" else -1.0
    p_q1, p_med, p_q3 = quartiles(parent)
    _, c_med, _ = quartiles(change)
    wins = sum(sign * (c - p) > 0 for p, c in pairs)
    gain = pairs and wins >= 0.9 * len(pairs) and sign * (c_med - p_med) > p_q3 - p_q1
    if gain and not more_failures:
        return "improved", wins
    if sign * (p_med - c_med) > bound * abs(p_med):
        return "worse", wins
    all_better = (min(change) > max(parent)) if sign > 0 else (max(change) < min(parent))
    if max(spread(parent), spread(change)) > bound and not all_better:
        return "unresolved", wins
    return "unchanged", wins


def metric_values(records, name):
    return [r["metrics"][name]["value"] for r in records]


def report_spread(runs):
    print(f"{'workload':<12} {'metric':<12} {'n':>3} {'median':>12} {'q1':>12} {'q3':>12}"
          f" {'spread':>8} {'bound':>6}  within bound/3")
    for workload, by_seed in sorted(runs.items()):
        records = list(by_seed.values())
        for m in SPEC["end_to_end"]:
            vals = metric_values(records, m["name"])
            q1, q2, q3 = quartiles(vals)
            s = spread(vals)
            steady = "yes" if s < m["bound"] / 3 else "NO"
            print(f"{workload:<12} {m['name']:<12} {len(vals):>3} {q2:>12.6g} {q1:>12.6g}"
                  f" {q3:>12.6g} {s:>8.4f} {m['bound']:>6}  {steady}")
        failed = sum(r["failed"] for r in records)
        print(f"{workload:<12} {'failed ops':<12} {failed}")
    return 0


def report_compare(parent, change):
    status = 0
    print(f"{'workload':<12} {'metric':<12} {'parent median [q1, q3]':>36}"
          f" {'change median [q1, q3]':>36} {'wins':>7}  verdict")
    for workload in sorted(set(parent) & set(change)):
        seeds = sorted(set(parent[workload]) & set(change[workload]))
        p_recs = list(parent[workload].values())
        c_recs = list(change[workload].values())
        failed = (sum(r["failed"] for r in p_recs), sum(r["failed"] for r in c_recs))
        more_failures = failed[1] > failed[0]
        status |= more_failures
        for m in SPEC["end_to_end"]:
            p_vals = metric_values(p_recs, m["name"])
            c_vals = metric_values(c_recs, m["name"])
            pairs = [(parent[workload][s]["metrics"][m["name"]]["value"],
                      change[workload][s]["metrics"][m["name"]]["value"]) for s in seeds]
            v, wins = verdict(p_vals, c_vals, pairs, m["better"], m["bound"], more_failures)
            status |= v == "worse"
            p1, p2, p3 = quartiles(p_vals)
            c1, c2, c3 = quartiles(c_vals)
            print(f"{workload:<12} {m['name']:<12} {p2:>12.5g} [{p1:.5g}, {p3:.5g}]".ljust(62)
                  + f" {c2:>12.5g} [{c1:.5g}, {c3:.5g}]".ljust(36)
                  + f" {wins:>3}/{len(pairs):<3}  {v}")
        for s in seeds:
            a = parent[workload][s]["op_digests"]
            b = change[workload][s]["op_digests"]
            n = min(len(a), len(b))
            diff = [i for i in range(n) if a[i] != b[i]]
            if diff:
                status = 1
                print(f"{workload:<12} seed {s}: {len(diff)} of {n} op digests differ"
                      f" (first at op {diff[0]})")
        print(f"{workload:<12} failed ops: parent {failed[0]}, change {failed[1]}"
              + ("  (more failures: no gain counts)" if more_failures else ""))
    return status


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("dirs", nargs="+", type=Path, metavar="DIR", help="one or two result dirs")
    args = p.parse_args(argv)
    if len(args.dirs) > 2:
        p.error("give one or two result directories")
    runs = [load(d) for d in args.dirs]
    if not all(runs):
        p.error("no untraced result records found")
    if len(runs) == 1:
        return report_spread(runs[0])
    return report_compare(*runs)


if __name__ == "__main__":
    sys.exit(main())
