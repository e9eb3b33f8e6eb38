#!/usr/bin/env python3
"""Summarises or compares end-to-end benchmark results (python3 stdlib only).

    python3 bench/e2e/compare.py --summary RESULTS.jsonl [...]
    python3 bench/e2e/compare.py --baseline RESULTS.jsonl > baseline.json
    python3 bench/e2e/compare.py PARENT.jsonl CHANGE.jsonl

Each input line is {"workload", "trace", "seed", "result"} as run.sh writes
it, where result is run.py's output line.

--summary prints, per workload and mode, every metric's median, quartiles and
spread (quartile distance over the median) with its unit. --baseline writes
the same numbers as JSON.

A comparison pairs the two files' untraced runs by workload and seed (run the
two commits alternately, at least 10 pairs) and gives every (end-to-end
metric, workload) pair one verdict, using the directions and bounds in
BENCHMARK.json:
  REGRESSION  the change's median is worse than the parent's by more than the
              metric's bound;
  GAIN        there are at least 10 pairs, the change wins at least 9 of
              every 10 of them (ties count for neither side), and the medians
              differ by more than the parent's quartile distance;
  unresolved  either side's spread is wider than the bound, unless every
              change run is better than every parent run;
  same        none of the above.
It also flags every workload whose failed fraction rose or that has a run
whose outputs were not correct. The exit status is 1 when anything is
flagged as a regression or a failure.
"""

import json
import os
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
MIN_PAIRS = 10  # a gain needs at least this many parent/change pairs


def load(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else 0.0


def groups(rows):
    """{(workload, trace): [result, ...]} for runs that produced a result."""
    out = {}
    for r in rows:
        if r["result"] is not None:
            out.setdefault((r["workload"], r["trace"]), []).append(r)
    return out


def summary(paths):
    rows = [r for p in paths for r in load(p)]
    fmt = "{:<14} {:>5} {:<44} {:>3} {:>13} {:>13} {:>13} {:>7}  {}"
    print(fmt.format("workload", "trace", "metric", "n", "median", "q1", "q3",
                     "spread", "unit"))
    for (workload, trace), runs in sorted(groups(rows).items()):
        failed = sum(r["result"]["failed"] for r in runs)
        attempted = sum(r["result"]["attempted"] for r in runs)
        for name, m in runs[0]["result"]["metrics"].items():
            v = values(runs, name)
            q1, med, q3 = quartiles(v)
            print(fmt.format(workload, trace, name, len(v), f"{med:.6g}",
                             f"{q1:.6g}", f"{q3:.6g}", f"{spread(v):.4f}",
                             m["unit"]))
        print(f"{workload} trace={trace}: {failed} of {attempted} task runs "
              f"failed, {sum(not r['result']['correct'] for r in runs)} "
              f"of {len(runs)} runs not correct\n")


def baseline(paths):
    rows = [r for p in paths for r in load(p)]
    out = {"nproc": os.cpu_count(), "workloads": {}}
    for (workload, trace), runs in sorted(groups(rows).items()):
        section = "per_layer" if trace else "end_to_end"
        metrics = {}
        for name, m in runs[0]["result"]["metrics"].items():
            q1, med, q3 = quartiles(values(runs, name))
            metrics[name] = {"median": float(f"{med:.6g}"),
                             "q1": float(f"{q1:.6g}"),
                             "q3": float(f"{q3:.6g}"), "unit": m["unit"]}
        entry = out["workloads"].setdefault(workload, {})
        entry[section] = metrics
        entry[f"{section}_runs"] = len(runs)
        entry[f"{section}_seeds"] = sorted({r["seed"] for r in runs})
    print(json.dumps(out, indent=1))


def values(runs, name):
    return [r["result"]["metrics"][name]["value"] for r in runs
            if name in r["result"]["metrics"]]


def failures(by_group, workload):
    """(failed fraction of task runs, runs not correct) over both modes."""
    runs = [r for t in (0, 1) for r in by_group.get((workload, t), [])]
    attempted = sum(r["result"]["attempted"] for r in runs)
    failed = sum(r["result"]["failed"] for r in runs)
    incorrect = sum(not r["result"]["correct"] for r in runs)
    return failed / attempted if attempted else 0.0, incorrect


def verdict(metric, parent, change, pairs):
    lower = metric["better"] == "lower"
    bound = metric["bound"]
    p_q1, p_med, p_q3 = quartiles(parent)
    c_med = statistics.median(change)
    worse = (c_med - p_med) if lower else (p_med - c_med)
    better = (lambda a, b: a < b) if lower else (lambda a, b: a > b)
    wins = sum(better(c, p) for p, c in pairs)
    if worse > bound * abs(p_med):
        return "REGRESSION", wins
    if (len(pairs) >= MIN_PAIRS and wins >= 0.9 * len(pairs)
            and -worse > p_q3 - p_q1):
        return "GAIN", wins
    all_better = all(better(c, p) for c in change for p in parent)
    if max(spread(parent), spread(change)) > bound and not all_better:
        return "unresolved", wins
    return "same", wins


def compare(parent_path, change_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parent, change = groups(load(parent_path)), groups(load(change_path))
    flagged = False
    fmt = "{:<14} {:<26} {:>13} {:>13} {:>6} {:>13} {:>13} {:>6} {:>7}  {}"
    print(fmt.format("workload", "metric", "parent med", "parent iqr",
                     "spread", "change med", "change iqr", "spread", "wins",
                     "verdict"))
    for workload in sorted({w for w, _ in parent} | {w for w, _ in change}):
        p_runs = parent.get((workload, 0), [])
        c_runs = change.get((workload, 0), [])
        by_seed = {r["seed"]: r for r in p_runs}
        pairs = [(by_seed[r["seed"]], r) for r in c_runs
                 if r["seed"] in by_seed]
        if len(pairs) < MIN_PAIRS:
            print(f"{workload}: only {len(pairs)} parent/change pairs; "
                  f"a gain needs at least {MIN_PAIRS}")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            p, c = values(p_runs, name), values(c_runs, name)
            if not p or not c:
                continue
            paired = [(a["result"]["metrics"][name]["value"],
                       b["result"]["metrics"][name]["value"])
                      for a, b in pairs
                      if name in a["result"]["metrics"]
                      and name in b["result"]["metrics"]]
            v, wins = verdict(metric, p, c, paired)
            flagged |= v == "REGRESSION"
            pq, cq = quartiles(p), quartiles(c)
            print(fmt.format(workload, name, f"{pq[1]:.6g}",
                             f"{pq[2] - pq[0]:.4g}", f"{spread(p):.3f}",
                             f"{cq[1]:.6g}", f"{cq[2] - cq[0]:.4g}",
                             f"{spread(c):.3f}", f"{wins}/{len(paired)}", v))
        p_fail, _ = failures(parent, workload)
        c_fail, c_incorrect = failures(change, workload)
        if c_fail > p_fail or c_incorrect:
            flagged = True
            print(f"{workload}: FAILURES: failed fraction {p_fail:.4f} -> "
                  f"{c_fail:.4f}, {c_incorrect} change runs not correct")
    return 1 if flagged else 0


def main(argv):
    if len(argv) >= 2 and argv[0] in ("--summary", "--baseline"):
        (summary if argv[0] == "--summary" else baseline)(argv[1:])
        return 0
    if len(argv) == 2:
        return compare(*argv)
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
