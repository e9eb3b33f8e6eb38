#!/usr/bin/env python3
"""Runs one workload of the end-to-end Falcon benchmark for a fixed time.

    python3 bench/e2e/run.py --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1] [--size bench|smoke]
                             [--binary PATH]

Builds bench/e2e into build-e2e (unless --binary names a built
falcon_e2e), then runs the workload's catalog of task instances, each in a
fresh process, in an order shuffled by --seed (which also draws each
service_mix batch's submission order). The catalog repeats while the next
task is expected to end within --seconds; the first pass always completes.
A metric's value is its median over an instance's repeats, averaged over
the catalog.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics. --trace 0 reports the end-to-end metrics. --trace 1
reports the per-layer metrics: every traced process is paired with an
untraced one of the same instance, which gives trace_overhead_frac and checks
that tracing leaves the outputs unchanged. Traces are written as Chrome
trace-event JSON to build-e2e/traces/.
"""

import argparse
import json
import os
import random
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BUILD = ROOT / "build-e2e"

# Generator seeds of each workload's task instances. Falcon's learned
# blocking plan swings widely between inputs of one shape (at the bench
# size, products seeds take 0.2-8 s and keep 160-360K candidates), so
# random inputs per run would measure that swing instead of the code. A run
# therefore covers a fixed catalog; --seed only sets the order, and for
# service_mix each batch's submission order and tenants.
CATALOG = {
    "products_spec": list(range(1000, 1008)),
    "songs_zipf": list(range(1000, 1005)),
    "matcher_only": list(range(1000, 1003)),
    "service_mix": [1000],
}
SMOKE_CATALOG = {"products_spec": [1003], "songs_zipf": [1000],
                 "matcher_only": [1000], "service_mix": [1000]}
DEADLINE_S = 170  # every run must end within 180 s


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build():
    """Configures and builds falcon_e2e; returns its path or None."""
    for cmd in (["cmake", "-S", str(HERE), "-B", str(BUILD)],
                ["cmake", "--build", str(BUILD), "-j", str(os.cpu_count() or 1),
                 "--target", "falcon_e2e"]):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log(f"build failed: {' '.join(cmd)}")
            return None
    return BUILD / "falcon_e2e"


def run_task(binary, args, instance, order_seed, trace_path, timeout):
    """Runs one instance in a fresh process; returns (output, error)."""
    cmd = [str(binary), "--workload", args.workload, "--seed", str(instance),
           "--size", args.size]
    if args.workload == "service_mix":
        cmd += ["--order-seed", str(order_seed)]
    if trace_path is not None:
        cmd += ["--trace", str(trace_path)]
    try:
        p = subprocess.run(cmd, capture_output=True, text=True,
                           timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, f"instance {instance} timed out"
    try:
        out = json.loads(p.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return None, (f"instance {instance}: exit {p.returncode}: "
                      f"{p.stderr[-300:]}")
    if p.returncode != 0 or not out["ok"]:
        return None, f"instance {instance}: {out['error'] or p.returncode}"
    return out, None


def trace_is_valid(path):
    try:
        with open(path) as f:
            events = json.load(f)["traceEvents"]
        spans = [e for e in events if e["ph"] == "X"]
        return bool(spans) and all(e["ts"] >= 0 and e["dur"] >= 0
                                   for e in spans)
    except (OSError, ValueError, KeyError, TypeError):
        return False


def aggregate(outputs_by_instance, section):
    """Mean over instances of each metric's median over repeats."""
    per_instance, units = [], {}
    for outputs in outputs_by_instance.values():
        if not outputs:
            continue
        values = {}
        for out in outputs:
            for name, m in out[section].items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
        per_instance.append({n: statistics.median(v)
                             for n, v in values.items()})
    return {name: {"value": statistics.mean(inst[name] for inst in per_instance
                                            if name in inst),
                   "unit": unit} for name, unit in units.items()}


def median_run_wall(outputs):
    return statistics.median(o["end_to_end"]["run_wall_s"]["value"]
                             for o in outputs)


def schedule(order, seconds, start, durations):
    """Yields the catalog pass after pass. The first pass always completes;
    after it, an instance starts only if its last duration still fits in
    `seconds`, and nothing starts after the deadline."""
    first = True
    while True:
        for instance in order:
            elapsed = time.monotonic() - start
            if elapsed >= DEADLINE_S or (
                    not first and elapsed + durations[instance] > seconds):
                return
            yield instance
        first = False


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(CATALOG))
    ap.add_argument("--seed", type=int, default=100)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("bench", "smoke"), default="bench")
    ap.add_argument("--binary", type=Path)
    args = ap.parse_args()
    # Exit through SystemExit on SIGTERM, so the running subprocess call
    # kills and reaps its child before run.py ends.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    binary = args.binary or build()
    if binary is None or not binary.exists():
        return 1
    catalog = (SMOKE_CATALOG if args.size == "smoke" else CATALOG)
    order = list(catalog[args.workload])
    rng = random.Random(args.seed)
    rng.shuffle(order)
    trace_dir = BUILD / "traces"
    if args.trace:
        trace_dir.mkdir(parents=True, exist_ok=True)

    plain = {i: [] for i in order}
    traced = {i: [] for i in order}
    fingerprints = {}
    attempted = failed = 0
    correct = True
    start = time.monotonic()
    durations = {}
    for instance in schedule(order, args.seconds, start, durations):
        began = time.monotonic()
        order_seed = rng.getrandbits(63)
        runs = [(plain, None)]
        if args.trace:
            trace_path = trace_dir / f"{args.workload}-{instance}.json"
            runs.append((traced, trace_path))
        for results, trace_path in runs:
            timeout = DEADLINE_S - (time.monotonic() - start)
            if timeout < 1:
                break
            attempted += 1
            out, err = run_task(binary, args, instance, order_seed,
                                trace_path, timeout)
            if err is not None:
                failed += 1
                log(err)
                continue
            fp = fingerprints.setdefault(instance, out["outputs"]["matches_fp"])
            if out["outputs"]["matches_fp"] != fp:
                correct = False
                log(f"instance {instance}: outputs differ between runs")
            if trace_path is not None and not trace_is_valid(trace_path):
                correct = False
                log(f"instance {instance}: invalid trace {trace_path}")
            results[instance].append(out)
        durations[instance] = time.monotonic() - began

    if args.trace:
        metrics = aggregate(traced, "per_layer")
        overheads = [median_run_wall(traced[i]) / median_run_wall(plain[i]) - 1
                     for i in order if traced[i] and plain[i]]
        if overheads:
            metrics["trace_overhead_frac"] = {
                "value": statistics.mean(overheads), "unit": "ratio"}
    else:
        metrics = aggregate(plain, "end_to_end")
    correct = correct and failed == 0 and bool(metrics)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
