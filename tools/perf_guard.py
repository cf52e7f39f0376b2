#!/usr/bin/env python3
"""End-to-end regression guard: a parent checkout against a change.

    tools/perf_guard.py PARENT_DIR CHANGE_DIR

Runs each checkout's own, unmodified perfbench/run.py on this machine,
PAIRS times per side, alternating which side goes first: once untraced
(the end-to-end rows) and once traced (the per-layer rows). Prints one
line per (workload, metric) with both medians, their ratio and the
verdict, and exits 1 when, for some workload,

  * an end-to-end metric that BENCHMARK.json declares is worse at the
    change than at the parent by more than that metric's `bound`, or a
    larger share of the workload's operations failed; or
  * a per-layer time row grew by more than LAYER_RATIO (medians), and
    the change was slower than the parent in at least
    LAYER_MIN_SLOWER_PAIRS of the PAIRS alternating pairs. Rows in
    RESIDUAL_ROWS are printed but not judged.

Both sides run on the same machine one after the other, so there is no
committed baseline to drift from. A run.py that fails (a golden
mismatch, a build error) fails the guard too.
"""
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

# Runs per side. Alternating the order cancels drift on the host, and
# the median of five runs stays well inside the 25 % end-to-end bounds
# when nothing changed; the whole guard, both builds included, takes
# about six minutes on a 4-vCPU host (EXPERIMENTS.md), leaving room
# for a slower CI runner inside half an hour.
PAIRS = 5
# run.py's minimum per run: three untraced and four traced iterations
# per workload. The repetitions that matter are the pairs.
SECONDS = 0
# The scale BENCHMARK.json's rows are measured at: the paper's panel.
SCALE = 1.0
# A per-layer time row fails when its change median exceeds the
# parent's by this factor. A doubled figure block scan crosses it. A
# doubled shard validation does not: validation is a third or less of
# io.load_shard_s (open, mapping and first touch are the rest), so
# doubling it grows that row by 1.3-1.5x, and catalog_out_of_core
# run_cpu_s by 10-28 %. No lower factor tells it from noise: leaving
# RESIDUAL_ROWS out, the largest row that met the two rules below read
# 1.165x in the mildest of five injected runs, and 1.171x in one of
# four runs between identical checkouts (EXPERIMENTS.md).
LAYER_RATIO = 1.5
# ...and by at least this many seconds: a row of a millisecond or less
# can move by more than LAYER_RATIO from one preemption alone.
LAYER_MIN_GROWTH_S = 0.002
# ...and the change must be slower in at least this many of the PAIRS
# pairs (each pair runs both sides back to back). A median can cross
# LAYER_RATIO on two slow runs of one side; a layer whose work really
# grew is slower in nearly every pair (EXPERIMENTS.md).
LAYER_MIN_SLOWER_PAIRS = 4
# Per-layer rows that perfbench derives as a difference of other rows
# rather than timing a layer's own work. query.load_wait_s is a pass
# minus its scans and folds: a change that makes scans cheaper grows
# it, because its passes then wait on the shard loads the scans used to
# hide, so judging it would fail changes for speeding up scans.
RESIDUAL_ROWS = {"query.load_wait_s"}


def log(msg):
    print(f"perf_guard: {msg}", file=sys.stderr, flush=True)


def run_perfbench(checkout, seed, trace):
    """{(workload, metric): value} from the perfbench-metric lines of one
    run.py invocation in `checkout`."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", "all",
           "--seed", str(seed), "--seconds", str(SECONDS),
           "--trace", str(trace), "--scale", str(SCALE)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise RuntimeError(f"{' '.join(cmd[1:])} exited {proc.returncode} "
                           f"in {checkout}")
    metrics = {}
    for line in proc.stdout.splitlines():
        if line.startswith("perfbench-metric: "):
            workload, name, value, _unit = line.split()[1:]
            metrics[(workload, name)] = float(value)
    return metrics


def collect(sides):
    """{side: {trace: [metrics of each run]}} over PAIRS alternating pairs."""
    runs = {side: {0: [], 1: []} for side in sides}
    for pair in range(PAIRS):
        order = (("parent", "change") if pair % 2 == 0
                 else ("change", "parent"))
        for trace in (0, 1):
            for side in order:
                start = time.monotonic()
                runs[side][trace].append(
                    run_perfbench(sides[side], pair + 1, trace))
                log(f"pair {pair + 1}/{PAIRS}: {side} --trace {trace} "
                    f"(seed {pair + 1}) {time.monotonic() - start:.0f} s")
    return runs


def median(runs, key):
    return statistics.median(r.get(key, 0.0) for r in runs)


def report(key, parent, change, verdict, unit="s"):
    ratio = f"{change / parent:7.3f}" if parent else "      -"
    print(f"{key[0]:<20} {key[1]:<34} parent {parent:12.6g} {unit:<13} "
          f"change {change:12.6g} {unit:<13} ratio {ratio}  {verdict}")
    return not verdict.startswith("ok")


def judge(spec, runs):
    """Prints every row; returns the number of failing rows."""
    failures = 0
    parent, change = runs["parent"], runs["change"]
    names = {side: {w for r in runs[side][0] for (w, _) in r}
             for side in runs}
    for workload in sorted(names["change"] - names["parent"]):
        log(f"{workload}: new at the change, nothing to compare")
    for workload in sorted(names["change"] & names["parent"]):
        for m in spec["end_to_end"]:
            key = (workload, m["name"])
            p, c = median(parent[0], key), median(change[0], key)
            worse = (c - p) / p if m["better"] == "lower" else (p - c) / p
            verdict = (f"WORSE by {100 * worse:.1f} % (bound "
                       f"{100 * m['bound']:.0f} %)"
                       if worse > m["bound"] else "ok")
            failures += report(key, p, c, verdict, m["unit"])
        # Mean, not median: one failed operation in one run must count.
        key = (workload, "failed_frac")
        p, c = (statistics.mean(r[key] for r in parent[0] + parent[1]),
                statistics.mean(r[key] for r in change[0] + change[1]))
        failures += report(key, p, c, "MORE FAILED" if c > p else "ok",
                           "ratio")
        for m in spec["per_layer"]:
            if m["unit"] != "s" or m["name"].startswith("trace."):
                continue  # counts, and the tracer's own overhead rows
            key = (workload, m["name"])
            p, c = median(parent[1], key), median(change[1], key)
            if p == 0 and c == 0:
                continue  # a layer this workload does not run
            slower = sum(cr.get(key, 0.0) > pr.get(key, 0.0)
                         for pr, cr in zip(parent[1], change[1]))
            grew = c > LAYER_RATIO * p and c - p > LAYER_MIN_GROWTH_S
            if m["name"] in RESIDUAL_ROWS:
                verdict = "ok (residual, not judged)"
            elif grew and slower >= LAYER_MIN_SLOWER_PAIRS:
                verdict = (f"GREW past {LAYER_RATIO}x, slower in "
                           f"{slower}/{PAIRS} pairs")
            elif grew:
                verdict = (f"ok (past {LAYER_RATIO}x but slower in only "
                           f"{slower}/{PAIRS} pairs)")
            else:
                verdict = "ok"
            failures += report(key, p, c, verdict)
    return failures


def main():
    if len(sys.argv) != 3:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    sides = {"parent": Path(sys.argv[1]).resolve(),
             "change": Path(sys.argv[2]).resolve()}
    for side, path in sides.items():
        if not (path / "perfbench" / "run.py").is_file():
            print(f"perf_guard: {side} checkout {path} has no "
                  "perfbench/run.py", file=sys.stderr)
            return 2
    spec = json.loads((sides["change"] / "BENCHMARK.json").read_text())
    start = time.monotonic()
    try:
        runs = collect(sides)
    except RuntimeError as e:
        log(f"FAILED: {e}")
        return 1
    failures = judge(spec, runs)
    log(f"{2 * PAIRS} runs per side in {time.monotonic() - start:.0f} s")
    if failures:
        log(f"FAILED: {failures} row(s) regressed")
        return 1
    log("OK: no end-to-end or per-layer row regressed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
