#!/usr/bin/env python3
"""tokyonet's end-to-end benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S
                             --trace 0|1 [--scale X]

Run from anywhere inside a checkout. It builds the driver (Release) under
.bench_build/, checks the figure catalog against the golden files, then
runs the workload as fresh processes, one set-up + timed phase each,
until --seconds have passed. Every output is verified; the last line of
standard output is one JSON object with the metrics BENCHMARK.json
declares: the end-to-end ones with --trace 0, the per-layer ones with
--trace 1. `--workload all` runs every workload in turn and names each
metric `<workload>.<metric>`.
"""
import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
BUILD = ROOT / ".bench_build"
CMAKE_DIR = BUILD / "cmake"
DRIVER = CMAKE_DIR / "perfbench"
WORKLOADS = ("catalog_in_memory", "catalog_out_of_core", "ingest_replay")
MIN_ITERATIONS = 3
MIN_TRACED_ITERATIONS = 4  # two untraced, two traced
BUILD_TIMEOUT_S = 840
STEP_TIMEOUT_S = 150
MIN_COVERAGE = 0.95
# A set-up that lost more than this share of the host's CPU time to
# hypervisor steal is not counted. Steal stalls the program's parallel
# phases at their barriers, so it inflates times far beyond its share.
STEAL_MAX = 0.02


class BenchError(Exception):
    pass


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def run_step(cmd, env=None, timeout=STEP_TIMEOUT_S):
    """Runs cmd to completion and returns its stdout; raises on failure."""
    try:
        proc = subprocess.run([str(c) for c in cmd], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"{Path(str(cmd[0])).name} timed out after "
                         f"{timeout} s") from e
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-4000:] + proc.stderr[-4000:])
        raise BenchError(f"{' '.join(str(c) for c in cmd[:3])} exited "
                         f"{proc.returncode}")
    sys.stderr.write(proc.stderr)
    return proc.stdout


def last_json(stdout):
    lines = stdout.strip().splitlines()
    if not lines:
        raise BenchError("driver printed nothing")
    return json.loads(lines[-1])


def build(threads):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError(f"tokyonet sources not found under {ROOT / 'src'}")
    if not (CMAKE_DIR / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        run_step(["cmake", "-S", BENCH_DIR, "-B", CMAKE_DIR,
                  "-DCMAKE_BUILD_TYPE=Release", *generator],
                 timeout=BUILD_TIMEOUT_S)
    run_step(["cmake", "--build", CMAKE_DIR, "-j", threads],
             timeout=BUILD_TIMEOUT_S)
    cache = (CMAKE_DIR / "CMakeCache.txt").read_text()
    if "CMAKE_BUILD_TYPE:STRING=Release\n" not in cache:
        raise BenchError("the driver build is not Release; remove "
                         f"{CMAKE_DIR} and run again")


def source_digest():
    """sha256 over the sources the driver is built from."""
    h = hashlib.sha256()
    for top in (ROOT / "src", BENCH_DIR):
        for path in sorted(p for p in top.rglob("*") if p.is_file()):
            if "__pycache__" in path.parts:
                continue
            h.update(str(path.relative_to(ROOT)).encode() + b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def scrubbed_env():
    """The environment without any TOKYONET_* knob: each one changes
    what is measured (cache dir, resident shards, shard verification,
    simulator block size, bench scale, thread count)."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("TOKYONET_")}
    dropped = sorted(k for k in os.environ if k.startswith("TOKYONET_"))
    if dropped:
        log(f"ignoring {', '.join(dropped)}")
    return env


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def declared_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["end_to_end"], spec["per_layer"]


def steadiest(iterations, phase):
    """The iterations whose `phase` ("setup" or "run") lost at most
    STEAL_MAX of the host's CPU to steal; when fewer than MIN_ITERATIONS
    qualify, the MIN_ITERATIONS least stolen."""
    ranked = sorted(iterations, key=lambda it: it[f"{phase}_steal"])
    kept = [it for it in ranked if it[f"{phase}_steal"] <= STEAL_MAX]
    return kept if len(kept) >= MIN_ITERATIONS else ranked[:MIN_ITERATIONS]


def samples(iterations):
    """Per-iteration values of every metric, end-to-end or wall-clock,
    with its unit. Times come from the iterations with the least steal."""
    setup = steadiest(iterations, "setup")
    run = steadiest(iterations, "run")
    return {
        "setup_s": ([it["setup_cpu_s"] for it in setup], "s"),
        "run_cpu_s": ([it["cpu_s"] for it in run], "s"),
        "peak_rss_mb": ([it["peak_rss_mb"] for it in iterations], "MB"),
        "store_mb": ([it["store_mb"] for it in iterations
                      if it["store_mb"] > 0], "MB"),
        "records_per_cpu_s": ([it["records"] / it["cpu_s"] for it in run],
                              "records/cpu_s"),
        "wall_setup_s": ([it["setup_s"] for it in setup], "s"),
        "run_s": ([it["run_s"] for it in run], "s"),
        "records_per_s": ([it["records"] / it["run_s"] for it in run],
                          "records/s"),
    }


def run_iterations(workload, args, threads, env, trace_path):
    work = BUILD / "work" / workload
    iterations = []
    start = time.monotonic()
    minimum = MIN_TRACED_ITERATIONS if args.trace else MIN_ITERATIONS
    while len(iterations) < minimum or time.monotonic() - start < args.seconds:
        i = len(iterations)
        traced = args.trace and i % 2 == 1
        cmd = [DRIVER, "run", "--workload", workload, "--seed", args.seed,
               "--scale", repr(args.scale), "--threads", threads,
               "--work", work, "--measure-store", 1 if i == 0 else 0]
        if traced:
            cmd += ["--trace", trace_path]
        it = last_json(run_step(cmd, env=env))
        it["traced"] = traced
        iterations.append(it)
    return iterations


def verify(workload, args, iterations, threads, env):
    """Counts failed renderings/replays. Out of core, every rendering
    must match the in-memory rendering from a separate process; in
    memory, every iteration must match the first."""
    failed = sum(it["failed"] for it in iterations)
    errors = [e for it in iterations for e in it["errors"]]
    if workload == "catalog_out_of_core":
        ref = last_json(run_step(
            [DRIVER, "reference", "--seed", args.seed, "--scale",
             repr(args.scale), "--threads", threads], env=env))["renders"]
    elif workload == "catalog_in_memory":
        ref = iterations[0]["renders"]
    else:
        ref = {}
    for n, it in enumerate(iterations):
        for fig, got in it["renders"].items():
            if got != "error" and got != ref.get(fig):
                failed += 1
                errors.append(f"iteration {n}: {fig} differs from the "
                              "reference rendering")
    return failed, errors


def summarize(workload, iterations):
    """Every metric of samples(): the median, except for peak RSS (see
    README.md), logged with its quartiles."""
    metrics = {}
    for name, (values, unit) in samples(iterations).items():
        q1, q3 = quartiles(values)
        # Peak RSS out of core depends on how the prefetcher's loads and
        # releases interleave: one process peaks near 140 MB, the next
        # near 180 MB, so the median flips between the two.
        low = name == "peak_rss_mb"
        value = q1 if low else statistics.median(values)
        metrics[name] = {"value": value, "unit": unit}
        log(f"{workload:<20} {name:<17} {value:>14.6g} {unit:<13} "
            f"({'lower quartile' if low else 'median'} of {len(values)}; "
            f"quartiles {q1:.6g} .. {q3:.6g}, highest {max(values):.6g})")
    return metrics


def per_layer_metrics(workload, declared, iterations):
    traced = [it for it in iterations if it["traced"]]
    untraced = [it for it in iterations if not it["traced"]]
    traced_run = statistics.median(it["run_s"] for it in traced)
    untraced_run = statistics.median(it["run_s"] for it in untraced)
    derived = {
        "trace.run_s": traced_run,
        "trace.untraced_run_s": untraced_run,
        "trace.overhead_frac": (traced_run - untraced_run) / untraced_run,
    }
    metrics = {}
    for m in declared:
        name = m["name"]
        if name in derived:
            value = derived[name]
        else:
            value = statistics.median(it["layers"].get(name, 0.0)
                                      for it in traced)
        metrics[name] = {"value": value, "unit": m["unit"]}
    coverage = metrics["trace.coverage"]["value"]
    log(f"{workload}: untraced run_s {untraced_run:.4f} s, traced "
        f"{traced_run:.4f} s, overhead "
        f"{100 * derived['trace.overhead_frac']:+.2f} %, span coverage "
        f"{100 * coverage:.2f} % of run_s")
    if coverage < MIN_COVERAGE:
        raise BenchError(f"top-level spans cover only {100 * coverage:.1f} "
                         f"% of run_s on {workload} (want >= "
                         f"{100 * MIN_COVERAGE:.0f} %)")
    return metrics


def run_workload(workload, args, threads, env):
    """Measures one workload; returns (failed, attempted, metrics)."""
    end_to_end, per_layer = declared_metrics()
    trace_path = BUILD / "traces" / f"{workload}-seed{args.seed}.json"
    iterations = run_iterations(workload, args, threads, env, trace_path)
    raw = BUILD / "runs" / f"{workload}-seed{args.seed}-trace{args.trace}.json"
    raw.parent.mkdir(parents=True, exist_ok=True)
    raw.write_text(json.dumps(iterations))
    failed, errors = verify(workload, args, iterations, threads, env)
    for e in errors[:20]:
        log(f"FAILED {e}")
    attempted = sum(it["attempted"] for it in iterations)
    unpinned = iterations[0]["unpinned"]
    if unpinned:
        log(f"registry ids not pinned for {workload} (not rendered): "
            f"{', '.join(unpinned)}")

    conditions = dict(iterations[0]["conditions"])
    conditions.update({
        "seconds": args.seconds, "iterations": len(iterations),
        "traced_iterations": sum(it["traced"] for it in iterations),
        "steal_max": STEAL_MAX,
        "setup_steal": [round(it["setup_steal"], 4) for it in iterations],
        "run_steal": [round(it["run_steal"], 4) for it in iterations],
        "peak_rss": "per process (one iteration each)",
        "commit": commit(), "source_sha256": source_digest(),
        "nproc": threads, "cpu": cpu_model(), "kernel": platform.release(),
    })
    print("perfbench-conditions: " + json.dumps(conditions, sort_keys=True))

    printed = {}
    if args.trace:
        metrics = per_layer_metrics(workload, per_layer, iterations)
        log(f"trace written to {trace_path.relative_to(ROOT)} "
            "(open it in https://ui.perfetto.dev or chrome://tracing)")
    else:
        # The wall-clock figures are printed beside the declared metrics
        # but not declared: host steal moves them far more than the CPU
        # times (see README.md).
        printed = summarize(workload, iterations)
        metrics = {m["name"]: printed[m["name"]] for m in end_to_end}
    log(f"{workload:<20} {'failed_frac':<17} "
        f"{failed / attempted:>14.6g} {'ratio':<13} "
        f"({failed} of {attempted} operations failed)")
    printed = {**metrics, **printed,
               "failed_frac": {"value": failed / attempted, "unit": "ratio"}}
    for name, m in printed.items():
        if not math.isfinite(m["value"]):
            raise BenchError(f"metric {name} is not finite")
        print(f"perfbench-metric: {workload} {name} {m['value']:.9g} "
              f"{m['unit']}")
    return failed, attempted, metrics


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", type=float, default=1.0,
                   help="panel scale (1 = the paper's full panel)")
    args = p.parse_args()
    if args.seed < 0 or args.scale <= 0 or args.seconds < 0:
        p.error("--seed, --scale and --seconds must be non-negative "
                "(--scale positive)")

    threads = len(os.sched_getaffinity(0))
    build(threads)
    env = scrubbed_env()
    run_step([DRIVER, "goldens", "--dir", ROOT / "tests" / "golden"], env=env)

    if args.workload != "all":
        failed, attempted, metrics = run_workload(args.workload, args,
                                                  threads, env)
    else:
        failed, attempted, metrics = 0, 0, {}
        for workload in WORKLOADS:
            f, a, m = run_workload(workload, args, threads, env)
            failed, attempted = failed + f, attempted + a
            metrics.update({f"{workload}.{k}": v for k, v in m.items()})
    print(json.dumps({"correct": failed == 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    try:
        main()
    except BenchError as e:
        log(f"error: {e}")
        sys.exit(1)
