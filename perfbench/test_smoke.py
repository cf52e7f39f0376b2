#!/usr/bin/env python3
"""Self-test of the benchmark at a small panel scale.

    python3 perfbench/test_smoke.py

Runs every workload once untraced and once traced at scale 0.05 and
checks the result line against BENCHMARK.json: every declared metric is
emitted, finite, carries its declared unit and a well-formed name, and
nothing failed. The traced run must also leave a Chrome trace whose
top-level spans cover at least 95 % of the timed phase, and the
out-of-core figures must make 30 store passes of one load per shard.
"""
import json
import math
import re
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCALE = "0.05"
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(workload, trace, seed=7):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", "0", "--trace",
         str(trace), "--scale", SCALE],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise AssertionError(f"run.py exited {proc.returncode}:\n"
                             f"{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


class SmokeTest(unittest.TestCase):
    def check_result(self, result, declared):
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        self.assertEqual(set(result["metrics"]), {m["name"] for m in declared})
        for m in declared:
            got = result["metrics"][m["name"]]
            self.assertRegex(m["name"], NAME)
            self.assertRegex(m["unit"], UNIT)
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])
            self.assertTrue(math.isfinite(got["value"]), m["name"])

    def test_untraced(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                result = bench(workload, 0)
                self.check_result(result, SPEC["end_to_end"])
                for name, m in result["metrics"].items():
                    self.assertGreater(m["value"], 0, name)

    def test_traced(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                result = bench(workload, 1)
                self.check_result(result, SPEC["per_layer"])
                layer = {k: v["value"] for k, v in result["metrics"].items()}
                self.assertGreaterEqual(layer["trace.coverage"], 0.95)
                self.assertLessEqual(layer["trace.coverage"], 1.0 + 1e-9)
                if workload == "catalog_out_of_core":
                    # The pinned figures make 30 store passes, each
                    # loading every shard once.
                    self.assertEqual(layer["query.passes"], 30)
                    self.assertEqual(layer["query.blocks"],
                                     30 * layer["io.store_shards"])
                trace = (ROOT / ".bench_build" / "traces" /
                         f"{workload}-seed7.json")
                events = json.loads(trace.read_text())["traceEvents"]
                self.assertTrue(events)
                self.assertTrue(all(e["ph"] == "X" and e["dur"] >= 0
                                    for e in events))

    def test_all_workloads_in_one_command(self):
        result = bench("all", 0)
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertEqual(set(result["metrics"]),
                         {f"{w}.{m['name']}" for w in WORKLOADS
                          for m in SPEC["end_to_end"]})

    def test_unknown_workload_fails(self):
        proc = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
             "nope", "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=60)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
