#!/usr/bin/env python3
"""Tests of the end-to-end benchmark itself.

Run from the repository root:

    python3 -m unittest discover -s perfbench/tests -v

Each test drives perfbench/run.py at --scale tiny (a few MB per session),
so the whole file takes well under a minute once the binary is built.
"""

import csv
import json
import math
import os
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
BUILD_DIR = ROOT / (os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def run_bench(workload, trace, *extra, cwd=ROOT):
    command = [sys.executable, str(Path(cwd) / "perfbench" / "run.py"),
               "--workload", workload, "--seed", "7", "--seconds", "1",
               "--trace", str(trace), "--scale", "tiny", *extra]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True,
                          timeout=600)


def result_of(done):
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])


class MetricsEmitted(unittest.TestCase):
    """Every named metric, with its unit, on every workload."""

    def check(self, workload, trace):
        done = run_bench(workload, trace)
        self.assertEqual(done.returncode, 0, done.stderr)
        result, context = result_of(done)
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], context["failures"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        expected = SPEC["per_layer" if trace else "end_to_end"]
        self.assertEqual(set(result["metrics"]), {m["name"] for m in expected})
        for metric in expected:
            emitted = result["metrics"][metric["name"]]
            self.assertEqual(emitted["unit"], metric["unit"], metric["name"])
            self.assertTrue(math.isfinite(emitted["value"]), metric["name"])
        host = context["host"]
        for fact in ("nproc", "cpu_model", "worker_threads", "hash_impl"):
            self.assertIn(fact, host)
        self.assertEqual(set(host["hash_impl"]), {"rabin96", "md5", "sha1"})
        return result

    def test_end_to_end_metrics(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                metrics = self.check(workload, 0)["metrics"]
                for name in ("setup_s", "backup_mb_s", "restore_mb_s",
                             "dedup_ratio", "cloud_cost_usd_month"):
                    self.assertGreater(metrics[name]["value"], 0, name)

    def test_per_layer_metrics(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                metrics = self.check(workload, 1)["metrics"]
                share = {m: metrics[f"layer.{m}.share_pct"]["value"]
                         for m in ("chunk", "hash", "restore")}
                if workload == "restore":
                    # Structural: the replay's restore opens no chunk or
                    # hash span. The scheme's own restore cost is compared
                    # with the replay's by restore.insitu_overhead_ratio.
                    self.assertEqual(share["chunk"], 0)
                    self.assertEqual(share["hash"], 0)
                    self.assertGreater(share["restore"], 0)
                    self.assertGreater(
                        metrics["restore.insitu_overhead_ratio"]["value"], 0)
                else:
                    self.assertGreater(share["chunk"], 0)
                    self.assertGreater(share["hash"], 0)
                    self.assertEqual(share["restore"], 0)


class Verification(unittest.TestCase):
    """A byte flipped in a stored container must surface as a failure."""

    def test_corrupt_container_is_a_failure(self):
        for workload, trace in (("restore", 0), ("pc_weekly", 0),
                                ("docs_cdc", 1)):
            with self.subTest(workload=workload, trace=trace):
                done = run_bench(workload, trace, "--corrupt-container")
                self.assertEqual(done.returncode, 0, done.stderr)
                result, context = result_of(done)
                self.assertFalse(result["correct"])
                self.assertGreaterEqual(result["failed"], 1)
                self.assertTrue(context["failures"])


class TraceFile(unittest.TestCase):
    """The traced run writes its spans; self time is derivable from them."""

    def test_spans_nest_and_cover_every_layer(self):
        done = run_bench("pc_weekly", 1)
        self.assertEqual(done.returncode, 0, done.stderr)
        path = BUILD_DIR / "traces" / "pc_weekly-seed7.tsv"
        rows = [line for line in path.read_text().splitlines()
                if not line.startswith("#")]
        spans = list(csv.DictReader(rows, delimiter="\t"))
        self.assertTrue(spans)
        child_ns = {}
        for span in spans:
            start, end = int(span["start_ns"]), int(span["end_ns"])
            self.assertGreaterEqual(end, start)
            if span["parent"] != "-1":
                key = (span["track"], span["parent"])
                child_ns[key] = child_ns.get(key, 0) + end - start
        self_ns = {}
        for span in spans:
            duration = int(span["end_ns"]) - int(span["start_ns"])
            own = duration - child_ns.get((span["track"], span["index"]), 0)
            self.assertGreaterEqual(own, 0, span)
            self_ns[span["layer"]] = self_ns.get(span["layer"], 0) + own
        self.assertEqual(set(self_ns),
                         {"core", "dataset", "chunk", "hash", "index",
                          "container", "upload", "cloud", "recipe",
                          "restore"})


class Standalone(unittest.TestCase):
    """Without the library sources the benchmark fails without a result."""

    def test_fails_without_sources(self):
        scratch = BUILD_DIR / "standalone"
        shutil.rmtree(scratch, ignore_errors=True)
        scratch.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", scratch)
        shutil.copytree(BENCH_DIR, scratch / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        env = dict(os.environ)
        env.pop("CARGO_TARGET_DIR", None)  # build inside the bare copy
        try:
            done = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 "pc_weekly", "--seed", "1", "--seconds", "1", "--trace",
                 "0"], cwd=scratch, capture_output=True, text=True,
                timeout=180, env=env)
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
        self.assertNotEqual(done.returncode, 0)
        self.assertEqual(done.stdout, "")


if __name__ == "__main__":
    unittest.main()
