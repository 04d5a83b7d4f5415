#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/test_perfbench.py

Builds the benchmark (as run.py does), runs the quantile unit tests, and
proves each output check live: a short clean run must report no failure,
and a run with one checked value corrupted must report failures.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

BINARY = None


def short_run(workload, corrupt=None, trace=0):
    with tempfile.TemporaryDirectory(dir=os.path.dirname(run.BUILD)) as tmp:
        cmd = [BINARY, "--workload", workload, "--seed", "5", "--seconds", "2",
               "--trace", str(trace), "--tmp", tmp]
        if corrupt:
            cmd += ["--corrupt", corrupt]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


class QuantileTest(unittest.TestCase):
    def test_unit(self):
        exe = os.path.join(run.BUILD, "perfbench_unit_test")
        proc = subprocess.run([exe], capture_output=True, text=True)
        self.assertEqual(proc.returncode, 0, proc.stderr)


class ChecksTest(unittest.TestCase):
    def test_clean_run_has_no_failures(self):
        r = short_run("rpc")
        self.assertGreater(r["attempted"], 0)
        self.assertEqual(r["failed"], 0)
        self.assertEqual(r["metrics"]["ok_ratio"], 1.0)

    def assert_caught(self, corrupt):
        r = short_run("rpc", corrupt)
        self.assertGreater(r["failed"], 0, corrupt)
        self.assertLess(r["metrics"]["ok_ratio"], 1.0, corrupt)

    def test_wrong_reply(self):
        self.assert_caught("reply")

    def test_missing_storm_hit(self):
        self.assert_caught("hits")

    def test_wrong_convolution_checksum(self):
        self.assert_caught("checksum")

    def test_wrong_hop_total(self):
        self.assert_caught("hops")

    def test_rank_exit_fails_its_phase(self):
        self.assert_caught("rank_exit")

    def test_traced_run_reports_every_per_layer_metric(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        r = short_run("apps", trace=1)
        self.assertEqual(r["failed"], 0)
        for m in spec["per_layer"]:
            self.assertIn(m["name"], r["metrics"])


if __name__ == "__main__":
    BINARY = run.build()
    unittest.main()
