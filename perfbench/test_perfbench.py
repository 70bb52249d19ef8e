#!/usr/bin/env python3
"""Self-tests of the repository benchmark.

    python3 perfbench/test_perfbench.py [-v]

Checks that
  - the driver reports exactly the metrics BENCHMARK.json declares, with the
    same units, and a clean run has fail_ratio 0;
  - a planted swapped pairing and a planted dropped completion each drive
    fail_ratio above 0 (the checks behind ok_ratio can fail);
  - modeled_msgs_per_s repeats bit for bit, and equals what
    fig8_message_rate (optimistic_wc_fp, storm_8B_coalesced) and replay_soak
    (replay_bigfft_r1024) report for the same settings;
  - in a directory holding only BENCHMARK.json and perfbench/, run.py exits
    non-zero without printing a result.
Takes about two minutes; builds under .bench_build/ like run.py.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
    SPEC = json.load(f)


def driver(workload, seed=0, seconds=1, trace=0, plant=None):
    extra = ["--plant", plant] if plant else []
    code, result = run.run_driver(workload, seed, seconds, trace, extra)
    if code != 0 or result is None:
        raise AssertionError("driver failed on %s" % workload)
    return result


def metric(result, name):
    return result["metrics"][name]["value"]


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        if not run.build(("otm_perfbench", "fig8_message_rate", "replay_soak")):
            raise RuntimeError("build failed")

    def test_spec_is_within_contract(self):
        self.assertEqual(set(SPEC), {"command", "paths", "run_seconds", "workloads",
                                     "end_to_end", "per_layer"})
        self.assertTrue(1 <= SPEC["run_seconds"] <= 60)
        self.assertEqual(sorted(w["name"] for w in SPEC["workloads"]),
                         sorted(run.WORKLOADS))
        name_re = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
        unit_re = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
        names = [w["name"] for w in SPEC["workloads"]]
        for w in SPEC["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200, w["name"])
            self.assertNotIn("\n", w["why"])
        for m in SPEC["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25, m["name"])
        for m in SPEC["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        for m in SPEC["end_to_end"] + SPEC["per_layer"]:
            names.append(m["name"])
            self.assertRegex(m["name"], name_re)
            self.assertRegex(m["unit"], unit_re)
            self.assertIn(m["better"], ("higher", "lower"))
        self.assertEqual(len(names), len(set(names)))
        setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup[0]["bound"], max(m["bound"] for m in SPEC["end_to_end"]))

    def check_names_and_units(self, result, declared):
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        self.assertEqual(got, {m["name"]: m["unit"] for m in declared})

    def test_every_workload_reports_declared_metrics_and_no_failures(self):
        for workload in run.WORKLOADS + run.UNLISTED:
            with self.subTest(workload=workload):
                r = driver(workload, seed=1)
                self.check_names_and_units(r, SPEC["end_to_end"])
                self.assertTrue(r["correct"])
                self.assertGreaterEqual(r["attempted"], 1)
                self.assertEqual(r["failed"], 0)
                self.assertEqual(metric(r, "ok_ratio"), 1.0)
                for m in SPEC["end_to_end"]:
                    self.assertGreater(metric(r, m["name"]), 0.0, m["name"])

    def test_traced_run_reports_declared_per_layer_metrics(self):
        for workload in run.WORKLOADS + run.UNLISTED:
            with self.subTest(workload=workload):
                r = driver(workload, seconds=2, trace=1)
                self.check_names_and_units(r, SPEC["per_layer"])
                self.assertTrue(r["correct"])
                self.assertGreater(metric(r, "bench.trace_overhead"), 0.0)
                spans = os.path.join(run.SPANS, "%s-seed0.json" % workload)
                with open(spans, encoding="utf-8") as f:
                    self.assertTrue(json.load(f)["traceEvents"])
                if workload == "pingpong_wc":
                    self.assertEqual(metric(r, "dpa.host_match_cycles_per_msg"), 0.0)
                    self.assertEqual(metric(r, "proto.crc_bytes_per_msg"), 0.0)
                    self.assertAlmostEqual(metric(r, "core.conflicts_per_msg"), 0.96)
                    self.assertGreater(metric(r, "dpa.deliver_ns_per_msg"), 0.0)

    def test_planted_failures_raise_fail_ratio(self):
        for workload in ("pingpong_wc", "storm_8b_coalesced"):
            for plant in ("swap", "drop"):
                with self.subTest(workload=workload, plant=plant):
                    r = driver(workload, plant=plant)
                    self.assertFalse(r["correct"])
                    self.assertGreater(r["failed"], 0)
                    self.assertLess(metric(r, "ok_ratio"), 1.0)

    def test_modeled_rate_is_bit_identical_across_runs(self):
        for workload in ("pingpong_wc", "storm_8b_coalesced"):
            a = metric(driver(workload, seed=7), "modeled_msgs_per_s")
            b = metric(driver(workload, seed=7), "modeled_msgs_per_s")
            self.assertEqual(a.hex(), b.hex(), workload)

    def reference_rates(self, bench, args):
        with tempfile.TemporaryDirectory(dir=os.path.dirname(run.BUILD)) as tmp:
            out = os.path.join(tmp, "out.json")
            subprocess.run([os.path.join(run.BUILD, bench), "--json=" + out, *args],
                           check=True, stdout=subprocess.DEVNULL)
            with open(out, encoding="utf-8") as f:
                doc = json.load(f)
        return {s["name"]: s["msgs_per_sec"] for s in doc["scenarios"]}

    def test_modeled_rate_matches_fig8_and_replay_soak(self):
        fig8 = self.reference_rates("fig8_message_rate", [])
        self.assertEqual(metric(driver("pingpong_wc"), "modeled_msgs_per_s"),
                         fig8["optimistic_wc_fp"])
        self.assertEqual(metric(driver("storm_8b_coalesced", seed=0),
                                "modeled_msgs_per_s"),
                         fig8["storm_8B_coalesced"])
        soak = self.reference_rates("replay_soak", ["--seed=3"])
        self.assertEqual(metric(driver("replay_bigfft_r1024", seed=3),
                                "modeled_msgs_per_s"),
                         soak["replay_bigfft_r1024"])

    def test_refuses_without_program_sources(self):
        with tempfile.TemporaryDirectory(dir=os.path.dirname(run.BUILD)) as tmp:
            shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(run.HERE, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            res = subprocess.run(
                ["python3", "perfbench/run.py", "--workload", "pingpong_wc",
                 "--seed", "0", "--seconds", "1", "--trace", "0"],
                cwd=tmp, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                text=True, timeout=180)
            self.assertNotEqual(res.returncode, 0)
            self.assertEqual(res.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
