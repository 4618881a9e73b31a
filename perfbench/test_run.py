#!/usr/bin/env python3
"""Self-test of the benchmark's definition and output.

    python3 perfbench/test_run.py            # spec + checker tests
    PERFBENCH_E2E=1 python3 perfbench/test_run.py   # also run it (~1 min)

Checks that BENCHMARK.json is well formed, that run.py's report checker
rejects a report missing a metric, a unit or a sample count, and (with
PERFBENCH_E2E=1) that a short real run of each mode ends with a JSON line
naming every metric of its mode with its unit, backed by a saved report
that gives every metric a sample count.
"""

import json
import os
import re
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def fake_report(metrics):
    return {"schema": run.SCHEMA, "workload": "sweep-short", "seed": 1,
            "host_cores": 4, "workers": 4, "batches": 2,
            "jobs_per_batch": 3, "submitted": 6, "failed": 0,
            "tail_percentile": 95, "jobs": [], "failures": [],
            "metrics": {m["name"]: {"value": 1.5, "unit": m["unit"],
                                    "samples": 3} for m in metrics}}


class SpecTest(unittest.TestCase):
    def test_keys_and_limits(self):
        self.assertEqual(set(SPEC), {"command", "paths", "run_seconds",
                                     "workloads", "end_to_end", "per_layer"})
        self.assertTrue(1 <= SPEC["run_seconds"] <= 60)
        self.assertTrue(2 <= len(SPEC["workloads"]) <= 8)
        names = []
        for w in SPEC["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
            names.append(w["name"])
        for m in SPEC["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25)
            names.append(m["name"])
        for m in SPEC["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
            names.append(m["name"])
        for m in SPEC["end_to_end"] + SPEC["per_layer"]:
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("higher", "lower"))
        for n in names:
            self.assertRegex(n, NAME)
        self.assertEqual(len(names), len(set(names)))

    def test_setup_has_the_largest_bound(self):
        setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]),
                         ("s", "lower"))
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in SPEC["end_to_end"]))

    def test_workloads_match_the_driver(self):
        source = (HERE / "jobs.cpp").read_text()
        for w in SPEC["workloads"]:
            self.assertIn(f'"{w["name"]}"', source)


class CheckerTest(unittest.TestCase):
    def test_complete_report_passes(self):
        for mode in ("end_to_end", "per_layer"):
            self.assertEqual(
                run.check_report(fake_report(SPEC[mode]), SPEC[mode]), [])

    def test_missing_metric_unit_or_samples_fail(self):
        expected = SPEC["end_to_end"]
        report = fake_report(expected)
        del report["metrics"]["setup_s"]
        report["metrics"]["job_ms_p50"]["unit"] = "s"
        report["metrics"]["sim_cycles"]["samples"] = 0
        report["metrics"]["jobs_per_s"]["value"] = float("nan")
        problems = "\n".join(run.check_report(report, expected))
        for needle in ("setup_s missing", "job_ms_p50 has unit",
                       "sim_cycles has no sample count",
                       "jobs_per_s has no finite value"):
            self.assertIn(needle, problems)

    def test_result_line_has_exactly_the_contract_keys(self):
        expected = SPEC["end_to_end"]
        line = json.loads(run.result_line(fake_report(expected), expected,
                                          True))
        self.assertEqual(set(line), {"correct", "attempted", "failed",
                                     "metrics"})
        self.assertEqual(list(line["metrics"]),
                         [m["name"] for m in expected])


@unittest.skipUnless(os.environ.get("PERFBENCH_E2E"), "set PERFBENCH_E2E=1")
class EndToEndTest(unittest.TestCase):
    def run_mode(self, trace):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload",
             "sweep-short", "--seed", "3", "--seconds", "1", "--trace",
             str(trace)], cwd=ROOT, stdout=subprocess.PIPE, text=True,
            timeout=900)
        self.assertEqual(proc.returncode, 0)
        line = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertTrue(line["correct"])
        self.assertGreaterEqual(line["attempted"], 1)
        self.assertEqual(line["failed"], 0)
        expected = SPEC["per_layer" if trace else "end_to_end"]
        self.assertEqual(set(line["metrics"]), {m["name"] for m in expected})
        for m in expected:
            self.assertEqual(line["metrics"][m["name"]]["unit"], m["unit"])
        build = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
        saved = json.loads((build / "perfbench" / "results" /
                            f"sweep-short-seed3-trace{trace}.json")
                           .read_text())
        self.assertEqual(run.check_report(saved, expected), [])

    def test_untraced(self):
        self.run_mode(0)

    def test_traced(self):
        self.run_mode(1)


if __name__ == "__main__":
    unittest.main()
