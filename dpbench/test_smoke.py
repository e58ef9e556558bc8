#!/usr/bin/env python3
"""Smoke test of the benchmark: a one-second run of every workload, untraced
and traced, checked against BENCHMARK.json and the report contract in
dpbench/README.md; plus the check that the benchmark refuses to report when
the library sources are missing.

    python3 dpbench/test_smoke.py
"""

import json
import os
import re
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True
import run  # noqa: E402  (the metric tables of run.py)

METRIC_LINE = re.compile(
    r"^metric (\S+)\s+= (\S+)\s+(\S+)\s+\(n=(\d+)\)(.*)$")


def bench(workload, trace, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "dpbench", "run.py"),
         "--workload", workload, "--seed", "7", "--seconds", "1",
         "--trace", str(trace)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, cwd=cwd,
        universal_newlines=True, timeout=900)
    return proc


class Smoke(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.contract = json.load(f)
        cls.runs = {(w, t): bench(w, t)
                    for w in run.WORKLOADS for t in (0, 1)}

    def result(self, proc):
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(sorted(result),
                         ["attempted", "correct", "failed", "metrics"])
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        return result

    def report_metrics(self, proc):
        found = {}
        for line in proc.stdout.splitlines():
            m = METRIC_LINE.match(line)
            if m:
                self.assertNotIn(m.group(1), found, "printed twice")
                found[m.group(1)] = (m.group(3), int(m.group(4)))
        return found

    def test_contract_matches_run_tables(self):
        names = [m["name"] for m in self.contract["end_to_end"]]
        self.assertEqual(names, list(run.E2E))
        for m in self.contract["end_to_end"]:
            self.assertEqual(m["unit"], run.E2E[m["name"]][0])
        self.assertEqual([m["name"] for m in self.contract["per_layer"]],
                         list(run.PER_LAYER))
        for m in self.contract["per_layer"]:
            self.assertEqual(m["unit"], run.PER_LAYER[m["name"]][0])
        self.assertEqual([w["name"] for w in self.contract["workloads"]],
                         list(run.WORKLOADS))

    def test_result_lines_carry_contract_metrics(self):
        for (workload, trace), proc in self.runs.items():
            with self.subTest(workload=workload, trace=trace):
                result = self.result(proc)
                key = "per_layer" if trace else "end_to_end"
                want = {m["name"]: m["unit"] for m in self.contract[key]}
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                self.assertEqual(got, want)
                for name, m in result["metrics"].items():
                    self.assertIsInstance(m["value"], (int, float), name)
                if not trace:
                    for name, m in result["metrics"].items():
                        self.assertGreater(m["value"], 0, name)

    def test_report_prints_every_metric_once_with_unit(self):
        for (workload, trace), proc in self.runs.items():
            with self.subTest(workload=workload, trace=trace):
                found = self.report_metrics(proc)
                kind = run.kind(workload)
                expected = run.REPORT_E2E[kind] + run.REPORT_E2E["all"]
                if trace:
                    expected += list(run.PER_LAYER)
                for name in expected:
                    self.assertIn(name, found)
                    self.assertTrue(found[name][0], name + " has no unit")
                for name, (unit, applies) in run.PER_LAYER.items():
                    if trace and applies in ("all", kind):
                        self.assertGreater(found[name][1], 0, name)

    def test_gates_pass_and_provenance_printed(self):
        for (workload, trace), proc in self.runs.items():
            with self.subTest(workload=workload, trace=trace):
                gates = [l for l in proc.stdout.splitlines()
                         if l.startswith("gate ")]
                self.assertTrue(gates)
                self.assertFalse([g for g in gates if " FAIL " in g])
                provenance = [l for l in proc.stdout.splitlines()
                              if l.startswith("provenance ")]
                self.assertEqual(len(provenance), 1)
                for key in ("nproc=", "simd_level=", "wave_exec=",
                            "intraop_threads=", "build_type=", "compiler=",
                            "git_revision=", "seed=", "dpipe_env="):
                    self.assertIn(key, provenance[0])
        self.assertTrue(os.path.exists(os.path.join(
            run.TRACE_DIR, "plan_mix-seed7.json")))

    def test_refuses_without_library_sources(self):
        # A tree holding only BENCHMARK.json and the benchmark directory
        # cannot build the library: no result line, non-zero exit.
        isolated = os.path.join(run.ROOT, ".bench_build", "isolated")
        shutil.rmtree(isolated, ignore_errors=True)
        os.makedirs(isolated)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), isolated)
        shutil.copytree(HERE, os.path.join(isolated, "dpbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench("plan_mix", 0, cwd=isolated)
        self.assertNotEqual(proc.returncode, 0)
        self.assertFalse([l for l in proc.stdout.splitlines()
                          if l.startswith("{")])
        shutil.rmtree(isolated)


if __name__ == "__main__":
    unittest.main()
