#!/usr/bin/env python3
"""Checks BENCHMARK.json against its format rules and against the program.

    python3 -m unittest discover -s pipebench/tests

The program comparison needs a built pipebench binary ($CARGO_TARGET_DIR
or .bench_build); it is skipped when there is none.
"""

import importlib.util
import json
import os
import re
import subprocess
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH_DIR = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH_DIR)
BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
PATH = re.compile(r"[A-Za-z0-9_./-]{1,200}")


def load_text():
    with open(BENCHMARK) as f:
        return f.read()


def binary_path():
    build = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    path = os.path.join(ROOT, build, "pipebench")
    return path if os.access(path, os.X_OK) else None


class BenchmarkJsonTest(unittest.TestCase):
    def setUp(self):
        self.text = load_text()
        self.bench = json.loads(self.text)

    def test_round_trip(self):
        again = json.loads(json.dumps(self.bench, indent=2))
        self.assertEqual(again, self.bench)
        self.assertLessEqual(len(self.text.encode()), 64 * 1024)

    def test_contract_shape(self):
        b = self.bench
        self.assertEqual(set(b), {"command", "paths", "run_seconds",
                                  "workloads", "end_to_end", "per_layer"})
        self.assertTrue(1 <= len(b["command"]) <= 32)
        for arg in b["command"]:
            self.assertLessEqual(len(arg), 200)
            self.assertFalse(arg.startswith("/"))
            self.assertNotIn("..", arg.split("/"))
        self.assertTrue(1 <= len(b["paths"]) <= 16)
        for path in b["paths"]:
            self.assertRegex(path, PATH)
            self.assertTrue(os.path.isdir(os.path.join(ROOT, path)))
        # The command names no repository file outside the paths.
        script = b["command"][1]
        self.assertTrue(any(script.startswith(p + "/") for p in b["paths"]))
        self.assertIsInstance(b["run_seconds"], int)
        self.assertTrue(1 <= b["run_seconds"] <= 60)

    def test_names_units_and_bounds(self):
        b = self.bench
        self.assertTrue(2 <= len(b["workloads"]) <= 8)
        self.assertTrue(1 <= len(b["end_to_end"]) <= 16)
        self.assertTrue(1 <= len(b["per_layer"]) <= 128)
        names = []
        for w in b["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertTrue(NAME.fullmatch(w["name"]), w["name"])
            self.assertLessEqual(len(w["why"]), 200)
            self.assertNotIn("\n", w["why"])
            names.append(w["name"])
        for m in b["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25, m)
        for m in b["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        for m in b["end_to_end"] + b["per_layer"]:
            self.assertTrue(NAME.fullmatch(m["name"]), m["name"])
            self.assertTrue(METRIC_NAME.fullmatch(m["name"]), m["name"])
            self.assertTrue(UNIT.fullmatch(m["unit"]), m["unit"])
            self.assertIn(m["better"], ("lower", "higher"))
            names.append(m["name"])
        self.assertEqual(len(names), len(set(names)))
        setup = [m for m in b["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]),
                         ("s", "lower"))
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in b["end_to_end"]))

    def test_run_py_knows_every_workload(self):
        spec = importlib.util.spec_from_file_location(
            "pipebench_run", os.path.join(BENCH_DIR, "run.py"))
        run = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(run)
        for w in self.bench["workloads"]:
            self.assertIn(w["name"], run.DEFAULT_SEEDS)

    def test_program_declares_the_same_metrics(self):
        binary = binary_path()
        if binary is None:
            self.skipTest("pipebench is not built")
        listed = subprocess.run([binary, "--list-metrics"], check=True,
                                stdout=subprocess.PIPE, text=True).stdout
        program = {"end_to_end": [], "per_layer": [], "workload": []}
        for line in listed.splitlines():
            kind, *rest = line.split()
            program[kind].append(rest)
        for kind in ("end_to_end", "per_layer"):
            declared = [[m["name"], m["unit"], m["better"]]
                        for m in self.bench[kind]]
            self.assertEqual(declared, program[kind], kind)
        # Every declared workload exists; the program may offer more
        # (sample_onepass_5d is kept runnable but not declared).
        known = [w[0] for w in program["workload"]]
        for w in self.bench["workloads"]:
            self.assertIn(w["name"], known)


if __name__ == "__main__":
    unittest.main()
