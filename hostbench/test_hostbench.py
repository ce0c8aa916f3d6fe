#!/usr/bin/env python3
"""Tests of the host-speed benchmark itself, on tiny inputs.

    python3 hostbench/test_hostbench.py

Builds dcache_hostbench through run.py (same build directory), then checks that
every workload prints every metric BENCHMARK.json names with its unit, that
a perturbed reference digest turns into failed ops, that a seed past the
committed input sets still has a reference, that one seed always gives the
same digests and that another seed gives other ones.
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.dont_write_bytecode = True
import run  # noqa: E402  (run.py next to this file)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload, seed, trace=0):
    """run.py on tiny inputs; returns (stdout lines, result object)."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace),
         "--size", "tiny"],
        stdout=subprocess.PIPE, text=True, check=True, cwd=ROOT)
    lines = done.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def binary_run(workload, seed):
    """dcache_hostbench's own JSON line (per-cell digests per round)."""
    done = subprocess.run(
        [str(run.build_dir() / "dcache_hostbench"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", "0", "--size",
         "tiny"],
        stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


class HostBenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build(run.build_dir())

    def test_every_metric_is_printed_with_its_unit(self):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            expected = {m["name"]: m["unit"] for m in SPEC[key]}
            for workload in run.WORKLOADS:
                with self.subTest(workload=workload, trace=trace):
                    lines, result = bench(workload, 3, trace)
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreater(result["attempted"], 0)
                    got = {name: m["unit"]
                           for name, m in result["metrics"].items()}
                    self.assertEqual(got, expected)
                    for name, unit in expected.items():
                        self.assertTrue(
                            any(line.split()[:1] == [name] and
                                line.split()[-1] == unit for line in lines),
                            f"{name} not printed with unit {unit}")

    def test_perturbed_reference_counts_failed_ops(self):
        result = binary_run("meta-kv", 5)
        key = ("tiny", "meta-kv", "5")
        _, failed, _ = run.gate(result, key, run.REFERENCE)
        self.assertEqual(failed, 0)
        reference = json.loads(run.REFERENCE.read_text())
        digest = reference["tiny"]["meta-kv"]["5"]["linked"]
        reference["tiny"]["meta-kv"]["5"]["linked"] = (
            "%016x" % (int(digest, 16) ^ 1))
        path = run.build_dir() / "test_perturbed_reference.json"
        path.write_text(json.dumps(reference))
        attempted, failed, _ = run.gate(result, key, path)
        linked = next(c for c in result["cells"] if c["arch"] == "linked")
        rounds = len(linked["digests"])
        self.assertEqual(attempted,
                         rounds * sum(c["ops"] for c in result["cells"]))
        self.assertEqual(failed, linked["ops"] * rounds)

    def test_seed_selects_an_input_set_with_a_reference(self):
        _, a = bench("kv-churn", 4)
        _, b = bench("kv-churn", 4 + run.INPUT_SETS)
        self.assertTrue(a["correct"])
        self.assertTrue(b["correct"])
        self.assertEqual(a["attempted"], b["attempted"])

    def test_same_seed_gives_identical_digests(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                first = binary_run(workload, 11)["cells"]
                second = binary_run(workload, 11)["cells"]
                self.assertEqual(first, second)
                for cell in first:
                    self.assertEqual(len(set(cell["digests"])), 1)
                    self.assertEqual(cell["conservation"], "")

    def test_other_seed_changes_the_op_stream(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                a = binary_run(workload, 11)["cells"]
                b = binary_run(workload, 12)["cells"]
                for x, y in zip(a, b):
                    self.assertNotEqual(x["digests"][0], y["digests"][0])


if __name__ == "__main__":
    unittest.main()
