"""Self-test of the benchmark: runs the smallest document of each workload
untraced and traced, and checks the printed metrics against BENCHMARK.json,
the correctness gate, count repeatability and the refusal to run without
the library.

    python3 perfbench/selftest.py
"""

import contextlib
import io
import json
import shutil
import subprocess
import sys
import unittest

import run
import tracer
import workloads

SMALLEST = {"golden": "validate_sqrt2_group", "groebner": "katsura4_fp",
            "points": "swap_gf169", "algebra": "circle_cyclo8_to_qq"}
SEED = 7


def printed(workload, trace, expected=None):
    """The JSON result that run.py prints for the workload's smallest
    document."""
    lines, result = run.run_benchmark(workload, SEED, 0.01, trace,
                                      only={SMALLEST[workload]}, expected=expected)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        run.print_result(lines, result)
    return json.loads(out.getvalue().splitlines()[-1])


class SelfTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        spec = json.loads((workloads.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        cls.end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        cls.per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
        cls.workloads = [w["name"] for w in spec["workloads"]]

    def test_spec_matches_code(self):
        self.assertEqual(self.end_to_end, dict(run.END_TO_END))
        self.assertEqual(self.per_layer, dict(tracer.PER_LAYER))
        self.assertEqual(self.workloads, list(workloads.WORKLOADS))

    def check_metrics(self, result, spec):
        self.assertTrue(result["correct"], result)
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(set(result["metrics"]), set(spec))
        for name, unit in spec.items():
            self.assertEqual(result["metrics"][name]["unit"], unit, name)
            self.assertIsInstance(result["metrics"][name]["value"], (int, float), name)

    def test_untraced_prints_every_end_to_end_metric(self):
        for workload in self.workloads:
            with self.subTest(workload=workload):
                result = printed(workload, trace=False)
                self.check_metrics(result, self.end_to_end)
                for name in self.end_to_end:
                    self.assertGreater(result["metrics"][name]["value"], 0, name)

    def test_traced_prints_every_layer_metric_and_counts_repeat(self):
        for workload in self.workloads:
            with self.subTest(workload=workload):
                first = printed(workload, trace=True)
                second = printed(workload, trace=True)
                self.check_metrics(first, self.per_layer)
                for name, unit in self.per_layer.items():
                    if unit == "count":
                        self.assertEqual(first["metrics"][name]["value"],
                                         second["metrics"][name]["value"], name)

    def test_corrupted_expected_output_fails(self):
        expected = workloads.expected_reports()
        key = f"{SMALLEST['golden']}:{workloads.PLAIN}"
        code, stdout = expected[key]
        expected[key] = (code, stdout.replace("valid", "invalid"))
        result = printed("golden", trace=False, expected=expected)
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)
        self.assertLess(result["metrics"]["pass_ratio"]["value"], 1)

    def test_refuses_to_run_without_the_library(self):
        bare = run.OUT_DIR / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        (bare / "perfbench").mkdir(parents=True)
        shutil.copy(workloads.ROOT / "BENCHMARK.json", bare)
        for path in workloads.BENCH_DIR.iterdir():
            if path.is_file():
                shutil.copy(path, bare / "perfbench")
        try:
            done = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "golden",
                 "--seed", "0", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=60)
        finally:
            shutil.rmtree(bare)
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn('"metrics"', done.stdout)


if __name__ == "__main__":
    unittest.main()
