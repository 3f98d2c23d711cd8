#!/usr/bin/env python3
"""Build and run the tpcool benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a source checkout.  The first call configures and
builds the library and the benchmark (Release) under .bench_build/; later
calls only rebuild what changed.  Build output goes to stderr, so the last
line of stdout is the benchmark's JSON result.  Exits nonzero, without a
result, when the checkout holds no library sources or the build fails, and
nonzero when an output check fails or the printed metrics do not match
BENCHMARK.json.  See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"

# The seed later performance claims are measured on, and the held-out seed
# they must also hold on (choosing-metrics guide, section 6).
DEFAULT_SEED = 1
HELD_OUT_SEED = 20261017


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build(targets):
    """Configure (once) and build `targets`; build output goes to stderr."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src" / "tpcool").is_dir():
        log(f"no tpcool sources under {ROOT}: run from a source checkout")
        return False
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs, "--target", *targets])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            log("build failed: " + " ".join(step))
            return False
    return True


def expected_metrics(trace):
    """(name, unit) pairs BENCHMARK.json lists for a trace mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    key = "per_layer" if trace else "end_to_end"
    return [(m["name"], m["unit"]) for m in spec[key]]


def check_result(line, trace):
    """Error text if the result line's metrics differ from BENCHMARK.json."""
    try:
        result = json.loads(line)
        printed = [(name, m["unit"]) for name, m in result["metrics"].items()]
    except (ValueError, KeyError, TypeError, AttributeError):
        return "the last output line is not a result object"
    if printed != expected_metrics(trace):
        return f"printed metrics {printed} differ from BENCHMARK.json"
    return None


def run(args):
    if not build(["perfbench"]):
        return 2
    scratch = ROOT / ".bench_build" / f"run-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        proc = subprocess.run(
            [str(BUILD_DIR / "perfbench"), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--scratch", str(scratch)],
            stdout=subprocess.PIPE, text=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    if proc.returncode != 0:
        return proc.returncode
    lines = proc.stdout.strip().splitlines()
    error = check_result(lines[-1] if lines else "", args.trace)
    if error:
        log(error)
        return 1
    return 0


class MetricNamesTest(unittest.TestCase):
    """The binary's metric and workload names are the ones BENCHMARK.json lists."""

    def test_names_match_benchmark_json(self):
        listed = json.loads(subprocess.run(
            [str(BUILD_DIR / "perfbench"), "--list-metrics"],
            stdout=subprocess.PIPE, text=True, check=True).stdout)
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual(listed["workloads"], [w["name"] for w in spec["workloads"]])
        self.assertEqual([tuple(m) for m in listed["end_to_end"]], expected_metrics(0))
        self.assertEqual([tuple(m) for m in listed["per_layer"]], expected_metrics(1))

    def test_result_check_rejects_renamed_metrics(self):
        names = expected_metrics(0)
        good = {"correct": True, "attempted": 1, "failed": 0,
                "metrics": {n: {"value": 1.0, "unit": u} for n, u in names}}
        self.assertIsNone(check_result(json.dumps(good), 0))
        bad = dict(good, metrics={"renamed" + n: {"value": 1.0, "unit": u}
                                  for n, u in names})
        self.assertIsNotNone(check_result(json.dumps(bad), 0))
        self.assertIsNotNone(check_result("not json", 0))


def self_test():
    if not build(["perfbench", "perfbench_test"]):
        return 2
    unit = BUILD_DIR / "perfbench_test"
    if unit.is_file():
        if subprocess.run([str(unit)]).returncode != 0:
            return 1
    else:
        log("perfbench_test was not built (no GoogleTest); C++ tests skipped")
    suite = unittest.defaultTestLoader.loadTestsFromTestCase(MetricNamesTest)
    return 0 if unittest.TextTestRunner(verbosity=2).run(suite).wasSuccessful() else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if not args.workload:
        parser.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
