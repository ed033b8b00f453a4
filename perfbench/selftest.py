"""Tests of the benchmark itself (not collected by the package's pytest run).

    python3 perfbench/selftest.py

Smoke runs of every workload at tiny sizes, a traced run, a deliberately
corrupted output that must be counted as failed, the reference checks,
the fixture construction, and the refusal to run without the package.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import make_fixtures  # noqa: E402
import surgery  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    BENCH = json.load(_fh)


def bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, json.loads(lines[-1]) if lines else None, proc.stderr


def metric_units(entries):
    return {m["name"]: m["unit"] for m in entries}


class SmokeRuns(unittest.TestCase):
    def test_every_workload_end_to_end(self):
        for entry in BENCH["workloads"]:
            with self.subTest(workload=entry["name"]):
                code, result, err = bench("--workload", entry["name"], "--smoke", "--seconds", "0.01")
                self.assertEqual(code, 0, err)
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"], err)
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 2)
                got = {name: m["unit"] for name, m in result["metrics"].items()}
                self.assertEqual(got, metric_units(BENCH["end_to_end"]))
                self.assertTrue(all(m["value"] > 0 for m in result["metrics"].values()))

    def test_traced_run_reports_every_layer_metric(self):
        code, result, err = bench("--workload", "roots", "--smoke", "--trace", "1")
        self.assertEqual(code, 0, err)
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        self.assertEqual(got, metric_units(BENCH["per_layer"]))
        self.assertEqual(result["metrics"]["symmetry.candidates"]["value"], 256 + 16384)
        self.assertEqual(result["metrics"]["planarmap.connectivity.calls"]["value"], 0)

    def test_corrupted_output_is_counted_as_failed(self):
        for workload in ("sums", "solids"):
            with self.subTest(workload=workload):
                code, result, _ = bench("--workload", workload, "--smoke", "--seconds", "0.01", "--corrupt-op", "1")
                self.assertEqual(code, 0)
                self.assertFalse(result["correct"])
                self.assertEqual(result["failed"], 1)

    def test_refuses_to_run_without_the_package(self):
        bare = os.path.join(HERE, "_work", "selftest-bare")
        shutil.rmtree(bare, ignore_errors=True)
        try:
            shutil.copytree(HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("_work", "__pycache__"))
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            code, result, err = bench("--workload", "census", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=bare)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(code, 0)
        self.assertIsNone(result)
        self.assertIn("no sl3webs package", err)


class HostSpeedScaling(unittest.TestCase):
    def test_sampler_times_the_kernel_while_active(self):
        sampler = worker.SpeedSampler(True)
        with sampler:
            t0 = time.perf_counter()
            while time.perf_counter() - t0 < 1.0:
                pass
        during = len(sampler.samples)
        self.assertGreaterEqual(during, 3)
        self.assertAlmostEqual(sampler.busy_s, sum(sampler.samples))
        self.assertGreater(sampler.kernel_s(), 0)
        self.assertGreaterEqual(len(sampler.samples), worker.CAL_MIN_SAMPLES)
        time.sleep(2 * worker.CAL_PERIOD_S)
        self.assertEqual(len(sampler.samples), max(during, worker.CAL_MIN_SAMPLES))

    def test_roots_is_not_scaled(self):
        sampler = worker.SpeedSampler("roots" in workloads.SCALED)
        with sampler:
            time.sleep(2 * worker.CAL_PERIOD_S)
        self.assertEqual(sampler.samples, [])
        self.assertIsNone(sampler.kernel_s())


class ReferenceChecks(unittest.TestCase):
    def test_changed_coefficient_fails_the_solid_check(self):
        ref = workloads.load_pinned()["solids"]["omni_tetrahedron"]
        out = {"invariant": dict(ref["invariant"]), "value_at_one": ref["value_at_one"]}
        check = workloads._solid_check(ref)
        self.assertIsNone(check(json.dumps(out)))
        exponent = next(iter(out["invariant"]))
        out["invariant"][exponent] = str(int(out["invariant"][exponent]) + 1)
        self.assertIsNotNone(check(json.dumps(out)))

    def test_root_witness_check(self):
        check = workloads._root_check(3)
        found = {"outcome": "found", "searched": 16384, "detail": "", "witness": {"-4": "2", "0": "1"}}
        self.assertIsNone(check(json.dumps(found)))
        found["witness"] = {"-4": "1", "0": "1"}
        self.assertIsNotNone(check(json.dumps(found)))

    def test_sums_are_seeded_and_planar(self):
        pinned = workloads.load_pinned()
        work = os.path.join(HERE, "_work", "selftest-sums")
        os.makedirs(work, exist_ok=True)
        try:
            first = workloads.sums_ops(7, work, pinned, smoke=False)
            texts = []
            for op in first:
                with open(op.argv[1]) as fh:
                    texts.append(fh.read())
            second = workloads.sums_ops(7, work, pinned, smoke=False)
            again = []
            for op in second:
                with open(op.argv[1]) as fh:
                    again.append(fh.read())
        finally:
            shutil.rmtree(work, ignore_errors=True)
        self.assertEqual(len(first), 100)
        self.assertEqual(texts, again)
        for text in texts:
            self.assertTrue(surgery.is_sphere(*surgery.parse_dart(text)))


class Fixtures(unittest.TestCase):
    def test_solids_rebuild_from_the_omnitruncation(self):
        pinned = workloads.load_pinned()["solids"]
        for name, (sigma, theta) in make_fixtures.solid_maps().items():
            with self.subTest(solid=name):
                with open(os.path.join(workloads.FIXTURES, f"{name}.dart")) as fh:
                    committed = fh.read()
                self.assertEqual(surgery.dart_text(*surgery.bfs_relabel(sigma, theta)), committed)
                self.assertEqual(pinned[name]["vertices"], len(sigma) // 3)
        values = {n: pinned[n]["value_at_one"] for n in ("omni_tetrahedron", "omni_cube", "omni_dodecahedron")}
        self.assertEqual(
            values, {"omni_tetrahedron": 912, "omni_cube": 273816, "omni_dodecahedron": 21699098260704}
        )

    def test_fifteen_catalog_primes(self):
        primes = workloads.load_pinned()["primes"]
        self.assertEqual(len(primes), 15)
        for name, ref in primes.items():
            sigma, theta = workloads._fixture_map(f"prime_{name}")
            self.assertTrue(surgery.is_sphere(sigma, theta))
            self.assertEqual(len(sigma) // 3, ref["vertices"])


if __name__ == "__main__":
    unittest.main()
