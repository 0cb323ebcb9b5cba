#!/usr/bin/env python3
"""Tests of the benchmark itself, on 8x8 fabrics (seconds, after the build).

    python3 perfbench/test_perfbench.py

Covers all three workload paths with their output checks, the traced run
and its contrasts, a held-out seed, a wrong pin failing the command, the
wrappers forwarding bit-identically, and a tree without sources failing
without a result.
"""
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN = [sys.executable, str(HERE / "run.py")]
WORKLOADS = ("mesh64_nafta", "mesh64_ftrules", "mesh64_nafta_faults")
BUILD = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
BUILD = (BUILD if BUILD.is_absolute() else ROOT / BUILD) / "perfbench"
END_TO_END = {
    "wall_s": "s", "setup_s": "s", "sim_cycles_per_s": "cycles/s",
    "peak_rss_mib": "MiB", "packets_delivered_frac": "fraction",
    "sim_latency_p50_cycles": "cycles", "sim_latency_p99_cycles": "cycles",
    "sim_throughput": "flits/node/cycle", "sim_availability": "fraction",
    "sim_hops_ratio": "ratio",
}


def run(*args, cwd=ROOT):
    proc = subprocess.run(RUN + list(args), cwd=cwd, capture_output=True,
                          text=True, timeout=900)
    last = proc.stdout.rstrip("\n").split("\n")[-1]
    result = json.loads(last) if last.startswith('{"correct"') else None
    return proc, result


def smoke(workload, seed=42, trace=0, *extra):
    return run("--workload", workload, "--seed", str(seed), "--seconds", "1",
               "--trace", str(trace), "--smoke", *extra)


class SmokeTest(unittest.TestCase):
    def test_untraced_runs_report_every_end_to_end_metric(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                proc, res = smoke(w)
                self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
                self.assertTrue(res["correct"])
                self.assertGreater(res["attempted"], 0)
                self.assertEqual(res["failed"], 0)
                self.assertEqual(set(res["metrics"]), set(END_TO_END))
                for name, unit in END_TO_END.items():
                    self.assertEqual(res["metrics"][name]["unit"], unit)
                    self.assertGreater(res["metrics"][name]["value"], 0)
                self.assertIn('"context"', proc.stdout)

    def test_held_out_seed_passes_the_invariants(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                proc, res = smoke(w, seed=7)
                self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
                self.assertTrue(res["correct"])

    def test_traced_run_shows_the_workload_contrasts(self):
        layers = {}
        for w in WORKLOADS:
            proc, res = smoke(w, 42, 1)
            self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
            self.assertTrue(res["correct"])
            layers[w] = {k: v["value"] for k, v in res["metrics"].items()}
        for w in ("mesh64_nafta", "mesh64_ftrules"):
            self.assertEqual(layers[w]["routing.reconfigure_calls"], 0)
        self.assertEqual(layers["mesh64_nafta_faults"]["routing.reconfigure_calls"], 2)
        self.assertEqual(layers["mesh64_nafta_faults"]["sim.recovery_events"], 2)
        for w in ("mesh64_nafta", "mesh64_nafta_faults"):
            for k, v in layers[w].items():
                if k.startswith("ruleengine."):
                    self.assertEqual(v, 0, f"{w} {k}")
        self.assertGreater(layers["mesh64_ftrules"]["ruleengine.table_entries"], 0)
        self.assertEqual(layers["mesh64_nafta"]["routing.route_calls"],
                         layers["mesh64_ftrules"]["routing.route_calls"])
        trace = BUILD / "traces/mesh64_nafta_faults-smoke-seed42.json"
        events = json.loads(trace.read_text())["traceEvents"]
        names = [e["name"] for e in events]
        self.assertEqual(names.count("RoutingAlgorithm::reconfigure"), 2)
        self.assertIn("Simulator::run", names)


class PinTest(unittest.TestCase):
    def test_wrong_pin_fails_the_command(self):
        pins = (HERE / "pins.txt").read_text()
        line = next(l for l in pins.splitlines()
                    if l.startswith("mesh64_nafta 8 42 "))
        wrong = line.replace(" p50=", " p50=1", 1)
        self.assertNotEqual(wrong, line)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "pins.txt"
            path.write_text(pins.replace(line, wrong))
            proc, res = smoke("mesh64_nafta", 3, 0, "--pins", str(path))
        self.assertNotEqual(proc.returncode, 0)
        self.assertFalse(res["correct"])
        self.assertIn("SimResult differs from the pin", proc.stdout)


class WrapperTest(unittest.TestCase):
    def test_wrappers_forward_bit_identically(self):
        smoke("mesh64_nafta")  # builds the binary
        exe = BUILD / "flexbench"
        proc = subprocess.run([str(exe), "--selftest-wrappers"],
                              capture_output=True, text=True, timeout=300)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertIn("wrappers forward bit-identically", proc.stdout)


class NoSourcesTest(unittest.TestCase):
    def test_benchmark_alone_exits_nonzero_without_a_result(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(HERE, Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 "mesh64_nafta", "--seed", "1", "--seconds", "1",
                 "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=180)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
