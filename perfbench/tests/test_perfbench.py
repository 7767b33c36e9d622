#!/usr/bin/env python3
"""Tests of the benchmark's own checks.

    python3 perfbench/tests/test_perfbench.py

Builds the harness if needed (as perfbench/run.py does), then checks that
run.py refuses a malformed result line, that a perturbed simulated counter,
a wrong daemon response and a failed daemon response each fail the run,
that a clean run passes, and that the benchmark refuses to run without the
library sources.
"""

import json
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))
import run  # noqa: E402  (perfbench/run.py)

ROOT = run.ROOT
BINARY = run.BUILD / "perfbench"


def scratch_dir(prefix):
    """A throwaway directory inside the checkout's .bench_out/."""
    run.OUT.mkdir(exist_ok=True)
    return pathlib.Path(tempfile.mkdtemp(prefix=prefix, dir=run.OUT))


def result_of(stdout):
    """The last stdout line parsed, or None when there is none."""
    lines = stdout.strip().splitlines()
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except ValueError:
        return None


class ScratchRoot:
    """A throwaway root holding what the harness reads, with the expected
    totals optionally rewritten and the daemon optionally started with
    failpoints armed."""

    def __init__(self, perturb=None, wcmd_failpoints=None):
        self.dir = scratch_dir("test-root-")
        (self.dir / "perfbench" / "expected").mkdir(parents=True)
        (self.dir / ".bench_build").mkdir()
        shutil.copy(ROOT / "perfbench" / "workloads.json",
                    self.dir / "perfbench" / "workloads.json")
        wcmd = self.dir / ".bench_build" / "wcmd"
        if wcmd_failpoints is None:
            os.symlink(run.BUILD / "wcmd", wcmd)
        else:
            # The harness clears WCM_* from the daemon's environment, so the
            # failpoints are armed by a wrapper in the daemon's place.
            wcmd.write_text(f"#!/bin/sh\nWCM_FAILPOINTS='{wcmd_failpoints}' "
                            f"exec '{run.BUILD / 'wcmd'}' \"$@\"\n")
            wcmd.chmod(0o755)
        text = (ROOT / "perfbench" / "expected" / "sim_totals.txt").read_text()
        if perturb is not None:
            text = perturb(text)
        (self.dir / "perfbench" / "expected" / "sim_totals.txt").write_text(text)

    def run(self, workload, *extra):
        return subprocess.run(
            [str(BINARY), "run", "--workload", workload, "--seed", "7",
             "--seconds", "2", "--trace", "0", "--root", str(self.dir), *extra],
            capture_output=True, text=True, timeout=170)

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)


def add_one_replay(text):
    """Every expected line's replay count plus one."""
    out = []
    for line in text.splitlines():
        if line.startswith("#") or not line.strip():
            out.append(line)
            continue
        f = line.split()
        f[3] = str(int(f[3]) + 1)
        out.append(" ".join(f))
    return "\n".join(out) + "\n"


class ResultLine(unittest.TestCase):
    def setUp(self):
        self.bench = run.load_benchmark()
        self.good = {
            "correct": True, "attempted": 3, "failed": 0,
            "metrics": {m["name"]: {"value": 1.5, "unit": m["unit"]}
                        for m in self.bench["end_to_end"]},
        }

    def check(self, doc):
        return run.check_result(json.dumps(doc), self.bench, 0)

    def test_good_line_passes(self):
        self.check(self.good)

    def test_shape_violations_are_rejected(self):
        bad = []
        d = json.loads(json.dumps(self.good)); d["extra"] = 1; bad.append(d)
        d = json.loads(json.dumps(self.good)); del d["failed"]; bad.append(d)
        d = json.loads(json.dumps(self.good)); d["attempted"] = 0; bad.append(d)
        d = json.loads(json.dumps(self.good)); d["attempted"] = 2.5; bad.append(d)
        d = json.loads(json.dumps(self.good)); d["metrics"].pop("setup_s"); bad.append(d)
        d = json.loads(json.dumps(self.good)); d["metrics"]["setup_s"]["unit"] = "ms"; bad.append(d)
        d = json.loads(json.dumps(self.good)); d["metrics"]["setup_s"]["value"] = "1"; bad.append(d)
        for doc in bad:
            with self.assertRaises((ValueError, KeyError, TypeError)):
                self.check(doc)
        with self.assertRaises(ValueError):
            run.check_result('{"correct": true, "attempted": 1, "failed": 0, '
                             '"metrics": {"setup_s": {"value": NaN, "unit": "s"}}}',
                             self.bench, 0)


class CorrectnessChecks(unittest.TestCase):
    def test_clean_run_passes(self):
        root = ScratchRoot()
        try:
            r = root.run("sim-certified")
            doc = result_of(r.stdout)
            self.assertEqual(r.returncode, 0, r.stderr)
            self.assertTrue(doc["correct"])
            self.assertEqual(doc["failed"], 0)
        finally:
            root.close()

    def test_perturbed_counter_is_rejected(self):
        root = ScratchRoot(perturb=add_one_replay)
        try:
            r = root.run("sim-pairwise")
            doc = result_of(r.stdout)
            self.assertNotEqual(r.returncode, 0)
            self.assertIsNotNone(doc)
            self.assertFalse(doc["correct"])
            self.assertIn("differ from the expected file", r.stderr)
        finally:
            root.close()

    def test_wrong_response_is_rejected(self):
        root = ScratchRoot()
        try:
            r = root.run("serve-mix", "--tamper-response")
            doc = result_of(r.stdout)
            self.assertNotEqual(r.returncode, 0)
            self.assertFalse(doc["correct"])
            self.assertIn("differs from the in-process serve::execute", r.stderr)
        finally:
            root.close()

    def test_failed_response_is_rejected(self):
        # The set-up's warm-up makes 19 dispatches (16 hot-pool generates,
        # one prove, one certify, one campaign) that must succeed; every
        # later one -- each miss of the measured phases -- gets an error.
        root = ScratchRoot(wcmd_failpoints="serve.dispatch=19")
        try:
            r = root.run("serve-mix")
            doc = result_of(r.stdout)
            self.assertNotEqual(r.returncode, 0)
            self.assertIsNotNone(doc)
            self.assertFalse(doc["correct"])
            self.assertGreater(doc["failed"], 0)
            self.assertIn("got no ok response", r.stderr)
        finally:
            root.close()


class Packaging(unittest.TestCase):
    def test_fails_without_library_sources(self):
        tmp = scratch_dir("test-bare-")
        try:
            shutil.copy(ROOT / "BENCHMARK.json", tmp / "BENCHMARK.json")
            shutil.copytree(ROOT / "perfbench", tmp / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            r = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "sim-pairwise",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=170)
            self.assertNotEqual(r.returncode, 0)
            self.assertIsNone(result_of(r.stdout))
        finally:
            shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    run.build()
    unittest.main()
