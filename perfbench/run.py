#!/usr/bin/env python3
"""Run one workload of the repository benchmark.

    python3 perfbench/run.py --workload sim-pairwise --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The first run builds the library, the
wcmd daemon and the harness from source into .bench_build/ (see
perfbench/CMakeLists.txt); later runs rebuild only what changed.  The
harness prints its full report (provenance, sample counts, quartiles) and,
as the last line of standard output, the result line
{"correct", "attempted", "failed", "metrics"}.  This script checks that
line against BENCHMARK.json before passing it on, keeps a copy of the full
report under .bench_out/, and exits non-zero on any build failure, failed
correctness check or malformed result.  See perfbench/README.md.
"""

import argparse
import hashlib
import json
import math
import os
import pathlib
import signal
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
OUT = ROOT / ".bench_out"
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def load_benchmark():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        return json.load(f)


def build():
    """Configure once, then build the harness and the daemon (incremental)."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise RuntimeError("library sources (src/) not found next to perfbench/")
    jobs = str(os.cpu_count() or 1)
    if not (BUILD / "CMakeCache.txt").is_file():
        subprocess.run(
            ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", str(BUILD), "-j", jobs, "--target", "perfbench",
         "wcmd"],
        check=True, stdout=sys.stderr)


def git_describe():
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"], cwd=ROOT,
            capture_output=True, text=True, timeout=10, check=True)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def source_digest():
    """SHA-256 over the sources the benchmark builds, for provenance when
    the checkout carries no git metadata."""
    h = hashlib.sha256()
    files = sorted(p for d in ("src", "perfbench") for p in (ROOT / d).rglob("*")
                   if p.is_file() and "__pycache__" not in p.parts)
    files.append(ROOT / "examples" / "wcmd.cpp")
    for p in files:
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def check_result(line, bench, trace):
    """Parse the result line and check it against BENCHMARK.json."""
    doc = json.loads(line)
    if set(doc) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError(f"result keys {sorted(doc)}")
    if not isinstance(doc["correct"], bool):
        raise ValueError("correct is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(doc[key], int) or isinstance(doc[key], bool) or doc[key] < 0:
            raise ValueError(f"{key} is not a whole number")
    if doc["attempted"] < 1:
        raise ValueError("attempted < 1")
    declared = bench["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    got = doc["metrics"]
    if set(got) != set(want):
        raise ValueError(f"metric set differs: missing {sorted(set(want) - set(got))}, "
                         f"extra {sorted(set(got) - set(want))}")
    for name, m in got.items():
        if set(m) != {"value", "unit"}:
            raise ValueError(f"metric {name} keys {sorted(m)}")
        v = m["value"]
        if isinstance(v, bool) or not isinstance(v, (int, float)) or not math.isfinite(v):
            raise ValueError(f"metric {name} value {v!r}")
        if m["unit"] != want[name]:
            raise ValueError(f"metric {name} unit {m['unit']!r} != {want[name]!r}")
    return doc


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    bench = load_benchmark()
    names = [w["name"] for w in bench["workloads"]]
    if args.workload not in names:
        log(f"unknown workload {args.workload!r} (known: {', '.join(names)})")
        return 2
    if args.seed < 0 or args.seconds < 1:
        log("--seed must be >= 0 and --seconds >= 1")
        return 2
    try:
        build()
    except (OSError, RuntimeError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 2

    cmd = [str(BUILD / "perfbench"), "run", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--root", str(ROOT),
           "--describe", git_describe()]
    # Own process group, so a timeout also takes down the daemon it spawned.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        log(f"run exceeded {RUN_TIMEOUT_S}s")
        return 4
    lines = stdout.splitlines()
    if len(lines) < 2:
        log(f"harness exited {proc.returncode} without a result")
        return proc.returncode or 4
    try:
        full = json.loads(lines[-2])
        result = check_result(lines[-1], bench, args.trace)
    except (ValueError, KeyError, TypeError) as e:
        log(f"malformed result: {e}")
        return 3

    full["provenance"]["source_digest"] = source_digest()
    OUT.mkdir(exist_ok=True)
    report_path = OUT / f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    report_path.write_text(json.dumps(full, indent=1, sort_keys=True) + "\n")
    print(json.dumps(full, sort_keys=True))
    print(lines[-1], flush=True)
    if proc.returncode != 0 or not result["correct"]:
        return proc.returncode or 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
