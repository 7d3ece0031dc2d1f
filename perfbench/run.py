#!/usr/bin/env python3
"""Repository benchmark: builds perfbench from source and runs one workload.

    python3 perfbench/run.py --workload fleet_steady --seed 1 --seconds 10 --trace 0

Run from the repository root. The library and the benchmark are built with
CMake (Release, the repository's default native flavor) into
.bench_build/perfbench; the first run builds, later runs only re-check the
build. The benchmark binary prints a metadata line and then, as the last
line of standard output, one JSON object with the keys correct, attempted,
failed and metrics. With --trace 1 the spans of the traced run are written
to .bench_build/perfbench/spans-<workload>-<seed>.jsonl.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "perfbench"
BUILD = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("fleet_steady", "fleet_ingest", "rollout_planning", "sharded_fleet")
BUILD_TIMEOUT_S = 880
RUN_TIMEOUT_S = 170


def run_logged(cmd, log, timeout):
    """Runs cmd with its output appended to the build log."""
    with open(log, "a") as out:
        out.write("$ " + " ".join(str(c) for c in cmd) + "\n")
        out.flush()
        return subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              timeout=timeout, check=False).returncode


def build():
    """Configures (once) and builds the perfbench target; returns its path."""
    BUILD.mkdir(parents=True, exist_ok=True)
    log = BUILD / "build.log"
    if not (BUILD / "CMakeCache.txt").exists():
        configure = ["cmake", "-S", str(SOURCE), "-B", str(BUILD),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if run_logged(configure, log, BUILD_TIMEOUT_S) != 0:
            # A failed configure must not leave a cache a later run trusts.
            (BUILD / "CMakeCache.txt").unlink(missing_ok=True)
            return None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if run_logged(["cmake", "--build", str(BUILD), "--target", "perfbench",
                   "-j", jobs], log, BUILD_TIMEOUT_S) != 0:
        return None
    exe = BUILD / "perfbench"
    return exe if exe.exists() else None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    exe = build()
    if exe is None:
        log = BUILD / "build.log"
        tail = log.read_text().splitlines()[-30:] if log.exists() else []
        sys.stderr.write("perfbench: build failed\n" + "\n".join(tail) + "\n")
        return 1

    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans-out",
                str(BUILD / f"spans-{args.workload}-{args.seed}.jsonl")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run timed out\n")
        return 1
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(f"perfbench: exited with {proc.returncode}\n")
        return 1
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        sys.stderr.write("perfbench: last line is not a JSON result\n")
        return 1
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.stderr.write("perfbench: malformed result\n")
        return 1
    print("\n".join(lines[:-1]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
