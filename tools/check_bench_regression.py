#!/usr/bin/env python3
"""Fail the build when a benchmark JSON regresses against committed
thresholds.

Usage: check_bench_regression.py <thresholds.json> <dir-with-BENCH-jsons>

The thresholds file maps each benchmark JSON filename to metric bounds:

    {
      "BENCH_inference.json": {
        "speedup_batched_vs_legacy_loop": {"min": 1.5},
        "steady_state_allocs_per_batched_forward": {"max": 0.01}
      },
      ...
    }

A bound may carry a "when" key naming a gate metric in the same JSON, or
a list of gate metrics that must ALL be truthy:

    "simd_avx2_speedup_f64_vs_scalar_b256":
      {"min": 1.15, "when": ["simd_supported_avx2", "build_portable"]}

When any gate metric is absent or falsy (0), the bound is SKIPped — this
is how per-ISA speedup floors apply only on runners whose CPU carries the
ISA, and only on the build flavor they were set for, without weakening
the floors where they apply. Truthy gates make the metric mandatory
again, so a rotted benchmark that stops emitting a gated metric still
fails on hosts that support it.

Every listed file must exist and every listed metric must satisfy its
bounds; a missing file, missing metric, or violated bound is a hard
failure. Coverage is also enforced in the OTHER direction: every
BENCH_*.json emitted into the bench dir must have a thresholds entry, so a
renamed or newly added benchmark cannot silently escape regression
checking (previously a rename left the new file unchecked forever).
Bounds are deliberately conservative relative to developer machines — CI
runners are small and noisy — but strict enough to catch a broken batched
path (speedup collapsing to ~1x) or an allocation sneaking back into a
steady-state loop.
"""

import json
import sys
from pathlib import Path


def main() -> int:
    if len(sys.argv) != 3:
        print(__doc__)
        return 2
    thresholds_path = Path(sys.argv[1])
    bench_dir = Path(sys.argv[2])
    thresholds = json.loads(thresholds_path.read_text())

    failures = []
    for filename, metrics in thresholds.items():
        if filename.startswith("_"):  # comment keys
            continue
        path = bench_dir / filename
        if not path.is_file():
            failures.append(f"{filename}: missing (expected in {bench_dir})")
            continue
        data = json.loads(path.read_text())
        for metric, bounds in metrics.items():
            gates = bounds.get("when", [])
            if isinstance(gates, str):
                gates = [gates]
            off = [gate for gate in gates if not data.get(gate)]
            if off:
                print(f"SKIP {filename}: {metric} (gate '{off[0]}' is off)")
                continue
            if metric not in data:
                failures.append(f"{filename}: metric '{metric}' missing")
                continue
            value = data[metric]
            lo = bounds.get("min")
            hi = bounds.get("max")
            ok = (lo is None or value >= lo) and (hi is None or value <= hi)
            bound_str = " ".join(
                s for s in (f">= {lo}" if lo is not None else "",
                            f"<= {hi}" if hi is not None else "") if s)
            line = f"{filename}: {metric} = {value} (required {bound_str})"
            if ok:
                print(f"PASS {line}")
            else:
                failures.append(line)

    # Reverse coverage: every emitted benchmark JSON must be listed in the
    # thresholds file. Without this, renaming a benchmark (or adding a new
    # one) silently passes — the old name fails loudly above, but nothing
    # would ever look at the new file, and its thresholds would rot.
    known = {name for name in thresholds if not name.startswith("_")}
    for path in sorted(bench_dir.glob("BENCH_*.json")):
        if path.name not in known:
            failures.append(
                f"{path.name}: present but not listed in {thresholds_path}"
                " — add thresholds for it; if the benchmark was renamed or"
                " removed, delete this stale file from the build dir")

    if failures:
        print()
        for failure in failures:
            print(f"FAIL {failure}")
        return 1
    print("\nall benchmark thresholds satisfied")
    return 0


if __name__ == "__main__":
    sys.exit(main())
