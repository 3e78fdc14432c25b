"""Compare a fresh benchmark snapshot against the committed baseline.

CI runs the smoke benchmark on every push; this script fails the step when
any workload regresses by more than the tolerance against the committed
baseline.  The compared metric depends on where the snapshots came from:

* **Same host fingerprint** (cpu_count + platform): fast-path *throughput*
  — workload units per wall second (simulated seconds for sessions, frames
  for the FEC codec, cell-seconds for the sweep).  Units are
  size-independent, so a 2 s smoke session is comparable with a 10 s one.
* **Different hosts** (a shared CI runner vs the container the baseline
  was generated on): absolute wall seconds are not comparable, so the
  *speedup* (scalar / fast on the same machine, itself host-normalised) is
  compared instead.

Equivalence failures already abort inside the harness; this adds the
performance floor the previous CI step lacked (it only failed on crash or
broken equivalence).  It also fails when the two snapshots name different
equivalence gates, so a gate cannot be dropped (or added) without the
committed baseline being refreshed.

Usage:
    python benchmarks/compare_bench.py BENCH_sweep.smoke.json BENCH_sweep.json
    python benchmarks/compare_bench.py fresh.json baseline.json --tolerance 0.25
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

#: Fraction of committed throughput/speedup a workload may lose before CI fails.
DEFAULT_TOLERANCE = 0.25


def host_fingerprint(payload: dict) -> tuple:
    host = payload.get("host", {})
    return (host.get("cpu_count"), host.get("platform"))


def load_payload(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def gate_set_differences(fresh: dict, baseline: dict) -> list[str]:
    """Equivalence gates named by only one of the two snapshots."""
    fresh_gates = set(fresh.get("equivalence", {}))
    baseline_gates = set(baseline.get("equivalence", {}))
    missing = sorted(baseline_gates - fresh_gates)
    added = sorted(fresh_gates - baseline_gates)
    return [f"{name}: missing from the fresh run" for name in missing] + [
        f"{name}: not in the baseline (refresh it)" for name in added
    ]


def extract_metric(payload: dict, metric: str) -> dict[str, float]:
    out: dict[str, float] = {}
    for entry in payload.get("benchmarks", []):
        if metric == "throughput":
            units = entry.get("units") or 0.0
            after = entry.get("after_s") or 0.0
            if units > 0.0 and after > 0.0:
                out[entry["name"]] = units / after
        else:
            speedup = entry.get("speedup") or 0.0
            if speedup > 0.0:
                out[entry["name"]] = speedup
    return out


def compare(
    fresh: dict[str, float],
    baseline: dict[str, float],
    tolerance: float,
    unit: str = "u/s",
) -> tuple[list[str], list[str]]:
    """Returns (report lines, failure lines)."""
    lines: list[str] = []
    failures: list[str] = []
    for name in sorted(baseline):
        base = baseline[name]
        now = fresh.get(name)
        if now is None:
            lines.append(f"{name:<32} baseline {base:9.2f} {unit}  (absent from fresh run)")
            continue
        ratio = now / base if base > 0 else float("inf")
        status = "ok"
        if ratio < 1.0 - tolerance:
            status = f"REGRESSION (>{tolerance:.0%} loss)"
            failures.append(
                f"{name}: {now:.2f} {unit} vs committed {base:.2f} {unit} "
                f"({ratio:.2f}x, floor {1.0 - tolerance:.2f}x)"
            )
        lines.append(
            f"{name:<32} baseline {base:9.2f} {unit}  fresh {now:9.2f} {unit}  "
            f"({ratio:5.2f}x) {status}"
        )
    for name in sorted(set(fresh) - set(baseline)):
        lines.append(f"{name:<32} fresh-only {fresh[name]:9.2f} {unit}")
    return lines, failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("fresh", type=Path, help="snapshot from this run")
    parser.add_argument("baseline", type=Path, help="committed snapshot to compare against")
    parser.add_argument(
        "--tolerance",
        type=float,
        default=DEFAULT_TOLERANCE,
        help=f"allowed fractional metric loss (default {DEFAULT_TOLERANCE})",
    )
    args = parser.parse_args()

    fresh_payload = load_payload(args.fresh)
    baseline_payload = load_payload(args.baseline)
    gate_differences = gate_set_differences(fresh_payload, baseline_payload)
    if gate_differences:
        print("equivalence gate set differs from the baseline's:", file=sys.stderr)
        for difference in gate_differences:
            print(f"  {difference}", file=sys.stderr)
        return 1
    same_host = host_fingerprint(fresh_payload) == host_fingerprint(baseline_payload)
    metric = "throughput" if same_host else "speedup"
    unit = "u/s" if same_host else "x speedup"
    if not same_host:
        print(
            "host differs from the baseline's; comparing scalar/fast speedups "
            "(absolute wall seconds are not comparable across machines)"
        )
    baseline = extract_metric(baseline_payload, metric)
    if not baseline:
        # An old-schema snapshot carries no comparable data yet.
        print(f"no {metric} data in {args.baseline}; skipping comparison")
        return 0
    fresh = extract_metric(fresh_payload, metric)
    lines, failures = compare(fresh, baseline, args.tolerance, unit)
    print("\n".join(lines))
    if failures:
        print(f"\nperf-smoke {metric} regression:", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
