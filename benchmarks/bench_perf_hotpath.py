"""Benchmark the vectorized simulation fast path against the scalar baseline.

Times the canonical hot-path workloads (single 10 s sessions under three
loss models, a dense-trace session, an 18-cell smoke sweep through the
multiprocessing pool, and FEC encode/decode at scale) twice — once with
``REPRO_NET_FASTPATH=0`` (scalar reference: per-packet RNG draws,
linear-scan trace lookups) and once with the vectorized fast path — after
asserting that both paths produce bit-identical statistics for identical
seeds.  Emits the ``BENCH_sweep.json`` trajectory snapshot at the repo
root.

Run with:
    PYTHONPATH=src python benchmarks/bench_perf_hotpath.py            # full run
    PYTHONPATH=src python benchmarks/bench_perf_hotpath.py --smoke    # CI-sized run

See docs/PERFORMANCE.md for how to read the output and add workloads.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.analysis.perfbench import (  # noqa: E402 (path bootstrap above)
    DEFAULT_BENCH_PATH,
    profile_workloads,
    render_table,
    run_benchmarks,
    write_bench_json,
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="CI-sized run: 2 s sessions, 1 s sweep cells (still best-of-3 unless --repeats)",
    )
    parser.add_argument(
        "--out",
        default=DEFAULT_BENCH_PATH,
        help=f"output JSON path (default: {DEFAULT_BENCH_PATH} in the CWD)",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=None,
        help="timing repetitions per workload (default: best-of-3, median reported)",
    )
    parser.add_argument(
        "--processes",
        type=int,
        default=None,
        help="sweep pool size (default: one per cell up to the CPU count)",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help=(
            "cProfile each fast-path workload and print the top-20 functions "
            "by cumulative time, so the next perf PR starts from data "
            "(skips timing/gates; the sweep profile mostly shows pool wait)"
        ),
    )
    args = parser.parse_args()

    if args.profile:
        profile_workloads(smoke=args.smoke, processes=args.processes)
        return 0

    payload = run_benchmarks(smoke=args.smoke, repeats=args.repeats, processes=args.processes)
    destination = write_bench_json(payload, args.out)
    print(render_table(payload))
    print(f"\nwrote {destination}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
