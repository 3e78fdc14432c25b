#!/usr/bin/env python3
"""Repository benchmark: seeded workloads over the simulated AI-video-chat stack.

Run from the root of a checkout::

    python3 repobench/run.py --workload paper_regen --seed 0 --seconds 5 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
runs the workload's traced pass and reports the per-layer metrics (see
``tracing.py``).  Every run checks the workload's outputs.  Human-readable
lines go first: one ``metric = value unit`` line per metric, then a JSON
report line with the seed, host facts, calibration time and check results.
The last line of standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``.  The report and the
result are also written under ``.repobench/results/``; the traced run writes
its spans to ``.repobench/traces/``.

The program is imported from ``src/`` of the checkout this file sits in and
from nowhere else; without it the benchmark exits with status 2 and prints
no result.  repobench/README.md lists what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".repobench"

#: Fresh-process set-ups timed per run; setup_s is their median.
SETUP_PROBES = 3
RSS_SAMPLE_INTERVAL_S = 0.1
#: Runs of the calibration kernel timed at the start of every run.
CALIBRATION_RUNS = 200


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("paper_regen", "chat_turns", "dispatched_sweep"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--child-pass", action="store_true", help=argparse.SUPPRESS)
    mode.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def normalise_environment() -> None:
    """Put the state that swings timings in the same place for every run.

    The default delivery mode is measured (no REPRO_NET_FASTPATH override),
    the package-fingerprint memo is off so every set-up hashes the tree the
    same way, and child processes import the program from this checkout.
    """
    os.environ.pop("REPRO_NET_FASTPATH", None)
    os.environ["REPRO_FINGERPRINT_CACHE"] = ""
    os.environ["PYTHONPATH"] = str(SRC)
    sys.path.insert(0, str(SRC))


def import_program() -> None:
    import repro

    location = Path(repro.__file__).resolve()
    if SRC.resolve() not in location.parents:
        raise ImportError(f"repro was imported from {location}, not from {SRC}")


def compile_bytecode() -> None:
    """Write bytecode for the whole source tree before anything is timed, so
    the first run in a checkout imports as fast as the later ones."""
    import compileall

    compileall.compile_dir(str(SRC), quiet=2)
    compileall.compile_dir(str(HERE), quiet=2)


# ---------------------------------------------------------------------------
# Host facts, calibration and memory
# ---------------------------------------------------------------------------


def host_facts(fingerprint: str) -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text(encoding="utf-8").splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "package_fingerprint": fingerprint,
    }


def _calibration_kernel() -> None:
    """Fixed CPU work independent of the program: small DCTs plus a Python loop."""
    import numpy as np
    from scipy.fft import dctn

    blocks = np.random.default_rng(0).normal(size=(8, 16, 8, 8))
    for _ in range(4):
        dctn(blocks, axes=(2, 3), norm="ortho")
    total = 0
    for value in range(3000):
        total += value * value % 7


def calibration_ms() -> float:
    """Median wall time of one calibration kernel run, timed before the
    workload starts.  Reported beside the metrics, so that figures from
    different hosts or host loads can be put side by side; the metrics
    themselves are not scaled by it (README.md says why)."""
    times = []
    for _ in range(CALIBRATION_RUNS):
        started = time.perf_counter()
        _calibration_kernel()
        times.append((time.perf_counter() - started) * 1000.0)
    return statistics.median(times)


END_TO_END_UNITS = {"setup_s": "s", "work_s": "s"}


def end_to_end(setup_s: float, units: list) -> dict[str, float]:
    """The timing metrics.

    ``op_wall_ms_p50``/``op_wall_ms_p90`` (per-operation percentiles) go to
    the report only: over paper_regen's 19 unequal experiments the median
    changes identity from seed to seed, and a sweep cell's tail moved by
    half of its median over a few minutes of host contention.
    """
    import numpy as np

    operations = [ms for unit in units for ms in unit.op_ms]
    return {
        "setup_s": setup_s,
        "work_s": statistics.median(unit.wall_s for unit in units),
        "op_wall_ms_p50": float(np.percentile(operations, 50)),
        "op_wall_ms_p90": float(np.percentile(operations, 90)),
    }


def _descendants(root: int) -> set[int]:
    """Every live process below ``root`` (via /proc/<pid>/task/<tid>/children)."""
    found: set[int] = set()
    frontier = [root]
    while frontier:
        pid = frontier.pop()
        try:
            tasks = os.listdir(f"/proc/{pid}/task")
        except OSError:
            continue
        for task in tasks:
            try:
                with open(f"/proc/{pid}/task/{task}/children", "rb") as handle:
                    children = [int(child) for child in handle.read().split()]
            except OSError:
                continue
            frontier += [child for child in children if child not in found]
            found.update(children)
    return found


def _peak_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status", "rb") as handle:
            for line in handle:
                if line.startswith(b"VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


class PeakRss:
    """Peak resident memory of this process and the descendants running beside it.

    A sampler thread adds up the high-water marks of this process and of
    every live descendant and keeps the largest sum.  Processes that run one
    after another (a pass per unit, a fleet per sweep) never add up, so the
    figure does not grow with the number of units a run fits in.
    """

    def __init__(self) -> None:
        self.peak_kb = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, name="peak-rss", daemon=True)

    def _sample(self) -> None:
        me = os.getpid()
        while True:
            total = _peak_kb(me) + sum(_peak_kb(pid) for pid in _descendants(me))
            self.peak_kb = max(self.peak_kb, total)
            if self._stop.wait(RSS_SAMPLE_INTERVAL_S):
                return

    def __enter__(self) -> "PeakRss":
        self._thread.start()
        return self

    def __exit__(self, *exc: object) -> None:
        self._stop.set()
        self._thread.join()

    def mb(self) -> float:
        return max(self.peak_kb, _peak_kb(os.getpid())) / 1024.0


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------


def time_setup_probes(args: argparse.Namespace) -> list[float]:
    """Wall time of the workload's set-up, each in a fresh interpreter."""
    from repro.core import wallclock

    command = [sys.executable, str(Path(__file__)), "--setup-probe", "--workload", args.workload,
               "--seed", str(args.seed)]
    samples = []
    for _ in range(SETUP_PROBES):
        started = wallclock.perf_counter()
        completed = subprocess.run(command, capture_output=True, text=True, timeout=120, check=False)
        samples.append(wallclock.perf_counter() - started)
        if completed.returncode != 0:
            raise RuntimeError(f"set-up probe exited {completed.returncode}:\n{completed.stderr[-4000:]}")
    return samples


def benchmark(args: argparse.Namespace) -> int:
    import tracing
    import workloads

    from repro.core import wallclock

    workload = workloads.WORKLOADS[args.workload](args.seed, STATE, bool(args.trace))
    host = host_facts(workloads.fingerprint())
    calibration = calibration_ms()
    # The traced run reports no set-up time, so it skips the probes.
    setup_samples = [] if args.trace else time_setup_probes(args)
    started = wallclock.perf_counter()
    with PeakRss() as memory:
        workload.setup()
        in_run_setup_s = wallclock.perf_counter() - started
        try:
            if args.trace:
                outcome = workload.traced(args.seconds)
            else:
                outcome = workload.measure(args.seconds)
        finally:
            workload.teardown()

    if args.trace:
        unknown = set(outcome.metrics) - set(tracing.PER_LAYER_METRICS)
        if unknown:
            raise RuntimeError(f"unlisted per-layer metrics: {sorted(unknown)}")
        values = {name: float(outcome.metrics.get(name, 0.0)) for name in tracing.PER_LAYER_METRICS}
        for problem in tracing.check_predictions(args.workload, values):
            outcome.check(False, problem)
        metrics = {name: {"value": value, "unit": tracing.per_layer_unit(name)} for name, value in values.items()}
    else:
        outcome.notes["operations"] = sum(len(unit.op_ms) for unit in outcome.units)
        values = end_to_end(statistics.median(setup_samples), outcome.units)
        outcome.notes["operation_ms"] = {name: values.pop(name) for name in ("op_wall_ms_p50", "op_wall_ms_p90")}
        metrics = {name: {"value": value, "unit": END_TO_END_UNITS[name]} for name, value in values.items()}
        metrics["peak_rss_mb"] = {"value": memory.mb(), "unit": "MB"}

    result = {
        "correct": not outcome.problems,
        "attempted": max(1, outcome.attempted),
        "failed": outcome.failed,
        "metrics": metrics,
    }
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": host,
        "calibration_ms": calibration,
        "setup_probe_s": setup_samples,
        "in_run_setup_s": in_run_setup_s,
        "problems": outcome.problems,
        "notes": outcome.notes,
    }
    results_dir = STATE / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}.json").write_text(
        json.dumps({"report": report, "result": result}, indent=2, sort_keys=True), encoding="utf-8")

    for problem in outcome.problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(report, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"repobench: no program at {SRC / 'repro'}; run from a full checkout", file=sys.stderr)
        return 2
    normalise_environment()
    if not (args.child_pass or args.setup_probe):
        compile_bytecode()
    import_program()
    import workloads

    if args.child_pass:
        summary = workloads.child_pass(args.workload, args.seed, bool(args.trace), STATE)
        print(json.dumps(summary, sort_keys=True))
        return 0
    if args.setup_probe:
        workload = workloads.WORKLOADS[args.workload](args.seed, STATE, False)
        try:
            workload.setup()
        finally:
            workload.teardown()
        return 0
    return benchmark(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
