"""Build a DeViBench instance and evaluate streaming methods on it.

Runs the five-step automatic QA construction pipeline (Section 3.1 of the
paper) over a synthetic video corpus, prints the Table 1 summary and the
Figure 8 distribution, saves the benchmark to JSON, and then evaluates the
uniform baseline against context-aware streaming at several bitrates
(Figure 9).

Run with:  python examples/devibench_build_and_evaluate.py
"""

from __future__ import annotations

from pathlib import Path

from repro.devibench import (
    BenchmarkEvaluator,
    build_benchmark,
    format_figure8,
    format_table1,
)


def main() -> None:
    print("Building DeViBench over a synthetic corpus (this encodes every video)...\n")
    report = build_benchmark(video_count=6, seed=0)

    print(format_table1(report))
    print()
    print(format_figure8(report.benchmark))
    print()

    output = Path("devibench_synthetic.json")
    report.benchmark.save(output)
    print(f"saved {len(report.benchmark)} QA samples to {output}\n")

    evaluator = BenchmarkEvaluator(report.benchmark)
    # One pass over the benchmark evaluates every (bitrate, method) point.
    points = [
        (bitrate, context_aware)
        for context_aware in (False, True)
        for bitrate in (850_000.0, 430_000.0, 200_000.0)
    ]
    print(f"{'method':>15} {'target kbps':>12} {'achieved kbps':>14} {'accuracy':>9}")
    for result in evaluator.evaluate_points(points):
        method = "context-aware" if result.context_aware else "baseline"
        print(
            f"{method:>15} {result.target_bitrate_bps / 1000:>12.0f} "
            f"{result.mean_achieved_bitrate_bps / 1000:>14.0f} {result.accuracy:>9.2f}"
        )


if __name__ == "__main__":
    main()
