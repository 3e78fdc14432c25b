"""Sweep reporting: persisted cells -> cross-scenario comparison tables.

The sweep engine (:mod:`repro.analysis.sweeps`) persists one JSON record per
(experiment × scenario × seed) cell but nothing reads those records back.
This module closes the loop: it loads a results directory (or an in-memory
:class:`~repro.analysis.sweeps.SweepReport`), aggregates each (experiment,
scenario) group **across seeds** — mean, sample std, and a Student-t 95%
confidence interval for every numeric field, recursively through nested
result structures — and renders cross-scenario comparison tables as plain
text and Markdown plus a machine-readable ``report.json``.

Run it directly over any results directory::

    PYTHONPATH=src python -m repro.analysis results/

or ask ``examples/sweep_scenarios.py`` for ``--report`` to aggregate the
sweep it just ran.

It also renders single experiment results as text tables
(:func:`format_figure3`, :func:`format_figure5`, :func:`format_figure9`,
:func:`format_mapping`).  The benchmarks print these so that a run of
``pytest benchmarks/`` produces the same rows and series the paper reports.
"""

from __future__ import annotations

import argparse
import json
import math
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Mapping, Optional, Sequence, TYPE_CHECKING

from ..obs import FAULT_AXES

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .experiments import Figure3Row, Figure5Case, Figure9Point
    from .sweeps import SweepReport

__all__ = [
    "FailedCell",
    "MetricAggregate",
    "ScenarioAggregate",
    "ExperimentDigest",
    "SweepDigest",
    "flatten_numeric",
    "load_records",
    "build_digest",
    "digest_results_dir",
    "digest_sweep_report",
    "write_report",
    "format_figure3",
    "format_figure5",
    "format_figure9",
    "format_mapping",
    "main",
]

#: Two-sided 95% Student-t critical values by degrees of freedom.  Seeds per
#: cell group are small (2-8), where the normal 1.96 badly understates the
#: interval; beyond the table the normal approximation is within ~4%.
_T95 = {
    1: 12.706, 2: 4.303, 3: 3.182, 4: 2.776, 5: 2.571,
    6: 2.447, 7: 2.365, 8: 2.306, 9: 2.262, 10: 2.228,
    11: 2.201, 12: 2.179, 13: 2.160, 14: 2.145, 15: 2.131,
    16: 2.120, 17: 2.110, 18: 2.101, 19: 2.093, 20: 2.086,
    25: 2.060, 30: 2.042,
}


def t_critical_95(df: int) -> float:
    """Two-sided 95% Student-t critical value for ``df`` degrees of freedom."""
    if df <= 0:
        return float("nan")
    if df > 30:
        return 1.960
    if df in _T95:
        return _T95[df]
    # Between tabulated points the next-smaller df's value is an upper
    # bound: intervals round conservatively wide.
    return _T95[max(entry for entry in _T95 if entry < df)]


# ---------------------------------------------------------------------------
# Flattening nested results into (dotted-path -> float) metrics
# ---------------------------------------------------------------------------


def flatten_numeric(value: Any, prefix: str = "") -> dict[str, float]:
    """Every numeric leaf of a nested dict/list structure, by dotted path.

    Dict keys join with ``.``; list/tuple elements index as ``[i]``.  Bools
    are skipped (they are categorical, not measurements); ints and floats —
    including non-finite floats, which propagate as ``nan`` — are kept.
    """
    flat: dict[str, float] = {}
    if isinstance(value, Mapping):
        for key, item in value.items():
            path = f"{prefix}.{key}" if prefix else str(key)
            flat.update(flatten_numeric(item, path))
    elif isinstance(value, (list, tuple)):
        for index, item in enumerate(value):
            flat.update(flatten_numeric(item, f"{prefix}[{index}]"))
    elif isinstance(value, bool):
        pass
    elif isinstance(value, (int, float)):
        flat[prefix or "value"] = float(value)
    return flat


# ---------------------------------------------------------------------------
# Aggregates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MetricAggregate:
    """Across-seed statistics of one numeric metric in one (experiment, scenario)."""

    metric: str
    count: int
    mean: float
    std: float
    ci95: float
    minimum: float
    maximum: float

    @classmethod
    def from_values(cls, metric: str, values: Sequence[float]) -> "MetricAggregate":
        n = len(values)
        mean = math.fsum(values) / n
        if n > 1:
            variance = math.fsum((v - mean) ** 2 for v in values) / (n - 1)
            std = math.sqrt(variance)
            ci95 = t_critical_95(n - 1) * std / math.sqrt(n)
        else:
            std = 0.0
            ci95 = 0.0
        return cls(
            metric=metric,
            count=n,
            mean=mean,
            std=std,
            ci95=ci95,
            minimum=min(values),
            maximum=max(values),
        )

    def format(self) -> str:
        """Human-readable ``mean ± ci95`` cell."""
        if self.count > 1:
            return f"{self.mean:.4g} ± {self.ci95:.3g}"
        return f"{self.mean:.4g}"

    def to_jsonable(self) -> dict[str, Any]:
        return {
            "count": self.count,
            "mean": self.mean,
            "std": self.std,
            "ci95": self.ci95,
            "min": self.minimum,
            "max": self.maximum,
        }


@dataclass
class ScenarioAggregate:
    """One scenario's across-seed aggregates within one experiment."""

    scenario: str
    seeds: tuple[int, ...]
    metrics: dict[str, MetricAggregate]

    def to_jsonable(self) -> dict[str, Any]:
        return {
            "scenario": self.scenario,
            "seeds": list(self.seeds),
            "metrics": {name: agg.to_jsonable() for name, agg in self.metrics.items()},
        }


@dataclass
class ExperimentDigest:
    """All scenarios of one experiment, side by side."""

    experiment: str
    scenarios: list[ScenarioAggregate]

    @property
    def metric_names(self) -> list[str]:
        """Union of metric paths, in first-appearance order across scenarios."""
        names: dict[str, None] = {}
        for scenario in self.scenarios:
            for name in scenario.metrics:
                names.setdefault(name)
        return list(names)

    def to_jsonable(self) -> dict[str, Any]:
        return {
            "experiment": self.experiment,
            "scenarios": [scenario.to_jsonable() for scenario in self.scenarios],
        }


@dataclass(frozen=True)
class FailedCell:
    """One cell that produced an error record instead of a result.

    ``worker`` is the distributed worker the failure is attributed to
    (currently set by the coordinator on ``WorkerLost`` records); local
    failures carry ``None``.  Only *error* records ever name a worker —
    successful records stay worker-agnostic so a distributed sweep remains
    byte-identical to a local one.
    """

    experiment: str
    scenario: str
    seed: int
    error_type: str
    message: str
    worker: Optional[str] = None

    @classmethod
    def from_record(cls, record: Mapping[str, Any]) -> "FailedCell":
        error = record.get("error") or {}
        worker = error.get("worker")
        return cls(
            experiment=str(record["experiment"]),
            scenario=str(record["scenario"]["name"]),
            seed=int(record["seed"]),
            error_type=str(error.get("type", "Error")),
            message=str(error.get("message", "")),
            worker=str(worker) if worker is not None else None,
        )

    def to_jsonable(self) -> dict[str, Any]:
        return {
            "experiment": self.experiment,
            "scenario": self.scenario,
            "seed": self.seed,
            "error_type": self.error_type,
            "message": self.message,
            "worker": self.worker,
        }

    def describe(self) -> str:
        message = self.message if len(self.message) <= 120 else self.message[:117] + "..."
        suffix = f" [worker {self.worker}]" if self.worker else ""
        return (
            f"{self.experiment} / {self.scenario} / seed {self.seed}: "
            f"{self.error_type}: {message}{suffix}"
        )


#: (key in :meth:`SweepDigest.failure_hotspots`, human-readable axis title).
#: One vocabulary with the live telemetry: these are
#: :data:`repro.obs.metrics.FAULT_AXES`, so the post-hoc hotspot tables and
#: the coordinator's streamed ``fault_classes`` rank the same dimensions
#: under the same names.
_HOTSPOT_AXES = FAULT_AXES


@dataclass
class SweepDigest:
    """The aggregated form of a whole results directory / sweep run.

    ``failed_cells`` lists cells whose record carries an error instead of a
    result; they are *flagged*, never aggregated — averaging a traceback
    into a latency table would silently corrupt every statistic sharing its
    group.
    """

    experiments: list[ExperimentDigest]
    cell_count: int
    failed_cells: list[FailedCell] = field(default_factory=list)

    @property
    def group_count(self) -> int:
        return sum(len(digest.scenarios) for digest in self.experiments)

    def failure_hotspots(self) -> dict[str, list[tuple[str, int]]]:
        """Where the failures concentrate, along three operational axes.

        Returns ``{"error_type": [...], "cell": [...], "worker": [...]}``,
        each a list of ``(label, count)`` sorted by descending count (ties
        by label) — the O&M-style localization view: is a fault class, a
        particular (experiment, scenario) group, or one worker eating the
        sweep?  Cells without worker attribution (local failures) count
        under the ``"(local)"`` worker label.
        """
        by_error: Counter[str] = Counter()
        by_cell: Counter[str] = Counter()
        by_worker: Counter[str] = Counter()
        for failed in self.failed_cells:
            by_error[failed.error_type] += 1
            by_cell[f"{failed.experiment} / {failed.scenario}"] += 1
            by_worker[failed.worker or "(local)"] += 1

        def ranked(counter: Counter) -> list[tuple[str, int]]:
            return sorted(counter.items(), key=lambda item: (-item[1], item[0]))

        return {
            "error_type": ranked(by_error),
            "cell": ranked(by_cell),
            "worker": ranked(by_worker),
        }

    def to_jsonable(self) -> dict[str, Any]:
        return {
            "cells": self.cell_count,
            "groups": self.group_count,
            "failed": len(self.failed_cells),
            "failed_cells": [cell.to_jsonable() for cell in self.failed_cells],
            "failure_hotspots": {
                axis: [{"label": label, "count": count} for label, count in ranking]
                for axis, ranking in self.failure_hotspots().items()
            },
            "experiments": [digest.to_jsonable() for digest in self.experiments],
        }

    # -- rendering ---------------------------------------------------------

    def render_markdown(self) -> str:
        """Cross-scenario comparison tables, one per experiment (GFM)."""

        def cell(text: str) -> str:
            # Scenario names and result-dict keys are unconstrained input; a
            # literal "|" would add a phantom column and shear the table.
            return text.replace("|", "\\|")

        lines = ["# Sweep report", ""]
        lines.append(
            f"{self.cell_count} cells aggregated into {self.group_count} "
            "(experiment, scenario) groups; cells are mean ± 95% CI "
            "(Student-t) across seeds."
        )
        for digest in self.experiments:
            lines += ["", f"## {cell(digest.experiment)}", ""]
            header = ["metric"] + [
                cell(f"{s.scenario} (n={len(s.seeds)})") for s in digest.scenarios
            ]
            lines.append("| " + " | ".join(header) + " |")
            lines.append("| " + " | ".join(["---"] * len(header)) + " |")
            for metric in digest.metric_names:
                row = [f"`{cell(metric)}`"]
                for scenario in digest.scenarios:
                    agg = scenario.metrics.get(metric)
                    row.append(agg.format() if agg is not None else "—")
                lines.append("| " + " | ".join(row) + " |")
        if self.failed_cells:
            lines += ["", "## ⚠ Failed cells", ""]
            lines.append(
                f"{len(self.failed_cells)} cell(s) produced an error record and are "
                "excluded from every aggregate above:"
            )
            lines.append("")
            for failed in self.failed_cells:
                lines.append(f"- {cell(failed.describe())}")
            hotspots = self.failure_hotspots()
            lines += ["", "### Failure hotspots", ""]
            lines.append("| axis | hotspot | failures |")
            lines.append("| --- | --- | --- |")
            for axis, title in _HOTSPOT_AXES:
                for label, count in hotspots[axis]:
                    lines.append(f"| {title} | {cell(label)} | {count} |")
        lines.append("")
        return "\n".join(lines)

    def render_text(self) -> str:
        """The same comparison as fixed-width terminal tables."""
        blocks: list[str] = [
            f"sweep report — {self.cell_count} cells, {self.group_count} groups "
            "(mean ± 95% CI across seeds)"
        ]
        for digest in self.experiments:
            header = ["metric"] + [
                f"{s.scenario} (n={len(s.seeds)})" for s in digest.scenarios
            ]
            rows = [header]
            for metric in digest.metric_names:
                row = [metric]
                for scenario in digest.scenarios:
                    agg = scenario.metrics.get(metric)
                    row.append(agg.format() if agg is not None else "-")
                rows.append(row)
            widths = [max(len(row[col]) for row in rows) for col in range(len(header))]
            formatted = [
                "  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip()
                for row in rows
            ]
            formatted.insert(1, "  ".join("-" * width for width in widths))
            blocks.append(f"\n{digest.experiment}\n" + "\n".join(formatted))
        if self.failed_cells:
            listing = "\n".join(f"  ! {failed.describe()}" for failed in self.failed_cells)
            blocks.append(
                f"\nFAILED CELLS ({len(self.failed_cells)}; excluded from all "
                f"aggregates):\n{listing}"
            )
            hotspots = self.failure_hotspots()
            rows = [
                f"  {title}: " + ", ".join(f"{label} ({count})" for label, count in hotspots[axis])
                for axis, title in _HOTSPOT_AXES
                if hotspots[axis]
            ]
            blocks.append("failure hotspots:\n" + "\n".join(rows))
        return "\n".join(blocks)


# ---------------------------------------------------------------------------
# Loading and grouping records
# ---------------------------------------------------------------------------


def _record_key(record: Mapping[str, Any]) -> tuple[str, str, int]:
    return (
        str(record["experiment"]),
        str(record["scenario"]["name"]),
        int(record["seed"]),
    )


def load_records(results_dir: str | Path) -> list[dict]:
    """Load every persisted cell record under ``results_dir``.

    Cells live at ``<results_dir>/<experiment>/<slug>-seed<k>-<hash>.json``.
    Files that are not valid cell records (corrupt JSON, the report files
    this module writes, stray artifacts) are skipped.  When several files
    describe the same (experiment, scenario, seed) — stale cells from
    before a code edit changed the cache hash — the newest file wins.
    """
    results_dir = Path(results_dir)
    candidates: list[tuple[float, dict]] = []
    for path in sorted(results_dir.glob("*/*.json")):
        try:
            with path.open("r", encoding="utf-8") as handle:
                record = json.load(handle)
        except (OSError, json.JSONDecodeError):
            continue
        if not isinstance(record, dict):
            continue
        if not {"experiment", "scenario", "seed", "result"} <= record.keys():
            continue
        if not isinstance(record["scenario"], dict) or "name" not in record["scenario"]:
            continue
        candidates.append((path.stat().st_mtime, record))
    newest: dict[tuple[str, str, int], tuple[float, dict]] = {}
    for mtime, record in candidates:
        key = _record_key(record)
        if key not in newest or mtime >= newest[key][0]:
            newest[key] = (mtime, record)
    return [record for _, (_, record) in sorted(newest.items())]


def build_digest(records: Iterable[Mapping[str, Any]]) -> SweepDigest:
    """Aggregate cell records into a :class:`SweepDigest`.

    Records group by (experiment, scenario name); within each group every
    numeric leaf of ``result`` aggregates across the group's seeds.  A
    metric missing from some seeds (heterogeneous results) aggregates over
    the seeds that do report it.  Error records (cells whose runner raised,
    or whose distributed worker was lost for good) are split out into
    ``failed_cells`` and never aggregated.
    """
    groups: dict[str, dict[str, list[Mapping[str, Any]]]] = {}
    failed: list[FailedCell] = []
    for record in records:
        if record.get("error") is not None:
            failed.append(FailedCell.from_record(record))
            continue
        experiment = str(record["experiment"])
        scenario = str(record["scenario"]["name"])
        groups.setdefault(experiment, {}).setdefault(scenario, []).append(record)

    experiments: list[ExperimentDigest] = []
    cell_count = 0
    for experiment in sorted(groups):
        scenarios: list[ScenarioAggregate] = []
        for scenario in sorted(groups[experiment]):
            group = groups[experiment][scenario]
            cell_count += len(group)
            values: dict[str, list[float]] = {}
            for record in group:
                for metric, value in flatten_numeric(record["result"]).items():
                    values.setdefault(metric, []).append(value)
            metrics = {
                metric: MetricAggregate.from_values(metric, series)
                for metric, series in values.items()
            }
            seeds = tuple(sorted(int(record["seed"]) for record in group))
            scenarios.append(
                ScenarioAggregate(scenario=scenario, seeds=seeds, metrics=metrics)
            )
        experiments.append(ExperimentDigest(experiment=experiment, scenarios=scenarios))
    failed.sort(key=lambda cell: (cell.experiment, cell.scenario, cell.seed))
    return SweepDigest(
        experiments=experiments,
        cell_count=cell_count + len(failed),
        failed_cells=failed,
    )


def digest_results_dir(results_dir: str | Path) -> SweepDigest:
    """Load + aggregate everything persisted under ``results_dir``."""
    return build_digest(load_records(results_dir))


def digest_sweep_report(report: "SweepReport") -> SweepDigest:
    """Aggregate an in-memory sweep run without touching the filesystem.

    Cached and fresh cells look identical (both carry the JSON-able result),
    so this digests exactly the grid that ran — nothing more, even when the
    results directory holds older sweeps.
    """
    records = [
        {
            "experiment": cell.experiment,
            "scenario": cell.scenario.to_jsonable(),
            "seed": cell.seed,
            "result": cell.result,
            "error": cell.error,
        }
        for cell in report.cells
    ]
    return build_digest(records)


def write_report(digest: SweepDigest, out_dir: str | Path) -> dict[str, Path]:
    """Write ``report.json`` and ``report.md`` under ``out_dir``.

    Returns the written paths.  ``report.json`` is the machine-readable
    aggregate (``digest.to_jsonable()``); ``report.md`` is the Markdown
    comparison table, paste-ready for an experiments writeup.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    json_path = out_dir / "report.json"
    md_path = out_dir / "report.md"
    with json_path.open("w", encoding="utf-8") as handle:
        json.dump(digest.to_jsonable(), handle, indent=2, sort_keys=True)
        handle.write("\n")
    md_path.write_text(digest.render_markdown(), encoding="utf-8")
    return {"json": json_path, "markdown": md_path}


# ---------------------------------------------------------------------------
# Experiment tables
# ---------------------------------------------------------------------------


def format_figure3(rows: Sequence[Figure3Row]) -> str:
    """Figure 3 as a text table: latency vs bitrate for each loss rate."""
    lines = [f"{'loss':>6} {'bitrate (Mbps)':>15} {'mean (ms)':>11} {'p95 (ms)':>10} {'delivered':>10}"]
    for row in sorted(rows, key=lambda r: (r.loss_rate, r.bitrate_bps)):
        lines.append(
            f"{row.loss_rate:>6.2f} {row.bitrate_bps / 1e6:>15.2f} {row.mean_latency_ms:>11.1f} "
            f"{row.p95_latency_ms:>10.1f} {row.delivery_ratio:>10.2f}"
        )
    return "\n".join(lines)


def format_figure5(cases: Sequence[Figure5Case]) -> str:
    """Figure 5 as text: the most-correlated region per dialogue."""
    lines = []
    for case in cases:
        ranked = sorted(case.region_correlations.items(), key=lambda kv: kv[1], reverse=True)
        top = ", ".join(f"{name}={value:+.2f}" for name, value in ranked[:3])
        marker = "✓" if case.target_is_most_relevant else "✗"
        lines.append(f"[{marker}] {case.question!r} → expected {case.target_object}; top: {top}")
    return "\n".join(lines)


def format_figure9(points: Sequence[Figure9Point]) -> str:
    """Figure 9 as text: accuracy/bitrate pairs per method."""
    lines = [f"{'method':>15} {'target (kbps)':>14} {'achieved (kbps)':>16} {'accuracy':>9}"]
    for point in sorted(points, key=lambda p: (p.method, -p.target_bitrate_bps)):
        lines.append(
            f"{point.method:>15} {point.target_bitrate_bps / 1000:>14.0f} "
            f"{point.achieved_bitrate_bps / 1000:>16.0f} {point.accuracy:>9.2f}"
        )
    return "\n".join(lines)


def format_mapping(title: str, mapping: Mapping[str, object], indent: int = 2) -> str:
    """Generic key/value rendering used by the smaller experiments."""
    pad = " " * indent
    lines = [title]
    for key, value in mapping.items():
        if isinstance(value, Mapping):
            lines.append(f"{pad}{key}:")
            for inner_key, inner_value in value.items():
                lines.append(f"{pad}{pad}{inner_key}: {_fmt(inner_value)}")
        else:
            lines.append(f"{pad}{key}: {_fmt(value)}")
    return "\n".join(lines)


def _fmt(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Aggregate persisted sweep cells into a cross-scenario report."
    )
    parser.add_argument("results_dir", help="results directory written by SweepRunner")
    parser.add_argument(
        "--out",
        default=None,
        help="directory for report.json / report.md (default: the results directory)",
    )
    args = parser.parse_args(argv)

    digest = digest_results_dir(args.results_dir)
    if digest.cell_count == 0:
        print(f"no sweep cells found under {args.results_dir}")
        return 1
    print(digest.render_text())
    paths = write_report(digest, args.out or args.results_dir)
    print(f"\nwrote {paths['markdown']} and {paths['json']}")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised by CI
    raise SystemExit(main())
