"""Per-layer spans for the traced benchmark run.

The benchmark attributes time to the layers of ``src/repro`` (``video``,
``mllm``, ``core``, ``devibench``, ``net``, ``analysis``, ``distrib``,
``obs``) without changing the program: :class:`LayerTracer` wraps each
layer's public entry points in wall-clock spans of the existing
:class:`repro.obs.TraceRecorder` (schema ``repro-trace-v1``).  A class method
is wrapped on its class; a module-level function is wrapped where its caller
imported it (``encode_at_target_bitrate`` is called through the name bound in
``repro.core.context_aware``, ``high_frequency_retention`` through the one in
``repro.mllm.clip``), because rebinding only the defining module would leave
those call sites unseen.  The prediction checks at the bottom turn such a
miss into a failure instead of a silent zero.

Every span carries the id of the operation it belongs to (one experiment,
chat turn or sweep cell).  A layer's self time is the summed duration of its
spans minus the time their direct child spans cover.  Spans stay in memory
and are written out once, when the run ends.
"""

from __future__ import annotations

import functools
import json
import statistics
from collections import Counter
from pathlib import Path
from typing import Any, Callable, Iterable, Optional

from repro.core import wallclock
from repro.obs import TRACE_SCHEMA, TraceRecorder

#: Span name -> per-layer self-time metric.
SELF_TIME_METRICS = {
    "video.scene": "video.scene.self_s",
    "video.codec.encode": "video.codec.encode_self_s",
    "video.codec.decode": "video.codec.decode_self_s",
    "video.rate_control": "video.rate_control.self_s",
    "video.quality": "video.quality.self_s",
    "mllm.clip": "mllm.clip.self_s",
    "mllm.model": "mllm.model.self_s",
    "core.streamer.context_aware": "core.streamer.context_aware_self_s",
    "core.streamer.uniform": "core.streamer.uniform_self_s",
    "core.pipeline.turn": "core.pipeline.turn_self_s",
    "devibench.build": "devibench.build_self_s",
    "devibench.evaluate": "devibench.evaluate_self_s",
    "net.session": "net.session_self_s",
    "net.session_fec": "net.session_fec_self_s",
}

#: Counters kept by the wrappers themselves (name -> metric).
COUNT_METRICS = (
    "video.scene.frames",
    "video.codec.encodes",
    "video.rate_control.searches",
    "video.quality.hf_retention_calls",
    "mllm.clip.maps",
    "mllm.clip.patches",
    "mllm.model.answers",
    "devibench.samples_evaluated",
    "net.sessions",
    "net.sessions_fec",
    "net.packets_sent",
    "net.packets_dropped",
    "net.nacks",
    "net.retransmissions",
    "net.fec_recovered",
)

#: Every experiment the paper_regen workload times, one metric each.
EXPERIMENTS = (
    "ablation_gamma",
    "ablation_patch_size",
    "ablation_proactive",
    "ablation_semantic_layers",
    "ablation_token_pruning",
    "closed_loop_session",
    "end_to_end_turn",
    "figure10_qp_allocation",
    "figure2_redundancy",
    "figure3_latency",
    "figure4_context_dependence",
    "figure5_correlation_maps",
    "figure9_accuracy",
    "section1_latency_budget",
    "section21_jitter_invariance",
    "section21_throughput_asymmetry",
    "section23_coarse_qa",
    "table1_pipeline",
    "token_streaming_feasibility",
)

SWEEP_METRICS = (
    "analysis.sweeps.cells_executed",
    "analysis.sweeps.cells_cached",
    "analysis.sweeps.cells_failed",
    "analysis.sweeps.queue_wait_s_p50",
    "analysis.sweeps.execute_s_sum",
    "analysis.sweeps.overhead_s",
    "analysis.sweeps.warm_rerun_s",
    "analysis.sweeps.cache_hit_ratio",
)

DISTRIB_METRICS = (
    "distrib.cells_dispatched",
    "distrib.requeues",
    "distrib.requeue_ratio",
    "distrib.roundtrip_minus_execute_ms_p50",
)

#: Every per-layer metric, in the order BENCHMARK.json lists them.
PER_LAYER_METRICS = (
    "video.scene.frames",
    "video.scene.self_s",
    "video.codec.encodes",
    "video.codec.encode_self_s",
    "video.codec.decode_self_s",
    "video.rate_control.searches",
    "video.rate_control.probes_per_search",
    "video.rate_control.self_s",
    "video.quality.hf_retention_calls",
    "video.quality.self_s",
    "mllm.clip.maps",
    "mllm.clip.patches",
    "mllm.clip.self_s",
    "mllm.model.answers",
    "mllm.model.self_s",
    "core.streamer.context_aware_self_s",
    "core.streamer.uniform_self_s",
    "core.pipeline.turn_self_s",
    "devibench.build_self_s",
    "devibench.samples_evaluated",
    "devibench.evaluate_self_s",
    "net.sessions",
    "net.sessions_fec",
    "net.session_self_s",
    "net.session_fec_self_s",
    "net.packets_sent",
    "net.packets_dropped",
    "net.nacks",
    "net.retransmissions",
    "net.fec_recovered",
    "net.goodput_ratio",
    "net.packets_per_s",
    *(f"analysis.experiment.{name}_s" for name in EXPERIMENTS),
    *SWEEP_METRICS,
    *DISTRIB_METRICS,
    "obs.trace_overhead_frac",
)

PER_LAYER_UNITS = {
    "probes_per_search": "encodes/search",
    "goodput_ratio": "fraction",
    "packets_per_s": "1/s",
    "requeue_ratio": "fraction",
    "cache_hit_ratio": "fraction",
    "trace_overhead_frac": "fraction",
    "roundtrip_minus_execute_ms_p50": "ms",
}


def per_layer_unit(name: str) -> str:
    leaf = name.rsplit(".", 1)[1]
    if leaf in PER_LAYER_UNITS:
        return PER_LAYER_UNITS[leaf]
    if leaf.endswith("_s") or leaf.endswith("_s_p50") or leaf.endswith("_s_sum"):
        return "s"
    return "count"


class LayerTracer:
    """Installs span wrappers on the layers' entry points; one per traced run."""

    def __init__(self) -> None:
        self.recorder = TraceRecorder()
        self.counts: Counter[str] = Counter()
        self.delivered_bytes = 0
        self.bytes_sent = 0
        self.op = 0
        self._restore: list[tuple[Any, str, Any]] = []

    # -- operations and spans ---------------------------------------------

    def begin_op(self) -> int:
        """Start a new operation; later spans carry its id."""
        self.op += 1
        return self.op

    def _wrap(self, owner: Any, attr: str, span: str, after: Optional[Callable] = None,
              count: Optional[str] = None) -> None:
        original = getattr(owner, attr)
        recorder = self.recorder
        counts = self.counts
        clock = wallclock.perf_counter
        tracer = self

        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            handle = recorder.start(span, clock(), clock="wall", op=tracer.op)
            try:
                result = original(*args, **kwargs)
            finally:
                recorder.finish(handle, clock())
            if count is not None:
                counts[count] += 1
            if after is not None:
                after(handle, args, result)
            return result

        self._restore.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _count(self, owner: Any, attr: str, count: str) -> None:
        original = getattr(owner, attr)
        counts = self.counts

        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            counts[count] += 1
            return original(*args, **kwargs)

        self._restore.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        """Wrap every layer boundary the per-layer metrics are taken at."""
        from repro.analysis import experiments
        from repro.core import context_aware, pipeline
        from repro.devibench import evaluate as devibench_evaluate
        from repro.devibench import pipeline as devibench_pipeline
        from repro.mllm import clip, model
        from repro.net import transport
        from repro.video import codec, quality, rate_control, scene

        self._wrap(scene.Scene, "render", "video.scene", count="video.scene.frames")
        self._wrap(codec.BlockCodec, "encode", "video.codec.encode", count="video.codec.encodes")
        self._wrap(codec.BlockCodec, "decode", "video.codec.decode")
        # Rate control is a module-level function: wrap the name each caller
        # resolves at call time.
        for module in (context_aware, rate_control):
            self._wrap(module, "encode_at_target_bitrate", "video.rate_control",
                       count="video.rate_control.searches")
        for module in (clip, quality):
            self._wrap(module, "high_frequency_retention", "video.quality",
                       count="video.quality.hf_retention_calls")
        for module in (model, quality, experiments):
            self._wrap(module, "region_quality", "video.quality")
        self._wrap(clip.MobileClip, "correlation_map", "mllm.clip", after=self._after_clip,
                   count="mllm.clip.maps")
        self._wrap(model.SimulatedMLLM, "answer_question", "mllm.model", count="mllm.model.answers")
        self._wrap(context_aware.ContextAwareStreamer, "encode_frame", "core.streamer.context_aware")
        self._wrap(context_aware.UniformStreamer, "encode_frame", "core.streamer.uniform")
        self._wrap(pipeline.AIVideoChatSession, "run_turn", "core.pipeline.turn")
        self._wrap(devibench_pipeline.DeViBenchPipeline, "run", "devibench.build")
        self._wrap(devibench_evaluate.BenchmarkEvaluator, "evaluate_sample", "devibench.evaluate",
                   count="devibench.samples_evaluated")
        self._wrap(transport.VideoTransportSession, "run", "net.session", after=self._after_session)
        # The receiver captures these bound methods at construction, so
        # wrapping the class before any session exists sees every NACK.
        self._count(transport.VideoTransportSession, "_queue_nack", "net.nacks")
        self._count(transport.VideoTransportSession, "_queue_sequence_nack", "net.nacks")

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def _after_clip(self, handle: Any, args: tuple, result: Any) -> None:
        self.counts["mllm.clip.patches"] += int(result.values.size)

    def _after_session(self, handle: Any, args: tuple, result: Any) -> None:
        session = args[0]
        fec = session.transport_config.fec is not None
        if fec:
            handle.name = "net.session_fec"
            self.counts["net.sessions_fec"] += 1
        self.counts["net.sessions"] += 1
        sender = session.sender
        self.counts["net.packets_sent"] += sender.packets_sent
        self.counts["net.retransmissions"] += sender.retransmissions_sent
        path = session.uplink.stats
        self.counts["net.packets_dropped"] += path.packets_lost_random + path.packets_dropped_queue
        self.counts["net.fec_recovered"] += session.fec_summary()["recovered_packets"]
        self.bytes_sent += sender.bytes_sent
        self.delivered_bytes += sum(event.size_bytes for event in session.receiver.delivered_frames)

    # -- results ------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Span name -> summed self time (duration minus direct children)."""
        spans = self.recorder.spans(clock="wall")
        child_time: Counter[int] = Counter()
        for span in spans:
            if span.parent_id is not None:
                child_time[span.parent_id] += span.t1 - span.t0
        totals: Counter[str] = Counter()
        for span in spans:
            totals[span.name] += (span.t1 - span.t0) - child_time[span.span_id]
        return dict(totals)

    def raw(self) -> dict[str, Any]:
        """The totals the per-layer metrics derive from (``layer_metrics``' arguments)."""
        spans = self.recorder.spans(clock="wall")
        searches = {span.span_id for span in spans if span.name == "video.rate_control"}
        return {
            "self_s": self.self_times(),
            "counts": dict(self.counts),
            "probes": sum(1 for span in spans if span.name == "video.codec.encode" and span.parent_id in searches),
            "bytes_sent": self.bytes_sent,
            "delivered_bytes": self.delivered_bytes,
        }

    def write(self, path: Path) -> None:
        """Write the run's spans as ``repro-trace-v1`` JSONL (schema line first)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        header = json.dumps({"schema": TRACE_SCHEMA, "clock": "wall"})
        path.write_text(header + "\n" + self.recorder.to_jsonl(clock="wall") + "\n", encoding="utf-8")


def layer_metrics(self_s: dict[str, float], counts: dict[str, int], probes: int, bytes_sent: int,
                  delivered_bytes: int) -> dict[str, float]:
    """The video, mllm, core, devibench and net per-layer metrics of a
    traced pass, from its ``LayerTracer.raw`` totals."""
    metrics = {metric: float(self_s.get(name, 0.0)) for name, metric in SELF_TIME_METRICS.items()}
    metrics.update({name: float(counts.get(name, 0)) for name in COUNT_METRICS})
    searches = counts.get("video.rate_control.searches", 0)
    metrics["video.rate_control.probes_per_search"] = probes / searches if searches else 0.0
    metrics["net.goodput_ratio"] = delivered_bytes / bytes_sent if bytes_sent else 0.0
    session_s = metrics["net.session_self_s"] + metrics["net.session_fec_self_s"]
    metrics["net.packets_per_s"] = metrics["net.packets_sent"] / session_s if session_s else 0.0
    return metrics


class DispatchTimer:
    """When the coordinator hands each cell to which worker.

    A worker's cycle for one cell runs from the cell being handed to it to
    the next cell being handed to it; minus the cell's execute time, that is
    the per-cell protocol and scheduling cost.  The coordinator serves
    workers from its own threads, so this records bare timestamps instead
    of nesting spans on a recorder.
    """

    def __init__(self) -> None:
        self.sent: list[tuple[str, float, str]] = []
        self._restore: list[tuple[Any, str, Any]] = []

    def install(self) -> None:
        from repro.distrib.coordinator import SweepCoordinator

        clock = wallclock.perf_counter
        sent = self.sent
        original = SweepCoordinator._next_action

        def _next_action(coordinator, connection):
            action = original(coordinator, connection)
            if action[0] == "task":
                sent.append((connection.name, clock(), action[1]))
            return action

        self._restore = [(SweepCoordinator, "_next_action", original)]
        SweepCoordinator._next_action = _next_action

    def uninstall(self) -> None:
        for owner, attr, original in self._restore:
            setattr(owner, attr, original)
        self._restore = []

    def cycle_minus_execute_ms(self, execute_s: dict[str, float]) -> list[float]:
        """Per cell: the worker's cycle minus the cell's execute time (ms)."""
        by_worker: dict[str, list[tuple[float, str]]] = {}
        for worker, when, task in self.sent:
            by_worker.setdefault(worker, []).append((when, task))
        values = []
        for handed in by_worker.values():
            handed.sort()
            for (when, task), (following, _) in zip(handed, handed[1:]):
                values.append((following - when - execute_s[task]) * 1000.0)
        return values


def sweep_cell_spans(telemetry: Any) -> list[dict[str, Any]]:
    """Attributes of the runner's ``sweep.cell`` spans (SweepRunner telemetry)."""
    return [span.attrs for span in telemetry.trace.spans(clock="wall") if span.name == "sweep.cell"]


def median(values: Iterable[float]) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


# ---------------------------------------------------------------------------
# Predictions: which counts each workload must (not) exercise
# ---------------------------------------------------------------------------

_PAPER_HALF = (
    "video.scene.frames",
    "video.codec.encodes",
    "video.rate_control.searches",
    "video.quality.hf_retention_calls",
    "mllm.clip.maps",
    "mllm.clip.patches",
    "mllm.model.answers",
)
_SWEEP_CORE = ("analysis.sweeps.cells_executed", "analysis.sweeps.cells_cached",
               "net.sessions", "net.packets_sent", "net.sessions_fec", "net.fec_recovered")

#: workload -> (counts that must be non-zero, counts that must be zero).
PREDICTIONS: dict[str, tuple[tuple[str, ...], tuple[str, ...]]] = {
    "paper_regen": (
        _PAPER_HALF + ("devibench.samples_evaluated", "net.sessions", "net.packets_sent",
                       *(f"analysis.experiment.{name}_s" for name in EXPERIMENTS)),
        ("analysis.sweeps.cells_executed", "distrib.cells_dispatched"),
    ),
    "chat_turns": (
        _PAPER_HALF + ("net.sessions", "net.packets_sent", "core.pipeline.turn_self_s",
                       "core.streamer.context_aware_self_s"),
        ("devibench.samples_evaluated", "core.streamer.uniform_self_s", "net.sessions_fec",
         "analysis.sweeps.cells_executed", "distrib.cells_dispatched"),
    ),
    "dispatched_sweep": (
        _SWEEP_CORE + ("distrib.cells_dispatched",),
        _PAPER_HALF + ("devibench.samples_evaluated",),
    ),
}


def check_predictions(workload: str, metrics: dict[str, float]) -> list[str]:
    """Violations of the workload's predicted zero / non-zero counts."""
    nonzero, zero = PREDICTIONS[workload]
    problems = [f"{name} predicted non-zero on {workload}, read 0" for name in nonzero if not metrics[name]]
    problems += [f"{name} predicted zero on {workload}, read {metrics[name]}" for name in zero if metrics[name]]
    return problems
