"""Evaluation harness: how does streaming quality move DeViBench accuracy?

This is the measurement loop behind Figure 9 of the paper: take the
benchmark's QA samples, encode their videos at a target bitrate either with
the context-agnostic baseline (uniform QP) or with context-aware streaming
(Equation 2 QP maps conditioned on each question), ask the evaluation MLLM,
and report the accuracy.  Free-response grading is also supported because
the paper's Figure 9 was produced with an earlier free-response version of
the benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from ..core.context_aware import ContextAwareStreamer, EncodeOutcome, StreamingConfig, UniformStreamer
from ..mllm.model import MODE_FREE_RESPONSE, MODE_MULTIPLE_CHOICE, SimulatedMLLM
from ..video.frames import VideoFrame
from ..video.scene import Scene
from .dataset import DeViBench, QASample
from .videos import VideoCollection


@dataclass
class SampleEvaluation:
    """Evaluation outcome for one QA sample at one operating point."""

    sample: QASample
    correct: bool
    achieved_bitrate_bps: float
    evidence_quality: float
    answer: str


@dataclass
class EvaluationResult:
    """Aggregate accuracy at one operating point."""

    label: str
    target_bitrate_bps: float
    context_aware: bool
    accuracy: float
    mean_achieved_bitrate_bps: float
    evaluations: list[SampleEvaluation] = field(default_factory=list)

    @property
    def sample_count(self) -> int:
        return len(self.evaluations)


class BenchmarkEvaluator:
    """Runs DeViBench QA through an encode→answer loop at chosen bitrates."""

    def __init__(
        self,
        benchmark: DeViBench,
        mllm: Optional[SimulatedMLLM] = None,
        streamer: Optional[ContextAwareStreamer] = None,
        baseline: Optional[UniformStreamer] = None,
        sampling_fps: float = 2.0,
        frames_per_video: int = 3,
        rate_fps: Optional[float] = None,
        mode: str = MODE_MULTIPLE_CHOICE,
    ) -> None:
        if len(benchmark) == 0:
            raise ValueError("cannot evaluate an empty benchmark")
        self.benchmark = benchmark
        self.mllm = mllm or SimulatedMLLM()
        self.streamer = streamer or ContextAwareStreamer(StreamingConfig())
        self.baseline = baseline or UniformStreamer(StreamingConfig())
        self.sampling_fps = sampling_fps
        self.frames_per_video = frames_per_video
        #: Frame rate used to convert a target bitrate into a per-frame bit
        #: budget.  Defaults to the MLLM sampling rate, consistently with the
        #: DeViBench preprocessing (see VideoCollection.rate_fps).
        self.rate_fps = float(rate_fps) if rate_fps is not None else float(sampling_fps)
        self.mode = mode

    # -- frames ---------------------------------------------------------------

    def _original_frames(self, scene: Scene) -> list[VideoFrame]:
        source = scene.to_source()
        stride = max(1, int(round(scene.fps / self.sampling_fps)))
        indices = list(range(0, source.frame_count(), stride))[: self.frames_per_video]
        return [source.frame_at(index) for index in indices]

    # -- evaluation -----------------------------------------------------------

    def evaluate_sample(
        self,
        sample: QASample,
        originals: Sequence[VideoFrame],
        outcomes: Sequence[EncodeOutcome],
    ) -> SampleEvaluation:
        """Score one sample on its frames' finished encodes at one operating point."""
        decoded_frames = [
            VideoFrame(frame_id=frame.frame_id, timestamp=frame.timestamp, pixels=outcome.decoded)
            for frame, outcome in zip(originals, outcomes)
        ]
        total_bits = sum(outcome.encoded.total_bits for outcome in outcomes)
        achieved = total_bits / max(len(originals), 1) * self.rate_fps
        answer = self.mllm.answer_question(
            sample.to_fact(),
            self.benchmark.scene_for(sample),
            decoded_frames,
            originals,
            mode=self.mode,
            choices=list(sample.options) if self.mode == MODE_MULTIPLE_CHOICE else None,
            apply_frame_sampling=False,
        )
        return SampleEvaluation(
            sample=sample,
            correct=sample.is_correct(answer.answer) if self.mode == MODE_MULTIPLE_CHOICE else answer.correct,
            achieved_bitrate_bps=achieved,
            evidence_quality=answer.evidence_quality,
            answer=answer.answer,
        )

    def _score_scene(
        self, scene: Scene, samples: Sequence[QASample], points: Sequence[tuple[float, bool]]
    ) -> list[list[SampleEvaluation]]:
        """Each of one scene's samples scored at every point, in sample then point order.

        The scene's frames, transforms and encodes live only for this call.
        """
        originals = self._original_frames(scene)
        aware_input = [self.streamer.codec.transform(frame.pixels) for frame in originals]
        uniform_input = aware_input
        if self.baseline.codec.config.block_size != self.streamer.codec.config.block_size:
            uniform_input = [self.baseline.codec.transform(frame.pixels) for frame in originals]
        aware_bitrates = list(dict.fromkeys(bitrate for bitrate, aware in points if aware))
        # The baseline's encode depends only on (frame, bitrate): once per scene.
        uniform = {
            bitrate: [
                self.baseline.encode_frame(
                    transform,
                    target_bitrate_bps=bitrate,
                    fps=self.rate_fps,
                    frame_id=frame.frame_id,
                    timestamp=frame.timestamp,
                )
                for frame, transform in zip(originals, uniform_input)
            ]
            for bitrate in dict.fromkeys(bitrate for bitrate, aware in points if not aware)
        }
        rows = []
        for sample in samples:
            # A question's map of a frame does not depend on the bitrate.
            contexts = [
                self.streamer.frame_context(
                    scene, sample.question, frame.pixels.shape, time_s=frame.timestamp
                )
                for frame in originals
            ] if aware_bitrates else []
            aware = {
                bitrate: [
                    self.streamer.encode_frame(
                        scene,
                        transform,
                        sample.question,
                        target_bitrate_bps=bitrate,
                        fps=self.rate_fps,
                        frame_id=frame.frame_id,
                        timestamp=frame.timestamp,
                        context=context,
                    )
                    for frame, transform, context in zip(originals, aware_input, contexts)
                ]
                for bitrate in aware_bitrates
            }
            rows.append(
                [
                    self.evaluate_sample(
                        sample, originals, aware[bitrate] if context_aware else uniform[bitrate]
                    )
                    for bitrate, context_aware in points
                ]
            )
        return rows

    def evaluate_points(
        self,
        points: Sequence[tuple[float, bool]],
        max_samples: Optional[int] = None,
    ) -> list[EvaluationResult]:
        """Accuracy of the whole benchmark at each ``(target bitrate, context-aware)`` point.

        One pass, one scene at a time (see :meth:`_score_scene`).  Every
        encode is deterministic and every answer is seeded by its question,
        not by call order, so each result equals evaluating its point alone.
        """
        samples = self.benchmark.samples
        if max_samples is not None:
            samples = samples[:max_samples]
        by_scene: dict[str, list[int]] = {}
        for index, sample in enumerate(samples):
            by_scene.setdefault(sample.scene_name, []).append(index)
        scored: list[list[SampleEvaluation]] = [[] for _ in samples]
        for indices in by_scene.values():
            scene_samples = [samples[index] for index in indices]
            rows = self._score_scene(self.benchmark.scene_for(scene_samples[0]), scene_samples, points)
            for index, row in zip(indices, rows):
                scored[index] = row

        results = []
        for point, (bitrate, context_aware) in enumerate(points):
            evaluations = [row[point] for row in scored]
            results.append(
                EvaluationResult(
                    label=("context-aware" if context_aware else "baseline") + f"@{bitrate / 1000:.0f}kbps",
                    target_bitrate_bps=bitrate,
                    context_aware=context_aware,
                    accuracy=float(np.mean([e.correct for e in evaluations])),
                    mean_achieved_bitrate_bps=float(np.mean([e.achieved_bitrate_bps for e in evaluations])),
                    evaluations=evaluations,
                )
            )
        return results

    def evaluate(
        self,
        target_bitrate_bps: float,
        context_aware: bool,
        label: Optional[str] = None,
        max_samples: Optional[int] = None,
    ) -> EvaluationResult:
        """Accuracy of the whole benchmark at one bitrate / method."""
        (result,) = self.evaluate_points([(target_bitrate_bps, context_aware)], max_samples)
        if label:
            result.label = label
        return result


def coarse_qa_breakage_rate(
    collection: VideoCollection,
    mllm: Optional[SimulatedMLLM] = None,
) -> dict[str, float]:
    """Reproduce the Section 2.3 measurement on StreamingBench-style coarse QA.

    Existing benchmarks ask coarse questions; the paper finds only ~8 % of
    those flip from correct (high bitrate) to wrong (200 Kbps).  We take the
    corpus's *coarse* facts (detail ≤ 0.3), answer them on the original and on
    the 200 Kbps rendition, and report the flip rate.
    """
    mllm = mllm or SimulatedMLLM(seed=7)
    prepared_videos = collection.prepare_all()
    flips = 0
    total = 0
    for prepared in prepared_videos:
        coarse_facts = [fact for fact in prepared.scene.facts if fact.detail_scale <= 0.3]
        for fact in coarse_facts:
            original = mllm.answer_question(
                fact,
                prepared.scene,
                prepared.original_frames,
                prepared.original_frames,
                apply_frame_sampling=False,
                salt="coarse-orig",
            )
            degraded = mllm.answer_question(
                fact,
                prepared.scene,
                prepared.degraded_frames,
                prepared.original_frames,
                apply_frame_sampling=False,
                salt="coarse-deg",
            )
            total += 1
            if original.correct and not degraded.correct:
                flips += 1
    return {
        "total_coarse_qa": float(total),
        "flipped": float(flips),
        "flip_rate": flips / total if total else 0.0,
        "paper_flip_rate": 0.08,
    }
