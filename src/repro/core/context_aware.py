"""Context-Aware Video Streaming — the paper's primary contribution (Section 3.2).

The streamer takes the current user words and the latest frame, computes the
semantic correlation of every video region against the words with the
CLIP-style encoder (Equation 1), converts correlation to a per-region QP map
(Equation 2), and encodes the frame so that chat-important regions keep
their quality while chat-irrelevant regions are compressed away.  A uniform-
QP encoder with the same rate-control loop provides the context-agnostic
baseline used throughout the evaluation (Figures 9 and 10).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

import numpy as np

from ..mllm.clip import ClipConfig, CorrelationMap, MobileClip
from ..video.codec import BlockCodec, BlockTransform, EncodedFrame
from ..video.frames import VideoFrame
from ..video.rate_control import RateControlResult, encode_at_target_bitrate
from ..video.scene import Scene, SceneFact
from .qp_map import PAPER_GAMMA, QpMapConfig, correlation_to_qp, uniform_qp_map


@dataclass
class StreamingConfig:
    """Configuration of the context-aware streamer."""

    patch_size: int = 32
    gamma: float = PAPER_GAMMA
    #: QP used by the context-agnostic baseline when no bitrate target is given.
    baseline_qp: float = 35.0
    #: Rate-control tolerance when a target bitrate is requested.
    rate_tolerance: float = 0.05
    rate_iterations: int = 10
    #: Optional ceiling so no region is compressed beyond recognition.
    qp_ceiling: Optional[float] = None
    #: Stretch each frame's correlation map to the full [-1, 1] range before
    #: applying Equation (2).  The concept-embedding CLIP substitute produces
    #: similarities in a narrower, higher band than real CLIP, so without the
    #: stretch Equation (2) would under-penalise irrelevant regions; the
    #: stretch restores the paper's "almost exclusively important regions"
    #: allocation (documented as a substitution detail in DESIGN.md).
    normalize_correlation: bool = True

    def qp_config(self) -> QpMapConfig:
        return QpMapConfig(gamma=self.gamma, qp_ceiling=self.qp_ceiling)


@dataclass(frozen=True)
class FrameContext:
    """Equations (1) and (2) for one frame: its correlation map and QP map.

    Neither depends on the bitrate, so a caller encoding one frame for the
    same words at several bitrates computes the context once.
    """

    correlation: CorrelationMap
    qp_map: np.ndarray


def _frame_parts(
    frame: Union[VideoFrame, np.ndarray, BlockTransform], frame_id: int, timestamp: float
) -> tuple[Union[np.ndarray, BlockTransform], int, float]:
    """The codec input, frame id and timestamp of whatever a streamer was handed."""
    if isinstance(frame, VideoFrame):
        return frame.pixels, frame.frame_id, frame.timestamp
    if isinstance(frame, BlockTransform):
        return frame, frame_id, timestamp
    return np.asarray(frame, dtype=float), frame_id, timestamp


@dataclass
class EncodeOutcome:
    """Everything produced when one frame is encoded for the current context."""

    encoded: EncodedFrame
    decoded: np.ndarray
    qp_map: np.ndarray
    correlation: Optional[CorrelationMap]
    rate_control: Optional[RateControlResult]
    client_compute_ms: float

    @property
    def size_bytes(self) -> int:
        return self.encoded.size_bytes

    def bitrate_bps(self, fps: float) -> float:
        return self.encoded.bitrate_bps(fps)


class ContextAwareStreamer:
    """Implements Equations (1) and (2): user words → QP map → encoded frame."""

    def __init__(
        self,
        config: Optional[StreamingConfig] = None,
        clip: Optional[MobileClip] = None,
        codec: Optional[BlockCodec] = None,
    ) -> None:
        self.config = config or StreamingConfig()
        self.clip = clip or MobileClip(config=ClipConfig(patch_size=self.config.patch_size))
        self.codec = codec or BlockCodec()

    # -- Equation (1): correlation --------------------------------------------

    def correlation_for(
        self,
        scene: Scene,
        user_words: str,
        *,
        extra_concepts: Sequence[str] = (),
        time_s: float = 0.0,
    ) -> CorrelationMap:
        """Semantic correlation of every patch against the current user words.

        The client runs CLIP on the raw captured frame, whose detail is all
        still there, so no pixels enter the map: comparing the frame with
        itself would leave every patch fully visible.
        """
        return self.clip.correlation_map(
            scene, user_words, extra_concepts=extra_concepts, time_s=time_s
        )

    # -- Equation (2): QP map -----------------------------------------------

    def qp_map_for(
        self, correlation: CorrelationMap, frame_shape: tuple[int, int]
    ) -> np.ndarray:
        """Per-codec-block QP map derived from a correlation map."""
        block_grid = correlation.to_block_grid(self.codec.config.block_size, frame_shape)
        if self.config.normalize_correlation:
            low, high = float(block_grid.min()), float(block_grid.max())
            if high - low > 1e-9:
                block_grid = 2.0 * (block_grid - low) / (high - low) - 1.0
        return np.asarray(
            correlation_to_qp(block_grid, self.config.qp_config()), dtype=float
        )

    def frame_context(
        self,
        scene: Scene,
        user_words: str,
        frame_shape: tuple[int, int],
        *,
        extra_concepts: Sequence[str] = (),
        time_s: float = 0.0,
    ) -> FrameContext:
        """Correlation map and QP map of the frame at ``time_s`` for the user words."""
        correlation = self.correlation_for(
            scene, user_words, extra_concepts=extra_concepts, time_s=time_s
        )
        return FrameContext(correlation, self.qp_map_for(correlation, frame_shape))

    # -- encoding -------------------------------------------------------------

    def encode_frame(
        self,
        scene: Scene,
        frame: Union[VideoFrame, np.ndarray, BlockTransform],
        user_words: str,
        target_bitrate_bps: Optional[float] = None,
        fps: float = 2.0,
        extra_concepts: Sequence[str] = (),
        frame_id: int = 0,
        timestamp: float = 0.0,
        context: Optional[FrameContext] = None,
    ) -> EncodeOutcome:
        """Encode one frame with context-aware bit allocation.

        Without a target bitrate the QP map from Equation (2) is used as-is;
        with a target bitrate the same trial-and-error offset search as the
        baseline is applied on top of the map so matched-bitrate comparisons
        (Figure 9/10) are apples-to-apples.  ``frame`` may be the frame's
        :meth:`BlockCodec.transform` (then ``frame_id`` and ``timestamp`` name
        it), and ``context`` its :meth:`frame_context` for these words, so a
        caller encoding one frame at several bitrates does each once.
        """
        pixels, frame_id, timestamp = _frame_parts(frame, frame_id, timestamp)
        if context is None:
            context = self.frame_context(
                scene, user_words, pixels.shape, extra_concepts=extra_concepts, time_s=timestamp
            )

        rate_result: Optional[RateControlResult] = None
        if target_bitrate_bps is None:
            encoded = self.codec.encode(
                pixels, context.qp_map, frame_id=frame_id, timestamp=timestamp
            )
        else:
            rate_result = encode_at_target_bitrate(
                self.codec,
                pixels,
                target_bitrate_bps,
                fps=fps,
                base_qp_map=context.qp_map,
                tolerance=self.config.rate_tolerance,
                max_iterations=self.config.rate_iterations,
                frame_id=frame_id,
                timestamp=timestamp,
            )
            encoded = rate_result.encoded
        decoded = self.codec.decode(encoded)
        return EncodeOutcome(
            encoded=encoded,
            decoded=decoded,
            qp_map=encoded.qp_map,
            correlation=context.correlation,
            rate_control=rate_result,
            client_compute_ms=context.correlation.compute_latency_ms,
        )

    # -- helpers for ABR integration ------------------------------------------

    def accuracy_predictor(
        self,
        scene: Scene,
        frame: Union[VideoFrame, np.ndarray],
        fact: SceneFact,
        fps: float = 2.0,
        required_quality_fn=None,
    ):
        """Build a bitrate→predicted-accuracy callable for :class:`AiOrientedAbr`.

        The prediction encodes the frame at the candidate bitrate with the
        context-aware QP map and checks whether the fact's region would still
        be readable; it returns 1.0 or the multiple-choice guess floor 0.25.
        """
        from ..video.quality import region_quality  # local import to avoid cycles

        pixels = frame.pixels if isinstance(frame, VideoFrame) else np.asarray(frame, dtype=float)
        required = (
            required_quality_fn(fact.detail_scale)
            if required_quality_fn is not None
            else 0.30 + 0.60 * fact.detail_scale
        )
        obj = scene.object_by_name(fact.object_name)
        region = obj.pixel_region(pixels.shape[0], pixels.shape[1])

        def predict(bitrate_bps: float) -> float:
            outcome = self.encode_frame(
                scene, pixels, fact.question, target_bitrate_bps=bitrate_bps, fps=fps
            )
            report = region_quality(pixels, outcome.decoded, region)
            return 1.0 if report.readable_score >= required else 0.25

        return predict


class UniformStreamer:
    """The context-agnostic baseline: the same codec with a single QP everywhere."""

    def __init__(
        self,
        config: Optional[StreamingConfig] = None,
        codec: Optional[BlockCodec] = None,
    ) -> None:
        self.config = config or StreamingConfig()
        self.codec = codec or BlockCodec()

    def encode_frame(
        self,
        frame: Union[VideoFrame, np.ndarray, BlockTransform],
        target_bitrate_bps: Optional[float] = None,
        fps: float = 2.0,
        qp: Optional[float] = None,
        frame_id: int = 0,
        timestamp: float = 0.0,
    ) -> EncodeOutcome:
        """Encode one frame with a uniform QP (optionally rate-controlled).

        ``frame`` may be the frame's :meth:`BlockCodec.transform`, as for
        :meth:`ContextAwareStreamer.encode_frame`.
        """
        pixels, frame_id, timestamp = _frame_parts(frame, frame_id, timestamp)
        base_qp = self.config.baseline_qp if qp is None else float(qp)

        rate_result: Optional[RateControlResult] = None
        if target_bitrate_bps is None:
            encoded = self.codec.encode(pixels, base_qp, frame_id=frame_id, timestamp=timestamp)
        else:
            rate_result = encode_at_target_bitrate(
                self.codec,
                pixels,
                target_bitrate_bps,
                fps=fps,
                base_qp_map=base_qp,
                tolerance=self.config.rate_tolerance,
                max_iterations=self.config.rate_iterations,
                frame_id=frame_id,
                timestamp=timestamp,
            )
            encoded = rate_result.encoded
        decoded = self.codec.decode(encoded)
        return EncodeOutcome(
            encoded=encoded,
            decoded=decoded,
            qp_map=encoded.qp_map,
            correlation=None,
            rate_control=rate_result,
            client_compute_ms=0.0,
        )
