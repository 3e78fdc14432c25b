"""Video frame and video source abstractions.

Frames are single-channel (luma) numpy arrays with values in [0, 255].  The
paper's pipeline operates on full RGB video, but every quantity the
experiments measure — per-region rate/distortion, bitrate, regional quality,
MLLM-visible detail — is carried by the luma plane, and a single channel
keeps the pure-Python codec fast enough for exhaustive testing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np


@dataclass
class VideoFrame:
    """One captured video frame."""

    frame_id: int
    timestamp: float
    pixels: np.ndarray
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        pixels = np.asarray(self.pixels, dtype=np.float64)
        if pixels.ndim != 2:
            raise ValueError(f"pixels must be a 2-D luma array, got shape {pixels.shape}")
        self.pixels = pixels

    @property
    def height(self) -> int:
        return int(self.pixels.shape[0])

    @property
    def width(self) -> int:
        return int(self.pixels.shape[1])

    @property
    def resolution(self) -> tuple[int, int]:
        return (self.height, self.width)

    @property
    def pixel_count(self) -> int:
        return self.height * self.width

    def copy(self) -> "VideoFrame":
        return VideoFrame(
            frame_id=self.frame_id,
            timestamp=self.timestamp,
            pixels=self.pixels.copy(),
            metadata=dict(self.metadata),
        )


class VideoSource:
    """Interface for anything that can produce a timed sequence of frames."""

    fps: float
    height: int
    width: int

    def frame_at(self, index: int) -> VideoFrame:  # pragma: no cover - interface
        raise NotImplementedError

    def frame_count(self) -> int:  # pragma: no cover - interface
        raise NotImplementedError

    def __iter__(self) -> Iterator[VideoFrame]:
        for index in range(self.frame_count()):
            yield self.frame_at(index)

    @property
    def duration_s(self) -> float:
        return self.frame_count() / self.fps



class ArrayVideoSource(VideoSource):
    """A video source backed by an in-memory list of frames."""

    def __init__(self, frames: Sequence[np.ndarray], fps: float = 30.0, start_time: float = 0.0) -> None:
        if not frames:
            raise ValueError("ArrayVideoSource needs at least one frame")
        shapes = {np.asarray(f).shape for f in frames}
        if len(shapes) != 1:
            raise ValueError(f"all frames must share one shape, got {shapes}")
        self._frames = [np.asarray(f, dtype=np.float64) for f in frames]
        self.fps = float(fps)
        self.height, self.width = self._frames[0].shape
        self._start_time = start_time

    def frame_count(self) -> int:
        return len(self._frames)

    def frame_at(self, index: int) -> VideoFrame:
        if not 0 <= index < len(self._frames):
            raise IndexError(f"frame index {index} out of range [0, {len(self._frames)})")
        return VideoFrame(
            frame_id=index,
            timestamp=self._start_time + index / self.fps,
            pixels=self._frames[index],
        )


def downsample_frame(frame: VideoFrame, max_pixels: int) -> VideoFrame:
    """Spatially downsample a frame so its pixel count is at most ``max_pixels``.

    Used by the MLLM ingestion path (Section 2.1): regardless of the source
    resolution, the model sees no more than ~602,112 pixels per frame.
    Downsampling is done by integer block averaging to stay dependency-free.
    """
    if max_pixels <= 0:
        raise ValueError("max_pixels must be positive")
    if frame.pixel_count <= max_pixels:
        return frame
    factor = int(np.ceil(np.sqrt(frame.pixel_count / max_pixels)))
    height = frame.height - frame.height % factor
    width = frame.width - frame.width % factor
    trimmed = frame.pixels[:height, :width]
    reduced = trimmed.reshape(height // factor, factor, width // factor, factor).mean(axis=(1, 3))
    return VideoFrame(
        frame_id=frame.frame_id,
        timestamp=frame.timestamp,
        pixels=reduced,
        metadata={**frame.metadata, "downsampled_by": factor},
    )
