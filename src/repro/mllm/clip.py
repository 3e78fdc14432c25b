"""A MobileCLIP-style text/patch encoder pair and correlation maps.

Implements Equation (1) of the paper: the frame is partitioned into
non-overlapping N×N patches, each patch is encoded by a visual encoder, the
user words are encoded by a language encoder sharing the same feature space,
and the semantic correlation of a patch is the cosine similarity of the two
features.

Offline we substitute the real MobileCLIP with encoders built on the
deterministic :class:`~repro.mllm.embedding.ConceptSpace`:

* the **text encoder** extracts vocabulary concepts from the user's words
  (plus any explicit query concepts) and averages their vectors;
* the **patch encoder** averages the concept vectors of the scene objects
  overlapping the patch, weighted by overlap area and attenuated when the
  patch's fine detail has been blurred away (mirroring the paper's
  observation that CLIP "ignores the blurry grass in the distance").

The resulting correlation maps have the property every downstream experiment
needs: patches containing chat-relevant objects score higher than the rest,
including for indirect queries (season → grass).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from ..video.quality import high_frequency_retention
from ..video.scene import Scene, SceneObject
from .embedding import ConceptSpace, cosine_similarity


@dataclass
class ClipConfig:
    """Configuration of the CLIP-substitute."""

    patch_size: int = 32
    #: Weight of a neutral "background" component added to every patch so
    #: empty patches are not exactly zero vectors.
    background_weight: float = 0.15
    #: Detail visibility below which fine-grained object concepts fade out.
    visibility_floor: float = 0.2
    #: Per-patch compute cost of the visual encoder (MobileCLIP-class), used
    #: in the client-side computation discussion of Section 4.
    encode_cost_ms_per_patch: float = 0.035
    text_encode_cost_ms: float = 3.0

    def __post_init__(self) -> None:
        if self.patch_size <= 0:
            raise ValueError("patch_size must be positive")
        if not 0.0 <= self.background_weight <= 1.0:
            raise ValueError("background_weight must be in [0, 1]")


@dataclass
class CorrelationMap:
    """Per-patch semantic correlation of a frame against the user's words."""

    values: np.ndarray  # (patches_y, patches_x), in [-1, 1]
    patch_size: int
    frame_shape: tuple[int, int]
    query: str
    query_concepts: tuple[str, ...]
    compute_latency_ms: float = 0.0

    @property
    def grid_shape(self) -> tuple[int, int]:
        return self.values.shape

    def top_patches(self, count: int = 5) -> list[tuple[int, int, float]]:
        """The ``count`` most chat-relevant patches as (row, col, correlation)."""
        flat = self.values.ravel()
        order = np.argsort(flat)[::-1][:count]
        rows, cols = np.unravel_index(order, self.values.shape)
        return [(int(r), int(c), float(self.values[r, c])) for r, c in zip(rows, cols)]

    def region_mean(self, pixel_region: tuple[int, int, int, int]) -> float:
        """Mean correlation over the patches overlapping a pixel region."""
        row0, row1, col0, col1 = pixel_region
        p = self.patch_size
        pr0, pr1 = row0 // p, max(row0 // p + 1, int(np.ceil(row1 / p)))
        pc0, pc1 = col0 // p, max(col0 // p + 1, int(np.ceil(col1 / p)))
        pr1 = min(pr1, self.values.shape[0])
        pc1 = min(pc1, self.values.shape[1])
        return float(self.values[pr0:pr1, pc0:pc1].mean())

    def to_block_grid(self, block_size: int, frame_shape: Optional[tuple[int, int]] = None) -> np.ndarray:
        """Resample the patch-level map onto a codec block grid.

        The context-aware streamer computes correlation on CLIP patches but
        the encoder applies QP per codec block; this nearest-patch resampling
        bridges the two grids.
        """
        if block_size <= 0:
            raise ValueError("block_size must be positive")
        height, width = frame_shape if frame_shape is not None else self.frame_shape
        blocks_y = int(np.ceil(height / block_size))
        blocks_x = int(np.ceil(width / block_size))
        rows = np.minimum(
            (np.arange(blocks_y) * block_size + block_size // 2) // self.patch_size,
            self.values.shape[0] - 1,
        )
        cols = np.minimum(
            (np.arange(blocks_x) * block_size + block_size // 2) // self.patch_size,
            self.values.shape[1] - 1,
        )
        return self.values[np.ix_(rows, cols)]


class ClipTextEncoder:
    """Language side of the CLIP substitute."""

    def __init__(self, space: Optional[ConceptSpace] = None, config: Optional[ClipConfig] = None) -> None:
        self.space = space or ConceptSpace()
        self.config = config or ClipConfig()

    def encode(self, text: str, extra_concepts: Sequence[str] = ()) -> np.ndarray:
        return self.space.encode_concepts(self.concepts(text, extra_concepts))

    def concepts(self, text: str, extra_concepts: Sequence[str] = ()) -> tuple[str, ...]:
        concepts = self.space.extract_concepts(text)
        for concept in extra_concepts:
            if concept not in concepts:
                concepts.append(concept)
        return tuple(concepts)


class ClipPatchEncoder:
    """Vision side of the CLIP substitute.

    Encodes one patch given the scene ground truth (which objects overlap the
    patch) and the decoded pixels (which determine how much of each object's
    fine detail is still visible).
    """

    def __init__(self, space: Optional[ConceptSpace] = None, config: Optional[ClipConfig] = None) -> None:
        self.space = space or ConceptSpace()
        self.config = config or ClipConfig()

    @staticmethod
    def _overlap_fraction(
        patch_box: tuple[int, int, int, int], object_box: tuple[int, int, int, int]
    ) -> float:
        pr0, pr1, pc0, pc1 = patch_box
        orow0, orow1, ocol0, ocol1 = object_box
        rows = max(0, min(pr1, orow1) - max(pr0, orow0))
        cols = max(0, min(pc1, ocol1) - max(pc0, ocol0))
        patch_area = max(1, (pr1 - pr0) * (pc1 - pc0))
        return rows * cols / patch_area

    def encode_patch(
        self,
        patch_box: tuple[int, int, int, int],
        object_boxes: Sequence[tuple[SceneObject, tuple[int, int, int, int]]],
        decoded_patch: Optional[np.ndarray] = None,
        original_patch: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Feature vector for the patch at ``patch_box`` (row0, row1, col0, col1).

        ``object_boxes`` pairs each scene object with its pixel region in the
        frame, as :meth:`SceneObject.pixel_region` gives it.
        """
        concepts: list[str] = ["background"]
        weights: list[float] = [self.config.background_weight]

        visibility = 1.0
        if decoded_patch is not None and original_patch is not None and original_patch.size > 0:
            visibility = high_frequency_retention(original_patch, decoded_patch)

        for obj, object_box in object_boxes:
            overlap = self._overlap_fraction(patch_box, object_box)
            if overlap <= 0.0:
                continue
            # Fine-detail objects fade from the embedding when their detail is
            # blurred away; coarse objects stay recognisable.
            detail_penalty = 1.0
            if visibility < 1.0:
                floor = self.config.visibility_floor
                effective = max(visibility, floor)
                detail_penalty = effective ** (0.5 + 2.0 * obj.detail_scale)
            weight = overlap * detail_penalty
            for concept in obj.concepts:
                concepts.append(concept)
                weights.append(weight)
        return self.space.encode_concepts(concepts, weights)


class MobileClip:
    """The full CLIP substitute: correlation maps per Equation (1)."""

    def __init__(self, space: Optional[ConceptSpace] = None, config: Optional[ClipConfig] = None) -> None:
        self.space = space or ConceptSpace()
        self.config = config or ClipConfig()
        self.text_encoder = ClipTextEncoder(self.space, self.config)
        self.patch_encoder = ClipPatchEncoder(self.space, self.config)

    def correlation_map(
        self,
        scene: Scene,
        user_words: str,
        frame_pixels: Optional[np.ndarray] = None,
        original_pixels: Optional[np.ndarray] = None,
        extra_concepts: Sequence[str] = (),
        time_s: float = 0.0,
    ) -> CorrelationMap:
        """Compute the patch-wise semantic correlation ρ of Equation (1)."""
        patch = self.config.patch_size
        height, width = scene.height, scene.width
        patches_y = int(np.ceil(height / patch))
        patches_x = int(np.ceil(width / patch))

        query_concepts = self.text_encoder.concepts(user_words, extra_concepts)
        text_feature = self.space.encode_concepts(query_concepts)
        object_boxes = [(obj, obj.pixel_region(height, width, time_s)) for obj in scene.objects]

        values = np.zeros((patches_y, patches_x))
        for row in range(patches_y):
            for col in range(patches_x):
                row0, row1 = row * patch, min((row + 1) * patch, height)
                col0, col1 = col * patch, min((col + 1) * patch, width)
                decoded_patch = None
                original_patch = None
                if frame_pixels is not None:
                    decoded_patch = frame_pixels[row0:row1, col0:col1]
                if original_pixels is not None:
                    original_patch = original_pixels[row0:row1, col0:col1]
                patch_feature = self.patch_encoder.encode_patch(
                    (row0, row1, col0, col1),
                    object_boxes,
                    decoded_patch=decoded_patch,
                    original_patch=original_patch,
                )
                values[row, col] = cosine_similarity(patch_feature, text_feature)

        latency = (
            self.config.text_encode_cost_ms
            + patches_y * patches_x * self.config.encode_cost_ms_per_patch
        )
        return CorrelationMap(
            values=values,
            patch_size=patch,
            frame_shape=(height, width),
            query=user_words,
            query_concepts=query_concepts,
            compute_latency_ms=latency,
        )
