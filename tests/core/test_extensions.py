"""Tests for the Section 4 extensions: proactive, semantic layers, token pruning."""

import numpy as np
import pytest

from repro.core import (
    ContextAwareStreamer,
    ContextAwareTokenPruner,
    HistoryProactivePolicy,
    HybridProactivePolicy,
    LayerConfig,
    PruningConfig,
    SaliencyProactivePolicy,
    SemanticLayeredEncoder,
)
from repro.video import VideoFrame, make_park_scene, make_sports_scene, region_quality


@pytest.fixture(scope="module")
def scene():
    return make_sports_scene(3, height=176, width=320)


@pytest.fixture(scope="module")
def frame(scene):
    return scene.to_source().frame_at(0)


@pytest.fixture(scope="module")
def correlation(scene):
    streamer = ContextAwareStreamer()
    fact = next(f for f in scene.facts if f.key == "score")
    return streamer.correlation_for(scene, fact.question)


class TestProactivePolicies:
    def test_saliency_prefers_detailed_regions(self, scene, frame):
        policy = SaliencyProactivePolicy(patch_size=32)
        importance = policy.importance_map(frame)
        scoreboard = scene.object_by_name("scoreboard").pixel_region(scene.height, scene.width)
        court = scene.object_by_name("court").pixel_region(scene.height, scene.width)
        assert importance.region_mean(scoreboard) > importance.region_mean(court)
        assert (importance.values >= -1).all() and (importance.values <= 1).all()

    def test_history_policy_reuses_past_correlation(self, frame, correlation):
        policy = HistoryProactivePolicy(patch_size=correlation.patch_size)
        empty = policy.importance_map(frame)
        assert np.allclose(empty.values, 0.0)
        policy.observe(correlation)
        primed = policy.importance_map(frame)
        assert np.corrcoef(primed.values.ravel(), correlation.values.ravel())[0, 1] > 0.9

    def test_history_decay_prefers_recent_turns(self, frame, correlation):
        policy = HistoryProactivePolicy(patch_size=correlation.patch_size, decay=0.3)
        old = correlation
        new_values = -correlation.values
        new = type(correlation)(
            values=new_values,
            patch_size=correlation.patch_size,
            frame_shape=correlation.frame_shape,
            query="other",
            query_concepts=(),
        )
        policy.observe(old)
        policy.observe(new)
        blended = policy.importance_map(frame)
        # The most recent turn dominates the blend.
        assert np.corrcoef(blended.values.ravel(), new_values.ravel())[0, 1] > 0.5

    def test_history_rejects_mismatched_patch_size(self, correlation):
        policy = HistoryProactivePolicy(patch_size=correlation.patch_size * 2)
        with pytest.raises(ValueError):
            policy.observe(correlation)

    def test_hybrid_falls_back_to_saliency(self, frame):
        policy = HybridProactivePolicy(patch_size=32)
        importance = policy.importance_map(frame)
        saliency = SaliencyProactivePolicy(patch_size=32).importance_map(frame)
        np.testing.assert_allclose(importance.values, saliency.values)

    def test_hybrid_blends_history(self, frame, correlation):
        policy = HybridProactivePolicy(patch_size=correlation.patch_size, history_weight=0.9)
        policy.observe(correlation)
        blended = policy.importance_map(frame)
        assert np.corrcoef(blended.values.ravel(), correlation.values.ravel())[0, 1] > 0.6

    def test_hybrid_weight_validation(self):
        with pytest.raises(ValueError):
            HybridProactivePolicy(history_weight=1.5)


class TestSemanticLayers:
    def test_layer_config_validation(self):
        with pytest.raises(ValueError):
            LayerConfig(thresholds=(0.5,), layer_qps=(10.0,))
        with pytest.raises(ValueError):
            LayerConfig(thresholds=(0.1, 0.5), layer_qps=(10.0, 20.0, 30.0))

    def test_base_layer_owns_most_correlated_blocks(self, frame, correlation):
        encoder = SemanticLayeredEncoder()
        result = encoder.encode(frame.pixels, correlation)
        assert result.base_layer.latency_sensitive
        assert not result.enhancement_layers[0].latency_sensitive
        # The base layer owns the blocks with the highest correlation.
        blocks = correlation.to_block_grid(encoder.codec.config.block_size, frame.pixels.shape)
        base_mean = blocks[result.base_layer.block_mask].mean()
        rest_mean = blocks[~result.base_layer.block_mask].mean()
        assert base_mean > rest_mean

    def test_base_only_reconstruction_keeps_important_region(self, scene, frame, correlation):
        encoder = SemanticLayeredEncoder()
        result = encoder.encode(frame.pixels, correlation)
        base_only = encoder.reconstruct(result, received_layers=[0])
        everything = encoder.reconstruct(result, received_layers=[0, 1, 2])
        region = scene.object_by_name("scoreboard").pixel_region(scene.height, scene.width)
        court = scene.object_by_name("court").pixel_region(scene.height, scene.width)
        base_important = region_quality(frame.pixels, base_only, region).readable_score
        base_court = region_quality(frame.pixels, base_only, court).readable_score
        full_important = region_quality(frame.pixels, everything, region).readable_score
        full_court = region_quality(frame.pixels, everything, court).readable_score
        # The base layer alone already favours the chat-important region by a
        # wide margin (it only loses the blocks at the region boundary).
        assert base_important > base_court + 0.2
        assert base_important >= full_important - 0.25
        # The rest of the frame improves once enhancement layers arrive.
        assert full_court >= base_court

    def test_base_layer_is_cheaper_than_total(self, frame, correlation):
        encoder = SemanticLayeredEncoder()
        result = encoder.encode(frame.pixels, correlation)
        bitrates = encoder.layer_bitrates_bps(result, fps=2.0)
        assert bitrates["base"] < sum(bitrates.values())

    def test_reconstruct_validation(self, frame, correlation):
        encoder = SemanticLayeredEncoder()
        result = encoder.encode(frame.pixels, correlation)
        with pytest.raises(ValueError):
            encoder.reconstruct(result, received_layers=[])
        with pytest.raises(ValueError):
            encoder.reconstruct(result, received_layers=[9])


class TestTokenPruning:
    def test_keep_ratio_respected(self, frame, correlation):
        pruner = ContextAwareTokenPruner(PruningConfig(keep_ratio=0.25, uniform_floor_ratio=0.0))
        result = pruner.prune(frame, correlation)
        assert result.kept_ratio == pytest.approx(0.25, abs=0.05)
        assert result.kept_tokens < result.total_tokens

    def test_important_region_tokens_survive(self, scene, frame, correlation):
        pruner = ContextAwareTokenPruner(PruningConfig(keep_ratio=0.3))
        result = pruner.prune(frame, correlation)
        region = scene.object_by_name("scoreboard").pixel_region(scene.height, scene.width)
        court = scene.object_by_name("court").pixel_region(scene.height, scene.width)
        assert result.region_kept_fraction(region, pruner.config.token_patch_size) > 0.8
        assert result.region_kept_fraction(region, pruner.config.token_patch_size) > result.region_kept_fraction(
            court, pruner.config.token_patch_size
        )

    def test_pruning_reduces_inference_latency(self, frame, correlation):
        pruner = ContextAwareTokenPruner(PruningConfig(keep_ratio=0.2))
        result = pruner.prune(frame, correlation)
        assert result.latency_after_ms < result.latency_before_ms
        assert result.latency_saving_ms > 0

    def test_uniform_floor_keeps_some_background(self, frame, correlation):
        with_floor = ContextAwareTokenPruner(
            PruningConfig(keep_ratio=0.2, uniform_floor_ratio=0.2)
        ).prune(frame, correlation)
        without_floor = ContextAwareTokenPruner(
            PruningConfig(keep_ratio=0.2, uniform_floor_ratio=0.0)
        ).prune(frame, correlation)
        assert with_floor.kept_tokens > without_floor.kept_tokens

    def test_config_validation(self):
        with pytest.raises(ValueError):
            PruningConfig(keep_ratio=0.0)
        with pytest.raises(ValueError):
            PruningConfig(uniform_floor_ratio=1.0)
        with pytest.raises(ValueError):
            PruningConfig(token_patch_size=0)
