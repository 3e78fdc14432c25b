"""Tests for the concept embedding space and the CLIP substitute (Equation 1)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.mllm import ConceptSpace, MobileClip, cosine_similarity
from repro.mllm.clip import ClipConfig
from repro.video import BlockCodec, high_frequency_retention, make_park_scene, make_sports_scene


@pytest.fixture(scope="module")
def space():
    return ConceptSpace()


@pytest.fixture(scope="module")
def park():
    return make_park_scene(0, height=160, width=288)


@pytest.fixture(scope="module")
def sports():
    return make_sports_scene(0, height=160, width=288)


class TestConceptSpace:
    def test_vectors_are_unit_norm(self, space):
        for concept in ["dog", "grass", "scoreboard", "unknown-word"]:
            assert np.linalg.norm(space.vector(concept)) == pytest.approx(1.0)

    def test_vectors_are_deterministic(self):
        a = ConceptSpace(seed=3).vector("dog")
        b = ConceptSpace(seed=3).vector("dog")
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_give_different_vectors(self):
        a = ConceptSpace(seed=1).vector("dog")
        b = ConceptSpace(seed=2).vector("dog")
        assert not np.allclose(a, b)

    def test_related_concepts_are_more_similar_than_unrelated(self, space):
        assert space.similarity("season", "grass") > space.similarity("season", "scoreboard")
        assert space.similarity("ears", "dog") > space.similarity("ears", "car")
        assert space.similarity("score", "scoreboard") > space.similarity("score", "grass")

    def test_unrelated_concepts_nearly_orthogonal(self, space):
        assert abs(space.similarity("dog", "equation")) < 0.45

    def test_encode_concepts_empty_is_zero(self, space):
        assert np.allclose(space.encode_concepts([]), 0.0)

    def test_encode_concepts_weighting(self, space):
        heavy_dog = space.encode_concepts(["dog", "car"], weights=[10.0, 0.1])
        assert cosine_similarity(heavy_dog, space.vector("dog")) > cosine_similarity(
            heavy_dog, space.vector("car")
        )

    def test_encode_concepts_invalid_weights(self, space):
        with pytest.raises(ValueError):
            space.encode_concepts(["dog"], weights=[1.0, 2.0])
        with pytest.raises(ValueError):
            space.encode_concepts(["dog"], weights=[-1.0])

    def test_extract_concepts_finds_vocabulary_words(self, space):
        concepts = space.extract_concepts("Is the dog in the video erect-eared or floppy-eared?")
        assert "dog" in concepts
        assert "ears" in concepts

    def test_extract_concepts_handles_plurals_and_synonyms(self, space):
        assert "spectators" in space.extract_concepts("How many spectators can be seen?")
        assert "car" in space.extract_concepts("How many cars are visible?")
        assert "action" in space.extract_concepts("What is the player doing?")

    def test_extract_concepts_ignores_unknown_words(self, space):
        assert space.extract_concepts("zzz qqq xyzzy") == []

    def test_dim_validation(self):
        with pytest.raises(ValueError):
            ConceptSpace(dim=4)

    def test_cosine_similarity_zero_vector(self):
        assert cosine_similarity(np.zeros(8), np.ones(8)) == 0.0

    @settings(max_examples=20, deadline=None)
    @given(st.text(alphabet=st.characters(whitelist_categories=("Ll",)), min_size=1, max_size=12))
    def test_property_any_word_gets_unit_vector(self, word):
        space = ConceptSpace()
        assert np.linalg.norm(space.vector(word)) == pytest.approx(1.0)


class TestMobileClip:
    def test_dog_question_highlights_dog_head(self, park):
        clip = MobileClip()
        frame = park.render(0)
        correlation = clip.correlation_map(park, "Is the dog erect-eared or floppy-eared?", frame, frame)
        dog_region = park.object_by_name("dog_head").pixel_region(park.height, park.width)
        sky_region = park.object_by_name("sky").pixel_region(park.height, park.width)
        assert correlation.region_mean(dog_region) > correlation.region_mean(sky_region) + 0.2

    def test_indirect_season_question_highlights_grass(self, park):
        clip = MobileClip()
        frame = park.render(0)
        correlation = clip.correlation_map(park, "Infer what season it might be in the video", frame, frame)
        grass = park.object_by_name("grass").pixel_region(park.height, park.width)
        dog = park.object_by_name("dog_head").pixel_region(park.height, park.width)
        assert correlation.region_mean(grass) > correlation.region_mean(dog)

    def test_score_question_highlights_scoreboard(self, sports):
        clip = MobileClip()
        frame = sports.render(0)
        correlation = clip.correlation_map(
            sports, "Could you tell me the present score of the game?", frame, frame
        )
        scoreboard = sports.object_by_name("scoreboard").pixel_region(sports.height, sports.width)
        court = sports.object_by_name("court").pixel_region(sports.height, sports.width)
        assert correlation.region_mean(scoreboard) > correlation.region_mean(court)

    def test_values_within_cosine_range(self, park):
        clip = MobileClip()
        correlation = clip.correlation_map(park, "Is there a dog?", park.render(0))
        assert (correlation.values >= -1.0).all() and (correlation.values <= 1.0).all()

    def test_empty_query_gives_zero_map(self, park):
        clip = MobileClip()
        correlation = clip.correlation_map(park, "zzz qqq", park.render(0))
        assert np.allclose(correlation.values, 0.0)

    def test_blur_attenuates_fine_regions(self, sports):
        from repro.video import BlockCodec

        clip = MobileClip()
        frame = sports.render(0)
        _, blurred = BlockCodec().roundtrip(frame, qp=50)
        sharp_map = clip.correlation_map(
            sports, "Could you tell me the present score of the game?", frame, frame
        )
        blurred_map = clip.correlation_map(
            sports, "Could you tell me the present score of the game?", blurred, frame
        )
        scoreboard = sports.object_by_name("scoreboard").pixel_region(sports.height, sports.width)
        assert blurred_map.region_mean(scoreboard) < sharp_map.region_mean(scoreboard)

    def test_top_patches_and_block_grid(self, park):
        clip = MobileClip()
        correlation = clip.correlation_map(park, "Is there a dog?", park.render(0))
        top = correlation.top_patches(3)
        assert len(top) == 3
        assert top[0][2] >= top[1][2] >= top[2][2]
        block_grid = correlation.to_block_grid(16)
        assert block_grid.shape == (int(np.ceil(park.height / 16)), int(np.ceil(park.width / 16)))

    def test_compute_latency_scales_with_patch_count(self, park):
        fine = MobileClip(config=ClipConfig(patch_size=16))
        coarse = MobileClip(config=ClipConfig(patch_size=64))
        frame = park.render(0)
        assert (
            fine.correlation_map(park, "dog", frame).compute_latency_ms
            > coarse.correlation_map(park, "dog", frame).compute_latency_ms
        )

    def test_patch_size_validation(self):
        with pytest.raises(ValueError):
            ClipConfig(patch_size=0)


class TestRawFrameNeedsNoPixels:
    """The streamer's maps take no pixels: a raw frame compared with itself is fully visible."""

    @pytest.mark.parametrize("shape", [(32, 32), (16, 24), (7, 32), (1, 5)])
    def test_self_retention_is_exactly_one(self, shape):
        rng = np.random.default_rng(shape[0] * 100 + shape[1])
        for _ in range(20):
            patch = rng.uniform(0, 255, size=shape)
            assert high_frequency_retention(patch, patch) == 1.0

    @pytest.mark.parametrize(
        "scene_name,question,time_s",
        [
            ("park", "Is the dog erect-eared or floppy-eared?", 0.0),
            ("park", "Infer what season it might be in the video", 0.5),
            ("sports", "Could you tell me the present score of the game?", 0.0),
            ("sports", "What is the player doing?", 1.0),
        ],
    )
    def test_raw_frame_against_itself_equals_no_pixels(self, request, scene_name, question, time_s):
        scene = request.getfixturevalue(scene_name)
        clip = MobileClip()
        frame = scene.render(int(round(time_s * scene.fps)))
        with_pixels = clip.correlation_map(scene, question, frame, frame, time_s=time_s)
        without = clip.correlation_map(scene, question, time_s=time_s)
        np.testing.assert_array_equal(with_pixels.values, without.values)
        assert with_pixels.query_concepts == without.query_concepts

    def test_decoded_frame_lowers_fine_object_correlation(self, sports):
        question = "Could you tell me the present score of the game?"
        scoreboard = sports.object_by_name("scoreboard")
        assert scoreboard.detail_scale > 0.9
        clip = MobileClip()
        frame = sports.render(0)
        _, decoded = BlockCodec().roundtrip(frame, qp=51)
        raw_map = clip.correlation_map(sports, question)
        decoded_map = clip.correlation_map(sports, question, decoded, frame)
        region = scoreboard.pixel_region(sports.height, sports.width)
        assert decoded_map.region_mean(region) < raw_map.region_mean(region)
