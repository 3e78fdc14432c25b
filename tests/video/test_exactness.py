"""The codec's, rate control's, scene's and quality metric's fast paths equal the formulas they replaced.

Each test inlines the earlier formula and compares bit for bit on the host
that runs it; no digest is pinned, so a different libm cannot fail them.
"""

import numpy as np
import pytest
from scipy.fft import dctn

from repro.video import BlockCodec, CodecConfig, Scene, make_sports_scene, make_street_scene
from repro.video.codec import _pad_to_blocks, _to_blocks
from repro.video.quality import high_frequency_retention
from repro.video.rate_control import encode_at_target_bitrate
from repro.video.scene import SceneLayers, SceneObject


def _log2_bits(quantised: np.ndarray, header_bits: float) -> np.ndarray:
    """Per-block bits as ``2*floor(log2(m)) + 3`` per non-zero coefficient, in floats."""
    magnitude = np.abs(quantised).astype(np.float64)
    nonzero = magnitude > 0
    coefficient_bits = np.where(nonzero, 2.0 * np.floor(np.log2(np.maximum(magnitude, 1))) + 3.0, 0.0)
    return coefficient_bits.sum(axis=(2, 3)) + header_bits


def _reference_encode(codec: BlockCodec, pixels: np.ndarray, qp) -> tuple[np.ndarray, np.ndarray, float]:
    """Pad, transform, quantise and count in one pass: (quantised, bits per block, total bits)."""
    pixels = np.asarray(pixels, dtype=np.float64)
    block = codec.config.block_size
    qp_map = codec._expand_qp_map(qp, *pixels.shape)
    coefficients = dctn(_to_blocks(_pad_to_blocks(pixels, block), block), axes=(2, 3), norm="ortho")
    steps = codec.config.quantisation_step(qp_map)[:, :, None, None]
    quantised = np.round(coefficients / steps).astype(np.int32)
    bits = _log2_bits(quantised, codec.config.header_bits_per_block)
    return quantised, bits, float(bits.sum()) + codec.config.frame_header_bits


def _mgrid_background(scene: Scene) -> np.ndarray:
    """The background built on full coordinate grids."""
    rng = np.random.default_rng(scene.seed)
    yy, xx = np.mgrid[0 : scene.height, 0 : scene.width]
    gradient = 70 + 60 * (xx / max(scene.width - 1, 1)) + 25 * (yy / max(scene.height - 1, 1))
    phase_x, phase_y = rng.uniform(0, 2 * np.pi, size=2)
    undulation = 10 * np.sin(2 * np.pi * xx / scene.width + phase_x) * np.cos(
        2 * np.pi * yy / scene.height + phase_y
    )
    return gradient + undulation


def _mgrid_texture(scene: Scene, obj: SceneObject, rows: int, cols: int) -> np.ndarray:
    """An object's texture built on full coordinate grids."""
    rng = np.random.default_rng(scene.seed * 1009 + obj.texture_seed)
    yy, xx = np.mgrid[0:rows, 0:cols]
    cycles = 1.0 + obj.detail_scale * 14.0
    phase = rng.uniform(0, 2 * np.pi)
    pattern = np.sin(2 * np.pi * cycles * xx / max(cols, 1) + phase)
    pattern += np.sin(2 * np.pi * cycles * yy / max(rows, 1) + phase * 0.7)
    static = rng.normal(0, 1.0, size=(rows, cols))
    blend = 0.35 + 0.65 * obj.detail_scale
    texture = (1 - blend) * pattern / 2.0 + blend * static
    return obj.base_intensity + obj.texture_contrast * texture


def _mgrid_render(scene: Scene, frame_index: int) -> np.ndarray:
    """A frame rendered from scratch with the full-grid background and textures."""
    time_s = frame_index / scene.fps
    frame = _mgrid_background(scene)
    for obj in scene.objects:
        row0, row1, col0, col1 = obj.pixel_region(scene.height, scene.width, time_s)
        frame[row0:row1, col0:col1] = _mgrid_texture(scene, obj, row1 - row0, col1 - col0)
    return np.clip(frame, 0, 255)


def _two_abs_retention(original: np.ndarray, degraded: np.ndarray, cutoff_fraction: float = 0.25) -> float:
    """High-frequency retention taking each band magnitude twice."""
    spectrum_original = np.fft.fft2(np.asarray(original, dtype=np.float64))
    spectrum_degraded = np.fft.fft2(np.asarray(degraded, dtype=np.float64))
    height, width = original.shape
    fy = np.fft.fftfreq(height)[:, None]
    fx = np.fft.fftfreq(width)[None, :]
    radius = np.sqrt(fy**2 + fx**2)
    high_band = radius >= cutoff_fraction * radius.max()
    original_energy = float(np.sum(np.abs(spectrum_original[high_band]) ** 2))
    if original_energy <= 1e-12:
        return 1.0
    degraded_energy = float(np.sum(np.abs(spectrum_degraded[high_band]) ** 2))
    retained = float(
        np.sum(np.abs(spectrum_degraded[high_band]) * np.abs(spectrum_original[high_band]))
    ) / np.sqrt(original_energy * max(degraded_energy, 1e-12))
    return float(np.clip(retained, 0.0, 1.0))


def _assert_same_encode(encoded, reference) -> None:
    quantised, bits, total_bits = reference
    np.testing.assert_array_equal(encoded.quantised, quantised)
    np.testing.assert_array_equal(encoded.bits_per_block, bits)
    assert encoded.total_bits == total_bits


@pytest.fixture(scope="module")
def frame():
    # 170 x 300 is not a multiple of the 16-pixel block, so encoding pads.
    return make_sports_scene(2, height=170, width=300).render(0)


class TestPrecomputedTransform:
    @pytest.mark.parametrize("qp", [0, 22, 37.5, 51])
    def test_scalar_qp(self, frame, qp):
        codec = BlockCodec()
        transformed = codec.transform(frame)
        reference = _reference_encode(codec, frame, qp)
        _assert_same_encode(codec.encode(transformed, qp), reference)
        _assert_same_encode(codec.encode(frame, qp), reference)

    def test_per_block_qp_map(self, frame):
        codec = BlockCodec()
        grid = codec.block_grid_shape(*frame.shape)
        qp_map = np.random.default_rng(4).uniform(10, 50, size=grid)
        reference = _reference_encode(codec, frame, qp_map)
        _assert_same_encode(codec.encode(codec.transform(frame), qp_map), reference)

    def test_padding_is_kept(self, frame):
        codec = BlockCodec(CodecConfig(block_size=8))
        transformed = codec.transform(frame)
        encoded = codec.encode(transformed, 30)
        assert transformed.shape == frame.shape == encoded.shape
        assert encoded.padded_shape == (176, 304)
        _assert_same_encode(encoded, _reference_encode(codec, frame, 30))
        np.testing.assert_array_equal(codec.decode(encoded), codec.decode(codec.encode(frame, 30)))

    def test_transform_of_another_block_size_is_refused(self, frame):
        with pytest.raises(ValueError, match="blocks"):
            BlockCodec(CodecConfig(block_size=8)).encode(BlockCodec().transform(frame), 30)

    def test_rate_control_search_matches_per_probe_encodes(self, frame):
        codec = BlockCodec()
        grid = codec.block_grid_shape(*frame.shape)
        base = np.random.default_rng(5).uniform(20, 40, size=grid)
        result = encode_at_target_bitrate(codec, frame, 300_000, fps=2.0, base_qp_map=base)
        _assert_same_encode(result.encoded, _reference_encode(codec, frame, result.encoded.qp_map))


class TestFrexpBitCount:
    def test_matches_floor_log2_per_coefficient(self):
        magnitudes = [0, 1]
        for k in range(1, 21):
            magnitudes += [2**k, 2**k - 1]
        values = np.array(sorted({sign * m for m in magnitudes for sign in (1, -1)}), dtype=np.int32)
        # One coefficient per block, so each block's count is one value's cost.
        quantised = values.reshape(-1, 1, 1, 1)
        codec = BlockCodec()
        header = codec.config.header_bits_per_block
        np.testing.assert_array_equal(codec._estimate_bits(quantised), _log2_bits(quantised, header))
        assert codec._estimate_bits(quantised).dtype == np.float64

    def test_matches_floor_log2_on_real_blocks(self, frame):
        codec = BlockCodec()
        for qp in (4, 30, 51):
            quantised = codec.encode(frame, qp).quantised
            np.testing.assert_array_equal(
                codec._estimate_bits(quantised),
                _log2_bits(quantised, codec.config.header_bits_per_block),
            )


class TestBroadcastBackground:
    @pytest.mark.parametrize("seed", [0, 1, 17, 2024])
    @pytest.mark.parametrize("height,width", [(360, 640), (240, 432), (37, 53), (1, 9), (9, 1), (1, 1)])
    def test_matches_mgrid_formula(self, seed, height, width):
        scene = Scene("plain", "", objects=[], facts=[], height=height, width=width, seed=seed)
        background = scene._background()
        assert background.shape == (height, width)
        np.testing.assert_array_equal(background, _mgrid_background(scene))

    def test_render_returns_a_fresh_array(self):
        scene = make_sports_scene(0, height=64, width=96)
        first = scene.render(0)
        first[:] = 0.0
        assert scene.render(0).any()


class TestBroadcastTexture:
    @pytest.mark.parametrize("seed", [0, 3, 2024])
    @pytest.mark.parametrize("rows,cols", [(54, 24), (43, 21), (37, 53), (1, 9), (9, 1), (1, 1)])
    def test_matches_mgrid_formula(self, seed, rows, cols):
        scene = make_sports_scene(seed, height=64, width=96)
        for obj in scene.objects:
            texture = scene._object_texture(obj, rows, cols)
            assert texture.shape == (rows, cols)
            np.testing.assert_array_equal(texture, _mgrid_texture(scene, obj, rows, cols))


class TestSharedLayers:
    @staticmethod
    def _moving_scene() -> Scene:
        # fps and duration changed after construction, before to_source().
        scene = make_street_scene(3, height=97, width=173)
        scene.fps = 10.0
        scene.duration_s = 3.0
        return scene

    def test_moving_region_changes_size(self):
        scene = self._moving_scene()
        pedestrian = scene.object_by_name("pedestrian")
        assert pedestrian.velocity != (0.0, 0.0)
        sizes = set()
        for index in range(scene.frame_count):
            row0, row1, col0, col1 = pedestrian.pixel_region(scene.height, scene.width, index / scene.fps)
            sizes.add((row1 - row0, col1 - col0))
        assert len(sizes) > 1, sizes

    def test_source_frames_equal_fresh_renders(self):
        scene = self._moving_scene()
        source = scene.to_source()
        assert source.frame_count() == scene.frame_count == 30
        for index in range(source.frame_count()):
            frame = source.frame_at(index)
            assert frame.timestamp == index / 10.0
            np.testing.assert_array_equal(frame.pixels, scene.render(index))
            np.testing.assert_array_equal(frame.pixels, _mgrid_render(scene, index))

    def test_one_texture_per_object_and_size(self):
        scene = self._moving_scene()
        layers = SceneLayers(scene)
        for index in range(scene.frame_count):
            np.testing.assert_array_equal(scene.render(index, layers), _mgrid_render(scene, index))
        # The pedestrian and its face move and take two sizes each; the rest stand still.
        assert len(layers._textures) == len(scene.objects) + 2

    def test_rendering_leaves_the_layers_unchanged(self):
        scene = make_sports_scene(1, height=64, width=96)
        layers = SceneLayers(scene)
        first = scene.render(0, layers)
        first[:] = 0.0
        np.testing.assert_array_equal(layers.background(), _mgrid_background(scene))
        np.testing.assert_array_equal(scene.render(5, layers), _mgrid_render(scene, 5))


class TestRetentionTakesEachMagnitudeOnce:
    @pytest.mark.parametrize("qp", [10, 30, 45, 51])
    def test_matches_two_abs_formula_on_decoded_regions(self, frame, qp):
        codec = BlockCodec()
        decoded = codec.decode(codec.encode(frame, qp))
        for region in ((slice(None), slice(None)), (slice(10, 60), slice(20, 131)), (slice(3, 4), slice(0, 40))):
            original, degraded = frame[region], decoded[region]
            assert high_frequency_retention(original, degraded) == _two_abs_retention(original, degraded)

    def test_matches_two_abs_formula_at_the_edges(self):
        rng = np.random.default_rng(8)
        noisy = rng.uniform(0, 255, size=(33, 47))
        flat = np.full((33, 47), 90.0)
        for original, degraded in ((noisy, flat), (flat, noisy), (noisy, noisy), (noisy, noisy * 0.5)):
            for cutoff in (0.1, 0.25, 0.9):
                assert high_frequency_retention(original, degraded, cutoff) == _two_abs_retention(
                    original, degraded, cutoff
                )
