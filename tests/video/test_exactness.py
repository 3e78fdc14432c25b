"""The codec's, rate control's and scene's fast paths equal the formulas they replaced.

Each test inlines the earlier formula and compares bit for bit on the host
that runs it; no digest is pinned, so a different libm cannot fail them.
"""

import numpy as np
import pytest
from scipy.fft import dctn

from repro.video import BlockCodec, CodecConfig, Scene, make_sports_scene
from repro.video.codec import _pad_to_blocks, _to_blocks
from repro.video.rate_control import encode_at_target_bitrate


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
