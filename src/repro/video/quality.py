"""Video quality metrics: global, per-region and per-block.

Traditional RTC optimises these metrics directly (the paper cites SSIM and
VMAF); AI Video Chat instead uses them as an *intermediate* quantity — the
simulated MLLM can only read a scene attribute when the decoded quality of
the attribute's region is good enough for its detail level.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MAX_PIXEL = 255.0


def mse(original: np.ndarray, degraded: np.ndarray) -> float:
    """Mean squared error between two luma arrays."""
    original = np.asarray(original, dtype=np.float64)
    degraded = np.asarray(degraded, dtype=np.float64)
    if original.shape != degraded.shape:
        raise ValueError(f"shape mismatch: {original.shape} vs {degraded.shape}")
    return float(np.mean((original - degraded) ** 2))


def psnr(original: np.ndarray, degraded: np.ndarray) -> float:
    """Peak signal-to-noise ratio in dB (infinite for identical inputs)."""
    error = mse(original, degraded)
    if error <= 1e-12:
        return float("inf")
    return float(10.0 * np.log10(MAX_PIXEL**2 / error))


def high_frequency_retention(
    original: np.ndarray, degraded: np.ndarray, cutoff_fraction: float = 0.25
) -> float:
    """Fraction of the original high-frequency energy surviving degradation.

    Fine details (text, logos, counts) live in the high-frequency band; this
    measures how much of that band the codec preserved, which is the signal
    the simulated MLLM uses to decide whether a detail is still readable.
    """
    if not 0.0 < cutoff_fraction < 1.0:
        raise ValueError("cutoff_fraction must be in (0, 1)")
    original = np.asarray(original, dtype=np.float64)
    degraded = np.asarray(degraded, dtype=np.float64)
    if original.shape != degraded.shape:
        raise ValueError(f"shape mismatch: {original.shape} vs {degraded.shape}")

    spectrum_original = np.fft.fft2(original)
    spectrum_degraded = np.fft.fft2(degraded)
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
        np.sum(
            np.abs(spectrum_degraded[high_band]) * np.abs(spectrum_original[high_band])
        )
    ) / np.sqrt(original_energy * max(degraded_energy, 1e-12))
    return float(np.clip(retained, 0.0, 1.0))


@dataclass
class RegionQualityReport:
    """Quality of one semantic region of a decoded frame."""

    region: tuple[int, int, int, int]
    psnr_db: float
    mse: float
    detail_retention: float

    @property
    def readable_score(self) -> float:
        """A 0–1 score combining PSNR and detail retention.

        PSNR saturates around 45 dB; detail retention handles the fine-text
        regime where PSNR alone is too forgiving.
        """
        psnr_component = float(np.clip((self.psnr_db - 20.0) / 25.0, 0.0, 1.0))
        return 0.5 * psnr_component + 0.5 * self.detail_retention


def region_quality(
    original: np.ndarray,
    degraded: np.ndarray,
    region: tuple[int, int, int, int],
) -> RegionQualityReport:
    """Quality report for a pixel region of a decoded frame."""
    row0, row1, col0, col1 = region
    original_patch = np.asarray(original, dtype=np.float64)[row0:row1, col0:col1]
    degraded_patch = np.asarray(degraded, dtype=np.float64)[row0:row1, col0:col1]
    if original_patch.size == 0:
        raise ValueError(f"empty region {region}")
    return RegionQualityReport(
        region=region,
        psnr_db=psnr(original_patch, degraded_patch),
        mse=mse(original_patch, degraded_patch),
        detail_retention=high_frequency_retention(original_patch, degraded_patch),
    )
