"""Congestion control for the video uplink.

Traditional RTC relies on congestion control (the paper cites Google
Congestion Control for WebRTC, BBR and PCC) to keep the sending rate close
to — but below — the available bandwidth.  We implement a GCC-style
controller combining a delay-gradient (trendline) estimator with a loss-based
rate update, plus a simple AIMD controller as a second baseline.  The
AI-oriented transport of the paper deliberately operates far below the
estimate (the "yellow region" of Figure 3), which :class:`repro.net.abr`
builds on top of these estimators.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np


@dataclass(slots=True)
class RateSample:
    """One feedback report from the receiver used to update the controller."""

    timestamp: float
    receive_rate_bps: float
    loss_ratio: float
    one_way_delay_s: float


class BandwidthEstimator:
    """Interface for congestion controllers producing a target sending rate."""

    def update(self, sample: RateSample) -> float:  # pragma: no cover - interface
        raise NotImplementedError

    @property
    def estimate_bps(self) -> float:  # pragma: no cover - interface
        raise NotImplementedError


@dataclass(slots=True)
class GccConfig:
    """Tuning constants for the GCC-style controller."""

    initial_rate_bps: float = 1_000_000.0
    min_rate_bps: float = 50_000.0
    max_rate_bps: float = 50_000_000.0
    #: Multiplicative increase applied while the delay gradient stays flat.
    increase_factor: float = 1.08
    #: Multiplicative decrease applied on overuse (rising delay gradient).
    decrease_factor: float = 0.85
    #: Delay-gradient threshold (seconds per sample) that signals overuse.
    overuse_threshold_s: float = 0.004
    #: Loss ratio above which the loss-based controller backs off.
    high_loss_threshold: float = 0.10
    #: Loss ratio below which the loss-based controller may increase.
    low_loss_threshold: float = 0.02
    #: Window of delay samples used for the trendline estimate.
    window: int = 20


class GoogleCongestionControl(BandwidthEstimator):
    """A GCC-flavoured delay + loss based bandwidth estimator.

    The delay-based part watches the gradient of one-way delay over a sliding
    window: a rising trend means queues are building (overuse) and the rate
    is multiplicatively decreased towards the measured receive rate; a flat
    or falling trend lets the rate grow.  The loss-based part caps the rate
    when loss exceeds 10 % (as in RFC-style GCC) and allows growth below 2 %.
    """

    def __init__(self, config: Optional[GccConfig] = None) -> None:
        self.config = config or GccConfig()
        self._rate = self.config.initial_rate_bps
        self._delays: list[tuple[float, float]] = []
        self.state = "increase"

    @property
    def estimate_bps(self) -> float:
        return self._rate

    def _delay_trend(self) -> float:
        """Least-squares slope of one-way delay versus time over the window."""
        if len(self._delays) < 3:
            return 0.0
        samples = self._delays[-self.config.window :]
        times = np.asarray([t for t, _ in samples])
        delays = np.asarray([d for _, d in samples])
        times = times - times[0]
        if float(np.ptp(times)) <= 0:
            return 0.0
        slope = float(np.polyfit(times, delays, 1)[0])
        return slope

    def update(self, sample: RateSample) -> float:
        cfg = self.config
        self._delays.append((sample.timestamp, sample.one_way_delay_s))
        if len(self._delays) > 4 * cfg.window:
            self._delays = self._delays[-2 * cfg.window :]

        trend = self._delay_trend()
        overusing = trend > cfg.overuse_threshold_s
        underusing = trend < -cfg.overuse_threshold_s

        # Delay-based update.
        if overusing:
            self.state = "decrease"
            delay_rate = max(cfg.min_rate_bps, sample.receive_rate_bps * cfg.decrease_factor)
        elif underusing:
            self.state = "hold"
            delay_rate = self._rate
        else:
            self.state = "increase"
            delay_rate = self._rate * cfg.increase_factor

        # Loss-based update.
        if sample.loss_ratio > cfg.high_loss_threshold:
            loss_rate = self._rate * (1.0 - 0.5 * sample.loss_ratio)
        elif sample.loss_ratio < cfg.low_loss_threshold:
            loss_rate = self._rate * 1.05
        else:
            loss_rate = self._rate

        self._rate = float(np.clip(min(delay_rate, loss_rate), cfg.min_rate_bps, cfg.max_rate_bps))
        return self._rate


@dataclass(slots=True)
class AimdConfig:
    """Tuning constants for the AIMD controller."""

    initial_rate_bps: float = 1_000_000.0
    min_rate_bps: float = 50_000.0
    max_rate_bps: float = 50_000_000.0
    additive_increase_bps: float = 100_000.0
    multiplicative_decrease: float = 0.7
    loss_threshold: float = 0.02


class AimdController(BandwidthEstimator):
    """Classic additive-increase / multiplicative-decrease on loss."""

    def __init__(self, config: Optional[AimdConfig] = None) -> None:
        self.config = config or AimdConfig()
        self._rate = self.config.initial_rate_bps

    @property
    def estimate_bps(self) -> float:
        return self._rate

    def update(self, sample: RateSample) -> float:
        cfg = self.config
        if sample.loss_ratio > cfg.loss_threshold:
            self._rate *= cfg.multiplicative_decrease
        else:
            self._rate += cfg.additive_increase_bps
        self._rate = float(np.clip(self._rate, cfg.min_rate_bps, cfg.max_rate_bps))
        return self._rate
