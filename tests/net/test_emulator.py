"""Tests for the emulated network path."""

import numpy as np
import pytest

from repro.net.emulator import (
    BandwidthTrace,
    BernoulliLoss,
    EmulatedPath,
    GilbertElliottLoss,
    PathConfig,
)
from repro.net.events import EventLoop
from repro.net.packet import Packetizer


def _make_path(loop, deliveries, **kwargs):
    config = PathConfig(**kwargs)
    return EmulatedPath(loop, config, lambda pkt, t: deliveries.append((pkt, t)))


class TestLossModels:
    def test_bernoulli_zero_never_drops(self):
        rng = np.random.default_rng(0)
        model = BernoulliLoss(0.0)
        assert not any(model.should_drop(rng) for _ in range(1000))

    def test_bernoulli_rate_approximates_configured_probability(self):
        rng = np.random.default_rng(1)
        model = BernoulliLoss(0.2)
        drops = sum(model.should_drop(rng) for _ in range(20_000))
        assert 0.18 < drops / 20_000 < 0.22

    def test_bernoulli_rejects_invalid_rate(self):
        with pytest.raises(ValueError):
            BernoulliLoss(1.0)
        with pytest.raises(ValueError):
            BernoulliLoss(-0.1)

    def test_gilbert_elliott_steady_state_matches_empirical(self):
        rng = np.random.default_rng(2)
        model = GilbertElliottLoss(p_good_to_bad=0.05, p_bad_to_good=0.4, loss_in_bad=0.6)
        drops = sum(model.should_drop(rng) for _ in range(100_000))
        empirical = drops / 100_000
        assert abs(empirical - model.steady_state_loss) < 0.02

    def test_gilbert_elliott_produces_bursts(self):
        rng = np.random.default_rng(3)
        model = GilbertElliottLoss(p_good_to_bad=0.02, p_bad_to_good=0.2, loss_in_bad=0.9)
        outcomes = [model.should_drop(rng) for _ in range(50_000)]
        # Probability of a drop immediately following a drop should exceed the
        # marginal drop rate (burstiness).
        follows = [b for a, b in zip(outcomes, outcomes[1:]) if a]
        marginal = sum(outcomes) / len(outcomes)
        conditional = sum(follows) / max(len(follows), 1)
        assert conditional > marginal * 1.5


class TestBandwidthTrace:
    def test_rate_at_picks_latest_entry(self):
        trace = BandwidthTrace(times=[0.0, 5.0, 10.0], rates_bps=[1e6, 2e6, 3e6])
        assert trace.rate_at(0.0) == 1e6
        assert trace.rate_at(4.9) == 1e6
        assert trace.rate_at(5.0) == 2e6
        assert trace.rate_at(100.0) == 3e6

    def test_time_before_first_entry_uses_first_rate(self):
        trace = BandwidthTrace(times=[2.0], rates_bps=[5e6])
        assert trace.rate_at(0.0) == 5e6

    def test_validation(self):
        with pytest.raises(ValueError):
            BandwidthTrace(times=[], rates_bps=[])
        with pytest.raises(ValueError):
            BandwidthTrace(times=[0.0, 1.0], rates_bps=[1e6])
        with pytest.raises(ValueError):
            BandwidthTrace(times=[1.0, 0.5], rates_bps=[1e6, 1e6])
        with pytest.raises(ValueError):
            BandwidthTrace(times=[0.0], rates_bps=[0.0])


class TestPathConfigValidation:
    def test_rejects_nonpositive_bandwidth(self):
        with pytest.raises(ValueError):
            PathConfig(bandwidth_bps=0)

    def test_rejects_negative_delay(self):
        with pytest.raises(ValueError):
            PathConfig(propagation_delay_s=-0.01)

    def test_rejects_nonpositive_queue(self):
        with pytest.raises(ValueError):
            PathConfig(queue_capacity_bytes=0)


class TestEmulatedPath:
    def test_delivery_includes_propagation_and_serialization(self):
        loop = EventLoop()
        deliveries = []
        path = _make_path(
            loop, deliveries, bandwidth_bps=8_000_000, propagation_delay_s=0.030
        )
        packet = Packetizer().packetize(0, 1000, 0.0)[0]
        path.send(packet)
        loop.run_until_idle()
        assert len(deliveries) == 1
        _, arrival = deliveries[0]
        serialization = 1000 * 8 / 8_000_000
        assert arrival == pytest.approx(0.030 + serialization)

    def test_back_to_back_packets_serialize_sequentially(self):
        loop = EventLoop()
        deliveries = []
        path = _make_path(loop, deliveries, bandwidth_bps=1_000_000, propagation_delay_s=0.0)
        packets = Packetizer(mtu_bytes=1000).packetize(0, 3000, 0.0)
        for p in packets:
            path.send(p)
        loop.run_until_idle()
        arrivals = [t for _, t in deliveries]
        per_packet = 1000 * 8 / 1_000_000
        assert arrivals == pytest.approx([per_packet, 2 * per_packet, 3 * per_packet])

    def test_zero_loss_delivers_everything(self):
        loop = EventLoop()
        deliveries = []
        path = _make_path(loop, deliveries, loss_model=BernoulliLoss(0.0))
        packets = Packetizer().packetize(0, 50 * 1400, 0.0)
        for p in packets:
            path.send(p)
        loop.run_until_idle()
        assert len(deliveries) == 50
        assert path.stats.delivery_ratio == 1.0

    def test_random_loss_drops_fraction(self):
        loop = EventLoop()
        deliveries = []
        path = _make_path(
            loop, deliveries, loss_model=BernoulliLoss(0.3), seed=7, queue_capacity_bytes=10**9
        )
        packetizer = Packetizer()
        for frame in range(200):
            for p in packetizer.packetize(frame, 5 * 1400, frame * 0.01):
                path.send(p)
        loop.run_until_idle()
        ratio = len(deliveries) / 1000
        assert 0.62 < ratio < 0.78
        assert path.stats.packets_lost_random > 0

    def test_queue_overflow_drops_packets(self):
        loop = EventLoop()
        deliveries = []
        path = _make_path(
            loop,
            deliveries,
            bandwidth_bps=1_000_000,
            queue_capacity_bytes=5 * 1400,
        )
        packets = Packetizer().packetize(0, 20 * 1400, 0.0)
        accepted = [path.send(p) for p in packets]
        loop.run_until_idle()
        assert path.stats.packets_dropped_queue > 0
        assert sum(accepted) < len(packets)
        assert len(deliveries) == sum(accepted)

    def test_queue_drains_over_time(self):
        loop = EventLoop()
        deliveries = []
        path = _make_path(
            loop,
            deliveries,
            bandwidth_bps=10_000_000,
            queue_capacity_bytes=3 * 1400,
        )
        packetizer = Packetizer()
        # Send three packets every 10 ms; the queue never overflows because it
        # drains between bursts.
        for burst in range(10):
            for p in packetizer.packetize(burst, 3 * 1400, burst * 0.01):
                loop.schedule_at(burst * 0.01, lambda p=p: path.send(p))
        loop.run_until_idle()
        assert path.stats.packets_dropped_queue == 0
        assert len(deliveries) == 30

    def test_queueing_delay_reflects_backlog(self):
        loop = EventLoop()
        deliveries = []
        path = _make_path(loop, deliveries, bandwidth_bps=1_000_000, queue_capacity_bytes=10**9)
        for p in Packetizer().packetize(0, 10 * 1400, 0.0):
            path.send(p)
        loop.run_until_idle()
        # The last packet waits behind the whole backlog before its own flight.
        backlog_s = 10 * 1400 * 8 / 1_000_000
        assert deliveries[-1][1] == pytest.approx(backlog_s + path.config.propagation_delay_s)

    def test_jitter_adds_variable_delay(self):
        loop = EventLoop()
        deliveries = []
        path = _make_path(
            loop,
            deliveries,
            bandwidth_bps=100_000_000,
            propagation_delay_s=0.030,
            jitter_std_s=0.010,
            seed=11,
        )
        packetizer = Packetizer()
        for i in range(100):
            p = packetizer.packetize(i, 100, i * 0.01)[0]
            loop.schedule_at(i * 0.01, lambda p=p: path.send(p))
        loop.run_until_idle()
        transits = [t - p.capture_time for p, t in deliveries]
        assert np.std(transits) > 0.003

    def test_bandwidth_trace_changes_serialization(self):
        loop = EventLoop()
        deliveries = []
        trace = BandwidthTrace(times=[0.0, 1.0], rates_bps=[1_000_000, 10_000_000])
        config = PathConfig(bandwidth_bps=1_000_000, propagation_delay_s=0.0, bandwidth_trace=trace)
        path = EmulatedPath(loop, config, lambda pkt, t: deliveries.append((pkt, t)))
        packetizer = Packetizer(mtu_bytes=1000)
        early = packetizer.packetize(0, 1000, 0.0)[0]
        late = packetizer.packetize(1, 1000, 2.0)[0]
        path.send(early)
        loop.schedule_at(2.0, lambda: path.send(late))
        loop.run_until_idle()
        early_latency = deliveries[0][1] - 0.0
        late_latency = deliveries[1][1] - 2.0
        assert early_latency == pytest.approx(0.008)
        assert late_latency == pytest.approx(0.0008)
