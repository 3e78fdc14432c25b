"""Scalar-vs-vectorized equivalence for the simulation fast path.

The fast path (block-sampled drop decisions, bisect-based trace lookups)
must be a pure optimisation: for any seed the drop sequence, rate lookups
and end-to-end session statistics must be identical to the scalar
reference path.  These tests pin that contract with property tests.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.net.emulator import (
    FASTPATH_ENV,
    BandwidthTrace,
    BernoulliLoss,
    GilbertElliottLoss,
    LossModel,
    PathConfig,
    fastpath_enabled,
)
from repro.net.transport import run_fixed_bitrate_session


def scalar_sequence(model: LossModel, seed: int, n: int) -> list[bool]:
    rng = np.random.default_rng(seed)
    return [model.should_drop(rng) for _ in range(n)]


def block_sequence(model: LossModel, seed: int, n: int, block: int) -> list[bool]:
    """Draw ``n`` decisions in blocks of ``block`` from a fresh seeded RNG."""
    rng = np.random.default_rng(seed)
    out: list[bool] = []
    while len(out) < n:
        out.extend(bool(x) for x in model.sample_drops(rng, min(block, n - len(out))))
    return out


class TestBernoulliBlockEquivalence:
    @given(
        loss_rate=st.floats(min_value=0.0, max_value=0.95),
        seed=st.integers(min_value=0, max_value=2**31),
        block=st.sampled_from([1, 3, 64, 1024]),
    )
    @settings(max_examples=40, deadline=None)
    def test_identical_drop_sequence(self, loss_rate, seed, block):
        n = 300
        scalar = scalar_sequence(BernoulliLoss(loss_rate), seed, n)
        blocked = block_sequence(BernoulliLoss(loss_rate), seed, n, block)
        assert scalar == blocked

    def test_zero_loss_consumes_no_draws(self):
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        drops = BernoulliLoss(0.0).sample_drops(rng, 500)
        assert not drops.any()
        assert rng.bit_generator.state == before

    def test_empty_block(self):
        assert BernoulliLoss(0.5).sample_drops(np.random.default_rng(0), 0).size == 0


class TestGilbertElliottBlockEquivalence:
    @given(
        p_gb=st.floats(min_value=0.0, max_value=1.0),
        p_bg=st.floats(min_value=0.0, max_value=1.0),
        loss_bad=st.floats(min_value=0.0, max_value=1.0),
        loss_good=st.floats(min_value=0.0, max_value=0.5),
        seed=st.integers(min_value=0, max_value=2**31),
        block=st.sampled_from([1, 7, 128, 1024]),
    )
    @settings(max_examples=60, deadline=None)
    def test_identical_drop_sequence(self, p_gb, p_bg, loss_bad, loss_good, seed, block):
        def make():
            return GilbertElliottLoss(
                p_good_to_bad=p_gb,
                p_bad_to_good=p_bg,
                loss_in_bad=loss_bad,
                loss_in_good=loss_good,
            )

        n = 300
        assert scalar_sequence(make(), seed, n) == block_sequence(make(), seed, n, block)

    def test_state_carries_across_blocks(self):
        """Two sample_drops calls equal one scalar pass of the same length."""
        model_a = GilbertElliottLoss(p_good_to_bad=0.2, p_bad_to_good=0.4, loss_in_bad=0.8)
        model_b = GilbertElliottLoss(p_good_to_bad=0.2, p_bad_to_good=0.4, loss_in_bad=0.8)
        rng = np.random.default_rng(3)
        first = model_a.sample_drops(rng, 100)
        second = model_a.sample_drops(rng, 150)
        combined = list(first) + list(second)
        assert combined == scalar_sequence(model_b, 3, 250)

    def test_fallback_loop_matches_for_custom_models(self):
        """The base-class sample_drops loops should_drop with the same RNG."""

        class EveryThird(LossModel):
            def __init__(self):
                self.calls = 0

            def should_drop(self, rng):
                self.calls += 1
                return self.calls % 3 == 0

        drops = EveryThird().sample_drops(np.random.default_rng(0), 9)
        assert drops.tolist() == [False, False, True] * 3


class TestRateAtEquivalence:
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_bisect_matches_linear_scan(self, data):
        count = data.draw(st.integers(min_value=1, max_value=30))
        gaps = data.draw(
            st.lists(
                st.floats(min_value=0.0, max_value=5.0),
                min_size=count,
                max_size=count,
            )
        )
        start = data.draw(st.floats(min_value=-10.0, max_value=10.0))
        times = list(np.cumsum([start] + gaps[:-1]))  # non-decreasing, may repeat
        rates = data.draw(
            st.lists(
                st.floats(min_value=1e3, max_value=1e9),
                min_size=count,
                max_size=count,
            )
        )
        trace = BandwidthTrace(times=times, rates_bps=rates)
        queries = data.draw(
            st.lists(st.floats(min_value=-20.0, max_value=40.0), min_size=1, max_size=40)
        )
        # Include the breakpoints themselves: boundary behaviour must match.
        for query in queries + times:
            assert trace.rate_at(query) == trace.rate_at_scan(query)

    def test_segment_cache_survives_arbitrary_query_order(self):
        trace = BandwidthTrace(times=[0.0, 1.0, 1.0, 2.0, 5.0], rates_bps=[1, 2, 3, 4, 5])
        order = [4.9, 0.5, 1.0, 0.0, 7.0, 1.5, -3.0, 2.0, 1.0, 0.99, 5.0]
        for query in order:
            assert trace.rate_at(query) == trace.rate_at_scan(query)

    def test_duplicate_breakpoints_pick_latest_entry(self):
        trace = BandwidthTrace(times=[0.0, 1.0, 1.0], rates_bps=[1e6, 2e6, 3e6])
        assert trace.rate_at(1.0) == 3e6
        assert trace.rate_at(0.5) == 1e6


def _session_stats(seed: int, jitter: float = 0.0) -> tuple:
    steps = 400
    trace = BandwidthTrace(
        times=np.linspace(0.0, 2.0, steps).tolist(),
        rates_bps=(5e6 + 2e6 * np.sin(np.linspace(0, 9, steps))).tolist(),
    )
    config = PathConfig(
        loss_model=GilbertElliottLoss(p_good_to_bad=0.03, p_bad_to_good=0.3, loss_in_bad=0.5),
        bandwidth_trace=trace,
        jitter_std_s=jitter,
        seed=seed,
    )
    stats = run_fixed_bitrate_session(4e6, 2.0, uplink_config=config)
    summary = stats.summary()
    return (
        summary.count,
        summary.delivered,
        summary.mean_s,
        summary.p99_s,
        summary.mean_retransmissions,
    )


class TestSessionEquivalence:
    """The emulator's block-refill path must not change simulated semantics."""

    @pytest.mark.parametrize("jitter", [0.0, 0.002])
    @pytest.mark.parametrize("seed", [0, 7])
    def test_fastpath_on_off_identical(self, monkeypatch, seed, jitter):
        monkeypatch.setenv(FASTPATH_ENV, "0")
        assert not fastpath_enabled()
        scalar = _session_stats(seed, jitter)
        monkeypatch.setenv(FASTPATH_ENV, "1")
        assert fastpath_enabled()
        fast = _session_stats(seed, jitter)
        assert scalar == fast

    def test_explicit_block_size_matches_scalar(self):
        loop_stats = []
        for block in (1, 16, 4096):
            config = PathConfig(
                loss_model=BernoulliLoss(0.05), seed=11, drop_block_size=block
            )
            stats = run_fixed_bitrate_session(2e6, 1.0, uplink_config=config)
            summary = stats.summary()
            loop_stats.append((summary.count, summary.delivered, summary.mean_s))
        assert loop_stats[0] == loop_stats[1] == loop_stats[2]

    def test_invalid_block_size_rejected(self):
        with pytest.raises(ValueError):
            PathConfig(drop_block_size=0)

    def test_block_refill_does_not_advance_callers_model(self):
        """The path snapshots a stateful model: prefetching a 1024-decision
        block must not advance the chain state of the caller's instance."""
        model = GilbertElliottLoss(p_good_to_bad=1.0, p_bad_to_good=0.0, loss_in_bad=0.9)
        config = PathConfig(loss_model=model, seed=0, drop_block_size=1024)
        run_fixed_bitrate_session(2e6, 1.0, uplink_config=config)
        assert model._in_bad_state is False

    def test_scalar_block_size_keeps_shared_model_semantics(self):
        """drop_block_size=1 preserves exact scalar semantics: the caller's
        model advances with every packet the path offers."""
        model = GilbertElliottLoss(p_good_to_bad=1.0, p_bad_to_good=0.0, loss_in_bad=0.9)
        config = PathConfig(loss_model=model, seed=0, drop_block_size=1)
        run_fixed_bitrate_session(2e6, 1.0, uplink_config=config)
        assert model._in_bad_state is True


class TestHorizonEquivalence:
    """Batched run events must not observe arrivals beyond the run horizon."""

    def _overloaded_session(self):
        from repro.net.emulator import BernoulliLoss, PathConfig
        from repro.net.transport import VideoTransportSession

        config = PathConfig(
            bandwidth_bps=20_000,
            queue_capacity_bytes=2_000_000,
            loss_model=BernoulliLoss(0.0),
            seed=1,
        )
        session = VideoTransportSession(uplink_config=config)
        for frame_id in range(60):
            session.loop.schedule_at(
                frame_id / 30, lambda f=frame_id: session.send_frame(f, 25_000)
            )
        return session

    def _stats(self, session):
        summary = session.stats.summary()
        path = session.uplink.stats
        return (
            summary.count,
            summary.delivered,
            summary.mean_s if summary.delivered else None,
            path.packets_delivered,
            path.bytes_delivered,
        )

    @pytest.mark.parametrize("resume", [False, True])
    def test_backlogged_link_cut_at_horizon(self, monkeypatch, resume):
        """A 20 kbps link with a deep queue stretches a burst's arrivals far
        past the horizon: delivery stats and completions must match the
        scalar path both when the run is cut there and when it resumes."""
        results = {}
        for fast in ("0", "1"):
            monkeypatch.setenv(FASTPATH_ENV, fast)
            session = self._overloaded_session()
            session.run(until=7.0)
            if resume:
                session.run(until=300.0)
            results[fast] = self._stats(session)
        assert results["0"] == results["1"]


class TestFecSessionEquivalence:
    """FEC sessions send and deliver per packet under either mode.

    Only drop decisions are drawn in blocks under the fast path; delivery
    stays per-packet because parity decode decisions are coupled to
    individual arrival instants.  Every observable — latency summary,
    recovery/spurious counters, per-frame completion instants,
    retransmission counts — must match the scalar reference
    (``REPRO_NET_FASTPATH=0``) bit-for-bit.
    """

    @pytest.mark.parametrize(
        "variant",
        [
            {},
            {"jitter_std_s": 0.002},
            {"bitrate_bps": 250_000},
            {"seed": 11, "bitrate_bps": 8e6},
        ],
        ids=["plain", "jittered", "single_packet_frames", "high_rate"],
    )
    def test_fastpath_on_off_identical(self, monkeypatch, variant):
        from repro.analysis.perfbench import _run_fec_session

        monkeypatch.setenv(FASTPATH_ENV, "0")
        assert not fastpath_enabled()
        scalar = _run_fec_session(2.0, **variant)
        monkeypatch.setenv(FASTPATH_ENV, "1")
        fast = _run_fec_session(2.0, **variant)
        assert scalar == fast

    def test_fec_recovery_actually_exercised(self, monkeypatch):
        """The equivalence above must not hold vacuously: the bursty FEC
        session really recovers packets from parity."""
        from repro.analysis.perfbench import _run_fec_session

        monkeypatch.setenv(FASTPATH_ENV, "1")
        result = _run_fec_session(2.0)
        fec = dict(result[5])
        assert fec["recovered_packets"] > 0

    def test_fec_session_sends_per_packet(self, monkeypatch):
        """An FEC session never takes block delivery, yet its uplink still
        draws drop decisions in blocks under the fast path; the emulated
        path offers no delivery mode beyond per-packet and block."""
        import inspect

        from repro.net.emulator import DEFAULT_DROP_BLOCK_SIZE, EmulatedPath
        from repro.net.fec import FecConfig
        from repro.net.transport import TransportConfig, VideoTransportSession

        monkeypatch.setenv(FASTPATH_ENV, "1")
        session = VideoTransportSession(
            transport_config=TransportConfig(fec=FecConfig(group_size=5))
        )
        assert not session.block_mode
        assert session.uplink._drop_block_size == DEFAULT_DROP_BLOCK_SIZE
        assert list(inspect.signature(EmulatedPath).parameters) == [
            "loop",
            "config",
            "deliver",
            "deliver_block",
            "lazy_dequeue",
        ]


class TestHighLossBlockDivergence:
    """Known limit of block delivery, pinned until it is fixed.

    At 20% uplink loss the FEC-free block path is not bit-identical to the
    scalar reference: 6 of seeds 0-39 (5, 13, 15, 32, 33, 35) differ.  The
    equivalence gates run at lower loss (2% i.i.d., about 3-6% bursty) and
    miss it.  The marks are strict, so the fix must remove them.
    """

    @pytest.mark.xfail(strict=True, reason="block delivery diverges at 20% loss")
    @pytest.mark.parametrize("seed", [5, 13])
    def test_fastpath_on_off_identical_at_20pct_loss(self, monkeypatch, seed):
        from repro.analysis.perfbench import _run_session

        results = {}
        for fast in ("0", "1"):
            monkeypatch.setenv(FASTPATH_ENV, fast)
            results[fast] = _run_session(
                4.0, BernoulliLoss(0.2), None, seed=seed, bitrate_bps=2e6
            )
        assert results["0"] == results["1"]
