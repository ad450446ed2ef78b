"""Tests for sliding-window samplers (Algorithms 4 & 6, Corollary 5.3)."""

import numpy as np
import pytest

from helpers import assert_matches_distribution
from repro.core import HuberMeasure, L1L2Measure
from repro.sliding_window import (
    SlidingWindowF0Sampler,
    SlidingWindowGSampler,
    SlidingWindowLpSampler,
)
from repro.stats import f0_target, g_target, lp_target
from repro.streams import zipf_stream

N, W = 12, 200
STREAM = zipf_stream(N, 700, alpha=1.0, seed=21)
WFREQ = STREAM.window_frequencies(W)


class TestSlidingWindowGSampler:
    def test_huber_window_distribution(self):
        target = g_target(WFREQ, HuberMeasure())

        def run(seed):
            return SlidingWindowGSampler(HuberMeasure(), window=W, seed=seed).run(STREAM)

        assert_matches_distribution(run, target, trials=2500, max_fail_rate=0.05)

    def test_short_stream_whole_coverage(self):
        """When t < W the 'window' is the entire stream."""
        short = zipf_stream(N, 50, seed=1)
        target = g_target(short.frequencies(), L1L2Measure())

        def run(seed):
            return SlidingWindowGSampler(L1L2Measure(), window=W, seed=seed).run(short)

        assert_matches_distribution(run, target, trials=2500, max_fail_rate=0.05)

    def test_expired_items_never_sampled(self):
        """An item appearing only before the window must have zero mass."""
        # item 0 appears only in the first 100 updates; window is last 100.
        items = [0] * 100 + [1 + (i % 3) for i in range(100)]
        from repro.streams import Stream

        stream = Stream(items, n=5)
        for seed in range(150):
            res = SlidingWindowGSampler(
                HuberMeasure(), window=100, seed=seed
            ).run(stream)
            if res.is_item:
                assert res.item != 0

    def test_generations_capped_at_two(self):
        s = SlidingWindowGSampler(HuberMeasure(), window=50, instances=4, seed=0)
        s.extend(zipf_stream(N, 500, seed=2))
        assert s.generation_count == 2

    def test_empty(self):
        s = SlidingWindowGSampler(HuberMeasure(), window=10, seed=0)
        assert s.sample().is_empty

    def test_validates_params(self):
        with pytest.raises(ValueError):
            SlidingWindowGSampler(HuberMeasure(), window=0)
        with pytest.raises(ValueError):
            SlidingWindowGSampler(HuberMeasure(), window=5, delta=0.0)


class TestSlidingWindowLpSampler:
    def test_l2_window_distribution(self):
        target = lp_target(WFREQ, 2.0)

        def run(seed):
            # Modest instance count: FAIL rate rises but the conditional
            # distribution — the property under test — is unaffected.
            return SlidingWindowLpSampler(
                2.0, window=W, instances=60, seed=seed
            ).run(STREAM)

        assert_matches_distribution(
            run, target, trials=900, max_fail_rate=0.6
        )

    def test_p_one_reservoir_mode(self):
        target = lp_target(WFREQ, 1.0)

        def run(seed):
            return SlidingWindowLpSampler(1.0, window=W, instances=4, seed=seed).run(
                STREAM
            )

        assert_matches_distribution(run, target, trials=2000, max_fail_rate=0.05)

    def test_normalizer_certified_against_window(self):
        s = SlidingWindowLpSampler(2.0, window=W, instances=8, seed=0)
        s.extend(STREAM)
        linf = int(WFREQ.max())
        worst = linf**2 - (linf - 1) ** 2
        assert s.normalizer() >= worst - 1e-9

    def test_default_instances_scale(self):
        from repro.sliding_window.lp_window import sliding_window_lp_instances

        small = sliding_window_lp_instances(2.0, 64, 0.1)
        large = sliding_window_lp_instances(2.0, 4096, 0.1)
        assert large / small == pytest.approx(8.0, rel=0.2)  # W^{1/2}

    def test_rejects_p_below_one(self):
        with pytest.raises(ValueError):
            SlidingWindowLpSampler(0.5, window=10)

    def test_normalizer_is_the_covering_generations_linf(self):
        """ζ is ``z² − (z−1)²`` at the exact ``‖f‖∞`` of the covering
        generation's substream — the updates since its bucket started,
        at most ``2W`` of them — so the state holds at most two
        generations of at most ``2W`` counters each, however long the
        stream."""
        window = 100
        stream = zipf_stream(N, 1550, seed=3)
        s = SlidingWindowLpSampler(2.0, window=window, instances=4, seed=0)
        s.extend(stream)
        covering_start = ((s.position - 1) // window - 1) * window
        z = int(np.bincount(stream.items[covering_start:]).max())
        assert s.normalizer() == z**2 - (z - 1) ** 2
        assert s.generation_count == 2
        for gen in s.snapshot()["generations"].values():
            assert gen["aux"]["keys"].size <= 2 * window


class TestSlidingWindowF0Sampler:
    def test_window_support_distribution(self):
        target = f0_target(WFREQ)

        def run(seed):
            return SlidingWindowF0Sampler(N, window=W, seed=seed).run(STREAM)

        assert_matches_distribution(run, target, trials=2500, max_fail_rate=0.05)

    def test_expired_support_excluded(self):
        from repro.streams import Stream

        items = [0] * 50 + [1, 2, 3] * 20
        stream = Stream(items, n=4)
        for seed in range(100):
            res = SlidingWindowF0Sampler(4, window=60, seed=seed).run(stream)
            assert res.is_item
            assert res.item != 0

    def test_sparse_window_regime_exact(self):
        """Window support below √n: the LRU holds it exactly."""
        stream = zipf_stream(400, 500, alpha=2.5, seed=4)  # few distinct
        wfreq = stream.window_frequencies(100)
        target = f0_target(wfreq)

        def run(seed):
            return SlidingWindowF0Sampler(400, window=100, seed=seed).run(stream)

        report = assert_matches_distribution(run, target, trials=2000)
        assert report.fail_rate <= 0.05

    def test_empty(self):
        s = SlidingWindowF0Sampler(8, window=5, seed=0)
        assert s.sample().is_empty

    def test_validates(self):
        with pytest.raises(ValueError):
            SlidingWindowF0Sampler(0, window=5)
        s = SlidingWindowF0Sampler(4, window=5, seed=0)
        with pytest.raises(ValueError):
            s.update(9)
