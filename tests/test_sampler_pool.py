"""Tests for the shared-counter reservoir pool (Theorem 3.1's O(1)-update
data structure) — including statistical equivalence with the literal
Algorithm 1."""

from collections import Counter

import numpy as np
import pytest
from scipy import stats as sps

from repro.core.g_sampler import SamplerPool
from repro.core.reservoir import TimestampedReservoir
from repro.streams import zipf_stream


class TestSamplerPoolInvariants:
    def test_counts_at_least_one(self):
        pool = SamplerPool(16, seed=0)
        pool.extend(zipf_stream(8, 500, seed=1))
        for item, count, ts in pool.finalize():
            assert count >= 1
            assert 1 <= ts <= 500

    def test_tracked_items_bounded_by_instances(self):
        pool = SamplerPool(10, seed=2)
        pool.extend(zipf_stream(50, 300, seed=3))
        assert pool.tracked_items <= 10

    def test_ids_beyond_int64_are_refused_untouched(self):
        """The state is an int64 buffer: adopting an id that does not fit
        raises before anything changes; merging past 2^63 − 1 positions
        raises before any coin is drawn."""
        from repro.engine.state import save_state

        pool = SamplerPool(4, seed=0)
        before = save_state(pool)
        with pytest.raises(OverflowError):
            pool.update(1 << 63)  # position 1: every instance adopts it
        assert save_state(pool) == before
        pool.update(-(1 << 63))
        far = pool.snapshot()
        far["position"] = (1 << 63) - 2
        other = SamplerPool.from_snapshot(far)
        before = save_state(pool)
        with pytest.raises(OverflowError):
            pool.merge(other)
        assert save_state(pool) == before

    def test_finalize_empty_stream(self):
        pool = SamplerPool(4, seed=0)
        assert pool.finalize() == []

    def test_heap_events_logarithmic(self):
        """Total replacements ≈ R·H_m — far below R·m."""
        r, m = 32, 2000
        pool = SamplerPool(r, seed=4)
        pool.extend(zipf_stream(16, m, seed=5))
        harmonic = float(np.log(m)) + 1
        assert pool.heap_events <= 3 * r * harmonic
        assert pool.heap_events >= r  # every instance adopted at least once

    def test_item_count_consistency(self):
        """(item, count, ts) must be mutually consistent with the stream."""
        stream = list(zipf_stream(6, 400, seed=6))
        pool = SamplerPool(8, seed=7)
        pool.extend(stream)
        for item, count, ts in pool.finalize():
            assert stream[ts - 1] == item
            forward = sum(1 for x in stream[ts - 1:] if x == item)
            assert count == forward

    def test_validates_instances(self):
        with pytest.raises(ValueError):
            SamplerPool(0)


class TestPoolMatchesLiteralAlgorithm1:
    def test_sampled_position_distribution(self):
        """Each pool instance's timestamp must be uniform over [1, m],
        exactly like the naive reservoir."""
        m = 15
        stream = list(range(m))
        counts = Counter()
        for seed in range(4000):
            pool = SamplerPool(2, seed=seed)
            pool.extend(stream)
            for __, __, ts in pool.finalize():
                counts[ts] += 1
        observed = np.array([counts[t] for t in range(1, m + 1)])
        __, pvalue = sps.chisquare(observed)
        assert pvalue > 1e-3

    def test_joint_item_count_distribution_matches_naive(self):
        """(item, count) histogram of pool instances vs the literal
        TimestampedReservoir on the same stream."""
        stream = [0, 1, 0, 2, 0, 1, 0]
        pool_counts = Counter()
        naive_counts = Counter()
        trials = 6000
        for seed in range(trials):
            pool = SamplerPool(1, seed=seed)
            pool.extend(stream)
            ((item, count, __),) = pool.finalize()
            pool_counts[(item, count)] += 1
            naive = TimestampedReservoir(seed + 10**6)
            naive.extend(stream)
            naive_counts[(naive.item, naive.count)] += 1
        keys = sorted(set(pool_counts) | set(naive_counts))
        pool_arr = np.array([pool_counts[k] for k in keys], dtype=float)
        naive_arr = np.array([naive_counts[k] for k in keys], dtype=float)
        # Two-sample chi-square (homogeneity).
        table = np.vstack([pool_arr, naive_arr])
        __, pvalue, __, __ = sps.chi2_contingency(table)
        assert pvalue > 1e-3
