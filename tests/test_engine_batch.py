"""Batch-ingestion equivalence: ``update_batch`` must leave every sampler
in a state whose (conditional) output distribution matches the scalar
``update()`` loop — and for single-pool and F0 samplers the state must be
*bitwise identical* for a fixed seed, chunking be damned."""

import numpy as np
import pytest

from helpers import F0_FIELDS, assert_matches_distribution, f0_state
from repro.core.f0_sampler import RandomOracleF0Sampler, TrulyPerfectF0Sampler
from repro.core.g_sampler import SamplerPool, SingleGSampler, TrulyPerfectGSampler
from repro.core.lp_sampler import TrulyPerfectLpSampler
from repro.core.measures import L1L2Measure, LpMeasure
from repro.engine.batch import BatchIngestor, ingest, supports_batch
from repro.sliding_window import (
    SlidingWindowF0Sampler,
    SlidingWindowGSampler,
    SlidingWindowLpSampler,
)
from repro.stats import f0_target, g_target, lp_target
from repro.streams import uniform_stream, zipf_stream

CHUNKINGS = [[5000], [1, 2, 3, 4994], [7] * (5000 // 7) + [5000 % 7], [2500, 2500]]


def _pool_states_equal(a: SamplerPool, b: SamplerPool) -> bool:
    sa, sb = a.snapshot(), b.snapshot()
    for key in sa:
        va, vb = sa[key], sb[key]
        same = np.array_equal(va, vb) if isinstance(va, np.ndarray) else va == vb
        if not same:
            return False
    return True


class TestPoolBatchExactState:
    @pytest.mark.parametrize("chunks", CHUNKINGS)
    def test_bitwise_identical_to_scalar(self, chunks):
        stream = np.asarray(zipf_stream(64, 5000, alpha=1.2, seed=3).items)
        scalar = SamplerPool(32, seed=42)
        for item in stream.tolist():
            scalar.update(item)
        batched = SamplerPool(32, seed=42)
        start = 0
        for size in chunks:
            batched.update_batch(stream[start:start + size])
            start += size
        assert start == stream.size
        assert _pool_states_equal(scalar, batched)
        assert scalar.finalize() == batched.finalize()

    @pytest.mark.parametrize(
        "n,m,alpha", [(4, 3000, 1.0), (1000, 3000, 2.0), (8, 100, 1.1), (10**7, 4000, 1.3)]
    )
    def test_identical_across_universe_shapes(self, n, m, alpha):
        """Covers both flush paths (bincount and huge-universe
        searchsorted) and near-empty tracked sets."""
        stream = np.asarray(zipf_stream(n, m, alpha=alpha, seed=7).items)
        scalar = SamplerPool(16, seed=11)
        for item in stream.tolist():
            scalar.update(item)
        batched = SamplerPool(16, seed=11)
        batched.update_batch(stream[: m // 3])
        batched.update_batch(stream[m // 3:])
        assert _pool_states_equal(scalar, batched)

    def test_empty_and_trivial_chunks(self):
        pool = SamplerPool(4, seed=0)
        pool.update_batch(np.array([], dtype=np.int64))
        assert pool.position == 0
        pool.update_batch(np.array([5], dtype=np.int64))
        assert pool.position == 1
        assert pool.finalize() == [(5, 1, 1)] * 4

    def test_rejects_2d_input(self):
        with pytest.raises(ValueError):
            SamplerPool(4, seed=0).update_batch(np.zeros((2, 2), dtype=np.int64))


class TestSamplerBatchEquivalence:
    def test_g_sampler_batch_distribution(self):
        stream = zipf_stream(32, 1500, alpha=1.1, seed=5)
        target = g_target(stream.frequencies(), L1L2Measure())

        def run(seed):
            sampler = TrulyPerfectGSampler(L1L2Measure(), m_hint=1500, seed=seed)
            sampler.update_batch(stream.items)
            return sampler.sample()

        assert_matches_distribution(run, target, trials=300)

    def test_lp_batch_distribution_p2(self):
        """p = 2 exercises the Misra–Gries weighted-batch path, whose ζ
        may differ from the scalar run; the conditional distribution may
        not."""
        stream = zipf_stream(32, 1500, alpha=1.3, seed=6)
        target = lp_target(stream.frequencies(), 2.0)

        def run(seed):
            sampler = TrulyPerfectLpSampler(p=2.0, n=32, seed=seed)
            sampler.update_batch(stream.items)
            return sampler.sample()

        assert_matches_distribution(run, target, trials=300)

    def test_lp_p_le_1_bitwise(self):
        """No normalizer for p ≤ 1 ⇒ full state equality with scalar."""
        stream = np.asarray(zipf_stream(64, 4000, alpha=1.1, seed=8).items)
        scalar = TrulyPerfectLpSampler(p=0.5, n=64, m_hint=4000, seed=13)
        for item in stream.tolist():
            scalar.update(item)
        batched = TrulyPerfectLpSampler(p=0.5, n=64, m_hint=4000, seed=13)
        batched.update_batch(stream)
        assert _pool_states_equal(scalar._pool, batched._pool)

    def test_f0_batch_bitwise(self):
        stream = np.asarray(zipf_stream(400, 6000, alpha=1.1, seed=5).items)
        scalar = TrulyPerfectF0Sampler(400, seed=9)
        for item in stream.tolist():
            scalar.update(item)
        batched = TrulyPerfectF0Sampler(400, seed=9)
        batched.update_batch(stream[:1000])
        batched.update_batch(stream[1000:])
        for cs, cb in zip(scalar._copies, batched._copies):
            assert f0_state(cs, *F0_FIELDS) == f0_state(cb, *F0_FIELDS)

    def test_oracle_f0_batch_bitwise(self):
        stream = np.asarray(uniform_stream(300, 4000, seed=2).items)
        scalar = RandomOracleF0Sampler(300, seed=1)
        for item in stream.tolist():
            scalar.update(item)
        batched = RandomOracleF0Sampler(300, seed=1)
        for start in range(0, 4000, 333):
            batched.update_batch(stream[start:start + 333])
        assert scalar._min_item == batched._min_item
        assert scalar._min_val == batched._min_val
        assert scalar._count == batched._count

    def test_sliding_window_f0_batch_bitwise(self):
        stream = np.asarray(zipf_stream(400, 6000, alpha=1.1, seed=5).items)
        scalar = SlidingWindowF0Sampler(400, window=500, seed=3)
        for item in stream.tolist():
            scalar.update(item)
        batched = SlidingWindowF0Sampler(400, window=500, seed=3)
        batched.update_batch(stream[:333])
        batched.update_batch(stream[333:])
        assert scalar._recent == batched._recent
        assert scalar._evict_horizon == batched._evict_horizon
        for cs, cb in zip(scalar._copies, batched._copies):
            assert cs.last_seen == cb.last_seen

    def test_sliding_window_g_batch_distribution(self):
        stream = zipf_stream(24, 1200, alpha=1.2, seed=4)
        window = 400
        target = g_target(stream.window_frequencies(window), LpMeasure(1.0))

        def run(seed):
            sampler = SlidingWindowGSampler(
                LpMeasure(1.0), window=window, instances=48, seed=seed
            )
            sampler.update_batch(stream.items)
            return sampler.sample()

        assert_matches_distribution(run, target, trials=300, max_fail_rate=0.6)

    def test_sliding_window_lp_batch_distribution(self):
        stream = zipf_stream(24, 900, alpha=1.4, seed=14)
        window = 300
        target = lp_target(stream.window_frequencies(window), 2.0)

        def run(seed):
            sampler = SlidingWindowLpSampler(p=2.0, window=window, seed=seed)
            sampler.update_batch(stream.items)
            return sampler.sample()

        assert_matches_distribution(run, target, trials=250)

    def test_sliding_window_batch_generation_layout(self):
        one = SlidingWindowGSampler(LpMeasure(1.0), window=100, instances=4, seed=0)
        one.update_batch(np.asarray(zipf_stream(16, 950, alpha=1.0, seed=0).items))
        assert one.position == 950
        assert one.generation_count == 2
        # Oldest kept generation starts at the last-but-one boundary:
        # bucket 8 of the arrival clock, after the first 800 updates.
        assert one._generations[0].bucket * one.window == 800
        assert one._generations[0].pool.position == 150


class TestIngestHelpers:
    def test_ingest_prefers_batch_and_matches_scalar(self):
        stream = zipf_stream(64, 3000, alpha=1.2, seed=21)
        a = SamplerPool(16, seed=2)
        ingest(a, stream, chunk_size=512)
        b = SamplerPool(16, seed=2)
        for item in stream:
            b.update(item)
        assert a.finalize() == b.finalize()

    def test_ingest_scalar_fallback(self):
        stream = zipf_stream(16, 500, alpha=1.0, seed=3)
        naive = SingleGSampler(LpMeasure(1.0), seed=4)
        assert not supports_batch(naive)
        assert ingest(naive, stream) == 500
        assert naive.position == 500

    def test_ingest_generator_input(self):
        pool = SamplerPool(8, seed=5)
        total = ingest(pool, (x for x in [1, 2, 3] * 100), chunk_size=64)
        assert total == 300
        assert pool.position == 300

    def test_batch_ingestor_buffers_and_flushes(self):
        stream = np.asarray(zipf_stream(32, 1000, alpha=1.0, seed=6).items)
        direct = SamplerPool(8, seed=7)
        direct.update_batch(stream)
        buffered = BatchIngestor(SamplerPool(8, seed=7), chunk_size=1000)
        for item in stream.tolist():
            buffered.push(item)
        assert buffered.pending == 0  # exactly one full flush
        assert buffered.total_ingested == 1000
        assert buffered.sampler.finalize() == direct.finalize()

    def test_batch_ingestor_partial_flush(self):
        buffered = BatchIngestor(SamplerPool(4, seed=8), chunk_size=64)
        for item in range(10):
            buffered.push(item)
        assert buffered.pending == 10
        assert buffered.sampler.position == 0
        buffered.flush()
        assert buffered.pending == 0
        assert buffered.sampler.position == 10

    def test_ingest_validates_chunk_size(self):
        with pytest.raises(ValueError):
            ingest(SamplerPool(2, seed=0), np.arange(5), chunk_size=0)

    def test_batch_ingestor_keeps_buffer_on_rejected_flush(self):
        buffered = BatchIngestor(TrulyPerfectF0Sampler(10, seed=0), chunk_size=64)
        for item in [1, 2, 99]:  # 99 is outside the universe [0, 10)
            buffered.push(item)
        with pytest.raises(ValueError):
            buffered.flush()
        assert buffered.pending == 3  # nothing silently dropped
        assert buffered.sampler.position == 0
