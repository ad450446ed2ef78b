"""The query fast path: merged-view cache correctness (cached ≡ fresh,
bitwise), mutation-epoch bookkeeping, invalidation under every mutating
lifecycle hook, batched ``sample_many`` parity and distribution, and the
vectorized windowed-F0 LRU kernel."""

import inspect

import numpy as np
import pytest

from helpers import assert_matches_distribution
from repro.core.f0_sampler import TrulyPerfectF0Sampler
from repro.core.g_sampler import TrulyPerfectGSampler
from repro.core.lp_sampler import TrulyPerfectLpSampler
from repro.core.measures import HuberMeasure
from repro.engine import ShardedSamplerEngine, build_sampler
from repro.engine.state import state_to_bytes
from repro.sliding_window import (
    SlidingWindowF0Sampler,
    SlidingWindowGSampler,
    SlidingWindowLpSampler,
)
from repro.stats import chi_square_gof, g_target, lp_target
from repro.streams import with_arrivals, zipf_stream
from repro.windows import (
    TimeWindowF0Sampler,
    TimeWindowGSampler,
    TimeWindowLpSampler,
    WindowBank,
)

N = 64
STREAM = zipf_stream(N, 3000, alpha=1.2, seed=1)
ITEMS = np.asarray(STREAM.items)
TIMED = with_arrivals(STREAM, process="uniform", rate=40.0, seed=2)
TS = np.asarray(TIMED.timestamps)

#: Mergeable registry kinds the engine can serve — the parametrization
#: base for cached-vs-fresh equality.  (Count-based sliding windows are
#: mergeable=False and cannot sit behind the engine at all.)
ENGINE_CONFIGS = {
    "g": {"kind": "g", "measure": {"name": "huber"}, "instances": 24},
    "lp": {"kind": "lp", "p": 2.0, "n": N, "instances": 24},
    "f0": {"kind": "f0", "n": N},
    "oracle-f0": {"kind": "oracle-f0", "n": N},
    "algorithm5-f0": {"kind": "algorithm5-f0", "n": N},
    "pool": {"kind": "pool", "instances": 8},
    "bounded": {"kind": "bounded", "measure": {"name": "tukey"}, "n": N},
    "tw_g": {"kind": "tw_g", "measure": {"name": "huber"}, "horizon": 20.0,
             "instances": 16},
    "tw_lp": {"kind": "tw_lp", "p": 2.0, "horizon": 20.0, "instances": 16},
    "tw_f0": {"kind": "tw_f0", "n": N, "horizon": 20.0},
    "window_bank": {"kind": "window_bank", "resolutions": [10.0, 40.0],
                    "p": 2.0, "n": N, "instances": 8},
}
TIMED_KINDS = {"tw_g", "tw_lp", "tw_f0", "window_bank"}
#: ``pool`` has no sample() hook — exercised for caching/epochs only.
SAMPLING_KINDS = sorted(set(ENGINE_CONFIGS) - {"pool"})


def _engines(kind, shards=4, seed=3, **kwargs):
    cfg = ENGINE_CONFIGS[kind]
    return (
        ShardedSamplerEngine(cfg, shards=shards, seed=seed, **kwargs),
        ShardedSamplerEngine(cfg, shards=shards, seed=seed, **kwargs),
    )


def _feed(engine, kind, lo=0, hi=None):
    sl = slice(lo, hi)
    if kind in TIMED_KINDS:
        engine.ingest(ITEMS[sl], timestamps=TS[sl])
    else:
        engine.ingest(ITEMS[sl])


def _sample(engine_or_fold, kind, fresh=False):
    kwargs = {"horizon": 10.0} if kind == "window_bank" else {}
    if fresh:
        fold = engine_or_fold.merged_sampler()
        if kind == "window_bank":
            return fold.sample(10.0)
        return fold.sample()
    return engine_or_fold.sample(**kwargs)


class TestCachedEqualsFresh:
    """The acceptance-criteria core: for identical seeds, the cached
    path's first query after any (re)fold is bitwise identical to a
    fresh fold-per-query answer — across every mergeable kind."""

    @pytest.mark.parametrize("kind", SAMPLING_KINDS)
    def test_first_query_bitwise_equal(self, kind):
        cached, fresh = _engines(kind)
        _feed(cached, kind)
        _feed(fresh, kind)
        assert _sample(cached, kind) == _sample(fresh, kind, fresh=True)

    @pytest.mark.parametrize("kind", SAMPLING_KINDS)
    def test_equal_after_each_incremental_ingest(self, kind):
        cached, fresh = _engines(kind)
        for lo, hi in ((0, 1000), (1000, 2000), (2000, 3000)):
            _feed(cached, kind, lo, hi)
            _feed(fresh, kind, lo, hi)
            assert _sample(cached, kind) == _sample(fresh, kind, fresh=True), (
                kind, lo,
            )

    def test_perf_suite_config_k8(self):
        """The perf suite's query config at K=8, on a 20K-item prefix of
        its stream fed in four chunks: after every chunk the cached
        query equals the fold-per-query reference (the query-time
        compaction pass, then a fresh fold)."""
        config = {"kind": "g", "measure": {"name": "huber"}, "instances": 64}
        items = np.asarray(zipf_stream(1 << 14, 20_000, alpha=1.2, seed=1).items)
        cached = ShardedSamplerEngine(config, shards=8, seed=7)
        fresh = ShardedSamplerEngine(config, shards=8, seed=7)
        for chunk in np.array_split(items, 4):
            cached.ingest(chunk)
            fresh.ingest(chunk)
            fresh.compact()
            assert cached.sample() == fresh.merged_sampler().sample()

    def test_engine_has_no_cache_switch(self):
        """One query path: the cache is not optional, and it counts only
        hits and from-scratch misses."""
        assert list(inspect.signature(ShardedSamplerEngine).parameters) == [
            "config", "shards", "partitioner", "seed", "max_watermark_skew",
            "compact_every", "metrics",
        ]
        engine, __ = _engines("g")
        assert engine.cache_info() == {"hits": 0, "misses": 0}

    def test_cached_queries_draw_fresh_coins_deterministically(self):
        """With the cache on, the query sequence is deterministic in the
        seed but consecutive hits advance the fold's private RNG — the
        acceptance pattern varies across draws instead of replaying.
        (The *positional* sample inside each pool instance is frozen
        between ingests — that is the construction, not the cache.)"""
        cfg = {"kind": "lp", "p": 2.0, "n": N, "instances": 4}
        a = ShardedSamplerEngine(cfg, shards=4, seed=9)
        b = ShardedSamplerEngine(cfg, shards=4, seed=9)
        a.ingest(ITEMS)
        b.ingest(ITEMS)
        seq_a = [a.sample() for __ in range(24)]
        seq_b = [b.sample() for __ in range(24)]
        assert seq_a == seq_b  # deterministic across identical engines
        # Fresh coins per query: with 4 low-acceptance instances the
        # FAIL/ITEM pattern must vary across the 24 draws.
        assert len({r.outcome for r in seq_a}) > 1 or len(
            {r.item for r in seq_a}
        ) > 1


class TestMutationEpochs:
    def test_epochs_monotone_under_random_ops(self):
        """Property: whatever mix of lifecycle operations runs, no
        shard's epoch ever decreases."""
        engine = ShardedSamplerEngine(ENGINE_CONFIGS["tw_g"], shards=4, seed=1)
        rng = np.random.default_rng(5)
        prev = engine.mutation_epochs()
        cursor = 0
        for op in rng.integers(0, 4, size=40).tolist():
            if op == 0:
                step = int(rng.integers(1, 200))
                engine.ingest(
                    ITEMS[cursor:cursor + step],
                    timestamps=TS[cursor:cursor + step],
                )
                cursor += step
            elif op == 1:
                engine.sample()
            elif op == 2:
                engine.compact()
            else:
                engine.invalidate_cache()
            now = engine.mutation_epochs()
            assert all(b >= a for a, b in zip(prev, now))
            prev = now

    def test_ingest_bumps_only_touched_shards(self):
        engine = ShardedSamplerEngine(ENGINE_CONFIGS["g"], shards=4, seed=3)
        before = engine.mutation_epochs()
        item = 17
        engine.update(item)
        after = engine.mutation_epochs()
        bumped = [i for i, (a, b) in enumerate(zip(before, after)) if b > a]
        assert bumped == [engine.shard_of(item)]

    def test_cache_hit_and_reuse(self):
        engine, __ = _engines("g")
        engine.ingest(ITEMS)
        engine.sample()
        h0 = engine.cache_info()["hits"]
        engine.sample()
        engine.sample()
        assert engine.cache_info()["hits"] == h0 + 2


class TestInvalidation:
    """Every mutating lifecycle hook must force a re-fold whose first
    query matches the fresh-fold reference."""

    @pytest.mark.parametrize("kind", ["g", "f0", "tw_g", "window_bank"])
    def test_ingest_invalidates(self, kind):
        cached, fresh = _engines(kind)
        _feed(cached, kind, 0, 2000)
        _feed(fresh, kind, 0, 2000)
        _sample(cached, kind)  # warm the cache
        _feed(cached, kind, 2000, None)
        _feed(fresh, kind, 2000, None)
        assert _sample(cached, kind) == _sample(fresh, kind, fresh=True)

    def test_compact_that_drops_state_invalidates(self):
        kind = "tw_g"
        cached, fresh = _engines(kind)
        _feed(cached, kind)
        _feed(fresh, kind)
        _sample(cached, kind)
        later = cached.watermark() + 10_000.0
        before = cached.mutation_epochs()
        assert cached.compact(later) > 0
        assert any(
            b > a for a, b in zip(before, cached.mutation_epochs())
        )
        fresh.compact(later)
        assert cached.sample().is_empty
        assert fresh.merged_sampler().sample().is_empty

    def test_now_less_query_after_watermark_advance_uses_live_clock(self):
        """Regression: a query at now=T advances shard watermarks
        without dropping state (freed=0, epochs unchanged); a following
        query with `now` omitted must still evaluate the window at the
        *live* clock T, not at the cached fold's older snapshot —
        engine-side pinning substitutes the watermark."""
        kind = "tw_g"
        cached, fresh = _engines(kind)
        _feed(cached, kind)
        _feed(fresh, kind)
        later = cached.watermark() + 15.0  # expires part of the window
        r_cached = cached.sample(now=later)
        r_fresh = fresh.sample(now=later)
        assert r_cached == r_fresh
        # `now` omitted: both must answer at the advanced clock.
        follow_cached = cached.sample()
        fresh_fold = fresh.merged_sampler()
        follow_fresh = fresh_fold.sample(now=fresh.watermark())
        assert follow_cached == follow_fresh
        # And the cached fold must have been reusable (no invalidation
        # was needed to get the right answer).
        assert cached.cache_info()["hits"] >= 1

    def test_noop_compact_keeps_cache(self):
        engine, __ = _engines("g")
        engine.ingest(ITEMS)
        engine.sample()
        before = engine.mutation_epochs()
        assert engine.compact() == 0
        assert engine.mutation_epochs() == before
        h0 = engine.cache_info()["hits"]
        engine.sample()
        assert engine.cache_info()["hits"] == h0 + 1

    def test_snapshot_restore_invalidates(self):
        cached, fresh = _engines("g")
        cached.ingest(ITEMS)
        fresh.ingest(ITEMS)
        cached.sample()  # cache now holds the 3000-item fold
        snap = state_to_bytes(cached.snapshot())
        half_cached, half_fresh = _engines("g")
        half_cached.ingest(ITEMS[:500])
        half_cached.sample()
        from repro.engine.state import state_from_bytes

        half_cached.restore(state_from_bytes(snap))
        half_fresh.ingest(ITEMS)
        assert half_cached.sample() == half_fresh.merged_sampler().sample()

    def test_cross_engine_merge_invalidates(self):
        a_cached, a_fresh = _engines("g")
        b = ShardedSamplerEngine(
            ENGINE_CONFIGS["g"],
            shards=4,
            seed=99,
            partitioner=a_cached.partitioner,
        )
        a_cached.ingest(ITEMS[:1500])
        a_fresh.ingest(ITEMS[:1500])
        b.ingest(ITEMS[1500:])
        a_cached.sample()  # warm
        b_twin = ShardedSamplerEngine(
            ENGINE_CONFIGS["g"],
            shards=4,
            seed=99,
            partitioner=a_fresh.partitioner,
        )
        b_twin.ingest(ITEMS[1500:])
        a_cached.merge(b)
        a_fresh.merge(b_twin)
        assert a_cached.sample() == a_fresh.merged_sampler().sample()

    def test_direct_shard_mutation_needs_invalidate_cache(self):
        engine, fresh = _engines("g")
        engine.ingest(ITEMS)
        fresh.ingest(ITEMS)
        engine.sample()
        engine.samplers[0].update_batch(np.array([1, 2, 3]))
        fresh.samplers[0].update_batch(np.array([1, 2, 3]))
        engine.invalidate_cache()
        assert engine.sample() == fresh.merged_sampler().sample()

    def test_partial_rebuild_matches_fresh(self):
        """Scalar updates dirty one shard; each refold must still
        reproduce the from-scratch fold bitwise."""
        cached, fresh = _engines("g", shards=4)
        cached.ingest(ITEMS)
        fresh.ingest(ITEMS)
        assert _sample(cached, "g") == _sample(fresh, "g", fresh=True)
        for item in (5, 9, 13, 2, 63):
            cached.update(item)
            fresh.update(item)
            assert cached.sample() == fresh.merged_sampler().sample(), item
        assert cached.cache_info()["misses"] == 6

    def test_failed_restore_invalidates_cache(self):
        """A restore that fails part-way has already overwritten the
        earlier shards; the next query must refold them, not answer from
        the fold cached before the restore."""
        engine = ShardedSamplerEngine(ENGINE_CONFIGS["g"], shards=4, seed=3)
        engine.ingest(ITEMS[:500])
        engine.sample()  # cache the pre-restore fold
        donor = ShardedSamplerEngine(ENGINE_CONFIGS["g"], shards=4, seed=3)
        donor.ingest(ITEMS)
        snap = donor.snapshot()
        snap["shards"]["3"]["pool"]["instances"] = 0
        before = engine.mutation_epochs()
        with pytest.raises(ValueError):
            engine.restore(snap)
        after = engine.mutation_epochs()
        assert all(b > a for a, b in zip(before[:3], after[:3]))
        assert engine.sample() == engine.merged_sampler().sample()

    def test_failed_restore_shard_invalidates_cache(self):
        engine = ShardedSamplerEngine(ENGINE_CONFIGS["g"], shards=4, seed=3)
        engine.ingest(ITEMS[:500])
        engine.sample()
        state = engine.samplers[1].snapshot()
        state["pool"]["instances"] = 0
        before = engine.mutation_epochs()
        with pytest.raises(ValueError):
            engine.restore_shard(1, state)
        assert engine.mutation_epochs()[1] == before[1] + 1
        assert engine.cache_info()["misses"] == 1
        engine.sample()
        assert engine.cache_info()["misses"] == 2


class TestSampleMany:
    SAMPLER_PAIRS = [
        ("g", lambda: TrulyPerfectGSampler(HuberMeasure(), instances=24, seed=5)),
        ("lp", lambda: TrulyPerfectLpSampler(2.0, N, instances=24, seed=5)),
        ("f0", lambda: TrulyPerfectF0Sampler(N, seed=5)),
        ("sw-g", lambda: SlidingWindowGSampler(
            HuberMeasure(), window=500, instances=24, seed=5)),
        ("sw-lp", lambda: SlidingWindowLpSampler(
            2.0, window=500, instances=24, seed=5)),
        ("sw-f0", lambda: SlidingWindowF0Sampler(N, window=500, seed=5)),
    ]
    TIMED_PAIRS = [
        ("tw-g", lambda: TimeWindowGSampler(
            HuberMeasure(), horizon=20.0, instances=24, seed=5)),
        ("tw-lp", lambda: TimeWindowLpSampler(2.0, horizon=20.0,
                                              instances=24, seed=5)),
        ("tw-f0", lambda: TimeWindowF0Sampler(N, horizon=20.0, seed=5)),
    ]

    @pytest.mark.parametrize("name,mk", SAMPLER_PAIRS)
    def test_bitwise_matches_sequential(self, name, mk):
        a, b = mk(), mk()
        a.update_batch(ITEMS)
        b.update_batch(ITEMS)
        assert a.sample_many(40) == [b.sample() for __ in range(40)]

    @pytest.mark.parametrize("name,mk", TIMED_PAIRS)
    def test_bitwise_matches_sequential_timed(self, name, mk):
        a, b = mk(), mk()
        a.update_batch(ITEMS, TS)
        b.update_batch(ITEMS, TS)
        assert a.sample_many(40) == [b.sample() for __ in range(40)]

    def test_engine_sample_many_matches_sequential(self):
        a, b = _engines("g", shards=8, seed=7)
        a.ingest(ITEMS)
        b.ingest(ITEMS)
        assert a.sample_many(30) == [b.sample() for __ in range(30)]

    def test_bank_sample_many_matches_sequential(self):
        mk = lambda: WindowBank((10.0, 40.0), p=2.0, n=N, instances=16, seed=4)
        a, b = mk(), mk()
        a.update_batch(ITEMS, TS)
        b.update_batch(ITEMS, TS)
        assert a.sample_many(20, 10.0) == [b.sample(10.0) for __ in range(20)]
        assert a.sample_distinct_many(20, 40.0) == [
            b.sample_distinct(40.0) for __ in range(20)
        ]

    def test_zero_and_negative_draws(self):
        engine, __ = _engines("g")
        engine.ingest(ITEMS[:100])
        assert engine.sample_many(0) == []
        with pytest.raises(ValueError, match="non-negative"):
            engine.sample_many(-1)
        sampler = build_sampler({**ENGINE_CONFIGS["g"], "seed": 1})
        with pytest.raises(ValueError, match="non-negative"):
            sampler.sample_many(-1)

    def test_empty_stream_gives_empty_results(self):
        sampler = build_sampler({**ENGINE_CONFIGS["g"], "seed": 1})
        results = sampler.sample_many(5)
        assert len(results) == 5 and all(r.is_empty for r in results)

    def test_sample_many_distribution_exact(self):
        """Across independent engines, draws taken *through
        sample_many* must follow the exact L1 target — the
        conditional-distribution guarantee survives batching.  (One
        engine's repeated queries share its frozen positional samples —
        independence comes from independent seeds, as everywhere.)"""
        stream = zipf_stream(16, 1200, alpha=1.2, seed=21)
        target = lp_target(stream.frequencies(), 1.0)
        items = np.asarray(stream.items)
        counts = {}
        successes = 0
        for seed in range(600):
            engine = ShardedSamplerEngine(
                {"kind": "g", "measure": {"name": "lp", "p": 1.0},
                 "instances": 24},
                shards=4,
                seed=seed,
            )
            engine.ingest(items)
            # Draw 3 and keep the last: exercises coin rows past the
            # first, i.e. the genuinely batched part of the block.
            res = engine.sample_many(3)[-1]
            if res.is_item:
                counts[res.item] = counts.get(res.item, 0) + 1
                successes += 1
        assert successes > 500
        __, pvalue = chi_square_gof(
            np.array([counts.get(i, 0) for i in range(16)]), target
        )
        assert pvalue > 1e-3, (pvalue, counts)

    def test_sample_many_distribution_via_harness(self):
        """Per-seed single draws through sample_many(1) must match the
        same target the scalar harness checks."""
        stream = zipf_stream(16, 800, alpha=1.2, seed=22)
        target = lp_target(stream.frequencies(), 1.0)
        items = np.asarray(stream.items)

        def run(seed):
            sampler = TrulyPerfectGSampler(
                HuberMeasure(), instances=24, seed=seed
            )
            sampler.update_batch(items)
            return sampler.sample_many(1)[0]

        assert_matches_distribution(
            run,
            g_target(stream.frequencies(), HuberMeasure()),
            trials=900,
            max_fail_rate=0.5,
        )


class TestLruKernel:
    """The vectorized last-occurrence/eviction-horizon kernel must be
    bitwise indistinguishable from the scalar LRU replay."""

    @pytest.mark.parametrize("n,window,chunk", [
        (16, 10, 7), (16, 10, 173), (64, 500, 173), (9, 4, 1), (25, 30, 64),
    ])
    def test_sw_f0_batch_matches_scalar(self, n, window, chunk):
        arr = np.asarray(zipf_stream(n, 1500, alpha=1.1, seed=7).items)
        a = SlidingWindowF0Sampler(n, window=window, seed=9)
        b = SlidingWindowF0Sampler(n, window=window, seed=9)
        for item in arr.tolist():
            a.update(item)
        for start in range(0, arr.size, chunk):
            b.update_batch(arr[start:start + chunk])
        assert state_to_bytes(a.snapshot()) == state_to_bytes(b.snapshot())
        assert list(a._recent.items()) == list(b._recent.items())
        assert a.sample() == b.sample()

    @pytest.mark.parametrize("n,chunk", [(16, 149), (64, 149), (16, 1)])
    def test_tw_f0_batch_matches_scalar(self, n, chunk):
        arr = np.asarray(zipf_stream(n, 1500, alpha=1.1, seed=8).items)
        ts = np.sort(np.random.default_rng(5).uniform(0, 50, size=1500))
        ts[100:140] = ts[100]  # timestamp ties must not break recency order
        ts = np.sort(ts)
        a = TimeWindowF0Sampler(n, horizon=5.0, seed=9)
        b = TimeWindowF0Sampler(n, horizon=5.0, seed=9)
        for item, when in zip(arr.tolist(), ts.tolist()):
            a.update(item, when)
        for start in range(0, arr.size, chunk):
            b.update_batch(arr[start:start + chunk], ts[start:start + chunk])
        assert state_to_bytes(a.snapshot()) == state_to_bytes(b.snapshot())
        assert a.sample() == b.sample()

    def test_bounds_rejection_leaves_state_untouched(self):
        sampler = SlidingWindowF0Sampler(16, window=10, seed=0)
        sampler.update_batch(np.arange(8))
        snap = state_to_bytes(sampler.snapshot())
        with pytest.raises(ValueError, match="outside universe"):
            sampler.update_batch(np.array([3, 99]))
        with pytest.raises(ValueError, match="outside universe"):
            sampler.update_batch(np.array([-1, 3]))
        assert state_to_bytes(sampler.snapshot()) == snap


class TestExtendDelegation:
    def test_extend_bitwise_equals_batch(self):
        a = TrulyPerfectGSampler(HuberMeasure(), instances=24, seed=3)
        b = TrulyPerfectGSampler(HuberMeasure(), instances=24, seed=3)
        a.extend(ITEMS.tolist())
        b.update_batch(ITEMS)
        assert state_to_bytes(a.snapshot()) == state_to_bytes(b.snapshot())

    def test_extend_accepts_generator(self):
        sampler = TrulyPerfectF0Sampler(N, seed=3)
        sampler.extend(int(x) for x in ITEMS[:200])
        assert sampler.position == 200

    def test_timed_extend_bitwise_equals_batch(self):
        a = TimeWindowGSampler(HuberMeasure(), horizon=20.0, instances=8, seed=2)
        b = TimeWindowGSampler(HuberMeasure(), horizon=20.0, instances=8, seed=2)
        a.extend(zip(ITEMS[:500].tolist(), TS[:500].tolist()))
        b.update_batch(ITEMS[:500], TS[:500])
        assert state_to_bytes(a.snapshot()) == state_to_bytes(b.snapshot())

    def test_timed_extend_takes_timestamped_stream_fast_path(self):
        """A TimestampedStream short-circuits to its arrays — no
        per-pair Python loop — with identical resulting state."""
        a = TimeWindowGSampler(HuberMeasure(), horizon=20.0, instances=8, seed=2)
        b = TimeWindowGSampler(HuberMeasure(), horizon=20.0, instances=8, seed=2)
        a.extend(TIMED)
        b.update_batch(ITEMS, TS)
        assert state_to_bytes(a.snapshot()) == state_to_bytes(b.snapshot())

    def test_bank_extend_bitwise_equals_batch(self):
        mk = lambda: WindowBank((10.0, 40.0), p=2.0, n=N, instances=8, seed=4)
        a, b = mk(), mk()
        a.extend(zip(ITEMS[:500].tolist(), TS[:500].tolist()))
        b.update_batch(ITEMS[:500], TS[:500])
        assert state_to_bytes(a.snapshot()) == state_to_bytes(b.snapshot())
