"""repro.serving — concurrency, determinism, and admission tests.

The three contracts the serving layer must keep:

* **ingest determinism** — routed, worker-parallel ingest lands the
  exact engine state sequential ``engine.ingest`` would (bitwise, any
  worker count), and serialized serving mode replays a whole request
  sequence bitwise-identically to direct engine calls;
* **query-plane soundness** — lock-free readers never see torn folds,
  per-reader RNG streams are independent and reproducible, the locked
  mode preserves the single-stream coin sequence;
* **admission honesty** — backpressure and rate caps reject atomically
  (nothing half-enqueued), and flush/close drain exactly what was
  accepted.
"""

import asyncio
import threading
import time

import numpy as np
import pytest

from repro.core.types import SampleOutcome
from repro.engine import ShardedSamplerEngine, state_to_bytes
from repro.lifecycle import (
    derive_reader_rng,
    has_query_rng_hook,
    rebind_query_rngs,
    spawn_query_view,
)
from repro.serving import (
    AsyncSamplerService,
    Backpressure,
    FlushTimeout,
    RateLimited,
    SamplerService,
    ServiceClosed,
    ShardQueues,
    ShardRouter,
    TenantRateLimiter,
    TokenBucket,
)
from repro.serving.cli import main as serve_main
from repro.serving.router import RoutedBatch
from repro.streams.generators import zipf_stream
from repro.streams.timestamped import uniform_arrivals
from repro.windows import WindowBank

G_CONFIG = {"kind": "g", "measure": {"name": "huber"}, "instances": 24}
TW_CONFIG = {"kind": "tw_g", "measure": {"name": "huber"}, "horizon": 8.0,
             "instances": 16}


def make_items(m: int, seed: int = 3, n: int = 1 << 10) -> np.ndarray:
    return np.asarray(zipf_stream(n, m, alpha=1.2, seed=seed).items)


def drain_close(svc: SamplerService) -> None:
    svc.close(drain=True, timeout=10.0)


# ---------------------------------------------------------------------------
# Routing
# ---------------------------------------------------------------------------
class TestShardRouter:
    def test_untimed_routing_matches_engine_split(self):
        engine = ShardedSamplerEngine(G_CONFIG, shards=8, seed=5)
        router = ShardRouter(engine.partitioner)
        items = make_items(5_000)
        parts = {p.shard: p.items for p in router.route(items)}
        for shard, sub in enumerate(engine.partitioner.split(items)):
            if sub.size:
                np.testing.assert_array_equal(parts[shard], sub)
            else:
                assert shard not in parts

    def test_timed_routing_keeps_pairs_aligned(self):
        engine = ShardedSamplerEngine(TW_CONFIG, shards=4, seed=5)
        router = ShardRouter(engine.partitioner)
        items = make_items(2_000)
        ts = uniform_arrivals(items.size, 500.0)
        parts = router.route(items, ts)
        assert sum(len(p) for p in parts) == items.size
        for part in parts:
            # Every (item, timestamp) pair survives routing intact.
            sel = engine.partitioner.assign(items) == part.shard
            np.testing.assert_array_equal(part.items, items[sel])
            np.testing.assert_array_equal(part.timestamps, ts[sel])

    def test_timestamped_stream_autodetected(self):
        engine = ShardedSamplerEngine(TW_CONFIG, shards=4, seed=5)
        router = ShardRouter(engine.partitioner)

        class Timed:
            items = make_items(100)
            timestamps = uniform_arrivals(100, 50.0)

        parts = router.route(Timed())
        assert all(p.timestamps is not None for p in parts)

    def test_mismatched_timestamps_rejected(self):
        router = ShardRouter(ShardedSamplerEngine(G_CONFIG, shards=2).partitioner)
        with pytest.raises(ValueError, match="matching"):
            router.route(np.arange(10), np.zeros(9))


# ---------------------------------------------------------------------------
# Admission control
# ---------------------------------------------------------------------------
class TestTokenBucket:
    def test_burst_then_refill(self):
        bucket = TokenBucket(rate=100.0, burst=50.0)
        assert bucket.try_consume(50, now=0.0) == 0.0
        wait = bucket.try_consume(10, now=0.0)
        assert wait == pytest.approx(0.1)
        assert bucket.try_consume(10, now=0.2) == 0.0  # refilled 20

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=0, burst=5)

    def test_limiter_default_and_unlimited(self):
        clock = {"t": 0.0}
        limiter = TenantRateLimiter(
            {"paid": (1000.0, 1000.0)}, default=(10.0, 10.0),
            clock=lambda: clock["t"],
        )
        limiter.admit("paid", 500)
        limiter.admit("free", 10)
        with pytest.raises(RateLimited) as exc:
            limiter.admit("free", 10)
        assert exc.value.retry_after == pytest.approx(1.0)
        assert limiter.shed_count == 1
        # No default → unknown tenants are unlimited.
        open_limiter = TenantRateLimiter({"paid": (1.0, 1.0)})
        open_limiter.admit("anon", 10**6)

    def test_bucket_table_is_bounded(self):
        clock = {"t": 0.0}
        limiter = TenantRateLimiter(
            {"pinned": (1000.0, 1000.0)}, default=(100.0, 100.0),
            clock=lambda: clock["t"], max_tenants=8,
        )
        # An adversarial id stream must not grow the table unboundedly.
        for i in range(1_000):
            clock["t"] += 0.001
            limiter.admit(f"uuid-{i}", 1)
        assert len(limiter._buckets) <= 8 + 1  # cap + the pinned tenant
        # The pinned tenant's bucket survives the churn.
        limiter.admit("pinned", 500)
        assert "pinned" in limiter._buckets
        # Full (idle-refilled) buckets are evicted before drained ones:
        # give the survivors time to refill to burst, drain one, churn.
        clock["t"] += 100.0
        limiter.admit("hot", 90)  # freshly drained, everyone else full
        clock["t"] += 0.001
        limiter.admit("newcomer", 1)  # forces exactly one eviction
        assert "hot" in limiter._buckets


# ---------------------------------------------------------------------------
# Bounded queues
# ---------------------------------------------------------------------------
def _parts(shard_sizes: dict[int, int]) -> list[RoutedBatch]:
    return [
        RoutedBatch(shard, np.arange(n, dtype=np.int64), None)
        for shard, n in shard_sizes.items()
    ]


class TestShardQueues:
    def test_shed_is_atomic(self):
        queues = ShardQueues(shards=2, capacity=100)
        queues.put(_parts({0: 90}), block=False)
        with pytest.raises(Backpressure) as exc:
            queues.put(_parts({0: 20, 1: 50}), block=False)
        assert exc.value.shard == 0
        # Shard 1 must not have received its half of the rejected batch.
        assert queues.depths() == [90, 0]
        assert queues.shed_count == 1

    def test_block_times_out(self):
        queues = ShardQueues(shards=1, capacity=10)
        queues.put(_parts({0: 10}), block=True)
        t0 = time.monotonic()
        with pytest.raises(Backpressure):
            queues.put(_parts({0: 5}), block=True, timeout=0.1)
        assert time.monotonic() - t0 >= 0.09

    def test_block_wakes_on_capacity(self):
        queues = ShardQueues(shards=1, capacity=10)
        queues.put(_parts({0: 10}), block=True)
        released = []

        def consumer():
            time.sleep(0.05)
            got = queues.take([0], 0, max_items=100)
            assert got is not None
            queues.mark_applied(0, sum(len(b) for b in got[1]))
            released.append(True)

        thread = threading.Thread(target=consumer)
        thread.start()
        assert queues.put(_parts({0: 5}), block=True, timeout=5.0) == 5
        thread.join()
        assert released

    def test_flush_timeout_reports_residue(self):
        queues = ShardQueues(shards=1, capacity=100)
        queues.put(_parts({0: 7}), block=False)
        with pytest.raises(FlushTimeout) as exc:
            queues.wait_empty(timeout=0.05)
        assert exc.value.pending == 7


# ---------------------------------------------------------------------------
# Engine serving surface (PR 5 hygiene)
# ---------------------------------------------------------------------------
class TestEngineServingSurface:
    def test_ingest_shard_parity_with_ingest(self):
        items = make_items(4_000)
        direct = ShardedSamplerEngine(G_CONFIG, shards=4, seed=9)
        routed = ShardedSamplerEngine(G_CONFIG, shards=4, seed=9)
        direct.ingest(items)
        for shard, sub in enumerate(routed.partitioner.split(items)):
            if sub.size:
                routed.ingest_shard(shard, sub)
        assert state_to_bytes(direct.snapshot()) == state_to_bytes(routed.snapshot())
        assert direct.sample() == routed.sample()

    def test_ingest_shard_timed_and_bounds(self):
        engine = ShardedSamplerEngine(TW_CONFIG, shards=2, seed=0)
        items = make_items(500)
        ts = uniform_arrivals(items.size, 100.0)
        sel = engine.partitioner.assign(items) == 0
        n = engine.ingest_shard(0, items[sel], timestamps=ts[sel])
        assert n == int(sel.sum())
        assert engine.watermarks()[0] is not None
        with pytest.raises(ValueError, match="out of range"):
            engine.ingest_shard(7, items[:1])

    def test_ingest_shard_bumps_only_that_epoch(self):
        engine = ShardedSamplerEngine(G_CONFIG, shards=4, seed=9)
        before = engine.mutation_epochs()
        engine.ingest_shard(2, engine.partitioner.split(make_items(800))[2])
        after = engine.mutation_epochs()
        assert after[2] == before[2] + 1
        assert [e for i, e in enumerate(after) if i != 2] == [
            e for i, e in enumerate(before) if i != 2
        ]

    def test_acquire_fold_reuses_cache(self):
        engine = ShardedSamplerEngine(G_CONFIG, shards=4, seed=1)
        engine.ingest(make_items(2_000))
        handle = engine.acquire_fold()
        assert list(handle.epochs) == engine.mutation_epochs()
        again = engine.acquire_fold()
        assert again.fold is handle.fold  # full epoch hit: same object
        assert engine.cache_info()["hits"] >= 1

    def test_compact_shard_epoch_discipline(self):
        engine = ShardedSamplerEngine(TW_CONFIG, shards=2, seed=0)
        items = make_items(400)
        ts = uniform_arrivals(items.size, 200.0)
        engine.ingest(items, timestamps=ts)
        before = engine.mutation_epochs()
        # Advancing far past the horizon drops expired generations.
        freed = sum(
            engine.compact_shard(s, now=float(ts[-1]) + 100.0)
            for s in range(engine.shards)
        )
        assert freed > 0
        assert engine.mutation_epochs() != before
        # A second pass finds nothing; epochs must stay put.
        marks = engine.mutation_epochs()
        assert (
            sum(engine.compact_shard(s) for s in range(engine.shards)) == 0
        )
        assert engine.mutation_epochs() == marks


# ---------------------------------------------------------------------------
# Query-view RNG spawning (lifecycle)
# ---------------------------------------------------------------------------
class TestQueryViews:
    def test_derive_reader_rng_reproducible_and_distinct(self):
        a = derive_reader_rng(7, 0, 0).random(4)
        b = derive_reader_rng(7, 0, 0).random(4)
        c = derive_reader_rng(7, 0, 1).random(4)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_view_leaves_original_stream_untouched(self):
        engine = ShardedSamplerEngine(G_CONFIG, shards=4, seed=2)
        engine.ingest(make_items(3_000))
        fold = engine.acquire_fold().fold
        reference = ShardedSamplerEngine(G_CONFIG, shards=4, seed=2)
        reference.ingest(make_items(3_000))
        views = [
            spawn_query_view(fold, derive_reader_rng(2, 0, r)) for r in range(3)
        ]
        for view in views:
            res = view.sample()
            assert res.outcome in (SampleOutcome.ITEM, SampleOutcome.FAIL)
        # Spawning + querying views never advanced the fold's stream.
        assert engine.sample() == reference.sample()

    def test_rebind_replaces_generators(self):
        engine = ShardedSamplerEngine(G_CONFIG, shards=2, seed=2)
        engine.ingest(make_items(500))
        import copy

        view = copy.deepcopy(engine.acquire_fold().fold)
        rng = np.random.default_rng(0)
        assert rebind_query_rngs(view, rng) >= 1
        assert view._rng is rng

    def test_rebind_reaches_nested_containers(self):
        """Generators two container levels deep (list-of-tuples holding
        sub-objects, dict-of-lists, direct list elements) must all
        rebind — a family served through the generic fallback may nest
        its pools arbitrarily."""

        class Pool:
            def __init__(self):
                self._rng = np.random.default_rng(1)

        Pool.__module__ = "repro.fake"

        class Nested:
            def __init__(self):
                self._pairs = [(0, Pool()), (1, Pool())]
                self._table = {60.0: [Pool()], 300.0: [Pool(), Pool()]}
                self._loose = [np.random.default_rng(2)]

        Nested.__module__ = "repro.fake"
        rng = np.random.default_rng(0)
        nested = Nested()
        assert rebind_query_rngs(nested, rng) == 6
        assert all(pool._rng is rng for __, pool in nested._pairs)
        assert all(
            pool._rng is rng
            for pools in nested._table.values()
            for pool in pools
        )
        assert nested._loose[0] is rng

    def test_window_bank_hook_member_streams(self):
        bank = WindowBank((4.0, 16.0), p=2.0, n=256, instances=8, seed=3)
        items = np.asarray(zipf_stream(256, 2_000, alpha=1.2, seed=1).items)
        ts = uniform_arrivals(items.size, 250.0)
        bank.update_batch(items, ts)
        assert has_query_rng_hook(bank)
        view = bank.spawn_query_rng(np.random.default_rng(11))
        assert view is not bank
        streams = {id(member._rng) for member in view._members()}
        assert len(streams) == len(list(view._members()))  # distinct per member
        res = view.sample(4.0)
        assert isinstance(res.outcome, SampleOutcome)
        assert view.sample_distinct(16.0).outcome in (SampleOutcome.ITEM, SampleOutcome.EMPTY)
        # The live bank's streams were not consumed by the spawn.
        twin = WindowBank((4.0, 16.0), p=2.0, n=256, instances=8, seed=3)
        twin.update_batch(items, ts)
        assert bank.sample(4.0) == twin.sample(4.0)


# ---------------------------------------------------------------------------
# Serving determinism
# ---------------------------------------------------------------------------
class TestServingDeterminism:
    def test_serialized_mode_bitwise_equals_direct_engine(self):
        items = make_items(12_000)
        engine = ShardedSamplerEngine(G_CONFIG, shards=8, seed=7)
        with SamplerService(
            G_CONFIG, shards=8, seed=7, serialized=True, compact_interval=None
        ) as svc:
            for lo in range(0, items.size, 3_000):
                batch = items[lo:lo + 3_000]
                svc.submit(batch)
                engine.ingest(batch)
                assert svc.sample() == engine.sample()
                assert svc.sample_many(5) == engine.sample_many(5)
            assert state_to_bytes(svc.engine.snapshot()) == state_to_bytes(
                engine.snapshot()
            )

    def test_serialized_mode_timed_kind(self):
        items = make_items(4_000)
        ts = uniform_arrivals(items.size, 1_000.0)
        engine = ShardedSamplerEngine(TW_CONFIG, shards=4, seed=7)
        with SamplerService(
            TW_CONFIG, shards=4, seed=7, serialized=True, compact_interval=None
        ) as svc:
            for lo in range(0, items.size, 1_000):
                svc.submit(items[lo:lo + 1_000], ts[lo:lo + 1_000])
                engine.ingest(items[lo:lo + 1_000], timestamps=ts[lo:lo + 1_000])
                assert svc.sample() == engine.sample()

    def test_serialized_mode_f0_kind(self):
        """F0 queries (shared-random-subset merges) through the service:
        serialized mode must match direct engine calls bitwise."""
        config = {"kind": "f0", "n": 1 << 10}
        items = make_items(6_000)
        engine = ShardedSamplerEngine(config, shards=4, seed=7)
        with SamplerService(
            config, shards=4, seed=7, serialized=True, compact_interval=None
        ) as svc:
            for lo in range(0, items.size, 2_000):
                svc.submit(items[lo:lo + 2_000])
                engine.ingest(items[lo:lo + 2_000])
                assert svc.sample() == engine.sample()

    def test_per_reader_f0_distinct_sampling(self):
        """Lock-free F0 serving: every sampled item was actually
        submitted (a torn or mis-merged fold would surface here)."""
        config = {"kind": "tw_f0", "n": 1 << 10, "horizon": 60.0}
        items = make_items(8_000)
        ts = uniform_arrivals(items.size, 4_000.0)
        with SamplerService(
            config, shards=4, seed=2, ingest_workers=2, refresh_interval=0.01
        ) as svc:
            svc.submit(items, ts)
            svc.flush(timeout=30.0)
            svc.refresh()
            seen = set(items.tolist())
            drawn = [svc.sample() for __ in range(40)]
            hits = [r for r in drawn if r.is_item]
            assert hits  # an active 60s window over 2s of data: items exist
            assert all(r.item in seen for r in hits)

    @pytest.mark.parametrize("workers", [1, 3, 8])
    def test_worker_count_never_changes_final_state(self, workers):
        items = make_items(10_000)
        sequential = ShardedSamplerEngine(G_CONFIG, shards=8, seed=4)
        svc = SamplerService(
            G_CONFIG, shards=8, seed=4, ingest_workers=workers,
            refresh_interval=0.01,
        )
        try:
            for lo in range(0, items.size, 1_250):
                svc.submit(items[lo:lo + 1_250])
                sequential.ingest(items[lo:lo + 1_250])
            svc.flush(timeout=30.0)
            assert state_to_bytes(svc.engine.snapshot()) == state_to_bytes(
                sequential.snapshot()
            )
        finally:
            drain_close(svc)

    def test_single_reader_sequence_reproducible(self):
        items = make_items(6_000)

        def run() -> list:
            with SamplerService(
                G_CONFIG, shards=4, seed=21, ingest_workers=2,
                refresh_interval=1e9, compact_interval=None,
            ) as svc:
                svc.submit(items)
                svc.flush(timeout=30.0)
                svc.refresh()
                return [svc.sample() for __ in range(20)]

        assert run() == run()


# ---------------------------------------------------------------------------
# Concurrent serving behavior
# ---------------------------------------------------------------------------
class TestConcurrentServing:
    def test_lock_free_readers_with_live_writers(self):
        items = make_items(40_000)
        errors: list[Exception] = []
        results: list = []
        svc = SamplerService(
            G_CONFIG, shards=8, seed=0, ingest_workers=4,
            refresh_interval=0.005, compact_interval=0.05,
        )

        def reader():
            try:
                got = []
                for __ in range(60):
                    got.append(svc.sample())
                    time.sleep(0.001)
                results.extend(got)
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=reader) for _ in range(6)]
        try:
            for thread in threads:
                thread.start()
            for lo in range(0, items.size, 2_000):
                svc.submit(items[lo:lo + 2_000])
                time.sleep(0.002)
            for thread in threads:
                thread.join()
            assert not errors
            assert len(results) == 6 * 60
            for res in results:
                assert isinstance(res.outcome, SampleOutcome)
            stats = svc.stats()
            assert stats["query"]["served"] >= 360
            assert stats["query"]["readers"] >= 6
            assert stats["query"]["refreshes"] >= 2
        finally:
            drain_close(svc)

    def test_invalidate_cache_under_concurrent_readers(self):
        """PR 5 hygiene regression: hammering invalidate_cache() (the
        documented escape hatch after direct shard mutation) while
        lock-free readers serve must neither crash a reader nor wedge
        the refresh loop — every post-invalidation refresh re-folds."""
        items = make_items(20_000)
        errors: list[Exception] = []
        svc = SamplerService(
            G_CONFIG, shards=8, seed=0, ingest_workers=2,
            refresh_interval=0.002, compact_interval=None,
        )
        stop = threading.Event()

        def reader():
            try:
                while not stop.is_set():
                    assert isinstance(svc.sample().outcome, SampleOutcome)
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=reader) for _ in range(4)]
        try:
            svc.submit(items)
            svc.flush(timeout=30.0)
            for thread in threads:
                thread.start()
            folds_before = svc.engine.cache_info()
            for __ in range(25):
                svc.engine.invalidate_cache()
                svc.refresh()
                time.sleep(0.002)
            stop.set()
            for thread in threads:
                thread.join()
            assert not errors
            info = svc.engine.cache_info()
            rebuilt = info["misses"] - folds_before["misses"]
            assert rebuilt >= 25  # every invalidation forced a real re-fold
        finally:
            drain_close(svc)

    def test_stress_readers_writers_compaction_ticker(self):
        """Readers + writers + compaction ticker on a time-windowed kind:
        no torn folds (every result well-formed), watermarks never run
        backwards, and nothing deadlocks inside the run budget."""
        m = 30_000
        items = make_items(m)
        ts = uniform_arrivals(m, 2_000.0)  # 15s of stream time, 8s window
        errors: list[Exception] = []
        reader_marks: list[list[float]] = [[] for _ in range(4)]
        svc = SamplerService(
            TW_CONFIG, shards=4, seed=1, ingest_workers=3,
            refresh_interval=0.004, compact_interval=0.02,
        )
        stop = threading.Event()

        def reader(idx: int):
            try:
                while not stop.is_set():
                    res = svc.sample()
                    assert isinstance(res.outcome, SampleOutcome)
                    if res.is_item:
                        assert 0 <= res.item < 1 << 10
                    mark = svc.stats()["query"]["fold_watermark"]
                    if mark is not None:
                        reader_marks[idx].append(mark)
                    time.sleep(0.001)
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=reader, args=(r,)) for r in range(4)]
        try:
            for thread in threads:
                thread.start()
            for lo in range(0, m, 1_500):
                svc.submit(items[lo:lo + 1_500], ts[lo:lo + 1_500])
                time.sleep(0.003)
            svc.flush(timeout=30.0)
            stop.set()
            for thread in threads:
                thread.join()
            assert not errors
            stats = svc.stats()
            assert stats["compaction"]["passes"] >= 1
            assert stats["ingest"]["applied_items"] == m
            assert stats["ingest"]["worker_errors"] == 0
        finally:
            drain_close(svc)
        # Watermark-violation check: publications only advance, so each
        # reader's *own* sequence of observed fold watermarks must be
        # non-decreasing (readers interleave, so only the per-reader
        # order is meaningful).
        for marks in reader_marks:
            assert marks == sorted(marks)
        # Readers may stop before observing the very last publication,
        # but no observation may ever exceed the true ingest frontier.
        observed = max(max(m) for m in reader_marks if m)
        assert observed <= float(ts[-1]) + 1e-9
        assert svc.engine.watermark() == pytest.approx(float(ts[-1]))


# ---------------------------------------------------------------------------
# Backpressure + rate caps end to end
# ---------------------------------------------------------------------------
class TestServiceAdmission:
    def test_shed_policy_surfaces_backpressure(self):
        items = make_items(50_000)
        svc = SamplerService(
            G_CONFIG, shards=2, seed=0, ingest_workers=1,
            queue_capacity=2_000, backpressure="shed",
            refresh_interval=1e9, compact_interval=None,
        )
        try:
            # Wedge both lanes so queued batches pile up to the
            # high-water mark instead of draining between submits.
            shed = 0
            with svc._shard_locks[0], svc._shard_locks[1]:
                for lo in range(0, items.size, 1_500):
                    try:
                        svc.submit(items[lo:lo + 1_500])
                    except Backpressure as exc:
                        shed += 1
                        assert exc.shard is not None
            assert shed >= 1
            svc.flush(timeout=30.0)
            stats = svc.stats()
            # Atomic rejection: accepted == applied exactly.
            assert stats["ingest"]["applied_items"] == stats["ingest"][
                "submitted_items"
            ]
            assert stats["ingest"]["backpressure_shed"] == shed
        finally:
            drain_close(svc)

    def test_tenant_rate_caps(self):
        svc = SamplerService(
            G_CONFIG, shards=2, seed=0, ingest_workers=1,
            default_rate=(500.0, 1_000.0),
            refresh_interval=1e9, compact_interval=None,
        )
        try:
            svc.submit(make_items(1_000), tenant="bursty")
            with pytest.raises(RateLimited) as exc:
                svc.submit(make_items(800), tenant="bursty")
            assert exc.value.retry_after > 0
            # An unrelated tenant has its own bucket.
            svc.submit(make_items(900), tenant="calm")
            assert svc.stats()["ingest"]["rate_limited"] == 1
        finally:
            drain_close(svc)

    def test_failed_batch_never_wedges_flush(self):
        """A batch the sampler rejects (here: untimed items into a
        time-windowed kind) must release its queue occupancy, reach the
        worker-error channel, and leave flush() unwedged."""
        svc = SamplerService(
            TW_CONFIG, shards=2, seed=0, ingest_workers=1,
            refresh_interval=1e9, compact_interval=None,
        )
        items = make_items(1_000)
        ts = uniform_arrivals(items.size, 500.0)
        svc.submit(items, ts)
        svc.submit(items[:200])  # no timestamps: the tw sampler rejects it
        svc._queues.wait_empty(timeout=10.0)  # drains despite the failure
        with pytest.raises(ServiceClosed, match="ingest worker"):
            svc.flush()
        svc.close(drain=False)

    def test_refresh_failure_latches_onto_queries(self):
        """When the ticker's fold refresh fails (watermark skew), the
        lock-free query path must surface that error instead of serving
        the stale pre-skew fold forever — and recover once skew clears."""
        from repro.lifecycle import WatermarkSkewError

        svc = SamplerService(
            TW_CONFIG, shards=2, seed=0, ingest_workers=1,
            max_watermark_skew=5.0,
            refresh_interval=1e9, compact_interval=None,
        )
        try:
            items = make_items(2_000)
            ts = uniform_arrivals(items.size, 1_000.0)
            svc.submit(items, ts)
            svc.flush(timeout=10.0)
            svc.refresh()
            assert isinstance(svc.sample().outcome, SampleOutcome)
            # Skew one shard's clock far beyond the tolerance, behind
            # the engine's back, then force the refresh the ticker
            # would have run.
            svc.engine.samplers[0].compact(float(ts[-1]) + 100.0)
            svc.engine.invalidate_cache()
            with pytest.raises(WatermarkSkewError):
                svc.refresh()
            with pytest.raises(WatermarkSkewError):
                svc.sample()  # latched: no silent stale serving
            # Clearing the skew (advance the other shard too) recovers.
            svc.engine.samplers[1].compact(float(ts[-1]) + 100.0)
            svc.engine.invalidate_cache()
            svc.refresh()
            assert isinstance(svc.sample().outcome, SampleOutcome)
        finally:
            drain_close(svc)

    def test_oversized_batch_fails_loudly(self):
        """A subchunk that can never fit its lane must raise, not park
        the submitter forever (block) or demand hopeless retries (shed)."""
        svc = SamplerService(
            G_CONFIG, shards=1, seed=0, ingest_workers=1, queue_capacity=100,
            refresh_interval=1e9, compact_interval=None,
        )
        try:
            with pytest.raises(ValueError, match="exceeds the per-shard"):
                svc.submit(make_items(500))
        finally:
            drain_close(svc)

    def test_backpressure_refunds_rate_tokens(self):
        """Admission + queueing are jointly atomic: a shed submit must
        not burn the tenant's rate budget."""
        svc = SamplerService(
            G_CONFIG, shards=1, seed=0, ingest_workers=1,
            queue_capacity=1_000, backpressure="shed",
            default_rate=(10.0, 2_000.0),  # budget for two batches, barely
            refresh_interval=1e9, compact_interval=None,
        )
        try:
            # Wedge the lane so the second submit sheds on backpressure
            # (it passes admission: 1800 ≤ the 2000-token burst).
            with svc._shard_locks[0]:
                svc.submit(make_items(900), tenant="t")
                with pytest.raises(Backpressure):
                    svc.submit(make_items(900), tenant="t")
            svc.flush(timeout=30.0)
            # The shed batch's 900 tokens came back: a third 900-item
            # submit still clears admission (200 + 900 refunded ≥ 900;
            # without the refund it would be RateLimited).
            assert svc.submit(make_items(900), tenant="t") == 900
        finally:
            drain_close(svc)

    def test_over_burst_batch_permanently_inadmissible(self):
        svc = SamplerService(
            G_CONFIG, shards=2, seed=0, ingest_workers=1,
            default_rate=(100.0, 50.0),
            refresh_interval=1e9, compact_interval=None,
        )
        try:
            with pytest.raises(RateLimited, match="burst cap") as exc:
                svc.submit(make_items(200), tenant="t")
            assert exc.value.retry_after == float("inf")
        finally:
            drain_close(svc)

    def test_submit_after_close_raises(self):
        svc = SamplerService(G_CONFIG, shards=2, ingest_workers=1)
        svc.close()
        svc.close()  # idempotent
        with pytest.raises(ServiceClosed):
            svc.submit(make_items(10))
        with pytest.raises(ServiceClosed):
            svc.sample()


# ---------------------------------------------------------------------------
# Asyncio facade
# ---------------------------------------------------------------------------
class TestAsyncFacade:
    def test_async_round_trip_with_concurrent_clients(self):
        async def scenario():
            items = make_items(16_000)
            async with AsyncSamplerService(
                G_CONFIG, shards=4, seed=0, ingest_workers=2,
                refresh_interval=0.01,
            ) as svc:
                async def feed():
                    for lo in range(0, items.size, 2_000):
                        await svc.submit(items[lo:lo + 2_000])
                    await svc.flush(20.0)
                    await svc.refresh()

                async def client(n):
                    return [await svc.sample() for __ in range(n)]

                fed, *answers = await asyncio.gather(
                    feed(), client(10), client(10), client(10)
                )
                assert all(
                    isinstance(r.outcome, SampleOutcome)
                    for batch in answers
                    for r in batch
                )
                many = await svc.sample_many(50)
                assert len(many) == 50
                stats = await svc.stats()
                assert stats["query"]["served"] >= 31

        # The deadlock guard: the whole scenario must finish promptly.
        asyncio.run(asyncio.wait_for(scenario(), timeout=60.0))

    def test_wraps_existing_service_and_rejects_extras(self):
        core = SamplerService(G_CONFIG, shards=2, ingest_workers=1)
        try:
            with pytest.raises(ValueError, match="existing SamplerService"):
                AsyncSamplerService(core, shards=4)

            async def go():
                svc = AsyncSamplerService(core)
                await svc.submit(make_items(500))
                await svc.flush(10.0)
                assert isinstance((await svc.sample()).outcome, SampleOutcome)
                assert svc.service is core

            asyncio.run(asyncio.wait_for(go(), timeout=30.0))
        finally:
            drain_close(core)


# ---------------------------------------------------------------------------
# CLI smoke
# ---------------------------------------------------------------------------
class TestCli:
    def test_smoke_untimed(self, capsys):
        code = serve_main(
            [
                "--config", '{"kind": "g", "measure": {"name": "huber"}, '
                '"instances": 16}',
                "--items", "20000", "--clients", "2", "--queries", "6",
                "--client-interval", "0.001", "--json",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert '"items_applied": 20000' in out

    def test_smoke_serialized_timed(self, capsys):
        code = serve_main(
            [
                "--config", '{"kind": "tw_lp", "p": 2.0, "horizon": 20.0, '
                '"instances": 16}',
                "--items", "10000", "--clients", "1", "--queries", "4",
                "--client-interval", "0.001", "--serialized",
            ]
        )
        assert code == 0
        assert "ingested 10000/10000" in capsys.readouterr().out

    def test_bad_config_is_a_usage_error(self, capsys):
        assert serve_main(["--config", "{not json"]) == 2
        assert serve_main(["--config", '{"kind": "nope"}']) == 2
