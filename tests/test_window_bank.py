"""WindowBank: ladder construction, planned batching (bitwise identical
to scalar), multi-resolution queries, mergeable state, and the registry
/ sharded-engine integration."""

import math

import numpy as np
import pytest

from helpers import assert_matches_distribution, gappy_timed_stream, replay_timed
from repro.core.g_sampler import SamplerPool
from repro.core.measures import HuberMeasure, LpMeasure
from repro.engine import ShardedSamplerEngine, build_sampler
from repro.engine.state import save_state, load_state, state_to_bytes
from repro.obs.metrics import MetricsRegistry, set_default_registry, use_registry
from repro.stats import lp_target
from repro.streams import with_arrivals, zipf_stream
from repro.windows import (
    TimeWindowF0Sampler,
    TimeWindowGSampler,
    TimeWindowLpSampler,
    WindowBank,
)
from repro.windows.chunking import bucket_cuts

LADDER = (10.0, 30.0, 60.0)


def bursty_fixture(n=32, m=4000, seed=5):
    return with_arrivals(
        zipf_stream(n, m, alpha=1.2, seed=seed),
        process="bursty",
        rate=40.0,
        burst_rate=300.0,
        seed=seed + 1,
    )


class TestConstruction:
    def test_ladder_is_sorted(self):
        bank = WindowBank([60.0, 10.0, 30.0], p=2.0, seed=0)
        assert bank.resolutions == (10.0, 30.0, 60.0)

    def test_family_selection(self):
        g = WindowBank([10.0], measure=HuberMeasure(1.0), seed=0)
        assert isinstance(g.pool_sampler(10.0), TimeWindowGSampler)
        lp = WindowBank([10.0], p=2.0, seed=0)
        assert isinstance(lp.pool_sampler(10.0), TimeWindowLpSampler)
        with pytest.raises(ValueError, match="exactly one"):
            WindowBank([10.0], seed=0)
        with pytest.raises(ValueError, match="exactly one"):
            WindowBank([10.0], p=2.0, measure=HuberMeasure(1.0), seed=0)

    def test_f0_members_need_n(self):
        bank = WindowBank([10.0], p=2.0, seed=0)
        assert not bank.has_f0
        with pytest.raises(ValueError, match="n="):
            bank.f0_sampler(10.0)
        with pytest.raises(ValueError, match="f0_seed"):
            WindowBank([10.0], p=2.0, f0_seed=7, seed=0)
        with_f0 = WindowBank([10.0], p=2.0, n=64, seed=0)
        assert isinstance(with_f0.f0_sampler(10.0), TimeWindowF0Sampler)

    def test_bad_ladders(self):
        with pytest.raises(ValueError):
            WindowBank([], p=2.0)
        with pytest.raises(ValueError):
            WindowBank([0.0], p=2.0)
        with pytest.raises(ValueError):
            WindowBank([10.0, 10.0], p=2.0)

    def test_unknown_rung(self):
        bank = WindowBank([10.0], p=2.0, n=16, seed=0)
        with pytest.raises(ValueError, match="ladder"):
            bank.pool_sampler(99.0)
        with pytest.raises(ValueError, match="ladder"):
            bank.f0_sampler(99.0)


class TestIngestion:
    def test_batched_is_bitwise_identical_to_scalar(self):
        """Acceptance: WindowBank batched ingest ≡ scalar ingest,
        bitwise, for a fixed seed — on a nesting ladder with all member
        families (Lp pools + F0)."""
        ts = bursty_fixture()
        a = WindowBank(LADDER, p=2.0, n=32, instances=40, seed=11)
        b = WindowBank(LADDER, p=2.0, n=32, instances=40, seed=11)
        a.update_batch(ts.items, ts.timestamps)
        for item, when in ts:
            b.update(item, when)
        assert state_to_bytes(a.snapshot()) == state_to_bytes(b.snapshot())

    def test_non_nesting_ladder_matches_too(self):
        ts = bursty_fixture(m=2000)
        ladder = (10.0, 25.0)
        a = WindowBank(ladder, measure=LpMeasure(1.0), instances=16, seed=2)
        b = WindowBank(ladder, measure=LpMeasure(1.0), instances=16, seed=2)
        a.update_batch(ts.items, ts.timestamps)
        for item, when in ts:
            b.update(item, when)
        assert state_to_bytes(a.snapshot()) == state_to_bytes(b.snapshot())

    def test_chunked_matches_one_shot(self):
        ts = bursty_fixture(m=2500)
        a = WindowBank(LADDER, p=2.0, n=32, instances=24, seed=4)
        b = WindowBank(LADDER, p=2.0, n=32, instances=24, seed=4)
        a.update_batch(ts.items, ts.timestamps)
        for start in range(0, len(ts), 777):
            b.update_batch(
                ts.items[start:start + 777], ts.timestamps[start:start + 777]
            )
        assert state_to_bytes(a.snapshot()) == state_to_bytes(b.snapshot())

    def test_position_and_now(self):
        bank = WindowBank([5.0, 10.0], p=2.0, instances=8, seed=0)
        bank.update(3, 1.0)
        bank.update(4, 2.5)
        assert bank.position == 2
        assert bank.now == 2.5

    def test_validation(self):
        bank = WindowBank([5.0], p=2.0, instances=8, seed=0)
        with pytest.raises(ValueError):
            bank.update_batch([1, 2], [1.0])
        with pytest.raises(ValueError):
            bank.update_batch([1], [-1.0])
        bank.update(1, 5.0)
        with pytest.raises(ValueError, match="non-decreasing"):
            bank.update_batch([1, 2], [6.0, 4.0])
        with pytest.raises(ValueError, match="non-decreasing"):
            bank.update_batch([1], [2.0])


class TestQueries:
    def test_multi_resolution_samples(self):
        ts = bursty_fixture()
        bank = WindowBank(LADDER, p=2.0, n=32, instances=100, seed=1)
        bank.update_batch(ts.items, ts.timestamps)
        per_rung = bank.sample_all()
        assert set(per_rung) == set(LADDER)
        res = bank.sample(10.0)
        assert res.is_item or res.is_fail
        distinct = bank.sample_distinct(30.0)
        assert distinct.is_item or distinct.is_fail

    def test_finest_rung_matches_l2_window_law(self):
        ts = bursty_fixture(n=16, m=3000, seed=9)
        target = lp_target(ts.window_frequencies(10.0), 2.0)

        def run(seed):
            bank = WindowBank(
                (10.0, 30.0), p=2.0, instances=150, seed=seed
            )
            bank.update_batch(ts.items, ts.timestamps)
            return bank.sample(10.0)

        assert_matches_distribution(run, target, trials=250)


class TestIdleWindows:
    """Regression: querying a fully-idle resolution must say "the window
    is empty" explicitly — never serve a sample from a generation whose
    content has entirely expired, and never a FAIL a caller would
    retry."""

    def test_query_past_idle_gap_is_explicit_empty(self):
        ts = bursty_fixture()
        bank = WindowBank(LADDER, p=2.0, n=32, instances=24, seed=3)
        bank.update_batch(ts.items, ts.timestamps)
        later = bank.now + 10 * max(LADDER)
        for horizon in LADDER:
            assert bank.sample(horizon, now=later).is_empty
            assert bank.sample_distinct(horizon, now=later).is_empty

    def test_compacted_idle_bank_answers_empty_at_watermark(self):
        ts = bursty_fixture()
        bank = WindowBank(LADDER, p=2.0, n=32, instances=24, seed=4)
        bank.update_batch(ts.items, ts.timestamps)
        before = bank.approx_size_bytes()
        freed = bank.compact(now=bank.now + 10 * max(LADDER))
        assert freed > 0
        assert bank.approx_size_bytes() < before
        # The clock watermark advanced, so even a now-less query sees
        # the empty window instead of resurrecting expired state.
        for horizon in LADDER:
            assert bank.sample(horizon).is_empty
            assert bank.sample_distinct(horizon).is_empty

    def test_partially_idle_ladder_only_fine_rungs_empty(self):
        bank = WindowBank((10.0, 1000.0), p=2.0, n=32, instances=24, seed=5)
        bank.update_batch([1, 2, 3], [1.0, 2.0, 3.0])
        later = 500.0  # fine rung idle, coarse rung still covers t≤3
        assert bank.sample(10.0, now=later).is_empty
        coarse = bank.sample(1000.0, now=later)
        assert coarse.is_item or coarse.is_fail
        assert not coarse.is_empty


class TestMergeableState:
    def test_snapshot_restore_continues_bitwise(self):
        ts = bursty_fixture()
        half = len(ts) // 2
        a = WindowBank(LADDER, p=2.0, n=32, instances=24, seed=6)
        a.update_batch(ts.items[:half], ts.timestamps[:half])
        b = WindowBank(LADDER, p=2.0, n=32, instances=24, seed=77)
        load_state(b, save_state(a))
        a.update_batch(ts.items[half:], ts.timestamps[half:])
        b.update_batch(ts.items[half:], ts.timestamps[half:])
        assert state_to_bytes(a.snapshot()) == state_to_bytes(b.snapshot())

    def test_restore_rejects_mismatch(self):
        a = WindowBank([10.0], p=2.0, instances=8, seed=0)
        b = WindowBank([20.0], p=2.0, instances=8, seed=0)
        with pytest.raises(ValueError, match="ladder"):
            b.restore(a.snapshot())
        c = WindowBank([10.0], p=2.0, n=16, instances=8, seed=0)
        with pytest.raises(ValueError, match="F0"):
            c.restore(a.snapshot())
        with pytest.raises(ValueError):
            a.restore({"kind": "nope"})

    def test_merge_validates(self):
        a = WindowBank([10.0], p=2.0, instances=8, seed=0)
        with pytest.raises(TypeError):
            a.merge(object())
        b = WindowBank([20.0], p=2.0, instances=8, seed=1)
        with pytest.raises(ValueError, match="ladders"):
            a.merge(b)
        c = WindowBank([10.0], p=2.0, n=16, instances=8, seed=1)
        with pytest.raises(ValueError, match="F0"):
            a.merge(c)

    def test_merge_disjoint_partitions(self):
        ts = bursty_fixture()
        items = np.asarray(ts.items)
        even = items % 2 == 0
        a = WindowBank(LADDER, p=2.0, n=32, instances=40, seed=1, f0_seed=42)
        b = WindowBank(LADDER, p=2.0, n=32, instances=40, seed=2, f0_seed=42)
        a.update_batch(items[even], ts.timestamps[even])
        b.update_batch(items[~even], ts.timestamps[~even])
        a.merge(b)
        assert a.position == len(ts)
        for horizon in LADDER:
            res = a.sample(horizon)
            assert res.is_item or res.is_fail
            distinct = a.sample_distinct(horizon)
            assert distinct.is_item or distinct.is_fail

    def test_f0_merge_needs_shared_f0_seed(self):
        a = WindowBank([10.0], p=2.0, n=32, instances=8, seed=1)
        b = WindowBank([10.0], p=2.0, n=32, instances=8, seed=2)
        a.update(0, 1.0)
        b.update(1, 1.0)
        with pytest.raises(ValueError, match="seed"):
            a.merge(b)


class TestEngineIntegration:
    def test_registry_builds_bank(self):
        bank = build_sampler(
            {
                "kind": "window_bank",
                "resolutions": [10.0, 30.0],
                "measure": {"name": "huber", "tau": 2.0},
                "n": 64,
                "seed": 3,
            }
        )
        assert isinstance(bank, WindowBank)
        assert bank.resolutions == (10.0, 30.0)
        assert bank.has_f0

    def test_registry_rejects_leftover_keys(self):
        with pytest.raises(ValueError, match="frobnicate"):
            build_sampler(
                {
                    "kind": "window_bank",
                    "resolutions": [10.0],
                    "p": 2.0,
                    "frobnicate": 1,
                }
            )

    def test_sharded_bank_without_f0_seed_still_merges(self):
        """The engine auto-derives a shared f0_seed so a sharded bank
        with F0 members works out of the box."""
        ts = bursty_fixture(n=16, m=1000, seed=3)
        engine = ShardedSamplerEngine(
            {"kind": "window_bank", "resolutions": [10.0], "p": 2.0,
             "n": 16, "instances": 16},
            shards=4,
            seed=5,
        )
        engine.ingest(ts)
        merged = engine.merged_sampler()
        res = merged.sample_distinct(10.0)
        assert res.is_item or res.is_fail

    def test_bank_rejects_bad_chunk_without_partial_mutation(self):
        """A chunk with an out-of-universe item is rejected before any
        member ingests it — the bank stays consistent and retryable."""
        bank = WindowBank([10.0], p=2.0, n=8, instances=8, seed=0)
        bank.update(1, 1.0)
        with pytest.raises(ValueError, match="universe"):
            bank.update_batch([2, 99], [2.0, 3.0])
        with pytest.raises(ValueError, match="universe"):
            bank.update(99, 4.0)
        assert bank.position == 1  # nothing partially ingested
        assert bank.f0_sampler(10.0).position == 1
        bank.update_batch([2, 3], [2.0, 3.0])  # retry succeeds
        assert bank.position == 3
        assert bank.f0_sampler(10.0).position == 3

    def test_approximately_nesting_ladder_stays_bitwise(self):
        """Float ladders that only approximately nest (0.3 ≠ 3×0.1 in
        binary) must still batch bitwise-identically to scalar — every
        rung plans against its own ``⌊ts/H⌋`` buckets."""
        rng = np.random.RandomState(0)
        items = rng.randint(0, 16, size=600)
        ts = np.sort(rng.uniform(0.0, 3.0, size=600))
        ladder = (0.1, 0.3)
        a = WindowBank(ladder, p=2.0, instances=8, seed=3)
        b = WindowBank(ladder, p=2.0, instances=8, seed=3)
        a.update_batch(items, ts)
        for item, when in zip(items.tolist(), ts.tolist()):
            b.update(item, when)
        assert state_to_bytes(a.snapshot()) == state_to_bytes(b.snapshot())

    def test_sharded_bank_answers_windowed_queries(self):
        """K=4 shards of a window_bank merge into exact multi-resolution
        answers (f0_seed shared via config, pool seeds per-shard)."""
        ts = bursty_fixture(n=16, m=3000, seed=9)
        target = lp_target(ts.window_frequencies(10.0), 2.0)

        def run(seed):
            engine = ShardedSamplerEngine(
                {
                    "kind": "window_bank",
                    "resolutions": [10.0, 30.0],
                    "p": 2.0,
                    "n": 16,
                    "instances": 150,
                    "f0_seed": 1234,
                },
                shards=4,
                seed=seed,
            )
            engine.ingest(ts)
            return engine.sample(horizon=10.0)

        assert_matches_distribution(run, target, trials=250, seed_offset=10**5)


#: (ladder, extra bank kwargs): nesting with F0 members, non-nesting,
#: and a float ladder that only approximately nests.
BANKS = {
    "nesting": ((1.0, 3.0, 6.0), {"p": 2.0, "n": 40}),
    "non_nesting": ((1.0, 2.5), {"measure": HuberMeasure(1.0)}),
    "approx_nesting": ((0.1, 0.3), {"p": 2.0}),
}


def make_bank(name, seed=41):
    ladder, kwargs = BANKS[name]
    return WindowBank(ladder, instances=10, seed=seed, **kwargs)


class TestPlannedBankIngest:
    @pytest.mark.parametrize("name", sorted(BANKS))
    @pytest.mark.parametrize("schedule", ["spans_4", "every_bucket"])
    @pytest.mark.parametrize("compact", [False, True])
    def test_multi_bucket_chunks_match_scalar(self, name, schedule, compact):
        finest = BANKS[name][0][0]
        items, ts = gappy_timed_stream(2000, 40, finest, seed=42)
        __, cuts = bucket_cuts(ts, finest)
        if schedule == "spans_4":
            cuts = [0, *cuts[1:-1][3::4], len(ts)]
        marks = []
        if compact:
            spells = np.flatnonzero(np.diff(ts) > finest) + 1
            assert spells.size  # some compaction empties the finest rung
            rng = np.random.default_rng(43)
            marks = spells.tolist() + rng.integers(1, len(ts), 10).tolist()
        expect = replay_timed(make_bank(name), items, ts, compact_at=marks)
        assert replay_timed(make_bank(name), items, ts, cuts, compact_at=marks) == expect

    @pytest.mark.parametrize("name", sorted(BANKS))
    def test_restart_from_fully_compacted_bank(self, name):
        coarsest = BANKS[name][0][-1]
        items, ts = gappy_timed_stream(1000, 40, BANKS[name][0][0], seed=44)
        later = ts + float(ts[-1]) + 3 * coarsest
        a, b = make_bank(name), make_bank(name)
        for bank in (a, b):
            bank.update_batch(items, ts)
            bank.compact(now=float(later[0]))
            assert all(
                bank.pool_sampler(h).generation_count == 0 for h in bank.resolutions
            )
        replay_timed(a, items, later)
        assert replay_timed(b, items, later, [0, 300, 301, len(later)]) == save_state(a)

    def test_one_chunk_calls_at_most_two_pools_per_rung(self, monkeypatch):
        calls = []
        real = SamplerPool.update_batch

        def spy(pool, chunk):
            calls.append(pool)
            return real(pool, chunk)

        monkeypatch.setattr(SamplerPool, "update_batch", spy)
        bank = make_bank("nesting")
        items, ts = gappy_timed_stream(4000, 40, 1.0, seed=45)
        for lo, hi in ((0, 2000), (2000, 4000)):
            calls.clear()
            buckets = (ts[lo:hi] // 1.0).astype(np.int64)
            assert buckets[-1] - buckets[0] >= 10
            bank.update_batch(items[lo:hi], ts[lo:hi])
            assert len(calls) <= 2 * len(bank.resolutions)


class TestNonFiniteClock:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejected_chunk_leaves_bank_unchanged(self, bad):
        bank = WindowBank((1.0, 3.0), p=2.0, n=16, instances=8, seed=0)
        bank.update_batch([1, 2, 3], [1.0, 2.0, 2.5])
        before = save_state(bank)
        with pytest.raises(ValueError, match="timestamps must be finite"):
            bank.update_batch([4, 5, 6], [3.0, 4.0, bad])
        with pytest.raises(ValueError, match="timestamps must be finite"):
            bank.update(4, bad)
        with pytest.raises(ValueError, match="timestamps must be finite"):
            bank.compact(now=bad)
        assert save_state(bank) == before
        bank.update_batch([4, 5], [3.0, 4.0])
        bank.compact(now=5.0)
        assert bank.position == 5 and bank.now == 5.0


def test_served_bank_pools_report_to_engine_registry():
    """A bank engine built under ``use_registry(reg)`` and ingested
    outside the scope counts every heap event in ``reg``."""
    glob = MetricsRegistry()
    old = set_default_registry(glob)
    try:
        reg = MetricsRegistry()
        with use_registry(reg):
            engine = ShardedSamplerEngine(
                {"kind": "window_bank", "resolutions": [1.0, 3.0],
                 "measure": {"name": "huber"}, "instances": 16},
                shards=2,
                seed=7,
                metrics=reg,
            )
        items, ts = gappy_timed_stream(3000, 40, 1.0, seed=46)
        engine.ingest(items, timestamps=ts)
        assert reg.get("repro_ingest_heap_events_total").total() > 0
        heap = glob.get("repro_ingest_heap_events_total")
        assert heap is None or heap.total() == 0
    finally:
        set_default_registry(old)
