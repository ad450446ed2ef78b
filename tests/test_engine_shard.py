"""Sharded engine: partition determinism, routed ingestion, and — the
point of it all — merged shard output matching the single-sampler target
distribution exactly."""

import numpy as np
import pytest

from helpers import assert_matches_distribution
from repro.engine import ShardedSamplerEngine, UniversePartitioner
from repro.engine.state import state_from_bytes, state_to_bytes
from repro.stats import f0_target, lp_target
from repro.streams import zipf_stream


class TestUniversePartitioner:
    def test_assignment_deterministic_and_total(self):
        part = UniversePartitioner(8, seed=3)
        items = np.arange(10_000)
        ids = part.assign(items)
        assert np.array_equal(ids, part.assign(items))
        assert ids.min() >= 0 and ids.max() < 8
        # hash strategy should spread a structured id space roughly evenly
        counts = np.bincount(ids, minlength=8)
        assert counts.min() > 10_000 / 8 / 2

    def test_split_preserves_order_and_mass(self):
        part = UniversePartitioner(4, seed=1)
        items = np.asarray(zipf_stream(100, 5000, alpha=1.2, seed=0).items)
        chunks = part.split(items)
        assert sum(c.size for c in chunks) == 5000
        ids = part.assign(items)
        for k, chunk in enumerate(chunks):
            assert np.array_equal(chunk, items[ids == k])

    def test_modulo_strategy(self):
        part = UniversePartitioner(4, strategy="modulo")
        assert np.array_equal(part.assign(np.arange(8)), np.arange(8) % 4)

    def test_equality_is_layout_equality(self):
        assert UniversePartitioner(4, seed=1) == UniversePartitioner(4, seed=1)
        assert UniversePartitioner(4, seed=1) != UniversePartitioner(4, seed=2)
        assert UniversePartitioner(4, seed=1) != UniversePartitioner(8, seed=1)

    def test_validates(self):
        with pytest.raises(ValueError):
            UniversePartitioner(0)
        with pytest.raises(ValueError):
            UniversePartitioner(4, strategy="round-robin")


class TestShardedEngineBasics:
    CONFIG = {"kind": "g", "measure": {"name": "lp", "p": 1.0}, "instances": 16}

    def test_ingest_routes_everything(self):
        engine = ShardedSamplerEngine(self.CONFIG, shards=4, seed=0)
        stream = zipf_stream(64, 3000, alpha=1.1, seed=1)
        assert engine.ingest(stream.items) == 3000
        assert engine.position == 3000
        assert all(s.position > 0 for s in engine.samplers)

    def test_ingest_accepts_any_1d_item_source(self):
        stream = zipf_stream(64, 500, alpha=1.1, seed=3)
        items = np.asarray(stream.items)
        want = ShardedSamplerEngine(self.CONFIG, shards=4, seed=0)
        want.ingest(items)
        for source in (stream, (int(x) for x in items.tolist())):
            engine = ShardedSamplerEngine(self.CONFIG, shards=4, seed=0)
            assert engine.ingest(source) == 500
            assert state_to_bytes(engine.snapshot()) == state_to_bytes(want.snapshot())
        engine = ShardedSamplerEngine(self.CONFIG, shards=4, seed=0)
        with pytest.raises(ValueError, match="1-d sequence of items"):
            engine.ingest(items.reshape(20, 25))
        assert engine.position == 0

    def test_scalar_update_routes_consistently(self):
        engine = ShardedSamplerEngine(self.CONFIG, shards=4, seed=0)
        for item in [3, 3, 3, 17]:
            engine.update(item)
        shard = engine.shard_of(3)
        assert engine.samplers[shard].position == 3

    def test_requires_mergeable_kind(self):
        with pytest.raises(ValueError):
            ShardedSamplerEngine({"kind": "sw-f0", "n": 64, "window": 10}, shards=2)

    def test_single_shard_degenerates_gracefully(self):
        engine = ShardedSamplerEngine(self.CONFIG, shards=1, seed=0)
        stream = zipf_stream(32, 1000, alpha=1.0, seed=2)
        engine.ingest(stream.items)
        assert engine.position == 1000
        assert engine.sample().outcome is not None

    def test_snapshot_restore_roundtrip(self):
        engine = ShardedSamplerEngine(self.CONFIG, shards=3, seed=4)
        stream = zipf_stream(48, 2000, alpha=1.2, seed=3)
        engine.ingest(stream.items[:1200])
        buf = state_to_bytes(engine.snapshot())
        twin = ShardedSamplerEngine(self.CONFIG, shards=3, seed=4)
        twin.restore(state_from_bytes(buf))
        engine.ingest(stream.items[1200:])
        twin.ingest(stream.items[1200:])
        assert twin.position == engine.position == 2000
        assert twin.sample().item == engine.sample().item

    def test_restore_rejects_layout_mismatch(self):
        engine = ShardedSamplerEngine(self.CONFIG, shards=3, seed=4)
        other = ShardedSamplerEngine(self.CONFIG, shards=3, seed=5)
        with pytest.raises(ValueError):
            other.restore(engine.snapshot())

    def test_cross_engine_merge(self):
        stream = zipf_stream(48, 2000, alpha=1.2, seed=6)
        site_a = ShardedSamplerEngine(self.CONFIG, shards=4, seed=7)
        site_b = ShardedSamplerEngine(
            self.CONFIG, shards=4, seed=8, partitioner=site_a.partitioner
        )
        site_a.ingest(stream.items[:1000])
        site_b.ingest(stream.items[1000:])
        site_a.merge(site_b)
        assert site_a.position == 2000

    def test_merge_rejects_different_layouts(self):
        a = ShardedSamplerEngine(self.CONFIG, shards=4, seed=1)
        b = ShardedSamplerEngine(self.CONFIG, shards=4, seed=2)
        with pytest.raises(ValueError):
            a.merge(b)


class TestShardedExactness:
    def test_sharded_g_sampler_matches_single_target(self):
        stream = zipf_stream(48, 2000, alpha=1.2, seed=10)
        target = lp_target(stream.frequencies(), 1.0)

        def run(seed):
            engine = ShardedSamplerEngine(
                {"kind": "g", "measure": {"name": "lp", "p": 1.0}, "instances": 24},
                shards=4,
                seed=seed,
            )
            engine.ingest(stream.items)
            return engine.sample()

        assert_matches_distribution(run, target, trials=350)

    def test_sharded_lp2_k8_matches_single_target(self):
        """The acceptance-criteria configuration: K = 8, p = 2."""
        stream = zipf_stream(32, 1600, alpha=1.2, seed=11)
        target = lp_target(stream.frequencies(), 2.0)

        def run(seed):
            engine = ShardedSamplerEngine(
                {"kind": "lp", "p": 2.0, "n": 32, "instances": 64},
                shards=8,
                seed=seed,
            )
            engine.ingest(stream.items)
            return engine.sample()

        assert_matches_distribution(run, target, trials=300)

    def test_f0_engine_position_counts_updates(self):
        stream = zipf_stream(80, 500, alpha=1.1, seed=14)
        for kind in ("f0", "oracle-f0", "algorithm5-f0"):
            engine = ShardedSamplerEngine({"kind": kind, "n": 80}, shards=4, seed=1)
            engine.ingest(stream.items)
            assert engine.position == 500, kind

    def test_sharded_f0_matches_single_target(self):
        stream = zipf_stream(80, 1500, alpha=1.1, seed=12)
        target = f0_target(stream.frequencies())

        def run(seed):
            engine = ShardedSamplerEngine({"kind": "f0", "n": 80}, shards=4, seed=seed)
            engine.ingest(stream.items)
            return engine.sample()

        assert_matches_distribution(run, target, trials=350)

    def test_sharded_oracle_f0_matches_single_target(self):
        stream = zipf_stream(80, 1500, alpha=1.1, seed=13)
        target = f0_target(stream.frequencies())

        def run(seed):
            engine = ShardedSamplerEngine(
                {"kind": "oracle-f0", "n": 80}, shards=3, seed=seed
            )
            engine.ingest(stream.items)
            return engine.sample()

        assert_matches_distribution(run, target, trials=350)


class TestAtomicIngest:
    """A batch one shard rejects must not leave the engine half-fed
    behind the merged-view cache's back."""

    @staticmethod
    def _items_by_shard(engine: ShardedSamplerEngine, per_shard: int) -> list:
        picks: list[list[int]] = [[] for _ in range(engine.shards)]
        item = 0
        while min(len(p) for p in picks) < per_shard:
            shard = engine.shard_of(item)
            if len(picks[shard]) < per_shard:
                picks[shard].append(item)
            item += 1
        return picks

    def test_timed_ingest_validates_every_shard_first(self):
        engine = ShardedSamplerEngine(
            {"kind": "tw_g", "measure": {"name": "huber"}, "horizon": 50.0,
             "instances": 8},
            shards=4, seed=3,
        )
        picks = self._items_by_shard(engine, 5)
        first = np.concatenate([np.asarray(p) for p in picks])
        engine.ingest(first, timestamps=np.full(first.size, 10.0))
        before = [state_to_bytes(s.snapshot()) for s in engine.samplers]
        epochs = engine.mutation_epochs()
        # Shards 0-2 get fresh timestamps; shard 3's part is older than
        # its clock, and shard 3 is fed last.
        items = np.concatenate([np.asarray(p) for p in picks])
        ts = np.array(
            [5.0 if engine.shard_of(int(x)) == 3 else 20.0 for x in items]
        )
        with pytest.raises(ValueError, match="non-decreasing"):
            engine.ingest(items, timestamps=ts)
        after = [state_to_bytes(s.snapshot()) for s in engine.samplers]
        assert after == before
        assert engine.mutation_epochs() == epochs

    def test_untimed_failure_bumps_every_fed_shard(self):
        engine = ShardedSamplerEngine({"kind": "f0", "n": 256}, shards=4, seed=1)
        picks = self._items_by_shard(engine, 20)
        engine.ingest(np.concatenate([np.asarray(p) for p in picks]))
        engine.sample()  # caches a fold
        before = [state_to_bytes(s.snapshot()) for s in engine.samplers]
        epochs = engine.mutation_epochs()
        # 256 is outside the universe; route it to the last shard so the
        # earlier shards are fed first.
        bad = 256
        while engine.shard_of(bad) != 3:
            bad += 1
        batch = np.array([picks[0][0], picks[1][0], picks[2][0], bad] * 3)
        with pytest.raises(ValueError):
            engine.ingest(batch)
        after = [state_to_bytes(s.snapshot()) for s in engine.samplers]
        bumped = engine.mutation_epochs()
        changed = [k for k in range(4) if after[k] != before[k]]
        assert changed, "no shard was fed before the rejection"
        for k in changed:
            assert bumped[k] > epochs[k], f"shard {k} changed, epoch did not"
        # The cache therefore re-folds: the next query equals a fresh fold.
        fresh = engine.merged_sampler()
        assert engine.sample() == fresh.sample()
