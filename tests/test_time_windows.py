"""Time-based sliding-window samplers: covering invariants, bitwise
batch/scalar identity, statistical exactness (single-node and merged
across K=8 shards), snapshot/restore, and merge semantics."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    assert_matches_distribution,
    bucket_cuts_spec,
    gappy_timed_stream,
    replay_timed,
)
from repro.core.g_sampler import SamplerPool
from repro.core.measures import HuberMeasure, L1L2Measure, LpMeasure
from repro.engine import ShardedSamplerEngine
from repro.engine.state import save_state, load_state, state_to_bytes
from repro.obs.metrics import MetricsRegistry, set_default_registry, use_registry
from repro.stats import f0_target, g_target, lp_target
from repro.streams import (
    TimestampedStream,
    sparse_support_stream,
    with_arrivals,
    zipf_stream,
)
from repro.windows import (
    TimeWindowF0Sampler,
    TimeWindowGSampler,
    TimeWindowLpSampler,
    WindowBank,
)
from repro.windows.chunking import bucket_cuts

HORIZON = 10.0


def bursty_fixture(n=24, m=4000, seed=3):
    """A bursty timestamped stream whose active window differs sharply
    from the whole stream (so window-exactness is actually probed)."""
    return with_arrivals(
        zipf_stream(n, m, alpha=1.1, seed=seed),
        process="bursty",
        rate=50.0,
        burst_rate=400.0,
        seed=seed + 1,
    )


class TestTimeWindowGSampler:
    def test_generations_follow_buckets(self):
        s = TimeWindowGSampler(LpMeasure(1.0), horizon=10.0, instances=4, seed=0)
        assert s.generation_count == 0
        s.update(1, 0.5)
        assert s.generation_count == 1
        s.update(1, 9.9)
        assert s.generation_count == 1
        s.update(2, 10.1)  # crosses the k·H boundary
        assert s.generation_count == 2
        s.update(3, 25.0)  # skips a bucket entirely
        assert s.generation_count == 2
        assert s.position == 4
        assert s.now == 25.0

    def test_validation(self):
        with pytest.raises(ValueError):
            TimeWindowGSampler(LpMeasure(1.0), horizon=0.0)
        with pytest.raises(ValueError):
            TimeWindowGSampler(LpMeasure(1.0), horizon=1.0, delta=2.0)
        with pytest.raises(ValueError):
            TimeWindowGSampler(LpMeasure(1.0), horizon=1.0, instances=0)
        s = TimeWindowGSampler(LpMeasure(1.0), horizon=1.0, instances=2, seed=0)
        s.update(1, 5.0)
        with pytest.raises(ValueError, match="non-decreasing"):
            s.update(1, 4.0)
        with pytest.raises(ValueError, match="non-decreasing"):
            s.update_batch([1, 2], [4.0, 4.5])
        with pytest.raises(ValueError, match="non-decreasing"):
            s.update_batch([1, 2], [6.0, 5.5])
        with pytest.raises(ValueError):
            s.update_batch([1, 2], [6.0])
        with pytest.raises(ValueError):
            s.sample(now=1.0)  # earlier than ingested

    def test_default_instances_sized_from_rate(self):
        s = TimeWindowGSampler(
            LpMeasure(1.0), horizon=10.0, expected_window_count=100, seed=0
        )
        # L1: acceptance ≥ Ŵ/(2·Ŵ) = 1/2 ⇒ R = ⌈ln(1/0.05)·2⌉ = 6.
        assert s.instances == 6

    def test_batch_is_bitwise_identical_to_scalar(self):
        ts = bursty_fixture()
        a = TimeWindowGSampler(L1L2Measure(), horizon=HORIZON, instances=16, seed=7)
        b = TimeWindowGSampler(L1L2Measure(), horizon=HORIZON, instances=16, seed=7)
        for item, when in ts:
            a.update(item, when)
        b.update_batch(ts.items, ts.timestamps)
        assert state_to_bytes(a.snapshot()) == state_to_bytes(b.snapshot())

    def test_chunked_batching_matches_one_shot(self):
        ts = bursty_fixture()
        a = TimeWindowGSampler(L1L2Measure(), horizon=HORIZON, instances=16, seed=9)
        b = TimeWindowGSampler(L1L2Measure(), horizon=HORIZON, instances=16, seed=9)
        a.update_batch(ts.items, ts.timestamps)
        for start in range(0, len(ts), 333):
            b.update_batch(
                ts.items[start:start + 333], ts.timestamps[start:start + 333]
            )
        assert state_to_bytes(a.snapshot()) == state_to_bytes(b.snapshot())

    def test_window_exactness_single_node(self):
        """Acceptance: TV between empirical sample frequencies and the
        true G(f_i)/F_G over the active time window passes the harness."""
        ts = bursty_fixture()
        target = g_target(ts.window_frequencies(HORIZON), LpMeasure(1.0))

        def run(seed):
            s = TimeWindowGSampler(
                LpMeasure(1.0), horizon=HORIZON, instances=64, seed=seed
            )
            return s.run(ts)

        assert_matches_distribution(run, target, trials=300)

    def test_window_exactness_merged_k8_shards(self):
        """Acceptance: K=8 hash-partitioned shards, merged, same law."""
        ts = bursty_fixture()
        target = g_target(ts.window_frequencies(HORIZON), LpMeasure(1.0))

        def run(seed):
            engine = ShardedSamplerEngine(
                {
                    "kind": "tw_g",
                    "measure": {"name": "lp", "p": 1.0},
                    "horizon": HORIZON,
                    "instances": 64,
                },
                shards=8,
                seed=seed,
            )
            engine.ingest(ts)
            return engine.sample()

        assert_matches_distribution(run, target, trials=300, seed_offset=10**6)

    def test_sample_at_later_now_expires_mass(self):
        """Querying after a quiet period rejects expired instances."""
        ts = TimestampedStream([5] * 50 + [9] * 50,
                               np.linspace(1.0, 2.0, 100), n=16)
        s = TimeWindowGSampler(LpMeasure(1.0), horizon=1.5, instances=32, seed=0)
        s.update_batch(ts.items, ts.timestamps)
        res = s.sample(now=100.0)  # whole stream expired
        assert not res.is_item

    def test_empty_sampler(self):
        s = TimeWindowGSampler(LpMeasure(1.0), horizon=1.0, instances=2, seed=0)
        assert s.sample().is_empty

    def test_snapshot_restore_continues_bitwise(self):
        ts = bursty_fixture()
        half = len(ts) // 2
        a = TimeWindowGSampler(L1L2Measure(), horizon=HORIZON, instances=16, seed=1)
        a.update_batch(ts.items[:half], ts.timestamps[:half])
        b = TimeWindowGSampler(L1L2Measure(), horizon=HORIZON, instances=16, seed=99)
        load_state(b, save_state(a))
        a.update_batch(ts.items[half:], ts.timestamps[half:])
        b.update_batch(ts.items[half:], ts.timestamps[half:])
        assert state_to_bytes(a.snapshot()) == state_to_bytes(b.snapshot())
        assert a.sample().item == b.sample().item

    def test_restore_rejects_mismatch(self):
        a = TimeWindowGSampler(LpMeasure(1.0), horizon=1.0, instances=2, seed=0)
        b = TimeWindowGSampler(LpMeasure(2.0), horizon=1.0, instances=2, seed=0)
        with pytest.raises(ValueError, match="measure"):
            b.restore(a.snapshot())
        c = TimeWindowGSampler(LpMeasure(1.0), horizon=2.0, instances=2, seed=0)
        with pytest.raises(ValueError, match="horizon"):
            c.restore(a.snapshot())
        with pytest.raises(ValueError, match="snapshot"):
            a.restore({"kind": "nope"})

    def test_merge_validates(self):
        a = TimeWindowGSampler(LpMeasure(1.0), horizon=1.0, instances=2, seed=0)
        with pytest.raises(TypeError):
            a.merge(object())
        b = TimeWindowGSampler(LpMeasure(1.0), horizon=2.0, instances=2, seed=0)
        with pytest.raises(ValueError, match="horizon"):
            a.merge(b)

    def test_merge_with_late_starting_shard_keeps_its_mass(self):
        """A shard whose first update lands after the covering bucket
        boundary still contributes its active items exactly: its next
        generation IS its substream since the boundary (it had no
        earlier updates), and the merged covering generation must
        include it."""
        H = 10.0
        # Shard B (evens): active in buckets 4 and 5.
        b_items = np.array([0, 2] * 20 + [2] * 10)
        b_ts = np.concatenate([
            np.linspace(41.0, 49.5, 40),   # bucket 4
            np.linspace(50.5, 54.5, 10),   # bucket 5
        ])
        # Shard A (odds): first update ever arrives in bucket 5.
        a_items = np.array([1] * 40)
        a_ts = np.linspace(50.2, 54.8, 40)
        all_items = np.concatenate([b_items, a_items])
        all_ts = np.concatenate([b_ts, a_ts])
        window = all_items[all_ts > 55.0 - H]
        target = g_target(np.bincount(window, minlength=4), LpMeasure(1.0))

        def run_ab(seed):
            a = TimeWindowGSampler(LpMeasure(1.0), horizon=H, instances=64, seed=seed)
            b = TimeWindowGSampler(
                LpMeasure(1.0), horizon=H, instances=64, seed=seed + 10**6
            )
            a.update_batch(a_items, a_ts)
            b.update_batch(b_items, b_ts)
            a.merge(b)  # self lacks bucket 4 → borrows its bucket-5 gen
            return a.sample(now=55.0)

        def run_ba(seed):
            a = TimeWindowGSampler(LpMeasure(1.0), horizon=H, instances=64, seed=seed)
            b = TimeWindowGSampler(
                LpMeasure(1.0), horizon=H, instances=64, seed=seed + 10**6
            )
            a.update_batch(a_items, a_ts)
            b.update_batch(b_items, b_ts)
            b.merge(a)  # other lacks bucket 4 → same rule, other side
            return b.sample(now=55.0)

        assert_matches_distribution(run_ab, target, trials=300)
        assert_matches_distribution(run_ba, target, trials=300, seed_offset=10**7)

    def test_merge_with_lagging_shard(self):
        """A shard idle in the newest bucket still merges exactly: its
        missing generation means an empty contribution."""
        busy = TimeWindowGSampler(LpMeasure(1.0), horizon=10.0, instances=8, seed=1)
        idle = TimeWindowGSampler(LpMeasure(1.0), horizon=10.0, instances=8, seed=2)
        # Disjoint universes: busy gets evens, idle gets odds.
        busy.update_batch([0, 2, 4, 6], [1.0, 5.0, 12.0, 15.0])
        idle.update_batch([1, 3], [2.0, 6.0])  # nothing after t=10
        busy.merge(idle)
        assert busy.position == 6
        assert busy.now == 15.0
        res = busy.sample()
        assert res.is_item or res.is_fail


class TestTimeWindowLpSampler:
    def test_requires_p_at_least_one(self):
        with pytest.raises(ValueError):
            TimeWindowLpSampler(0.5, horizon=1.0)

    def test_p1_needs_no_normalizer(self):
        s = TimeWindowLpSampler(1.0, horizon=5.0, instances=8, seed=0)
        s.update_batch([1, 2, 3], [0.1, 0.2, 0.3])
        assert s.normalizer() == 1.0

    def test_normalizer_certifies_window_linf(self):
        ts = bursty_fixture()
        s = TimeWindowLpSampler(2.0, horizon=HORIZON, instances=32, seed=0)
        s.update_batch(ts.items, ts.timestamps)
        linf = int(ts.window_frequencies(HORIZON).max())
        assert s.normalizer() >= linf**2 - (linf - 1) ** 2

    def test_batch_is_bitwise_identical_to_scalar(self):
        ts = bursty_fixture(m=2000)
        a = TimeWindowLpSampler(2.0, horizon=HORIZON, instances=16, seed=5)
        b = TimeWindowLpSampler(2.0, horizon=HORIZON, instances=16, seed=5)
        for item, when in ts:
            a.update(item, when)
        b.update_batch(ts.items, ts.timestamps)
        assert state_to_bytes(a.snapshot()) == state_to_bytes(b.snapshot())

    def test_window_exactness_l2(self):
        ts = bursty_fixture(n=16, m=3000)
        target = lp_target(ts.window_frequencies(HORIZON), 2.0)

        def run(seed):
            s = TimeWindowLpSampler(
                2.0, horizon=HORIZON, instances=150, seed=seed
            )
            return s.run(ts)

        assert_matches_distribution(run, target, trials=250)

    def test_merge_combines_normalizers(self):
        items = np.asarray(bursty_fixture(n=32, m=2000).items)
        ts = bursty_fixture(n=32, m=2000).timestamps
        even = items % 2 == 0
        a = TimeWindowLpSampler(2.0, horizon=HORIZON, instances=32, seed=1)
        b = TimeWindowLpSampler(2.0, horizon=HORIZON, instances=32, seed=2)
        a.update_batch(items[even], ts[even])
        b.update_batch(items[~even], ts[~even])
        a.merge(b)
        # Merged ζ certifies the merged *window's* max increment (the
        # covering substream contains the window; it need not contain
        # the whole stream).
        active = items[ts > a.now - HORIZON]
        linf = int(np.bincount(active, minlength=32).max())
        assert a.normalizer() >= linf**2 - (linf - 1) ** 2

    def test_snapshot_restore_roundtrip(self):
        ts = bursty_fixture(m=1500)
        a = TimeWindowLpSampler(2.0, horizon=HORIZON, instances=16, seed=3)
        a.update_batch(ts.items, ts.timestamps)
        b = TimeWindowLpSampler(2.0, horizon=HORIZON, instances=16, seed=44)
        load_state(b, save_state(a))
        assert b.normalizer() == a.normalizer()
        assert state_to_bytes(b.snapshot()) == state_to_bytes(a.snapshot())


class TestTimeWindowF0Sampler:
    def test_validation(self):
        with pytest.raises(ValueError):
            TimeWindowF0Sampler(0, horizon=1.0)
        with pytest.raises(ValueError):
            TimeWindowF0Sampler(16, horizon=0.0)
        with pytest.raises(ValueError):
            TimeWindowF0Sampler(16, horizon=1.0, delta=0.0)
        s = TimeWindowF0Sampler(16, horizon=1.0, seed=0)
        with pytest.raises(ValueError, match="universe"):
            s.update(99, 0.1)
        s.update(3, 5.0)
        with pytest.raises(ValueError, match="non-decreasing"):
            s.update(3, 4.0)
        with pytest.raises(ValueError, match="universe"):
            s.update_batch([99], [6.0])
        with pytest.raises(ValueError):
            s.sample(now=1.0)

    def test_empty(self):
        assert TimeWindowF0Sampler(16, horizon=1.0, seed=0).sample().is_empty

    def test_batch_is_bitwise_identical_to_scalar(self):
        ts = bursty_fixture(n=100, m=3000)
        a = TimeWindowF0Sampler(100, horizon=HORIZON, seed=5)
        b = TimeWindowF0Sampler(100, horizon=HORIZON, seed=5)
        for item, when in ts:
            a.update(item, when)
        b.update_batch(ts.items, ts.timestamps)
        assert state_to_bytes(a.snapshot()) == state_to_bytes(b.snapshot())

    def test_sparse_regime_uses_recent_table(self):
        stream = sparse_support_stream(400, support=5, m=500, seed=1)
        ts = with_arrivals(stream, process="uniform", rate=100.0)
        s = TimeWindowF0Sampler(400, horizon=2.0, seed=2)
        s.update_batch(ts.items, ts.timestamps)
        res = s.sample()
        assert res.is_item
        assert res.metadata["regime"] == "recent"

    def test_window_exactness(self):
        ts = bursty_fixture(n=24, m=4000)
        target = f0_target(ts.window_frequencies(HORIZON))

        def run(seed):
            s = TimeWindowF0Sampler(24, horizon=HORIZON, seed=seed)
            return s.run(ts)

        assert_matches_distribution(run, target, trials=300)

    def test_sharded_exactness_shares_seed(self):
        ts = bursty_fixture(n=24, m=4000)
        target = f0_target(ts.window_frequencies(HORIZON))

        def run(seed):
            engine = ShardedSamplerEngine(
                {"kind": "tw_f0", "n": 24, "horizon": HORIZON},
                shards=8,
                seed=seed,
            )
            engine.ingest(ts)
            return engine.sample()

        assert_matches_distribution(run, target, trials=300, seed_offset=10**6)

    def test_merge_requires_shared_subsets(self):
        a = TimeWindowF0Sampler(100, horizon=1.0, seed=1)
        b = TimeWindowF0Sampler(100, horizon=1.0, seed=2)
        with pytest.raises(ValueError, match="seed"):
            a.merge(b)
        with pytest.raises(TypeError):
            a.merge(object())
        c = TimeWindowF0Sampler(100, horizon=2.0, seed=1)
        with pytest.raises(ValueError, match="layout"):
            a.merge(c)

    def test_merge_lru_eviction_keeps_certificate(self):
        """Merging two full LRU tables evicts down to capacity and
        records the displaced timestamps in the horizon."""
        n = 16  # threshold = 4, capacity 5
        a = TimeWindowF0Sampler(n, horizon=100.0, seed=7)
        b = TimeWindowF0Sampler(n, horizon=100.0, seed=7)
        for i, item in enumerate([0, 1, 2, 3, 4]):
            a.update(item, 1.0 + i)
        for i, item in enumerate([5, 6, 7, 8, 9]):
            b.update(item, 1.5 + i)
        a.merge(b)
        assert a.position == 10
        assert len(a._recent) == a.threshold + 1
        assert a._evict_horizon > 0  # merge displaced some timestamps

    def test_snapshot_restore_continues_bitwise(self):
        ts = bursty_fixture(n=50, m=2000)
        half = len(ts) // 2
        a = TimeWindowF0Sampler(50, horizon=HORIZON, seed=3)
        a.update_batch(ts.items[:half], ts.timestamps[:half])
        b = TimeWindowF0Sampler(50, horizon=HORIZON, seed=91)
        load_state(b, save_state(a))
        a.update_batch(ts.items[half:], ts.timestamps[half:])
        b.update_batch(ts.items[half:], ts.timestamps[half:])
        assert state_to_bytes(a.snapshot()) == state_to_bytes(b.snapshot())
        assert a.sample().item == b.sample().item

    def test_restore_rejects_mismatch(self):
        a = TimeWindowF0Sampler(16, horizon=1.0, seed=0)
        b = TimeWindowF0Sampler(32, horizon=1.0, seed=0)
        with pytest.raises(ValueError):
            b.restore(a.snapshot())
        with pytest.raises(ValueError):
            a.restore({"kind": "garbage"})


POOL_MAKERS = {
    "tw_g": lambda: TimeWindowGSampler(
        HuberMeasure(1.0), horizon=1.0, instances=12, seed=21
    ),
    # p=2 carries a _SuffixLinf aux per generation.
    "tw_lp": lambda: TimeWindowLpSampler(2.0, horizon=1.0, instances=12, seed=22),
}


def every_k_buckets(ts, horizon, k):
    """Cut offsets at every ``k``-th bucket crossing of ``horizon``."""
    __, cuts = bucket_cuts(ts, horizon)
    return [0, *cuts[1:-1][k - 1::k], len(ts)]


def quiet_spell_starts(ts, horizon):
    """Offsets whose arrival follows a gap longer than ``horizon`` — a
    compaction there drops every generation."""
    return (np.flatnonzero(np.diff(ts) > horizon) + 1).tolist()


class TestPlannedIngest:
    """Batched ingest feeds only the generations a chunk leaves kept;
    every schedule must still give the scalar loop's bytes."""

    @pytest.mark.parametrize("kind", sorted(POOL_MAKERS))
    @pytest.mark.parametrize("schedule", ["spans_4", "every_bucket", "one_shot"])
    @pytest.mark.parametrize("compact", [False, True])
    def test_multi_bucket_chunks_match_scalar(self, kind, schedule, compact):
        items, ts = gappy_timed_stream(2500, 40, 1.0, seed=31)
        cuts = {
            "spans_4": every_k_buckets(ts, 1.0, 4),
            "every_bucket": bucket_cuts(ts, 1.0)[1],
            "one_shot": [0, len(ts)],
        }[schedule]
        if schedule == "spans_4":
            buckets = (ts // 1.0).astype(np.int64)
            spans = [buckets[b - 1] - buckets[a] + 1 for a, b in zip(cuts, cuts[1:])]
            assert max(spans) >= 3
        marks = []
        if compact:
            rng = np.random.default_rng(32)
            marks = quiet_spell_starts(ts, 1.0) + rng.integers(1, len(ts), 12).tolist()
        make = POOL_MAKERS[kind]
        expect = replay_timed(make(), items, ts, compact_at=marks)
        assert replay_timed(make(), items, ts, cuts, compact_at=marks) == expect

    @pytest.mark.parametrize("kind", sorted(POOL_MAKERS))
    def test_restart_from_fully_compacted_sampler(self, kind):
        items, ts = gappy_timed_stream(1200, 40, 1.0, seed=33)
        later = ts + float(ts[-1]) + 10.0
        a, b = POOL_MAKERS[kind](), POOL_MAKERS[kind]()
        for s in (a, b):
            s.update_batch(items, ts)
            s.compact(now=float(later[0]))
            assert s.generation_count == 0
        replay_timed(a, items, later)
        cuts = every_k_buckets(later, 1.0, 5)
        assert replay_timed(b, items, later, cuts) == save_state(a)

    def test_one_chunk_feeds_at_most_two_pools(self, monkeypatch):
        calls = []
        real = SamplerPool.update_batch

        def spy(pool, chunk, *stamps):
            calls.append(pool)
            return real(pool, chunk, *stamps)

        monkeypatch.setattr(SamplerPool, "update_batch", spy)
        s = POOL_MAKERS["tw_g"]()
        items, ts = gappy_timed_stream(3000, 40, 1.0, seed=34)
        __, cuts = bucket_cuts(ts, 1.0)
        assert len(cuts) > 20  # the chunk spans many buckets
        s.update_batch(items, ts)
        assert len(calls) <= 2
        assert s.generation_count == 2


def _near_boundaries(horizon: float, picks) -> np.ndarray:
    """Sorted non-negative timestamps from ``(k, kind, step)`` picks:
    ``k·H`` itself, ``step`` ulps away from it, or ``step/8`` of a
    bucket away from it (negative steps go below)."""
    out = []
    for k, kind, step in picks:
        t = k * horizon
        if kind == "ulp":
            for __ in range(abs(step)):
                t = np.nextafter(t, math.inf if step > 0 else -math.inf)
        elif kind == "frac":
            t += horizon * step / 8.0
        out.append(max(0.0, float(t)))
    return np.sort(np.asarray(out, dtype=np.float64))


@settings(max_examples=300, deadline=None)
@given(
    horizon=st.sampled_from([0.1, 1 / 3, 60.0, 3600.0]),
    picks=st.lists(
        st.tuples(
            # Small bucket indices (dense chunks), far ones (chunks that
            # skip many buckets), and ones past 2^53, where k·H rounds
            # past timestamps already in bucket k.
            st.one_of(
                st.integers(0, 12), st.integers(0, 10**7), st.integers(2**53, 2**62)
            ),
            st.sampled_from(["exact", "ulp", "frac"]),
            st.sampled_from([-3, -2, -1, 1, 2, 3, 4, 7]),
        ),
        min_size=1,
        max_size=40,
    ),
    repeat=st.integers(1, 3),
)
# Past 2^53 the search can land past a timestamp already in bucket k
# (here 2 ulps and 1 ulp below k·H sit in buckets k - 1 and k).
@example(
    horizon=1 / 3,
    picks=[(10057916675121887, "ulp", -2), (10057916675121887, "ulp", -1)],
    repeat=1,
)
def test_bucket_cuts_search_matches_floor_divide(horizon, picks, repeat):
    """The search gives the full floor-divide's cuts and bucket ids, at
    timestamps on ``k·H``, a few ulps off it, inside buckets, repeated,
    skipping buckets, and single-item chunks; the ids are the scalar
    loop's ``float(ts) // H``."""
    ts = np.repeat(_near_boundaries(horizon, picks), repeat)
    spec_buckets, spec_cuts = bucket_cuts_spec(ts, horizon)
    assert spec_buckets.tolist() == [int(t // horizon) for t in ts.tolist()]
    buckets, cuts = bucket_cuts(ts, horizon)
    assert cuts == spec_cuts
    assert buckets == spec_buckets[spec_cuts[:-1]].tolist()
    for one in ts[:3]:  # single-item chunks
        assert bucket_cuts(np.array([one]), horizon) == ([int(one // horizon)], [0, 1])


PROPERTY_MAKERS = {
    "tw_g": lambda: TimeWindowGSampler(
        HuberMeasure(1.0), horizon=1.0, instances=4, seed=5
    ),
    "window_bank": lambda: WindowBank(
        (1.0, 2.5, 5.0), measure=HuberMeasure(1.0), n=8, instances=4, seed=6
    ),
}


@pytest.mark.parametrize("kind", sorted(PROPERTY_MAKERS))
@settings(max_examples=50, deadline=None)
@given(
    steps=st.lists(
        st.tuples(
            st.integers(0, 7),
            st.sampled_from([0.0, 0.05, 0.3, 1.0, 1.7, 3.5]),
            st.booleans(),
        ),
        min_size=1,
        max_size=60,
    ),
    compact_every=st.sampled_from([0, 7, 13]),
)
def test_any_timestamps_any_cuts_match_scalar(kind, steps, compact_every):
    """Arbitrary non-decreasing timestamps with gaps, cut into arbitrary
    calls (with or without compaction between them), give the scalar
    loop's bytes."""
    items = np.array([item for item, __, __ in steps], dtype=np.int64)
    ts = np.cumsum([gap for __, gap, __ in steps])
    cuts = [0, *(k + 1 for k, (__, __, cut) in enumerate(steps) if cut), len(steps)]
    marks = list(range(compact_every, len(steps), compact_every)) if compact_every else []
    make = PROPERTY_MAKERS[kind]
    expect = replay_timed(make(), items, ts, compact_at=marks)
    assert replay_timed(make(), items, ts, sorted(set(cuts)), compact_at=marks) == expect


NON_FINITE = [math.nan, math.inf, -math.inf]
TIMED_MAKERS = {
    **POOL_MAKERS,
    "tw_f0": lambda: TimeWindowF0Sampler(40, horizon=1.0, seed=23),
}


class TestNonFiniteClock:
    """NaN / ±inf timestamps are rejected up front; a rejected chunk or
    clock leaves the state bytes unchanged and a valid retry succeeds."""

    @pytest.mark.parametrize("kind", sorted(TIMED_MAKERS))
    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_rejected_without_mutation(self, kind, bad):
        s = TIMED_MAKERS[kind]()
        s.update_batch([1, 2, 3], [1.0, 2.0, 2.5])
        before = save_state(s)
        with pytest.raises(ValueError, match="timestamps must be finite"):
            s.update_batch([4, 5, 6], [3.0, 4.0, bad])
        with pytest.raises(ValueError, match="timestamps must be finite"):
            s.update_batch([4], [bad])
        with pytest.raises(ValueError, match="timestamps must be finite"):
            s.update(4, bad)
        with pytest.raises(ValueError, match="timestamps must be finite"):
            s.compact(now=bad)
        assert save_state(s) == before
        s.update_batch([4, 5], [3.0, 4.0])
        s.update(6, 4.5)
        s.compact(now=5.0)
        assert s.position == 6 and s.now == 5.0


class TestMetricsRegistry:
    def test_pools_report_to_the_construction_registry(self):
        """Generation pools are born at ingest, outside the scope that
        built the sampler; births, restores and merge copies must all
        report to the sampler's registry, not the global default."""
        glob = MetricsRegistry()
        old = set_default_registry(glob)
        try:
            reg = MetricsRegistry()
            with use_registry(reg):
                a, restored, merged = (POOL_MAKERS["tw_g"]() for __ in range(3))
            other = TimeWindowGSampler(
                HuberMeasure(1.0), horizon=1.0, instances=12, seed=24
            )
            items, ts = gappy_timed_stream(800, 40, 1.0, seed=35)
            a.update_batch(items, ts)  # births outside the scope
            ours = reg.get("repro_ingest_heap_events_total")
            assert ours.total() == sum(g.pool.heap_events for g in a._generations) > 0
            other.update_batch(items[:100], ts[:100])
            theirs = glob.get("repro_ingest_heap_events_total").total()
            assert theirs > 0

            load_state(restored, save_state(a))
            merged.merge(other)  # merged holds nothing: copies other's gens
            before = ours.total()
            restored.update_batch(items[:300], ts[-1] + 0.001 * np.arange(300))
            merged.update_batch(items[100:400], ts[100:400])
            assert ours.total() > before
            assert glob.get("repro_ingest_heap_events_total").total() == theirs
        finally:
            set_default_registry(old)
