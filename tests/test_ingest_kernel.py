"""The one pool ingest kernel.

The contract under test: batched ingest — phase-1 heap events planned
per pool (``plan_batch``), one candidate-limited :class:`PositionIndex`
over each chunk in chunk-local dense ids, data applied through
:class:`ShardView` position views by the pool's one event loop — is
*bitwise identical* to the scalar ``update()`` loop, for every
pool-backed registry kind, every shard count (K=1 is the one-view case),
every id width (16-bit, beyond 2^32, negative), every way of cutting the
stream into ``ingest`` calls, and across the whole lifecycle
(snapshot/restore, merge, compact).  The perf story in
``benchmarks/perf_suite.py`` (scenario ``ingest_kernel``) rides entirely
on this equivalence.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.g_sampler import SamplerPool
from repro.core.reservoir import skip_next_replacement, skip_next_replacements
from repro.core.timeline import PositionIndex, ShardView
from repro.engine import ShardedSamplerEngine
from repro.obs import MetricsRegistry, use_registry


def norm(state):
    """Normalize a snapshot tree (numpy arrays → lists) so bitwise-equal
    states compare equal regardless of container type."""
    if isinstance(state, dict):
        return {k: norm(v) for k, v in state.items()}
    if isinstance(state, (list, tuple)):
        return [norm(v) for v in state]
    if isinstance(state, np.ndarray):
        return [norm(v) for v in state.tolist()]
    if isinstance(state, np.generic):
        return state.item()
    return state


#: Every registry kind whose ingest path bottoms out in SamplerPool's
#: batched kernel.  ``lp`` is pinned to p=1 here: for p > 1 the
#: Misra–Gries normalizer's batched update is documented as
#: distribution-preserving but not bitwise (only the pool half is), so
#: bitwise parity is asserted exactly where the contract promises it.
POOL_BACKED = [
    ("g", {"kind": "g", "measure": {"name": "huber"}, "instances": 24}),
    ("lp-p1", {"kind": "lp", "p": 1.0, "n": 1 << 12, "instances": 24}),
    ("pool", {"kind": "pool", "instances": 16}),
]


def _assert_same_sample(kind, a: ShardedSamplerEngine, b: ShardedSamplerEngine):
    if kind == "pool":  # the raw pool is query-less substrate
        return
    assert a.sample() == b.sample()


def _zipf(m: int, top: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return (np.minimum(rng.zipf(1.3, size=m), top) - 1).astype(np.int64)


def _feed_scalar(engine: ShardedSamplerEngine, items: np.ndarray) -> None:
    for item in items.tolist():
        engine.update(item)


#: Id shapes beyond the Zipf ranks' small non-negative range: past the
#: 16-bit table, past 32 bits, and negative.
ID_SHAPES = {
    "ge-2^16": lambda z: z + (1 << 17),
    "ge-2^32": lambda z: z * (1 << 33) + (1 << 32),
    "negative": lambda z: z - 150,
}


@pytest.mark.parametrize("kind,config", POOL_BACKED, ids=[k for k, _ in POOL_BACKED])
@pytest.mark.parametrize("shards", [1, 2, 8])
class TestEngineScalarParity:
    def test_batched_ingest_matches_scalar_loop(self, kind, config, shards):
        items = _zipf(3000, 400, seed=17)
        batched = ShardedSamplerEngine(dict(config), shards=shards, seed=5)
        scalar = ShardedSamplerEngine(dict(config), shards=shards, seed=5)
        # Uneven chunking: batch boundaries must not be observable.
        batched.ingest(items[:1100], chunk_size=257)
        batched.ingest(items[1100:], chunk_size=1 << 16)
        _feed_scalar(scalar, items)
        assert norm(batched.snapshot()) == norm(scalar.snapshot())
        _assert_same_sample(kind, batched, scalar)

    def test_parity_survives_lifecycle(self, kind, config, shards):
        """compact → merge → snapshot/restore, then keep ingesting:
        the batched and scalar paths must stay bitwise locked through
        every lifecycle edge, not just on a fresh sampler."""
        _check_lifecycle_parity(kind, config, shards, lambda z: z)

    @pytest.mark.parametrize("shape", sorted(ID_SHAPES))
    def test_wide_and_negative_ids_survive_lifecycle(
        self, kind, config, shards, shape
    ):
        _check_lifecycle_parity(kind, config, shards, ID_SHAPES[shape])


def _check_lifecycle_parity(kind, config, shards, shape) -> None:
    s1, s2, s3 = (shape(_zipf(1200, 300, seed=s)) for s in (21, 22, 23))
    batched = ShardedSamplerEngine(dict(config), shards=shards, seed=9)
    scalar = ShardedSamplerEngine(dict(config), shards=shards, seed=9)
    # Same seed: engine merge demands an identical partition layout
    # (the real deployment — one config fed from two sites).
    other_b = ShardedSamplerEngine(dict(config), shards=shards, seed=9)
    other_s = ShardedSamplerEngine(dict(config), shards=shards, seed=9)
    batched.ingest(s1, chunk_size=389)
    _feed_scalar(scalar, s1)
    other_b.ingest(s2, chunk_size=389)
    _feed_scalar(other_s, s2)
    batched.compact()
    scalar.compact()
    batched.merge(other_b)
    scalar.merge(other_s)
    snap = batched.snapshot()
    assert norm(snap) == norm(scalar.snapshot())
    # Replica boot: same config/seed (restore demands the layout),
    # state then overwritten wholesale by the snapshot.
    restored = ShardedSamplerEngine(dict(config), shards=shards, seed=9)
    restored.restore(snap)
    batched.ingest(s3, chunk_size=1 << 16)
    _feed_scalar(restored, s3)
    assert norm(batched.snapshot()) == norm(restored.snapshot())
    _assert_same_sample(kind, batched, restored)


ADVERSARIAL = {
    # Heap events pile onto a single shard; every settle hits one value.
    "all-one-item": np.full(4000, 7, dtype=np.int64),
    # No item repeats: the index's heavy side is all singletons.
    "all-distinct": np.arange(4000, dtype=np.int64),
    # The value span jumps mid-stream: chunks switch between the span
    # table and the searchsorted value→id map without drifting.
    "mixed-range": np.concatenate(
        [_zipf(1500, 200, seed=3), _zipf(1500, 200, seed=4) + (1 << 17),
         _zipf(1000, 200, seed=5)]
    ),
    # Negative ids index like any others.
    "negative-ids": _zipf(2000, 300, seed=6) - 150,
}


@pytest.mark.parametrize("name", sorted(ADVERSARIAL))
def test_adversarial_chunks_match_scalar(name):
    items = ADVERSARIAL[name]
    config = {"kind": "g", "measure": {"name": "lp", "p": 2.0}, "instances": 16}
    scalar = ShardedSamplerEngine(dict(config), shards=4, seed=2)
    _feed_scalar(scalar, items)
    want = norm(scalar.snapshot())
    # One-item calls put every heap event on a call boundary; larger
    # calls put many events, settles and the flush inside one index.
    for call in (1, 7, 997, 1 << 16):
        engine = ShardedSamplerEngine(dict(config), shards=4, seed=2)
        for start in range(0, items.size, call):
            engine.ingest(items[start:start + call])
        assert norm(engine.snapshot()) == want, f"{name}: calls of {call}"


class TestPositionIndex:
    def _check(self, base, cand, queries, bounds, prefix=None):
        index = PositionIndex(base, cand, prefix)
        got = index.rank_many(queries, bounds)
        members = set(cand.tolist())
        for j, (v, g) in enumerate(zip(queries.tolist(), bounds.tolist())):
            want = int(np.sum(base[:g] == v)) if v in members else 0
            assert got[j] == want, (v, g)
        for v in queries.tolist():
            want = int(np.sum(base == v)) if v in members else 0
            assert index.totals.get(v, 0) == want, v

    def test_rank_many_heavy_and_light(self):
        # >255 candidates forces the heavy/light split: the 255 largest
        # by chunk mass take the uint8 radix side, the rest the second
        # sort over the group-255 tail.  The value span is narrow, so
        # values map through the span table.
        rng = np.random.default_rng(31)
        base = _zipf(5000, 450, seed=31)
        cand = np.unique(rng.choice(450, size=320, replace=False)).astype(np.int64)
        queries = rng.choice(cand, size=600).astype(np.int64)
        bounds = rng.integers(0, base.size + 1, size=600)
        self._check(base, cand, queries, bounds)

    def test_rank_many_all_heavy(self):
        # ≤255 candidates: no light side at all.  Ids ≥ 2^32 spread the
        # span far past the chunk length, so values map by searchsorted
        # into the candidates; ranks are kept over the prefix only.
        rng = np.random.default_rng(32)
        base = _zipf(2000, 90, seed=32) * (1 << 33) + (1 << 32)
        cand = np.unique(base)
        queries = rng.choice(cand, size=300).astype(np.int64)
        bounds = rng.integers(0, 1501, size=300)
        self._check(base, cand, queries, bounds, prefix=1500)

    @pytest.mark.parametrize("shape", sorted(ID_SHAPES))
    def test_rank_many_sorted_candidates(self, shape):
        # Wide, offset or negative ids with >255 candidates: the
        # searchsorted value map under the heavy/light split, ranks over
        # a prefix, and every other distinct value left out.
        rng = np.random.default_rng(34)
        base = ID_SHAPES[shape](rng.integers(0, 800, size=6000) * 977)
        cand = np.unique(base)[::2]
        queries = rng.choice(cand, size=400).astype(np.int64)
        bounds = rng.integers(0, 4001, size=400)
        self._check(base, cand, queries, bounds, prefix=4000)

    def test_out_of_range_and_non_candidate_queries_rank_zero(self):
        base = _zipf(1000, 100, seed=33) * (1 << 40) - (1 << 45)
        cand = np.unique(base)[:50]
        queries = np.array(
            [int(base.min()) - 1, int(base.max()) + 1, int(cand[-1]) + 1,
             int(np.unique(base)[60]), int(cand[5]), int(cand[0])],
            dtype=np.int64,
        )
        bounds = np.full(queries.size, base.size, dtype=np.int64)
        index = PositionIndex(base, cand)
        got = index.rank_many(queries, bounds)
        assert got[0] == 0 and got[1] == 0  # outside the chunk's span
        assert got[2] == 0  # inside the span, absent from the chunk
        assert got[3] == 0  # in the chunk, not a candidate (contract: 0)
        assert got[4] == int(np.sum(base == cand[5]))
        assert got[5] == int(np.sum(base == cand[0]))
        assert index.totals.get(int(queries[2]), 0) == 0
        empty = PositionIndex(base, np.empty(0, dtype=np.int64))
        assert empty.rank_many(queries, bounds).tolist() == [0] * queries.size
        assert empty.totals == {}

    def test_shard_view_materializes_subchunk(self):
        base = np.array([5, 9, 5, 3, 9, 9], dtype=np.int64)
        index = PositionIndex(base, np.unique(base))
        positions = np.array([0, 2, 3], dtype=np.int64)
        view = ShardView(base, positions, index, ([], []))
        assert view.size == 3
        np.testing.assert_array_equal(view.values(), [5, 5, 3])
        np.testing.assert_array_equal(view.chunk_positions(np.array([1, 2])), [2, 3])
        # The identity view (positions None) is the whole chunk.
        whole = ShardView(base, None, index, ([], []))
        assert whole.size == base.size
        assert whole.values() is base
        np.testing.assert_array_equal(whole.chunk_positions(np.array([4])), [4])


class TestScalarKernelContracts:
    def test_skip_next_replacements_bitwise(self):
        # The vectorized skip helper must consume the RNG stream exactly
        # as the scalar helper would — same jumps, same end state.
        for seed in range(6):
            times = np.random.default_rng(100 + seed).integers(
                1, 10_000, size=257
            )
            rng_a = np.random.default_rng(seed)
            rng_b = np.random.default_rng(seed)
            scalar = [skip_next_replacement(int(t), rng_a) for t in times]
            batched = skip_next_replacements(times, rng_b)
            assert list(batched) == scalar
            assert rng_a.bit_generator.state == rng_b.bit_generator.state

    def test_plan_batch_then_view_matches_scalar_updates(self):
        # The engine-internal pairing contract: plan_batch pre-simulates
        # phase 1 (mutating heap + RNG), and the one matching ShardView
        # application must land the exact scalar end state.
        items_a = _zipf(500, 60, seed=50)
        items_b = _zipf(400, 60, seed=51)
        scalar = SamplerPool(instances=8, seed=13)
        pool = SamplerPool(instances=8, seed=13)
        for items in (items_a, items_b):  # second round: tracked ≠ ∅
            for item in items.tolist():
                scalar.update(int(item))
            tracked = pool.tracked_values()
            t0 = pool.position  # plan_batch leaves the position untouched
            plan = pool.plan_batch(items.size)
            parts = [tracked] if tracked.size else []
            if plan[0]:
                offs = np.asarray(plan[0], dtype=np.int64)
                offs -= t0 + 1
                parts.append(items[offs])
            cand = (
                np.unique(np.concatenate(parts))
                if parts
                else np.empty(0, dtype=np.int64)
            )
            view = ShardView(
                items, np.arange(items.size, dtype=np.int64),
                PositionIndex(items, cand), plan,
            )
            pool.update_batch(view)
            assert norm(pool.snapshot()) == norm(scalar.snapshot())


def test_ingest_kernel_counters_exposed():
    reg = MetricsRegistry()
    with use_registry(reg):
        engine = ShardedSamplerEngine(
            {"kind": "pool", "instances": 16}, shards=2, seed=3
        )
    engine.ingest(_zipf(20_000, 500, seed=60))
    text = reg.render_prometheus()
    events = settles = None
    for line in text.splitlines():
        if line.startswith("repro_ingest_heap_events_total "):
            events = float(line.split()[-1])
        if line.startswith("repro_ingest_settle_scans_total "):
            settles = float(line.split()[-1])
    assert events is not None and events > 0
    assert settles is not None and settles >= 0


_ID_POOLS = st.lists(
    st.integers(min_value=-(1 << 63), max_value=(1 << 63) - 1),
    min_size=1, max_size=12, unique=True,
)


@settings(max_examples=40, deadline=None)
@given(
    data=st.data(),
    pool=_ID_POOLS,
    shards=st.sampled_from([1, 3, 8]),
)
def test_any_int64_batches_any_calls_match_scalar(data, pool, shards):
    """Arbitrary int64 ids (drawn from a small pool, so items repeat),
    cut into arbitrary ``ingest`` calls: same snapshot and same next
    sample as the scalar ``update()`` loop."""
    picks = data.draw(st.lists(st.integers(0, len(pool) - 1), max_size=300))
    items = np.asarray([pool[j] for j in picks], dtype=np.int64)
    cuts = sorted(
        data.draw(st.lists(st.integers(0, items.size), max_size=6))
    )
    config = {"kind": "g", "measure": {"name": "huber"}, "instances": 8}
    batched = ShardedSamplerEngine(dict(config), shards=shards, seed=4)
    scalar = ShardedSamplerEngine(dict(config), shards=shards, seed=4)
    for lo, hi in zip([0, *cuts], [*cuts, items.size]):
        batched.ingest(items[lo:hi])
    _feed_scalar(scalar, items)
    assert norm(batched.snapshot()) == norm(scalar.snapshot())
    assert batched.sample() == scalar.sample()
