"""Pool clones and the single-pass merge.

``SamplerPool.__deepcopy__`` (and the time-window generation's) clone at
the cost of the state; every fold and query view is built from such
clones, so a clone must be byte-for-byte the original and share nothing
mutable with it.  ``SamplerPool.merge`` must stay bitwise
equal to its pairwise spec, :func:`helpers.reference_pool_merge`.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import pool_columns, reference_pool_merge
from repro.core.g_sampler import SamplerPool
from repro.core.measures import HuberMeasure
from repro.core.reservoir import skip_next_replacement, skip_next_replacements
from repro.engine import ShardedSamplerEngine
from repro.engine.state import save_state
from repro.lifecycle import (
    generator_from_state,
    rebind_query_rngs,
    spawn_query_view,
)
from repro.obs import MetricsRegistry
from repro.sliding_window import SlidingWindowGSampler
from repro.streams import zipf_stream

N = 4096
CONFIGS = {
    "g": {"kind": "g", "measure": {"name": "huber"}, "instances": 16},
    "lp": {"kind": "lp", "p": 2.0, "n": N, "instances": 16},
    "tw_g": {"kind": "tw_g", "measure": {"name": "huber"}, "horizon": 40.0,
             "instances": 16},
    "tw_lp": {"kind": "tw_lp", "p": 2.0, "horizon": 40.0, "instances": 16},
    "window_bank": {"kind": "window_bank", "p": 2.0, "n": N, "instances": 8,
                    "resolutions": [10.0, 40.0]},
}
TIMED = {"tw_g", "tw_lp", "window_bank"}


def _stream(size: int, seed: int, t0: float = 0.0):
    items = np.asarray(zipf_stream(N, size, alpha=1.2, seed=seed).items)
    ts = t0 + np.cumsum(np.random.default_rng(seed).exponential(0.05, size))
    return items.astype(np.int64), ts


def _shards(kind: str):
    """Two shards of one engine fed one stream: a sampler, a sampler of
    the disjoint other partition, and more items for the first."""
    engine = ShardedSamplerEngine(dict(CONFIGS[kind]), shards=2, seed=3)
    items, ts = _stream(3000, 1)
    engine.ingest(items, timestamps=ts if kind in TIMED else None)
    more, more_ts = _stream(800, 2, t0=float(ts[-1]))
    mine = np.array([engine.shard_of(int(x)) == 0 for x in more])
    return engine.samplers[0], engine.samplers[1], more[mine], more_ts[mine]


def _feed(sampler, kind, items, ts) -> None:
    if kind in TIMED:
        sampler.update_batch(items, ts)
    else:
        sampler.update_batch(items)


@pytest.mark.parametrize("kind", sorted(CONFIGS))
class TestCloneFidelity:
    def test_clone_snapshot_is_bitwise_the_original(self, kind):
        sampler, __, ___, ____ = _shards(kind)
        assert save_state(copy.deepcopy(sampler)) == save_state(sampler)

    def test_clone_shares_no_mutable_state(self, kind):
        sampler, other, items, ts = _shards(kind)
        before = save_state(sampler)
        other_before = save_state(other)
        clone = copy.deepcopy(sampler)
        _feed(clone, kind, items, ts)
        clone.merge(other)
        _query(clone, kind)
        assert save_state(clone) != before
        assert save_state(sampler) == before
        assert save_state(other) == other_before

    def test_clone_keeps_rng_aliases(self, kind):
        sampler, __, ___, ____ = _shards(kind)
        clone = copy.deepcopy(sampler)
        if kind in ("g", "lp"):
            assert sampler._rng is sampler._pool._rng
            assert clone._rng is clone._pool._rng
            assert clone._rng is not sampler._rng
        for mine, theirs in zip(_pools(clone), _pools(sampler), strict=True):
            assert mine is not theirs
            assert mine._rng is not theirs._rng
            assert mine._rng.bit_generator.state == theirs._rng.bit_generator.state


def _query(sampler, kind):
    if kind == "window_bank":
        return sampler.sample_many(4, 10.0, now=sampler.watermark() + 5.0)
    if kind in TIMED:
        return sampler.sample_many(4, now=sampler.watermark() + 5.0)
    return sampler.sample_many(4)


def _pools(sampler) -> list[SamplerPool]:
    if hasattr(sampler, "_pool"):
        return [sampler._pool]
    if hasattr(sampler, "_generations"):
        return [gen.pool for gen in sampler._generations]
    if hasattr(sampler, "_members"):
        return [pool for member in sampler._members() for pool in _pools(member)]
    return []  # the F0 members hold no pool


def _heap_events_total(registry: MetricsRegistry) -> float:
    for line in registry.render_prometheus().splitlines():
        if line.startswith("repro_ingest_heap_events_total "):
            return float(line.split()[-1])
    return 0.0


def test_pool_clone_is_the_original_and_shares_nothing_mutable():
    """A clone's snapshot bytes and finals are the original's; every
    mutator (scalar and batched ingest, merge, restore) run on one side
    leaves the other side's bytes and finals as they were; only the
    metrics counter is shared, so both sides' heap events add up in it."""
    registry = MetricsRegistry()
    pool = SamplerPool(8, seed=5, registry=registry)
    pool.update_batch(np.arange(200) % 13)
    other = SamplerPool(8, seed=6)
    other.update_batch(np.arange(100) + 1000)
    snap = SamplerPool(8, seed=7)
    snap.update_batch(np.arange(50) % 3)
    for mutate_clone in (True, False):
        clone = copy.deepcopy(pool)
        assert save_state(clone) == save_state(pool)
        assert clone.finalize() == pool.finalize()
        fixed, moved = (pool, clone) if mutate_clone else (clone, pool)
        before, finals = save_state(fixed), fixed.finalize()
        counted = _heap_events_total(registry)
        events = moved.heap_events
        moved.update_batch(np.arange(300) % 17)
        for item in range(40):
            moved.update(item % 7)
        assert _heap_events_total(registry) == counted + moved.heap_events - events
        moved.merge(other)
        assert save_state(fixed) == before
        assert fixed.finalize() == finals
        moved.restore(snap.snapshot())
        assert save_state(fixed) == before
        assert fixed.finalize() == finals


def test_finals_follow_every_mutator_and_clones():
    """``finalize`` is computed once per pool state: after each mutator
    (``update``, ``update_batch``, ``merge``, ``restore``) it equals a
    freshly restored pool's answer, and mutating a clone (which starts
    from the original's answer) leaves the original's unchanged."""
    items = np.asarray(zipf_stream(100, 2000, alpha=1.2, seed=8).items)
    pool = SamplerPool(16, seed=1)
    other = SamplerPool(16, seed=2)
    other.update_batch(items + 10_000)
    donor = SamplerPool(16, seed=3)
    donor.update_batch(items[:700])

    def fresh(p: SamplerPool) -> list:
        return SamplerPool.from_snapshot(p.snapshot()).finalize()

    steps = [
        lambda p: p.update_batch(items[:500]),
        lambda p: p.update(int(items[500])),
        lambda p: [p.update(item) for item in items[501:900].tolist()],
        lambda p: p.merge(other),
        lambda p: p.restore(donor.snapshot()),
        lambda p: p.update_batch(items[900:]),
    ]
    for step in steps:
        answer = pool.finalize()
        clone = copy.deepcopy(pool)
        assert clone.finalize() == answer
        step(clone)
        assert clone.finalize() == fresh(clone)
        assert pool.finalize() == answer
        step(pool)
        assert pool.finalize() == fresh(pool) == clone.finalize()


def test_clone_of_a_sliding_window_shares_no_stream():
    """A count window's clone snapshots as the original, and none of its
    generations draws from an RNG of the original's."""
    sampler = SlidingWindowGSampler(HuberMeasure(), window=300, instances=8, seed=2)
    sampler.update_batch(np.asarray(zipf_stream(64, 900, seed=4).items))
    assert len(sampler._generations) > 1
    clone = copy.deepcopy(sampler)
    assert save_state(clone) == save_state(sampler)
    originals = {id(sampler._rng)} | {
        id(gen.pool._rng) for gen in sampler._generations
    }
    assert id(clone._rng) not in originals
    assert all(id(gen.pool._rng) not in originals for gen in clone._generations)


@pytest.mark.parametrize("kind", ["g", "lp"])
def test_view_hook_equals_generic_view(kind):
    """The G/Lp ``spawn_query_rng`` hook builds exactly what the generic
    deep copy plus rebind walk builds."""
    sampler, other, __, ___ = _shards(kind)
    sampler.merge(other)
    hooked = spawn_query_view(sampler, np.random.default_rng(9))
    generic = copy.deepcopy(sampler)
    rebind_query_rngs(generic, np.random.default_rng(9))
    assert hooked._rng is hooked._pool._rng
    assert save_state(hooked) == save_state(generic)
    assert hooked.sample_many(20) == generic.sample_many(20)
    assert save_state(hooked) == save_state(generic)


class TestGeneratorFromState:
    def test_continues_the_stream(self):
        rng = np.random.default_rng(7)
        rng.random(5)
        twin = generator_from_state(rng.bit_generator.state)
        assert twin.bit_generator.state == rng.bit_generator.state
        assert twin.random(8).tolist() == rng.random(8).tolist()

    def test_other_bit_generators(self):
        rng = np.random.Generator(np.random.MT19937(3))
        assert generator_from_state(rng.bit_generator.state).random() == rng.random()

    @pytest.mark.parametrize("state", [{}, {"bit_generator": "Generator"}, None])
    def test_rejects_unknown_state(self, state):
        with pytest.raises(ValueError):
            generator_from_state(state)

    def test_restores_read_no_os_entropy(self, monkeypatch):
        """Restores build their generators from the saved state alone."""
        bank, __, ___, ____ = _shards("window_bank")
        g, __, ___, ____ = _shards("g")
        states = [(bank, bank.snapshot()), (g, g.snapshot())]
        want = [save_state(sampler) for sampler, __ in states]

        def entropy(*args, **kwargs):
            raise AssertionError("default_rng called during a restore")

        monkeypatch.setattr(np.random, "default_rng", entropy)
        for sampler, state in states:
            sampler.restore(state)
        pool = SamplerPool.from_snapshot(g._pool.snapshot())
        monkeypatch.undo()
        assert [save_state(sampler) for sampler, __ in states] == want
        assert save_state(pool) == save_state(g._pool)


# ---------------------------------------------------------------------------
# The single-pass merge against its pairwise spec
# ---------------------------------------------------------------------------
_BOUND_IDS = [-(1 << 63), -(1 << 63) + 1, -1, 0, (1 << 63) - 2, (1 << 63) - 1]
_IDS = st.one_of(
    st.sampled_from(_BOUND_IDS),
    st.integers(min_value=-(1 << 63), max_value=-1),
    st.integers(min_value=-(1 << 63), max_value=(1 << 63) - 1),
)


def _merged_both_ways(a: SamplerPool, b: SamplerPool):
    want, got = copy.deepcopy(a), copy.deepcopy(a)
    want_mask = reference_pool_merge(want, b)
    got_mask = got.merge(b)
    return want, want_mask, got, got_mask


def _assert_same_merge(a: SamplerPool, b: SamplerPool) -> None:
    b_before = save_state(b)
    want, want_mask, got, got_mask = _merged_both_ways(a, b)
    assert got_mask == want_mask
    assert save_state(got) == save_state(want)
    assert got.snapshot()["rng_state"] == want.snapshot()["rng_state"]
    # First-pick order of the tracked items.
    assert (pool_columns(got.snapshot())["ref_keys"].tolist()
            == pool_columns(want.snapshot())["ref_keys"].tolist())
    assert save_state(b) == b_before


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    instances=st.sampled_from([1, 3, 64]),
    ids=st.lists(_IDS, min_size=2, max_size=16, unique=True),
)
def test_merge_matches_pairwise_spec(data, instances, ids):
    """Random pool pairs over disjoint id sets (m₁ or m₂ may be 0): the
    kept mask, the snapshot bytes and the RNG end state all equal the
    pairwise spec's."""
    split = data.draw(st.integers(1, len(ids) - 1))
    pools = []
    for seed, side in enumerate((ids[:split], ids[split:])):
        picks = data.draw(st.lists(st.integers(0, len(side) - 1), max_size=200))
        pool = SamplerPool(instances, seed=seed + 11)
        pool.update_batch(np.asarray([side[j] for j in picks], dtype=np.int64))
        pools.append(pool)
    a, b = pools
    _assert_same_merge(a, b)
    _assert_same_merge(b, a)


def test_merge_exact_jump_fallback():
    """A merged length past 2^53 takes the Python-int jump path; it must
    still equal the spec bitwise.  Jumps that far out saturate at
    2^63 − 1, so the merged pool still snapshots."""
    a, b = SamplerPool(64, seed=1), SamplerPool(64, seed=2)
    a.update_batch(np.arange(500) % 7)
    b.update_batch(np.arange(300) % 5 + 100)
    state = a.snapshot()
    state["position"] = (1 << 60) + 3
    a.restore(state)
    __, ___, got, ____ = _merged_both_ways(a, b)
    assert got.position > 1 << 53
    assert pool_columns(got.snapshot())["heap_times"].max() == (1 << 63) - 1
    _assert_same_merge(a, b)


def test_skip_jumps_fall_back_when_a_jump_reaches_2_62():
    """Below 2^53 a uniform under t/2^62 still makes a jump the float path
    cannot hold; the fallback must match the scalar rule."""
    times = [1 << 52] * 20_000
    rng = np.random.default_rng(0)
    assert (rng.random(len(times)) < (1 << 52) / 2.0**62).any()  # it happens
    wide = [-(1 << 63), -1, 0, 1, (1 << 53) - 1, 1 << 53, (1 << 63) - 1, 1 << 70]
    for times in (times, wide, [0] * 5, []):
        a, b = np.random.default_rng(0), np.random.default_rng(0)
        want = [skip_next_replacement(t, a) for t in times]
        got = skip_next_replacements(times, b)
        assert got == want
        assert all(type(x) is int for x in got)
        assert a.bit_generator.state == b.bit_generator.state
