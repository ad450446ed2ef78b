"""Shared test helpers (a proper importable module, *not* conftest).

``assert_matches_distribution`` lives in :mod:`repro.stats.harness` so
benchmarks and examples can use the same exactness check; this module
re-exports it for tests.  Import it as ``from helpers import
assert_matches_distribution`` — ``conftest.py`` is reserved for fixtures
(pytest imports conftest modules under a shared name, so library code in
them collides across directories).
"""

from __future__ import annotations

import numpy as np

from repro.core.measures import HuberMeasure
from repro.core.reservoir import skip_next_replacement
from repro.engine.state import save_state
from repro.lifecycle import generator_from_state
from repro.stats import assert_matches_distribution
from repro.windows import TimeWindowGSampler, WindowBank

__all__ = [
    "F0_FIELDS",
    "assert_matches_distribution",
    "bucket_cuts_spec",
    "chunked_window_feeds",
    "f0_state",
    "gappy_timed_stream",
    "kway_folds",
    "pool_columns",
    "reference_pool_merge",
    "replay_timed",
    "staggered_stream",
    "staggered_window_shards",
]


def gappy_timed_stream(m: int, n: int, horizon: float, seed: int):
    """``m`` skewed ids in ``[0, n)`` with non-decreasing timestamps:
    about 40 arrivals per ``horizon``, ~10% ties, and ~1% quiet spells
    of 2–5 horizons (so windows fully expire mid-stream)."""
    rng = np.random.default_rng(seed)
    items = (rng.zipf(1.3, size=m) - 1) % n
    gaps = rng.exponential(horizon / 40.0, size=m)
    gaps[rng.random(m) < 0.1] = 0.0
    spells = rng.random(m) < 0.01
    gaps[spells] += rng.uniform(2.0, 5.0, size=int(spells.sum())) * horizon
    return items.astype(np.int64), np.cumsum(gaps)


def bucket_cuts_spec(ts: np.ndarray, horizon: float) -> tuple[np.ndarray, list[int]]:
    """Every item's time bucket ``ts // horizon`` and the offsets where
    the bucket changes (including 0 and ``len``), by one floor-divide
    over the whole chunk: the executable spec of
    :func:`repro.windows.chunking.bucket_cuts`, which searches instead."""
    buckets = (ts // horizon).astype(np.int64)
    cuts = [0, *(np.flatnonzero(np.diff(buckets)) + 1).tolist(), int(ts.size)]
    return buckets, cuts


def replay_timed(sampler, items, ts, cuts=None, compact_at=()) -> bytes:
    """Feed a timestamped stream and return the final ``save_state``.

    With ``cuts=None`` every item goes through scalar ``update`` (the
    executable spec); otherwise each piece between consecutive offsets
    of ``cuts`` is one ``update_batch`` call.  Before the item at each
    offset in ``compact_at`` the sampler runs ``compact(now=)`` at that
    item's timestamp (so the watermark never passes a later arrival).
    """
    size = len(items)
    marks = set(compact_at)
    bounds = set(range(size + 1) if cuts is None else cuts)
    bounds = sorted(bounds | marks | {0, size})
    for a, b in zip(bounds[:-1], bounds[1:]):
        if a in marks:
            sampler.compact(now=float(ts[a]))
        if cuts is None:
            for item, when in zip(items[a:b].tolist(), ts[a:b].tolist()):
                sampler.update(item, when)
        else:
            sampler.update_batch(items[a:b], ts[a:b])
    return save_state(sampler)


def chunked_window_feeds() -> dict[str, bytes]:
    """``save_state`` of a ``tw_g`` sampler and a ``window_bank`` fed one
    gappy timestamped stream in 300-item chunks (many crossing bucket
    boundaries): what the compiled and the Python arrival-stamp rules
    must agree on."""
    items, ts = gappy_timed_stream(4000, 60, 1.0, seed=92)
    makers = {
        "tw_g": lambda: TimeWindowGSampler(
            HuberMeasure(1.0), horizon=1.0, instances=16, seed=93
        ),
        "window_bank": lambda: WindowBank(
            (1.0, 4.0), p=2.0, n=60, instances=16, seed=94
        ),
    }
    cuts = range(0, len(items), 300)
    return {kind: replay_timed(make(), items, ts, cuts) for kind, make in makers.items()}


#: Which 10-second buckets each of three shards receives updates in:
#: shard 0 keeps generations 1 and 3, shard 1 keeps 0 and 2, shard 2
#: keeps 0.  At the last two buckets (2 and 3) shard 0 lends bucket 3's
#: generation to bucket 2, and shards 1 and 2 have nothing at bucket 3.
STAGGERED_BUCKETS = ({0, 1, 3}, {0, 2}, {0})
STAGGERED_N = 30


def staggered_stream(seed: int) -> tuple[np.ndarray, np.ndarray]:
    """One timestamped stream over ``[0, 40)`` of Zipf ids in
    ``[0, 30)``, kept only where :data:`STAGGERED_BUCKETS` lets the
    id's shard (``id % 3``) receive it: the union of what
    :func:`staggered_window_shards` feeds."""
    rng = np.random.default_rng(seed)
    items = ((rng.zipf(1.2, size=1200) - 1) % STAGGERED_N).astype(np.int64)
    ts = np.sort(rng.uniform(0.0, 40.0, size=items.size))
    keep = [int(t // 10.0) in STAGGERED_BUCKETS[item % 3]
            for item, t in zip(items.tolist(), ts.tolist())]
    return items[keep], ts[keep]


def staggered_window_shards(make, seed: int, shards=(0, 1, 2)) -> list:
    """``make(j)`` (a fresh time-window sampler or bank for shard ``j``)
    fed shard ``j``'s part of :func:`staggered_stream`, for each ``j`` in
    ``shards`` (in that order)."""
    items, ts = staggered_stream(seed)
    out = []
    for j in shards:
        sampler = make(j)
        mine = items % 3 == j
        sampler.update_batch(items[mine], ts[mine])
        out.append(sampler)
    return out


def kway_folds() -> dict[str, bytes]:
    """``save_state`` of K-way folds: four pools (one empty), and three
    staggered ``tw_g`` shards and ``window_bank`` shards (Lp rungs with
    their count tables, F0 rungs on a shared subset seed): what the
    compiled and the Python fold rules must agree on."""
    from repro.core.g_sampler import SamplerPool
    from repro.engine.state import merged

    pools = []
    for j, m in enumerate((700, 0, 1300, 90)):
        pool = SamplerPool(16, seed=40 + j)
        pool.update_batch(np.arange(m, dtype=np.int64) % (50 + j) + 1000 * j)
        pools.append(pool)
    makers = {
        "tw_g": lambda j: TimeWindowGSampler(
            HuberMeasure(1.0), horizon=10.0, instances=16, seed=50 + j
        ),
        "window_bank": lambda j: WindowBank(
            (10.0, 20.0), p=2.0, n=STAGGERED_N, instances=16, seed=60 + j, f0_seed=7
        ),
    }
    return {
        "pools": save_state(SamplerPool.fold(pools)),
        **{kind: save_state(merged(staggered_window_shards(make, seed=9)))
           for kind, make in makers.items()},
    }


#: The snapshot fields of one Algorithm-5 F0 copy that ingest sets: the
#: first-seen items in order, the counters in insertion order, overflow.
F0_FIELDS = ("first", "count_keys", "count_vals", "overflowed")


def f0_state(copy, *fields: str) -> list:
    """The named fields of an Algorithm-5 F0 copy's snapshot, as plain
    values (arrays as lists, in their snapshot order)."""
    state = copy.snapshot()
    return [
        state[name].tolist() if isinstance(state[name], np.ndarray) else state[name]
        for name in fields
    ]


def pool_columns(state: dict) -> dict:
    """A ``SamplerPool`` snapshot (one state buffer) in the older
    ten-column form, which ``restore`` still loads: per-instance
    ``items`` (-1 where empty), ``items_live``, ``offsets`` and
    ``timestamps``, the heap as sorted ``heap_times`` / ``heap_slots``,
    and the tracked items' ``count_keys`` / ``count_vals`` and
    ``ref_keys`` / ``ref_vals`` in insertion order.  Every array is a
    fresh copy, so a test may break one and restore the result."""
    r = state["instances"]
    v = np.asarray(state["state"], dtype=np.int64)
    tracked = int(v[0])

    def col(index: int, n: int = r) -> np.ndarray:
        return v[1 + index * r:1 + index * r + n].copy()

    live, heap, keys = col(1), col(4, 2 * r), col(6, tracked)
    return {
        "kind": state["kind"],
        "instances": r,
        "position": state["position"],
        "heap_events": state["heap_events"],
        "items": np.where(live != 0, col(0), -1),
        "items_live": live,
        "offsets": col(2),
        "timestamps": col(3),
        "heap_times": heap[0::2].copy(),
        "heap_slots": heap[1::2].copy(),
        "count_keys": keys,
        "count_vals": col(7, tracked),
        "ref_keys": keys.copy(),
        "ref_vals": col(8, tracked),
        "rng_state": state["rng_state"],
    }


def reference_pool_merge(pool, other) -> list[bool]:
    """The executable spec of ``SamplerPool.merge``: the pairwise rule
    written out instance by instance, one scalar coin per instance and
    one scalar ``skip_next_replacement`` per redrawn replacement time.

    Instance ``k`` keeps ``pool``'s instance with probability
    ``m₁/(m₁+m₂)`` (no coin when ``m₁ = 0``), else adopts ``other``'s
    with its timestamp shifted by ``m₁``; counts and refs are built in
    first-pick order, each count the largest picked forward count of
    its item.  Reads both pools through ``finalize`` / ``snapshot`` and
    writes the result back through ``restore`` in the ten-column form
    (so ``pool``'s generator is replaced by one continuing the same
    stream); returns the kept mask.
    """
    r = pool.instances
    m1, m2 = pool.position, other.position
    if m2 == 0:
        return [True] * r
    total = m1 + m2
    mine = pool.finalize()
    theirs = other.finalize()
    state = pool_columns(pool.snapshot())
    rng = generator_from_state(state["rng_state"])
    kept_self: list[bool] = []
    picks: list[tuple[int, int, int]] = []
    for k in range(r):
        if m1 > 0 and rng.random() < m1 / total:
            kept_self.append(True)
            picks.append(mine[k])
        else:
            kept_self.append(False)
            item, count, ts = theirs[k]
            picks.append((item, count, m1 + ts))
    counts: dict[int, int] = {}
    refs: dict[int, int] = {}
    for item, count, __ in picks:
        refs[item] = refs.get(item, 0) + 1
        counts[item] = max(counts.get(item, 0), count)
    jumps = [skip_next_replacement(total, rng) for __ in range(r)]
    heap = sorted(zip(jumps, range(r)))

    def col(values) -> np.ndarray:
        return np.array(list(values), dtype=np.int64)

    state.update(
        position=total,
        heap_events=pool.heap_events + other.heap_events,
        items=col(item for item, __, ___ in picks),
        items_live=np.ones(r, dtype=np.int64),
        offsets=col(counts[item] - count for item, count, __ in picks),
        timestamps=col(ts for __, ___, ts in picks),
        heap_times=col(when for when, __ in heap),
        heap_slots=col(idx for __, idx in heap),
        count_keys=col(counts),
        count_vals=col(counts.values()),
        ref_keys=col(refs),
        ref_vals=col(refs.values()),
        rng_state=rng.bit_generator.state,
    )
    pool.restore(state)
    return kept_self
