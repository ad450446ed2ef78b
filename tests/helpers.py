"""Shared test helpers (a proper importable module, *not* conftest).

``assert_matches_distribution`` lives in :mod:`repro.stats.harness` so
benchmarks and examples can use the same exactness check; this module
re-exports it for tests.  Import it as ``from helpers import
assert_matches_distribution`` — ``conftest.py`` is reserved for fixtures
(pytest imports conftest modules under a shared name, so library code in
them collides across directories).
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.core.reservoir import skip_next_replacement
from repro.engine.state import save_state
from repro.stats import assert_matches_distribution

__all__ = [
    "assert_matches_distribution",
    "gappy_timed_stream",
    "reference_pool_merge",
    "replay_timed",
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


def reference_pool_merge(pool, other) -> list[bool]:
    """The executable spec of ``SamplerPool.merge``: the pairwise rule
    written out instance by instance, one scalar coin per instance and
    one scalar ``skip_next_replacement`` per redrawn replacement time.

    Instance ``k`` keeps ``pool``'s instance with probability
    ``m₁/(m₁+m₂)`` (no coin when ``m₁ = 0``), else adopts ``other``'s
    with its timestamp shifted by ``m₁``; counts and refs are built in
    first-pick order, each count the largest picked forward count of
    its item.  Mutates ``pool`` and returns the kept mask.
    """
    m1, m2 = pool._t, other._t
    if m2 == 0:
        return [True] * pool._r
    total = m1 + m2
    mine = pool.finalize()
    theirs = other.finalize()
    kept_self: list[bool] = []
    picks: list[tuple[int, int, int]] = []
    for k in range(pool._r):
        if m1 > 0 and pool._rng.random() < m1 / total:
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
    for k, (item, count, ts) in enumerate(picks):
        pool._items[k] = item
        pool._offsets[k] = counts[item] - count
        pool._timestamps[k] = ts
    pool._counts = counts
    pool._refs = refs
    pool._t = total
    jumps = [skip_next_replacement(total, pool._rng) for __ in range(pool._r)]
    pool._heap = list(zip(jumps, range(pool._r)))
    heapq.heapify(pool._heap)
    pool._heap_events += other._heap_events
    return kept_self
