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

from repro.engine.state import save_state
from repro.stats import assert_matches_distribution

__all__ = ["assert_matches_distribution", "gappy_timed_stream", "replay_timed"]


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
