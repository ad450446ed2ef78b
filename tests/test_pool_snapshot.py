"""A ``SamplerPool`` snapshot is its state buffer, in canonical form.

The contract under test: every route to one pool state — the compiled
loop, the scalar ``update()`` loop, the Python rules that run without a
compiler, ``restore(snapshot())`` and a merge — gives the same
``save_state`` bytes, whatever stale rows the ingest loops leave in the
buffer past ``tracked``; and a checkpoint written in the older
ten-column form still loads and then continues bitwise.
"""

from __future__ import annotations

import copy
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import reference_pool_merge
from repro.core import ingest_kernel
from repro.core.g_sampler import SamplerPool
from repro.engine.registry import build_sampler
from repro.engine.state import load_state, save_state, state_from_bytes

DATA = Path(__file__).parent / "data"


def _python_rules():
    """The pool on its Python rules, as without a compiler."""
    return mock.patch.object(ingest_kernel, "kernel_impl", lambda: "python")


def _rows_past_tracked(snapshot: dict) -> np.ndarray:
    r, v = snapshot["instances"], snapshot["state"]
    return v[1 + 6 * r:].reshape(3, r)[:, int(v[0]):]


_IDS = st.lists(
    st.integers(min_value=-(1 << 63), max_value=(1 << 63) - 1),
    min_size=2, max_size=12, unique=True,
)


@settings(max_examples=40, deadline=None)
@given(data=st.data(), ids=_IDS, instances=st.sampled_from([1, 3, 8]))
def test_every_route_to_a_state_gives_the_same_bytes(data, ids, instances):
    """Random int64 streams (drawn from a small id set, so items repeat
    and untrack) cut into random calls: the compiled loop, the scalar
    ``update()`` loop, ``_feed`` (the no-compiler batch path) and
    ``restore(snapshot())`` agree byte for byte, as do the compiled
    merge, the Python merge and the pairwise spec; no snapshot carries a
    nonzero row past ``tracked``."""
    split = data.draw(st.integers(1, len(ids) - 1))
    streams = []
    for side in (ids[:split], ids[split:]):
        picks = data.draw(st.lists(st.integers(0, len(side) - 1), max_size=250))
        streams.append(np.asarray([side[j] for j in picks], dtype=np.int64))
    cuts = sorted(data.draw(st.lists(st.integers(0, streams[0].size), max_size=5)))
    bounds = list(zip([0, *cuts], [*cuts, streams[0].size]))

    def fed(seed: int, items: np.ndarray, how: str) -> SamplerPool:
        pool = SamplerPool(instances, seed=seed)
        for lo, hi in bounds if seed == 1 else [(0, items.size)]:
            if how == "scalar":
                for item in items[lo:hi].tolist():
                    pool.update(item)
            elif how == "feed":
                with _python_rules():
                    pool.update_batch(items[lo:hi])
            else:
                pool.update_batch(items[lo:hi])
        return pool

    routes = {how: fed(1, streams[0], how) for how in ("c", "scalar", "feed")}
    want = save_state(routes["c"])
    for how, pool in routes.items():
        assert save_state(pool) == want, how
        assert not _rows_past_tracked(pool.snapshot()).any()
    assert save_state(SamplerPool.from_snapshot(routes["c"].snapshot())) == want

    other = fed(2, streams[1], "c")
    merged = [copy.deepcopy(routes["c"]) for __ in range(3)]
    kept = [merged[0].merge(other)]
    with _python_rules():
        kept.append(merged[1].merge(other))
    kept.append(reference_pool_merge(merged[2], other))
    assert kept[0] == kept[1] == kept[2]
    assert save_state(merged[0]) == save_state(merged[1]) == save_state(merged[2])
    assert not _rows_past_tracked(merged[0].snapshot()).any()


def test_stale_rows_and_dead_slots_never_reach_the_bytes():
    """Garbage in the key/count/ref rows past ``tracked`` (where the
    compiled loop leaves untracked items' rows) and in a dead instance's
    slot does not change the bytes, and restore drops it too."""
    pool = SamplerPool(8, seed=3)
    # Distinct ids, then one id: the late events untrack the distinct ones.
    pool.update_batch(np.concatenate([np.arange(400) * 3 - 600, np.full(4000, 9)]))
    tracked, r = pool.tracked_items, pool.instances
    assert tracked < r
    dirty = copy.deepcopy(pool)
    for col in (6, 7, 8):
        for row in range(tracked, r):
            dirty._state[1 + col * r + row] = 12345 + row
    want = save_state(pool)
    assert save_state(dirty) == want
    assert save_state(SamplerPool.from_snapshot(dirty.snapshot())) == want

    fresh = SamplerPool(4, seed=5)  # position 0: no instance holds an item
    state = fresh.snapshot()
    state["state"][1:5] = 77  # the dead instances' slots
    restored = SamplerPool.from_snapshot(state)
    assert save_state(restored) == save_state(fresh)


def _legacy_stream(n: int, salt: int) -> np.ndarray:
    """The stream the checked-in ten-column checkpoints were fed: small
    skewed ids, negatives, and ids past 2^40, from integer arithmetic
    alone (no RNG whose stream could change across NumPy versions)."""
    k = np.arange(n, dtype=np.int64) + salt
    x = (k * 2654435761) % 4093
    items = (x * x) % 61 - 20
    wide = (k % 7) == 3
    items[wide] = items[wide] * (1 << 40) + 5
    return items


@pytest.mark.parametrize("name,build", [
    ("pool", lambda: SamplerPool(16, seed=2024)),
    ("g", lambda: build_sampler(
        {"kind": "g", "measure": {"name": "huber"}, "instances": 16, "seed": 2025})),
])
def test_ten_column_checkpoint_loads_and_continues_bitwise(name, build):
    """``tests/data/<name>_ten_column.rprs`` was written by the code
    before pool snapshots became one buffer, after feeding
    ``_legacy_stream(3000, 0)`` to ``build()`` in one ``update_batch``;
    ``<name>_ten_column_continued.rprs`` after a further
    ``_legacy_stream(2000, 3000)``.  Loaded today, the first continues
    to exactly the second, and equals the same run made today."""
    blob = (DATA / f"{name}_ten_column.rprs").read_bytes()
    tree = state_from_bytes(blob)["payload"]
    pool_tree = tree if name == "pool" else tree["pool"]
    assert "heap_times" in pool_tree and "state" not in pool_tree

    loaded = build()
    load_state(loaded, blob)
    today = build()
    today.update_batch(_legacy_stream(3000, 0))
    assert save_state(loaded) == save_state(today)

    loaded.update_batch(_legacy_stream(2000, 3000))
    continued = build()
    load_state(continued, (DATA / f"{name}_ten_column_continued.rprs").read_bytes())
    assert save_state(loaded) == save_state(continued)
    if name == "g":
        assert loaded.sample() == continued.sample()
    else:
        assert loaded.finalize() == continued.finalize()
