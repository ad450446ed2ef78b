"""The one pool ingest kernel.

The contract under test: batched ingest — ``SamplerPool.update_batch``
running the compiled loop (:mod:`repro.core.ingest_kernel`), fed each
shard's gathered subchunk by the engine — is *bitwise identical* to the
scalar ``update()`` loop, for every pool-backed registry kind, every
shard count, every id width (beyond 2^32, negative, the int64 bounds),
every way of cutting the stream into ``ingest`` calls, and across the
whole lifecycle (snapshot/restore, merge, compact).  Without a compiler
the same calls run the scalar loop, loudly.  The perf story in
``benchmarks/perf_suite.py`` (scenario ``ingest_kernel``) rides entirely
on this equivalence.
"""

from __future__ import annotations

import json
import os
import shlex
import shutil
import subprocess
import sys
import sysconfig
import threading
from array import array
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.core import ingest_kernel
from repro.core.g_sampler import SamplerPool
from repro.core.reservoir import skip_next_replacement, skip_next_replacements
from repro.engine import ShardedSamplerEngine
from repro.engine.state import load_state, save_state, state_to_bytes
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


#: Id shapes beyond the Zipf ranks' small non-negative range: past
#: 16 bits, past 32 bits, and negative.
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
    # Heap events pile onto a single shard, all on one tracked item.
    "all-one-item": np.full(4000, 7, dtype=np.int64),
    # No item repeats: every adoption inserts a fresh tracked item.
    "all-distinct": np.arange(4000, dtype=np.int64),
    # The value span jumps mid-stream.
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
    # calls put many events inside one compiled loop.
    for call in (1, 7, 997, 1 << 16):
        engine = ShardedSamplerEngine(dict(config), shards=4, seed=2)
        for start in range(0, items.size, call):
            engine.ingest(items[start:start + call])
        assert norm(engine.snapshot()) == want, f"{name}: calls of {call}"


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


#: Pool-level id shapes: small, wide, negative, and the int64 bounds
#: themselves (hashing and the heap both see the extremes).
POOL_ID_SHAPES = {
    "small": lambda z: z,
    "wide": lambda z: z * (1 << 40) + 3,
    "negative": lambda z: -z - 1,
    "int64-bounds": lambda z: np.select(
        [z % 3 == 0, z % 3 == 1],
        [np.iinfo(np.int64).min + z, np.iinfo(np.int64).max - z],
        z,
    ),
}


def _assert_pools_bitwise(batched: SamplerPool, scalar: SamplerPool) -> None:
    """Same snapshot bytes (counter insertion order, sorted heap, RNG
    state included), asserted piecewise first for readable failures."""
    a, b = batched.snapshot(), scalar.snapshot()
    assert a["count_keys"].tolist() == b["count_keys"].tolist()
    assert a["heap_times"].tolist() == b["heap_times"].tolist()
    assert a["heap_slots"].tolist() == b["heap_slots"].tolist()
    assert a["rng_state"] == b["rng_state"]
    assert save_state(batched) == save_state(scalar)


#: The compiler the kernel builds with, when one is on PATH.  Where it
#: is, the compiled loop must load: a broken build fails here instead
#: of turning every parity test below into scalar-vs-scalar.
HAVE_CC = bool(shutil.which(shlex.split(sysconfig.get_config_var("CC") or "cc")[0]))


@pytest.mark.skipif(not HAVE_CC, reason="no C compiler on PATH")
def test_compiled_loop_loads_where_a_compiler_exists():
    assert ingest_kernel.kernel_impl() == "c"


@pytest.mark.skipif(not HAVE_CC, reason="no C compiler on PATH")
class TestCompiledLoop:
    @pytest.mark.parametrize("shape", sorted(POOL_ID_SHAPES))
    @pytest.mark.parametrize("instances", [1, 3, 64, 1024])
    def test_matches_scalar_update(self, instances, shape):
        items = POOL_ID_SHAPES[shape](_zipf(4000, 300, seed=instances))
        scalar = SamplerPool(instances, seed=11)
        batched = SamplerPool(instances, seed=11)
        # Empty slots before the first item, an empty call, 1-item cuts
        # on both sides of the first events, then long calls.
        _assert_pools_bitwise(batched, scalar)
        cuts = [0, 0, 1, 2, 3, 40, 41, 1500, 4000]
        for lo, hi in zip(cuts, cuts[1:]):
            batched.update_batch(items[lo:hi])
            for item in items[lo:hi].tolist():
                scalar.update(item)
            _assert_pools_bitwise(batched, scalar)
        assert batched.heap_events == scalar.heap_events
        assert batched.finalize() == scalar.finalize()

    def test_far_wakes_saturate_alike(self):
        # Past 2^60 most redrawn wakes overflow an int64: scalar update()
        # caps them at 2^63 - 1 exactly as the compiled loop does.
        pool = SamplerPool(64, seed=4)
        pool.update_batch(_zipf(500, 50, seed=3))
        state = pool.snapshot()
        state["position"] = (1 << 60) + 3
        state["heap_times"] = np.full(64, (1 << 60) + 4, dtype=np.int64)
        scalar, batched = SamplerPool(64, seed=4), SamplerPool(64, seed=4)
        scalar.restore(state)
        batched.restore(state)
        scalar.update(7)  # every instance wakes here
        batched.update_batch(np.array([7]))
        assert max(when for when, __ in scalar._heap) == (1 << 63) - 1
        _assert_pools_bitwise(batched, scalar)

    def test_scalar_and_batched_calls_interleave(self):
        # Every state reader sees what the compiled loop wrote back as
        # the scalar loop would have left it: scalar updates, positions,
        # merges and finalize in between batched calls.
        items = _zipf(3000, 200, seed=7)
        scalar = SamplerPool(32, seed=2)
        batched = SamplerPool(32, seed=2)
        for item in items[:1000].tolist():
            scalar.update(item)
        batched.update_batch(items[:500])
        assert batched.replacement_positions() != []
        assert batched.tracked_items > 0
        for item in items[500:1000].tolist():
            batched.update(item)
        batched.update_batch(items[1000:2000])
        for item in items[1000:2000].tolist():
            scalar.update(item)
        assert batched.replacement_positions() == scalar.replacement_positions()
        assert batched.tracked_items == scalar.tracked_items
        assert batched.approx_size_bytes() == scalar.approx_size_bytes()
        other_b, other_s = SamplerPool(32, seed=3), SamplerPool(32, seed=3)
        other_b.update_batch(items[2000:] + 10_000)
        for item in (items[2000:] + 10_000).tolist():
            other_s.update(item)
        assert batched.merge(other_b) == scalar.merge(other_s)
        _assert_pools_bitwise(batched, scalar)

    def test_two_threads_match_sequential_run(self):
        # The call releases the GIL; two pools ingesting on two threads
        # must land exactly where a sequential run does.
        streams = [_zipf(60_000, 2000, seed=s) for s in (81, 82)]

        def feed(pool: SamplerPool, items: np.ndarray) -> None:
            for start in range(0, items.size, 1500):
                pool.update_batch(items[start:start + 1500])

        sequential = [SamplerPool(64, seed=s) for s in (1, 2)]
        for pool, items in zip(sequential, streams):
            feed(pool, items)
        threaded = [SamplerPool(64, seed=s) for s in (1, 2)]
        threads = [
            threading.Thread(target=feed, args=(pool, items))
            for pool, items in zip(threaded, streams)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for a, b in zip(threaded, sequential):
            assert save_state(a) == save_state(b)


def _fed_pool() -> SamplerPool:
    pool = SamplerPool(8, seed=4)
    pool.update_batch(_zipf(500, 30, seed=44))
    return pool


def _broken(state: dict, name: str) -> dict:
    """``state`` (a pool snapshot) with one structural fault."""
    state = {k: (v.copy() if isinstance(v, np.ndarray) else v) for k, v in state.items()}
    if name == "no-instances":
        state["instances"] = 0
    elif name == "short-heap":
        state["heap_times"] = state["heap_times"][:-1]
        state["heap_slots"] = state["heap_slots"][:-1]
    elif name == "short-items":
        state["items"] = state["items"][:-1]
        state["items_live"] = state["items_live"][:-1]
    elif name == "slot-out-of-range":
        state["heap_slots"][0] = state["instances"] + 5
    elif name == "slot-repeated":
        state["heap_slots"][0] = state["heap_slots"][1]
    elif name == "live-item-untracked":
        state["items"][0] = 1 << 40
    elif name == "refs-too-low":
        state["ref_vals"][0] -= 1
    elif name == "tracked-item-unheld":
        state["count_keys"] = np.append(state["count_keys"], 1 << 41)
        state["count_vals"] = np.append(state["count_vals"], 3)
        state["ref_keys"] = np.append(state["ref_keys"], 1 << 41)
        state["ref_vals"] = np.append(state["ref_vals"], 1)
    elif name == "negative-position":
        state["position"] = -1
    return state


class TestMalformedSnapshots:
    """A snapshot comes from outside the process; restore checks its
    structure, so neither the scalar loop nor the compiled one ever
    sees a heap slot out of range or a held item it does not track."""

    FAULTS = [
        "no-instances", "short-heap", "short-items", "slot-out-of-range",
        "slot-repeated", "live-item-untracked", "refs-too-low",
        "tracked-item-unheld", "negative-position",
    ]

    @pytest.mark.parametrize("fault", FAULTS)
    def test_restore_rejects_and_leaves_pool_unchanged(self, fault):
        pool = _fed_pool()
        before = save_state(pool)
        with pytest.raises(ValueError):
            pool.restore(_broken(pool.snapshot(), fault))
        assert save_state(pool) == before
        pool.update_batch(_zipf(200, 30, seed=45))

    @pytest.mark.parametrize("fault", FAULTS)
    def test_load_state_rejects(self, fault):
        pool = _fed_pool()
        blob = state_to_bytes(_broken(pool.snapshot(), fault))
        with pytest.raises(ValueError):
            load_state(SamplerPool(8), blob)

    def test_well_formed_snapshot_restores(self):
        pool = _fed_pool()
        twin = SamplerPool(8)
        twin.restore(pool.snapshot())
        assert save_state(twin) == save_state(pool)


@pytest.mark.skipif(not HAVE_CC, reason="no C compiler on PATH")
@pytest.mark.parametrize("fault", ["slot-out-of-range", "refs-too-low",
                                   "duplicate-key", "tracked-over-room"])
def test_compiled_loop_rejects_inconsistent_state_untouched(fault):
    """The C loop checks the packed state before writing anything: an
    inconsistent buffer raises and leaves the buffer and RNG as they
    were."""
    pool = _fed_pool()
    state = pool._pack()
    r = pool.instances
    heap, keys = 4 * r + 1, 6 * r + 1
    room = (len(state) - keys) // 3
    refs = keys + 2 * room
    if fault == "slot-out-of-range":
        state[heap + 1] = r
    elif fault == "refs-too-low":
        state[refs] -= 1
    elif fault == "duplicate-key":
        state[keys + 1] = state[keys]
    else:
        state[0] = room + 1
    copy = array("q", state)
    rng = np.random.default_rng(3)
    rng_before = rng.bit_generator.state
    with pytest.raises(RuntimeError, match="nothing was ingested"):
        ingest_kernel.run(_zipf(300, 30, seed=46), pool.position, r, state, rng)
    assert state == copy
    assert rng.bit_generator.state == rng_before


_FALLBACK_SCRIPT = """
import json, sys, warnings
import numpy as np
from repro.core import ingest_kernel

def no_compiler():
    raise OSError("no compiler here")

ingest_kernel._build_library = no_compiler
from repro.core.g_sampler import SamplerPool
from repro.engine.state import save_state
from repro.obs import MetricsRegistry

items = np.asarray(json.loads(sys.argv[1]), dtype=np.int64)
with warnings.catch_warnings(record=True) as caught:
    warnings.simplefilter("always")
    reg = MetricsRegistry()
    pool = SamplerPool(16, seed=5, registry=reg)
    for start in range(0, items.size, 700):
        pool.update_batch(items[start:start + 700])
    SamplerPool(16, seed=6).update_batch(items[:10])
print(json.dumps({
    "impl": ingest_kernel.kernel_impl(),
    "warnings": [str(w.message) for w in caught
                 if issubclass(w.category, RuntimeWarning)],
    "exposition": reg.render_prometheus(),
    "state": save_state(pool).hex(),
}))
"""


def test_fallback_without_compiler_runs_scalar_loop():
    """With the build step failing, batched ingest runs the scalar loop:
    one warning, ``impl="python"`` in the gauge, and snapshot bytes equal
    to the compiled path's."""
    items = _zipf(5000, 300, seed=90)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(repro.__file__).parents[1]), env.get("PYTHONPATH", "")]
    )
    proc = subprocess.run(
        [sys.executable, "-c", _FALLBACK_SCRIPT, json.dumps(items.tolist())],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    out = json.loads(proc.stdout)
    assert out["impl"] == "python"
    assert len(out["warnings"]) == 1
    assert "scalar update() loop" in out["warnings"][0]
    assert 'repro_ingest_kernel_info{impl="python"} 1' in out["exposition"]
    here = SamplerPool(16, seed=5)
    for start in range(0, items.size, 700):
        here.update_batch(items[start:start + 700])
    assert bytes.fromhex(out["state"]) == save_state(here)


def test_ingest_kernel_counters_exposed():
    reg = MetricsRegistry()
    with use_registry(reg):
        engine = ShardedSamplerEngine(
            {"kind": "pool", "instances": 16}, shards=2, seed=3
        )
    engine.ingest(_zipf(20_000, 500, seed=60))
    text = reg.render_prometheus()
    events = None
    for line in text.splitlines():
        if line.startswith("repro_ingest_heap_events_total "):
            events = float(line.split()[-1])
    assert events is not None and events > 0
    impl = ingest_kernel.kernel_impl()
    assert f'repro_ingest_kernel_info{{impl="{impl}"}} 1' in text


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
