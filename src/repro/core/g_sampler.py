"""Framework 1.3 — truly perfect G-sampling on insertion-only streams.

The construction (Algorithms 1 and 2, Theorem 3.1):

1. run a single-slot reservoir over stream *positions*; remember the held
   item ``s`` and the count ``c`` of its occurrences from the sampling
   position onward;
2. at query time, accept ``s`` with probability ``(G(c) − G(c−1))/ζ``.

Telescoping over the ``f_i`` possible sampled positions of item ``i``
gives ``P(output = i) = G(f_i)/(ζm)`` exactly — so *conditioned on
accepting*, the output distribution is exactly ``G(f_i)/F_G``: truly
perfect.  Repeating ``R = O((ζm/F_G)·log(1/δ))`` independent instances
bounds the FAIL probability by δ.

``SamplerPool`` implements the paper's O(1)-update-time data structure: a
shared hash table mapping each currently tracked item to a running
occurrence count, with each instance holding only an *offset* into that
count; replacement times are drawn directly via skip-ahead jumps and kept
in a min-heap, so an update touches one counter plus an amortized-O(1)
number of heap events.
"""

from __future__ import annotations

import copy
import heapq
import itertools
import math
from array import array

import numpy as np

from repro.core import ingest_kernel
from repro.core.measures import Measure
from repro.core.rejection import rejection_many
from repro.core.reservoir import skip_next_replacement, skip_next_replacements
from repro.core.types import SampleResult, as_item_array
from repro.lifecycle.memory import (
    INSTANCE_BYTES,
    RNG_STATE_BYTES,
    mapping_bytes,
    sequence_bytes,
)
from repro.lifecycle.protocol import StaticLifecycleMixin
from repro.lifecycle.rng import generator_from_state
from repro.obs.catalog import CATALOG_HELP
from repro.obs.metrics import MetricsRegistry, current_registry

__all__ = ["SingleGSampler", "SamplerPool", "TrulyPerfectGSampler"]


class SingleGSampler:
    """One literal instance of Algorithm 2 (reference implementation).

    Kept deliberately naive — one coin per update — as the ground truth the
    optimized pool is tested against.
    """

    __slots__ = ("_measure", "_item", "_count", "_t", "_rng")

    def __init__(self, measure: Measure, seed: int | np.random.Generator | None = None) -> None:
        self._measure = measure
        self._item: int | None = None
        self._count = 0
        self._t = 0
        self._rng = (
            seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
        )

    @property
    def position(self) -> int:
        return self._t

    def update(self, item: int) -> None:
        self._t += 1
        if self._rng.random() < 1.0 / self._t:
            self._item = item
            self._count = 0
        if item == self._item:
            self._count += 1

    def extend(self, items) -> None:
        for item in items:
            self.update(item)

    def sample(self, zeta: float | None = None) -> SampleResult:
        """Run the rejection step; EMPTY on an empty stream."""
        if self._t == 0:
            return SampleResult.empty()
        if zeta is None:
            zeta = self._measure.zeta(None)
        weight = self._measure.increment(self._count)
        if weight > zeta * (1.0 + 1e-12):
            raise ValueError(
                f"invalid zeta {zeta}: increment at c={self._count} is {weight}"
            )
        if self._rng.random() < weight / zeta:
            return SampleResult.of(self._item, count=self._count, zeta=zeta)
        return SampleResult.fail()


class SamplerPool(StaticLifecycleMixin):
    """``R`` parallel Algorithm-1 instances with shared counters.

    State per instance: ``(item, offset, timestamp, next replacement
    time)``.  Shared: ``counts[i]`` — occurrences of item ``i`` since it
    was first adopted by any instance; ``refs[i]`` — how many instances
    hold ``i``.  The final forward count of an instance is
    ``counts[item] − offset`` (≥ 1, includes its sampled occurrence).

    :meth:`update` (the executable spec) works on Python lists and
    dicts; :meth:`update_batch` packs them into one int64 buffer for the
    compiled loop (:func:`repro.core.ingest_kernel.run`) and unpacks the
    result, an O(R) conversion per call.
    """

    __slots__ = ("_r", "_items", "_offsets", "_timestamps", "_heap", "_counts",
                 "_refs", "_t", "_rng", "_heap_events", "_m_heap_events")

    def __init__(self, instances: int, seed: int | np.random.Generator | None = None,
                 *, registry: MetricsRegistry | None = None) -> None:
        if instances < 1:
            raise ValueError(f"need at least one instance, got {instances}")
        self._r = instances
        self._items: list[int | None] = [None] * instances
        self._offsets = [0] * instances
        self._timestamps = [0] * instances
        # Every instance replaces at position 1.
        self._heap: list[tuple[int, int]] = [(1, idx) for idx in range(instances)]
        heapq.heapify(self._heap)
        self._counts: dict[int, int] = {}
        self._refs: dict[int, int] = {}
        self._t = 0
        self._rng = (
            seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
        )
        self._heap_events = 0
        self.bind_metrics(registry if registry is not None else current_registry())

    def __deepcopy__(self, memo: dict) -> "SamplerPool":
        """Clone at the cost of the state: the lists, heap and dicts are
        copied shallowly (they hold immutable ints, ``None`` and int
        tuples), the metrics counter stays shared, and the RNG is
        rebuilt once from its state.  The RNG goes through ``memo``, so
        a generator this pool shares (a sampler's ``_rng``, or a
        sliding window's pools) stays shared in the copy, and a memo
        entry placed by the caller substitutes for it."""
        clone = object.__new__(type(self))
        memo[id(self)] = clone
        clone._r = self._r
        clone._items = list(self._items)
        clone._offsets = list(self._offsets)
        clone._timestamps = list(self._timestamps)
        clone._heap = list(self._heap)
        clone._counts = dict(self._counts)
        clone._refs = dict(self._refs)
        clone._t = self._t
        clone._heap_events = self._heap_events
        clone._m_heap_events = self._m_heap_events
        rng = memo.get(id(self._rng))
        if rng is None:
            rng = memo[id(self._rng)] = generator_from_state(
                self._rng.bit_generator.state
            )
        clone._rng = rng
        return clone

    def bind_metrics(self, registry: MetricsRegistry) -> None:
        """Route this pool's ingest counters to ``registry`` (by default
        the :func:`use_registry` scope current at construction)."""
        self._m_heap_events = registry.counter(
            "repro_ingest_heap_events_total",
            CATALOG_HELP["repro_ingest_heap_events_total"],
        )
        ingest_kernel.bind_info(registry)

    @property
    def instances(self) -> int:
        return self._r

    @property
    def position(self) -> int:
        return self._t

    @property
    def tracked_items(self) -> int:
        """Number of distinct items currently referenced (space accounting)."""
        return len(self._counts)

    @property
    def heap_events(self) -> int:
        """Total replacements processed — O(R log m) in expectation."""
        return self._heap_events

    def approx_size_bytes(self) -> int:
        """Approximate resident bytes: per-instance slots, the heap, and
        the shared counter tables (see :mod:`repro.lifecycle.memory`)."""
        return (
            INSTANCE_BYTES
            + RNG_STATE_BYTES
            + 3 * sequence_bytes(self._r)  # items / offsets / timestamps
            + sequence_bytes(self._r) + 72 * self._r  # heap of 2-tuples
            + 2 * mapping_bytes(self.tracked_items)  # counts / refs
        )

    def replacement_positions(self) -> list[int]:
        """Per-instance position (1-based) of the currently sampled
        occurrence — the third component of :meth:`finalize`, exposed
        separately so wrappers (the time-window samplers) can map
        positions to wall-clock timestamps right after an ingest step."""
        return list(self._timestamps)

    def update(self, item: int) -> None:
        self._t += 1
        t = self._t
        heap = self._heap
        while heap and heap[0][0] == t:
            __, idx = heapq.heappop(heap)
            self._heap_events += 1
            old = self._items[idx]
            if old is not None:
                self._refs[old] -= 1
                if self._refs[old] == 0:
                    del self._refs[old]
                    del self._counts[old]
            self._items[idx] = item
            if item in self._refs:
                self._refs[item] += 1
            else:
                self._refs[item] = 1
                self._counts.setdefault(item, 0)
            self._offsets[idx] = self._counts[item]
            self._timestamps[idx] = t
            heapq.heappush(heap, (skip_next_replacement(t, self._rng), idx))
        if item in self._counts:
            self._counts[item] += 1

    def extend(self, items) -> None:
        """Delegates to :meth:`update_batch` (bitwise identical to the
        scalar loop for a fixed seed)."""
        self.update_batch(as_item_array(items))

    def update_batch(self, items) -> None:
        """Ingest a chunk of items through the compiled loop
        (:mod:`repro.core.ingest_kernel`): :meth:`update`'s rule in C,
        drawing from this pool's RNG, so for a fixed seed the post-batch
        state — counter insertion order and RNG included — is *bitwise
        identical* to the scalar ``update()`` loop.

        Without the compiled loop (no compiler), or with state that does
        not fit int64, the chunk runs through :meth:`update` itself.
        """
        arr = np.ascontiguousarray(np.asarray(items, dtype=np.int64))
        if arr.ndim != 1:
            raise ValueError("update_batch expects a 1-d sequence of items")
        if arr.size == 0:
            return
        before = self._heap_events
        state = self._pack() if ingest_kernel.kernel_impl() == "c" else None
        if state is None:
            for item in arr.tolist():
                self.update(item)
        else:
            self._heap_events += ingest_kernel.run(arr, self._t, self._r, state, self._rng)
            self._t += int(arr.size)
            self._unpack(state)
        events = self._heap_events - before
        if events:
            self._m_heap_events.add(events)

    def _pack(self) -> array | None:
        """The list/dict state as the compiled loop's packed buffer, or
        ``None`` when a value does not fit int64."""
        r = self._r
        slots = self._items
        tracked = len(self._counts)
        pad = [0] * (max(tracked, r) - tracked)
        if None in slots:
            live = [0 if x is None else 1 for x in slots]
            slots = [0 if x is None else x for x in slots]
        else:
            live = [1] * r
        try:
            return array("q", [
                tracked, *slots, *live, *self._offsets, *self._timestamps,
                *itertools.chain.from_iterable(self._heap),
                *self._counts, *pad, *self._counts.values(), *pad,
                *self._refs.values(), *pad,
            ])
        except OverflowError:
            return None

    def _unpack(self, packed: array) -> None:
        """Write the compiled loop's packed buffer back to the lists
        and dicts."""
        out = packed.tolist()
        r = self._r
        room = (len(out) - 1 - 6 * r) // 3
        tracked = out[0]
        items = out[1:r + 1]
        live = out[r + 1:2 * r + 1]
        if 0 in live:
            items = [x if on else None for x, on in zip(items, live)]
        self._items = items
        self._offsets = out[2 * r + 1:3 * r + 1]
        self._timestamps = out[3 * r + 1:4 * r + 1]
        heap = out[4 * r + 1:6 * r + 1]
        self._heap = list(zip(heap[0::2], heap[1::2]))
        keys = out[6 * r + 1:6 * r + 1 + tracked]
        vals = 6 * r + 1 + room
        self._counts = dict(zip(keys, out[vals:vals + tracked]))
        self._refs = dict(zip(keys, out[vals + room:vals + room + tracked]))

    def snapshot(self) -> dict:
        """Checkpoint the full pool state as a dict of arrays + scalars.

        The layout is plain (NumPy arrays, ints, and the RNG state dict)
        so :mod:`repro.engine.state` can serialize it to bytes without
        pickling.  Includes the RNG state: a restored pool continues the
        stream bitwise-identically.
        """
        heap = sorted(self._heap)
        n_tracked = len(self._counts)
        return {
            "kind": "sampler_pool",
            "instances": self._r,
            "position": self._t,
            "heap_events": self._heap_events,
            "items": np.array(
                [-1 if x is None else x for x in self._items], dtype=np.int64
            ),
            # Empty slots, explicitly: the -1 placeholder in "items" is
            # ambiguous once negative item ids flow (they are legal), so
            # restore consults this mask when present.
            "items_live": np.array(
                [0 if x is None else 1 for x in self._items], dtype=np.int64
            ),
            "offsets": np.asarray(self._offsets, dtype=np.int64),
            "timestamps": np.asarray(self._timestamps, dtype=np.int64),
            "heap_times": np.array([h[0] for h in heap], dtype=np.int64),
            "heap_slots": np.array([h[1] for h in heap], dtype=np.int64),
            "count_keys": np.fromiter(self._counts.keys(), dtype=np.int64, count=n_tracked),
            "count_vals": np.fromiter(self._counts.values(), dtype=np.int64, count=n_tracked),
            "ref_keys": np.fromiter(self._refs.keys(), dtype=np.int64, count=len(self._refs)),
            "ref_vals": np.fromiter(self._refs.values(), dtype=np.int64, count=len(self._refs)),
            "rng_state": self._rng.bit_generator.state,
        }

    def restore(self, state: dict) -> None:
        """Overwrite this pool's state from a :meth:`snapshot` dict.

        Snapshots come from outside the process (checkpoint files,
        worker specs), so the structure is checked before anything is
        overwritten: per-instance arrays of length ``instances``, heap
        slots a permutation of the instances, and each tracked item's
        ref count equal to the number of instances holding it.  A
        malformed snapshot raises :class:`ValueError` and leaves the
        pool as it was."""
        if state.get("kind") != "sampler_pool":
            raise ValueError(f"not a sampler_pool snapshot: {state.get('kind')!r}")
        r = int(state["instances"])
        if r < 1:
            raise ValueError(f"snapshot has {r} instances, need at least one")
        t = int(state["position"])
        if not 0 <= t < 1 << 63:
            raise ValueError(f"snapshot position {t} is outside [0, 2^63)")
        fields = ["items", "offsets", "timestamps", "heap_times", "heap_slots"]
        live = state.get("items_live")
        if live is not None:
            fields.append("items_live")
        for name in fields:
            if len(state[name]) != r:
                raise ValueError(
                    f"snapshot {name!r} has {len(state[name])} entries, "
                    f"not one per instance ({r})"
                )
        items = _ints(state["items"])
        if live is not None:
            items = [x if keep else None for x, keep in zip(items, _ints(live))]
        else:
            # Legacy snapshots (no liveness mask) used -1 as the only
            # empty marker; negative ids were unrepresentable there.
            items = [None if x < 0 else x for x in items]
        slots = _ints(state["heap_slots"])
        if sorted(slots) != list(range(r)):
            raise ValueError("snapshot heap slots are not one entry per instance")
        heap = list(zip(_ints(state["heap_times"]), slots))
        heapq.heapify(heap)
        counts = dict(zip(_ints(state["count_keys"]), _ints(state["count_vals"])))
        refs = dict(zip(_ints(state["ref_keys"]), _ints(state["ref_vals"])))
        if refs.keys() != counts.keys():
            raise ValueError("snapshot counter and ref tables track different items")
        holders: dict[int, int] = {}
        for item in items:
            if item is not None:
                holders[item] = holders.get(item, 0) + 1
        if holders != refs:
            raise ValueError(
                "snapshot ref counts do not match the instances holding each item"
            )
        rng = generator_from_state(state["rng_state"])
        self._r = r
        self._t = t
        self._heap_events = int(state["heap_events"])
        self._items = items
        self._offsets = _ints(state["offsets"])
        self._timestamps = _ints(state["timestamps"])
        self._heap = heap
        self._counts = counts
        # Both tables share keys and insertion order (the compiled loop
        # relies on it); a snapshot written by this class already does.
        self._refs = {k: refs[k] for k in counts}
        self._rng = rng

    @classmethod
    def from_snapshot(
        cls, state: dict, registry: MetricsRegistry | None = None
    ) -> "SamplerPool":
        # Skips __init__: restore sets every field, and a throwaway
        # default_rng() would read OS entropy only to be overwritten.
        pool = cls.__new__(cls)
        pool.bind_metrics(registry if registry is not None else current_registry())
        pool.restore(state)
        return pool

    def merge(self, other: "SamplerPool") -> list[bool]:
        """Absorb a pool that ingested a *disjoint* partition of the
        universe (items of the two substreams must not overlap — a hash
        partition guarantees this; overlapping supports silently break the
        forward-count semantics).

        Merged instance ``k`` keeps this pool's ``k``-th instance with
        probability ``m₁/(m₁+m₂)``, else adopts ``other``'s — i.e. a
        uniform position over the concatenated stream.  Because item
        supports are disjoint, a kept instance's forward count in its own
        substream *is* its forward count in any interleaving, so the
        merged pool is distributed exactly as one pool run over the
        concatenation (the mergeability behind the sharded engine).
        Replacement times are redrawn at the merged length — valid since
        a reservoir's next-replacement law depends only on its position.

        Returns the per-instance pick mask (``True`` where this pool's
        instance was kept) so wrappers carrying side-channel per-instance
        state (e.g. wall-clock adoption times) can merge it consistently.
        """
        if not isinstance(other, SamplerPool):
            raise TypeError(f"cannot merge SamplerPool with {type(other).__name__}")
        if other._r != self._r:
            raise ValueError(
                f"instance counts differ: {self._r} vs {other._r}"
            )
        m1, m2 = self._t, other._t
        r = self._r
        if m2 == 0:
            return [True] * r
        total = m1 + m2
        # One coin block: the same floats as R scalar draws, in order.
        if m1 > 0:
            kept_self = (self._rng.random(r) < m1 / total).tolist()
        else:
            kept_self = [False] * r
        # Indexed by the coin: False adopts other's instance (its
        # timestamp shifted past this pool's stream), True keeps ours.
        sides = (
            (other._items, other._offsets, other._timestamps, other._counts, m1),
            (self._items, self._offsets, self._timestamps, self._counts, 0),
        )
        items: list[int] = []
        forward: list[int] = []
        stamps: list[int] = []
        counts: dict[int, int] = {}
        refs: dict[int, int] = {}
        for k, keep in enumerate(kept_self):
            src_items, src_offsets, src_stamps, src_counts, shift = sides[keep]
            item = src_items[k]
            count = src_counts[item] - src_offsets[k]
            items.append(item)
            forward.append(count)
            stamps.append(shift + src_stamps[k])
            if item in refs:
                refs[item] += 1
                if count > counts[item]:
                    counts[item] = count
            else:
                refs[item] = 1
                counts[item] = count
        self._items = items
        self._offsets = [counts[item] - count for item, count in zip(items, forward)]
        self._timestamps = stamps
        self._counts = counts
        self._refs = refs
        self._t = total
        # One batched draw for the redrawn schedule — bitwise identical
        # to R scalar skip_next_replacement calls at the merged length.
        self._heap = list(zip(skip_next_replacements([total] * r, self._rng), range(r)))
        heapq.heapify(self._heap)
        self._heap_events += other._heap_events
        return kept_self

    def finalize(self) -> list[tuple[int, int, int]]:
        """Per-instance ``(item, count, timestamp)`` triples.

        ``count`` includes the sampled occurrence (≥ 1).  Empty when the
        stream was empty.
        """
        if self._t == 0:
            return []
        out = []
        for idx in range(self._r):
            item = self._items[idx]
            count = self._counts[item] - self._offsets[idx]
            out.append((item, count, self._timestamps[idx]))
        return out


def _ints(values) -> list[int]:
    """A snapshot array (or sequence) as a list of Python ints."""
    return np.asarray(values, dtype=np.int64).tolist()


class TrulyPerfectGSampler(StaticLifecycleMixin):
    """Truly perfect G-sampler for insertion-only streams (Theorem 3.1).

    Parameters
    ----------
    measure:
        The measure ``G``; must have globally bounded increments
        (``measure.zeta(None)`` must not raise).  Lp with ``p > 1`` needs
        the Misra-Gries normalizer — use
        :class:`repro.core.lp_sampler.TrulyPerfectLpSampler`.
    instances:
        Explicit pool size ``R``; default sizes the pool from the
        certified ``F_G`` lower bound to reach FAIL probability ≤ δ.
    delta:
        FAIL probability target when ``instances`` is not given.
    m_hint:
        Expected stream length, used only to size the pool for measures
        whose certified acceptance bound depends on ``m`` (concave
        measures); over-estimates are safe.

    Notes
    -----
    Every downstream guarantee is *distributional*: conditioned on the
    sampler returning an index, that index is exactly ``G(f_i)/F_G``
    distributed, with zero additive error — including when ``instances``
    is too small (only the FAIL rate suffers).
    """

    def __init__(
        self,
        measure: Measure,
        instances: int | None = None,
        delta: float = 0.05,
        m_hint: int | None = None,
        seed: int | np.random.Generator | None = None,
    ) -> None:
        if not 0 < delta < 1:
            raise ValueError("delta must be in (0, 1)")
        self._measure = measure
        self._rng = (
            seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
        )
        if instances is None:
            instances = self.default_instances(measure, delta, m_hint)
        self._pool = SamplerPool(instances, self._rng)
        self._delta = delta

    @staticmethod
    def default_instances(
        measure: Measure, delta: float = 0.05, m_hint: int | None = None
    ) -> int:
        """``R = ⌈ln(1/δ) / acceptance lower bound⌉`` (Theorem 3.1).

        The acceptance bound is ``F̂_G/(ζ·m)``; for convex measures it is
        independent of ``m``, for concave ones it degrades with ``m`` so a
        conservative default horizon of 10^6 is used when no hint is given.
        """
        zeta = measure.zeta(None)  # raises for measures needing ‖f‖∞
        m = m_hint if m_hint is not None else 10**6
        acceptance = measure.fg_lower_bound(m) / (zeta * m)
        if acceptance <= 0:
            raise ValueError(f"measure {measure.name} certifies no acceptance bound")
        return max(1, math.ceil(math.log(1.0 / delta) / acceptance))

    @property
    def measure(self) -> Measure:
        return self._measure

    @property
    def instances(self) -> int:
        return self._pool.instances

    @property
    def position(self) -> int:
        return self._pool.position

    @property
    def space_words(self) -> int:
        """Machine words of sampler state: 4 per instance + 2 per tracked
        item (the paper counts bits; we count words)."""
        return 4 * self._pool.instances + 2 * self._pool.tracked_items

    def approx_size_bytes(self) -> int:
        return INSTANCE_BYTES + self._pool.approx_size_bytes()

    def update(self, item: int) -> None:
        self._pool.update(item)

    def extend(self, items) -> None:
        self._pool.extend(items)

    def update_batch(self, items) -> None:
        """Vectorized ingestion — see :meth:`SamplerPool.update_batch`."""
        self._pool.update_batch(items)

    def snapshot(self) -> dict:
        """Checkpoint pool + RNG state (the measure is construction-time
        configuration, not state — rebuild via the engine registry; its
        name is recorded so a mismatched restore fails loudly)."""
        return {
            "kind": "truly_perfect_g",
            "measure": self._measure.name,
            "delta": self._delta,
            "pool": self._pool.snapshot(),
        }

    def restore(self, state: dict) -> None:
        if state.get("kind") != "truly_perfect_g":
            raise ValueError(f"not a truly_perfect_g snapshot: {state.get('kind')!r}")
        if state.get("measure") != self._measure.name:
            raise ValueError(
                f"snapshot is for measure {state.get('measure')!r}, sampler "
                f"has {self._measure.name!r}"
            )
        self._delta = float(state["delta"])
        self._pool.restore(state["pool"])
        self._rng = self._pool._rng

    def merge(self, other: "TrulyPerfectGSampler") -> None:
        """Absorb a sampler run over a disjoint universe partition.

        Exact under the same contract as :meth:`SamplerPool.merge`; the
        two samplers must use the same measure.
        """
        if not isinstance(other, TrulyPerfectGSampler):
            raise TypeError(
                f"cannot merge TrulyPerfectGSampler with {type(other).__name__}"
            )
        if type(other._measure) is not type(self._measure) or (
            other._measure.name != self._measure.name
        ):
            raise ValueError(
                f"measures differ: {self._measure.name} vs {other._measure.name}"
            )
        self._pool.merge(other._pool)

    def spawn_query_rng(self, rng: np.random.Generator) -> "TrulyPerfectGSampler":
        """The optional lifecycle query-view hook (see
        :mod:`repro.lifecycle.rng`): a clone whose query coins and pool
        draw from ``rng`` — what the generic deep copy plus rebind walk
        builds, without the walk."""
        return copy.deepcopy(self, {id(self._rng): rng, id(self._pool._rng): rng})

    def _zeta(self) -> float:
        return self._measure.zeta(None)

    def sample(self) -> SampleResult:
        """Finalize all instances and return the first acceptor.

        Truly perfect: each instance's accepted index is exactly
        target-distributed and independent of *which* instances accept, so
        taking the first acceptor preserves the distribution.
        """
        finals = self._pool.finalize()
        if not finals:
            return SampleResult.empty()
        zeta = self._zeta()
        measure = self._measure
        # One vectorized batch of acceptance coins.
        coins = self._rng.random(len(finals))
        for (item, count, ts), coin in zip(finals, coins):
            weight = measure.increment(count)
            if weight > zeta * (1.0 + 1e-12):
                raise ValueError(
                    f"invalid zeta {zeta}: increment at c={count} is {weight}"
                )
            if coin < weight / zeta:
                return SampleResult.of(item, count=count, timestamp=ts, zeta=zeta)
        return SampleResult.fail(zeta=zeta)

    def sample_many(self, k: int) -> list[SampleResult]:
        """``k`` independent samples from one finalize + one batched coin
        block — bitwise identical to ``k`` back-to-back :meth:`sample`
        calls, amortizing the per-query instance scan."""
        finals = self._pool.finalize()
        if not finals:
            if k < 0:
                raise ValueError(f"need a non-negative draw count, got {k}")
            return [SampleResult.empty() for __ in range(k)]
        zeta = self._zeta()
        measure = self._measure
        weights = [measure.increment(c) for __, c, __ in finals]

        def make(j: int) -> SampleResult:
            item, count, ts = finals[j]
            return SampleResult.of(item, count=count, timestamp=ts, zeta=zeta)

        return rejection_many(
            self._rng,
            k,
            weights,
            zeta,
            make,
            lambda: SampleResult.fail(zeta=zeta),
            describe=lambda j: (
                f"invalid zeta {zeta}: increment at c={finals[j][1]} is "
                f"{weights[j]}"
            ),
        )

    def run(self, stream) -> SampleResult:
        """Convenience: replay a whole stream then sample."""
        self.extend(stream)
        return self.sample()
