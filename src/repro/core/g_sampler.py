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

import heapq
import math

import numpy as np

from repro.core.measures import Measure
from repro.core.rejection import rejection_many
from repro.core.reservoir import skip_next_replacement, skip_next_replacements
from repro.core.timeline import ShardView, shard_views, simulate_events
from repro.core.types import SampleResult, as_item_array
from repro.lifecycle.memory import (
    INSTANCE_BYTES,
    RNG_STATE_BYTES,
    mapping_bytes,
    sequence_bytes,
)
from repro.lifecycle.protocol import StaticLifecycleMixin
from repro.obs.catalog import CATALOG_HELP
from repro.obs.metrics import current_registry

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
    """

    #: :meth:`update_batch` also consumes position views of a shared
    #: indexed chunk (:class:`~repro.core.timeline.ShardView`) — the
    #: sharded engine's zero-materialization ingest path.
    accepts_index = True

    __slots__ = ("_r", "_items", "_offsets", "_timestamps", "_heap", "_counts",
                 "_refs", "_t", "_rng", "_heap_events", "_settle_scans",
                 "_m_heap_events", "_m_settle_scans")

    def __init__(self, instances: int, seed: int | np.random.Generator | None = None) -> None:
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
        self._settle_scans = 0
        registry = current_registry()
        self._m_heap_events = registry.counter(
            "repro_ingest_heap_events_total",
            CATALOG_HELP["repro_ingest_heap_events_total"],
        )
        self._m_settle_scans = registry.counter(
            "repro_ingest_settle_scans_total",
            CATALOG_HELP["repro_ingest_settle_scans_total"],
        )

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

    @property
    def settle_scans(self) -> int:
        """Position-index passes taken by the batched kernel — one rank
        pass per call with heap events, one totals pass per call with
        tracked items.  Diagnostic, not state: excluded from snapshots so
        batch- and scalar-built pools stay bitwise comparable."""
        return self._settle_scans

    def approx_size_bytes(self) -> int:
        """Approximate resident bytes: per-instance slots, the heap, and
        the shared counter tables (see :mod:`repro.lifecycle.memory`)."""
        return (
            INSTANCE_BYTES
            + RNG_STATE_BYTES
            + 3 * sequence_bytes(self._r)  # items / offsets / timestamps
            + sequence_bytes(len(self._heap)) + 72 * len(self._heap)  # 2-tuples
            + mapping_bytes(len(self._counts))
            + mapping_bytes(len(self._refs))
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
        """Timeline-precomputed ingestion of a whole chunk of items.

        The heap-event schedule is *data-independent* — an instance's
        next replacement time depends only on the stream position and
        the RNG — so phase 1 (:meth:`plan_batch`) replays the entire pop
        order for the chunk up front, drawing the skip-ahead jumps in
        exactly the scalar order.  Phase 2 applies the data through one
        event loop: the item at every event position comes from one
        gather, every shared-counter settle is a prefix rank and the
        end-of-chunk flush a whole-chunk count, both answered by one
        :class:`~repro.core.timeline.PositionIndex` over the chunk.  For
        a fixed seed the post-batch state is *bitwise identical* to the
        scalar ``update()`` loop.

        ``items`` is an array-like chunk — the one-view case, built here
        by :func:`~repro.core.timeline.shard_views` — or a
        :class:`~repro.core.timeline.ShardView` the sharded engine
        planned for this pool's part of a larger chunk.
        """
        if not isinstance(items, ShardView):
            arr = np.ascontiguousarray(np.asarray(items, dtype=np.int64))
            if arr.ndim != 1:
                raise ValueError("update_batch expects a 1-d sequence of items")
            if arr.size == 0:
                return
            bounds = np.array([0, arr.size], dtype=np.int64)
            items = shard_views(arr, None, bounds, [self])[0]
        self._apply(items)

    def _apply(self, view: ShardView) -> None:
        """Phase 2: apply a planned view's data — the one event loop.

        Every occurrence-count question — the settle ranks at event
        positions and the end-of-chunk flush — is answered by the
        chunk's position index, so the per-call cost is O(events · log)
        plus the flush, independent of the view length.

        The trick that makes chunk-wide answers locally correct: the
        ownership contract (see :class:`~repro.core.timeline.ShardView`)
        puts *all* occurrences of a tracked item inside the view, so a
        chunk prefix rank at an owned position is the view-local one,
        and the settled rank of an item no event touched is 0.
        """
        length = view.size
        t0 = self._t
        end = t0 + length
        counts = self._counts
        refs = self._refs
        index = view.index
        ev_times, ev_slots = view.events
        nev = len(ev_times)
        scans = 0
        # ranks[i]: chunk prefix rank of i at the offset up to which
        # counts[i] is settled (accrued[i]); both start at 0, and an
        # event-free call needs neither.
        ranks: dict[int, int] = {}

        if nev:
            self._heap_events += nev
            ranks = dict.fromkeys(counts, 0)
            accrued = dict.fromkeys(counts, 0)
            ev_offs_np = np.asarray(ev_times, dtype=np.int64)
            ev_offs_np -= t0 + 1  # view-local offsets of the events
            gpos = view.chunk_positions(ev_offs_np)
            ev_items_np = view.base[gpos]
            ev_items = ev_items_np.tolist()
            ev_offs = ev_offs_np.tolist()
            slots = self._items
            offsets = self._offsets
            timestamps = self._timestamps
            # Previous occupant of each event's slot (the item a settle
            # targets), recovered without running the loop: within a
            # slot, it is the prior event's item; for a slot's first
            # event, the pre-chunk occupant.
            ev_slots_np = np.asarray(ev_slots, dtype=np.int64)
            sarg = (
                np.argsort(ev_slots_np.astype(np.uint16), kind="stable")
                if self._r <= 0xFFFF
                else np.argsort(ev_slots_np, kind="stable")
            )
            ss = ev_slots_np[sarg]
            sit = ev_items_np[sarg]
            prev_sorted = np.empty(nev, dtype=np.int64)
            prev_sorted[1:] = sit[:-1]
            firsts = np.empty(nev, dtype=bool)
            firsts[0] = True
            np.not_equal(ss[1:], ss[:-1], out=firsts[1:])
            # Empty slots never settle; any stand-in value works.
            init_vals = np.fromiter(
                (0 if x is None else x for x in slots),
                dtype=np.int64,
                count=self._r,
            )
            prev_sorted[firsts] = init_vals[ss[firsts]]
            old_vals = np.empty(nev, dtype=np.int64)
            old_vals[sarg] = prev_sorted
            qrank = index.rank_many(
                np.concatenate((old_vals, ev_items_np)),
                np.concatenate((gpos, gpos)),
            )
            old_rank = qrank[:nev].tolist()
            new_rank = qrank[nev:].tolist()
            scans += 1
            for j in range(nev):
                time = ev_times[j]
                off = ev_offs[j]
                item = ev_items[j]
                idx = ev_slots[j]
                old = slots[idx]
                if old is not None:
                    if refs[old] == 1:
                        # Last holder: the shared counter dies with it.
                        del refs[old]
                        del counts[old]
                        del accrued[old]
                        del ranks[old]
                    else:
                        if accrued[old] < off:
                            r1 = old_rank[j]
                            r0 = ranks[old]
                            if r1 > r0:
                                counts[old] += r1 - r0
                            ranks[old] = r1
                            accrued[old] = off
                        refs[old] -= 1
                slots[idx] = item
                if item in refs:
                    refs[item] += 1
                    if accrued[item] < off:
                        r1 = new_rank[j]
                        r0 = ranks[item]
                        if r1 > r0:
                            counts[item] += r1 - r0
                        ranks[item] = r1
                        accrued[item] = off
                else:
                    refs[item] = 1
                    counts[item] = 0
                    accrued[item] = off  # the occurrence at `off` accrues later
                    ranks[item] = new_rank[j]
                offsets[idx] = counts[item]
                timestamps[idx] = time
        # Flush: owed occurrences of an item = whole-chunk total (an
        # owned item's chunk count is its view count) minus its settled
        # rank — uniform for touched and untouched items alike.
        if counts:
            totals = index.totals
            scans += 1
            for item in counts:
                hits = totals.get(item, 0) - ranks.get(item, 0)
                if hits:
                    counts[item] += hits
        self._t = end
        if scans:
            self._settle_scans += scans
            self._m_settle_scans.add(scans)
        if nev:
            self._m_heap_events.add(nev)

    def tracked_values(self) -> np.ndarray:
        """The items this pool currently tracks (shared-counter keys) —
        the engine's candidate seed for the shared position index."""
        return np.fromiter(
            self._counts.keys(), dtype=np.int64, count=len(self._counts)
        )

    def plan_batch(self, length: int) -> tuple[list[int], list[int]]:
        """Hoisted phase 1: advance the heap and the RNG through the
        event schedule of the next ``length`` items and return
        ``(times, slots)``.

        Engine-internal protocol: a plan MUST be followed by exactly one
        ``update_batch`` of a :class:`~repro.core.timeline.ShardView` of
        the same length carrying these events — the heap and RNG have
        already moved, only the data application is pending.  Chunked
        and whole-batch simulation are bitwise identical (same pop
        order, same draws), so hoisting preserves the scalar-parity
        contract.
        """
        return simulate_events(
            self._heap, self._t + length, self._rng, expect=2 * self._r
        )

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
        """Overwrite this pool's state from a :meth:`snapshot` dict."""
        if state.get("kind") != "sampler_pool":
            raise ValueError(f"not a sampler_pool snapshot: {state.get('kind')!r}")
        self._r = int(state["instances"])
        self._t = int(state["position"])
        self._heap_events = int(state["heap_events"])
        live = state.get("items_live")
        if live is not None:
            self._items = [
                int(x) if keep else None
                for x, keep in zip(state["items"], live)
            ]
        else:
            # Legacy snapshots (no liveness mask) used -1 as the only
            # empty marker; negative ids were unrepresentable there.
            self._items = [None if x < 0 else int(x) for x in state["items"]]
        self._offsets = [int(x) for x in state["offsets"]]
        self._timestamps = [int(x) for x in state["timestamps"]]
        heap = [
            (int(t), int(i))
            for t, i in zip(state["heap_times"], state["heap_slots"])
        ]
        heapq.heapify(heap)
        self._heap = heap
        self._counts = {
            int(k): int(v) for k, v in zip(state["count_keys"], state["count_vals"])
        }
        self._refs = {
            int(k): int(v) for k, v in zip(state["ref_keys"], state["ref_vals"])
        }
        rng = np.random.default_rng()
        rng.bit_generator.state = state["rng_state"]
        self._rng = rng

    @classmethod
    def from_snapshot(cls, state: dict) -> "SamplerPool":
        pool = cls(int(state["instances"]))
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
        if m2 == 0:
            return [True] * self._r
        total = m1 + m2
        mine = self.finalize()
        theirs = other.finalize()
        kept_self: list[bool] = []
        picks: list[tuple[int, int, int]] = []
        for k in range(self._r):
            if m1 > 0 and self._rng.random() < m1 / total:
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
            self._items[k] = item
            self._offsets[k] = counts[item] - count
            self._timestamps[k] = ts
        self._counts = counts
        self._refs = refs
        self._t = total
        # One batched draw for the redrawn schedule — bitwise identical
        # to R scalar skip_next_replacement calls at the merged length.
        jumps = skip_next_replacements([total] * self._r, self._rng)
        self._heap = list(zip(jumps, range(self._r)))
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

    #: :meth:`update_batch` also takes a
    #: :class:`~repro.core.timeline.ShardView` of a shared indexed chunk
    #: (forwarded to the pool untouched).
    accepts_index = True

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

    def tracked_values(self) -> np.ndarray:
        """See :meth:`SamplerPool.tracked_values`."""
        return self._pool.tracked_values()

    def plan_batch(self, length: int) -> tuple[list[int], list[int]]:
        """See :meth:`SamplerPool.plan_batch` (engine-internal)."""
        return self._pool.plan_batch(length)

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
