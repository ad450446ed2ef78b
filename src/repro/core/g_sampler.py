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
import math
import operator
from array import array
from itertools import accumulate

import numpy as np

from repro.core import ingest_kernel
from repro.core.measures import Measure
from repro.core.rejection import rejection_many
from repro.core.reservoir import _WAKE_CAP, skip_next_replacement, skip_wakes
from repro.core.types import SampleResult, as_item_array
from repro.lifecycle.memory import INSTANCE_BYTES, RNG_STATE_BYTES, ndarray_bytes
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

    The pool is the one owner of its state, which is one int64
    ``array("q")`` (``_state``) in the layout of the compiled loops
    (:mod:`repro.core.ingest_kernel`)::

        [tracked | slot, live, offsets, stamps (R each) |
         heap (2R: interleaved (time, idx) pairs, a min-heap) |
         keys, counts, refs (R each; the first ``tracked`` rows are the
         tracked items in insertion order)]

    At most ``R`` items are tracked, since each is held by an instance.
    :meth:`update` (the executable spec) applies the rule to the buffer
    in place; :meth:`update_batch` and :meth:`fold` hand it to C
    without conversion, and every reader slices it.  A time-window
    generation's pool also keeps ``wall``, each instance's sampled
    arrival time (float64; ``None`` for other pools): writers swap it
    with the buffer and readers take the two under the RNG's lock, so
    neither is ever paired with the other's older state.  Two caches derive
    from it: the per-instance finals, kept with the buffer they were
    read from and valid only while that buffer is the pool's (shared by
    clones), and :meth:`update`'s index of where each tracked item's
    count sits, which :meth:`update` keeps current and the other
    mutators drop.
    """

    __slots__ = ("_r", "_state", "_t", "_rng", "_heap_events", "_m_heap_events",
                 "_finals", "_rows", "wall")

    def __init__(self, instances: int, seed: int | np.random.Generator | None = None,
                 *, registry: MetricsRegistry | None = None) -> None:
        if instances < 1:
            raise ValueError(f"need at least one instance, got {instances}")
        r = self._r = instances
        self._state = array("q", bytes(8 * (1 + 9 * r)))
        # Every instance replaces at position 1: the heap (1, 0), (1, 1), ...
        heap = _col(r, _HEAP, 2 * r)
        self._state[heap.start:heap.stop:2] = array("q", [1]) * r
        self._state[heap.start + 1:heap.stop:2] = array("q", range(r))
        self._t = 0
        self._rng = (
            seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
        )
        self._heap_events = 0
        self._finals = None
        self._rows = None
        self.wall = None
        self.bind_metrics(registry if registry is not None else current_registry())

    def __deepcopy__(self, memo: dict) -> "SamplerPool":
        """Clone at the cost of the state: one buffer copy; the finals
        cache (an immutable tuple) and the metrics counter stay shared,
        and the RNG is rebuilt once from its state.  The RNG goes through
        ``memo``, so a generator this pool shares (a sampler's ``_rng``,
        or a sliding window's pools) stays shared in the copy, and a
        memo entry placed by the caller substitutes for it.  Read under
        the RNG's lock, like :meth:`snapshot`, so a clone taken while
        another thread runs :meth:`update_batch` is the pool before or
        after that call, :attr:`wall` included."""
        clone = object.__new__(type(self))
        memo[id(self)] = clone
        rng = memo.get(id(self._rng))
        with self._rng.bit_generator.lock:
            state, finals, wall = self._state, self._finals, self.wall
            clone._t = self._t
            clone._heap_events = self._heap_events
            if rng is None:
                rng = memo[id(self._rng)] = generator_from_state(
                    self._rng.bit_generator.state
                )
        clone._r = self._r
        clone._state = state[:]
        clone._m_heap_events = self._m_heap_events
        clone._finals = (
            (clone._state, finals[1]) if finals is not None and finals[0] is state else None
        )
        clone._rows = None
        clone.wall = None if wall is None else wall.copy()
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
        return self._state[0]

    @property
    def heap_events(self) -> int:
        """Total replacements processed — O(R log m) in expectation."""
        return self._heap_events

    def approx_size_bytes(self) -> int:
        """Approximate resident bytes: the state buffer (see
        :mod:`repro.lifecycle.memory`)."""
        return INSTANCE_BYTES + RNG_STATE_BYTES + ndarray_bytes(self._view())

    def _view(self) -> np.ndarray:
        return np.frombuffer(self._state, dtype=np.int64)

    def stamp_arrivals(self, since: int, ts) -> None:
        """The arrival-stamp rule in Python: each instance whose sampled
        occurrence lies past position ``since`` gets that occurrence's
        arrival time in :attr:`wall`, ``ts`` holding the arrival times
        of positions ``since + 1`` on.  The compiled loop writes the
        same stamps event by event; the time-window samplers call this
        after a scalar :meth:`update`."""
        stamps = self._view()[_col(self._r, _STAMPS)]
        fresh = stamps > since
        self.wall[fresh] = np.asarray(ts, dtype=np.float64)[stamps[fresh] - since - 1]

    def update(self, item: int) -> None:
        """The rule on the buffer in place (the executable spec the
        compiled loop matches): advance the position, run the heap
        events due there, then count the item if it is tracked."""
        s = self._state
        t = self._t + 1
        at = self._rows if self._rows is not None else self._index()
        if s[1 + 4 * self._r] == t:  # the heap top's time (column _HEAP)
            self._wake(item, t)
            at = self._rows
            if s[0] != len(at):
                self._squeeze()
                at = self._rows
        self._t = t
        self._finals = None
        count = at.get(item)
        if count is not None:
            s[count] += 1

    def _feed(self, items) -> None:
        """:meth:`update` over a chunk, closing the holes once: an item
        untracked by :meth:`_wake` leaves a hole in the key/count/ref
        rows, closed when the rows run out and before returning, so
        other methods always see the rows packed."""
        s = self._state
        top = 1 + 4 * self._r  # the heap top's time (column _HEAP)
        due = s[top]
        at = (self._rows if self._rows is not None else self._index()).get
        t = self._t
        self._finals = None
        for item in items:
            t += 1
            if t == due:
                self._wake(item, t)
                due, at = s[top], self._rows.get
            count = at(item)
            if count is not None:
                s[count] += 1
        self._t = t
        if s[0] != len(self._rows):
            self._squeeze()

    def _index(self) -> dict[int, int]:
        """Where each tracked item's count is in the buffer (the
        :meth:`_feed` lookup; its refs are ``r`` further on); only built
        on packed rows."""
        s, r = self._state, self._r
        counts = 1 + _COUNTS * r
        self._rows = {key: counts + row for row, key in enumerate(s[_col(r, _KEYS, s[0])])}
        return self._rows

    def _squeeze(self) -> None:
        """Close the holes (rows with no refs) in the key/count/ref rows,
        keeping the other rows in order, and reindex the rows that moved."""
        v, r = self._view(), self._r
        n = int(v[0])
        held = v[_col(r, _REFS, n)] != 0
        first = int(held.argmin())  # the first hole
        for col in (_KEYS, _COUNTS, _REFS):
            rows = v[_col(r, col, n)]
            kept = rows[first:][held[first:]]
            rows[first:first + kept.size] = kept
        n = v[0] = first + kept.size
        counts = 1 + _COUNTS * r
        self._rows.update(zip(v[_col(r, _KEYS, n)][first:].tolist(),
                              range(counts + first, counts + n)))

    def _wake(self, item: int, t: int) -> None:
        """The heap events due at position ``t``, which brings ``item``.
        An item untracked here leaves a hole (see :meth:`_feed`)."""
        item = operator.index(item)
        if not -(1 << 63) <= item < 1 << 63:
            raise OverflowError(f"item {item} does not fit an int64")
        s, r = self._state, self._r
        at = self._rows
        slot, live, offsets, stamps, heap, keys = (
            1 + col * r for col in (_SLOT, _LIVE, _OFFSETS, _STAMPS, _HEAP, _KEYS)
        )
        while s[heap] == t:
            idx = s[heap + 1]
            self._heap_events += 1
            if s[live + idx]:
                old = s[slot + idx]
                count = at[old]
                s[count + r] -= 1  # its refs
                if not s[count + r]:
                    del at[old]
            s[slot + idx] = item
            s[live + idx] = 1
            count = at.get(item)
            if count is None:
                if s[0] == r:  # no free row: at least one is a hole
                    self._squeeze()
                    at = self._rows
                row = s[0]
                s[0] = row + 1
                s[keys + row] = item
                count = at[item] = keys + r + row
                s[count] = 0
                s[count + r] = 1
            else:
                s[count + r] += 1
            s[offsets + idx] = s[count]
            s[stamps + idx] = t
            _sift_top(s, heap, r, skip_next_replacement(t, self._rng), idx)

    def extend(self, items) -> None:
        """Delegates to :meth:`update_batch` (bitwise identical to the
        scalar loop for a fixed seed)."""
        self.update_batch(as_item_array(items))

    def update_batch(self, items, ts=None) -> None:
        """Ingest a chunk of items through the compiled loop
        (:mod:`repro.core.ingest_kernel`): :meth:`update`'s rule in C,
        drawing from this pool's RNG, so for a fixed seed the post-batch
        state — counter insertion order and RNG included — is *bitwise
        identical* to the scalar ``update()`` loop.

        A pool with a :attr:`wall` (a time-window generation's) also
        takes the items' arrival times ``ts``: every instance that adopts
        an item gets the item's arrival time in its :attr:`wall` entry,
        as :meth:`stamp_arrivals` would after the scalar loop.

        The loop runs with the GIL released, on copies of the buffer and
        the wall that replace them whole afterwards, all under the RNG's
        lock (which the loop's draws need anyway).  :meth:`snapshot`,
        clones and folds read under that lock and :meth:`finalize` reads
        one buffer, so a reader on another thread sees the pool, RNG and
        wall included, before or after the call, never part-way.
        Without the compiled loop (no compiler) the chunk runs
        :meth:`update`'s rule.
        """
        arr = np.ascontiguousarray(np.asarray(items, dtype=np.int64))
        if arr.ndim != 1:
            raise ValueError("update_batch expects a 1-d sequence of items")
        if (ts is None) != (self.wall is None):
            raise ValueError("arrival times go with a pool that keeps a wall, "
                             "and only with one")
        if ts is not None:
            ts = np.ascontiguousarray(ts, dtype=np.float64)
            if ts.shape != arr.shape:
                raise ValueError(
                    f"arrival stamps need one time per item ({arr.size})"
                )
        if arr.size == 0:
            return
        before = self._heap_events
        if ingest_kernel.kernel_impl() == "c":
            with self._rng.bit_generator.lock:
                state = self._state[:]
                wall = None if ts is None else self.wall.copy()
                self._heap_events += ingest_kernel.run(
                    arr, self._t, self._r, state, self._rng, ts, wall
                )
                # The buffer goes in before the position: finalize reads
                # the position first, and a nonzero one means every
                # instance of the buffer it then reads holds an item.
                self._state = state
                if wall is not None:
                    self.wall = wall
                self._t += int(arr.size)
                self._finals = self._rows = None
        else:
            since = self._t
            self._feed(arr.tolist())
            if ts is not None:
                self.stamp_arrivals(since, ts)
        events = self._heap_events - before
        if events:
            self._m_heap_events.add(events)

    def snapshot(self) -> dict:
        """Checkpoint the full pool state: the state buffer as one int64
        array, plus the position, the event count and the RNG state.

        The layout is plain (one NumPy array, ints, and the RNG state
        dict) so :mod:`repro.engine.state` can serialize it to bytes
        without pickling, and a restored pool continues the stream
        bitwise-identically.  The buffer is canonical, so equal pools
        give equal bytes: the heap pairs are listed sorted, and the
        key/count/ref rows past ``tracked`` (which the ingest loops
        leave stale) are zeroed.
        """
        with self._rng.bit_generator.lock:  # see update_batch
            s, t, events = self._state, self._t, self._heap_events
            rng_state = self._rng.bit_generator.state
        v = np.frombuffer(s, dtype=np.int64).copy()
        _canonicalize(self._r, v)
        return {
            "kind": "sampler_pool",
            "instances": self._r,
            "position": t,
            "heap_events": events,
            "state": v,
            "rng_state": rng_state,
        }

    def restore(self, state: dict) -> None:
        """Overwrite this pool's state from a :meth:`snapshot` dict.

        Snapshots come from outside the process (checkpoint files,
        worker specs), so the structure is checked before anything is
        overwritten: a buffer of ``1 + 9·instances`` words, the position
        in ``[0, 2^63)``, at most ``instances`` tracked items, each
        listed once, live flags 0 or 1, heap slots a permutation of the
        instances, and each tracked item's ref count equal to the number
        of instances holding it.  The buffer is copied and put in the
        canonical form :meth:`snapshot` writes.  A snapshot in the older
        ten-column form (``items``, ``offsets``, ``heap_times``, ...,
        ``ref_vals``) loads through the same checks.  A malformed
        snapshot raises :class:`ValueError` and leaves the pool (and its
        RNG) as it was."""
        if state.get("kind") != "sampler_pool":
            raise ValueError(f"not a sampler_pool snapshot: {state.get('kind')!r}")
        r = int(state["instances"])
        if r < 1:
            raise ValueError(f"snapshot has {r} instances, need at least one")
        t = int(state["position"])
        if not 0 <= t < 1 << 63:
            raise ValueError(f"snapshot position {t} is outside [0, 2^63)")
        buf = _from_buffer(r, state["state"]) if "state" in state else _from_columns(r, state)
        if not _well_formed(r, buf):
            raise ValueError(
                "snapshot is not a consistent pool: heap slots must be one entry "
                "per instance, live flags 0 or 1, tracked items distinct and no "
                "more than the instances, and each item's ref count the number "
                "of instances holding it"
            )
        rng = generator_from_state(state["rng_state"])
        self._r = r
        self._t = t
        self._heap_events = int(state["heap_events"])
        self._state = buf
        self._finals = self._rows = None
        self._rng = rng

    @classmethod
    def from_snapshot(
        cls, state: dict, registry: MetricsRegistry | None = None
    ) -> "SamplerPool":
        # Skips __init__: restore sets every field, and a throwaway
        # default_rng() would read OS entropy only to be overwritten.
        pool = cls.__new__(cls)
        pool.wall = None
        pool.bind_metrics(registry if registry is not None else current_registry())
        pool.restore(state)
        return pool

    def merge(self, other: "SamplerPool") -> list[bool]:
        """Absorb a pool that ingested a *disjoint* partition of the
        universe (items of the two substreams must not overlap — a hash
        partition guarantees this; overlapping supports silently break the
        forward-count semantics).

        The two-pool :meth:`fold`, drawing from this pool's RNG: merged
        instance ``k`` keeps this pool's ``k``-th instance with
        probability ``m₁/(m₁+m₂)``, else adopts ``other``'s — i.e. a
        uniform position over the concatenated stream.  Because item
        supports are disjoint, a kept instance's forward count in its own
        substream *is* its forward count in any interleaving, so the
        merged pool is distributed exactly as one pool run over the
        concatenation (the mergeability behind the sharded engine).
        Replacement times are redrawn at the merged length — valid since
        a reservoir's next-replacement law depends only on its position.

        Returns the per-instance pick mask (``True`` where this pool's
        instance was kept); a ``wall`` is merged by the same picks.
        """
        picks = self._fold([self, other])
        return [True] * self._r if picks is None else (picks == 0).tolist()

    @classmethod
    def fold(cls, pools) -> "SamplerPool":
        """One fresh pool holding the merge of ``pools`` (over disjoint
        universe partitions; see :meth:`merge`), the inputs untouched.

        The fold draws from a copy of the first pool's RNG: one block of
        ``R`` uniforms ``u``, instance ``k`` taking the first pool ``j``
        with ``u_k < C_j/Σm`` (``C_j`` the prefix sums of the pools'
        positions ``m_j``), then one block of wakes redrawn at ``Σm``.
        So instance ``k`` comes from pool ``j`` with probability
        ``m_j/Σm``, the law ``K − 1`` pairwise merges give, and two pools
        fold exactly as :meth:`merge` merges them.  When only one pool
        holds items no coin is drawn, and when no pool past the first
        does nothing is drawn at all."""
        out = copy.deepcopy(pools[0])
        out._fold([out, *pools[1:]])
        return out

    def _fold(self, pools: list["SamplerPool"]) -> np.ndarray | None:
        """Fold ``pools`` (this pool first; each read under its RNG's
        lock, like a clone) into this pool, drawing from its RNG; returns
        each instance's pick, or ``None`` when no pool past the first
        holds an item: then nothing is drawn and nothing changes."""
        r = self._r
        for other in pools[1:]:
            if not isinstance(other, SamplerPool):
                raise TypeError(f"cannot merge SamplerPool with {type(other).__name__}")
            if other._r != r:
                raise ValueError(f"instance counts differ: {r} vs {other._r}")
        parts = []
        for pool in pools:
            with pool._rng.bit_generator.lock:
                parts.append((pool._state, pool._t, pool._heap_events, pool.wall))
        states, sizes, events, walls = zip(*parts)
        total = sum(sizes)
        if total == sizes[0]:
            return None
        if total >= _WAKE_CAP:
            raise OverflowError(f"merged position {total} does not fit an int64")
        # Pool j's stamps follow the streams of the pools before it.
        shifts = array("q", accumulate(sizes[:-1], initial=0))
        # One coin block (the same floats as R scalar draws, in order),
        # then one batched draw for the schedule redrawn at the merged
        # length — bitwise R scalar skip_next_replacement calls.
        fed = [j for j, size in enumerate(sizes) if size]
        if len(fed) > 1:
            # Python int division: exact thresholds past 2^53 too.
            thresholds = np.array([c / total for c in shifts[1:]])
            picks = thresholds.searchsorted(self._rng.random(r), side="right")
        else:
            picks = np.full(r, fed[0], dtype=np.int64)
        wakes = skip_wakes(total, r, self._rng)
        walls = None if walls[0] is None else np.concatenate(walls).reshape(len(pools), r)
        if ingest_kernel.kernel_impl() == "c":
            state, wall = ingest_kernel.fold(r, states, shifts, picks, wakes, walls)
        else:
            state = _fold_rule(r, states, shifts, picks, wakes)
            wall = None if walls is None else walls[picks, np.arange(r)]
        with self._rng.bit_generator.lock:
            self._state, self._t, self._heap_events = state, total, sum(events)
            if wall is not None:
                self.wall = wall
            self._finals = self._rows = None
        return picks

    def finalize(self) -> list[tuple[int, int, int]]:
        """Per-instance ``(item, count, timestamp)`` triples.

        ``count`` includes the sampled occurrence (≥ 1).  Empty when the
        stream was empty.  Computed once per pool state: the answer is
        kept with the buffer it was read from and reused only while that
        buffer is the pool's, so an answer finished after another
        thread's :meth:`update_batch` swapped the buffer is never reused.
        """
        if self._t == 0:
            return []
        s = self._state
        memo = self._finals
        if memo is None or memo[0] is not s:
            r = self._r
            items = s[_col(r, _SLOT)].tolist()
            if ingest_kernel.kernel_impl() == "c":
                forward = ingest_kernel.forward_counts(r, s).tolist()
            else:
                n = s[0]
                count_of = dict(zip(s[_col(r, _KEYS, n)], s[_col(r, _COUNTS, n)]))
                forward = [count_of[item] - off
                           for item, off in zip(items, s[_col(r, _OFFSETS)])]
            memo = self._finals = (s, tuple(zip(items, forward, s[_col(r, _STAMPS)].tolist())))
        return list(memo[1])


def clone_pool_first(sampler, memo: dict):
    """``copy.deepcopy`` of a pool-backed sampler that copies its
    ``_pool`` before its other fields.  The pool's clone rebuilds the RNG
    the two share from its state (under the pool's lock) and registers it
    in ``memo``, so the sampler's ``_rng`` is found there instead of
    going through NumPy's pickle path; the copy, RNG state included, is
    the generic one."""
    clone = object.__new__(type(sampler))
    memo[id(sampler)] = clone
    fields = clone.__dict__
    fields["_pool"] = copy.deepcopy(sampler._pool, memo)
    for name, value in sampler.__dict__.items():
        if name != "_pool":
            fields[name] = copy.deepcopy(value, memo)
    return clone


def fold_pool_backed(samplers):
    """The merge of pool-backed samplers into a fresh one, the inputs
    untouched: the first's fields (shared, so the caller replaces any it
    mutates) with one :meth:`SamplerPool.fold` of the pools, whose RNG
    (a copy of the first's) the fold's queries draw from."""
    first = samplers[0]
    for other in samplers[1:]:
        first._check_foldable(other)
    out = object.__new__(type(first))
    out.__dict__.update(first.__dict__)
    out._pool = SamplerPool.fold([sampler._pool for sampler in samplers])
    out._rng = out._pool._rng
    return out


#: The columns of a pool's state buffer, each ``r`` long after the
#: leading ``tracked`` count (the heap takes two: interleaved pairs).
_SLOT, _LIVE, _OFFSETS, _STAMPS, _HEAP, _KEYS, _COUNTS, _REFS = 0, 1, 2, 3, 4, 6, 7, 8


def _col(r: int, col: int, n: int | None = None) -> slice:
    """The first ``n`` (default ``r``) entries of column ``col``."""
    start = 1 + col * r
    return slice(start, start + (r if n is None else n))


def _build(r: int, heap_times, heap_slots, *, items, live, offsets, stamps,
           keys, counts, refs) -> array:
    """A new ``r``-instance state buffer from its columns (a scalar
    fills its column); the heap pairs go in sorted, which makes them a
    heap."""
    state = array("q", bytes(8 * (1 + 9 * r)))
    v = np.frombuffer(state, dtype=np.int64)
    v[0] = len(keys)
    for col, values in ((_SLOT, items), (_LIVE, live), (_OFFSETS, offsets),
                        (_STAMPS, stamps)):
        v[_col(r, col)] = values
    times, slots = np.asarray(heap_times), np.asarray(heap_slots)
    order = np.lexsort((slots, times))
    heap = v[_col(r, _HEAP, 2 * r)]
    heap[0::2], heap[1::2] = times[order], slots[order]
    for col, values in ((_KEYS, keys), (_COUNTS, counts), (_REFS, refs)):
        v[_col(r, col, len(keys))] = values
    return state


def _fold_rule(r: int, states: list[array], shifts: array, picks: np.ndarray,
               wakes: array) -> array:
    """:meth:`SamplerPool.fold`'s buffer without the compiled loops:
    instance ``k`` takes pool ``picks[k]``'s ``(item, forward count,
    stamp)``, the stamp shifted; counts (the largest picked forward
    count) and refs go in first-pick order."""
    count_of: dict[int, dict] = {}
    items, forward, stamps = [], [], []
    for k, j in enumerate(picks.tolist()):
        s = states[j]
        if j not in count_of:
            n = s[0]
            count_of[j] = dict(zip(s[_col(r, _KEYS, n)], s[_col(r, _COUNTS, n)]))
        item = s[1 + _SLOT * r + k]
        items.append(item)
        forward.append(count_of[j][item] - s[1 + _OFFSETS * r + k])
        stamps.append(s[1 + _STAMPS * r + k] + shifts[j])
    counts: dict[int, int] = {}
    refs: dict[int, int] = {}
    for item, count in zip(items, forward):
        refs[item] = refs.get(item, 0) + 1
        counts[item] = max(counts.get(item, 0), count)
    return _build(
        r, wakes, range(r), items=items, live=1,
        offsets=[counts[item] - count for item, count in zip(items, forward)],
        stamps=stamps, keys=list(counts), counts=list(counts.values()),
        refs=list(refs.values()),
    )


def _canonicalize(r: int, v: np.ndarray) -> None:
    """Put the ``r``-instance buffer ``v`` in canonical form, in place:
    heap pairs sorted (a sorted array is a heap), dead instances' slots
    and the key/count/ref rows past ``tracked`` zeroed."""
    heap = v[_col(r, _HEAP, 2 * r)].reshape(r, 2)
    heap[:] = heap[np.lexsort((heap[:, 1], heap[:, 0]))]
    v[_col(r, _SLOT)][v[_col(r, _LIVE)] == 0] = 0
    tracked = int(v[0])
    if 0 <= tracked <= r:
        v[1 + _KEYS * r:].reshape(3, r)[:, tracked:] = 0


def _from_buffer(r: int, values) -> array:
    """A canonical copy of a snapshot's ``state`` buffer (not yet
    checked for consistency)."""
    v = np.asarray(values)
    if v.dtype.kind != "i" or v.shape != (1 + 9 * r,):
        raise ValueError(
            f"snapshot state buffer is {v.dtype} of shape {v.shape}, "
            f"not 1 + 9 * {r} integer words"
        )
    v = v.astype(np.int64)  # a copy, never the caller's array
    _canonicalize(r, v)
    buf = array("q")
    buf.frombytes(memoryview(v).cast("B"))
    return buf


def _from_columns(r: int, state: dict) -> array:
    """The buffer of a snapshot in the older ten-column form (arrays of
    items, liveness, offsets, timestamps, sorted heap times and slots,
    and the counter and ref tables)."""
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
    items = _int64(state["items"])
    # The oldest snapshots (no liveness mask) used -1 as the only empty
    # marker; negative ids were unrepresentable there.
    live = items >= 0 if live is None else _int64(live) != 0
    keys = _int64(state["count_keys"])
    counts = _int64(state["count_vals"])
    refs = _int64(state["ref_vals"])
    if not np.array_equal(keys, _int64(state["ref_keys"])):
        raise ValueError("snapshot counter and ref tables list different items")
    if not len(counts) == len(refs) == len(keys):
        raise ValueError("snapshot counter and ref tables differ in length")
    if len(keys) > r:
        raise ValueError(f"snapshot tracks {len(keys)} items, more than {r} instances hold")
    return _build(
        r, _int64(state["heap_times"]), _int64(state["heap_slots"]),
        items=np.where(live, items, 0), live=live,
        offsets=_int64(state["offsets"]), stamps=_int64(state["timestamps"]),
        keys=keys, counts=counts, refs=refs,
    )


def _int64(values) -> np.ndarray:
    """A snapshot array (or sequence) as int64."""
    return np.asarray(values, dtype=np.int64).reshape(-1)


def _well_formed(r: int, s: array) -> bool:
    """Whether ``s`` is a consistent ``r``-instance buffer — the
    compiled check, or the same rules in Python without a compiler."""
    if ingest_kernel.kernel_impl() == "c":
        return ingest_kernel.check(r, s)
    tracked = s[0]
    keys = s[_col(r, _KEYS, tracked)]
    live = s[_col(r, _LIVE)]
    holders: dict[int, int] = {}
    for item, on in zip(s[_col(r, _SLOT)], live):
        if on:
            holders[item] = holders.get(item, 0) + 1
    return (
        0 <= tracked <= r
        and set(live) <= {0, 1}
        and sorted(s[_col(r, _HEAP, 2 * r)][1::2]) == list(range(r))
        and len(set(keys)) == tracked
        and holders == dict(zip(keys, s[_col(r, _REFS, tracked)]))
    )


def _sift_top(s: array, heap: int, r: int, time: int, idx: int) -> None:
    """Replace the top of the ``r``-entry heap of ``(time, idx)`` pairs
    at ``s[heap:]`` with ``(time, idx)`` and sift it down — the compiled
    loop's replace-top, so both leave the same heap."""
    pos, c = 0, 1
    while c < r:
        at = heap + 2 * c
        ct, ci = s[at], s[at + 1]
        if c + 1 < r:
            rt = s[at + 2]
            if rt < ct or (rt == ct and s[at + 3] < ci):
                c, ct, ci = c + 1, rt, s[at + 3]
        if ct > time or (ct == time and ci > idx):
            break
        s[heap + 2 * pos] = ct
        s[heap + 2 * pos + 1] = ci
        pos, c = c, 2 * c + 1
    s[heap + 2 * pos] = time
    s[heap + 2 * pos + 1] = idx


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
        self._check_foldable(other)
        self._pool.merge(other._pool)

    @classmethod
    def fold(cls, samplers) -> "TrulyPerfectGSampler":
        """The K-way :meth:`merge` (:func:`fold_pool_backed`)."""
        return fold_pool_backed(samplers)

    def _check_foldable(self, other) -> None:
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

    def __deepcopy__(self, memo: dict) -> "TrulyPerfectGSampler":
        return clone_pool_first(self, memo)

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
