"""Timeline-precomputed ingest kernel primitives.

The pool kernel's heap events are *data-independent*: the next
replacement time of an instance depends only on the current stream
position and the RNG (``skip_next_replacement``), never on the items.
That splits batched ingestion into two phases:

1. :func:`simulate_events` replays the whole heap-event schedule for a
   chunk up front — pop order, event positions, instance ids, next
   wakeups — drawing the skip-ahead jumps in blocks so the RNG stream is
   consumed *bitwise identically* to the scalar ``update()`` loop;
2. the data-dependent remainder (which item sits at each event position,
   shared-counter settles, the end-of-chunk flush) collapses to prefix
   rank and whole-chunk count queries about a known set of candidate
   values, answered by one :class:`PositionIndex` per chunk.

There is one route.  :func:`shard_views` plans every pool's events for
its part of a chunk, collects the candidates (tracked items plus event
items), builds the one index and hands back one :class:`ShardView` per
pool; ``SamplerPool.update_batch`` consumes views through its single
event loop.  A lone pool's array chunk is the one-view case (identity
positions), and the sharded engine's K-way split is the general one.
"""

from __future__ import annotations

import heapq
import math

import numpy as np

__all__ = [
    "PositionIndex",
    "ShardView",
    "shard_views",
    "simulate_events",
]

#: Span-table rule: a value→id table sized to the chunk's value span is
#: used while the span is at most this many times the chunk length;
#: wider chunks map values by ``searchsorted`` into the candidates.
_SPAN_PER_ITEM = 8


def simulate_events(
    heap: list[tuple[int, int]],
    end: int,
    rng: np.random.Generator,
    expect: int = 64,
) -> tuple[list[int], list[int]]:
    """Phase 1: replay every heap event scheduled at positions ≤ ``end``.

    Pops ``(time, idx)`` entries in exactly the scalar order, draws each
    popped instance's next wakeup (``max(t+1, ceil(t/u))``) from ``rng``,
    and pushes it back.  On return the heap holds the post-chunk schedule
    and the RNG stream has advanced by exactly one draw per event —
    bitwise identical to the scalar loop.

    Returns ``(times, slots)``: the absolute event positions and the
    instance ids, in pop order.  Pure timeline — no item data involved.
    """
    if not heap or heap[0][0] > end:
        return [], []
    times: list[int] = []
    slots: list[int] = []
    # Block draws: ``rng.random(n)`` yields the same floats, and leaves
    # the generator in the same state, as ``n`` scalar ``rng.random()``
    # calls.  The count is unknown up front, so draw in growing blocks
    # and, at the end, rewind to the saved state and re-draw exactly the
    # number taken.
    saved = None
    buf: list[float] = []
    pos = 0
    taken = 0
    block = max(1, int(expect))
    pop, push = heapq.heappop, heapq.heappush
    ceil = math.ceil
    while heap and heap[0][0] <= end:
        time, idx = pop(heap)
        times.append(time)
        slots.append(idx)
        if pos >= len(buf):
            if saved is None:
                saved = rng.bit_generator.state
            buf = rng.random(block).tolist()
            pos = 0
            block = min(block * 2, 1 << 16)
        u = buf[pos]
        pos += 1
        taken += 1
        if u <= 0.0:  # pragma: no cover - measure-zero guard
            nxt = time + 1
        else:
            nxt = ceil(time / u)
            if nxt <= time:
                nxt = time + 1
        push(heap, (nxt, idx))
    if saved is not None and pos < len(buf):
        # Rewind: leave the RNG exactly where `taken` scalar draws would.
        rng.bit_generator.state = saved
        rng.random(taken)
    return times, slots


class PositionIndex:
    """Candidate-limited position index over one chunk.

    The pool kernel asks two kinds of question, both about *candidates*
    — items a pool tracked when the chunk began, plus items sitting at
    event positions, all known before any data is applied because heap
    events are data-independent:

    * whole-chunk totals, for the end-of-chunk flush;
    * prefix ranks — occurrences of ``v`` at chunk positions ``< g`` —
      for bounds ``g ≤ prefix`` (every bound is an event position, so
      ``prefix`` is the last one; with no events it is 0 and the rank
      side is never built).

    ``candidates`` must be sorted and unique.  Every chunk value is first
    given a chunk-local dense *slot*, by a map picked from the chunk
    itself: its offset in the chunk's value span when that span is small
    relative to the chunk, otherwise its index in the sorted candidates
    (one ``searchsorted``; non-candidates share one miss slot).  Nothing is sized to the id universe, so any
    ``int64`` ids work, negative ones too.  Totals are one ``bincount``
    of the slots, kept as the :attr:`totals` dict.

    Ranks are built over the prefix only, as one sorted array of encoded
    keys ``rank_id · (prefix + 1) + position``, so one ``searchsorted``
    pair answers every rank query of a call.  Grouping the positions by
    rank id splits the candidates by chunk mass:

    * **heavy** — the ≤255 candidates with the largest totals (rank ids
      ``0 … h−1``) are grouped by one one-pass ``uint8`` radix argsort of
      the prefix, everything else falling into group 255;
    * **light** — the remaining candidates (rank ids from ``h``) are
      picked out of that group-255 tail and grouped by a second, much
      smaller sort.

    Queries about non-candidates return 0.
    """

    __slots__ = ("size", "totals", "_cand", "_rid", "_stride", "_keys", "_starts")

    #: Heavy group ids fit uint8 with 255 reserved for everything else.
    _HEAVY_CAP = 255

    def __init__(self, base: np.ndarray, candidates, prefix: int | None = None) -> None:
        n = int(base.size)
        self.size = n
        cand = np.asarray(candidates, dtype=np.int64)
        self._cand = cand
        prefix = n if prefix is None else min(int(prefix), n)
        stride = self._stride = np.int64(prefix + 1)
        #: Whole-chunk occurrence count of every candidate that can occur
        #: in the chunk (a dict: the flush looks items up one by one).
        self.totals: dict[int, int] = {}
        # Rank id per candidate (-1: cannot occur in the chunk); the rank
        # side stays None when no query can have a bound above 0.
        self._rid = None
        self._keys = self._starts = None
        nc = int(cand.size)
        if n == 0 or nc == 0:
            return
        # Slots of the chunk values, and of candidates a..b-1 (the rest
        # cannot occur in the chunk).
        lo, hi = int(base.min()), int(base.max())
        span = hi - lo + 1
        if span <= _SPAN_PER_ITEM * n:
            slots = base - lo
            a = int(cand.searchsorted(lo))
            b = int(cand.searchsorted(hi, side="right"))
            cslot = cand[a:b] - lo
            width = span
        else:
            cid = cand.searchsorted(base)
            np.minimum(cid, nc - 1, out=cid)
            slots = np.where(cand[cid] == base, cid, nc)
            a, b = 0, nc
            cslot = np.arange(nc, dtype=np.int64)
            width = nc + 1
        totals = np.bincount(slots, minlength=width)[cslot]
        self.totals = dict(zip(cand[a:b].tolist(), totals.tolist()))
        if prefix == 0 or a == b:
            return
        head = slots[:prefix]
        m = b - a
        cap = self._HEAVY_CAP
        heavy = (
            np.argpartition(totals, m - cap)[m - cap:] if m > cap else np.arange(m)
        )
        nh = nr = int(heavy.size)
        rid = np.full(nc, -1, dtype=np.int64)
        rid[a + heavy] = np.arange(nh)
        hlut = np.full(width, cap, dtype=np.uint8)
        hlut[cslot[heavy]] = np.arange(nh, dtype=np.uint8)
        hid = hlut[head]
        horder = np.argsort(hid, kind="stable")
        hsorted = hid[horder]
        nheavy = int(hsorted.searchsorted(np.uint8(nh)))
        lhit = lorder = None
        if m > cap:
            light = np.ones(m, dtype=bool)
            light[heavy] = False
            lsel = np.flatnonzero(light)
            nl = int(lsel.size)
            nr += nl
            rid[a + lsel] = np.arange(nh, nr)
            llut = np.full(width, -1, dtype=np.int32)
            llut[cslot[lsel]] = np.arange(nl, dtype=np.int32)
            tail = horder[nheavy:]
            li = llut[head[tail]]
            lhit = np.flatnonzero(li >= 0)
            lid = li[lhit].astype(np.uint16 if nl <= 0xFFFF else np.int64)
            lorder = np.argsort(lid, kind="stable")
        # One key array, filled in place: chunk-sized temporaries cost
        # page faults on every call.
        keys = np.empty(nheavy + (0 if lhit is None else lhit.size), dtype=np.int64)
        heavy_keys = keys[:nheavy]
        np.multiply(hsorted[:nheavy], stride, out=heavy_keys)
        heavy_keys += horder[:nheavy]
        if lhit is not None:
            light_keys = keys[nheavy:]
            light_keys[:] = lid[lorder]
            light_keys += nh
            light_keys *= stride
            light_keys += tail[lhit][lorder]
        self._rid = rid
        self._keys = keys
        self._starts = keys.searchsorted(np.arange(nr, dtype=np.int64) * stride)

    def rank_many(self, items, bounds) -> np.ndarray:
        """Batched prefix ranks: entry ``j`` is the number of
        occurrences of ``items[j]`` at chunk positions ``< bounds[j]``
        (every bound at most ``prefix``)."""
        bnd = np.asarray(bounds, dtype=np.int64)
        if self._rid is None:
            return np.zeros(bnd.size, dtype=np.int64)
        it = np.asarray(items, dtype=np.int64)
        cand = self._cand
        cid = cand.searchsorted(it)
        np.minimum(cid, cand.size - 1, out=cid)
        rid = np.where(cand[cid] == it, self._rid[cid], -1)
        # Rank id -1 (non-candidates) encodes below every key: rank 0.
        q = rid * self._stride
        q += bnd
        # Sorted needles make the searchsorted walk cache-friendly.
        order = np.argsort(q)
        out = np.empty(q.size, dtype=np.int64)
        out[order] = self._keys.searchsorted(q[order])
        out -= np.where(rid >= 0, self._starts[rid], 0)
        return out


class ShardView:
    """A pool's part of a chunk, by *position* instead of by copy: the
    base chunk, the (ascending) positions this pool owns — ``None`` for
    all of them, the one-pool case — the chunk's shared
    :class:`PositionIndex`, and the pool's planned event schedule.

    The ownership contract (what a value partition guarantees): *every*
    occurrence in ``base`` of any item this pool tracks — or adopts
    during the chunk — sits at one of ``positions``.  That makes chunk
    prefix ranks pool-locally meaningful (an owned item has no
    occurrences outside the view, so its settled rank starts at 0 and
    its flush total is the whole-chunk count), and the pool kernel
    consumes the view with O(events) work, never materializing the
    subchunk.

    ``events`` is the ``(times, slots)`` pair the pool's ``plan_batch``
    returned for this view: phase 1 has already run, and the kernel only
    applies the data.
    """

    __slots__ = ("base", "positions", "index", "events")

    def __init__(
        self,
        base: np.ndarray,
        positions: np.ndarray | None,
        index: PositionIndex,
        events: tuple[list[int], list[int]],
    ) -> None:
        self.base = base
        self.positions = positions
        self.index = index
        self.events = events

    @property
    def size(self) -> int:
        if self.positions is None:
            return int(self.base.size)
        return int(self.positions.size)

    def values(self) -> np.ndarray:
        """Materialize the subchunk (the one gather the view otherwise
        avoids) — for consumers that need the raw items, e.g. the
        Misra–Gries normalizer pass."""
        if self.positions is None:
            return self.base
        return self.base[self.positions]

    def chunk_positions(self, offsets: np.ndarray) -> np.ndarray:
        """Chunk positions of view-local ``offsets``."""
        if self.positions is None:
            return offsets
        return self.positions[offsets]


def shard_views(
    base: np.ndarray,
    order: np.ndarray | None,
    bounds: np.ndarray,
    pools: list,
) -> list[ShardView | None]:
    """Phase 1 for every pool's part of one chunk, then the shared index.

    Pool ``k`` owns chunk positions ``order[bounds[k]:bounds[k+1]]``
    (``order`` ``None``: the identity grouping, one pool owning the
    whole chunk).  Each pool with a non-empty part plans its events
    (``plan_batch`` — its heap and RNG advance now); the tracked items
    plus the event items are every value any pool will query, so one
    :class:`PositionIndex` over the chunk, with ranks up to the last
    event position, serves them all.  Entry ``k`` of the result is pool
    ``k``'s view, or ``None`` for an empty part.  Every view must then
    be applied exactly once (``update_batch(view)``).
    """
    plans: list[tuple[list[int], list[int]] | None] = []
    parts: list[np.ndarray] = []
    prefix = 0
    # A lone pool's tracked items are unique already; event items repeat
    # and may be tracked too.
    dedupe = len(pools) > 1
    for k, pool in enumerate(pools):
        lo, hi = int(bounds[k]), int(bounds[k + 1])
        if hi <= lo:
            plans.append(None)
            continue
        tracked = pool.tracked_values()
        if tracked.size:
            parts.append(tracked)
        t0 = pool.position
        plan = pool.plan_batch(hi - lo)
        plans.append(plan)
        if plan[0]:
            offs = np.asarray(plan[0], dtype=np.int64)
            offs -= t0 + 1
            gpos = offs if order is None else order[lo + offs]
            parts.append(base[gpos])
            prefix = max(prefix, int(gpos.max()))
            dedupe = True
    cand = np.sort(np.concatenate(parts)) if parts else np.empty(0, dtype=np.int64)
    if dedupe and cand.size > 1:
        keep = np.empty(cand.size, dtype=bool)
        keep[0] = True
        np.not_equal(cand[1:], cand[:-1], out=keep[1:])
        cand = cand[keep]
    index = PositionIndex(base, cand, prefix)
    views: list[ShardView | None] = []
    for k, plan in enumerate(plans):
        if plan is None:
            views.append(None)
            continue
        lo, hi = int(bounds[k]), int(bounds[k + 1])
        positions = None if order is None else order[lo:hi]
        views.append(ShardView(base, positions, index, plan))
    return views
