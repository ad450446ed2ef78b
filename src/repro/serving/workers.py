"""Shard-parallel ingest: bounded per-shard queues + worker threads.

**Queues.**  :class:`ShardQueues` holds one FIFO lane per shard with a
shared capacity gate.  A submit *reserves* capacity on every target
shard before enqueuing anything, so backpressure is atomic: either the
whole batch is accepted, or nothing was enqueued and the caller gets a
:class:`~repro.serving.errors.Backpressure` (shed policy) or blocks
until the high-water mark clears (block policy).  Occupancy counts both
queued and in-flight items, so a slow shard throttles its producers
even while its worker is mid-batch.

**Workers.**  Each :class:`IngestWorker` owns a disjoint set of shards
(round-robin by worker index).  Each turn takes one coalesced
micro-batch from every non-empty owned lane and hands them, in shard
order, to ``engine.ingest_shard`` under that shard's write lock.
Per-shard FIFO plus single ownership gives the determinism the tests
pin down: the final shard state is bitwise identical to a sequential
``engine.ingest`` of the same submits, for any worker count — batching
boundaries don't matter because ``update_batch`` is bitwise equal to
the scalar loop, and cross-shard interleaving doesn't matter because
shards share no state.
"""

from __future__ import annotations

import threading
import time
from collections import deque

import numpy as np

from repro.obs.catalog import CATALOG_HELP
from repro.obs.metrics import SIZE_BUCKETS, current_registry
from repro.obs.trace import span
from repro.serving.errors import Backpressure, FlushTimeout, ServiceClosed
from repro.serving.router import RoutedBatch

__all__ = ["ShardQueues", "IngestWorker"]


class ShardQueues:
    """Bounded per-shard FIFO lanes behind one condition gate."""

    def __init__(self, shards: int, capacity: int) -> None:
        if capacity < 1:
            raise ValueError(f"queue capacity must be ≥ 1, got {capacity}")
        self._lanes: list[deque[RoutedBatch]] = [deque() for _ in range(shards)]
        self._occupancy = [0] * shards  # queued + in-flight items
        self._capacity = capacity
        lock = threading.RLock()
        self._gate = threading.Condition(lock)
        # Ingest workers park on their own condition over the same lock:
        # only a put (or close) gives them work, so a release that wakes
        # producers and flushers leaves them asleep.
        self._work = threading.Condition(lock)
        self._closed = False
        self.submitted_items = 0
        self.shed_count = 0
        # The one store of applied/failed counts: the service's stats()
        # sums them and the registry's per-shard counters read them.
        self.applied_by_shard = [0] * shards
        self.failed_by_shard = [0] * shards

    @property
    def applied_items(self) -> int:
        return sum(self.applied_by_shard)

    @property
    def failed_items(self) -> int:
        return sum(self.failed_by_shard)

    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def shards(self) -> int:
        return len(self._lanes)

    def depths(self) -> list[int]:
        """Per-shard occupancy (queued + in-flight items)."""
        with self._gate:
            return list(self._occupancy)

    def pending(self) -> int:
        """Total items accepted but not yet applied."""
        with self._gate:
            return sum(self._occupancy)

    def put(
        self,
        parts: list[RoutedBatch],
        *,
        block: bool,
        timeout: float | None = None,
    ) -> int:
        """Enqueue one routed submit atomically; returns items accepted.

        Capacity is checked on *every* target shard before anything is
        enqueued.  With ``block=False`` a full lane sheds the whole
        submit via :class:`Backpressure`; with ``block=True`` the caller
        waits (up to ``timeout``) for every lane to clear its high-water
        mark, then enqueues — still atomically.
        """
        sizes = [(part.shard, len(part)) for part in parts]
        total = sum(n for __, n in sizes)
        if total == 0:
            return 0
        # A part larger than the whole lane can never be admitted — the
        # block policy would park the caller forever and shed would tell
        # it to retry a hopeless batch.  Fail loudly instead.
        oversized = [(s, n) for s, n in sizes if n > self._capacity]
        if oversized:
            shard, n = oversized[0]
            raise ValueError(
                f"routed subchunk of {n} items for shard {shard} exceeds "
                f"the per-shard queue capacity ({self._capacity}); split "
                "the submit into smaller batches or raise queue_capacity"
            )
        with self._gate:
            deadline = None
            while True:
                if self._closed:
                    raise ServiceClosed("service is closed; submit rejected")
                full = [
                    (shard, n)
                    for shard, n in sizes
                    if self._occupancy[shard] + n > self._capacity
                ]
                if not full:
                    break
                shard, n = full[0]
                if not block:
                    self.shed_count += 1
                    raise Backpressure(
                        f"shard {shard} queue at high-water mark "
                        f"({self._occupancy[shard]}/{self._capacity} items, "
                        f"+{n} requested); batch shed atomically — back off "
                        "and retry",
                        shard=shard,
                    )
                if timeout is not None:
                    if deadline is None:
                        deadline = time.monotonic() + timeout
                    remaining = deadline - time.monotonic()
                    if remaining <= 0 or not self._gate.wait(remaining):
                        self.shed_count += 1
                        raise Backpressure(
                            f"shard {shard} queue still at high-water mark "
                            f"after {timeout:g}s; batch shed atomically",
                            shard=shard,
                        )
                else:
                    self._gate.wait()
            for part in parts:
                self._lanes[part.shard].append(part)
                self._occupancy[part.shard] += len(part)
            self.submitted_items += total
            self._gate.notify_all()
            self._work.notify_all()
        return total

    def take(self, shards: list[int], max_items: int) -> list[tuple]:
        """Dequeue one coalesced micro-batch from every non-empty owned
        lane, in ``shards`` order.

        Returns a list of ``(shard, items, timestamps, n)``, one per
        lane: the lane's leading like-shaped entries (up to
        ``max_items``) concatenated outside the gate.  Only lanes whose
        head entry has the first lane's timed/untimed shape are taken,
        so one take is all timed or all untimed.  The list is empty when
        every owned lane is.  The taken items stay counted in occupancy
        until :meth:`release`: callers apply each batch, then release
        it.  A coalescing failure releases every taken item as failed
        before it propagates, so it cannot wedge a flush.
        """
        taken = []
        timed = None
        with self._gate:
            for shard in shards:
                lane = self._lanes[shard]
                if not lane:
                    continue
                if timed is None:
                    timed = lane[0].timestamps is not None
                # Coalesce only like-shaped entries: a timed and an
                # untimed batch cannot concatenate, and mixing them is a
                # caller error the *sampler* should report per-batch.
                batches = []
                n = 0
                while (
                    lane
                    and n < max_items
                    and (lane[0].timestamps is not None) == timed
                ):
                    n += len(lane[0])
                    batches.append(lane.popleft())
                if batches:
                    taken.append((shard, batches, n))
        out = []
        try:
            for shard, batches, n in taken:
                if len(batches) == 1:
                    out.append((shard, batches[0].items, batches[0].timestamps, n))
                    continue
                items = np.concatenate([b.items for b in batches])
                timestamps = (
                    np.concatenate([b.timestamps for b in batches]) if timed else None
                )
                out.append((shard, items, timestamps, n))
        except BaseException:
            self.release([(shard, n, False) for shard, __, n in taken])
            raise
        return out

    def release(self, parts) -> None:
        """Release the occupancy of finished ``(shard, n, ok)`` batches
        under one gate acquisition and one wake-up, counting each
        applied or failed — the only place either count moves, for both
        ingest planes.  Occupancy drains either way (a wedged queue is
        worse than a lost batch), but only successfully-landed items
        count as applied — ``applied_items`` must reconcile with the
        engine's position."""
        with self._gate:
            for shard, n, ok in parts:
                self._occupancy[shard] -= n
                if ok:
                    self.applied_by_shard[shard] += n
                else:
                    self.failed_by_shard[shard] += n
            self._gate.notify_all()

    def wait_empty(self, timeout: float | None = None) -> None:
        """Block until all lanes are drained *and* applied; raises
        :class:`FlushTimeout` with the residue count otherwise."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._gate:
            while True:
                residue = sum(self._occupancy)
                if residue == 0:
                    return
                if deadline is None:
                    self._gate.wait()
                else:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0 or not self._gate.wait(remaining):
                        residue = sum(self._occupancy)
                        if residue == 0:
                            return
                        raise FlushTimeout(
                            f"flush timed out with {residue} items still "
                            "queued or in flight",
                            pending=residue,
                        )

    def close(self) -> None:
        """Reject future puts; queued work remains drainable."""
        with self._gate:
            self._closed = True
            self._gate.notify_all()
            self._work.notify_all()

    def wait_for_work(self, shards: list[int], stop: threading.Event) -> bool:
        """Park a worker until one of its lanes is non-empty or ``stop``
        is set; returns True when there may be work."""
        with self._gate:
            while not stop.is_set():
                if any(self._lanes[s] for s in shards):
                    return True
                self._work.wait(timeout=0.05)
            return any(self._lanes[s] for s in shards)


class IngestWorker(threading.Thread):
    """One ingest thread draining its owned shards' lanes.

    ``shard_locks[s]`` serializes shard ``s``'s writes against the
    fold/compaction passes (never against other workers — ownership is
    disjoint).  On ``stop``, the worker drains its lanes to empty before
    exiting, so ``close(drain=True)`` loses nothing.
    """

    def __init__(
        self,
        index: int,
        engine,
        queues: ShardQueues,
        shard_locks: list[threading.Lock],
        owned_shards: list[int],
        *,
        max_batch: int,
        on_error=None,
        metrics=None,
    ) -> None:
        super().__init__(name=f"repro-ingest-{index}", daemon=True)
        self.index = index
        self._engine = engine
        self._queues = queues
        self._locks = shard_locks
        self._owned = owned_shards
        self._max_batch = max_batch
        self._halt = threading.Event()
        self._on_error = on_error
        # Children pre-resolved per owned shard (ownership is static),
        # so the apply loop never does a label lookup.
        registry = current_registry() if metrics is None else metrics
        apply_s = registry.histogram(
            "repro_serving_ingest_apply_seconds",
            CATALOG_HELP["repro_serving_ingest_apply_seconds"],
            labels=("shard",),
        )
        self._m_apply_s = {s: apply_s.labels(shard=str(s)) for s in owned_shards}
        self._m_coalesce = registry.histogram(
            "repro_serving_batch_coalesce_items",
            CATALOG_HELP["repro_serving_batch_coalesce_items"],
            buckets=SIZE_BUCKETS,
        )

    def stop(self) -> None:
        self._halt.set()

    def _report(self, exc: Exception, shard: int) -> None:
        if self._on_error is None:
            raise exc
        self._on_error(exc, shard)

    def _apply(self, shard: int, items, timestamps, n: int) -> None:
        ok = False
        t0 = time.perf_counter()
        try:
            # A failure anywhere here must still release occupancy and
            # reach on_error, or flush()/close(drain=True) would wedge
            # on items that will never land.
            with span("serving.apply", shard=shard, items=n):
                with self._locks[shard]:
                    self._engine.ingest_shard(shard, items, timestamps=timestamps)
            ok = True
        except Exception as exc:  # surface, don't die silently
            self._report(exc, shard)
        finally:
            self._queues.release(((shard, n, ok),))
            if ok:
                self._m_apply_s[shard].observe(time.perf_counter() - t0)
                self._m_coalesce.observe(n)

    def run(self) -> None:
        while True:
            try:
                got = self._queues.take(self._owned, self._max_batch)
            except Exception as exc:  # coalescing failed; take() failed the items
                self._report(exc, self._owned[0])
                continue
            if not got:
                if self._halt.is_set():
                    return
                self._queues.wait_for_work(self._owned, self._halt)
                continue
            # Every owned lane gets a turn per take, so one hot shard
            # cannot starve its siblings on this worker.
            for shard, items, timestamps, n in got:
                self._apply(shard, items, timestamps, n)
