"""The concurrent query plane: epoch-validated folds, per-reader RNGs.

The PR 4 fast path left one concurrency caveat: a retained fold's
*state* is frozen between refolds, but its private RNG stream advances
on every query, so a shared fold cannot serve concurrent readers
lock-free.  :class:`QueryExecutor` resolves it with two modes:

* ``per-reader`` (default, lock-free reads) — the executor publishes an
  immutable :class:`PublishedFold` (fold + epoch snapshot + watermark +
  generation counter) and serves readers from a *leased view pool*:
  copy-on-publish query views of the fold
  (:func:`repro.lifecycle.spawn_query_view`), each held exclusively for
  the duration of one query and returned to the generation's free list
  afterwards.  A view's non-RNG state is frozen (queries only draw
  coins), so any reader can use any pooled view — a lease just rebinds
  the view's generators to the reader's own RNG stream, derived from
  ``(service seed, generation, reader index)``.  Leases are sticky: a
  reader that gets back the view it used last skips the rebind, so the
  steady single-reader query is pop + method call + push.  Deep copies
  of the fold therefore scale with *concurrent* readers (exactly one
  for any number of sequential readers), not with readers × generations
  as the previous per-thread views did — ``view_info()`` exposes the
  ``views_copied`` / ``views_leased`` counters that prove it.  Each
  reader's sequence is exactly target-distributed and reproducible
  given the seed and its reader index when readers don't contend for
  views; the cross-reader interleaving is not a single replayable
  stream (that is what ``locked`` is for).
* ``locked`` (bitwise replay) — queries serialize on one lock around
  the engine's own ``sample``/``sample_many``, quiescing the shard
  writers for the duration.  The answer sequence is bitwise identical
  to direct single-threaded engine calls — the replay/debug mode, and
  the serialized-serving determinism gate in CI.

**Publication protocol.**  ``refresh()`` quiesces all shard writers
(taking every shard lock in ascending order), asks the engine for its
merged view (``acquire_fold`` — the epoch-keyed cache reuses the fold
or re-folds from scratch exactly as for direct queries), and
publishes a new generation only when the epochs actually moved.
Readers pick up a new generation at their next query by a single
reference read — the swap is one Python assignment, torn folds cannot
be observed.  Between refreshes readers serve the previous generation:
bounded staleness is the price of lock-free reads, and the ticker's
``refresh_interval`` is the bound.
"""

from __future__ import annotations

import itertools
import threading
import time
import weakref

from repro.lifecycle.rng import (
    derive_reader_rng,
    rebind_query_rngs,
    spawn_query_view,
)
from repro.obs.catalog import CATALOG_HELP
from repro.obs.metrics import current_registry
from repro.obs.trace import span

__all__ = ["PublishedFold", "QueryExecutor"]

#: The two query-plane RNG modes.
RNG_MODES = ("per-reader", "locked")


class PublishedFold:
    """One immutable published generation of the merged view, plus the
    generation's free list of leasable query views (``pool`` holds
    ``(view, last_reader_index)`` pairs; views leave the list while
    leased, so every entry is exclusively owned by whoever pops it).
    Old generations retire their whole pool with the object."""

    __slots__ = (
        "generation", "fold", "epochs", "watermark", "published_at", "pool",
    )

    def __init__(self, generation, fold, epochs, watermark, published_at):
        self.generation = generation
        self.fold = fold
        self.epochs = epochs
        self.watermark = watermark
        self.published_at = published_at
        self.pool: list = []


class _ReaderSlot(threading.local):
    """Thread-local reader state: a stable reader index, the reader's
    RNG stream for the currently-published generation, and this
    reader's served-query tally (single-writer, so increments are
    race-free; the stats endpoint sums tallies across the registry)."""

    index: int | None = None
    generation: int = -1
    rng = None
    tally = None


class QueryExecutor:
    """Serve ``sample``/``sample_many`` off the engine's epoch-validated
    merged view, concurrently.  See the module docstring for the two
    RNG modes and the publication protocol."""

    def __init__(
        self,
        engine,
        shard_locks: list[threading.Lock],
        *,
        seed: int | None,
        rng_mode: str = "per-reader",
        metrics=None,
    ) -> None:
        if rng_mode not in RNG_MODES:
            raise ValueError(
                f"unknown rng_mode {rng_mode!r}; choose from {RNG_MODES}"
            )
        registry = current_registry() if metrics is None else metrics
        refresh_c = registry.counter(
            "repro_serving_fold_refresh_total",
            CATALOG_HELP["repro_serving_fold_refresh_total"],
            labels=("result",),
        )
        self._m_refresh = {
            r: refresh_c.labels(result=r)
            for r in ("published", "unchanged", "error")
        }
        self._engine = engine
        self._locks = shard_locks
        self._seed = seed
        self._mode = rng_mode
        self._published: PublishedFold | None = None
        self._refresh_lock = threading.Lock()
        self._query_lock = threading.Lock()
        self._reader_ids = itertools.count()
        self._slot = _ReaderSlot()
        self._refreshes = 0
        # A failed refresh (e.g. WatermarkSkewError) latches here and is
        # re-raised by every lock-free query until a refresh succeeds —
        # mirroring the direct engine, where each query re-checks skew.
        # Without it the ticker's failure would silently pin readers to
        # an ever-staler fold.
        self._refresh_error: Exception | None = None
        # Served-query counts live in per-reader single-writer tallies
        # (registered under a lock, summed by stats()) so the lock-free
        # query path never does a racy shared-counter increment.  A
        # tally retires into the aggregate when its thread dies, so a
        # thread-per-request caller doesn't grow the registry forever.
        # Leased view pool bookkeeping: the free lists live on each
        # PublishedFold; one executor-level lock guards them all plus
        # the cache_info-style counters (pool critical sections are a
        # few list ops — far cheaper than the deep copies they elide).
        self._pool_lock = threading.Lock()
        self._views_copied = 0
        self._views_leased = 0
        self._tally_lock = threading.Lock()
        self._tally_keys = itertools.count()
        self._tallies: dict[int, list[int]] = {}
        self._tally_watchers: dict[int, weakref.ref] = {}
        self._retired_served = 0
        self._readers_ever = 0

    @property
    def rng_mode(self) -> str:
        return self._mode

    @property
    def generation(self) -> int:
        """The currently-published fold generation (-1 before the first
        refresh)."""
        published = self._published
        return -1 if published is None else published.generation

    @property
    def refresh_error(self) -> Exception | None:
        """The latched refresh failure, if any (cleared by the next
        successful refresh) — the watermark-skew latch the gauges watch."""
        return self._refresh_error

    def fold_age_seconds(self) -> float:
        """Seconds since the current generation was published (NaN
        before the first publish)."""
        published = self._published
        if published is None:
            return float("nan")
        return time.monotonic() - published.published_at

    def epoch_lag(self) -> int:
        """Shard mutation-epoch bumps the published fold does not yet
        reflect (everything counts before the first publish)."""
        published = self._published
        total = sum(self._engine.mutation_epochs())
        seen = 0 if published is None else sum(published.epochs)
        return total - seen

    def _retire_tally(self, key: int) -> None:
        """Fold a dead thread's tally into the aggregate (weakref
        callback on the owning Thread object)."""
        with self._tally_lock:
            tally = self._tallies.pop(key, None)
            if tally is not None:
                self._retired_served += tally[0]
            self._tally_watchers.pop(key, None)

    def _tally(self) -> list[int]:
        """This thread's served-query tally, registered on first use and
        retired into the aggregate when the thread dies."""
        slot = self._slot
        if slot.tally is None:
            tally = [0]
            slot.tally = tally
            thread = threading.current_thread()
            # A fresh key, not id(thread): thread ids recycle, and a
            # recycled id could overwrite a dead-but-uncollected
            # reader's live entry.
            key = next(self._tally_keys)
            with self._tally_lock:
                self._tallies[key] = tally
                self._readers_ever += 1
                self._tally_watchers[key] = weakref.ref(
                    thread, lambda ref, key=key: self._retire_tally(key)
                )
        return slot.tally

    def stats(self) -> dict:
        published = self._published
        with self._tally_lock:
            served = self._retired_served + sum(
                t[0] for t in self._tallies.values()
            )
            readers = self._readers_ever
        with self._pool_lock:
            views_copied = self._views_copied
            views_leased = self._views_leased
        return {
            "rng_mode": self._mode,
            "served": served,
            "refreshes": self._refreshes,
            "generation": self.generation,
            "readers": readers,
            "views_copied": views_copied,
            "views_leased": views_leased,
            "fold_age_s": (
                None
                if published is None
                else time.monotonic() - published.published_at
            ),
            "fold_watermark": None if published is None else published.watermark,
        }

    # -- publication --------------------------------------------------------
    def _quiesce(self):
        """Acquire every shard lock in ascending order (the one global
        ordering, so refresh can never deadlock against the workers'
        single-lock acquisitions)."""
        for lock in self._locks:
            lock.acquire()

    def _release(self):
        for lock in self._locks:
            lock.release()

    def refresh(self, force: bool = False) -> bool:
        """Re-acquire the merged view and publish a new generation if
        the shard epochs moved (or ``force``); returns whether a new
        generation was published.

        Cheap when nothing changed: an epoch-list compare under no shard
        locks, then return.  Concurrent refreshes coalesce on an
        internal lock.
        """
        published = self._published
        if (
            published is not None
            and not force
            and list(published.epochs) == self._engine.mutation_epochs()
        ):
            self._m_refresh["unchanged"].inc()
            return False
        with self._refresh_lock:
            published = self._published
            if (
                published is not None
                and not force
                and list(published.epochs) == self._engine.mutation_epochs()
            ):
                self._m_refresh["unchanged"].inc()
                return False
            with span("serving.refresh") as sp:
                self._quiesce()
                try:
                    handle = self._engine.acquire_fold()
                except Exception as exc:
                    self._refresh_error = exc
                    self._m_refresh["error"].inc()
                    raise
                finally:
                    self._release()
                self._refresh_error = None
                generation = 0 if published is None else published.generation + 1
                self._published = PublishedFold(
                    generation, handle.fold, handle.epochs, handle.watermark,
                    time.monotonic(),
                )
                self._refreshes += 1
                self._m_refresh["published"].inc()
                sp.set(generation=generation)
            return True

    def published(self) -> PublishedFold:
        """The current generation, refreshing synchronously only when
        nothing was ever published.  Re-raises a latched refresh failure
        (watermark skew, fold errors) instead of serving the stale
        pre-failure fold — exactly the error a direct engine query would
        keep raising; it clears on the next successful refresh."""
        error = self._refresh_error
        if error is not None:
            raise error
        published = self._published
        if published is None:
            # Non-forced: concurrent first readers coalesce on the
            # refresh lock and share one initial generation.
            self.refresh()
            published = self._published
        return published

    # -- queries ------------------------------------------------------------
    def _pin_clock(self, published: PublishedFold, kwargs: dict) -> dict:
        """The fold-handle analogue of the engine's query-clock pinning:
        default ``now`` to the fold's watermark, reject a ``now`` behind
        it (a cached fold must fail a stale clock exactly as a fresh one
        would)."""
        mark = published.watermark
        if mark is None:
            return kwargs
        now = kwargs.get("now")
        if now is None:
            return {**kwargs, "now": mark}
        if float(now) < mark:
            raise ValueError(
                f"cannot sample at {now}, fold already reflects ingest up "
                f"to {mark}"
            )
        return kwargs

    def _reader_rng(self, published: PublishedFold):
        """This thread's RNG stream for the published generation,
        (re)derived lazily when the generation moved."""
        slot = self._slot
        if slot.index is None:
            slot.index = next(self._reader_ids)
        if slot.rng is None or slot.generation != published.generation:
            slot.rng = derive_reader_rng(
                self._seed, published.generation, slot.index
            )
            slot.generation = published.generation
        return slot.rng

    def lease_view(self, published: PublishedFold):
        """Check a query view of ``published`` out of the generation's
        pool for this thread's exclusive use (return it with
        :meth:`return_view`).

        Sticky fast path first: the view this reader returned last
        still carries its generators, so no rebind.  Otherwise any free
        view is rebound to the reader's stream; only when the free list
        is empty — a cold generation, or more *concurrent* readers than
        views — is the fold deep-copied (``views_copied``)."""
        rng = self._reader_rng(published)
        slot = self._slot
        view = None
        sticky = False
        with self._pool_lock:
            self._views_leased += 1
            pool = published.pool
            for i in range(len(pool) - 1, -1, -1):
                if pool[i][1] == slot.index:
                    view = pool[i][0]
                    del pool[i]
                    sticky = True
                    break
            else:
                if pool:
                    view = pool.pop()[0]
        if view is not None:
            if not sticky:
                rebind_query_rngs(view, rng)
            return view
        view = spawn_query_view(published.fold, rng)
        with self._pool_lock:
            self._views_copied += 1
        return view

    def return_view(self, published: PublishedFold, view) -> None:
        """Return a leased view to its generation's free list (a stale
        generation's pool is retained only by the PublishedFold itself,
        so returning to one is harmless)."""
        with self._pool_lock:
            published.pool.append((view, self._slot.index))

    def view_info(self) -> dict:
        """``cache_info()``-style counters for the leased view pool."""
        published = self._published
        with self._pool_lock:
            return {
                "views_copied": self._views_copied,
                "views_leased": self._views_leased,
                "pool_free": 0 if published is None else len(published.pool),
            }

    def sample(self, **kwargs):
        """One truly perfect sample off the published fold (lock-free in
        ``per-reader`` mode; engine-identical under the query lock in
        ``locked`` mode)."""
        self._tally()[0] += 1
        if self._mode == "locked":
            with self._query_lock:
                self._quiesce()
                try:
                    return self._engine.sample(**kwargs)
                finally:
                    self._release()
        published = self.published()
        kwargs = self._pin_clock(published, kwargs)
        view = self.lease_view(published)
        try:
            return view.sample(**kwargs)
        finally:
            self.return_view(published, view)

    def sample_many(self, k: int, **kwargs):
        """``k`` samples amortizing one view lease (and, for kinds with
        a vectorized ``sample_many``, one batched coin block)."""
        self._tally()[0] += 1
        if self._mode == "locked":
            with self._query_lock:
                self._quiesce()
                try:
                    return self._engine.sample_many(k, **kwargs)
                finally:
                    self._release()
        if k < 0:
            raise ValueError(f"need a non-negative draw count, got {k}")
        published = self.published()
        kwargs = self._pin_clock(published, kwargs)
        view = self.lease_view(published)
        try:
            many = getattr(view, "sample_many", None)
            if callable(many):
                return many(k, **kwargs)
            return [view.sample(**kwargs) for __ in range(k)]
        finally:
            self.return_view(published, view)
