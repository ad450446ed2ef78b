"""The shard coordinator: K independent samplers behind one façade.

``ShardedSamplerEngine`` hash-partitions the universe across ``K``
sampler shards.  Ingestion splits each batch by shard (vectorized) and
feeds the per-shard subchunks through the batched kernels — the layout
is embarrassingly parallel, each shard touching only its own state, so
the per-shard loop can be handed to threads or processes unchanged.

Sampling is where true perfection has to survive aggregation, and it
does, with *zero* distributional error: pool-based shards merge by
keeping each instance slot from shard ``s`` with probability
``m_s / Σ m_j`` — i.e. a uniformly random position of the concatenated
stream — and because every item lives on exactly one shard, the kept
instance's forward count and the merged normalizer (max over shard
Misra–Gries bounds) are the globally correct certified quantities.  The
F_G-weighting happens implicitly: a shard wins an instance slot in
proportion to its stream mass, and the usual rejection step then turns
position mass into ``G``-mass exactly as in the single-stream proof.
F0 shards merge by their own exact rules (shared random subsets /
min-hash).  Queries run on a fold that leaves the live shards free to
keep ingesting.

**The query fast path.**  Folding K shard states costs O(K · state), so
the engine does not re-fold per query: it keeps one *merged-view cache*
keyed by per-shard **mutation epochs** — monotonically increasing
counters bumped whenever a shard's state changes (ingest, restore,
merge, or a compaction that actually dropped state).  A query whose
epochs all match the cached fold reuses it outright (a ``hit``); any
epoch change folds from scratch with :func:`~repro.engine.state.merged`
(a ``scratch`` fold).  The cached view keeps its own RNG stream — see
:meth:`sample` for the determinism contract — and ``sample_many(k)``
amortizes one fold and one batched coin block across ``k`` draws.

The engine is written purely against the
:class:`repro.lifecycle.StreamSampler` protocol — it never inspects
sampler kinds.  Per-kind knowledge (shared shard seeds, mergeability,
config rewrites) comes declaratively from the registry's
:class:`~repro.engine.registry.KindSpec` traits.  Two lifecycle services
ride on the uniform protocol:

* **expiry compaction** — ``compact()`` fans out to every shard; it
  runs automatically on every query and, when ``compact_every`` is set,
  after every ~that-many ingested updates, so idle time-windowed shards
  release expired generations instead of holding them forever;
* **merge watermarks** — every merge (query-time fold and cross-engine
  ``merge``) compares the shards' ``watermark()`` clocks and raises
  :class:`~repro.lifecycle.WatermarkSkewError` when they disagree by
  more than ``max_watermark_skew`` seconds, surfacing producer clock
  skew instead of silently shifting window membership.
"""

from __future__ import annotations

import math
import time
from typing import NamedTuple

import numpy as np

from repro.core import ingest_kernel
from repro.core.types import SampleResult, as_item_array
from repro.engine.batch import DEFAULT_CHUNK_SIZE, ingest
from repro.engine.partition import UniversePartitioner
from repro.engine.registry import build_sampler, kind_spec
from repro.engine.state import load_state, merged
from repro.lifecycle import WatermarkSkewError, missing_hooks
from repro.obs.catalog import CATALOG_HELP
from repro.obs.metrics import current_registry, use_registry
from repro.obs.trace import span

__all__ = ["FoldHandle", "ShardedSamplerEngine"]


class FoldHandle(NamedTuple):
    """A reader's view of one acquired fold: the merged sampler, the
    per-shard mutation epochs it reflects, and the engine watermark at
    acquisition time (``None`` for kinds without a wall clock).

    The fold is the engine's *cached* object — treat it as query-only
    and shared: either serialize draws on it, or spawn per-reader query
    views (:func:`repro.lifecycle.spawn_query_view`).  ``epochs`` is the
    staleness token: compare against a later ``mutation_epochs()`` to
    decide whether to re-acquire.
    """

    fold: object
    epochs: tuple[int, ...]
    watermark: float | None


class ShardedSamplerEngine:
    """K hash-partitioned sampler shards with exact merged sampling.

    Parameters
    ----------
    config:
        Sampler config for :func:`repro.engine.registry.build_sampler`;
        each shard gets its own sampler built from it.  Seeds are
        derived per shard — independently by default, shared for kinds
        whose registry spec declares ``shared_shard_seed`` (merge rules
        needing common random subsets).
    shards:
        Number of shards ``K ≥ 1``.
    partitioner:
        Optional :class:`UniversePartitioner`; defaults to multiply-shift
        hashing seeded from ``seed``.
    seed:
        Seeds the partitioner and the per-shard sampler seeds.
    max_watermark_skew:
        Tolerated spread (seconds) between shard ``watermark()`` clocks
        at merge time; beyond it, merges raise
        :class:`~repro.lifecycle.WatermarkSkewError`.  Default ``inf``
        (never raise); kinds without a wall clock are never checked.
    compact_every:
        When set, run :meth:`compact` automatically after every ~this
        many ingested updates (in addition to the always-on query-time
        pass) — the timer leg of expiry compaction for write-heavy,
        query-light deployments.
    metrics:
        :class:`~repro.obs.MetricsRegistry` the engine's fold/epoch/
        compaction instruments register in; ``None`` (default) resolves
        :func:`repro.obs.current_registry` at construction time, so a
        service that installs its own registry (``use_registry``) owns
        the engines it builds.  The registry is also installed while the
        shard samplers are built, so sampler-internal instruments (e.g.
        :class:`~repro.windows.WindowBank` rung counters) land in the
        same place.  Metrics record counts and wall time only — they
        never consume RNG, so the bitwise determinism contracts hold
        with metrics on or off.
    """

    def __init__(
        self,
        config: dict,
        shards: int = 8,
        partitioner: UniversePartitioner | None = None,
        seed: int | None = None,
        max_watermark_skew: float = math.inf,
        compact_every: int | None = None,
        metrics=None,
    ) -> None:
        if shards < 1:
            raise ValueError(f"need at least one shard, got {shards}")
        if compact_every is not None and compact_every < 1:
            raise ValueError(f"compact_every must be ≥ 1, got {compact_every}")
        if max_watermark_skew < 0:
            raise ValueError(
                f"max_watermark_skew must be non-negative, got {max_watermark_skew}"
            )
        self._config = dict(config)
        self._kind = self._config.get("kind")
        spec = kind_spec(self._kind)
        if not spec.mergeable:
            raise ValueError(
                f"sampler kind {self._kind!r} does not merge (its registry "
                "spec declares mergeable=False), so it cannot serve behind "
                "a sharded engine"
            )
        if partitioner is None:
            partitioner = UniversePartitioner(shards, seed=0 if seed is None else seed)
        elif partitioner.shards != shards:
            raise ValueError(
                f"partitioner has {partitioner.shards} shards, engine wants {shards}"
            )
        self._partitioner = partitioner
        self._max_watermark_skew = float(max_watermark_skew)
        self._compact_every = compact_every
        self._ingested_since_compact = 0
        if spec.shard_config is not None:
            self._config = spec.shard_config(self._config, seed)
        root = np.random.SeedSequence(seed)
        if spec.shared_shard_seed:
            shared = np.random.default_rng(root).integers(2**31)
            shard_seeds = [int(shared)] * shards
        else:
            shard_seeds = [int(s.generate_state(1)[0]) for s in root.spawn(shards)]
        registry = current_registry() if metrics is None else metrics
        self._metrics = registry
        self._shard_seeds = list(shard_seeds)
        self._samplers = []
        with use_registry(registry):
            for shard_seed in shard_seeds:
                cfg = dict(self._config)
                cfg["seed"] = shard_seed
                self._samplers.append(build_sampler(cfg))
        missing = missing_hooks(self._samplers[0])
        if missing:
            raise ValueError(
                f"sampler kind {self._kind!r} does not implement the "
                f"StreamSampler lifecycle protocol (missing hooks: "
                f"{', '.join(missing)})"
            )
        # Merged-view cache: per-shard mutation epochs key the cached fold.
        self._epochs = [0] * shards
        self._fold = None
        self._fold_epochs: list[int] | None = None
        self._cache_hits = 0
        self._cache_misses = 0
        # Pre-resolved instrument children (shared NOOP when the
        # registry is disabled) so the hot paths skip label lookups.
        fold_c = registry.counter(
            "repro_engine_fold_total",
            CATALOG_HELP["repro_engine_fold_total"],
            labels=("regime",),
        )
        self._m_fold_hit = fold_c.labels(regime="hit")
        self._m_fold_scratch = fold_c.labels(regime="scratch")
        self._m_fold_seconds = registry.histogram(
            "repro_engine_fold_seconds",
            CATALOG_HELP["repro_engine_fold_seconds"],
            labels=("regime",),
        ).labels(regime="scratch")
        epoch_c = registry.counter(
            "repro_engine_epoch_bumps_total",
            CATALOG_HELP["repro_engine_epoch_bumps_total"],
            labels=("reason",),
        )
        self._m_epoch = {
            r: epoch_c.labels(reason=r)
            for r in ("ingest", "compact", "restore", "merge", "invalidate")
        }
        self._m_compact_passes = registry.counter(
            "repro_engine_compaction_passes_total",
            CATALOG_HELP["repro_engine_compaction_passes_total"],
        )
        self._m_compact_bytes = registry.counter(
            "repro_engine_compaction_reclaimed_bytes_total",
            CATALOG_HELP["repro_engine_compaction_reclaimed_bytes_total"],
        )
        # Ingest-kernel instruments are written inside SamplerPool (the
        # pools built above already bound them via use_registry); register
        # here too so non-pool kinds still expose the catalog entries.
        registry.counter(
            "repro_ingest_heap_events_total",
            CATALOG_HELP["repro_ingest_heap_events_total"],
        )
        ingest_kernel.bind_info(registry)

    @property
    def metrics(self):
        """The :class:`~repro.obs.MetricsRegistry` this engine reports
        into."""
        return self._metrics

    @property
    def shards(self) -> int:
        return len(self._samplers)

    @property
    def partitioner(self) -> UniversePartitioner:
        return self._partitioner

    @property
    def samplers(self) -> list:
        """The live shard samplers (mutating them is on you — call
        :meth:`invalidate_cache` afterwards, or the merged-view cache
        will keep serving the pre-mutation fold)."""
        return list(self._samplers)

    @property
    def position(self) -> int:
        """Total updates ingested across all shards."""
        return sum(s.position for s in self._samplers)

    def shard_of(self, item: int) -> int:
        return int(self._partitioner.assign(np.asarray([item]))[0])

    def shard_config(self, shard: int) -> dict:
        """The exact registry config shard ``shard``'s sampler was built
        with (kind-spec rewrites applied, per-shard seed set).  This is
        the bootstrap recipe for an out-of-process replica: build with
        :func:`~repro.engine.registry.build_sampler` on this config,
        then restore the shard's snapshot — the replica is bitwise
        identical to the in-engine sampler."""
        if not 0 <= shard < len(self._samplers):
            raise ValueError(
                f"shard {shard} out of range for {len(self._samplers)} shards"
            )
        cfg = dict(self._config)
        cfg["seed"] = self._shard_seeds[shard]
        return cfg

    def update(self, item: int, timestamp: float | None = None) -> None:
        """Scalar convenience path (route one item; ``timestamp`` for
        time-windowed sampler kinds)."""
        shard = self.shard_of(item)
        sampler = self._samplers[shard]
        if timestamp is None:
            sampler.update(item)
        else:
            sampler.update(item, timestamp)
        self._epochs[shard] += 1
        self._m_epoch["ingest"].inc()
        self._after_ingest(1)

    def ingest(
        self,
        items,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        timestamps=None,
    ) -> int:
        """Split a batch by shard and feed each sampler its part;
        returns the number of items ingested.

        Untimed input is cut into ``chunk_size`` slices (``chunk_size=1``
        is item at a time); each slice is grouped by shard
        (``split_indices``) and every shard gets its gathered subchunk.
        If a shard rejects its part, the epochs of every shard already
        fed still bump, so the merged-view cache never serves a fold
        that misses their writes.

        Pass a ``TimestampedStream`` (or an explicit ``timestamps``
        array) to feed time-windowed sampler kinds — each shard receives
        its items *with* their arrival times, so every shard's window
        boundaries line up on the shared wall clock.  Timed ingest is
        atomic: every shard's part is validated (``validate_batch``)
        before any shard is fed, so a rejected batch (say, a timestamp
        older than one shard's clock) leaves every shard untouched; the
        validated parts then go straight to the samplers' ``_ingest``,
        so no part is checked twice.
        """
        if chunk_size < 1:
            raise ValueError(f"chunk_size must be ≥ 1, got {chunk_size}")
        if timestamps is None:
            timestamps = getattr(items, "timestamps", None)
        samplers = self._samplers
        fed = [False] * len(samplers)
        if timestamps is None:
            arr = as_item_array(items)
            try:
                for start in range(0, arr.size, chunk_size):
                    piece = arr[start:start + chunk_size]
                    order, bounds = self._partitioner.split_indices(piece)
                    for shard, sampler in enumerate(samplers):
                        lo, hi = int(bounds[shard]), int(bounds[shard + 1])
                        if hi > lo:
                            fed[shard] = True
                            part = piece if order is None else piece[order[lo:hi]]
                            ingest(sampler, part, chunk_size=chunk_size)
            finally:
                self._bump_written(fed)
            self._after_ingest(int(arr.size))
            return int(arr.size)
        inner = getattr(items, "items", None)
        arr = np.asarray(inner if inner is not None else items, dtype=np.int64)
        ts = np.asarray(timestamps, dtype=np.float64)
        if arr.ndim != 1 or ts.shape != arr.shape:
            raise ValueError("items and timestamps must be matching 1-d arrays")
        # One stable argsort groups items and timestamps alike — K
        # boolean-mask passes collapse to a single gather.
        order, bounds = self._partitioner.split_indices(arr)
        if order is not None:
            arr = arr[order]
            ts = ts[order]
        if not callable(getattr(samplers[0], "validate_batch", None)):
            raise TypeError(
                f"{type(samplers[0]).__name__} does not take timestamps"
            )
        parts = []
        for shard, sampler in enumerate(samplers):
            lo, hi = int(bounds[shard]), int(bounds[shard + 1])
            if hi > lo:
                part, when = sampler.validate_batch(arr[lo:hi], ts[lo:hi])
                parts.append((shard, part, when))
        try:
            for shard, part, when in parts:
                fed[shard] = True
                for start in range(0, part.size, chunk_size):
                    stop = start + chunk_size
                    samplers[shard]._ingest(part[start:stop], when[start:stop])
        finally:
            self._bump_written(fed)
        self._after_ingest(int(arr.size))
        return int(arr.size)

    def _bump_written(self, written: list[bool], reason: str = "ingest") -> None:
        """Bump the mutation epoch of every shard an ingest (or a
        restore) wrote to, attributing the bumps to ``reason``."""
        bumps = 0
        for shard, hit in enumerate(written):
            if hit:
                self._epochs[shard] += 1
                bumps += 1
        if bumps:
            self._m_epoch[reason].add(bumps)

    def ingest_shard(
        self,
        shard: int,
        items,
        timestamps=None,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
    ) -> int:
        """Feed one shard directly, bypassing the router — the serving
        layer's per-shard ingest hook (each worker owns a disjoint set of
        shards, so concurrent workers never touch the same state).

        The caller owns the routing contract: every item must belong to
        ``shard`` under :attr:`partitioner` (feeding a mis-routed item
        silently corrupts the merged forward counts — route with
        :meth:`shard_of` / ``partitioner.split``).  Unlike
        :meth:`ingest`, this path never triggers the engine-wide
        ``compact_every`` cadence: a worker compacting shards it does
        not own would race their owners, so a concurrent deployment
        runs compaction from one place (see :meth:`compact_shard`).
        """
        if not 0 <= shard < len(self._samplers):
            raise ValueError(
                f"shard {shard} out of range for {len(self._samplers)} shards"
            )
        arr = np.asarray(getattr(items, "items", items), dtype=np.int64)
        if arr.size == 0:
            return 0
        total = ingest(
            self._samplers[shard], arr, chunk_size=chunk_size,
            timestamps=timestamps,
        )
        self._epochs[shard] += 1
        self._m_epoch["ingest"].inc()
        return total

    # -- lifecycle ----------------------------------------------------------
    def _after_ingest(self, count: int) -> None:
        """The timer leg of expiry compaction: compact once the cadence
        worth of updates has flowed since the last pass."""
        if self._compact_every is None:
            return
        self._ingested_since_compact += count
        if self._ingested_since_compact >= self._compact_every:
            self.compact()

    def compact(self, now: float | None = None) -> int:
        """Fan ``compact(now)`` out to every shard; returns the total
        approximate bytes reclaimed.  Passing ``now`` advances every
        shard's clock watermark (future updates must arrive at
        ``ts ≥ now``); ``None`` compacts each shard relative to its own
        watermark and advances nothing.

        A shard's mutation epoch bumps only when its compaction actually
        dropped state.  A pure watermark advance is answer-preserving —
        every query passes its own ``now`` and expired instances are
        rejected either way — so the query-time compaction pass does not
        invalidate the merged-view cache on idle read-heavy streams.
        """
        self._ingested_since_compact = 0
        total = 0
        bumps = 0
        for shard, sampler in enumerate(self._samplers):
            freed = sampler.compact(now)
            if freed:
                self._epochs[shard] += 1
                bumps += 1
            total += freed
        self._m_compact_passes.inc()
        if total:
            self._m_compact_bytes.add(total)
            self._m_epoch["compact"].add(bumps)
        return total

    def compact_shard(self, shard: int, now: float | None = None) -> int:
        """``compact(now)`` one shard only, bumping its epoch if state
        was dropped — the per-shard leg :meth:`compact` fans out to,
        exposed so a concurrent deployment can compact each shard under
        that shard's own write lock instead of stopping the world."""
        if not 0 <= shard < len(self._samplers):
            raise ValueError(
                f"shard {shard} out of range for {len(self._samplers)} shards"
            )
        freed = self._samplers[shard].compact(now)
        if freed:
            self._epochs[shard] += 1
            self._m_compact_bytes.add(freed)
            self._m_epoch["compact"].inc()
        return freed

    def watermarks(self) -> list[float | None]:
        """Per-shard ``watermark()`` clocks, in shard order."""
        return [s.watermark() for s in self._samplers]

    def watermark(self) -> float | None:
        """The engine's clock high-water mark: the max over shard
        watermarks (``None`` for kinds without a wall clock)."""
        marks = [w for w in self.watermarks() if w is not None]
        return max(marks) if marks else None

    def approx_size_bytes(self) -> int:
        """Total approximate resident bytes across all shards."""
        return sum(s.approx_size_bytes() for s in self._samplers)

    def _check_watermark_skew(self, samplers) -> None:
        marks = [s.watermark() for s in samplers]
        live = [w for w in marks if w is not None]
        if len(live) < 2:
            return
        skew = max(live) - min(live)
        if skew > self._max_watermark_skew:
            raise WatermarkSkewError(
                f"shard watermarks span {skew:.6g}s "
                f"(min {min(live):.6g}, max {max(live):.6g}), beyond the "
                f"{self._max_watermark_skew:.6g}s tolerance — merging would "
                "silently shift window membership; re-sync producer clocks "
                "or raise max_watermark_skew"
            )

    def merged_sampler(self):
        """Fold all shard states into one fresh merged sampler (shards
        are left untouched and keep ingesting).  Checks shard watermark
        skew first.

        This always folds from scratch — it is the cache-bypassing
        reference path; the returned sampler is the caller's to mutate.
        """
        self._check_watermark_skew(self._samplers)
        return merged(self._samplers)

    # -- merged-view cache --------------------------------------------------
    def mutation_epochs(self) -> list[int]:
        """Per-shard mutation epochs, in shard order.  Monotonically
        non-decreasing; a bump means the shard's state changed (ingest,
        restore, merge, or a compaction that dropped state) and any
        cached fold containing it is stale."""
        return list(self._epochs)

    def _bump_all(self, reason: str) -> None:
        """Bump every shard's mutation epoch, attributing the bumps to
        ``reason`` in the epoch-bump counter."""
        for shard in range(len(self._epochs)):
            self._epochs[shard] += 1
        self._m_epoch[reason].add(len(self._epochs))

    def invalidate_cache(self) -> None:
        """Force the next query to re-fold, by bumping every shard's
        epoch.  Call this after mutating a shard obtained from
        :attr:`samplers` directly — the engine cannot see those writes."""
        self._bump_all("invalidate")

    def cache_info(self) -> dict:
        """Merged-view cache counters: ``hits`` (queries served by the
        cached fold) and ``misses`` (folds rebuilt from scratch)."""
        return {"hits": self._cache_hits, "misses": self._cache_misses}

    def acquire_fold(self) -> FoldHandle:
        """Acquire the current merged view for reader-side serving: the
        cached fold (re-folded if any mutation epoch moved), its epoch
        snapshot, and the engine watermark.

        This is the query plane's entry point: the serving layer calls
        it with all shard writers quiesced (it reads every shard's
        state), then hands the immutable handle to lock-free readers —
        see :class:`FoldHandle` for the sharing rules.  Watermark skew
        is checked exactly as :meth:`sample` would; unlike a query, no
        compaction pass runs (the serving ticker owns that cadence).
        """
        self._check_watermark_skew(self._samplers)
        epochs = tuple(self._epochs)
        return FoldHandle(self._merged_view(), epochs, self.watermark())

    def _merged_view(self):
        """The cached fold of all shard states: returned as-is when
        every mutation epoch matches the one it was built at, otherwise
        rebuilt from scratch with :func:`merged` — so cached and fresh
        folds of the same shard states answer identically."""
        epochs = list(self._epochs)
        if self._fold is not None and self._fold_epochs == epochs:
            self._cache_hits += 1
            self._m_fold_hit.inc()
            return self._fold
        t0 = time.perf_counter()
        with span("engine.fold", shards=len(self._samplers), regime="scratch"):
            self._fold = merged(self._samplers)
        self._fold_epochs = epochs
        self._cache_misses += 1
        self._m_fold_scratch.inc()
        self._m_fold_seconds.observe(time.perf_counter() - t0)
        return self._fold

    def sample(self, **kwargs) -> SampleResult:
        """One truly perfect global sample from the merged shard states.

        Runs the query-time compaction pass first: a query at ``now=``
        advances the shard clocks there and releases expired window
        state; without ``now`` each shard compacts relative to its own
        watermark (a no-op for kinds without one).  Keyword arguments
        pass through to the merged sampler's ``sample`` (e.g. ``now=``
        for time-windowed kinds).

        **Determinism contract.**  The fold's RNG stream is seeded from
        shard 0's RNG state *at fold time* and then persists across
        queries: repeated calls draw successive coins from that stream,
        giving fresh, independent samples, and the whole query sequence
        is a deterministic function of (engine seed, ingest history,
        query sequence).  The first query after any (re)fold is bitwise
        identical to a fresh :meth:`merged_sampler` query of the same
        shard states.
        """
        # Skew must be judged on the shards' own clocks: the compaction
        # pass below syncs every watermark to the query's `now`, which
        # would otherwise erase the very skew the check exists to catch.
        self._check_watermark_skew(self._samplers)
        self.compact(kwargs.get("now"))
        kwargs = self._pin_query_now(kwargs)
        return self._merged_view().sample(**kwargs)

    def sample_many(self, k: int, **kwargs) -> list[SampleResult]:
        """``k`` truly perfect global samples from one fold.

        Amortizes the skew check, the compaction pass, the fold (cache
        hit or rebuild), and — for kinds with a vectorized
        ``sample_many`` — one batched coin block across all ``k`` draws.
        This is bitwise identical to ``k`` back-to-back :meth:`sample`
        calls with no ingest in between: both draw successive coins from
        the retained fold's stream.

        Treat the returned results as immutable values: draws that
        accepted the same pool instance share one frozen
        :class:`SampleResult` (construction scales with distinct
        outcomes, not ``k``), so mutating one entry's ``metadata`` dict
        would show through its aliases.
        """
        if k < 0:
            raise ValueError(f"need a non-negative draw count, got {k}")
        self._check_watermark_skew(self._samplers)
        self.compact(kwargs.get("now"))
        kwargs = self._pin_query_now(kwargs)
        fold = self._merged_view()
        many = getattr(fold, "sample_many", None)
        if callable(many):
            return many(k, **kwargs)
        return [fold.sample(**kwargs) for __ in range(k)]

    def _pin_query_now(self, kwargs: dict) -> dict:
        """Normalize the query clock against the engine watermark.

        A stale explicit ``now`` is rejected up front — the same check a
        fresh fold would raise, applied here so a cached fold (whose
        snapshot of the clock may be older) cannot silently accept it.
        An *omitted* ``now`` is pinned to the engine watermark: a fresh
        fold would default to its own ``_now`` (= the watermark at fold
        time), but a cached fold's clock snapshot may predate watermark
        advances that freed nothing — without pinning, a now-less query
        after a now-advancing query would evaluate a stale window.
        Kinds without a wall clock are untouched.
        """
        mark = self.watermark()
        if mark is None:
            return kwargs
        now = kwargs.get("now")
        if now is None:
            return {**kwargs, "now": mark}
        if float(now) < mark:
            raise ValueError(
                f"cannot sample at {now}, already ingested up to {mark}"
            )
        return kwargs

    def snapshot(self) -> dict:
        return {
            "kind": "sharded_engine",
            "sampler_kind": self._kind,
            "partition": {
                "shards": self._partitioner.shards,
                "strategy": self._partitioner.strategy,
                "seed": self._partitioner.seed,
            },
            "shards": {str(i): s.snapshot() for i, s in enumerate(self._samplers)},
        }

    def restore(self, state: dict) -> None:
        if state.get("kind") != "sharded_engine":
            raise ValueError(f"not a sharded_engine snapshot: {state.get('kind')!r}")
        if state.get("sampler_kind") != self._kind:
            raise ValueError(
                f"snapshot is for sampler kind {state.get('sampler_kind')!r}, "
                f"engine has {self._kind!r}"
            )
        part = state["partition"]
        restored = UniversePartitioner(
            int(part["shards"]), strategy=str(part["strategy"]), seed=int(part["seed"])
        )
        if restored != self._partitioner:
            raise ValueError("snapshot partition layout differs from engine's")
        shard_states = state["shards"]
        if len(shard_states) != len(self._samplers):
            raise ValueError(
                f"snapshot has {len(shard_states)} shards, engine has "
                f"{len(self._samplers)}"
            )
        # Shards are overwritten one at a time: if one rejects its state,
        # the ones already (or partly) rewritten must still bump, or the
        # cached fold would keep answering from the pre-restore universe.
        tried = [False] * len(self._samplers)
        try:
            for i, sampler in enumerate(self._samplers):
                tried[i] = True
                sampler.restore(shard_states[str(i)])
        finally:
            self._bump_written(tried, "restore")

    def restore_shard(self, shard: int, state) -> None:
        """Restore one shard's sampler from a snapshot tree or enveloped
        bytes buffer, bumping only that shard's mutation epoch.

        This is the fold collector's write path for process-parallel
        serving: shard-owning worker processes ship per-shard snapshot
        deltas back to the front door, and each delta lands here.  The
        epoch bumps even when the restore raises, since a rejected state
        may have been partly written.  The caller owns concurrency (hold
        the shard's write lock in a served deployment)."""
        if not 0 <= shard < len(self._samplers):
            raise ValueError(
                f"shard {shard} out of range for {len(self._samplers)} shards"
            )
        try:
            if isinstance(state, (bytes, bytearray, memoryview)):
                load_state(self._samplers[shard], bytes(state))
            else:
                self._samplers[shard].restore(state)
        finally:
            self._epochs[shard] += 1
            self._m_epoch["restore"].inc()

    def merge(self, other: "ShardedSamplerEngine") -> None:
        """Shard-wise merge of two engines with identical layouts (e.g.
        the same engine config fed from two sites).  Checks watermark
        skew across *both* engines' shards first — cross-site merges are
        exactly where producer clock skew bites."""
        if not isinstance(other, ShardedSamplerEngine):
            raise TypeError(
                f"cannot merge ShardedSamplerEngine with {type(other).__name__}"
            )
        if other._partitioner != self._partitioner:
            raise ValueError("engines partition the universe differently")
        self._check_watermark_skew(self._samplers + other._samplers)
        for mine, theirs in zip(self._samplers, other._samplers):
            mine.merge(theirs)
        self._bump_all("merge")
