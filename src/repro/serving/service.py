"""SamplerService — the concurrent front door over the sharded engine.

One object wires the whole serving path together::

    submit(batch) ──► admission (per-tenant token buckets)
                  ──► router (engine-identical hash partition)
                  ──► bounded per-shard queues  ──► N ingest workers
                                                        │ (per-shard locks)
    sample()/sample_many() ◄── per-reader query views ◄─┴─ fold refresh +
                               (lock-free)                 compaction ticker

Ingestion is shard-parallel and bitwise-deterministic: per-shard FIFO
and single shard ownership make the final engine state identical to a
sequential ``engine.ingest`` of the same submits, for any worker count.
Queries serve off the epoch-validated merged view concurrently — see
:mod:`repro.serving.executor` for the ``per-reader`` / ``locked`` RNG
contract.  Backpressure (queue high-water marks), per-tenant rate caps,
and load-shed errors guard the front; a background ticker refreshes the
fold (bounded staleness) and runs expiry compaction.

**Serialized mode** (``serialized=True``) is the replay/debug
configuration: one worker, locked single-stream queries, and an
implicit ``flush()`` before every query — the full request sequence
(submits and queries) becomes bitwise identical to driving the engine
directly from one thread, which is how the CI determinism gate compares
the service against the engine.

The asyncio facade over this same core lives in
:mod:`repro.serving.aio`; a tiny CLI (``repro-serve``) in
:mod:`repro.serving.cli`.
"""

from __future__ import annotations

import threading
import time

from repro.core.ingest_kernel import kernel_impl
from repro.engine.registry import kind_spec
from repro.engine.shard import ShardedSamplerEngine
from repro.engine.state import save_state
from repro.obs.audit import AuditConfig, AuditEvent, Auditor
from repro.obs.catalog import CATALOG_HELP
from repro.obs.health import (
    BurnRateTracker,
    HealthChecker,
    HealthReport,
    ProbeResult,
    freshness_status,
)
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.obs.trace import current_tracer, span
from repro.serving.errors import Backpressure, RateLimited, ServiceClosed
from repro.serving.executor import QueryExecutor
from repro.serving.procplane import ProcessPlane, WorkerDied
from repro.serving.router import ShardRouter, TenantRateLimiter
from repro.serving.workers import IngestWorker, ShardQueues

__all__ = ["SamplerService"]

#: Default coalescing limit for worker micro-batches (items).
DEFAULT_MAX_BATCH = 1 << 16

#: Query-latency SLO the burn-rate probe tracks: ``QUERY_SLO`` of
#: queries under ``QUERY_SLO_OBJECTIVE_SECONDS`` (the objective sits on
#: a latency-bucket boundary so the cumulative counts are exact).
QUERY_SLO_OBJECTIVE_SECONDS = 1e-6 * 2**17  # ≈131 ms, a LATENCY_BUCKETS bound
QUERY_SLO = 0.99


class SamplerService:
    """Concurrent ingest + query serving over a sharded sampler engine.

    Parameters
    ----------
    config:
        Sampler config for the engine registry (``{"kind": ..., ...}``),
        or an already-built :class:`ShardedSamplerEngine` to serve (the
        service then owns its concurrency: stop driving it directly).
    shards, seed, max_watermark_skew:
        Engine construction knobs (ignored when ``config`` is an
        engine).  The service always builds the engine with the query
        cache on and no ``compact_every`` cadence — the ticker owns
        compaction here.
    ingest_workers:
        Ingest workers (clamped to the shard count).  Shards are
        assigned round-robin, each owned by exactly one worker.
    workers_mode:
        ``"thread"`` (default): shard-owning worker threads applying
        into the in-process engine — zero IPC cost, but on CPython all
        workers share one GIL.  ``"process"``: shard-owning worker
        *processes* holding bitwise replicas of their shards, fed
        RPRS-coded frames over pipes (:mod:`repro.serving.procplane`) —
        K shards use K cores; a fold collector pulls per-shard snapshot
        deltas back into this process's mirror engine for the query
        plane.  Requires a config dict (not a prebuilt engine).  The
        determinism contract is identical in both modes.
    mp_start_method:
        ``multiprocessing`` start method for process mode (``"fork"``,
        ``"spawn"``, ``"forkserver"``; ``None`` = platform default).
    queue_capacity:
        Per-shard queue high-water mark, in items (queued + in-flight).
    backpressure:
        ``"block"`` (default): ``submit`` waits for capacity (up to its
        ``timeout``); ``"shed"``: a full lane rejects the whole submit
        with :class:`~repro.serving.errors.Backpressure` immediately.
        Either way admission is atomic — a rejected submit enqueued
        nothing.
    tenant_rates / default_rate:
        Per-tenant ``(items_per_second, burst)`` caps, and the cap for
        tenants not listed (``None`` = unlimited).
    rng_mode:
        ``"per-reader"`` (lock-free concurrent queries, default) or
        ``"locked"`` (serialized bitwise-replay queries) — see
        :mod:`repro.serving.executor`.
    refresh_interval:
        Fold publication cadence in seconds — the staleness bound for
        lock-free reads.  ``0`` disables the ticker's refresh leg and
        refreshes synchronously before *every* query instead (freshest
        answers, writers quiesced per query).
    compact_interval:
        Expiry-compaction cadence in seconds (``None`` disables; the
        pass runs shard-by-shard under each shard's own lock, never
        stopping the world).
    max_batch:
        Worker micro-batch coalescing limit, in items.
    serialized:
        Replay/debug mode — see the module docstring.
    metrics:
        The service's :class:`~repro.obs.MetricsRegistry`.  ``None``
        (default) creates one fresh enabled registry per service;
        ``False`` disables metrics entirely (every instrument is the
        shared no-op — the zero-overhead configuration); pass a registry
        instance to aggregate several services into one exposition.  The
        registry is installed while the engine is built, so engine fold
        metrics and per-rung window counters land in it too; render it
        with ``service.metrics.render_prometheus()`` or the
        ``repro-serve stats`` CLI.
    audit:
        The statistical audit plane (off by default).  ``True`` enables
        it with :class:`~repro.obs.AuditConfig` defaults; pass an
        ``AuditConfig`` or a kwargs dict to tune it.  Requires a sampler
        *config dict* (the shadow truth needs the kind's target model),
        not a prebuilt engine.  Accepted submits also feed the shadow
        truth; the ticker (or an explicit :meth:`audit_tick`) draws
        dedicated ``sample_many`` batches off published folds and runs
        the sequential goodness-of-fit monitor — see
        :mod:`repro.obs.audit`.
    """

    def __init__(
        self,
        config,
        *,
        shards: int = 8,
        seed: int | None = None,
        max_watermark_skew: float = float("inf"),
        ingest_workers: int = 4,
        workers_mode: str = "thread",
        mp_start_method: str | None = None,
        queue_capacity: int = 1 << 18,
        backpressure: str = "block",
        tenant_rates: dict[str, tuple[float, float]] | None = None,
        default_rate: tuple[float, float] | None = None,
        rng_mode: str = "per-reader",
        refresh_interval: float = 0.05,
        compact_interval: float | None = 1.0,
        max_batch: int = DEFAULT_MAX_BATCH,
        serialized: bool = False,
        metrics=None,
        audit=None,
        worker_telemetry: bool = True,
    ) -> None:
        if backpressure not in ("block", "shed"):
            raise ValueError(
                f"backpressure must be 'block' or 'shed', got {backpressure!r}"
            )
        if workers_mode not in ("thread", "process"):
            raise ValueError(
                f"workers_mode must be 'thread' or 'process', "
                f"got {workers_mode!r}"
            )
        if workers_mode == "process" and isinstance(
            config, ShardedSamplerEngine
        ):
            raise ValueError(
                "process-mode serving needs a config dict (worker "
                "processes bootstrap shard replicas from the registry "
                "config); pass config=, or use workers_mode='thread'"
            )
        if refresh_interval < 0:
            raise ValueError(
                f"refresh_interval must be ≥ 0, got {refresh_interval}"
            )
        if compact_interval is not None and compact_interval <= 0:
            raise ValueError(
                f"compact_interval must be positive or None, got {compact_interval}"
            )
        if max_batch < 1:
            raise ValueError(f"max_batch must be ≥ 1, got {max_batch}")
        if serialized:
            ingest_workers = 1
            rng_mode = "locked"
            refresh_interval = 0.0
        if metrics is None or metrics is True:
            self._metrics = MetricsRegistry()
        elif metrics is False:
            self._metrics = MetricsRegistry(enabled=False)
        else:
            self._metrics = metrics
        self._metrics_on = self._metrics.enabled
        self._config = (
            None if isinstance(config, ShardedSamplerEngine) else dict(config)
        )
        if audit is None or audit is False:
            audit_cfg = None
        elif audit is True:
            audit_cfg = AuditConfig()
        elif isinstance(audit, AuditConfig):
            audit_cfg = audit
        elif isinstance(audit, dict):
            audit_cfg = AuditConfig(**audit)
        else:
            raise ValueError(
                f"audit must be a bool, AuditConfig, or kwargs dict, "
                f"got {type(audit).__name__}"
            )
        if audit_cfg is not None and self._config is None:
            raise ValueError(
                "the audit plane needs the sampler config dict to model "
                "the target distribution; pass the config, not a "
                "prebuilt engine"
            )
        self._audit_cfg = audit_cfg
        if isinstance(config, ShardedSamplerEngine):
            self._engine = config
        else:
            # Fail actionably before building K shards' worth of state.
            kind_spec(dict(config).get("kind"))
            # The registry is installed for the build so sampler-internal
            # instruments (WindowBank rungs) land in the service registry.
            with use_registry(self._metrics):
                self._engine = ShardedSamplerEngine(
                    config,
                    shards=shards,
                    seed=seed,
                    max_watermark_skew=max_watermark_skew,
                    metrics=self._metrics,
                )
        k = self._engine.shards
        if ingest_workers < 1:
            raise ValueError(f"need at least one worker, got {ingest_workers}")
        ingest_workers = min(ingest_workers, k)
        self._serialized = serialized
        self._block = backpressure == "block"
        self._refresh_interval = float(refresh_interval)
        self._compact_interval = compact_interval
        self._shard_locks = [threading.Lock() for _ in range(k)]
        self._router = ShardRouter(self._engine.partitioner)
        self._queues = ShardQueues(k, queue_capacity)
        self._limiter = TenantRateLimiter(
            tenant_rates, default_rate, metrics=self._metrics
        )
        self._executor = QueryExecutor(
            self._engine, self._shard_locks, seed=seed, rng_mode=rng_mode,
            metrics=self._metrics,
        )
        self._workers_mode = workers_mode
        self._worker_errors: list[tuple[Exception, int]] = []
        self._plane: ProcessPlane | None = None
        self._worker_metrics: MetricsRegistry | None = None
        if workers_mode == "process":
            self._workers: list[IngestWorker] = []
            # The worker-telemetry mirror: worker-shipped families land
            # here (same names, extra ``worker`` label) and render inside
            # this service's exposition as an auxiliary registry.
            if worker_telemetry and self._metrics_on:
                self._worker_metrics = MetricsRegistry()
            self._plane = ProcessPlane(
                self._engine,
                self._queues,
                self._shard_locks,
                workers=ingest_workers,
                max_batch=max_batch,
                on_error=self._record_worker_error,
                metrics=self._metrics,
                start_method=mp_start_method,
                telemetry=bool(worker_telemetry),
                worker_metrics=self._worker_metrics,
            )
            if self._worker_metrics is not None:
                self._metrics.attach_auxiliary(self._worker_metrics)
                self._metrics.set_render_hook(self._pull_worker_telemetry)
            # Spawn the shard processes *now*, before any service thread
            # exists — forking a multithreaded process risks inheriting
            # a mid-held lock into the child.
            self._plane.start()
        else:
            self._workers = [
                IngestWorker(
                    w,
                    self._engine,
                    self._queues,
                    self._shard_locks,
                    owned_shards=[
                        s for s in range(k) if s % ingest_workers == w
                    ],
                    max_batch=max_batch,
                    on_error=self._record_worker_error,
                    metrics=self._metrics,
                )
                for w in range(ingest_workers)
            ]
        self._closed = False
        self._compaction_passes = 0
        self._compaction_bytes = 0
        self._ticker_stop = threading.Event()
        self._ticker: threading.Thread | None = None
        self._register_metrics(k)
        self._auditor: Auditor | None = None
        self._audit_error: Exception | None = None
        self._audit_kwargs: dict = {}
        if audit_cfg is not None:
            self._auditor = Auditor(
                self._config, audit_cfg, metrics=self._metrics
            )
            self._audit_kwargs = dict(audit_cfg.query_kwargs or {})
            if (
                self._config.get("kind") == "window_bank"
                and "horizon" not in self._audit_kwargs
            ):
                # Pin the audited rung explicitly (same default the
                # truth's profile uses), so draws and truth agree.
                self._audit_kwargs["horizon"] = float(
                    min(self._config["resolutions"])
                )
        self._burn = BurnRateTracker(
            QUERY_SLO_OBJECTIVE_SECONDS, slo=QUERY_SLO
        )
        self._health = HealthChecker(
            {
                "service_open": self._probe_service_open,
                "worker_errors": self._probe_worker_errors,
                "workers": self._probe_workers,
                "queue_saturation": self._probe_queue_saturation,
                "refresh_latch": self._probe_refresh_latch,
                "fold_staleness": self._probe_fold_staleness,
                "audit": self._probe_audit,
                "slo_burn": lambda: self._burn.probe("slo_burn"),
            },
            liveness_names=("service_open", "worker_errors"),
            status_gauge=self._m_health if self._metrics_on else None,
        )
        for worker in self._workers:
            worker.start()
        audit_interval = 0.0 if audit_cfg is None else audit_cfg.interval
        if (
            self._refresh_interval > 0
            or self._compact_interval is not None
            or audit_interval > 0
        ):
            self._ticker = threading.Thread(
                target=self._tick_loop, name="repro-serving-ticker", daemon=True
            )
            self._ticker.start()

    def _register_metrics(self, k: int) -> None:
        """Register the front-door instruments and live callback gauges
        (all shared no-ops when the registry is disabled)."""
        m = self._metrics
        self._m_submitted = m.counter(
            "repro_serving_submitted_items_total",
            CATALOG_HELP["repro_serving_submitted_items_total"],
            labels=("tenant",),
        )
        self._m_bp_shed = m.counter(
            "repro_serving_backpressure_shed_total",
            CATALOG_HELP["repro_serving_backpressure_shed_total"],
            labels=("tenant",),
        )
        submit_s = m.histogram(
            "repro_serving_submit_seconds",
            CATALOG_HELP["repro_serving_submit_seconds"],
            labels=("outcome",),
        )
        self._m_submit_s = {
            o: submit_s.labels(outcome=o)
            for o in ("accepted", "shed", "rate_limited")
        }
        query_s = m.histogram(
            "repro_serving_query_seconds",
            CATALOG_HELP["repro_serving_query_seconds"],
            labels=("method", "outcome"),
        )
        self._m_query_s = {
            (meth, out): query_s.labels(method=meth, outcome=out)
            for meth in ("sample", "sample_many")
            for out in ("ok", "error")
        }
        self._m_compact_passes = m.counter(
            "repro_serving_compaction_passes_total",
            CATALOG_HELP["repro_serving_compaction_passes_total"],
        )
        self._m_compact_bytes = m.counter(
            "repro_serving_compaction_reclaimed_bytes_total",
            CATALOG_HELP["repro_serving_compaction_reclaimed_bytes_total"],
        )
        # Audit/health/trace families are part of the catalog, so they
        # register here unconditionally (the Auditor re-acquires the
        # same families by name when the audit plane is on).
        self._m_audit_verdict = m.gauge(
            "repro_audit_verdict", CATALOG_HELP["repro_audit_verdict"]
        )
        self._m_audit_verdict.set(-1)  # no auditor, no verdict
        m.counter(
            "repro_audit_draws_total", CATALOG_HELP["repro_audit_draws_total"]
        )
        m.gauge(
            "repro_audit_tvd_bound", CATALOG_HELP["repro_audit_tvd_bound"]
        )
        m.gauge("repro_audit_evalue", CATALOG_HELP["repro_audit_evalue"])
        m.counter(
            "repro_audit_ticks_total",
            CATALOG_HELP["repro_audit_ticks_total"],
            labels=("result",),
        )
        self._m_health = m.gauge(
            "repro_health_status",
            CATALOG_HELP["repro_health_status"],
            labels=("probe",),
        )
        # Process-plane families likewise register unconditionally so a
        # thread-mode exposition still carries the whole catalog (empty
        # families render their headers with no samples).
        m.counter(
            "repro_serving_ipc_frames_total",
            CATALOG_HELP["repro_serving_ipc_frames_total"],
            labels=("direction",),
        )
        m.counter(
            "repro_serving_ipc_bytes_total",
            CATALOG_HELP["repro_serving_ipc_bytes_total"],
            labels=("direction",),
        )
        m.counter(
            "repro_serving_worker_restarts_total",
            CATALOG_HELP["repro_serving_worker_restarts_total"],
            labels=("worker",),
        )
        m.gauge(
            "repro_serving_worker_queue_depth",
            CATALOG_HELP["repro_serving_worker_queue_depth"],
            labels=("worker",),
        )
        # Cross-process telemetry plane families (children are created by
        # the ProcessPlane per worker; thread mode renders bare headers).
        m.counter(
            "repro_worker_telemetry_ships_total",
            CATALOG_HELP["repro_worker_telemetry_ships_total"],
            labels=("worker",),
        )
        m.counter(
            "repro_worker_telemetry_spans_total",
            CATALOG_HELP["repro_worker_telemetry_spans_total"],
            labels=("worker",),
        )
        m.counter(
            "repro_worker_telemetry_merge_errors_total",
            CATALOG_HELP["repro_worker_telemetry_merge_errors_total"],
            labels=("worker",),
        )
        m.gauge(
            "repro_worker_telemetry_age_seconds",
            CATALOG_HELP["repro_worker_telemetry_age_seconds"],
            labels=("worker",),
        )
        m.gauge(
            "repro_worker_telemetry_clock_offset_seconds",
            CATALOG_HELP["repro_worker_telemetry_clock_offset_seconds"],
            labels=("worker",),
        )
        trace_dropped = m.counter(
            "repro_trace_dropped_total",
            CATALOG_HELP["repro_trace_dropped_total"],
        )
        if not self._metrics_on:
            return
        # Mirror the ambient tracer's ring-buffer drops into this
        # service's registry (last bound service wins — one live tracer,
        # one serving registry is the supported production shape).
        current_tracer().bind_dropped_counter(trace_dropped)
        # Live gauges evaluate their callbacks at render/read time; each
        # callback reads state the owning component already exposes
        # thread-safely (a raising callback renders NaN, never breaks
        # exposition).
        depth = m.gauge(
            "repro_serving_queue_depth",
            CATALOG_HELP["repro_serving_queue_depth"],
            labels=("shard",),
        )
        for shard in range(k):
            depth.labels(shard=str(shard)).set_function(
                lambda s=shard: self._queues.depths()[s]
            )
        m.gauge(
            "repro_serving_queue_pending_items",
            CATALOG_HELP["repro_serving_queue_pending_items"],
        ).set_function(self._queues.pending)
        m.gauge(
            "repro_serving_tenant_buckets",
            CATALOG_HELP["repro_serving_tenant_buckets"],
        ).set_function(self._limiter.bucket_count)
        m.gauge(
            "repro_serving_fold_generation",
            CATALOG_HELP["repro_serving_fold_generation"],
        ).set_function(lambda: self._executor.generation)
        m.gauge(
            "repro_serving_fold_age_seconds",
            CATALOG_HELP["repro_serving_fold_age_seconds"],
        ).set_function(self._executor.fold_age_seconds)
        m.gauge(
            "repro_serving_fold_epoch_lag",
            CATALOG_HELP["repro_serving_fold_epoch_lag"],
        ).set_function(self._executor.epoch_lag)
        m.gauge(
            "repro_serving_watermark_skew_latched",
            CATALOG_HELP["repro_serving_watermark_skew_latched"],
        ).set_function(
            lambda: 0 if self._executor.refresh_error is None else 1
        )

    # -- background ticker --------------------------------------------------
    def _tick_loop(self) -> None:
        audit_interval = (
            self._audit_cfg.interval if self._audit_cfg is not None else 0.0
        )
        period = min(
            self._refresh_interval or float("inf"),
            self._compact_interval or float("inf"),
            audit_interval or float("inf"),
        )
        last_refresh = last_compact = last_audit = time.monotonic()
        while not self._ticker_stop.wait(period):
            now = time.monotonic()
            if (
                self._refresh_interval > 0
                and now - last_refresh >= self._refresh_interval
            ):
                try:
                    self._refresh()
                except Exception:
                    # Must not kill the ticker.  The executor latches
                    # the failure and re-raises it on every query until
                    # a refresh succeeds, so readers cannot be silently
                    # pinned to the stale pre-failure fold.  (A collect
                    # hitting a dead worker surfaces through the
                    # worker_errors latch / workers probe instead.)
                    pass
                last_refresh = now
                # Piggyback the SLO burn-rate cut on the refresh cadence.
                if self._metrics_on:
                    self._burn.observe(
                        self._metrics.get("repro_serving_query_seconds")
                    )
            if (
                self._compact_interval is not None
                and now - last_compact >= self._compact_interval
            ):
                self._run_compaction()
                last_compact = now
            if (
                audit_interval > 0
                and now - last_audit >= audit_interval
            ):
                try:
                    self.audit_tick()
                except Exception:
                    pass  # a broken tick must not kill the ticker
                last_audit = now

    def _run_compaction(self) -> None:
        """One expiry-compaction pass.  Thread mode: shard by shard,
        each under its own write lock, so ingest of the other shards
        keeps flowing.  Process mode: inside the workers (they own the
        authoritative state); the mirror picks up compacted snapshots on
        the next collect."""
        freed = 0
        with span("serving.compaction") as sp:
            if self._plane is not None:
                try:
                    freed = self._plane.compact()
                except WorkerDied:
                    # Death bookkeeping (latch or lossless restart) is
                    # the receiver thread's job; skip this pass.
                    sp.set(freed=0)
                    return
            else:
                for shard in range(self._engine.shards):
                    with self._shard_locks[shard]:
                        freed += self._engine.compact_shard(shard)
            sp.set(freed=freed)
        self._compaction_passes += 1
        self._compaction_bytes += freed
        self._m_compact_passes.inc()
        if freed:
            self._m_compact_bytes.add(freed)

    def _record_worker_error(self, exc: Exception, shard: int) -> None:
        self._worker_errors.append((exc, shard))

    def _refresh(self, force: bool = False) -> bool:
        """Refresh the published fold; in process mode, first pull the
        workers' snapshot deltas into the mirror engine so the new
        generation reflects everything acked so far."""
        if self._plane is not None:
            self._plane.collect()
        return self._executor.refresh(force)

    # -- front door ---------------------------------------------------------
    @property
    def engine(self) -> ShardedSamplerEngine:
        """The wrapped engine.  While the service is open, mutate it
        only through the service (the workers own the shard writes)."""
        return self._engine

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def metrics(self) -> MetricsRegistry:
        """The service's metrics registry — render with
        ``render_prometheus()`` / ``render_json()``."""
        return self._metrics

    def _check_open(self) -> None:
        if self._closed:
            raise ServiceClosed("service is closed")
        if self._worker_errors:
            exc, shard = self._worker_errors[0]
            raise ServiceClosed(
                f"ingest worker for shard {shard} failed: {exc!r}"
            ) from exc

    def submit(
        self,
        items,
        timestamps=None,
        *,
        tenant: str | None = None,
        timeout: float | None = None,
    ) -> int:
        """Admit, route, and enqueue one batch; returns items accepted.

        Raises :class:`~repro.serving.errors.RateLimited` (tenant over
        its cap), :class:`~repro.serving.errors.Backpressure` (queues at
        the high-water mark under the ``shed`` policy, or still full
        after ``timeout`` under ``block``), or
        :class:`~repro.serving.errors.ServiceClosed` — in every case the
        batch was rejected atomically, and a backpressure rejection
        refunds the tenant's rate tokens (a shed submit costs nothing).
        Accepts a plain item array, a ``TimestampedStream``, or explicit
        ``timestamps`` (required form for time-windowed kinds).
        """
        self._check_open()
        t0 = time.perf_counter() if self._metrics_on else 0.0
        arr, ts = self._router.normalize(items, timestamps)
        total = int(arr.size)
        if total == 0:
            return 0
        with span("serving.submit", tenant=tenant, items=total):
            # Admission first, on the raw count: a rate-limited batch
            # never pays for hash partitioning.
            try:
                self._limiter.admit(tenant, total)
            except RateLimited:
                # The limiter owns the per-tenant rate_limited counter;
                # the front door only times the outcome.
                if self._metrics_on:
                    self._m_submit_s["rate_limited"].observe(
                        time.perf_counter() - t0
                    )
                raise
            parts = self._router.route_normalized(arr, ts)
            try:
                accepted = self._queues.put(
                    parts, block=self._block, timeout=timeout
                )
            except (Backpressure, ServiceClosed, ValueError) as exc:
                # Every put() rejection is atomic (nothing enqueued), so
                # the admitted tokens go back — a refused submit costs
                # nothing.
                self._limiter.refund(tenant, total)
                if isinstance(exc, Backpressure):
                    self._m_bp_shed.labels(
                        tenant=tenant if tenant is not None else "_default"
                    ).inc()
                    if self._metrics_on:
                        self._m_submit_s["shed"].observe(
                            time.perf_counter() - t0
                        )
                raise
        if self._auditor is not None and self._audit_error is None:
            # Same accepted batch the workers will apply (put() is
            # all-or-nothing, so `accepted == total`).  feed() is one
            # lock + append; counting is deferred to the audit tick.
            try:
                self._auditor.feed(arr, ts, tenant)
            except Exception as exc:
                self._audit_error = exc  # latch: audits skip, submits flow
        self._m_submitted.labels(
            tenant=tenant if tenant is not None else "_default"
        ).add(accepted)
        if self._metrics_on:
            self._m_submit_s["accepted"].observe(time.perf_counter() - t0)
        return accepted

    def flush(self, timeout: float | None = None) -> None:
        """Block until every accepted item has landed in its shard
        (:class:`~repro.serving.errors.FlushTimeout` on expiry).  Does
        not force a fold refresh — pair with :meth:`refresh` when a
        subsequent lock-free query must observe the flushed writes."""
        self._queues.wait_empty(timeout)
        self._check_open()

    def refresh(self) -> bool:
        """Publish a fresh fold generation now (quiesces writers);
        returns whether the epochs had moved.  Lock-free queries observe
        it immediately.  In process mode this first collects the shard
        workers' snapshot deltas, so ``flush()`` + ``refresh()`` is
        read-your-writes in both modes."""
        self._check_open()
        return self._refresh()

    def _pre_query(self, kwargs: dict) -> None:
        """The freshness leg run before every query.  Serialized mode
        flushes (and, in process mode, compacts the workers at the query
        clock then collects their deltas — reproducing the direct
        engine's exact compact-then-draw lineage, so the locked query's
        own compaction pass is a bitwise no-op).  Synchronous-refresh
        mode republishes the fold."""
        if self._serialized:
            self.flush()
            if self._plane is not None:
                self._plane.compact(now=kwargs.get("now"))
                self._plane.collect()
        elif (
            self._refresh_interval == 0
            and self._executor.rng_mode != "locked"
        ):
            self._refresh()

    def sample(self, **kwargs):
        """One truly perfect sample from the query plane.

        ``per-reader`` mode serves the last *published* fold lock-free —
        answers lag ingest by at most ``refresh_interval`` (call
        :meth:`flush` + :meth:`refresh` for read-your-writes).
        ``locked`` mode serializes on the live engine; serialized mode
        additionally flushes first, making the whole request sequence
        bitwise identical to direct engine calls (in process mode the
        flush is followed by a worker compact at the query clock and a
        delta collect, so the mirror holds the exact state a direct
        engine would query).
        """
        self._check_open()
        self._pre_query(kwargs)
        if not self._metrics_on:
            return self._executor.sample(**kwargs)
        t0 = time.perf_counter()
        try:
            result = self._executor.sample(**kwargs)
        except Exception:
            self._m_query_s[("sample", "error")].observe(
                time.perf_counter() - t0
            )
            raise
        self._m_query_s[("sample", "ok")].observe(time.perf_counter() - t0)
        return result

    def sample_many(self, k: int, **kwargs):
        """``k`` truly perfect samples, amortized — same freshness
        contract as :meth:`sample`."""
        self._check_open()
        self._pre_query(kwargs)
        if not self._metrics_on:
            return self._executor.sample_many(k, **kwargs)
        t0 = time.perf_counter()
        try:
            result = self._executor.sample_many(k, **kwargs)
        except Exception:
            self._m_query_s[("sample_many", "error")].observe(
                time.perf_counter() - t0
            )
            raise
        self._m_query_s[("sample_many", "ok")].observe(time.perf_counter() - t0)
        return result

    # -- audit plane --------------------------------------------------------
    @property
    def config(self) -> dict | None:
        """The sampler config the service was built with (``None`` when
        it wraps a prebuilt engine)."""
        return None if self._config is None else dict(self._config)

    @property
    def auditor(self) -> Auditor | None:
        return self._auditor

    def audit_tick(self) -> AuditEvent | None:
        """Run one audit tick now: verify the queues are drained, pin a
        fresh fold, take the dedicated audit draws, and judge them
        against the shadow truth.  Returns the tick's
        :class:`~repro.obs.AuditEvent` (``None`` when the audit plane is
        off).  Ticks that would race live ingest — pending items, a
        truth-feed or fold-generation move during the draws — are
        recorded as skips/discards, never judged: a verdict must only
        ever compare draws and truth that describe the same state.
        """
        self._check_open()
        aud = self._auditor
        if aud is None:
            return None
        if not aud.supported:
            return aud.record_skip(
                "unsupported",
                f"kind {aud.kind!r} exposes no auditable sample()",
            )
        if self._audit_error is not None:
            return aud.record_skip(
                "skipped_feed_error", repr(self._audit_error)
            )
        if self._queues.pending():
            return aud.record_skip(
                "skipped_busy", "ingest queues not drained"
            )
        try:
            self._refresh()
        except Exception as exc:
            return aud.record_skip("skipped_refresh_error", repr(exc))
        version = aud.truth_version
        generation = self._executor.generation
        try:
            results = self._executor.sample_many(
                self._audit_cfg.draws, **self._audit_kwargs
            )
            watermark = self._executor.published().watermark
        except Exception as exc:
            return aud.record_skip("skipped_query_error", repr(exc))
        if (
            aud.truth_version != version
            or self._executor.generation != generation
            or self._queues.pending()
        ):
            return aud.record_skip(
                "discarded_race", "ingest raced the audit draws"
            )
        return aud.evaluate(results, now=watermark, generation=generation)

    def audit_status(self) -> dict:
        """The audit plane's machine-readable status (also serialized
        into the flight-recorder bundle)."""
        if self._auditor is None:
            return {"enabled": False}
        out = self._auditor.status()
        out["enabled"] = True
        out["interval"] = self._audit_cfg.interval
        out["feed_error"] = (
            None if self._audit_error is None else repr(self._audit_error)
        )
        out["history"] = [e.to_dict() for e in self._auditor.history()]
        return out

    # -- health plane -------------------------------------------------------
    def _probe_service_open(self) -> ProbeResult:
        if self._closed:
            return ProbeResult("service_open", "fail", "service is closed")
        return ProbeResult("service_open", "pass", "open")

    def _probe_worker_errors(self) -> ProbeResult:
        n = len(self._worker_errors)
        if n:
            exc, shard = self._worker_errors[0]
            return ProbeResult(
                "worker_errors", "fail",
                f"{n} worker error(s); first: shard {shard}: {exc!r}",
                float(n),
            )
        return ProbeResult("worker_errors", "pass", "no worker errors", 0.0)

    def _probe_workers(self) -> ProbeResult:
        """Are the shard-owning workers (threads or processes) serving?
        Process mode reports dead and stalled shard processes by worker
        index; lossless restarts keep the probe green (they show up in
        ``repro_serving_worker_restarts_total`` instead)."""
        if self._closed:
            return ProbeResult("workers", "pass", "service closed")
        if self._plane is not None:
            statuses = self._plane.status()
            dead = [st["worker"] for st in statuses if not st["alive"]]
            stalled = [st["worker"] for st in statuses if st["stalled"]]
            restarts = sum(st["restarts"] for st in statuses)
            if dead:
                return ProbeResult(
                    "workers", "fail",
                    f"dead shard process(es) for worker(s) {dead} "
                    f"(shards {[st['shards'] for st in statuses if not st['alive']]})",
                    float(len(dead)),
                )
            if stalled:
                return ProbeResult(
                    "workers", "warn",
                    f"stalled shard process(es) for worker(s) {stalled} "
                    "(frames in flight, no ack)",
                    float(len(stalled)),
                )
            if self._plane.telemetry_enabled:
                # Telemetry freshness: a live pull is the probe — every
                # worker must answer, and the merged view must be fresh.
                unresponsive = self._plane.pull_telemetry(timeout=5.0)
                stale = [
                    st["worker"]
                    for st in self._plane.telemetry_status()
                    if freshness_status(st["last_age_s"], warn_after=30.0)
                    != "pass"
                ]
                lagging = sorted(set(unresponsive) | set(stale))
                if lagging:
                    return ProbeResult(
                        "workers", "warn",
                        f"telemetry stale for worker(s) {lagging} "
                        "(no payload merged recently)",
                        float(len(lagging)),
                    )
            return ProbeResult(
                "workers", "pass",
                f"{len(statuses)} shard process(es) live"
                + (f", {restarts} lossless restart(s)" if restarts else "")
                + (
                    ", telemetry fresh"
                    if self._plane.telemetry_enabled
                    else ""
                ),
                0.0,
            )
        dead = [w.index for w in self._workers if not w.is_alive()]
        if dead:
            return ProbeResult(
                "workers", "fail",
                f"dead ingest thread(s) for worker(s) {dead}",
                float(len(dead)),
            )
        return ProbeResult(
            "workers", "pass", f"{len(self._workers)} ingest thread(s) live", 0.0
        )

    def _probe_queue_saturation(self) -> ProbeResult:
        depths = self._queues.depths()
        frac = max(depths) / self._queues.capacity if depths else 0.0
        detail = f"max shard occupancy {frac:.0%} of capacity"
        if frac > 0.9:
            return ProbeResult("queue_saturation", "fail", detail, frac)
        if frac > 0.5:
            return ProbeResult("queue_saturation", "warn", detail, frac)
        return ProbeResult("queue_saturation", "pass", detail, frac)

    def _probe_refresh_latch(self) -> ProbeResult:
        error = self._executor.refresh_error
        if error is not None:
            return ProbeResult(
                "refresh_latch", "fail", f"latched refresh failure: {error!r}"
            )
        return ProbeResult("refresh_latch", "pass", "no latched failure")

    def _probe_fold_staleness(self) -> ProbeResult:
        if self._refresh_interval <= 0:
            return ProbeResult(
                "fold_staleness", "pass", "synchronous refresh mode"
            )
        if self._executor.generation < 0:
            return ProbeResult(
                "fold_staleness", "pass", "no fold published yet"
            )
        age = self._executor.fold_age_seconds()
        lag = self._executor.epoch_lag()
        detail = f"fold age {age:.3f}s (interval {self._refresh_interval}s)"
        # A stale fold only matters while ingest has moved past it.
        if lag > 0 and age > max(20 * self._refresh_interval, 5.0):
            return ProbeResult("fold_staleness", "fail", detail, age)
        if lag > 0 and age > max(5 * self._refresh_interval, 1.0):
            return ProbeResult("fold_staleness", "warn", detail, age)
        return ProbeResult("fold_staleness", "pass", detail, age)

    def _probe_audit(self) -> ProbeResult:
        if self._auditor is None:
            return ProbeResult("audit", "pass", "audit plane disabled")
        if self._audit_error is not None:
            return ProbeResult(
                "audit", "warn",
                f"truth feed latched an error: {self._audit_error!r}",
            )
        if self._auditor.flagged:
            return ProbeResult(
                "audit", "fail",
                f"sequential monitor flagged the sampler "
                f"(e-value {self._auditor.monitor.e_value:.3g} ≥ "
                f"1/alpha {self._auditor.monitor.threshold:.3g})",
                0.0,
            )
        if not self._auditor.supported:
            return ProbeResult(
                "audit", "pass", f"kind {self._auditor.kind!r} not auditable"
            )
        return ProbeResult(
            "audit", "pass",
            f"verdict {self._auditor.verdict} after "
            f"{self._auditor.draws_total} draws",
            float(self._auditor.verdict),
        )

    def health(self) -> HealthReport:
        """Run every readiness/liveness probe now (never raises, safe on
        a closed service).  ``report.live`` — keep the process;
        ``report.ready`` — keep the traffic.  Probe statuses also land
        in the ``repro_health_status`` gauge."""
        return self._health.check()

    # -- flight recorder ----------------------------------------------------
    def snapshot_shards_bytes(self) -> list[bytes]:
        """Per-shard snapshot envelopes (``save_state`` bytes), each
        captured under its shard's write lock.  In process mode the
        workers' latest deltas are collected first, so the blobs reflect
        everything acked at call time."""
        if self._plane is not None:
            try:
                self._plane.collect()
            except WorkerDied:
                pass  # dump what the mirror has — better than nothing
        blobs = []
        for shard, sampler in enumerate(self._engine.samplers):
            with self._shard_locks[shard]:
                blobs.append(save_state(sampler))
        return blobs

    def dump(self, path) -> dict:
        """Write the flight-recorder debug bundle to ``path`` (a zip);
        returns its manifest.  See :mod:`repro.obs.flight` for the
        bundle layout."""
        from repro.obs.flight import write_bundle

        return write_bundle(self, path)

    # -- cross-process telemetry --------------------------------------------
    def _pull_worker_telemetry(self) -> None:
        """Best-effort fresh pull from every worker (no-op in thread
        mode, with telemetry off, or once closed).  Installed as the
        registry render hook so every exposition reflects the workers'
        current counters, and called by ``stats()`` for the same
        reason."""
        plane = self._plane
        if plane is None or self._closed or not plane.telemetry_enabled:
            return
        try:
            plane.pull_telemetry(timeout=5.0)
        except Exception:
            pass

    def worker_telemetry_info(self) -> list[dict] | None:
        """Per-worker telemetry detail — shipping status, the raw
        unmerged metric snapshot, retained span records — after a fresh
        pull.  ``None`` in thread mode."""
        if self._plane is None:
            return None
        self._pull_worker_telemetry()
        return self._plane.telemetry_info()

    def export_chrome(self, path_or_file) -> int:
        """Export one merged Chrome trace: the ambient tracer's spans on
        this process's real pid plus every worker's shipped spans on
        their pids, clock-aligned via the per-generation min-RTT offset
        estimates.  Returns the number of span events written."""
        import json as _json
        import os as _os

        from repro.obs.trace import export_chrome_merged

        groups = [
            {
                "name": "repro-serve",
                "pid": _os.getpid(),
                "offset_ns": 0,
                "records": [
                    _json.loads(event.to_json())
                    for event in current_tracer().events()
                ],
            }
        ]
        if self._plane is not None:
            self._pull_worker_telemetry()
            groups.extend(self._plane.trace_groups())
        return export_chrome_merged(path_or_file, groups)

    # -- observability ------------------------------------------------------
    def stats(self) -> dict:
        """The service's stats endpoint: queue/ingest counters, query
        plane state, engine cache hit/miss counters, compaction
        totals.

        Built on the metrics registry: with metrics enabled the ingest
        and compaction tallies are the registry counter totals (the same
        numbers the Prometheus exposition reports — the two endpoints
        cannot drift, every count is written exactly once per event at
        one site); with ``metrics=False`` they fall back to the
        components' internal integers.  The dict keys are stable across
        both modes and across the pre-obs releases.

        Advisory, not transactional: the engine fields (position,
        watermark, ``approx_size_bytes`` — the latter an O(state) walk)
        are read without quiescing the workers, so under live ingest
        they reflect a best-effort instant, not a consistent cut.
        """
        self._pull_worker_telemetry()
        queues = self._queues
        if self._metrics_on:
            m = self._metrics
            counts = {
                "submitted_items": int(self._m_submitted.total()),
                "applied_items": int(
                    m.get("repro_serving_applied_items_total").total()
                ),
                "failed_items": int(
                    m.get("repro_serving_failed_items_total").total()
                ),
                "backpressure_shed": int(self._m_bp_shed.total()),
                "rate_limited": int(
                    m.get("repro_serving_rate_limited_total").total()
                ),
            }
            compaction = {
                "passes": int(self._m_compact_passes.total()),
                "bytes_reclaimed": int(self._m_compact_bytes.total()),
            }
            latency = {
                "note": (
                    "p50/p90/p99 are bucket-resolution approximations "
                    "derived from the latency histogram buckets"
                ),
                "submit_seconds": m.get(
                    "repro_serving_submit_seconds"
                ).merged_percentiles(),
                "query_seconds": m.get(
                    "repro_serving_query_seconds"
                ).merged_percentiles(),
                # In process mode with telemetry, the apply histogram
                # samples live in the worker-shipped mirror; merge both
                # (identical ladders) into one estimate.
                "ingest_apply_seconds": m.get(
                    "repro_serving_ingest_apply_seconds"
                ).merged_percentiles(
                    self._worker_metrics.get(
                        "repro_serving_ingest_apply_seconds"
                    )
                    if self._worker_metrics is not None
                    else None
                ),
            }
        else:
            counts = {
                "submitted_items": queues.submitted_items,
                "applied_items": queues.applied_items,
                "failed_items": queues.failed_items,
                "backpressure_shed": queues.shed_count,
                "rate_limited": self._limiter.shed_count,
            }
            compaction = {
                "passes": self._compaction_passes,
                "bytes_reclaimed": self._compaction_bytes,
            }
            latency = None
        audit = None
        if self._auditor is not None:
            audit = {
                "verdict": self._auditor.verdict,
                "flagged": self._auditor.flagged,
                "draws_total": self._auditor.draws_total,
                "e_value": self._auditor.monitor.e_value,
            }
        ingest_stats = {
            **counts,
            "pending_items": queues.pending(),
            "queue_depths": queues.depths(),
            "queue_capacity": queues.capacity,
            "worker_errors": len(self._worker_errors),
            "kernel": self._kernel_stats(),
        }
        if self._plane is not None:
            statuses = self._plane.status()
            ingest_stats["worker_processes"] = statuses
            ingest_stats["worker_restarts"] = sum(
                st["restarts"] for st in statuses
            )
            ingest_stats["worker_telemetry"] = self._plane.telemetry_status()
        return {
            "closed": self._closed,
            "serialized": self._serialized,
            "shards": self._engine.shards,
            "workers": (
                len(self._plane.links)
                if self._plane is not None
                else len(self._workers)
            ),
            "workers_mode": self._workers_mode,
            "metrics_enabled": self._metrics_on,
            "ingest": ingest_stats,
            "query": self._executor.stats(),
            "latency": latency,
            "audit": audit,
            "engine": {
                "position": self._engine.position,
                "watermark": self._engine.watermark(),
                "approx_size_bytes": self._engine.approx_size_bytes(),
                "cache": self._engine.cache_info(),
            },
            "compaction": compaction,
        }

    def _kernel_stats(self) -> dict:
        """Which batched ingest loop runs (``"c"`` or ``"python"``): in
        this process and — process mode with telemetry — in each worker,
        as its shipped ``repro_ingest_kernel_info`` gauge reports."""
        out: dict = {"impl": kernel_impl()}
        family = (
            self._worker_metrics.get("repro_ingest_kernel_info")
            if self._worker_metrics is not None
            else None
        )
        if family is not None:
            workers = {}
            for key, child in family.children().items():
                labels = dict(zip(family.label_names, key))
                if child.value == 1:
                    workers[labels["worker"]] = labels["impl"]
            out["workers"] = workers
        return out

    @property
    def position(self) -> int:
        """Items applied to shard state so far (excludes queued)."""
        return self._engine.position

    # -- shutdown -----------------------------------------------------------
    def close(self, drain: bool = True, timeout: float | None = None) -> None:
        """Stop the service: reject new work, optionally drain the
        queues, stop workers and ticker.  Idempotent."""
        if self._closed:
            return
        self._closed = True
        self._queues.close()
        if drain:
            try:
                self._queues.wait_empty(timeout)
            except Exception:
                pass
        for worker in self._workers:
            worker.stop()
        self._ticker_stop.set()
        if self._plane is not None:
            self._plane.stop()
        for worker in self._workers:
            worker.join(timeout=5.0)
        if self._ticker is not None:
            self._ticker.join(timeout=5.0)

    def __enter__(self) -> "SamplerService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
