"""The canonical metric-name catalog.

One row per instrument the serving path registers: name, type, label
names, and meaning.  The README "Observability" table mirrors this
list, the test suite asserts a served workload's Prometheus exposition
carries every entry, and the CI serving-smoke job checks the same
through ``repro-serve stats --format prom``.

Keep this in sync with the instrumentation sites:
:mod:`repro.core.g_sampler`, :mod:`repro.engine.shard`,
:mod:`repro.serving.service`, :mod:`repro.serving.workers`,
:mod:`repro.serving.router`, :mod:`repro.serving.executor`,
:mod:`repro.windows.bank`.
"""

from __future__ import annotations

from typing import NamedTuple

__all__ = ["CATALOG_HELP", "CatalogEntry", "METRIC_CATALOG"]


class CatalogEntry(NamedTuple):
    name: str
    type: str
    labels: tuple[str, ...]
    meaning: str


METRIC_CATALOG: tuple[CatalogEntry, ...] = (
    # -- ingest kernel (the pool's batched ingest loop) ----------------------
    CatalogEntry(
        "repro_ingest_heap_events_total", "counter", (),
        "Heap replacement events processed by batched pool ingest",
    ),
    CatalogEntry(
        "repro_ingest_kernel_info", "gauge", ("impl",),
        "1 at the implementation running batched pool ingest: impl=\"c\" "
        "(the compiled loop) or impl=\"python\" (the scalar update() loop)",
    ),
    # -- engine (merged-view cache + lifecycle) ------------------------------
    CatalogEntry(
        "repro_engine_fold_total", "counter", ("regime",),
        "Merged-view cache outcomes: hit (cached fold reused) / scratch (fold rebuilt)",
    ),
    CatalogEntry(
        "repro_engine_fold_seconds", "histogram", ("regime",),
        "Fold rebuild duration (regime=scratch)",
    ),
    CatalogEntry(
        "repro_engine_epoch_bumps_total", "counter", ("reason",),
        "Shard mutation-epoch bumps by cause (ingest/compact/restore/merge/invalidate)",
    ),
    CatalogEntry(
        "repro_engine_compaction_passes_total", "counter", (),
        "Engine-wide expiry-compaction passes (query-time and cadence legs)",
    ),
    CatalogEntry(
        "repro_engine_compaction_reclaimed_bytes_total", "counter", (),
        "Approximate bytes of expired state dropped by engine compaction",
    ),
    # -- windows (per-resolution ladder) -------------------------------------
    CatalogEntry(
        "repro_windows_ingested_items_total", "counter", ("resolution",),
        "Items ingested per WindowBank ladder rung (every rung sees the full stream)",
    ),
    CatalogEntry(
        "repro_windows_expired_reclaimed_bytes_total", "counter", ("resolution",),
        "Approximate bytes of expired window generations reclaimed per rung",
    ),
    # -- serving front door ---------------------------------------------------
    CatalogEntry(
        "repro_serving_submitted_items_total", "counter", ("tenant",),
        "Items admitted through submit() per tenant",
    ),
    CatalogEntry(
        "repro_serving_applied_items_total", "counter", ("shard",),
        "Items landed in shard state by the ingest workers",
    ),
    CatalogEntry(
        "repro_serving_failed_items_total", "counter", ("shard",),
        "Items whose apply raised (occupancy drained, state unchanged)",
    ),
    CatalogEntry(
        "repro_serving_backpressure_shed_total", "counter", ("tenant",),
        "Submits rejected at the queue high-water mark (shed policy or block timeout)",
    ),
    CatalogEntry(
        "repro_serving_rate_limited_total", "counter", ("tenant",),
        "Submits rejected by the tenant's token bucket",
    ),
    CatalogEntry(
        "repro_serving_submit_seconds", "histogram", ("outcome",),
        "Front-door submit latency by outcome (accepted/shed/rate_limited)",
    ),
    CatalogEntry(
        "repro_serving_ingest_apply_seconds", "histogram", ("shard",),
        "Worker micro-batch apply latency (coalesce + ingest_shard under the lock)",
    ),
    CatalogEntry(
        "repro_serving_batch_coalesce_items", "histogram", (),
        "Coalesced micro-batch sizes handed to ingest_shard",
    ),
    CatalogEntry(
        "repro_serving_query_seconds", "histogram", ("method", "outcome"),
        "Query-plane latency for sample/sample_many by outcome",
    ),
    CatalogEntry(
        "repro_serving_queue_depth", "gauge", ("shard",),
        "Per-shard queue occupancy, queued + in-flight items (live callback)",
    ),
    CatalogEntry(
        "repro_serving_queue_pending_items", "gauge", (),
        "Total items accepted but not yet applied (live callback)",
    ),
    CatalogEntry(
        "repro_serving_tenant_buckets", "gauge", (),
        "Token buckets currently tracked by the tenant rate limiter",
    ),
    # -- process-parallel ingest plane ----------------------------------------
    CatalogEntry(
        "repro_serving_ipc_frames_total", "counter", ("direction",),
        "IPC frames crossing the front door's worker pipes, by direction (send/recv)",
    ),
    CatalogEntry(
        "repro_serving_ipc_bytes_total", "counter", ("direction",),
        "IPC frame payload bytes crossing the worker pipes, by direction",
    ),
    CatalogEntry(
        "repro_serving_worker_restarts_total", "counter", ("worker",),
        "Lossless shard-process restarts (dead worker rebooted from the mirror)",
    ),
    CatalogEntry(
        "repro_serving_worker_queue_depth", "gauge", ("worker",),
        "Queued + in-flight items across one worker's owned shard lanes (live callback)",
    ),
    # -- query plane / fold publication ---------------------------------------
    CatalogEntry(
        "repro_serving_fold_refresh_total", "counter", ("result",),
        "Fold refresh attempts: published / unchanged / error",
    ),
    CatalogEntry(
        "repro_serving_fold_generation", "gauge", (),
        "Currently-published fold generation (-1 before the first publish)",
    ),
    CatalogEntry(
        "repro_serving_fold_age_seconds", "gauge", (),
        "Seconds since the current fold generation was published",
    ),
    CatalogEntry(
        "repro_serving_fold_epoch_lag", "gauge", (),
        "Shard mutation-epoch bumps not yet reflected by the published fold",
    ),
    CatalogEntry(
        "repro_serving_watermark_skew_latched", "gauge", (),
        "1 while a failed refresh (e.g. watermark skew) is latched on the query plane",
    ),
    # -- service ticker -------------------------------------------------------
    CatalogEntry(
        "repro_serving_compaction_passes_total", "counter", (),
        "Shard-by-shard expiry-compaction passes run by the service ticker",
    ),
    CatalogEntry(
        "repro_serving_compaction_reclaimed_bytes_total", "counter", (),
        "Approximate bytes reclaimed by the service ticker's compaction passes",
    ),
    # -- audit plane ----------------------------------------------------------
    CatalogEntry(
        "repro_audit_verdict", "gauge", (),
        "Audit verdict: 1 passing, 0 flagged (latched), -1 unsupported or no evaluated tick yet",
    ),
    CatalogEntry(
        "repro_audit_draws_total", "counter", (),
        "Dedicated audit draws taken off published folds",
    ),
    CatalogEntry(
        "repro_audit_tvd_bound", "gauge", (),
        "Latest certified upper bound on the output-vs-target total variation distance",
    ),
    CatalogEntry(
        "repro_audit_evalue", "gauge", (),
        "Running e-process value; crossing 1/alpha flags the sampler (anytime-valid)",
    ),
    CatalogEntry(
        "repro_audit_ticks_total", "counter", ("result",),
        "Audit ticks by outcome (evaluated/skipped_*/discarded_race/unsupported)",
    ),
    # -- cross-process telemetry plane ----------------------------------------
    CatalogEntry(
        "repro_worker_telemetry_ships_total", "counter", ("worker",),
        "Telemetry payloads (metric snapshot + span batch) merged from a shard worker",
    ),
    CatalogEntry(
        "repro_worker_telemetry_spans_total", "counter", ("worker",),
        "Worker-side span events shipped to the parent inside telemetry payloads",
    ),
    CatalogEntry(
        "repro_worker_telemetry_merge_errors_total", "counter", ("worker",),
        "Telemetry payloads whose metric snapshot failed to merge (type/ladder conflict)",
    ),
    CatalogEntry(
        "repro_worker_telemetry_age_seconds", "gauge", ("worker",),
        "Seconds since a worker's telemetry was last merged (live callback; -1 before the first)",
    ),
    CatalogEntry(
        "repro_worker_telemetry_clock_offset_seconds", "gauge", ("worker",),
        "Estimated worker-minus-parent perf-counter clock offset (min-RTT ping midpoint)",
    ),
    # -- health / trace -------------------------------------------------------
    CatalogEntry(
        "repro_health_status", "gauge", ("probe",),
        "Health probe status at last check: 1 pass, 0.5 warn, 0 fail",
    ),
    CatalogEntry(
        "repro_trace_dropped_total", "counter", (),
        "Trace span events dropped by the ring buffer since the tracer was bound",
    ),
)

#: name → meaning, so every instrumentation site registers with the
#: catalog's help text instead of restating it.
CATALOG_HELP: dict[str, str] = {entry.name: entry.meaning for entry in METRIC_CATALOG}
