"""Layer attribution for the traced run: timing shims on public entry points.

The program is not modified.  For the length of one traced epoch,
:class:`LayerClock` replaces a fixed table of public functions and methods
(looked up by attribute name) with wrappers that time every call, then
puts the originals back.  Each wrapper keeps a per-thread stack, so a
layer's *self time* is its calls' wall time minus the time spent in
nested calls to other shimmed entry points, and the client thread's
outermost calls give the share of round wall time the layers cover.

An entry point that no longer exists (renamed or deleted by a later
change) is recorded as absent and its layer reports zero; nothing raises.
"""

from __future__ import annotations

import importlib
import inspect
import threading
import time
import types
from collections import defaultdict

import numpy as np

from repro.obs.trace import Tracer, set_default_tracer

#: (layer, module, attribute path).  Several entry points may feed one
#: layer; a function imported by name into several modules is shimmed in
#: each module that calls it.
ENTRY_POINTS = (
    ("core.update_batch", "repro.core.g_sampler", "SamplerPool.update_batch"),
    ("engine.ingest", "repro.engine.shard", "ShardedSamplerEngine.ingest_shard"),
    ("engine.fold", "repro.engine.shard", "ShardedSamplerEngine.acquire_fold"),
    ("engine.restore", "repro.engine.shard", "ShardedSamplerEngine.restore_shard"),
    ("engine.compact", "repro.engine.shard", "ShardedSamplerEngine.compact"),
    ("engine.compact", "repro.engine.shard", "ShardedSamplerEngine.compact_shard"),
    ("engine.split", "repro.engine.partition", "UniversePartitioner.assign"),
    ("engine.split", "repro.engine.partition", "UniversePartitioner.split"),
    ("windows.update_batch", "repro.windows.bank", "WindowBank.update_batch"),
    ("windows.compact", "repro.windows.bank", "WindowBank.compact"),
    ("router.route", "repro.serving.router", "ShardRouter.route_normalized"),
    ("workers.put", "repro.serving.workers", "ShardQueues.put"),
    ("workers.flush", "repro.serving.workers", "ShardQueues.wait_empty"),
    ("procplane.collect", "repro.serving.procplane", "ProcessPlane.collect"),
    ("transport.send", "repro.serving.transport", "FrameConnection.send"),
    ("lifecycle.encode", "repro.serving.transport", "state_to_bytes"),
    ("lifecycle.encode", "repro.lifecycle.envelope", "state_to_bytes"),
    ("lifecycle.decode", "repro.serving.transport", "state_from_bytes"),
    ("lifecycle.decode", "repro.lifecycle.envelope", "state_from_bytes"),
    ("executor.refresh", "repro.serving.executor", "QueryExecutor.refresh"),
    ("executor.sample", "repro.serving.executor", "QueryExecutor.sample"),
)


def _resolve(module: str, path: str):
    """``(owner, attribute name, function)`` or ``None`` when the module
    or any attribute along ``path`` is missing, or the target is not a
    plain function (a shim could not stand in for it)."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *parents, name = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    target = inspect.getattr_static(owner, name, None)
    if not isinstance(target, types.FunctionType):
        return None
    return owner, name, target


class _ThreadLog:
    """One thread's accumulators; only its own thread writes them."""

    __slots__ = ("stack", "self_s", "calls", "top_s")

    def __init__(self) -> None:
        self.stack: list[float] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, list[float]] = defaultdict(list)
        self.top_s = 0.0


class LayerClock:
    """Times calls into :data:`ENTRY_POINTS` while installed.

    Use as a context manager around the timed phase of one epoch; the
    originals are restored on exit even if the phase raises.  Read the
    results after every thread that called into the layers is idle.
    """

    def __init__(self, entry_points=ENTRY_POINTS) -> None:
        self._entry_points = entry_points
        self._installed: list[tuple[object, str, object, bool]] = []
        self._local = threading.local()
        self._logs: list[_ThreadLog] = []
        self._logs_lock = threading.Lock()
        self._client: int | None = None  # the thread that enters
        self._client_log: _ThreadLog | None = None
        self.absent: list[str] = []

    def _log(self) -> _ThreadLog:
        log = getattr(self._local, "log", None)
        if log is None:
            log = self._local.log = _ThreadLog()
            with self._logs_lock:
                self._logs.append(log)
            if threading.get_ident() == self._client:
                self._client_log = log
        return log

    def _wrap(self, layer: str, fn):
        clock = time.perf_counter

        def shim(*args, **kwargs):
            log = self._log()
            stack = log.stack
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                nested = stack.pop()
                log.self_s[layer] += elapsed - nested
                log.calls[layer].append(elapsed)
                if stack:
                    stack[-1] += elapsed
                else:
                    log.top_s += elapsed

        return shim

    def __enter__(self) -> "LayerClock":
        self._client = threading.get_ident()
        for layer, module, path in self._entry_points:
            found = _resolve(module, path)
            if found is None:
                self.absent.append(f"{module}.{path}")
                continue
            owner, name, target = found
            # An inherited method is shadowed on the subclass and the
            # shadow deleted on exit, leaving the base class untouched.
            self._installed.append((owner, name, target, name in vars(owner)))
            setattr(owner, name, self._wrap(layer, target))
        return self

    def __exit__(self, *exc_info) -> None:
        for owner, name, target, own in reversed(self._installed):
            if own:
                setattr(owner, name, target)
            else:
                delattr(owner, name)
        self._installed.clear()

    # -- results -------------------------------------------------------------
    def self_seconds(self, layer: str) -> float:
        """Total self time of ``layer`` across every thread."""
        return sum(log.self_s.get(layer, 0.0) for log in self._logs)

    def call_seconds(self, layer: str) -> list[float]:
        """Inclusive wall time of every call into ``layer``."""
        out: list[float] = []
        for log in self._logs:
            out.extend(log.calls.get(layer, ()))
        return out

    def client_covered_seconds(self) -> float:
        """Client-thread time spent inside any shimmed entry point."""
        return 0.0 if self._client_log is None else self._client_log.top_s


#: Ambient-tracer ring size for one traced epoch: far above the spans one
#: epoch emits, so none are dropped.
TRACE_CAPACITY = 1 << 18

#: Every per-layer metric the traced run reports, with its unit.  A layer
#: a workload does not exercise (or whose entry point is absent) reads 0.
UNITS = {
    "core.heap_events_per_kitem": "count/kitem",
    "core.settle_scans_per_kitem": "count/kitem",
    "core.update_batch_s": "s",
    "engine.ingest_s": "s",
    "engine.ingest_p99_us": "us",
    "engine.split_s": "s",
    "engine.fold_ms_p50": "ms",
    "engine.fold_scratch": "count",
    "engine.fold_hit": "count",
    "engine.compact_s": "s",
    "windows.compact_s": "s",
    "windows.reclaimed_bytes": "bytes",
    "windows.update_batch_s": "s",
    "router.route_us_p50": "us",
    "workers.put_s": "s",
    "workers.flush_ms_p50": "ms",
    "workers.coalesce_items_p50": "items",
    "workers.applies": "count",
    "workers.apply_p99_us": "us",
    "procplane.collect_ms_p50": "ms",
    "transport.frames_per_kitem": "count/kitem",
    "transport.bytes_per_item": "bytes/item",
    "transport.send_s": "s",
    "lifecycle.encode_s": "s",
    "lifecycle.decode_s": "s",
    "executor.refresh_ms_p50": "ms",
    "executor.sample_us_p50": "us",
    "executor.views_copied": "count",
    "executor.fail_draws": "count",
    "trace.coverage": "ratio",
    "trace.overhead": "ratio",
    "trace.absent_entry_points": "count",
}


def percentile(values, q: float) -> float:
    """``np.percentile`` (linear interpolation); 0.0 for no samples."""
    return float(np.percentile(values, q)) if len(values) else 0.0


def read_counters(registry) -> dict[str, float]:
    """Counter totals from a registry's JSON exposition (auxiliary worker
    registries included): ``name`` sums every sample, ``name{k=v,...}``
    holds one label set."""
    out: dict[str, float] = defaultdict(float)
    for name, family in registry.render_json().items():
        if family["type"] != "counter":
            continue
        for sample in family["samples"]:
            labels = ",".join(f"{k}={v}" for k, v in sorted(sample["labels"].items()))
            out[name] += sample["value"]
            out[f"{name}{{{labels}}}"] += sample["value"]
    return out


class LayerProbe:
    """The traced epoch's readings beside the shims: counter deltas, the
    spans the program already emits (ambient tracer in this process,
    shipped worker spans in process mode) and executor view copies.

    Construct after set-up; enter around the timed phase; call
    :meth:`finish` once the phase is over.
    """

    def __init__(self, service) -> None:
        self._registry = service.metrics
        self._service = service
        self._counters = read_counters(self._registry)
        self._views = self._views_copied()
        self._marks = [len(w["trace"]) for w in self._worker_info()]
        self.tracer = Tracer(capacity=TRACE_CAPACITY)
        self._previous = None

    def _views_copied(self) -> int:
        return int(self._service.stats()["query"].get("views_copied", 0))

    def _worker_info(self) -> list[dict]:
        return self._service.worker_telemetry_info() or []

    def __enter__(self) -> "LayerProbe":
        self._previous = set_default_tracer(self.tracer)
        return self

    def __exit__(self, *exc_info) -> None:
        set_default_tracer(self._previous)

    def finish(self) -> dict:
        after = read_counters(self._registry)
        spans: dict[str, list] = defaultdict(list)
        for event in self.tracer.events():
            spans[event.name].append((event.duration_ns / 1e9, event.attrs))
        worker_spans: dict[str, list] = defaultdict(list)
        for mark, worker in zip(self._marks, self._worker_info()):
            for record in worker["trace"][mark:]:
                worker_spans[record["name"]].append(
                    (record["duration_us"] / 1e6, record.get("attrs", {}))
                )
        return {
            "counters": {k: v - self._counters.get(k, 0.0) for k, v in after.items()},
            "spans": spans,
            "worker_spans": worker_spans,
            "views_copied": self._views_copied() - self._views,
        }


def layer_metrics(
    clock: LayerClock, raw: dict, *, items: int, wall_s: float, fail_draws: int
) -> dict[str, float]:
    """One traced epoch's per-layer metrics (all of :data:`UNITS` except
    ``trace.overhead``, which compares epochs)."""
    delta = raw["counters"]
    spans = raw["spans"]
    worker_spans = raw["worker_spans"]
    kitems = max(items, 1) / 1e3
    # Thread mode applies in-process ("serving.apply" spans).  Process
    # mode ships each coalesced batch as one frame ("serving.ipc_send")
    # and the worker times the apply itself ("worker.apply", shipped back).
    batches = spans.get("serving.apply") or spans.get("serving.ipc_send") or []
    applies = spans.get("serving.apply") or worker_spans.get("worker.apply") or []
    worker_apply_s = sum(d for d, __ in worker_spans.get("worker.apply", ()))
    us, ms = 1e6, 1e3
    return {
        "core.heap_events_per_kitem": delta.get("repro_ingest_heap_events_total", 0.0)
        / kitems,
        "core.settle_scans_per_kitem": delta.get("repro_ingest_settle_scans_total", 0.0)
        / kitems,
        "core.update_batch_s": clock.self_seconds("core.update_batch") + worker_apply_s,
        "engine.ingest_s": clock.self_seconds("engine.ingest"),
        "engine.ingest_p99_us": percentile(clock.call_seconds("engine.ingest"), 99) * us,
        "engine.split_s": clock.self_seconds("engine.split"),
        "engine.fold_ms_p50": percentile([d for d, __ in spans.get("engine.fold", ())], 50)
        * ms,
        "engine.fold_scratch": delta.get("repro_engine_fold_total{regime=scratch}", 0.0),
        "engine.fold_hit": delta.get("repro_engine_fold_total{regime=hit}", 0.0),
        "engine.compact_s": clock.self_seconds("engine.compact"),
        "windows.compact_s": clock.self_seconds("windows.compact"),
        "windows.reclaimed_bytes": delta.get(
            "repro_windows_expired_reclaimed_bytes_total", 0.0
        ),
        "windows.update_batch_s": clock.self_seconds("windows.update_batch"),
        "router.route_us_p50": percentile(clock.call_seconds("router.route"), 50) * us,
        "workers.put_s": clock.self_seconds("workers.put"),
        "workers.flush_ms_p50": percentile(clock.call_seconds("workers.flush"), 50) * ms,
        "workers.coalesce_items_p50": percentile(
            [a.get("items", 0) for __, a in batches], 50
        ),
        "workers.applies": float(len(batches)),
        "workers.apply_p99_us": percentile([d for d, __ in applies], 99) * us,
        "procplane.collect_ms_p50": percentile(clock.call_seconds("procplane.collect"), 50)
        * ms,
        "transport.frames_per_kitem": delta.get(
            "repro_serving_ipc_frames_total{direction=send}", 0.0
        )
        / kitems,
        "transport.bytes_per_item": delta.get(
            "repro_serving_ipc_bytes_total{direction=send}", 0.0
        )
        / max(items, 1),
        "transport.send_s": clock.self_seconds("transport.send"),
        "lifecycle.encode_s": clock.self_seconds("lifecycle.encode"),
        "lifecycle.decode_s": clock.self_seconds("lifecycle.decode"),
        "executor.refresh_ms_p50": percentile(clock.call_seconds("executor.refresh"), 50)
        * ms,
        "executor.sample_us_p50": percentile(clock.call_seconds("executor.sample"), 50)
        * us,
        "executor.views_copied": float(raw["views_copied"]),
        "executor.fail_draws": float(fail_draws),
        "trace.coverage": clock.client_covered_seconds() / wall_s if wall_s else 0.0,
        "trace.absent_entry_points": float(len(clock.absent)),
    }
