"""The process-parallel ingest plane: shard-owning worker *processes*.

Thread-mode ingest (:class:`~repro.serving.workers.IngestWorker`) keeps
every shard's sampler in the front-door process, so on CPython all K
workers contend on one GIL and BENCH_E23 shows ingest throughput
*dropping* as shards grow.  This module moves the authoritative shard
samplers into worker processes — K shards finally mean K cores — while
keeping the front door's contracts intact:

- **Same admission.**  The existing :class:`ShardQueues` still gates
  submits with atomic all-or-nothing backpressure; occupancy counts
  queued + in-flight items and only drains when a worker *acks* the
  frame, so a slow shard process throttles its producers exactly like a
  slow shard thread did.
- **Same determinism.**  Each worker process boots a bitwise replica of
  its owned shards — :meth:`ShardedSamplerEngine.shard_config` rebuilds
  the sampler with the shard's exact registry config (per-shard seed
  included) and :func:`repro.engine.state.load_state` restores its
  snapshot, RNG state and all — and applies batches through the same
  :func:`repro.engine.batch.ingest` helper ``ingest_shard`` uses.
  Per-shard FIFO order is preserved end to end (one pipe per worker,
  frames processed strictly in order), so the final shard state is
  bitwise identical to a sequential ``engine.ingest`` of the same
  submits.
- **Queries stay local.**  The front door keeps a *mirror* engine for
  the query plane.  A fold collector periodically ``pull``s per-shard
  snapshot deltas (keyed by worker-side mutation epochs, so clean
  shards ship nothing) and lands them with
  :meth:`ShardedSamplerEngine.restore_shard` under the shard's write
  lock — the publisher then refolds exactly as in thread mode.

Transport is :class:`~repro.serving.transport.FrameConnection` over
``multiprocessing`` pipes: RPRS-coded snapshot trees, never pickles.

**Crash handling.**  A dead worker with unacked in-flight frames means
accepted batches are lost: the link fails their occupancy, reports the
error (the service latches :class:`ServiceClosed`), and the ``workers``
health probe goes red.  A dead worker that was *idle* — nothing in
flight and every acked epoch already pulled into the mirror — is
restarted losslessly from the mirror's snapshots
(``repro_serving_worker_restarts_total``).

**Telemetry.**  By default each worker runs a live
:class:`~repro.obs.metrics.MetricsRegistry` (so sampler construction
binds the ingest-kernel counters worker-side) behind a metered pipe,
plus a ring-buffered :class:`~repro.obs.trace.Tracer` recording
``worker.apply`` / ``worker.pull`` / ``worker.compact`` spans linked to
parent spans via ``trace`` refs stamped into the frames.  Cumulative
metric snapshots (:mod:`repro.obs.telemetry`) and span batches ship
back piggybacked on ``pull`` replies and on demand via ``telemetry``
frames; :class:`~repro.obs.telemetry.WorkerTelemetry` merges them into
the parent's mirror registry under a ``worker`` label with
per-generation base accounting (lossless respawns never double-count
or regress a counter), and each control round trip refines a
min-RTT worker-clock offset used to align spans in Chrome exports.

**Test hook.**  When the environment variable
``REPRO_SERVING_FAULT_ITEM`` is set, a worker hard-exits before
applying any ingest frame containing that item value — the only way to
deterministically produce a mid-batch crash in an out-of-process
worker.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import threading
import time
from collections import deque

import numpy as np

from repro.obs.catalog import CATALOG_HELP
from repro.obs.metrics import SIZE_BUCKETS, current_registry
from repro.obs.telemetry import WorkerTelemetry
from repro.obs.trace import span
from repro.serving.transport import FrameConnection

__all__ = ["ProcessPlane", "WorkerLink", "WorkerDied", "FAULT_ITEM_ENV"]

FAULT_ITEM_ENV = "REPRO_SERVING_FAULT_ITEM"

#: Ingest frames a link keeps in flight before the pump waits for acks.
#: Deep enough to hide pipe latency, shallow enough that a crash can
#: only strand a few micro-batches (each individually accounted).
MAX_INFLIGHT_FRAMES = 4

#: How long a control request (pull/compact/ping) may wait for its
#: reply before the worker is declared unresponsive.
CONTROL_TIMEOUT = 30.0

#: No ack for this long while frames are in flight → the health probe
#: reports the worker as stalled.
STALL_AFTER_SECONDS = 10.0


class WorkerDied(RuntimeError):
    """A shard worker process exited while accepted batches were in
    flight (or mid-control-request) — those batches are lost."""


def _epochs_tree(epochs: dict) -> dict:
    return {str(s): int(e) for s, e in epochs.items()}


#: Worker-side span ring-buffer capacity: deep enough to hold a full
#: shipping interval's worth of apply spans, bounded so a parent that
#: stops pulling cannot grow worker memory.
WORKER_TRACE_CAPACITY = 4096


def _worker_main(conn_raw) -> None:
    """Entry point of one shard-owning worker process.

    Single-threaded by design: frames are processed strictly in receive
    order, which is what makes a ``pull`` reply reflect every ingest
    frame sent before it, and per-shard FIFO trivially true.

    With ``telemetry`` on in the boot frame the worker runs a live
    registry (sampler construction binds the ingest-kernel counters into
    it) behind a metered pipe, times its own applies into
    ``repro_serving_ingest_apply_seconds``, and records
    ``worker.apply`` / ``worker.pull`` / ``worker.compact`` spans into a
    ring-buffered tracer; cumulative snapshots plus the span batch ship
    back piggybacked on ``pull`` replies and via ``telemetry`` frames.
    Telemetry is observational only — it reads no sampler state and
    draws no randomness, so the bitwise serialized-replay contract is
    untouched.  With telemetry off this is exactly the old dark mode:
    disabled registry, unmetered pipe.
    """
    from repro.engine.batch import ingest
    from repro.engine.registry import build_sampler
    from repro.engine.state import load_state, save_state
    from repro.obs.metrics import MetricsRegistry, use_registry
    from repro.obs.telemetry import snapshot_registry
    from repro.obs.trace import Tracer

    bootstrap = FrameConnection(conn_raw, metered=False)
    try:
        boot = bootstrap.recv()
    except (EOFError, OSError):
        return
    telemetry_on = bool(boot.get("telemetry", 0))
    registry = MetricsRegistry(enabled=telemetry_on)
    tracer = Tracer(capacity=WORKER_TRACE_CAPACITY, enabled=telemetry_on)
    conn = FrameConnection(conn_raw, metered=telemetry_on, metrics=registry)

    def _telemetry_payload() -> dict:
        events = tracer.events()
        tracer.clear()
        spans = "".join(event.to_json() + "\n" for event in events)
        return {
            "metrics": snapshot_registry(registry),
            "spans": spans.encode("utf-8"),
            "span_count": len(events),
            "now_ns": time.perf_counter_ns(),
            "pid": os.getpid(),
        }

    with use_registry(registry):
        samplers: dict[int, object] = {}
        epochs: dict[int, int] = {}
        try:
            for key, spec in boot["shards"].items():
                shard = int(key)
                sampler = build_sampler(spec["config"])
                load_state(sampler, spec["state"])
                samplers[shard] = sampler
                epochs[shard] = 0
        except Exception as exc:
            try:
                conn.send({"type": "boot_error", "error": repr(exc)})
            except (OSError, ValueError):
                pass
            return
        apply_s = registry.histogram(
            "repro_serving_ingest_apply_seconds",
            CATALOG_HELP["repro_serving_ingest_apply_seconds"],
            labels=("shard",),
        )
        m_apply = {s: apply_s.labels(shard=str(s)) for s in samplers}
        fault_item = boot.get("fault_item")
        conn.send({"type": "ready", "epochs": _epochs_tree(epochs)})
        while True:
            try:
                frame = conn.recv()
            except (EOFError, OSError):
                return
            kind = frame["type"]
            parent_ref = frame.get("trace")
            link_attrs = {"parent": parent_ref} if parent_ref else {}
            if kind == "ingest":
                shard = int(frame["shard"])
                items = np.asarray(frame["items"], dtype=np.int64)
                ts = frame.get("ts")
                if fault_item is not None and items.size and np.any(
                    items == int(fault_item)
                ):
                    os._exit(13)
                t0 = time.perf_counter()
                ack = {"type": "ack", "shard": shard, "n": int(items.size)}
                try:
                    with tracer.span(
                        "worker.apply", shard=shard, items=int(items.size),
                        **link_attrs,
                    ):
                        ingest(samplers[shard], items, timestamps=ts)
                    epochs[shard] += 1
                    ack.update(ok=1, epoch=epochs[shard])
                    m_apply[shard].observe(time.perf_counter() - t0)
                except Exception as exc:
                    ack.update(ok=0, epoch=epochs[shard], error=repr(exc))
                ack["seconds"] = time.perf_counter() - t0
                conn.send(ack)
            elif kind == "pull":
                seen = frame.get("epochs") or {}
                out = {}
                with tracer.span("worker.pull", **link_attrs) as sp:
                    for shard, sampler in samplers.items():
                        if epochs[shard] > int(seen.get(str(shard), 0)):
                            out[str(shard)] = {
                                "epoch": epochs[shard],
                                "state": save_state(sampler),
                            }
                    sp.set(shards=len(out))
                reply = {"type": "state", "shards": out}
                if telemetry_on:
                    reply["telemetry"] = _telemetry_payload()
                conn.send(reply)
            elif kind == "compact":
                now = frame.get("now")
                freed_total = 0
                with tracer.span("worker.compact", **link_attrs) as sp:
                    for shard, sampler in samplers.items():
                        freed = sampler.compact(now)
                        if freed:
                            epochs[shard] += 1
                            freed_total += freed
                    sp.set(freed=int(freed_total))
                conn.send(
                    {
                        "type": "compacted",
                        "freed": int(freed_total),
                        "epochs": _epochs_tree(epochs),
                    }
                )
            elif kind == "telemetry":
                reply = {"type": "telemetry"}
                if telemetry_on:
                    reply.update(_telemetry_payload())
                else:
                    reply["now_ns"] = time.perf_counter_ns()
                    reply["pid"] = os.getpid()
                conn.send(reply)
            elif kind == "ping":
                conn.send(
                    {
                        "type": "pong",
                        "epochs": _epochs_tree(epochs),
                        "now_ns": time.perf_counter_ns(),
                    }
                )
            elif kind == "stop":
                try:
                    conn.send({"type": "bye"})
                finally:
                    return
            else:  # unknown frame: protocol bug — die loudly, not silently
                conn.send(
                    {"type": "ack", "shard": -1, "n": 0, "ok": 0,
                     "epoch": -1, "error": f"unknown frame type {kind!r}"}
                )


class WorkerLink:
    """Parent-side handle for one worker process: its pipe, its pump
    thread (queues → ingest frames), and its receiver thread (acks and
    control replies → occupancy release / mailbox)."""

    def __init__(
        self,
        index: int,
        engine,
        queues,
        shard_locks: list[threading.Lock],
        owned_shards: list[int],
        *,
        max_batch: int,
        ctx,
        on_error=None,
        metrics=None,
        telemetry: bool = False,
    ) -> None:
        self.index = index
        self.owned = list(owned_shards)
        self._engine = engine
        self._queues = queues
        self._locks = shard_locks
        self._max_batch = max_batch
        self._ctx = ctx
        self._on_error = on_error
        self.conn: FrameConnection | None = None
        self.proc = None
        self.dead = False
        self.sink = False  # lossy death latched: pump drains to failure
        self.restarts = 0
        self.acked_epoch = {s: 0 for s in self.owned}
        self.pulled_epoch = {s: 0 for s in self.owned}
        self.last_ack_at = time.monotonic()
        # -- cross-process telemetry state --------------------------------
        self.telemetry = bool(telemetry)
        #: bumps on every (re)spawn; keys the merger's base accounting.
        self.generation = -1
        #: generation → (best rtt_ns, worker-minus-parent offset_ns).
        self.clock_by_gen: dict[int, tuple[int, int]] = {}
        #: shipped worker span records (JSONL dicts, annotated with
        #: pid/generation/worker at arrival), bounded like the worker ring.
        self.spans: deque[dict] = deque(maxlen=2 * WORKER_TRACE_CAPACITY)
        self.telemetry_ships = 0
        self.telemetry_spans = 0
        self.last_telemetry_at: float | None = None
        self._trace_seq = 0
        self._halt = threading.Event()
        self._cursor = 0
        # In-flight window: (shard, n) per unacked ingest frame, FIFO.
        self._inflight: deque[tuple[int, int]] = deque()
        self._window = threading.Condition()
        # One outstanding control request at a time; the receiver thread
        # posts the reply and sets the event.
        self._control_lock = threading.Lock()
        self._reply = None
        self._reply_evt = threading.Event()
        self._pump_t: threading.Thread | None = None
        self._recv_t: threading.Thread | None = None

        registry = current_registry() if metrics is None else metrics
        self._registry = registry
        apply_s = registry.histogram(
            "repro_serving_ingest_apply_seconds",
            CATALOG_HELP["repro_serving_ingest_apply_seconds"],
            labels=("shard",),
        )
        self._m_apply_s = {s: apply_s.labels(shard=str(s)) for s in self.owned}
        self._m_coalesce = registry.histogram(
            "repro_serving_batch_coalesce_items",
            CATALOG_HELP["repro_serving_batch_coalesce_items"],
            buckets=SIZE_BUCKETS,
        )
        registry.counter(
            "repro_serving_worker_restarts_total",
            CATALOG_HELP["repro_serving_worker_restarts_total"],
            labels=("worker",),
        ).labels(worker=str(index)).add_function(lambda: self.restarts)

    # -- boot ---------------------------------------------------------------
    def _boot_frame(self) -> dict:
        from repro.engine.state import save_state

        fault = os.environ.get(FAULT_ITEM_ENV)
        shards = {}
        for shard in self.owned:
            with self._locks[shard]:
                shards[str(shard)] = {
                    "config": self._engine.shard_config(shard),
                    "state": save_state(self._engine.samplers[shard]),
                }
        frame = {
            "type": "boot",
            "worker": self.index,
            "shards": shards,
            "telemetry": int(self.telemetry),
        }
        if fault is not None:
            frame["fault_item"] = int(fault)
        return frame

    def _trace_ref(self, parent_span) -> str | None:
        """A fresh span reference stamped into an outgoing frame and
        onto the parent span, linking the worker-side child span back to
        it in trace exports.  None (no stamping) while tracing is off."""
        from repro.obs.trace import current_tracer

        if not current_tracer().enabled:
            return None
        self._trace_seq += 1
        ref = f"w{self.index}g{self.generation}s{self._trace_seq}"
        parent_span.set(span_ref=ref)
        return ref

    def spawn(self) -> None:
        """Fork/spawn the worker process and hand it its shard replicas.
        Call before any service threads start (fork safety)."""
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        self.proc = self._ctx.Process(
            target=_worker_main,
            args=(child_conn,),
            name=f"repro-shard-worker-{self.index}",
            daemon=True,
        )
        self.proc.start()
        child_conn.close()
        self.conn = FrameConnection(parent_conn, metrics=self._registry)
        self.conn.send(self._boot_frame())
        ready = self.conn.recv()
        if ready.get("type") != "ready":
            raise RuntimeError(
                f"worker {self.index} failed to boot: "
                f"{ready.get('error', ready)}"
            )
        self.acked_epoch = {s: 0 for s in self.owned}
        self.pulled_epoch = {s: 0 for s in self.owned}
        self.generation += 1
        self.dead = False
        self.last_ack_at = time.monotonic()

    def start_threads(self) -> None:
        self._pump_t = threading.Thread(
            target=self._pump, name=f"repro-proc-pump-{self.index}", daemon=True
        )
        self._recv_t = threading.Thread(
            target=self._receive, name=f"repro-proc-recv-{self.index}", daemon=True
        )
        self._pump_t.start()
        self._recv_t.start()

    # -- pump: owned queue lanes → ingest frames ----------------------------
    def _pump(self) -> None:
        while True:
            got = self._queues.take(self.owned, self._cursor, self._max_batch)
            if got is None:
                if self._halt.is_set():
                    return
                self._queues.wait_for_work(self.owned, self._halt)
                continue
            shard, items, ts, n = got
            self._cursor = self.owned.index(shard) + 1
            if self.sink:
                self._queues.mark_applied(shard, n, ok=False)
                continue
            with self._window:
                while (
                    len(self._inflight) >= MAX_INFLIGHT_FRAMES
                    and not self.sink
                    and not self.dead
                    and not self._halt.is_set()
                ):
                    self._window.wait(0.05)
                if self.sink:
                    self._queues.mark_applied(shard, n, ok=False)
                    continue
                self._inflight.append((shard, n))
            frame = {"type": "ingest", "shard": shard, "items": items}
            if ts is not None:
                frame["ts"] = ts
            try:
                with span("serving.ipc_send", shard=shard, items=n) as sp:
                    ref = self._trace_ref(sp)
                    if ref is not None:
                        frame["trace"] = ref
                    self.conn.send(frame)
                self._m_coalesce.observe(n)
            except (OSError, ValueError, BrokenPipeError) as exc:
                # The receiver owns death bookkeeping; just unwind this
                # frame so it isn't double-failed there.  These items
                # were accepted and are now lost — that must latch.
                with self._window:
                    try:
                        self._inflight.remove((shard, n))
                    except ValueError:
                        pass
                self._queues.mark_applied(shard, n, ok=False)
                if self._on_error is not None:
                    self._on_error(
                        WorkerDied(
                            f"send to shard worker {self.index} failed "
                            f"({n} accepted items lost): {exc!r}"
                        ),
                        shard,
                    )

    # -- receiver: acks + control replies -----------------------------------
    def _receive(self) -> None:
        while not self._halt.is_set():
            try:
                if self.conn.poll(0.05):
                    frame = self.conn.recv()
                elif self.proc is not None and not self.proc.is_alive():
                    if not self._on_death():
                        return
                    continue
                else:
                    continue
            except (EOFError, OSError):
                if self._halt.is_set():
                    return
                if not self._on_death():
                    return
                continue
            kind = frame.get("type")
            if kind == "ack":
                shard = int(frame["shard"])
                n = int(frame["n"])
                ok = bool(frame.get("ok"))
                with self._window:
                    try:
                        self._inflight.remove((shard, n))
                    except ValueError:
                        pass
                    self._window.notify_all()
                self.last_ack_at = time.monotonic()
                self._queues.mark_applied(shard, n, ok=ok)
                if ok:
                    self.acked_epoch[shard] = int(frame["epoch"])
                    # With telemetry on, the worker observes its own
                    # apply histogram (shipped back with a worker
                    # label); observing the ack here too would count
                    # every apply twice in the merged view.
                    if not self.telemetry:
                        self._m_apply_s[shard].observe(float(frame["seconds"]))
                elif self._on_error is not None and shard >= 0:
                    self._on_error(
                        RuntimeError(
                            f"worker {self.index} apply failed: "
                            f"{frame.get('error')}"
                        ),
                        shard,
                    )
            else:  # control reply (state/compacted/pong/bye)
                self._reply = frame
                self._reply_evt.set()

    def _on_death(self) -> bool:
        """Handle a dead worker process.  Returns True when the link was
        restarted losslessly and the receiver should keep going."""
        exitcode = self.proc.exitcode if self.proc is not None else None
        self.dead = True
        with self._window:
            stranded = list(self._inflight)
            self._inflight.clear()
            self._window.notify_all()
        # A control waiter must not hang on a reply that will never come.
        if not self._reply_evt.is_set():
            self._reply = {"type": "worker_died", "exitcode": exitcode}
            self._reply_evt.set()
        lossless = not stranded and all(
            self.acked_epoch[s] == self.pulled_epoch[s] for s in self.owned
        )
        for shard, n in stranded:
            self._queues.mark_applied(shard, n, ok=False)
        if lossless and not self._halt.is_set():
            try:
                self.spawn()
            except Exception as exc:
                self._latch_death(exitcode, f"restart failed: {exc!r}")
                return False
            self.restarts += 1
            with self._window:
                self._window.notify_all()
            return True
        if not self._halt.is_set():
            self._latch_death(
                exitcode,
                f"{sum(n for __, n in stranded)} in-flight items lost"
                if stranded
                else "unpulled applied state lost",
            )
        return False

    def _latch_death(self, exitcode, why: str) -> None:
        self.sink = True
        with self._window:
            self._window.notify_all()
        if self._on_error is not None:
            self._on_error(
                WorkerDied(
                    f"shard worker {self.index} died "
                    f"(exitcode {exitcode}): {why}"
                ),
                self.owned[0] if self.owned else -1,
            )

    # -- control ------------------------------------------------------------
    def control(self, frame: dict, timeout: float = CONTROL_TIMEOUT) -> dict:
        """Send one control frame and wait for its reply (the worker
        answers in order, after any queued ingest frames)."""
        if self.dead and not self.sink:
            # Between death detection and restart; give the receiver a
            # beat rather than failing a probably-recoverable call.
            time.sleep(0.05)
        if self.sink or self.conn is None:
            raise WorkerDied(f"shard worker {self.index} is down")
        with self._control_lock:
            self._reply = None
            self._reply_evt.clear()
            self.conn.send(frame)
            if not self._reply_evt.wait(timeout):
                raise WorkerDied(
                    f"shard worker {self.index} unresponsive to "
                    f"{frame.get('type')!r} for {timeout:g}s"
                )
            reply = self._reply
        if reply.get("type") == "worker_died":
            raise WorkerDied(
                f"shard worker {self.index} died mid-"
                f"{frame.get('type')} (exitcode {reply.get('exitcode')})"
            )
        return reply

    # -- teardown -----------------------------------------------------------
    def stop(self, timeout: float = 5.0) -> None:
        self._halt.set()
        with self._window:
            self._window.notify_all()
        if self._pump_t is not None:
            self._pump_t.join(timeout)
        if self.conn is not None and not self.sink:
            try:
                self.conn.send({"type": "stop"})
            except (OSError, ValueError, BrokenPipeError):
                pass
        if self._recv_t is not None:
            self._recv_t.join(timeout)
        if self.proc is not None:
            self.proc.join(timeout)
            if self.proc.is_alive():
                self.proc.terminate()
                self.proc.join(timeout)
        if self.conn is not None:
            self.conn.close()

    def record_clock(self, reply_now_ns: int, t0_ns: int, t1_ns: int) -> None:
        """Fold one control round trip into this generation's clock
        estimate: the worker's ``now_ns`` was read somewhere inside
        [t0, t1] on the parent clock, so the midpoint gives
        ``offset = worker_now - (t0 + t1) / 2`` with error ≤ rtt/2 —
        keep the minimum-RTT sample (tightest bound) per generation."""
        rtt = int(t1_ns) - int(t0_ns)
        offset = int(reply_now_ns) - (int(t0_ns) + int(t1_ns)) // 2
        best = self.clock_by_gen.get(self.generation)
        if best is None or rtt < best[0]:
            self.clock_by_gen[self.generation] = (rtt, offset)

    def status(self) -> dict:
        with self._window:
            inflight = sum(n for __, n in self._inflight)
            frames = len(self._inflight)
        alive = self.proc is not None and self.proc.is_alive()
        stalled = (
            alive
            and frames > 0
            and time.monotonic() - self.last_ack_at > STALL_AFTER_SECONDS
        )
        return {
            "worker": self.index,
            "pid": self.proc.pid if self.proc is not None else None,
            "alive": alive,
            "stalled": stalled,
            "shards": list(self.owned),
            "inflight_items": inflight,
            "inflight_frames": frames,
            "restarts": self.restarts,
            "acked_epochs": dict(self.acked_epoch),
            "pulled_epochs": dict(self.pulled_epoch),
            "last_ack_age_s": time.monotonic() - self.last_ack_at,
        }


class ProcessPlane:
    """All the worker links plus the fold collector that lands their
    snapshot deltas back into the front door's mirror engine."""

    def __init__(
        self,
        engine,
        queues,
        shard_locks: list[threading.Lock],
        *,
        workers: int,
        max_batch: int,
        on_error=None,
        metrics=None,
        start_method: str | None = None,
        telemetry: bool = True,
        worker_metrics=None,
    ) -> None:
        if getattr(engine, "_config", None) is None:
            raise ValueError(
                "process-mode serving needs a config-built engine "
                "(workers bootstrap shard replicas from its registry config); "
                "pass config= instead of a prebuilt engine, or use "
                "workers_mode='thread'"
            )
        ctx = (
            multiprocessing.get_context(start_method)
            if start_method
            else multiprocessing.get_context()
        )
        self._engine = engine
        self._locks = shard_locks
        self._queues = queues
        # Telemetry rides the metrics plane: without a parent-side mirror
        # registry to merge into, workers boot dark exactly as before.
        self.telemetry_enabled = bool(telemetry) and worker_metrics is not None
        self._merger = (
            WorkerTelemetry(worker_metrics) if self.telemetry_enabled else None
        )
        self.links = [
            WorkerLink(
                w,
                engine,
                queues,
                shard_locks,
                [s for s in range(engine.shards) if s % workers == w],
                max_batch=max_batch,
                ctx=ctx,
                on_error=on_error,
                metrics=metrics,
                telemetry=self.telemetry_enabled,
            )
            for w in range(workers)
        ]
        registry = current_registry() if metrics is None else metrics
        depth = registry.gauge(
            "repro_serving_worker_queue_depth",
            CATALOG_HELP["repro_serving_worker_queue_depth"],
            labels=("worker",),
        )
        ships = registry.counter(
            "repro_worker_telemetry_ships_total",
            CATALOG_HELP["repro_worker_telemetry_ships_total"],
            labels=("worker",),
        )
        spans_total = registry.counter(
            "repro_worker_telemetry_spans_total",
            CATALOG_HELP["repro_worker_telemetry_spans_total"],
            labels=("worker",),
        )
        merge_errors = registry.counter(
            "repro_worker_telemetry_merge_errors_total",
            CATALOG_HELP["repro_worker_telemetry_merge_errors_total"],
            labels=("worker",),
        )
        age = registry.gauge(
            "repro_worker_telemetry_age_seconds",
            CATALOG_HELP["repro_worker_telemetry_age_seconds"],
            labels=("worker",),
        )
        clock_offset = registry.gauge(
            "repro_worker_telemetry_clock_offset_seconds",
            CATALOG_HELP["repro_worker_telemetry_clock_offset_seconds"],
            labels=("worker",),
        )
        self._m_merge_errors = {}
        self._m_clock_offset = {}
        for link in self.links:
            w = str(link.index)
            owned = list(link.owned)
            depth.labels(worker=w).set_function(
                lambda owned=owned: float(
                    sum(d for s, d in enumerate(self._queues.depths()) if s in owned)
                )
            )
            ships.labels(worker=w).add_function(
                lambda link=link: link.telemetry_ships
            )
            spans_total.labels(worker=w).add_function(
                lambda link=link: link.telemetry_spans
            )
            self._m_merge_errors[link.index] = merge_errors.labels(worker=w)
            self._m_clock_offset[link.index] = clock_offset.labels(worker=w)
            age.labels(worker=w).set_function(
                lambda link=link: (
                    -1.0
                    if link.last_telemetry_at is None
                    else time.monotonic() - link.last_telemetry_at
                )
            )

    def start(self) -> None:
        """Spawn every worker process *first*, then their pump/receiver
        threads — forking after service threads exist risks inheriting a
        mid-held lock into the child.  With telemetry on, one initial
        pull seeds the per-generation clock offsets and the merged view
        before any traffic."""
        for link in self.links:
            link.spawn()
        for link in self.links:
            link.start_threads()
        self.pull_telemetry()

    # -- fold collector ------------------------------------------------------
    def collect(self, timeout: float = CONTROL_TIMEOUT) -> int:
        """Pull per-shard snapshot deltas from every worker and restore
        them into the mirror engine under the shard write locks; returns
        the number of shards that moved.  The worker answers a ``pull``
        after every ingest frame queued before it, so a flush + collect
        mirrors everything acked so far.  Telemetry piggybacks on the
        reply, so the collector cadence is also the shipping cadence."""
        moved = 0
        for link in self.links:
            frame = {"type": "pull", "epochs": _epochs_tree(link.pulled_epoch)}
            with span("serving.collect", worker=link.index) as sp:
                ref = link._trace_ref(sp)
                if ref is not None:
                    frame["trace"] = ref
                t0 = time.perf_counter_ns()
                reply = link.control(frame, timeout)
                t1 = time.perf_counter_ns()
            self._ingest_telemetry(link, reply.get("telemetry"), t0, t1)
            for key, entry in (reply.get("shards") or {}).items():
                shard = int(key)
                with self._locks[shard]:
                    self._engine.restore_shard(shard, entry["state"])
                link.pulled_epoch[shard] = int(entry["epoch"])
                link.acked_epoch[shard] = max(
                    link.acked_epoch[shard], int(entry["epoch"])
                )
                moved += 1
        return moved

    def compact(self, now=None, timeout: float = CONTROL_TIMEOUT) -> int:
        """Run expiry compaction inside every worker (the authoritative
        state); the mirror picks up compacted snapshots on the next
        collect.  Returns total freed bytes reported."""
        freed = 0
        for link in self.links:
            frame = {"type": "compact"}
            if now is not None:
                frame["now"] = float(now)
            with span("serving.compact_workers", worker=link.index) as sp:
                ref = link._trace_ref(sp)
                if ref is not None:
                    frame["trace"] = ref
                reply = link.control(frame, timeout)
            freed += int(reply.get("freed", 0))
            for key, epoch in (reply.get("epochs") or {}).items():
                link.acked_epoch[int(key)] = max(
                    link.acked_epoch[int(key)], int(epoch)
                )
        return freed

    # -- telemetry -----------------------------------------------------------
    def _ingest_telemetry(self, link, payload, t0_ns: int, t1_ns: int) -> None:
        """Merge one worker telemetry payload: clock sample, metric
        snapshot (with generation base accounting), span batch.  A
        malformed snapshot counts a merge error instead of killing the
        caller — telemetry must never take down the fold collector."""
        if payload is None or self._merger is None:
            return
        if "now_ns" in payload:
            link.record_clock(int(payload["now_ns"]), t0_ns, t1_ns)
            best = link.clock_by_gen.get(link.generation)
            if best is not None:
                self._m_clock_offset[link.index].set(best[1] / 1e9)
        metrics_tree = payload.get("metrics")
        if metrics_tree is not None:
            try:
                self._merger.update(str(link.index), link.generation, metrics_tree)
            except (ValueError, KeyError, TypeError):
                self._m_merge_errors[link.index].inc()
        spans_blob = payload.get("spans")
        span_count = 0
        if spans_blob:
            pid = payload.get("pid")
            for line in bytes(spans_blob).decode("utf-8").splitlines():
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except ValueError:
                    continue
                record["pid"] = pid
                record["generation"] = link.generation
                record["worker"] = link.index
                link.spans.append(record)
                span_count += 1
        link.telemetry_ships += 1
        link.telemetry_spans += span_count
        link.last_telemetry_at = time.monotonic()

    def pull_telemetry(self, timeout: float = 5.0) -> list[int]:
        """Request a telemetry payload from every live worker (dedicated
        ``telemetry`` frames, independent of the collector cadence);
        returns the indices of workers that failed to answer.  Safe to
        call from exposition renders and health probes — a down or
        unresponsive worker is reported, never raised."""
        if not self.telemetry_enabled:
            return []
        failed = []
        for link in self.links:
            try:
                t0 = time.perf_counter_ns()
                reply = link.control({"type": "telemetry"}, timeout)
                t1 = time.perf_counter_ns()
            except WorkerDied:
                failed.append(link.index)
                continue
            self._ingest_telemetry(link, reply, t0, t1)
        return failed

    def telemetry_status(self) -> list[dict]:
        """Per-worker shipping/clock state for ``stats()`` and probes."""
        out = []
        for link in self.links:
            clock = link.clock_by_gen.get(link.generation)
            out.append(
                {
                    "worker": link.index,
                    "enabled": self.telemetry_enabled,
                    "generation": link.generation,
                    "ships": link.telemetry_ships,
                    "spans": link.telemetry_spans,
                    "retained_spans": len(link.spans),
                    "last_age_s": (
                        None
                        if link.last_telemetry_at is None
                        else time.monotonic() - link.last_telemetry_at
                    ),
                    "clock_rtt_ns": None if clock is None else clock[0],
                    "clock_offset_ns": None if clock is None else clock[1],
                }
            )
        return out

    def telemetry_info(self) -> list[dict]:
        """Everything the flight recorder / ``--per-worker`` view wants:
        shipping status plus the raw (unmerged) metric snapshot and the
        retained span records, per worker."""
        out = []
        for status, link in zip(self.telemetry_status(), self.links):
            entry = dict(status)
            entry["pid"] = link.proc.pid if link.proc is not None else None
            entry["metrics"] = (
                self._merger.latest(link.index) if self._merger else None
            )
            entry["trace"] = list(link.spans)
            out.append(entry)
        return out

    def trace_groups(self) -> list[dict]:
        """Worker span records grouped per (worker, pid) with the
        generation's clock offset resolved — the
        :func:`repro.obs.trace.export_chrome_merged` input shape."""
        groups = []
        for link in self.links:
            by_pid: dict[int, list[dict]] = {}
            for record in list(link.spans):
                by_pid.setdefault(record.get("pid") or 0, []).append(record)
            for pid, records in by_pid.items():
                gen = records[-1].get("generation", link.generation)
                clock = link.clock_by_gen.get(gen)
                groups.append(
                    {
                        "name": f"worker-{link.index}",
                        "pid": pid,
                        "offset_ns": 0 if clock is None else clock[1],
                        "records": records,
                    }
                )
        return groups

    def status(self) -> list[dict]:
        return [link.status() for link in self.links]

    def stop(self, timeout: float = 5.0) -> None:
        for link in self.links:
            link.stop(timeout)
