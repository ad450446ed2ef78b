"""Lightweight spans: ring-buffered structured events + JSONL export.

A span times one named operation and records where it ended up::

    from repro.obs import span

    with span("serving.compaction") as sp:
        ...
        sp.set(freed=freed)            # attach attrs discovered mid-span

On exit the span appends one :class:`SpanEvent` — name, start, wall
duration, outcome (``"ok"`` or the exception type's name; exceptions
propagate untouched), and its attributes — to the ambient tracer's ring
buffer (a bounded ``deque``: old events fall off, recording never
blocks and never grows).

The ambient tracer is **disabled by default**: ``span(...)`` then
returns a shared no-op context manager, so permanently-instrumented
hot paths cost one flag check plus a kwargs dict.  Enable tracing by
installing a live :class:`Tracer` (:func:`set_default_tracer`) or, in
tests, with the :class:`TraceRecorder` harness::

    with TraceRecorder() as rec:
        service.submit(batch)
    assert rec.names().count("serving.apply") >= 1

Export for offline analysis is JSON-lines —
:meth:`Tracer.export_jsonl` writes one JSON object per event — or the
Chrome trace-event format (:meth:`Tracer.export_chrome`), loadable in
Perfetto / ``chrome://tracing``.  ``python -m repro.obs.trace`` converts
a JSONL export to either a summary table or a Chrome trace
(``--chrome out.json``).
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from typing import NamedTuple

__all__ = [
    "SpanEvent",
    "TraceRecorder",
    "Tracer",
    "current_tracer",
    "export_chrome_merged",
    "set_default_tracer",
    "span",
]


class SpanEvent(NamedTuple):
    """One finished span."""

    name: str
    start_ns: int  # perf_counter_ns at entry (monotonic ordering key)
    duration_ns: int
    outcome: str  # "ok" or the raising exception type's name
    attrs: dict
    thread: str = ""  # recording thread's name (Chrome trace lane)

    def to_json(self) -> str:
        return json.dumps(
            {
                "name": self.name,
                "start_ns": self.start_ns,
                "duration_us": self.duration_ns / 1e3,
                "outcome": self.outcome,
                "attrs": self.attrs,
                "thread": self.thread,
            },
            sort_keys=True,
        )


class _NoopSpan:
    """The shared do-nothing span a disabled tracer returns."""

    __slots__ = ()

    def set(self, **attrs) -> None:
        pass

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc_info) -> bool:
        return False


NOOP_SPAN = _NoopSpan()


class _Span:
    __slots__ = ("_tracer", "name", "attrs", "_t0")

    def __init__(self, tracer: "Tracer", name: str, attrs: dict) -> None:
        self._tracer = tracer
        self.name = name
        self.attrs = attrs

    def set(self, **attrs) -> None:
        """Attach attributes discovered mid-span (e.g. bytes
        reclaimed, the generation published)."""
        self.attrs.update(attrs)

    def __enter__(self) -> "_Span":
        self._t0 = time.perf_counter_ns()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        duration = time.perf_counter_ns() - self._t0
        outcome = "ok" if exc_type is None else exc_type.__name__
        self._tracer._record(
            SpanEvent(
                self.name,
                self._t0,
                duration,
                outcome,
                self.attrs,
                threading.current_thread().name,
            )
        )
        return False  # never swallow


class Tracer:
    """A ring buffer of :class:`SpanEvent`\\ s.

    ``capacity`` bounds retained events (oldest drop first);
    ``enabled=False`` makes :meth:`span` return the shared no-op span.
    ``deque.append`` is atomic under CPython, so recording takes no
    lock; the snapshot/clear/export paths do.
    """

    def __init__(self, capacity: int = 8192, enabled: bool = True) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be ≥ 1, got {capacity}")
        self.enabled = bool(enabled)
        self.capacity = capacity
        self._events: deque[SpanEvent] = deque(maxlen=capacity)
        self._lock = threading.Lock()
        self.dropped_hint = 0  # events recorded beyond capacity (approx)
        self._recorded = 0
        self._dropped_counter = None

    def bind_dropped_counter(self, counter) -> None:
        """Mirror ring-buffer drops into a real metric (the catalog's
        ``repro_trace_dropped_total``): each event recorded beyond
        capacity evicts exactly one older event, so each is one drop."""
        self._dropped_counter = counter

    def span(self, name: str, **attrs):
        """A context manager timing one operation (no-op when the tracer
        is disabled)."""
        if not self.enabled:
            return NOOP_SPAN
        return _Span(self, name, attrs)

    def _record(self, event: SpanEvent) -> None:
        self._recorded += 1
        self._events.append(event)
        if self._recorded > self.capacity:
            self.dropped_hint = self._recorded - self.capacity
            if self._dropped_counter is not None:
                self._dropped_counter.inc()

    def events(self) -> list[SpanEvent]:
        """A snapshot of the retained events, oldest first."""
        with self._lock:
            return list(self._events)

    def clear(self) -> None:
        with self._lock:
            self._events.clear()
            self._recorded = 0
            self.dropped_hint = 0

    def export_jsonl(self, path_or_file) -> int:
        """Write the retained events as JSON lines (one object per
        event) to a path or writable file object; returns the number of
        events written."""
        events = self.events()
        payload = "".join(event.to_json() + "\n" for event in events)
        if hasattr(path_or_file, "write"):
            path_or_file.write(payload)
        else:
            with open(path_or_file, "w", encoding="utf-8") as fh:
                fh.write(payload)
        return len(events)

    def export_chrome(self, path_or_file) -> int:
        """Write the retained events as a Chrome trace-event JSON file
        (loadable in Perfetto / ``chrome://tracing``); returns the
        number of span events written."""
        records = [json.loads(event.to_json()) for event in self.events()]
        payload = json.dumps(_chrome_payload(records))
        if hasattr(path_or_file, "write"):
            path_or_file.write(payload)
        else:
            with open(path_or_file, "w", encoding="utf-8") as fh:
                fh.write(payload)
        return len(records)


# -- the ambient tracer ------------------------------------------------------

_DEFAULT = Tracer(enabled=False)


def current_tracer() -> Tracer:
    return _DEFAULT


def set_default_tracer(tracer: Tracer) -> Tracer:
    """Install the ambient tracer every module-level :func:`span` call
    reports to; returns the previous one."""
    global _DEFAULT
    old, _DEFAULT = _DEFAULT, tracer
    return old


def span(name: str, **attrs):
    """A span on the ambient tracer (a shared no-op while tracing is
    disabled — the default)."""
    tracer = _DEFAULT
    if not tracer.enabled:
        return NOOP_SPAN
    return _Span(tracer, name, attrs)


class TraceRecorder(Tracer):
    """The test harness: a live tracer that installs itself as the
    ambient tracer for a ``with`` scope and offers lookup helpers.

    ::

        with TraceRecorder() as rec:
            engine.sample()
        assert rec.spans("engine.fold")[0].attrs["regime"] == "scratch"
    """

    def __init__(self, capacity: int = 65536) -> None:
        super().__init__(capacity=capacity, enabled=True)
        self._previous: Tracer | None = None

    def __enter__(self) -> "TraceRecorder":
        self._previous = set_default_tracer(self)
        return self

    def __exit__(self, *exc_info) -> None:
        set_default_tracer(self._previous)
        self._previous = None

    def names(self) -> list[str]:
        return [event.name for event in self.events()]

    def spans(self, name: str) -> list[SpanEvent]:
        return [event for event in self.events() if event.name == name]

    def durations_us(self, name: str) -> list[float]:
        return [event.duration_ns / 1e3 for event in self.spans(name)]

    def outcomes(self, name: str) -> list[str]:
        return [event.outcome for event in self.spans(name)]


# -- Chrome trace-event conversion + CLI -------------------------------------


def _chrome_events(records, *, pid=0, offset_ns=0, tid_base=0):
    """JSONL-export records → (span events, thread-metadata events) for
    one process track.  ``offset_ns`` is subtracted from every
    ``start_ns`` — the worker-minus-parent clock offset — so spans from
    different perf-counter origins land on one timeline."""
    tids: dict[str, int] = {}
    span_events = []
    for rec in records:
        thread = rec.get("thread") or "main"
        tid = tids.setdefault(thread, tid_base + len(tids))
        args = dict(rec.get("attrs") or {})
        args["outcome"] = rec.get("outcome", "ok")
        span_events.append(
            {
                "name": rec["name"],
                "ph": "X",
                "ts": (rec["start_ns"] - offset_ns) / 1e3,
                "dur": rec.get("duration_us", 0.0),
                "pid": pid,
                "tid": tid,
                "cat": "repro",
                "args": args,
            }
        )
    meta_events = [
        {
            "name": "thread_name",
            "ph": "M",
            "pid": pid,
            "tid": tid,
            "args": {"name": thread},
        }
        for thread, tid in tids.items()
    ]
    return span_events, meta_events


def _chrome_payload(records: list[dict], *, pid: int = 0, offset_ns: int = 0) -> dict:
    """JSONL-export records → a Chrome trace-event object.

    Complete events (``ph="X"``) carry microsecond start/duration; one
    thread lane per recording thread, named via ``thread_name``
    metadata events.
    """
    span_events, meta_events = _chrome_events(records, pid=pid, offset_ns=offset_ns)
    return {"traceEvents": span_events + meta_events, "displayTimeUnit": "ms"}


def export_chrome_merged(path_or_file, groups) -> int:
    """Merge span records from several processes into one Chrome trace.

    ``groups`` is a list of ``{"name", "pid", "offset_ns", "records"}``
    dicts — one per process track.  ``records`` are JSONL-export record
    dicts (:meth:`SpanEvent.to_json` shape); each group's ``offset_ns``
    (its perf-counter clock minus the reference clock, estimated from
    ping-RTT midpoints by the process plane) is subtracted so all
    tracks share one timeline.  Emits ``process_name`` metadata per
    group and sorts span events by timestamp, so per-track timestamps
    are monotone.  Returns the number of span events written.
    """
    span_events: list[dict] = []
    meta_events: list[dict] = []
    for group in groups:
        pid = int(group.get("pid") or 0)
        spans_, metas = _chrome_events(
            group.get("records") or [],
            pid=pid,
            offset_ns=int(group.get("offset_ns") or 0),
        )
        span_events.extend(spans_)
        meta_events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {"name": str(group.get("name") or f"pid{pid}")},
            }
        )
        meta_events.extend(metas)
    span_events.sort(key=lambda e: e["ts"])
    payload = json.dumps(
        {"traceEvents": span_events + meta_events, "displayTimeUnit": "ms"}
    )
    if hasattr(path_or_file, "write"):
        path_or_file.write(payload)
    else:
        with open(path_or_file, "w", encoding="utf-8") as fh:
            fh.write(payload)
    return len(span_events)


def main(argv=None) -> int:
    """``python -m repro.obs.trace``: inspect or convert a JSONL trace
    export.  Without ``--chrome`` prints a per-span summary table; with
    ``--chrome OUT`` writes a Perfetto-loadable Chrome trace."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.trace",
        description="Summarize or convert a repro trace JSONL export.",
    )
    parser.add_argument("input", help="JSONL file written by export_jsonl")
    parser.add_argument(
        "--chrome",
        metavar="OUT",
        help="write a Chrome trace-event JSON file instead of a summary",
    )
    args = parser.parse_args(argv)
    records = []
    with open(args.input, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    if args.chrome:
        with open(args.chrome, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(_chrome_payload(records)))
        print(f"wrote {len(records)} events to {args.chrome}")
        return 0
    by_name: dict[str, list[float]] = {}
    errors: dict[str, int] = {}
    for rec in records:
        by_name.setdefault(rec["name"], []).append(rec.get("duration_us", 0.0))
        if rec.get("outcome", "ok") != "ok":
            errors[rec["name"]] = errors.get(rec["name"], 0) + 1
    print(f"{'span':<32} {'count':>8} {'total_ms':>10} {'mean_us':>10} {'errors':>7}")
    for name in sorted(by_name):
        durs = by_name[name]
        print(
            f"{name:<32} {len(durs):>8} {sum(durs) / 1e3:>10.2f} "
            f"{sum(durs) / len(durs):>10.1f} {errors.get(name, 0):>7}"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
