"""Cross-process telemetry plane — shipping, merging, tracing tests.

The contracts the telemetry plane must keep:

* **wire exactness** — a registry snapshot tree round-trips through the
  frame codec bitwise, and ``apply_delta(base, snapshot_delta(base,
  latest))`` reproduces ``latest`` exactly;
* **restart monotonicity** — per-worker-generation base accounting
  means an idle-kill respawn never steps an exposed counter backwards
  and never double-counts (re-shipping a snapshot is idempotent);
* **unified exposition** — process-mode serving exposes the
  worker-side ingest-kernel counters and apply-latency histograms under
  ``worker`` labels, one header per family, promcheck-clean;
* **merged tracing** — the parent+worker Chrome trace carries distinct
  real pids with per-track monotone timestamps and clock-aligned spans.
"""

import io
import json
import math
import time

import numpy as np
import pytest

from repro.core.ingest_kernel import kernel_impl
from repro.obs.metrics import MetricsRegistry
from repro.obs.promcheck import check_text
from repro.obs.telemetry import (
    SNAPSHOT_VERSION,
    WorkerTelemetry,
    apply_delta,
    render_snapshot_prometheus,
    snapshot_delta,
    snapshot_registry,
)
from repro.obs.trace import TraceRecorder
from repro.serving import SamplerService
from repro.serving.transport import decode_frame, encode_frame
from repro.streams.generators import zipf_stream

G_CONFIG = {"kind": "g", "measure": {"name": "huber"}, "instances": 16}


def make_items(m: int, seed: int = 3, n: int = 1 << 10) -> np.ndarray:
    return np.asarray(zipf_stream(n, m, alpha=1.2, seed=seed).items)


def _wait_until(pred, timeout: float = 10.0, interval: float = 0.02) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if pred():
            return True
        time.sleep(interval)
    return pred()


def _sample_registry() -> MetricsRegistry:
    reg = MetricsRegistry()
    c = reg.counter("demo_events_total", "events", labels=("kind",))
    c.labels(kind="a").add(5)
    c.labels(kind="b").add(2)
    g = reg.gauge("demo_depth", "depth")
    g.set(3.5)
    h = reg.histogram("demo_seconds", "latency", labels=("op",))
    for v in (0.001, 0.004, 0.2):
        h.labels(op="x").observe(v)
    return reg


def _counter_samples(text: str, name: str) -> dict[str, float]:
    out = {}
    for line in text.splitlines():
        if line.startswith(name + "{") or line.startswith(name + " "):
            key, value = line.rsplit(" ", 1)
            out[key] = float(value)
    return out


# ---------------------------------------------------------------------------
# Snapshot trees and the frame codec
# ---------------------------------------------------------------------------
class TestSnapshotTree:
    def test_snapshot_round_trips_frame_codec_bitwise(self):
        tree = snapshot_registry(_sample_registry())
        frame = {"type": "telemetry", "metrics": tree}
        buf = encode_frame(frame)
        back = decode_frame(buf)
        assert back["metrics"] == tree
        # Re-encoding the decoded frame is byte-identical: the tree is
        # pure JSON, nothing lossy rides the wire.
        assert encode_frame(back) == buf

    def test_snapshot_layout(self):
        tree = snapshot_registry(_sample_registry())
        assert tree["version"] == SNAPSHOT_VERSION
        fams = tree["families"]
        counter = fams["demo_events_total"]
        assert counter["type"] == "counter"
        assert counter["children"][json.dumps(["a"])] == {"value": 5.0}
        hist = fams["demo_seconds"]
        child = hist["children"][json.dumps(["x"])]
        assert child["count"] == 3
        assert len(child["counts"]) == len(hist["bounds"]) + 1
        assert sum(child["counts"]) == 3
        assert math.isclose(child["sum"], 0.205)

    def test_delta_round_trip_is_exact(self):
        reg = _sample_registry()
        base = snapshot_registry(reg)
        reg.counter("demo_events_total", "events", labels=("kind",)).labels(
            kind="a"
        ).add(7)
        reg.counter("demo_events_total", "events", labels=("kind",)).labels(
            kind="c"
        ).inc()
        reg.histogram("demo_seconds", "latency", labels=("op",)).labels(
            op="x"
        ).observe(0.05)
        reg.gauge("demo_depth", "depth").set(-1.25)
        latest = snapshot_registry(reg)
        delta = snapshot_delta(base, latest)
        assert delta["delta"] is True
        # Unchanged children are dropped from the delta.
        d_counter = delta["families"]["demo_events_total"]["children"]
        assert json.dumps(["b"]) not in d_counter
        rebuilt = apply_delta(base, delta)
        assert rebuilt == latest

    def test_render_snapshot_prometheus(self):
        tree = snapshot_registry(_sample_registry())
        text = render_snapshot_prometheus(tree)
        assert 'demo_events_total{kind="a"} 5' in text
        assert "demo_depth 3.5" in text
        assert 'demo_seconds_count{op="x"} 3' in text
        assert check_text(text) == []


# ---------------------------------------------------------------------------
# WorkerTelemetry generation base accounting
# ---------------------------------------------------------------------------
class TestWorkerTelemetry:
    @staticmethod
    def _tree(value: float) -> dict:
        reg = MetricsRegistry()
        reg.counter("demo_events_total", "events", labels=("kind",)).labels(
            kind="a"
        ).add(value)
        return snapshot_registry(reg)

    def test_within_generation_is_cumulative_not_additive(self):
        mirror = MetricsRegistry()
        merger = WorkerTelemetry(mirror)
        merger.update("0", 0, self._tree(5))
        merger.update("0", 0, self._tree(8))
        samples = _counter_samples(
            mirror.render_prometheus(), "demo_events_total"
        )
        assert samples == {
            'demo_events_total{kind="a",worker="0"}': 8.0
        }

    def test_generation_bump_folds_base(self):
        mirror = MetricsRegistry()
        merger = WorkerTelemetry(mirror)
        merger.update("0", 0, self._tree(5))
        merger.update("0", 0, self._tree(8))
        # Respawn: generation bumps, fresh process restarts from zero.
        merger.update("0", 1, self._tree(2))
        samples = _counter_samples(
            mirror.render_prometheus(), "demo_events_total"
        )
        assert samples == {
            'demo_events_total{kind="a",worker="0"}': 10.0
        }
        # Re-shipping the same cumulative snapshot is idempotent.
        merger.update("0", 1, self._tree(2))
        samples = _counter_samples(
            mirror.render_prometheus(), "demo_events_total"
        )
        assert samples['demo_events_total{kind="a",worker="0"}'] == 10.0

    def test_latest_is_the_unmerged_current_generation(self):
        merger = WorkerTelemetry(MetricsRegistry())
        merger.update("1", 0, self._tree(5))
        merger.update("1", 1, self._tree(2))
        latest = merger.latest("1")
        assert latest["generation"] == 1
        child = latest["families"]["demo_events_total"]["children"]
        assert child[json.dumps(["a"])] == {"value": 2.0}
        assert merger.latest("9") is None
        assert merger.workers() == ["1"]

    def test_malformed_tree_raises(self):
        merger = WorkerTelemetry(MetricsRegistry())
        with pytest.raises(ValueError, match="unsupported telemetry snapshot"):
            merger.update("0", 0, {"version": 99, "families": {}})


# ---------------------------------------------------------------------------
# merged_percentiles
# ---------------------------------------------------------------------------
class TestMergedPercentiles:
    def test_merges_across_registries(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        ha = a.histogram("lat_seconds", "lat", labels=("shard",))
        hb = b.histogram("lat_seconds", "lat", labels=("shard",))
        for __ in range(90):
            ha.labels(shard="0").observe(0.001)
        for __ in range(10):
            hb.labels(shard="1").observe(1.0)
        merged = a.get("lat_seconds").merged_percentiles(b.get("lat_seconds"))
        assert merged["count"] == 100
        assert merged["p50"] <= 0.01
        assert merged["p99"] >= 0.5
        solo = a.get("lat_seconds").merged_percentiles(None)
        assert solo["count"] == 90

    def test_bounds_mismatch_raises(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.histogram("lat_seconds", "lat", buckets=(0.1, 1.0)).observe(0.5)
        b.histogram("lat_seconds", "lat", buckets=(0.2, 2.0)).observe(0.5)
        with pytest.raises(ValueError, match="bucket ladder"):
            a.get("lat_seconds").merged_percentiles(b.get("lat_seconds"))


# ---------------------------------------------------------------------------
# Process-mode unified exposition
# ---------------------------------------------------------------------------
class TestProcessExposition:
    def test_worker_kernel_counters_in_exposition(self):
        svc = SamplerService(
            G_CONFIG, shards=4, seed=0, ingest_workers=2,
            workers_mode="process",
        )
        with svc:
            svc.submit(make_items(1 << 12))
            svc.flush()
            svc.refresh()
            text = svc.metrics.render_prometheus()
            kernel_stats = svc.stats()["ingest"]["kernel"]
        heap = _counter_samples(text, "repro_ingest_heap_events_total")
        worker_labeled = {
            k: v for k, v in heap.items() if 'worker="' in k
        }
        assert worker_labeled, "no worker-labeled kernel counters shipped"
        assert sum(worker_labeled.values()) > 0
        # Each worker ships which ingest loop it runs; stats() reads it.
        impl = kernel_impl()
        for worker in ("0", "1"):
            assert (
                f'repro_ingest_kernel_info{{impl="{impl}",worker="{worker}"}} 1'
                in text
            )
        assert kernel_stats == {"impl": impl, "workers": {"0": impl, "1": impl}}
        # Worker-side apply-latency histograms: same family, worker label.
        assert 'repro_serving_ingest_apply_seconds_count{shard="0",worker="0"' \
            in text or any(
            line.startswith("repro_serving_ingest_apply_seconds_count{")
            and 'worker="' in line
            for line in text.splitlines()
        )
        # Both pipe ends metered, distinguishable by the worker label.
        frames = _counter_samples(text, "repro_serving_ipc_frames_total")
        assert any('worker="' in k for k in frames)
        assert any('worker="' not in k for k in frames)
        # Telemetry plane's own accounting.
        ships = _counter_samples(text, "repro_worker_telemetry_ships_total")
        assert all(v >= 1 for v in ships.values()) and ships
        # One header per family, buckets cumulative — promcheck clean.
        assert check_text(text) == []

    def test_stats_and_probe_carry_telemetry(self):
        svc = SamplerService(
            G_CONFIG, shards=4, seed=0, ingest_workers=2,
            workers_mode="process",
        )
        with svc:
            svc.submit(make_items(1 << 11))
            svc.flush()
            svc.refresh()
            stats = svc.stats()
            status = stats["ingest"]["worker_telemetry"]
            assert [s["worker"] for s in status] == [0, 1]
            assert all(s["ships"] >= 1 for s in status)
            assert all(s["clock_offset_ns"] is not None for s in status)
            assert stats["latency"]["ingest_apply_seconds"]["count"] >= 1
            probe = svc.health().probe("workers")
            assert probe.status == "pass"
            assert "telemetry fresh" in probe.detail

    def test_telemetry_off_keeps_dark_mode(self):
        svc = SamplerService(
            G_CONFIG, shards=4, seed=0, ingest_workers=2,
            workers_mode="process", worker_telemetry=False,
        )
        with svc:
            svc.submit(make_items(1 << 11))
            svc.flush()
            svc.refresh()
            assert svc._plane.telemetry_enabled is False
            text = svc.metrics.render_prometheus()
        assert not any(
            'worker="' in line
            for line in text.splitlines()
            if line.startswith("repro_ingest_heap_events_total")
        )
        # The telemetry families still expose headers (CI --require).
        assert "# TYPE repro_worker_telemetry_ships_total counter" in text

    def test_respawn_never_decreases_counters(self):
        svc = SamplerService(
            G_CONFIG, shards=4, seed=0, ingest_workers=2,
            workers_mode="process",
        )
        with svc:
            items = make_items(1 << 12)
            svc.submit(items)
            svc.flush()
            svc.refresh()

            def totals() -> dict:
                text = svc.metrics.render_prometheus()
                out = {}
                for name in (
                    "repro_ingest_heap_events_total",
                    "repro_serving_ipc_frames_total",
                ):
                    for k, v in _counter_samples(text, name).items():
                        if 'worker="' in k:
                            out[k] = v
                return out

            before = totals()
            assert before
            link = svc._plane.links[0]
            link.proc.kill()
            assert _wait_until(lambda: link.restarts == 1)
            assert _wait_until(lambda: link.generation == 1)
            after_kill = totals()
            for key, value in before.items():
                assert after_kill.get(key, 0.0) >= value, key
            svc.submit(make_items(1 << 12, seed=7))
            svc.flush()
            svc.refresh()
            after_more = totals()
            for key, value in after_kill.items():
                assert after_more.get(key, 0.0) >= value, key
            heap = sum(
                v for k, v in after_more.items()
                if k.startswith("repro_ingest_heap_events_total")
            )
            heap_before = sum(
                v for k, v in before.items()
                if k.startswith("repro_ingest_heap_events_total")
            )
            assert heap > heap_before


# ---------------------------------------------------------------------------
# Merged Chrome trace
# ---------------------------------------------------------------------------
class TestMergedTrace:
    def test_export_chrome_merges_parent_and_workers(self):
        with TraceRecorder():
            svc = SamplerService(
                G_CONFIG, shards=4, seed=0, ingest_workers=2,
                workers_mode="process",
            )
            with svc:
                svc.submit(make_items(1 << 12))
                svc.flush()
                svc.refresh()
                buf = io.StringIO()
                n = svc.export_chrome(buf)
        assert n > 0
        payload = json.loads(buf.getvalue())
        events = payload["traceEvents"]
        spans = [e for e in events if e.get("ph") == "X"]
        pids = {e["pid"] for e in spans}
        assert len(pids) >= 2  # parent + at least one worker: real pids
        names = {e["name"] for e in spans}
        assert any(name.startswith("worker.") for name in names)
        # Per-(pid, tid) track timestamps are monotone in list order.
        last: dict = {}
        for e in spans:
            key = (e["pid"], e["tid"])
            assert e["ts"] >= last.get(key, float("-inf"))
            last[key] = e["ts"]
        meta = {
            e["args"]["name"]
            for e in events
            if e.get("ph") == "M" and e["name"] == "process_name"
        }
        assert "repro-serve" in meta
        assert any(name.startswith("worker-") for name in meta)

    def test_thread_mode_export_is_parent_only(self):
        with TraceRecorder():
            svc = SamplerService(G_CONFIG, shards=2, seed=0, ingest_workers=2)
            with svc:
                svc.submit(make_items(1 << 10))
                svc.flush()
                svc.refresh()
                buf = io.StringIO()
                svc.export_chrome(buf)
        payload = json.loads(buf.getvalue())
        pids = {e["pid"] for e in payload["traceEvents"]}
        assert len(pids) == 1


# ---------------------------------------------------------------------------
# Flight recorder and CLI integration
# ---------------------------------------------------------------------------
class TestIntegration:
    def test_flight_bundle_has_worker_sections(self, tmp_path):
        svc = SamplerService(
            G_CONFIG, shards=4, seed=0, ingest_workers=2,
            workers_mode="process",
        )
        with svc:
            svc.submit(make_items(1 << 11))
            svc.flush()
            svc.refresh()
            manifest = svc.dump(tmp_path / "bundle.zip")
        entries = set(manifest["entries"])
        assert "trace_chrome.json" in entries
        assert "workers/worker-00-metrics.json" in entries
        assert "workers/worker-01-trace.jsonl" in entries

    def test_cli_stats_per_worker(self, capsys):
        from repro.serving.cli import main

        code = main([
            "stats",
            "--config", json.dumps(G_CONFIG),
            "--workers-mode", "process",
            "--items", "4000",
            "--per-worker",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "-- worker 0 (generation" in out
        assert "-- worker 1 (generation" in out
