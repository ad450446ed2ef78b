"""Process-parallel serving — transport, bitwise replay, and crash tests.

The contracts the process ingest plane must keep:

* **wire safety** — frames are RPRS snapshot trees (never pickles), and
  bytes leaves round-trip through the codec exactly;
* **bitwise equality** — serialized process-mode serving replays a whole
  interleaved ingest/query sequence bitwise-identically to direct
  engine calls, for untimed, timed, and F0 kinds alike;
* **crash honesty** — a worker dying mid-batch propagates a clean
  error, latches the service unhealthy, and never silently drops an
  accepted batch; a worker dying idle (nothing in flight, mirror
  caught up) restarts losslessly and the service keeps serving;
* **reader-view pooling** — N readers on one published generation cost
  one fold copy, not N.
"""

import multiprocessing
import os
import signal
import threading
import time

import numpy as np
import pytest

from repro.engine import ShardedSamplerEngine, state_to_bytes
from repro.lifecycle.codec import state_from_bytes
from repro.obs.metrics import MetricsRegistry
from repro.serving import SamplerService, ServiceClosed, ShardQueues
from repro.serving import procplane as procplane_mod
from repro.serving.procplane import FAULT_ITEM_ENV, WorkerDied, WorkerLink
from repro.serving.transport import FrameConnection, decode_frame, encode_frame
from repro.streams.generators import zipf_stream
from repro.streams.timestamped import uniform_arrivals

G_CONFIG = {"kind": "g", "measure": {"name": "huber"}, "instances": 16}
TW_CONFIG = {"kind": "tw_g", "measure": {"name": "huber"}, "horizon": 30.0,
             "instances": 8}
F0_CONFIG = {"kind": "f0", "n": 1 << 10}


def make_items(m: int, seed: int = 3, n: int = 1 << 10) -> np.ndarray:
    return np.asarray(zipf_stream(n, m, alpha=1.2, seed=seed).items)


def _wait_until(pred, timeout: float = 10.0, interval: float = 0.02) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if pred():
            return True
        time.sleep(interval)
    return pred()


# ---------------------------------------------------------------------------
# Transport and codec
# ---------------------------------------------------------------------------
class TestTransport:
    def test_codec_bytes_leaves_round_trip(self):
        tree = {
            "type": "state",
            "shards": {
                "0": {"epoch": 3, "state": b"\x00\x01RPRS-nested\xff"},
                "1": {"epoch": 1, "state": b""},
            },
            "arr": np.arange(7, dtype=np.int64),
        }
        back = state_from_bytes(state_to_bytes(tree))
        assert back["type"] == "state"
        assert back["shards"]["0"]["state"] == b"\x00\x01RPRS-nested\xff"
        assert back["shards"]["1"]["state"] == b""
        np.testing.assert_array_equal(back["arr"], tree["arr"])

    def test_decode_rejects_untyped_frames(self):
        with pytest.raises(ValueError, match="missing type"):
            decode_frame(encode_frame({"shard": 0}))

    def test_frame_connection_meters_traffic(self):
        reg = MetricsRegistry()
        a_raw, b_raw = multiprocessing.Pipe(duplex=True)
        a = FrameConnection(a_raw, metrics=reg)
        b = FrameConnection(b_raw, metered=False)
        try:
            n = a.send({"type": "ping"})
            assert b.recv() == {"type": "ping"}
            b.send({"type": "pong", "payload": np.zeros(16)})
            reply = a.recv()
            assert reply["type"] == "pong"
            frames = reg.get("repro_serving_ipc_frames_total")
            nbytes = reg.get("repro_serving_ipc_bytes_total")
            assert int(frames.labels(direction="send").value) == 1
            assert int(frames.labels(direction="recv").value) == 1
            assert int(nbytes.labels(direction="send").value) == n
            assert int(nbytes.labels(direction="recv").value) > 0
        finally:
            a.close()
            b.close()


# ---------------------------------------------------------------------------
# Bitwise replay through worker processes
# ---------------------------------------------------------------------------
class TestProcessBitwise:
    @pytest.mark.parametrize("config", [G_CONFIG, F0_CONFIG],
                             ids=["g", "f0"])
    def test_serialized_process_mode_equals_direct_engine(self, config):
        items = make_items(6_000)
        engine = ShardedSamplerEngine(config, shards=4, seed=7)
        with SamplerService(
            config, shards=4, seed=7, serialized=True,
            workers_mode="process", ingest_workers=2, compact_interval=None,
        ) as svc:
            for lo in range(0, items.size, 1_500):
                batch = items[lo:lo + 1_500]
                svc.submit(batch)
                engine.ingest(batch)
                assert svc.sample() == engine.sample()
                assert svc.sample_many(5) == engine.sample_many(5)
            assert state_to_bytes(svc.engine.snapshot()) == state_to_bytes(
                engine.snapshot()
            )

    def test_serialized_process_mode_timed_kind(self):
        """Timed kinds route expiry through the workers: the plane
        compacts at the query's clock before collecting, exactly when a
        direct engine would compact inside ``sample``."""
        items = make_items(4_000)
        ts = uniform_arrivals(items.size, 100.0)
        engine = ShardedSamplerEngine(TW_CONFIG, shards=4, seed=7)
        with SamplerService(
            TW_CONFIG, shards=4, seed=7, serialized=True,
            workers_mode="process", ingest_workers=2, compact_interval=None,
        ) as svc:
            for lo in range(0, items.size, 1_000):
                svc.submit(items[lo:lo + 1_000], ts[lo:lo + 1_000])
                engine.ingest(items[lo:lo + 1_000],
                              timestamps=ts[lo:lo + 1_000])
                now = float(ts[min(lo + 1_000, items.size) - 1])
                assert svc.sample(now=now) == engine.sample(now=now)
            assert state_to_bytes(svc.engine.snapshot()) == state_to_bytes(
                engine.snapshot()
            )

    def test_worker_count_never_changes_final_state(self):
        items = make_items(6_000)
        reference = None
        for workers in (1, 2, 4):
            with SamplerService(
                G_CONFIG, shards=4, seed=11, workers_mode="process",
                ingest_workers=workers, compact_interval=None,
                refresh_interval=1e9,
            ) as svc:
                for lo in range(0, items.size, 750):
                    svc.submit(items[lo:lo + 750])
                svc.flush(timeout=30.0)
                svc.refresh()
                blob = state_to_bytes(svc.engine.snapshot())
            if reference is None:
                reference = blob
            assert blob == reference


    def test_perf_suite_config_serialized_equals_direct(self):
        """The perf suite's config at its served shape (K=8, 2 worker
        processes, seed 7), on a 20K-item prefix of its stream fed in
        four chunks: every served answer equals the direct engine's."""
        config = {"kind": "g", "measure": {"name": "huber"}, "instances": 64}
        items = np.asarray(zipf_stream(1 << 14, 20_000, alpha=1.2, seed=1).items)
        engine = ShardedSamplerEngine(config, shards=8, seed=7)
        with SamplerService(
            config, shards=8, seed=7, serialized=True,
            workers_mode="process", ingest_workers=2, compact_interval=None,
        ) as svc:
            for chunk in np.array_split(items, 4):
                svc.submit(chunk)
                engine.ingest(chunk)
                assert svc.sample() == engine.sample()

    @pytest.mark.skipif(not hasattr(signal, "SIGSTOP"), reason="needs SIGSTOP")
    def test_one_frame_carries_every_ready_lane(self, monkeypatch):
        """Submits queued while both workers are stopped go out as
        multi-lane frames (fewer frames than lanes applied), and the
        shard states still equal a direct engine's bit for bit."""
        frames, lanes = [], []
        send = FrameConnection.send
        release = ShardQueues.release

        def logged_send(conn, tree):
            if tree.get("type") == "ingest":
                frames.append(len(tree["shards"]))
            return send(conn, tree)

        def logged_release(queues, parts):
            parts = list(parts)
            lanes.extend(parts)
            return release(queues, parts)

        items = make_items(6_000)
        engine = ShardedSamplerEngine(G_CONFIG, shards=4, seed=7)
        with SamplerService(
            G_CONFIG, shards=4, seed=7, workers_mode="process",
            ingest_workers=2, compact_interval=None, refresh_interval=1e9,
        ) as svc:
            monkeypatch.setattr(FrameConnection, "send", logged_send)
            monkeypatch.setattr(ShardQueues, "release", logged_release)
            pids = [link.proc.pid for link in svc._plane.links]
            for pid in pids:
                os.kill(pid, signal.SIGSTOP)
            try:
                for lo in range(0, items.size, 500):
                    svc.submit(items[lo:lo + 500])
                    engine.ingest(items[lo:lo + 500])
            finally:
                for pid in pids:
                    os.kill(pid, signal.SIGCONT)
            svc.flush(timeout=30.0)
            monkeypatch.undo()
            svc.refresh()
            assert state_to_bytes(svc.engine.snapshot()) == state_to_bytes(
                engine.snapshot()
            )
            assert svc.stats()["ingest"]["failed_items"] == 0
        assert all(ok for __, __, ok in lanes)
        assert sum(frames) == len(lanes)
        assert len(frames) < len(lanes)


# ---------------------------------------------------------------------------
# Crash handling
# ---------------------------------------------------------------------------
class TestWorkerCrash:
    @pytest.mark.skipif(not hasattr(signal, "SIGSTOP"), reason="needs SIGSTOP")
    def test_mid_batch_crash_latches_and_loses_nothing(self, monkeypatch):
        """A worker dying with a frame in flight cannot restart (accepted
        items would vanish): the service latches closed, health goes
        not-ready, and the accounting reconciles every accepted item as
        applied or failed — none silently dropped.  The poisoned frame
        carries every ready lane of its worker, and the fault hook kills
        the worker before any part applies, so exactly that whole frame
        is failed."""
        routing = ShardedSamplerEngine(G_CONFIG, shards=4, seed=0)
        poison = next(
            item for item in range(999999, 1 << 40, 1 << 20)
            if routing.shard_of(item) % 2 == 0  # a shard of worker 0
        )
        monkeypatch.setenv(FAULT_ITEM_ENV, str(poison))
        svc = SamplerService(
            G_CONFIG, shards=4, seed=0, workers_mode="process",
            ingest_workers=2, compact_interval=None,
        )
        try:
            svc.submit(make_items(2_000))
            svc.flush(timeout=30.0)
            link = svc._plane.links[0]
            # Hold worker 0 still so the whole poisoned submit's lanes
            # for it go out as one frame.
            os.kill(link.proc.pid, signal.SIGSTOP)
            try:
                batch = np.append(make_items(400, seed=5), poison)
                svc.submit(batch)
                assert _wait_until(
                    lambda: link.status()["inflight_frames"] == 1
                )
            finally:
                os.kill(link.proc.pid, signal.SIGCONT)
            assert _wait_until(
                lambda: svc.stats()["ingest"]["worker_errors"] > 0
            ), "worker crash never latched"
            with pytest.raises(ServiceClosed):
                svc.submit(np.arange(10))
                svc.flush(timeout=5.0)
            report = svc.health()
            assert not report.ready
            assert report.probe("worker_errors").status == "fail"
            stats = svc.stats()["ingest"]
            assert stats["pending_items"] == 0
            assert (
                stats["submitted_items"]
                == stats["applied_items"] + stats["failed_items"]
            )
            shards = routing.partitioner.assign(batch)
            lost = [int(np.sum(shards == s)) if s % 2 == 0 else 0
                    for s in range(4)]
            assert lost[0] > 0 and lost[2] > 0  # a two-lane frame
            assert svc._queues.failed_by_shard == lost
            assert stats["worker_restarts"] == 0
        finally:
            svc.close(drain=False)

    def test_frame_coalescing_failure_fails_items_and_reports(self, monkeypatch):
        """Lanes the pump cannot concatenate into one frame are failed
        and reported, so a flush cannot wedge on them."""
        def boom(arrays, *args, **kwargs):
            raise MemoryError("no room to coalesce")

        items = make_items(2_000)
        svc = SamplerService(
            G_CONFIG, shards=4, seed=0, workers_mode="process",
            ingest_workers=2, compact_interval=None,
        )
        try:
            monkeypatch.setattr(procplane_mod.np, "concatenate", boom)
            svc.submit(items)
            assert _wait_until(lambda: svc._queues.pending() == 0)
            monkeypatch.undo()
            stats = svc.stats()["ingest"]
            assert (stats["applied_items"], stats["failed_items"]) == (0, 2_000)
            assert svc._worker_errors
            assert all(type(exc) is MemoryError for exc, __ in svc._worker_errors)
        finally:
            svc.close(drain=False)

    def test_idle_crash_restarts_losslessly(self):
        """A worker dying with nothing in flight and the mirror caught
        up is respawned from the mirror's snapshots: zero failed items,
        restart counted, service healthy and serving again."""
        items = make_items(2_000)
        with SamplerService(
            G_CONFIG, shards=4, seed=0, workers_mode="process",
            ingest_workers=2, compact_interval=None, refresh_interval=1e9,
        ) as svc:
            svc.submit(items)
            svc.flush(timeout=30.0)
            svc.refresh()  # collect() — mirror catches up, acked == pulled
            link = svc._plane.links[0]
            link.proc.kill()
            assert _wait_until(lambda: link.restarts == 1), (
                "idle worker death did not restart"
            )
            svc.submit(items)
            svc.flush(timeout=30.0)
            svc.refresh()
            assert svc.sample().is_item
            stats = svc.stats()
            assert stats["ingest"]["failed_items"] == 0
            assert stats["ingest"]["worker_restarts"] == 1
            assert svc.metrics.get(
                "repro_serving_worker_restarts_total"
            ).total() == 1
            report = svc.health()
            assert report.ready
            assert report.probe("workers").status == "pass"
            assert "restart" in report.probe("workers").detail


# ---------------------------------------------------------------------------
# The fold collector
# ---------------------------------------------------------------------------
class TestCollect:
    def test_every_pull_is_out_before_any_wait(self, monkeypatch):
        """``collect`` sends every link's ``pull`` before it waits on any
        reply, so the workers encode their states at the same time."""
        calls = []
        send, wait = WorkerLink.send_control, WorkerLink.wait_control

        def logged_send(link, frame, *args, **kwargs):
            calls.append(("send", link.index, frame["type"]))
            return send(link, frame, *args, **kwargs)

        def logged_wait(link, *args, **kwargs):
            calls.append(("wait", link.index, None))
            return wait(link, *args, **kwargs)

        items = make_items(3_000)
        with SamplerService(
            G_CONFIG, shards=4, seed=0, workers_mode="process",
            ingest_workers=2, compact_interval=None, refresh_interval=1e9,
        ) as svc:
            svc.submit(items)
            svc.flush(timeout=30.0)
            monkeypatch.setattr(WorkerLink, "send_control", logged_send)
            monkeypatch.setattr(WorkerLink, "wait_control", logged_wait)
            assert svc._plane.collect() == 4
            monkeypatch.undo()
        assert calls == [("send", 0, "pull"), ("send", 1, "pull"),
                         ("wait", 0, None), ("wait", 1, None)]

    @pytest.mark.skipif(not hasattr(signal, "SIGSTOP"), reason="needs SIGSTOP")
    def test_worker_death_mid_collect_leaves_no_stale_reply(self, monkeypatch):
        """Worker 0 dies mid-collect (it applies a poisoned frame queued
        before its pull) while worker 1's ``state`` reply is still to
        come: collect raises, but only after taking that reply, so
        worker 1's next control frame is answered by its own reply."""
        routing = ShardedSamplerEngine(G_CONFIG, shards=4, seed=0)
        poison = next(
            item for item in range(999999, 1 << 40, 1 << 20)
            if routing.shard_of(item) % 2 == 0  # a shard of worker 0
        )
        monkeypatch.setenv(FAULT_ITEM_ENV, str(poison))
        svc = SamplerService(
            G_CONFIG, shards=4, seed=0, workers_mode="process",
            ingest_workers=2, compact_interval=None, refresh_interval=1e9,
        )
        try:
            svc.submit(make_items(2_000))
            svc.flush(timeout=30.0)
            plane = svc._plane
            plane.collect()
            # Hold both workers still while worker 0's poisoned frame and
            # then the pulls queue up; worker 0 resumes (and dies) first,
            # worker 1 answers its pull only after that.
            pids = [link.proc.pid for link in plane.links]
            for pid in pids:
                os.kill(pid, signal.SIGSTOP)
            svc.submit(np.array([poison], dtype=np.int64))
            assert _wait_until(
                lambda: plane.links[0].status()["inflight_frames"] == 1
            )
            resumes = [
                threading.Timer(delay, os.kill, args=(pid, signal.SIGCONT))
                for delay, pid in zip((0.3, 0.8), pids)
            ]
            for timer in resumes:
                timer.start()
            try:
                with pytest.raises(WorkerDied):
                    plane.collect(timeout=20.0)
                survivor = plane.links[1]
                reply = survivor.control({"type": "compact"}, timeout=10.0)
                assert reply["type"] == "compacted"
                assert survivor.control({"type": "ping"}, timeout=10.0)["type"] == "pong"
            finally:
                for timer in resumes:
                    timer.join()
        finally:
            svc.close(drain=False)


# ---------------------------------------------------------------------------
# Service surface: probes, metrics, stats, validation
# ---------------------------------------------------------------------------
class TestProcessServiceSurface:
    def test_exposition_and_stats_carry_process_plane(self):
        items = make_items(3_000)
        with SamplerService(
            G_CONFIG, shards=4, seed=0, workers_mode="process",
            ingest_workers=2, compact_interval=None,
        ) as svc:
            svc.submit(items)
            svc.flush(timeout=30.0)
            svc.refresh()
            text = svc.metrics.render_prometheus()
            assert 'repro_serving_ipc_frames_total{direction="send"}' in text
            assert 'repro_serving_ipc_bytes_total{direction="recv"}' in text
            assert 'repro_serving_worker_queue_depth{worker="0"}' in text
            assert "# TYPE repro_serving_worker_restarts_total counter" in text
            frames = svc.metrics.get("repro_serving_ipc_frames_total")
            assert frames.labels(direction="send").value > 0
            assert frames.labels(direction="recv").value > 0
            stats = svc.stats()
            assert stats["workers_mode"] == "process"
            assert stats["workers"] == 2
            procs = stats["ingest"]["worker_processes"]
            assert len(procs) == 2
            assert all(st["alive"] for st in procs)
            assert sorted(s for st in procs for s in st["shards"]) == [
                0, 1, 2, 3,
            ]
            report = svc.health()
            assert report.ready
            assert "process" in report.probe("workers").detail

    def test_thread_mode_exposition_still_has_plane_families(self):
        with SamplerService(
            G_CONFIG, shards=2, seed=0, ingest_workers=1,
            compact_interval=None,
        ) as svc:
            text = svc.metrics.render_prometheus()
            for name in (
                "repro_serving_ipc_frames_total",
                "repro_serving_ipc_bytes_total",
                "repro_serving_worker_restarts_total",
                "repro_serving_worker_queue_depth",
            ):
                assert f"# HELP {name} " in text, name

    def test_unknown_frame_type_is_reported(self):
        """A frame type the worker does not know is a protocol bug: the
        worker answers with an ``error`` frame and the service latches
        it as a worker error instead of dropping it."""
        svc = SamplerService(
            G_CONFIG, shards=2, seed=0, workers_mode="process",
            ingest_workers=1, compact_interval=None,
        )
        try:
            svc._plane.links[0].conn.send({"type": "bogus"})
            assert _wait_until(
                lambda: svc.stats()["ingest"]["worker_errors"] > 0
            ), "protocol error never reported"
            ((exc, shard),) = svc._worker_errors
            assert "unknown frame type 'bogus'" in str(exc)
            assert shard == 0
            assert svc.health().probe("worker_errors").status == "fail"
            assert svc.stats()["ingest"]["failed_items"] == 0
        finally:
            svc.close(drain=False)

    def test_workers_mode_validation(self):
        with pytest.raises(ValueError, match="workers_mode"):
            SamplerService(G_CONFIG, shards=2, workers_mode="fiber")

    def test_process_mode_rejects_prebuilt_engine(self):
        engine = ShardedSamplerEngine(G_CONFIG, shards=2, seed=0)
        with pytest.raises(ValueError, match="registry config"):
            SamplerService(engine, workers_mode="process")


# ---------------------------------------------------------------------------
# Reader-view pooling (query plane)
# ---------------------------------------------------------------------------
class TestViewPooling:
    def test_n_readers_one_generation_one_copy(self):
        """The pooling regression gate: N non-overlapping readers on a
        single published generation lease the same pooled view — one
        fold copy total, not one per reader."""
        items = make_items(3_000)
        with SamplerService(
            G_CONFIG, shards=4, seed=5, ingest_workers=2,
            refresh_interval=1e9, compact_interval=None,
        ) as svc:
            svc.submit(items)
            svc.flush(timeout=30.0)
            svc.refresh()
            results = []

            def reader():
                results.append(svc.sample())

            for __ in range(8):
                t = threading.Thread(target=reader)
                t.start()
                t.join()
            assert len(results) == 8
            info = svc._executor.view_info()
            assert info["views_copied"] == 1
            assert info["views_leased"] == 8
            assert info["pool_free"] == 1
            stats = svc.stats()["query"]
            assert stats["views_copied"] == 1
            assert stats["views_leased"] == 8

    def test_pool_reused_across_generations(self):
        """A new generation republishes the fold but the per-generation
        copy count stays one per publish, regardless of reader count."""
        items = make_items(2_000)
        with SamplerService(
            G_CONFIG, shards=2, seed=5, ingest_workers=1,
            refresh_interval=1e9, compact_interval=None,
        ) as svc:
            for round_no in range(3):
                svc.submit(items)
                svc.flush(timeout=30.0)
                svc.refresh()
                for __ in range(4):
                    t = threading.Thread(target=svc.sample)
                    t.start()
                    t.join()
            info = svc._executor.view_info()
            assert info["views_copied"] == 3  # one per generation
            assert info["views_leased"] == 12

    def test_concurrent_readers_each_get_a_view(self):
        """Overlapping readers force extra copies (exclusive leases) but
        never share a live view; copies stay bounded by concurrency."""
        items = make_items(3_000)
        with SamplerService(
            G_CONFIG, shards=4, seed=5, ingest_workers=2,
            refresh_interval=1e9, compact_interval=None,
        ) as svc:
            svc.submit(items)
            svc.flush(timeout=30.0)
            svc.refresh()
            barrier = threading.Barrier(4)
            errors = []

            def reader():
                try:
                    barrier.wait(timeout=10.0)
                    for __ in range(20):
                        out = svc.sample()
                        assert out is not None
                except Exception as exc:  # pragma: no cover
                    errors.append(exc)

            threads = [threading.Thread(target=reader) for __ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert not errors
            info = svc._executor.view_info()
            assert 1 <= info["views_copied"] <= 4
            assert info["views_leased"] == 80
