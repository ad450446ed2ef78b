"""Binary frame transport for the process-parallel ingest plane.

A :class:`FrameConnection` wraps one end of a ``multiprocessing`` duplex
pipe and speaks *frames*: plain snapshot trees (nested dicts of NumPy
arrays, bytes, and JSON-able scalars) encoded with the same RPRS codec
that checkpoints sampler state (:mod:`repro.lifecycle.codec`).  Nothing
on the wire is pickled — a frame is a self-describing bytes buffer, so
a corrupt or adversarial peer can at worst produce a malformed tree,
never code execution.

Per-lane fields (``shards``, ``counts``, ``ok``, …) are JSON lists in
the header: a list of a few ints decodes in about a microsecond, while
each NumPy leaf costs the decoder a spec, a buffer slice and a copy
(about 15 µs), and the parent pays that in its GIL once per frame.

Frame vocabulary (the ``type`` key):

========== =============================================================
``ingest``   parent → worker: one coalesced micro-batch per ready lane
             of the worker, in the same few leaves whatever the lane
             count: ``shards`` and ``counts`` (one entry per lane),
             ``items`` (int64 array, the lanes concatenated in that
             order), ``ts`` (float64 array, the same cut) when timed
``ack``      worker → parent: result of one ingest frame, one entry per
             lane in each of ``shards``, ``counts``, ``ok`` 0/1,
             ``epochs`` after apply and ``seconds`` apply wall time;
             plus ``errors``, ``{shard: repr}`` for the lanes that failed
``error``    worker → parent: a frame the worker could not take (an
             unknown ``type``), ``error`` saying why — a protocol bug
             the parent reports as a worker error
``pull``     parent → worker: request snapshot deltas for shards whose
             worker-side epoch is beyond ``epochs[shard]``
``state``    worker → parent: ``shards: {shard: {epoch, state bytes}}``
``compact``  parent → worker: run expiry compaction (optional ``now``)
``compacted`` worker → parent: ``freed`` items total, ``epochs``
``ping``/``pong``  liveness probe (``pong`` carries ``now_ns``, the
             worker's ``perf_counter_ns``, for clock-offset estimation)
``telemetry``  parent → worker: request a telemetry payload; the reply
             (same ``type``) carries a cumulative metric snapshot tree
             (:func:`repro.obs.telemetry.snapshot_registry`), a span
             batch (JSONL bytes), ``now_ns`` and ``pid``.  The same
             payload piggybacks on ``state`` replies under a
             ``telemetry`` key.
``stop``/``bye``   orderly shutdown handshake
========== =============================================================

Both ends meter traffic into the observability plane
(``repro_serving_ipc_frames_total`` / ``repro_serving_ipc_bytes_total``
by direction) — the parent into the service registry, the worker into
its own shipped registry, so the unified exposition shows both halves
of the pipe under distinct ``worker`` labels.  A worker booted with
telemetry off keeps the PR 8 dark mode: disabled registry,
``metered=False``.
"""

from __future__ import annotations

import struct
from typing import Optional

from repro.lifecycle.codec import state_from_bytes, state_to_bytes

__all__ = ["FrameConnection", "encode_frame", "decode_frame", "MAX_FRAME_BYTES"]

# A hard ceiling on a single frame, defending both sides against a
# corrupt length prefix.  Snapshot deltas dominate frame size; 1 GiB is
# far beyond any realistic shard state in this codebase.
MAX_FRAME_BYTES = 1 << 30

_LEN = struct.Struct("<Q")


def encode_frame(tree: dict) -> bytes:
    """Encode one frame tree to its wire bytes (no length prefix)."""
    return state_to_bytes(tree)


def decode_frame(buf: bytes) -> dict:
    """Decode wire bytes back to the frame tree."""
    if len(buf) > MAX_FRAME_BYTES:
        raise ValueError(f"frame of {len(buf)} bytes exceeds MAX_FRAME_BYTES")
    tree = state_from_bytes(buf)
    if not isinstance(tree, dict) or "type" not in tree:
        raise ValueError("malformed frame: missing type")
    return tree


class FrameConnection:
    """One end of a duplex pipe, upgraded to typed snapshot-tree frames.

    ``send`` is safe to call from multiple threads (the parent's pump
    and control paths share the pipe); ``recv``/``poll`` must stay on a
    single receiver thread, which is how both ends use it.
    """

    def __init__(self, conn, *, metered: bool = True, metrics=None):
        import threading

        self._conn = conn
        self._send_lock = threading.Lock()
        if metered:
            from repro.obs.catalog import CATALOG_HELP
            from repro.obs.metrics import current_registry

            reg = current_registry() if metrics is None else metrics
            frames = reg.counter(
                "repro_serving_ipc_frames_total",
                CATALOG_HELP["repro_serving_ipc_frames_total"],
                labels=("direction",),
            )
            nbytes = reg.counter(
                "repro_serving_ipc_bytes_total",
                CATALOG_HELP["repro_serving_ipc_bytes_total"],
                labels=("direction",),
            )
            self._m_frames = {
                d: frames.labels(direction=d) for d in ("send", "recv")
            }
            self._m_bytes = {
                d: nbytes.labels(direction=d) for d in ("send", "recv")
            }
        else:
            self._m_frames = None
            self._m_bytes = None

    def send(self, tree: dict) -> int:
        """Encode and ship one frame; returns the frame's byte size."""
        buf = encode_frame(tree)
        if len(buf) > MAX_FRAME_BYTES:
            raise ValueError(f"frame of {len(buf)} bytes exceeds MAX_FRAME_BYTES")
        with self._send_lock:
            self._conn.send_bytes(buf)
        if self._m_frames is not None:
            self._m_frames["send"].inc()
            self._m_bytes["send"].add(len(buf))
        return len(buf)

    def recv(self) -> dict:
        """Block for the next frame and decode it (raises EOFError on hangup)."""
        buf = self._conn.recv_bytes(MAX_FRAME_BYTES)
        if self._m_frames is not None:
            self._m_frames["recv"].inc()
            self._m_bytes["recv"].add(len(buf))
        return decode_frame(buf)

    def poll(self, timeout: Optional[float] = 0.0) -> bool:
        return self._conn.poll(timeout)

    def close(self) -> None:
        try:
            self._conn.close()
        except OSError:
            pass

    @property
    def raw(self):
        return self._conn
