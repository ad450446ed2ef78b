"""Batched ingestion — the engine's front door for streams of items.

The reference samplers expose per-item ``update()`` loops; production
traffic arrives in buffers.  This module bridges the two:

* :func:`ingest` feeds any array / ``Stream`` / iterable into a sampler,
  chunked, preferring the sampler's vectorized ``update_batch`` hook (the
  skip-ahead kernels in :mod:`repro.core`) and falling back to the scalar
  loop for samplers that lack one — same final state either way;
* :class:`BatchIngestor` buffers a scalar feed (e.g. per-request events)
  and flushes full chunks through the batched path.

Everything here is generic over the
:class:`repro.lifecycle.StreamSampler` protocol — the only capability
probes are structural (does the sampler expose ``update_batch``, does
the input carry timestamps), never per-kind dispatch.

Chunking matters: each pool call pays a fixed Python and ``ctypes``
cost on top of the compiled per-item loop, so large chunks (the 64K
default) amortize best.  ``update_batch`` semantics per
sampler: single-pool and F0 samplers are *bitwise identical* to the
scalar loop for a fixed seed; sliding-window samplers are exactly
distribution-preserving but consume RNG draws in a different order.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from repro.core.types import as_item_array as _as_array

__all__ = [
    "DEFAULT_CHUNK_SIZE",
    "supports_batch",
    "ingest",
    "BatchIngestor",
]

DEFAULT_CHUNK_SIZE = 1 << 16


def supports_batch(sampler) -> bool:
    """Whether the sampler exposes the vectorized ``update_batch`` hook."""
    return callable(getattr(sampler, "update_batch", None))


def ingest(
    sampler,
    items,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    timestamps=None,
) -> int:
    """Feed ``items`` (array, ``repro.streams.Stream`` /
    ``TimestampedStream``, or iterable) into ``sampler`` in chunks;
    returns the number of items ingested.

    Timestamped ingestion (the :mod:`repro.windows` samplers) happens
    when ``items`` is a ``TimestampedStream`` or ``timestamps`` is given
    explicitly: chunks carry ``(items, timestamps)`` pairs into
    ``update_batch(items, ts)`` / ``update(item, ts)``.
    """
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be ≥ 1, got {chunk_size}")
    if timestamps is None:
        timestamps = getattr(items, "timestamps", None)
    if timestamps is None:
        if not isinstance(items, np.ndarray) and isinstance(items, Iterable) and (
            getattr(items, "items", None) is None
        ) and not hasattr(items, "__len__"):
            # A true one-shot iterable (generator): buffer it chunk by chunk.
            total = 0
            ingestor = BatchIngestor(sampler, chunk_size=chunk_size)
            for item in items:
                ingestor.push(int(item))
                total += 1
            ingestor.flush()
            return total
        arr = _as_array(items)
        if supports_batch(sampler):
            for start in range(0, arr.size, chunk_size):
                sampler.update_batch(arr[start:start + chunk_size])
        else:
            update = sampler.update
            for item in arr.tolist():
                update(item)
        return int(arr.size)
    arr = _as_array(items)
    ts = np.asarray(timestamps, dtype=np.float64)
    if ts.ndim != 1 or ts.size != arr.size:
        raise ValueError(
            f"timestamps must be a 1-d array matching items "
            f"({arr.size} items, {ts.size} timestamps)"
        )
    if supports_batch(sampler):
        for start in range(0, arr.size, chunk_size):
            sampler.update_batch(
                arr[start:start + chunk_size], ts[start:start + chunk_size]
            )
    else:
        update = sampler.update
        for item, when in zip(arr.tolist(), ts.tolist()):
            update(item, when)
    return int(arr.size)


class BatchIngestor:
    """Buffering adapter: scalar ``push()`` in, batched updates out.

    Wrap a sampler where events arrive one at a time but throughput
    matters; the buffer flushes through ``update_batch`` whenever it
    fills (and on demand via :meth:`flush`).  Until a flush happens the
    buffered tail is *not* yet visible to the sampler — call ``flush()``
    before sampling.
    """

    __slots__ = ("_sampler", "_chunk_size", "_buffer", "_total")

    def __init__(self, sampler, chunk_size: int = DEFAULT_CHUNK_SIZE) -> None:
        if chunk_size < 1:
            raise ValueError(f"chunk_size must be ≥ 1, got {chunk_size}")
        self._sampler = sampler
        self._chunk_size = chunk_size
        self._buffer: list[int] = []
        self._total = 0

    @property
    def sampler(self):
        return self._sampler

    @property
    def pending(self) -> int:
        """Items buffered but not yet flushed into the sampler."""
        return len(self._buffer)

    @property
    def total_ingested(self) -> int:
        """Items that have reached the sampler (excludes the buffer)."""
        return self._total

    def push(self, item: int) -> None:
        self._buffer.append(item)
        if len(self._buffer) >= self._chunk_size:
            self.flush()

    def push_many(self, items) -> None:
        arr = _as_array(items)
        if self._buffer:
            self.flush()
        self._total += ingest(self._sampler, arr, chunk_size=self._chunk_size)

    def flush(self) -> None:
        if not self._buffer:
            return
        arr = np.asarray(self._buffer, dtype=np.int64)
        # Ingest before clearing: if the sampler rejects the chunk (e.g.
        # an out-of-universe item), the buffer survives for a retry after
        # the caller fixes the input.
        self._total += ingest(self._sampler, arr, chunk_size=self._chunk_size)
        self._buffer.clear()
