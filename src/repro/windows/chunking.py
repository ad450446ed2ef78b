"""Shared validation + bucket-splitting for timestamped chunks.

Every windowed ingest path (pool samplers, F0, the bank) must agree
exactly on chunk validation and on where time-bucket boundaries fall —
any divergence silently breaks the scalar/batch bitwise identity.  One
implementation, used by all of them.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["as_clock", "as_timed_chunk", "bucket_cuts"]


def as_clock(value) -> float:
    """One timestamp or clock reading as a float, rejecting NaN (it
    compares false against everything, so the clock could run
    backwards) and ±inf (+inf would latch the clock forever)."""
    t = float(value)
    if not math.isfinite(t):
        raise ValueError("timestamps must be finite")
    return t


def as_timed_chunk(
    items, timestamps, now: float, n: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Coerce and validate an ``(items, timestamps)`` chunk.

    Checks, in order: matching 1-d shapes, universe membership (when
    ``n`` is given), finite and non-negative timestamps, continuity
    with ``now``, and within-chunk monotonicity — all *before* any
    sampler state is touched, so a rejected chunk leaves every member
    of a composite sampler untouched.
    """
    arr = np.ascontiguousarray(np.asarray(items, dtype=np.int64))
    ts = np.asarray(timestamps, dtype=np.float64)
    if arr.ndim != 1 or ts.ndim != 1:
        raise ValueError("update_batch expects 1-d item and timestamp arrays")
    if arr.size != ts.size:
        raise ValueError(f"{arr.size} items but {ts.size} timestamps")
    if arr.size == 0:
        return arr, ts
    if n is not None and (int(arr.min()) < 0 or int(arr.max()) >= n):
        raise ValueError(f"items outside universe [0, {n})")
    if not np.isfinite(ts).all():
        raise ValueError("timestamps must be finite")
    if float(ts[0]) < 0:
        raise ValueError("timestamps must be non-negative")
    if float(ts[0]) < now:
        raise ValueError(
            f"timestamps must be non-decreasing: {float(ts[0])} after {now}"
        )
    if np.any(np.diff(ts) < 0):
        raise ValueError("timestamps must be non-decreasing within a chunk")
    return arr, ts


def bucket_cuts(ts: np.ndarray, horizon: float) -> tuple[np.ndarray, list[int]]:
    """Time buckets ``⌊ts/horizon⌋`` and the chunk offsets where they
    change (including 0 and ``len``) — the segmentation both the scalar
    loop's per-update ``⌊ts/H⌋`` and the batched kernel agree on."""
    buckets = (ts // horizon).astype(np.int64)
    cuts = [0, *(np.flatnonzero(np.diff(buckets)) + 1).tolist(), int(ts.size)]
    return buckets, cuts
