"""Shared validation + bucket-splitting for timestamped chunks.

Every windowed ingest path (pool samplers, F0, the bank) must agree
exactly on chunk validation and on where time-bucket boundaries fall —
any divergence silently breaks the scalar/batch bitwise identity.  One
implementation, used by all of them; :func:`parsing` is the guard their
snapshot restores share.
"""

from __future__ import annotations

import math
from contextlib import contextmanager

import numpy as np

__all__ = ["as_clock", "as_timed_chunk", "bucket_cuts", "parsing"]


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
    ts = np.ascontiguousarray(np.asarray(timestamps, dtype=np.float64))
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


def bucket_cuts(ts: np.ndarray, horizon: float) -> tuple[list[int], list[int]]:
    """The time buckets a non-empty, non-decreasing chunk ``ts`` spans
    and the offsets where each starts (plus ``len`` at the end): the
    segmentation the scalar loop's per-update ``float(ts) // horizon``
    gives.  ``buckets[j]`` is the bucket of ``ts[cuts[j]:cuts[j + 1]]``.

    The cost is a binary search per bucket the chunk enters, not a pass
    over the chunk.  ``np.searchsorted`` finds where ``b·horizon``
    falls; the product rounds, so the exact scalar predicate
    ``float(ts[i]) // horizon >= b`` then moves the cut across the few
    distinct values it misjudged (a whole run of equal timestamps per
    step).  That relies only on float ``//`` being monotone in ``ts``.
    """
    n = int(ts.size)
    bucket = int(float(ts[0]) // horizon)
    last = int(float(ts[-1]) // horizon)
    buckets, cuts = [bucket], [0]
    while bucket < last:
        nxt = bucket + 1
        # The cut is past the last one (whose bucket is below nxt) and
        # at most len - 1 (ts[-1]'s bucket is at least nxt), which bounds
        # both walks.
        i = max(int(ts.searchsorted(nxt * horizon)), cuts[-1] + 1)
        while float(ts[i - 1]) // horizon >= nxt:
            i = int(ts.searchsorted(ts[i - 1]))
        while float(ts[i]) // horizon < nxt:
            i = int(ts.searchsorted(ts[i], side="right"))
        bucket = int(float(ts[i]) // horizon)
        buckets.append(bucket)
        cuts.append(i)
    cuts.append(n)
    return buckets, cuts


@contextmanager
def parsing(kind: str):
    """Reading a ``kind`` snapshot: a missing key, a value of the wrong
    type or shape, or a malformed member raises :class:`ValueError`
    (which passes through unchanged)."""
    try:
        yield
    except (KeyError, IndexError, TypeError, AttributeError, OverflowError) as exc:
        raise ValueError(f"malformed {kind} snapshot: {exc!r}") from exc
