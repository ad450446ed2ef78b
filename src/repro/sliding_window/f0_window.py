"""Corollary 5.3 — truly perfect F0 sampling on sliding windows.

Algorithm 5 adapts to windows by (a) replacing "the first √n distinct
items" with the *most recently seen* √n distinct items plus an eviction
certificate, and (b) time-stamping the random-subset hits so expired
members can be discarded:

* An LRU table of ≤ √n+1 items keyed by last-occurrence time.  If every
  eviction ever performed removed an item whose recorded last occurrence
  has since expired, the pruned table *is* the window's exact support.
  Otherwise some eviction happened while > √n distinct items were active,
  certifying that the window's F0 exceeded √n at that moment — and the
  moment's √n+1 witnesses stay active until the sample time in question,
  so the S-regime is the correct branch whenever the certificate fails.
* ``S`` is the usual random 2√n-subset; a member is *alive* when its last
  occurrence is inside the window.  Uniformity over the window support
  follows from the permutation symmetry of ``S`` exactly as in the
  whole-stream case.

This is :class:`repro.windows.TimeWindowF0Sampler` on the arrival clock,
whose eviction horizon starts at ``−∞``: while fewer than ``W`` updates
have arrived nothing has expired, and no eviction can have left it.
"""

from __future__ import annotations

import numpy as np

from repro.sliding_window.arrival_clock import _ArrivalClock
from repro.windows.f0 import TimeWindowF0Sampler

__all__ = ["SlidingWindowF0Sampler"]


class SlidingWindowF0Sampler(_ArrivalClock, TimeWindowF0Sampler):
    """Truly perfect F0 sampler over the last ``window`` updates.

    Parameters
    ----------
    n, window:
        Universe and window sizes.
    delta:
        FAIL probability; drives the number of independent S-copies.
    """

    _KIND = "sw_f0"

    def __init__(
        self,
        n: int,
        window: int,
        delta: float = 0.05,
        seed: int | np.random.Generator | None = None,
    ) -> None:
        super().__init__(n, window, delta, seed)
