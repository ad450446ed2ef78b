"""Algorithm 4 — truly perfect M-estimator sampling on sliding windows
(Theorem 4.1, Corollary 4.2).

Generations of reservoir pools are checkpointed every ``W`` updates and the
two most recent kept.  At query time the *older* generation's substream
(length ``L ∈ (W, 2W]``) always covers the active window, so each active
position was its reservoir target with probability exactly ``1/L``;
conditioning on the sampled position being active and applying the usual
rejection step yields exactly ``G(f_i)/F_G`` over the *window* frequencies.
The ``L ≤ 2W`` slack costs a factor ≤ 2 in acceptance probability, which
the instance count absorbs.  The scheme is
:class:`repro.windows.TimeWindowGSampler`'s on the arrival clock.
"""

from __future__ import annotations

import numpy as np

from repro.core.measures import Measure
from repro.sliding_window.arrival_clock import _ArrivalClock
from repro.windows.time_window import TimeWindowGSampler

__all__ = ["SlidingWindowGSampler"]


class SlidingWindowGSampler(_ArrivalClock, TimeWindowGSampler):
    """Truly perfect G-sampler over the last ``window`` updates.

    Parameters
    ----------
    measure:
        A measure with globally bounded increments (``zeta(None)``).
    window:
        Window size ``W``.
    instances:
        Instances per generation; defaults to
        ``R = ⌈2·ζ·W/F̂_G(W)·ln(1/δ)⌉`` using the measure's certified
        window bound (the extra 2 covers the ≤2W substream slack).
    """

    _KIND = "sw_g"

    def __init__(
        self,
        measure: Measure,
        window: int,
        instances: int | None = None,
        delta: float = 0.05,
        seed: int | np.random.Generator | None = None,
    ) -> None:
        super().__init__(
            measure, window, instances, delta, expected_window_count=window,
            seed=seed,
        )
