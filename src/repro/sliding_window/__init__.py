"""Sliding-window samplers (Section 4, Appendix A, Corollary 5.3).

The sliding-window model keeps only the most recent ``W`` insertion-only
updates *active*.  The framework samplers extend to it by (a) starting a
fresh checkpoint of reservoir instances every ``W`` updates and keeping
the two most recent generations, so some generation always covers the
active window with a substream of length ≤ 2W, and (b) rejecting samples
whose reservoir timestamp has expired.  That is the time-window scheme
of :mod:`repro.windows` on the clock that reads each update's arrival
index, so every sampler here is its time-window counterpart on that
clock (:mod:`repro.sliding_window.arrival_clock`).
"""

from repro.sliding_window.window_sampler import SlidingWindowGSampler
from repro.sliding_window.lp_window import SlidingWindowLpSampler
from repro.sliding_window.f0_window import SlidingWindowF0Sampler

__all__ = [
    "SlidingWindowGSampler",
    "SlidingWindowLpSampler",
    "SlidingWindowF0Sampler",
]
