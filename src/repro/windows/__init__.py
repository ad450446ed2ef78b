"""repro.windows — truly perfect sampling over *time-based* sliding
windows.

:mod:`repro.sliding_window` answers "the last W updates";
this subsystem answers "the last H seconds", the form production
traffic actually asks in, at several resolutions at once:

* :class:`TimeWindowGSampler` / :class:`TimeWindowLpSampler` — the
  two-generation checkpoint scheme of Algorithm 4 generalized from
  update counts to wall-clock timestamps (generations at absolute
  ``k·H`` boundaries; the older kept generation always covers the
  active window), with per-bucket RNG streams so batched ingestion is
  bitwise identical to scalar;
* :class:`TimeWindowF0Sampler` — Corollary 5.3's windowed F0 sampler
  with timestamps in place of positions (LRU + eviction certificate,
  random-subset S-regime);
* :class:`WindowBank` — one validated chunk fanned out to a
  resolution ladder {1m, 5m, 1h, …}; each rung feeds only the
  generations the chunk leaves kept (a generation born and dropped
  inside one chunk never reaches a snapshot, and the kept ones draw
  from per-bucket RNG streams, so skipping it is bitwise).

All of them implement the engine's :class:`MergeableState` protocol
(snapshot / restore / merge), so they serve behind
:class:`repro.engine.ShardedSamplerEngine` with exact merged sampling —
time windows merge across shards because wall-clock boundaries are
absolute, where count windows would need a global arrival order.

**Time-vs-count semantics.**  A count window always holds exactly ``W``
updates; a time window holds however many arrived in ``(now − H, now]``
— bursts raise the occupancy, quiet spells lower it.  Truly perfect
exactness is unconditional either way; what traffic shape moves is only
the FAIL rate (instance counts are sized for an *expected* occupancy).
A count window is the special case whose clock is the arrival index
(``H = W``); :mod:`repro.sliding_window` subclasses these samplers so.
"""

from repro.windows.bank import WindowBank
from repro.windows.f0 import TimeWindowF0Sampler
from repro.windows.time_window import TimeWindowGSampler, TimeWindowLpSampler

__all__ = [
    "TimeWindowGSampler",
    "TimeWindowLpSampler",
    "TimeWindowF0Sampler",
    "WindowBank",
]
