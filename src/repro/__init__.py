"""repro — Truly Perfect Samplers for Data Streams and Sliding Windows.

A production-grade Python reproduction of Jayaram, Woodruff & Zhou,
"Truly Perfect Samplers for Data Streams and Sliding Windows" (PODS 2022,
arXiv:2108.12017).

Quick start::

    import numpy as np
    from repro import TrulyPerfectLpSampler, zipf_stream

    stream = zipf_stream(n=256, m=10_000, alpha=1.2, seed=0)
    sampler = TrulyPerfectLpSampler(p=2.0, n=stream.n, seed=0)
    result = sampler.run(stream)
    if result.is_item:
        print("sampled index", result.item)

Package map (README.md's "Package map" section has the full table):

* :mod:`repro.core` — the paper's contribution: Framework 1.3, Lp / G /
  matrix / F0 samplers, multi-pass strict turnstile reductions.
* :mod:`repro.sliding_window` — Algorithms 4 & 6, windowed F0
  (count-based windows: "the last W updates" — the time-window samplers
  on the arrival clock).
* :mod:`repro.windows` — time-based sliding windows ("the last H
  seconds") at multiple resolutions, engine-integrated.
* :mod:`repro.random_order` — Algorithms 9 & 10.
* :mod:`repro.perfect` — γ > 0 baselines (Appendix B, JW18-style).
* :mod:`repro.sketches` — Misra-Gries, CountSketch, AMS, smooth
  histograms, sparse recovery, hashing.
* :mod:`repro.streams` — stream model, generators, ground truth.
* :mod:`repro.lowerbound` — Theorem 1.2's reduction, executable.
* :mod:`repro.stats` — exactness validation harness.
* :mod:`repro.lifecycle` — the unified sampler lifecycle: the
  :class:`StreamSampler` protocol (ingest / checkpoint / merge /
  compact / account), the versioned :class:`Snapshot` envelope, and
  the memory model behind ``approx_size_bytes()``.
* :mod:`repro.engine` — serving-grade layer: batched ingestion,
  mergeable/serializable sampler state, sharded engine with expiry
  compaction and merge watermarks, config-driven construction.
* :mod:`repro.serving` — the concurrent front door: shard-parallel
  ingest workers behind bounded queues with admission control, a
  lock-free query plane with per-reader RNG streams, thread and
  asyncio facades, and the ``repro-serve`` CLI.
* :mod:`repro.obs` — zero-dependency observability: labeled
  counters/gauges/log-bucketed histograms with Prometheus and JSON
  exposition, span tracing with a ring buffer and JSONL export, the
  metric catalog, and the ``promcheck`` format gate.

Engine quick start::

    from repro.engine import ShardedSamplerEngine, ingest

    engine = ShardedSamplerEngine(
        {"kind": "lp", "p": 2.0, "n": stream.n}, shards=8, seed=0
    )
    engine.ingest(stream.items)        # vectorized, hash-partitioned
    result = engine.sample()           # exact global Lp sample
"""

from repro.core import (
    BoundedMeasure,
    BoundedMeasureSampler,
    CauchyMeasure,
    ConcaveMeasure,
    FairMeasure,
    GemanMcClureMeasure,
    HuberMeasure,
    L1L2Measure,
    LpMeasure,
    Measure,
    SampleOutcome,
    SampleResult,
    TrulyPerfectF0Sampler,
    TrulyPerfectGSampler,
    TrulyPerfectLpSampler,
    TrulyPerfectMatrixSampler,
    TukeyMeasure,
    TukeySampler,
    WeightedL1Sampler,
    WeightedReservoir,
)
from repro.sliding_window import (
    SlidingWindowF0Sampler,
    SlidingWindowGSampler,
    SlidingWindowLpSampler,
)
from repro.windows import (
    TimeWindowF0Sampler,
    TimeWindowGSampler,
    TimeWindowLpSampler,
    WindowBank,
)
from repro.random_order import RandomOrderL2Sampler, RandomOrderLpSampler
from repro.streams import (
    Stream,
    TimestampedStream,
    TurnstileStream,
    uniform_stream,
    with_arrivals,
    zipf_stream,
)
from repro.engine import (
    BatchIngestor,
    MergeableState,
    ShardedSamplerEngine,
    Snapshot,
    StreamSampler,
    UniversePartitioner,
    WatermarkSkewError,
    build_measure,
    build_sampler,
    ingest,
    load_state,
    merged,
    save_state,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "Measure",
    "BoundedMeasure",
    "LpMeasure",
    "L1L2Measure",
    "FairMeasure",
    "HuberMeasure",
    "CauchyMeasure",
    "TukeyMeasure",
    "GemanMcClureMeasure",
    "ConcaveMeasure",
    "BoundedMeasureSampler",
    "WeightedReservoir",
    "WeightedL1Sampler",
    "SampleOutcome",
    "SampleResult",
    "TrulyPerfectGSampler",
    "TrulyPerfectLpSampler",
    "TrulyPerfectMatrixSampler",
    "TrulyPerfectF0Sampler",
    "TukeySampler",
    "SlidingWindowGSampler",
    "SlidingWindowLpSampler",
    "SlidingWindowF0Sampler",
    "TimeWindowGSampler",
    "TimeWindowLpSampler",
    "TimeWindowF0Sampler",
    "WindowBank",
    "RandomOrderL2Sampler",
    "RandomOrderLpSampler",
    "Stream",
    "TimestampedStream",
    "TurnstileStream",
    "uniform_stream",
    "with_arrivals",
    "zipf_stream",
    "BatchIngestor",
    "MergeableState",
    "StreamSampler",
    "Snapshot",
    "WatermarkSkewError",
    "ShardedSamplerEngine",
    "UniversePartitioner",
    "build_measure",
    "build_sampler",
    "ingest",
    "load_state",
    "merged",
    "save_state",
]
