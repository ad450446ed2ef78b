"""repro.engine — the serving-grade ingestion layer.

The reference samplers in :mod:`repro.core` are per-item Python loops;
this subsystem turns them into a pipeline that moves at NumPy speed and
scales out without giving up the *truly perfect* guarantee:

* :mod:`repro.engine.batch` — chunked, vectorized ingestion
  (:func:`ingest`, :class:`BatchIngestor`) over the samplers'
  ``update_batch`` kernels;
* :mod:`repro.engine.state` — façade over :mod:`repro.lifecycle`: the
  :class:`StreamSampler` / :class:`MergeableState` protocols, the
  versioned :class:`Snapshot` envelope, and the no-pickle bytes codec
  for checkpointing and shipping sampler state;
* :mod:`repro.engine.partition` — deterministic vectorized universe
  partitioning;
* :mod:`repro.engine.shard` — :class:`ShardedSamplerEngine`, K shards
  merged into one exact global sample, with query/cadence expiry
  compaction, merge-time watermark-skew checks, and the query fast
  path: an epoch-keyed merged-view cache (a hit reuses the fold, any
  epoch change folds from scratch) plus batched ``sample_many`` queries;
* :mod:`repro.engine.registry` — :func:`build_sampler` /
  :func:`build_measure`, config-driven construction over a thin
  kind → :class:`KindSpec` table.
"""

from repro.engine.batch import (
    DEFAULT_CHUNK_SIZE,
    BatchIngestor,
    ingest,
    supports_batch,
)
from repro.engine.partition import UniversePartitioner
from repro.engine.registry import (
    KindSpec,
    build_measure,
    build_sampler,
    kind_spec,
    measure_names,
    register_measure,
    register_sampler,
    sampler_kinds,
)
from repro.engine.shard import FoldHandle, ShardedSamplerEngine
from repro.engine.state import (
    MergeableState,
    Snapshot,
    StreamSampler,
    load_state,
    merged,
    save_state,
    state_from_bytes,
    state_to_bytes,
    supports_merge,
)
from repro.lifecycle import WatermarkSkewError

__all__ = [
    "DEFAULT_CHUNK_SIZE",
    "BatchIngestor",
    "ingest",
    "supports_batch",
    "UniversePartitioner",
    "KindSpec",
    "build_measure",
    "build_sampler",
    "kind_spec",
    "measure_names",
    "register_measure",
    "register_sampler",
    "sampler_kinds",
    "FoldHandle",
    "ShardedSamplerEngine",
    "MergeableState",
    "StreamSampler",
    "Snapshot",
    "WatermarkSkewError",
    "load_state",
    "merged",
    "save_state",
    "state_from_bytes",
    "state_to_bytes",
    "supports_merge",
]
