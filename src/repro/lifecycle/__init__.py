"""repro.lifecycle — the unified sampler lifecycle.

One protocol, one snapshot envelope, one memory model for every sampler
family in the repo:

* :mod:`repro.lifecycle.protocol` — :class:`StreamSampler` (ingest /
  checkpoint / merge / compact / account), the legacy
  :class:`MergeableState` subset, conformance helpers, and
  :class:`WatermarkSkewError`;
* :mod:`repro.lifecycle.codec` — the plain-tree ↔ bytes codec
  (no-pickle, self-describing);
* :mod:`repro.lifecycle.envelope` — the versioned, kind-tagged
  :class:`Snapshot` envelope the engine ships;
* :mod:`repro.lifecycle.memory` — the deterministic size model behind
  ``approx_size_bytes()``;
* :mod:`repro.lifecycle.rng` — per-reader query RNG streams: spawn
  lock-free query views of a retained fold (the serving layer's
  concurrency primitive, with the optional ``spawn_query_rng`` hook).

The engine (:mod:`repro.engine`) is written against this surface only:
adding a sampler family means implementing :class:`StreamSampler` and
registering a kind — no engine changes.
"""

from repro.lifecycle.codec import state_from_bytes, state_to_bytes
from repro.lifecycle.envelope import ENVELOPE_VERSION, Snapshot
from repro.lifecycle.memory import (
    INSTANCE_BYTES,
    RNG_STATE_BYTES,
    mapping_bytes,
    ndarray_bytes,
    sequence_bytes,
    set_bytes,
)
from repro.lifecycle.protocol import (
    LIFECYCLE_HOOKS,
    MergeableState,
    StaticLifecycleMixin,
    StreamSampler,
    WatermarkSkewError,
    conforms,
    has_query_rng_hook,
    missing_hooks,
    supports_merge,
)
from repro.lifecycle.rng import (
    derive_reader_rng,
    generator_from_state,
    rebind_query_rngs,
    spawn_query_view,
)

__all__ = [
    "LIFECYCLE_HOOKS",
    "MergeableState",
    "StaticLifecycleMixin",
    "StreamSampler",
    "WatermarkSkewError",
    "conforms",
    "has_query_rng_hook",
    "missing_hooks",
    "supports_merge",
    "derive_reader_rng",
    "generator_from_state",
    "rebind_query_rngs",
    "spawn_query_view",
    "state_from_bytes",
    "state_to_bytes",
    "ENVELOPE_VERSION",
    "Snapshot",
    "INSTANCE_BYTES",
    "RNG_STATE_BYTES",
    "mapping_bytes",
    "ndarray_bytes",
    "sequence_bytes",
    "set_bytes",
]
