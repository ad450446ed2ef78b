"""Checkpoint / ship / merge sampler state — the engine's state façade.

The substance lives in :mod:`repro.lifecycle` now: the
:class:`~repro.lifecycle.StreamSampler` protocol (of which
:class:`MergeableState` is the minimal checkpointing subset), the plain
tree ↔ bytes codec, and the versioned :class:`~repro.lifecycle.Snapshot`
envelope.  This module re-exports that surface under its original PR 1
names and keeps the two conveniences the rest of the repo uses:

* :func:`save_state` / :func:`load_state` — envelope-aware bytes
  round-trip for any sampler (``save_state`` writes the kind-tagged
  :class:`Snapshot` envelope; ``load_state`` accepts enveloped *and*
  legacy pre-envelope buffers — see the envelope module for the
  migration story);
* :func:`merged` — fold mergeable samplers without touching the inputs.

Merging preserves true perfection because every merged ingredient is
certified, never estimated: uniform positions mix by substream length,
forward counts are partition-local, and normalizers take the max over
shards.
"""

from __future__ import annotations

import copy

from repro.lifecycle.codec import state_from_bytes, state_to_bytes
from repro.lifecycle.envelope import Snapshot
from repro.lifecycle.protocol import MergeableState, StreamSampler, fold_samplers, supports_merge

__all__ = [
    "MergeableState",
    "StreamSampler",
    "Snapshot",
    "supports_merge",
    "state_to_bytes",
    "state_from_bytes",
    "save_state",
    "load_state",
    "merged",
]


def save_state(sampler) -> bytes:
    """Checkpoint ``sampler`` as an enveloped bytes buffer
    (``Snapshot.capture(sampler).to_bytes()``)."""
    return Snapshot.capture(sampler).to_bytes()


def load_state(sampler, buf: bytes) -> None:
    """Restore ``sampler`` from :func:`save_state` output (enveloped) or
    from a legacy raw-tree buffer."""
    Snapshot.from_bytes(buf).restore_into(sampler)


def merged(samplers):
    """Fold a sequence of mergeable samplers into a fresh merged sampler,
    leaving the inputs untouched: one sampler is deep-copied, more go
    through :func:`~repro.lifecycle.protocol.fold_samplers` (the kind's
    ``fold``: one K-way pick per pool for the pool-backed kinds, a copy
    of the first plus pairwise ``merge`` calls for the others).

    **RNG / determinism contract.**  The fold's RNG stream begins as a
    copy of the first input's RNG state at fold time and is advanced by
    the fold's draws; from then on it belongs to the merged view alone.
    Each pool (a window generation's from a copy of its first
    contributing shard's stream) draws one block of ``R`` pick coins and
    one block of ``R`` wakes redrawn at the merged length, whatever the
    shard count: two shards fold bitwise as the pairwise ``merge``, and
    a fold where no shard past the first holds an item draws nothing.
    Queries against the fold draw successive coins from that private
    stream — they never re-seed from the live input's RNG — so a
    *retained* fold answers repeated queries with fresh, deterministic
    draws, while *re-folding* before every query resets the stream and
    replays the same coins until the inputs ingest again.
    :class:`~repro.engine.ShardedSamplerEngine` builds its merged-view
    cache on the retained-fold behavior: it keeps one ``merged(...)``
    fold while no shard's epoch moves and calls ``merged(...)`` afresh
    when any does, so its first query after any refold is bitwise
    identical to a fresh ``merged(...)`` query of the same shard states,
    and later cache-hit queries continue the fold's stream.
    """
    samplers = list(samplers)
    if not samplers:
        raise ValueError("nothing to merge")
    if len(samplers) == 1:
        return copy.deepcopy(samplers[0])
    return fold_samplers(samplers)
