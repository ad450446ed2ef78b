"""The unified sampler lifecycle: one protocol for every family.

Every sampler in the repo — whole-stream G/Lp/F0, count-based sliding
windows, time-based windows, window banks — shares one implicit
lifecycle: *ingest, checkpoint, merge, answer*.  :class:`StreamSampler`
makes that lifecycle explicit so the engine can drive any family
generically, without per-kind dispatch:

* ``update(item, ...)`` / ``update_batch(items, ...)`` — scalar and
  vectorized ingestion (timestamped families take an extra
  timestamp/timestamps argument);
* ``snapshot() -> dict`` / ``restore(state)`` — checkpoint as a plain
  tree (see :mod:`repro.lifecycle.codec`) and overwrite state in place;
* ``merge(other)`` — absorb a sampler fed a disjoint universe
  partition; families for which merging is mathematically undefined
  (count-based windows: "the last W updates" of a sharded stream has
  no global arrival order) implement the hook but raise ``ValueError``,
  and declare ``mergeable=False`` in the engine registry;
* ``compact(now=None) -> int`` — drop state that can never again
  influence an answer (expired window generations, stale timestamp
  tables), returning the approximate bytes reclaimed.  Passing ``now``
  *advances the sampler's clock watermark*: the sampler promises every
  future update arrives at ``ts ≥ now``, which is exactly what makes
  dropping expired state sound.  Samplers without a wall clock return 0;
* ``watermark() -> float | None`` — the sampler's clock high-water mark
  (the newest timestamp it has observed, via ingestion or ``compact``);
  ``None`` for families with no wall clock.  The sharded engine compares
  shard watermarks at merge time and surfaces skew beyond a tolerance
  instead of silently shifting window membership;
* ``approx_size_bytes() -> int`` — deterministic estimate of resident
  state (see :mod:`repro.lifecycle.memory`), the engine's memory
  accounting hook.

Two *query fast-path* conventions ride on the protocol without being
part of it (the engine probes them structurally):

* ``sample_many(k, **kwargs)`` — optional batched query hook; when
  present it must consume randomness exactly as ``k`` sequential
  ``sample`` calls would (the engine delegates batched queries to it,
  and falls back to a ``sample`` loop otherwise);
* ``compact`` must return a *positive* byte count whenever it changed
  any state that can influence an answer — the engine's merged-view
  cache keys invalidation on that signal;
* ``spawn_query_rng(rng) -> sampler`` — optional *query-view* hook for
  the serving layer (:mod:`repro.serving`): return a query-only clone
  of this sampler sharing (a copy of) its frozen state but drawing all
  query coins from ``rng`` instead of the live stream.  Concurrent
  readers each get their own view, making the query plane lock-free;
  the clone must answer exactly as the original would under a fresh
  independent coin sequence, and building it must not advance the
  original's RNG.  Families without the hook are served through the
  generic deep-copy-and-rebind fallback in :mod:`repro.lifecycle.rng`
  (:func:`~repro.lifecycle.rng.spawn_query_view`), which covers every
  sampler whose query randomness flows through ``np.random.Generator``
  attributes — implement the hook only when that structural walk is
  wrong or wasteful for your family.

:class:`MergeableState` is the original three-hook checkpoint protocol
(PR 1); it remains as the minimal contract :func:`supports_merge`
checks, and :class:`StreamSampler` extends it.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

__all__ = [
    "MergeableState",
    "StreamSampler",
    "WatermarkSkewError",
    "StaticLifecycleMixin",
    "supports_merge",
    "conforms",
    "missing_hooks",
]

#: The full lifecycle surface, in protocol order.
LIFECYCLE_HOOKS = (
    "update",
    "update_batch",
    "snapshot",
    "restore",
    "merge",
    "compact",
    "watermark",
    "approx_size_bytes",
)


@runtime_checkable
class MergeableState(Protocol):
    """Checkpointable, shippable, mergeable sampler state (the PR 1
    three-hook contract)."""

    def snapshot(self) -> dict: ...

    def restore(self, state: dict) -> None: ...

    def merge(self, other) -> None: ...


@runtime_checkable
class StreamSampler(MergeableState, Protocol):
    """The full sampler lifecycle: ingest, checkpoint, merge, compact,
    account.  See the module docstring for per-hook semantics."""

    def update(self, item, *args) -> None: ...

    def update_batch(self, items, *args) -> None: ...

    def compact(self, now: float | None = None) -> int: ...

    def watermark(self) -> float | None: ...

    def approx_size_bytes(self) -> int: ...


class WatermarkSkewError(ValueError):
    """Shard clocks disagree beyond the configured tolerance.

    Raised by :class:`repro.engine.ShardedSamplerEngine` when merging
    samplers whose ``watermark()`` values span more than the engine's
    ``max_watermark_skew`` — merging them anyway would silently shift
    window membership (an update near the boundary is "active" on one
    shard's clock and expired on another's).
    """


class StaticLifecycleMixin:
    """Default ``compact``/``watermark`` for samplers with no wall clock.

    Whole-stream samplers have nothing to expire — their state is
    already bounded by construction — and no clock to skew, so
    ``compact`` is a no-op and ``watermark`` is ``None``.  (Count
    windows get the same two hooks from their arrival clock.)
    """

    __slots__ = ()

    def compact(self, now: float | None = None) -> int:
        return 0

    def watermark(self) -> float | None:
        return None


def supports_merge(sampler) -> bool:
    """Whether the sampler implements the minimal MergeableState
    protocol (structurally — a ``merge`` hook that always raises still
    counts; the engine registry's ``mergeable`` trait records which
    kinds merge *meaningfully*)."""
    return isinstance(sampler, MergeableState)


def conforms(sampler) -> bool:
    """Whether the sampler implements the full StreamSampler lifecycle."""
    return isinstance(sampler, StreamSampler)


def missing_hooks(sampler) -> list[str]:
    """The lifecycle hooks the sampler does not implement (empty when it
    conforms) — for actionable conformance errors."""
    return [
        hook for hook in LIFECYCLE_HOOKS
        if not callable(getattr(sampler, hook, None))
    ]


def has_query_rng_hook(sampler) -> bool:
    """Whether the sampler implements the optional ``spawn_query_rng``
    query-view hook (see the module docstring); families without it are
    served through :func:`repro.lifecycle.rng.spawn_query_view`'s
    generic fallback."""
    return callable(getattr(sampler, "spawn_query_rng", None))
