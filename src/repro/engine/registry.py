"""Config-driven sampler construction — a thin kind → spec table.

Apps, examples, benchmarks, and the shard coordinator all need samplers
built from declarative descriptions rather than hand-written constructor
calls — a config dict travels over the wire, a constructor call does
not.  Two factories:

* ``build_measure({"name": "huber", "tau": 2.0})`` → a ``Measure``;
* ``build_sampler({"kind": "lp", "p": 2.0, "n": 4096, "seed": 7})`` →
  a ready sampler.

Both validate eagerly: unknown kinds and unknown keys raise ``ValueError``
listing the alternatives, so a typo'd config fails at build time, not as
a silently-default sampler.  ``register_sampler`` / ``register_measure``
extend the registries (plug-in measures, experimental samplers) without
touching this module.

Every registered kind builds a :class:`repro.lifecycle.StreamSampler`,
and the per-kind knowledge the engine needs beyond construction lives
here as declarative :class:`KindSpec` traits rather than as engine-side
dispatch:

* ``shared_shard_seed`` — shard copies must be constructed from the
  *same* seed so their shared randomness (random subsets S, min-hash
  oracles) lines up for merging;
* ``mergeable`` — whether ``merge`` is mathematically meaningful for
  the family (count-based windows implement the hook but always raise:
  "the last W updates" of a sharded stream has no global arrival order);
* ``shard_config`` — an optional config rewrite applied once per engine
  (e.g. ``window_bank`` derives one shared ``f0_seed`` for its F0
  members while its pool members keep independent per-shard seeds).
"""

from __future__ import annotations

import difflib
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from repro.core.f0_sampler import (
    Algorithm5F0Sampler,
    BoundedMeasureSampler,
    RandomOracleF0Sampler,
    TrulyPerfectF0Sampler,
)
from repro.core.g_sampler import SamplerPool, TrulyPerfectGSampler
from repro.core.lp_sampler import TrulyPerfectLpSampler
from repro.core.measures import (
    BoundedMeasure,
    CauchyMeasure,
    FairMeasure,
    GemanMcClureMeasure,
    HuberMeasure,
    L1L2Measure,
    LpMeasure,
    Measure,
    TukeyMeasure,
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

__all__ = [
    "KindSpec",
    "build_measure",
    "build_sampler",
    "kind_spec",
    "register_measure",
    "register_sampler",
    "sampler_kinds",
    "measure_names",
    "SHARD_SHARED_SEED_KINDS",
]


@dataclass(frozen=True)
class KindSpec:
    """Everything the engine knows about a sampler kind, declaratively."""

    build: Callable[[dict], object]
    shared_shard_seed: bool = False
    mergeable: bool = True
    shard_config: Callable[[dict, int | None], dict] | None = None


def _unknown_name_error(role: str, name, known: tuple[str, ...]) -> ValueError:
    """A loud, actionable error for a typo'd registry name: lists every
    registered alternative and, when one is close, suggests it."""
    message = f"unknown {role} {name!r}; known: {', '.join(known)}"
    if isinstance(name, str):
        close = difflib.get_close_matches(name, known, n=1)
        if close:
            message += f" (did you mean {close[0]!r}?)"
    return ValueError(message)


def _measure_lp(cfg: dict) -> Measure:
    return LpMeasure(float(cfg.pop("p")))


def _measure_with_tau(cls: type, default: float) -> Callable[[dict], Measure]:
    def build(cfg: dict) -> Measure:
        return cls(float(cfg.pop("tau", default)))

    return build


_MEASURES: dict[str, Callable[[dict], Measure]] = {
    "lp": _measure_lp,
    "l1l2": lambda cfg: L1L2Measure(),
    "fair": _measure_with_tau(FairMeasure, 1.0),
    "huber": _measure_with_tau(HuberMeasure, 1.0),
    "cauchy": _measure_with_tau(CauchyMeasure, 1.0),
    "tukey": _measure_with_tau(TukeyMeasure, 5.0),
    # Geman–McClure has no shape parameter (G(x) = (x²/2)/(1+x²)).
    "geman-mcclure": lambda cfg: GemanMcClureMeasure(),
}


def measure_names() -> tuple[str, ...]:
    return tuple(sorted(_MEASURES))


def register_measure(name: str, builder: Callable[[dict], Measure]) -> None:
    """Add a measure builder; ``builder(cfg)`` must ``pop`` every key it
    consumes (leftover keys are reported as errors)."""
    _MEASURES[name] = builder


def build_measure(spec) -> Measure:
    """Build a measure from ``{"name": ..., **params}`` (a ``Measure``
    instance passes through unchanged)."""
    if isinstance(spec, Measure):
        return spec
    if not isinstance(spec, dict):
        raise TypeError(f"measure spec must be a dict or Measure, got {type(spec).__name__}")
    cfg = dict(spec)
    name = cfg.pop("name", None)
    if name not in _MEASURES:
        raise _unknown_name_error("measure", name, measure_names())
    try:
        measure = _MEASURES[name](cfg)
    except KeyError as missing:
        raise ValueError(
            f"measure {name!r} requires key {missing}"
        ) from None
    if cfg:
        raise ValueError(f"unknown keys for measure {name!r}: {sorted(cfg)}")
    return measure


def _pop_common(cfg: dict) -> dict:
    return {
        "delta": float(cfg.pop("delta", 0.05)),
        "seed": cfg.pop("seed", None),
    }


def _build_g(cfg: dict):
    common = _pop_common(cfg)
    return TrulyPerfectGSampler(
        build_measure(cfg.pop("measure")),
        instances=cfg.pop("instances", None),
        m_hint=cfg.pop("m_hint", None),
        **common,
    )


def _build_lp(cfg: dict):
    common = _pop_common(cfg)
    return TrulyPerfectLpSampler(
        p=float(cfg.pop("p")),
        n=int(cfg.pop("n")),
        m_hint=cfg.pop("m_hint", None),
        instances=cfg.pop("instances", None),
        **common,
    )


def _build_f0(cfg: dict):
    common = _pop_common(cfg)
    return TrulyPerfectF0Sampler(n=int(cfg.pop("n")), **common)


def _build_oracle_f0(cfg: dict):
    return RandomOracleF0Sampler(n=int(cfg.pop("n")), seed=cfg.pop("seed", None))


def _build_algorithm5_f0(cfg: dict):
    return Algorithm5F0Sampler(n=int(cfg.pop("n")), seed=cfg.pop("seed", None))


def _build_pool(cfg: dict):
    return SamplerPool(instances=int(cfg.pop("instances")), seed=cfg.pop("seed", None))


def _build_bounded(cfg: dict):
    common = _pop_common(cfg)
    measure = build_measure(cfg.pop("measure"))
    if not isinstance(measure, BoundedMeasure):
        raise ValueError(
            f"kind 'bounded' needs a bounded measure, got {measure.name}"
        )
    return BoundedMeasureSampler(
        measure, n=int(cfg.pop("n")), oracle=bool(cfg.pop("oracle", True)), **common
    )


def _build_sw_g(cfg: dict):
    common = _pop_common(cfg)
    return SlidingWindowGSampler(
        build_measure(cfg.pop("measure")),
        window=int(cfg.pop("window")),
        instances=cfg.pop("instances", None),
        **common,
    )


def _build_sw_lp(cfg: dict):
    common = _pop_common(cfg)
    return SlidingWindowLpSampler(
        p=float(cfg.pop("p")),
        window=int(cfg.pop("window")),
        instances=cfg.pop("instances", None),
        **common,
    )


def _build_sw_f0(cfg: dict):
    common = _pop_common(cfg)
    return SlidingWindowF0Sampler(
        n=int(cfg.pop("n")), window=int(cfg.pop("window")), **common
    )


def _build_tw_g(cfg: dict):
    common = _pop_common(cfg)
    return TimeWindowGSampler(
        build_measure(cfg.pop("measure")),
        horizon=float(cfg.pop("horizon")),
        instances=cfg.pop("instances", None),
        expected_window_count=cfg.pop("expected_window_count", None),
        **common,
    )


def _build_tw_lp(cfg: dict):
    common = _pop_common(cfg)
    return TimeWindowLpSampler(
        p=float(cfg.pop("p")),
        horizon=float(cfg.pop("horizon")),
        instances=cfg.pop("instances", None),
        expected_window_count=cfg.pop("expected_window_count", None),
        **common,
    )


def _build_tw_f0(cfg: dict):
    common = _pop_common(cfg)
    return TimeWindowF0Sampler(
        n=int(cfg.pop("n")), horizon=float(cfg.pop("horizon")), **common
    )


def _build_window_bank(cfg: dict):
    common = _pop_common(cfg)
    measure = cfg.pop("measure", None)
    return WindowBank(
        cfg.pop("resolutions"),
        measure=build_measure(measure) if measure is not None else None,
        p=cfg.pop("p", None),
        n=cfg.pop("n", None),
        instances=cfg.pop("instances", None),
        expected_rate=cfg.pop("expected_rate", None),
        f0_seed=cfg.pop("f0_seed", None),
        **common,
    )


def _window_bank_shard_config(config: dict, seed: int | None) -> dict:
    """A bank's F0 members merge only when their random subsets match
    across shards; pool members still want independent per-shard seeds.
    Derive one shared ``f0_seed`` from the engine seed so a sharded bank
    works out of the box."""
    if config.get("n") is not None and config.get("f0_seed") is None:
        config = dict(config)
        config["f0_seed"] = int(
            np.random.default_rng(np.random.SeedSequence(seed)).integers(2**31)
        )
    return config


_SAMPLERS: dict[str, KindSpec] = {
    "g": KindSpec(_build_g),
    "lp": KindSpec(_build_lp),
    "f0": KindSpec(_build_f0, shared_shard_seed=True),
    "oracle-f0": KindSpec(_build_oracle_f0, shared_shard_seed=True),
    "algorithm5-f0": KindSpec(_build_algorithm5_f0, shared_shard_seed=True),
    "pool": KindSpec(_build_pool),
    "bounded": KindSpec(_build_bounded, shared_shard_seed=True),
    "sw-g": KindSpec(_build_sw_g, mergeable=False),
    "sw-lp": KindSpec(_build_sw_lp, mergeable=False),
    "sw-f0": KindSpec(_build_sw_f0, mergeable=False),
    "tw_g": KindSpec(_build_tw_g),
    "tw_lp": KindSpec(_build_tw_lp),
    "tw_f0": KindSpec(_build_tw_f0, shared_shard_seed=True),
    "window_bank": KindSpec(_build_window_bank, shard_config=_window_bank_shard_config),
}

#: Stock sampler kinds whose shard copies must be constructed from the
#: *same* seed — derived from the spec table (single source of truth:
#: the per-kind ``shared_shard_seed`` trait, which is what the engine
#: reads; this constant is a convenience view over the built-in kinds
#: and does not track later ``register_sampler`` calls).  ``window_bank``
#: is deliberately absent — its F0 members share via the ``f0_seed``
#: key its ``shard_config`` hook derives.
SHARD_SHARED_SEED_KINDS = frozenset(
    kind for kind, spec in _SAMPLERS.items() if spec.shared_shard_seed
)


def sampler_kinds() -> tuple[str, ...]:
    return tuple(sorted(_SAMPLERS))


def register_sampler(
    kind: str,
    builder: Callable[[dict], object],
    *,
    shared_shard_seed: bool = False,
    mergeable: bool = True,
    shard_config: Callable[[dict, int | None], dict] | None = None,
) -> None:
    """Add a sampler kind; ``builder(cfg)`` must ``pop`` every key it
    consumes (leftover keys are reported as errors).  The keyword traits
    feed the sharded engine — see :class:`KindSpec`.

    To serve behind :class:`~repro.engine.ShardedSamplerEngine`, the
    built sampler must implement the full
    :class:`repro.lifecycle.StreamSampler` protocol (since PR 3 that
    includes ``update_batch``, ``compact``, ``watermark``, and
    ``approx_size_bytes`` on top of the original checkpoint hooks —
    inherit :class:`repro.lifecycle.StaticLifecycleMixin` for the
    no-wall-clock defaults); plain :func:`build_sampler` use has no such
    requirement.  Two query-fast-path contracts the engine additionally
    relies on: ``compact`` must return a *positive* byte count whenever
    it changed any state that can influence an answer (the engine keys
    merged-view cache invalidation on it), and an optional vectorized
    ``sample_many(k, **kwargs)`` — when present — must draw exactly as
    ``k`` sequential ``sample`` calls would (the engine delegates
    batched queries to it)."""
    _SAMPLERS[kind] = KindSpec(
        builder,
        shared_shard_seed=shared_shard_seed,
        mergeable=mergeable,
        shard_config=shard_config,
    )


def kind_spec(kind) -> KindSpec:
    """The :class:`KindSpec` for a registered kind (loud on typos)."""
    try:
        return _SAMPLERS[kind]
    except KeyError:
        raise _unknown_name_error("sampler kind", kind, sampler_kinds()) from None


def build_sampler(config: dict):
    """Build a sampler from a config dict, e.g.::

        build_sampler({"kind": "lp", "p": 2.0, "n": 4096, "seed": 7})
        build_sampler({"kind": "g", "measure": {"name": "huber"}, "seed": 0})
        build_sampler({"kind": "sw-f0", "n": 1024, "window": 500})

    The ``kind`` key selects the builder; every other key is passed to
    the sampler's constructor.  Unknown kinds and leftover keys raise
    ``ValueError``.
    """
    if not isinstance(config, dict):
        raise TypeError(f"sampler config must be a dict, got {type(config).__name__}")
    cfg = dict(config)
    kind = cfg.pop("kind", None)
    spec = kind_spec(kind)
    try:
        sampler = spec.build(cfg)
    except KeyError as missing:
        raise ValueError(
            f"sampler kind {kind!r} requires key {missing}"
        ) from None
    if cfg:
        raise ValueError(f"unknown keys for sampler kind {kind!r}: {sorted(cfg)}")
    return sampler
