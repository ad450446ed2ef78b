"""Per-reader query RNG streams — the serving layer's answer to the
PR 4 determinism caveat.

A retained fold (:func:`repro.engine.state.merged` output, or the
sharded engine's merged-view cache) freezes its *state* between refolds,
but every query advances its private RNG stream.  One fold therefore
cannot serve concurrent readers lock-free: two threads racing on the
same ``Generator`` corrupt the stream (and with it the determinism
contract).  Two resolutions, both built here:

* **locked, single-stream** — serialize draws on the shared fold.
  Bitwise identical to the single-threaded query sequence; the
  serving layer's replay/debug mode.
* **per-reader streams** — give each reader its own *query view* of the
  fold: a deep copy whose every query RNG is rebound to a fresh,
  independently seeded stream.  The view's non-RNG state never changes
  (queries only draw coins), so a reader can serve unboundedly many
  lock-free queries off one view until the fold itself is replaced.
  Each reader's answer sequence is exactly target-distributed and
  deterministic given ``(fold state, reader seed)``; what is *not*
  reproduced is the single-stream interleaving — that is what the
  locked mode is for.

Samplers may implement the optional ``spawn_query_rng(rng)`` lifecycle
hook (see :mod:`repro.lifecycle.protocol`) to control how a query view
is built — e.g. :class:`repro.windows.WindowBank` re-derives one child
stream per member.  :func:`spawn_query_view` prefers the hook and falls
back to the generic deep-copy-and-rebind below, which handles any
sampler whose query randomness flows through ``np.random.Generator``
attributes (every family in this repo).
"""

from __future__ import annotations

import copy

import numpy as np

from repro.lifecycle.protocol import has_query_rng_hook

__all__ = [
    "derive_reader_rng",
    "generator_from_state",
    "rebind_query_rngs",
    "spawn_query_view",
]


def derive_reader_rng(
    seed: int | None, generation: int, reader: int
) -> np.random.Generator:
    """An independent, deterministic stream for one reader of one fold
    generation.

    Streams for distinct ``(seed, generation, reader)`` triples are
    statistically independent (SeedSequence children), and the whole
    family is reproducible from the service seed alone.
    """
    root = 0 if seed is None else int(seed)
    return np.random.default_rng(
        np.random.SeedSequence([root, int(generation), int(reader)])
    )


#: The bit generators a saved state may name.
_BIT_GENERATORS = {
    cls.__name__: cls
    for cls in (
        np.random.PCG64,
        np.random.PCG64DXSM,
        np.random.MT19937,
        np.random.Philox,
        np.random.SFC64,
    )
}

#: Seed material for bit generators whose state is overwritten at once:
#: a fixed sequence skips ``default_rng()``'s OS-entropy read.
_PLACEHOLDER_SEED = np.random.SeedSequence(0)


def generator_from_state(state: dict) -> np.random.Generator:
    """A ``Generator`` positioned exactly at ``state`` (a
    ``bit_generator.state`` dict, e.g. from a snapshot): it continues
    the saved stream bitwise.  Builds one bit generator from fixed seed
    material instead of seeding from OS entropy and overwriting."""
    name = state.get("bit_generator") if isinstance(state, dict) else None
    cls = _BIT_GENERATORS.get(name)
    if cls is None:
        raise ValueError(f"unsupported RNG state for bit generator {name!r}")
    bit_generator = cls(_PLACEHOLDER_SEED)
    bit_generator.state = state
    return np.random.Generator(bit_generator)


#: Values the walker never descends into (bulk data and scalars).
_LEAF_TYPES = (np.ndarray, str, bytes, int, float, bool, complex)


def rebind_query_rngs(obj, rng: np.random.Generator) -> int:
    """Walk ``obj``'s object graph and rebind every
    ``np.random.Generator`` to ``rng``; returns how many bindings were
    replaced.

    Aliased generators (e.g. ``TrulyPerfectGSampler._rng`` is its pool's
    ``_rng``) all rebind to the *same* new generator, preserving the
    alias structure.  Containers (lists/dicts/tuples/sets of
    sub-samplers, arbitrarily nested — a bank's member tables, a list of
    ``(bucket, pool)`` pairs) are traversed as graph nodes in their own
    right, and generators held *directly* in a mutable container
    (list element, dict value) are rebound in place; generators inside
    tuples or sets cannot be (immutability / identity), so those are
    counted in the walk but left to the owning family's own
    ``spawn_query_rng`` hook.  Leaf data (NumPy arrays, scalars,
    strings) is never descended into.  Mutate only objects you own —
    this is meant for the private deep copy made by
    :func:`spawn_query_view`.
    """
    replaced = 0
    seen: set[int] = set()
    stack = [obj]

    def visit(value):
        if value is None or isinstance(value, _LEAF_TYPES):
            return
        stack.append(value)

    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if isinstance(node, np.random.Generator):
            continue  # reached via a container we cannot rewrite
        if isinstance(node, list):
            for i, child in enumerate(node):
                if isinstance(child, np.random.Generator):
                    if child is not rng:
                        node[i] = rng
                        replaced += 1
                else:
                    visit(child)
            continue
        if isinstance(node, dict):
            for key, child in node.items():
                if isinstance(child, np.random.Generator):
                    if child is not rng:
                        node[key] = rng
                        replaced += 1
                else:
                    visit(child)
            continue
        if isinstance(node, (tuple, set, frozenset)):
            for child in node:
                visit(child)
            continue
        slots = []
        d = getattr(node, "__dict__", None)
        if d is not None:
            slots.extend(d.keys())
        for klass in type(node).__mro__:
            slots.extend(getattr(klass, "__slots__", ()))
        for name in slots:
            try:
                value = getattr(node, name)
            except AttributeError:
                continue
            if isinstance(value, np.random.Generator):
                if value is not rng:
                    setattr(node, name, rng)
                    replaced += 1
                continue
            if isinstance(value, (dict, list, tuple, set, frozenset)):
                visit(value)
                continue
            if value is not None and (
                type(value).__module__ or ""
            ).startswith("repro."):
                stack.append(value)
    return replaced


def spawn_query_view(sampler, rng: np.random.Generator):
    """A private query view of ``sampler``: same frozen state, its own
    RNG stream.

    Prefers the sampler's optional ``spawn_query_rng(rng)`` hook; falls
    back to a deep copy with every reachable query generator rebound to
    ``rng``.  The original sampler — and its RNG stream — is never
    touched, so spawning views does not perturb the locked-mode (or
    direct-engine) coin sequence.

    The view is for *queries only*: ingesting into it would advance a
    replaced RNG stream and desynchronize any shared-randomness
    structure the family maintains (it would also mutate state the
    other views believe frozen).
    """
    if has_query_rng_hook(sampler):
        return sampler.spawn_query_rng(rng)
    view = copy.deepcopy(sampler)
    rebind_query_rngs(view, rng)
    return view
