"""Deterministic memory accounting for ``approx_size_bytes()``.

The lifecycle's memory hook answers "roughly how many bytes does this
sampler hold resident?" for capacity planning and for the compaction
benchmarks.  The numbers are a *model*, not ``sys.getsizeof`` truth:
CPython's actual footprint varies by version, small-int caching, and
dict load factor, none of which should leak into tests or benchmarks.
The model is deliberately simple and stable —

* a boxed Python object slot (int/float in a container) ≈ one header +
  payload: 32 bytes;
* a dict entry ≈ key slot + value slot + table overhead: 104 bytes;
* a set entry ≈ element slot + table overhead: 72 bytes;
* a list/tuple element ≈ one pointer + its boxed target: 40 bytes;
* a NumPy array ≈ its buffer + a fixed header;
* an RNG (Generator + BitGenerator state) ≈ 128 bytes;
* a Python instance shell ≈ 64 bytes.

A :class:`~repro.core.g_sampler.SamplerPool` holds its whole state in
one int64 buffer, so it counts as that buffer (an array: 8 bytes per
slot + the header) plus its shell and RNG — a fixed size per instance
count, however many items it tracks.

What matters downstream is monotonicity (more entries → more bytes) and
rough proportionality, both of which the model gives exactly.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "INSTANCE_BYTES",
    "RNG_STATE_BYTES",
    "mapping_bytes",
    "set_bytes",
    "sequence_bytes",
    "ndarray_bytes",
]

#: A Python instance shell (object header + slot/dict pointers).
INSTANCE_BYTES = 64

#: A ``numpy.random.Generator`` plus its BitGenerator state.
RNG_STATE_BYTES = 128

_DICT_ENTRY = 104
_SET_ENTRY = 72
_SEQ_ENTRY = 40
_DICT_BASE = 64
_SET_BASE = 64
_SEQ_BASE = 56
_NDARRAY_BASE = 112


def mapping_bytes(entries: int) -> int:
    """Approximate bytes of a dict with ``entries`` scalar entries."""
    return _DICT_BASE + _DICT_ENTRY * int(entries)


def set_bytes(entries: int) -> int:
    """Approximate bytes of a set with ``entries`` scalar elements."""
    return _SET_BASE + _SET_ENTRY * int(entries)


def sequence_bytes(length: int) -> int:
    """Approximate bytes of a list/tuple of ``length`` scalars."""
    return _SEQ_BASE + _SEQ_ENTRY * int(length)


def ndarray_bytes(arr: np.ndarray) -> int:
    """Approximate bytes of a NumPy array (buffer + header)."""
    return _NDARRAY_BASE + int(arr.nbytes)
