"""The compiled pool loops: build, cache, load, call.

``pool_kernel.c`` (next to this module) works on the one int64 buffer a
:class:`~repro.core.g_sampler.SamplerPool` keeps its state in, an
``array("q")`` laid out as ``[tracked | slot, live, offsets, stamps (r
each) | heap (2r, interleaved (time, idx) pairs) | keys, counts, refs
(room each)]``, the first ``tracked`` key/count/ref rows in insertion
order.  The pool owns the buffer; this module only passes it to C:

* :func:`run` is :meth:`SamplerPool.update
  <repro.core.g_sampler.SamplerPool.update>` written in C — the same
  per-item rule, the same heap order, one uniform per heap event drawn
  through the generator's own ``bit_generator.ctypes.next_double`` — so
  a batched ingest leaves the pool, and its RNG, bitwise where the
  scalar loop would.  A time-window generation also hands it the
  chunk's arrival times and its per-instance wall-clock array, and each
  heap event stamps the adopted item's arrival time there;
* :func:`merge` builds a merged buffer from two pools, the pick coins
  and the redrawn wakes (the caller draws both, in the pool's order);
* :func:`forward_counts` reads each instance's forward count
  (``counts[item] − offset``, what ``finalize`` reports);
* :func:`check` validates a buffer's structure (what ``restore``
  runs on a snapshot; the other calls run it first too);
* :func:`count_union` is not a pool loop: it merges the sorted
  item-count tables a time-window Lp generation keeps beside its pool
  (:class:`repro.windows.time_window._SuffixLinf`).

The library builds on first use, with the compiler Python itself was
built with (``sysconfig``'s ``CC``), into a per-user cache keyed by a
hash of the source, the compiler and the platform
(``$XDG_CACHE_HOME/repro-kernels``, default ``~/.cache/repro-kernels``).
A finished build lands by atomic rename, so processes racing to build
it never load a partial file.  :func:`run` goes through ``ctypes.CDLL``,
which releases the GIL for the call: pools ingesting on different
threads run their loops in parallel.  The short calls (:func:`merge`,
:func:`forward_counts`, :func:`check`, :func:`count_union`) go through
``ctypes.PyDLL`` and keep the GIL, so they never wait to take it back.

Without a working compiler, :func:`kernel_impl` reports ``"python"``,
the pool runs its Python rules on the same buffer (batched ingest runs
the scalar ``update()`` loop, the executable spec, not a second
kernel), and one :class:`RuntimeWarning` says so.  The
``repro_ingest_kernel_info{impl=...}`` gauge shows which path runs.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import shlex
import subprocess
import sys
import sysconfig
import tempfile
import threading
import warnings
from array import array
from pathlib import Path

import numpy as np

from repro.obs.catalog import CATALOG_HELP

__all__ = [
    "bind_info", "check", "count_union", "forward_counts", "kernel_impl",
    "merge", "run",
]

#: The C source of the loop (shipped as package data).
_SOURCE = Path(__file__).with_name("pool_kernel.c")

#: numpy's ``bit_generator.ctypes.next_double`` type.
_NEXT_DOUBLE = ctypes.CFUNCTYPE(ctypes.c_double, ctypes.c_void_p)
_lock = threading.Lock()
_loaded = False
_lib = None  # the CDLL (GIL released): repro_pool_ingest
_short = None  # the PyDLL (GIL held): the O(R) calls


def _build_library() -> Path:
    """The cached library for the current source, building it if absent."""
    source = _SOURCE.read_bytes()
    cc = shlex.split(sysconfig.get_config_var("CC") or "cc")
    key = hashlib.sha256(
        b"\0".join(
            [source, " ".join(cc).encode(), sys.platform.encode(),
             platform.machine().encode()]
        )
    ).hexdigest()[:16]
    cache = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    out = Path(cache) / "repro-kernels" / f"pool_kernel-{key}.so"
    if out.exists():
        return out
    out.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=out.parent, suffix=".so.tmp")
    os.close(fd)
    try:
        proc = subprocess.run(
            [*cc, "-O2", "-shared", "-fPIC", "-o", tmp, str(_SOURCE), "-lm"],
            capture_output=True, text=True, timeout=120,
        )
        if proc.returncode:
            raise OSError(f"{cc[0]} failed: {proc.stderr.strip()[-500:]}")
        os.replace(tmp, out)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return out


def _load():
    global _loaded, _lib, _short
    with _lock:
        if _loaded:
            return _lib
        i64, ptr = ctypes.c_int64, ctypes.c_void_p
        try:
            path = str(_build_library())
            lib, short = ctypes.CDLL(path), ctypes.PyDLL(path)
            for dll, name, args in (
                (lib, "repro_pool_ingest",
                 [ptr, i64, i64, i64, i64, ptr, _NEXT_DOUBLE, ptr, ptr, ptr]),
                (short, "repro_pool_check", [i64, i64, ptr]),
                (short, "repro_pool_merge", [i64, i64, ptr, ptr, ptr, ptr, i64, ptr]),
                (short, "repro_pool_forward", [i64, i64, ptr, ptr]),
                (short, "repro_count_union",
                 [ptr, ptr, i64, ptr, ptr, i64, ptr, ptr, ptr]),
            ):
                fn = getattr(dll, name)
                fn.restype = i64
                fn.argtypes = args
            _lib, _short = lib, short
        except Exception as exc:  # no compiler, no writable cache, ...
            warnings.warn(
                f"repro: the compiled pool ingest kernel is unavailable "
                f"({type(exc).__name__}: {exc}); batched ingest runs the "
                "scalar update() loop, and merge and restore run in Python",
                RuntimeWarning,
                stacklevel=3,
            )
        _loaded = True
        return _lib


def kernel_impl() -> str:
    """``"c"`` when the compiled loops run the pool's batched ingest,
    merge, finals and structure check, else ``"python"`` (the scalar
    ``update()`` loop and the pool's Python rules)."""
    return "python" if (_lib if _loaded else _load()) is None else "c"


def bind_info(registry) -> None:
    """Set ``repro_ingest_kernel_info{impl=...}`` to 1 in ``registry``."""
    registry.gauge(
        "repro_ingest_kernel_info",
        CATALOG_HELP["repro_ingest_kernel_info"],
        labels=("impl",),
    ).labels(impl=kernel_impl()).set(1)


def _room(state: array, r: int) -> int:
    room = (len(state) - 1 - 6 * r) // 3
    if r < 1 or room < 0:
        raise ValueError(f"a buffer of {len(state)} cannot hold {r} instances")
    return room


def _address(state: array) -> int:
    return state.buffer_info()[0]


def _data(arr: np.ndarray) -> int:
    """The address of a contiguous array's data.  ``from_buffer`` costs
    a quarter of ``arr.ctypes`` but needs a writable, non-empty buffer."""
    if arr.flags.writeable and arr.size:
        return ctypes.addressof(ctypes.c_char.from_buffer(arr))
    return arr.ctypes.data


def _raise_for(code: int, what: str) -> None:
    if code == -2:
        raise MemoryError("no memory for the pool kernel's item table")
    if code < 0:
        raise RuntimeError(f"pool state is inconsistent; {what}")


def run(items: np.ndarray, t: int, r: int, state: array,
        rng: np.random.Generator, ts: np.ndarray | None = None,
        wall: np.ndarray | None = None) -> int:
    """Feed ``items`` (contiguous int64) to the ``r``-instance pool
    buffer ``state`` at position ``t``, in place; returns the number of
    heap events.  With ``ts`` (the items' arrival times, contiguous
    float64, one per item) and ``wall`` (contiguous float64, one per
    instance), each heap event also writes its item's arrival time to
    ``wall[idx]``, in place.  An inconsistent buffer raises
    :class:`RuntimeError` with ``state``, ``wall`` and ``rng``
    untouched.  The caller holds ``rng.bit_generator.lock`` when another
    thread may use ``rng``.  Only call when :func:`kernel_impl` is
    ``"c"``."""
    iface = rng.bit_generator.ctypes
    stamps = wall_at = None
    if wall is not None:
        if not (ts.size == items.size and wall.size == r
                and ts.dtype == wall.dtype == np.float64
                and ts.flags.c_contiguous and wall.flags.c_contiguous
                and wall.flags.writeable):
            raise ValueError("arrival stamps need contiguous float64 ts (one "
                             "per item) and a writable wall (one per instance)")
        stamps, wall_at = _data(ts), _data(wall)
    events = _lib.repro_pool_ingest(
        _data(items), items.size, t, r, _room(state, r), _address(state),
        iface.next_double, iface.state, stamps, wall_at,
    )
    _raise_for(events, "nothing was ingested")
    return events


def check(r: int, state: array) -> bool:
    """Whether ``state`` is a well-formed ``r``-instance pool buffer:
    tracked rows within room, live flags 0/1, heap slots a permutation
    of the instances, no key listed twice, and each key's refs equal to
    the live instances holding it.  Reads only."""
    code = _short.repro_pool_check(r, _room(state, r), _address(state))
    if code == -1:
        return False
    _raise_for(code, "")
    return True


def forward_counts(r: int, state: array) -> array:
    """Each instance's forward count, ``counts[item] − offset``, of the
    ``r``-instance pool buffer ``state`` (every instance must hold an
    item).  An inconsistent buffer raises :class:`RuntimeError`."""
    out = array("q", bytes(8 * r))
    code = _short.repro_pool_forward(r, _room(state, r), _address(state), _address(out))
    _raise_for(code, "no count was read")
    return out


def merge(r: int, mine: array, theirs: array, kept: np.ndarray,
          wakes: array, shift: int) -> array:
    """A new buffer holding the merge of pool buffers ``mine`` and
    ``theirs``: instance ``k`` is ``mine``'s where ``kept[k]`` (a bool
    array), else ``theirs``'s with its stamp shifted by ``shift``; the
    heap is ``(wakes[k], k)``.  Inconsistent inputs (or an empty picked
    instance) raise :class:`RuntimeError`; the inputs are only read."""
    kept = np.ascontiguousarray(kept, dtype=np.bool_)
    if not len(kept) == len(wakes) == r or len(theirs) != len(mine):
        raise ValueError("merge inputs differ in shape")
    out = array("q", bytes(8 * len(mine)))
    code = _short.repro_pool_merge(
        r, _room(mine, r), _address(mine), _address(theirs), kept.ctypes.data,
        _address(wakes), shift, _address(out),
    )
    _raise_for(code, "nothing was merged")
    return out


def count_union(keys: np.ndarray, counts: np.ndarray, more_keys: np.ndarray,
                more_counts: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray, int]:
    """The union of strictly ascending ``keys`` and ascending
    ``more_keys`` (whose keys may repeat), counts summed:
    ``(union keys, union counts, top)``, ``top`` the largest summed
    count among ``more_keys``'s keys (0 when it is empty).
    ``more_counts`` ``None`` counts each row of ``more_keys`` once.  All
    arrays are contiguous int64 and only read.  Only call when
    :func:`kernel_impl` is ``"c"``."""
    size = keys.size + more_keys.size
    out_keys = np.empty(size, dtype=np.int64)
    out_counts = np.empty(size, dtype=np.int64)
    top = ctypes.c_int64()
    m = _short.repro_count_union(
        _data(keys), _data(counts), keys.size, _data(more_keys),
        None if more_counts is None else _data(more_counts), more_keys.size,
        _data(out_keys), _data(out_counts), ctypes.byref(top),
    )
    return out_keys[:m].copy(), out_counts[:m].copy(), top.value
