"""The compiled pool ingest loop: build, cache, load, call.

``pool_kernel.c`` (next to this module) is :meth:`SamplerPool.update
<repro.core.g_sampler.SamplerPool.update>` written in C — the same
per-item rule, the same heap order, one uniform per heap event drawn
through the generator's own ``bit_generator.ctypes.next_double`` — so a
batched ingest leaves the pool, and its RNG, bitwise where the scalar
loop would.

The library builds on first use, with the compiler Python itself was
built with (``sysconfig``'s ``CC``), into a per-user cache keyed by a
hash of the source, the compiler and the platform
(``$XDG_CACHE_HOME/repro-kernels``, default ``~/.cache/repro-kernels``).
A finished build lands by atomic rename, so processes racing to build
it never load a partial file.  ``ctypes.CDLL`` releases the GIL for the
call: pools ingesting on different threads run their loops in parallel.

Without a working compiler, :func:`kernel_impl` reports ``"python"``,
batched ingest runs the scalar ``update()`` loop (the executable spec,
not a second kernel), and one :class:`RuntimeWarning` says so.  The
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

__all__ = ["bind_info", "kernel_impl", "run"]

#: The C source of the loop (shipped as package data).
_SOURCE = Path(__file__).with_name("pool_kernel.c")

#: numpy's ``bit_generator.ctypes.next_double`` type.
_NEXT_DOUBLE = ctypes.CFUNCTYPE(ctypes.c_double, ctypes.c_void_p)
_lock = threading.Lock()
_loaded = False
_fn = None


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
    global _loaded, _fn
    with _lock:
        if _loaded:
            return _fn
        try:
            fn = ctypes.CDLL(str(_build_library())).repro_pool_ingest
            fn.restype = ctypes.c_int64
            fn.argtypes = [
                ctypes.c_void_p, ctypes.c_int64, ctypes.c_int64, ctypes.c_int64,
                ctypes.c_int64, ctypes.c_void_p, _NEXT_DOUBLE, ctypes.c_void_p,
            ]
            _fn = fn
        except Exception as exc:  # no compiler, no writable cache, ...
            warnings.warn(
                f"repro: the compiled pool ingest kernel is unavailable "
                f"({type(exc).__name__}: {exc}); batched ingest runs the "
                "scalar update() loop",
                RuntimeWarning,
                stacklevel=3,
            )
        _loaded = True
        return _fn


def kernel_impl() -> str:
    """``"c"`` when the compiled loop runs batched ingest, else
    ``"python"`` (the scalar ``update()`` loop)."""
    return "python" if (_fn if _loaded else _load()) is None else "c"


def bind_info(registry) -> None:
    """Set ``repro_ingest_kernel_info{impl=...}`` to 1 in ``registry``."""
    registry.gauge(
        "repro_ingest_kernel_info",
        CATALOG_HELP["repro_ingest_kernel_info"],
        labels=("impl",),
    ).labels(impl=kernel_impl()).set(1)


def run(items: np.ndarray, t: int, r: int, state: array,
        rng: np.random.Generator) -> int:
    """Feed ``items`` (contiguous int64) to an ``r``-instance pool at
    position ``t`` through the compiled loop; returns the number of heap
    events.

    ``state`` is the pool's packed ``array("q")``, read and written in
    place: ``[tracked | slot, live, offsets, stamps (r each) | heap (2r,
    interleaved (time, idx) pairs) | keys, counts, refs (room each)]``,
    the first ``tracked`` key/count/ref rows in insertion order and
    ``room ≥ max(tracked, r)``.  Only call when :func:`kernel_impl` is
    ``"c"``."""
    room = (len(state) - 1 - 6 * r) // 3
    bitgen = rng.bit_generator
    iface = bitgen.ctypes
    with bitgen.lock:
        events = _fn(
            items.ctypes.data, items.size, t, r, room, state.buffer_info()[0],
            iface.next_double, iface.state,
        )
    if events == -2:
        raise MemoryError("no memory for the ingest kernel's item table")
    if events < 0:
        raise RuntimeError("pool state is inconsistent; nothing was ingested")
    return events
