"""The metrics core: Counter / Gauge / Histogram in a labeled registry.

Design constraints, in order:

* **Lock-cheap observation.**  Every observation is one short critical
  section on the instrument's own lock — an add (counters/gauges) or a
  bucket add + sum/count update (histograms).  No allocation, no
  iteration, no shared registry lock on the hot path.  Label resolution
  (``family.labels(tenant="a")``) does take the family lock, so hot
  paths resolve their child once and hold it.
* **No-op when disabled.**  A registry built with ``enabled=False``
  hands out one shared :data:`NOOP` instrument for everything: every
  method is a ``pass``, reads return zero, and nothing registers — so
  instrumented code costs a flag check and the bitwise-determinism
  contracts and perf gates are untouched.  Callers that time an
  operation should guard the clock reads on ``instrument.enabled``.
* **One store per count.**  A count some component already keeps (a
  queue's applied items, an executor's refreshes) is not written a
  second time: its counter child reads it through
  :meth:`Counter.add_function`, so disabling the registry removes the
  exposition and changes no arithmetic.
* **Exact under concurrency.**  Increments are never lost: the
  thread-safety test hammers one counter and one histogram from many
  threads and asserts exact totals.

Histograms are **fixed-boundary log-bucketed**: boundaries form a
geometric series (:func:`log_buckets`), observation is a ``bisect``
into the frozen boundary tuple, and p50/p90/p99 come from the bucket
counts by linear interpolation inside the quantile's bucket — accurate
to one bucket's width (a factor of the series ratio), which is the
standard latency-histogram trade.

**Registries.**  :class:`MetricsRegistry` maps names to instrument
*families* (get-or-create, so independent components share one family
by naming it identically) and renders the whole collection as
Prometheus text format 0.0.4 (:meth:`~MetricsRegistry.render_prometheus`)
or JSON (:meth:`~MetricsRegistry.render_json`).  A process-global
default registry serves components with no better home;
:func:`use_registry` installs a different current registry for a scope
(thread-local), which is how a :class:`~repro.serving.SamplerService`
routes the window/engine metrics of the samplers it builds into its
own per-service registry.

Registries and instruments deliberately survive ``copy.deepcopy`` as
*shared references*: samplers hold instrument handles, and samplers get
deep-copied into query folds and per-reader views — a copy that forked
the counters would silently split the numbers.
"""

from __future__ import annotations

import json
import math
import threading
from bisect import bisect_left
from contextlib import contextmanager

__all__ = [
    "NOOP",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "current_registry",
    "log_buckets",
    "quantile_from_counts",
    "set_default_registry",
    "use_registry",
]


def log_buckets(lo: float, hi: float, factor: float = 2.0) -> tuple[float, ...]:
    """Geometric bucket boundaries ``lo, lo*factor, ...`` up to and
    including the first boundary ≥ ``hi`` — the fixed-boundary
    log-bucket ladder histograms observe into."""
    if lo <= 0 or hi <= lo:
        raise ValueError(f"need 0 < lo < hi, got lo={lo}, hi={hi}")
    if factor <= 1.0:
        raise ValueError(f"factor must be > 1, got {factor}")
    out = [float(lo)]
    while out[-1] < hi:
        out.append(out[-1] * factor)
    return tuple(out)


#: Default latency ladder: 1 µs … ~16.8 s, factor 2 (25 boundaries).
LATENCY_BUCKETS = log_buckets(1e-6, 16.0, 2.0)
#: Default size/count ladder: 1 … ~1M, factor 4 (11 boundaries).
SIZE_BUCKETS = log_buckets(1.0, 1 << 20, 4.0)

_TYPE_BUCKETS = {"histogram": LATENCY_BUCKETS}


def _fmt_value(v: float) -> str:
    """Prometheus sample-value formatting: integers render bare, floats
    via repr (full precision round-trips)."""
    f = float(v)
    if math.isinf(f):
        return "+Inf" if f > 0 else "-Inf"
    if math.isnan(f):
        return "NaN"
    if f.is_integer() and abs(f) < 1e15:
        return str(int(f))
    return repr(f)


def _escape_label(v: str) -> str:
    return v.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _escape_help(v: str) -> str:
    return v.replace("\\", "\\\\").replace("\n", "\\n")


class _SharedIdentity:
    """Mixin: copies and deep-copies return *self* (see module docstring
    — instruments ride inside deep-copied samplers and must stay
    shared)."""

    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        return self


class Counter(_SharedIdentity):
    """A monotonically increasing counter (one labeled child): what it
    counted itself plus what its sources (:meth:`add_function`) report."""

    __slots__ = ("_lock", "_value", "_fns")
    enabled = True

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0
        self._fns = ()

    def inc(self) -> None:
        with self._lock:
            self._value += 1.0

    def add(self, n: float) -> None:
        if n < 0:
            raise ValueError(f"counters only go up, got add({n})")
        with self._lock:
            self._value += n

    def _merge_to(self, value: float) -> None:
        """Telemetry-merge setter: adopt a remotely-computed cumulative
        total, clamped monotone (the merger's generation base accounting
        should already guarantee it never goes down; the clamp makes a
        reordered ship harmless instead of a regression)."""
        with self._lock:
            if value > self._value:
                self._value = float(value)

    def add_function(self, fn) -> None:
        """Also count ``fn()``, evaluated on every read — how the
        registry reads a count some component already keeps, instead of
        keeping a second copy.  Sources add up: services sharing one
        registry sum into one child, and a closed service's final count
        stays in it (the source keeps its component alive as long as the
        registry).  A raising source reads as NaN, like a callback
        gauge."""
        with self._lock:
            self._fns = (*self._fns, fn)

    @property
    def value(self) -> float:
        fns = self._fns
        if not fns:
            return self._value
        try:
            return self._value + sum(float(fn()) for fn in fns)
        except Exception:
            return math.nan


class Gauge(_SharedIdentity):
    """A settable value, or a zero-cost callback gauge
    (:meth:`set_function`) evaluated at read/render time."""

    __slots__ = ("_lock", "_value", "_fn")
    enabled = True

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0
        self._fn = None

    def set(self, v: float) -> None:
        with self._lock:
            self._value = float(v)
            self._fn = None

    def add(self, n: float) -> None:
        with self._lock:
            self._value += n

    def set_function(self, fn) -> None:
        """Make this gauge evaluate ``fn()`` on every read — the
        zero-hot-path-cost way to expose a live quantity (queue depth,
        fold generation).  A raising callback reads as NaN rather than
        killing exposition."""
        with self._lock:
            self._fn = fn

    @property
    def value(self) -> float:
        fn = self._fn
        if fn is None:
            return self._value
        try:
            return float(fn())
        except Exception:
            return math.nan


def quantile_from_counts(bounds, counts, total: int, q: float) -> float:
    """The shared bucket-quantile estimator: linear interpolation inside
    the bucket holding the q-th observation (bucket-resolution accuracy;
    the overflow bucket clamps to the top boundary).  NaN when empty."""
    if not 0.0 < q <= 1.0:
        raise ValueError(f"need 0 < q <= 1, got {q}")
    if total == 0:
        return math.nan
    target = q * total
    cum = 0.0
    for i, c in enumerate(counts):
        if c == 0:
            continue
        prev = cum
        cum += c
        if cum >= target:
            lo = 0.0 if i == 0 else bounds[i - 1]
            hi = bounds[min(i, len(bounds) - 1)]
            return lo + (hi - lo) * ((target - prev) / c)
    return bounds[-1]  # pragma: no cover - unreachable


class Histogram(_SharedIdentity):
    """Fixed-boundary log-bucketed histogram with quantile estimation.

    ``observe(v)`` is one bisect into the frozen boundary tuple plus a
    three-field update under the instrument lock.  ``quantile(q)``
    interpolates linearly inside the bucket holding the q-th
    observation — exact to one bucket's width.
    """

    __slots__ = ("_lock", "bounds", "_counts", "_sum", "_count")
    enabled = True

    def __init__(self, bounds: tuple[float, ...] = LATENCY_BUCKETS) -> None:
        bounds = tuple(float(b) for b in bounds)
        if not bounds or list(bounds) != sorted(set(bounds)):
            raise ValueError(f"bucket bounds must be sorted and unique: {bounds}")
        self._lock = threading.Lock()
        self.bounds = bounds
        self._counts = [0] * (len(bounds) + 1)  # last = overflow (+Inf)
        self._sum = 0.0
        self._count = 0

    def observe(self, v: float) -> None:
        i = bisect_left(self.bounds, v)
        with self._lock:
            self._counts[i] += 1
            self._sum += v
            self._count += 1

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    def snapshot(self) -> tuple[list[int], float, int]:
        """A consistent (bucket counts, sum, count) cut."""
        with self._lock:
            return list(self._counts), self._sum, self._count

    def _merge_to(self, counts, sum_, count) -> None:
        """Telemetry-merge setter: adopt a remotely-computed cumulative
        (bucket counts, sum, count) cut.  Rejects ladder-length
        mismatches loudly and, like :meth:`Counter._merge_to`, never
        steps the observation count backwards."""
        if len(counts) != len(self._counts):
            raise ValueError(
                f"histogram merge ladder mismatch: {len(counts)} cells "
                f"vs {len(self._counts)}"
            )
        with self._lock:
            if count >= self._count:
                self._counts = [int(c) for c in counts]
                self._sum = float(sum_)
                self._count = int(count)

    def quantile(self, q: float) -> float:
        """Estimate the q-quantile (``0 < q ≤ 1``) from the bucket
        counts; NaN when empty.  The overflow bucket clamps to the top
        boundary — size the ladder so the tail fits."""
        counts, __, total = self.snapshot()
        return quantile_from_counts(self.bounds, counts, total, q)

    def percentiles(self) -> dict:
        return {
            "p50": self.quantile(0.50),
            "p90": self.quantile(0.90),
            "p99": self.quantile(0.99),
        }


class _Noop(_SharedIdentity):
    """The shared do-nothing instrument a disabled registry hands out.
    One object plays every role — family and child, counter, gauge and
    histogram — so disabled instrumentation is a flag check away from
    free."""

    __slots__ = ()
    enabled = False
    bounds = ()
    count = 0
    sum = 0.0
    value = 0.0

    def inc(self) -> None:
        pass

    def add(self, n: float) -> None:
        pass

    def set(self, v: float) -> None:
        pass

    def set_function(self, fn) -> None:
        pass

    def add_function(self, fn) -> None:
        pass

    def observe(self, v: float) -> None:
        pass

    def labels(self, **kv) -> "_Noop":
        return self

    def total(self, **kv) -> float:
        return 0.0

    def children(self) -> dict:
        return {}

    def snapshot(self):
        return [], 0.0, 0

    def quantile(self, q: float) -> float:
        return math.nan

    def percentiles(self) -> dict:
        return {"p50": math.nan, "p90": math.nan, "p99": math.nan}


#: The shared no-op instrument (see :class:`_Noop`).
NOOP = _Noop()

_CTORS = {
    "counter": Counter,
    "gauge": Gauge,
    "histogram": Histogram,
}

#: Past this many label-value combinations a family collapses new ones
#: into one ``_other`` child, so adversarial label cardinality (tenant
#: ids, say) cannot grow memory without bound.
MAX_CHILDREN = 1024


class Family(_SharedIdentity):
    """One named instrument family: label names + a child per observed
    label-value combination.  Label-less families delegate the
    instrument methods to their single implicit child, so
    ``registry.counter("x").inc()`` just works."""

    def __init__(self, name, type_, help_, label_names, buckets=None):
        self.name = name
        self.type = type_
        self.help = help_
        self.label_names = tuple(label_names)
        self.buckets = buckets
        self._lock = threading.Lock()
        self._children: dict[tuple[str, ...], object] = {}
        self._solo = self.labels() if not self.label_names else None

    enabled = True

    def _make_child(self):
        if self.type == "histogram":
            return Histogram(self.buckets if self.buckets else LATENCY_BUCKETS)
        return _CTORS[self.type]()

    def labels(self, **kv):
        """The child at this label-value combination (created on first
        use).  Keys must match the family's label names exactly."""
        if set(kv) != set(self.label_names):
            raise ValueError(
                f"{self.name} takes labels {self.label_names}, got {sorted(kv)}"
            )
        key = tuple(str(kv[name]) for name in self.label_names)
        child = self._children.get(key)
        if child is not None:
            return child
        with self._lock:
            child = self._children.get(key)
            if child is None:
                if len(self._children) >= MAX_CHILDREN:
                    key = ("_other",) * len(self.label_names)
                    child = self._children.get(key)
                    if child is not None:
                        return child
                child = self._make_child()
                self._children[key] = child
            return child

    def children(self) -> dict:
        with self._lock:
            return dict(self._children)

    def total(self, **label_filter) -> float:
        """Sum of child values (counters/gauges), optionally filtered by
        a label subset — e.g. ``shed.total(reason="backpressure")``."""
        for name in label_filter:
            if name not in self.label_names:
                raise ValueError(f"{self.name} has no label {name!r}")
        want = {k: str(v) for k, v in label_filter.items()}
        out = 0.0
        for key, child in self.children().items():
            values = dict(zip(self.label_names, key))
            if all(values[k] == v for k, v in want.items()):
                out += child.value
        return out

    # -- label-less convenience (delegate to the implicit child) ------------
    def inc(self) -> None:
        self._solo.inc()

    def add(self, n: float) -> None:
        self._solo.add(n)

    def set(self, v: float) -> None:
        self._solo.set(v)

    def set_function(self, fn) -> None:
        self._solo.set_function(fn)

    def add_function(self, fn) -> None:
        self._solo.add_function(fn)

    def observe(self, v: float) -> None:
        self._solo.observe(v)

    @property
    def value(self) -> float:
        return self._solo.value

    @property
    def count(self) -> int:
        return self._solo.count

    def quantile(self, q: float) -> float:
        return self._solo.quantile(q)

    def percentiles(self) -> dict:
        return self._solo.percentiles()

    def merged_percentiles(self, *others) -> dict:
        """Aggregate p50/p90/p99 across every child of a histogram
        family (all children share the family's bucket ladder, so their
        counts sum cell-wise).  Extra same-name families from *other*
        registries may be passed (``None`` entries are skipped) — how
        the serving layer folds the worker-shipped apply-latency
        histograms into one estimate — provided every child shares an
        identical bucket ladder; a mismatched ladder raises rather than
        silently blending incomparable cells.  Bucket-resolution
        approximations — see :func:`quantile_from_counts`."""
        merged: list[int] | None = None
        bounds: tuple[float, ...] = ()
        total = 0
        for family in (self, *others):
            if family is None:
                continue
            if family.type != "histogram":
                raise ValueError(
                    f"{family.name} is a {family.type}, not a histogram"
                )
            for child in family.children().values():
                counts, __, count = child.snapshot()
                if merged is not None and child.bounds != bounds:
                    raise ValueError(
                        f"cannot merge {family.name}: bucket ladder "
                        f"{child.bounds[:3]}…×{len(child.bounds)} differs from "
                        f"{bounds[:3]}…×{len(bounds)}"
                    )
                total += count
                bounds = child.bounds
                if merged is None:
                    merged = counts
                else:
                    merged = [a + b for a, b in zip(merged, counts)]
        if merged is None or total == 0:
            nan = math.nan
            return {"count": total, "p50": nan, "p90": nan, "p99": nan}
        return {
            "count": total,
            "p50": quantile_from_counts(bounds, merged, total, 0.50),
            "p90": quantile_from_counts(bounds, merged, total, 0.90),
            "p99": quantile_from_counts(bounds, merged, total, 0.99),
        }


class MetricsRegistry(_SharedIdentity):
    """A thread-safe name → :class:`Family` table with get-or-create
    semantics and Prometheus/JSON exposition.  ``enabled=False`` makes
    every accessor return the shared :data:`NOOP` instrument."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = bool(enabled)
        self._lock = threading.Lock()
        self._families: dict[str, Family] = {}
        self._aux: list[MetricsRegistry] = []
        self._render_hook = None
        self._hook_running = False

    # -- auxiliary registries ------------------------------------------------
    def attach_auxiliary(self, registry: "MetricsRegistry") -> None:
        """Attach another registry whose families render *inside* this
        registry's exposition.  Same-name families across the primary
        and auxiliaries share one ``# HELP`` / ``# TYPE`` header (the
        Prometheus text format forbids duplicates) with their sample
        lines concatenated — how the serving layer folds the
        worker-telemetry mirror (same family names, extra ``worker``
        label) into one unified exposition."""
        if registry is self:
            raise ValueError("a registry cannot be its own auxiliary")
        with self._lock:
            if registry not in self._aux:
                self._aux.append(registry)

    def set_render_hook(self, hook) -> None:
        """Install a callback fired (best-effort, exceptions swallowed,
        non-reentrant) at the top of every exposition render — how the
        serving layer pulls fresh worker telemetry right before the
        registry is read, so ``repro-serve stats`` never shows a stale
        worker view.  Pass ``None`` to clear."""
        self._render_hook = hook

    def _run_render_hook(self) -> None:
        hook = self._render_hook
        if hook is None or self._hook_running:
            return
        self._hook_running = True
        try:
            hook()
        except Exception:
            pass
        finally:
            self._hook_running = False

    def _instrument(self, name, type_, help_, labels, buckets=None):
        if not self.enabled:
            return NOOP
        with self._lock:
            family = self._families.get(name)
            if family is None:
                family = Family(name, type_, help_, labels, buckets)
                self._families[name] = family
                return family
        if family.type != type_ or family.label_names != tuple(labels):
            raise ValueError(
                f"metric {name!r} already registered as {family.type} with "
                f"labels {family.label_names}; asked for {type_} with "
                f"{tuple(labels)}"
            )
        return family

    def counter(self, name: str, help: str = "", labels=()) -> Family:
        return self._instrument(name, "counter", help, labels)

    def gauge(self, name: str, help: str = "", labels=()) -> Family:
        return self._instrument(name, "gauge", help, labels)

    def histogram(self, name: str, help: str = "", labels=(), buckets=None) -> Family:
        return self._instrument(name, "histogram", help, labels, buckets)

    def get(self, name: str) -> Family | None:
        with self._lock:
            return self._families.get(name)

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._families)

    # -- exposition ---------------------------------------------------------
    def _families_sorted(self) -> list[Family]:
        with self._lock:
            return [self._families[n] for n in sorted(self._families)]

    def _family_groups(self) -> list[tuple[str, list[Family]]]:
        """Exposition order: sorted family names across the primary and
        every auxiliary registry, each name paired with its families
        (primary first).  With no auxiliaries this is exactly the
        pre-auxiliary single-registry order."""
        with self._lock:
            regs = [self, *self._aux]
        names = sorted({name for reg in regs for name in reg.names()})
        return [
            (name, [f for f in (reg.get(name) for reg in regs) if f is not None])
            for name in names
        ]

    @staticmethod
    def _labels_str(label_names, key, extra="") -> str:
        parts = [
            f'{n}="{_escape_label(v)}"' for n, v in zip(label_names, key)
        ]
        if extra:
            parts.append(extra)
        return "{" + ",".join(parts) + "}" if parts else ""

    @classmethod
    def _family_prom_lines(cls, family: Family) -> list[str]:
        """One family's sample lines (no HELP/TYPE header — the caller
        owns headers so same-name families across registries share
        exactly one)."""
        lines: list[str] = []
        for key, child in sorted(family.children().items()):
            labels = cls._labels_str(family.label_names, key)
            if family.type in ("counter", "gauge"):
                lines.append(f"{family.name}{labels} {_fmt_value(child.value)}")
                continue
            counts, total_sum, count = child.snapshot()
            cum = 0
            for bound, c in zip(child.bounds, counts):
                cum += c
                le = cls._labels_str(
                    family.label_names, key, f'le="{_fmt_value(bound)}"'
                )
                lines.append(f"{family.name}_bucket{le} {cum}")
            le = cls._labels_str(family.label_names, key, 'le="+Inf"')
            lines.append(f"{family.name}_bucket{le} {count}")
            lines.append(f"{family.name}_sum{labels} {_fmt_value(total_sum)}")
            lines.append(f"{family.name}_count{labels} {count}")
        return lines

    def render_prometheus(self) -> str:
        """The whole registry — plus any attached auxiliaries — in
        Prometheus text format 0.0.4.  Families with no children yet
        still render their ``# HELP`` / ``# TYPE`` header, so an
        exposition check can assert every catalogued instrument is
        present before traffic has exercised it; same-name families
        across registries render one header with all their samples."""
        self._run_render_hook()
        lines: list[str] = []
        for __, families in self._family_groups():
            head = families[0]
            lines.append(f"# HELP {head.name} {_escape_help(head.help)}")
            lines.append(f"# TYPE {head.name} {head.type}")
            for family in families:
                lines.extend(self._family_prom_lines(family))
        return "\n".join(lines) + ("\n" if lines else "")

    @staticmethod
    def _family_json_samples(family: Family) -> list[dict]:
        samples = []
        for key, child in sorted(family.children().items()):
            labels = dict(zip(family.label_names, key))
            if family.type in ("counter", "gauge"):
                value = child.value
                samples.append({"labels": labels, "value": value})
            else:
                counts, total_sum, count = child.snapshot()
                pct = child.percentiles()
                samples.append(
                    {
                        "labels": labels,
                        "count": count,
                        "sum": total_sum,
                        "buckets": {
                            _fmt_value(b): c
                            for b, c in zip(child.bounds, counts)
                        },
                        "overflow": counts[-1],
                        **{
                            k: (None if math.isnan(v) else v)
                            for k, v in pct.items()
                        },
                    }
                )
        return samples

    def render_json(self) -> dict:
        """The whole registry — plus attached auxiliaries — as one
        JSON-serializable dict (histograms carry bucket counts plus
        estimated p50/p90/p99); same-name families across registries
        pool their samples under one entry."""
        self._run_render_hook()
        out: dict = {}
        for name, families in self._family_groups():
            head = families[0]
            samples: list[dict] = []
            for family in families:
                samples.extend(self._family_json_samples(family))
            out[name] = {
                "type": head.type,
                "help": head.help,
                "labels": list(head.label_names),
                "samples": samples,
            }
        return out

    def render_json_text(self) -> str:
        return json.dumps(self.render_json(), indent=2, sort_keys=True) + "\n"


# -- the default / current registry -----------------------------------------

_GLOBAL = MetricsRegistry(enabled=True)
_SCOPES = threading.local()


def set_default_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Replace the process-global default registry; returns the old one."""
    global _GLOBAL
    old, _GLOBAL = _GLOBAL, registry
    return old


def current_registry() -> MetricsRegistry:
    """The innermost :func:`use_registry` scope on this thread, else the
    process-global default."""
    stack = getattr(_SCOPES, "stack", None)
    return stack[-1] if stack else _GLOBAL


@contextmanager
def use_registry(registry: MetricsRegistry):
    """Install ``registry`` as the current registry for this thread's
    scope — how a service routes the metrics of components it builds
    (engine shards, window banks) into its own registry."""
    stack = getattr(_SCOPES, "stack", None)
    if stack is None:
        stack = _SCOPES.stack = []
    stack.append(registry)
    try:
        yield registry
    finally:
        stack.pop()
