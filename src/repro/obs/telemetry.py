"""Cross-process telemetry: serializable metric snapshots + merging.

Process-mode serving (``repro.serving.procplane``) runs shard workers
in their own processes, each with its own :class:`MetricsRegistry` and
ring-buffered tracer.  This module is the wire- and merge-layer that
makes those registries visible from the parent:

* :func:`snapshot_registry` flattens a registry into a **pure-JSON
  snapshot tree** — counters/gauges as scalars, histograms as bucket
  count vectors, label tuples as ``json.dumps(list(key))`` strings — so
  the tree rides the RPRS frame codec (``serving.transport``) untouched,
  with no pickle anywhere.
* :func:`snapshot_delta` / :func:`apply_delta` turn two cumulative
  snapshots into a sparse delta and back, bit-exactly, for shippers
  that want to amortize payload size.
* :class:`WorkerTelemetry` merges per-worker cumulative snapshots into
  a parent-side mirror registry whose families carry the worker's
  label names **plus a ``worker`` label** — with per-worker-generation
  *base accounting*: when a worker respawns (generation bump) its last
  cumulative snapshot is folded into a base that every later snapshot
  is added onto, so a lossless restart never double-counts and never
  steps an exposed counter backwards.
* :func:`render_snapshot_prometheus` renders one raw snapshot tree as
  Prometheus-style text (``repro-serve stats --per-worker``).

The snapshot format is versioned (``{"version": 1, "families": {...}}``)
and deliberately boring: everything in it is a JSON scalar, list, or
dict, so ``state_to_bytes`` carries it inside the frame header and
``decode_frame(encode_frame(x)) == x`` holds bitwise.
"""

from __future__ import annotations

import json
import math
import threading

from repro.obs.metrics import LATENCY_BUCKETS, MetricsRegistry

__all__ = [
    "SNAPSHOT_VERSION",
    "WorkerTelemetry",
    "apply_delta",
    "render_snapshot_prometheus",
    "snapshot_delta",
    "snapshot_registry",
]

#: Snapshot tree format version (bump on incompatible layout changes).
SNAPSHOT_VERSION = 1


def _jkey(key: tuple) -> str:
    """A child's label-value tuple as a canonical JSON string — dict
    keys must be strings to survive the frame codec's JSON header."""
    return json.dumps(list(key))


def snapshot_registry(registry: MetricsRegistry) -> dict:
    """Flatten ``registry`` into a cumulative, pure-JSON snapshot tree.

    Layout::

        {"version": 1,
         "families": {name: {"type": ..., "help": ...,
                             "label_names": [...],
                             "bounds": [...],            # histograms only
                             "children": {jkey: sample}}}}

    where ``sample`` is ``{"value": float}`` for counters/gauges and
    ``{"counts": [int, ...], "sum": float, "count": int}`` (overflow
    cell last) for histograms.
    """
    families: dict = {}
    for name in registry.names():
        family = registry.get(name)
        if family is None:  # pragma: no cover - racy unregister never happens
            continue
        entry: dict = {
            "type": family.type,
            "help": family.help,
            "label_names": list(family.label_names),
        }
        children: dict = {}
        if family.type == "histogram":
            bounds = None
            for key, child in sorted(family.children().items()):
                counts, total_sum, count = child.snapshot()
                bounds = list(child.bounds)
                children[_jkey(key)] = {
                    "counts": [int(c) for c in counts],
                    "sum": float(total_sum),
                    "count": int(count),
                }
            if bounds is None:
                bounds = [float(b) for b in (family.buckets or LATENCY_BUCKETS)]
            entry["bounds"] = bounds
        else:
            for key, child in sorted(family.children().items()):
                children[_jkey(key)] = {"value": float(child.value)}
        entry["children"] = children
        families[name] = entry
    return {"version": SNAPSHOT_VERSION, "families": families}


def _check_version(tree: dict) -> dict:
    if not isinstance(tree, dict) or tree.get("version") != SNAPSHOT_VERSION:
        raise ValueError(
            f"unsupported telemetry snapshot: version="
            f"{tree.get('version') if isinstance(tree, dict) else tree!r}"
        )
    families = tree.get("families")
    if not isinstance(families, dict):
        raise ValueError("telemetry snapshot has no families dict")
    return families


def snapshot_delta(base: dict, latest: dict) -> dict:
    """The sparse delta taking cumulative ``base`` to cumulative
    ``latest``: counters/histograms subtract cell-wise, gauges pass
    through latest verbatim (they are levels, not totals).  Children
    and families absent from ``base`` ship whole; children whose delta
    is all-zero are dropped.  ``apply_delta(base, snapshot_delta(base,
    latest))`` reproduces ``latest`` exactly for every child present in
    ``latest`` (cumulative snapshots only grow, so that is all of them).
    """
    base_fams = _check_version(base)
    latest_fams = _check_version(latest)
    out: dict = {}
    for name, entry in latest_fams.items():
        b_entry = base_fams.get(name)
        b_children = b_entry.get("children", {}) if b_entry else {}
        d_children: dict = {}
        for jkey, sample in entry["children"].items():
            prev = b_children.get(jkey)
            if entry["type"] == "histogram":
                if prev is None:
                    d_children[jkey] = dict(sample)
                    continue
                counts = [
                    int(a) - int(b)
                    for a, b in zip(sample["counts"], prev["counts"])
                ]
                count = int(sample["count"]) - int(prev["count"])
                if count == 0 and not any(counts):
                    continue
                d_children[jkey] = {
                    "counts": counts,
                    "sum": float(sample["sum"]) - float(prev["sum"]),
                    "count": count,
                }
            elif entry["type"] == "counter":
                value = float(sample["value"]) - (
                    float(prev["value"]) if prev else 0.0
                )
                if value != 0.0 or prev is None:
                    d_children[jkey] = {"value": value}
            else:  # gauge: a level — latest wins verbatim
                d_children[jkey] = dict(sample)
        if d_children or b_entry is None:
            out[name] = {
                k: v for k, v in entry.items() if k != "children"
            } | {"children": d_children}
    return {"version": SNAPSHOT_VERSION, "families": out, "delta": True}


def apply_delta(base: dict, delta: dict) -> dict:
    """Rebuild a cumulative snapshot from ``base`` plus a
    :func:`snapshot_delta` — the receiver-side inverse."""
    base_fams = _check_version(base)
    delta_fams = _check_version(delta)
    out_fams: dict = {
        name: {k: (dict(v) if k == "children" else v) for k, v in entry.items()}
        for name, entry in base_fams.items()
    }
    for name, entry in delta_fams.items():
        target = out_fams.setdefault(
            name,
            {k: v for k, v in entry.items() if k != "children"} | {"children": {}},
        )
        children = dict(target.get("children", {}))
        for jkey, sample in entry["children"].items():
            prev = children.get(jkey)
            if entry["type"] == "histogram":
                if prev is None:
                    children[jkey] = dict(sample)
                else:
                    children[jkey] = {
                        "counts": [
                            int(a) + int(b)
                            for a, b in zip(prev["counts"], sample["counts"])
                        ],
                        "sum": float(prev["sum"]) + float(sample["sum"]),
                        "count": int(prev["count"]) + int(sample["count"]),
                    }
            elif entry["type"] == "counter":
                prior = float(prev["value"]) if prev else 0.0
                children[jkey] = {"value": prior + float(sample["value"])}
            else:
                children[jkey] = dict(sample)
        target["children"] = children
    return {"version": SNAPSHOT_VERSION, "families": out_fams}


def render_snapshot_prometheus(tree: dict) -> str:
    """One raw snapshot tree as Prometheus-style text — the *unmerged*
    per-worker view (``repro-serve stats --per-worker``).  Not a valid
    single exposition when concatenated across workers (duplicate
    headers); it is an inspection format."""
    families = _check_version(tree)
    registry = MetricsRegistry()
    _materialize_tree(registry, families, extra_labels=())
    return registry.render_prometheus()


def _materialize_tree(registry, families, extra_labels):
    """Rebuild snapshot families inside ``registry``, appending
    ``extra_labels`` (name, value) pairs to every child.  Raises
    ``ValueError`` on malformed entries — callers count merge errors."""
    extra_names = tuple(n for n, __ in extra_labels)
    extra_values = {n: v for n, v in extra_labels}
    for name, entry in families.items():
        type_ = entry.get("type")
        label_names = tuple(entry.get("label_names", ())) + extra_names
        help_ = entry.get("help", "")
        if type_ == "counter":
            family = registry.counter(name, help_, labels=label_names)
        elif type_ == "gauge":
            family = registry.gauge(name, help_, labels=label_names)
        elif type_ == "histogram":
            family = registry.histogram(
                name, help_, labels=label_names,
                buckets=tuple(entry.get("bounds") or LATENCY_BUCKETS),
            )
        else:
            raise ValueError(f"unknown family type {type_!r} for {name!r}")
        for jkey, sample in entry.get("children", {}).items():
            key = json.loads(jkey)
            labels = dict(zip(entry.get("label_names", ()), key))
            labels.update(extra_values)
            child = family.labels(**labels)
            if type_ == "histogram":
                child._merge_to(
                    sample["counts"], sample["sum"], sample["count"]
                )
            elif type_ == "counter":
                child._merge_to(float(sample["value"]))
            else:
                value = float(sample["value"])
                if not math.isnan(value):
                    child.set(value)


def _fold_into_base(base: dict, families: dict) -> None:
    """Accumulate a dead generation's last cumulative snapshot into the
    worker's base tree (counters/histograms add; gauges are levels from
    a dead process — dropped)."""
    for name, entry in families.items():
        if entry.get("type") == "gauge":
            continue
        target = base.setdefault(
            name,
            {k: v for k, v in entry.items() if k != "children"} | {"children": {}},
        )
        children = target["children"]
        for jkey, sample in entry.get("children", {}).items():
            prev = children.get(jkey)
            if entry.get("type") == "histogram":
                if prev is None:
                    children[jkey] = {
                        "counts": [int(c) for c in sample["counts"]],
                        "sum": float(sample["sum"]),
                        "count": int(sample["count"]),
                    }
                else:
                    prev["counts"] = [
                        int(a) + int(b)
                        for a, b in zip(prev["counts"], sample["counts"])
                    ]
                    prev["sum"] = float(prev["sum"]) + float(sample["sum"])
                    prev["count"] = int(prev["count"]) + int(sample["count"])
            else:
                prior = float(prev["value"]) if prev else 0.0
                children[jkey] = {"value": prior + float(sample["value"])}


def _merge_trees(base_families: dict, latest_families: dict) -> dict:
    """base + latest, cell-wise (gauges: latest only)."""
    merged = apply_delta(
        {"version": SNAPSHOT_VERSION, "families": base_families},
        {"version": SNAPSHOT_VERSION, "families": latest_families},
    )
    return merged["families"]


def _changed_children(shown: dict, merged: dict) -> dict:
    """The families of ``merged`` cut down to the children whose sample
    differs from ``shown`` (the last merged tree materialized); a family
    new since then is kept even when it has no children, so it
    registers."""
    out = {}
    for name, entry in merged.items():
        before = shown.get(name)
        children = entry.get("children", {})
        if before is None:
            out[name] = entry
            continue
        seen = before.get("children", {})
        moved = {
            jkey: sample
            for jkey, sample in children.items()
            if seen.get(jkey) != sample
        }
        if moved:
            out[name] = {k: v for k, v in entry.items() if k != "children"} | {
                "children": moved
            }
    return out


class WorkerTelemetry:
    """Parent-side merger: per-worker cumulative snapshots → one mirror
    registry with a ``worker`` label, monotone across respawns.

    Each worker is tracked as ``(generation, base, latest)``.  Within a
    generation, snapshots are cumulative, so the merged value is simply
    ``base + latest`` and re-shipping is idempotent.  When the
    generation bumps (the process plane respawned the worker), the last
    ``latest`` is folded into ``base`` first — the dead process's final
    observed totals — so the fresh process's counters, restarting from
    zero, stack on top instead of regressing or double-counting.  (The
    plane only respawns *idle* workers losslessly, so the last shipped
    snapshot is the dead generation's true final state.)
    """

    def __init__(self, registry: MetricsRegistry, worker_label: str = "worker"):
        self.registry = registry
        self.worker_label = worker_label
        self._lock = threading.Lock()
        self._workers: dict[str, dict] = {}

    def update(self, worker: str, generation: int, tree: dict) -> None:
        """Merge one worker's cumulative snapshot ``tree`` (a full
        ``{"version", "families"}`` snapshot) for ``generation`` into
        the mirror registry.  Only the children whose merged sample
        changed since this worker's last merge are materialized; the
        rest already hold that value.  Raises ``ValueError`` on
        malformed or incompatible trees — callers surface that as a
        merge-error counter rather than crashing the plane."""
        families = _check_version(tree)
        worker = str(worker)
        with self._lock:
            state = self._workers.setdefault(
                worker,
                {"generation": int(generation), "base": {}, "latest": {},
                 "shown": {}},
            )
            if int(generation) != state["generation"]:
                _fold_into_base(state["base"], state["latest"])
                state["generation"] = int(generation)
            state["latest"] = families
            merged = (
                _merge_trees(state["base"], families) if state["base"] else families
            )
            changed = _changed_children(state["shown"], merged)
            state["shown"] = merged
            if changed and self.registry is not None and self.registry.enabled:
                _materialize_tree(
                    self.registry, changed,
                    extra_labels=((self.worker_label, worker),),
                )

    def latest(self, worker) -> dict | None:
        """The most recent raw (current-generation) snapshot tree for
        ``worker`` — the unmerged per-worker view — or ``None``."""
        with self._lock:
            state = self._workers.get(str(worker))
            if state is None:
                return None
            return {
                "version": SNAPSHOT_VERSION,
                "families": state["latest"],
                "generation": state["generation"],
            }

    def workers(self) -> list[str]:
        with self._lock:
            return sorted(self._workers)
