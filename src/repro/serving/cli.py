"""``repro-serve`` — a tiny serving demo/smoke CLI.

Builds a :class:`~repro.serving.SamplerService` from a registry sampler
config (JSON), feeds it a generated stream through the concurrent front
door while query clients sample it live, then prints the sampled output
and the service stats.  It exists so "does the serving path work here?"
is one shell command::

    repro-serve --config '{"kind": "lp", "p": 2.0, "n": 4096}' \\
        --items 200000 --shards 8 --workers 4 --clients 4

Time-windowed kinds (``tw_*``, ``window_bank``) get synthetic uniform
arrival timestamps at ``--rate`` items/second automatically.  Exit code
0 means every submit was accepted, every query answered, and the
service closed cleanly — the CI smoke job runs exactly this under a
strict timeout.  ``--metrics-dump PATH`` additionally writes the
service registry's Prometheus exposition after the run.

The ``stats`` subcommand runs a small canned workload and prints the
resulting metrics exposition — the scrape-endpoint smoke::

    repro-serve stats --config '{"kind": "g", "measure": {"name": "huber"}}' \\
        --format prom | python -m repro.obs.promcheck

With ``--workers-mode process`` the exposition already contains the
worker-side families (shipped over the telemetry plane and merged under
``worker`` labels); ``--per-worker`` additionally prints each worker's
raw *unmerged* snapshot as comment-delimited blocks (prom) or a
``workers`` key (json).

``health`` runs a canned *audited* workload, executes the audit ticks,
and prints the readiness/liveness probe report — exit 0 only when the
service is live, ready, and the audit verdict is clean (the CI audit
smoke).  ``--dump-on-fail PATH`` writes the flight-recorder bundle when
it isn't.  ``dump`` runs the same workload and always writes the
bundle::

    repro-serve health --config '{"kind": "lp", "p": 2.0, "n": 4096}' \\
        --dump-on-fail flight-bundle.zip
    repro-serve dump --config '{"kind": "lp", "p": 2.0, "n": 4096}' \\
        --out bundle.zip
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import threading
import time

import numpy as np

from repro.engine.registry import sampler_kinds
from repro.serving.service import SamplerService
from repro.streams.generators import zipf_stream
from repro.streams.timestamped import uniform_arrivals

__all__ = ["main"]

#: Registry kinds that need arrival timestamps on every update.
TIMED_KINDS = ("tw_g", "tw_lp", "tw_f0", "window_bank")


def _parse_args(argv):
    parser = argparse.ArgumentParser(
        prog="repro-serve", description=__doc__.splitlines()[0]
    )
    parser.add_argument(
        "--config",
        required=True,
        help=(
            "sampler config JSON for the engine registry, e.g. "
            '\'{"kind": "lp", "p": 2.0, "n": 4096}\' '
            f"(kinds: {', '.join(sampler_kinds())})"
        ),
    )
    parser.add_argument("--shards", type=int, default=8)
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument(
        "--workers-mode",
        choices=("thread", "process"),
        default="thread",
        help=(
            "shard-owning worker threads (GIL-shared) or worker "
            "processes (one core per worker; see repro.serving.procplane)"
        ),
    )
    parser.add_argument("--items", type=int, default=100_000, help="stream length")
    parser.add_argument(
        "--universe", type=int, default=4096, help="stream universe size"
    )
    parser.add_argument(
        "--alpha", type=float, default=1.2, help="Zipf skew of the demo stream"
    )
    parser.add_argument(
        "--batch", type=int, default=4096, help="submit batch size"
    )
    parser.add_argument(
        "--clients", type=int, default=4, help="concurrent query client threads"
    )
    parser.add_argument(
        "--queries", type=int, default=32, help="queries per client"
    )
    parser.add_argument(
        "--client-interval",
        type=float,
        default=0.005,
        help="think time between a client's queries (seconds)",
    )
    parser.add_argument(
        "--rate",
        type=float,
        default=1000.0,
        help="synthetic arrivals/second for time-windowed kinds",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--serialized",
        action="store_true",
        help="serialized replay mode (single worker, locked queries)",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit a machine-readable JSON summary instead of prose",
    )
    parser.add_argument(
        "--metrics-dump",
        metavar="PATH",
        help="write the service's Prometheus exposition here after the run",
    )
    return parser.parse_args(argv)


def _stats_main(argv) -> int:
    """``repro-serve stats`` — run a small canned served workload and
    print the metrics exposition (``--format prom`` | ``json``)."""
    parser = argparse.ArgumentParser(
        prog="repro-serve stats",
        description="print a served workload's metrics exposition",
    )
    parser.add_argument("--config", required=True, help="sampler config JSON")
    parser.add_argument(
        "--format", choices=("prom", "json"), default="prom",
        help="exposition format (default: prom)",
    )
    parser.add_argument("--shards", type=int, default=4)
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument(
        "--workers-mode", choices=("thread", "process"), default="thread"
    )
    parser.add_argument("--items", type=int, default=20_000)
    parser.add_argument("--universe", type=int, default=4096)
    parser.add_argument("--queries", type=int, default=16)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--per-worker",
        action="store_true",
        help=(
            "additionally print each worker's raw (unmerged) telemetry "
            "snapshot — process mode only"
        ),
    )
    args = parser.parse_args(argv)
    try:
        config = json.loads(args.config)
    except json.JSONDecodeError as exc:
        print(f"repro-serve: --config is not valid JSON: {exc}", file=sys.stderr)
        return 2
    if not isinstance(config, dict):
        print("repro-serve: --config must be a JSON object", file=sys.stderr)
        return 2
    stream = zipf_stream(args.universe, args.items, alpha=1.2, seed=args.seed)
    items = np.asarray(stream.items)
    timed = config.get("kind") in TIMED_KINDS
    timestamps = uniform_arrivals(args.items, 1000.0) if timed else None
    query_kwargs = (
        {"horizon": float(min(config["resolutions"]))}
        if config.get("kind") == "window_bank"
        else {}
    )
    try:
        service = SamplerService(
            config, shards=args.shards, seed=args.seed,
            ingest_workers=args.workers, workers_mode=args.workers_mode,
        )
    except ValueError as exc:
        print(f"repro-serve: {exc}", file=sys.stderr)
        return 2
    with service:
        batch = 4096
        for lo in range(0, args.items, batch):
            hi = min(lo + batch, args.items)
            service.submit(
                items[lo:hi],
                None if timestamps is None else timestamps[lo:hi],
            )
        service.flush()
        service.refresh()
        for __ in range(args.queries):
            service.sample(**query_kwargs)
        service.sample_many(max(1, args.queries), **query_kwargs)
        worker_info = (
            service.worker_telemetry_info() if args.per_worker else None
        )
        if args.format == "prom":
            print(service.metrics.render_prometheus(), end="")
            if args.per_worker:
                _print_per_worker_prom(worker_info)
        else:
            payload = {
                "metrics": service.metrics.render_json(),
                # Bucket-resolution approximations computed from the
                # latency histogram buckets at render time.
                "derived_quantiles": service.stats()["latency"],
            }
            if args.per_worker:
                payload["workers"] = (
                    None
                    if worker_info is None
                    else [
                        {k: v for k, v in entry.items() if k != "trace"}
                        for entry in worker_info
                    ]
                )
            print(json.dumps(_none_nan(payload), indent=2))
    return 0


def _print_per_worker_prom(worker_info) -> None:
    """The ``--per-worker`` tail: each worker's raw (unmerged) snapshot
    rendered as its own comment-delimited exposition block.  Comment
    lines keep the combined output valid for ``promcheck`` readers that
    stop at the first block; the per-worker blocks repeat family
    headers by design (they are separate registries)."""
    from repro.obs.telemetry import render_snapshot_prometheus

    if worker_info is None:
        print("# --per-worker: no worker telemetry (thread workers mode)")
        return
    for entry in worker_info:
        snap = entry.get("metrics")
        print(
            f"# -- worker {entry['worker']} "
            f"(generation {entry.get('generation')}, pid {entry.get('pid')}) "
            f"-- unmerged snapshot --"
        )
        if snap is None:
            print("# (no snapshot shipped yet)")
        else:
            print(render_snapshot_prometheus(snap), end="")


def _none_nan(obj):
    """NaN → None recursively, so the JSON output is strict."""
    if isinstance(obj, float) and math.isnan(obj):
        return None
    if isinstance(obj, dict):
        return {k: _none_nan(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_none_nan(v) for v in obj]
    return obj


def _load_config(raw: str):
    try:
        config = json.loads(raw)
    except json.JSONDecodeError as exc:
        print(f"repro-serve: --config is not valid JSON: {exc}", file=sys.stderr)
        return None
    if not isinstance(config, dict):
        print("repro-serve: --config must be a JSON object", file=sys.stderr)
        return None
    return config


def _audited_canned_run(config, args, audit_ticks: int):
    """Build an audited service, push the canned stream through it, and
    run the audit ticks.  Returns the open service (caller closes)."""
    stream = zipf_stream(args.universe, args.items, alpha=1.2, seed=args.seed)
    items = np.asarray(stream.items)
    timed = config.get("kind") in TIMED_KINDS
    timestamps = uniform_arrivals(args.items, 1000.0) if timed else None
    service = SamplerService(
        config, shards=args.shards, seed=args.seed,
        ingest_workers=args.workers, workers_mode=args.workers_mode,
        audit={"interval": 0.0, "draws": args.audit_draws},
    )
    batch = 4096
    for lo in range(0, args.items, batch):
        hi = min(lo + batch, args.items)
        service.submit(
            items[lo:hi],
            None if timestamps is None else timestamps[lo:hi],
        )
    service.flush()
    service.refresh()
    for __ in range(audit_ticks):
        service.audit_tick()
    return service


def _canned_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", required=True, help="sampler config JSON")
    parser.add_argument("--shards", type=int, default=4)
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument(
        "--workers-mode", choices=("thread", "process"), default="thread"
    )
    parser.add_argument("--items", type=int, default=20_000)
    parser.add_argument("--universe", type=int, default=4096)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--audit-ticks", type=int, default=4,
        help="audit ticks to run after the canned ingest",
    )
    parser.add_argument(
        "--audit-draws", type=int, default=512,
        help="dedicated sample_many draws per audit tick",
    )


def _health_main(argv) -> int:
    """``repro-serve health`` — canned audited workload + probe report;
    exit 0 iff live, ready, and the audit verdict is clean."""
    parser = argparse.ArgumentParser(
        prog="repro-serve health",
        description="run an audited canned workload and report health",
    )
    _canned_args(parser)
    parser.add_argument(
        "--json", action="store_true", help="emit the report as JSON"
    )
    parser.add_argument(
        "--dump-on-fail", metavar="PATH",
        help="write the flight-recorder bundle here when not healthy",
    )
    args = parser.parse_args(argv)
    config = _load_config(args.config)
    if config is None:
        return 2
    try:
        service = _audited_canned_run(config, args, args.audit_ticks)
    except ValueError as exc:
        print(f"repro-serve: {exc}", file=sys.stderr)
        return 2
    with service:
        report = service.health()
        audit = service.audit_status()
        ok = report.live and report.ready and not audit.get("flagged", False)
        if not ok and args.dump_on_fail:
            service.dump(args.dump_on_fail)
        if args.json:
            payload = {
                "healthy": ok,
                "report": report.to_dict(),
                "audit": {
                    k: v for k, v in audit.items() if k != "history"
                },
            }
            print(json.dumps(_none_nan(payload), indent=2))
        else:
            print(f"live={report.live} ready={report.ready}")
            for probe in report.probes:
                print(f"  {probe.status.upper():<4} {probe.name}: {probe.detail}")
            print(
                f"audit: verdict={audit.get('verdict')} "
                f"draws={audit.get('draws_total')} "
                f"e_value={audit.get('e_value'):.3g}"
                if audit.get("enabled")
                else "audit: disabled"
            )
            if not ok and args.dump_on_fail:
                print(f"flight-recorder bundle written to {args.dump_on_fail}")
    return 0 if ok else 1


def _dump_main(argv) -> int:
    """``repro-serve dump`` — canned audited workload + flight-recorder
    bundle."""
    parser = argparse.ArgumentParser(
        prog="repro-serve dump",
        description="run an audited canned workload and write a debug bundle",
    )
    _canned_args(parser)
    parser.add_argument(
        "--out", required=True, metavar="PATH", help="bundle zip path"
    )
    args = parser.parse_args(argv)
    config = _load_config(args.config)
    if config is None:
        return 2
    try:
        service = _audited_canned_run(config, args, args.audit_ticks)
    except ValueError as exc:
        print(f"repro-serve: {exc}", file=sys.stderr)
        return 2
    with service:
        manifest = service.dump(args.out)
    entries = len(manifest["entries"])
    errors = manifest["errors"]
    print(f"wrote {entries} bundle entries to {args.out}")
    if errors:
        print(f"sections skipped with errors: {sorted(errors)}", file=sys.stderr)
    return 0


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "stats":
        return _stats_main(argv[1:])
    if argv and argv[0] == "health":
        return _health_main(argv[1:])
    if argv and argv[0] == "dump":
        return _dump_main(argv[1:])
    args = _parse_args(argv)
    try:
        config = json.loads(args.config)
    except json.JSONDecodeError as exc:
        print(f"repro-serve: --config is not valid JSON: {exc}", file=sys.stderr)
        return 2
    if not isinstance(config, dict):
        print("repro-serve: --config must be a JSON object", file=sys.stderr)
        return 2

    stream = zipf_stream(args.universe, args.items, alpha=args.alpha, seed=args.seed)
    items = np.asarray(stream.items)
    timed = config.get("kind") in TIMED_KINDS
    timestamps = (
        uniform_arrivals(args.items, args.rate) if timed else None
    )

    results: list = []
    errors: list[Exception] = []

    try:
        service = SamplerService(
            config,
            shards=args.shards,
            seed=args.seed,
            ingest_workers=args.workers,
            workers_mode=args.workers_mode,
            serialized=args.serialized,
        )
    except ValueError as exc:
        print(f"repro-serve: {exc}", file=sys.stderr)
        return 2

    query_kwargs = (
        {"horizon": float(min(config["resolutions"]))}
        if config.get("kind") == "window_bank"
        else {}
    )

    def client(idx: int) -> None:
        # Paced, not saturating: the point is queries *overlapping* the
        # live ingest, and a think-time loop spans the whole run.
        try:
            for __ in range(args.queries):
                results.append(service.sample(**query_kwargs))
                time.sleep(args.client_interval)
        except Exception as exc:  # pragma: no cover - surfaced via exit code
            errors.append(exc)

    with service:
        clients = [
            threading.Thread(target=client, args=(c,), daemon=True)
            for c in range(args.clients)
        ]
        # Live ingest: submit batches while the clients query concurrently.
        for thread in clients:
            thread.start()
        for lo in range(0, args.items, args.batch):
            hi = min(lo + args.batch, args.items)
            service.submit(
                items[lo:hi],
                None if timestamps is None else timestamps[lo:hi],
            )
        service.flush()
        service.refresh()
        for thread in clients:
            thread.join()
        final = service.sample(**query_kwargs)
        stats = service.stats()
        if args.metrics_dump:
            with open(args.metrics_dump, "w", encoding="utf-8") as fh:
                fh.write(service.metrics.render_prometheus())

    if errors:
        print(f"repro-serve: query client failed: {errors[0]!r}", file=sys.stderr)
        return 1

    answered = len(results)
    item_hits = sum(1 for r in results if getattr(r, "is_item", False))
    summary = {
        "kind": config.get("kind"),
        "items_submitted": int(stats["ingest"]["submitted_items"]),
        "items_applied": int(stats["ingest"]["applied_items"]),
        "queries_answered": answered,
        "queries_with_item": item_hits,
        "final_sample": {
            "is_item": bool(getattr(final, "is_item", False)),
            "item": getattr(final, "item", None),
        },
        "fold_generation": stats["query"]["generation"],
        "fold_refreshes": stats["query"]["refreshes"],
        "cache": stats["engine"]["cache"],
    }
    if args.json:
        print(json.dumps(summary, indent=2))
    else:
        print(
            f"served kind={summary['kind']}: ingested "
            f"{summary['items_applied']}/{summary['items_submitted']} items, "
            f"answered {answered} live queries "
            f"({item_hits} returned an item)"
        )
        if summary["final_sample"]["is_item"]:
            print(f"final sample after flush: item {summary['final_sample']['item']}")
        else:
            print("final sample after flush: (no item — FAIL/EMPTY draw)")
        cache = summary["cache"]
        print(
            f"fold generations {summary['fold_generation'] + 1}, cache "
            f"hits/misses {cache['hits']}/{cache['misses']}"
        )
    if stats["ingest"]["applied_items"] != args.items:
        print(
            f"repro-serve: ingest mismatch "
            f"({stats['ingest']['applied_items']} != {args.items})",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
