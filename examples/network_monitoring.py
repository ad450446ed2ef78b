"""Network monitoring on the serving front door.

The scenario from the paper's introduction, grown up: a monitor watches
a packet stream and publishes one flow sample per "minute" (e.g. a flow
ID for deep inspection).  Where the original example replayed portions
against a fresh sampler each time, this one runs the real serving path —
:class:`repro.serving.SamplerService` — end to end:

* an **ingest task** submits each minute's timestamped traffic through
  the front door (admission → hash router → per-shard queues → 4
  ingest workers);
* several **inspection consoles** (query client threads) sample the
  active window *while ingest is running*, each served lock-free off
  the published fold with its own per-reader RNG stream;
* the **time window does the resetting**: each published sample covers
  the last minute, and because successive minutes are disjoint windows,
  the published sequence is independent across minutes — the background
  ticker compacts the expired generations away instead of anyone
  rebuilding samplers;
* every sample is truly perfect, so the published sequence is *exactly*
  target-distributed minute after minute: an auditor comparing it
  against the true traffic distribution sees zero drift, forever;
* traffic arrives from **tenants** (two ingest sites plus a rate-capped
  "scanner" whose burst is refused at admission), and the run ends with
  a per-tenant summary — admitted packets, shed submits, ingest latency
  p99 — read straight off the service's metrics registry
  (``service.metrics``, the same counters `stats()` and the Prometheus
  exposition report).

Run:  python examples/network_monitoring.py
"""

import threading
import time

import numpy as np

from repro.serving import RateLimited, SamplerService
from repro.stats import lp_target
from repro.streams import zipf_stream
from repro.streams.timestamped import uniform_arrivals

N_FLOWS = 512
PORTION = 5_000  # packets per monitored "minute"
PORTIONS = 24
MINUTE = 60.0  # stream-time seconds per portion == the window horizon
CONSOLES = 4
PLANTED = 0  # the heavy flow whose publication rate we audit

CONFIG = {"kind": "tw_lp", "p": 2.0, "horizon": MINUTE, "instances": 64}

#: The two ingest sites traffic alternates between, plus the abusive
#: tenant whose one oversized burst the token bucket refuses outright.
SITES = ("backbone", "branch")
SCANNER_RATE = (500.0, 1_000.0)  # 500 pkt/s sustained, 1 000 burst cap


def make_portion(k: int):
    """One minute of traffic: Zipf flow sizes with arrival times inside
    the k-th minute."""
    stream = zipf_stream(n=N_FLOWS, m=PORTION, alpha=1.1, seed=1000 + k)
    arrivals = uniform_arrivals(PORTION, PORTION / MINUTE, start=k * MINUTE)
    return np.asarray(stream.items), arrivals


def main() -> None:
    live_samples = [0] * CONSOLES
    live_fails = [0] * CONSOLES
    stop_consoles = threading.Event()
    published = []  # one audited sample per minute

    with SamplerService(
        CONFIG,
        shards=8,
        seed=0,
        ingest_workers=4,
        refresh_interval=0.01,
        compact_interval=0.05,
        tenant_rates={"scanner": SCANNER_RATE},
    ) as service:

        def console(idx: int) -> None:
            """A live inspection console: paced, lock-free sampling."""
            while not stop_consoles.is_set():
                res = service.sample()
                if res.is_item:
                    live_samples[idx] += 1
                else:
                    live_fails[idx] += 1
                time.sleep(0.003)

        consoles = [
            threading.Thread(target=console, args=(c,)) for c in range(CONSOLES)
        ]
        for thread in consoles:
            thread.start()

        print(f"monitoring {PORTIONS} portions of {PORTION} packets each\n")
        scanner_refusals = 0
        for k in range(PORTIONS):
            packets, arrivals = make_portion(k)
            # Live ingest through the concurrent front door, in batches,
            # alternating between the two ingest sites.
            for b, lo in enumerate(range(0, PORTION, 1000)):
                service.submit(
                    packets[lo:lo + 1000],
                    arrivals[lo:lo + 1000],
                    tenant=SITES[b % len(SITES)],
                )
            if k == 0:
                # The scanner tries to dump a whole minute at once; the
                # burst exceeds its token-bucket cap, so admission
                # refuses it atomically — nothing is half-enqueued.
                try:
                    service.submit(packets, arrivals, tenant="scanner")
                except RateLimited:
                    scanner_refusals += 1
            # Publish this minute's sample: drain, republish, draw once.
            service.flush()
            service.refresh()
            published.append(service.sample())

        stop_consoles.set()
        for thread in consoles:
            thread.join()
        stats = service.stats()
        metrics = service.metrics

    hits = sum(1 for r in published if r.is_item and r.item == PLANTED)
    answered = sum(1 for r in published if r.is_item)
    packets, __ = make_portion(0)
    target_mass = lp_target(np.bincount(packets, minlength=N_FLOWS), 2.0)[PLANTED]

    print(
        f"ingested {stats['ingest']['applied_items']} packets through "
        f"{stats['workers']} workers over {stats['shards']} shards"
    )
    q = stats["query"]
    print(
        f"consoles took {sum(live_samples)} live samples "
        f"({sum(live_fails)} FAIL/EMPTY) across {q['refreshes']} fold "
        f"publications; cache hits/misses "
        f"{stats['engine']['cache']['hits']}/"
        f"{stats['engine']['cache']['misses']}"
    )
    freed = stats["compaction"]["bytes_reclaimed"]
    print(
        f"ticker ran {stats['compaction']['passes']} expiry-compaction "
        f"passes ("
        + (
            f"~{freed} bytes of expired generations reclaimed"
            if freed
            else "nothing to reclaim — generation rotation keeps up under "
            "continuous ingest; the ticker matters for idle tenants"
        )
        + ")\n"
    )

    # Per-tenant front-door summary, read straight off the service's
    # metrics registry — the same counters stats() and the Prometheus
    # exposition report.
    submitted = metrics.get("repro_serving_submitted_items_total")
    rate_limited = metrics.get("repro_serving_rate_limited_total")
    shed = metrics.get("repro_serving_backpressure_shed_total")
    print("per-tenant front door (from service.metrics):")
    for tenant in (*SITES, "scanner"):
        refused = int(
            rate_limited.total(tenant=tenant) + shed.total(tenant=tenant)
        )
        print(
            f"  {tenant:<9} admitted {int(submitted.total(tenant=tenant)):>7} "
            f"packets, refused {refused} submit(s)"
        )
    assert int(rate_limited.total(tenant="scanner")) == scanner_refusals == 1
    submit_p99 = metrics.get("repro_serving_submit_seconds").labels(
        outcome="accepted"
    ).quantile(0.99)
    apply_p99 = max(
        child.quantile(0.99)
        for child in metrics.get(
            "repro_serving_ingest_apply_seconds"
        ).children().values()
    )
    print(
        f"  ingest latency p99: submit {submit_p99 * 1e6:.0f} µs (accepted), "
        f"worst-shard apply {apply_p99 * 1e6:.0f} µs\n"
    )

    print(f"flow {PLANTED}: true L2 sampling mass ≈ {target_mass:.3f}")
    print(
        f"published-sample hit rate over {PORTIONS} minutes: "
        f"{hits}/{answered} ≈ {hits / max(1, answered):.3f}"
    )
    print(
        "\neach minute's published sample covers a disjoint window, so the "
        "published sequence is independent and exactly target-distributed: "
        "the monitor can run forever — under live concurrent ingest and "
        "any number of consoles — and an auditor comparing publications "
        "against the true traffic distribution sees zero drift."
    )


if __name__ == "__main__":
    main()
