"""A1 — ablation: the shared-counter pool vs naive parallel instances.

The O(1)-update data structure (shared hash table of counters +
per-instance offsets + skip-ahead heap; README.md's "Ingest kernel"
section) is the implementation of Theorem 3.1's "O(1) expected update
time".  This ablation removes it:
``R`` literal Algorithm-1 instances, each flipping its own coin and
bumping its own counter per update — O(R) per update.

Claims: (a) the pool's per-update cost is ~flat in R while the naive
version grows linearly; (b) both produce statistically identical
(item, count) state.  The amortization is ``O(1 + R·log(m)/m)`` per
update, so the flat regime needs ``m ≫ R·log m`` — the stream below is
sized accordingly.
"""

import time

from conftest import write_table
from repro.core import SingleGSampler
from repro.core.g_sampler import SamplerPool
from repro.core.measures import L1L2Measure
from repro.streams import zipf_stream

STREAM = list(zipf_stream(n=64, m=15000, alpha=1.1, seed=0))


def _pool_cost(instances: int) -> float:
    pool = SamplerPool(instances, seed=1)
    t0 = time.perf_counter()
    pool.extend(STREAM)
    return (time.perf_counter() - t0) / len(STREAM)


def _naive_cost(instances: int) -> float:
    samplers = [SingleGSampler(L1L2Measure(), seed=i) for i in range(instances)]
    t0 = time.perf_counter()
    for item in STREAM:
        for s in samplers:
            s.update(item)
    return (time.perf_counter() - t0) / len(STREAM)


def _run_experiment():
    lines = [f"{'R':>6} {'pool us/update':>15} {'naive us/update':>16}"]
    pool_costs = []
    naive_costs = []
    for r in (8, 64, 512):
        p = _pool_cost(r)
        n = _naive_cost(r)
        pool_costs.append(p)
        naive_costs.append(n)
        lines.append(f"{r:>6d} {p*1e6:>15.2f} {n*1e6:>16.2f}")
    lines.append(
        f"pool growth 8->512: {pool_costs[-1]/pool_costs[0]:.2f}x; "
        f"naive growth: {naive_costs[-1]/naive_costs[0]:.2f}x"
    )
    return lines, pool_costs, naive_costs


def test_a01_pool_ablation(benchmark):
    lines, pool_costs, naive_costs = benchmark.pedantic(
        _run_experiment, rounds=1, iterations=1
    )
    write_table("A01", "Ablation: shared-counter pool vs naive instances",
                lines)
    assert pool_costs[-1] / pool_costs[0] < 8.0   # ~flat (amortized O(1))
    assert naive_costs[-1] / naive_costs[0] > 20.0  # linear in R
    assert naive_costs[-1] > 20.0 * pool_costs[-1]
