"""Fault-tolerance benchmark: availability and latency under cluster chaos.

Drives the :class:`~repro.cluster.SearchCluster` router through a seeded
:class:`~repro.faults.FaultPlane` and measures the three things the fault
machinery promises:

1. **Zero-fault overhead** — the routed query sweep with the full fault
   stack attached (plane-wrapped stores, per-partition candidate lists,
   breaker bookkeeping) but zero rules firing, against the bare PR 7-style
   router (no plane, no deadline) over the same corpus.  Summed per-query
   minimum latency over N interleaved rounds, with the baseline measured
   twice so same-config disparity calibrates residual measurement noise;
   the acceptance floor is <= 5% overhead beyond that noise at full scale.
2. **Node-kill chaos** — a partition primary is killed outright; the sweep
   runs at replicas=1 (unrecoverable: degraded answers) and replicas=2
   (recoverable: failover to the fresh replica).  Reported per
   configuration: availability (% of queries answering *complete*), p99
   latency, failover count, and — at replicas=2 — byte-parity against the
   single-store reference with zero partial results.
3. **Latency-spike chaos** — one node's directory reads stall far past the
   query deadline every Nth call; the deadline preempts the read and fails
   over.  Same availability/p99 split at replicas 1 vs 2.
4. **Cached-DF survival** — the availability win of the epoch-validated
   :class:`~repro.cluster.TermStatsCache`: at replicas=1 the cache is
   warmed while healthy, then a node is killed.  Queries whose consulted
   partitions are all alive skip the DF scatter *and* prune the dead
   partitions (bound zero), so they answer complete with byte parity —
   where the always-scatter router recorded 0% availability.  Queries that
   do consult the dead partitions still degrade gracefully.

Run under pytest (``PYTHONPATH=src python -m pytest benchmarks/bench_fault_tolerance.py``)
or standalone (``PYTHONPATH=src python benchmarks/bench_fault_tolerance.py``);
emits ``BENCH_fault_tolerance.json``.

Environment knobs: ``REPRO_BENCH_FT_FRAGMENTS`` (synthetic fragment count,
default 3000), ``REPRO_BENCH_FT_QUERIES`` (stream length, default 120),
``REPRO_BENCH_FT_NODES`` (default 4), ``REPRO_BENCH_FT_ROUNDS`` (interleaved
measurement rounds for the overhead section, default 5), ``REPRO_BENCH_FT_DEADLINE_MS``
(per-query failover budget for the spike section, default 150),
``REPRO_BENCH_FT_SPIKE_MS`` (injected stall, default 400).
"""

from __future__ import annotations

import gc
import os
import time
from typing import Dict, List, Optional, Tuple

from repro.bench.reporting import print_table, write_json
from repro.cluster import GroupPartitioner, SearchCluster
from repro.core.fragment_graph import FragmentGraph
from repro.core.fragment_index import InvertedFragmentIndex
from repro.core.search import TopKSearcher
from repro.core.urls import UrlFormulator
from repro.datasets.workloads import zipf_keyword_queries
from repro.faults import FaultPlane, FaultRule
from repro.store import InMemoryStore

from bench_store_backends import QUERY, SPEC, URI, synthetic_fragments

FRAGMENTS = int(os.environ.get("REPRO_BENCH_FT_FRAGMENTS", "3000"))
QUERY_COUNT = int(os.environ.get("REPRO_BENCH_FT_QUERIES", "120"))
NODES = int(os.environ.get("REPRO_BENCH_FT_NODES", "4"))
ROUNDS = int(os.environ.get("REPRO_BENCH_FT_ROUNDS", "5"))
DEADLINE_SECONDS = int(os.environ.get("REPRO_BENCH_FT_DEADLINE_MS", "150")) / 1000.0
SPIKE_SECONDS = int(os.environ.get("REPRO_BENCH_FT_SPIKE_MS", "400")) / 1000.0
K = 10
SIZE_THRESHOLD = 200
SKEW = 1.1
OVERHEAD_FLOOR_PCT = 5.0


def build_searcher(fragments, store) -> TopKSearcher:
    index = InvertedFragmentIndex(store=store)
    with store.write_batch():
        for identifier, term_frequencies in fragments.items():
            index.add_fragment(identifier, term_frequencies)
    index.finalize()
    sizes = {identifier: index.fragment_size(identifier) for identifier in fragments}
    graph = FragmentGraph.build(QUERY, sizes, store=store)
    return TopKSearcher(index, graph, UrlFormulator(QUERY, SPEC, URI))


def as_comparable(results) -> List[Tuple]:
    return [(r.url, r.score, r.fragments, r.size) for r in results]


def percentile(samples: List[float], fraction: float) -> float:
    if not samples:
        return 0.0
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(fraction * (len(ordered) - 1) + 0.5))]


def sweep(cluster, queries) -> Tuple[List[float], int, int]:
    """One sequential query sweep: per-query latencies, completes, partials."""
    latencies: List[float] = []
    complete = 0
    partial = 0
    for keywords in queries:
        started = time.perf_counter()
        detailed = cluster.router.search_detailed(
            keywords, k=K, size_threshold=SIZE_THRESHOLD
        )
        latencies.append(time.perf_counter() - started)
        if detailed.statistics.complete:
            complete += 1
        else:
            partial += 1
    return latencies, complete, partial


# ----------------------------------------------------------------------
# section 1: zero-fault overhead of the fault machinery
# ----------------------------------------------------------------------
def run_zero_fault_overhead(source_store, queries) -> Dict:
    def timed_sweep(
        fault_plane: Optional[FaultPlane], deadline: Optional[float]
    ) -> List[float]:
        cluster = SearchCluster.build(
            QUERY, SPEC, URI, source_store,
            nodes=NODES, replicas=2, partitions=NODES,
            fault_plane=fault_plane, deadline_seconds=deadline,
        )
        try:
            gc.collect()
            latencies = []
            for keywords in queries:
                started = time.perf_counter()
                cluster.router.search_detailed(
                    keywords, k=K, size_threshold=SIZE_THRESHOLD
                )
                latencies.append(time.perf_counter() - started)
            return latencies
        finally:
            cluster.close()

    def fold_minimum(
        accumulated: Optional[List[float]], latencies: List[float]
    ) -> List[float]:
        if accumulated is None:
            return latencies
        return [min(a, b) for a, b in zip(accumulated, latencies)]

    # Measuring a ~0% difference on shared hardware takes four defenses:
    # an untimed warm-up sweep (burstable CPU quotas run the first seconds
    # of a process faster than steady state, gifting whichever config goes
    # first), interleaved rounds with rotating order (so monotonic process
    # drift bills no config), per-query *minimum* latency folded across
    # rounds (scheduler bursts contaminate different queries in different
    # rounds, so the fold strips them the way timeit's min-of-repeats
    # does), and a calibration config — the bare baseline measured twice,
    # independently: whatever disparity survives between those two
    # identical configurations is pure measurement noise, and the overhead
    # verdict is only meaningful beyond it.
    configurations = ("baseline", "baseline_check", "fault_stack")
    timed_sweep(None, None)
    floors: Dict[str, Optional[List[float]]] = {name: None for name in configurations}
    for round_index in range(ROUNDS):
        rotation = round_index % len(configurations)
        order = configurations[rotation:] + configurations[:rotation]
        for name in order:
            if name == "fault_stack":
                latencies = timed_sweep(FaultPlane(seed=17), DEADLINE_SECONDS)
            else:
                latencies = timed_sweep(None, None)
            floors[name] = fold_minimum(floors[name], latencies)

    baseline = sum(floors["baseline"])
    baseline_check = sum(floors["baseline_check"])
    fault_stack = sum(floors["fault_stack"])
    overhead_pct = (fault_stack / baseline - 1.0) * 100.0
    noise_pct = abs(baseline_check / baseline - 1.0) * 100.0
    return {
        "rounds": ROUNDS,
        "queries": len(queries),
        "baseline_seconds": baseline,
        "baseline_check_seconds": baseline_check,
        "fault_stack_seconds": fault_stack,
        "overhead_pct": overhead_pct,
        "noise_pct": noise_pct,
        "overhead_floor_pct": OVERHEAD_FLOOR_PCT,
        "note": (
            "summed per-query minimum latency across N interleaved rounds; "
            "baseline is the bare router (no plane, no deadline), "
            "baseline_check is that same configuration measured again "
            "(their disparity = residual measurement noise), fault stack "
            "is plane-wrapped stores + candidate lists + breaker "
            "bookkeeping with zero rules firing"
        ),
    }


# ----------------------------------------------------------------------
# sections 2 + 3: chaos sweeps at replicas 1 vs 2
# ----------------------------------------------------------------------
def run_chaos_sweep(
    source_store,
    queries,
    reference,
    chaos: str,
) -> Dict:
    points = []
    for replicas in (1, 2):
        plane = FaultPlane(seed=23)
        cluster = SearchCluster.build(
            QUERY, SPEC, URI, source_store,
            nodes=NODES, replicas=replicas, partitions=NODES,
            fault_plane=plane,
            deadline_seconds=DEADLINE_SECONDS if chaos == "latency_spike" else None,
            degraded_ok=True,
            breaker_reset_seconds=300.0,
        )
        try:
            victim = cluster.assignment(0).primary
            if chaos == "node_kill":
                plane.kill_node(victim)
            else:
                plane.add_rule(
                    FaultRule(
                        kind="latency",
                        node=victim,
                        operation="posting_blocks_for_many",
                        every=4,
                        latency_seconds=SPIKE_SECONDS,
                    )
                )
            latencies, complete, partial = sweep(cluster, queries)
            parity_ok = True
            if replicas >= 2:
                # Recoverable chaos must be invisible: re-sweep and compare
                # byte-for-byte against the single-store reference.
                for keywords in queries:
                    routed = cluster.router.search_detailed(
                        keywords, k=K, size_threshold=SIZE_THRESHOLD
                    )
                    if as_comparable(routed.results) != reference[keywords]:
                        parity_ok = False
                        break
            lifetime = cluster.router.lifetime_statistics()
            points.append(
                {
                    "replicas": replicas,
                    "victim": victim,
                    "queries": len(queries),
                    "availability_pct": 100.0 * complete / len(queries),
                    "partial_results": partial,
                    "p50_latency_ms": percentile(latencies, 0.50) * 1000.0,
                    "p99_latency_ms": percentile(latencies, 0.99) * 1000.0,
                    "failovers": lifetime["failovers"],
                    "parity_ok": parity_ok,
                }
            )
        finally:
            cluster.close()
    return {
        "chaos": chaos,
        "nodes": NODES,
        "deadline_ms": DEADLINE_SECONDS * 1000.0 if chaos == "latency_spike" else None,
        "spike_ms": SPIKE_SECONDS * 1000.0 if chaos == "latency_spike" else None,
        "points": points,
    }


# ----------------------------------------------------------------------
# section 4: cached DF survival at replicas=1 — the fan-out-tax win
# ----------------------------------------------------------------------
def run_cached_df_survival(queries) -> Dict:
    """Warm the term-stats cache while healthy, kill a node, slice queries.

    A *survivor* query's keywords are absent from every partition the dead
    node hosted: warm, the cached DFs skip round 1 and the zero bounds
    prune the dead partitions before any stream opens, so the query never
    touches the dead node — complete, byte-identical answers at replicas=1.
    The always-scatter router failed 100% of these (round 1 touched every
    partition).  Queries that do consult the dead partitions remain
    degraded, proving the slice split is load-bearing.

    The section builds its own corpus with one rare keyword planted per
    partition (confined to a single cuisine chain): at full scale the
    shared zipf vocabulary spreads every keyword across all partitions, so
    without planting the survivor slice would be empty by construction.
    """
    fragments = synthetic_fragments(min(FRAGMENTS, 2000))
    partitioner = GroupPartitioner(QUERY, NODES)
    group_partition = {
        identifier[0]: partitioner.partition_of(identifier)
        for identifier in fragments
    }
    planted: Dict[int, str] = {}
    for group in sorted(group_partition):
        partition = group_partition[group]
        if partition in planted:
            continue
        keyword = f"survivorperk{partition}"
        planted[partition] = keyword
        for identifier, term_frequencies in fragments.items():
            if identifier[0] == group:
                term_frequencies[keyword] = 2 + partition
        if len(planted) == NODES:
            break
    source_store = InMemoryStore()
    searcher = build_searcher(fragments, source_store)
    plane = FaultPlane(seed=29)
    cluster = SearchCluster.build(
        QUERY, SPEC, URI, source_store,
        nodes=NODES, replicas=1, partitions=NODES,
        fault_plane=plane, degraded_ok=True, breaker_reset_seconds=300.0,
    )
    try:
        router = cluster.router
        victim = cluster.assignment(0).primary
        victim_partitions = {
            partition
            for partition in range(cluster.partition_count)
            if cluster.assignment(partition).primary == victim
        }
        presence: Dict[str, set] = {}
        for identifier, term_frequencies in fragments.items():
            partition = partitioner.partition_of(identifier)
            for keyword in term_frequencies:
                presence.setdefault(keyword, set()).add(partition)
        candidates = [
            (keyword,) for _, keyword in sorted(planted.items())
        ] + list(queries)
        survivors = [
            keywords
            for keywords in candidates
            if not any(
                presence.get(keyword, set()) & victim_partitions
                for keyword in keywords
            )
        ]
        doomed = [keywords for keywords in candidates if keywords not in survivors]
        reference = {
            keywords: as_comparable(
                searcher.search(list(keywords), k=K, size_threshold=SIZE_THRESHOLD)
            )
            for keywords in survivors
        }
        # Warm every slice while the cluster is healthy, then kill.
        for keywords in survivors + doomed:
            router.search_detailed(keywords, k=K, size_threshold=SIZE_THRESHOLD)
        plane.kill_node(victim)

        def slice_sweep(slice_queries, check_parity: bool) -> Dict:
            complete = 0
            parity_ok = True
            for keywords in slice_queries:
                detailed = router.search_detailed(
                    keywords, k=K, size_threshold=SIZE_THRESHOLD
                )
                if detailed.statistics.complete:
                    complete += 1
                if check_parity:
                    parity_ok = parity_ok and (
                        as_comparable(detailed.results) == reference[keywords]
                    )
            total = len(slice_queries)
            return {
                "queries": total,
                "complete": complete,
                "availability_pct": 100.0 * complete / total if total else 0.0,
                "parity_ok": parity_ok,
            }

        survivor_point = slice_sweep(survivors, check_parity=True)
        doomed_point = slice_sweep(doomed, check_parity=False)
        lifetime = router.lifetime_statistics()
        return {
            "replicas": 1,
            "victim": victim,
            "victim_partitions": sorted(victim_partitions),
            "survivor_queries": survivor_point,
            "consulting_queries": doomed_point,
            "df_cache_hits": lifetime["df_cache_hits"],
            "partitions_pruned": lifetime["partitions_pruned"],
            "note": (
                "survivor = no query keyword present in any dead partition; "
                "warm cached DFs + zero bounds mean the query never contacts "
                "the dead node at all"
            ),
        }
    finally:
        cluster.close()


# ----------------------------------------------------------------------
def run_benchmark() -> Dict:
    fragments = synthetic_fragments(FRAGMENTS)
    source_store = InMemoryStore()
    searcher = build_searcher(fragments, source_store)
    workload = zipf_keyword_queries(
        searcher.index.document_frequencies(),
        count=QUERY_COUNT,
        skew=SKEW,
        keywords_per_query=(1, 2),
        seed=47,
    )
    queries = list(workload.unique_queries())
    reference = {
        keywords: as_comparable(
            searcher.search(list(keywords), k=K, size_threshold=SIZE_THRESHOLD)
        )
        for keywords in queries
    }

    overhead = run_zero_fault_overhead(source_store, queries)
    node_kill = run_chaos_sweep(source_store, queries, reference, chaos="node_kill")
    latency_spike = run_chaos_sweep(
        source_store, queries, reference, chaos="latency_spike"
    )
    cached_survival = run_cached_df_survival(queries)

    payload = {
        "fragments": FRAGMENTS,
        "queries": QUERY_COUNT,
        "unique_queries": len(queries),
        "nodes": NODES,
        "zipf_skew": SKEW,
        "k": K,
        "size_threshold": SIZE_THRESHOLD,
        "zero_fault_overhead": overhead,
        "node_kill": node_kill,
        "latency_spike": latency_spike,
        "cached_df_survival": cached_survival,
    }

    print_table(
        ["baseline (s)", "fault stack (s)", "overhead (%)", "noise (%)"],
        [
            (
                round(overhead["baseline_seconds"], 3),
                round(overhead["fault_stack_seconds"], 3),
                round(overhead["overhead_pct"], 2),
                round(overhead["noise_pct"], 2),
            )
        ],
        title=f"zero-fault overhead ({ROUNDS} interleaved rounds, {len(queries)} queries)",
    )
    for section in (node_kill, latency_spike):
        print_table(
            ["replicas", "availability (%)", "partials", "p50 (ms)", "p99 (ms)",
             "failovers", "parity"],
            [
                (
                    p["replicas"],
                    round(p["availability_pct"], 1),
                    p["partial_results"],
                    round(p["p50_latency_ms"], 2),
                    round(p["p99_latency_ms"], 2),
                    p["failovers"],
                    "ok" if p["parity_ok"] else "MISMATCH",
                )
                for p in section["points"]
            ],
            title=f"{section['chaos']} chaos at {NODES} nodes (degraded_ok)",
        )
    print_table(
        ["slice", "queries", "availability (%)", "parity"],
        [
            (
                "survivor (dead partitions not consulted)",
                cached_survival["survivor_queries"]["queries"],
                round(cached_survival["survivor_queries"]["availability_pct"], 1),
                "ok" if cached_survival["survivor_queries"]["parity_ok"] else "MISMATCH",
            ),
            (
                "consulting dead partitions",
                cached_survival["consulting_queries"]["queries"],
                round(cached_survival["consulting_queries"]["availability_pct"], 1),
                "-",
            ),
        ],
        title="cached-DF survival at replicas=1 (warm term-stats cache, node killed)",
    )

    path = write_json("BENCH_fault_tolerance.json", payload)
    print(f"\nwrote {path}")
    return payload


def test_fault_tolerance_benchmark(benchmark):
    payload = benchmark.pedantic(run_benchmark, rounds=1, iterations=1)

    # recoverable chaos (replicas=2) is invisible: byte parity, zero
    # partial results, full availability — under both chaos modes
    for section in (payload["node_kill"], payload["latency_spike"]):
        replicated = next(p for p in section["points"] if p["replicas"] == 2)
        assert replicated["parity_ok"], section
        assert replicated["partial_results"] == 0, section
        assert replicated["availability_pct"] == 100.0, section
        assert replicated["failovers"] > 0, section
    # unrecoverable node kill (replicas=1) degrades gracefully: the sweep
    # still answers every query, flagging the lost partition's share
    solo = next(p for p in payload["node_kill"]["points"] if p["replicas"] == 1)
    assert solo["partial_results"] > 0, solo
    assert solo["availability_pct"] < 100.0, solo
    # cached-DF survival: with a warm term-stats cache at replicas=1,
    # queries that never consult the dead partitions answer complete and
    # byte-identical — availability > 0% where always-scatter recorded 0%
    survival = payload["cached_df_survival"]
    survivor_slice = survival["survivor_queries"]
    assert survivor_slice["queries"] > 0, survival
    assert survivor_slice["availability_pct"] == 100.0, survival
    assert survivor_slice["parity_ok"], survival
    # acceptance: <= 5% zero-fault routing overhead beyond measurement
    # noise (the same-config calibration disparity — on shared hardware two
    # identical runs already differ by several percent, and the fault stack
    # only fails this gate if it is slower than that residual explains).
    # The floor only binds at full scale: on tiny smoke corpora fixed
    # per-query costs dominate.
    if FRAGMENTS >= 3000:
        overhead = payload["zero_fault_overhead"]
        assert (
            overhead["overhead_pct"] <= OVERHEAD_FLOOR_PCT + overhead["noise_pct"]
        ), overhead


if __name__ == "__main__":
    run_benchmark()
