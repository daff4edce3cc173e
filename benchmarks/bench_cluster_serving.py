"""Cluster-serving benchmark: scatter-gather search over partitioned nodes.

Drives the :class:`~repro.cluster.SearchCluster` router with the same
Zipf-skewed workload as ``bench_serving.py`` and measures the four things
the cluster exists for:

1. **Node scaling** — routed ``search_many`` throughput at 1/2/4 nodes over
   a *fixed* partition layout, where each node is a contended resource:
   every copy a node hosts shares one per-node lock and every hot-path read
   holds it for a simulated round-trip (:class:`NodeCapacityStore`).  One
   node serializes the whole corpus behind one lock; four nodes are four
   independent capacity pools — that is the scaling being measured, and
   every routed answer is checked byte-identical to a latency-free
   single-store reference (``parity_ok`` per row).
2. **Replica reads** — the same contended-node model with 1 vs 2 copies per
   partition: round-robin replica reads add capacity for hot partitions.
3. **Merge early termination** — the router's fan-out counters on the
   impact-skewed workload: partials materialized by partition streams but
   never ranked (``partials_discarded``), and nodes whose streams were cut
   off before exhaustion (``nodes_short_circuited``).
4. **Rebalancing under load** — partitions are moved between nodes while a
   background thread keeps searching: every mid-move answer and the full
   post-move sweep must stay byte-identical (``parity_ok``).
5. **Warm term-stats cache** — the same contended-node workload run cold
   (cache invalidated before every query, so each pays the PR 9-style DF
   scatter) and warm (epoch-validated :class:`~repro.cluster.TermStatsCache`
   hits): measured fan-out submits per query must halve and p50 latency
   must drop, with every warm answer byte-identical (``parity_ok``).
6. **Partition pruning** — rare keywords planted into single cuisine
   chains: partitions whose admissible bound is zero are never contacted
   (``partitions_pruned``), with byte parity against the single-store
   reference (``parity_ok``).

Run under pytest (``PYTHONPATH=src python -m pytest benchmarks/bench_cluster_serving.py``)
or standalone (``PYTHONPATH=src python benchmarks/bench_cluster_serving.py``);
emits ``BENCH_cluster_serving.json``.

Environment knobs: ``REPRO_BENCH_CLUSTER_FRAGMENTS`` (synthetic fragment
count, default 4000), ``REPRO_BENCH_CLUSTER_QUERIES`` (stream length,
default 160), ``REPRO_BENCH_CLUSTER_DELAY_US`` (per-read node latency in
microseconds, default 150), ``REPRO_BENCH_CLUSTER_NODES`` (comma-separated
node counts, default ``1,2,4``), ``REPRO_BENCH_CLUSTER_WORKERS`` (service
worker threads, default 8), ``REPRO_BENCH_CLUSTER_REPLICAS``
(comma-separated copies per partition for the replica section, default
``1,2``).
"""

from __future__ import annotations

import os
import threading
import time
from typing import Callable, Dict, List, Tuple

from repro.bench.reporting import print_table, write_json
from repro.cluster import SearchCluster
from repro.core.fragment_graph import FragmentGraph
from repro.core.fragment_index import InvertedFragmentIndex
from repro.core.search import TopKSearcher
from repro.core.urls import UrlFormulator
from repro.datasets.workloads import zipf_keyword_queries
from repro.store import InMemoryStore

# Shared fooddb-shaped synthetic workload (cuisine chains, planted hot
# keywords) — the same corpus generator as the store-backend and serving
# benchmarks, so the cluster numbers stay comparable with theirs.
from bench_store_backends import HOT_KEYWORDS, QUERY, SPEC, URI, synthetic_fragments

FRAGMENTS = int(os.environ.get("REPRO_BENCH_CLUSTER_FRAGMENTS", "4000"))
QUERY_COUNT = int(os.environ.get("REPRO_BENCH_CLUSTER_QUERIES", "160"))
DELAY_SECONDS = int(os.environ.get("REPRO_BENCH_CLUSTER_DELAY_US", "150")) / 1_000_000.0
NODE_COUNTS = tuple(
    int(value) for value in os.environ.get("REPRO_BENCH_CLUSTER_NODES", "1,2,4").split(",")
)
WORKERS = int(os.environ.get("REPRO_BENCH_CLUSTER_WORKERS", "8"))
REPLICA_COUNTS = tuple(
    int(value) for value in os.environ.get("REPRO_BENCH_CLUSTER_REPLICAS", "1,2").split(",")
)
K = 10
SIZE_THRESHOLD = 200
SKEW = 1.1


class NodeCapacityStore(InMemoryStore):
    """A partition copy whose reads contend for its *node's* capacity.

    All copies hosted on one simulated node share one lock, and every
    hot-path read holds it for ``delay_seconds`` — the stand-in for a
    node's saturated NIC/disk.  With the whole corpus on one node, every
    concurrent query convoys behind one lock; spreading partitions over N
    nodes gives the same workload N independent capacity pools.  (Plain
    in-memory reads are GIL-bound and would show no topology effect.)
    """

    def __init__(self, node_lock: threading.Lock, delay_seconds: float) -> None:
        super().__init__()
        self._node_lock = node_lock
        self.delay_seconds = delay_seconds
        self.blocked_reads = 0

    def _pay(self) -> None:
        with self._node_lock:
            self.blocked_reads += 1
            if self.delay_seconds:
                time.sleep(self.delay_seconds)

    def posting_blocks_for_many(self, keywords):
        self._pay()
        return super().posting_blocks_for_many(keywords)

    def postings_for_many(self, keywords):
        self._pay()
        return super().postings_for_many(keywords)

    def fragment_sizes_for(self, identifiers):
        self._pay()
        return super().fragment_sizes_for(identifiers)

    def fragment_term_frequencies_for(self, identifiers):
        self._pay()
        return super().fragment_term_frequencies_for(identifiers)


def capacity_factory(delay_seconds: float) -> Callable[[str, int], NodeCapacityStore]:
    """A ``node_store`` factory giving every node one shared capacity lock."""
    node_locks: Dict[str, threading.Lock] = {}

    def factory(node_id: str, partition: int) -> NodeCapacityStore:
        lock = node_locks.setdefault(node_id, threading.Lock())
        return NodeCapacityStore(lock, delay_seconds)

    return factory


# ----------------------------------------------------------------------
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


def reference_answers(searcher, queries) -> Dict[Tuple[str, ...], List[Tuple]]:
    """The latency-free single-store oracle every routed pass is checked against."""
    return {
        keywords: as_comparable(
            searcher.search(list(keywords), k=K, size_threshold=SIZE_THRESHOLD)
        )
        for keywords in queries
    }


# ----------------------------------------------------------------------
# section 1: node-count scaling under per-node capacity contention
# ----------------------------------------------------------------------
def run_node_scaling(source_store, queries, reference) -> Dict:
    partitions = max(NODE_COUNTS)
    points = []
    for nodes in NODE_COUNTS:
        cluster = SearchCluster.build(
            QUERY, SPEC, URI, source_store,
            nodes=nodes, replicas=1, partitions=partitions,
            node_store=capacity_factory(DELAY_SECONDS),
        )
        service = cluster.service(cache_size=0, workers=WORKERS)
        started = time.perf_counter()
        batch = service.search_many(queries, k=K, size_threshold=SIZE_THRESHOLD)
        elapsed = time.perf_counter() - started
        parity_ok = all(
            as_comparable(served.results) == reference[keywords]
            for served, keywords in zip(batch, queries)
        )
        lifetime = cluster.router.lifetime_statistics()
        points.append(
            {
                "nodes": nodes,
                "partitions": partitions,
                "queries": len(queries),
                "elapsed_seconds": elapsed,
                "throughput_qps": len(queries) / elapsed,
                "partials_merged": lifetime["partials_merged"],
                "partials_discarded": lifetime["partials_discarded"],
                "nodes_short_circuited": lifetime["nodes_short_circuited"],
                "parity_ok": parity_ok,
            }
        )
        service.close()
    base = points[0]["throughput_qps"]
    for point in points:
        point["speedup_vs_1_node"] = point["throughput_qps"] / base
    return {
        "read_delay_us": DELAY_SECONDS * 1_000_000.0,
        "workers": WORKERS,
        "note": (
            "fixed partition layout; each node's copies share one capacity "
            "lock per read — node count is the number of independent "
            "capacity pools"
        ),
        "points": points,
    }


# ----------------------------------------------------------------------
# section 2: replica reads for hot partitions
# ----------------------------------------------------------------------
def run_replica_reads(source_store, queries, reference) -> Dict:
    nodes = max(NODE_COUNTS)
    points = []
    for replicas in REPLICA_COUNTS:
        cluster = SearchCluster.build(
            QUERY, SPEC, URI, source_store,
            nodes=nodes, replicas=replicas, partitions=nodes,
            node_store=capacity_factory(DELAY_SECONDS),
        )
        service = cluster.service(cache_size=0, workers=WORKERS)
        started = time.perf_counter()
        batch = service.search_many(queries, k=K, size_threshold=SIZE_THRESHOLD)
        elapsed = time.perf_counter() - started
        parity_ok = all(
            as_comparable(served.results) == reference[keywords]
            for served, keywords in zip(batch, queries)
        )
        points.append(
            {
                "replicas": replicas,
                "nodes": nodes,
                "queries": len(queries),
                "elapsed_seconds": elapsed,
                "throughput_qps": len(queries) / elapsed,
                "parity_ok": parity_ok,
            }
        )
        service.close()
    return {
        "note": "round-robin reads over fresh replicas spread hot partitions' load",
        "points": points,
    }


# ----------------------------------------------------------------------
# section 3: merge early termination on the impact-skewed workload
# ----------------------------------------------------------------------
def run_merge_counters(source_store, searcher) -> Dict:
    """Fan-out counters over hot-keyword queries at small k.

    The planted hot keywords give every partition plenty of candidates;
    a stream scores a group's seeds only when it opens that group's token.
    The figure that isolates what the *cluster* adds on top of the single
    store is ``merge_overhead``: ``partials_discarded`` minus the
    single-store run's own leftover queue on the identical queries —
    ``seeds_scored + expansions - dequeues``, the exactly scored entries
    pushed and not popped; group tokens are in none of the three counters,
    nor in ``partials_discarded``.  It is exactly zero: pruned partitions
    hold no seed, and the limit-bounded merge opens the single queue's
    groups and performs its dequeues and expansions, no more and no fewer,
    so the partition queues' leftovers add up to the one merged queue's.
    """
    nodes = max(NODE_COUNTS)
    cluster = SearchCluster.build(
        QUERY, SPEC, URI, source_store, nodes=nodes, partitions=nodes,
    )
    hot_queries = [(keyword,) for keyword in HOT_KEYWORDS] + [tuple(HOT_KEYWORDS[:2])]
    parity_ok = True
    single_leftover = 0
    for k in (1, K):
        for keywords in hot_queries:
            routed = cluster.router.search_detailed(
                keywords, k=k, size_threshold=SIZE_THRESHOLD
            )
            single = searcher.search_detailed(
                keywords, k=k, size_threshold=SIZE_THRESHOLD
            )
            single_leftover += (
                single.statistics.seeds_scored
                + single.statistics.expansions
                - single.statistics.dequeues
            )
            parity_ok = parity_ok and (
                as_comparable(routed.results) == as_comparable(single.results)
            )
    lifetime = cluster.router.lifetime_statistics()
    cluster.close()
    return {
        "nodes": nodes,
        "hot_queries": len(hot_queries) * 2,
        "searches": lifetime["searches"],
        "partials_merged": lifetime["partials_merged"],
        "partials_discarded": lifetime["partials_discarded"],
        "single_store_leftover": single_leftover,
        "merge_overhead": lifetime["partials_discarded"] - single_leftover,
        "discard_ratio": lifetime["discard_ratio"],
        "nodes_queried": lifetime["nodes_queried"],
        "nodes_short_circuited": lifetime["nodes_short_circuited"],
        "parity_ok": parity_ok,
    }


# ----------------------------------------------------------------------
# section 5: warm term-stats cache — one fan-out round instead of two
# ----------------------------------------------------------------------
def run_warm_stats_cache(source_store, queries, reference) -> Dict:
    """Cold vs warm DF reads over the contended-node workload.

    The cold pass invalidates the term-stats cache before every query, so
    each one pays the full PR 9-style DF scatter (round 1 to every
    partition) on top of the stream opens; the warm pass serves global
    frequencies and bounds from the epoch-validated cache — exactly one
    fan-out round.  ``fanout_submits`` counts thread-pool submits, so the
    per-query ratio is the direct measure of the eliminated round.

    The DF round costs a fixed handful of node reads (~0.6 ms here)
    against a stream/merge phase in the tens of milliseconds, so p50 is
    taken over per-query minima across several rounds — the standard
    scheduler-noise filter (the overhead section of the fault-tolerance
    bench does the same) — to keep the small deterministic saving visible.
    """
    rounds = 3
    nodes = max(NODE_COUNTS)
    cluster = SearchCluster.build(
        QUERY, SPEC, URI, source_store,
        nodes=nodes, replicas=1, partitions=nodes,
        node_store=capacity_factory(DELAY_SECONDS),
    )
    router = cluster.router

    def run_pass(cold: bool) -> Dict:
        best = [float("inf")] * len(queries)
        parity_ok = True
        before = router.lifetime_statistics()["fanout_submits"]
        for _round in range(rounds):
            for position, keywords in enumerate(queries):
                if cold:
                    router.term_stats.invalidate()
                started = time.perf_counter()
                routed = router.search_detailed(
                    keywords, k=K, size_threshold=SIZE_THRESHOLD
                )
                elapsed = time.perf_counter() - started
                if elapsed < best[position]:
                    best[position] = elapsed
                parity_ok = parity_ok and (
                    as_comparable(routed.results) == reference[keywords]
                )
        submits = router.lifetime_statistics()["fanout_submits"] - before
        latencies = sorted(best)
        return {
            "queries": len(queries),
            "rounds": rounds,
            "fanout_submits": submits,
            "submits_per_query": submits / (len(queries) * rounds),
            "p50_latency_ms": latencies[len(latencies) // 2] * 1000.0,
            "parity_ok": parity_ok,
        }

    cold = run_pass(cold=True)
    for keywords in queries:  # prime every workload entry before measuring warm
        router.search_detailed(keywords, k=K, size_threshold=SIZE_THRESHOLD)
    warm = run_pass(cold=False)
    cache = router.term_stats.statistics()
    cluster.close()
    return {
        "nodes": nodes,
        "read_delay_us": DELAY_SECONDS * 1_000_000.0,
        "cold": cold,
        "warm": warm,
        "submit_ratio_cold_over_warm": (
            cold["submits_per_query"] / warm["submits_per_query"]
            if warm["submits_per_query"]
            else float("inf")
        ),
        "p50_speedup_warm_vs_cold": (
            cold["p50_latency_ms"] / warm["p50_latency_ms"]
            if warm["p50_latency_ms"]
            else float("inf")
        ),
        "term_stats_cache": cache,
        "parity_ok": cold["parity_ok"] and warm["parity_ok"],
    }


# ----------------------------------------------------------------------
# section 6: bound-aware partition pruning on an impact-skewed corpus
# ----------------------------------------------------------------------
def run_partition_pruning() -> Dict:
    """Rare keywords confined to single cuisine chains prune the fan-out.

    Each planted keyword lives in exactly one chain, hence one partition —
    every other partition's admissible bound is zero and its stream is
    never opened (with a warm cache the partition is never contacted at
    all).  Parity against a latency-free single-store reference pins
    exactness; an unseen keyword exercises the negative-entry path where
    *every* partition is pruned.
    """
    fragments = synthetic_fragments(min(FRAGMENTS, 2000))
    groups = sorted({identifier[0] for identifier in fragments})
    planted = ("bluefintoro", "quincepaste", "yuzukosho")
    for offset, keyword in enumerate(planted):
        group = groups[offset % len(groups)]
        for identifier, term_frequencies in fragments.items():
            if identifier[0] == group:
                term_frequencies[keyword] = 2 + offset
    source_store = InMemoryStore()
    searcher = build_searcher(fragments, source_store)
    nodes = max(NODE_COUNTS)
    cluster = SearchCluster.build(
        QUERY, SPEC, URI, source_store, nodes=nodes, partitions=nodes,
    )
    router = cluster.router
    pruning_queries = [(keyword,) for keyword in planted]
    pruning_queries.append(tuple(planted[:2]))
    pruning_queries.append(("keyword-nowhere",))
    parity_ok = True
    min_pruned = None
    for _pass in ("cold", "warm"):
        for keywords in pruning_queries:
            routed = router.search_detailed(keywords, k=K, size_threshold=SIZE_THRESHOLD)
            single = searcher.search_detailed(
                list(keywords), k=K, size_threshold=SIZE_THRESHOLD
            )
            parity_ok = parity_ok and (
                as_comparable(routed.results) == as_comparable(single.results)
            )
            pruned = routed.statistics.partitions_pruned
            min_pruned = pruned if min_pruned is None else min(min_pruned, pruned)
    lifetime = router.lifetime_statistics()
    cluster.close()
    return {
        "nodes": nodes,
        "planted_keywords": len(planted),
        "queries": len(pruning_queries) * 2,
        "searches": lifetime["searches"],
        "partitions_pruned": lifetime["partitions_pruned"],
        "min_partitions_pruned": min_pruned,
        "parity_ok": parity_ok,
    }


# ----------------------------------------------------------------------
# section 4: rebalancing under load
# ----------------------------------------------------------------------
def run_rebalance_under_load(source_store, queries, reference) -> Dict:
    nodes = max(NODE_COUNTS)
    cluster = SearchCluster.build(
        QUERY, SPEC, URI, source_store, nodes=nodes, partitions=nodes,
    )
    stop = threading.Event()
    failures: List[Tuple[str, ...]] = []
    searched = [0]

    def keep_searching() -> None:
        index = 0
        while not stop.is_set():
            keywords = queries[index % len(queries)]
            routed = cluster.router.search_detailed(
                keywords, k=K, size_threshold=SIZE_THRESHOLD
            )
            if as_comparable(routed.results) != reference[keywords]:
                failures.append(keywords)
            searched[0] += 1
            index += 1

    reader = threading.Thread(target=keep_searching)
    reader.start()
    moves = 0
    started = time.perf_counter()
    try:
        node_ids = list(cluster.nodes)
        for partition in range(cluster.partition_count):
            primary = cluster.assignment(partition).primary
            target = next(node_id for node_id in node_ids if node_id != primary)
            if cluster.rebalance(partition, target):
                moves += 1
    finally:
        stop.set()
        reader.join()
    elapsed = time.perf_counter() - started
    post_move_parity = all(
        as_comparable(
            cluster.router.search_detailed(
                keywords, k=K, size_threshold=SIZE_THRESHOLD
            ).results
        )
        == reference[keywords]
        for keywords in queries
    )
    cluster.close()
    return {
        "moves": moves,
        "elapsed_seconds": elapsed,
        "searches_during_moves": searched[0],
        "mid_move_mismatches": len(failures),
        "parity_ok": post_move_parity and not failures,
    }


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
        seed=31,
    )
    queries = list(workload.unique_queries())
    reference = reference_answers(searcher, queries)

    node_scaling = run_node_scaling(source_store, queries, reference)
    replica_reads = run_replica_reads(source_store, queries, reference)
    merge_counters = run_merge_counters(source_store, searcher)
    rebalance = run_rebalance_under_load(source_store, queries, reference)
    warm_stats = run_warm_stats_cache(source_store, queries, reference)
    pruning = run_partition_pruning()

    payload = {
        "fragments": FRAGMENTS,
        "queries": QUERY_COUNT,
        "unique_queries": len(queries),
        "zipf_skew": SKEW,
        "k": K,
        "size_threshold": SIZE_THRESHOLD,
        "node_scaling": node_scaling,
        "replica_reads": replica_reads,
        "merge_early_termination": merge_counters,
        "rebalance_under_load": rebalance,
        "warm_stats_cache": warm_stats,
        "partition_pruning": pruning,
    }

    print_table(
        ["nodes", "throughput (q/s)", "speedup vs 1", "partials discarded", "parity"],
        [
            (
                p["nodes"],
                round(p["throughput_qps"], 1),
                round(p["speedup_vs_1_node"], 2),
                p["partials_discarded"],
                "ok" if p["parity_ok"] else "MISMATCH",
            )
            for p in node_scaling["points"]
        ],
        title=(
            f"routed search_many node scaling "
            f"({node_scaling['read_delay_us']:.0f}us/read node capacity, "
            f"{WORKERS} workers, {max(NODE_COUNTS)} partitions)"
        ),
    )
    print_table(
        ["replicas", "throughput (q/s)", "parity"],
        [
            (p["replicas"], round(p["throughput_qps"], 1), "ok" if p["parity_ok"] else "MISMATCH")
            for p in replica_reads["points"]
        ],
        title=f"replica reads at {max(NODE_COUNTS)} nodes",
    )
    print_table(
        ["searches", "partials merged", "partials discarded", "single-store leftover",
         "merge overhead", "nodes short-circuited", "parity"],
        [
            (
                merge_counters["searches"],
                merge_counters["partials_merged"],
                merge_counters["partials_discarded"],
                merge_counters["single_store_leftover"],
                merge_counters["merge_overhead"],
                merge_counters["nodes_short_circuited"],
                "ok" if merge_counters["parity_ok"] else "MISMATCH",
            )
        ],
        title="merge early termination (hot keywords, bound-keyed interleave)",
    )
    print_table(
        ["moves", "searches during moves", "mid-move mismatches", "parity"],
        [
            (
                rebalance["moves"],
                rebalance["searches_during_moves"],
                rebalance["mid_move_mismatches"],
                "ok" if rebalance["parity_ok"] else "MISMATCH",
            )
        ],
        title="rebalancing under load (snapshot move, zero downtime)",
    )
    print_table(
        ["pass", "submits/query", "p50 (ms)", "parity"],
        [
            (
                name,
                round(point["submits_per_query"], 2),
                round(point["p50_latency_ms"], 3),
                "ok" if point["parity_ok"] else "MISMATCH",
            )
            for name, point in (("cold", warm_stats["cold"]), ("warm", warm_stats["warm"]))
        ],
        title=(
            f"warm term-stats cache (submit ratio "
            f"{warm_stats['submit_ratio_cold_over_warm']:.2f}x, p50 speedup "
            f"{warm_stats['p50_speedup_warm_vs_cold']:.2f}x)"
        ),
    )
    print_table(
        ["searches", "partitions pruned", "min pruned/query", "parity"],
        [
            (
                pruning["searches"],
                pruning["partitions_pruned"],
                pruning["min_partitions_pruned"],
                "ok" if pruning["parity_ok"] else "MISMATCH",
            )
        ],
        title="bound-aware partition pruning (rare keywords in single chains)",
    )

    path = write_json("BENCH_cluster_serving.json", payload)
    print(f"\nwrote {path}")
    return payload


def test_cluster_serving_benchmark(benchmark):
    payload = benchmark.pedantic(run_benchmark, rounds=1, iterations=1)

    # every routed answer — scaling passes, replica passes, hot-keyword
    # merges, mid-move and post-move sweeps — byte-identical to the
    # latency-free single-store reference
    assert all(p["parity_ok"] for p in payload["node_scaling"]["points"])
    assert all(p["parity_ok"] for p in payload["replica_reads"]["points"])
    assert payload["merge_early_termination"]["parity_ok"]
    assert payload["rebalance_under_load"]["parity_ok"]
    assert payload["rebalance_under_load"]["mid_move_mismatches"] == 0
    assert payload["rebalance_under_load"]["moves"] >= 1
    # the bound-aware merge must be dropping work: partials scored by
    # partition streams but never ranked into the global top-k
    assert payload["merge_early_termination"]["partials_discarded"] > 0
    # the limit-bounded merge replays the single queue's dequeues exactly,
    # so the partition queues' leftovers add up to the single store's
    assert payload["merge_early_termination"]["merge_overhead"] == 0, (
        payload["merge_early_termination"]
    )
    # warm term-stats cache: exactly one fan-out round instead of two —
    # submits per query at least halved vs the cold (always-scatter) pass,
    # every answer byte-identical either way
    warm_stats = payload["warm_stats_cache"]
    assert warm_stats["parity_ok"], warm_stats
    assert warm_stats["submit_ratio_cold_over_warm"] >= 2.0, warm_stats
    # bound-aware pruning: every rare-keyword query skips at least one
    # partition outright, with byte parity against the single store
    pruning = payload["partition_pruning"]
    assert pruning["parity_ok"], pruning
    assert pruning["min_partitions_pruned"] >= 1, pruning
    # acceptance: >= 1.5x routed search_many throughput at 4 nodes vs 1 node
    # under simulated per-node capacity (the floor only binds at full scale:
    # on tiny smoke corpora fixed per-query costs dominate the lock waits)
    points = payload["node_scaling"]["points"]
    if FRAGMENTS >= 4000 and len(points) > 1 and points[-1]["nodes"] >= 4:
        assert points[-1]["speedup_vs_1_node"] >= 1.5, points


if __name__ == "__main__":
    run_benchmark()
