"""Serving-layer benchmark: the cached, concurrent SearchService under load.

Drives :class:`~repro.serving.SearchService` with Zipf-skewed keyword-query
streams (:func:`repro.datasets.workloads.zipf_keyword_queries`) and measures
the three things a query frontend is judged by:

1. **Cache effectiveness** — per-request latency distributions (p50/p95/p99)
   of the uncached ``TopKSearcher.search`` baseline vs. a cold-cache and a
   hot-cache service pass on the in-memory backend.  Every service answer
   is checked byte-identical to the uncached baseline.
2. **Worker scaling** — ``search_many`` throughput at 1/2/4 workers over a
   store whose reads block (:class:`BlockingReadStore`, emulating the remote
   partition / disk round-trips of a deployed backend, where thread
   concurrency actually overlaps waiting), and — separately — over the real
   :class:`DiskStore` with simulated storage latency per SQL read
   (:class:`StorageLatencyDiskStore`), where the per-thread read-connection
   pool is what lets workers overlap at all: the same pass re-run in the
   pre-overhaul single-locked-connection regime is reported alongside.
3. **Mixed search + maintenance** — a hot cache over fooddb, interleaved with
   ``IncrementalMaintainer`` updates: epoch-based invalidation must drop every
   query whose dependencies were touched (each recomputed answer is verified
   against a fresh search) while queries the updates did not touch keep
   hitting.  fooddb is tiny and hub-heavy, so most queries there genuinely
   depend on the updated fragments; the retained-hit count reports how many
   did not.

Run under pytest (``PYTHONPATH=src python -m pytest benchmarks/bench_serving.py``)
or standalone (``PYTHONPATH=src python benchmarks/bench_serving.py``); emits
``BENCH_serving.json``.

Environment knobs: ``REPRO_BENCH_SERVING_FRAGMENTS`` (synthetic fragment
count, default 4000), ``REPRO_BENCH_SERVING_QUERIES`` (stream length, default
240), ``REPRO_BENCH_SERVING_SKEW`` (Zipf skew, default 1.1),
``REPRO_BENCH_SERVING_DELAY_US`` (blocked-read latency in microseconds for
the scaling section, default 150), ``REPRO_BENCH_SERVING_WORKERS``
(comma-separated worker counts, default ``1,2,4``),
``REPRO_BENCH_SERVING_DISK_DELAY_US`` (simulated storage latency per disk
SQL read, default 150), ``REPRO_BENCH_SERVING_DISK_QUERIES`` (distinct
queries per disk-scaling pass, default 96).
"""

from __future__ import annotations

import os
import random
import shutil
import tempfile
import time
from typing import Dict, List, Tuple

from repro.bench.reporting import print_table, summarize_latencies, write_json
from repro.core.engine import DashEngine
from repro.core.fragment_graph import FragmentGraph
from repro.core.fragment_index import InvertedFragmentIndex
from repro.core.incremental import IncrementalMaintainer
from repro.core.search import TopKSearcher
from repro.core.urls import UrlFormulator
from repro.datasets.fooddb import build_fooddb, fooddb_search_query
from repro.datasets.workloads import zipf_keyword_queries
from repro.serving import SearchService
from repro.store import DiskStore, InMemoryStore
from repro.webapp.application import WebApplication
from repro.webapp.request import QueryStringSpec

# The synthetic workload (fooddb-shaped fragment sets: cuisine chains, mixed
# vocabulary, planted hot keywords) is shared with the store-backend
# benchmark so the two benchmarks' numbers stay comparable.
from bench_store_backends import HOT_KEYWORDS, QUERY, SPEC, URI, synthetic_fragments

FRAGMENTS = int(os.environ.get("REPRO_BENCH_SERVING_FRAGMENTS", "4000"))
QUERY_COUNT = int(os.environ.get("REPRO_BENCH_SERVING_QUERIES", "240"))
SKEW = float(os.environ.get("REPRO_BENCH_SERVING_SKEW", "1.1"))
DELAY_SECONDS = int(os.environ.get("REPRO_BENCH_SERVING_DELAY_US", "150")) / 1_000_000.0
WORKER_COUNTS = tuple(
    int(value) for value in os.environ.get("REPRO_BENCH_SERVING_WORKERS", "1,2,4").split(",")
)
DISK_DELAY_SECONDS = (
    int(os.environ.get("REPRO_BENCH_SERVING_DISK_DELAY_US", "150")) / 1_000_000.0
)
DISK_SCALING_QUERIES = int(os.environ.get("REPRO_BENCH_SERVING_DISK_QUERIES", "96"))
K = 10
SIZE_THRESHOLD = 200


class BlockingReadStore(InMemoryStore):
    """An in-memory store whose hot-path reads block for a fixed latency.

    Emulates the backend of a deployed search tier — remote partitions, disk —
    where each postings/size lookup is a round-trip.  Thread-pool
    concurrency overlaps those waits, which is what the worker-scaling
    section measures (pure in-memory reads are GIL-bound and cannot scale).
    """

    def __init__(self, delay_seconds: float) -> None:
        super().__init__()
        self.delay_seconds = delay_seconds
        self.blocked_reads = 0

    def _block(self) -> None:
        self.blocked_reads += 1
        time.sleep(self.delay_seconds)

    def postings(self, keyword):
        self._block()
        return super().postings(keyword)

    def fragment_sizes_for(self, identifiers):
        self._block()
        return super().fragment_sizes_for(identifiers)


class StorageLatencyDiskStore(DiskStore):
    """A real :class:`DiskStore` whose SQL reads pay a storage round-trip.

    On a laptop's page cache, sqlite reads return in microseconds and a
    search is GIL-bound Python — no thread count can speed that up.  The
    deployed regime the read-connection pool exists for is different:
    sqlite on networked or cold block storage, where each read blocks in
    the kernel with the GIL released.  ``time.sleep`` is the stand-in for
    that blocking (the same methodology as :class:`BlockingReadStore`
    above; the delay is recorded in the JSON payload).

    ``pooled=False`` reproduces the pre-overhaul read path byte for byte:
    every read — and its latency — convoys behind the single shared
    connection's lock, which is exactly why disk-backed ``search_many``
    used not to scale with workers.
    """

    def __init__(self, path: str, delay_seconds: float, pooled: bool = True) -> None:
        super().__init__(path)
        self.delay_seconds = delay_seconds
        self.pooled = pooled

    def _execute_read(self, sql, parameters=()):
        if not self.pooled:
            with self._lock:
                if self.delay_seconds:
                    time.sleep(self.delay_seconds)
                return self._connection.execute(sql, parameters).fetchall()
        if self.delay_seconds:
            time.sleep(self.delay_seconds)
        return super()._execute_read(sql, parameters)


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


# ----------------------------------------------------------------------
# section 1: uncached vs cold vs hot cache
# ----------------------------------------------------------------------
def run_cache_comparison(fragments, workload) -> List[Dict]:
    searcher = build_searcher(fragments, InMemoryStore())
    reference: Dict[Tuple[str, ...], List[Tuple]] = {}
    uncached: List[float] = []
    for keywords in workload:
        started = time.perf_counter()
        results = searcher.search(keywords, k=K, size_threshold=SIZE_THRESHOLD)
        uncached.append(time.perf_counter() - started)
        reference.setdefault(keywords, as_comparable(results))

    service = SearchService(searcher, cache_size=4096, workers=1)
    parity_ok = True
    cold: List[float] = []
    for keywords in workload:
        started = time.perf_counter()
        served = service.search(keywords, k=K, size_threshold=SIZE_THRESHOLD)
        cold.append(time.perf_counter() - started)
        parity_ok = parity_ok and as_comparable(served.results) == reference[keywords]
    hot: List[float] = []
    hot_hits = 0
    for keywords in workload:
        started = time.perf_counter()
        served = service.search(keywords, k=K, size_threshold=SIZE_THRESHOLD)
        hot.append(time.perf_counter() - started)
        hot_hits += 1 if served.cached else 0
        parity_ok = parity_ok and as_comparable(served.results) == reference[keywords]

    summary_uncached = summarize_latencies(uncached)
    summary_cold = summarize_latencies(cold)
    summary_hot = summarize_latencies(hot)
    service.close()
    return [
        {
            "backend": "memory",
            "uncached": summary_uncached,
            "cold_cache": summary_cold,
            "hot_cache": summary_hot,
            "hot_hit_rate": hot_hits / len(workload),
            "hot_speedup_vs_uncached": summary_uncached["mean_ms"] / summary_hot["mean_ms"],
            "cold_speedup_vs_uncached": summary_uncached["mean_ms"] / summary_cold["mean_ms"],
            "parity_ok": parity_ok,
        }
    ]


# ----------------------------------------------------------------------
# section 2: worker scaling over a blocking-read store
# ----------------------------------------------------------------------
def run_worker_scaling(fragments, workload) -> Dict:
    unique_queries = list(workload.unique_queries())[:120]
    points = []
    for workers in WORKER_COUNTS:
        searcher = build_searcher(fragments, BlockingReadStore(DELAY_SECONDS))
        service = SearchService(searcher, cache_size=0, workers=workers)
        started = time.perf_counter()
        batch = service.search_many(unique_queries, k=K, size_threshold=SIZE_THRESHOLD)
        elapsed = time.perf_counter() - started
        assert len(batch) == len(unique_queries)
        points.append(
            {
                "workers": workers,
                "queries": len(unique_queries),
                "elapsed_seconds": elapsed,
                "throughput_qps": len(unique_queries) / elapsed,
            }
        )
        service.close()
    base = points[0]["throughput_qps"]
    for point in points:
        point["speedup_vs_1_worker"] = point["throughput_qps"] / base
    return {
        "read_delay_us": DELAY_SECONDS * 1_000_000.0,
        "note": "reads block (simulated remote partitions); threads overlap the waits",
        "points": points,
    }


# ----------------------------------------------------------------------
# section 2b: worker scaling on the real disk backend
# ----------------------------------------------------------------------
def run_disk_worker_scaling(fragments, workload) -> Dict:
    """``search_many`` on a :class:`DiskStore` at increasing worker counts.

    The corpus is built onto a real sqlite file once; every pass answers the
    same distinct-query batch with cold in-memory read caches
    (``drop_read_caches``), so each pass exercises the pooled SQL read path
    end to end.  Reads pay ``DISK_DELAY_SECONDS`` of simulated storage
    latency (see :class:`StorageLatencyDiskStore`).  Every pass's ranked
    results are checked byte-identical against a latency-free serial
    reference, and a final pass re-runs the top worker count in the
    pre-overhaul single-locked-connection regime — the row that shows the
    connection pool, not the thread pool, is what makes disk scale.
    """
    unique_queries = list(workload.unique_queries())[:DISK_SCALING_QUERIES]
    directory = tempfile.mkdtemp(prefix="repro-bench-serving-disk-")
    store = StorageLatencyDiskStore(os.path.join(directory, "store.sqlite"), delay_seconds=0.0)
    searcher = build_searcher(fragments, store)
    # Latency-free serial pass: the parity oracle for every measured pass.
    reference = [
        as_comparable(searcher.search(list(keywords), k=K, size_threshold=SIZE_THRESHOLD))
        for keywords in unique_queries
    ]
    store.delay_seconds = DISK_DELAY_SECONDS

    def measure(workers: int) -> Tuple[Dict, bool]:
        store.drop_read_caches()
        service = SearchService(searcher, cache_size=0, workers=workers)
        started = time.perf_counter()
        batch = service.search_many(unique_queries, k=K, size_threshold=SIZE_THRESHOLD)
        elapsed = time.perf_counter() - started
        service.close()
        parity = [as_comparable(result.results) for result in batch] == reference
        point = {
            "workers": workers,
            "queries": len(unique_queries),
            "elapsed_seconds": elapsed,
            "throughput_qps": len(unique_queries) / elapsed,
        }
        return point, parity

    parity_ok = True
    points = []
    totals_before = searcher.lifetime_statistics()
    for workers in WORKER_COUNTS:
        point, parity = measure(workers)
        parity_ok = parity_ok and parity
        points.append(point)
    totals_after = searcher.lifetime_statistics()
    base = points[0]["throughput_qps"]
    for point in points:
        point["speedup_vs_1_worker"] = point["throughput_qps"] / base

    # The pre-pool regime at the top worker count: reads convoy behind the
    # write connection's lock, so worker threads buy (almost) nothing.
    store.pooled = False
    locked_point, locked_parity = measure(max(WORKER_COUNTS))
    parity_ok = parity_ok and locked_parity
    locked_point["speedup_vs_1_worker"] = locked_point["throughput_qps"] / base
    store.close()
    shutil.rmtree(directory, ignore_errors=True)

    # Pruning deltas over the measured pooled passes only — the serial
    # reference and the locked re-run would otherwise inflate the counts.
    return {
        "read_delay_us": DISK_DELAY_SECONDS * 1_000_000.0,
        "note": (
            "real DiskStore on a sqlite file; SQL reads pay a simulated "
            "storage round-trip (GIL released, as cold/networked block "
            "storage would); caches dropped before every pass"
        ),
        "points": points,
        "locked_connection_at_max_workers": locked_point,
        "pruned_expansions": (
            totals_after["pruned_expansions"] - totals_before["pruned_expansions"]
        ),
        "parity_ok": parity_ok,
    }


# ----------------------------------------------------------------------
# section 3: mixed search + maintenance over fooddb
# ----------------------------------------------------------------------
def run_mixed_maintenance() -> Dict:
    database = build_fooddb()
    application = WebApplication(
        name="Search", uri=URI, query=fooddb_search_query(database), query_string_spec=SPEC
    )
    engine = DashEngine.build(application, database, algorithm="integrated", analyze_source=False)
    service = engine.serving(cache_size=256, workers=1, default_k=5, default_size_threshold=20)
    maintainer = IncrementalMaintainer(
        engine.application.query, database, engine.index, engine.graph
    )

    workload = zipf_keyword_queries(
        engine.index.document_frequencies(), count=80, skew=SKEW, keywords_per_query=(1, 2), seed=23
    )
    service.search_many(list(workload))  # populate
    before = service.statistics()

    maintainer.insert("comment", ("901", "001", "120", "Great milkshake burger", "07/12"))
    maintainer.insert("restaurant", ("902", "Grill House", "American", 11, 3.5))
    maintainer.delete("comment", lambda record: record["cid"] == "203")

    retained_hits = 0
    recomputed = 0
    for keywords in workload.unique_queries():
        served = service.search(keywords)
        fresh = engine.searcher.search(keywords, k=5, size_threshold=20)
        assert as_comparable(served.results) == as_comparable(fresh), keywords
        if served.cached:
            retained_hits += 1
        else:
            recomputed += 1
    after = service.statistics()
    service.close()
    unique_count = len(workload.unique_queries())
    return {
        "unique_queries": unique_count,
        "updates_applied": maintainer.updates_applied,
        "retained_hits": retained_hits,
        "recomputed": recomputed,
        "retained_hit_rate": retained_hits / unique_count,
        "stale_drops": after["cache"]["stale_drops"] - before["cache"]["stale_drops"],
        "epoch": after["epoch"],
        "post_update_results_verified_fresh": True,
    }


# ----------------------------------------------------------------------
def run_benchmark() -> Dict:
    fragments = synthetic_fragments(FRAGMENTS)
    workload_source = build_searcher(fragments, InMemoryStore())
    workload = zipf_keyword_queries(
        workload_source.index.document_frequencies(),
        count=QUERY_COUNT,
        skew=SKEW,
        keywords_per_query=(1, 2),
        seed=31,
    )

    cache_comparison = run_cache_comparison(fragments, workload)
    worker_scaling = run_worker_scaling(fragments, workload)
    disk_worker_scaling = run_disk_worker_scaling(fragments, workload)
    mixed = run_mixed_maintenance()

    payload = {
        "fragments": FRAGMENTS,
        "queries": QUERY_COUNT,
        "unique_queries": len(workload.unique_queries()),
        "zipf_skew": SKEW,
        "k": K,
        "size_threshold": SIZE_THRESHOLD,
        "cache_comparison": cache_comparison,
        "worker_scaling": worker_scaling,
        "disk_worker_scaling": disk_worker_scaling,
        "mixed_maintenance": mixed,
    }

    print_table(
        ["backend", "uncached p50 (ms)", "cold p50 (ms)", "hot p50 (ms)", "hot p99 (ms)",
         "hot hit rate", "hot speedup", "parity"],
        [
            (
                m["backend"],
                round(m["uncached"]["p50_ms"], 4),
                round(m["cold_cache"]["p50_ms"], 4),
                round(m["hot_cache"]["p50_ms"], 4),
                round(m["hot_cache"]["p99_ms"], 4),
                round(m["hot_hit_rate"], 3),
                round(m["hot_speedup_vs_uncached"], 1),
                "ok" if m["parity_ok"] else "MISMATCH",
            )
            for m in cache_comparison
        ],
        title=f"SearchService vs uncached search (Zipf skew {SKEW}, {QUERY_COUNT} queries)",
    )
    print_table(
        ["workers", "throughput (q/s)", "speedup vs 1"],
        [
            (p["workers"], round(p["throughput_qps"], 1), round(p["speedup_vs_1_worker"], 2))
            for p in worker_scaling["points"]
        ],
        title=f"search_many scaling over blocking reads ({worker_scaling['read_delay_us']:.0f}us/read)",
    )
    disk_rows = [
        (p["workers"], "pooled", round(p["throughput_qps"], 1),
         round(p["speedup_vs_1_worker"], 2))
        for p in disk_worker_scaling["points"]
    ]
    locked = disk_worker_scaling["locked_connection_at_max_workers"]
    disk_rows.append(
        (locked["workers"], "locked (pre-overhaul)", round(locked["throughput_qps"], 1),
         round(locked["speedup_vs_1_worker"], 2))
    )
    print_table(
        ["workers", "read connections", "throughput (q/s)", "speedup vs 1"],
        disk_rows,
        title=(
            f"disk-backed search_many scaling "
            f"({disk_worker_scaling['read_delay_us']:.0f}us storage latency/read, "
            f"parity {'ok' if disk_worker_scaling['parity_ok'] else 'MISMATCH'})"
        ),
    )
    print_table(
        ["unique queries", "updates", "retained hits", "recomputed", "stale drops"],
        [
            (
                mixed["unique_queries"],
                mixed["updates_applied"],
                mixed["retained_hits"],
                mixed["recomputed"],
                mixed["stale_drops"],
            )
        ],
        title="Mixed search + maintenance (fooddb): epoch invalidation is surgical",
    )

    path = write_json("BENCH_serving.json", payload)
    print(f"\nwrote {path}")
    return payload


def test_serving_benchmark(benchmark):
    payload = benchmark.pedantic(run_benchmark, rounds=1, iterations=1)

    # every service answer matched the uncached baseline byte-for-byte
    assert all(m["parity_ok"] for m in payload["cache_comparison"])
    # acceptance: >= 5x hot-cache speedup over uncached TopKSearcher.search
    best_hot = max(m["hot_speedup_vs_uncached"] for m in payload["cache_comparison"])
    assert best_hot >= 5.0, payload["cache_comparison"]
    # acceptance: throughput grows with workers on a blocking-read backend
    # ("linear-ish"; the CI floor is deliberately below the ~3x typical here)
    points = payload["worker_scaling"]["points"]
    if len(points) > 1 and points[-1]["workers"] > points[0]["workers"]:
        assert points[-1]["speedup_vs_1_worker"] >= 1.8, points
    # acceptance: the disk backend's pooled readers must scale too, with
    # every pass's ranked results byte-identical to the latency-free
    # serial reference
    disk = payload["disk_worker_scaling"]
    assert disk["parity_ok"]
    disk_points = disk["points"]
    if len(disk_points) > 1 and disk_points[-1]["workers"] > disk_points[0]["workers"]:
        # Scale-independent regression check: the connection pool must beat
        # the pre-overhaul locked-connection regime at the same worker count
        # (on tiny smoke corpora the in-memory caches absorb most SQL
        # mid-pass, so the absolute speedup floor only binds at full scale).
        locked = disk["locked_connection_at_max_workers"]
        assert disk_points[-1]["throughput_qps"] >= 1.2 * locked["throughput_qps"], disk
        if FRAGMENTS >= 4000:
            # acceptance: >= 1.5x at the top worker count vs 1 worker
            assert disk_points[-1]["speedup_vs_1_worker"] >= 1.5, disk_points
    # maintenance must invalidate surgically: something recomputed, the
    # untouched majority still hit, and every answer verified fresh
    mixed = payload["mixed_maintenance"]
    assert mixed["recomputed"] >= 1
    assert mixed["retained_hits"] >= 1
    assert mixed["post_update_results_verified_fresh"]


if __name__ == "__main__":
    run_benchmark()
